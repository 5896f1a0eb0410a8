//! Channel adapter shared by all memory controllers.
//!
//! `PortIo` owns the controller side of every open channel of a
//! [`MemoryInterface`]: small input FIFOs for addresses, store data, fake
//! tokens and allocation tokens (providing the slack the paper's input FIFO
//! gives the arbiter, Fig. 3), plus output FIFOs for load results. The
//! controller logic (LSQ, PreVV, direct) pops arrivals, does its thing, and
//! pushes load results; `PortIo` handles all valid/ready plumbing and makes
//! the controller *fully registered* — no combinational path crosses it, so
//! attaching a controller can never create a combinational cycle.

use std::collections::{BTreeMap, VecDeque};

use prevv_dataflow::{ChannelId, Ports, Signals, Token};
use prevv_ir::{MemoryInterface, MemoryPort};

/// Default depth of each input FIFO.
pub const DEFAULT_IO_CAPACITY: usize = 4;

/// The channel adapter.
#[derive(Debug)]
pub struct PortIo {
    iface: MemoryInterface,
    cap: usize,
    addr_q: Vec<VecDeque<Token>>,
    data_q: Vec<VecDeque<Token>>,
    fake_q: Vec<VecDeque<Token>>,
    /// Per-port result reorder buffers: results may complete out of order
    /// (e.g. a forwarded load overtaking an in-flight RAM read) but each
    /// port's output channel delivers them in iteration order, as a real
    /// load port does.
    out_rob: Vec<BTreeMap<u64, Token>>,
    next_out: Vec<u64>,
    alloc_q: VecDeque<Token>,
    fakes_seen: u64,
    /// Set by every state-mutating operation since the last
    /// [`take_dirty`](PortIo::take_dirty); controllers fold it into their
    /// `commit` changed-flag so the event scheduler and the engine watchdog
    /// see exactly the mutations that can alter a future `eval`.
    dirty: bool,
}

impl PortIo {
    /// Creates an adapter for `iface` with the default FIFO capacity.
    pub fn new(iface: MemoryInterface) -> Self {
        Self::with_capacity(iface, DEFAULT_IO_CAPACITY)
    }

    /// Creates an adapter with an explicit input FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(iface: MemoryInterface, cap: usize) -> Self {
        assert!(cap > 0, "port io capacity must be positive");
        let n = iface.ports.len();
        PortIo {
            iface,
            cap,
            addr_q: vec![VecDeque::new(); n],
            data_q: vec![VecDeque::new(); n],
            fake_q: vec![VecDeque::new(); n],
            out_rob: vec![BTreeMap::new(); n],
            next_out: vec![0; n],
            alloc_q: VecDeque::new(),
            fakes_seen: 0,
            dirty: false,
        }
    }

    /// The wrapped interface.
    pub fn iface(&self) -> &MemoryInterface {
        &self.iface
    }

    /// Port descriptor.
    pub fn port(&self, p: usize) -> &MemoryPort {
        &self.iface.ports[p]
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.iface.ports.len()
    }

    /// Resolves a port's raw index token value to a flat RAM address.
    pub fn resolve(&self, p: usize, raw: prevv_dataflow::Value) -> usize {
        let array = self.iface.ports[p].op.array;
        self.iface.arrays[array.0].flat_addr(raw)
    }

    /// All channels, for [`prevv_dataflow::Component::ports`].
    pub fn channel_ports(&self) -> Ports {
        let mut inputs: Vec<ChannelId> = vec![self.iface.alloc_in];
        let mut outputs = Vec::new();
        for p in &self.iface.ports {
            inputs.push(p.addr_in);
            if let Some(d) = p.data_in {
                inputs.push(d);
            }
            if let Some(f) = p.fake_in {
                inputs.push(f);
            }
            if let Some(o) = p.data_out {
                outputs.push(o);
            }
        }
        Ports::new(inputs, outputs)
    }

    /// Combinational half: accept inputs with free FIFO space, offer queued
    /// load results.
    pub fn eval(&self, sig: &mut Signals) {
        sig.accept_if(self.iface.alloc_in, self.alloc_q.len() < self.cap);
        for (i, p) in self.iface.ports.iter().enumerate() {
            sig.accept_if(p.addr_in, self.addr_q[i].len() < self.cap);
            if let Some(d) = p.data_in {
                sig.accept_if(d, self.data_q[i].len() < self.cap);
            }
            if let Some(f) = p.fake_in {
                sig.accept_if(f, self.fake_q[i].len() < self.cap);
            }
            if let Some(o) = p.data_out {
                if let Some(&t) = self.out_rob[i].get(&self.next_out[i]) {
                    sig.drive(o, t);
                }
            }
        }
    }

    /// Sequential half: ingest fired inputs, retire fired outputs. Call at
    /// the top of the controller's `commit`.
    pub fn commit_io(&mut self, sig: &Signals) {
        if let Some(t) = sig.taken(self.iface.alloc_in) {
            self.alloc_q.push_back(t);
            self.dirty = true;
        }
        for (i, p) in self.iface.ports.iter().enumerate() {
            if let Some(t) = sig.taken(p.addr_in) {
                self.addr_q[i].push_back(t);
                self.dirty = true;
            }
            if let Some(t) = p.data_in.and_then(|d| sig.taken(d)) {
                self.data_q[i].push_back(t);
                self.dirty = true;
            }
            if let Some(t) = p.fake_in.and_then(|f| sig.taken(f)) {
                self.fake_q[i].push_back(t);
                self.fakes_seen += 1;
                self.dirty = true;
            }
            if let Some(o) = p.data_out {
                if sig.fired(o) {
                    self.out_rob[i].remove(&self.next_out[i]);
                    self.next_out[i] += 1;
                    self.dirty = true;
                }
            }
        }
    }

    /// Returns (and clears) the dirty flag: was any queue mutated since the
    /// last call? Read-only peeks never set it.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.dirty, false)
    }

    /// True when any input FIFO holds a token the controller has not yet
    /// consumed (queued results awaiting delivery do not count).
    pub fn has_pending_inputs(&self) -> bool {
        !self.alloc_q.is_empty()
            || self
                .addr_q
                .iter()
                .chain(&self.data_q)
                .chain(&self.fake_q)
                .any(|q| !q.is_empty())
    }

    /// Pops the next allocation token (one per iteration, program order).
    pub fn take_alloc(&mut self) -> Option<Token> {
        let t = self.alloc_q.pop_front();
        self.dirty |= t.is_some();
        t
    }

    /// Pops the next address token of port `p`.
    pub fn take_addr(&mut self, p: usize) -> Option<Token> {
        let t = self.addr_q[p].pop_front();
        self.dirty |= t.is_some();
        t
    }

    /// Peeks the next address token of port `p`.
    pub fn peek_addr(&self, p: usize) -> Option<&Token> {
        self.addr_q[p].front()
    }

    /// Finds a queued (not yet consumed) address token of port `p` for a
    /// specific iteration. Store address tokens typically arrive well before
    /// the store's data; controllers use this early visibility for address
    /// disambiguation.
    pub fn find_addr(&self, p: usize, iter: u64) -> Option<Token> {
        self.addr_q[p].iter().find(|t| t.tag.iter == iter).copied()
    }

    /// Pops the next store-data token of port `p`.
    pub fn take_data(&mut self, p: usize) -> Option<Token> {
        let t = self.data_q[p].pop_front();
        self.dirty |= t.is_some();
        t
    }

    /// Peeks the next store-data token of port `p`.
    pub fn peek_data(&self, p: usize) -> Option<&Token> {
        self.data_q[p].front()
    }

    /// Pops the next fake token of port `p` (paper §V-C).
    pub fn take_fake(&mut self, p: usize) -> Option<Token> {
        let t = self.fake_q[p].pop_front();
        self.dirty |= t.is_some();
        t
    }

    /// Peeks the next fake token of port `p`.
    pub fn peek_fake(&self, p: usize) -> Option<&Token> {
        self.fake_q[p].front()
    }

    /// Queues a load result for delivery on port `p`'s output channel.
    /// Results may be pushed out of iteration order; delivery is reordered.
    ///
    /// # Panics
    ///
    /// Panics if port `p` is not a load, or if a (non-squashed) result for
    /// the same iteration is already queued.
    pub fn push_result(&mut self, p: usize, token: Token) {
        assert!(
            self.iface.ports[p].data_out.is_some(),
            "port {p} has no result channel"
        );
        let prev = self.out_rob[p].insert(token.tag.iter, token);
        assert!(
            prev.is_none(),
            "duplicate result for port {p} iteration {}",
            token.tag.iter
        );
        self.dirty = true;
    }

    /// Total fake tokens received.
    pub fn fakes_seen(&self) -> u64 {
        self.fakes_seen
    }

    /// Drops every queued token of iterations `>= from_iter`.
    pub fn flush(&mut self, from_iter: u64) {
        let before = self.occupancy();
        let keep = |t: &Token| t.tag.iter < from_iter;
        self.alloc_q.retain(keep);
        for q in self
            .addr_q
            .iter_mut()
            .chain(&mut self.data_q)
            .chain(&mut self.fake_q)
        {
            q.retain(keep);
        }
        for (rob, next) in self.out_rob.iter_mut().zip(&mut self.next_out) {
            rob.retain(|&iter, _| iter < from_iter);
            if *next > from_iter {
                *next = from_iter;
                self.dirty = true;
            }
        }
        self.dirty |= self.occupancy() != before;
    }

    /// True when every queue is empty.
    pub fn is_idle(&self) -> bool {
        self.alloc_q.is_empty()
            && self.addr_q.iter().all(VecDeque::is_empty)
            && self.data_q.iter().all(VecDeque::is_empty)
            && self.fake_q.iter().all(VecDeque::is_empty)
            && self.out_rob.iter().all(BTreeMap::is_empty)
    }

    /// Tokens currently queued (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.alloc_q.len()
            + self
                .addr_q
                .iter()
                .chain(&self.data_q)
                .chain(&self.fake_q)
                .map(VecDeque::len)
                .sum::<usize>()
            + self.out_rob.iter().map(BTreeMap::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::components::LoopLevel;
    use prevv_ir::{synthesize, ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};

    fn io() -> PortIo {
        let a = ArrayId(0);
        let spec = KernelSpec::new(
            "t",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let s = synthesize(&spec).expect("synth");
        PortIo::new(s.interface)
    }

    #[test]
    fn accepts_until_capacity() {
        let mut io = PortIo::with_capacity(io().iface().clone(), 2);
        let load_addr = io.port(0).addr_in;
        for i in 0..2 {
            let mut sig = Signals::new(64);
            io.eval(&mut sig);
            assert!(sig.is_ready(load_addr));
            sig.drive(load_addr, Token::new(i, i as u64));
            io.eval(&mut sig);
            io.commit_io(&sig);
        }
        let mut sig = Signals::new(64);
        io.eval(&mut sig);
        assert!(!sig.is_ready(load_addr), "fifo full backpressures");
        assert_eq!(io.occupancy(), 2);
    }

    #[test]
    fn results_are_offered_until_taken() {
        let mut io = io();
        let out = io.port(0).data_out.expect("load port");
        io.push_result(0, Token::new(9, 0));
        let mut sig = Signals::new(64);
        io.eval(&mut sig);
        assert!(sig.is_valid(out));
        // Not taken: stays queued.
        io.commit_io(&sig);
        assert_eq!(io.occupancy(), 1);
        let mut sig = Signals::new(64);
        sig.accept(out);
        io.eval(&mut sig);
        io.commit_io(&sig);
        assert!(io.is_idle());
    }

    #[test]
    fn flush_clears_squashed_tokens() {
        let mut io = io();
        io.push_result(0, Token::new(1, 3));
        io.push_result(0, Token::new(2, 7));
        io.flush(5);
        assert_eq!(io.occupancy(), 1);
    }

    #[test]
    fn find_addr_sees_queued_tokens_by_iteration() {
        let mut io = io();
        let load_addr = io.port(0).addr_in;
        for iter in 0..3u64 {
            let mut sig = Signals::new(64);
            io.eval(&mut sig);
            sig.drive(load_addr, Token::new(iter as i64, iter));
            io.eval(&mut sig);
            io.commit_io(&sig);
        }
        assert_eq!(io.find_addr(0, 1), Some(Token::new(1, 1)));
        assert_eq!(io.find_addr(0, 7), None, "iteration never queued");
        // Consuming the front does not disturb lookup of the rest.
        io.take_addr(0);
        assert_eq!(io.find_addr(0, 0), None, "consumed");
        assert_eq!(io.find_addr(0, 2), Some(Token::new(2, 2)));
    }

    #[test]
    fn resolve_uses_array_layout() {
        let io = io();
        // Port 0 accesses array "a" (base 0, len 8).
        assert_eq!(io.resolve(0, 9), 1);
        assert_eq!(io.resolve(0, -1), 7);
    }
}
