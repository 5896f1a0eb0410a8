//! The load-store queue baselines — the component PreVV eliminates.
//!
//! Models the Dynamatic LSQ of Josipović et al. \[15\]/\[4\]: a **group
//! allocator** receives one token per iteration in program order and
//! reserves, atomically, one entry per static memory op of that iteration
//! (the program-order ROM), a **load queue** and **store queue** hold the
//! in-flight ops, loads perform an **associative search** of older stores
//! (wait on unknown addresses, forward on a match), and stores commit to RAM
//! strictly in order from the queue head. The fast-allocation variant of
//! Elakhras et al. \[8\] ("straight to the queue") is the same machine with
//! zero allocation latency — see [`LsqConfig::fast`].
//!
//! The high-frequency LSQ of Szafarczyk et al. (FPL'23, arXiv 2311.08198)
//! is the same queues under a third [`Allocation`] policy: entry groups
//! are allocated **speculatively**, in program order, ahead of the control
//! network, within a window over the iterations it has confirmed — see
//! [`LsqConfig::speculative`]. Entries, search, forwarding, in-order
//! commit and fake-token handling are shared by all three.
//!
//! The resource cost of all this — per-entry CAM comparators, allocation
//! logic, wide priority encoders — is what Fig. 1 of the paper shows
//! dominating Dynamatic circuits; the analytic model in `prevv-area` prices
//! it from this crate's configuration.

use std::cell::RefCell;
use std::rc::Rc;

use prevv_dataflow::{Component, Ports, Signals, Tag, Token, Value};
use prevv_ir::{MemOpKind, MemoryInterface};

use crate::delay::DelayLine;
use crate::portio::PortIo;
use crate::ram::{shared, Ram, SharedRam};
use crate::MemTiming;

/// How the queue reserves an iteration's entry group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// One allocation token per iteration from the control network; the
    /// group is usable `latency` cycles after its token arrives. Plain
    /// Dynamatic routes allocation requests through the control network
    /// (several cycles); the fast-allocation plugin \[8\] delivers them
    /// straight to the queue.
    Grouped {
        /// Cycles from token arrival to usable entries.
        latency: u32,
    },
    /// Groups are allocated ahead of the control network in program order,
    /// at most `window` iterations beyond those confirmed by drained
    /// allocation tokens, and never past the kernel's last iteration. The
    /// allocator is off the critical path: an iteration's entries exist
    /// before any of its address tokens show up.
    Speculative {
        /// Iterations that may be allocated beyond the last confirmed one.
        window: usize,
    },
}

/// Configuration of the LSQ baselines.
#[derive(Debug, Clone)]
pub struct LsqConfig {
    /// Load queue entries.
    pub load_depth: usize,
    /// Store queue entries.
    pub store_depth: usize,
    /// How entry groups are reserved.
    pub allocation: Allocation,
    /// RAM timing and port bandwidth.
    pub timing: MemTiming,
}

impl LsqConfig {
    /// Plain Dynamatic \[15\]: depth-16 queues, slow allocation path.
    pub fn dynamatic(depth: usize) -> Self {
        LsqConfig {
            load_depth: depth,
            store_depth: depth,
            allocation: Allocation::Grouped { latency: 3 },
            timing: MemTiming::default(),
        }
    }

    /// Fast load-store queue allocation \[8\]: same queues, allocation tokens
    /// delivered straight to the queue.
    pub fn fast(depth: usize) -> Self {
        LsqConfig {
            allocation: Allocation::Grouped { latency: 0 },
            ..Self::dynamatic(depth)
        }
    }

    /// Speculative allocation (Szafarczyk et al.): same queues, groups
    /// allocated up to `depth` iterations ahead of confirmation.
    pub fn speculative(depth: usize) -> Self {
        LsqConfig {
            allocation: Allocation::Speculative { window: depth },
            ..Self::dynamatic(depth)
        }
    }
}

/// Errors raised when constructing an LSQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsqError {
    /// One iteration has more loads than the load queue can hold, so group
    /// allocation could never succeed.
    LoadQueueTooShallow {
        /// Loads per iteration.
        needed: usize,
        /// Configured depth.
        depth: usize,
    },
    /// One iteration has more stores than the store queue can hold.
    StoreQueueTooShallow {
        /// Stores per iteration.
        needed: usize,
        /// Configured depth.
        depth: usize,
    },
}

impl std::fmt::Display for LsqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsqError::LoadQueueTooShallow { needed, depth } => write!(
                f,
                "load queue depth {depth} cannot hold one iteration's {needed} loads"
            ),
            LsqError::StoreQueueTooShallow { needed, depth } => write!(
                f,
                "store queue depth {depth} cannot hold one iteration's {needed} stores"
            ),
        }
    }
}

impl std::error::Error for LsqError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Allocated; waiting for operands / ordering.
    Waiting,
    /// Read issued to RAM (loads only).
    Issued,
    /// Finished (result delivered / written); awaiting head deallocation.
    Done,
    /// Guard was false; a fake token cancelled this entry.
    Cancelled,
}

#[derive(Debug, Clone)]
struct Entry {
    port: usize,
    iter: u64,
    seq: u32,
    tag: Tag,
    addr: Option<usize>,
    data: Option<Value>,
    state: EntryState,
}

impl Entry {
    fn order(&self) -> (u64, u32) {
        (self.iter, self.seq)
    }
}

/// Statistics specific to the LSQ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Loads satisfied by store-to-load forwarding.
    pub forwards: u64,
    /// Loads issued to RAM.
    pub ram_reads: u64,
    /// Stores committed to RAM.
    pub ram_writes: u64,
    /// Cycles in which allocation stalled for lack of queue space.
    pub alloc_stall_cycles: u64,
    /// Peak combined queue occupancy (loads + stores).
    pub high_water: usize,
}

/// Shared handle to LSQ statistics, readable after simulation.
pub type SharedLsqStats = Rc<RefCell<LsqStats>>;

/// The load-store queue controller.
#[derive(Debug)]
pub struct Lsq {
    io: PortIo,
    ram: SharedRam,
    config: LsqConfig,
    lq: Vec<Entry>,
    sq: Vec<Entry>,
    /// Grouped policy: allocation tokens in flight, then awaiting room.
    alloc_delay: DelayLine<Token>,
    ready_allocs: std::collections::VecDeque<Token>,
    /// Speculative policy: next iteration to allocate (program order),
    /// iterations confirmed by drained allocation tokens, and the total
    /// speculation never runs past.
    next_spec_iter: u64,
    confirmed: u64,
    total_iters: u64,
    reads: DelayLine<(usize, u64, u32, Value)>,
    loads_per_iter: usize,
    stores_per_iter: usize,
    stats: LsqStats,
    shared: SharedLsqStats,
    /// Did the last commit mutate the io adapter — the only state `eval`
    /// reads? Backs [`Component::eval_invalidated`].
    eval_dirty: bool,
}

impl Lsq {
    /// Creates an LSQ over a fresh RAM initialized from the interface's
    /// array images.
    ///
    /// # Errors
    ///
    /// Returns [`LsqError`] if one iteration's ops cannot fit the queues.
    pub fn new(iface: MemoryInterface, config: LsqConfig) -> Result<(Self, SharedRam), LsqError> {
        let (lsq, ram, _) = Self::with_stats(iface, config)?;
        Ok((lsq, ram))
    }

    /// Like [`Lsq::new`], additionally returning a shared statistics handle
    /// that stays readable after the component is moved into a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`LsqError`] if one iteration's ops cannot fit the queues.
    pub fn with_stats(
        iface: MemoryInterface,
        config: LsqConfig,
    ) -> Result<(Self, SharedRam, SharedLsqStats), LsqError> {
        let loads_per_iter = iface.load_ports();
        let stores_per_iter = iface.store_ports();
        if loads_per_iter > config.load_depth {
            return Err(LsqError::LoadQueueTooShallow {
                needed: loads_per_iter,
                depth: config.load_depth,
            });
        }
        if stores_per_iter > config.store_depth {
            return Err(LsqError::StoreQueueTooShallow {
                needed: stores_per_iter,
                depth: config.store_depth,
            });
        }
        let ram = shared(Ram::new(iface.initial_ram()));
        let stats_handle = Rc::new(RefCell::new(LsqStats::default()));
        let total_iters = iface.iterations as u64;
        Ok((
            Lsq {
                io: PortIo::new(iface),
                ram: ram.clone(),
                config,
                lq: Vec::new(),
                sq: Vec::new(),
                alloc_delay: DelayLine::new(),
                ready_allocs: std::collections::VecDeque::new(),
                next_spec_iter: 0,
                confirmed: 0,
                total_iters,
                reads: DelayLine::new(),
                loads_per_iter,
                stores_per_iter,
                stats: LsqStats::default(),
                shared: stats_handle.clone(),
                eval_dirty: true,
            },
            ram,
            stats_handle,
        ))
    }

    /// LSQ-specific statistics.
    pub fn stats(&self) -> LsqStats {
        self.stats
    }

    /// Runs this cycle's allocation under the configured policy. Each
    /// policy leaves the other's state untouched (empty or zero).
    fn allocate(&mut self) {
        match self.config.allocation {
            Allocation::Grouped { latency } => {
                if let Some(t) = self.io.take_alloc() {
                    self.alloc_delay.push(latency, t);
                }
                self.ready_allocs.extend(self.alloc_delay.tick());
                while let Some(&front) = self.ready_allocs.front() {
                    if !self.has_room() {
                        break;
                    }
                    self.ready_allocs.pop_front();
                    self.push_group(front.tag);
                }
            }
            Allocation::Speculative { window } => {
                // Confirmation tokens merely advance the window; they gate
                // nothing else, which is the whole point of the design.
                if self.io.take_alloc().is_some() {
                    self.confirmed += 1;
                }
                while self.next_spec_iter < self.total_iters
                    && self.next_spec_iter < self.confirmed + window as u64
                    && self.has_room()
                {
                    // Placeholder tag: overwritten by the address token (or
                    // unused — cancelled loads answer with the fake token's
                    // tag), so it never reaches a result channel.
                    self.push_group(Tag::new(self.next_spec_iter));
                    self.next_spec_iter += 1;
                }
            }
        }
    }

    /// Can one more iteration's group fit? Counts a capacity stall if not.
    fn has_room(&mut self) -> bool {
        let room = self.lq.len() + self.loads_per_iter <= self.config.load_depth
            && self.sq.len() + self.stores_per_iter <= self.config.store_depth;
        if !room {
            self.stats.alloc_stall_cycles += 1;
        }
        room
    }

    /// Reserves one entry per static memory op for iteration `tag.iter`.
    fn push_group(&mut self, tag: Tag) {
        for p in 0..self.io.port_count() {
            let op = &self.io.port(p).op;
            let entry = Entry {
                port: p,
                iter: tag.iter,
                seq: op.seq,
                tag,
                addr: None,
                data: None,
                state: EntryState::Waiting,
            };
            match op.kind {
                MemOpKind::Load => self.lq.push(entry),
                MemOpKind::Store => self.sq.push(entry),
            }
        }
    }

    fn ingest_arrivals(&mut self) {
        for p in 0..self.io.port_count() {
            let is_load = self.io.port(p).is_load();
            // Addresses.
            while let Some(tok) = self.io.peek_addr(p).copied() {
                let addr = self.io.resolve(p, tok.value);
                let q = if is_load { &mut self.lq } else { &mut self.sq };
                let Some(e) = q
                    .iter_mut()
                    .find(|e| e.port == p && e.iter == tok.tag.iter && e.addr.is_none())
                else {
                    break; // not allocated yet: leave queued upstream
                };
                e.addr = Some(addr);
                e.tag = tok.tag;
                self.io.take_addr(p).expect("peeked");
            }
            // Store data.
            if !is_load {
                while let Some(tok) = self.io.peek_data(p).copied() {
                    let Some(e) = self
                        .sq
                        .iter_mut()
                        .find(|e| e.port == p && e.iter == tok.tag.iter && e.data.is_none())
                    else {
                        break;
                    };
                    e.data = Some(tok.value);
                    self.io.take_data(p).expect("peeked");
                }
            }
            // Fake tokens cancel their entry; cancelled loads still owe a
            // dummy result so the datapath's token balance holds.
            while let Some(tok) = self.io.peek_fake(p).copied() {
                let q = if is_load { &mut self.lq } else { &mut self.sq };
                let Some(e) = q.iter_mut().find(|e| {
                    e.port == p && e.iter == tok.tag.iter && e.state == EntryState::Waiting
                }) else {
                    break;
                };
                e.state = EntryState::Cancelled;
                self.io.take_fake(p).expect("peeked");
                if is_load {
                    self.io.push_result(p, Token::tagged(0, tok.tag));
                }
            }
        }
    }

    fn issue_loads(&mut self) {
        let mut budget = self.config.timing.read_ports;
        // Snapshot of the store queue for the associative search.
        for li in 0..self.lq.len() {
            if budget == 0 {
                break;
            }
            let (order, addr) = {
                let l = &self.lq[li];
                if l.state != EntryState::Waiting {
                    continue;
                }
                let Some(addr) = l.addr else { continue };
                (l.order(), addr)
            };
            // Associative search of older stores (paper §II-B): any older
            // store with an unknown address blocks the load; the youngest
            // older store to the same address forwards its data once known.
            let mut blocked = false;
            let mut forward: Option<(u64, u32, Option<Value>)> = None;
            for s in &self.sq {
                if s.state == EntryState::Cancelled || s.order() >= order {
                    continue;
                }
                match s.addr {
                    None => {
                        blocked = true;
                        break;
                    }
                    Some(sa) if sa == addr => {
                        if forward.is_none_or(|(fi, fs, _)| (fi, fs) < s.order()) {
                            forward = Some((s.iter, s.seq, s.data));
                        }
                    }
                    Some(_) => {}
                }
            }
            if blocked {
                continue;
            }
            match forward {
                Some((_, _, Some(v))) => {
                    // Store-to-load forwarding.
                    let l = &mut self.lq[li];
                    l.state = EntryState::Done;
                    l.data = Some(v);
                    let (port, tag) = (l.port, l.tag);
                    self.io.push_result(port, Token::tagged(v, tag));
                    self.stats.forwards += 1;
                }
                Some((_, _, None)) => {
                    // Matching older store whose data is not ready: wait.
                }
                None => {
                    // Sample RAM now; all older matching stores are ruled
                    // out, and younger stores commit only behind them, so
                    // the value is stable for this load.
                    let value = self.ram.borrow_mut().read(addr);
                    let l = &mut self.lq[li];
                    l.state = EntryState::Issued;
                    self.reads.push(
                        self.config.timing.read_latency,
                        (l.port, l.iter, l.seq, value),
                    );
                    self.stats.ram_reads += 1;
                    budget -= 1;
                }
            }
        }
    }

    fn commit_stores(&mut self) {
        let mut budget = self.config.timing.write_ports;
        while let Some(head) = self.sq.first() {
            match head.state {
                EntryState::Cancelled => {
                    self.sq.remove(0);
                }
                _ => {
                    let (Some(addr), Some(data)) = (head.addr, head.data) else {
                        break;
                    };
                    if budget == 0 {
                        break;
                    }
                    self.ram.borrow_mut().write(addr, data);
                    self.stats.ram_writes += 1;
                    budget -= 1;
                    self.sq.remove(0);
                }
            }
        }
    }

    fn dealloc_loads(&mut self) {
        while let Some(head) = self.lq.first() {
            if matches!(head.state, EntryState::Done | EntryState::Cancelled) {
                self.lq.remove(0);
            } else {
                break;
            }
        }
    }

    /// Queue and allocator positions; a change across a commit catches
    /// entry motion that bypasses the io queues.
    fn progress(&self) -> (usize, usize, usize, u64, u64) {
        (
            self.lq.len(),
            self.sq.len(),
            self.ready_allocs.len(),
            self.next_spec_iter,
            self.confirmed,
        )
    }
}

impl Component for Lsq {
    fn type_name(&self) -> &'static str {
        match self.config.allocation {
            Allocation::Grouped { .. } => "lsq",
            Allocation::Speculative { .. } => "spec_lsq",
        }
    }

    fn ports(&self) -> Ports {
        self.io.channel_ports()
    }

    fn eval(&self, sig: &mut Signals) {
        self.io.eval(sig);
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        // Occupied delay lines tick below even when nothing else moves, and
        // queue and allocator motion catches entry changes that bypass the
        // io queues; together with the io dirty flag this is an honest
        // changed-signal for the scheduler/watchdog (the stats mirror below
        // is bookkeeping and deliberately excluded).
        let ticking = !self.alloc_delay.is_empty() || !self.reads.is_empty();
        let before = self.progress();
        self.io.commit_io(sig);

        // Read completions (issued `read_latency` cycles ago).
        for (port, iter, seq, value) in self.reads.tick() {
            if let Some(e) = self
                .lq
                .iter_mut()
                .find(|e| e.port == port && e.iter == iter && e.seq == seq)
            {
                e.state = EntryState::Done;
                e.data = Some(value);
                let tag = e.tag;
                self.io.push_result(port, Token::tagged(value, tag));
            }
        }

        self.allocate();

        self.ingest_arrivals();
        self.issue_loads();
        self.commit_stores();
        self.dealloc_loads();
        self.stats.high_water = self.stats.high_water.max(self.lq.len() + self.sq.len());
        *self.shared.borrow_mut() = self.stats;

        self.eval_dirty = self.io.take_dirty();
        self.eval_dirty
            || ticking
            || !self.alloc_delay.is_empty()
            || !self.reads.is_empty()
            || before != self.progress()
    }

    fn eval_invalidated(&self) -> bool {
        self.eval_dirty
    }

    fn flush(&mut self, from_iter: u64) {
        // No LSQ rides the squash bus, so none receives a flush in normal
        // operation; this keeps the component well-behaved if one arrives,
        // rolling the speculation pointer back with the queues.
        self.eval_dirty = true;
        self.io.flush(from_iter);
        self.lq.retain(|e| e.iter < from_iter);
        self.sq.retain(|e| e.iter < from_iter);
        self.ready_allocs.retain(|t| t.tag.iter < from_iter);
        self.alloc_delay.flush_if(|t| t.tag.iter >= from_iter);
        self.reads.flush_if(|&(_, iter, _, _)| iter >= from_iter);
        self.next_spec_iter = self.next_spec_iter.min(from_iter);
        self.confirmed = self.confirmed.min(from_iter);
    }

    fn is_idle(&self) -> bool {
        self.io.is_idle()
            && self.lq.is_empty()
            && self.sq.is_empty()
            && self.ready_allocs.is_empty()
            && self.alloc_delay.is_empty()
            && self.reads.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.io.occupancy() + self.lq.len() + self.sq.len() + self.ready_allocs.len()
    }

    fn capacity(&self) -> usize {
        self.config.load_depth + self.config.store_depth
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prevv_dataflow::components::{BinOp, LoopLevel};
    use prevv_dataflow::{SimConfig, SimReport, Simulator};
    use prevv_ir::{golden, synthesize, ArrayDecl, ArrayId, Expr, KernelSpec, OpaqueFn, Stmt};

    pub(crate) fn run_lsq(
        spec: &KernelSpec,
        config: LsqConfig,
    ) -> (Vec<Vec<i64>>, SimReport, LsqStats) {
        let mut s = synthesize(spec).expect("synth");
        let (ctrl, ram, stats) = Lsq::with_stats(s.interface.clone(), config).expect("fits");
        s.netlist.add("lsq", ctrl);
        let mut sim = Simulator::new(s.netlist, s.bus)
            .expect("valid netlist")
            .with_config(SimConfig {
                max_cycles: 500_000,
                watchdog: 2_000,
                ..SimConfig::default()
            });
        let report = sim.run().expect("completes");
        let ram = ram.borrow();
        let arrays = s
            .interface
            .split_ram(ram.image())
            .into_iter()
            .map(<[i64]>::to_vec)
            .collect();
        let stats = *stats.borrow();
        (arrays, report, stats)
    }

    /// Runs `spec` and asserts the first array matches the golden model.
    pub(crate) fn assert_golden(spec: &KernelSpec, config: LsqConfig) -> Vec<i64> {
        let gold = golden::execute(spec);
        let (arrays, _, _) = run_lsq(spec, config);
        assert_eq!(arrays[0], gold.array(ArrayId(0)));
        arrays[0].clone()
    }

    /// The reduction that breaks DirectMemory: one counter, serial chain.
    pub(crate) fn reduction() -> KernelSpec {
        let s = ArrayId(0);
        KernelSpec::new(
            "reduce",
            vec![LoopLevel::upto(32)],
            vec![ArrayDecl::zeroed("s", 4)],
            vec![Stmt::store(
                s,
                Expr::lit(0),
                Expr::load(s, Expr::lit(0)).add(Expr::var(0)),
            )],
        )
        .expect("valid")
    }

    /// 48 increments into 8 bins at indices known only at run time.
    pub(crate) fn histogram() -> KernelSpec {
        let h = ArrayId(0);
        KernelSpec::new(
            "hist",
            vec![LoopLevel::upto(48)],
            vec![ArrayDecl::zeroed("h", 8)],
            vec![Stmt::store(
                h,
                Expr::var(0).opaque(OpaqueFn::new(11, 8)),
                Expr::load(h, Expr::var(0).opaque(OpaqueFn::new(11, 8))).add(Expr::lit(1)),
            )],
        )
        .expect("valid")
    }

    /// A store guarded on even iterations: odd ones send fake tokens.
    pub(crate) fn guarded() -> KernelSpec {
        let a = ArrayId(0);
        KernelSpec::new(
            "guarded",
            vec![LoopLevel::upto(16)],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::guarded(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(5)),
                Expr::bin(
                    BinOp::Eq,
                    Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(2)),
                    Expr::lit(0),
                ),
            )],
        )
        .expect("valid")
    }

    /// Asserts that a load queue of depth 2 refuses 3 loads per iteration.
    pub(crate) fn assert_rejects_three_loads(config: LsqConfig) {
        let a = ArrayId(0);
        let spec = KernelSpec::new(
            "wide",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0))
                    .add(Expr::load(a, Expr::var(0).add(Expr::lit(1))))
                    .add(Expr::load(a, Expr::var(0).add(Expr::lit(2)))),
            )],
        )
        .expect("valid");
        let s = synthesize(&spec).expect("synth");
        let cfg = LsqConfig {
            load_depth: 2,
            ..config
        };
        let err = Lsq::new(s.interface, cfg).expect_err("must reject");
        assert!(matches!(
            err,
            LsqError::LoadQueueTooShallow {
                needed: 3,
                depth: 2
            }
        ));
    }

    #[test]
    fn lsq_fixes_the_loop_carried_reduction() {
        assert_golden(&reduction(), LsqConfig::dynamatic(16));
    }

    #[test]
    fn fast_allocation_is_not_slower() {
        let spec = reduction();
        let (_, slow, _) = run_lsq(&spec, LsqConfig::dynamatic(16));
        let (_, fast, _) = run_lsq(&spec, LsqConfig::fast(16));
        assert!(
            fast.cycles <= slow.cycles,
            "fast allocation [8] must not lose to plain Dynamatic [15]: {} vs {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn speculative_policy_fills_the_queue_ahead_of_confirmation() {
        // Same cycles as [8] on the reduction, but the speculative policy
        // fills the queue ahead of the control network (nearly twice the
        // peak occupancy) and so stalls on capacity where the grouped
        // policy never does. Routing it through the grouped allocator
        // fails this.
        let pin = |config| {
            let (_, report, stats) = run_lsq(&reduction(), config);
            (report.cycles, stats.high_water, stats.alloc_stall_cycles)
        };
        assert_eq!(pin(LsqConfig::fast(16)), (68, 17, 0));
        assert_eq!(pin(LsqConfig::speculative(16)), (68, 32, 36));
    }

    #[test]
    fn histogram_with_runtime_indices_is_correct() {
        let bins = assert_golden(&histogram(), LsqConfig::dynamatic(16));
        assert_eq!(bins.iter().sum::<i64>(), 48);
    }

    #[test]
    fn guarded_kernel_with_fakes_completes_on_lsq() {
        assert_golden(&guarded(), LsqConfig::dynamatic(16));
    }

    #[test]
    fn shallow_queue_is_rejected_when_iteration_cannot_fit() {
        assert_rejects_three_loads(LsqConfig::dynamatic(2));
    }

    #[test]
    fn deeper_queue_is_not_slower() {
        let spec = reduction();
        let (_, d4, _) = run_lsq(&spec, LsqConfig::fast(4));
        let (_, d16, _) = run_lsq(&spec, LsqConfig::fast(16));
        assert!(
            d16.cycles <= d4.cycles,
            "deeper LSQ must not be slower: {} vs {}",
            d16.cycles,
            d4.cycles
        );
    }
}
