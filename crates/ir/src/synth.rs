//! Synthesis: lowering a [`KernelSpec`] to an elastic dataflow netlist.
//!
//! This is the reproduction's analogue of the paper's LLVM pass: it builds
//! the datapath (induction-variable forks, constant generators, ALU trees,
//! guard branches) and leaves every memory access as an *open port*
//! described by a [`MemoryInterface`]. A disambiguation controller — LSQ or
//! PreVV — is attached afterwards, becoming the consumer/producer of those
//! port channels. Swapping controllers therefore changes nothing else in the
//! circuit, exactly like the paper swaps Dynamatic's LSQ for PreVV
//! components.
//!
//! ## Guarded statements and fake tokens
//!
//! A guarded statement's memory ports receive their address/value tokens
//! through a [`Branch`] steered by the guard. When the guard is false the
//! address token is diverted to the port's *fake channel* (paper §V-C), so
//! the controller learns the op will not happen this iteration. Synthesis
//! can be told to drop fake tokens instead ([`SynthOptions::fake_tokens`] =
//! false), which reproduces the §V-C deadlock.

use prevv_dataflow::components::{
    BinaryAlu, Branch, Buffer, Constant, Fork, IterSource, Sink, UnOp, UnaryAlu,
};
use prevv_dataflow::{ChannelId, Netlist, SquashBus};

use crate::depend::{analyze, AmbiguousPair, Dependences};
use crate::expr::Expr;
use crate::golden::MemOpKind;
use crate::iface::{ArrayLayout, MemoryInterface, MemoryPort};
use crate::kernel::{ArrayInit, KernelError, KernelSpec};

/// Pipeline latency of opaque-function units.
const OPAQUE_LATENCY: u32 = 2;

/// Capacity of the elastic buffers placed on induction-variable and guard
/// fan-out channels. This is the slack that lets the iteration source run
/// ahead of slow consumers (Dynamatic's buffer placement); without it the
/// pipeline serializes on the slowest operand.
const SLACK: usize = 8;

/// Synthesis options.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Emit fake tokens for guarded ops (paper §V-C). Disabling this
    /// reproduces the premature-queue deadlock the paper describes.
    pub fake_tokens: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions { fake_tokens: true }
    }
}

/// A synthesized kernel: the open netlist plus everything a controller and
/// the experiment harness need.
#[derive(Debug)]
pub struct SynthesizedKernel {
    /// The datapath netlist with open memory-port channels.
    pub netlist: Netlist,
    /// Description of the open ports.
    pub interface: MemoryInterface,
    /// The squash bus shared by the iteration source (and, later, the
    /// attached controller).
    pub bus: SquashBus,
    /// The kernel this circuit implements.
    pub spec: KernelSpec,
    /// Dependence analysis results (conservative: every ambiguous pair,
    /// including any the interface bypasses).
    pub deps: Dependences,
    /// Pairs with a proof, excluded from `interface.pairs`
    /// ([`Dependences::validated`]): the arbiter never searches for them
    /// (the `prevv-analyze` PV301 note).
    pub bypassed: Vec<AmbiguousPair>,
}

/// Synthesizes a kernel with default options.
///
/// # Errors
///
/// Returns [`KernelError`] if the spec fails validation.
pub fn synthesize(spec: &KernelSpec) -> Result<SynthesizedKernel, KernelError> {
    synthesize_with(spec, &SynthOptions::default())
}

/// Synthesizes a kernel with explicit options.
///
/// # Errors
///
/// Returns [`KernelError`] if the spec fails validation.
pub fn synthesize_with(
    spec: &KernelSpec,
    opts: &SynthOptions,
) -> Result<SynthesizedKernel, KernelError> {
    spec.validate()?;
    let deps = analyze(spec);
    let pairs: Vec<AmbiguousPair> = deps.validated().map(|(p, _)| p).collect();
    let bypassed = deps
        .pairs
        .iter()
        .copied()
        .filter(|p| !pairs.contains(p))
        .collect();
    let mut b = Builder {
        opts,
        net: Netlist::new(),
        level_uses: vec![Vec::new(); spec.levels.len()],
        ports: Vec::new(),
        sinks: Vec::new(),
        deps: &deps,
    };

    for (si, stmt) in spec.body.iter().enumerate() {
        b.lower_stmt(si, stmt);
    }

    // The iteration source: one output per loop level plus the allocation
    // stream, emitted at initiation interval 1 in program order.
    let bus = SquashBus::new();
    let alloc_in = b.net.channel();
    let level_chs: Vec<ChannelId> = (0..spec.levels.len()).map(|_| b.net.channel()).collect();
    let mut outs = vec![alloc_in];
    outs.extend(level_chs.iter().copied());
    b.net.add(
        "iter_source",
        IterSource::nest(&spec.levels, outs, bus.clone()),
    );

    // Distribute each induction variable to its use sites, decoupling each
    // consumer with an elastic buffer so one slow consumer does not stall
    // the iteration source.
    for (l, ch) in level_chs.into_iter().enumerate() {
        let uses = std::mem::take(&mut b.level_uses[l]);
        if uses.is_empty() {
            b.sinks.push(ch);
        } else {
            let slots = b.buffer_all(&uses, &format!("i{l}"));
            b.net.add(format!("fork_i{l}"), Fork::new(ch, slots));
        }
    }

    if !b.sinks.is_empty() {
        let sinks = std::mem::take(&mut b.sinks);
        b.net.add("discard", Sink::new(sinks));
    }

    // Array layout in the flat RAM.
    let mut base = 0;
    let arrays = spec
        .arrays
        .iter()
        .map(|a| {
            let layout = ArrayLayout {
                name: a.name.clone(),
                base,
                len: a.len,
                init: match &a.init {
                    ArrayInit::Zero => vec![0; a.len],
                    ArrayInit::Values(v) => v.clone(),
                },
            };
            base += a.len;
            layout
        })
        .collect();

    let interface = MemoryInterface {
        ports: b.ports,
        alloc_in,
        arrays,
        iterations: spec.iteration_count(),
        pairs,
    };

    Ok(SynthesizedKernel {
        netlist: b.net,
        interface,
        bus,
        spec: spec.clone(),
        deps,
        bypassed,
    })
}

struct Builder<'a> {
    opts: &'a SynthOptions,
    net: Netlist,
    /// Channels each loop level's fork must feed (filled lazily).
    level_uses: Vec<Vec<ChannelId>>,
    ports: Vec<MemoryPort>,
    /// Channels to be consumed by a shared discard sink.
    sinks: Vec<ChannelId>,
    deps: &'a Dependences,
}

/// Lazily collected guard-copy requests for one statement.
struct GuardCtx {
    value_ch: ChannelId,
    uses: Vec<ChannelId>,
}

impl GuardCtx {
    fn fresh(&mut self, net: &mut Netlist) -> ChannelId {
        let ch = net.channel();
        self.uses.push(ch);
        ch
    }
}

impl Builder<'_> {
    fn lower_stmt(&mut self, si: usize, stmt: &crate::kernel::Stmt) {
        let mut guard = stmt.guard.as_ref().map(|g| {
            let value_ch = self.lower_expr(g, &mut None);
            GuardCtx {
                value_ch,
                uses: Vec::new(),
            }
        });

        let addr = self.lower_expr(&stmt.index, &mut guard);
        let value = self.lower_expr(&stmt.value, &mut guard);

        // The store port.
        let port_id = self.ports.len();
        let (addr_in, fake_in) = self.gate_addr(si, addr, &mut guard);
        let data_in = match &mut guard {
            Some(g) => {
                let cond = g.fresh(&mut self.net);
                let taken = self.net.channel();
                let dropped = self.net.channel();
                self.net.add(
                    format!("gate_st_val_s{si}"),
                    Branch::new(value, cond, taken, dropped),
                );
                self.sinks.push(dropped);
                taken
            }
            None => value,
        };
        debug_assert_eq!(self.deps.ops[port_id].kind, MemOpKind::Store);
        debug_assert_eq!(self.deps.ops[port_id].array, stmt.array);
        self.ports.push(MemoryPort {
            op: self.deps.ops[port_id].clone(),
            addr_in,
            data_in: Some(data_in),
            data_out: None,
            fake_in,
        });

        // Wire the statement's guard forks (buffered, like the induction
        // variables, so a late guard consumer cannot serialize the loop).
        if let Some(g) = guard {
            if g.uses.is_empty() {
                self.sinks.push(g.value_ch);
            } else {
                let slots = self.buffer_all(&g.uses, &format!("guard_s{si}"));
                self.net
                    .add(format!("fork_guard_s{si}"), Fork::new(g.value_ch, slots));
            }
        }
    }

    /// Interposes an elastic buffer in front of each channel in `uses`,
    /// returning the buffers' input channels (to be driven by a fork).
    fn buffer_all(&mut self, uses: &[ChannelId], label: &str) -> Vec<ChannelId> {
        uses.iter()
            .enumerate()
            .map(|(k, &use_ch)| {
                let slot = self.net.channel();
                self.net.add(
                    format!("buf_{label}_u{k}"),
                    Buffer::new(SLACK, slot, use_ch),
                );
                slot
            })
            .collect()
    }

    /// Lowers an expression, returning the channel carrying its value (one
    /// token per iteration). Loads encountered become memory ports in
    /// canonical order.
    fn lower_expr(&mut self, e: &Expr, guard: &mut Option<GuardCtx>) -> ChannelId {
        match e {
            Expr::Const(v) => {
                let trigger = self.net.channel();
                // Constants are triggered once per iteration by the
                // outermost induction variable's token.
                self.level_uses[0].push(trigger);
                let out = self.net.channel();
                self.net
                    .add(format!("const_{v}"), Constant::new(*v, trigger, out));
                out
            }
            Expr::IndVar(l) => {
                let ch = self.net.channel();
                self.level_uses[*l].push(ch);
                ch
            }
            Expr::Binary(op, lhs, rhs) => {
                let l = self.lower_expr(lhs, guard);
                let r = self.lower_expr(rhs, guard);
                let out = self.net.channel();
                self.net
                    .add(format!("alu_{op}"), BinaryAlu::new(*op, l, r, out));
                out
            }
            Expr::Opaque(f, x) => {
                let input = self.lower_expr(x, guard);
                let out = self.net.channel();
                let fun = *f;
                self.net.add(
                    format!("opaque_{}", f.seed),
                    UnaryAlu::with_latency(
                        UnOp::Opaque(std::rc::Rc::new(move |v| fun.apply(v))),
                        OPAQUE_LATENCY,
                        input,
                        out,
                    ),
                );
                out
            }
            Expr::Load(array, idx) => {
                let addr = self.lower_expr(idx, guard);
                let port_id = self.ports.len();
                let si = self.deps.ops[port_id].stmt;
                let (addr_in, fake_in) = self.gate_addr(si, addr, guard);
                let data_out = self.net.channel();
                debug_assert_eq!(self.deps.ops[port_id].kind, MemOpKind::Load);
                debug_assert_eq!(self.deps.ops[port_id].array, *array);
                self.ports.push(MemoryPort {
                    op: self.deps.ops[port_id].clone(),
                    addr_in,
                    data_in: None,
                    data_out: Some(data_out),
                    fake_in,
                });
                data_out
            }
        }
    }

    /// Routes an address channel into a port, inserting the guard branch and
    /// fake-token path for guarded statements.
    fn gate_addr(
        &mut self,
        si: usize,
        addr: ChannelId,
        guard: &mut Option<GuardCtx>,
    ) -> (ChannelId, Option<ChannelId>) {
        match guard {
            None => (addr, None),
            Some(g) => {
                let cond = g.fresh(&mut self.net);
                let taken = self.net.channel();
                let fake = self.net.channel();
                self.net.add(
                    format!("gate_addr_s{si}"),
                    Branch::new(addr, cond, taken, fake),
                );
                if self.opts.fake_tokens {
                    (taken, Some(fake))
                } else {
                    // Reproduces the paper's §V-C deadlock: the controller
                    // never learns the op was skipped.
                    self.sinks.push(fake);
                    (taken, None)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArrayId;
    use crate::kernel::{ArrayDecl, Stmt};
    use prevv_dataflow::components::LoopLevel;

    fn accum_kernel() -> KernelSpec {
        let a = ArrayId(0);
        KernelSpec::new(
            "accum",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid")
    }

    #[test]
    fn ports_follow_canonical_order() {
        let s = synthesize(&accum_kernel()).expect("synthesizes");
        assert_eq!(s.interface.ports.len(), 2);
        assert!(s.interface.ports[0].is_load());
        assert!(s.interface.ports[1].is_store());
        assert_eq!(s.interface.ports[0].op.seq, 0);
        assert_eq!(s.interface.ports[1].op.seq, 1);
        assert_eq!(s.interface.iterations, 4);
    }

    #[test]
    fn load_port_channels_are_open() {
        let s = synthesize(&accum_kernel()).expect("synthesizes");
        // Without a controller the netlist must *not* validate: the port
        // channels are open by design.
        assert!(s.netlist.validate().is_err());
        let p = &s.interface.ports[0];
        assert!(p.data_out.is_some());
        assert!(p.data_in.is_none());
        assert!(p.fake_in.is_none());
    }

    #[test]
    fn guarded_statement_gets_fake_channels() {
        use prevv_dataflow::components::BinOp;
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "guarded",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::guarded(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
                Expr::bin(BinOp::Lt, Expr::var(0), Expr::lit(2)),
            )],
        )
        .expect("valid");
        let s = synthesize(&k).expect("synthesizes");
        assert!(s.interface.ports.iter().all(|p| p.fake_in.is_some()));

        let s2 = synthesize_with(&k, &SynthOptions { fake_tokens: false }).expect("synthesizes");
        assert!(s2.interface.ports.iter().all(|p| p.fake_in.is_none()));
    }

    #[test]
    fn array_layout_is_packed() {
        let a = ArrayId(0);
        let b = ArrayId(1);
        let k = KernelSpec::new(
            "two_arrays",
            vec![LoopLevel::upto(2)],
            vec![ArrayDecl::zeroed("a", 8), ArrayDecl::zeroed("b", 4)],
            vec![Stmt::store(b, Expr::var(0), Expr::load(a, Expr::var(0)))],
        )
        .expect("valid");
        let s = synthesize(&k).expect("synthesizes");
        assert_eq!(s.interface.arrays[0].base, 0);
        assert_eq!(s.interface.arrays[1].base, 8);
        assert_eq!(s.interface.ram_words(), 12);
        let ram = s.interface.initial_ram();
        assert_eq!(ram.len(), 12);
    }

    #[test]
    fn interface_counts() {
        // The single-level accumulation's load/store pair only ever collides
        // within one iteration (load before store), so synthesis removes it
        // from the validated set.
        let s = synthesize(&accum_kernel()).expect("synthesizes");
        assert_eq!(s.interface.load_ports(), 1);
        assert_eq!(s.interface.store_ports(), 1);
        assert_eq!(s.interface.validated_ops().len(), 0);
        assert_eq!(s.bypassed.len(), 1);
        assert_eq!(s.deps.pairs.len(), 1, "conservative analysis is retained");
    }
}
