//! The component abstraction every circuit element implements.

use crate::signal::{ChannelId, Signals};

/// Input/output channel lists of a component, used by the netlist for
/// structural validation (every channel needs exactly one producer and one
/// consumer) and for diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ports {
    /// Channels this component consumes from.
    pub inputs: Vec<ChannelId>,
    /// Channels this component produces onto.
    pub outputs: Vec<ChannelId>,
}

impl Ports {
    /// Creates a port list from input and output channel sets.
    pub fn new(inputs: Vec<ChannelId>, outputs: Vec<ChannelId>) -> Self {
        Ports { inputs, outputs }
    }
}

/// How many of a component's next commits the engine may apply in one step;
/// see [`Component::quiet_horizon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietRun {
    /// Number of further commits that are pure countdowns (`u64::MAX`:
    /// unbounded).
    pub cycles: u64,
    /// What each of those commits returns — whether they are progress for
    /// the no-progress watchdog.
    pub changed: bool,
}

/// A hardware element of an elastic circuit.
///
/// Components follow the standard two-phase synchronous discipline:
///
/// 1. [`eval`](Component::eval) — *combinational*: read input `valid`/data and
///    output `ready` wires, drive output `valid`/data and input `ready`
///    wires. Called repeatedly within one cycle until the wire state reaches
///    a fixpoint, so it must be a pure function of the component's sequential
///    state and the wires (no internal mutation — note the `&self`). It must
///    be *monotone*: a raised wire it reads may only raise wires it drives,
///    and a token it drives, a function of its registers and input tokens,
///    is never rewritten. Then both [`Scheduler`](crate::Scheduler)s reach
///    the same fixpoint (DESIGN.md §4.3).
/// 2. [`commit`](Component::commit) — *sequential*: observe which channels
///    fired and update internal registers/FIFOs accordingly. Called exactly
///    once per cycle, after the fixpoint.
///
/// Squash support: [`flush`](Component::flush) drops every internally held
/// token belonging to iteration `from_iter` or later; the engine invokes it
/// on all components when a pipeline squash is posted.
///
/// Quiet runs: a component whose commits are a pure countdown while the
/// circuit waits (a memory controller with reads in flight) can let
/// [`Simulator::run`](crate::Simulator::run) cross the wait in one step
/// through [`quiet_horizon`](Component::quiet_horizon) and
/// [`skip_quiet`](Component::skip_quiet).
pub trait Component {
    /// Static name of the component kind (for diagnostics and area reports).
    fn type_name(&self) -> &'static str;

    /// Channels this component is wired to.
    fn ports(&self) -> Ports;

    /// Combinational evaluation; see the trait docs for the contract.
    fn eval(&self, sig: &mut Signals);

    /// Sequential update after the wire fixpoint.
    ///
    /// Returns `true` when the update changed internal state that future
    /// [`eval`](Component::eval) outputs, [`is_idle`](Component::is_idle) or
    /// [`occupancy`](Component::occupancy) depend on. The engine uses this
    /// to pick the next cycle's commit set, to decide whether a cycle was
    /// quiet, and as a progress signal for the no-progress watchdog, so the
    /// flag must be honest: pure bookkeeping (cycle counters, statistics
    /// publication) must *not* report a change, while any internal token
    /// motion — even one with no channel transfer this cycle, such as a
    /// pipeline stage shifting — must.
    fn commit(&mut self, sig: &Signals) -> bool;

    /// Queried immediately after a [`commit`](Component::commit) that
    /// returned `true`: did that commit change state that
    /// [`eval`](Component::eval) *reads*? Internal motion that is invisible
    /// to `eval` — a RAM delay line counting down, a reorder buffer waiting
    /// on an in-flight completion — is honest progress for the watchdog but
    /// cannot alter any wire, so the cycle still counts as quiet and
    /// [`Simulator::run`](crate::Simulator::run) may skip the wait that
    /// follows. Defaults to `true` (every change is assumed eval-visible),
    /// which is always sound; override only when the commit body tracks the
    /// distinction exactly.
    fn eval_invalidated(&self) -> bool {
        true
    }

    /// True when this component's [`commit`](Component::commit) is a
    /// provable no-op — returns `false` and mutates nothing, not even
    /// external bookkeeping — in any cycle where (a) its previous commit
    /// returned `false` and (b) none of its own channels fired. The engine
    /// skips the virtual commit call for such settled components, which is
    /// most of a stalled circuit most cycles.
    ///
    /// Defaults to `false` (commit every cycle, always sound). Opt in only
    /// after auditing the commit body: every state mutation must be guarded
    /// by [`Signals::fired`]/[`Signals::taken`] on own ports, or continue a
    /// chain of changed commits (e.g. a pipeline shifting bubbles reports
    /// `true` each cycle until it settles).
    fn fire_driven_commit(&self) -> bool {
        false
    }

    /// Queried right after a *quiet* cycle — no channel fired, nothing was
    /// flushed, and no commit invalidated an `eval` — on every component
    /// the engine would commit next. The wires of the following cycles are
    /// then those of the quiet cycle. Returns how many of this component's
    /// next commits, under those wires, are pure countdowns: each mutates
    /// only state that [`eval`](Component::eval),
    /// [`is_idle`](Component::is_idle) and
    /// [`occupancy`](Component::occupancy) do not read, posts no squash,
    /// and returns [`QuietRun::changed`].
    ///
    /// Defaults to `None` (cannot skip), which is always sound.
    fn quiet_horizon(&self) -> Option<QuietRun> {
        None
    }

    /// Applies `k` commits at once, leaving exactly the state `k`
    /// successive [`commit`](Component::commit) calls would. Called only
    /// with `k` no larger than the [`QuietRun::cycles`] of the
    /// [`quiet_horizon`](Component::quiet_horizon) just queried.
    fn skip_quiet(&mut self, k: u64) {
        let _ = k;
    }

    /// Drops all internally held tokens of iterations `>= from_iter`.
    ///
    /// Components that never hold tokens across cycles can rely on the
    /// default no-op.
    fn flush(&mut self, from_iter: u64) {
        let _ = from_iter;
    }

    /// True when the component holds no in-flight work.
    ///
    /// The simulation terminates when every component is idle. Stateless
    /// elements are always idle.
    fn is_idle(&self) -> bool {
        true
    }

    /// Number of tokens currently held inside the component (diagnostics).
    fn occupancy(&self) -> usize {
        0
    }

    /// Maximum number of tokens this component can hold across cycles — its
    /// elastic storage. A positive capacity means the component registers
    /// its handshake (output `valid` and input `ready` come from state, not
    /// wires), so it breaks any combinational/handshake cycle it sits on.
    /// Purely combinational elements report 0.
    ///
    /// Static analysis uses this to prove a netlist free of unbuffered
    /// feedback loops (the PV103 circuit lint).
    fn capacity(&self) -> usize {
        0
    }

    /// Cycles between a token entering and leaving this component when
    /// nothing downstream stalls — its pipeline latency. Purely
    /// combinational elements forward within the cycle and report 0.
    ///
    /// Together with [`capacity`](Component::capacity) this describes the
    /// component as a stage of a timed marked graph: `capacity` tokens of
    /// elastic storage traversed in `latency` cycles. The PV4xx static
    /// throughput analysis derives its initiation-interval bounds from
    /// exactly these two numbers.
    fn latency(&self) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Token;

    /// A minimal wire component used to exercise the trait contract.
    struct Wire {
        input: ChannelId,
        output: ChannelId,
    }

    impl Component for Wire {
        fn type_name(&self) -> &'static str {
            "wire"
        }
        fn ports(&self) -> Ports {
            Ports::new(vec![self.input], vec![self.output])
        }
        fn eval(&self, sig: &mut Signals) {
            if let Some(t) = sig.token(self.input) {
                sig.drive(self.output, t);
            }
            sig.accept_if(self.input, sig.is_ready(self.output));
        }
        fn commit(&mut self, _sig: &Signals) -> bool {
            false
        }
    }

    #[test]
    fn wire_component_forwards() {
        let a = ChannelId(0);
        let b = ChannelId(1);
        let w = Wire {
            input: a,
            output: b,
        };
        let mut sig = Signals::new(2);
        sig.drive(a, Token::new(9, 1));
        sig.accept(b);
        // Two sweeps reach the fixpoint for a single wire.
        w.eval(&mut sig);
        w.eval(&mut sig);
        assert!(sig.fired(a));
        assert!(sig.fired(b));
        assert_eq!(sig.taken(b), Some(Token::new(9, 1)));
        assert!(w.is_idle());
        assert_eq!(w.occupancy(), 0);
    }
}
