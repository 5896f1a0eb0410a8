//! The cycle-accurate simulation engine.
//!
//! Each clock cycle proceeds in three phases:
//!
//! 1. **Wire fixpoint** — from all wires low, components'
//!    [`eval`](crate::Component::eval) functions run until no
//!    `valid`/`ready`/data wire changes. `valid` and `ready` are monotone
//!    within a cycle, so the fixpoint exists and the iteration count is
//!    bounded; exceeding the bound means a combinational cycle (a feedback
//!    path without an elastic buffer) and is reported as
//!    [`SimError::CombinationalCycle`], naming the channels that were still
//!    churning. Two interchangeable schedulers compute the fixpoint (see
//!    [`Scheduler`]); they produce bit-identical wire states.
//! 2. **Commit** — every component's [`commit`](crate::Component::commit)
//!    observes which channels fired and updates its registers, reporting
//!    whether any eval-visible state changed. The changed set picks the
//!    next cycle's commit set, decides whether the cycle was quiet, and
//!    feeds the no-progress watchdog.
//! 3. **Squash application** — if a disambiguation controller posted a squash
//!    on the [`SquashBus`], the engine bumps the epoch, calls
//!    [`flush`](crate::Component::flush) on every component (dropping all
//!    tokens of the squashed iterations), and lets the iteration source
//!    rewind. This models the broadcast pipeline flush of the paper's mux +
//!    squash signal.
//!
//! ## The levelized fixpoint
//!
//! [`Scheduler::EventDriven`] evaluates the nodes in one static order,
//! derived once from the netlist: a topological order over the channels
//! whose producer is combinational (`capacity() == 0`), so a node comes
//! after every node whose `valid`/data it reads within the cycle. Every
//! cycle that does not follow a quiet one (below) it resets the wires,
//! marks every node dirty, and sweeps the dirty nodes in that order,
//! alternating forward passes (which settle `valid`/data) with backward
//! ones (which settle `ready`), until no node is dirty. [`Signals`] lists
//! each wire it raises or rewrites; the node that reads that wire becomes
//! dirty.
//!
//! A component's `eval` is a pure function of its sequential state and the
//! wires it reads (its inputs' `valid`/data, its outputs' `ready`). A clean
//! node has been evaluated since the last change to any of those wires, so
//! evaluating it again would change nothing: when no node is dirty, every
//! `eval` is a no-op — the condition the dense sweep stops on, reached from
//! the same reset by raising the same monotone wires. Because every
//! fixpoint starts from reset, a flush needs no special case.
//!
//! ## Quiet runs
//!
//! A *quiet* cycle fires no channel, flushes nothing, and changes no state
//! an `eval` reads. The next fixpoint would then reproduce the same wires,
//! so [`Scheduler::EventDriven`] keeps them instead of rebuilding them, and
//! the only thing that can differ between the cycles that follow is what
//! the committed components do with them. [`Simulator::run`] asks each node
//! it would commit for its
//! [`quiet_horizon`](crate::Component::quiet_horizon) — how many of its next
//! commits are pure countdowns — and crosses the shortest such run in one
//! step: [`skip_quiet`](crate::Component::skip_quiet) on those nodes, plus
//! the stall and watchdog bookkeeping those cycles would have done. A long
//! memory wait costs one step instead of hundreds. [`Scheduler::Dense`] and
//! runs with a [`TraceRecorder`] attached step every cycle.
//!
//! The run ends when every component is idle (quiescence), when the cycle
//! budget is exhausted, or when the no-progress watchdog declares deadlock —
//! the condition the paper's fake tokens exist to prevent (§V-C).

use crate::error::SimError;
use crate::netlist::Netlist;
use crate::signal::Signals;
use crate::squash::SquashBus;
use crate::stats::SimReport;
use crate::trace::TraceRecorder;

/// Which algorithm computes the per-cycle wire fixpoint.
///
/// Both schedulers rebuild the wires from reset every cycle and reach the
/// same fixpoint on every well-formed (buffered) netlist, so they produce
/// identical [`SimReport`]s; the levelized one evaluates each node about
/// once per cycle instead of once per sweep, and lets [`Simulator::run`]
/// cross quiet runs in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Reset every wire and sweep every component in insertion order until
    /// convergence — the reference algorithm, O(components) per sweep.
    /// Steps every cycle.
    Dense,
    /// Reset every wire, then sweep only the dirty components in a static
    /// topological order, alternating forward and backward passes; a
    /// changed wire dirties the component that reads it.
    #[default]
    EventDriven,
}

/// Tuning knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard upper bound on simulated cycles.
    pub max_cycles: u64,
    /// Declare deadlock after this many consecutive cycles in which no
    /// channel transferred, no component changed internal state, and no
    /// squash flushed — while tokens are still in flight.
    pub watchdog: u64,
    /// Fixpoint scheduler; [`Scheduler::EventDriven`] unless overridden.
    pub scheduler: Scheduler,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 2_000_000,
            watchdog: 1_000,
            scheduler: Scheduler::default(),
        }
    }
}

/// Drives a [`Netlist`] to quiescence.
pub struct Simulator {
    netlist: Netlist,
    signals: Signals,
    bus: SquashBus,
    config: SimConfig,
    cycle: u64,
    transfers: u64,
    stall_cycles: u64,
    idle_streak: u64,
    recorder: Option<TraceRecorder>,
    channel_stalls: Vec<u64>,
    /// `producer_of[ch]` / `consumer_of[ch]`: the unique endpoints of every
    /// channel, as raw node indices — the wake-up adjacency.
    producer_of: Vec<usize>,
    consumer_of: Vec<usize>,
    /// The static evaluation order of the levelized fixpoint (see
    /// [`levelize`]).
    order: Vec<usize>,
    /// `dirty[node]`: must the node be evaluated again this cycle?
    dirty: Vec<bool>,
    /// `restless[node]`: did the node's last commit change internal state at
    /// all? Keeps the node in the next commit set (a settling pipeline
    /// shifts for several cycles after its last handshake) and feeds the
    /// no-progress watchdog.
    restless: Vec<bool>,
    /// Nodes whose
    /// [`fire_driven_commit`](crate::Component::fire_driven_commit) audit
    /// allows skipping commit when settled; the complement is committed
    /// every cycle.
    fire_driven: Vec<bool>,
    /// Scratch marks for the per-cycle commit set.
    commit_mark: Vec<bool>,
    /// Cached `is_idle` per node plus the count of non-idle nodes: a node's
    /// idleness only changes when its commit reports a state change (eval
    /// never mutates) or on a flush, so quiescence is O(1) per cycle.
    idle_cache: Vec<bool>,
    active: usize,
    /// Scratch list of the channels that fired this cycle.
    fired_scratch: Vec<usize>,
    /// Was the last cycle quiet (no fire, no flush, and no commit changed
    /// state an `eval` reads — see
    /// [`eval_invalidated`](crate::Component::eval_invalidated))? Only then
    /// may `step` keep the wires and `run` skip ahead.
    quiet: bool,
    /// Scratch `(node, changed)` horizons of the nodes a quiet run commits.
    quiet_nodes: Vec<(usize, bool)>,
    /// Cycles crossed by quiet-run skips rather than stepped.
    skipped: u64,
}

/// The levelized scheduler's node order: a forward topological order (Kahn,
/// ready nodes in index order) over the channels whose producer is
/// combinational (`capacity() == 0`) — a buffered producer drives from its
/// registers, so its outputs start no combinational path. Nodes left on a
/// residual cycle follow in index order; the pass budget still catches a
/// genuinely divergent one.
fn levelize(netlist: &Netlist, producer_of: &[usize], consumer_of: &[usize]) -> Vec<usize> {
    let comps = netlist.components();
    let mut indegree = vec![0usize; comps.len()];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); comps.len()];
    for (&p, &c) in producer_of.iter().zip(consumer_of) {
        if comps[p].capacity() == 0 {
            succ[p].push(c);
            indegree[c] += 1;
        }
    }
    let mut order: Vec<usize> = (0..comps.len()).filter(|&n| indegree[n] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let n = order[head];
        head += 1;
        for &c in &succ[n] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                order.push(c);
            }
        }
    }
    order.extend((0..comps.len()).filter(|&n| indegree[n] > 0));
    order
}

impl Simulator {
    /// Creates a simulator for `netlist`, validating its structure.
    ///
    /// The `bus` must be the same squash bus handed to the netlist's
    /// iteration source and disambiguation controller (if any); pass a fresh
    /// bus for circuits without squash support.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Structure`] if the netlist has dangling or
    /// multiply-driven channels.
    pub fn new(netlist: Netlist, bus: SquashBus) -> Result<Self, SimError> {
        netlist.validate()?;
        let signals = Signals::new(netlist.channel_count());
        let channel_stalls = vec![0; netlist.channel_count()];
        let (producer_of, consumer_of): (Vec<usize>, Vec<usize>) = netlist
            .unique_endpoints()
            .map(|(p, c)| {
                (
                    p.into_iter().map(|n| n.index()).collect(),
                    c.into_iter().map(|n| n.index()).collect(),
                )
            })
            .expect("validated netlist has unique endpoints");
        let order = levelize(&netlist, &producer_of, &consumer_of);
        let nodes = netlist.node_count();
        let fire_driven: Vec<bool> = netlist
            .components()
            .iter()
            .map(|c| c.fire_driven_commit())
            .collect();
        let idle_cache: Vec<bool> = netlist.components().iter().map(|c| c.is_idle()).collect();
        let active = idle_cache.iter().filter(|&&i| !i).count();
        Ok(Simulator {
            netlist,
            signals,
            bus,
            config: SimConfig::default(),
            cycle: 0,
            transfers: 0,
            stall_cycles: 0,
            idle_streak: 0,
            recorder: None,
            channel_stalls,
            producer_of,
            consumer_of,
            order,
            dirty: vec![false; nodes],
            restless: vec![true; nodes],
            fire_driven,
            commit_mark: vec![false; nodes],
            idle_cache,
            active,
            fired_scratch: Vec::new(),
            quiet: false,
            quiet_nodes: Vec::new(),
            skipped: 0,
        })
    }

    /// Replaces the default configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a channel trace recorder; it samples every cycle from now
    /// on. See [`TraceRecorder`].
    pub fn attach_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Detaches and returns the recorder.
    pub fn take_recorder(&mut self) -> Option<TraceRecorder> {
        self.recorder.take()
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles [`run`](Simulator::run) crossed in quiet-run skips instead of
    /// stepping them (always 0 under [`Scheduler::Dense`]).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped
    }

    /// Read access to the simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Executes one clock cycle.
    ///
    /// The wire fixpoint runs under the configured [`Scheduler`]; stall and
    /// transfer statistics are sampled *at the fixpoint, before commit*, by
    /// the same code path in both modes, so the two schedulers' reports are
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// [`SimError::CombinationalCycle`] if the wire fixpoint diverges.
    pub fn step(&mut self) -> Result<(), SimError> {
        // After a quiet cycle the levelized fixpoint would rebuild the same
        // wires (module docs), so they are kept as they are.
        let quiet = std::mem::take(&mut self.quiet);
        match self.config.scheduler {
            Scheduler::Dense => self.fixpoint_dense()?,
            Scheduler::EventDriven if !quiet => self.fixpoint_levelized()?,
            Scheduler::EventDriven => {}
        }

        // Sample transfer/stall statistics at the fixpoint, in one pass that
        // also collects the fired channel set for the commit scheduler.
        self.fired_scratch.clear();
        let (fired, stalled) =
            self.signals
                .sample_cycle(1, &mut self.channel_stalls, &mut self.fired_scratch);
        self.transfers += fired;
        self.stall_cycles += stalled;
        if let Some(rec) = &mut self.recorder {
            rec.sample(&self.signals);
        }

        // Commit phase (identical in both schedulers). A settled component —
        // previous commit reported no change, no adjacent channel fired this
        // cycle — whose audit says its commit is fire-driven would return
        // `false` without mutating anything, so the virtual call is skipped
        // outright. Everything else commits, in index order.
        for (i, &fd) in self.fire_driven.iter().enumerate() {
            self.commit_mark[i] = !fd || self.restless[i];
        }
        for k in 0..self.fired_scratch.len() {
            let idx = self.fired_scratch[k];
            self.commit_mark[self.producer_of[idx]] = true;
            self.commit_mark[self.consumer_of[idx]] = true;
        }
        let mut any_changed = false;
        let mut invalidated = false;
        let comps = self.netlist.components_mut();
        for (i, comp) in comps.iter_mut().enumerate() {
            if !self.commit_mark[i] {
                self.restless[i] = false;
                continue;
            }
            self.commit_mark[i] = false;
            let changed = comp.commit(&self.signals);
            self.restless[i] = changed;
            invalidated |= changed && comp.eval_invalidated();
            any_changed |= changed;
            if changed {
                let idle = comp.is_idle();
                if idle != self.idle_cache[i] {
                    self.idle_cache[i] = idle;
                    if idle {
                        self.active -= 1;
                    } else {
                        self.active += 1;
                    }
                }
            }
        }

        let flushed = if let Some(from) = self.bus.take_pending() {
            for c in self.netlist.components_mut() {
                c.flush(from);
            }
            // A flush rewrites state behind commit's change reporting:
            // re-derive everything the commit bookkeeping caches.
            self.restless.iter_mut().for_each(|r| *r = true);
            self.refresh_idle_cache();
            true
        } else {
            false
        };

        // Progress = a transfer, a flush, or any internal state change (a
        // long-latency unit draining counts, so slow quiescence is not
        // mistaken for deadlock).
        if flushed || fired > 0 || any_changed {
            self.idle_streak = 0;
        } else {
            self.idle_streak += 1;
        }
        self.quiet = !flushed && fired == 0 && !invalidated;

        self.cycle += 1;
        Ok(())
    }

    /// After a quiet cycle, crosses the run of cycles in which every node
    /// the engine would commit is a pure countdown (see the module docs).
    /// The run is capped by the cycle budget and, when its commits are not
    /// progress, by the watchdog, so both fire on the cycle stepping would.
    fn skip_quiet_run(&mut self) {
        if !self.quiet
            || self.active == 0
            || self.config.scheduler == Scheduler::Dense
            || self.recorder.is_some()
        {
            return;
        }
        let mut k = self.config.max_cycles.saturating_sub(self.cycle);
        let mut changed = false;
        self.quiet_nodes.clear();
        for (i, comp) in self.netlist.components().iter().enumerate() {
            if self.fire_driven[i] && !self.restless[i] {
                continue;
            }
            let Some(run) = comp.quiet_horizon() else {
                return;
            };
            k = k.min(run.cycles);
            if k == 0 {
                return;
            }
            changed |= run.changed;
            self.quiet_nodes.push((i, run.changed));
        }
        if !changed {
            k = k.min(self.config.watchdog.saturating_sub(self.idle_streak));
            if k == 0 {
                return;
            }
        }
        let comps = self.netlist.components_mut();
        for &(i, node_changed) in &self.quiet_nodes {
            comps[i].skip_quiet(k);
            self.restless[i] = node_changed;
        }
        // The wires are those of the quiet cycle: the same channels stall,
        // nothing fires.
        let (_, stalled) =
            self.signals
                .sample_cycle(k, &mut self.channel_stalls, &mut self.fired_scratch);
        self.stall_cycles += k * stalled;
        self.idle_streak = if changed { 0 } else { self.idle_streak + k };
        self.cycle += k;
        self.skipped += k;
    }

    /// Fixpoint iteration budget, in whole sweeps (dense) or passes
    /// (levelized). Each sweep or pass that does not converge raises a
    /// `valid`/`ready` wire or rewrites data, so the count is bounded by the
    /// number of wires plus slack for data rewrites by arbitrating
    /// components.
    fn sweep_budget(&self) -> usize {
        2 * self.signals.len() + self.netlist.node_count() + 8
    }

    /// Reference fixpoint: reset all wires, sweep every component until
    /// nothing changes.
    fn fixpoint_dense(&mut self) -> Result<(), SimError> {
        self.signals.reset();
        for _ in 0..self.sweep_budget() {
            for c in self.netlist.components() {
                c.eval(&mut self.signals);
            }
            if !self.signals.take_changed() {
                return Ok(());
            }
        }
        Err(self.diagnose_divergence())
    }

    /// Levelized fixpoint: reset all wires and dirty every node, then sweep
    /// the dirty nodes in the static order — forward passes settle
    /// `valid`/data, backward passes settle `ready` — until none is left.
    /// Every wire an `eval` touches dirties the node that reads it.
    fn fixpoint_levelized(&mut self) -> Result<(), SimError> {
        self.signals.reset();
        self.dirty.iter_mut().for_each(|d| *d = true);
        let mut pending = self.order.len();
        let budget = self.sweep_budget();
        let comps = self.netlist.components();
        let mut pass = 0;
        while pending > 0 {
            if pass == budget {
                return Err(self.diagnose_divergence());
            }
            for k in 0..self.order.len() {
                let n = if pass % 2 == 0 {
                    self.order[k]
                } else {
                    self.order[self.order.len() - 1 - k]
                };
                if !self.dirty[n] {
                    continue;
                }
                self.dirty[n] = false;
                pending -= 1;
                comps[n].eval(&mut self.signals);
                for t in self.signals.drain_touched() {
                    let reader = if t & 1 == 0 {
                        self.consumer_of[t >> 1]
                    } else {
                        self.producer_of[t >> 1]
                    };
                    if !self.dirty[reader] {
                        self.dirty[reader] = true;
                        pending += 1;
                    }
                }
            }
            pass += 1;
        }
        Ok(())
    }

    /// Shared divergence diagnosis: rerun the dense fixpoint from reset,
    /// then record one extra sweep — the wires still moving after the full
    /// budget are the unbuffered feedback path. Running the identical dense
    /// procedure from both schedulers guarantees they name the same channel
    /// set.
    fn diagnose_divergence(&mut self) -> SimError {
        self.signals.reset();
        for _ in 0..self.sweep_budget() {
            for c in self.netlist.components() {
                c.eval(&mut self.signals);
            }
            if !self.signals.take_changed() {
                break;
            }
        }
        for c in self.netlist.components() {
            c.eval(&mut self.signals);
        }
        let channels = self.signals.touched_channels();
        self.signals.take_changed();
        SimError::CombinationalCycle {
            cycle: self.cycle,
            channels,
        }
    }

    /// Recomputes the idle cache from scratch (after a flush, whose state
    /// rewrites bypass commit's change reporting).
    fn refresh_idle_cache(&mut self) {
        for (i, c) in self.netlist.components().iter().enumerate() {
            self.idle_cache[i] = c.is_idle();
        }
        self.active = self.idle_cache.iter().filter(|&&i| !i).count();
    }

    /// True once every component reports idle.
    ///
    /// Served from the incrementally maintained idle cache: a component's
    /// idleness only moves when its commit reports a state change (`eval`
    /// takes `&self`) or when a flush rewrites state, and both paths update
    /// the cache.
    pub fn quiescent(&self) -> bool {
        debug_assert_eq!(
            self.active,
            self.netlist
                .components()
                .iter()
                .filter(|c| !c.is_idle())
                .count(),
            "idle cache out of sync"
        );
        self.active == 0
    }

    /// Runs until quiescence. Under [`Scheduler::EventDriven`] without a
    /// recorder, quiet runs are crossed in one step (see the module docs);
    /// the report is the one stepping every cycle would give.
    ///
    /// # Errors
    ///
    /// * [`SimError::CombinationalCycle`] — wire fixpoint diverged;
    /// * [`SimError::Deadlock`] — no progress for the watchdog window while
    ///   tokens remain in flight (e.g. the premature queue deadlock of paper
    ///   §V-C when fake tokens are disabled);
    /// * [`SimError::Timeout`] — the cycle budget ran out.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        while !self.quiescent() {
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::Timeout {
                    max_cycles: self.config.max_cycles,
                });
            }
            self.step()?;
            if self.idle_streak < self.config.watchdog {
                self.skip_quiet_run();
            }
            if self.idle_streak >= self.config.watchdog {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    detail: self.netlist.occupancy_report(),
                });
            }
        }
        Ok(self.report())
    }

    /// The statistics accumulated so far.
    pub fn report(&self) -> SimReport {
        SimReport {
            cycles: self.cycle,
            transfers: self.transfers,
            stall_cycles: self.stall_cycles,
            squashes: self.bus.squash_count(),
            replayed_iters: 0,
            stalled_channels: self.stall_ranking(self.channel_stalls.len()),
        }
    }

    /// The `n` most-stalled channels with their stall cycle counts — the
    /// first place to look when a pipeline is slower than expected.
    pub fn stall_ranking(&self, n: usize) -> Vec<(crate::ChannelId, u64)> {
        let mut ranked: Vec<(crate::ChannelId, u64)> = self
            .channel_stalls
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (crate::ChannelId::from_index(i), c))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("netlist", &self.netlist)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{BinOp, BinaryAlu, Buffer, Constant, Fork, IterSource, Sink};

    /// Builds `out = (i + 1) * i` for i in 0..n and collects the results.
    fn arithmetic_circuit(
        n: i64,
    ) -> (
        Netlist,
        SquashBus,
        std::rc::Rc<std::cell::RefCell<Vec<crate::Token>>>,
    ) {
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let src_out = net.channel();
        let f1 = net.channel();
        let f2 = net.channel();
        let one_trig_buf = net.channel();
        let one = net.channel();
        let sum = net.channel();
        let prod = net.channel();
        let rows = (0..n).map(|i| vec![i]).collect();
        net.add("src", IterSource::new(rows, vec![src_out], bus.clone()));
        net.add("fork", Fork::new(src_out, vec![f1, f2]));
        // Feed the constant from a forked copy through a buffer so each
        // iteration triggers exactly one constant emission.
        net.add("buf", Buffer::new(2, f2, one_trig_buf));
        net.add("one", Constant::new(1, one_trig_buf, one));
        net.add("add", BinaryAlu::with_latency(BinOp::Add, 1, f1, one, sum));
        // (i+1) * i needs i again: fork f1? Instead multiply sum by constant 2
        // via another constant; keep it simple: just square the sum.
        let two = net.channel();
        let sum_f1 = net.channel();
        let sum_f2 = net.channel();
        net.add("fork2", Fork::new(sum, vec![sum_f1, sum_f2]));
        net.add("two", Constant::new(2, sum_f2, two));
        net.add(
            "mul",
            BinaryAlu::with_latency(BinOp::Mul, 3, sum_f1, two, prod),
        );
        let (sink, store) = Sink::collecting(vec![prod]);
        net.add("sink", sink);
        (net, bus, store)
    }

    #[test]
    fn end_to_end_pipeline_computes_correctly() {
        let (net, bus, store) = arithmetic_circuit(8);
        let mut sim = Simulator::new(net, bus).expect("valid netlist");
        let report = sim.run().expect("no deadlock");
        let mut values: Vec<i64> = store.borrow().iter().map(|t| t.value).collect();
        values.sort_unstable();
        let expected: Vec<i64> = (0..8).map(|i| (i + 1) * 2).collect();
        assert_eq!(values, expected);
        assert!(report.cycles > 0);
        assert!(report.squashes == 0);
    }

    #[test]
    fn pipeline_overlaps_iterations() {
        // With II=1 at the source and pipelined units, n iterations should
        // take far fewer than n * total-latency cycles.
        let (net, bus, _) = arithmetic_circuit(64);
        let mut sim = Simulator::new(net, bus).expect("valid netlist");
        let report = sim.run().expect("no deadlock");
        assert!(
            report.cycles < 64 * 6,
            "pipeline must overlap iterations, took {} cycles",
            report.cycles
        );
        assert!(report.cycles >= 64, "at least one cycle per iteration");
    }

    #[test]
    fn levelized_order_follows_the_channels_not_insertion() {
        // A source -> fork -> constant -> sink chain, inserted sink first.
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let (a, b, c) = (net.channel(), net.channel(), net.channel());
        net.add("sink", Sink::new(vec![c]));
        net.add("one", Constant::new(1, b, c));
        net.add("fork", Fork::new(a, vec![b]));
        net.add("src", IterSource::new(vec![vec![0]], vec![a], bus.clone()));
        let sim = Simulator::new(net, bus).expect("valid netlist");
        assert_eq!(sim.order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn empty_netlist_is_quiescent() {
        let net = Netlist::new();
        let mut sim = Simulator::new(net, SquashBus::new()).expect("empty is valid");
        let report = sim.run().expect("nothing to do");
        assert_eq!(report.cycles, 0);
    }

    #[test]
    fn watchdog_detects_starved_join() {
        use crate::components::Join;
        // A join whose second input never receives a token: the first input
        // token is held at an upstream buffer forever => deadlock... but note
        // tokens held in a buffer keep the netlist non-idle.
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let a = net.channel();
        let a_buf = net.channel();
        let b = net.channel();
        let b_buf = net.channel();
        let out = net.channel();
        net.add("src", IterSource::new(vec![vec![1]], vec![a], bus.clone()));
        net.add("buf_a", Buffer::new(1, a, a_buf));
        // Source for b emits zero iterations: join starves.
        net.add("src_b", IterSource::new(vec![], vec![b], bus.clone()));
        net.add("buf_b", Buffer::new(1, b, b_buf));
        net.add("join", Join::new(vec![a_buf, b_buf], out));
        net.add("sink", Sink::new(vec![out]));
        let mut sim = Simulator::new(net, bus)
            .expect("valid netlist")
            .with_config(SimConfig {
                max_cycles: 100_000,
                watchdog: 50,
                ..SimConfig::default()
            });
        let err = sim.run().expect_err("must deadlock");
        match err {
            SimError::Deadlock { detail, .. } => {
                assert!(
                    detail.contains("buf_a"),
                    "diagnostic names the stuck buffer: {detail}"
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn stall_ranking_identifies_the_bottleneck() {
        use crate::components::Buffer;
        // A source feeding a capacity-1 buffer that drains into a slow
        // (3-cycle) ALU stage: the buffer's input channel stalls the most.
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let src = net.channel();
        let buffered = net.channel();
        let trig = net.channel();
        let one = net.channel();
        let sum = net.channel();
        let f1 = net.channel();
        let f2 = net.channel();
        net.add(
            "src",
            IterSource::new((0..32).map(|i| vec![i]).collect(), vec![src], bus.clone()),
        );
        net.add("fork", Fork::new(src, vec![f1, f2]));
        net.add("buf", Buffer::new(1, f2, trig));
        net.add("one", Constant::new(1, trig, one));
        net.add("slowbuf", Buffer::new(1, f1, buffered));
        net.add(
            "slow",
            BinaryAlu::with_latency(BinOp::Mul, 4, buffered, one, sum),
        );
        net.add("sink", Sink::new(vec![sum]));
        let mut sim = Simulator::new(net, bus).expect("valid");
        sim.run().expect("completes");
        let ranking = sim.stall_ranking(3);
        assert!(
            !ranking.is_empty(),
            "a 4-cycle unit at II 1 must stall something"
        );
        // Stall counts are sorted descending.
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn timeout_is_reported() {
        let (net, bus, _) = arithmetic_circuit(64);
        let mut sim = Simulator::new(net, bus)
            .expect("valid")
            .with_config(SimConfig {
                max_cycles: 3,
                watchdog: 1000,
                ..SimConfig::default()
            });
        assert!(matches!(
            sim.run(),
            Err(SimError::Timeout { max_cycles: 3 })
        ));
    }
}
