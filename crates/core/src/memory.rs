//! The PreVV memory controller: premature execution + value validation.
//!
//! This component replaces the LSQ behind the same
//! [`MemoryInterface`](prevv_ir::MemoryInterface). Its operation per the
//! paper:
//!
//! * **Premature stage** (§III): loads issue to RAM the moment their address
//!   arrives — no ordering checks, no allocation; their (possibly wrong)
//!   results flow downstream immediately. Stores are buffered, never touching
//!   RAM prematurely.
//! * **Validation stage** (§III, §IV-C): every completed operation is turned
//!   into a [`PrematureRecord`] and validated by the [`Arbiter`] against the
//!   premature queue before being appended. A violation posts a squash on
//!   the [`SquashBus`]; the engine flushes the pipeline and the iteration
//!   source replays from the first bad iteration.
//! * **Retirement** (§IV-B): a record retires once every operation of
//!   strictly earlier iterations has arrived (really or fakely) — tracked by
//!   the completion *frontier* — because only those could still flag it.
//!   Retired stores commit to RAM strictly in `(iteration, ROM-sequence)`
//!   order, which preserves WAW ordering; WAR hazards cannot occur at all
//!   because stores never write early.
//! * **Fake tokens** (§V-C): guarded ops whose guard was false deliver a
//!   fake record that advances the frontier without validating, preventing
//!   the queue-overflow deadlock.
//! * **Backpressure** (Fig. 4c): a full queue stalls arrivals, which stalls
//!   the ports, which stalls the pipeline — exactly the `depth_q` trade-off
//!   the sizing experiments sweep.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use prevv_dataflow::{Component, Ports, QuietRun, Signals, SquashBus, Token};
use prevv_ir::{MemOpKind, MemoryInterface};
use prevv_mem::{shared, DelayLine, PortIo, Ram, SharedRam};

use crate::arbiter::{Arbiter, Verdict, Violation};
use crate::config::PrevvConfig;
use crate::protocol::{CommitStep, ProtocolState};
use crate::record::PrematureRecord;

/// Aggregate statistics of a PreVV run, shared with the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrevvStats {
    /// Squashes requested by the arbiter.
    pub squashes: u64,
    /// Iterations replayed (approximate: distance from the squash point to
    /// the newest iteration seen at that moment).
    pub replayed_iters: u64,
    /// Arrivals validated.
    pub validations: u64,
    /// Queue records walked during validations.
    pub comparisons: u64,
    /// Violations detected.
    pub violations: u64,
    /// Loads satisfied by forwarding (forwarding mode only).
    pub forwards: u64,
    /// Fake tokens processed.
    pub fakes: u64,
    /// Peak premature-queue occupancy.
    pub queue_high_water: usize,
    /// Cycles an arrival stalled because the queue was full (Fig. 4c).
    pub queue_full_stalls: u64,
    /// Always 0; removed when the benchmark stops reading it (ROADMAP
    /// item 4).
    pub conservative_holds: u64,
    /// Cycles a load was held back by the dependence predictor.
    pub predictor_holds: u64,
    /// Dependence-predictor entries learned.
    pub predictions_learned: u64,
    /// RAM reads issued.
    pub ram_reads: u64,
    /// Stores committed to RAM.
    pub ram_writes: u64,
}

/// Shared handle to the statistics, readable after simulation.
pub type SharedPrevvStats = Rc<RefCell<PrevvStats>>;

/// One squash, as recorded in the controller's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquashEvent {
    /// Controller cycle at which the violation was detected.
    pub cycle: u64,
    /// First replayed iteration.
    pub from_iter: u64,
    /// Load port that consumed stale data.
    pub load_port: usize,
    /// Store port it raced.
    pub store_port: usize,
    /// Iteration distance of the race.
    pub distance: u64,
}

/// Shared handle to the squash event log.
pub type SharedSquashLog = Rc<RefCell<Vec<SquashEvent>>>;

/// Errors raised when constructing a PreVV controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrevvError {
    /// `depth_q` cannot hold one iteration's operations: the completion
    /// frontier could never advance and the pipeline would deadlock.
    QueueTooShallow {
        /// Memory operations per iteration.
        needed: usize,
        /// Configured `depth_q`.
        depth: usize,
    },
}

impl std::fmt::Display for PrevvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrevvError::QueueTooShallow { needed, depth } => write!(
                f,
                "premature queue depth {depth} cannot hold one iteration's {needed} memory ops"
            ),
        }
    }
}

impl std::error::Error for PrevvError {}

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    port: usize,
    addr: usize,
    seq: u32,
    iter: u64,
}

/// The PreVV controller component.
#[derive(Debug)]
pub struct PrevvMemory {
    io: PortIo,
    ram: SharedRam,
    config: PrevvConfig,
    bus: SquashBus,
    /// The pure protocol state machine: premature queue, frontier, commit
    /// cursor, and admission reservation — the exact transition functions
    /// the `prevv-analyze` model checker explores (see `protocol.rs`).
    protocol: ProtocolState,
    arbiter: Arbiter,
    reads: DelayLine<PendingLoad>,
    /// Round-robin start port for input processing fairness.
    rr_start: usize,
    /// ROM-sequence numbers of the store ports, ascending.
    store_seqs: Vec<u32>,
    ports_per_iter: u32,
    /// Memory dependence predictor (store-set style, cf. the paper's
    /// reference [3]): after a violation, the racing load port waits for
    /// each predicted store port's op of `iter - distance` to *arrive*
    /// before issuing; the queue bypass then forwards the value, so the
    /// same race cannot squash twice. A load port may race several store
    /// ports (e.g. a guarded store at distance 0 plus its own statement's
    /// store at distance 1), so the full set is kept.
    predictor: HashMap<usize, HashMap<usize, u64>>,
    pending_squash: Option<u64>,
    max_arrived_iter: u64,
    stats: SharedPrevvStats,
    local: PrevvStats,
    log: SharedSquashLog,
    /// Controller cycle counter, stamped on squash-log entries.
    cycles_seen: u64,
    /// Did the last commit mutate the io adapter — the only state `eval`
    /// reads? Backs [`Component::eval_invalidated`]: a cycle that merely
    /// ticks the RAM delay line is progress for the watchdog but cannot
    /// change any wire, so the event scheduler skips re-evaluating us.
    eval_dirty: bool,
    /// Do the commit/retire cursors still have work (a commit-eligible
    /// store blocked on write bandwidth, or a retirement budget that ran
    /// out)? Our commits are only skippable when false.
    backlog: bool,
    /// Stall-counter deltas `(queue_full, predictor)` of the last
    /// fully-stalled commit — one that admitted, completed, committed, and
    /// retired nothing. While no channel fires, no read completes, and no
    /// backlog or squash appears, every hold-relevant input to
    /// `process_inputs` is provably unchanged, so each following commit
    /// recomputes exactly these deltas; `skip_quiet` books them in bulk.
    /// `None` after any commit that moves state, and after `flush`.
    hold_replay: Option<(u64, u64)>,
}

impl PrevvMemory {
    /// Creates the controller over a fresh RAM initialized from the
    /// interface's array images.
    ///
    /// The `bus` must be the synthesized kernel's squash bus (shared with
    /// its iteration source) — squashes rewind that source.
    ///
    /// # Errors
    ///
    /// Returns [`PrevvError::QueueTooShallow`] when `depth_q` is smaller
    /// than the number of memory operations per iteration.
    pub fn new(
        iface: MemoryInterface,
        config: PrevvConfig,
        bus: SquashBus,
    ) -> Result<(Self, SharedRam, SharedPrevvStats), PrevvError> {
        if config.depth < iface.ports.len() {
            return Err(PrevvError::QueueTooShallow {
                needed: iface.ports.len(),
                depth: config.depth,
            });
        }
        let ram = shared(Ram::new(iface.initial_ram()));
        let stats = Rc::new(RefCell::new(PrevvStats::default()));
        // Runtime validation always covers the full ambiguous set; the §V-B
        // pair reduction is an area-model concern (see DESIGN.md §4).
        let validated = iface.validated_ops();
        let store_seqs: Vec<u32> = iface
            .ports
            .iter()
            .filter(|p| p.is_store())
            .map(|p| p.op.seq)
            .collect();
        let ports_per_iter = iface.ports.len() as u32;
        let depth = config.depth;
        let forwarding = config.forwarding;
        Ok((
            PrevvMemory {
                // Deeper input FIFOs than the LSQ default: early-arriving
                // store *address* tokens are what lets the address-qualified
                // predictor hold release (paper Fig. 3's input FIFO, sized
                // for address visibility).
                io: PortIo::with_capacity(iface, 16),
                ram: ram.clone(),
                config,
                bus,
                protocol: ProtocolState::new(depth),
                arbiter: Arbiter::new(validated, forwarding),
                reads: DelayLine::new(),
                rr_start: 0,
                store_seqs,
                ports_per_iter,
                predictor: HashMap::new(),
                pending_squash: None,
                max_arrived_iter: 0,
                stats: stats.clone(),
                local: PrevvStats::default(),
                log: Rc::new(RefCell::new(Vec::new())),
                cycles_seen: 0,
                eval_dirty: true,
                backlog: true,
                hold_replay: None,
            },
            ram,
            stats,
        ))
    }

    /// Shared handle to the squash event log: every violation the arbiter
    /// detects, with the racing ports and distance — the raw material for
    /// squash-rate analysis and dependence-predictor studies.
    pub fn squash_log(&self) -> SharedSquashLog {
        self.log.clone()
    }

    /// Deadlock-free admission (see [`ProtocolState::can_admit`]): loads in
    /// flight to RAM hold reservations too.
    fn can_admit(&self, iter: u64) -> bool {
        self.protocol
            .can_admit(iter, self.ports_per_iter, self.reads.len())
    }

    /// Validates, applies the verdict, inserts, and counts one arrival.
    fn insert(&mut self, mut rec: PrematureRecord) {
        match self.arbiter.validate(&self.protocol.queue, &rec) {
            Verdict::Clean => {}
            Verdict::Forward(v) => {
                rec.value = v;
            }
            Verdict::Squash(v) => {
                self.log.borrow_mut().push(SquashEvent {
                    cycle: self.cycles_seen,
                    from_iter: v.from_iter,
                    load_port: v.load_port,
                    store_port: v.store_port,
                    distance: v.distance,
                });
                self.learn(v);
                self.pending_squash = Some(
                    self.pending_squash
                        .map_or(v.from_iter, |f| f.min(v.from_iter)),
                );
            }
        }

        if rec.fake {
            self.local.fakes += 1;
        }
        if rec.kind == MemOpKind::Load && !rec.fake {
            // Deliver the (premature) result downstream now.
            self.io
                .push_result(rec.port, Token::new(rec.value, rec.iter));
        }
        self.max_arrived_iter = self.max_arrived_iter.max(rec.iter);
        self.protocol.record_arrival(rec);
    }

    fn process_read_completions(&mut self) -> u32 {
        let completed = self.reads.tick();
        let n = completed.len() as u32;
        for p in completed {
            // Sample RAM at completion: every committed store is, by the
            // frontier invariant, older than this load, so the sample is
            // either exactly right or stale-but-validated-against-a-resident
            // store.
            let value = self.ram.borrow().read(p.addr);
            let rec = PrematureRecord::real(p.port, MemOpKind::Load, p.iter, p.seq, p.addr, value);
            self.insert(rec);
        }
        n
    }

    /// Records a violation in the dependence predictor. When the same load
    /// port races the same store port at varying distances, the *minimum*
    /// distance is kept: per-port arrivals are (nearly) iteration-ordered,
    /// so waiting for the closest store implies the farther ones arrived
    /// too.
    fn learn(&mut self, v: Violation) {
        let entry = self
            .predictor
            .entry(v.load_port)
            .or_default()
            .entry(v.store_port)
            .or_insert(v.distance);
        *entry = (*entry).min(v.distance);
        self.local.predictions_learned += 1;
    }

    /// Predictor hold: should this load (whose resolved address is `addr`)
    /// wait for the predicted store? Address-qualified: store address
    /// tokens arrive well before store data, so once the predicted store's
    /// address is visible and differs from the load's, the load proceeds
    /// immediately — only true aliases serialize (the discipline an LSQ
    /// enforces with its CAM, recovered here with one learned entry).
    fn predictor_holds(&self, port: usize, iter: u64, addr: usize) -> bool {
        let Some(deps) = self.predictor.get(&port) else {
            return false;
        };
        deps.iter().any(|(&store_port, &distance)| {
            if iter < distance {
                return false;
            }
            let needed = iter - distance;
            if self.protocol.port_op_arrived(store_port, needed) {
                return false; // store arrived: the queue bypass handles it
            }
            match self.io.find_addr(store_port, needed) {
                // Address announced and different: provably no conflict.
                Some(t) => self.io.resolve(store_port, t.value) == addr,
                // Address not visible yet: conservatively hold.
                None => true,
            }
        })
    }

    fn process_inputs(&mut self, mut budget: u32) {
        let mut read_budget = self.config.timing.read_ports;
        let n = self.io.port_count();
        if n == 0 {
            return;
        }
        self.rr_start = (self.rr_start + 1) % n;
        for k in 0..n {
            let p = (self.rr_start + k) % n;
            if budget == 0 {
                break;
            }
            // Fake tokens (either-or with the real arrival per iteration).
            while budget > 0 {
                let Some(&f) = self.io.peek_fake(p) else {
                    break;
                };

                if !self.can_admit(f.iter) {
                    self.local.queue_full_stalls += 1;
                    break;
                }
                self.protocol.note_admitted(f.iter);
                self.io.take_fake(p).expect("peeked");
                let op = &self.io.port(p).op;
                let (kind, seq) = (op.kind, op.seq);
                if kind == MemOpKind::Load {
                    // Fake loads still owe a dummy token downstream.
                    self.io.push_result(p, Token::new(0, f.iter));
                }
                self.insert(PrematureRecord::fake(p, kind, f.iter, seq));
                budget -= 1;
            }
            if self.io.port(p).is_load() {
                // Multiple early exits below; silence clippy's while-let
                // suggestion, which cannot express them.
                #[allow(clippy::while_let_loop)]
                loop {
                    let Some(&a) = self.io.peek_addr(p) else {
                        break;
                    };
                    let addr = self.io.resolve(p, a.value);
                    if self.predictor_holds(p, a.iter, addr) {
                        // A previous squash taught us this load races a
                        // specific store: wait for that store to arrive so
                        // the queue bypass can forward its value.
                        self.local.predictor_holds += 1;
                        break;
                    }
                    if !self.can_admit(a.iter) {
                        self.local.queue_full_stalls += 1;
                        break;
                    }
                    let seq = self.io.port(p).op.seq;
                    // Same-iteration bypass is unconditional (see the
                    // arbiter's intra-iteration forwarding note); the
                    // cross-iteration bypass is the `forwarding` option.
                    let bypass = self
                        .protocol
                        .resident_bypass(addr, (a.iter, seq))
                        .filter(|&(_, s_iter)| self.config.forwarding || s_iter == a.iter);
                    if let Some((v, _)) = bypass {
                        // Zero-RAM forwarding from the premature queue: no
                        // RAM round-trip, no read-port bandwidth.
                        if budget == 0 {
                            break;
                        }
                        self.protocol.note_admitted(a.iter);
                        self.io.take_addr(p).expect("peeked");
                        self.insert(PrematureRecord::real(
                            p,
                            MemOpKind::Load,
                            a.iter,
                            seq,
                            addr,
                            v,
                        ));
                        self.local.forwards += 1;
                        budget -= 1;
                        continue;
                    }
                    if read_budget == 0 {
                        break;
                    }
                    self.protocol.note_admitted(a.iter);
                    self.io.take_addr(p).expect("peeked");
                    self.reads.push(
                        self.config.timing.read_latency,
                        PendingLoad {
                            port: p,
                            addr,
                            seq,
                            iter: a.iter,
                        },
                    );
                    self.local.ram_reads += 1;
                    read_budget -= 1;
                }
            } else {
                while budget > 0 {
                    let (Some(&a), Some(&d)) = (self.io.peek_addr(p), self.io.peek_data(p)) else {
                        break;
                    };
                    debug_assert_eq!(a.iter, d.iter, "store streams stay paired");
                    if !self.can_admit(a.iter) {
                        self.local.queue_full_stalls += 1;
                        break;
                    }
                    self.protocol.note_admitted(a.iter);
                    self.io.take_addr(p).expect("peeked");
                    self.io.take_data(p).expect("peeked");
                    let addr = self.io.resolve(p, a.value);
                    let seq = self.io.port(p).op.seq;
                    self.insert(PrematureRecord::real(
                        p,
                        MemOpKind::Store,
                        a.iter,
                        seq,
                        addr,
                        d.value,
                    ));
                    budget -= 1;
                }
            }
        }
    }

    fn advance_frontier(&mut self) {
        // Never advance past a pending squash point: the iterations at and
        // beyond it are about to be flushed and replayed, so they must not
        // become retire- or commit-eligible this cycle.
        let cap = self.pending_squash.unwrap_or(u64::MAX);
        self.protocol.advance_frontier(self.ports_per_iter, cap);
        // A squash restarts at or above the frontier (`ProtocolState::flush`
        // asserts it), so the iteration source may drop the rows below it.
        self.bus.raise_floor(self.protocol.frontier);
    }

    fn commit_stores(&mut self) {
        let mut budget = self.config.timing.write_ports;
        loop {
            match self.protocol.commit_step(&self.store_seqs, budget > 0) {
                CommitStep::Write { addr, value } => {
                    self.ram.borrow_mut().write(addr, value);
                    self.local.ram_writes += 1;
                    budget -= 1;
                }
                // A fake store consumes its commit slot without touching RAM
                // (and without write bandwidth); marking it committed lets
                // the head retire it in order.
                CommitStep::Fake => {}
                CommitStep::Blocked => break,
            }
        }
    }

    /// Records whether the commit/retire cursors still have work that a
    /// quiet cycle must not skip: a commit-eligible store slot remains
    /// (write bandwidth ran out this cycle), or retirement consumed its
    /// whole budget (more records may be retirable next cycle).
    fn note_backlog(&mut self, retired: usize) {
        self.backlog = self.protocol.commit_pending(self.store_seqs.len())
            || retired >= self.config.retire_per_cycle as usize;
    }

    fn post_squash(&mut self) {
        let Some(from) = self.pending_squash.take() else {
            return;
        };
        self.bus.post(from);
        self.local.squashes += 1;
        self.local.replayed_iters += (self.max_arrived_iter + 1).saturating_sub(from);
    }

    fn publish_stats(&mut self) {
        let a = self.arbiter.stats();
        let mut s = self.local;
        s.validations = a.validations;
        s.comparisons = a.comparisons;
        s.violations = a.violations;
        // Forwards = issue-time queue bypasses plus arbiter-level forwards.
        s.forwards = a.forwards + self.local.forwards;
        s.queue_high_water = self.protocol.queue.high_water();
        *self.stats.borrow_mut() = s;
    }
}

impl Component for PrevvMemory {
    fn type_name(&self) -> &'static str {
        "prevv_memory"
    }

    fn ports(&self) -> Ports {
        self.io.channel_ports()
    }

    fn eval(&self, sig: &mut Signals) {
        self.io.eval(sig);
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        // Changed-signal for the scheduler/watchdog: io queue mutations, RAM
        // reads in flight (the delay line ticks), or any protocol cursor /
        // queue motion. Counters and the stats mirror are bookkeeping and
        // must not count, or a wedged circuit would never trip the watchdog.
        let ticking = !self.reads.is_empty();

        let stalls = (self.local.queue_full_stalls, self.local.predictor_holds);
        let proto = (
            self.protocol.frontier,
            self.protocol.next_commit,
            self.protocol.queue.len(),
            self.pending_squash,
        );
        self.io.commit_io(sig);
        // PreVV needs no group allocation: drain and ignore the stream.
        while self.io.take_alloc().is_some() {}

        let used = self.process_read_completions();
        let budget = self.config.validations_per_cycle.saturating_sub(used);
        self.process_inputs(budget);
        self.advance_frontier();
        self.commit_stores();
        let retired = self.protocol.retire(self.config.retire_per_cycle as usize);
        self.note_backlog(retired);
        self.post_squash();
        self.publish_stats();
        self.cycles_seen += 1;

        self.eval_dirty = self.io.take_dirty();
        let proto_now = (
            self.protocol.frontier,
            self.protocol.next_commit,
            self.protocol.queue.len(),
            self.pending_squash,
        );
        // A fully-stalled cycle — nothing admitted, completed, committed,
        // retired, or squashed — deterministically recomputes the same
        // stall-counter deltas next cycle (until some channel fires, a read
        // completes, or a backlog appears). Cache the deltas so a quiet run
        // of such cycles can be skipped.
        let moved =
            self.eval_dirty || used > 0 || retired > 0 || self.backlog || proto != proto_now;
        self.hold_replay = if moved {
            None
        } else {
            Some((
                self.local.queue_full_stalls - stalls.0,
                self.local.predictor_holds - stalls.1,
            ))
        };
        self.eval_dirty || ticking || !self.reads.is_empty() || proto != proto_now
    }

    fn flush(&mut self, from_iter: u64) {
        self.io.flush(from_iter);
        self.reads.flush_if(|p| p.iter >= from_iter);
        // frontier <= from_iter and next_commit target < frontier are
        // invariants (squashes never reach committed state), so neither
        // cursor moves (asserted inside the protocol flush).
        self.protocol.flush(from_iter);
        // A flush rewrites queues behind the skip bookkeeping's back: the
        // next commit must run the full pipeline before any skip.
        self.backlog = true;
        self.eval_dirty = true;
        self.hold_replay = None;
    }

    fn eval_invalidated(&self) -> bool {
        self.eval_dirty
    }

    /// After a quiet cycle, with no squash or commit/retire backlog pending,
    /// the pipeline stays stalled until the next read completes as long as
    /// the input FIFOs are empty or every head token is held
    /// (`hold_replay`): each commit only rotates the round-robin start,
    /// counts the read delay line down and repeats the hold counters.
    fn quiet_horizon(&self) -> Option<QuietRun> {
        if self.pending_squash.is_some()
            || self.backlog
            || (self.hold_replay.is_none() && self.io.has_pending_inputs())
        {
            return None;
        }
        Some(match self.reads.next_due() {
            // In-flight reads count down: progress for the watchdog.
            Some(due) => QuietRun {
                cycles: u64::from(due - 1),
                changed: true,
            },
            None => QuietRun {
                cycles: u64::MAX,
                changed: false,
            },
        })
    }

    fn skip_quiet(&mut self, k: u64) {
        let n = self.io.port_count() as u64;
        if n > 0 {
            self.rr_start = ((self.rr_start as u64 + k % n) % n) as usize;
        }
        self.reads.skip(k);
        self.cycles_seen += k;
        if let Some((qf, ph)) = self.hold_replay {
            self.local.queue_full_stalls += k * qf;
            self.local.predictor_holds += k * ph;
        }
        self.publish_stats();
    }

    fn is_idle(&self) -> bool {
        self.io.is_idle() && self.protocol.queue.is_empty() && self.reads.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.io.occupancy() + self.protocol.queue.len() + self.reads.len()
    }

    fn capacity(&self) -> usize {
        self.config.depth
    }

    fn latency(&self) -> u32 {
        // A load's best case short of a queue bypass: the RAM round-trip
        // plus the arrival-processing commit that pushes its result.
        self.config.timing.read_latency + 1
    }
}
