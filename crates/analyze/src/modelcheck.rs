//! PV2xx — bounded explicit-state model checking of the PreVV protocol.
//!
//! The checker builds an abstract transition system from a [`KernelSpec`]
//! and a [`PrevvConfig`] and explores it exhaustively up to a configurable
//! iteration bound:
//!
//! * **State** — the pure [`ProtocolState`] (premature queue, completion
//!   frontier, in-order commit cursor, admission reservation) shared
//!   verbatim with the cycle-accurate simulator, plus a per-port issue
//!   cursor and the abstract RAM image.
//! * **Transitions** — nondeterministic per-port arrivals (real, fake, or
//!   — with fake tokens disabled — a silent *skip*), validated by the very
//!   same [`Arbiter::verdict`] comparator the simulator uses; a `Squash`
//!   verdict flushes and rewinds exactly like the controller's
//!   squash-and-replay. Housekeeping (frontier advance, in-order commit,
//!   retirement) is deterministic, monotone and confluent, so it runs to a
//!   fixpoint after every arrival rather than being interleaved — a sound
//!   reduction of the state space (see DESIGN.md).
//! * **Verdicts** —
//!   [`PV201`](Code::ProtocolDeadlock) reachable deadlock (no enabled
//!   transition, unretired records), [`PV202`](Code::SquashLivelock)
//!   squash livelock (a cycle squashing the same iteration without
//!   frontier progress), [`PV203`](Code::QueueWedge) insufficient queue
//!   capacity on some interleaving, and
//!   [`PV204`](Code::ReductionUnsound) a §V-B-eliminated operation whose
//!   full-set validation verdict is a squash the reduced set would miss.
//! * **Semantics** — an arriving op computes its address and store value
//!   with [`Expr::eval`](prevv_ir::Expr::eval), fed the values its operand
//!   loads recorded, and a completed interleaving must leave the RAM image
//!   of [`golden::replay`] over the same iteration prefix (laid out at the
//!   interface's array bases; asserted in debug builds). The checker reads
//!   the kernel's one sequential semantics rather than a copy of it.
//!
//! # The exploration engine
//!
//! The frontier is explored **level-synchronously** (breadth-first by
//! trace length, so counterexamples stay shortest):
//!
//! * **Partial-order reduction** — when several arrivals are enabled, a
//!   single *ample* arrival provably independent of every other enabled
//!   one (disjoint footprints, no frontier/commit progress, persistence
//!   of every other enabled arrival, admission slack for all of them) is
//!   explored alone; the commuted interleavings collapse. Ample steps
//!   never squash, so every cycle in the reduced graph still contains a
//!   fully-expanded state (no ignoring). The reduction is cross-checked
//!   against unreduced exploration by property tests; see DESIGN.md for
//!   the independence argument.
//! * **Hash compaction** — the visited set stores 64-bit fingerprints.
//!   A state's id is its insertion order, which is also its expansion
//!   order; the table keeps each id's fingerprint and an open-addressed
//!   array of 4-byte ids. A fingerprint is order-free: each queue record,
//!   issue cursor and RAM cell is mixed on its own (cursors and cells with
//!   their position), each section sums its terms, and a short splitmix64
//!   chain joins the sums with the frontier, the commit cursor and the
//!   queue length. The canonical key's records are a set, so no sort is
//!   needed, and the terms mix independently. Full states live only for
//!   the current and next BFS level. [`ProtocolOptions::audit`] keeps the
//!   full keys on the side and counts fingerprint collisions (expected ≈
//!   n²/2⁶⁴).
//! * **The explored graph** — each expanded state records its explored
//!   edges as the successors' ids in op order, one 4-byte word each, with
//!   the top bit tagging an edge that stays in its (frontier,
//!   next_commit) plane. A counterexample trace is a BFS over these edges
//!   from the root, in id order and then op order (exactly the edges the
//!   search first reached each state by), re-executed by taking at each
//!   step the first op whose successor has the next id.
//! * **PV202** — the plane quantities are monotone, so every cycle stays
//!   in one plane, and every cycle contains a squash (all other arrivals
//!   raise an issue cursor). A livelock is an in-plane squash edge
//!   `u -> v` whose ends share a strongly connected component of the
//!   in-plane edges (iterative Tarjan); the first such edge in discovery
//!   order closes the lasso, and its tail is the shortest in-plane path
//!   `v -> u`. Squash edges leave only fully expanded states (the cycle
//!   proviso), so the reduced graph has an in-plane cycle whenever the
//!   full graph does (see DESIGN.md).
//! * **One scratch successor** — the search is serial. Every successor is
//!   built into one recycled scratch state, fingerprinted and inserted at
//!   once; only a new state moves into the next level, so memory grows
//!   with the states found, not with the transitions taken, and a
//!   duplicate costs no allocation.
//!
//! Counterexamples are span-annotated via
//! [`Stmt::op_span`](prevv_ir::Stmt::op_span) and can be re-executed
//! against the transition system with [`replay`] — which is how the
//! property tests prove every reported trace is real.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::time::{Duration, Instant};

use prevv_core::protocol::ProtocolKey;
use prevv_core::reduce::reduce;
use prevv_core::{Arbiter, CommitStep, PrematureRecord, PrevvConfig, ProtocolState, Verdict};
use prevv_dataflow::Value;
use prevv_ir::symdep::{classify_accesses, PairClass};
use prevv_ir::{
    absint,
    depend::{AmbiguousPair, DischargeReason, Proof, StaticMemOp},
    golden, KernelSpec, MemOpKind, Span,
};

use crate::circuit::tarjan;
use crate::diag::{Code, Diagnostic, Report};
use crate::seplog::SeparationStats;

/// Default iteration bound when [`ProtocolOptions::iterations`] is zero.
///
/// Four iterations cover every protocol interaction the checker looks
/// for — intra-iteration ordering, distance-1 *and* distance-2
/// cross-iteration hazards that drive squash/replay, admission
/// reservation across the frontier, guarded-iteration draining — plus the
/// second-order replays (a replayed iteration squashed again by a later
/// one) that only appear at depth ≥ 3. Partial-order reduction and hash
/// compaction keep this bound affordable; deeper bounds are opt-in
/// (`--mc-depth`) and the state count still grows steeply (see DESIGN.md).
pub const DEFAULT_ITERATION_BOUND: u64 = 4;

/// Default cap on explored states before the checker gives up with PV200.
pub const DEFAULT_MAX_STATES: usize = 10_000_000;

/// Configuration of the protocol model checker.
#[derive(Debug, Clone)]
pub struct ProtocolOptions {
    /// Controller configuration being verified (queue depth, forwarding,
    /// pair reduction).
    pub config: PrevvConfig,
    /// Whether guarded ops send fake tokens (paper §V-C). Disabling this on
    /// a guarded kernel is the canonical PV201 deadlock.
    pub fake_tokens: bool,
    /// Iteration bound: only the first `iterations` iterations are
    /// explored. `0` selects [`DEFAULT_ITERATION_BOUND`]. The bound is the
    /// checker's soundness horizon — see DESIGN.md.
    pub iterations: u64,
    /// State cap: exploration stops with a PV200 warning beyond this.
    pub max_states: usize,
    /// Ignored: the search runs on the calling thread. The field stays
    /// only so that existing struct literals setting it still compile;
    /// `prevv-lint --jobs` spreads files over cores.
    pub threads: usize,
    /// Partial-order reduction (on by default). Disabling it forces the
    /// full interleaving set — the cross-check oracle for the reduction.
    pub por: bool,
    /// Collision-audit mode: keep full state keys beside the fingerprint
    /// table and count fingerprint collisions (costs the memory the
    /// compaction saved; for validation runs only).
    pub audit: bool,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions {
            config: PrevvConfig::default(),
            fake_tokens: true,
            iterations: 0,
            max_states: DEFAULT_MAX_STATES,
            threads: 0,
            por: true,
            audit: false,
        }
    }
}

impl ProtocolOptions {
    /// Options for a concrete controller configuration.
    pub fn for_config(cfg: &PrevvConfig) -> Self {
        ProtocolOptions {
            config: cfg.clone(),
            ..Self::default()
        }
    }
}

/// What kind of protocol event a trace step is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A real operation arrived and validated clean.
    Arrive,
    /// A real load arrived and took the forwarded value of the youngest
    /// older resident store.
    Forward,
    /// A guarded op's guard was false and it sent a fake token.
    Fake,
    /// A guarded op's guard was false and — fake tokens disabled — it sent
    /// nothing at all.
    Skip,
    /// A real arrival was found in violation: squash and replay.
    Squash,
}

/// One step of a counterexample trace.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Static port (= op id from `depend::enumerate_ops`).
    pub op: usize,
    /// Iteration the event belongs to.
    pub iter: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Flat RAM address touched (real arrivals only).
    pub addr: Option<usize>,
    /// Value read/written/forwarded (real arrivals only).
    pub value: Value,
    /// Squash restart iteration (squash events only).
    pub squash_from: Option<u64>,
    /// Source span of the op, when the kernel was parsed from text.
    pub span: Option<Span>,
    /// Human-readable rendering of the event.
    pub desc: String,
}

/// A machine-readable counterexample: the shortest event trace reaching
/// the violation. For livelocks, `cycle_from` indexes the first event of
/// the repeating cycle.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which PV2xx property the trace violates.
    pub code: Code,
    /// The events, in execution order.
    pub events: Vec<TraceEvent>,
    /// Livelock only: `events[cycle_from..]` repeats forever.
    pub cycle_from: Option<usize>,
}

impl Counterexample {
    /// Renders the trace as numbered lines (used as diagnostic help text).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("counterexample ({} events):", self.events.len()));
        for (i, e) in self.events.iter().enumerate() {
            out.push('\n');
            out.push_str(&format!("  {:>2}. {}", i + 1, e.desc));
        }
        if let Some(k) = self.cycle_from {
            out.push_str(&format!(
                "\n  events {}..{} repeat forever (no frontier progress)",
                k + 1,
                self.events.len()
            ));
        }
        out
    }
}

/// Exploration statistics of one model-checking run.
#[derive(Debug, Clone)]
pub struct CheckStats {
    /// Distinct abstract states discovered (fingerprint-table size).
    pub states: usize,
    /// Transitions actually executed (post partial-order reduction).
    pub transitions: u64,
    /// Transitions enabled before reduction (the unreduced out-degree sum).
    pub enabled: u64,
    /// Wall-clock time of the exploration.
    pub duration: Duration,
    /// True when the state budget (not the iteration bound) stopped the
    /// run.
    pub truncated_by_budget: bool,
    /// Collision-audit mode only: fingerprint collisions observed
    /// (distinct states sharing a 64-bit fingerprint). `None` when the
    /// audit was off.
    pub audit_collisions: Option<u64>,
    /// Separation-prover pair classes for the kernel (PV300–PV302): how
    /// much of the conservative ambiguous set was discharged before
    /// exploration.
    pub pairs: SeparationStats,
    /// Ops the arbiter actually validates (the post-discharge set).
    pub validated: usize,
}

impl CheckStats {
    /// Fraction of enabled transitions the reduction actually executed
    /// (1.0 = no reduction; smaller is better).
    pub fn reduction_ratio(&self) -> f64 {
        if self.enabled == 0 {
            1.0
        } else {
            self.transitions as f64 / self.enabled as f64
        }
    }

    /// Exploration throughput in states per second.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }
}

/// Result of a protocol model-checking run.
#[derive(Debug)]
pub struct CheckResult {
    /// PV200–PV204 diagnostics, rendered traces attached as help text.
    pub report: Report,
    /// Machine-readable counterexamples (at most one per code, shortest
    /// first found by BFS).
    pub counterexamples: Vec<Counterexample>,
    /// Number of distinct abstract states explored.
    pub states: usize,
    /// False when the state cap was hit before exhausting the space.
    pub complete: bool,
    /// The iteration bound actually used.
    pub bound: u64,
    /// Exploration statistics (throughput, reduction ratio, pair classes).
    pub stats: CheckStats,
}

impl CheckResult {
    /// True when no PV201–PV204 property was violated.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// Outcome of [`replay`]ing a counterexample.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOutcome {
    /// After the trace, no transition is enabled and the run has not
    /// succeeded (PV201/PV203 witness).
    pub deadlock: bool,
    /// After the trace, at least one op is blocked by the admission
    /// reservation (distinguishes PV203 from PV201).
    pub admission_blocked: bool,
    /// Livelock traces only: the state at `cycle_from` recurred exactly at
    /// the end of the trace (the cycle closes).
    pub cycle_closed: bool,
    /// The trace's last step is a §V-B-eliminated op whose full-set verdict
    /// is a squash (the PV204 witness).
    pub reduction_escape: bool,
}

/// Model-checks the PreVV protocol for `spec` under `opts`.
///
/// # Errors
///
/// Returns a message when the queue depth is zero, or when the kernel
/// fails validation or synthesis (the checker needs the synthesized memory
/// interface for the ambiguous-pair and §V-B reduction sets).
pub fn check(spec: &KernelSpec, opts: &ProtocolOptions) -> Result<CheckResult, String> {
    Ok(Model::build(spec, opts)?.explore())
}

/// Re-executes a counterexample against the transition system, verifying
/// every event is enabled and produces the recorded kind/iteration, then
/// classifies the final state.
///
/// # Errors
///
/// Returns a message when the model cannot be built or the trace diverges
/// (an event not enabled, or enabled with a different kind/iteration) —
/// which would mean the checker emitted a bogus trace.
pub fn replay(
    spec: &KernelSpec,
    opts: &ProtocolOptions,
    cex: &Counterexample,
) -> Result<ReplayOutcome, String> {
    let model = Model::build(spec, opts)?;
    let mut st = model.initial();
    let mut scratch = McState::hollow();
    let mut cycle_key = None;
    let mut last_escape = false;
    for (k, ev) in cex.events.iter().enumerate() {
        if Some(k) == cex.cycle_from {
            cycle_key = Some(st.key());
        }
        match model.try_step(&st, ev.op, &mut scratch) {
            Ok(Step {
                event,
                reduction_escape,
                ..
            }) => {
                if event.kind != ev.kind || event.iter != ev.iter {
                    return Err(format!(
                        "event {}: expected {:?} of iteration {}, got {:?} of iteration {}",
                        k + 1,
                        ev.kind,
                        ev.iter,
                        event.kind,
                        event.iter
                    ));
                }
                last_escape = reduction_escape;
                std::mem::swap(&mut st, &mut scratch);
            }
            Err(blocked) => {
                return Err(format!(
                    "event {}: op {} not enabled ({})",
                    k + 1,
                    ev.op,
                    blocked.name()
                ))
            }
        }
    }
    let mut any = false;
    let mut adm = false;
    for op in 0..model.ops.len() {
        match model.gate(&st, op) {
            Ok(_) => any = true,
            Err(Blocked::Admission) => adm = true,
            Err(_) => {}
        }
    }
    Ok(ReplayOutcome {
        deadlock: !any && !model.is_success(&st),
        admission_blocked: adm,
        cycle_closed: cycle_key.is_some_and(|k| k == st.key()),
        reduction_escape: last_escape,
    })
}

// ---------------------------------------------------------------------------
// Fingerprints and the compacted visited store.
// ---------------------------------------------------------------------------

/// splitmix64 — a fixed, keyless mixer (the std hasher is randomly seeded
/// per process, which would break deterministic cross-run comparisons).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fingerprint term of one queue record: every field the canonical key
/// projects, packed into two words and mixed. Each record is hashed on its
/// own and the terms are summed, so neither the queue's physical order nor
/// a sort enters the fingerprint.
fn record_hash(r: &PrematureRecord) -> u64 {
    let flags = u64::from(r.kind == MemOpKind::Store)
        | u64::from(r.fake) << 1
        | u64::from(r.committed) << 2
        | u64::from(r.addr.is_some()) << 3;
    let op = r.iter << 32 ^ (r.port as u64) << 16 ^ u64::from(r.seq) << 4 ^ flags;
    let access = r.addr.unwrap_or(0) as u64 ^ (r.value as u64).rotate_left(32);
    splitmix(op.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ access)
}

/// The fingerprint term sum of an array section (the issue cursors or the
/// RAM image): each word is mixed together with its position, so the sum
/// sees where every value sits.
fn cells_hash(words: impl Iterator<Item = u64>) -> u64 {
    words.enumerate().fold(0u64, |sum, (pos, w)| {
        sum.wrapping_add(splitmix(
            w ^ (pos as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        ))
    })
}

/// Tags an explored edge whose successor stays in its source's
/// (frontier, next_commit) plane; the low 31 bits hold the successor's id.
const IN_PLANE: u32 = 1 << 31;

/// An empty [`FpTable`] slot.
const NO_ID: u32 = u32::MAX;

/// The visited set. A state's id is its insertion order, which is also
/// the order the BFS expands states in; `fps` holds each id's fingerprint
/// and `slots` is an open-addressed table of ids (linear probing, ≤ 0.75
/// load) keyed by it.
struct FpTable {
    fps: Vec<u64>,
    slots: Vec<u32>,
}

impl FpTable {
    fn new() -> Self {
        FpTable {
            fps: Vec::new(),
            slots: vec![NO_ID; 1024],
        }
    }

    fn len(&self) -> usize {
        self.fps.len()
    }

    /// The id of `fp`, inserted as the next id when new; the flag says
    /// whether it was.
    fn insert(&mut self, fp: u64) -> (u32, bool) {
        if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (splitmix(fp) as usize) & mask;
        loop {
            let id = self.slots[i];
            if id == NO_ID {
                let id = self.fps.len() as u32;
                self.slots[i] = id;
                self.fps.push(fp);
                return (id, true);
            }
            if self.fps[id as usize] == fp {
                return (id, false);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of a visited fingerprint.
    fn get(&self, fp: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = (splitmix(fp) as usize) & mask;
        loop {
            let id = self.slots[i];
            if id == NO_ID {
                return None;
            }
            if self.fps[id as usize] == fp {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        self.slots = vec![NO_ID; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for (id, &fp) in self.fps.iter().enumerate() {
            let mut i = (splitmix(fp) as usize) & mask;
            while self.slots[i] != NO_ID {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32;
        }
    }
}

// ---------------------------------------------------------------------------
// The abstract transition system.
// ---------------------------------------------------------------------------

/// One abstract state: the shared protocol state, the per-port issue
/// cursor (next iteration each static op will process), and the RAM image.
#[derive(Debug)]
struct McState {
    proto: ProtocolState,
    issued: Vec<u64>,
    ram: Vec<Value>,
}

type StateKey = (ProtocolKey, Vec<u64>, Vec<Value>);

impl Clone for McState {
    fn clone(&self) -> Self {
        McState {
            proto: self.proto.clone(),
            issued: self.issued.clone(),
            ram: self.ram.clone(),
        }
    }

    /// Field-wise assignment so every buffer of a recycled scratch state is
    /// reused. [`Model::try_step`] runs this once per explored transition —
    /// the hottest line of the whole checker — and the derived fallback
    /// would turn each one into four fresh allocations.
    fn clone_from(&mut self, source: &Self) {
        self.proto.clone_from(&source.proto);
        self.issued.clone_from(&source.issued);
        self.ram.clone_from(&source.ram);
    }
}

impl McState {
    fn key(&self) -> StateKey {
        (self.proto.key(), self.issued.clone(), self.ram.clone())
    }

    /// A buffer-less placeholder left behind when a scratch state is moved
    /// out into the frontier; the next `clone_from` refills it.
    fn hollow() -> McState {
        McState {
            proto: ProtocolState::new(1),
            issued: Vec::new(),
            ram: Vec::new(),
        }
    }
}

/// Why an op has no transition from a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Blocked by the admission reservation (a PV203 witness when terminal).
    Admission,
    /// Waiting for an operand load of the same iteration.
    Operand,
    /// All `bound` iterations of this op already processed.
    Exhausted,
}

impl Blocked {
    fn name(self) -> &'static str {
        match self {
            Blocked::Admission => "blocked on admission",
            Blocked::Operand => "blocked on an operand",
            Blocked::Exhausted => "exhausted",
        }
    }
}

/// How an enabled op arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrival {
    /// Guard false, fake tokens disabled: the op sends nothing at all.
    Skip,
    /// Guard false: a fake token (paper §V-C).
    Fake,
    /// Guard true: a real access, validated on arrival.
    Real,
}

/// An op's gate in a state ([`Model::gate`]): how it arrives, or why it
/// cannot.
type Gate = Result<Arrival, Blocked>;

/// The unique transition of an enabled op; the successor state has been
/// written into the caller's scratch buffer.
struct Step {
    event: TraceEvent,
    squash: bool,
    /// The arrival is a §V-B-eliminated op whose full-set verdict was a
    /// squash (the PV204 witness condition).
    reduction_escape: bool,
}

enum DeadCause {
    /// A guarded op silently skipped iteration `iter` — the frontier waits
    /// for a token that will never come (missing fake tokens, §V-C).
    MissingToken { op: usize, iter: u64 },
    /// Every not-yet-arrived op is refused a queue slot.
    Wedge { op: usize, iter: u64 },
    /// Any other stuck shape.
    Stuck,
}

/// A dead end short of success: its id, the state, and the ops blocked on
/// admission there.
struct Deadlock(u32, McState, Vec<(usize, u64)>);

/// The serial BFS: the graph it explored and the verdict evidence, before
/// any trace is rebuilt, and the buffers it recycles. The graph is kept as
/// ids: each expanded state's explored edges are its successors' ids in op
/// order, tagged [`IN_PLANE`] when the successor stays in the source's
/// plane, from `edges[starts[id]]` on. Every successor is built into
/// `scratch`; a new one moves into `next` and `scratch` is refilled from
/// `pool`, which holds retired state buffers ([`McState::clone_from`]
/// overwrites them in place). `gates` holds the expanded state's per-op
/// [`Gate`]s. In steady state the expansion hot loop allocates nothing.
struct Exploration {
    init: McState,
    visited: FpTable,
    starts: Vec<u32>,
    edges: Vec<u32>,
    /// The in-plane squash edges `(u, v)` in discovery order: the PV202
    /// cycle candidates.
    squashes: Vec<(u32, u32)>,
    /// Collision-audit mode only: the full key of every visited state.
    audit: Option<HashMap<u64, StateKey>>,
    audit_collisions: u64,
    transitions: u64,
    enabled: u64,
    truncated_by_budget: bool,
    /// The first dead end, in BFS order.
    deadlock: Option<Deadlock>,
    /// The first PV204 escape: the source state's id and event.
    escape: Option<(u32, TraceEvent)>,
    /// The next BFS level: the new states found so far, in id order.
    next: Vec<McState>,
    scratch: McState,
    pool: Vec<McState>,
    gates: Vec<Gate>,
}

impl Exploration {
    /// Admits the successor in `scratch` as the next edge of the state
    /// being expanded and returns its id. A new state moves into the next
    /// level; a duplicate stays in the scratch for the next step to
    /// overwrite.
    fn visit(&mut self, model: &Model, in_plane: bool) -> u32 {
        let fp = model.fingerprint(&self.scratch);
        let (id, new) = self.visited.insert(fp);
        if new {
            if let Some(aud) = &mut self.audit {
                aud.insert(fp, self.scratch.key());
            }
            let fresh = self.pool.pop().unwrap_or_else(McState::hollow);
            self.next.push(std::mem::replace(&mut self.scratch, fresh));
            self.truncated_by_budget = self.visited.len() > model.max_states;
        } else if let Some(aud) = &self.audit {
            if aud.get(&fp) != Some(&self.scratch.key()) {
                self.audit_collisions += 1;
            }
        }
        self.edges.push(if in_plane { id | IN_PLANE } else { id });
        id
    }

    /// The explored edges of state `id` (none if it was never expanded).
    fn out(&self, id: u32) -> &[u32] {
        let id = id as usize;
        let Some(&start) = self.starts.get(id) else {
            return &[];
        };
        let end = self
            .starts
            .get(id + 1)
            .map_or(self.edges.len(), |&e| e as usize);
        &self.edges[start as usize..end]
    }

    /// The ids of a shortest path `from -> … -> to` over the explored
    /// edges (only the in-plane ones if `in_plane`), by BFS taking each
    /// state's edges in op order, the first reach winning. From the root
    /// the BFS pops states in id order, so every state is reached by the
    /// edge the search first reached it by.
    fn path(&self, from: u32, to: u32, in_plane: bool) -> Vec<u32> {
        if from == to {
            return vec![to];
        }
        let mut pred = vec![NO_ID; self.visited.len()];
        let mut queue = VecDeque::from([from]);
        'search: while let Some(s) = queue.pop_front() {
            for &e in self.out(s) {
                let t = e & !IN_PLANE;
                if (in_plane && e & IN_PLANE == 0) || t == from || pred[t as usize] != NO_ID {
                    continue;
                }
                pred[t as usize] = s;
                if t == to {
                    break 'search;
                }
                queue.push_back(t);
            }
        }
        let mut ids = vec![to];
        let mut at = to;
        while at != from && pred[at as usize] != NO_ID {
            at = pred[at as usize];
            ids.push(at);
        }
        ids.reverse();
        ids
    }

    /// PV202: the first in-plane squash edge `u -> v` whose ends share a
    /// strongly connected component of the in-plane edges closes a
    /// livelock cycle. Both plane quantities are monotone, so a cycle holds
    /// them constant and every cycle of the explored graph is one of the
    /// in-plane graph. Returns the ids `u, v, …, u`: the squash edge and
    /// the shortest in-plane path back.
    fn livelock(&self) -> Option<Vec<u32>> {
        if self.squashes.is_empty() {
            return None;
        }
        let comp = self.plane_components();
        let &(u, v) = self
            .squashes
            .iter()
            .find(|&&(u, v)| comp[u as usize] == comp[v as usize])?;
        let mut ids = vec![u];
        ids.extend(self.path(v, u, true));
        Some(ids)
    }

    /// The strongly connected components of the in-plane edges, by a
    /// Tarjan search ([`tarjan`]) rooted at the squash sources: each state's
    /// component number, [`NO_ID`] for states no squash source reaches.
    fn plane_components(&self) -> Vec<u32> {
        let mut comp = vec![NO_ID; self.visited.len()];
        let mut next_comp = 0u32;
        tarjan(
            comp.len(),
            self.squashes.iter().map(|&(root, _)| root),
            |s| {
                let edges = self.out(s).iter();
                edges
                    .filter(|&&e| e & IN_PLANE != 0)
                    .map(|&e| e & !IN_PLANE)
            },
            |scc| {
                for &s in scc {
                    comp[s as usize] = next_comp;
                }
                next_comp += 1;
            },
        );
        comp
    }
}

struct Model<'a> {
    spec: &'a KernelSpec,
    cfg: PrevvConfig,
    fake_tokens: bool,
    bound: u64,
    max_states: usize,
    truncated: bool,
    por: bool,
    audit: bool,
    ops: Vec<StaticMemOp>,
    spans: Vec<Option<Span>>,
    labels: Vec<String>,
    store_seqs: Vec<u32>,
    ports: u32,
    bases: Vec<usize>,
    array_of_addr: Vec<usize>,
    init_ram: Vec<Value>,
    rows: Vec<Vec<Value>>,
    guard_taken: Vec<Vec<bool>>,
    /// Per op: the loads whose record values feed it, as an id range
    /// (see [`Model::build`]).
    operands: Vec<Range<usize>>,
    arbiter: Arbiter,
    /// Per op: does the arbiter validate its arrivals?
    validated: Vec<bool>,
    /// Per op: is it in the §V-B reduced validation set?
    reduced: Vec<bool>,
    /// Static half of the ample check: op is unvalidated and its footprint
    /// is proven independent of every conflicting op on the same array.
    ample_ok: Vec<bool>,
    pair_stats: SeparationStats,
    /// Pairs the netlist validates that value invariants prove safe within
    /// the horizon box — already removed from `validated`; reported in a
    /// PV200 note.
    narrowed: Vec<(AmbiguousPair, DischargeReason)>,
    expected_ram: Vec<Value>,
}

impl<'a> Model<'a> {
    fn build(spec: &'a KernelSpec, opts: &ProtocolOptions) -> Result<Self, String> {
        if opts.config.depth == 0 {
            return Err("premature queue depth 0 holds no record".into());
        }
        spec.validate()
            .map_err(|e| format!("invalid kernel: {e}"))?;
        let mut synth = prevv_ir::synthesize(spec).map_err(|e| format!("synthesis failed: {e}"))?;

        let requested = if opts.iterations == 0 {
            DEFAULT_ITERATION_BOUND
        } else {
            opts.iterations
        };
        let total = spec.iteration_count() as u64;
        let bound = requested.min(total);
        let truncated = bound < total;

        let rows: Vec<Vec<Value>> = spec.iterations().take(bound as usize).collect();
        let guard_taken: Vec<Vec<bool>> = rows
            .iter()
            .map(|row| spec.body.iter().map(|s| s.runs(row)).collect())
            .collect();

        // Horizon-box narrowing: the per-level min/max of the explored
        // iteration prefix is a rectangular box covering every explored
        // induction-variable value; a validated pair the value invariants
        // prove safe within that box never collides in any explored
        // interleaving, so it leaves the checker's validated set before
        // exploration starts. The netlist still validates it. Sound for the
        // bounded verdicts only — PV2xx claims were already relative to the
        // horizon (PV200, DESIGN.md).
        let horizon_box: Vec<(Value, Value)> = (0..spec.levels.len())
            .map(|l| {
                let lo = rows.iter().map(|r| r[l]).min().unwrap_or(0);
                let hi = rows.iter().map(|r| r[l]).max().unwrap_or(-1);
                (lo, hi)
            })
            .collect();
        absint::upgrade_verdicts(spec, &mut synth.deps, &horizon_box);
        let pair_stats = SeparationStats::of(&synth.deps);
        let narrowed: Vec<(AmbiguousPair, DischargeReason)> = synth
            .deps
            .pairs
            .iter()
            .zip(&synth.deps.verdicts)
            .filter_map(|(&p, v)| match v.proof() {
                Some(Proof::Invariant(reason)) if synth.interface.pairs.contains(&p) => {
                    Some((p, reason))
                }
                _ => None,
            })
            .collect();
        synth
            .interface
            .pairs
            .retain(|p| !narrowed.iter().any(|(d, _)| d == p));
        let iface = &synth.interface;

        let ops: Vec<StaticMemOp> = iface.ports.iter().map(|p| p.op.clone()).collect();
        let mut stmt_base = Vec::with_capacity(spec.body.len());
        let mut base = 0usize;
        for stmt in &spec.body {
            stmt_base.push(base);
            base += stmt.mem_op_count();
        }
        let spans: Vec<Option<Span>> = ops
            .iter()
            .map(|o| spec.body[o.stmt].op_span(o.id - stmt_base[o.stmt]))
            .collect();
        let labels: Vec<String> = ops
            .iter()
            .map(|o| format!("{} {}", o.kind, spec.arrays[o.array.0].name))
            .collect();
        let store_seqs: Vec<u32> = ops
            .iter()
            .filter(|o| o.kind == MemOpKind::Store)
            .map(|o| o.seq)
            .collect();
        let ports = ops.len() as u32;

        let bases: Vec<usize> = iface.arrays.iter().map(|a| a.base).collect();
        let mut array_of_addr = vec![0usize; iface.ram_words()];
        for (ai, a) in iface.arrays.iter().enumerate() {
            for slot in array_of_addr.iter_mut().skip(a.base).take(a.len) {
                *slot = ai;
            }
        }
        let init_ram = iface.initial_ram();

        let validated_set = iface.validated_ops();
        let mask = |set: &HashSet<usize>| (0..ops.len()).map(|op| set.contains(&op)).collect();
        let validated: Vec<bool> = mask(&validated_set);
        let reduced: Vec<bool> = mask(&reduce(&ops, validated_set.clone(), true).validated);
        let arbiter = Arbiter::new(validated_set, opts.config.forwarding);

        // The operand ops of each op: loads depend on the loads nested in
        // their index expression, which `Expr::loads` places contiguously
        // right before them; stores depend on all of their statement's
        // loads.
        let operands: Vec<Range<usize>> = ops
            .iter()
            .enumerate()
            .map(|(op, o)| match o.kind {
                MemOpKind::Load => (op - o.index.loads().len())..op,
                MemOpKind::Store => stmt_base[o.stmt]..op,
            })
            .collect();

        // Static ample eligibility. An op can only be explored alone when
        // its arrival provably commutes with every other enabled arrival:
        //
        // * it is never validated (its verdict is forced `Clean`, so it
        //   never squashes — ample steps keep Σissued strictly increasing,
        //   which is the no-ignoring argument: every cycle contains a
        //   squash edge, and squash edges come only from fully-expanded
        //   states);
        // * for every conflicting op on the same array — (load, store),
        //   (store, load), (store, store); load/load pairs commute by
        //   definition — the footprints are proven `Disjoint`, or overlap
        //   only same-iteration *and* one op's record feeds the other
        //   (operand-forced: they are never co-enabled in the iteration
        //   where they could alias). Store/store matters because the
        //   arbiter's intervening-store exemption makes verdicts sensitive
        //   to store arrival order.
        //
        // The dynamic half (purity + persistence + admission slack) is
        // checked per state in `try_ample`.
        let mut ample_ok = vec![false; ops.len()];
        for (p, slot) in ample_ok.iter_mut().enumerate() {
            if validated[p] {
                continue;
            }
            let mut ok = true;
            for q in 0..ops.len() {
                if q == p || ops[q].array != ops[p].array {
                    continue;
                }
                if ops[p].kind == MemOpKind::Load && ops[q].kind == MemOpKind::Load {
                    continue;
                }
                let class = classify_accesses(spec, &ops[p].index, &ops[q].index, ops[p].array);
                let operand_forced = operands[p].contains(&q) || operands[q].contains(&p);
                match class {
                    PairClass::Disjoint => {}
                    PairClass::SameIterationOnly if operand_forced => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            *slot = ok;
        }

        // What every successful interleaving must leave in RAM: the golden
        // execution of the bounded prefix, laid out at the array bases.
        let mut expected_ram = init_ram.clone();
        let (arrays, _) = golden::replay(spec, rows.len(), |_| {});
        for (layout, values) in iface.arrays.iter().zip(&arrays) {
            expected_ram[layout.base..layout.base + layout.len].copy_from_slice(values);
        }

        Ok(Model {
            spec,
            cfg: opts.config.clone(),
            fake_tokens: opts.fake_tokens,
            bound,
            // Ids stay below the edge tag bit, and the edge offsets of up
            // to `max_states + 1` expanded states, one edge per op, fit a u32.
            max_states: opts.max_states.clamp(
                1,
                (IN_PLANE as usize - 2).min(u32::MAX as usize / ops.len().max(1) - 1),
            ),
            truncated,
            por: opts.por,
            audit: opts.audit,
            ops,
            spans,
            labels,
            store_seqs,
            ports,
            bases,
            array_of_addr,
            init_ram,
            rows,
            guard_taken,
            operands,
            arbiter,
            validated,
            reduced,
            ample_ok,
            pair_stats,
            narrowed,
            expected_ram,
        })
    }

    fn initial(&self) -> McState {
        McState {
            proto: ProtocolState::new(self.cfg.depth),
            issued: vec![0; self.ops.len()],
            ram: self.init_ram.clone(),
        }
    }

    /// Keyless 64-bit fingerprint of a state, a function of exactly its
    /// canonical key ([`McState::key`]). The queue records, the issue
    /// cursors and the RAM image are each hashed term by term and summed
    /// with wrapping adds; a short splitmix64 chain then joins the three
    /// sums with the frontier, the commit cursor and the queue length. A
    /// sum is blind to order, which is what the key wants: its records are
    /// a set (`(iter, seq)` is unique per record), sorted only to make
    /// equality canonical. The terms carry no serial dependence, and
    /// nothing is sorted or allocated — this runs once per explored
    /// transition.
    fn fingerprint(&self, st: &McState) -> u64 {
        let records = st
            .proto
            .queue
            .iter()
            .fold(0u64, |sum, r| sum.wrapping_add(record_hash(r)));
        let sections = [
            records,
            cells_hash(st.issued.iter().copied()),
            cells_hash(st.ram.iter().map(|&v| v as u64)),
            st.proto.frontier,
            st.proto.next_commit,
            st.proto.queue.len() as u64,
        ];
        sections
            .iter()
            .fold(0x5157_cc1b_7272_20a5u64, |h, &w| splitmix(h ^ w))
    }

    fn is_success(&self, st: &McState) -> bool {
        // The circuit's done condition: every iteration issued, every record
        // retired, and the completion frontier passed every iteration. A
        // silently skipped guarded op (no fake token) leaves the frontier
        // behind forever — that is the §V-C deadlock even when the queue
        // happens to be empty.
        st.issued.iter().all(|&i| i >= self.bound)
            && st.proto.queue.is_empty()
            && st.proto.frontier >= self.bound
    }

    /// Deterministic housekeeping to fixpoint: frontier advance, in-order
    /// commit (writing the abstract RAM), retirement. Monotone (frontier and
    /// commit cursor only grow, records only leave) and confluent, so eager
    /// application is a sound state-space reduction.
    fn housekeeping(&self, st: &mut McState) {
        loop {
            let before = (
                st.proto.frontier,
                st.proto.next_commit,
                st.proto.queue.len(),
            );
            st.proto.advance_frontier(self.ports, u64::MAX);
            loop {
                match st.proto.commit_step(&self.store_seqs, true) {
                    CommitStep::Write { addr, value } => st.ram[addr] = value,
                    CommitStep::Fake => {}
                    CommitStep::Blocked => break,
                }
            }
            st.proto.retire(st.proto.queue.len());
            if (
                st.proto.frontier,
                st.proto.next_commit,
                st.proto.queue.len(),
            ) == before
            {
                break;
            }
        }
    }

    /// Address and premature value of the arriving real op.
    fn evaluate(&self, st: &McState, op: usize, iter: u64) -> (usize, Value) {
        let o = &self.ops[op];
        let row = &self.rows[iter as usize];
        // The operand records hold the op's nested load values in canonical
        // order, which is the order `Expr::eval` asks for them; each one is
        // read straight from its resident record.
        let mut operands = self.operands[op].clone();
        let mut load = |_, _| {
            let q = operands.next().expect("recorded operand value");
            st.proto
                .queue
                .iter()
                .find(|r| r.port == q && r.iter == iter)
                .map(|r| r.value)
                .expect("operand record resident")
        };
        match o.kind {
            MemOpKind::Load => {
                let raw = o.index.eval(row, &mut load);
                let addr = self.bases[o.array.0] + self.spec.resolve_index(o.array, raw);
                // Issue-time bypass: a resident older store to the same
                // address supplies the value when forwarding is on, or
                // unconditionally within the same iteration (program order
                // guarantees the store is what the load must observe).
                let value = match st.proto.resident_bypass(addr, (iter, o.seq)) {
                    Some((v, src)) if self.cfg.forwarding || src == iter => v,
                    _ => st.ram[addr],
                };
                (addr, value)
            }
            MemOpKind::Store => {
                let stmt = &self.spec.body[o.stmt];
                let raw = stmt.index.eval(row, &mut load);
                let value = stmt.value.eval(row, &mut load);
                let addr = self.bases[o.array.0] + self.spec.resolve_index(o.array, raw);
                (addr, value)
            }
        }
    }

    /// Fills in `ev.desc`. Transitions leave it empty: only the events of an
    /// emitted counterexample are ever read, so each one is described once,
    /// on its way out of the checker.
    fn describe(&self, mut ev: TraceEvent) -> TraceEvent {
        let TraceEvent {
            op,
            iter,
            kind,
            addr,
            value,
            squash_from,
            ..
        } = ev;
        let label = &self.labels[op];
        let place = addr.map(|a| {
            let ai = self.array_of_addr[a];
            format!("{}[{}]", self.spec.arrays[ai].name, a - self.bases[ai])
        });
        ev.desc = match kind {
            EventKind::Arrive => format!(
                "arrive {label}#{op} iter {iter}: {} = {value}",
                place.unwrap_or_default()
            ),
            EventKind::Forward => format!(
                "arrive {label}#{op} iter {iter}: {} forwarded {value} from a resident store",
                place.unwrap_or_default()
            ),
            EventKind::Fake => format!("fake token {label}#{op} iter {iter} (guard false)"),
            EventKind::Skip => format!(
                "skip {label}#{op} iter {iter} (guard false, fake tokens disabled: no token sent)"
            ),
            EventKind::Squash => format!(
                "arrive {label}#{op} iter {iter}: {} = {value} — violation, squash from iter {}",
                place.unwrap_or_default(),
                squash_from.unwrap_or(iter)
            ),
        };
        ev
    }

    /// An undescribed event (see [`Self::describe`]).
    fn event(
        &self,
        op: usize,
        iter: u64,
        kind: EventKind,
        addr: Option<usize>,
        value: Value,
        from: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            op,
            iter,
            kind,
            addr,
            value,
            squash_from: from,
            span: self.spans[op],
            desc: String::new(),
        }
    }

    /// The gate of `op` in `st`: how its next arrival happens, or why it
    /// is blocked. Cheap (no cloning, no evaluation), so expansion probes
    /// it for every op before choosing an ample transition, and it is the
    /// one enabling condition [`Self::step`] relies on.
    fn gate(&self, st: &McState, op: usize) -> Gate {
        let iter = st.issued[op];
        if iter >= self.bound {
            return Err(Blocked::Exhausted);
        }
        let arrival = if self.guard_taken[iter as usize][self.ops[op].stmt] {
            if self.operands[op].clone().any(|q| st.issued[q] <= iter) {
                return Err(Blocked::Operand);
            }
            Arrival::Real
        } else if self.fake_tokens {
            Arrival::Fake
        } else {
            // The silent skip takes no queue slot.
            return Ok(Arrival::Skip);
        };
        if st.proto.can_admit(iter, self.ports, 0) {
            Ok(arrival)
        } else {
            Err(Blocked::Admission)
        }
    }

    /// The unique transition of `op` from `st`, if enabled. The successor
    /// is written into `next`, a caller-owned scratch state whose buffers
    /// are recycled across calls ([`McState::clone_from`]); a blocked op
    /// leaves `next` untouched and allocates nothing.
    fn try_step(&self, st: &McState, op: usize, next: &mut McState) -> Result<Step, Blocked> {
        let arrival = self.gate(st, op)?;
        Ok(self.step(st, op, arrival, next))
    }

    /// Fires `op`, whose [`Self::gate`] in `st` is `Ok(arrival)`.
    fn step(&self, st: &McState, op: usize, arrival: Arrival, next: &mut McState) -> Step {
        let iter = st.issued[op];
        let o = &self.ops[op];
        let quiet = |event| Step {
            event,
            squash: false,
            reduction_escape: false,
        };
        match arrival {
            Arrival::Skip => {
                // The op sends nothing at all: the iteration can never
                // complete at the frontier (the §V-C deadlock).
                next.clone_from(st);
                next.issued[op] = iter + 1;
                return quiet(self.event(op, iter, EventKind::Skip, None, 0, None));
            }
            Arrival::Fake => {
                next.clone_from(st);
                next.proto.note_admitted(iter);
                next.proto
                    .record_arrival(PrematureRecord::fake(op, o.kind, iter, o.seq));
                next.issued[op] = iter + 1;
                self.housekeeping(next);
                return quiet(self.event(op, iter, EventKind::Fake, None, 0, None));
            }
            Arrival::Real => {}
        }
        let (addr, value) = self.evaluate(st, op, iter);
        let mut rec = PrematureRecord::real(op, o.kind, iter, o.seq, addr, value);
        let verdict = if self.validated[op] {
            self.arbiter.verdict(&st.proto.queue, &rec)
        } else {
            Verdict::Clean
        };
        next.clone_from(st);
        next.proto.note_admitted(iter);
        next.issued[op] = iter + 1;
        let mut reduction_escape = false;
        let event = match verdict {
            Verdict::Clean => {
                next.proto.record_arrival(rec);
                self.event(op, iter, EventKind::Arrive, Some(addr), value, None)
            }
            Verdict::Forward(v) => {
                rec.value = v;
                next.proto.record_arrival(rec);
                self.event(op, iter, EventKind::Forward, Some(addr), v, None)
            }
            Verdict::Squash(viol) => {
                // The §V-B reduction exempts this op from validation; a
                // squash verdict here is one the reduced set would miss.
                reduction_escape = self.cfg.pair_reduction && !self.reduced[op];
                next.proto.record_arrival(rec);
                next.proto.flush(viol.from_iter);
                for i in next.issued.iter_mut() {
                    *i = (*i).min(viol.from_iter);
                }
                self.event(
                    op,
                    iter,
                    EventKind::Squash,
                    Some(addr),
                    value,
                    Some(viol.from_iter),
                )
            }
        };
        let squash = event.kind == EventKind::Squash;
        self.housekeeping(next);
        Step {
            event,
            squash,
            reduction_escape,
        }
    }

    fn classify(&self, st: &McState, blocked: &[(usize, u64)]) -> DeadCause {
        let f = st.proto.frontier;
        if f < self.bound {
            for op in 0..self.ops.len() {
                if st.issued[op] > f && !st.proto.port_op_arrived(op, f) {
                    return DeadCause::MissingToken { op, iter: f };
                }
            }
        }
        if let Some(&(op, iter)) = blocked.first() {
            return DeadCause::Wedge { op, iter };
        }
        DeadCause::Stuck
    }

    /// Expands the next state of the current level, which has the next
    /// id. When partial-order reduction applies, the one ample successor is
    /// visited; otherwise every successor, in op order. Each op's gate is
    /// probed once, into the reused `ex.gates`. Once the state budget is
    /// spent, the rest of the state is still stepped for verdict evidence,
    /// but nothing more is visited.
    fn expand(&self, ex: &mut Exploration, st: &McState) {
        let id = ex.starts.len() as u32;
        ex.starts.push(ex.edges.len() as u32);
        let mut gates = std::mem::take(&mut ex.gates);
        gates.clear();
        gates.extend((0..self.ops.len()).map(|op| self.gate(st, op)));
        let enabled = gates.iter().filter(|g| g.is_ok()).count();
        ex.enabled += enabled as u64;
        let ample = self.por && enabled > 1 && self.try_ample(st, &gates, enabled, &mut ex.scratch);
        if ample {
            ex.transitions += 1;
            ex.visit(self, true);
        } else {
            ex.transitions += enabled as u64;
            for (op, gate) in gates.iter().enumerate() {
                let Ok(arrival) = *gate else {
                    continue;
                };
                let Step {
                    event,
                    squash,
                    reduction_escape,
                } = self.step(st, op, arrival, &mut ex.scratch);
                if reduction_escape && ex.escape.is_none() {
                    ex.escape = Some((id, event));
                }
                if ex.truncated_by_budget {
                    continue;
                }
                let in_plane = ex.scratch.proto.frontier == st.proto.frontier
                    && ex.scratch.proto.next_commit == st.proto.next_commit;
                let v = ex.visit(self, in_plane);
                if squash && in_plane {
                    ex.squashes.push((id, v));
                }
            }
            if enabled == 0 {
                if self.is_success(st) {
                    debug_assert_eq!(
                        st.ram, self.expected_ram,
                        "a completed interleaving must match the sequential semantics"
                    );
                } else if ex.deadlock.is_none() {
                    let blocked = (0..self.ops.len())
                        .filter(|&op| gates[op] == Err(Blocked::Admission))
                        .map(|op| (op, st.issued[op]))
                        .collect();
                    ex.deadlock = Some(Deadlock(id, st.clone(), blocked));
                }
            }
        }
        ex.gates = gates;
    }

    /// The dynamic half of the ample check. A statically eligible op `p`
    /// is explored alone only when its step is
    ///
    /// * **pure** — no frontier or commit progress (so no RAM write, no
    ///   retirement: the step only appends `p`'s own record), keeping it
    ///   invisible to every other op's evaluation;
    /// * **persistent** — every other enabled op stays enabled in the
    ///   successor; and
    /// * **slack-admitted** — `p` would still be admitted after every
    ///   other enabled op arrived first (the admission reservation is a
    ///   shared resource: without slack, delaying `p` behind the others
    ///   could block it and reach a wedge the reduction would hide); and
    /// * **working ahead** — `p` has already delivered its token for the
    ///   frontier iteration (`issued[p] > frontier`). A token still owed
    ///   to the frontier iteration gates frontier progress, and a PV202
    ///   livelock cycle is exactly a schedule that withholds such a token
    ///   forever: forcing it to fire would hide the cycle. Work-ahead
    ///   arrivals can never be what a no-progress cycle withholds — a
    ///   squash either flushes their record (the cycle state repeats) or
    ///   leaves it inert and disjoint.
    ///
    /// Returns whether an op qualifies; its successor is left in `scratch`.
    fn try_ample(
        &self,
        st: &McState,
        gates: &[Gate],
        enabled_count: usize,
        scratch: &mut McState,
    ) -> bool {
        for p in 0..self.ops.len() {
            let Ok(arrival) = gates[p] else {
                continue;
            };
            if !self.ample_ok[p] {
                continue;
            }
            if st.issued[p] <= st.proto.frontier {
                continue;
            }
            if !st
                .proto
                .can_admit(st.issued[p], self.ports, enabled_count - 1)
            {
                continue;
            }
            let Step {
                squash,
                reduction_escape,
                ..
            } = self.step(st, p, arrival, scratch);
            debug_assert!(
                !squash && !reduction_escape,
                "ample ops are never validated"
            );
            // Rejected candidates simply leave their successor in the
            // scratch buffer for the next probe to overwrite.
            if scratch.proto.frontier != st.proto.frontier
                || scratch.proto.next_commit != st.proto.next_commit
            {
                continue;
            }
            let persistent = (0..self.ops.len())
                .all(|q| q == p || gates[q].is_err() || self.gate(scratch, q).is_ok());
            if !persistent {
                continue;
            }
            return true;
        }
        false
    }

    /// Re-executes the id path `ids` from the initial state and returns
    /// its described events. Each step takes the first op whose successor
    /// has the next id; transitions are deterministic per op, so this
    /// regenerates exactly the events the search saw without storing any
    /// of them.
    fn events_along(&self, ex: &Exploration, ids: &[u32]) -> Vec<TraceEvent> {
        let mut st = ex.init.clone();
        let mut scratch = McState::hollow();
        let mut events = Vec::with_capacity(ids.len());
        for &to in ids.iter().skip(1) {
            let step = (0..self.ops.len()).find_map(|op| {
                let step = self.try_step(&st, op, &mut scratch).ok()?;
                (ex.visited.get(self.fingerprint(&scratch)) == Some(to)).then_some(step)
            });
            // Unreachable short of a fingerprint collision; truncate
            // deterministically rather than panic.
            let Some(Step { event, .. }) = step else {
                break;
            };
            events.push(self.describe(event));
            std::mem::swap(&mut st, &mut scratch);
        }
        events
    }

    /// The events of the trace to state `id`.
    fn trace_to(&self, ex: &Exploration, id: u32) -> Vec<TraceEvent> {
        self.events_along(ex, &ex.path(0, id, false))
    }

    /// The exhaustive level-synchronous exploration: the explored graph,
    /// the counters and the raw verdict evidence, before any trace is
    /// rebuilt. States are expanded in level order and their successors
    /// visited in op order, so every id, every edge and the truncation
    /// point are fixed.
    fn search(&self) -> Exploration {
        let mut init = self.initial();
        self.housekeeping(&mut init);
        let init_fp = self.fingerprint(&init);
        let mut ex = Exploration {
            init: init.clone(),
            visited: FpTable::new(),
            starts: Vec::new(),
            edges: Vec::new(),
            squashes: Vec::new(),
            audit: self.audit.then(HashMap::new),
            audit_collisions: 0,
            transitions: 0,
            enabled: 0,
            truncated_by_budget: false,
            deadlock: None,
            escape: None,
            next: Vec::new(),
            scratch: McState::hollow(),
            pool: Vec::new(),
            gates: Vec::new(),
        };
        ex.visited.insert(init_fp);
        if let Some(aud) = &mut ex.audit {
            aud.insert(init_fp, init.key());
        }
        let mut level = vec![init];
        while !level.is_empty() && !ex.truncated_by_budget {
            for st in level.drain(..) {
                self.expand(&mut ex, &st);
                // An expanded state retires at once, so the next level's
                // states reuse the buffers of this level's.
                ex.pool.push(st);
                if ex.truncated_by_budget {
                    break;
                }
            }
            std::mem::swap(&mut level, &mut ex.next);
        }
        // The recycled buffers are dead past the search: free them before
        // the traces and the PV202 search run.
        ex.pool = Vec::new();
        ex
    }

    fn explore(&self) -> CheckResult {
        let start = Instant::now();
        let mut ex = self.search();
        let complete = !ex.truncated_by_budget;
        let mut report = Report::default();
        let mut counterexamples = Vec::new();

        if self.truncated {
            report.push(Diagnostic::note(
                Code::ProtocolBound,
                format!(
                    "protocol checked for the first {} of {} iterations (soundness horizon; raise with --mc-depth)",
                    self.bound,
                    self.spec.iteration_count()
                ),
            ));
        }
        if let Some((first, _)) = self.narrowed.first() {
            let op = |id: usize| format!("{}#{id}", self.labels[id]);
            let pairs: Vec<String> = self
                .narrowed
                .iter()
                .map(|(p, why)| format!("{} / {}: {}", op(p.load), op(p.store), why.describe()))
                .collect();
            report.push(
                Diagnostic::note(
                    Code::ProtocolBound,
                    format!(
                        "value invariants prove {} validated pair(s) safe only within the \
                         explored bound ({} iteration(s)): the checker drops them from its \
                         validated set, the netlist still validates them",
                        pairs.len(),
                        self.bound
                    ),
                )
                .with_span(self.spans[first.load].or(self.spans[first.store]))
                .with_help(pairs.join("\n")),
            );
        }
        if !complete {
            report.push(
                Diagnostic::warning(
                    Code::ProtocolBound,
                    format!(
                        "state cap of {} reached before exhausting the space: PV201–PV204 verdicts are incomplete",
                        self.max_states
                    ),
                )
                .with_help("raise --mc-states or lower --mc-depth"),
            );
        }

        if let Some(Deadlock(id, st, blocked)) = &ex.deadlock {
            let events = self.trace_to(&ex, *id);
            let resident = st.proto.queue.len();
            let (diag, code) = match self.classify(st, blocked) {
                DeadCause::MissingToken { op, iter } => (
                    Diagnostic::error(
                        Code::ProtocolDeadlock,
                        format!(
                            "reachable protocol deadlock: iteration {iter} never completes — {}#{op} sends no token when its guard is false",
                            self.labels[op]
                        ),
                    )
                    .with_span(self.spans[op])
                    .with_help(format!(
                        "{}\n{resident} unretired record(s) wait on the frontier; enable fake tokens (§V-C) so untaken guards still drain the queue",
                        render_events(&events, None)
                    )),
                    Code::ProtocolDeadlock,
                ),
                DeadCause::Wedge { op, iter } => (
                    Diagnostic::error(
                        Code::QueueWedge,
                        format!(
                            "premature queue wedge: depth {} cannot admit {}#{op} of iteration {iter} on some interleaving",
                            self.cfg.depth, self.labels[op]
                        ),
                    )
                    .with_span(self.spans[op])
                    .with_help(format!(
                        "{}\nthe admission reservation needs free slots > outstanding older ops; depth must be at least mem-ops-per-iteration (= {}), configured depth is {}",
                        render_events(&events, None),
                        self.ports,
                        self.cfg.depth
                    )),
                    Code::QueueWedge,
                ),
                DeadCause::Stuck => (
                    Diagnostic::error(
                        Code::ProtocolDeadlock,
                        format!(
                            "reachable protocol deadlock: no transition enabled with {resident} unretired record(s)"
                        ),
                    )
                    .with_help(render_events(&events, None)),
                    Code::ProtocolDeadlock,
                ),
            };
            report.push(diag);
            counterexamples.push(Counterexample {
                code,
                events,
                cycle_from: None,
            });
        }

        let lasso = ex.livelock().map(|cycle| {
            let mut ids = ex.path(0, cycle[0], false);
            let cycle_from = ids.len() - 1;
            ids.extend(&cycle[1..]);
            (self.events_along(&ex, &ids), cycle_from)
        });
        // A trace cut short by a fingerprint collision has no squash event
        // to name.
        if let Some((events, cycle_from)) = lasso.filter(|(events, k)| k < &events.len()) {
            let squash = &events[cycle_from];
            let from = squash.squash_from.unwrap_or(squash.iter);
            report.push(
                Diagnostic::error(
                    Code::SquashLivelock,
                    format!(
                        "squash livelock: iteration {from} can be squashed and replayed forever without frontier progress (reachable cycle of {} event(s))",
                        events.len() - cycle_from
                    ),
                )
                .with_span(squash.span)
                .with_help(format!(
                    "{}\n{}",
                    render_events(&events, Some(cycle_from)),
                    if self.cfg.forwarding {
                        "forwarding is already on: this model omits the dependence predictor (DESIGN.md \u{a7}4.0), which holds a load back after its first squash; `runkernel` shows whether the shipped controller completes"
                    } else {
                        "enable forwarding (queue bypass) so replayed loads take the resident store's value instead of re-squashing"
                    }
                )),
            );
            counterexamples.push(Counterexample {
                code: Code::SquashLivelock,
                events,
                cycle_from: Some(cycle_from),
            });
        }

        if let Some((id, ev)) = ex.escape.take() {
            let mut events = self.trace_to(&ex, id);
            let (op, span) = (ev.op, ev.span);
            events.push(self.describe(ev));
            report.push(
                Diagnostic::warning(
                    Code::ReductionUnsound,
                    format!(
                        "§V-B pair reduction is unsound here: eliminated {}#{op} reaches a squash verdict its run representative cannot observe",
                        self.labels[op]
                    ),
                )
                .with_span(span)
                .with_help(format!(
                    "{}\nkeep Eq. 11–12 reduction for area estimation only; the arbiter must validate the full ambiguous set for this kernel",
                    render_events(&events, None)
                )),
            );
            counterexamples.push(Counterexample {
                code: Code::ReductionUnsound,
                events,
                cycle_from: None,
            });
        }

        let stats = CheckStats {
            states: ex.visited.len(),
            transitions: ex.transitions,
            enabled: ex.enabled,
            duration: start.elapsed(),
            truncated_by_budget: ex.truncated_by_budget,
            audit_collisions: ex.audit.as_ref().map(|_| ex.audit_collisions),
            pairs: self.pair_stats,
            validated: self.validated.iter().filter(|&&v| v).count(),
        };
        CheckResult {
            report,
            counterexamples,
            states: stats.states,
            complete,
            bound: self.bound,
            stats,
        }
    }
}

fn render_events(events: &[TraceEvent], cycle_from: Option<usize>) -> String {
    Counterexample {
        code: Code::ProtocolBound,
        events: events.to_vec(),
        cycle_from,
    }
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::components::LoopLevel;
    use prevv_ir::{ArrayDecl, ArrayId, Expr, OpaqueFn, Stmt};

    fn parse(name: &str, src: &str) -> KernelSpec {
        prevv_ir::parse::parse_kernel(name, src).expect("parses")
    }

    fn codes(r: &CheckResult) -> Vec<Code> {
        r.counterexamples.iter().map(|c| c.code).collect()
    }

    #[test]
    fn clean_unambiguous_kernel_proves_all_properties() {
        let spec = parse(
            "inc",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n",
        );
        let r = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert!(r.is_clean(), "unexpected counterexamples: {:?}", codes(&r));
        assert!(r.complete);
        assert!(r.states > 1);
    }

    #[test]
    fn raw_hazard_kernel_is_clean_with_forwarding() {
        // Paper Fig. 2(a): runtime-dependent RAW hazards between iterations.
        let spec = parse(
            "fig2a",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 1;\n  b[i] += 2;\n}\n",
        );
        let r = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert!(r.is_clean(), "unexpected counterexamples: {:?}", codes(&r));
        assert!(r.complete, "explored {} states", r.states);
    }

    #[test]
    fn pv201_missing_fake_tokens_deadlocks() {
        let spec = parse(
            "guarded",
            "int acc[4];\nfor (int i = 0; i < 8; ++i) {\n  if (i % 2 == 0) acc[0] += i;\n}\n",
        );
        let opts = ProtocolOptions {
            fake_tokens: false,
            ..ProtocolOptions::default()
        };
        let r = check(&spec, &opts).expect("checks");
        assert_eq!(r.report.with_code(Code::ProtocolDeadlock).len(), 1);
        let cex = &r.counterexamples[0];
        assert_eq!(cex.code, Code::ProtocolDeadlock);
        assert!(!cex.events.is_empty());
        assert!(cex.events.iter().any(|e| e.kind == EventKind::Skip));
        let outcome = replay(&spec, &opts, cex).expect("trace replays");
        assert!(outcome.deadlock, "trace must reach the stuck state");

        // With fake tokens the same kernel is clean.
        let ok = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert!(ok.is_clean(), "unexpected: {:?}", codes(&ok));
    }

    #[test]
    fn pv203_shallow_queue_wedges() {
        // 3 ops per iteration, depth 2: the reservation can never admit the
        // whole frontier iteration.
        let spec = parse(
            "stencil",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + a[i + 1]; }\n",
        );
        let mut opts = ProtocolOptions::default();
        opts.config.depth = 2;
        let r = check(&spec, &opts).expect("checks");
        assert_eq!(r.report.with_code(Code::QueueWedge).len(), 1);
        let cex = &r.counterexamples[0];
        assert_eq!(cex.code, Code::QueueWedge);
        assert!(
            cex.events.len() <= 25,
            "trace too long: {}",
            cex.events.len()
        );
        let outcome = replay(&spec, &opts, cex).expect("trace replays");
        assert!(outcome.deadlock && outcome.admission_blocked);

        // Depth >= ops/iter admits the frontier iteration: no wedge.
        opts.config.depth = 3;
        let ok = check(&spec, &opts).expect("checks");
        assert!(ok.report.with_code(Code::QueueWedge).is_empty());
    }

    #[test]
    fn pv202_squash_livelock_without_forwarding() {
        // A loop-carried accumulation plus an independent statement that
        // keeps iterations incomplete: with forwarding off, the replayed
        // load re-reads stale RAM and re-squashes forever.
        let spec = parse(
            "livelock",
            "int a[4];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[0] += 1;\n  b[i] += 2;\n}\n",
        );
        let mut opts = ProtocolOptions::default();
        opts.config.forwarding = false;
        let r = check(&spec, &opts).expect("checks");
        let pv202 = r.report.with_code(Code::SquashLivelock);
        assert_eq!(pv202.len(), 1);
        let help = pv202[0].help.as_deref().expect("fix-it");
        assert!(help.contains("enable forwarding (queue bypass)"), "{help}");
        let cex = r
            .counterexamples
            .iter()
            .find(|c| c.code == Code::SquashLivelock)
            .expect("livelock counterexample");
        let k = cex.cycle_from.expect("cycle marker");
        assert!(cex.events.len() <= 25);
        assert!(cex.events[k..].iter().any(|e| e.kind == EventKind::Squash));
        let outcome = replay(&spec, &opts, cex).expect("trace replays");
        assert!(outcome.cycle_closed, "the livelock cycle must close");

        // Forwarding (queue bypass) converges the replay: clean.
        let ok = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert!(ok.is_clean(), "unexpected: {:?}", codes(&ok));
    }

    #[test]
    fn pv204_reduction_escape_on_eliminated_store() {
        // Two consecutive ambiguous stores to `a`: Eq. 11-12 keeps the
        // last as representative. An opaque-indexed load later in program
        // order can be flagged by the *eliminated* first store. The opaque
        // modulus is 2 so the load's value footprint covers both store
        // addresses — a modulus of 1 would pin the index to 0 and the
        // invariant discharge would (correctly) retire the store-to-1 pair,
        // dissolving the run the reduction eliminates from.
        let a = ArrayId(0);
        let b = ArrayId(1);
        let spec = KernelSpec::new(
            "reduced",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 4), ArrayDecl::zeroed("b", 8)],
            vec![
                Stmt::store(a, Expr::lit(0), Expr::lit(5)),
                Stmt::store(a, Expr::lit(1), Expr::lit(7)),
                Stmt::store(
                    b,
                    Expr::var(0),
                    Expr::load(a, Expr::var(0).opaque(OpaqueFn::new(3, 2))),
                ),
            ],
        )
        .expect("valid");
        let r = check(&spec, &ProtocolOptions::default()).expect("checks");
        let escapes = r.report.with_code(Code::ReductionUnsound);
        assert_eq!(escapes.len(), 1, "diagnostics: {:?}", r.report.diagnostics);
        let cex = r
            .counterexamples
            .iter()
            .find(|c| c.code == Code::ReductionUnsound)
            .expect("PV204 counterexample");
        assert!(matches!(cex.events.last(), Some(e) if e.kind == EventKind::Squash));
        let outcome = replay(&spec, &ProtocolOptions::default(), cex).expect("replays");
        assert!(outcome.reduction_escape);
        assert!(!(outcome.deadlock || outcome.admission_blocked || outcome.cycle_closed));
        // With pair reduction disabled the finding disappears.
        let mut opts = ProtocolOptions::default();
        opts.config.pair_reduction = false;
        let off = check(&spec, &opts).expect("checks");
        assert!(off.report.with_code(Code::ReductionUnsound).is_empty());
    }

    #[test]
    fn bounded_runs_note_the_horizon() {
        let spec = parse(
            "long",
            "int a[4];\nfor (int i = 0; i < 64; ++i) { a[i] += 1; }\n",
        );
        let r = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert_eq!(r.bound, DEFAULT_ITERATION_BOUND);
        // One note for the horizon, one for the `a` pair that value
        // invariants prove safe only within it (the index wraps past it).
        let notes = r.report.with_code(Code::ProtocolBound);
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes
            .iter()
            .any(|d| d.message.contains("1 validated pair(s) safe only within")));
        assert!(r.is_clean());
    }

    // --- the scalable engine ------------------------------------------------

    #[test]
    fn reduction_agrees_with_full_exploration() {
        // POR must not change any verdict, on clean and violating kernels
        // alike — and must not explore more states than the full graph.
        let cases: Vec<(KernelSpec, ProtocolOptions)> = vec![
            (
                parse(
                    "fig2a",
                    "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 1;\n  b[i] += 2;\n}\n",
                ),
                ProtocolOptions::default(),
            ),
            (
                parse(
                    "livelock",
                    "int a[4];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[0] += 1;\n  b[i] += 2;\n}\n",
                ),
                {
                    let mut o = ProtocolOptions::default();
                    o.config.forwarding = false;
                    o
                },
            ),
            (
                parse(
                    "stencil",
                    "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + a[i + 1]; }\n",
                ),
                {
                    let mut o = ProtocolOptions::default();
                    o.config.depth = 2;
                    o
                },
            ),
        ];
        for (spec, opts) in cases {
            let por = check(&spec, &opts).expect("checks");
            let full = check(
                &spec,
                &ProtocolOptions {
                    por: false,
                    ..opts.clone()
                },
            )
            .expect("checks");
            let codes_of = |r: &CheckResult| {
                let mut c: Vec<Code> = r.counterexamples.iter().map(|c| c.code).collect();
                c.sort_by_key(|c| c.as_str().to_string());
                c
            };
            assert_eq!(
                codes_of(&por),
                codes_of(&full),
                "{}: reduced and full verdicts diverge",
                spec.name
            );
            assert!(
                por.states <= full.states,
                "{}: reduction explored more states ({} > {})",
                spec.name,
                por.states,
                full.states
            );
        }
    }

    #[test]
    fn reduction_actually_shrinks_the_graph() {
        // A kernel with provably independent streams is where the ample
        // rule bites: the reduced graph must be strictly smaller.
        let spec = parse(
            "streams",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[i] += 1;\n  b[i] += 2;\n}\n",
        );
        let por = check(&spec, &ProtocolOptions::default()).expect("checks");
        let full = check(
            &spec,
            &ProtocolOptions {
                por: false,
                ..ProtocolOptions::default()
            },
        )
        .expect("checks");
        assert!(por.is_clean() && full.is_clean());
        assert!(
            por.states < full.states,
            "reduction did not shrink: {} vs {}",
            por.states,
            full.states
        );
        assert!(por.stats.reduction_ratio() < 1.0);
    }

    #[test]
    fn audit_mode_sees_no_collisions() {
        let spec = parse(
            "fig2a",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 1;\n  b[i] += 2;\n}\n",
        );
        let r = check(
            &spec,
            &ProtocolOptions {
                audit: true,
                ..ProtocolOptions::default()
            },
        )
        .expect("checks");
        assert_eq!(r.stats.audit_collisions, Some(0));
        let off = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert_eq!(off.stats.audit_collisions, None);
    }

    #[test]
    fn stats_expose_discharge_and_throughput() {
        let spec = parse(
            "fig2a",
            "int a[16];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 5;\n  b[i] += 3;\n}\n",
        );
        let r = check(&spec, &ProtocolOptions::default()).expect("checks");
        assert_eq!(r.stats.pairs.conservative, 4);
        assert_eq!(r.stats.pairs.discharged, 3, "the three affine b pairs");
        assert_eq!(r.stats.pairs.residual, 1);
        assert!(r.stats.validated < 2 * r.stats.pairs.conservative);
        assert!(r.stats.transitions <= r.stats.enabled);
        assert_eq!(r.stats.states, r.states);
        assert!(r.stats.states_per_sec() > 0.0);
        assert!(!r.stats.truncated_by_budget);
    }

    #[test]
    fn budget_truncation_is_reported_distinctly() {
        let spec = parse(
            "fig2a",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 1;\n  b[i] += 2;\n}\n",
        );
        let r = check(
            &spec,
            &ProtocolOptions {
                max_states: 100,
                ..ProtocolOptions::default()
            },
        )
        .expect("checks");
        assert!(!r.complete);
        assert!(r.stats.truncated_by_budget);
        assert_eq!(
            r.report.with_code(Code::ProtocolBound).len(),
            2,
            "horizon note + budget warning"
        );
        // The search stops right after the state that overran the cap.
        // Every transition and enabled arrival of the last expanded state
        // still counts, so the pins fix both the level order and the
        // cut-off inside the state.
        for (cap, pin) in [(100, (101, 156, 226)), (500, (501, 1_240, 1_619))] {
            let r = check(
                &spec,
                &ProtocolOptions {
                    max_states: cap,
                    ..ProtocolOptions::default()
                },
            )
            .expect("checks");
            assert_eq!(
                (r.states, r.stats.transitions, r.stats.enabled),
                pin,
                "max_states {cap}"
            );
        }
    }

    #[test]
    fn fingerprint_table_inserts_and_backtracks() {
        let mut t = FpTable::new();
        assert_eq!(t.insert(42), (0, true));
        assert_eq!(
            t.insert(42),
            (0, false),
            "duplicate fingerprints are merged"
        );
        for fp in 1..=3000u64 {
            t.insert(fp.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        }
        assert_eq!(t.len(), 3001, "ids are insertion order across growth");
        assert_eq!(t.get(42), Some(0));
        assert_eq!(t.get(0x9E37_79B9_7F4A_7C15 | 1), Some(1));
        assert_eq!(t.get(0x0dd0_0000_0000_0000), None);

        // Every explored state's trace, rebuilt from the stored edges,
        // re-executes to exactly that state.
        let spec = parse(
            "fig2a",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 1;\n  b[i] += 2;\n}\n",
        );
        let model = Model::build(&spec, &ProtocolOptions::default()).expect("model builds");
        let ex = model.search();
        assert_eq!(
            ex.starts.len(),
            ex.visited.len(),
            "a complete search expands every state"
        );
        for id in (0..ex.visited.len() as u32).step_by(7) {
            let ids = ex.path(0, id, false);
            assert_eq!(ids.first(), Some(&0));
            assert_eq!(
                model.events_along(&ex, &ids).len(),
                ids.len() - 1,
                "state {id}"
            );
        }
    }

    #[test]
    fn fingerprint_is_order_free_and_reads_every_key_field() {
        let spec = parse(
            "streams",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[i] += 1;\n  b[i] += 2;\n}\n",
        );
        let model = Model::build(&spec, &ProtocolOptions::default()).expect("model builds");
        let mut init = model.initial();
        model.housekeeping(&mut init);
        // Ops: 0 load a, 1 store a, 2 load b, 3 store b.
        let run = |ops: &[usize]| {
            let mut st = init.clone();
            let mut next = McState::hollow();
            for &op in ops {
                model.try_step(&st, op, &mut next).expect("enabled");
                std::mem::swap(&mut st, &mut next);
            }
            st
        };
        let ports = |st: &McState| st.proto.queue.iter().map(|r| r.port).collect::<Vec<_>>();

        // The same independent arrivals in two orders: one key, one
        // fingerprint, although the queues hold the records in different
        // physical orders.
        let (ab, ba) = (run(&[0, 1, 2]), run(&[2, 0, 1]));
        assert_ne!(ports(&ab), ports(&ba));
        assert!(ab.key() == ba.key());
        assert_eq!(model.fingerprint(&ab), model.fingerprint(&ba));

        // Counters outside the key do not enter the fingerprint.
        let mut counted = ab.clone();
        counted.proto.arrived.bump(3);
        counted.proto.admitted.bump(3);
        assert_eq!(model.fingerprint(&counted), model.fingerprint(&ab));

        // Any one change to the key does.
        let base = model.fingerprint(&ab);
        fn store(st: &mut McState) -> &mut PrematureRecord {
            st.proto
                .queue
                .iter_mut()
                .find(|r| r.kind == MemOpKind::Store)
                .expect("resident store")
        }
        type Change = (&'static str, fn(&mut McState));
        let changes: [Change; 6] = [
            ("committed", |st| store(st).committed ^= true),
            ("value", |st| store(st).value += 1),
            ("ram", |st| st.ram[3] += 1),
            ("issued", |st| st.issued[3] += 1),
            ("frontier", |st| st.proto.frontier += 1),
            ("next_commit", |st| st.proto.next_commit += 1),
        ];
        for (what, change) in changes {
            let mut st = ab.clone();
            change(&mut st);
            assert!(st.key() != ab.key(), "{what} is part of the key");
            assert_ne!(
                model.fingerprint(&st),
                base,
                "{what} must change the fingerprint"
            );
        }
    }

    // --- the SCC livelock search against the per-candidate reference ------

    /// The state of `id`, re-executed along its trace.
    fn state_of(model: &Model, ex: &Exploration, id: u32) -> McState {
        let mut st = ex.init.clone();
        let mut scratch = McState::hollow();
        for ev in model.events_along(ex, &ex.path(0, id, false)) {
            model
                .try_step(&st, ev.op, &mut scratch)
                .expect("trace replays");
            std::mem::swap(&mut st, &mut scratch);
        }
        st
    }

    /// The reference PV202 verdict: a fresh plane-confined BFS per in-plane
    /// squash edge `u -> v` of the exploration, over every successor (no
    /// reduction) and with no budget, asking whether `v` reaches `u`.
    fn reference_livelock(model: &Model, ex: &Exploration) -> bool {
        ex.squashes.iter().any(|&(u, v)| {
            let (u, v) = (state_of(model, ex, u), state_of(model, ex, v));
            let target = u.key();
            let plane = (u.proto.frontier, u.proto.next_commit);
            let mut seen: HashSet<StateKey> = HashSet::from([v.key()]);
            let mut queue = VecDeque::from([v]);
            let mut scratch = McState::hollow();
            while let Some(st) = queue.pop_front() {
                if st.key() == target {
                    return true;
                }
                for op in 0..model.ops.len() {
                    if model.try_step(&st, op, &mut scratch).is_ok()
                        && (scratch.proto.frontier, scratch.proto.next_commit) == plane
                        && seen.insert(scratch.key())
                    {
                        queue.push_back(std::mem::replace(&mut scratch, McState::hollow()));
                    }
                }
            }
            false
        })
    }

    /// Checks `spec`, asserts that a PV202 lasso replays with its cycle
    /// closed, and returns whether there was one.
    fn livelock_replays(spec: &KernelSpec, opts: &ProtocolOptions, what: &str) -> bool {
        let r = check(spec, opts).expect("checks");
        let lasso = r
            .counterexamples
            .iter()
            .find(|c| c.code == Code::SquashLivelock);
        if let Some(cex) = lasso {
            let outcome = replay(spec, opts, cex).expect("lasso replays");
            assert!(outcome.cycle_closed, "{what}: the lasso must close");
        }
        lasso.is_some()
    }

    /// Asserts that the SCC search and the per-candidate reference agree
    /// on one exploration, and that a reported lasso replays closed.
    /// Returns whether a livelock was found.
    fn livelock_searches_agree(spec: &KernelSpec, opts: &ProtocolOptions, what: &str) -> bool {
        let model = Model::build(spec, opts).expect("model builds");
        let ex = model.search();
        let found = ex.livelock().is_some();
        assert_eq!(
            found,
            reference_livelock(&model, &ex),
            "{what}: the SCC and per-candidate PV202 searches disagree"
        );
        assert_eq!(livelock_replays(spec, opts, what), found, "{what}");
        found
    }

    fn repo_file(rel: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel)
    }

    fn parse_file(path: &std::path::Path) -> KernelSpec {
        let src = std::fs::read_to_string(path).expect("readable kernel");
        let name = path.file_stem().expect("stem").to_string_lossy();
        parse(&name, &src)
    }

    #[test]
    fn scc_livelock_matches_per_candidate_search_on_fixtures() {
        let mut found = 0;
        for fixture in ["replay_livelock", "deep_wedge"] {
            let spec = parse_file(&repo_file(&format!("kernels/bad/{fixture}.pvk")));
            for iterations in 2..=4 {
                for forwarding in [false, true] {
                    let mut opts = ProtocolOptions {
                        iterations,
                        ..ProtocolOptions::default()
                    };
                    opts.config.forwarding = forwarding;
                    let what = format!("{fixture} horizon {iterations} forwarding {forwarding}");
                    found += usize::from(livelock_searches_agree(&spec, &opts, &what));
                }
            }
        }
        // replay_livelock at every horizon, deep_wedge from horizon 3 on,
        // both only with forwarding off.
        assert_eq!(found, 5);
    }

    #[test]
    fn scc_livelock_agrees_with_unreduced_search_on_the_corpus() {
        let mut paths: Vec<_> = std::fs::read_dir(repo_file("tests/fuzz_corpus"))
            .expect("corpus directory")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "pvk"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 33);
        let mut opts = ProtocolOptions::default();
        opts.config.depth = 16;
        let full = ProtocolOptions {
            por: false,
            ..opts.clone()
        };
        let found: Vec<String> = paths
            .iter()
            .filter(|p| {
                let (spec, what) = (parse_file(p), p.display().to_string());
                let reduced = livelock_replays(&spec, &opts, &what);
                assert_eq!(
                    reduced,
                    livelock_replays(&spec, &full, &what),
                    "{what}: POR changes PV202"
                );
                reduced
            })
            .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
            .collect();
        assert_eq!(found, ["gen_22", "gen_29"], "the pinned PV202 kernels");
        // Forwarding is on, so the fix-it names the model's missing
        // predictor instead of asking for forwarding.
        let r = check(
            &parse_file(&repo_file("tests/fuzz_corpus/gen_29.pvk")),
            &opts,
        )
        .expect("checks");
        let help = r.report.with_code(Code::SquashLivelock)[0].help.clone();
        assert!(help.expect("fix-it").contains("forwarding is already on"));
    }

    #[test]
    fn livelock_search_is_exact_where_the_candidate_cap_bit() {
        use prevv_kernels::gen::{generate, GenConfig};
        // gen_27 at depth 16 meets 482 in-plane squash edges, of which the
        // capped search examined 64: the SCC search settles all of them.
        let mut opts = ProtocolOptions::default();
        opts.config.depth = 16;
        let r = check(
            &parse_file(&repo_file("tests/fuzz_corpus/gen_27.pvk")),
            &opts,
        )
        .expect("checks");
        assert!(r.is_clean() && r.complete);
        let warnings: Vec<_> = r
            .report
            .with_code(Code::ProtocolBound)
            .into_iter()
            .filter(|d| d.severity == crate::diag::Severity::Warning)
            .collect();
        assert!(warnings.is_empty(), "{warnings:?}");

        // A livelock the capped search missed (it examined 64 of 192
        // candidates), with and without partial-order reduction.
        let spec = generate(0xb59208e68342105f, &GenConfig::default());
        for por in [true, false] {
            let opts = ProtocolOptions {
                por,
                ..ProtocolOptions::default()
            };
            assert!(
                livelock_replays(&spec, &opts, &spec.name),
                "por {por}: PV202 expected"
            );
        }
    }

    #[test]
    fn scc_livelock_matches_per_candidate_search_on_generated_kernels() {
        use prevv_kernels::gen::{generate, GenConfig};
        let mut found = 0;
        for seed in 0..64u64 {
            let spec = generate(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                &GenConfig::default(),
            );
            let mut opts = ProtocolOptions {
                iterations: 3,
                ..ProtocolOptions::default()
            };
            opts.config.forwarding = false;
            found += usize::from(livelock_searches_agree(&spec, &opts, &spec.name));
        }
        assert!(found >= 8, "only {found} of 64 kernels livelock");
    }
}
