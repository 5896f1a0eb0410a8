//! PV4xx static throughput analysis: cycle-ratio bounds, critical-cycle
//! diagnosis, and buffer/queue sizing recommendations over the elastic
//! netlist.
//!
//! The synthesized [`Netlist`] is modeled as a **timed marked graph**: every
//! component contributes a forward edge weighted with its pipeline latency
//! ([`Component::latency`](prevv_dataflow::Component::latency)) carrying its
//! current occupancy as initial tokens, and a backward edge carrying its
//! free elastic slots
//! ([`Component::capacity`](prevv_dataflow::Component::capacity)); channels
//! contribute zero-weight handshake edges in both directions. The
//! steady-state initiation interval of such a graph is its **maximum cycle
//! ratio** — `max over cycles of (total latency / total tokens)` — which
//! `MarkedGraph::max_cycle_ratio` computes exactly by iterated
//! Bellman–Ford positive-cycle extraction (Lawler/Howard hybrid: each
//! extracted cycle's ratio becomes the next λ; λ increases through the
//! finite set of simple-cycle ratios and therefore terminates).
//!
//! The memory controller deliberately does **not** appear as a
//! store-to-load edge in the graph: premature value validation is exactly
//! the architectural claim that loads return without waiting for older
//! stores, so the store queue's serialization re-enters the model only as
//! analytic per-cycle budgets (read/write ports, arbiter validations,
//! retirements) and — for the *predicted* interval, not the sound bound —
//! as the RAW-forwarding recurrence and premature-queue residency terms.
//! The predicted interval's memory-traffic terms (RAM round-trips, store
//! commits, estimated squashes) come from replaying the kernel's accesses
//! through the golden interpreter ([`golden::replay`]) — the sequential
//! semantics the simulator is checked against, not a copy of it.
//! See DESIGN.md ("Timed marked graph") for the soundness argument and its
//! caveats.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | PV400 | note     | steady-state II bound + binding resource (+ critical cycle) |
//! | PV401 | warning  | zero-slack backpressure cycle; buffer insertion suggested |
//! | PV402 | warning  | premature-queue/arbiter serialization binds; §V-A depth suggested |
//! | PV403 | warning  | measured II diverged from the static prediction |
//!
//! The *sound* bound `ii_bound` only accumulates terms no execution can
//! beat: the cycle ratio, RAM reads that provably cannot be forwarded,
//! exact guard-density-weighted store commits, and arrival/retire budgets.
//! The *predicted* interval adds average-case terms (forwarding
//! turnaround, queue residency, squash replay) calibrated against the
//! stock kernels; `tests/perf_soundness.rs` property-checks
//! `ii_bound <= measured II` on randomized kernels.

use std::collections::HashSet;

use prevv_core::PrevvConfig;
use prevv_dataflow::Netlist;
use prevv_ir::depend::{VerdictClass, ENUM_LIMIT};
use prevv_ir::{golden, ArrayId, Expr, KernelSpec, MemOpKind, SynthesizedKernel};

use crate::diag::{json_string, Code, Diagnostic, Report, Suggestion};

/// Cycles from a store's value arriving at the controller to a dependent
/// load taking it through the premature-queue bypass — the forwarding
/// turnaround of the RAW recurrence term (calibrated against the stock
/// kernels; see DESIGN.md).
const FORWARD_TURNAROUND: f64 = 2.5;

/// Average cycles an operation stays resident in the premature queue
/// (arrival to in-order retirement) — the numerator of the queue-depth
/// serialization term.
const QUEUE_RESIDENCY: f64 = 6.0;

/// Fixed pipeline ramp overhead added to the longest-path fill latency.
const FILL_OVERHEAD: f64 = 4.0;

/// Predicted cycles lost per squash (flush + refill of the frontier).
const SQUASH_PENALTY: f64 = 8.0;

/// Arrival skew, in iterations, between a load and the older stores it
/// races: a store this close has typically not arrived when the load
/// issues, so a matching address squashes once before the dependence
/// predictor learns it.
const SQUASH_SKEW_ITERS: u64 = 1;

/// Steady-state II above which the arrival skew vanishes: when each
/// iteration already takes this long, the previous iteration's store has
/// arrived (and validated) before the next load issues, so adjacent-
/// iteration collisions forward instead of squashing.
const SQUASH_II_CUTOFF: f64 = 2.0;

/// Relative divergence between predicted and measured cycles above which
/// [`check_measured`] raises PV403.
const DIVERGENCE_TOLERANCE: f64 = 0.25;

const EPS: f64 = 1e-9;

/// Options of the PV4xx pass: the controller configuration whose port and
/// queue budgets the model uses.
#[derive(Debug, Clone, Default)]
pub struct PerfOptions {
    /// Controller configuration (queue depth, port counts, budgets).
    pub config: PrevvConfig,
}

/// The static throughput verdict for one synthesized kernel.
#[derive(Debug, Clone)]
pub struct PerfSummary {
    /// Sound lower bound on the steady-state initiation interval: no
    /// execution of this circuit completes iterations faster.
    pub ii_bound: f64,
    /// Calibrated average-case prediction (`>= ii_bound`), including
    /// forwarding turnaround, queue residency, and squash terms.
    pub predicted_ii: f64,
    /// Predicted total cycles: `predicted_ii * iterations + fill + squash`
    /// (0 when the kernel issues no iteration).
    pub predicted_cycles: f64,
    /// Which term sets [`Self::ii_bound`]: `compute_cycle`, `read_ports`,
    /// `write_ports`, `validation`, or `retire`.
    pub binding_resource: String,
    /// The critical circuit cycle, component by component, when
    /// `compute_cycle` binds (empty otherwise).
    pub critical_cycle: Vec<String>,
    /// §V-A queue depth that moves a queue-bound kernel back to its
    /// datapath bound (`None` when the queue does not bind). Capped by
    /// [`Self::occupancy_bound`]: depth beyond what the whole run can
    /// enqueue is dead area, however matched the pair model wants it.
    pub recommended_depth: Option<usize>,
    /// Static occupancy bound from the value analysis: the whole run
    /// admits at most this many records (`None` when unbounded or the
    /// kernel has no memory ops).
    pub occupancy_bound: Option<u64>,
    /// Iterations the kernel issues (denominator for measured II).
    pub iterations: usize,
}

impl PerfSummary {
    /// Measured initiation interval for a run of `cycles` cycles.
    pub fn measured_ii(&self, cycles: u64) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            cycles as f64 / self.iterations as f64
        }
    }

    /// Machine-readable JSON object (for the `prevv-lint` summary).
    pub fn to_json(&self) -> String {
        let cycle = self
            .critical_cycle
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(",");
        let depth = self
            .recommended_depth
            .map_or("null".to_string(), |d| d.to_string());
        let occupancy = self
            .occupancy_bound
            .map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"ii_bound\":{:.3},\"predicted_ii\":{:.3},\"predicted_cycles\":{:.0},\
             \"binding_resource\":{},\"critical_cycle\":[{}],\"recommended_depth\":{},\
             \"occupancy_bound\":{}}}",
            self.ii_bound,
            self.predicted_ii,
            self.predicted_cycles,
            json_string(&self.binding_resource),
            cycle,
            depth,
            occupancy,
        )
    }
}

// ---------------------------------------------------------------------------
// The timed marked graph
// ---------------------------------------------------------------------------

/// Where a marked-graph edge came from, for diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// Component-internal forward edge (pipeline latency, occupancy tokens).
    Stage(usize),
    /// Component-internal backward edge (free elastic slots).
    StageBack(usize),
    /// Channel forward edge producer → consumer.
    ChannelFwd(usize),
    /// Channel backward (handshake/ready) edge consumer → producer.
    ChannelBack(usize),
}

#[derive(Debug, Clone)]
struct MgEdge {
    from: usize,
    to: usize,
    delay: f64,
    tokens: f64,
    kind: EdgeKind,
}

/// One node of the graph before splitting: a pipeline stage.
#[derive(Debug, Clone)]
struct Stage {
    name: String,
    latency: f64,
    capacity: f64,
    occupancy: f64,
    /// Elastic slots the stage offers *per input channel* before it
    /// backpressures the producer — the premature queue's admission slack
    /// for the virtual controller stages (0 for ordinary components, whose
    /// slack lives on their internal capacity edge).
    input_slack: f64,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

/// The timed marked graph: stages split into in/out nodes (`2i` / `2i+1`)
/// joined by latency/capacity edges, with zero-weight channel edges both
/// ways.
#[derive(Debug, Clone, Default)]
struct MarkedGraph {
    stages: Vec<Stage>,
    /// `(producer label, consumer label)` per channel, first pair wins —
    /// used to phrase the PV401 buffer suggestion.
    chan_desc: Vec<Option<(String, String)>>,
    edges: Vec<MgEdge>,
}

/// The outcome of the cycle-ratio computation.
#[derive(Debug, Clone)]
struct CycleRatio {
    /// `max(1, max cycle ratio)`; infinite for a token-free delay cycle.
    ratio: f64,
    /// Edge indices of the critical cycle (empty when no cycle exceeds 1).
    cycle: Vec<usize>,
}

impl MarkedGraph {
    fn from_netlist(net: &Netlist) -> Self {
        let mut g = MarkedGraph {
            chan_desc: vec![None; net.channel_count()],
            ..MarkedGraph::default()
        };
        for (node, _, comp) in net.iter() {
            let ports = comp.ports();
            g.add_stage(
                net.display_name(node),
                comp.latency() as f64,
                comp.capacity() as f64,
                comp.occupancy() as f64,
                0.0,
                ports.inputs.iter().map(|c| c.index()).collect(),
                ports.outputs.iter().map(|c| c.index()).collect(),
            );
        }
        // Channel wiring is deferred to `build_edges`, which only connects
        // channels with both endpoints present — open memory-port channels
        // stay dangling until the virtual controller stages close them.
        g
    }

    #[allow(clippy::too_many_arguments)]
    fn add_stage(
        &mut self,
        name: String,
        latency: f64,
        capacity: f64,
        occupancy: f64,
        input_slack: f64,
        inputs: Vec<usize>,
        outputs: Vec<usize>,
    ) {
        let max_ch = inputs.iter().chain(&outputs).copied().max();
        if let Some(m) = max_ch {
            if m >= self.chan_desc.len() {
                self.chan_desc.resize(m + 1, None);
            }
        }
        self.stages.push(Stage {
            name,
            latency,
            capacity,
            occupancy,
            input_slack,
            inputs,
            outputs,
        });
    }

    fn node_count(&self) -> usize {
        2 * self.stages.len()
    }

    /// Materializes the edge list from the stage/channel structure.
    fn build_edges(&mut self) {
        self.edges.clear();
        let nch = self.chan_desc.len();
        let mut producers: Vec<Vec<usize>> = vec![Vec::new(); nch];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nch];
        for (i, s) in self.stages.iter().enumerate() {
            for &ch in &s.outputs {
                producers[ch].push(i);
            }
            for &ch in &s.inputs {
                consumers[ch].push(i);
            }
            self.edges.push(MgEdge {
                from: 2 * i,
                to: 2 * i + 1,
                delay: s.latency,
                tokens: s.occupancy,
                kind: EdgeKind::Stage(i),
            });
            self.edges.push(MgEdge {
                from: 2 * i + 1,
                to: 2 * i,
                delay: 0.0,
                tokens: (s.capacity - s.occupancy).max(0.0),
                kind: EdgeKind::StageBack(i),
            });
        }
        for ch in 0..nch {
            for &p in &producers[ch] {
                for &c in &consumers[ch] {
                    if self.chan_desc[ch].is_none() {
                        self.chan_desc[ch] =
                            Some((self.stages[p].name.clone(), self.stages[c].name.clone()));
                    }
                    self.edges.push(MgEdge {
                        from: 2 * p + 1,
                        to: 2 * c,
                        delay: 0.0,
                        tokens: 0.0,
                        kind: EdgeKind::ChannelFwd(ch),
                    });
                    self.edges.push(MgEdge {
                        from: 2 * c,
                        to: 2 * p + 1,
                        delay: 0.0,
                        tokens: self.stages[c].input_slack,
                        kind: EdgeKind::ChannelBack(ch),
                    });
                }
            }
        }
    }

    /// One Bellman–Ford longest-path sweep with edge weight
    /// `delay − λ·tokens`; returns a positive cycle's edge indices if one
    /// exists (its ratio then strictly exceeds λ, or is infinite).
    fn positive_cycle(&self, lambda: f64) -> Option<Vec<usize>> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let mut dist = vec![0.0f64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut last_updated = None;
        for _pass in 0..=n {
            last_updated = None;
            for (ei, e) in self.edges.iter().enumerate() {
                let w = e.delay - lambda * e.tokens;
                if dist[e.from] + w > dist[e.to] + 1e-7 {
                    dist[e.to] = dist[e.from] + w;
                    pred[e.to] = Some(ei);
                    last_updated = Some(e.to);
                }
            }
            last_updated?;
        }
        // Still relaxing after n passes: walk predecessors n steps to land
        // inside the positive cycle, then collect it.
        let mut v = last_updated.expect("loop exited with an update");
        for _ in 0..n {
            v = self.edges[pred[v].expect("updated nodes have predecessors")].from;
        }
        let start = v;
        let mut cycle = Vec::new();
        loop {
            let ei = pred[v].expect("cycle nodes have predecessors");
            cycle.push(ei);
            v = self.edges[ei].from;
            if v == start {
                break;
            }
        }
        cycle.reverse();
        Some(cycle)
    }

    /// Maximum cycle ratio, clamped to at least 1 (the iteration source
    /// issues at most one row per cycle, so II below 1 is meaningless).
    fn max_cycle_ratio(&self) -> CycleRatio {
        let mut ratio = 1.0f64;
        let mut critical = Vec::new();
        for _ in 0..64 {
            let Some(cycle) = self.positive_cycle(ratio + 1e-6) else {
                break;
            };
            let delay: f64 = cycle.iter().map(|&e| self.edges[e].delay).sum();
            let tokens: f64 = cycle.iter().map(|&e| self.edges[e].tokens).sum();
            if tokens <= EPS {
                return CycleRatio {
                    ratio: f64::INFINITY,
                    cycle,
                };
            }
            let r = delay / tokens;
            if r <= ratio + EPS {
                break;
            }
            ratio = r;
            critical = cycle;
        }
        CycleRatio {
            ratio,
            cycle: critical,
        }
    }

    /// Stage names along a cycle, deduplicated in traversal order.
    fn cycle_labels(&self, cycle: &[usize]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for &ei in cycle {
            let stage = match self.edges[ei].kind {
                EdgeKind::Stage(i) | EdgeKind::StageBack(i) => Some(i),
                _ => None,
            };
            if let Some(i) = stage {
                let name = &self.stages[i].name;
                if out.last().map(String::as_str) != Some(name.as_str()) {
                    out.push(name.clone());
                }
            }
        }
        if out.len() > 1 && out.first() == out.last() {
            out.pop();
        }
        out
    }

    /// The first backward channel edge on a cycle — the handshake hop where
    /// one extra elastic buffer directly adds cycle tokens.
    fn cycle_slack_channel(&self, cycle: &[usize]) -> Option<(usize, &(String, String))> {
        cycle.iter().find_map(|&ei| match self.edges[ei].kind {
            EdgeKind::ChannelBack(ch) => self.chan_desc[ch].as_ref().map(|d| (ch, d)),
            _ => None,
        })
    }

    /// Longest forward-path latency (pipeline fill time), by topological
    /// longest path over the forward edges. Nodes inside forward cycles
    /// (loop-control feedback) never reach in-degree zero and are simply
    /// excluded — fill only needs the acyclic spine.
    fn longest_fill_path(&self) -> f64 {
        let n = self.node_count();
        let fwd = |e: &MgEdge| !matches!(e.kind, EdgeKind::StageBack(_) | EdgeKind::ChannelBack(_));
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for e in self.edges.iter().filter(|e| fwd(e)) {
            indeg[e.to] += 1;
            out[e.from].push((e.to, e.delay));
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut dist = vec![0.0f64; n];
        let mut best = 0.0f64;
        while let Some(v) = queue.pop() {
            best = best.max(dist[v]);
            for &(to, delay) in &out[v] {
                dist[to] = dist[to].max(dist[v] + delay);
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        best
    }
}

/// Builds the marked graph of a synthesized kernel with the controller
/// modeled per the PreVV architecture: each load port becomes a pipeline
/// stage (RAM round-trip latency, queue-deep elastic slack) from its
/// address channel to its data channel, and every store/fake/alloc channel
/// drains into a non-blocking retire stage. Crucially there is **no**
/// store→load edge: premature value validation removes that serialization
/// from the circuit, which is the paper's core claim.
fn controller_graph(synth: &SynthesizedKernel, cfg: &PrevvConfig) -> MarkedGraph {
    let mut g = MarkedGraph::from_netlist(&synth.netlist);
    let load_latency = (cfg.timing.read_latency + 1) as f64;
    let mut retire_inputs = vec![synth.interface.alloc_in.index()];
    for p in &synth.interface.ports {
        if p.is_load() {
            let name = format!("<load:{}>", synth.interface.arrays[p.op.array.0].name);
            let outs = p.data_out.map(|c| vec![c.index()]).unwrap_or_default();
            g.add_stage(
                name,
                load_latency,
                cfg.depth as f64,
                0.0,
                cfg.depth as f64,
                vec![p.addr_in.index()],
                outs,
            );
        } else {
            retire_inputs.push(p.addr_in.index());
            if let Some(c) = p.data_in {
                retire_inputs.push(c.index());
            }
        }
        if let Some(c) = p.fake_in {
            retire_inputs.push(c.index());
        }
    }
    g.add_stage(
        "<retire>".to_string(),
        0.0,
        cfg.depth as f64,
        0.0,
        cfg.depth as f64,
        retire_inputs,
        Vec::new(),
    );
    g.build_edges();
    g
}

// ---------------------------------------------------------------------------
// Guard densities and the address-stream replay
// ---------------------------------------------------------------------------

/// Exact per-statement guard execution densities (1.0 for unguarded
/// statements). `None` when the space is too large to enumerate.
fn guard_densities(spec: &KernelSpec) -> Option<Vec<f64>> {
    if spec.iteration_count() > ENUM_LIMIT {
        return None;
    }
    let n = spec.iteration_count().max(1);
    Some(
        spec.body
            .iter()
            .map(|stmt| match &stmt.guard {
                None => 1.0,
                Some(_) => {
                    let mut space = spec.iterations();
                    let mut taken = 0usize;
                    while let Some(row) = space.next_row() {
                        taken += usize::from(stmt.runs(row));
                    }
                    taken as f64 / n as f64
                }
            })
            .collect(),
    )
}

/// What the golden-order address-stream replay predicts about the memory
/// subsystem: how many loads must round-trip to RAM (vs taking the queue
/// bypass), how many stores commit, and how many squashes the arrival skew
/// provokes before the dependence predictor learns the colliding addresses.
#[derive(Debug, Clone, Copy, Default)]
struct TraceStats {
    ram_reads: f64,
    taken_stores: f64,
    est_squashes: f64,
}

/// Replays the kernel's exact address streams through the golden
/// interpreter ([`golden::replay`], program order) and classifies every
/// load against the controller's forwarding window. This
/// is still *static* analysis — the kernel's address streams are fully
/// determined by its spec — but it is average-case with respect to timing,
/// so its outputs feed only the predicted interval, never the sound bound.
/// `skew_iters` is the arrival-skew window (0 when the steady state is
/// slow enough that racing stores always arrive first).
fn trace_memory(spec: &KernelSpec, cfg: &PrevvConfig, skew_iters: u64) -> Option<TraceStats> {
    if spec.iteration_count() > ENUM_LIMIT {
        return None;
    }
    let ops = spec.mem_ops_per_iter().max(1);
    let window = ((cfg.depth / ops).max(1)) as u64;
    // (iteration, array, address) of recent committed stores.
    let mut recent: Vec<(u64, usize, usize)> = Vec::new();
    let mut predictor: HashSet<(usize, usize)> = HashSet::new();
    let mut stats = TraceStats::default();
    let mut current = None;
    // A guard-suppressed statement sends a fake token: it arrives and
    // retires without traffic, so the replay reports no access for it.
    golden::replay(spec, spec.iteration_count(), |ev| {
        let it = ev.iter;
        if current != Some(it) {
            current = Some(it);
            recent.retain(|&(j, _, _)| it.saturating_sub(j) <= window);
        }
        let (array, addr) = (ev.array.0, ev.index);
        if ev.kind == MemOpKind::Store {
            recent.push((it, array, addr));
            stats.taken_stores += 1.0;
            return;
        }
        let hit = |lo: u64, hi: u64| {
            recent.iter().any(|&(j, a, ad)| {
                a == array && ad == addr && {
                    let d = it.saturating_sub(j);
                    (lo..=hi).contains(&d) || (j == it && lo == 0)
                }
            })
        };
        if hit(0, 0) {
            // Same-iteration older store: the bypass always covers it.
        } else if skew_iters > 0 && hit(1, skew_iters) {
            // The racing store has typically not arrived yet: the first
            // collision on this address reads RAM prematurely and squashes;
            // afterwards the predictor holds the load and it forwards.
            if predictor.insert((array, addr)) {
                stats.est_squashes += 1.0;
                stats.ram_reads += 1.0;
            }
        } else if cfg.forwarding && hit(skew_iters + 1, window) {
            // Resident older store: queue bypass, no RAM round-trip.
        } else {
            stats.ram_reads += 1.0;
        }
    });
    Some(stats)
}

// ---------------------------------------------------------------------------
// Analytic bounds
// ---------------------------------------------------------------------------

/// Operator latency along the path from a matching load up to the root of
/// `e` (maximum over occurrences); `None` when the load does not occur.
fn path_above_load(e: &Expr, array: ArrayId, index: &Expr) -> Option<f64> {
    match e {
        Expr::Load(a, idx) if *a == array && **idx == *index => Some(0.0),
        Expr::Load(..) | Expr::Const(_) | Expr::IndVar(_) => None,
        Expr::Binary(op, l, r) => {
            let unit = op.default_latency() as f64;
            match (
                path_above_load(l, array, index),
                path_above_load(r, array, index),
            ) {
                (Some(a), Some(b)) => Some(unit + a.max(b)),
                (Some(a), None) | (None, Some(a)) => Some(unit + a),
                (None, None) => None,
            }
        }
        Expr::Opaque(_, x) => path_above_load(x, array, index).map(|p| p + 2.0),
    }
}

/// True when no execution can satisfy this load from the premature queue:
/// every aliasing store is provably retired (or nonexistent) by the time
/// the load issues, so the load must round-trip to RAM.
fn provably_ram_bound(synth: &SynthesizedKernel, op_idx: usize, depth: usize) -> bool {
    let op = &synth.deps.ops[op_idx];
    let stores_to_array = synth
        .deps
        .ops
        .iter()
        .any(|o| o.kind == MemOpKind::Store && o.array == op.array);
    if !stores_to_array {
        return true; // read-only array: nothing to forward from, ever
    }
    if op.index.is_runtime_dependent() {
        return false; // the address stream is unknowable symbolically
    }
    let ops_per_iter = synth.spec.mem_ops_per_iter().max(1);
    // Every pair this load participates in must be provably unforwardable.
    // Stores to the same array *not* paired with this load were proven
    // non-colliding by dependence analysis, so they cannot forward either.
    let deps = &synth.deps;
    deps.pairs
        .iter()
        .zip(&deps.verdicts)
        .filter(|(p, _)| p.load == op_idx)
        .all(|(_, v)| match v.min_distance {
            // No unprotected collision at any distance: same-iteration
            // program order already serializes whatever overlaps exist.
            None => true,
            // A same-iteration store-before-load collision forwards.
            Some(0) => false,
            // A store `d` iterations back is provably retired when the
            // intervening operations alone overflow the queue.
            Some(d) => d.saturating_mul(ops_per_iter as u64) > depth as u64,
        })
}

/// One named contribution to an initiation-interval bound.
#[derive(Debug, Clone)]
struct Term {
    name: &'static str,
    ii: f64,
    detail: String,
}

/// The sound per-iteration budget terms (RAM reads, store commits, arbiter
/// arrivals, retirements). Guarded operations are weighted by their exact
/// enumerated density, or by 0 when the space is too large to enumerate —
/// under-approximating keeps the bound sound.
fn sound_terms(synth: &SynthesizedKernel, cfg: &PrevvConfig) -> Vec<Term> {
    let spec = &synth.spec;
    let densities = guard_densities(spec);
    let density = |stmt: usize| -> f64 {
        match &densities {
            Some(d) => d[stmt],
            None => {
                if spec.body[stmt].guard.is_none() {
                    1.0
                } else {
                    0.0
                }
            }
        }
    };
    let ram_reads: f64 = synth
        .deps
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.kind == MemOpKind::Load)
        .filter(|(i, _)| provably_ram_bound(synth, *i, cfg.depth))
        .map(|(_, o)| density(o.stmt))
        .sum();
    let stores: f64 = spec
        .body
        .iter()
        .enumerate()
        .map(|(si, _)| density(si))
        .sum();
    let ops = spec.mem_ops_per_iter() as f64;
    vec![
        Term {
            name: "read_ports",
            ii: ram_reads / cfg.timing.read_ports.max(1) as f64,
            detail: format!(
                "{ram_reads:.2} guaranteed RAM reads/iteration over {} read port(s)",
                cfg.timing.read_ports
            ),
        },
        Term {
            name: "write_ports",
            ii: stores / cfg.timing.write_ports.max(1) as f64,
            detail: format!(
                "{stores:.2} store commits/iteration over {} write port(s)",
                cfg.timing.write_ports
            ),
        },
        Term {
            name: "validation",
            ii: (ops + ram_reads) / cfg.validations_per_cycle.max(1) as f64,
            detail: format!(
                "{:.2} arrivals+completions/iteration over {} validation slot(s)",
                ops + ram_reads,
                cfg.validations_per_cycle
            ),
        },
        Term {
            name: "retire",
            ii: ops / cfg.retire_per_cycle.max(1) as f64,
            detail: format!(
                "{ops:.0} retirements/iteration over {} retire slot(s)",
                cfg.retire_per_cycle
            ),
        },
    ]
}

/// The RAW-forwarding recurrence: a **must-alias** store (same affine
/// address as the load — the true accumulator pattern) feeding a load `d`
/// taken iterations later bounds the *average* interval at
/// `(turnaround + chain) / d_eff` — average-case because a value
/// coincidence (stored value == RAM value) lets the premature result
/// stand. Occasionally-aliasing (residual) pairs are excluded: they stall
/// individual iterations, not the steady state. Guarded accumulators
/// collide only on taken iterations, so the distance is scaled by the
/// guard's execution density.
fn raw_recurrence_ii(synth: &SynthesizedKernel, cfg: &PrevvConfig) -> f64 {
    let spec = &synth.spec;
    let ops_per_iter = spec.mem_ops_per_iter().max(1);
    let densities = guard_densities(spec);
    synth
        .deps
        .pairs
        .iter()
        .zip(&synth.deps.verdicts)
        .filter_map(|(pair, v)| {
            if v.class != VerdictClass::MustAlias {
                return None;
            }
            let d = v.min_distance.filter(|&d| d >= 1)?;
            // Only pairs whose store is still resident when the load
            // arrives forward; farther pairs already count as RAM reads.
            if d.saturating_mul(ops_per_iter as u64) > cfg.depth as u64 {
                return None;
            }
            let load = &synth.deps.ops[pair.load];
            let store = &synth.deps.ops[pair.store];
            if load.stmt != store.stmt {
                return None; // cross-statement chains are not modeled
            }
            let density = match &densities {
                Some(dens) => dens[store.stmt],
                None if spec.body[store.stmt].guard.is_none() => 1.0,
                None => return None, // guarded beyond enumeration: skip
            };
            if density <= EPS {
                return None;
            }
            let stmt = &spec.body[store.stmt];
            let chain = FORWARD_TURNAROUND
                + 1.0
                + path_above_load(&stmt.value, load.array, &load.index).unwrap_or(0.0);
            Some(chain * density / d as f64)
        })
        .fold(1.0, f64::max)
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

/// Computes the full static throughput verdict for a synthesized kernel.
pub fn analyze_perf(synth: &SynthesizedKernel, opts: &PerfOptions) -> PerfSummary {
    let mut report = Report::default();
    lint_perf(synth, opts, &mut report)
}

/// Runs the PV4xx lints over a synthesized kernel, appending PV400/401/402
/// findings to `report`, and returns the summary (for the CLI JSON and for
/// [`check_measured`]).
pub fn lint_perf(
    synth: &SynthesizedKernel,
    opts: &PerfOptions,
    report: &mut Report,
) -> PerfSummary {
    let cfg = &opts.config;
    let spec = &synth.spec;
    let n_iter = synth.interface.iterations;
    let ops = spec.mem_ops_per_iter().max(1) as f64;
    let span = spec.body.first().and_then(|s| s.span());

    let graph = controller_graph(synth, cfg);
    let mcr = graph.max_cycle_ratio();
    let cycle_labels = graph.cycle_labels(&mcr.cycle);

    let mut terms = vec![Term {
        name: "compute_cycle",
        ii: mcr.ratio,
        detail: if cycle_labels.is_empty() {
            "no circuit cycle binds".to_string()
        } else {
            format!("critical cycle: {}", cycle_labels.join(" -> "))
        },
    }];
    terms.extend(sound_terms(synth, cfg));
    let binding = terms
        .iter()
        .max_by(|a, b| a.ii.partial_cmp(&b.ii).unwrap_or(std::cmp::Ordering::Equal))
        .expect("terms is non-empty")
        .clone();
    let ii_bound = binding.ii.max(1.0);

    // Predicted (average-case) interval. The RAW recurrence is computed
    // first: when it (or a sound term) already throttles the steady state,
    // racing stores arrive before the next load issues and the arrival
    // skew — the squash driver — vanishes.
    let ii_raw = raw_recurrence_ii(synth, cfg);
    let skew = if ii_bound.max(ii_raw) >= SQUASH_II_CUTOFF {
        0
    } else {
        SQUASH_SKEW_ITERS
    };
    let trace = trace_memory(spec, cfg, skew);
    let pred_terms: Vec<(&'static str, f64)> = match &trace {
        Some(t) => {
            let n = n_iter.max(1) as f64;
            vec![
                (
                    "read_ports",
                    t.ram_reads / (n * cfg.timing.read_ports.max(1) as f64),
                ),
                (
                    "write_ports",
                    t.taken_stores / (n * cfg.timing.write_ports.max(1) as f64),
                ),
                (
                    "validation",
                    (ops * n + t.ram_reads) / (n * cfg.validations_per_cycle.max(1) as f64),
                ),
            ]
        }
        None => Vec::new(),
    };
    let ii_queue = ops * QUEUE_RESIDENCY / cfg.depth.max(1) as f64;
    let best_non_queue = pred_terms
        .iter()
        .map(|&(_, ii)| ii)
        .fold(ii_bound.max(ii_raw), f64::max);
    let predicted_ii = best_non_queue.max(ii_queue).max(1.0);
    let fill = graph.longest_fill_path() + FILL_OVERHEAD;
    let squash_cycles = trace.map_or(0.0, |t| t.est_squashes * SQUASH_PENALTY);
    let predicted_cycles = if n_iter == 0 {
        0.0
    } else {
        predicted_ii * n_iter as f64 + fill + squash_cycles
    };

    // PV402: the premature queue (a configuration knob, unlike a port) is
    // the predicted bottleneck.
    let queue_bound = ii_queue > best_non_queue + EPS;
    let occupancy = match crate::absint::occupancy_bound(spec) {
        0 => None,
        b => Some(b as u64),
    };
    let matched_depth = if queue_bound {
        let needed = (ops * QUEUE_RESIDENCY / best_non_queue.max(1.0)).ceil() as usize;
        Some(needed.max(cfg.depth + 1).next_power_of_two())
    } else {
        None
    };
    // The §V-A matched depth chases the steady state; the value analysis
    // bounds how many records the whole run can ever enqueue. A matched
    // depth past that bound is dead area, and a bound at or below the
    // configured depth means the asymptotic queue term never materializes
    // over so short a run.
    let recommended_depth = matched_depth.and_then(|want| {
        let capped = prevv_core::sizing::cap_depth_by_occupancy(want, occupancy);
        (capped > cfg.depth).then_some(capped)
    });

    let ii_text = if ii_bound.is_finite() {
        format!("{ii_bound:.2}")
    } else {
        "unbounded (token-free delay cycle — see PV103)".to_string()
    };
    report.push(
        Diagnostic::note(
            Code::ThroughputBound,
            format!(
                "steady-state II bound {ii_text} over {n_iter} iterations — binding resource: \
                 {} ({}); predicted II {predicted_ii:.2}, ≈{predicted_cycles:.0} cycles",
                binding.name, binding.detail
            ),
        )
        .with_span(span),
    );

    // PV401: the binding term is a circuit cycle whose ratio is set by its
    // token capacity — one well-placed buffer raises throughput.
    if binding.name == "compute_cycle" && ii_bound > 1.0 + 1e-6 {
        if let Some((ch, (prod, cons))) = graph.cycle_slack_channel(&mcr.cycle) {
            let tokens: f64 = mcr.cycle.iter().map(|&e| graph.edges[e].tokens).sum();
            let delay: f64 = mcr.cycle.iter().map(|&e| graph.edges[e].delay).sum();
            let second = terms
                .iter()
                .filter(|t| t.name != "compute_cycle")
                .map(|t| t.ii)
                .fold(1.0, f64::max);
            let wanted = (delay / second).ceil().max(tokens + 1.0) as usize;
            let extra = wanted as f64 - tokens;
            report.push(
                Diagnostic::warning(
                    Code::SlacklessCycle,
                    format!(
                        "zero-slack backpressure cycle holds II at {ii_text}: {} cycles of \
                         latency recirculate over only {tokens:.0} elastic token slot(s)",
                        delay
                    ),
                )
                .with_span(span)
                .with_help(format!(
                    "insert an elastic buffer ({extra:.0}+ slots) on channel c{ch} between \
                     `{prod}` and `{cons}` to bring the cycle toward II {second:.2}"
                )),
            );
        }
    }

    if let Some(depth) = recommended_depth {
        let mut help = format!(
            "raise depth_q to {depth} (§V-A matched sizing) to shift the bottleneck back \
             to the datapath"
        );
        if matched_depth.is_some_and(|want| depth < want) {
            if let Some(bound) = occupancy {
                help.push_str(&format!(
                    " — the static occupancy bound ({bound} record(s) over the whole run) \
                     caps the matched depth"
                ));
            }
        }
        let mut diag = Diagnostic::warning(
            Code::QueueBound,
            format!(
                "premature-queue serialization binds throughput: depth {} sustains only \
                 II {ii_queue:.2} while the datapath could run at II {best_non_queue:.2}",
                cfg.depth
            ),
        )
        .with_span(span)
        .with_help(help);
        if let Some((_, dspan)) = spec.depth_hint() {
            diag = diag.with_suggestion(Suggestion::new(
                dspan,
                format!("depth_q = {depth};"),
                format!("resize the premature queue to the matched depth {depth}"),
            ));
        }
        report.push(diag);
    }

    PerfSummary {
        ii_bound,
        predicted_ii,
        predicted_cycles,
        binding_resource: binding.name.to_string(),
        critical_cycle: if binding.name == "compute_cycle" {
            cycle_labels
        } else {
            Vec::new()
        },
        recommended_depth,
        occupancy_bound: occupancy,
        iterations: n_iter,
    }
}

/// Runs the circuit-only PV4xx lints over a *closed* netlist (every channel
/// wired, e.g. a hand-built test circuit): computes the maximum cycle
/// ratio, emits PV400 (and PV401 when a starved cycle binds), and returns
/// the II bound.
pub fn lint_netlist_perf(net: &Netlist, report: &mut Report) -> f64 {
    let mut graph = MarkedGraph::from_netlist(net);
    graph.build_edges();
    let mcr = graph.max_cycle_ratio();
    let labels = graph.cycle_labels(&mcr.cycle);
    let ii_text = if mcr.ratio.is_finite() {
        format!("{:.2}", mcr.ratio)
    } else {
        "unbounded (token-free delay cycle — see PV103)".to_string()
    };
    let detail = if labels.is_empty() {
        "no circuit cycle binds".to_string()
    } else {
        format!("critical cycle: {}", labels.join(" -> "))
    };
    report.push(Diagnostic::note(
        Code::ThroughputBound,
        format!("circuit steady-state II bound {ii_text} — {detail}"),
    ));
    if mcr.ratio > 1.0 + 1e-6 {
        if let Some((ch, (prod, cons))) = graph.cycle_slack_channel(&mcr.cycle) {
            let tokens: f64 = mcr.cycle.iter().map(|&e| graph.edges[e].tokens).sum();
            let delay: f64 = mcr.cycle.iter().map(|&e| graph.edges[e].delay).sum();
            report.push(
                Diagnostic::warning(
                    Code::SlacklessCycle,
                    format!(
                        "zero-slack backpressure cycle holds II at {ii_text}: {delay} cycles \
                         of latency recirculate over only {tokens:.0} elastic token slot(s)"
                    ),
                )
                .with_help(format!(
                    "insert an elastic buffer ({:.0}+ slots) on channel c{ch} between `{prod}` \
                     and `{cons}`",
                    (delay - tokens).max(1.0)
                )),
            );
        }
    }
    mcr.ratio
}

/// PV403 self-check: compares a measured simulation against the static
/// model. Returns a diagnostic when the measured interval beats the sound
/// bound (a soundness hole — should be impossible) or diverges from the
/// prediction beyond tolerance (a missing serialization in the model).
pub fn check_measured(summary: &PerfSummary, measured_cycles: u64) -> Option<Diagnostic> {
    let measured_ii = summary.measured_ii(measured_cycles);
    if summary.iterations == 0 || measured_ii <= 0.0 {
        return None;
    }
    if measured_ii + 1e-6
        < summary.ii_bound * (summary.iterations as f64 - 1.0).max(0.0) / summary.iterations as f64
    {
        return Some(Diagnostic::warning(
            Code::ModelDivergence,
            format!(
                "measured II {measured_ii:.2} beats the sound static bound {:.2} — the \
                 timed-marked-graph model has a soundness hole worth reporting",
                summary.ii_bound
            ),
        ));
    }
    let rel = (summary.predicted_cycles - measured_cycles as f64).abs() / measured_cycles as f64;
    if rel > DIVERGENCE_TOLERANCE {
        return Some(
            Diagnostic::warning(
                Code::ModelDivergence,
                format!(
                    "measured {measured_cycles} cycles diverges {:.0}% from the predicted \
                     {:.0} (II {measured_ii:.2} vs {:.2})",
                    rel * 100.0,
                    summary.predicted_cycles,
                    summary.predicted_ii
                ),
            )
            .with_help(
                "the static model is missing a serialization (under-prediction) or \
                 over-counting one (over-prediction); see DESIGN.md on its caveats"
                    .to_string(),
            ),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use prevv_dataflow::components::{BinOp, BinaryAlu, Buffer, Fork, IterSource, Sink};
    use prevv_dataflow::{ChannelId, Component, Ports, Signals};

    /// A zero-capacity, zero-latency join: the throughput model reads only
    /// its ports, so it never needs to run.
    struct Join {
        inputs: Vec<ChannelId>,
        output: ChannelId,
    }

    impl Join {
        fn new(inputs: Vec<ChannelId>, output: ChannelId) -> Self {
            Join { inputs, output }
        }
    }

    impl Component for Join {
        fn type_name(&self) -> &'static str {
            "join"
        }

        fn ports(&self) -> Ports {
            Ports::new(self.inputs.clone(), vec![self.output])
        }

        fn eval(&self, _sig: &mut Signals) {}

        fn commit(&mut self, _sig: &Signals) -> bool {
            false
        }
    }

    fn report_ii(net: &Netlist) -> (f64, Report) {
        let mut r = Report::default();
        let ii = lint_netlist_perf(net, &mut r);
        (ii, r)
    }

    #[test]
    fn fully_pipelined_chain_has_ii_one() {
        // src -> mul(lat 4, cap 4) -> buffer(8) -> sink: every stage's
        // latency is matched by its capacity, so no cycle exceeds ratio 1.
        let mut net = Netlist::new();
        let (a, b, c, d) = (net.channel(), net.channel(), net.channel(), net.channel());
        net.add("src", IterSource::new(vec![vec![1], vec![2]], vec![a]));
        net.add("sq", BinaryAlu::new(BinOp::Mul, a, a, b));
        // One producer driving both ALU inputs would be PV102; reuse `a`
        // for both operands is fine for the throughput model but keep the
        // netlist clean anyway:
        let _ = (c, d);
        net.add("sink", Sink::new(vec![b]));
        let (ii, r) = report_ii(&net);
        assert!((ii - 1.0).abs() < 1e-6, "ii = {ii}");
        assert_eq!(r.with_code(Code::ThroughputBound).len(), 1);
        assert!(r.with_code(Code::SlacklessCycle).is_empty());
    }

    #[test]
    fn starved_reconvergence_binds_at_latency_over_capacity() {
        // fork -> {buffer(1) || mul(lat 4)} -> join: the reconvergent cycle
        // carries 4 cycles of multiplier latency but only the single buffer
        // slot of the short path, so II = 4/1 = 4.
        let mut net = Netlist::new();
        let src_out = net.channel();
        let short_in = net.channel();
        let short_out = net.channel();
        let long_out = net.channel();
        let joined = net.channel();
        net.add("src", IterSource::new(vec![vec![1]], vec![src_out]));
        net.add("fork", Fork::new(src_out, vec![short_in, long_out]));
        net.add("short", Buffer::new(1, short_in, short_out));
        // The long path squares the forked token (both operands from one
        // channel keeps the test minimal; the model only reads ports).
        let long_alu_out = net.channel();
        net.add(
            "long",
            BinaryAlu::new(BinOp::Mul, long_out, long_out, long_alu_out),
        );
        net.add("join", Join::new(vec![short_out, long_alu_out], joined));
        net.add("sink", Sink::new(vec![joined]));
        let (ii, r) = report_ii(&net);
        assert!((ii - 4.0).abs() < 1e-6, "ii = {ii}");
        let warn = r.with_code(Code::SlacklessCycle);
        assert_eq!(warn.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(warn[0].severity, Severity::Warning);
        assert!(warn[0].help.as_deref().unwrap_or("").contains("buffer"));
        let note = r.with_code(Code::ThroughputBound)[0];
        assert!(note.message.contains("critical cycle"), "{}", note.message);
        assert!(note.message.contains("long"), "{}", note.message);
    }

    #[test]
    fn deepened_buffer_restores_full_throughput() {
        // Same shape as above with a 4-deep short-path buffer: the cycle
        // now holds as many tokens as the multiplier needs in flight.
        let mut net = Netlist::new();
        let src_out = net.channel();
        let short_in = net.channel();
        let short_out = net.channel();
        let long_out = net.channel();
        let long_alu_out = net.channel();
        let joined = net.channel();
        net.add("src", IterSource::new(vec![vec![1]], vec![src_out]));
        net.add("fork", Fork::new(src_out, vec![short_in, long_out]));
        net.add("short", Buffer::new(4, short_in, short_out));
        net.add(
            "long",
            BinaryAlu::new(BinOp::Mul, long_out, long_out, long_alu_out),
        );
        net.add("join", Join::new(vec![short_out, long_alu_out], joined));
        net.add("sink", Sink::new(vec![joined]));
        let (ii, r) = report_ii(&net);
        assert!((ii - 1.0).abs() < 1e-6, "ii = {ii}");
        assert!(r.with_code(Code::SlacklessCycle).is_empty());
    }

    #[test]
    fn token_free_delay_cycle_is_unbounded() {
        // A directed ring through a buffer with no initial token can never
        // fire: the marked graph reports an infinite ratio.
        let mut net = Netlist::new();
        let live = net.channel();
        net.add("src", IterSource::new(vec![vec![1]], vec![live]));
        net.add("sink", Sink::new(vec![live]));
        let x = net.channel();
        let y = net.channel();
        let z = net.channel();
        net.add("k1", prevv_dataflow::components::Constant::new(1, x, y));
        net.add("reg", Buffer::new(1, y, z));
        net.add("k2", prevv_dataflow::components::Constant::new(2, z, x));
        let (ii, r) = report_ii(&net);
        assert!(ii.is_infinite());
        assert!(r.with_code(Code::ThroughputBound)[0]
            .message
            .contains("unbounded"));
    }

    #[test]
    fn guard_density_is_exact() {
        let spec = prevv_ir::parse::parse_kernel(
            "g",
            "int a[4];\nfor (int i = 0; i < 48; ++i) { if (i % 3 == 0) a[1] += i; }\n",
        )
        .expect("parses");
        let d = guard_densities(&spec).expect("enumerable");
        assert!((d[0] - 1.0 / 3.0).abs() < 1e-9, "density = {}", d[0]);
    }

    #[test]
    fn trace_counts_ram_reads_and_predictor_squashes() {
        // h[h7_16(i)] += 1: the hashed index collides between adjacent
        // iterations occasionally; each colliding address squashes once.
        let spec = prevv_ir::parse::parse_kernel(
            "hist",
            "int h[16];\nfor (int i = 0; i < 128; ++i) { h[h7_16(i)] += 1; }\n",
        )
        .expect("parses");
        let t =
            trace_memory(&spec, &PrevvConfig::default(), SQUASH_SKEW_ITERS).expect("enumerable");
        assert_eq!(t.taken_stores, 128.0);
        assert!(t.est_squashes > 0.0, "hash collisions must squash");
        assert!(
            t.est_squashes < 16.0,
            "the predictor caps squashes near the address count, got {}",
            t.est_squashes
        );

        // a[i] += 1 never collides across iterations: no squashes, and the
        // order-protected load always round-trips to RAM.
        let spec = prevv_ir::parse::parse_kernel(
            "inc",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n",
        )
        .expect("parses");
        let t =
            trace_memory(&spec, &PrevvConfig::default(), SQUASH_SKEW_ITERS).expect("enumerable");
        assert_eq!(t.est_squashes, 0.0);
        assert_eq!(t.ram_reads, 8.0);
    }

    #[test]
    fn synthesized_kernel_gets_a_sound_read_bound() {
        let spec = prevv_ir::parse::parse_kernel(
            "inc",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n",
        )
        .expect("parses");
        let synth = prevv_ir::synthesize(&spec).expect("synthesizes");
        let summary = analyze_perf(&synth, &PerfOptions::default());
        // One order-protected load per iteration must read RAM over one
        // port: the bound is at least 1 and finite, and nothing here can
        // recommend a deeper queue.
        assert!(summary.ii_bound >= 1.0 && summary.ii_bound.is_finite());
        assert!(summary.predicted_ii >= summary.ii_bound);
        assert!(summary.predicted_cycles > 8.0);
        assert_eq!(summary.recommended_depth, None);
        let json = summary.to_json();
        assert!(json.contains("\"ii_bound\":"), "{json}");
        assert!(json.contains("\"binding_resource\":"), "{json}");
    }

    #[test]
    fn shallow_queue_triggers_pv402_with_a_deeper_recommendation() {
        let spec = prevv_ir::parse::parse_kernel(
            "inc",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n",
        )
        .expect("parses");
        let synth = prevv_ir::synthesize(&spec).expect("synthesizes");
        let mut report = Report::default();
        let opts = PerfOptions {
            config: PrevvConfig::with_depth(2),
        };
        let summary = lint_perf(&synth, &opts, &mut report);
        let warn = report.with_code(Code::QueueBound);
        assert_eq!(warn.len(), 1, "{:?}", report.diagnostics);
        assert!(warn[0].message.contains("premature-queue"));
        let rec = summary.recommended_depth.expect("recommends a depth");
        assert!(rec > 2);
        assert!(warn[0]
            .help
            .as_deref()
            .unwrap_or("")
            .contains(&rec.to_string()));
    }

    #[test]
    fn occupancy_bound_caps_pv402_and_rewrites_the_directive() {
        // Two iterations x two mem ops: the whole run enqueues at most 4
        // records, so the §V-A matched depth (way past 4 for this shallow
        // queue) is capped at the occupancy power of two.
        let spec = prevv_ir::parse::parse_kernel(
            "tiny",
            "depth_q = 2;\nint a[4];\nfor (int i = 0; i < 2; ++i) { a[i] += 1; }\n",
        )
        .expect("parses");
        let synth = prevv_ir::synthesize(&spec).expect("synthesizes");
        let mut report = Report::default();
        let opts = PerfOptions {
            config: PrevvConfig::with_depth(2),
        };
        let summary = lint_perf(&synth, &opts, &mut report);
        assert_eq!(summary.occupancy_bound, Some(4));
        let warn = report.with_code(Code::QueueBound);
        assert_eq!(warn.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(summary.recommended_depth, Some(4), "capped at pow2(4)");
        assert!(
            warn[0].help.as_deref().unwrap_or("").contains("occupancy"),
            "help explains the cap: {:?}",
            warn[0].help
        );
        // The directive is present, so the fix is machine-applicable.
        let sugg = warn[0].suggestion.as_ref().expect("directive rewrite");
        assert_eq!(sugg.replacement, "depth_q = 4;");
        let (_, dspan) = spec.depth_hint().expect("hint");
        assert_eq!(sugg.span, dspan);
        assert!(summary.to_json().contains("\"occupancy_bound\":4"));
    }

    #[test]
    fn measured_divergence_raises_pv403() {
        let summary = PerfSummary {
            ii_bound: 1.0,
            predicted_ii: 1.0,
            predicted_cycles: 100.0,
            binding_resource: "read_ports".into(),
            critical_cycle: vec![],
            recommended_depth: None,
            occupancy_bound: None,
            iterations: 100,
        };
        assert!(check_measured(&summary, 101).is_none(), "within tolerance");
        let d = check_measured(&summary, 200).expect("2x divergence");
        assert_eq!(d.code, Code::ModelDivergence);
        let hole = check_measured(
            &PerfSummary {
                ii_bound: 4.0,
                predicted_cycles: 400.0,
                predicted_ii: 4.0,
                ..summary
            },
            100,
        )
        .expect("measured beats the sound bound");
        assert!(hole.message.contains("soundness"));
    }
}
