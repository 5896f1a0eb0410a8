//! Long-form documentation for every diagnostic code.
//!
//! `prevv-lint --explain PVxxx` resolves here. Each entry carries the
//! severity the lint emits at, a few sentences of documentation, and a
//! minimal kernel (plus the flags needed, when the default configuration
//! would not trigger it) that produces the finding. The examples are real:
//! `tests/explain_examples.rs` runs `prevv-lint` on every kernel example
//! under its flags and checks that it emits its own code.

use crate::diag::Code;

/// Documentation record for one diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct Explanation {
    /// The code being documented.
    pub code: Code,
    /// One-line title (matches the lib-level lint table).
    pub title: &'static str,
    /// Severity as emitted, including conditional escalations
    /// (e.g. "note; error when fake tokens are disabled").
    pub severity: &'static str,
    /// A few sentences: what the lint proves, why it matters for the PreVV
    /// protocol, and what to do about it.
    pub doc: &'static str,
    /// A minimal triggering example: kernel source, plus the `prevv-lint`
    /// flags required when the default configuration stays clean.
    pub example: &'static str,
}

/// Every documented code, in code order.
pub const ALL: &[Explanation] = &[
    Explanation {
        code: Code::Parse,
        title: "source failed to parse",
        severity: "error",
        doc: "The `.pvk` source is not a valid kernel: the parser stopped at \
              the reported offset. Nothing else can be checked until the \
              kernel parses; the analyzer proper operates on parsed kernels, \
              so PV000 is emitted by the CLI front end only.",
        example: "int a[4];\nfor (int i = 0; i < 4; ++i) { a[i] = ; }",
    },
    Explanation {
        code: Code::OutOfBounds,
        title: "affine index provably out of bounds",
        severity: "error",
        doc: "An affine index expression provably leaves the declared array \
              bounds for some iteration in range. The symbolic dependence \
              engine evaluates the index's affine envelope over the \
              iteration space; a proven escape means the synthesized \
              circuit would address memory outside the array's layout.",
        example: "int a[4];\nfor (int i = 0; i < 8; ++i) { a[i] = i; }",
    },
    Explanation {
        code: Code::DeadlockRisk,
        title: "guarded op in an ambiguous pair (\u{a7}V-C)",
        severity: "note; error when fake tokens are disabled",
        doc: "A guarded memory operation participates in an ambiguous \
              (arbiter-validated) pair. When the guard is false the op emits \
              no token, the premature queue never observes the iteration, \
              and the in-order retirement frontier stalls forever — the \
              paper's \u{a7}V-C deadlock. Fake tokens (the default) inject a \
              placeholder arrival so the queue always drains; with \
              `--no-fake-tokens` this becomes a hard error.",
        example: "int a[8];\nfor (int i = 0; i < 8; ++i) { if (i % 2 == 0) \
                  a[0] = a[0] + i; }\n\nflags: --no-fake-tokens",
    },
    Explanation {
        code: Code::QueueDepth,
        title: "premature-queue depth insufficient",
        severity: "error below the frontier minimum; warning below the \u{a7}V-A recommendation",
        doc: "The configured premature-queue depth cannot hold one \
              iteration's worth of validated operations (error: the circuit \
              wedges), or is below the \u{a7}V-A matched-pair sizing model's \
              recommendation (warning: squash-rate and stall penalties).",
        example: "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + \
                  a[i + 0]; }\n\nflags: --depth 1",
    },
    Explanation {
        code: Code::DeadStore,
        title: "dead store or unused array",
        severity: "warning",
        doc: "A store whose value is never observed (overwritten before any \
              load, or to an array nothing reads) or an array declaration \
              nothing touches. Usually a typo in an index expression; dead \
              stores still occupy premature-queue slots and arbiter \
              bandwidth.",
        example: "int a[4];\nint b[4];\nfor (int i = 0; i < 4; ++i) { a[i] \
                  = i; }",
    },
    Explanation {
        code: Code::PairReduction,
        title: "pair reduction (\u{a7}V-B) profitable but disabled",
        severity: "note",
        doc: "The \u{a7}V-B pair-reduction analysis (Eq. 11–12) proves some \
              validated pairs redundant — a cheaper arbiter covers the same \
              hazards — but the configuration disables the reduction. \
              Enable it to save comparators; the PV204 model-checker lint \
              verifies the reduction's soundness on the abstract protocol.",
        example: "int a[16];\nfor (int i = 0; i < 4; ++i) { for (int j = 0; j \
                  < 4; ++j) { a[i] = a[i] + a[i + 1]; } }\n\nflags: \
                  --no-pair-reduction",
    },
    Explanation {
        code: Code::DanglingChannel,
        title: "circuit: channel with no producer or no consumer",
        severity: "error",
        doc: "A handshake channel in the synthesized netlist has no \
              producer (its consumer waits forever) or no consumer (its \
              producer's valid is never acknowledged). Either way the \
              elastic circuit wedges. Indicates a synthesis bug or a \
              hand-patched netlist; unreachable from well-formed kernels.",
        example: "(circuit-level: inject a dangling channel into a netlist \
                  via the prevv-dataflow graph API; `prevv-lint --circuit` \
                  checks every synthesized netlist)",
    },
    Explanation {
        code: Code::MultiDrivenChannel,
        title: "circuit: channel with multiple producers or consumers",
        severity: "error",
        doc: "Two components drive (or consume) the same handshake channel. \
              The ready/valid protocol assumes exactly one of each; \
              multiple drivers corrupt the handshake and can drop or \
              duplicate tokens silently.",
        example: "(circuit-level: connect two producers to one channel via \
                  the prevv-dataflow graph API)",
    },
    Explanation {
        code: Code::UnbufferedCycle,
        title: "circuit: handshake cycle with no elastic buffer",
        severity: "error",
        doc: "A cycle of combinationally-coupled handshake signals with no \
              elastic buffer on it: the dataflow analogue of a \
              combinational loop. The cycle deadlocks (or oscillates) the \
              moment a token enters it. Loop-carried kernels synthesize \
              buffers on every back edge; their absence is a structural \
              bug.",
        example: "kernels/bad/combinational_loop.pvk\n\nflags: --circuit \
                  --controller direct",
    },
    Explanation {
        code: Code::FrontierCapacity,
        title: "circuit: controller capacity vs. in-flight frontier",
        severity: "error when the frontier cannot fit; warning when tight",
        doc: "The circuit's maximum in-flight iteration frontier (how many \
              iterations the elastic pipeline can hold) exceeds what the \
              modeled controller (premature queue or LSQ) can admit. The \
              pipeline fills, admission blocks, and throughput collapses — \
              or, below the per-iteration minimum, wedges outright.",
        example: "kernels/bad/undersized_queue.pvk\n\nflags: --circuit --depth 2",
    },
    Explanation {
        code: Code::UnreachableComponent,
        title: "circuit: component unreachable from any token source",
        severity: "warning",
        doc: "A netlist component no token source can ever reach: dead \
              hardware. It synthesizes to area that provably never fires. \
              Usually fallout from constant folding a guard to false.",
        example: "(circuit-level: add a component fed only by a channel \
                  with no producer)",
    },
    Explanation {
        code: Code::ProtocolBound,
        title: "model checker hit its exploration bound",
        severity: "note; warning when the state cap truncated exploration",
        doc: "The PV2xx bounded model checker stopped at its iteration \
              bound or state cap before exhausting the reachable abstract \
              state space. PV201–PV204 verdicts are sound only up to the \
              reported horizon: \"clean\" means \"clean within the bound\". \
              Raise `--mc-depth` / `--mc-states` to push the horizon. A \
              second note lists the pairs value invariants prove safe only \
              within the explored iterations: the checker drops them from \
              its validated set, while the netlist still validates them.",
        example: "int a[4];\nfor (int i = 0; i < 64; ++i) { a[0] = a[0] + 1; \
                  }\n\nflags: --protocol   (note: bound 2 < 64 iterations)",
    },
    Explanation {
        code: Code::ProtocolDeadlock,
        title: "reachable protocol deadlock",
        severity: "error",
        doc: "Exhaustive exploration of the abstract protocol (premature \
              queue, arbiter scan, fake-token injection, squash/replay) \
              found a reachable state with no enabled transition where the \
              kernel has not completed. The classic shape is a guarded \
              validated op with fake tokens disabled: the skipped iteration \
              never reaches the queue and the retirement frontier stalls \
              (\u{a7}V-C). The diagnostic carries the shortest event trace \
              into the dead state.",
        example: "int a[8];\nfor (int i = 0; i < 8; ++i) { if (i % 2 == 0) \
                  a[0] = a[0] + i; }\n\nflags: --protocol --no-fake-tokens",
    },
    Explanation {
        code: Code::SquashLivelock,
        title: "squash livelock",
        severity: "error",
        doc: "A reachable cycle in the abstract state graph contains a \
              squash edge: the same iteration is squashed and replayed \
              forever while the retired frontier never advances. Typically \
              a same-address store→load hazard re-raised on every replay \
              because forwarding is disabled, so the replayed load reads \
              the same stale value each time. The diagnostic renders the \
              lasso: a shortest prefix into the cycle, then the repeating \
              events.",
        example: "int a[4];\nint b[8];\nfor (int i = 0; i < 8; ++i) { a[0] \
                  = a[0] + 1; b[i] = b[i] + 2; }\n\nflags: --protocol \
                  --no-forwarding",
    },
    Explanation {
        code: Code::QueueWedge,
        title: "queue capacity insufficient on some interleaving",
        severity: "error",
        doc: "On some legal interleaving of premature executions, an \
              operation can never be admitted to the premature queue and no \
              resident entry can retire: a capacity wedge. The static PV003 \
              bound is per-iteration and necessary; this is the exact \
              reachability version — it catches interleavings where \
              out-of-order arrivals from a later iteration reserve the \
              slots an earlier iteration still needs. Fix by deepening the \
              queue (`depth_q`, \u{a7}V-A Eq. 6–10).",
        example: "int a[16];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + \
                  a[i + 1]; }\n\nflags: --protocol --depth 2",
    },
    Explanation {
        code: Code::ReductionUnsound,
        title: "pair-reduction representative diverges from unreduced set",
        severity: "warning",
        doc: "The \u{a7}V-B pair reduction (Eq. 11–12) nominates \
              representative pairs whose validation is claimed to cover the \
              eliminated ones. The model checker found a reachable state \
              where an operation *outside* the reduced set takes a squash \
              verdict — its hazard was real, and a controller that skipped \
              its validation (trusting the reduction) would commit stale \
              data. The stock runtime controller always validates the full \
              set, so this is a warning about the area model, not the \
              simulator.",
        example: "(programmatic: two stores to distinct constant addresses \
                  of `a` plus an opaque-indexed load of `a` feeding a store \
                  to `b`; see modelcheck.rs \
                  pv204_reduction_escape_on_eliminated_store)",
    },
    Explanation {
        code: Code::SeparationHorizon,
        title: "separation horizon: pairs left to the dynamic arbiter",
        severity: "note",
        doc: "The separation-logic disjointness prover could not discharge \
              every ambiguous load/store pair: at least one pair's access \
              footprint is runtime-dependent or can wrap around the array \
              length, so no affine separation proof applies. Those pairs \
              stay in the arbiter's validated set and the PV2xx model \
              checker explores their interleavings — the note records where \
              the symbolic guarantee ends and the dynamic one begins.",
        example: "int a[16];\nint b[8];\nfor (int i = 0; i < 8; ++i) { \
                  a[b[i]] = a[b[i]] + 5; }",
    },
    Explanation {
        code: Code::ProvenDisjoint,
        title: "pair footprints proven separate — arbiter bypassed",
        severity: "note",
        doc: "A conservative ambiguous pair's footprints are proven \
              separate: every overlap is same-iteration with the load \
              sequenced before the store (which the in-order commit already \
              serializes), by the affine tests or by enumeration; or \
              inferred value invariants (intervals, strides, guard \
              predicates) over the whole iteration space prove the pair \
              safe where those cannot — e.g. a store guarded to even \
              iterations against a load guarded to odd ones — and the note \
              names the reason. Synthesis bypasses the arbiter \
              for the pair: it never enters the arbiter's validated set or \
              the model checker's state space — a whole pair-class is \
              discharged symbolically, shrinking both the arbiter area and \
              the exploration frontier. `--explain PV004` and `--explain \
              PV502` resolve here: they reported these pairs until they \
              were folded into this note.",
        example: "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + 1; }",
    },
    Explanation {
        code: Code::MustAlias,
        title: "pair footprints must-alias — validation provably live",
        severity: "note",
        doc: "Both accesses of an ambiguous pair follow the *same* affine \
              index function, so they touch the same address on every \
              traversal: the arbiter validation for this pair fires every \
              time, it is live rather than defensive. A constant footprint \
              (`a[0]`) additionally collides across iterations — the \
              canonical squash-replay generator, and with forwarding \
              disabled the classic PV202 livelock shape.",
        example: "int a[4];\nfor (int i = 0; i < 8; ++i) { a[0] = a[0] + 1; }",
    },
    Explanation {
        code: Code::ThroughputBound,
        title: "static steady-state initiation-interval bound",
        severity: "note",
        doc: "The PV4xx pass models the synthesized netlist as a timed \
              marked graph (component latency = edge weight, capacity = \
              initial tokens on the back edge) and computes the steady-state \
              initiation-interval bound as the maximum cycle ratio, joined \
              with the memory controller's analytic port/validation/retire \
              limits. The note names the bound, the binding resource, and — \
              when a circuit cycle binds — renders the critical cycle \
              component by component. The bound is sound: measured II can \
              only be equal or worse.",
        example: "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + 1; \
                  }\n\nflags: --circuit --perf",
    },
    Explanation {
        code: Code::SlacklessCycle,
        title: "zero-slack backpressure cycle",
        severity: "warning",
        doc: "The critical cycle's ratio is set by its token capacity, not \
              its latency: every slot on the cycle is needed every \
              traversal, so any downstream hiccup backpressures the whole \
              loop (zero slack). Inserting an elastic buffer on the named \
              channel raises the cycle's capacity and therefore its \
              sustainable throughput. The warning names the exact channel \
              where one buffer helps most.",
        example: "(circuit-level: a feedback loop whose buffer capacity \
                  equals the tokens in flight; see \
                  tests in analyze::perf for a closed-form instance)",
    },
    Explanation {
        code: Code::QueueBound,
        title: "premature-queue/arbiter serialization binds throughput",
        severity: "warning",
        doc: "The initiation interval is set by premature-queue admission or \
              arbiter validation serialization, not by the datapath: the \
              in-flight iteration frontier outruns what the queue can hold \
              until retirement. Unlike a port limit this is configuration, \
              not hardware: the \u{a7}V-A sizing model names the depth at \
              which the bottleneck shifts back to compute, and the warning \
              reports it.",
        example: "kernels/bad/throughput_cliff.pvk\n\nflags: --circuit \
                  --perf --depth 4",
    },
    Explanation {
        code: Code::ModelDivergence,
        title: "measured II diverged from the static prediction",
        severity: "warning",
        doc: "A simulation ran alongside the static model and the measured \
              initiation interval differs from the predicted one beyond \
              tolerance. Under-prediction beyond the squash allowance means \
              the timed-marked-graph model is missing a serialization (a \
              model bug worth reporting); measured II *below* the sound \
              bound should be impossible and indicates a soundness hole. \
              Emitted by `runkernel` after a run, not by the static lint \
              alone.",
        example: "(runtime: `runkernel kernels/fig2a.pvk --stats` prints \
                  predicted vs measured II and raises PV403 on divergence)",
    },
    Explanation {
        code: Code::RangeOutOfBounds,
        title: "value-range analysis proves an index out of bounds",
        severity: "error; warning for opaque-index wraparound",
        doc: "The abstract interpreter (interval \u{d7} congruence \u{d7} \
              guard domains) proves an index expression reaches a value \
              outside the declared array bounds — including cases the \
              affine PV001 check cannot see: indirect indices like \
              `a[b[i]]` bounded through a store-free `b`'s initializer \
              data, and guarded statements in iteration spaces too large \
              to enumerate. Runtime-dependent indices demote to a warning \
              because the hardware wraps them modulo the array length by \
              design; the wrap still silently aliases another element.",
        example: "int b[4] = { 1, 9, 2, 3 };\nint a[8];\nfor (int i = 0; \
                  i < 4; ++i) { a[b[i]] = i; }",
    },
    Explanation {
        code: Code::InfeasibleGuard,
        title: "guard is provably false on every iteration",
        severity: "warning",
        doc: "The abstract interpreter proves a statement's guard evaluates \
              to zero on every iteration of the (possibly refined) loop \
              nest — for example `i % 2 == 3`. The statement is dead code, \
              but unlike an unguarded dead store it still injects fake \
              tokens into the premature queue every iteration, burning \
              queue slots and arbiter bandwidth for work that provably \
              never happens. The suggested fix removes the statement.",
        example: "int a[8];\nfor (int i = 0; i < 8; ++i) { if (i % 2 == 3) \
                  a[i] = 1;\n  a[i] = a[i] + 1; }",
    },
    Explanation {
        code: Code::OccupancyBound,
        title: "static occupancy bound below configured depth_q",
        severity: "note",
        doc: "The abstract interpreter bounds the premature queue's peak \
              occupancy: at most (memory ops per iteration \u{d7} total \
              iterations) entries can ever be live, counting fake tokens, \
              which occupy slots like real ones. When that bound is below \
              the configured `depth_q`, the extra slots are provably dead \
              area; the note names the bound and suggests the next \
              power-of-two depth that covers it. A `depth_q = N;` source \
              directive makes the suggestion machine-applicable via \
              `prevv-lint --fix`.",
        example: "int a[4];\nfor (int i = 0; i < 4; ++i) { a[i] = i; }\n\n\
                  flags: --depth 16   (bound 4 < depth 16)",
    },
];

/// Looks up one code by its `PVxxx` string (case-insensitive). The retired
/// `PV004` and `PV502` resolve to PV301, the note that reports their pairs.
pub fn explain(code: &str) -> Option<&'static Explanation> {
    let mut want = code.to_ascii_uppercase();
    if want == "PV004" || want == "PV502" {
        want = Code::ProvenDisjoint.as_str().into();
    }
    ALL.iter().find(|e| e.code.as_str() == want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_is_documented() {
        // Compile-time exhaustiveness: if a new Code variant appears, this
        // match stops compiling until it is added to ALL.
        for e in ALL {
            match e.code {
                Code::Parse
                | Code::OutOfBounds
                | Code::DeadlockRisk
                | Code::QueueDepth
                | Code::DeadStore
                | Code::PairReduction
                | Code::DanglingChannel
                | Code::MultiDrivenChannel
                | Code::UnbufferedCycle
                | Code::FrontierCapacity
                | Code::UnreachableComponent
                | Code::ProtocolBound
                | Code::ProtocolDeadlock
                | Code::SquashLivelock
                | Code::QueueWedge
                | Code::ReductionUnsound
                | Code::SeparationHorizon
                | Code::ProvenDisjoint
                | Code::MustAlias
                | Code::ThroughputBound
                | Code::SlacklessCycle
                | Code::QueueBound
                | Code::ModelDivergence
                | Code::RangeOutOfBounds
                | Code::InfeasibleGuard
                | Code::OccupancyBound => {}
            }
        }
        assert_eq!(ALL.len(), 26, "one entry per Code variant");
        // No duplicates, sorted by code string.
        let strs: Vec<_> = ALL.iter().map(|e| e.code.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(strs, sorted);
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert_eq!(explain("pv201").unwrap().code, Code::ProtocolDeadlock);
        assert_eq!(explain("PV001").unwrap().code, Code::OutOfBounds);
        assert_eq!(explain("pv004").unwrap().code, Code::ProvenDisjoint);
        assert_eq!(explain("PV502").unwrap().code, Code::ProvenDisjoint);
        assert!(explain("PV999").is_none());
        assert!(explain("nonsense").is_none());
    }
}
