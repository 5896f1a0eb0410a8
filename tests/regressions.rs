//! Pinned shrunk counterexamples, replayed through the full differential
//! oracle.
//!
//! The property tests once shrank two failures to the kernels below. The
//! offline `compat` proptest shim reads no `*.proptest-regressions` seed
//! file, so each case lives here instead, verbatim as an explicit
//! `KernelSpec`, run through `prevv::diffcheck::check_kernel` — strictly
//! stronger than the property that originally failed (it adds round-trip,
//! lint/model-check consistency, the speculative LSQ backend, and both
//! schedulers).

use prevv::dataflow::components::LoopLevel;
use prevv::diffcheck::{check_kernel, DiffOptions};
use prevv::ir::{ArrayDecl, ArrayId, BinOp, Expr, KernelSpec, OpaqueFn, Stmt};

fn oracle_must_pass(spec: &KernelSpec) {
    let opts = DiffOptions {
        // These shrunk specs predate the generator's lint-clean guarantee;
        // the contract under test is behavioral agreement, not lint purity.
        expect_lint_clean: false,
        ..DiffOptions::default()
    };
    let verdict = check_kernel(spec, &opts);
    assert!(
        verdict.passed(),
        "{}: pinned regression violates the oracle: {:?}",
        spec.name,
        verdict
            .failures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
}

/// First shrunk `tests/properties.rs` case: a guarded and an
/// unguarded store to the same indirectly-addressed cell in one iteration.
/// Historically shrunk from a cross-controller divergence hunt.
#[test]
fn pinned_guarded_indirect_double_store() {
    let a = ArrayId(0);
    let b = ArrayId(1);
    let index = || Expr::load(b, Expr::var(0));
    let value = || {
        Expr::load(a, Expr::load(b, Expr::var(0)))
            .mul(Expr::lit(2))
            .add(Expr::lit(1))
    };
    let guard = Expr::bin(
        BinOp::Eq,
        Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(2)),
        Expr::lit(0),
    );
    let spec = KernelSpec::new(
        "pinned_guarded_indirect",
        vec![LoopLevel::upto(6)],
        vec![
            ArrayDecl::zeroed("a", 12),
            ArrayDecl::with_values("b", vec![-1, 0, 0, 3, -3, 0, 2, -1, 1, 3, 0, 0]),
        ],
        vec![
            Stmt::guarded(a, index(), value(), guard),
            Stmt::store(a, index(), value()),
        ],
    )
    .expect("pinned spec validates");
    oracle_must_pass(&spec);
}

/// Second shrunk `tests/properties.rs` case: two opaque-addressed
/// read-modify-write stores with different hash seeds into the same array,
/// so collisions are data-dependent and iteration-crossing.
#[test]
fn pinned_opaque_rmw_collision_pair() {
    let b = ArrayId(1);
    let rmw = |f: OpaqueFn| {
        Stmt::store(
            b,
            Expr::var(0).opaque(f),
            Expr::load(b, Expr::var(0).opaque(f)).add(Expr::var(0)),
        )
    };
    let spec = KernelSpec::new(
        "pinned_opaque_rmw",
        vec![LoopLevel::upto(9)],
        vec![
            ArrayDecl::zeroed("a", 12),
            ArrayDecl::with_values("b", vec![0, -1, 2, 2, 2, -2, 0, 3, -1, 2, 3, 2]),
        ],
        vec![rmw(OpaqueFn::new(0, 2)), rmw(OpaqueFn::new(2, 2))],
    )
    .expect("pinned spec validates");
    oracle_must_pass(&spec);
}

/// A generated kernel whose bounded model check emits a PV204 trace: the
/// §V-B pair reduction exempts an op from validation, and the trace ends on
/// that op's arrival, which the full validated set would have squashed.
/// The trace witnesses the escape itself, not a deadlock or a closed
/// livelock cycle, so the oracle must accept it on that witness. The kernel
/// is regenerated from its seed (`runkernel --fuzz 200 --seed 1`) rather
/// than pinned in the replay corpus.
#[test]
fn pinned_pv204_reduction_escape_replays() {
    use prevv::kernels::gen::{generate, GenConfig};

    let spec = generate(0xe028_5292_5a4d_c852, &GenConfig::default());
    assert_eq!(spec.name, "fuzz_0xe02852925a4dc852");
    let verdict = check_kernel(&spec, &DiffOptions::default());
    assert!(
        verdict.counterexamples > 0,
        "the pinned kernel must still produce a counterexample"
    );
    assert!(
        verdict.passed(),
        "{}: {:?}",
        spec.name,
        verdict
            .failures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );

    // The PV204 trace the oracle replays, as the checker emits it: its
    // prefix and its escape event are all described.
    let config = match prevv::diffcheck::backends(&spec).pop() {
        Some(prevv::Controller::Prevv(c)) => c,
        _ => unreachable!("the oracle's backend list ends with PreVV"),
    };
    let opts = DiffOptions::default();
    let result = prevv::analyze::check_protocol(
        &spec,
        &prevv::analyze::ProtocolOptions {
            iterations: opts.mc_iterations,
            max_states: opts.mc_max_states,
            ..prevv::analyze::ProtocolOptions::for_config(&config)
        },
    )
    .expect("checks");
    let cex = result
        .counterexamples
        .iter()
        .find(|c| c.code == prevv::analyze::Code::ReductionUnsound)
        .expect("a PV204 counterexample");
    assert!(!cex.events.is_empty());
    for e in &cex.events {
        assert!(!e.desc.is_empty(), "undescribed event: {e:?}");
    }
}

/// Generator index 772 of the `0xPREVV` stream (`runkernel --fuzz`'s
/// default profile): a triangular `j = i + 1 .. 2` nest whose only
/// iteration is `(i, j) = (0, 1)`. The load `a[i]` (op 0) and the guarded
/// store `a[0]` (op 6) meet only in that iteration, load first. The affine
/// tests cannot see it — over the rectangular hull `a[i]` meets `a[0]`
/// across iterations — but enumeration can, and every consumer reads that
/// one verdict: synthesis bypasses the pair, PV301 reports it, and neither
/// the PV300 horizon nor the checker's stats count it as residual. The
/// kernel's two other pairs reach statements whose guards never fire, which
/// the value invariants prove over the hull: synthesis bypasses them too.
#[test]
fn pinned_enumeration_only_proof_reaches_every_consumer() {
    use prevv::analyze::{self, AnalyzeOptions, Code, ProtocolOptions};
    use prevv::ir::depend::{self, AmbiguousPair, DischargeReason, Proof, VerdictClass};

    let source = "int a[8];\n\
                  int b[12] = { 4, 0, 1, 2, 2, 1, 0, 6, 7, 7, 1, 7 };\n\
                  for (int i = 0; i < 6; ++i) {\n  \
                  for (int j = i + 1; j < 2; ++j) {\n    \
                  b[((i + j) + 1)] = ((4 * a[i]) + min(1, b[7]));\n    \
                  if ((j >= 5)) a[h197_8(((3 * 1) * 2))] = (a[(5 + j)] + min(1, 1));\n    \
                  if ((j > 4)) a[0] = ((2 % j) % min(3, b[(j * 1)]));\n  \
                  }\n}\n";
    let spec = prevv::ir::parse::parse_kernel("fuzz_0x416fa9715cdde971", source).expect("parses");
    let pair = AmbiguousPair { load: 0, store: 6 };

    let deps = depend::analyze(&spec);
    let k = deps
        .pairs
        .iter()
        .position(|&p| p == pair)
        .expect("a conservative pair");
    assert_eq!(
        deps.verdicts[k].class,
        VerdictClass::Proved(Proof::Enumerated)
    );
    let dead = VerdictClass::Proved(Proof::Invariant(DischargeReason::DeadCode));
    let others: Vec<_> = deps
        .verdicts
        .iter()
        .map(|v| v.class)
        .filter(|&c| c != deps.verdicts[k].class)
        .collect();
    assert_eq!(others, [dead, dead]);
    let synth = prevv::ir::synthesize(&spec).expect("synthesizes");
    assert_eq!(synth.bypassed, deps.pairs);
    assert!(synth.interface.pairs.is_empty());

    // PV301 anchors the enumerated pair at the load `a[i]` and names the
    // dead guard for the other two, so no pair is left for the horizon.
    let report = analyze::analyze(&spec, &AnalyzeOptions::default());
    let found = report.with_code(Code::ProvenDisjoint);
    let (dead, ordered): (Vec<_>, Vec<_>) = found
        .into_iter()
        .partition(|d| d.message.contains(DischargeReason::DeadCode.describe()));
    assert_eq!(
        (ordered.len(), dead.len()),
        (1, 2),
        "{:?}",
        report.diagnostics
    );
    let span = ordered[0].span.expect("spanned");
    assert_eq!(&source[span.start..span.end], "a[i]");
    assert!(report.with_code(Code::SeparationHorizon).is_empty());

    let checked = analyze::check_protocol(&spec, &ProtocolOptions::default()).expect("checks");
    let stats = checked.stats.pairs;
    assert_eq!(
        (
            stats.conservative,
            stats.discharged,
            stats.must_alias,
            stats.residual
        ),
        (3, 3, 0, 0)
    );
}

/// The same-iteration race behind the dependence predictor (DESIGN.md
/// §4.0), shrunk by the fuzzer: in iteration 2 the store `b[a[2]]` hits
/// `b[6]`, which that iteration's later load `b[2 * 3]` has already read.
/// Replay alone repeats the same order forever; the predictor learns the
/// (load, store, distance 0) entry from the one squash and holds the
/// replayed load until the store arrives, whose value the queue bypass
/// then forwards. Both schedulers must see exactly that one squash and
/// one replayed iteration.
#[test]
fn pinned_distance_zero_race_squashes_once() {
    use prevv::{run_kernel_with, Controller, PrevvConfig, Scheduler, SimConfig, SynthOptions};

    let source = "int a[8] = { 2, 4, 6, 7, 7, 4, 4, 6 };\n\
                  int b[16];\n\
                  for (int i = 0; i < 3; ++i) {\n  \
                  b[a[i]] = 3 % 5;\n  \
                  b[0] = b[2 * 3];\n\
                  }\n";
    let spec = prevv::ir::parse::parse_kernel("distance_zero_race", source).expect("parses");
    for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
        let sim = SimConfig {
            scheduler,
            ..SimConfig::default()
        };
        let run = run_kernel_with(
            &spec,
            Controller::Prevv(PrevvConfig::prevv16()),
            &SynthOptions::default(),
            &sim,
        )
        .expect("simulation completes");
        assert_eq!(run.report.cycles, 25, "{scheduler:?}");
        assert!(run.matches_golden, "{scheduler:?}");
        let stats = run.prevv.expect("PreVV statistics");
        assert_eq!(
            (stats.squashes, stats.replayed_iters),
            (1, 1),
            "{scheduler:?}"
        );
        let [squash] = run.squash_log[..] else {
            panic!(
                "{scheduler:?}: expected one squash, got {:?}",
                run.squash_log
            );
        };
        assert_eq!(
            (
                squash.from_iter,
                squash.load_port,
                squash.store_port,
                squash.distance
            ),
            (2, 2, 1, 0),
            "{scheduler:?}"
        );
    }
}

/// Corpus kernel `gen_12`: three of its four ambiguous pairs touch the
/// statement whose guard `i > 5` never fires over `i < 6`. Value invariants
/// prove them over the iteration hull, so the netlist validates only the
/// fourth, and every backend still matches the golden model.
#[test]
fn pinned_gen_12_validates_only_its_unproved_pair() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fuzz_corpus/gen_12.pvk");
    let source = std::fs::read_to_string(path).expect("corpus kernel");
    let spec = prevv::ir::parse::parse_kernel("gen_12", &source).expect("parses");
    let synth = prevv::ir::synthesize(&spec).expect("synthesizes");
    assert_eq!(
        (synth.deps.pairs.len(), synth.interface.pairs.len()),
        (4, 1)
    );
    oracle_must_pass(&spec);
}
