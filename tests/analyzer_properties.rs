//! Property-based tests for the static analyzer: it must never panic on
//! any kernel the generator can produce, its PV004 bypass verdicts must be
//! sound against brute-force address enumeration, and kernels it passes
//! must simulate correctly under PreVV.

use proptest::prelude::*;

use prevv::analyze::{
    analyze, check_protocol, replay_counterexample, AnalyzeOptions, Code, ProtocolOptions,
};
use prevv::dataflow::components::LoopLevel;
use prevv::ir::depend;
use prevv::ir::symdep::{classify_pair, AffineForm, PairClass};
use prevv::ir::{ArrayDecl, ArrayId, BinOp, Expr, KernelSpec, MemOpKind, OpaqueFn, Stmt};
use prevv::{run_kernel, Controller, MemTiming, PrevvConfig};

const ARRAY_LEN: usize = 12;

/// Index expressions biased toward aliasing, mirroring `tests/properties.rs`
/// (including out-of-range affine offsets, which PV001 must flag without
/// panicking, and runtime-dependent shapes, which it must skip).
fn index_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-2i64..6).prop_map(|c| Expr::var(0).add(Expr::lit(c))),
        (0i64..4).prop_map(Expr::lit),
        (0u64..4, 2i64..6).prop_map(|(seed, m)| Expr::var(0).opaque(OpaqueFn::new(seed, m))),
        Just(Expr::load(ArrayId(1), Expr::var(0))),
    ]
}

fn value_expr(target: ArrayId, index: Expr) -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::load(target, index.clone()).add(Expr::var(0))),
        Just(Expr::load(target, index.clone()).add(Expr::lit(1))),
        Just(Expr::var(0).mul(Expr::lit(3))),
        Just(
            Expr::load(target, index)
                .mul(Expr::lit(2))
                .add(Expr::lit(1))
        ),
    ]
}

prop_compose! {
    fn statement()(
        target in 0usize..2,
        index in index_expr(),
    )(
        target in Just(target),
        index in Just(index.clone()),
        value in value_expr(ArrayId(target), index),
        guarded in proptest::bool::weighted(0.3),
        every in 2i64..4,
    ) -> Stmt {
        let array = ArrayId(target);
        if guarded {
            Stmt::guarded(
                array,
                index,
                value,
                Expr::bin(
                    BinOp::Eq,
                    Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(every)),
                    Expr::lit(0),
                ),
            )
        } else {
            Stmt::store(array, index, value)
        }
    }
}

prop_compose! {
    fn kernel()(
        iters in 6i64..24,
        inner in proptest::option::weighted(0.35, 2i64..4),
        stmts in proptest::collection::vec(statement(), 1..3),
        init in proptest::collection::vec(-4i64..4, ARRAY_LEN),
    ) -> KernelSpec {
        let levels = match inner {
            Some(n) => vec![LoopLevel::upto(iters.min(12)), LoopLevel::upto(n)],
            None => vec![LoopLevel::upto(iters)],
        };
        KernelSpec::new(
            "random",
            levels,
            vec![
                ArrayDecl::zeroed("a", ARRAY_LEN),
                ArrayDecl::with_values("b", init),
            ],
            stmts,
        ).expect("generated kernels are valid by construction")
    }
}

/// Brute-force affine evaluation (the analyzer's independent oracle).
fn eval_affine(e: &Expr, row: &[i64]) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::IndVar(l) => row[*l],
        Expr::Binary(op, l, r) => op.apply(eval_affine(l, row), eval_affine(r, row)),
        _ => panic!("oracle only evaluates affine expressions"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// The analyzer must never panic, and every report must render as text
    /// and serialize as JSON, for any generated kernel and configuration.
    #[test]
    fn analyzer_never_panics(
        spec in kernel(),
        depth in 1usize..40,
        fake_tokens in proptest::arbitrary::any::<bool>(),
        pair_reduction in proptest::arbitrary::any::<bool>(),
    ) {
        let opts = AnalyzeOptions {
            fake_tokens,
            depth,
            pair_reduction,
            ..AnalyzeOptions::default()
        };
        let report = analyze(&spec, &opts);
        let text = report.render("random", None);
        prop_assert!(text.contains("error(s)"));
        let json = report.to_json(None);
        prop_assert!(json.starts_with('{') && json.ends_with('}'));
    }

    /// PV004 soundness: every pair the refinement bypasses is verified by
    /// brute force — both indices affine, and every address collision over
    /// the whole iteration space is a same-iteration, program-order
    /// protected load-before-store.
    #[test]
    fn pv004_bypass_is_sound(spec in kernel()) {
        let deps = depend::analyze(&spec);
        let refinement = depend::refine_pairs(&spec, &deps);
        let space = spec.iteration_space();
        for pair in &refinement.bypassed {
            let load = &deps.ops[pair.load];
            let store = &deps.ops[pair.store];
            prop_assert_eq!(load.kind, MemOpKind::Load);
            prop_assert_eq!(store.kind, MemOpKind::Store);
            prop_assert!(!load.index.is_runtime_dependent());
            prop_assert!(!store.index.is_runtime_dependent());
            for (i1, row1) in space.iter().enumerate() {
                let la = spec.resolve_index(load.array, eval_affine(&load.index, row1));
                for (i2, row2) in space.iter().enumerate() {
                    let sa = spec.resolve_index(store.array, eval_affine(&store.index, row2));
                    if la == sa {
                        prop_assert!(
                            i1 == i2 && load.seq < store.seq,
                            "bypassed pair collides outside program order: \
                             load iter {} vs store iter {}", i1, i2
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// End-to-end: a kernel the analyzer passes (no error diagnostics at
    /// depth 64) simulates correctly under PreVV with the PV004 bypass
    /// active by default.
    #[test]
    fn analyzer_clean_kernels_match_golden(spec in kernel()) {
        let opts = AnalyzeOptions { depth: 64, ..AnalyzeOptions::default() };
        prop_assume!(!analyze(&spec, &opts).has_errors());
        let run = run_kernel(&spec, Controller::Prevv(PrevvConfig::prevv64()))
            .expect("clean kernels run");
        prop_assert!(run.matches_golden);
    }
}

// --- PV2xx model checker vs. the dataflow simulator ---------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Model-checker soundness, re-proved dynamically: whenever the PV2xx
    /// pass declares a random kernel free of PV201 deadlocks, PV202
    /// livelocks, and PV203 wedges for a random controller configuration,
    /// the full dataflow circuit under that exact configuration — with
    /// randomized memory latencies and validation/retire bandwidths, each
    /// of which exercises a different arrival interleaving — must run to
    /// completion (no wedge) and match the golden interpreter.
    #[test]
    fn protocol_clean_verdicts_are_confirmed_by_simulation(
        spec in kernel(),
        depth in 6usize..=16,
        forwarding in proptest::arbitrary::any::<bool>(),
        read_latency in 1u32..=3,
        write_latency in 1u32..=2,
        validations_per_cycle in 1u32..=3,
        retire_per_cycle in 1u32..=3,
    ) {
        prop_assume!(!analyze(
            &spec,
            &AnalyzeOptions { depth: 64, ..AnalyzeOptions::default() },
        ).has_errors());
        let cfg = PrevvConfig {
            depth,
            forwarding,
            timing: MemTiming { read_latency, write_latency, ..MemTiming::default() },
            validations_per_cycle,
            retire_per_cycle,
            ..PrevvConfig::default()
        };
        let mut popts = ProtocolOptions::for_config(&cfg);
        popts.max_states = 20_000;
        let result = check_protocol(&spec, &popts);
        prop_assume!(result.is_ok());
        let result = result.unwrap();
        prop_assume!(!result.report.has_errors());

        let run = run_kernel(&spec, Controller::Prevv(cfg))
            .expect("protocol-clean kernels must not wedge in simulation");
        prop_assert!(
            run.matches_golden,
            "protocol-clean kernel diverged from the golden model"
        );
    }

    /// Counterexample fidelity: every trace the model checker emits
    /// replays, step by step through the shared `prevv-core` protocol
    /// state, into exactly the state it advertises — stuck with no enabled
    /// transition (PV201), stuck specifically on queue admission (PV203),
    /// or a squash cycle that re-closes on the same abstract state (PV202).
    #[test]
    fn every_counterexample_replays_to_its_reported_state(
        spec in kernel(),
        depth in 2usize..=5,
        forwarding in proptest::arbitrary::any::<bool>(),
        fake_tokens in proptest::arbitrary::any::<bool>(),
    ) {
        prop_assume!(!analyze(
            &spec,
            &AnalyzeOptions { depth: 64, ..AnalyzeOptions::default() },
        ).has_errors());
        let cfg = PrevvConfig { depth, forwarding, ..PrevvConfig::default() };
        let mut popts = ProtocolOptions::for_config(&cfg);
        popts.fake_tokens = fake_tokens;
        popts.max_states = 20_000;
        let result = check_protocol(&spec, &popts);
        prop_assume!(result.is_ok());
        let result = result.unwrap();
        for cex in &result.counterexamples {
            if !matches!(
                cex.code,
                Code::ProtocolDeadlock | Code::SquashLivelock | Code::QueueWedge
            ) {
                continue;
            }
            let outcome = replay_counterexample(&spec, &popts, cex)
                .expect("emitted counterexamples replay");
            match cex.code {
                Code::ProtocolDeadlock => prop_assert!(
                    outcome.deadlock,
                    "PV201 trace must replay to a stuck state: {}",
                    cex.render()
                ),
                Code::QueueWedge => prop_assert!(
                    outcome.deadlock && outcome.admission_blocked,
                    "PV203 trace must replay to an admission-blocked stuck state: {}",
                    cex.render()
                ),
                Code::SquashLivelock => prop_assert!(
                    outcome.cycle_closed,
                    "PV202 lasso must re-close under replay: {}",
                    cex.render()
                ),
                _ => unreachable!(),
            }
        }
    }
}

// --- symbolic dependence engine vs. brute force -------------------------

prop_compose! {
    /// A random affine access pair over a shared small rectangular domain:
    /// coefficients and bounds are kept small so the brute-force oracle
    /// (full cross product of iteration pairs) stays exact and fast.
    fn affine_pair()(
        levels in 1usize..=3,
    )(
        coeffs_a in proptest::collection::vec(-4i64..=4, levels),
        const_a in -12i64..=12,
        coeffs_b in proptest::collection::vec(-4i64..=4, levels),
        const_b in -12i64..=12,
        los in proptest::collection::vec(-3i64..=2, levels),
        spans in proptest::collection::vec(0i64..=4, levels),
    ) -> (AffineForm, AffineForm, Vec<(i64, i64)>) {
        let bounds = los.iter().zip(&spans).map(|(&lo, &s)| (lo, lo + s)).collect();
        (
            AffineForm { coeffs: coeffs_a, constant: const_a },
            AffineForm { coeffs: coeffs_b, constant: const_b },
            bounds,
        )
    }
}

/// Every iteration row of a rectangular bounds box, in lexicographic order.
fn rows_of(bounds: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut rows = vec![Vec::new()];
    for &(lo, hi) in bounds {
        rows = rows
            .into_iter()
            .flat_map(|r| {
                (lo..=hi).map(move |v| {
                    let mut r = r.clone();
                    r.push(v);
                    r
                })
            })
            .collect();
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    /// Soundness of the GCD/Banerjee engine (the PV001/PV004 fast path):
    /// its verdicts must agree with brute-force enumeration on every random
    /// affine pair. The engine may answer [`PairClass::Unknown`] ("maybe")
    /// whenever it likes, but a [`PairClass::Disjoint`] claim must mean *no*
    /// address collision exists anywhere in the space, and a
    /// [`PairClass::SameIterationOnly`] claim must mean no *cross-iteration*
    /// collision exists.
    #[test]
    fn symbolic_verdicts_agree_with_brute_force(case in affine_pair()) {
        let (a, b, bounds) = case;
        let verdict = classify_pair(&a, &b, &bounds);
        let rows = rows_of(&bounds);
        let mut same_collision = false;
        let mut cross_collision = false;
        for (i, x) in rows.iter().enumerate() {
            let va = a.eval(x);
            for (j, y) in rows.iter().enumerate() {
                if va == b.eval(y) {
                    if i == j {
                        same_collision = true;
                    } else {
                        cross_collision = true;
                    }
                }
            }
        }
        match verdict {
            PairClass::Disjoint => prop_assert!(
                !same_collision && !cross_collision,
                "claimed disjoint but a collision exists: a={a:?} b={b:?} bounds={bounds:?}"
            ),
            PairClass::SameIterationOnly => prop_assert!(
                !cross_collision,
                "claimed same-iteration-only but a cross-iteration collision exists: \
                 a={a:?} b={b:?} bounds={bounds:?}"
            ),
            PairClass::Unknown => {} // "maybe" is always sound
        }
    }

    /// The engine's verdict is invariant under swapping which access is
    /// "first": collision existence is symmetric, so a proof for (a, b)
    /// must not become a *stronger* claim for (b, a).
    #[test]
    fn symbolic_verdicts_are_symmetric(case in affine_pair()) {
        let (a, b, bounds) = case;
        let ab = classify_pair(&a, &b, &bounds);
        let ba = classify_pair(&b, &a, &bounds);
        prop_assert_eq!(ab, ba);
    }
}
