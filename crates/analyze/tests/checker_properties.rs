//! Property-based cross-checks for the verdicts the PV2xx model checker
//! starts from and for the checker itself:
//!
//! 1. the pair verdicts behind the PV3xx separation figures (PV301
//!    proven separate, PV302 must-alias) agree with brute-force
//!    cross-product enumeration of the affine footprints over the
//!    iteration space, and
//! 2. the partial-order-reduced exploration of the PV2xx model checker
//!    reaches a protocol violation **iff** the unreduced BFS does, on
//!    randomized small kernels — the soundness side of the ample-set
//!    argument in DESIGN.md, checked end to end.

use proptest::prelude::*;

use prevv_analyze::{check_protocol, ProtocolOptions};
use prevv_core::PrevvConfig;
use prevv_ir::depend::{analyze as depend_analyze, Proof, StaticMemOp, VerdictClass, ENUM_LIMIT};
use prevv_ir::parse::parse_kernel;
use prevv_ir::symdep::AffineForm;

// ---------------------------------------------------------------------------
// Pair verdicts vs. enumeration.
// ---------------------------------------------------------------------------

/// An affine read-modify-write statement `a[c1*i + d1] = a[c2*i + d2] + k;`,
/// optionally guarded by `i % m == r` (never taken when `r >= m`), the
/// guards value-invariant proofs see through.
#[derive(Debug, Clone)]
struct AffineStmt {
    write_coeff: i64,
    write_off: i64,
    read_coeff: i64,
    read_off: i64,
    guard: Option<(i64, i64)>,
}

fn affine_stmt() -> impl Strategy<Value = AffineStmt> {
    let guard = proptest::option::weighted(0.3, (2i64..4, 0i64..3));
    (0i64..3, 0i64..6, 0i64..3, 0i64..6, guard).prop_map(|(wc, wo, rc, ro, guard)| AffineStmt {
        write_coeff: wc,
        write_off: wo,
        read_coeff: rc,
        read_off: ro,
        guard,
    })
}

fn index_src(coeff: i64, off: i64) -> String {
    match coeff {
        0 => format!("{off}"),
        1 => format!("i + {off}"),
        _ => format!("{coeff} * i + {off}"),
    }
}

/// Renders a kernel of affine statements on one shared array. Array length
/// is chosen so some footprints fit and some wrap (exercising the prover's
/// wrap guard, which must refuse rather than misprove).
fn affine_kernel(len: usize, trip: usize, stmts: &[AffineStmt]) -> String {
    let mut src = format!("int a[{len}];\nfor (int i = 0; i < {trip}; ++i) {{\n");
    for s in stmts {
        if let Some((m, r)) = s.guard {
            src.push_str(&format!("  if (i % {m} == {r})"));
        }
        src.push_str(&format!(
            "  a[{}] = a[{}] + 1;\n",
            index_src(s.write_coeff, s.write_off),
            index_src(s.read_coeff, s.read_off)
        ));
    }
    src.push_str("}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every verdict `depend::analyze` hands out is confirmed by
    /// enumerating the full cross product of iteration pairs, both raw
    /// (the affine forms) and wrapped (the addresses the runtime touches):
    ///
    /// * proved (PV301) → no collision program order does not protect: by
    ///   the affine tests or enumeration, the load is sequenced first and
    ///   no cross-iteration collision exists; by value invariants, none
    ///   between two accesses whose guards fire;
    /// * must-alias (PV302) → the footprints collide in *every* iteration;
    /// * `min_distance` is the minimum iteration distance over the
    ///   collisions program order does not protect.
    ///
    /// The generated kernels of `tests/analyzer_properties.rs` (guards,
    /// nests, opaque and runtime indices) get the same check there.
    #[test]
    fn separation_verdicts_agree_with_enumeration(
        len in 4usize..24,
        trip in 1usize..9,
        stmts in proptest::collection::vec(affine_stmt(), 1..3),
    ) {
        let src = affine_kernel(len, trip, &stmts);
        let Ok(spec) = parse_kernel("prop", &src) else {
            // Statically out-of-bounds shapes are rejected upstream; the
            // prover never sees them.
            return Ok(());
        };
        prop_assert!(spec.iteration_count() <= ENUM_LIMIT);
        let space: Vec<_> = spec.iterations().collect();
        let deps = depend_analyze(&spec);
        prop_assert_eq!(deps.verdicts.len(), deps.pairs.len());
        let levels = spec.levels.len();

        for (pair, verdict) in deps.pairs.iter().zip(&deps.verdicts) {
            let load = &deps.ops[pair.load];
            let store = &deps.ops[pair.store];
            let (Some(lf), Some(sf)) = (
                AffineForm::from_expr(&load.index, levels),
                AffineForm::from_expr(&store.index, levels),
            ) else {
                prop_assert!(
                    verdict.class != VerdictClass::MustAlias
                        && verdict.proof() != Some(Proof::Affine),
                    "non-affine pair got {:?}\n{}", verdict, src
                );
                continue;
            };
            let wrapped = |f: &AffineForm, op: &StaticMemOp, row: &[i64]| {
                spec.resolve_index(op.array, f.eval(row))
            };
            // (load iteration, store iteration, both statements run).
            let mut hits = Vec::new();
            for (i1, r1) in space.iter().enumerate() {
                for (i2, r2) in space.iter().enumerate() {
                    if wrapped(&lf, load, r1) == wrapped(&sf, store, r2) {
                        let runs = spec.body[load.stmt].runs(r1) && spec.body[store.stmt].runs(r2);
                        hits.push((i1, i2, runs));
                    }
                }
            }
            let protected = |i1: usize, i2: usize| i1 == i2 && load.seq < store.seq;
            let brute = hits
                .iter()
                .filter(|&&(i1, i2, _)| !protected(i1, i2))
                .map(|&(i1, i2, _)| i1.abs_diff(i2) as u64)
                .min();
            prop_assert_eq!(verdict.min_distance, brute, "min_distance of {:?}\n{}", verdict, src);
            match verdict.class {
                // Value invariants see guards: two accesses that run collide
                // only within program order.
                VerdictClass::Proved(Proof::Invariant(_)) => prop_assert!(
                    hits.iter().all(|&(i1, i2, runs)| !runs || protected(i1, i2)),
                    "invariant-proved pair collides outside program order {:?}\n{}", hits, src
                ),
                // The affine tests and enumeration ignore guards:
                // same-iteration collisions, load first.
                VerdictClass::Proved(_) => {
                    prop_assert!(load.seq < store.seq, "order protection needs program order");
                    prop_assert!(
                        hits.iter().all(|&(i1, i2, _)| i1 == i2),
                        "order-protected pair collides across iterations {:?}\n{}", hits, src
                    );
                    for (i1, r1) in space.iter().enumerate() {
                        for (i2, r2) in space.iter().enumerate() {
                            prop_assert!(
                                i1 == i2 || lf.eval(r1) != sf.eval(r2),
                                "order-protected pair collides raw across \
                                 iterations {}/{}\n{}", i1, i2, src
                            );
                        }
                    }
                }
                VerdictClass::MustAlias => {
                    for r in &space {
                        prop_assert_eq!(
                            lf.eval(r), sf.eval(r),
                            "PV302 pair must collide in every iteration\n{}", src
                        );
                    }
                }
                VerdictClass::Unknown => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// POR soundness: reduced iff unreduced, end to end.
// ---------------------------------------------------------------------------

/// One statement of the protocol-stress grammar: affine accumulators,
/// shifted streams, and runtime-indexed (data-dependent) hazards — the
/// shapes that drive the premature-queue/arbiter/squash core into its
/// interesting regions (squash livelocks, admission wedges, clean runs).
#[derive(Debug, Clone)]
enum HazardStmt {
    /// `a[0] = a[0] + 1;` — the canonical squash generator.
    Accumulator,
    /// `a[i + d] = a[i] + 1;` — cross-iteration distance-`d` hazard.
    Stream { dist: usize },
    /// `a[b[i]] = a[b[i]] + 1;` — runtime-indexed, never discharged.
    Runtime,
    /// `b[i] = b[i] + 1;` — an independent pair POR can commute.
    Independent,
}

fn hazard_stmt() -> impl Strategy<Value = HazardStmt> {
    prop_oneof![
        Just(HazardStmt::Accumulator),
        (0usize..3).prop_map(|dist| HazardStmt::Stream { dist }),
        Just(HazardStmt::Runtime),
        Just(HazardStmt::Independent),
    ]
}

fn hazard_kernel(trip: usize, stmts: &[HazardStmt]) -> String {
    let max_dist = stmts
        .iter()
        .map(|s| match s {
            HazardStmt::Stream { dist } => *dist,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let len = trip + max_dist;
    let mut src = format!("int a[{len}];\nint b[{trip}];\nfor (int i = 0; i < {trip}; ++i) {{\n");
    for s in stmts {
        let line = match s {
            HazardStmt::Accumulator => "  a[0] = a[0] + 1;\n".to_string(),
            HazardStmt::Stream { dist } => format!("  a[i + {dist}] = a[i] + 1;\n"),
            HazardStmt::Runtime => "  a[b[i]] = a[b[i]] + 1;\n".to_string(),
            HazardStmt::Independent => "  b[i] = b[i] + 1;\n".to_string(),
        };
        src.push_str(&line);
    }
    src.push_str("}\n");
    src
}

/// Sorted violation codes — the observable the reduction must preserve.
fn violation_codes(src: &str, opts: &ProtocolOptions) -> (Vec<String>, usize) {
    let spec = parse_kernel("prop", src).expect("grammar kernels parse");
    let result = check_protocol(&spec, opts).expect("checkable");
    assert!(
        !result.stats.truncated_by_budget,
        "state budget must not truncate the oracle runs\n{src}"
    );
    let mut codes: Vec<String> = result
        .report
        .diagnostics
        .iter()
        .filter(|d| d.severity == prevv_analyze::Severity::Error)
        .map(|d| d.code.to_string())
        .collect();
    codes.sort();
    (codes, result.states)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Ample-set soundness, end to end: on randomized small kernels the
    /// reduced exploration reports exactly the violation codes the
    /// unreduced BFS reports — with never *more* states.
    #[test]
    fn reduced_search_finds_a_violation_iff_unreduced_does(
        trip in 2usize..5,
        stmts in proptest::collection::vec(hazard_stmt(), 1..3),
        forwarding in any::<bool>(),
        depth in 2usize..5,
        iterations in 2u64..4,
    ) {
        let src = hazard_kernel(trip, &stmts);
        let config = PrevvConfig {
            depth,
            forwarding,
            ..PrevvConfig::default()
        };
        let reduced_opts = ProtocolOptions {
            iterations,
            ..ProtocolOptions::for_config(&config)
        };
        let full_opts = ProtocolOptions {
            por: false,
            ..reduced_opts.clone()
        };

        let (reduced, reduced_states) = violation_codes(&src, &reduced_opts);
        let (full, full_states) = violation_codes(&src, &full_opts);
        prop_assert_eq!(
            &reduced, &full,
            "reduced {:?} != unreduced {:?} on\n{}", reduced, full, src
        );
        prop_assert!(
            reduced_states <= full_states,
            "reduction may never grow the graph ({reduced_states} > {full_states})\n{src}"
        );
    }
}
