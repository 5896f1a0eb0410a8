//! Property-based cross-checks for the abstract interpreter
//! (`prevv_ir::absint`) and the PV5xx lints over it:
//! on randomized small kernels — iteration spaces well inside the
//! `ENUM_LIMIT = 4096` concrete-enumeration budget — every verdict the
//! domains hand out is compared against the golden sequential execution,
//! the collecting semantics they over-approximate:
//!
//! 1. guard verdicts are definite (`NeverTaken` statements never execute,
//!    `AlwaysTaken`/unguarded statements execute every iteration);
//! 2. the per-statement value/index abstractions and the post-fixpoint
//!    array abstractions contain every concretely stored value — the
//!    soundness of the interval×congruence transfer and the widening;
//! 3. `occupancy_bound` dominates the concrete memory-event count;
//! 4. the PV500/PV501 lints agree with the trace (a PV501 statement has
//!    zero events; a PV500 proof implies a concrete out-of-bounds raw
//!    store index); and
//! 5. every invariant proof `upgrade_verdicts` gives over the hull holds on
//!    the trace, with every pair's earlier proof cleared so each one faces
//!    the value domains: disjoint pairs never collide,
//!    same-iteration-ordered pairs only collide within an iteration,
//!    dead-code pairs have a side with no events at all.

use proptest::prelude::*;

use prevv_analyze::{self as analyze, occupancy_bound, AnalyzeOptions, Code};
use prevv_ir::absint::{analyze_kernel, hull_box, upgrade_verdicts, GuardStatus};
use prevv_ir::depend::{
    analyze as depend_analyze, Dependences, DischargeReason, Proof, VerdictClass, ENUM_LIMIT,
};
use prevv_ir::golden::{self, MemOpKind};
use prevv_ir::parse::parse_kernel;

// ---------------------------------------------------------------------------
// Kernel generator: single-loop kernels storing into `a`, with a store-free
// index array `b` whose initializer sometimes reaches out of `a`'s bounds —
// the PV500 shape — plus guards that are infeasible, total, or data-striding.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GenGuard {
    /// Unguarded.
    None,
    /// `if (i < k)` — infeasible when `k <= 0`, total when `k >= trip`.
    Lt(i64),
    /// `if (i % m == r)` — the stride idiom the congruence domain refines.
    Stride { m: i64, r: i64 },
}

#[derive(Debug, Clone)]
enum GenIndex {
    /// `a[c*i + d]` — affine, PV001 territory.
    Affine { c: i64, d: i64 },
    /// `a[b[i]]` — runtime-indirect, where only the value analysis sees.
    Indirect,
}

#[derive(Debug, Clone)]
enum GenVal {
    Const(i64),
    /// `i`.
    Var,
    /// `a[<store index>] + 1` — a read-modify-write accumulator.
    AccA,
    /// `b[i] + 1`.
    LoadB,
}

#[derive(Debug, Clone)]
struct GenStmt {
    guard: GenGuard,
    index: GenIndex,
    val: GenVal,
}

fn gen_guard() -> impl Strategy<Value = GenGuard> {
    prop_oneof![
        Just(GenGuard::None),
        Just(GenGuard::None),
        (0i64..20).prop_map(GenGuard::Lt),
        ((1i64..4), (0i64..4)).prop_map(|(m, r)| GenGuard::Stride { m, r: r % m }),
    ]
}

fn gen_stmt() -> impl Strategy<Value = GenStmt> {
    let index = prop_oneof![
        ((0i64..3), (0i64..4)).prop_map(|(c, d)| GenIndex::Affine { c, d }),
        Just(GenIndex::Indirect),
    ];
    let val = prop_oneof![
        (0i64..9).prop_map(GenVal::Const),
        Just(GenVal::Var),
        Just(GenVal::AccA),
        Just(GenVal::LoadB),
    ];
    (gen_guard(), index, val).prop_map(|(guard, index, val)| GenStmt { guard, index, val })
}

fn index_src(idx: &GenIndex) -> String {
    match idx {
        GenIndex::Affine { c: 0, d } => format!("{d}"),
        GenIndex::Affine { c: 1, d } => format!("i + {d}"),
        GenIndex::Affine { c, d } => format!("{c} * i + {d}"),
        GenIndex::Indirect => "b[i]".to_string(),
    }
}

fn render(la: usize, trip: usize, b_vals: &[i64], stmts: &[GenStmt]) -> String {
    let init = b_vals
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let mut src = format!(
        "int a[{la}];\nint b[{trip}] = {{ {init} }};\nfor (int i = 0; i < {trip}; ++i) {{\n"
    );
    for s in stmts {
        let guard = match &s.guard {
            GenGuard::None => String::new(),
            GenGuard::Lt(k) => format!("if (i < {k}) "),
            GenGuard::Stride { m, r } => format!("if (i % {m} == {r}) "),
        };
        let idx = index_src(&s.index);
        let val = match &s.val {
            GenVal::Const(c) => c.to_string(),
            GenVal::Var => "i".to_string(),
            GenVal::AccA => format!("a[{idx}] + 1"),
            GenVal::LoadB => "b[i] + 1".to_string(),
        };
        src.push_str(&format!("  {guard}a[{idx}] = {val};\n"));
    }
    src.push_str("}\n");
    src
}

/// Concrete truth of a generated guard at iteration `i`.
fn guard_true(g: &GenGuard, i: i64) -> bool {
    match g {
        GenGuard::None => true,
        GenGuard::Lt(k) => i < *k,
        GenGuard::Stride { m, r } => i % m == *r,
    }
}

/// The grammar is not vacuous: hand-picked parameter points hit the PV500,
/// PV501 and discharge paths the property then checks on random draws.
#[test]
fn generator_exercises_the_interesting_verdicts() {
    // Indirect store through an initializer that reaches 5 >= len(a) = 4.
    let oob = render(
        4,
        4,
        &[1, 2, 5, 0],
        &[GenStmt {
            guard: GenGuard::None,
            index: GenIndex::Indirect,
            val: GenVal::Var,
        }],
    );
    let report = analyze::lint_source("prop", &oob, &AnalyzeOptions::default());
    assert_eq!(report.with_code(Code::RangeOutOfBounds).len(), 1, "{oob}");

    // `if (i < 0)` is infeasible over `0 <= i < 4`.
    let dead = render(
        4,
        4,
        &[0, 1, 2, 3],
        &[
            GenStmt {
                guard: GenGuard::Lt(0),
                index: GenIndex::Affine { c: 1, d: 0 },
                val: GenVal::Var,
            },
            GenStmt {
                guard: GenGuard::None,
                index: GenIndex::Affine { c: 1, d: 0 },
                val: GenVal::Var,
            },
        ],
    );
    let report = analyze::lint_source("prop", &dead, &AnalyzeOptions::default());
    assert_eq!(report.with_code(Code::InfeasibleGuard).len(), 1, "{dead}");

    // `a[i] = a[i] + 1` discharges as same-iteration-ordered.
    let acc = render(
        8,
        8,
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[GenStmt {
            guard: GenGuard::None,
            index: GenIndex::Affine { c: 1, d: 0 },
            val: GenVal::AccA,
        }],
    );
    let spec = parse_kernel("prop", &acc).expect("parses");
    let deps = hull_upgraded(&spec).expect("nonempty space");
    let ordered = Some(Proof::Invariant(DischargeReason::SameIterationOrdered));
    assert!(
        deps.verdicts.iter().any(|v| v.proof() == ordered),
        "accumulator pair must discharge: {:?}\n{acc}",
        deps.verdicts
    );
}

/// Dependence verdicts with every proof cleared, then upgraded by the value
/// domains over the iteration hull: each pair faces the invariants alone,
/// even those the affine tests or enumeration prove first.
fn hull_upgraded(spec: &prevv_ir::KernelSpec) -> Option<Dependences> {
    let mut deps = depend_analyze(spec);
    for v in &mut deps.verdicts {
        v.class = VerdictClass::Unknown;
    }
    upgrade_verdicts(spec, &mut deps, &hull_box(spec)?);
    Some(deps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn absint_verdicts_agree_with_concrete_enumeration(
        la in 4usize..16,
        trip in 1usize..17,
        bseed in proptest::collection::vec(0u64..1_000_000, 16),
        stmts in proptest::collection::vec(gen_stmt(), 1..4),
    ) {
        // `b` holds `trip` values in `-1 ..= la + 1`: some in `a`'s bounds,
        // some past either end — the raw indices the PV500 proof is about.
        let b_vals: Vec<i64> = (0..trip)
            .map(|i| (bseed[i % bseed.len()] % (la as u64 + 3)) as i64 - 1)
            .collect();
        let src = render(la, trip, &b_vals, &stmts);
        let Ok(spec) = parse_kernel("prop", &src) else {
            // Statically out-of-bounds affine shapes are rejected upstream.
            return Ok(());
        };
        prop_assume!(spec.iteration_count() <= ENUM_LIMIT);

        let g = golden::execute(&spec);
        let inv = analyze_kernel(&spec);

        // Per-statement store sequence numbers (the trace's port numbering).
        let store_seq: Vec<u32> = spec
            .body
            .iter()
            .scan(0u32, |acc, stmt| {
                *acc += stmt.mem_op_count() as u32;
                Some(*acc - 1)
            })
            .collect();
        let stores_of = |si: usize| {
            let want = store_seq[si];
            g.trace
                .iter()
                .filter(move |e| e.kind == MemOpKind::Store && e.seq == want)
        };

        // 1. Guard verdicts are definite.
        for (si, sinv) in inv.stmts.iter().enumerate() {
            let execs = stores_of(si).count();
            match sinv.guard {
                GuardStatus::NeverTaken => prop_assert_eq!(
                    execs, 0,
                    "NeverTaken statement {si} executed\n{}", src
                ),
                GuardStatus::None | GuardStatus::AlwaysTaken => prop_assert_eq!(
                    execs, spec.iteration_count(),
                    "total statement {si} skipped an iteration\n{}", src
                ),
                GuardStatus::Mixed => {}
            }
        }

        // 2. Abstraction soundness: stored values and (in-bounds) indices
        // land inside the statement invariants; final contents inside the
        // post-fixpoint array abstractions.
        for (si, sinv) in inv.stmts.iter().enumerate() {
            let len = spec.arrays[spec.body[si].array.0].len as i64;
            let in_bounds = sinv.index.iv.lo >= 0 && sinv.index.iv.hi < len;
            for e in stores_of(si) {
                prop_assert!(
                    sinv.value.contains(e.value),
                    "stored value {} escapes stmt {si} abstraction {:?}\n{}",
                    e.value, sinv.value, src
                );
                if in_bounds {
                    // Raw abstraction within bounds => resolved == raw.
                    prop_assert!(
                        sinv.index.contains(e.index as i64),
                        "store index {} escapes stmt {si} abstraction {:?}\n{}",
                        e.index, sinv.index, src
                    );
                }
            }
        }
        for (ai, arr) in inv.env.arrays.iter().enumerate() {
            for &v in &g.arrays[ai] {
                prop_assert!(
                    arr.val.contains(v),
                    "final value {v} of array {ai} escapes {:?}\n{}", arr.val, src
                );
            }
            if arr.store_free {
                prop_assert!(
                    !g.trace
                        .iter()
                        .any(|e| e.kind == MemOpKind::Store && e.array.0 == ai),
                    "store-free array {ai} was stored to\n{src}"
                );
            }
        }

        // 3. The static occupancy bound dominates the concrete event count.
        prop_assert!(
            occupancy_bound(&spec) >= g.trace.len(),
            "occupancy bound {} below concrete trace {}\n{}",
            occupancy_bound(&spec), g.trace.len(), src
        );

        // 4. PV500/PV501 agree with the trace.
        let report = analyze::lint_source("prop", &src, &AnalyzeOptions::default());
        let dead = inv
            .stmts
            .iter()
            .filter(|s| s.guard == GuardStatus::NeverTaken)
            .count();
        prop_assert_eq!(
            report.with_code(Code::InfeasibleGuard).len(), dead,
            "one PV501 per provably-dead statement\n{}", src
        );
        if !report.with_code(Code::RangeOutOfBounds).is_empty() {
            // A definite proof needs a concrete out-of-bounds raw index on
            // an executed indirect store (`b` is store-free by grammar).
            let witness = stmts.iter().any(|s| {
                matches!(s.index, GenIndex::Indirect)
                    && (0..trip as i64).any(|i| {
                        guard_true(&s.guard, i)
                            && !(0..la as i64).contains(&b_vals[i as usize])
                    })
            });
            prop_assert!(witness, "PV500 without a concrete witness\n{src}");
        }

        // 5. Every invariant proof holds on the trace.
        let Some(deps) = hull_upgraded(&spec) else { return Ok(()); };
        for (pair, verdict) in deps.pairs.iter().zip(&deps.verdicts) {
            let Some(Proof::Invariant(reason)) = verdict.proof() else { continue };
            let loads: Vec<_> = g
                .trace
                .iter()
                .filter(|e| e.kind == MemOpKind::Load && e.seq == deps.ops[pair.load].seq)
                .collect();
            let stores: Vec<_> = g
                .trace
                .iter()
                .filter(|e| e.kind == MemOpKind::Store && e.seq == deps.ops[pair.store].seq)
                .collect();
            match reason {
                DischargeReason::DisjointValues => {
                    for l in &loads {
                        for s in &stores {
                            prop_assert!(
                                l.index != s.index,
                                "disjoint-discharged pair collides at {}\n{}", l.index, src
                            );
                        }
                    }
                }
                DischargeReason::SameIterationOrdered => {
                    for l in &loads {
                        for s in &stores {
                            prop_assert!(
                                l.index != s.index || l.iter == s.iter,
                                "same-iteration-discharged pair collides across \
                                 iterations {}/{}\n{}", l.iter, s.iter, src
                            );
                        }
                    }
                }
                DischargeReason::DeadCode => prop_assert!(
                    loads.is_empty() || stores.is_empty(),
                    "dead-code-discharged pair has events on both sides\n{src}"
                ),
            }
        }
    }
}
