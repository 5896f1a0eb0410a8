//! Differential test of the exact collision search in `prevv::ir::depend`.
//!
//! `depend::analyze` finds each affine pair's minimum unprotected collision
//! distance with a sorted nearest-store search and records it in the pair's
//! verdict. This suite re-derives every answer with the brute-force
//! reference — compare every load iteration with every store iteration —
//! and requires identical `Option<u64>` distances and identical
//! validated/proved splits on the paper kernels, on generated kernels, and
//! on hand-built edge cases. A pair the reference leaves validated may
//! still carry a value-invariant proof, whose soundness
//! `tests/analyzer_properties.rs` checks against brute force.

use prevv::dataflow::components::LoopLevel;
use prevv::ir::depend::{self, AmbiguousPair, Proof, StaticMemOp, ENUM_LIMIT};
use prevv::ir::{ArrayDecl, ArrayId, BinOp, Expr, KernelSpec, Stmt};
use prevv::kernels::{gen, paper};

fn eval_affine(e: &Expr, row: &[i64]) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::IndVar(l) => row[*l],
        Expr::Binary(op, l, r) => op.apply(eval_affine(l, row), eval_affine(r, row)),
        _ => panic!("the reference only evaluates affine expressions"),
    }
}

/// Brute-force minimum distance over every (load iteration, store
/// iteration) pair, skipping same-iteration collisions where the load is
/// sequenced before the store.
fn brute_min_distance(spec: &KernelSpec, load: &StaticMemOp, store: &StaticMemOp) -> Option<u64> {
    let space: Vec<_> = spec.iterations().collect();
    let addrs = |op: &StaticMemOp| -> Vec<usize> {
        space
            .iter()
            .map(|row| spec.resolve_index(op.array, eval_affine(&op.index, row)))
            .collect()
    };
    let (laddrs, saddrs) = (addrs(load), addrs(store));
    let mut best: Option<u64> = None;
    for (i1, &la) in laddrs.iter().enumerate() {
        for (i2, &sa) in saddrs.iter().enumerate() {
            if la != sa || (i1 == i2 && load.seq < store.seq) {
                continue;
            }
            let d = i1.abs_diff(i2) as u64;
            best = Some(best.map_or(d, |b| b.min(d)));
        }
    }
    best
}

/// Checks the verdicts' distances and proofs against the reference and
/// returns the per-pair distances for further assertions.
fn assert_matches_reference(spec: &KernelSpec) -> Vec<Option<u64>> {
    assert!(
        spec.iteration_count() <= ENUM_LIMIT,
        "{}: the reference needs an enumerable space",
        spec.name
    );
    let deps = depend::analyze(spec);
    // Runtime-dependent indices make the distance unknowable statically.
    let runtime = |p: AmbiguousPair| {
        deps.ops[p.load].index.is_runtime_dependent()
            || deps.ops[p.store].index.is_runtime_dependent()
    };
    let expected: Vec<Option<u64>> = deps
        .pairs
        .iter()
        .map(|&p| {
            if runtime(p) {
                None
            } else {
                brute_min_distance(spec, &deps.ops[p.load], &deps.ops[p.store])
            }
        })
        .collect();

    let got: Vec<Option<u64>> = deps.verdicts.iter().map(|v| v.min_distance).collect();
    assert_eq!(got, expected, "{}: min_distance", spec.name);

    let (mut validated, mut bypassed) = (Vec::new(), Vec::new());
    for ((&pair, dist), v) in deps.pairs.iter().zip(&expected).zip(&deps.verdicts) {
        let protected = !runtime(pair) && dist.is_none();
        let invariant = matches!(v.proof(), Some(Proof::Invariant(_)));
        assert!(
            !(protected && invariant),
            "{}: {pair:?} is order-protected, so enumeration proves it first",
            spec.name
        );
        if protected || invariant {
            bypassed.push(pair);
        } else {
            validated.push(pair);
        }
    }
    let (got_validated, got_bypassed) = split(&deps);
    assert_eq!(got_validated, validated, "{}: validated pairs", spec.name);
    assert_eq!(got_bypassed, bypassed, "{}: bypassed pairs", spec.name);
    expected
}

/// The pairs synthesis validates and the ones it bypasses, in pair order.
fn split(deps: &depend::Dependences) -> (Vec<AmbiguousPair>, Vec<AmbiguousPair>) {
    let (proved, open): (Vec<_>, Vec<_>) = deps
        .pairs
        .iter()
        .zip(&deps.verdicts)
        .partition(|(_, v)| v.proof().is_some());
    let pairs = |v: Vec<(&AmbiguousPair, _)>| v.into_iter().map(|(&p, _)| p).collect();
    (pairs(open), pairs(proved))
}

#[test]
fn paper_kernels_match_brute_force() {
    for spec in paper::all_default() {
        assert_matches_reference(&spec);
    }
}

#[test]
fn generated_kernels_match_brute_force() {
    for seed in 0..192u64 {
        assert_matches_reference(&gen::generate(seed, &gen::GenConfig::default()));
    }
    for seed in 0..128u64 {
        assert_matches_reference(&gen::generate(seed, &gen::GenConfig::corpus()));
    }
}

/// One-level kernel over `0..n` with the given body.
fn one_level(name: &str, n: i64, arrays: Vec<ArrayDecl>, body: Vec<Stmt>) -> KernelSpec {
    KernelSpec::new(name, vec![LoopLevel::upto(n)], arrays, body).expect("valid edge-case kernel")
}

#[test]
fn same_iteration_load_before_store_is_bypassed() {
    // a[i] = a[i] + 1: the load of iteration i reads the cell its own store
    // writes later in the same iteration, and no other iteration's.
    let a = ArrayId(0);
    let spec = one_level(
        "load_first",
        8,
        vec![ArrayDecl::zeroed("a", 8)],
        vec![Stmt::store(
            a,
            Expr::var(0),
            Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
        )],
    );
    assert_eq!(assert_matches_reference(&spec), vec![None]);
    let deps = depend::analyze(&spec);
    assert_eq!(split(&deps).1, deps.pairs);
}

#[test]
fn same_iteration_store_before_load_is_distance_zero() {
    // a[i] = 1; b[i] = a[i]: the load reads the cell the same iteration
    // stored earlier, which program order does not protect.
    let (a, b) = (ArrayId(0), ArrayId(1));
    let spec = one_level(
        "store_first",
        8,
        vec![ArrayDecl::zeroed("a", 8), ArrayDecl::zeroed("b", 8)],
        vec![
            Stmt::store(a, Expr::var(0), Expr::lit(1)),
            Stmt::store(b, Expr::var(0), Expr::load(a, Expr::var(0))),
        ],
    );
    assert_eq!(assert_matches_reference(&spec), vec![Some(0)]);
    let deps = depend::analyze(&spec);
    assert!(split(&deps).1.is_empty());
}

#[test]
fn protected_nearest_store_is_skipped_for_the_next_one() {
    // a[i % 4] = a[i % 4] + 1 over 12 iterations: three stores hit each
    // cell, four iterations apart. The nearest store to every load is its
    // own iteration's, which program order protects, so the distance is 4.
    let a = ArrayId(0);
    let cell = || Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(4));
    let spec = one_level(
        "protected_nearest",
        12,
        vec![ArrayDecl::zeroed("a", 4)],
        vec![Stmt::store(
            a,
            cell(),
            Expr::load(a, cell()).add(Expr::lit(1)),
        )],
    );
    assert_eq!(assert_matches_reference(&spec), vec![Some(4)]);
}

#[test]
fn negative_indices_wrap_before_matching() {
    // b[i] = a[i - 5]; a[i] = 1 with a of length 8: without the wrap the
    // load would only meet a store for i >= 5 (distance 5), but the
    // Euclidean wrap of `resolve_index` sends iterations 0..5 to cells
    // 3..8, which iteration i + 3 stores, so the true distance is 3.
    let (a, b) = (ArrayId(0), ArrayId(1));
    let spec = one_level(
        "wrapping",
        8,
        vec![ArrayDecl::zeroed("a", 8), ArrayDecl::zeroed("b", 8)],
        vec![
            Stmt::store(
                b,
                Expr::var(0),
                Expr::load(a, Expr::var(0).sub(Expr::lit(5))),
            ),
            Stmt::store(a, Expr::var(0), Expr::lit(1)),
        ],
    );
    assert_eq!(assert_matches_reference(&spec), vec![Some(3)]);
}
