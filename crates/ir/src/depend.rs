//! Memory dependence analysis: finding the ambiguous pairs (paper Def. 1).
//!
//! The paper uses polyhedral analysis (Polly) to identify load/store pairs
//! that may conflict at runtime. Our kernels have bounded loop nests, so we
//! get an *exact* analysis for affine indices by enumerating each access's
//! address set over the iteration space, and a conservative answer
//! (ambiguous) whenever an index depends on memory contents or opaque
//! runtime functions — precisely the situation of the paper's Fig. 2(b)
//! where `f(x)`/`g(x)` defeat the compiler.

use std::collections::HashSet;

use prevv_dataflow::Value;

use crate::expr::{ArrayId, Expr};
use crate::golden::MemOpKind;
use crate::kernel::KernelSpec;
use crate::symdep::{self, PairClass};

/// Largest iteration-space size the exact (enumerating) analyses run on.
///
/// Up to this size, address sets and collision distances are enumerated
/// exactly: a pair's minimum collision distance takes one sort of the store
/// stream and one binary search per load iteration, `O(N log N)` for `N`
/// iterations. Above it, only the symbolic tests in [`crate::symdep`] apply;
/// whatever they cannot prove stays conservatively ambiguous/validated.
pub const ENUM_LIMIT: usize = 4096;

/// A static memory operation slot: one load or store site in the kernel
/// body. Each executes at most once per iteration (guards can suppress it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticMemOp {
    /// Dense id (index into [`Dependences::ops`]).
    pub id: usize,
    /// Statement this op belongs to.
    pub stmt: usize,
    /// Program-order sequence number within one iteration — the contents of
    /// the paper's order ROM.
    pub seq: u32,
    /// Load or store.
    pub kind: MemOpKind,
    /// Accessed array.
    pub array: ArrayId,
    /// True if the owning statement is guarded (the op may be replaced by a
    /// fake token at runtime, paper §V-C).
    pub guarded: bool,
    /// The index expression of this access.
    pub index: Expr,
}

/// A load/store pair that may conflict at runtime (paper Def. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmbiguousPair {
    /// Op id of the load.
    pub load: usize,
    /// Op id of the store.
    pub store: usize,
}

/// The result of dependence analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependences {
    /// All static memory operations in canonical program order.
    pub ops: Vec<StaticMemOp>,
    /// All ambiguous load/store pairs.
    pub pairs: Vec<AmbiguousPair>,
}

impl Dependences {
    /// Ids of ops participating in at least one ambiguous pair — the ops
    /// that must be routed through a disambiguation controller.
    pub fn ambiguous_ops(&self) -> HashSet<usize> {
        self.pairs.iter().flat_map(|p| [p.load, p.store]).collect()
    }

    /// True if the kernel needs any disambiguation at all.
    pub fn needs_disambiguation(&self) -> bool {
        !self.pairs.is_empty()
    }

    /// Number of static loads.
    pub fn load_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.kind == MemOpKind::Load)
            .count()
    }

    /// Number of static stores.
    pub fn store_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.kind == MemOpKind::Store)
            .count()
    }
}

/// Enumerates the static memory operations of a kernel in canonical order
/// (per statement: index-expression loads, value-expression loads, store).
pub fn enumerate_ops(spec: &KernelSpec) -> Vec<StaticMemOp> {
    let mut ops = Vec::new();
    let mut seq: u32 = 0;
    for (si, stmt) in spec.body.iter().enumerate() {
        let guarded = stmt.guard.is_some();
        for (array, idx) in stmt.index.loads().into_iter().chain(stmt.value.loads()) {
            ops.push(StaticMemOp {
                id: ops.len(),
                stmt: si,
                seq,
                kind: MemOpKind::Load,
                array,
                guarded,
                index: idx.clone(),
            });
            seq += 1;
        }
        ops.push(StaticMemOp {
            id: ops.len(),
            stmt: si,
            seq,
            kind: MemOpKind::Store,
            array: stmt.array,
            guarded,
            index: stmt.index.clone(),
        });
        seq += 1;
    }
    ops
}

/// Runs the dependence analysis.
///
/// Two accesses of the same array form an ambiguous pair when their address
/// sets can intersect. The symbolic GCD/Banerjee tests ([`crate::symdep`])
/// run first and can discharge a pair as disjoint on any space size; for
/// spaces up to [`ENUM_LIMIT`] the address sets of the remaining affine
/// pairs are then enumerated exactly, beyond it they stay conservatively
/// ambiguous. An index that reads memory or applies an opaque function makes
/// the pair ambiguous unconditionally (its addresses are unknowable before
/// runtime). This matches Dynamatic's policy of routing every potentially
/// dependent access through the LSQ.
pub fn analyze(spec: &KernelSpec) -> Dependences {
    let ops = enumerate_ops(spec);
    let small = spec.iteration_count() <= ENUM_LIMIT;
    let space = if small {
        spec.iteration_space()
    } else {
        Vec::new()
    };
    // Precompute each op's address set (None = runtime-dependent or the
    // space is too large to enumerate).
    let addr_sets: Vec<Option<HashSet<usize>>> = ops
        .iter()
        .map(|op| {
            if !small || op.index.is_runtime_dependent() {
                None
            } else {
                Some(
                    space
                        .iter()
                        .map(|row| spec.resolve_index(op.array, eval_affine(&op.index, row)))
                        .collect(),
                )
            }
        })
        .collect();

    let mut pairs = Vec::new();
    for l in &ops {
        if l.kind != MemOpKind::Load {
            continue;
        }
        for s in &ops {
            if s.kind != MemOpKind::Store || s.array != l.array {
                continue;
            }
            let affine = !l.index.is_runtime_dependent() && !s.index.is_runtime_dependent();
            if affine
                && symdep::classify_accesses(spec, &l.index, &s.index, l.array)
                    == PairClass::Disjoint
            {
                // Symbolic fast path: proved never to touch the same cell.
                continue;
            }
            let conflict = match (&addr_sets[l.id], &addr_sets[s.id]) {
                (Some(la), Some(sa)) => !la.is_disjoint(sa),
                _ => true,
            };
            if conflict {
                pairs.push(AmbiguousPair {
                    load: l.id,
                    store: s.id,
                });
            }
        }
    }
    Dependences { ops, pairs }
}

/// The iteration distance profile of one ambiguous pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDistance {
    /// The pair.
    pub pair: AmbiguousPair,
    /// Minimum `|iter(load) − iter(store)|` at which the pair's addresses
    /// collide outside same-iteration program-order protection. `None` means
    /// no such collision exists (proved by enumeration or symbolically), or
    /// that the distance is unknowable statically (runtime-dependent index,
    /// or a space past [`ENUM_LIMIT`] with no symbolic proof). Distance 0
    /// means a same-iteration (ROM-ordered) conflict exists.
    pub min_distance: Option<u64>,
}

/// Minimum unprotected collision distance of one affine pair, exact over
/// the materialized space.
///
/// The store stream's `(address, iteration)` pairs are sorted once; each
/// load iteration then binary-searches its own address for the nearest
/// earlier and nearest later store iteration. A store in the load's own
/// iteration counts (at distance 0) only when it precedes the load in the
/// order ROM — a load sequenced first is protected by program order, so
/// the search steps past it to the next later store. With `N` iterations
/// this costs `O(N log N)` instead of the `N²` of comparing every load
/// iteration with every store iteration, and returns the same minimum.
fn enumerated_min_distance(
    spec: &KernelSpec,
    load: &StaticMemOp,
    store: &StaticMemOp,
    space: &[Vec<Value>],
) -> Option<u64> {
    let addr_of =
        |op: &StaticMemOp, row: &[Value]| spec.resolve_index(op.array, eval_affine(&op.index, row));
    let mut stores: Vec<(usize, usize)> = space
        .iter()
        .enumerate()
        .map(|(i, row)| (addr_of(store, row), i))
        .collect();
    stores.sort_unstable();
    let protected = load.seq < store.seq;
    let mut best: Option<u64> = None;
    for (i, row) in space.iter().enumerate() {
        let addr = addr_of(load, row);
        // First store at this address in an iteration >= i.
        let at = stores.partition_point(|&s| s < (addr, i));
        let earlier = at
            .checked_sub(1)
            .map(|k| stores[k])
            .filter(|&(a, _)| a == addr);
        let mut later = stores.get(at).copied().filter(|&(a, _)| a == addr);
        if protected && later.is_some_and(|(_, j)| j == i) {
            later = stores.get(at + 1).copied().filter(|&(a, _)| a == addr);
        }
        for (_, j) in earlier.into_iter().chain(later) {
            let d = i.abs_diff(j) as u64;
            best = Some(best.map_or(d, |b| b.min(d)));
        }
        if best == Some(0) {
            break;
        }
    }
    best
}

/// Computes the minimum conflict distance of every ambiguous pair.
///
/// Short distances are what make premature execution race (the producer
/// store has not even arrived when the consumer load issues); the sizing
/// model and the dependence predictor both care about this profile. The
/// symbolic tests serve as a fast path where their verdict is exact (a
/// disjoint proof, or a same-iteration-only proof on a program-order
/// protected pair, both meaning "no unprotected collision"); the exact
/// sorted nearest-store search covers the rest up to [`ENUM_LIMIT`]
/// iterations.
pub fn pair_distances(spec: &KernelSpec, deps: &Dependences) -> Vec<PairDistance> {
    let small = spec.iteration_count() <= ENUM_LIMIT;
    let space = if small {
        spec.iteration_space()
    } else {
        Vec::new()
    };
    deps.pairs
        .iter()
        .map(|&pair| {
            let load = &deps.ops[pair.load];
            let store = &deps.ops[pair.store];
            if load.index.is_runtime_dependent() || store.index.is_runtime_dependent() {
                return PairDistance {
                    pair,
                    min_distance: None,
                };
            }
            match symdep::classify_accesses(spec, &load.index, &store.index, load.array) {
                PairClass::Disjoint => {
                    return PairDistance {
                        pair,
                        min_distance: None,
                    }
                }
                PairClass::SameIterationOnly if load.seq < store.seq => {
                    return PairDistance {
                        pair,
                        min_distance: None,
                    }
                }
                _ => {}
            }
            if !small {
                // No symbolic proof and the space is too large to enumerate:
                // the distance is unknowable.
                return PairDistance {
                    pair,
                    min_distance: None,
                };
            }
            PairDistance {
                pair,
                min_distance: enumerated_min_distance(spec, load, store, &space),
            }
        })
        .collect()
}

/// The outcome of [`refine_pairs`]: the ambiguous pairs split into those
/// that still need runtime validation and those proven safe statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refinement {
    /// Pairs that must be validated at runtime.
    pub pairs: Vec<AmbiguousPair>,
    /// Pairs whose every address collision is protected by same-iteration
    /// program order — the controller may bypass the arbiter for them
    /// (the `prevv-analyze` PV004 fast path).
    pub bypassed: Vec<AmbiguousPair>,
}

/// Splits the ambiguous pairs into runtime-validated and provably-safe sets.
///
/// A pair is provably safe when both indices are affine (so its address
/// streams are known exactly) and no collision exists outside same-iteration
/// program order: every time the load and store touch the same cell, the
/// load is earlier in the same iteration's order ROM, which the in-order
/// commit of stores below the completion frontier already serializes. The
/// proof comes from the symbolic tests first (a [`PairClass::Disjoint`]
/// verdict, or [`PairClass::SameIterationOnly`] with the load sequenced
/// before the store — both scale to arbitrarily large spaces), falling back
/// to the exact sorted nearest-store search for spaces up to
/// [`ENUM_LIMIT`]; anything unproved stays conservatively validated.
/// Removing a safe pair from the validated set skips the arbiter's
/// head-to-tail search for its ops without weakening validation of any
/// remaining pair — arriving validated ops are still compared against
/// *all* resident queue records.
pub fn refine_pairs(spec: &KernelSpec, deps: &Dependences) -> Refinement {
    let small = spec.iteration_count() <= ENUM_LIMIT;
    let space = if small {
        spec.iteration_space()
    } else {
        Vec::new()
    };
    let mut pairs = Vec::new();
    let mut bypassed = Vec::new();
    for &pair in &deps.pairs {
        let load = &deps.ops[pair.load];
        let store = &deps.ops[pair.store];
        let affine = !load.index.is_runtime_dependent() && !store.index.is_runtime_dependent();
        let safe = affine
            && match symdep::classify_accesses(spec, &load.index, &store.index, load.array) {
                PairClass::Disjoint => true,
                PairClass::SameIterationOnly => load.seq < store.seq,
                PairClass::Unknown => {
                    small && enumerated_min_distance(spec, load, store, &space).is_none()
                }
            };
        if safe {
            bypassed.push(pair);
        } else {
            pairs.push(pair);
        }
    }
    Refinement { pairs, bypassed }
}

fn eval_affine(e: &Expr, row: &[Value]) -> Value {
    match e {
        Expr::Const(v) => *v,
        Expr::IndVar(l) => row[*l],
        Expr::Binary(op, l, r) => op.apply(eval_affine(l, row), eval_affine(r, row)),
        Expr::Load(..) | Expr::Opaque(..) => {
            unreachable!("runtime-dependent indices are filtered before evaluation")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArrayDecl, Stmt};
    use prevv_dataflow::components::LoopLevel;

    #[test]
    fn disjoint_affine_accesses_are_not_ambiguous() {
        // load a[i], store b[i]: different arrays; store a[i+8] in 0..4 with
        // a of length 16: load touches 0..4, store touches 8..12 — disjoint.
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "disjoint",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(
                a,
                Expr::var(0).add(Expr::lit(8)),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        assert_eq!(d.load_count(), 1);
        assert_eq!(d.store_count(), 1);
        assert!(d.pairs.is_empty(), "disjoint ranges need no disambiguation");
        assert!(!d.needs_disambiguation());
    }

    #[test]
    fn overlapping_affine_accesses_are_ambiguous() {
        // Accumulation c[i] += 1 over a 2-level nest: load and store hit the
        // same address in different flattened iterations.
        let c = ArrayId(0);
        let k = KernelSpec::new(
            "accum",
            vec![LoopLevel::upto(2), LoopLevel::upto(3)],
            vec![ArrayDecl::zeroed("c", 4)],
            vec![Stmt::store(
                c,
                Expr::var(0),
                Expr::load(c, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        assert_eq!(d.pairs.len(), 1);
        let p = d.pairs[0];
        assert_eq!(d.ops[p.load].kind, MemOpKind::Load);
        assert_eq!(d.ops[p.store].kind, MemOpKind::Store);
        assert_eq!(d.ambiguous_ops().len(), 2);
    }

    #[test]
    fn runtime_indices_are_always_ambiguous() {
        use crate::expr::OpaqueFn;
        // Paper Fig. 2(b): a[b[i] + f(x)] += A; b[i + g(x)] += B.
        let a = ArrayId(0);
        let b = ArrayId(1);
        let f = OpaqueFn::new(1, 4);
        let g = OpaqueFn::new(2, 4);
        let a_idx = Expr::load(b, Expr::var(0)).add(Expr::var(0).opaque(f));
        let b_idx = Expr::var(0).add(Expr::var(0).opaque(g));
        let k = KernelSpec::new(
            "fig2b",
            vec![LoopLevel::upto(8)],
            vec![ArrayDecl::zeroed("a", 16), ArrayDecl::zeroed("b", 16)],
            vec![
                Stmt::store(a, a_idx.clone(), Expr::load(a, a_idx).add(Expr::lit(5))),
                Stmt::store(b, b_idx.clone(), Expr::load(b, b_idx).add(Expr::lit(3))),
            ],
        )
        .expect("valid");
        let d = analyze(&k);
        // Loads of `b` inside statement 0's index expressions conflict with
        // statement 1's store to `b`; loads of `a` conflict with the store
        // to `a`.
        assert!(d.needs_disambiguation());
        assert!(
            d.pairs.len() >= 3,
            "expected several ambiguous pairs, got {:?}",
            d.pairs
        );
    }

    #[test]
    fn pair_distances_identify_reuse() {
        // Accumulation over a 2-level nest: the inner loop has 3 iterations,
        // so the same cell is rewritten at distance 1 (adjacent k).
        let c = ArrayId(0);
        let k = KernelSpec::new(
            "accum",
            vec![LoopLevel::upto(2), LoopLevel::upto(3)],
            vec![ArrayDecl::zeroed("c", 4)],
            vec![Stmt::store(
                c,
                Expr::var(0),
                Expr::load(c, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        let dist = pair_distances(&k, &d);
        assert_eq!(dist.len(), 1);
        assert_eq!(dist[0].min_distance, Some(1), "adjacent-iteration reuse");
    }

    #[test]
    fn pair_distances_respect_program_order_within_iteration() {
        // Load strictly before the store of the same address in one
        // iteration, no cross-iteration reuse (address = i over one level):
        // the only collisions are same-iteration load-before-store, which
        // program order protects, but the load also collides with the
        // PREVIOUS iteration's store? No: address differs per iteration.
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "pure",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        // Conservative pair detection flags it (addresses intersect)...
        assert_eq!(d.pairs.len(), 1);
        // ...but the distance analysis proves no protected-order violation
        // can occur.
        let dist = pair_distances(&k, &d);
        assert_eq!(dist[0].min_distance, None);
    }

    #[test]
    fn refinement_bypasses_program_order_protected_pairs() {
        // Same shape as `pair_distances_respect_program_order_within_iteration`:
        // the only collisions are same-iteration load-before-store.
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "pure",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        let r = refine_pairs(&k, &d);
        assert!(r.pairs.is_empty());
        assert_eq!(r.bypassed.len(), 1);
    }

    #[test]
    fn refinement_keeps_cross_iteration_and_runtime_pairs() {
        use crate::expr::OpaqueFn;
        // Cross-iteration reuse (accumulation over a nest) stays validated.
        let c = ArrayId(0);
        let k = KernelSpec::new(
            "accum",
            vec![LoopLevel::upto(2), LoopLevel::upto(3)],
            vec![ArrayDecl::zeroed("c", 4)],
            vec![Stmt::store(
                c,
                Expr::var(0),
                Expr::load(c, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        let r = refine_pairs(&k, &d);
        assert_eq!(r.pairs.len(), 1);
        assert!(r.bypassed.is_empty());

        // Runtime-dependent indices always stay validated, even though their
        // distance is unknowable.
        let a = ArrayId(0);
        let idx = Expr::var(0).opaque(OpaqueFn::new(3, 4));
        let k = KernelSpec::new(
            "rt",
            vec![LoopLevel::upto(8)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                idx.clone(),
                Expr::load(a, idx).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        let r = refine_pairs(&k, &d);
        assert_eq!(r.pairs.len(), d.pairs.len());
        assert!(r.bypassed.is_empty());
    }

    #[test]
    fn runtime_pairs_have_unknown_distance() {
        use crate::expr::OpaqueFn;
        let a = ArrayId(0);
        let idx = Expr::var(0).opaque(OpaqueFn::new(3, 4));
        let k = KernelSpec::new(
            "rt",
            vec![LoopLevel::upto(8)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                idx.clone(),
                Expr::load(a, idx).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        let dist = pair_distances(&k, &d);
        assert!(dist.iter().all(|p| p.min_distance.is_none()));
    }

    #[test]
    fn huge_space_pairs_resolve_symbolically() {
        // 1000 x 1000 = 10^6 iterations — far past ENUM_LIMIT, so only the
        // symbolic engine can decide anything here.
        let a = ArrayId(0);
        let cell = Expr::var(0).mul(Expr::lit(1000)).add(Expr::var(1));
        let k = KernelSpec::new(
            "huge",
            vec![LoopLevel::upto(1000), LoopLevel::upto(1000)],
            vec![ArrayDecl::zeroed("a", 1_000_000)],
            vec![Stmt::store(
                a,
                cell.clone(),
                Expr::load(a, cell).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        assert!(k.iteration_count() > ENUM_LIMIT);
        let d = analyze(&k);
        // Same-cell load/store: conservatively an ambiguous pair...
        assert_eq!(d.pairs.len(), 1);
        // ...whose every collision is same-iteration load-before-store, so
        // the symbolic refinement bypasses it.
        let r = refine_pairs(&k, &d);
        assert!(r.pairs.is_empty());
        assert_eq!(r.bypassed.len(), 1);
        let dist = pair_distances(&k, &d);
        assert_eq!(dist[0].min_distance, None);
    }

    #[test]
    fn huge_space_disjoint_accesses_drop_out_entirely() {
        // Load the lower half, store the upper half of a 2·10^6 array:
        // symbolically disjoint, so not even an ambiguous pair.
        let a = ArrayId(0);
        let cell = Expr::var(0).mul(Expr::lit(1000)).add(Expr::var(1));
        let k = KernelSpec::new(
            "huge_disjoint",
            vec![LoopLevel::upto(1000), LoopLevel::upto(1000)],
            vec![ArrayDecl::zeroed("a", 2_000_000)],
            vec![Stmt::store(
                a,
                cell.clone().add(Expr::lit(1_000_000)),
                Expr::load(a, cell).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        assert!(d.pairs.is_empty());
        assert!(!d.needs_disambiguation());
    }

    #[test]
    fn huge_space_unproved_pairs_stay_validated() {
        // A loop-carried shift (store a[i+1], load a[i]) on a big space: the
        // symbolic engine cannot prove safety and enumeration is off the
        // table, so the pair must stay in the validated set.
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "huge_carried",
            vec![LoopLevel::upto(1_000_000)],
            vec![ArrayDecl::zeroed("a", 1_000_001)],
            vec![Stmt::store(
                a,
                Expr::var(0).add(Expr::lit(1)),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        assert_eq!(d.pairs.len(), 1);
        let r = refine_pairs(&k, &d);
        assert_eq!(r.pairs.len(), 1);
        assert!(r.bypassed.is_empty());
    }

    #[test]
    fn op_enumeration_matches_golden_sequence_numbers() {
        use crate::golden;
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "seqcheck",
            vec![LoopLevel::upto(2)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let ops = enumerate_ops(&k);
        let g = golden::execute(&k);
        // Every traced event's (seq, kind) must match the static table.
        for ev in &g.trace {
            let op = ops
                .iter()
                .find(|o| o.seq == ev.seq)
                .expect("static op exists");
            assert_eq!(op.kind, ev.kind);
            assert_eq!(op.array, ev.array);
        }
    }
}
