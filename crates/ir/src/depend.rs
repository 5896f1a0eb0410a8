//! Memory dependence analysis: finding the ambiguous pairs (paper Def. 1).
//!
//! The paper uses polyhedral analysis (Polly) to identify load/store pairs
//! that may conflict at runtime. Our kernels have bounded loop nests, so we
//! get an *exact* analysis for affine indices by enumerating each access's
//! address set over the iteration space, and a conservative answer
//! (ambiguous) whenever an index depends on memory contents or opaque
//! runtime functions — precisely the situation of the paper's Fig. 2(b)
//! where `f(x)`/`g(x)` defeat the compiler.
//!
//! "Does this pair need the arbiter?" is answered here, once per pair, as a
//! [`PairVerdict`]; synthesis, the lints, the throughput model and the
//! model checker all read that verdict instead of re-deriving it.

use std::collections::HashSet;

use crate::absint;
use crate::expr::{ArrayId, Expr};
use crate::golden::MemOpKind;
use crate::kernel::KernelSpec;
use crate::symdep::{self, AffineForm, PairClass};

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

/// Why value invariants (the [`absint`] interpreter) proved a pair safe over
/// a box of induction values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DischargeReason {
    /// The guard-refined wrapped footprints share no address (interval or
    /// congruence disjointness).
    DisjointValues,
    /// Both accesses follow the same address function over the domain, the
    /// function is injective and never wraps, and the load is sequenced
    /// before the store — every collision is same-iteration and already
    /// serialized by the in-order commit.
    SameIterationOrdered,
    /// One side's guard is infeasible over the domain: the op only ever
    /// issues fake tokens, which carry no address.
    DeadCode,
}

impl DischargeReason {
    /// Human-readable clause for diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            DischargeReason::DisjointValues => {
                "guard-refined value footprints are disjoint (interval/congruence)"
            }
            DischargeReason::SameIterationOrdered => {
                "addresses provably coincide only same-iteration, load before store"
            }
            DischargeReason::DeadCode => "one access is guarded by an infeasible predicate",
        }
    }
}

/// The method that proved a pair safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// The symbolic GCD/Banerjee tests of [`crate::symdep`] (any space size).
    Affine,
    /// Exact enumeration of both address streams (spaces up to
    /// [`ENUM_LIMIT`]).
    Enumerated,
    /// Value invariants ([`absint`]) over the iteration hull, the last step
    /// of [`analyze`]; the model checker adds more over its horizon box.
    Invariant(DischargeReason),
}

/// What is known about one ambiguous pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictClass {
    /// Proved: the pair never needs the arbiter. Dependence analysis drops
    /// outright-disjoint pairs, so its proofs ([`Proof::Affine`],
    /// [`Proof::Enumerated`]) say every collision is same-iteration with the
    /// load sequenced before the store, which the in-order commit already
    /// serializes; a [`Proof::Invariant`]'s [`DischargeReason`] says whether
    /// the footprints are disjoint or ordered.
    Proved(Proof),
    /// The load and store follow the same affine index function, so they
    /// collide on every traversal: the arbiter's validation is live.
    MustAlias,
    /// No proof either way; the pair stays with the dynamic arbiter.
    Unknown,
}

/// The one verdict on an ambiguous pair that every consumer reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairVerdict {
    /// The verdict proper.
    pub class: VerdictClass,
    /// Minimum `|iter(load) − iter(store)|` at which the pair's addresses
    /// collide outside same-iteration program-order protection. `None`
    /// means no such collision exists (the pair is order-protected), or that
    /// the distance is unknowable statically (runtime-dependent index, or a
    /// space past [`ENUM_LIMIT`]). Distance 0 means a same-iteration
    /// (ROM-ordered) conflict exists.
    pub min_distance: Option<u64>,
}

impl PairVerdict {
    /// The proof that the pair never needs the arbiter, if any.
    pub fn proof(&self) -> Option<Proof> {
        match self.class {
            VerdictClass::Proved(p) => Some(p),
            VerdictClass::MustAlias | VerdictClass::Unknown => None,
        }
    }
}

/// The result of dependence analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependences {
    /// All static memory operations in canonical program order.
    pub ops: Vec<StaticMemOp>,
    /// All ambiguous load/store pairs.
    pub pairs: Vec<AmbiguousPair>,
    /// One verdict per pair, index-aligned with [`Self::pairs`].
    pub verdicts: Vec<PairVerdict>,
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

    /// The pairs synthesis validates, with their verdicts: every pair
    /// without a proof ([`PairVerdict::proof`]).
    pub fn validated(&self) -> impl Iterator<Item = (AmbiguousPair, &PairVerdict)> {
        let pairs = self.pairs.iter().copied().zip(&self.verdicts);
        pairs.filter(|(_, v)| v.proof().is_none())
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

/// Runs the dependence analysis and decides every ambiguous pair once.
///
/// Two accesses of the same array form an ambiguous pair when their address
/// sets can intersect. An index that reads memory or applies an opaque
/// function makes the pair ambiguous unconditionally (its addresses are
/// unknowable before runtime). This matches Dynamatic's policy of routing
/// every potentially dependent access through the LSQ.
///
/// Each pair then gets its [`PairVerdict`] from one prover chain:
///
/// 1. the symbolic GCD/Banerjee tests ([`crate::symdep`]), on any space
///    size: a disjoint proof drops the pair, a same-iteration-only proof
///    with the load sequenced first makes it [`Proof::Affine`]
///    order-protected;
/// 2. for statically evaluable indices on spaces up to [`ENUM_LIMIT`], the
///    exact collision search: it drops pairs whose address sets never meet,
///    yields the minimum unprotected distance, and makes the pair
///    [`Proof::Enumerated`] order-protected when no unprotected collision
///    exists;
/// 3. for pairs still unproved, the must-alias check (equal affine forms);
/// 4. over the iteration hull, the value invariants of [`absint`]
///    ([`absint::upgrade_verdicts`]): a must-alias or unknown pair whose
///    guard-refined footprints are disjoint, or coincide only
///    same-iteration with the load first, becomes [`Proof::Invariant`].
///
/// An order-protected pair never needs the arbiter: removing it from the
/// validated set skips the arbiter's head-to-tail search for its ops without
/// weakening validation of any remaining pair, since arriving validated ops
/// are still compared against *all* resident queue records.
pub fn analyze(spec: &KernelSpec) -> Dependences {
    let ops = enumerate_ops(spec);
    let levels = spec.levels.len();
    let small = spec.iteration_count() <= ENUM_LIMIT;
    // Each op's address stream in iteration order (None = runtime-dependent
    // index or a space too large to enumerate); stores also keep theirs as
    // sorted `(address, iteration)` pairs for the nearest-store search.
    let streams: Vec<Option<Vec<usize>>> = ops
        .iter()
        .map(|op| {
            (small && !op.index.is_runtime_dependent()).then(|| {
                let mut space = spec.iterations();
                let mut addrs = Vec::new();
                while let Some(row) = space.next_row() {
                    addrs.push(spec.resolve_index(op.array, op.index.eval_affine(row)));
                }
                addrs
            })
        })
        .collect();
    let sorted: Vec<Option<Vec<(usize, usize)>>> = ops
        .iter()
        .zip(&streams)
        .map(|(op, stream)| {
            let addrs = stream.as_ref().filter(|_| op.kind == MemOpKind::Store)?;
            let mut s: Vec<(usize, usize)> = addrs.iter().copied().zip(0..).collect();
            s.sort_unstable();
            Some(s)
        })
        .collect();

    let mut pairs = Vec::new();
    let mut verdicts = Vec::new();
    for l in ops.iter().filter(|o| o.kind == MemOpKind::Load) {
        for s in &ops {
            if s.kind != MemOpKind::Store || s.array != l.array {
                continue;
            }
            let protected = l.seq < s.seq;
            let affine = !l.index.is_runtime_dependent() && !s.index.is_runtime_dependent();
            let symbolic = if affine {
                symdep::classify_accesses(spec, &l.index, &s.index, l.array)
            } else {
                PairClass::Unknown
            };
            if symbolic == PairClass::Disjoint {
                continue;
            }
            // `Some(d)`: enumerated, with minimum unprotected distance `d`.
            let enumerated = match (&streams[l.id], &sorted[s.id]) {
                (Some(loads), Some(stores)) => match collisions(loads, stores, protected) {
                    None => continue, // the address sets never meet
                    found => found,
                },
                _ => None,
            };
            let class = if symbolic == PairClass::SameIterationOnly && protected {
                VerdictClass::Proved(Proof::Affine)
            } else if enumerated == Some(None) {
                VerdictClass::Proved(Proof::Enumerated)
            } else if must_alias(l, s, levels) {
                VerdictClass::MustAlias
            } else {
                VerdictClass::Unknown
            };
            let min_distance = match class {
                VerdictClass::Proved(_) => None,
                _ => enumerated.flatten(),
            };
            pairs.push(AmbiguousPair {
                load: l.id,
                store: s.id,
            });
            verdicts.push(PairVerdict {
                class,
                min_distance,
            });
        }
    }
    let mut deps = Dependences {
        ops,
        pairs,
        verdicts,
    };
    if let Some(hull) = absint::hull_box(spec) {
        absint::upgrade_verdicts(spec, &mut deps, &hull);
    }
    deps
}

/// Identical affine index functions collide on every traversal, even when
/// the raw range wraps: equal raw values stay equal after `rem_euclid`.
fn must_alias(load: &StaticMemOp, store: &StaticMemOp, levels: usize) -> bool {
    match (
        AffineForm::from_expr(&load.index, levels),
        AffineForm::from_expr(&store.index, levels),
    ) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// Exact collision search of one pair over the enumerated address streams: `None`
/// when the load's and the store's address sets never meet, otherwise the
/// minimum `|iter(load) − iter(store)|` over the collisions program order
/// does not protect (`Some(None)` when it protects them all).
///
/// `loads` is the load's address per iteration; `stores` is the store
/// stream's sorted `(address, iteration)` pairs. Each load iteration
/// binary-searches its own address for the nearest earlier and nearest
/// later store iteration. A store in the load's own iteration counts (at
/// distance 0) only when it precedes the load in the order ROM — with
/// `protected` (load sequenced first) the search steps past it to the next
/// later store. With `N` iterations this costs `O(N log N)` instead of the
/// `N²` of comparing every load iteration with every store iteration, and
/// returns the same minimum.
fn collisions(loads: &[usize], stores: &[(usize, usize)], protected: bool) -> Option<Option<u64>> {
    let mut collides = false;
    let mut best: Option<u64> = None;
    for (i, &addr) in loads.iter().enumerate() {
        // First store at this address in an iteration >= i.
        let at = stores.partition_point(|&s| s < (addr, i));
        let earlier = at
            .checked_sub(1)
            .map(|k| stores[k])
            .filter(|&(a, _)| a == addr);
        let mut later = stores.get(at).copied().filter(|&(a, _)| a == addr);
        collides |= earlier.is_some() || later.is_some();
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
    collides.then_some(best)
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
        assert_eq!(d.ops.len(), 2, "one load, one store");
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
        assert_eq!(d.verdicts.len(), 1);
        assert_eq!(
            d.verdicts[0].min_distance,
            Some(1),
            "adjacent-iteration reuse"
        );
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
        assert_eq!(d.verdicts[0].min_distance, None);
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
        assert_eq!(d.verdicts[0].class, VerdictClass::Proved(Proof::Affine));
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
        assert_eq!(d.verdicts.len(), 1);
        assert_eq!(d.verdicts[0].proof(), None);

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
        assert!(!d.pairs.is_empty());
        assert!(d.verdicts.iter().all(|v| v.class == VerdictClass::Unknown));
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
        assert!(d.verdicts.iter().all(|v| v.min_distance.is_none()));
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
        // the symbolic tests prove it order-protected.
        assert_eq!(d.verdicts[0].class, VerdictClass::Proved(Proof::Affine));
        assert_eq!(d.verdicts[0].min_distance, None);
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
        assert_eq!(d.verdicts[0].class, VerdictClass::Unknown);
        assert_eq!(d.verdicts[0].min_distance, None);
    }

    #[test]
    fn enumeration_proves_what_the_affine_tests_cannot() {
        // a[i + 6] += 1 over i in 0..4 with a of length 8: the raw range
        // [6, 9] wraps, so the symbolic tests refuse, but the wrapped cells
        // 6, 7, 0, 1 are distinct per iteration and every collision is the
        // load's own iteration's store.
        let a = ArrayId(0);
        let cell = || Expr::var(0).add(Expr::lit(6));
        let k = KernelSpec::new(
            "wrap",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                cell(),
                Expr::load(a, cell()).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        assert_eq!(
            d.verdicts,
            vec![PairVerdict {
                class: VerdictClass::Proved(Proof::Enumerated),
                min_distance: None,
            }]
        );
    }

    #[test]
    fn constant_cells_must_alias_with_their_distance() {
        // a[0] += 1: the same cell every iteration, rewritten at distance 1.
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "const_cell",
            vec![LoopLevel::upto(8)],
            vec![ArrayDecl::zeroed("a", 4)],
            vec![Stmt::store(
                a,
                Expr::lit(0),
                Expr::load(a, Expr::lit(0)).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let d = analyze(&k);
        assert_eq!(
            d.verdicts,
            vec![PairVerdict {
                class: VerdictClass::MustAlias,
                min_distance: Some(1),
            }]
        );
        assert_eq!(d.verdicts[0].proof(), None);
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
