//! Pair reduction for scalability (paper §V-B, Eq. 11–12).
//!
//! When ambiguous pairs overlap — one operation belongs to several pairs —
//! naively instantiating one arbiter + queue per pair duplicates validation
//! work and multiplies resources (`Com_n = 2^n · Com_1`, Eq. 11). The paper's
//! dimension reduction observes that *consecutive operations of the same
//! kind never form an ambiguous pair with each other*, so within every run
//! of consecutive same-kind ambiguous accesses to an array, validating one
//! representative is sufficient: any violation between a store and any load
//! of the run manifests identically at the representative's validation,
//! because the whole run reads (or writes) between the same pair of
//! surrounding opposite-kind operations.
//!
//! This module computes the representative set; `prevv-area` uses it to
//! price the arbiter, the PV2xx checker to test the reduction (PV204), and
//! the PV006 lint to count what it would save.

use std::collections::{BTreeMap, HashSet};

use prevv_ir::depend::StaticMemOp;
use prevv_ir::MemOpKind;

/// Result of the reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// All ambiguous op ids (before reduction).
    pub ambiguous: HashSet<usize>,
    /// The representative ops whose arrivals must trigger validation.
    pub validated: HashSet<usize>,
}

impl Reduction {
    /// Ops whose validation searches were eliminated.
    pub fn eliminated(&self) -> usize {
        self.ambiguous.len() - self.validated.len()
    }
}

/// Naive complexity of `n` overlapped pairs relative to one (paper Eq. 11).
pub fn naive_complexity(n: u32) -> f64 {
    2f64.powi(n as i32)
}

/// Naive frequency degradation of `n` overlapped pairs (paper Eq. 12:
/// `frq_n = log2(frq_1)` — modeled as a log-factor slowdown).
pub fn naive_frequency_factor(n: u32) -> f64 {
    1.0 / (1.0 + (n as f64).log2().max(0.0))
}

/// Computes the validated representative set of the `ambiguous` op ids
/// among `ops` (the static memory ops in program order, indexed by id —
/// the same ids as a synthesized interface's ports).
///
/// Ambiguous ops are grouped per array and ordered by their program-order
/// sequence number; each maximal run of consecutive same-kind ops keeps one
/// representative:
///
/// * for a run of **loads**, the *first* (earliest) one — it reads before
///   all the others, so any store value it should have seen binds the whole
///   run;
/// * for a run of **stores**, the *last* one — it is the youngest, i.e. the
///   value later loads must observe.
///
/// With `pair_reduction` disabled the validated set equals the ambiguous
/// set.
pub fn reduce(ops: &[StaticMemOp], ambiguous: HashSet<usize>, pair_reduction: bool) -> Reduction {
    if !pair_reduction {
        return Reduction {
            validated: ambiguous.clone(),
            ambiguous,
        };
    }
    // Group ambiguous ops per array, ordered by seq.
    let mut per_array: BTreeMap<usize, Vec<&StaticMemOp>> = BTreeMap::new();
    for op in ops.iter().filter(|op| ambiguous.contains(&op.id)) {
        per_array.entry(op.array.0).or_default().push(op);
    }
    let mut validated = HashSet::new();
    for ops in per_array.values() {
        for run in ops.chunk_by(|a, b| a.kind == b.kind) {
            let rep = match run[0].kind {
                MemOpKind::Load => run[0],
                MemOpKind::Store => run[run.len() - 1],
            };
            validated.insert(rep.id);
        }
    }
    Reduction {
        ambiguous,
        validated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::components::LoopLevel;
    use prevv_ir::{synthesize, ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};

    #[test]
    fn complexity_formulas_match_paper() {
        assert_eq!(naive_complexity(1), 2.0);
        assert_eq!(naive_complexity(3), 8.0);
        assert!(naive_frequency_factor(4) < naive_frequency_factor(1));
    }

    /// Three consecutive ambiguous loads of `a` then the store: the run of
    /// loads collapses to one validated representative.
    #[test]
    fn consecutive_loads_collapse() {
        let a = ArrayId(0);
        let spec = KernelSpec::new(
            "runs",
            vec![LoopLevel::upto(4), LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0))
                    .add(Expr::load(a, Expr::var(0).add(Expr::lit(1))))
                    .add(Expr::load(a, Expr::var(0).add(Expr::lit(2)))),
            )],
        )
        .expect("valid");
        let s = synthesize(&spec).expect("synth");
        let r = reduce(&s.deps.ops, s.interface.validated_ops(), true);
        assert_eq!(r.ambiguous.len(), 4, "3 loads + 1 store are ambiguous");
        // One representative load + the store.
        assert_eq!(r.validated.len(), 2);
        assert!(r.eliminated() == 2);
        // The representative load is the earliest (seq 0).
        assert!(r.validated.contains(&0));
        // The store is always validated.
        let store_id = s
            .interface
            .ports
            .iter()
            .position(|p| p.is_store())
            .expect("has store");
        assert!(r.validated.contains(&store_id));
    }

    #[test]
    fn disabled_reduction_validates_everything() {
        let a = ArrayId(0);
        let spec = KernelSpec::new(
            "runs",
            vec![LoopLevel::upto(4), LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0)).add(Expr::load(a, Expr::var(0).add(Expr::lit(1)))),
            )],
        )
        .expect("valid");
        let s = synthesize(&spec).expect("synth");
        let r = reduce(&s.deps.ops, s.interface.validated_ops(), false);
        assert_eq!(r.validated, r.ambiguous);
        assert_eq!(r.eliminated(), 0);
    }

    #[test]
    fn independent_arrays_keep_their_own_representatives() {
        let a = ArrayId(0);
        let b = ArrayId(1);
        let spec = KernelSpec::new(
            "two",
            vec![LoopLevel::upto(4), LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8), ArrayDecl::zeroed("b", 8)],
            vec![
                Stmt::store(
                    a,
                    Expr::var(0),
                    Expr::load(a, Expr::var(0)).add(Expr::lit(1)),
                ),
                Stmt::store(
                    b,
                    Expr::var(0),
                    Expr::load(b, Expr::var(0)).add(Expr::lit(1)),
                ),
            ],
        )
        .expect("valid");
        let s = synthesize(&spec).expect("synth");
        let r = reduce(&s.deps.ops, s.interface.validated_ops(), true);
        // Each array keeps its load + store representative.
        assert_eq!(r.validated.len(), 4);
    }
}
