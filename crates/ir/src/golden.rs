//! Golden (reference) execution of kernels.
//!
//! Executes a [`KernelSpec`] with strict sequential semantics — the meaning
//! of the original C program — producing the final memory image and a trace
//! of memory events in program order. Circuit simulations are checked
//! against the memory image (the paper's ModelSim-vs-C++ methodology), and
//! the trace doubles as an input for algorithm-level tests of the
//! disambiguation controllers.

use prevv_dataflow::Value;

use crate::expr::ArrayId;
use crate::kernel::KernelSpec;

/// Whether a memory event reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

impl std::fmt::Display for MemOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MemOpKind::Load => "load",
            MemOpKind::Store => "store",
        })
    }
}

/// One memory access performed by the golden execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Flattened iteration number.
    pub iter: u64,
    /// Program-order sequence number within the iteration.
    pub seq: u32,
    /// Read or write.
    pub kind: MemOpKind,
    /// Accessed array.
    pub array: ArrayId,
    /// Resolved in-array index.
    pub index: usize,
    /// Value read or written.
    pub value: Value,
}

/// Result of a golden execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenResult {
    /// Final contents of each array.
    pub arrays: Vec<Vec<Value>>,
    /// Every memory access in strict program order.
    pub trace: Vec<MemEvent>,
    /// Number of iterations whose guard suppressed the statement (summed
    /// over guarded statements).
    pub guards_skipped: u64,
}

impl GoldenResult {
    /// Final contents of one array.
    pub fn array(&self, id: ArrayId) -> &[Value] {
        &self.arrays[id.0]
    }
}

/// Executes the kernel sequentially.
///
/// [`replay`] over the whole iteration space, recording every access.
pub fn execute(spec: &KernelSpec) -> GoldenResult {
    let mut trace = Vec::new();
    let (arrays, guards_skipped) = replay(spec, spec.iteration_count(), |ev| trace.push(*ev));
    GoldenResult {
        arrays,
        trace,
        guards_skipped,
    }
}

/// Executes the first `iterations` iterations of the kernel sequentially —
/// the one execution loop every consumer of the sequential semantics runs.
/// Returns the final array contents and the number of guard-suppressed
/// statement instances.
///
/// `on_access` sees every memory access in program order, as it happens.
/// The canonical intra-iteration order is: for each statement in body
/// order, the index-expression loads, the value-expression loads (each
/// depth-first, left to right, as [`Expr::eval`](crate::Expr::eval)
/// evaluates them), then the store. An event's `seq` is therefore the op id
/// `depend::enumerate_ops` assigns the access. Guarded statements that are skipped contribute no
/// events, but their sequence numbers are still reserved, so `seq` values
/// match the synthesized circuit's port numbering exactly.
pub fn replay(
    spec: &KernelSpec,
    iterations: usize,
    mut on_access: impl FnMut(&MemEvent),
) -> (Vec<Vec<Value>>, u64) {
    let mut arrays: Vec<Vec<Value>> = spec.arrays.iter().map(|a| a.initial()).collect();
    let mut guards_skipped = 0;
    let mut space = spec.iterations();
    for iter in 0..iterations as u64 {
        let Some(row) = space.next_row() else {
            break;
        };
        let mut seq: u32 = 0;
        for stmt in &spec.body {
            if !stmt.runs(row) {
                guards_skipped += 1;
                seq += stmt.mem_op_count() as u32;
                continue;
            }
            let mut load = |array: ArrayId, raw: Value| {
                let index = spec.resolve_index(array, raw);
                let value = arrays[array.0][index];
                on_access(&MemEvent {
                    iter,
                    seq,
                    kind: MemOpKind::Load,
                    array,
                    index,
                    value,
                });
                seq += 1;
                value
            };
            let raw = stmt.index.eval(row, &mut load);
            let value = stmt.value.eval(row, &mut load);
            let index = spec.resolve_index(stmt.array, raw);
            arrays[stmt.array.0][index] = value;
            on_access(&MemEvent {
                iter,
                seq,
                kind: MemOpKind::Store,
                array: stmt.array,
                index,
                value,
            });
            seq += 1;
        }
    }
    (arrays, guards_skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::kernel::{ArrayDecl, Stmt};
    use prevv_dataflow::components::BinOp;
    use prevv_dataflow::components::LoopLevel;

    /// for i in 0..4 { a[b[i]] += 1; b[i] += 2 } — paper Fig. 2(a).
    fn fig2a() -> KernelSpec {
        let a = ArrayId(0);
        let b = ArrayId(1);
        KernelSpec::new(
            "fig2a",
            vec![LoopLevel::upto(4)],
            vec![
                ArrayDecl::zeroed("a", 8),
                ArrayDecl::with_values("b", vec![2, 2, 5, 2]),
            ],
            vec![
                Stmt::store(
                    a,
                    Expr::load(b, Expr::var(0)),
                    Expr::load(a, Expr::load(b, Expr::var(0))).add(Expr::lit(1)),
                ),
                Stmt::store(
                    b,
                    Expr::var(0),
                    Expr::load(b, Expr::var(0)).add(Expr::lit(2)),
                ),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn sequential_semantics_match_hand_execution() {
        let g = execute(&fig2a());
        // b starts [2,2,5,2]; a[b[i]] += 1 before b[i] += 2 each iteration.
        // i=0: a[2]+=1; b[0]=4. i=1: a[2]+=1; b[1]=4. i=2: a[5]+=1; b[2]=7.
        // i=3: a[2]+=1; b[3]=4.
        assert_eq!(g.array(ArrayId(0)), &[0, 0, 3, 0, 0, 1, 0, 0]);
        assert_eq!(g.array(ArrayId(1)), &[4, 4, 7, 4]);
    }

    #[test]
    fn trace_is_in_program_order() {
        let g = execute(&fig2a());
        // 6 events per iteration (3 loads + 1 store in stmt0? No:
        // stmt0 = load b[i] (index), load b[i] + load a[..] (value), store a = 4;
        // stmt1 = load b[i], store b = 2) => 6 per iteration, 24 total.
        assert_eq!(g.trace.len(), 24);
        for w in g.trace.windows(2) {
            assert!(
                (w[0].iter, w[0].seq) < (w[1].iter, w[1].seq),
                "trace must be strictly ordered"
            );
        }
        // First iteration's store to `a` carries seq 3.
        let store = g
            .trace
            .iter()
            .find(|e| e.kind == MemOpKind::Store)
            .expect("has stores");
        assert_eq!(store.seq, 3);
        assert_eq!(store.array, ArrayId(0));
        assert_eq!(store.index, 2);
        assert_eq!(store.value, 1);
    }

    #[test]
    fn empty_prefix_leaves_the_initial_arrays() {
        let k = fig2a();
        let mut events = 0;
        let (arrays, skipped) = replay(&k, 0, |_| events += 1);
        let initial: Vec<Vec<Value>> = k.arrays.iter().map(|a| a.initial()).collect();
        assert_eq!(arrays, initial);
        assert_eq!((events, skipped), (0, 0));
    }

    #[test]
    fn full_prefix_equals_execute() {
        let k = fig2a();
        let mut trace = Vec::new();
        let (arrays, guards_skipped) = replay(&k, k.iteration_count(), |ev| trace.push(*ev));
        let replayed = GoldenResult {
            arrays,
            trace,
            guards_skipped,
        };
        assert_eq!(replayed, execute(&k));
    }

    #[test]
    fn two_iteration_prefix_matches_hand_execution() {
        let k = fig2a();
        let mut trace = Vec::new();
        let (arrays, skipped) = replay(&k, 2, |ev| trace.push(*ev));
        // i=0: a[b[0]=2] = 0+1; b[0] = 2+2. i=1: a[b[1]=2] = 1+1; b[1] = 2+2.
        assert_eq!(arrays[0], [0, 0, 2, 0, 0, 0, 0, 0]);
        assert_eq!(arrays[1], [4, 4, 5, 2]);
        assert_eq!(skipped, 0);
        let (a, b) = (ArrayId(0), ArrayId(1));
        let ev = |iter, seq, kind, array, index, value| MemEvent {
            iter,
            seq,
            kind,
            array,
            index,
            value,
        };
        use MemOpKind::{Load, Store};
        let expected: Vec<MemEvent> = [0, 1]
            .into_iter()
            .flat_map(|i| {
                let old = i as Value; // a[2] before iteration i
                [
                    ev(i, 0, Load, b, i as usize, 2),
                    ev(i, 1, Load, b, i as usize, 2),
                    ev(i, 2, Load, a, 2, old),
                    ev(i, 3, Store, a, 2, old + 1),
                    ev(i, 4, Load, b, i as usize, 2),
                    ev(i, 5, Store, b, i as usize, 4),
                ]
            })
            .collect();
        assert_eq!(trace, expected);
    }

    #[test]
    fn guard_skips_reserve_sequence_numbers() {
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "guarded",
            vec![LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![
                // if (i % 2 == 0) a[i] = i
                Stmt::guarded(
                    a,
                    Expr::var(0),
                    Expr::var(0),
                    Expr::bin(
                        BinOp::Eq,
                        Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(2)),
                        Expr::lit(0),
                    ),
                ),
                // a[i+4] = 9 always; its seq must be stable regardless of guard
                Stmt::store(a, Expr::var(0).add(Expr::lit(4)), Expr::lit(9)),
            ],
        )
        .expect("valid");
        let g = execute(&k);
        assert_eq!(g.guards_skipped, 2);
        assert_eq!(g.array(a), &[0, 0, 2, 0, 9, 9, 9, 9]);
        // Second statement's store is always seq 1 (stmt0 reserves seq 0).
        for e in g.trace.iter().filter(|e| e.index >= 4) {
            assert_eq!(e.seq, 1);
        }
    }

    #[test]
    fn opaque_indices_execute_deterministically() {
        use crate::expr::OpaqueFn;
        let a = ArrayId(0);
        let k = KernelSpec::new(
            "hash",
            vec![LoopLevel::upto(16)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                Expr::var(0).opaque(OpaqueFn::new(3, 8)),
                Expr::load(a, Expr::var(0).opaque(OpaqueFn::new(3, 8))).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let g1 = execute(&k);
        let g2 = execute(&k);
        assert_eq!(g1, g2);
        let total: i64 = g1.array(a).iter().sum();
        assert_eq!(total, 16, "each iteration increments exactly one cell");
    }
}
