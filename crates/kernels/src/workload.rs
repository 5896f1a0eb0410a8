//! Deterministic workload generators.
//!
//! All data is generated from explicit seeds via a splitmix64 stream so
//! every experiment is exactly reproducible — the moral equivalent of the
//! fixed input sets the paper's ModelSim testbenches use.

use prevv_dataflow::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for workload generation.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// An `n × n` matrix of small values (kept small so exact integer
/// arithmetic cannot overflow across chained multiplications).
pub fn dense_matrix(n: i64, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    (0..n * n).map(|_| r.gen_range(-4..=4)).collect()
}

/// `n` polynomial coefficients.
pub fn coefficients(n: i64, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(-8..=8)).collect()
}

/// A diagonally dominant `n × n` matrix (keeps Gaussian elimination
/// well-behaved in integer arithmetic).
pub fn diagonally_dominant(n: i64, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    let mut m: Vec<Value> = (0..n * n).map(|_| r.gen_range(-2..=2)).collect();
    for i in 0..n {
        m[(i * n + i) as usize] = 8 + r.gen_range(0i64..4);
    }
    m
}

/// Index stream with a controlled collision probability: each element is
/// drawn from `0..bins`, so smaller `bins` means denser RAW hazards.
pub fn index_stream(n: usize, bins: Value, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(0..bins)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(dense_matrix(4, 9), dense_matrix(4, 9));
        assert_ne!(dense_matrix(4, 9), dense_matrix(4, 10));
        assert_eq!(index_stream(16, 8, 1), index_stream(16, 8, 1));
    }

    #[test]
    fn diagonal_dominance_holds() {
        let n = 6;
        let m = diagonally_dominant(n, 3);
        for i in 0..n {
            let diag = m[(i * n + i) as usize].abs();
            let off: i64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| m[(i * n + j) as usize].abs())
                .sum();
            assert!(diag >= off / 2, "row {i} not dominant enough");
        }
    }

    #[test]
    fn index_stream_respects_bins() {
        let v = index_stream(256, 7, 2);
        assert!(v.iter().all(|&x| (0..7).contains(&x)));
    }
}
