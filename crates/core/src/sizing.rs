//! Choosing `depth_q`: the matched-pair model (paper §V-A, Def. 2–3,
//! Eq. 6–10).
//!
//! The paper sizes the premature queue by balancing the average execution
//! time of an ambiguous pair with PreVV against its predecessor's token
//! production rate: a *matched* pair (Def. 2) minimizes stall probability.
//! These are first-order analytical estimates used to pick a starting
//! `depth_q`; the ablation bench sweeps depths empirically around the
//! prediction.

/// Inputs of the matched-pair model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTiming {
    /// `t_org`: execution time (cycles) of the original computation part of
    /// the pair's dataflow circuit.
    pub t_org: f64,
    /// `P_s`: probability a given iteration of this pair squashes the
    /// pipeline.
    pub squash_probability: f64,
    /// `t_token`: average stall time of a live-out token waiting for the
    /// premature queue.
    pub t_token: f64,
}

impl PairTiming {
    /// Average execution time of an ambiguous pair with PreVV (paper Eq. 6):
    /// `t_p = t_org (2 + P_s)`.
    pub fn pair_time(&self) -> f64 {
        self.t_org * (2.0 + self.squash_probability)
    }

    /// Waiting time of the predecessor for queue depth `depth_q` (paper
    /// Eq. 7): `t_w = t_token / depth_q`.
    pub fn wait_time(&self, depth_q: usize) -> f64 {
        self.t_token / depth_q as f64
    }

    /// The depth that makes the pair *matched* (Def. 2): `t_p = t_w` ⟹
    /// `depth_q = t_token / t_p`, rounded up and clamped to at least 1.
    pub fn matched_depth(&self) -> usize {
        let d = self.t_token / self.pair_time();
        (d.ceil() as usize).max(1)
    }

    /// How unmatched a given depth is: `t_w / t_p` (1.0 = matched; below 1
    /// the queue outpaces the pair, above 1 the pair starves the queue).
    pub fn mismatch(&self, depth_q: usize) -> f64 {
        self.wait_time(depth_q) / self.pair_time()
    }
}

/// Structural spans of two ambiguous pairs (paper Eq. 8–10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairPlacement {
    /// `d_mn`: distance in components from the beginning of pair `m` to the
    /// end of pair `n` (Eq. 9).
    pub distance: f64,
    /// `S_m`: maximum components on any path inside pair `m` (Eq. 10).
    pub span_m: f64,
    /// `S_n`: likewise for pair `n`.
    pub span_n: f64,
}

impl PairPlacement {
    /// The independence constraint (Eq. 8): two pairs are independent (no
    /// shared components, no doubled validation) when the distance between
    /// them covers both spans.
    pub fn independent(&self) -> bool {
        self.distance >= self.span_m + self.span_n
    }
}

/// Recommends a queue depth for a kernel given measured (or estimated)
/// squash probability, averaging the matched depths of all pairs and
/// rounding up to the next power of two (hardware-friendly, like the
/// paper's 16/64 presets).
pub fn recommend_depth(pairs: &[PairTiming]) -> usize {
    if pairs.is_empty() {
        return 1;
    }
    let mean: f64 =
        pairs.iter().map(|p| p.matched_depth() as f64).sum::<f64>() / pairs.len() as f64;
    (mean.ceil() as usize).max(1).next_power_of_two()
}

/// Caps a matched-pair depth recommendation by a statically proven
/// occupancy bound.
///
/// A premature queue can never hold more records than the kernel admits
/// over its whole run (`mem-ops-per-iteration × iterations`), so any depth
/// beyond the next power of two above that bound is BRAM the hardware can
/// never fill. `None` (no static bound) leaves the recommendation alone.
/// The result stays at least 1 and stays a power of two when `recommended`
/// is one.
pub fn cap_depth_by_occupancy(recommended: usize, occupancy: Option<u64>) -> usize {
    let Some(occ) = occupancy else {
        return recommended.max(1);
    };
    let occ = usize::try_from(occ).unwrap_or(usize::MAX);
    let cap = occ.max(1).checked_next_power_of_two().unwrap_or(usize::MAX);
    recommended.clamp(1, cap)
}

/// Estimates the latency (cycles) of computing an expression with the
/// simulator's default functional-unit latencies — the `t_org` feed for the
/// matched-pair model.
pub fn expr_latency(e: &prevv_ir::Expr, ram_read_latency: u32) -> f64 {
    use prevv_ir::Expr;
    match e {
        Expr::Const(_) | Expr::IndVar(_) => 0.0,
        Expr::Load(_, idx) => expr_latency(idx, ram_read_latency) + ram_read_latency as f64 + 1.0,
        Expr::Binary(op, l, r) => {
            f64::from(op.default_latency())
                + expr_latency(l, ram_read_latency).max(expr_latency(r, ram_read_latency))
        }
        Expr::Opaque(_, x) => 2.0 + expr_latency(x, ram_read_latency),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_latency_follows_unit_latencies() {
        use prevv_ir::{ArrayId, Expr};
        // load(a[i]) + 1: load = 2 (ram) + 1 (issue), add = 1 → 4.
        let e = Expr::load(ArrayId(0), Expr::var(0)).add(Expr::lit(1));
        assert_eq!(expr_latency(&e, 2), 4.0);
        // i * i: one multiplier.
        let m = Expr::var(0).mul(Expr::var(0));
        assert_eq!(expr_latency(&m, 2), 4.0);
    }

    #[test]
    fn eq6_pair_time() {
        let p = PairTiming {
            t_org: 10.0,
            squash_probability: 0.5,
            t_token: 100.0,
        };
        assert!((p.pair_time() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn eq7_wait_time_shrinks_with_depth() {
        let p = PairTiming {
            t_org: 10.0,
            squash_probability: 0.0,
            t_token: 100.0,
        };
        assert!(p.wait_time(4) > p.wait_time(16));
        assert!((p.wait_time(10) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn matched_depth_balances_the_pair() {
        let p = PairTiming {
            t_org: 5.0,
            squash_probability: 0.0,
            t_token: 100.0,
        };
        // t_p = 10, so depth 10 makes t_w = 10 = t_p.
        assert_eq!(p.matched_depth(), 10);
        assert!((p.mismatch(10) - 1.0).abs() < 1e-9);
        assert!(p.mismatch(5) > 1.0, "too-shallow queue starves");
    }

    #[test]
    fn higher_squash_probability_needs_less_depth() {
        let base = PairTiming {
            t_org: 5.0,
            squash_probability: 0.0,
            t_token: 100.0,
        };
        let squashy = PairTiming {
            squash_probability: 1.0,
            ..base
        };
        assert!(squashy.matched_depth() < base.matched_depth());
    }

    #[test]
    fn eq8_independence() {
        let ok = PairPlacement {
            distance: 12.0,
            span_m: 5.0,
            span_n: 6.0,
        };
        assert!(ok.independent());
        let overlapped = PairPlacement {
            distance: 8.0,
            span_m: 5.0,
            span_n: 6.0,
        };
        assert!(!overlapped.independent());
    }

    #[test]
    fn occupancy_cap_bounds_the_recommendation() {
        // A 4-record lifetime bound caps depth 64 at the next power of two.
        assert_eq!(cap_depth_by_occupancy(64, Some(3)), 4);
        assert_eq!(cap_depth_by_occupancy(64, Some(4)), 4);
        // Bound above the recommendation leaves it alone, as does no bound.
        assert_eq!(cap_depth_by_occupancy(8, Some(1000)), 8);
        assert_eq!(cap_depth_by_occupancy(8, None), 8);
        // Degenerate inputs stay sane.
        assert_eq!(cap_depth_by_occupancy(0, None), 1);
        assert_eq!(cap_depth_by_occupancy(16, Some(0)), 1);
        assert_eq!(cap_depth_by_occupancy(16, Some(u64::MAX)), 16);
    }

    #[test]
    fn recommendation_is_power_of_two() {
        let pairs = vec![
            PairTiming {
                t_org: 4.0,
                squash_probability: 0.1,
                t_token: 100.0,
            },
            PairTiming {
                t_org: 6.0,
                squash_probability: 0.3,
                t_token: 120.0,
            },
        ];
        let d = recommend_depth(&pairs);
        assert!(d.is_power_of_two());
        assert!(d >= 8);
        assert_eq!(recommend_depth(&[]), 1);
    }
}
