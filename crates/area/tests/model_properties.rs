//! Property tests of the analytic area/timing model: the qualitative
//! relationships the paper's argument rests on must hold for *all*
//! configurations, not just the calibrated points.

use proptest::prelude::*;

use prevv_area::{
    clock_period_ns, controller_cost, lsq_instance_cost, prevv_instance_cost, ControllerKind,
};
use prevv_ir::synthesize;
use prevv_kernels::{extra, paper};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// LSQ cost grows superlinearly in depth (the CAM term), PreVV cost
    /// linearly; both are monotone.
    #[test]
    fn queue_costs_are_monotone_in_depth(d1 in 2usize..128, d2 in 2usize..128) {
        prop_assume!(d1 < d2);
        let l1 = lsq_instance_cost(d1);
        let l2 = lsq_instance_cost(d2);
        prop_assert!(l2.luts > l1.luts);
        prop_assert!(l2.ffs > l1.ffs);
        let p1 = prevv_instance_cost(d1, 2, 4);
        let p2 = prevv_instance_cost(d2, 2, 4);
        prop_assert!(p2.luts > p1.luts);
        // Superlinearity of the CAM: marginal LUTs per entry grow with depth.
        let lsq_marginal = (l2.luts - l1.luts) as f64 / (d2 - d1) as f64;
        let lsq_marginal_small = (lsq_instance_cost(d1 + 1).luts - l1.luts) as f64;
        prop_assert!(lsq_marginal >= lsq_marginal_small * 0.99,
            "CAM cost must not flatten: {lsq_marginal} vs {lsq_marginal_small}");
    }

    /// At equal depth, PreVV's per-pair arbiter must stay cheaper than an
    /// LSQ in the paper's regime (depth >= 16, a handful of pairs). Below
    /// depth ~12 the LSQ's quadratic CAM has not kicked in yet and PreVV's
    /// fixed arbiter cost can lose — a real property of the architecture
    /// that the depth-16/64 operating points sidestep.
    #[test]
    fn prevv_is_cheaper_than_lsq_at_equal_depth(depth in 16usize..96, pairs in 1usize..5) {
        let lsq = lsq_instance_cost(depth);
        let prevv = prevv_instance_cost(depth, pairs, 2 * pairs);
        prop_assert!(prevv.luts < lsq.luts,
            "PreVV ({}) must beat the LSQ ({}) at depth {depth}, {pairs} pairs",
            prevv.luts, lsq.luts);
    }

    /// Clock period ordering: PreVV < fast LSQ <= Dynamatic, for any depth,
    /// on any paper kernel.
    #[test]
    fn clock_period_ordering_holds(depth in 4usize..128, kernel in 0usize..5) {
        let spec = &paper::all_default()[kernel];
        let synth = synthesize(spec).expect("synthesizes");
        let prevv = clock_period_ns(&synth, ControllerKind::Prevv { depth, pair_reduction: true });
        let fast = clock_period_ns(&synth, ControllerKind::FastLsq { depth });
        let dynamatic = clock_period_ns(&synth, ControllerKind::Dynamatic { depth });
        prop_assert!(prevv < fast, "PreVV CP {prevv} must beat fast LSQ {fast}");
        prop_assert!(fast <= dynamatic, "fast allocation cannot be slower than [15]");
    }

    /// The naive per-pair replication is never cheaper than the shared
    /// design (Eq. 11's point).
    #[test]
    fn naive_replication_never_wins(width in 1usize..6) {
        let spec = extra::overlapped_pairs(8, width);
        let synth = synthesize(&spec).expect("synthesizes");
        let shared = controller_cost(&synth, ControllerKind::Prevv { depth: 16, pair_reduction: true });
        let naive = controller_cost(&synth, ControllerKind::NaivePrevvPerPair { depth: 16 });
        prop_assert!(naive.luts > shared.luts);
        prop_assert!(naive.ffs >= shared.ffs);
    }
}

/// The case proptest once shrank the property above to (depth 8, 2 pairs),
/// pinned explicitly: at that depth the LSQ's CAM is still small and
/// PreVV's fixed arbiter cost loses on LUTs — the sub-16-depth inversion
/// the property's `16..96` range excludes. At depth 16 PreVV wins.
#[test]
fn shallow_queue_inverts_the_lut_ordering() {
    let lsq = lsq_instance_cost(8);
    let prevv = prevv_instance_cost(8, 2, 4);
    assert!(
        prevv.luts > lsq.luts,
        "depth 8: PreVV {} vs LSQ {} LUTs",
        prevv.luts,
        lsq.luts
    );
    assert!(prevv_instance_cost(16, 2, 4).luts < lsq_instance_cost(16).luts);
}
