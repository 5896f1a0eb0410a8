//! Tests of the speculative-allocation LSQ: an [`Lsq`](crate::Lsq) under
//! [`LsqConfig::speculative`](crate::LsqConfig::speculative).

mod tests {
    use crate::lsq::tests::{
        assert_golden, assert_rejects_three_loads, guarded, histogram, reduction, run_lsq,
    };
    use crate::{Allocation, LsqConfig};
    use prevv_ir::{golden, ArrayId};

    #[test]
    fn spec_lsq_fixes_the_loop_carried_reduction() {
        assert_golden(&reduction(), LsqConfig::speculative(16));
    }

    #[test]
    fn histogram_with_runtime_indices_is_correct() {
        let bins = assert_golden(&histogram(), LsqConfig::speculative(16));
        assert_eq!(bins.iter().sum::<i64>(), 48);
    }

    #[test]
    fn guarded_kernel_with_fakes_completes() {
        assert_golden(&guarded(), LsqConfig::speculative(16));
    }

    #[test]
    fn speculative_allocation_is_not_slower_than_fast_lsq() {
        // The point of the design: with allocation off the critical path,
        // the speculative LSQ must never lose to fast allocation [8].
        let spec = reduction();
        let (_, fast, _) = run_lsq(&spec, LsqConfig::fast(16));
        let (_, speculative, _) = run_lsq(&spec, LsqConfig::speculative(16));
        assert!(
            speculative.cycles <= fast.cycles,
            "speculative allocation must not lose to fast allocation: {} vs {}",
            speculative.cycles,
            fast.cycles
        );
    }

    #[test]
    fn shallow_queue_is_rejected() {
        assert_rejects_three_loads(LsqConfig::speculative(2));
    }

    #[test]
    fn speculation_respects_the_window() {
        // Window 1 degenerates to confirmation-paced allocation; results
        // must still match golden, just slower.
        let spec = reduction();
        let gold = golden::execute(&spec);
        let cfg = LsqConfig {
            allocation: Allocation::Speculative { window: 1 },
            ..LsqConfig::speculative(16)
        };
        let (arrays, narrow, _) = run_lsq(&spec, cfg);
        assert_eq!(arrays[0], gold.array(ArrayId(0)));
        let (_, wide, _) = run_lsq(&spec, LsqConfig::speculative(16));
        assert!(
            wide.cycles <= narrow.cycles,
            "wider speculation window must not be slower: {} vs {}",
            wide.cycles,
            narrow.cycles
        );
    }
}
