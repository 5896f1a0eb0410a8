//! Property-based tests of the PreVV data structures in isolation: the
//! premature queue's structural invariants under arbitrary operation
//! sequences, and metamorphic properties of the arbiter's validation.

use proptest::prelude::*;

use prevv_core::{Arbiter, PrematureQueue, PrematureRecord, QueueState, Verdict};
use prevv_ir::MemOpKind;

#[derive(Debug, Clone)]
enum Op {
    Push {
        iter: u64,
        seq: u32,
        store: bool,
        addr: usize,
        value: i64,
    },
    PopHead,
    RetireBelow(u64),
    Flush(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..32, 0u32..4, any::<bool>(), 0usize..8, -4i64..4).prop_map(
            |(iter, seq, store, addr, value)| Op::Push {
                iter,
                seq,
                store,
                addr,
                value
            }
        ),
        Just(Op::PopHead),
        (0u64..32).prop_map(Op::RetireBelow),
        (0u64..32).prop_map(Op::Flush),
    ]
}

fn record(iter: u64, seq: u32, store: bool, addr: usize, value: i64) -> PrematureRecord {
    let kind = if store {
        MemOpKind::Store
    } else {
        MemOpKind::Load
    };
    PrematureRecord::real(seq as usize, kind, iter, seq, addr, value)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Structural invariants of the circular queue hold under any operation
    /// sequence: occupancy within bounds, state classification consistent,
    /// high-water monotone, flush removes exactly the squashed suffix.
    #[test]
    fn queue_invariants_hold(depth in 1usize..24, ops in proptest::collection::vec(op_strategy(), 0..64)) {
        let mut q = PrematureQueue::new(depth);
        let mut last_high = 0;
        for op in ops {
            match op {
                Op::Push { iter, seq, store, addr, value } => {
                    if !q.is_full() {
                        q.push(record(iter, seq, store, addr, value));
                    }
                }
                Op::PopHead => { q.pop_head(); }
                Op::RetireBelow(bound) => {
                    q.retire_if(|r| r.iter < bound, depth);
                    prop_assert!(q.iter().all(|r| r.iter >= bound),
                        "retire_if with unlimited budget must clear everything eligible");
                }
                Op::Flush(from) => {
                    // Emulate the squash contract: only uncommitted records
                    // exist here, so flushing is always legal.
                    q.flush(from);
                    prop_assert!(q.iter().all(|r| r.iter < from));
                }
            }
            prop_assert!(q.len() <= q.depth());
            prop_assert_eq!(q.is_full(), q.len() == q.depth());
            prop_assert_eq!(q.free(), q.depth() - q.len());
            match q.state() {
                QueueState::Full => prop_assert!(q.is_full()),
                QueueState::Normal | QueueState::WrapAround => prop_assert!(!q.is_full()),
            }
            prop_assert!(q.head_pos() < q.depth());
            prop_assert!(q.tail_pos() < q.depth());
            prop_assert!(q.high_water() >= last_high, "high water is monotone");
            last_high = q.high_water();
        }
    }

    /// Metamorphic: validation verdicts are insensitive to the queue's
    /// *arrival order* — only program order (iter, seq) matters. Shuffling
    /// resident records must not change the verdict.
    #[test]
    fn arbiter_verdict_is_arrival_order_independent(
        residents in proptest::collection::vec(
            (0u64..8, 0u32..4, any::<bool>(), 0usize..4, -2i64..2), 0..10),
        arriving in (0u64..8, 0u32..4, any::<bool>(), 0usize..4, -2i64..2),
        rotate_by in 0usize..10,
    ) {
        // Deduplicate (iter, seq): program order must identify ops uniquely.
        let mut seen = std::collections::HashSet::new();
        let residents: Vec<_> = residents
            .into_iter()
            .filter(|&(iter, seq, ..)| seen.insert((iter, seq)))
            .collect();
        prop_assume!(seen.insert((arriving.0, arriving.1)));

        let build = |order: &[( u64, u32, bool, usize, i64)]| {
            let mut q = PrematureQueue::new(32);
            for &(iter, seq, store, addr, value) in order {
                q.push(record(iter, seq, store, addr, value));
            }
            q
        };
        let arriving = record(arriving.0, arriving.1, arriving.2, arriving.3, arriving.4);

        let ports: std::collections::HashSet<usize> = (0..8).collect();
        let mut arb1 = Arbiter::new(ports.clone(), false);
        let mut arb2 = Arbiter::new(ports, false);

        let q1 = build(&residents);
        let mut rotated = residents.clone();
        if !rotated.is_empty() {
            let k = rotate_by % rotated.len();
            rotated.rotate_left(k);
        }
        let q2 = build(&rotated);

        let v1 = arb1.validate(&q1, &arriving);
        let v2 = arb2.validate(&q2, &arriving);
        prop_assert_eq!(v1, v2, "verdict depends on arrival order");
    }

    /// Value-validation soundness seed: if every resident record holds the
    /// same value as the arriving op, no squash can occur (Eq. 5 requires a
    /// mismatch).
    #[test]
    fn equal_values_never_squash(
        residents in proptest::collection::vec((0u64..8, 0u32..4, any::<bool>(), 0usize..4), 0..12),
        arriving in (0u64..8, 0u32..4, any::<bool>(), 0usize..4),
        value in -3i64..3,
    ) {
        let mut q = PrematureQueue::new(32);
        for (iter, seq, store, addr) in residents {
            q.push(record(iter, seq, store, addr, value));
        }
        let arriving = record(arriving.0, arriving.1, arriving.2, arriving.3, value);
        let mut arb = Arbiter::new((0..8).collect(), false);
        let v = arb.validate(&q, &arriving);
        prop_assert!(!matches!(v, Verdict::Squash(_)), "equal values squashed: {v:?}");
    }
}
