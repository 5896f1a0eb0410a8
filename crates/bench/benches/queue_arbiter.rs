//! Microbenchmarks of the PreVV data structures: premature queue
//! operations and the arbiter's head-to-tail validation walk at the paper's
//! two depths (the software analogue of the "search burden" the paper's CP
//! numbers reflect).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prevv::ir::MemOpKind;
use prevv::prevv_core_crate::{Arbiter, PrematureQueue, PrematureRecord};

fn filled_queue(depth: usize) -> PrematureQueue {
    let mut q = PrematureQueue::new(depth);
    for i in 0..depth {
        let kind = if i % 3 == 0 {
            MemOpKind::Store
        } else {
            MemOpKind::Load
        };
        q.push(PrematureRecord::real(
            i % 7,
            kind,
            i as u64,
            (i % 5) as u32,
            i % 32,
            i as i64,
        ));
    }
    q
}

fn bench_queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("premature_queue");
    for &depth in &[16usize, 64] {
        g.bench_with_input(BenchmarkId::new("push_retire", depth), &depth, |b, &d| {
            b.iter(|| {
                let mut q = PrematureQueue::new(d);
                for i in 0..d {
                    q.push(PrematureRecord::real(0, MemOpKind::Load, i as u64, 0, i, 0));
                }
                q.retire_if(|_| true, d)
            });
        });
    }
    g.finish();
}

fn bench_arbiter_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("arbiter_validate");
    for &depth in &[16usize, 64, 256] {
        let q = filled_queue(depth);
        let mut arb = Arbiter::new((0..8).collect(), true);
        let arriving = PrematureRecord::real(1, MemOpKind::Store, depth as u64 / 2, 1, 5, 999);
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| arb.validate(&q, &arriving));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_queue_ops, bench_arbiter_walk);
criterion_main!(benches);
