//! Checker-throughput microbench: how many abstract protocol states per
//! second the PV2xx exploration engine sustains, on the two workload shapes
//! that matter — a symbolically dischargeable kernel (fig2a, where PV301
//! removes three of the four pair-classes and partial-order reduction
//! collapses the rest) and a fully validated stress kernel (two
//! runtime-indexed read-modify-write streams, where every interleaving of
//! the premature queue is semantically distinct and the engine must brute
//! its way through the space). `scripts/verify.sh` records the same
//! throughput figure into `target/BENCH_modelcheck.json`, a CI artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prevv::analyze::{check_protocol, ProtocolOptions};
use prevv::ir::parse::parse_kernel;
use prevv::ir::KernelSpec;

/// fig2a from the paper: one residual runtime-indexed pair, three pairs
/// discharged by the PV3xx prover before exploration starts.
fn fig2a() -> KernelSpec {
    parse_kernel(
        "fig2a",
        "int a[16];\nint b[8] = {2, 5, 2, 7, 2, 1, 5, 2};\n\
         for (int i = 0; i < 8; ++i) { a[b[i]] = a[b[i]] + 5; b[i] = b[i] + 3; }",
    )
    .expect("fig2a parses")
}

/// Two independent runtime-indexed hazard streams: all four ambiguous
/// pairs stay validated, so ample-set reduction finds nothing to commute
/// and the state count is the honest cost of the depth.
fn stress() -> KernelSpec {
    parse_kernel(
        "stress",
        "int a[8];\nint b[8] = {2, 5, 2, 7, 2, 1, 5, 2};\n\
         int c[8];\nint d[8] = {1, 3, 1, 6, 1, 0, 3, 1};\n\
         for (int i = 0; i < 8; ++i) { a[b[i]] = a[b[i]] + 1; c[d[i]] = c[d[i]] + 2; \
         b[i] = b[i] + 3; d[i] = d[i] + 5; }",
    )
    .expect("stress kernel parses")
}

fn bench_checker_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("modelcheck_states_per_sec");
    let fig2a = fig2a();
    let stress = stress();
    for &depth in &[2u64, 4] {
        let opts = ProtocolOptions {
            iterations: depth,
            ..ProtocolOptions::default()
        };
        g.bench_with_input(BenchmarkId::new("fig2a", depth), &depth, |b, _| {
            b.iter(|| check_protocol(&fig2a, &opts).expect("checkable"));
        });
        g.bench_with_input(BenchmarkId::new("stress", depth), &depth, |b, _| {
            b.iter(|| check_protocol(&stress, &opts).expect("checkable"));
        });
    }
    g.finish();
}

fn bench_reduction_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("modelcheck_reduction");
    let fig2a = fig2a();
    for (name, por, audit) in [
        ("reduced", true, false),
        ("unreduced", false, false),
        ("audited", true, true),
    ] {
        let opts = ProtocolOptions {
            por,
            audit,
            ..ProtocolOptions::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| check_protocol(&fig2a, &opts).expect("checkable"));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_checker_throughput, bench_reduction_modes);
criterion_main!(benches);
