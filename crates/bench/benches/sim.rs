//! Engine-scheduler throughput: simulated cycles per wall-clock second for
//! the dense reference sweep versus the levelized dirty-sweep fixpoint
//! (`Scheduler::EventDriven`), under the PreVV controller. The final
//! `BENCH_SIM_JSON` line is machine-readable; `scripts/verify.sh` runs this
//! bench, records the figures into `target/BENCH_sim.json` (a CI artifact,
//! never a tracked file), and fails the build if the levelized default
//! drops below dense throughput on the paper set, the latency-bound
//! workload or the generated sweep.
//!
//! Four workloads are measured:
//!
//! * **paper** — the five paper kernels at their default sizes under
//!   PreVV16 with on-chip memory timing, best-of-3 over the whole set: the
//!   busy regime, where some channel fires nearly every cycle and every
//!   node is evaluated every cycle.
//! * **bram** — fig2a (13 nodes) with on-chip memory timing (3-cycle
//!   reads) and an aliasing-heavy index vector, best-of-5. Reported, not
//!   gated: on a netlist this small the two schedulers run at parity.
//! * **dram** — fig2a with external-memory timing (200-cycle reads) and a
//!   fully serializing index vector (`b[i] = 0` with forwarding off): the
//!   RAW chain keeps the circuit quiet most cycles, and the levelized
//!   scheduler crosses each memory wait in one quiet-run skip. The dense
//!   sweep steps and re-evaluates every stalled component every cycle.
//! * **gen** — eight generated kernels under the dram timing regime.
//!
//! Only `Simulator::run` is timed — synthesis and controller construction
//! are one-time setup, not per-cycle scheduler work.
//!
//! The `engine` benches time the wire fixpoint + commit loop alone on
//! hand-built linear pipelines of adders (no memory controller).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prevv::dataflow::components::{BinOp, BinaryAlu, Buffer, Constant, Fork, IterSource, Sink};
use prevv::dataflow::{Netlist, SquashBus};
use prevv::kernels::gen::{generate, GenConfig};
use prevv::kernels::{extra, paper};
use prevv::{
    run_kernel_with, Controller, KernelSpec, MemTiming, PrevvConfig, Scheduler, SimConfig,
    Simulator, SynthOptions,
};

const N: i64 = 256;

/// Pinned seeds for the generated-kernel sweep (the `--fuzz` corpus base
/// seed, then successors): irregular multi-loop shapes the hand-written
/// fig2a regimes never exercise, so the event-vs-dense gate also covers
/// triangular nests, indirect addressing, and uneven dirty sets.
const GEN_SEED_BASE: u64 = 0x0e1e_5c70_ad89_5542; // fnv("0xPREVV")
const GEN_KERNELS: u64 = 8;

/// On-chip timing, aliasing-heavy indices: the busy regime.
fn bram_workload() -> (KernelSpec, PrevvConfig) {
    let b: Vec<i64> = (0..N).map(|i| (i * 7 + 3) % 16).collect();
    let mut config = PrevvConfig::with_depth(16);
    config.timing = MemTiming {
        read_latency: 3,
        write_latency: 2,
        read_ports: 1,
        write_ports: 1,
    };
    (extra::fig2a(N, b), config)
}

/// External-memory timing, fully serializing indices: the latency-bound
/// regime (every `a[b[i]] += 5` hits the same address, so with forwarding
/// off each load waits for the previous iteration's store to commit).
fn dram_workload() -> (KernelSpec, PrevvConfig) {
    let b: Vec<i64> = vec![0; N as usize];
    let mut config = PrevvConfig::with_depth(16);
    config.forwarding = false;
    config.timing = MemTiming {
        read_latency: 200,
        write_latency: 100,
        read_ports: 1,
        write_ports: 1,
    };
    (extra::fig2a(N, b), config)
}

/// The paper kernels at their default sizes under PreVV16 and on-chip
/// timing: the busy regime the Table II reproduction runs in.
fn paper_workloads() -> Vec<(KernelSpec, PrevvConfig)> {
    paper::all_default()
        .into_iter()
        .map(|spec| (spec, PrevvConfig::prevv16()))
        .collect()
}

/// Generated-kernel sweep: `GEN_KERNELS` irregular shapes from the fuzzer's
/// bench profile, each under the latency-bound regime (external-memory
/// timing, forwarding off) where the levelized scheduler has to earn its
/// keep on loop nests it has never seen hand-tuned.
fn gen_workloads() -> Vec<(KernelSpec, PrevvConfig)> {
    let cfg = GenConfig::bench();
    (0..GEN_KERNELS)
        .map(|i| {
            let spec = generate(GEN_SEED_BASE.wrapping_add(i), &cfg);
            let depth = 16.max(spec.mem_ops_per_iter());
            let mut config = PrevvConfig::with_depth(depth);
            config.forwarding = false;
            config.timing = MemTiming {
                read_latency: 200,
                write_latency: 100,
                read_ports: 1,
                write_ports: 1,
            };
            (spec, config)
        })
        .collect()
}

/// One engine run under `scheduler`, timing `Simulator::run` only.
/// Returns (simulated cycles, seconds).
fn run_once(spec: &KernelSpec, config: &PrevvConfig, scheduler: Scheduler) -> (u64, f64) {
    let mut synth = prevv::ir::synthesize(spec).expect("kernel synthesizes");
    Controller::Prevv(config.clone())
        .attach(&mut synth)
        .expect("valid config");
    let mut sim = Simulator::new(synth.netlist, synth.bus)
        .expect("valid netlist")
        .with_config(SimConfig {
            scheduler,
            ..SimConfig::default()
        });
    let start = Instant::now();
    let report = sim.run().expect("kernel completes");
    let secs = start.elapsed().as_secs_f64();
    (report.cycles, secs)
}

/// Full end-to-end correctness check of one workload under both schedulers
/// (untimed): identical engine reports, memory images, controller
/// statistics and squash logs, and a golden match.
fn check_workload(spec: &KernelSpec, config: &PrevvConfig) -> u64 {
    let [dense, event] = [Scheduler::Dense, Scheduler::EventDriven].map(|scheduler| {
        let sim = SimConfig {
            scheduler,
            ..SimConfig::default()
        };
        run_kernel_with(
            spec,
            Controller::Prevv(config.clone()),
            &SynthOptions::default(),
            &sim,
        )
        .expect("kernel completes")
    });
    assert!(dense.matches_golden, "bench run must stay correct");
    if let Some(diff) = dense.report.diff(&event.report) {
        panic!("{}: schedulers disagree: {diff}", spec.name);
    }
    assert_eq!(dense.arrays, event.arrays, "{}: final memory", spec.name);
    assert_eq!(dense.prevv, event.prevv, "{}: PreVV stats", spec.name);
    assert_eq!(
        dense.squash_log, event.squash_log,
        "{}: squash log",
        spec.name
    );
    dense.report.cycles
}

/// Best-of-`reps` aggregate cycles/second of the dense and the levelized
/// scheduler over a set of workloads, after checking every kernel
/// untimed. One timing sample = every kernel of the set back to back, so
/// slow shapes cannot hide behind fast ones. The two schedulers are sampled
/// alternately, so a slow stretch of a shared host hits both, and best-of
/// suppresses the rest of the noise. Returns (cycles, dense, levelized).
fn compare_schedulers(workloads: &[(KernelSpec, PrevvConfig)], reps: usize) -> (u64, f64, f64) {
    let cycles: u64 = workloads
        .iter()
        .map(|(spec, config)| check_workload(spec, config))
        .sum();
    let mut best = [0.0f64; 2];
    for _ in 0..reps {
        for (k, scheduler) in [Scheduler::Dense, Scheduler::EventDriven]
            .into_iter()
            .enumerate()
        {
            let mut total_cycles = 0u64;
            let mut total_secs = 0.0f64;
            for (spec, config) in workloads {
                let (c, secs) = run_once(spec, config, scheduler);
                total_cycles += c;
                total_secs += secs;
            }
            assert_eq!(total_cycles, cycles);
            best[k] = best[k].max(total_cycles as f64 / total_secs);
        }
    }
    (cycles, best[0], best[1])
}

fn bench_schedulers(c: &mut Criterion) {
    let (spec, config) = dram_workload();
    let mut g = c.benchmark_group("sim_cycles_per_sec");
    g.bench_function("dense", |b| {
        b.iter(|| run_once(&spec, &config, Scheduler::Dense));
    });
    g.bench_function("event", |b| {
        b.iter(|| run_once(&spec, &config, Scheduler::EventDriven));
    });
    g.finish();
}

/// A linear pipeline: source -> fork -> (chain of adders) -> sink.
fn pipeline(iters: i64, stages: usize) -> (Netlist, SquashBus) {
    let mut net = Netlist::new();
    let bus = SquashBus::new();
    let src = net.channel();
    let mut chain_in = net.channel();
    let const_trigs: Vec<_> = (0..stages).map(|_| net.channel()).collect();
    let mut fork_outs = vec![chain_in];
    fork_outs.extend(const_trigs.iter().copied());
    net.add(
        "src",
        IterSource::new((0..iters).map(|i| vec![i]).collect(), vec![src]),
    );
    // Buffer each constant trigger so the source is never the bottleneck.
    let mut buffered = vec![fork_outs[0]];
    for (k, &t) in const_trigs.iter().enumerate() {
        let slot = net.channel();
        net.add(format!("buf{k}"), Buffer::new(4, slot, t));
        buffered.push(slot);
    }
    net.add("fork", Fork::new(src, buffered));
    for (k, trig) in const_trigs.into_iter().enumerate() {
        let c = net.channel();
        let out = net.channel();
        net.add(format!("const{k}"), Constant::new(1, trig, c));
        net.add(
            format!("add{k}"),
            BinaryAlu::with_latency(BinOp::Add, 1, chain_in, c, out),
        );
        chain_in = out;
    }
    net.add("sink", Sink::new(vec![chain_in]));
    (net, bus)
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    for &stages in &[4usize, 16, 64] {
        g.bench_with_input(
            BenchmarkId::new("pipeline_256_iters", stages),
            &stages,
            |b, &stages| {
                b.iter(|| {
                    let (net, bus) = pipeline(256, stages);
                    let mut sim = Simulator::new(net, bus).expect("valid");
                    sim.run().expect("completes")
                });
            },
        );
    }
    g.finish();
}

fn bench_fixpoint_convergence(c: &mut Criterion) {
    // Per-cycle cost on a wide netlist (many independent components).
    c.bench_function("engine/step_wide_64", |b| {
        let (net, bus) = pipeline(1_000_000, 64);
        let mut sim = Simulator::new(net, bus).expect("valid");
        b.iter(|| sim.step().expect("steps"));
    });
}

/// Emits the machine-readable summary line `scripts/verify.sh` consumes.
fn emit_summary(_c: &mut Criterion) {
    let (bram_cycles, bram_dense, bram_event) = compare_schedulers(&[bram_workload()], 5);
    let (dram_cycles, dram_dense, dram_event) = compare_schedulers(&[dram_workload()], 5);
    let (paper_cycles, paper_dense, paper_event) = compare_schedulers(&paper_workloads(), 3);
    let (gen_cycles, gen_dense, gen_event) = compare_schedulers(&gen_workloads(), 3);

    let speedup = dram_event / dram_dense;
    let paper_speedup = paper_event / paper_dense;
    let gen_speedup = gen_event / gen_dense;
    println!(
        "BENCH_SIM_JSON {{\"workload\": \"fig2a n=256 prevv16, engine-only, best of 5\", \
         \"bram_cycles\": {bram_cycles}, \"bram_dense_cps\": {bram_dense:.0}, \
         \"bram_event_cps\": {bram_event:.0}, \
         \"dram_cycles\": {dram_cycles}, \"dram_dense_cps\": {dram_dense:.0}, \
         \"dram_event_cps\": {dram_event:.0}, \"event_speedup\": {speedup:.2}, \
         \"paper_workload\": \"paper::all_default() prevv16, best of 3\", \
         \"paper_cycles\": {paper_cycles}, \"paper_dense_cps\": {paper_dense:.0}, \
         \"paper_event_cps\": {paper_event:.0}, \"paper_event_speedup\": {paper_speedup:.2}, \
         \"gen_workload\": \"fuzz bench profile x{GEN_KERNELS} seed 0xPREVV, \
         dram timing, best of 3\", \
         \"gen_cycles\": {gen_cycles}, \"gen_dense_cps\": {gen_dense:.0}, \
         \"gen_event_cps\": {gen_event:.0}, \"gen_event_speedup\": {gen_speedup:.2}}}"
    );
}

criterion_group!(
    schedulers,
    bench_schedulers,
    bench_engine,
    bench_fixpoint_convergence
);
criterion_group!(summary, emit_summary);
criterion_main!(schedulers, summary);
