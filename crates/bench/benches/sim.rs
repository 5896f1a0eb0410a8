//! Engine-scheduler throughput: simulated cycles per wall-clock second for
//! the dense reference sweep versus the event-driven dirty-set fixpoint, on
//! the paper's fig2a kernel under the default PreVV controller. The final
//! `BENCH_SIM_JSON` line is machine-readable; `scripts/verify.sh` runs this
//! bench, records the best-of-5 figures into `BENCH_sim.json`, and fails the
//! build if the event-driven default ever drops below dense throughput on
//! the latency-bound workload.
//!
//! Two regimes of the same kernel are measured:
//!
//! * **bram** — on-chip memory timing (3-cycle reads) and an aliasing-heavy
//!   index vector: nearly every cycle some channel fires, so the dirty set
//!   stays large and event-driven scheduling buys little (it may even trail
//!   the dense sweep slightly — the honest worst case).
//! * **dram** — external-memory timing (200-cycle reads) and a fully
//!   serializing index vector (`b[i] = 0` with forwarding off): the RAW
//!   chain keeps the circuit quiescent most cycles, which is exactly the
//!   regime an event-driven scheduler exploits. The dense sweep re-evaluates
//!   every stalled component every fixpoint iteration regardless.
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
use prevv::kernels::extra;
use prevv::kernels::gen::{generate, GenConfig};
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

/// Generated-kernel sweep: `GEN_KERNELS` irregular shapes from the fuzzer's
/// bench profile, each under the latency-bound regime (external-memory
/// timing, forwarding off) where the dirty-set scheduler has to earn its
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
    let mut synth = prevv::ir::synthesize(spec).expect("fig2a synthesizes");
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
    let report = sim.run().expect("fig2a completes");
    let secs = start.elapsed().as_secs_f64();
    (report.cycles, secs)
}

/// Best-of-5 cycles/second — best-of suppresses scheduler noise on a
/// shared box, mirroring the modelcheck bench.
fn best_cycles_per_sec(
    spec: &KernelSpec,
    config: &PrevvConfig,
    scheduler: Scheduler,
) -> (u64, f64) {
    let mut best = 0.0f64;
    let mut cycles = 0;
    for _ in 0..5 {
        let (c, secs) = run_once(spec, config, scheduler);
        cycles = c;
        best = best.max(c as f64 / secs);
    }
    (cycles, best)
}

/// Full end-to-end correctness check of one workload under both schedulers
/// (untimed): identical cycle counts and golden memory images.
fn check_workload(spec: &KernelSpec, config: &PrevvConfig) -> u64 {
    let mut cycles = None;
    for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
        let sim = SimConfig {
            scheduler,
            ..SimConfig::default()
        };
        let result = run_kernel_with(
            spec,
            Controller::Prevv(config.clone()),
            &SynthOptions::default(),
            &sim,
        )
        .expect("fig2a completes");
        assert!(result.matches_golden, "bench run must stay correct");
        let prev = cycles.replace(result.report.cycles);
        if let Some(p) = prev {
            assert_eq!(p, result.report.cycles, "schedulers must agree");
        }
    }
    cycles.expect("both schedulers ran")
}

/// Best-of-3 aggregate cycles/second over the whole generated sweep (one
/// timing sample = every sweep kernel back to back, so slow shapes cannot
/// hide behind fast ones).
fn sweep_cycles_per_sec(
    workloads: &[(KernelSpec, PrevvConfig)],
    scheduler: Scheduler,
) -> (u64, f64) {
    let mut best = 0.0f64;
    let mut total_cycles = 0u64;
    for _ in 0..3 {
        total_cycles = 0;
        let mut total_secs = 0.0f64;
        for (spec, config) in workloads {
            let (c, secs) = run_once(spec, config, scheduler);
            total_cycles += c;
            total_secs += secs;
        }
        best = best.max(total_cycles as f64 / total_secs);
    }
    (total_cycles, best)
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
        IterSource::new(
            (0..iters).map(|i| vec![i]).collect(),
            vec![src],
            bus.clone(),
        ),
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
    let (bram_spec, bram_config) = bram_workload();
    let (dram_spec, dram_config) = dram_workload();
    let bram_cycles = check_workload(&bram_spec, &bram_config);
    let dram_cycles = check_workload(&dram_spec, &dram_config);

    let (c, bram_dense) = best_cycles_per_sec(&bram_spec, &bram_config, Scheduler::Dense);
    assert_eq!(c, bram_cycles);
    let (c, bram_event) = best_cycles_per_sec(&bram_spec, &bram_config, Scheduler::EventDriven);
    assert_eq!(c, bram_cycles);
    let (c, dram_dense) = best_cycles_per_sec(&dram_spec, &dram_config, Scheduler::Dense);
    assert_eq!(c, dram_cycles);
    let (c, dram_event) = best_cycles_per_sec(&dram_spec, &dram_config, Scheduler::EventDriven);
    assert_eq!(c, dram_cycles);

    // Generated-kernel sweep: correctness-check every shape untimed, then
    // time the aggregate under each scheduler.
    let sweep = gen_workloads();
    let mut gen_cycles = 0u64;
    for (spec, config) in &sweep {
        gen_cycles += check_workload(spec, config);
    }
    let (c, gen_dense) = sweep_cycles_per_sec(&sweep, Scheduler::Dense);
    assert_eq!(c, gen_cycles);
    let (c, gen_event) = sweep_cycles_per_sec(&sweep, Scheduler::EventDriven);
    assert_eq!(c, gen_cycles);

    let speedup = dram_event / dram_dense;
    let gen_speedup = gen_event / gen_dense;
    println!(
        "BENCH_SIM_JSON {{\"workload\": \"fig2a n=256 prevv16, engine-only, best of 5\", \
         \"bram_cycles\": {bram_cycles}, \"bram_dense_cps\": {bram_dense:.0}, \
         \"bram_event_cps\": {bram_event:.0}, \
         \"dram_cycles\": {dram_cycles}, \"dram_dense_cps\": {dram_dense:.0}, \
         \"dram_event_cps\": {dram_event:.0}, \"event_speedup\": {speedup:.2}, \
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
