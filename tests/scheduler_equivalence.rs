//! End-to-end scheduler equivalence: the levelized dirty-sweep fixpoint
//! (`Scheduler::EventDriven`) must be observationally identical to the dense
//! reference sweep through the whole stack — synthesized kernels, a PreVV
//! controller that actually squashes and replays, and randomized memory
//! timings. The substrate-level
//! version of this property (hand-built netlists, divergence diagnostics)
//! lives in `crates/dataflow/tests/scheduler.rs`; this file asserts it
//! survives composition with real controllers.

use proptest::prelude::*;

use prevv::kernels::gen::{generate, GenConfig};
use prevv::kernels::{extra, paper};
use prevv::{
    run_kernel_with, Controller, KernelSpec, MemTiming, PrevvConfig, Scheduler, SimConfig,
    Simulator, SynthOptions,
};

fn run(spec: &KernelSpec, config: PrevvConfig, scheduler: Scheduler) -> prevv::RunResult {
    let sim = SimConfig {
        scheduler,
        ..SimConfig::default()
    };
    run_kernel_with(
        spec,
        Controller::Prevv(config),
        &SynthOptions::default(),
        &sim,
    )
    .expect("simulation completes")
}

/// Asserts the full observable outcome matches: engine report (cycles,
/// transfers, stalls, squashes, replays, per-channel attribution), final
/// memory, controller statistics, squash log, and golden verdict.
fn assert_equivalent(spec: &KernelSpec, config: PrevvConfig) {
    let dense = run(spec, config.clone(), Scheduler::Dense);
    let event = run(spec, config, Scheduler::EventDriven);
    if let Some(diff) = dense.report.diff(&event.report) {
        panic!("{}: schedulers disagree: {diff}", spec.name);
    }
    assert_eq!(dense.arrays, event.arrays, "{}: final memory", spec.name);
    assert_eq!(dense.prevv, event.prevv, "{}: PreVV stats", spec.name);
    assert_eq!(dense.lsq, event.lsq, "{}: LSQ stats", spec.name);
    assert_eq!(
        dense.squash_log, event.squash_log,
        "{}: squash log",
        spec.name
    );
    assert_eq!(dense.matches_golden, event.matches_golden);
    assert!(dense.matches_golden, "{}: golden check", spec.name);
}

/// The five stock kernels under the default PreVV configuration — the
/// acceptance bar for making event-driven the default scheduler.
#[test]
fn schedulers_agree_on_all_stock_kernels() {
    let b: Vec<i64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let specs = [
        extra::fig2a(16, b),
        extra::guarded_update(24, 3),
        extra::histogram(32, 8, 7),
        paper::polyn_mult(12),
        paper::triangular(10),
    ];
    for spec in &specs {
        assert_equivalent(spec, PrevvConfig::default());
    }
}

/// The serial reduction chains every iteration through one address, so
/// premature execution without forwarding mis-speculates repeatedly; the
/// schedulers must agree on every squash event, not just the totals.
#[test]
fn schedulers_agree_under_squash_and_replay() {
    let spec = extra::serial_reduction(48);
    let mut config = PrevvConfig::with_depth(16);
    config.forwarding = false;
    config.timing = MemTiming {
        read_latency: 3,
        write_latency: 2,
        read_ports: 1,
        write_ports: 1,
    };
    let dense = run(&spec, config.clone(), Scheduler::Dense);
    assert!(
        dense.report.squashes > 0,
        "stimulus must actually squash (got {})",
        dense.report.squashes
    );
    assert_equivalent(&spec, config);
}

/// External-memory timing: `read` cycles per load, half that per store.
fn long_timing(read: u32) -> MemTiming {
    MemTiming {
        read_latency: read,
        write_latency: read / 2,
        read_ports: 1,
        write_ports: 1,
    }
}

/// Long memory latencies are where the event scheduler crosses whole quiet
/// runs in one step. The queue is as shallow as PreVV allows, so arrivals
/// park behind a full queue and the skipped cycles repeat cached holds.
#[test]
fn schedulers_agree_across_long_memory_waits() {
    let b: Vec<i64> = (0..64).map(|i| [0, 3, 0, 7, 1, 0][i % 6]).collect();
    let mut specs = vec![extra::fig2a(64, b), extra::serial_reduction(48)];
    // Two generated kernels that squash and learn predictor holds.
    specs.extend([9, 19].map(|seed| generate(seed, &GenConfig::default())));
    for spec in &specs {
        for read in [57, 200] {
            for forwarding in [true, false] {
                let mut config = PrevvConfig::with_depth(spec.mem_ops_per_iter());
                config.timing = long_timing(read);
                config.forwarding = forwarding;
                assert_equivalent(spec, config);
            }
        }
    }
}

/// Cycles the event scheduler skips on `spec` (attached the way
/// `run_kernel` does), as a fraction of all simulated cycles.
fn skipped_fraction(spec: &KernelSpec, config: PrevvConfig) -> f64 {
    let mut synth = prevv::ir::synthesize(spec).expect("synthesizes");
    Controller::Prevv(config)
        .attach(&mut synth)
        .expect("valid config");
    let mut sim = Simulator::new(synth.netlist, synth.bus).expect("valid netlist");
    let report = sim.run().expect("completes");
    sim.skipped_cycles() as f64 / report.cycles as f64
}

/// A serialized DRAM chain is almost all memory wait and is skipped;
/// a busy on-chip kernel has almost no quiet runs.
#[test]
fn quiet_runs_are_skipped_where_memory_waits() {
    let mut dram = PrevvConfig::prevv16();
    dram.forwarding = false;
    dram.timing = long_timing(200);
    let serial = skipped_fraction(&extra::fig2a(256, vec![0; 256]), dram);
    assert!(
        serial >= 0.9,
        "fig2a under 200/100 timing skipped {serial:.3}"
    );
    let busy = skipped_fraction(&paper::polyn_mult(12), PrevvConfig::default());
    assert!(
        busy < 0.01,
        "polyn_mult under default timing skipped {busy:.3}"
    );
}

fn timing_strategy() -> impl Strategy<Value = MemTiming> {
    (1u32..5, 1u32..4, 1u32..3).prop_map(|(read_latency, write_latency, read_ports)| MemTiming {
        read_latency,
        write_latency,
        read_ports,
        write_ports: 1,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Randomized memory timings, queue depths, and forwarding settings over
    /// the squash-prone kernels: every draw must be scheduler-invariant.
    #[test]
    fn schedulers_agree_under_random_timing(
        kernel in 0usize..3,
        timing in timing_strategy(),
        depth in 4usize..32,
        forwarding in any::<bool>(),
    ) {
        let spec = match kernel {
            0 => extra::fig2a(12, vec![1; 12]),
            1 => extra::serial_reduction(12),
            _ => extra::histogram(16, 4, 11),
        };
        let ports = prevv::ir::synthesize(&spec).expect("synth").interface.ports.len();
        prop_assume!(depth >= ports);
        let mut config = PrevvConfig::with_depth(depth);
        config.timing = timing;
        config.forwarding = forwarding;
        let dense = run(&spec, config.clone(), Scheduler::Dense);
        let event = run(&spec, config, Scheduler::EventDriven);
        prop_assert!(
            dense.report.diff(&event.report).is_none(),
            "{}: {}",
            spec.name,
            dense.report.diff(&event.report).unwrap()
        );
        prop_assert_eq!(&dense.arrays, &event.arrays);
        prop_assert_eq!(dense.prevv, event.prevv);
        prop_assert_eq!(&dense.squash_log, &event.squash_log);
        prop_assert!(dense.matches_golden);
    }
}
