//! The experiment implementations behind the `fig1`, `table1`, `table2`,
//! `fig7`, and `ablation` binaries — see DESIGN.md §3 for the
//! per-experiment index.

use prevv::kernels::{extra, paper};
use prevv::{
    evaluate, run_kernel_with, Controller, ControllerKind, KernelSpec, PrevvConfig, Resources,
    RunError, SimConfig, SynthOptions,
};

/// The four configurations of the paper's Tables I/II, in column order,
/// plus the speculative-allocation LSQ (`spec16`, modeled after
/// Szafarczyk et al. FPL'23) — not a paper column, but reported alongside
/// them in the regenerated tables as the strongest LSQ baseline.
pub fn configs() -> Vec<(String, Controller)> {
    vec![
        ("[15]".into(), Controller::Dynamatic { depth: 16 }),
        ("[8]".into(), Controller::FastLsq { depth: 16 }),
        ("spec16".into(), Controller::SpecLsq { depth: 16 }),
        ("PreVV16".into(), Controller::Prevv(PrevvConfig::prevv16())),
        ("PreVV64".into(), Controller::Prevv(PrevvConfig::prevv64())),
    ]
}

/// One measured data point: kernel × configuration.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Kernel name.
    pub kernel: String,
    /// Configuration name (paper column).
    pub config: String,
    /// Estimated resources.
    pub resources: Resources,
    /// Fraction of LUTs in the disambiguation controller.
    pub controller_share: f64,
    /// Simulated cycle count.
    pub cycles: u64,
    /// Estimated clock period (ns).
    pub cp_ns: f64,
    /// Execution time (µs) = cycles × CP.
    pub exec_us: f64,
    /// Pipeline squashes (PreVV only; 0 for LSQs).
    pub squashes: u64,
    /// Result correctness vs. the golden model.
    pub matches_golden: bool,
}

/// Evaluates one kernel under one configuration.
///
/// # Errors
///
/// Propagates [`RunError`] from synthesis or simulation.
pub fn bench_point(
    spec: &KernelSpec,
    name: &str,
    ctrl: Controller,
) -> Result<BenchPoint, RunError> {
    let e = evaluate(spec, ctrl)?;
    Ok(BenchPoint {
        kernel: spec.name.clone(),
        config: name.to_string(),
        resources: e.design.total(),
        controller_share: e.design.controller_lut_share(),
        cycles: e.run.report.cycles,
        cp_ns: e.design.clock_period_ns,
        exec_us: e.exec_time_us,
        squashes: e.run.report.squashes,
        matches_golden: e.run.matches_golden,
    })
}

/// Runs the full 5-kernel × 4-configuration grid of Tables I/II.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn evaluate_grid() -> Result<Vec<BenchPoint>, RunError> {
    let mut out = Vec::new();
    for spec in paper::all_default() {
        for (name, ctrl) in configs() {
            out.push(bench_point(&spec, &name, ctrl)?);
        }
    }
    Ok(out)
}

/// Fig. 1 data: the LSQ's share of each Dynamatic circuit's resources.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Kernel name.
    pub kernel: String,
    /// LSQ resources.
    pub lsq: Resources,
    /// Computation (datapath) resources.
    pub datapath: Resources,
    /// LSQ share of LUTs.
    pub lut_share: f64,
}

/// Computes Fig. 1 (no simulation needed — it is a resource breakdown).
///
/// # Errors
///
/// Propagates kernel synthesis errors.
pub fn fig1() -> Result<Vec<Fig1Row>, RunError> {
    let mut rows = Vec::new();
    for spec in paper::all_default() {
        let synth = prevv::ir::synthesize(&spec)?;
        let rep = prevv::area::estimate(&synth, ControllerKind::Dynamatic { depth: 16 });
        rows.push(Fig1Row {
            kernel: spec.name.clone(),
            lsq: rep.controller,
            datapath: rep.datapath,
            lut_share: rep.controller_lut_share(),
        });
    }
    Ok(rows)
}

/// One step of the `depth_q` sweep (experiment E6).
#[derive(Debug, Clone)]
pub struct DepthPoint {
    /// Queue depth.
    pub depth: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// Total LUTs.
    pub luts: u64,
    /// Squashes.
    pub squashes: u64,
    /// Cycles an arrival stalled on a full queue.
    pub queue_full_stalls: u64,
    /// Peak queue occupancy.
    pub high_water: usize,
}

/// Sweeps the premature queue depth on one kernel.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn depth_sweep(spec: &KernelSpec, depths: &[usize]) -> Result<Vec<DepthPoint>, RunError> {
    // One premature-queue record per memory op of an iteration must fit.
    let min_depth = spec.mem_ops_per_iter();
    depths
        .iter()
        .filter(|&&d| d >= min_depth)
        .map(|&depth| {
            let e = evaluate(spec, Controller::Prevv(PrevvConfig::with_depth(depth)))?;
            let stats = e.run.prevv.expect("prevv controller");
            Ok(DepthPoint {
                depth,
                cycles: e.run.report.cycles,
                luts: e.design.total().luts,
                squashes: stats.squashes,
                queue_full_stalls: stats.queue_full_stalls,
                high_water: stats.queue_high_water,
            })
        })
        .collect()
}

/// Outcome of the §V-C deadlock demonstration (experiment E5).
#[derive(Debug)]
pub struct DeadlockDemo {
    /// Cycles with fake tokens enabled (completes).
    pub with_fakes_cycles: u64,
    /// Fake tokens delivered.
    pub fakes: u64,
    /// The error produced without fake tokens (expected: deadlock).
    pub without_fakes: RunError,
}

/// Runs the guarded kernel with and without fake tokens.
///
/// # Errors
///
/// Returns an error if the *with-fakes* run fails, or if the without-fakes
/// run unexpectedly succeeds.
pub fn deadlock_demo() -> Result<DeadlockDemo, RunError> {
    let spec = extra::guarded_update(64, 3);
    let ok = run_kernel_with(
        &spec,
        Controller::Prevv(PrevvConfig::with_depth(4)),
        &SynthOptions::default(),
        &SimConfig {
            max_cycles: 500_000,
            watchdog: 2_000,
            ..SimConfig::default()
        },
    )?;
    let no_fakes = SynthOptions { fake_tokens: false };
    let err = match run_kernel_with(
        &spec,
        Controller::Prevv(PrevvConfig::with_depth(4)),
        &no_fakes,
        &SimConfig {
            max_cycles: 500_000,
            watchdog: 2_000,
            ..SimConfig::default()
        },
    ) {
        Err(e) => e,
        Ok(_) => {
            return Err(RunError::Sim(prevv::SimError::Timeout { max_cycles: 0 }));
        }
    };
    Ok(DeadlockDemo {
        with_fakes_cycles: ok.report.cycles,
        fakes: ok.prevv.map_or(0, |s| s.fakes),
        without_fakes: err,
    })
}

/// One row of the §V-B scalability comparison (experiment E7).
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Number of loads sharing the store's ambiguity.
    pub width: usize,
    /// Ambiguous pairs found.
    pub pairs: usize,
    /// LUTs of the shared-queue PreVV (with pair reduction).
    pub shared_luts: u64,
    /// LUTs of naive per-pair replication (paper Eq. 11).
    pub naive_luts: u64,
    /// Clock period of the shared design.
    pub shared_cp: f64,
    /// Clock period of the naive design (Eq. 12 degradation).
    pub naive_cp: f64,
}

/// Prices shared vs. naive PreVV as the overlapped-pair count grows.
///
/// # Errors
///
/// Propagates kernel synthesis errors.
pub fn scalability(widths: &[usize]) -> Result<Vec<ScalabilityRow>, RunError> {
    widths
        .iter()
        .map(|&w| {
            let spec = extra::overlapped_pairs(12, w);
            let synth = prevv::ir::synthesize(&spec)?;
            let shared_kind = ControllerKind::Prevv {
                depth: 16,
                pair_reduction: true,
            };
            let naive_kind = ControllerKind::NaivePrevvPerPair { depth: 16 };
            let shared = prevv::area::estimate(&synth, shared_kind);
            let naive = prevv::area::estimate(&synth, naive_kind);
            Ok(ScalabilityRow {
                width: w,
                pairs: synth.interface.pairs.len(),
                shared_luts: shared.total().luts,
                naive_luts: naive.total().luts,
                shared_cp: shared.clock_period_ns,
                naive_cp: naive.clock_period_ns,
            })
        })
        .collect()
}

/// Forwarding (queue bypass) ablation on a hazard-heavy kernel.
#[derive(Debug, Clone, Copy)]
pub struct ForwardingAblation {
    /// Cycles with bypass (architecture default).
    pub bypass_cycles: u64,
    /// Squashes with bypass.
    pub bypass_squashes: u64,
    /// Cycles in pure squash-on-mismatch mode.
    pub pure_cycles: u64,
    /// Squashes in pure mode.
    pub pure_squashes: u64,
}

/// One step of the memory-bandwidth ablation.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthPoint {
    /// Parallel RAM read ports.
    pub read_ports: u32,
    /// Parallel commit (write) ports.
    pub write_ports: u32,
    /// Simulated cycles under PreVV64.
    pub cycles: u64,
}

/// Sweeps RAM port bandwidth for PreVV64 on one kernel — out-of-order
/// issue only pays off if the memory system can absorb it.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn bandwidth_sweep(spec: &KernelSpec) -> Result<Vec<BandwidthPoint>, RunError> {
    [(1u32, 1u32), (2, 1), (2, 2), (4, 2)]
        .into_iter()
        .map(|(read_ports, write_ports)| {
            let mut cfg = PrevvConfig::prevv64();
            cfg.timing.read_ports = read_ports;
            cfg.timing.write_ports = write_ports;
            let e = evaluate(spec, Controller::Prevv(cfg))?;
            Ok(BandwidthPoint {
                read_ports,
                write_ports,
                cycles: e.run.report.cycles,
            })
        })
        .collect()
}

/// Compares PreVV with and without the queue bypass.
///
/// # Errors
///
/// Propagates the first [`RunError`].
pub fn forwarding_ablation(spec: &KernelSpec) -> Result<ForwardingAblation, RunError> {
    let with = evaluate(spec, Controller::Prevv(PrevvConfig::prevv16()))?;
    let mut cfg = PrevvConfig::prevv16();
    cfg.forwarding = false;
    let without = evaluate(spec, Controller::Prevv(cfg))?;
    Ok(ForwardingAblation {
        bypass_cycles: with.run.report.cycles,
        bypass_squashes: with.run.report.squashes,
        pure_cycles: without.run.report.cycles,
        pure_squashes: without.run.report.squashes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_the_lsq_dominance_claim() {
        for row in fig1().expect("fig1 computes") {
            assert!(
                row.lut_share > crate::paper_data::FIG1_LSQ_SHARE,
                "{}: LSQ share {:.2}",
                row.kernel,
                row.lut_share
            );
        }
    }

    #[test]
    fn evaluate_matches_standalone_pricing_and_run_kernel() {
        // One synthesis serves both halves of `evaluate`: its design must
        // equal pricing a fresh synthesis, and its run a fresh `run_kernel`.
        for spec in paper::all_default() {
            for (name, ctrl) in configs() {
                let e = evaluate(&spec, ctrl.clone()).expect("evaluates");
                let synth = prevv::ir::synthesize(&spec).expect("synthesizes");
                let kind = ctrl.area_kind().expect("paper configs are priced");
                let priced = prevv::area::estimate(&synth, kind);
                assert_eq!(e.design, priced, "{}/{name}", spec.name);
                let run = prevv::run_kernel(&spec, ctrl).expect("runs");
                assert_eq!(e.run.arrays, run.arrays, "{}/{name}", spec.name);
                assert_eq!(e.run.report, run.report, "{}/{name}", spec.name);
            }
        }
    }

    #[test]
    fn depth_sweep_is_monotone_in_stalls() {
        let spec = extra::histogram(64, 6, 9);
        let pts = depth_sweep(&spec, &[4, 16, 64]).expect("sweeps");
        assert!(pts[0].queue_full_stalls >= pts[2].queue_full_stalls);
        assert!(pts[0].luts < pts[2].luts);
        assert!(pts.iter().all(|p| p.high_water <= p.depth));
    }

    #[test]
    fn deadlock_demo_shows_both_sides() {
        let d = deadlock_demo().expect("runs");
        assert!(d.fakes > 0);
        assert!(matches!(
            d.without_fakes,
            RunError::Sim(prevv::SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn scalability_gap_grows_with_width() {
        let rows = scalability(&[1, 2, 4]).expect("prices");
        let gap = |r: &ScalabilityRow| r.naive_luts as f64 / r.shared_luts as f64;
        assert!(gap(&rows[2]) > gap(&rows[0]));
        assert!(rows[2].naive_cp > rows[2].shared_cp);
    }

    #[test]
    fn bandwidth_helps_or_is_neutral() {
        let spec = paper::polyn_mult(8);
        let pts = bandwidth_sweep(&spec).expect("sweeps");
        assert_eq!(pts.len(), 4);
        let first = pts.first().expect("non-empty").cycles;
        let last = pts.last().expect("non-empty").cycles;
        assert!(
            last <= first,
            "more ports must not slow the kernel: {first} -> {last}"
        );
    }

    #[test]
    fn forwarding_ablation_pure_mode_squashes_more() {
        let spec = extra::serial_reduction(32);
        let a = forwarding_ablation(&spec).expect("runs");
        assert!(a.pure_squashes >= a.bypass_squashes);
    }
}
