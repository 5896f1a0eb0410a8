//! # prevv — premature value validation for dataflow circuits
//!
//! A full-system reproduction of *"PreVV: Eliminating Store Queue via
//! Premature Value Validation for Dataflow Circuit on FPGA"* (DATE 2025) in
//! pure Rust: a cycle-accurate elastic-circuit simulator, a kernel IR with
//! dependence analysis and synthesis, Dynamatic-style LSQ baselines, the
//! PreVV architecture itself, an FPGA resource/timing model, and the
//! benchmark kernels and experiment harness that regenerate every table and
//! figure of the paper. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! This crate is the facade: it re-exports the workspace crates and offers
//! a one-call harness ([`run_kernel`], [`evaluate`]) that synthesizes a
//! kernel, attaches the requested disambiguation controller, simulates to
//! quiescence, checks the result against the golden model, and prices the
//! design.
//!
//! ## Quickstart
//!
//! ```
//! use prevv::{evaluate, Controller};
//! use prevv::kernels::extra;
//!
//! # fn main() -> Result<(), prevv::RunError> {
//! let spec = extra::histogram(64, 8, 42);
//! let lsq = evaluate(&spec, Controller::FastLsq { depth: 16 })?;
//! let prevv = evaluate(&spec, Controller::Prevv(prevv::PrevvConfig::prevv16()))?;
//! assert!(lsq.run.matches_golden && prevv.run.matches_golden);
//! assert!(prevv.design.total().luts < lsq.design.total().luts);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod diffcheck;

pub use prevv_analyze::{
    AnalyzeError, AnalyzeOptions, CircuitOptions, ControllerModel, Diagnostic, Report, Severity,
};
pub use prevv_area::{ControllerKind, DesignReport, Resources};
pub use prevv_core::{PrevvConfig, PrevvError, PrevvMemory, PrevvStats, SquashEvent};
pub use prevv_dataflow::{Scheduler, SimConfig, SimError, SimReport, Simulator, Value};
pub use prevv_ir::{KernelError, KernelSpec, SynthOptions};
pub use prevv_mem::{Lsq, LsqConfig, LsqError, LsqStats, MemTiming};

use prevv_core::{SharedPrevvStats, SharedSquashLog};
use prevv_ir::{MemoryInterface, SynthesizedKernel};
use prevv_mem::{SharedLsqStats, SharedRam};

/// Static analysis (lints) over kernels.
pub use prevv_analyze as analyze;
/// Resource and timing models.
pub use prevv_area as area;
/// The PreVV architecture.
pub use prevv_core as prevv_core_crate;
/// The dataflow-circuit substrate.
pub use prevv_dataflow as dataflow;
/// Kernel IR, dependence analysis, synthesis.
pub use prevv_ir as ir;
/// Benchmark kernels.
pub use prevv_kernels as kernels;
/// Memory subsystem and LSQ baselines.
pub use prevv_mem as mem;

/// Which disambiguation controller to attach to a synthesized kernel.
#[derive(Debug, Clone)]
pub enum Controller {
    /// No disambiguation (mis-executes on hazards — demonstration only).
    Direct,
    /// Plain Dynamatic LSQ \[15\].
    Dynamatic {
        /// Load/store queue depth.
        depth: usize,
    },
    /// Fast-allocation LSQ \[8\].
    FastLsq {
        /// Load/store queue depth.
        depth: usize,
    },
    /// Speculative-allocation LSQ (Szafarczyk et al., FPL'23).
    SpecLsq {
        /// Load/store queue depth (also the speculation window).
        depth: usize,
    },
    /// Premature value validation (this paper).
    Prevv(PrevvConfig),
}

impl Controller {
    /// Display name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            Controller::Direct => "direct".into(),
            Controller::Dynamatic { .. } => "[15]".into(),
            Controller::FastLsq { .. } => "[8]".into(),
            Controller::SpecLsq { depth } => format!("spec{depth}"),
            Controller::Prevv(c) => format!("PreVV{}", c.depth),
        }
    }

    /// The [`ControllerModel`] the PV1xx circuit lints should close the
    /// open memory ports with when this controller will be attached.
    pub fn circuit_model(&self) -> ControllerModel {
        match self {
            Controller::Direct => ControllerModel::Direct,
            Controller::Dynamatic { depth }
            | Controller::FastLsq { depth }
            | Controller::SpecLsq { depth } => {
                // An LSQ holds `depth` loads plus `depth` stores.
                ControllerModel::Lsq {
                    capacity: 2 * depth,
                }
            }
            Controller::Prevv(c) => ControllerModel::Queue { capacity: c.depth },
        }
    }

    /// The area-model controller kind (Direct prices as zero).
    pub fn area_kind(&self) -> Option<ControllerKind> {
        match self {
            Controller::Direct => None,
            Controller::Dynamatic { depth } => Some(ControllerKind::Dynamatic { depth: *depth }),
            Controller::FastLsq { depth } => Some(ControllerKind::FastLsq { depth: *depth }),
            // The speculative-allocation LSQ keeps the fast-allocation
            // queue structure (same CAMs and encoders) and only moves the
            // allocator off the critical path, so its resource model is
            // priced as the fast LSQ of the same depth.
            Controller::SpecLsq { depth } => Some(ControllerKind::FastLsq { depth: *depth }),
            Controller::Prevv(c) => Some(ControllerKind::Prevv {
                depth: c.depth,
                pair_reduction: c.pair_reduction,
            }),
        }
    }

    /// Builds this controller over `synth`'s memory interface and adds it
    /// to the netlist, labelled `mem`, `lsq`, `spec_lsq` or `prevv`. The
    /// returned handles stay readable after the netlist moves into the
    /// simulator; [`Attached::finish`] turns them into a [`RunResult`].
    ///
    /// Only PreVV squashes. For every other controller the squash floor
    /// goes to `u64::MAX` here, so the iteration source keeps no row behind
    /// the one it is issuing; PreVV raises the floor to its retirement
    /// frontier as it runs.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Lsq`] / [`RunError::Prevv`] when the queues
    /// cannot hold one iteration's operations.
    pub fn attach(&self, synth: &mut SynthesizedKernel) -> Result<Attached, RunError> {
        let iface = synth.interface.clone();
        let bare = |ram| Attached {
            controller: self.name(),
            ram,
            lsq: None,
            prevv: None,
            squash_log: None,
        };
        if !matches!(self, Controller::Prevv(_)) {
            synth.bus.raise_floor(u64::MAX);
        }
        let (config, label) = match self {
            Controller::Direct => {
                let (ctrl, ram) = prevv_mem::DirectMemory::new(iface, MemTiming::default());
                synth.netlist.add("mem", ctrl);
                return Ok(bare(ram));
            }
            Controller::Prevv(config) => {
                let (ctrl, ram, stats) =
                    PrevvMemory::new(iface, config.clone(), synth.bus.clone())?;
                let squash_log = Some(ctrl.squash_log());
                synth.netlist.add("prevv", ctrl);
                return Ok(Attached {
                    prevv: Some(stats),
                    squash_log,
                    ..bare(ram)
                });
            }
            Controller::Dynamatic { depth } => (LsqConfig::dynamatic(*depth), "lsq"),
            Controller::FastLsq { depth } => (LsqConfig::fast(*depth), "lsq"),
            Controller::SpecLsq { depth } => (LsqConfig::speculative(*depth), "spec_lsq"),
        };
        let (ctrl, ram, stats) = Lsq::with_stats(iface, config)?;
        synth.netlist.add(label, ctrl);
        Ok(Attached {
            lsq: Some(stats),
            ..bare(ram)
        })
    }
}

/// The handles of a controller that [`Controller::attach`] added to a
/// netlist: its RAM, its statistics and (PreVV only) its squash log.
#[derive(Debug)]
pub struct Attached {
    controller: String,
    ram: SharedRam,
    lsq: Option<SharedLsqStats>,
    prevv: Option<SharedPrevvStats>,
    squash_log: Option<SharedSquashLog>,
}

impl Attached {
    /// Reads the final memory through `interface`, checks it against the
    /// golden model of `spec`, and snapshots the controller statistics.
    pub fn finish(
        self,
        spec: &KernelSpec,
        interface: &MemoryInterface,
        report: SimReport,
    ) -> RunResult {
        let arrays: Vec<Vec<Value>> = interface
            .split_ram(self.ram.borrow().image())
            .into_iter()
            .map(<[Value]>::to_vec)
            .collect();
        let matches_golden =
            arrays == prevv_ir::golden::replay(spec, spec.iteration_count(), |_| {}).0;
        RunResult {
            kernel: spec.name.clone(),
            controller: self.controller,
            arrays,
            report,
            prevv: self.prevv.map(|s| *s.borrow()),
            lsq: self.lsq.map(|s| *s.borrow()),
            squash_log: self
                .squash_log
                .map(|l| l.borrow().clone())
                .unwrap_or_default(),
            matches_golden,
        }
    }
}

/// Errors of the one-call harness.
#[derive(Debug)]
pub enum RunError {
    /// The kernel failed validation.
    Kernel(KernelError),
    /// The LSQ configuration cannot hold one iteration's operations.
    Lsq(LsqError),
    /// The PreVV configuration cannot hold one iteration's operations.
    Prevv(PrevvError),
    /// The simulation failed (deadlock, timeout, structure).
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Kernel(e) => write!(f, "kernel error: {e}"),
            RunError::Lsq(e) => write!(f, "lsq error: {e}"),
            RunError::Prevv(e) => write!(f, "prevv error: {e}"),
            RunError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Kernel(e) => Some(e),
            RunError::Lsq(e) => Some(e),
            RunError::Prevv(e) => Some(e),
            RunError::Sim(e) => Some(e),
        }
    }
}

impl From<KernelError> for RunError {
    fn from(e: KernelError) -> Self {
        RunError::Kernel(e)
    }
}
impl From<LsqError> for RunError {
    fn from(e: LsqError) -> Self {
        RunError::Lsq(e)
    }
}
impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}
impl From<PrevvError> for RunError {
    fn from(e: PrevvError) -> Self {
        RunError::Prevv(e)
    }
}

/// Result of one simulated kernel run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Kernel name.
    pub kernel: String,
    /// Controller display name.
    pub controller: String,
    /// Final contents of every kernel array.
    pub arrays: Vec<Vec<Value>>,
    /// Engine statistics.
    pub report: SimReport,
    /// PreVV-specific statistics (when the controller is PreVV).
    pub prevv: Option<PrevvStats>,
    /// LSQ-specific statistics (when the controller is an LSQ).
    pub lsq: Option<LsqStats>,
    /// Every squash the arbiter detected (PreVV only; empty otherwise).
    pub squash_log: Vec<SquashEvent>,
    /// Did the final memory match the golden model?
    pub matches_golden: bool,
}

/// A run plus its analytic design costs.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The simulated run.
    pub run: RunResult,
    /// Resource and clock-period estimate.
    pub design: DesignReport,
    /// Execution time in microseconds: `cycles × CP`.
    pub exec_time_us: f64,
}

/// Synthesizes `spec`, attaches `controller`, simulates to quiescence and
/// compares against the golden model.
///
/// # Errors
///
/// Returns [`RunError`] if the kernel is malformed, the controller
/// configuration is impossible, or the simulation deadlocks / times out.
pub fn run_kernel(spec: &KernelSpec, controller: Controller) -> Result<RunResult, RunError> {
    run_kernel_with(
        spec,
        controller,
        &SynthOptions::default(),
        &SimConfig::default(),
    )
}

/// [`run_kernel`] with explicit synthesis and simulation options.
///
/// # Errors
///
/// See [`run_kernel`].
pub fn run_kernel_with(
    spec: &KernelSpec,
    controller: Controller,
    synth_opts: &SynthOptions,
    sim_config: &SimConfig,
) -> Result<RunResult, RunError> {
    let synth = prevv_ir::synthesize_with(spec, synth_opts)?;
    simulate(spec, &controller, synth, sim_config)
}

/// Attaches `controller` to `synth`, simulates to quiescence and checks
/// the result: the shared tail of [`run_kernel_with`] and [`evaluate`].
fn simulate(
    spec: &KernelSpec,
    controller: &Controller,
    mut synth: SynthesizedKernel,
    sim_config: &SimConfig,
) -> Result<RunResult, RunError> {
    let attached = controller.attach(&mut synth)?;
    let mut sim = Simulator::new(synth.netlist, synth.bus)?.with_config(sim_config.clone());
    let report = sim.run()?;
    Ok(attached.finish(spec, &synth.interface, report))
}

/// Runs the kernel *and* prices the design: the full Table II data point
/// (cycles, clock period, execution time) plus Table I resources.
///
/// # Errors
///
/// See [`run_kernel`].
pub fn evaluate(spec: &KernelSpec, controller: Controller) -> Result<Evaluation, RunError> {
    let synth = prevv_ir::synthesize(spec)?;
    // Price the bare netlist, before `simulate` adds the controller node:
    // the controller is priced from its kind, never from the netlist.
    let design = match controller.area_kind() {
        Some(kind) => prevv_area::estimate(&synth, kind),
        None => DesignReport {
            datapath: prevv_area::datapath_cost(&synth),
            controller: Resources::zero(),
            clock_period_ns: prevv_area::calib::CP_BASE_NS,
        },
    };
    let run = simulate(spec, &controller, synth, &SimConfig::default())?;
    let exec_time_us = run.report.cycles as f64 * design.clock_period_ns / 1000.0;
    Ok(Evaluation {
        run,
        design,
        exec_time_us,
    })
}

/// A side-by-side evaluation of several controllers on one kernel.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One evaluation per requested controller, in request order.
    pub points: Vec<Evaluation>,
}

impl Comparison {
    /// Finds a point by its controller display name (e.g. `"PreVV16"`).
    pub fn point(&self, controller_name: &str) -> Option<&Evaluation> {
        self.points
            .iter()
            .find(|e| e.run.controller == controller_name)
    }

    /// LUT ratio `a / b` between two named controllers.
    ///
    /// # Panics
    ///
    /// Panics if either name is not part of this comparison.
    pub fn lut_ratio(&self, a: &str, b: &str) -> f64 {
        let pa = self.point(a).expect("controller a in comparison");
        let pb = self.point(b).expect("controller b in comparison");
        pa.design.total().luts as f64 / pb.design.total().luts as f64
    }

    /// Execution-time ratio `a / b` between two named controllers.
    ///
    /// # Panics
    ///
    /// Panics if either name is not part of this comparison.
    pub fn exec_ratio(&self, a: &str, b: &str) -> f64 {
        let pa = self.point(a).expect("controller a in comparison");
        let pb = self.point(b).expect("controller b in comparison");
        pa.exec_time_us / pb.exec_time_us
    }

    /// True when every point reproduced the golden result.
    pub fn all_correct(&self) -> bool {
        self.points.iter().all(|e| e.run.matches_golden)
    }
}

/// Evaluates one kernel under several controllers — the one-call version of
/// a Table I/II row.
///
/// # Errors
///
/// Propagates the first [`RunError`].
///
/// ```
/// use prevv::{compare, Controller, PrevvConfig};
/// use prevv::kernels::extra;
///
/// # fn main() -> Result<(), prevv::RunError> {
/// let cmp = compare(
///     &extra::histogram(48, 8, 5),
///     [
///         Controller::FastLsq { depth: 16 },
///         Controller::Prevv(PrevvConfig::prevv16()),
///     ],
/// )?;
/// assert!(cmp.all_correct());
/// assert!(cmp.lut_ratio("PreVV16", "[8]") < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn compare(
    spec: &KernelSpec,
    controllers: impl IntoIterator<Item = Controller>,
) -> Result<Comparison, RunError> {
    let points = controllers
        .into_iter()
        .map(|c| evaluate(spec, c))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Comparison { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_kernels::extra;

    #[test]
    fn harness_runs_all_controllers_on_the_histogram() {
        let spec = extra::histogram(48, 8, 7);
        for ctrl in [
            Controller::Direct,
            Controller::Dynamatic { depth: 16 },
            Controller::FastLsq { depth: 16 },
            Controller::SpecLsq { depth: 16 },
            Controller::Prevv(PrevvConfig::prevv16()),
            Controller::Prevv(PrevvConfig::prevv64()),
        ] {
            let name = ctrl.name();
            let (lsq, prevv) = match ctrl {
                Controller::Direct => (false, false),
                Controller::Prevv(_) => (false, true),
                _ => (true, false),
            };
            let r = run_kernel(&spec, ctrl).expect("runs");
            // Direct memory mis-executes by design; the rest must not.
            if lsq || prevv {
                assert!(r.matches_golden, "{name} diverged from golden");
            }
            assert_eq!(r.lsq.is_some(), lsq, "{name}: LSQ stats");
            assert_eq!(r.prevv.is_some(), prevv, "{name}: PreVV stats");
            assert_eq!(
                r.squash_log.is_empty(),
                r.report.squashes == 0,
                "{name}: squash log vs squash count"
            );
        }
    }

    #[test]
    fn direct_controller_is_unsafe_by_design() {
        let spec = extra::serial_reduction(32);
        let r = run_kernel(&spec, Controller::Direct).expect("runs");
        assert!(!r.matches_golden, "direct memory must mis-execute");
    }

    #[test]
    fn comparison_helpers_work() {
        let spec = extra::serial_reduction(24);
        let cmp = compare(
            &spec,
            [
                Controller::FastLsq { depth: 16 },
                Controller::Prevv(PrevvConfig::prevv16()),
            ],
        )
        .expect("runs");
        assert!(cmp.all_correct());
        assert!(cmp.point("PreVV16").is_some());
        assert!(cmp.point("nonsense").is_none());
        assert!(cmp.lut_ratio("PreVV16", "[8]") < 1.0);
        assert!(cmp.exec_ratio("[8]", "[8]") == 1.0);
        // The squash log matches the squash count.
        let p = cmp.point("PreVV16").expect("present");
        assert_eq!(
            p.run.squash_log.len() as u64,
            p.run.report.squashes,
            "log records every squash"
        );
    }

    #[test]
    fn evaluation_combines_cycles_and_clock_period() {
        let spec = extra::histogram(32, 16, 3);
        let e = evaluate(&spec, Controller::Prevv(PrevvConfig::prevv16())).expect("runs");
        let expected = e.run.report.cycles as f64 * e.design.clock_period_ns / 1000.0;
        assert!((e.exec_time_us - expected).abs() < 1e-9);
        assert!(e.design.total().luts > 0);
    }
}
