//! The traced pipeline: each public entry point the workloads use,
//! re-assembled call for call from the layer functions it calls, with a
//! span around every layer call and the controller counters read after
//! every run. The untraced and traced passes must digest identically;
//! the driver checks that they do.

use std::time::Instant;

use prevv::analyze::{
    self, diag::Code, CheckResult, Diagnostic, PerfOptions, ProtocolOptions, Report,
};
use prevv::dataflow::Scheduler;
use prevv::diffcheck::{self, DiffOptions};
use prevv::ir::parse::{parse_kernel, ParseError};
use prevv::mem::{DirectMemory, LsqStats, SpecLsq, SpecLsqConfig};
use prevv::{
    AnalyzeOptions, CircuitOptions, Controller, ControllerModel, Evaluation, KernelSpec, Lsq,
    LsqConfig, MemTiming, PrevvMemory, PrevvStats, RunError, RunResult, Severity, SimConfig,
    SimError, Simulator, SynthOptions, Value,
};

use crate::trace::{Layer, Tracer};
use crate::workloads::{OracleVerdict, Pipeline};

/// `lint_source`'s answer to text that does not parse.
fn parse_failure(e: &ParseError) -> Report {
    let mut r = Report::default();
    r.push(
        Diagnostic::error(Code::Parse, e.message.clone())
            .with_span(Some(prevv::ir::Span::point(e.at))),
    );
    r
}

impl Tracer {
    fn lints(&mut self, spec: &KernelSpec, opts: &AnalyzeOptions) -> Report {
        let report = self.time(Layer::Lints, || analyze::analyze(spec, opts));
        self.add("analyze.lints.diagnostics", report.diagnostics.len() as f64);
        report
    }

    /// `prevv::run_kernel_with`, layer by layer.
    fn run_kernel_with(
        &mut self,
        spec: &KernelSpec,
        controller: Controller,
        synth_opts: &SynthOptions,
        sim_config: &SimConfig,
    ) -> Result<RunResult, RunError> {
        let mut synth = self.time(Layer::Synth, || {
            prevv::ir::synthesize_with(spec, synth_opts)
        })?;
        let controller_name = controller.name();
        let (ram, mut sim, prevv_stats, lsq_stats, squash_log) =
            self.time(Layer::Attach, || -> Result<_, RunError> {
                let mut prevv_stats = None;
                let mut lsq_stats = None;
                let mut squash_log = None;
                let ram = match &controller {
                    Controller::Direct => {
                        let (ctrl, ram) =
                            DirectMemory::new(synth.interface.clone(), MemTiming::default());
                        synth.netlist.add("mem", ctrl);
                        ram
                    }
                    Controller::Dynamatic { depth } => {
                        let (ctrl, ram, stats) =
                            Lsq::with_stats(synth.interface.clone(), LsqConfig::dynamatic(*depth))?;
                        synth.netlist.add("lsq", ctrl);
                        lsq_stats = Some(stats);
                        ram
                    }
                    Controller::FastLsq { depth } => {
                        let (ctrl, ram, stats) =
                            Lsq::with_stats(synth.interface.clone(), LsqConfig::fast(*depth))?;
                        synth.netlist.add("lsq", ctrl);
                        lsq_stats = Some(stats);
                        ram
                    }
                    Controller::SpecLsq { depth } => {
                        let (ctrl, ram, stats) = SpecLsq::with_stats(
                            synth.interface.clone(),
                            SpecLsqConfig::speculative(*depth),
                        )?;
                        synth.netlist.add("spec_lsq", ctrl);
                        lsq_stats = Some(stats);
                        ram
                    }
                    Controller::Prevv(config) => {
                        let (ctrl, ram, stats) = PrevvMemory::new(
                            synth.interface.clone(),
                            config.clone(),
                            synth.bus.clone(),
                        )?;
                        squash_log = Some(ctrl.squash_log());
                        synth.netlist.add("prevv", ctrl);
                        prevv_stats = Some(stats);
                        ram
                    }
                };
                let sim = Simulator::new(synth.netlist, synth.bus)?.with_config(sim_config.clone());
                Ok((ram, sim, prevv_stats, lsq_stats, squash_log))
            })?;
        let report = self.time(Layer::Sim, || sim.run())?;
        self.add("dataflow.sim.cycles", report.cycles as f64);
        self.add("dataflow.sim.transfers", report.transfers as f64);
        self.add("dataflow.sim.stall_cycles", report.stall_cycles as f64);
        self.add("dataflow.sim.squashes", report.squashes as f64);
        self.add("dataflow.sim.replayed_iters", report.replayed_iters as f64);

        let ram = ram.borrow();
        let arrays: Vec<Vec<Value>> = synth
            .interface
            .split_ram(ram.image())
            .into_iter()
            .map(<[Value]>::to_vec)
            .collect();
        let gold = self.time(Layer::Golden, || prevv::ir::golden::execute(spec));
        let matches_golden = arrays == gold.arrays;

        let prevv = prevv_stats.map(|s| *s.borrow());
        if let Some(s) = &prevv {
            self.record_prevv(s, spec.iteration_count() as u64);
        }
        let lsq = lsq_stats.map(|s| *s.borrow());
        if let Some(s) = &lsq {
            self.record_lsq(s);
        }
        Ok(RunResult {
            kernel: spec.name.clone(),
            controller: controller_name,
            arrays,
            report,
            prevv,
            lsq,
            squash_log: squash_log.map(|l| l.borrow().clone()).unwrap_or_default(),
            matches_golden,
        })
    }

    fn record_prevv(&mut self, s: &PrevvStats, iterations: u64) {
        self.touch(Layer::Prevv);
        self.add("core.prevv.validations", s.validations as f64);
        self.add("core.prevv.comparisons", s.comparisons as f64);
        self.add("core.prevv.violations", s.violations as f64);
        self.add("core.prevv.forwards", s.forwards as f64);
        self.add("core.prevv.fakes", s.fakes as f64);
        self.add("core.prevv.queue_full_stalls", s.queue_full_stalls as f64);
        self.add("core.prevv.conservative_holds", s.conservative_holds as f64);
        self.add("core.prevv.predictor_holds", s.predictor_holds as f64);
        self.max("core.prevv.queue_high_water", s.queue_high_water as f64);
        self.add("core.prevv.replayed_iters", s.replayed_iters as f64);
        self.add(
            "core.prevv.issued_iters",
            (iterations + s.replayed_iters) as f64,
        );
    }

    fn record_lsq(&mut self, s: &LsqStats) {
        self.touch(Layer::Lsq);
        self.add("mem.lsq.forwards", s.forwards as f64);
        self.add("mem.lsq.alloc_stall_cycles", s.alloc_stall_cycles as f64);
        self.max("mem.lsq.high_water", s.high_water as f64);
    }

    /// `diffcheck`'s per-backend step: both schedulers, golden and
    /// cross-scheduler checks.
    fn run_backend(
        &mut self,
        spec: &KernelSpec,
        ctrl: &Controller,
        require_golden: bool,
        tolerate_wedge: bool,
        opts: &DiffOptions,
        v: &mut OracleVerdict,
    ) {
        let name = ctrl.name();
        let mut runs: Vec<RunResult> = Vec::new();
        for (scheduler, sched_label) in [
            (Scheduler::Dense, "dense"),
            (Scheduler::EventDriven, "event"),
        ] {
            let label = format!("{name}/{sched_label}");
            let sim = SimConfig {
                max_cycles: opts.max_cycles,
                watchdog: opts.watchdog,
                scheduler,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_kernel_with(spec, ctrl.clone(), &SynthOptions::default(), &sim)
            }));
            match outcome {
                Ok(Ok(run)) => {
                    if require_golden && !run.matches_golden {
                        v.failures.push(format!("Mismatch [{label}]"));
                    }
                    v.digests
                        .push((label, diffcheck::digest(&run.arrays, run.report.cycles)));
                    runs.push(run);
                }
                Ok(Err(e)) => {
                    let wedge = matches!(
                        e,
                        RunError::Sim(SimError::Deadlock { .. } | SimError::Timeout { .. })
                    );
                    if !(wedge && tolerate_wedge && matches!(ctrl, Controller::Prevv(_))) {
                        v.failures.push(format!("SimFailed [{label}]: {e}"));
                    }
                }
                Err(_) => v.failures.push(format!("Panicked [{label}]")),
            }
        }
        if let [dense, event] = runs.as_slice() {
            if dense.arrays != event.arrays || dense.report.diff(&event.report).is_some() {
                v.failures.push(format!("SchedulerDiverged [{name}]"));
            }
        }
    }
}

impl Pipeline for Tracer {
    fn parse(&mut self, name: &str, text: &str) -> Result<KernelSpec, ParseError> {
        self.time(Layer::Parse, || parse_kernel(name, text))
    }

    fn lint_source(&mut self, name: &str, text: &str, opts: &AnalyzeOptions) -> Report {
        match self.parse(name, text) {
            Ok(spec) => self.lints(&spec, opts),
            Err(e) => parse_failure(&e),
        }
    }

    fn lint_with_perf(
        &mut self,
        name: &str,
        text: &str,
        opts: &AnalyzeOptions,
        circuit: &CircuitOptions,
        perf: &PerfOptions,
    ) -> Report {
        let spec = match self.parse(name, text) {
            Ok(spec) => spec,
            Err(e) => return parse_failure(&e),
        };
        let mut report = self.lints(&spec, opts);
        let synth_opts = SynthOptions {
            fake_tokens: opts.fake_tokens,
            ..SynthOptions::default()
        };
        let mut perf_eff = perf.clone();
        let mut circuit_eff = circuit.clone();
        if let Some((depth, _)) = spec.depth_hint() {
            perf_eff.config.depth = depth;
            if let ControllerModel::Queue { capacity } = &mut circuit_eff.controller {
                *capacity = depth;
            }
        }
        if let Ok(synth) = self.time(Layer::Synth, || {
            prevv::ir::synthesize_with(&spec, &synth_opts)
        }) {
            let c = self.time(Layer::Circuit, || {
                analyze::lint_circuit(&synth, &circuit_eff)
            });
            report.diagnostics.extend(c.diagnostics);
            self.time(Layer::Perf, || {
                analyze::lint_perf(&synth, &perf_eff, &mut report)
            });
        }
        report.normalize();
        report
    }

    fn check_protocol(
        &mut self,
        spec: &KernelSpec,
        opts: &ProtocolOptions,
    ) -> Result<CheckResult, String> {
        let start = Instant::now();
        let result = self.time(Layer::ModelCheck, || analyze::check_protocol(spec, opts));
        self.add("analyze.modelcheck.check_s", start.elapsed().as_secs_f64());
        if let Ok(r) = &result {
            self.add("analyze.modelcheck.states", r.stats.states as f64);
            self.add("analyze.modelcheck.transitions", r.stats.transitions as f64);
            self.add("analyze.modelcheck.enabled", r.stats.enabled as f64);
            self.add(
                "analyze.modelcheck.truncated",
                f64::from(u8::from(r.stats.truncated_by_budget)),
            );
        }
        result
    }

    fn evaluate(
        &mut self,
        spec: &KernelSpec,
        ctrl: Controller,
        sim: Option<&SimConfig>,
    ) -> Result<Evaluation, RunError> {
        let synth = self.time(Layer::Synth, || prevv::ir::synthesize(spec))?;
        let kind = ctrl.area_kind().expect("benchmark controllers are priced");
        let design = self.time(Layer::Area, || prevv::area::estimate(&synth, kind));
        let sim = sim.cloned().unwrap_or_default();
        let run = self.run_kernel_with(spec, ctrl, &SynthOptions::default(), &sim)?;
        let exec_time_us = run.report.cycles as f64 * design.clock_period_ns / 1000.0;
        Ok(Evaluation {
            run,
            design,
            exec_time_us,
        })
    }

    fn check_kernel(&mut self, spec: &KernelSpec, opts: &DiffOptions) -> OracleVerdict {
        let mut v = OracleVerdict::default();
        // 1. Golden reference.
        let gold = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.time(Layer::Golden, || prevv::ir::golden::execute(spec))
        }));
        if gold.is_err() {
            v.failures.push("GoldenPanicked".into());
            return v;
        }

        // 2. Text round trip.
        let src = self.time(Layer::Parse, || prevv::ir::pretty::render(spec));
        let body: String = src.lines().skip(1).collect::<Vec<_>>().join("\n");
        match self.parse(&spec.name, &body) {
            Ok(reparsed) => {
                if reparsed != *spec
                    || reparsed.depth_hint().map(|(d, _)| d) != spec.depth_hint().map(|(d, _)| d)
                {
                    v.failures.push("RoundTrip".into());
                }
            }
            Err(_) => v
                .failures
                .push("RoundTrip: rendered text does not parse".into()),
        }

        // 3. Lints.
        let backends = diffcheck::backends(spec);
        let Some(Controller::Prevv(prevv_cfg)) = backends.last() else {
            unreachable!("backends ends with PreVV");
        };
        let lint = self.lints(spec, &AnalyzeOptions::for_config(prevv_cfg));
        v.lint_errors = lint
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if opts.expect_lint_clean && v.lint_errors > 0 {
            v.failures.push("LintError".into());
        }

        // 4. Bounded model check and counterexample replay.
        let mut tolerate_prevv_wedge = false;
        if opts.check_model {
            let mc_opts = ProtocolOptions {
                iterations: opts.mc_iterations,
                max_states: opts.mc_max_states,
                threads: 1,
                ..ProtocolOptions::for_config(prevv_cfg)
            };
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.check_protocol(spec, &mc_opts)
            }));
            match checked {
                Ok(Ok(result)) => {
                    v.counterexamples = result.counterexamples.len();
                    for cex in &result.counterexamples {
                        let replayed = self.time(Layer::ModelCheck, || {
                            analyze::replay_counterexample(spec, &mc_opts, cex)
                        });
                        match replayed {
                            Ok(o) if o.deadlock || o.admission_blocked || o.cycle_closed => {}
                            Ok(_) => v.failures.push(format!(
                                "ReplayFailed: {:?} trace replays but witnesses nothing",
                                cex.code
                            )),
                            Err(e) => v.failures.push(format!(
                                "ReplayFailed: {:?} trace does not replay: {e}",
                                cex.code
                            )),
                        }
                    }
                    tolerate_prevv_wedge = !result.counterexamples.is_empty();
                }
                Ok(Err(e)) => v.failures.push(format!(
                    "ReplayFailed: model checker refused the kernel: {e}"
                )),
                Err(_) => v.failures.push("Panicked: model checker".into()),
            }
        }

        // 5. Every backend x both schedulers; Direct is golden-exempt.
        self.run_backend(
            spec,
            &Controller::Direct,
            false,
            tolerate_prevv_wedge,
            opts,
            &mut v,
        );
        for ctrl in &backends {
            self.run_backend(spec, ctrl, true, tolerate_prevv_wedge, opts, &mut v);
        }
        v
    }
}
