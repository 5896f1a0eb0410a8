//! Cross-backend differential oracle.
//!
//! One kernel goes in; it is executed by the golden interpreter, round-
//! tripped through the `.pvk` text form, linted, model-checked, and then
//! simulated under every memory subsystem (Dynamatic LSQ \[15\], fast-
//! allocation LSQ \[8\], speculative-allocation LSQ, PreVV — plus the
//! intentionally unsafe direct memory) under both the dense and the
//! event-driven scheduler. The oracle's consistency contract (DESIGN.md §5):
//!
//! 1. Every disambiguating backend × scheduler must reproduce the golden
//!    arrays exactly; the two schedulers must agree cycle-for-cycle, on
//!    the controller's statistics, and on the squash log.
//! 2. A kernel the PV2xx checker proves clean (complete exploration, no
//!    counterexamples) must complete on PreVV — no deadlock, no timeout.
//! 3. An emitted counterexample must replay against the transition system
//!    (a trace that does not replay means the checker fabricated it) and
//!    end on its witness — a deadlock, an admission wedge, a closed livelock
//!    cycle, or for PV204 an eliminated op's escaped squash; only then is a
//!    PreVV deadlock/timeout tolerated.
//! 4. Direct memory is exempt from golden comparison (it mis-executes on
//!    hazards by design) but must still be scheduler-deterministic.
//! 5. `pretty::render` → `parse` must reproduce the spec (modulo spans).
//!
//! Any violation is a [`Failure`] with enough detail to reproduce; the
//! `runkernel --fuzz` driver shrinks the offending kernel and writes the
//! `.pvk` repro.
//!
//! The ISSUE sited this module at `crates/dataflow::diffcheck`, but the
//! dataflow crate is the *bottom* of the dependency graph and the oracle
//! needs the IR, the memory subsystems, the PreVV core, and the analyzer —
//! so it lives in the facade, which is the one crate that sees them all.

use std::panic::{catch_unwind, AssertUnwindSafe};

use prevv_analyze::{
    check_protocol, replay_counterexample, AnalyzeOptions, Code, ProtocolOptions, Severity,
};
use prevv_core::PrevvConfig;
use prevv_dataflow::{Scheduler, SimConfig, SimError, Value};
use prevv_ir::{pretty, KernelSpec};

use crate::{run_kernel_with, Controller, RunError, RunResult, SynthOptions};

/// What went wrong, per check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The golden interpreter itself panicked.
    GoldenPanicked,
    /// `parse(render(k))` differs from `k`.
    RoundTrip,
    /// The lints reported an error on a kernel expected to be lint-clean.
    LintError,
    /// The model checker failed to build/run, or a counterexample did not
    /// replay.
    ReplayFailed,
    /// A backend returned a construction or simulation error the contract
    /// does not excuse.
    SimFailed,
    /// A backend completed but its arrays differ from the golden model.
    Mismatch,
    /// The dense and event-driven schedulers disagree on the same backend.
    SchedulerDiverged,
    /// Synthesis, a controller, or the simulator panicked.
    Panicked,
}

/// A single contract violation.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which check failed.
    pub kind: FailureKind,
    /// Backend display name (`"[15]"`, `"spec16"`, …) when applicable.
    pub backend: Option<String>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            Some(b) => write!(f, "{:?} [{b}]: {}", self.kind, self.detail),
            None => write!(f, "{:?}: {}", self.kind, self.detail),
        }
    }
}

/// The oracle's verdict on one kernel.
#[derive(Debug)]
pub struct KernelVerdict {
    /// Kernel name.
    pub name: String,
    /// Stable digest per `(backend, scheduler)` label, for corpus pinning.
    /// Labels look like `"[15]/dense"` or `"spec16/event"`.
    pub digests: Vec<(String, u64)>,
    /// Lint errors observed (informational when `expect_lint_clean` is off).
    pub lint_errors: usize,
    /// PV2xx counterexamples emitted (each verified to replay).
    pub counterexamples: usize,
    /// Every contract violation.
    pub failures: Vec<Failure>,
}

impl KernelVerdict {
    /// True when every check held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Treat lint *errors* as failures. On for generated kernels (the
    /// generator aims for lint-clean output; an error means generator or
    /// analyzer drift), off when auditing hand-written fixtures.
    pub expect_lint_clean: bool,
    /// Run the PV2xx protocol model checker (bounded) and enforce the
    /// verdict-consistency contract.
    pub check_model: bool,
    /// Iteration horizon for the model checker (`0` = checker default —
    /// expensive; the fuzz driver uses 2).
    pub mc_iterations: u64,
    /// State cap for the model checker.
    pub mc_max_states: usize,
    /// Simulation watchdog (cycles without progress).
    pub watchdog: u64,
    /// Simulation cycle budget.
    pub max_cycles: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            expect_lint_clean: true,
            check_model: true,
            mc_iterations: 2,
            mc_max_states: 60_000,
            watchdog: 2_000,
            max_cycles: 500_000,
        }
    }
}

/// The backend set the oracle differentiates: the three LSQ baselines and
/// PreVV, all sized to fit the kernel's widest iteration. The depth hint
/// (`depth_q`), when present, pins the PreVV premature-queue depth
/// ([`PrevvConfig::for_kernel`]), still floored at one iteration's ops.
pub fn backends(spec: &KernelSpec) -> Vec<Controller> {
    let per_iter = spec.mem_ops_per_iter();
    let depth = 16usize.max(per_iter);
    let mut prevv = PrevvConfig::with_depth(depth).for_kernel(spec);
    prevv.depth = prevv.depth.max(per_iter);
    vec![
        Controller::Dynamatic { depth },
        Controller::FastLsq { depth },
        Controller::SpecLsq { depth },
        Controller::Prevv(prevv),
    ]
}

/// Stable order-sensitive digest of a run's observable outcome.
pub fn digest(arrays: &[Vec<Value>], cycles: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ cycles;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    };
    for a in arrays {
        mix(a.len() as u64);
        for &v in a {
            mix(v as u64);
        }
    }
    h
}

/// Runs the full oracle on one kernel.
pub fn check_kernel(spec: &KernelSpec, opts: &DiffOptions) -> KernelVerdict {
    let mut verdict = KernelVerdict {
        name: spec.name.clone(),
        digests: Vec::new(),
        lint_errors: 0,
        counterexamples: 0,
        failures: Vec::new(),
    };

    // 1. Golden reference (final arrays only; no access trace).
    let golden = || prevv_ir::golden::replay(spec, spec.iteration_count(), |_| {}).0;
    let gold = match catch_unwind(AssertUnwindSafe(golden)) {
        Ok(g) => g,
        Err(p) => {
            verdict.failures.push(Failure {
                kind: FailureKind::GoldenPanicked,
                backend: None,
                detail: panic_msg(&p),
            });
            return verdict;
        }
    };

    // 2. Text round trip (modulo spans; PartialEq ignores them).
    check_round_trip(spec, &mut verdict);

    // 3. Lints. Advisory unless `expect_lint_clean` — out-of-range raw
    // addresses are benign (Euclidean wrap) so linted kernels still
    // simulate below either way.
    let prevv_cfg = match backends(spec).pop() {
        Some(Controller::Prevv(c)) => c,
        _ => unreachable!("backends ends with PreVV"),
    };
    let lint = prevv_analyze::analyze(spec, &AnalyzeOptions::for_config(&prevv_cfg));
    verdict.lint_errors = lint
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if opts.expect_lint_clean && verdict.lint_errors > 0 {
        verdict.failures.push(Failure {
            kind: FailureKind::LintError,
            backend: None,
            detail: format!(
                "{} lint error(s): {}",
                verdict.lint_errors,
                lint.render(&spec.name, None)
            ),
        });
    }

    // 4. Bounded PV2xx model check; its verdict constrains what the PreVV
    // simulation below is allowed to do.
    let mut tolerate_prevv_wedge = false;
    if opts.check_model {
        let mc_opts = ProtocolOptions {
            iterations: opts.mc_iterations,
            max_states: opts.mc_max_states,
            ..ProtocolOptions::for_config(&prevv_cfg)
        };
        match catch_unwind(AssertUnwindSafe(|| check_protocol(spec, &mc_opts))) {
            Ok(Ok(result)) => {
                verdict.counterexamples = result.counterexamples.len();
                for cex in &result.counterexamples {
                    match replay_counterexample(spec, &mc_opts, cex) {
                        Ok(outcome) => {
                            let escaped =
                                cex.code == Code::ReductionUnsound && outcome.reduction_escape;
                            if !(outcome.deadlock
                                || outcome.admission_blocked
                                || outcome.cycle_closed
                                || escaped)
                            {
                                verdict.failures.push(Failure {
                                    kind: FailureKind::ReplayFailed,
                                    backend: None,
                                    detail: format!(
                                        "{:?} trace replays but witnesses nothing",
                                        cex.code
                                    ),
                                });
                            }
                        }
                        Err(e) => verdict.failures.push(Failure {
                            kind: FailureKind::ReplayFailed,
                            backend: None,
                            detail: format!("{:?} trace does not replay: {e}", cex.code),
                        }),
                    }
                }
                // A verified counterexample excuses a wedged PreVV run; a
                // clean-and-complete verdict forbids one. A truncated
                // exploration (state cap) proves nothing and excuses
                // nothing.
                tolerate_prevv_wedge = !result.counterexamples.is_empty();
            }
            Ok(Err(e)) => verdict.failures.push(Failure {
                kind: FailureKind::ReplayFailed,
                backend: None,
                detail: format!("model checker refused the kernel: {e}"),
            }),
            Err(p) => verdict.failures.push(Failure {
                kind: FailureKind::Panicked,
                backend: None,
                detail: format!("model checker panicked: {}", panic_msg(&p)),
            }),
        }
    }

    // 5. Every backend × both schedulers. Direct rides along without the
    // golden requirement — it demonstrates why disambiguation exists.
    let mut all = vec![(Controller::Direct, false)];
    all.extend(backends(spec).into_iter().map(|c| (c, true)));
    for (ctrl, require_golden) in all {
        run_backend(
            spec,
            &gold,
            ctrl,
            require_golden,
            tolerate_prevv_wedge,
            opts,
            &mut verdict,
        );
    }

    verdict
}

fn check_round_trip(spec: &KernelSpec, verdict: &mut KernelVerdict) {
    let src = pretty::render(spec);
    // Drop the `// kernel:` banner; the parser takes the name separately.
    let body: String = src.lines().skip(1).collect::<Vec<_>>().join("\n");
    match prevv_ir::parse::parse_kernel(&spec.name, &body) {
        Ok(reparsed) => {
            if reparsed != *spec {
                verdict.failures.push(Failure {
                    kind: FailureKind::RoundTrip,
                    backend: None,
                    detail: format!("reparsed spec differs\n--- rendered ---\n{src}"),
                });
            } else if reparsed.depth_hint().map(|(d, _)| d) != spec.depth_hint().map(|(d, _)| d) {
                verdict.failures.push(Failure {
                    kind: FailureKind::RoundTrip,
                    backend: None,
                    detail: "depth_q directive lost in round trip".into(),
                });
            }
        }
        Err(e) => verdict.failures.push(Failure {
            kind: FailureKind::RoundTrip,
            backend: None,
            detail: format!("rendered text does not parse: {e}\n--- rendered ---\n{src}"),
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_backend(
    spec: &KernelSpec,
    gold: &[Vec<Value>],
    ctrl: Controller,
    require_golden: bool,
    tolerate_wedge: bool,
    opts: &DiffOptions,
    verdict: &mut KernelVerdict,
) {
    let name = ctrl.name();
    let mut runs: Vec<(Scheduler, RunResult)> = Vec::new();
    for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
        let sched_label = match scheduler {
            Scheduler::Dense => "dense",
            Scheduler::EventDriven => "event",
        };
        let label = format!("{name}/{sched_label}");
        let sim = SimConfig {
            max_cycles: opts.max_cycles,
            watchdog: opts.watchdog,
            scheduler,
        };
        let ctrl2 = ctrl.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_kernel_with(spec, ctrl2, &SynthOptions::default(), &sim)
        }));
        match outcome {
            Ok(Ok(run)) => {
                if require_golden && !run.matches_golden {
                    verdict.failures.push(Failure {
                        kind: FailureKind::Mismatch,
                        backend: Some(label.clone()),
                        detail: format!("arrays diverge from golden: {:?} vs {gold:?}", run.arrays),
                    });
                }
                verdict
                    .digests
                    .push((label, digest(&run.arrays, run.report.cycles)));
                runs.push((scheduler, run));
            }
            Ok(Err(e)) => {
                let wedge = matches!(
                    e,
                    RunError::Sim(SimError::Deadlock { .. })
                        | RunError::Sim(SimError::Timeout { .. })
                );
                let excused = wedge && tolerate_wedge && matches!(ctrl, Controller::Prevv(_));
                if !excused {
                    verdict.failures.push(Failure {
                        kind: FailureKind::SimFailed,
                        backend: Some(label),
                        detail: e.to_string(),
                    });
                }
            }
            Err(p) => verdict.failures.push(Failure {
                kind: FailureKind::Panicked,
                backend: Some(label),
                detail: panic_msg(&p),
            }),
        }
    }
    // Cross-scheduler determinism: identical arrays, engine reports
    // (cycles, transfers, squashes), controller statistics and squash log
    // — a byte-identical outcome.
    if let [(_, dense), (_, event)] = runs.as_slice() {
        let detail = if dense.arrays != event.arrays {
            Some("dense and event schedulers produced different arrays".into())
        } else if let Some(d) = dense.report.diff(&event.report) {
            Some(d)
        } else if dense.prevv != event.prevv || dense.lsq != event.lsq {
            Some(format!(
                "controller stats differ: dense {:?} {:?}, event {:?} {:?}",
                dense.prevv, dense.lsq, event.prevv, event.lsq
            ))
        } else if dense.squash_log != event.squash_log {
            Some("dense and event schedulers logged different squashes".into())
        } else {
            None
        };
        if let Some(detail) = detail {
            verdict.failures.push(Failure {
                kind: FailureKind::SchedulerDiverged,
                backend: Some(name),
                detail,
            });
        }
    }
}

fn panic_msg(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_kernels::{extra, gen, paper};

    #[test]
    fn stock_kernels_pass_the_oracle() {
        // The paper suite is the ground truth the repo's other tests pin;
        // the oracle must agree it is clean.
        for spec in paper::all_default() {
            let v = check_kernel(&spec, &DiffOptions::default());
            assert!(
                v.passed(),
                "{}: {:?}",
                spec.name,
                v.failures
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn generated_kernels_pass_the_oracle() {
        let cfg = gen::GenConfig::corpus();
        for seed in 0..8u64 {
            let spec = gen::generate(seed, &cfg);
            let v = check_kernel(&spec, &DiffOptions::default());
            assert!(
                v.passed(),
                "seed {seed} ({}): {:?}",
                spec.name,
                v.failures
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn direct_memory_mismatch_is_not_a_failure_but_is_digested() {
        // The hazardous reduction mis-executes on Direct; the oracle must
        // not flag it (Direct is exempt) yet must still digest its runs.
        let spec = extra::serial_reduction(24);
        let v = check_kernel(&spec, &DiffOptions::default());
        assert!(v.passed(), "{:?}", v.failures);
        assert!(v.digests.iter().any(|(l, _)| l.starts_with("direct/")));
        // Four disambiguating backends + direct, two schedulers each.
        assert_eq!(v.digests.len(), 10);
    }

    #[test]
    fn digests_are_stable_across_runs() {
        let spec = gen::generate(3, &gen::GenConfig::corpus());
        let a = check_kernel(&spec, &DiffOptions::default());
        let b = check_kernel(&spec, &DiffOptions::default());
        assert_eq!(a.digests, b.digests);
    }
}
