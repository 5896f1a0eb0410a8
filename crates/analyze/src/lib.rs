//! # prevv-analyze — static analysis for PreVV kernels
//!
//! A multi-lint pass over [`KernelSpec`] producing structured diagnostics
//! ([`Diagnostic`] / [`Report`]): stable `PV0xx` codes, severities, source
//! spans (when the kernel was parsed from `.pvk` text), rustc-style text
//! rendering, and a machine-readable JSON form.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | PV000 | error    | source failed to parse (CLI only) |
//! | PV001 | error    | affine index provably out of bounds |
//! | PV002 | note/error | guarded op in an ambiguous pair (§V-C); error when fake tokens are disabled |
//! | PV003 | error/warn | premature-queue depth below the frontier minimum / the §V-A recommendation |
//! | PV004 | —        | folded into PV301 (same pairs); `--explain PV004` prints PV301 |
//! | PV005 | warning  | dead store or unused array |
//! | PV006 | note     | pair reduction (§V-B) profitable but disabled |
//! | PV101 | error    | circuit: channel with no producer or no consumer |
//! | PV102 | error    | circuit: channel with multiple producers or consumers |
//! | PV103 | error    | circuit: handshake cycle with no elastic buffer (structural deadlock) |
//! | PV104 | error/warn | circuit: controller capacity inconsistent with the in-flight iteration frontier |
//! | PV105 | warning  | circuit: component unreachable from any token source |
//! | PV200 | note/warn | protocol: model checker stopped at its iteration/state bound |
//! | PV201 | error    | protocol: reachable deadlock (shortest trace attached) |
//! | PV202 | error    | protocol: squash livelock — replay cycle with no frontier progress |
//! | PV203 | error    | protocol: queue capacity insufficient on some interleaving |
//! | PV204 | warning  | protocol: §V-B pair-reduction representative diverges from the unreduced set |
//! | PV300 | note     | separation horizon: pairs left to the dynamic arbiter |
//! | PV301 | note     | pair proven safe (affine, enumeration or value invariants) — arbiter bypassed |
//! | PV302 | note     | pair footprints must-alias — validation provably live |
//! | PV400 | note     | perf: steady-state II bound + binding resource (+ critical cycle) |
//! | PV401 | warning  | perf: zero-slack backpressure cycle; buffer insertion suggested |
//! | PV402 | warning  | perf: premature-queue/arbiter serialization binds throughput |
//! | PV403 | warning  | perf: measured II diverged from the static prediction |
//! | PV500 | error/warn | value-range analysis proves an index out of bounds (warning for opaque wraparound) |
//! | PV501 | warning  | guard is provably false on every iteration — dead statement |
//! | PV502 | —        | folded into PV301 (value-invariant proofs); `--explain PV502` prints PV301 |
//! | PV503 | note     | static occupancy bound below the configured `depth_q` |
//!
//! The `PV0xx` lints run on the kernel; the `PV1xx` lints ([`circuit`])
//! run on the synthesized netlist via the channel-graph introspection API
//! of `prevv-dataflow`; the `PV2xx` lints ([`modelcheck`]) bounded-model-
//! check the abstract arbiter/premature-queue/squash protocol itself,
//! reusing the pure `prevv_core::ProtocolState` step functions the
//! simulator runs. The affine machinery behind PV001/PV301 is the
//! symbolic dependence engine [`prevv_ir::symdep`] (GCD and Banerjee
//! tests), which lets the lint families scale past enumerable iteration
//! spaces; the `PV3xx` notes ([`seplog`]) report the one verdict
//! `prevv_ir::depend` computes per pair, which discharges whole
//! pair-classes before they reach the arbiter or the model checker; the
//! `PV4xx` lints ([`perf`]) model
//! the synthesized netlist as a timed marked graph and bound its
//! steady-state initiation interval (maximum cycle ratio plus the
//! controller's port/validation/retire budgets); the `PV5xx` lints
//! ([`absint`]) read the invariants of the fixpoint abstract interpreter
//! [`prevv_ir::absint`] (interval × congruence × guard domains), proving
//! value-range facts the affine engines cannot — and some of its
//! diagnostics carry machine-applicable suggestions that `prevv-lint --fix`
//! applies.
//! [`explain`] documents every code with a minimal triggering example
//! (`prevv-lint --explain PVxxx`).
//!
//! [`lint_kernel`] is the one analysis driver every front end runs: it
//! resolves `depth_q` once ([`PrevvConfig::for_kernel`]), runs the kernel
//! lints, synthesizes once when the circuit or perf pass is requested, runs
//! those passes and the protocol checker on the same depth, and returns one
//! normalized report with the netlist, the [`PerfSummary`] and the
//! checker's [`CheckResult`] ([`Analysis`]). [`lint_text`] runs it on
//! source text; [`analyze`], [`lint_source`] and [`lint_source_with_perf`]
//! are narrower views of it. [`synthesize`] is the checked front door: the
//! driver with the circuit pass on, refusing kernels with any
//! error-severity finding and attaching the report.
//!
//! ```
//! use prevv_analyze::{analyze, AnalyzeOptions, Code};
//! let spec = prevv_ir::parse::parse_kernel(
//!     "oob",
//!     "int a[4];\nfor (int i = 0; i < 8; ++i) { a[i] = i; }",
//! ).unwrap();
//! let report = analyze(&spec, &AnalyzeOptions::default());
//! assert!(report.has_errors());
//! assert_eq!(report.with_code(Code::OutOfBounds).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use prevv_core::PrevvConfig;
use prevv_ir::{depend, KernelError, KernelSpec, SynthOptions, SynthesizedKernel};

pub mod absint;
pub mod circuit;
pub mod diag;
pub mod explain;
mod lints;
pub mod modelcheck;
pub mod perf;
pub mod seplog;

pub use absint::occupancy_bound;
pub use circuit::{lint_circuit, lint_netlist, CircuitOptions, ControllerModel};
pub use diag::{Code, Diagnostic, Report, Severity, Suggestion};
pub use explain::{explain as explain_code, Explanation};
pub use modelcheck::{
    check as check_protocol, replay as replay_counterexample, CheckResult, CheckStats,
    Counterexample, EventKind, ProtocolOptions, ReplayOutcome, TraceEvent,
};
pub use perf::{
    analyze_perf, check_measured, lint_netlist_perf, lint_perf, PerfOptions, PerfSummary,
};

/// Configuration the analyzer checks the kernel against. Mirrors the knobs
/// of [`SynthOptions`] and [`PrevvConfig`] that change static safety.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Whether synthesis emits fake tokens for guarded ops (paper §V-C).
    /// Mirrors [`SynthOptions::fake_tokens`]; disabling turns PV002 into an
    /// error.
    pub fake_tokens: bool,
    /// Configured premature-queue depth (`depth_q`). A kernel's
    /// `depth_q = N;` directive overrides it ([`PrevvConfig::for_kernel`]).
    pub depth: usize,
    /// Whether the controller applies the §V-B pair reduction; when false,
    /// PV006 reports the missed opportunity.
    pub pair_reduction: bool,
    /// Run the PV2xx protocol model checker ([`modelcheck::check`]) as an
    /// additional pass. `None` (the default) skips it — exhaustive
    /// exploration costs far more than the static lints.
    pub protocol: Option<ProtocolOptions>,
    /// Run the PV4xx static throughput pass ([`lint_perf`]) as an
    /// additional pass. `None` (the default) skips it.
    pub perf: Option<PerfOptions>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        let cfg = PrevvConfig::default();
        AnalyzeOptions {
            fake_tokens: SynthOptions::default().fake_tokens,
            depth: cfg.depth,
            pair_reduction: cfg.pair_reduction,
            protocol: None,
            perf: None,
        }
    }
}

impl AnalyzeOptions {
    /// Options matching a concrete controller configuration.
    pub fn for_config(cfg: &PrevvConfig) -> Self {
        AnalyzeOptions {
            depth: cfg.depth,
            pair_reduction: cfg.pair_reduction,
            ..Self::default()
        }
    }

    /// These options with the PV2xx and PV4xx passes switched off.
    fn kernel_only(&self) -> Self {
        AnalyzeOptions {
            protocol: None,
            perf: None,
            ..self.clone()
        }
    }
}

/// What one [`lint_kernel`] run found.
#[derive(Debug)]
pub struct Analysis {
    /// The findings of every pass that ran, normalized once
    /// ([`Report::normalize`]).
    pub report: Report,
    /// The synthesized netlist the circuit and perf passes read, built as
    /// `prevv::run_kernel` builds the netlist it simulates (`runkernel`
    /// simulates this one). `None` when no netlist pass was
    /// requested; an error when structural synthesis failed, in which case
    /// those passes did not run.
    pub synth: Option<Result<SynthesizedKernel, KernelError>>,
    /// The PV4xx throughput verdict, when [`AnalyzeOptions::perf`] is set
    /// and synthesis succeeded.
    pub perf: Option<PerfSummary>,
    /// The PV2xx checker's result, when [`AnalyzeOptions::protocol`] is set
    /// and the checker could run (its findings are also in
    /// [`Self::report`]). A checker that cannot run reports a `PV200`
    /// warning instead.
    pub protocol: Option<CheckResult>,
}

/// The analysis driver: every front end (`prevv-lint`, `runkernel`, checked
/// synthesis and the `lint_*` entry points) runs this one chain.
///
/// 1. Resolves `depth_q` once: [`AnalyzeOptions::depth`], or the kernel's
///    `depth_q = N;` directive ([`PrevvConfig::for_kernel`]). The kernel
///    lints and the perf and protocol configurations (whose `config.depth`
///    it replaces) read it, and a directive resizes a
///    [`ControllerModel::Queue`] circuit model — the premature queue.
/// 2. Runs the kernel lints (PV0xx, PV3xx, PV5xx).
/// 3. When `circuit` or [`AnalyzeOptions::perf`] is set, synthesizes the
///    netlist once (unchecked — the point is to report, not refuse) and
///    runs the PV1xx circuit pass against `circuit` and the PV4xx perf pass.
/// 4. Runs the PV2xx checker when [`AnalyzeOptions::protocol`] is set.
/// 5. Normalizes the folded report once.
pub fn lint_kernel(
    spec: &KernelSpec,
    opts: &AnalyzeOptions,
    circuit: Option<&CircuitOptions>,
) -> Analysis {
    let depth = PrevvConfig::with_depth(opts.depth).for_kernel(spec).depth;
    let opts = &AnalyzeOptions {
        depth,
        ..opts.clone()
    };
    let deps = depend::analyze(spec);
    let invariants = prevv_ir::absint::analyze_kernel(spec);
    let mut report = Report::default();
    lints::check_bounds(spec, &deps, &mut report);
    lints::check_deadlock(spec, &deps, opts, &mut report);
    lints::check_depth(spec, &deps, opts, &mut report);
    lints::check_dead_stores(spec, &deps, &mut report);
    lints::check_pair_reduction(spec, &deps, opts, &mut report);
    seplog::check_separation(spec, &deps, &mut report);
    absint::check_values(spec, &deps, &invariants, &mut report);
    absint::check_occupancy(spec, depth, &mut report);

    let mut perf = None;
    let synth = (circuit.is_some() || opts.perf.is_some()).then(|| {
        let synth_opts = SynthOptions {
            fake_tokens: opts.fake_tokens,
        };
        let synth = prevv_ir::synthesize_with(spec, &synth_opts)?;
        if let Some(circuit) = circuit {
            let mut circuit = circuit.clone();
            if let ControllerModel::Queue { capacity } = &mut circuit.controller {
                *capacity = PrevvConfig::with_depth(*capacity).for_kernel(spec).depth;
            }
            report
                .diagnostics
                .extend(lint_circuit(&synth, &circuit).diagnostics);
        }
        if let Some(p) = &opts.perf {
            let p = PerfOptions {
                config: PrevvConfig {
                    depth,
                    ..p.config.clone()
                },
            };
            perf = Some(lint_perf(&synth, &p, &mut report));
        }
        Ok(synth)
    });

    let protocol = opts.protocol.as_ref().and_then(|p| {
        let p = ProtocolOptions {
            config: PrevvConfig {
                depth,
                ..p.config.clone()
            },
            ..p.clone()
        };
        match modelcheck::check(spec, &p) {
            Ok(result) => {
                report
                    .diagnostics
                    .extend(result.report.diagnostics.iter().cloned());
                Some(result)
            }
            Err(e) => {
                report.push(Diagnostic::warning(
                    Code::ProtocolBound,
                    format!("protocol model checker could not run: {e}"),
                ));
                None
            }
        }
    });
    report.normalize();
    Analysis {
        report,
        synth,
        perf,
        protocol,
    }
}

/// [`lint_kernel`] over kernel source text: a parse failure becomes a single
/// `PV000` error diagnostic carrying the failure offset, and no pass runs.
/// This is what `prevv-lint` runs per file.
pub fn lint_text(
    name: &str,
    source: &str,
    opts: &AnalyzeOptions,
    circuit: Option<&CircuitOptions>,
) -> Analysis {
    match prevv_ir::parse::parse_kernel(name, source) {
        Ok(spec) => lint_kernel(&spec, opts, circuit),
        Err(e) => {
            let mut report = Report::default();
            report.push(
                Diagnostic::error(Code::Parse, e.message.clone())
                    .with_span(Some(prevv_ir::Span::point(e.at))),
            );
            Analysis {
                report,
                synth: None,
                perf: None,
                protocol: None,
            }
        }
    }
}

/// Runs the kernel lints (PV0xx, PV3xx, PV5xx) over a validated kernel and
/// returns the findings in deterministic order: by source span, then code
/// ([`Report::normalize`]). [`lint_kernel`] without the netlist and
/// protocol passes.
pub fn analyze(spec: &KernelSpec, opts: &AnalyzeOptions) -> Report {
    lint_kernel(spec, &opts.kernel_only(), None).report
}

/// Lints kernel source text: [`lint_text`] without the netlist and protocol
/// passes.
pub fn lint_source(name: &str, source: &str, opts: &AnalyzeOptions) -> Report {
    lint_text(name, source, &opts.kernel_only(), None).report
}

/// Lints kernel source text including the PV4xx throughput pass (and,
/// when `circuit` is set, the PV1xx circuit lints): [`lint_text`] with
/// [`AnalyzeOptions::perf`] set to `perf_opts`. Returns the report together
/// with the [`PerfSummary`] when synthesis succeeded.
pub fn lint_source_with_perf(
    name: &str,
    source: &str,
    opts: &AnalyzeOptions,
    circuit: Option<&CircuitOptions>,
    perf_opts: &PerfOptions,
) -> (Report, Option<PerfSummary>) {
    let opts = AnalyzeOptions {
        perf: Some(perf_opts.clone()),
        ..opts.kernel_only()
    };
    let analysis = lint_text(name, source, &opts, circuit);
    (analysis.report, analysis.perf)
}

/// Why checked synthesis refused a kernel.
#[derive(Debug, Clone)]
pub enum AnalyzeError {
    /// The kernel failed structural validation before analysis could run.
    Kernel(KernelError),
    /// The analyzer found error-severity diagnostics; the full report (the
    /// errors plus any accompanying warnings/notes) is attached.
    Rejected(Report),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Kernel(e) => write!(f, "kernel error: {e}"),
            AnalyzeError::Rejected(r) => write!(
                f,
                "kernel rejected by static analysis: {} error(s): {}",
                r.count(Severity::Error),
                r.diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .map(|d| format!("{}[{}]", d.code, d.message))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<KernelError> for AnalyzeError {
    fn from(e: KernelError) -> Self {
        AnalyzeError::Kernel(e)
    }
}

/// Checked synthesis: runs [`lint_kernel`] with the circuit pass against
/// `circuit` (plus whatever passes `opts` requests) and refuses the kernel
/// on any error-severity finding; otherwise returns the driver's netlist
/// together with the (non-fatal) report.
///
/// # Errors
///
/// [`AnalyzeError::Rejected`] when the analyzer reports errors,
/// [`AnalyzeError::Kernel`] when the spec fails structural validation.
pub fn synthesize_with(
    spec: &KernelSpec,
    opts: &AnalyzeOptions,
    circuit: &CircuitOptions,
) -> Result<(SynthesizedKernel, Report), AnalyzeError> {
    spec.validate()?;
    let analysis = lint_kernel(spec, opts, Some(circuit));
    if analysis.report.has_errors() {
        return Err(AnalyzeError::Rejected(analysis.report));
    }
    let synth = analysis.synth.expect("the circuit pass synthesizes")?;
    Ok((synth, analysis.report))
}

/// Checked synthesis with default options against the default
/// premature-queue circuit model; see [`synthesize_with`].
///
/// # Errors
///
/// See [`synthesize_with`].
pub fn synthesize(spec: &KernelSpec) -> Result<(SynthesizedKernel, Report), AnalyzeError> {
    synthesize_with(spec, &AnalyzeOptions::default(), &CircuitOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::components::LoopLevel;
    use prevv_ir::{ArrayDecl, ArrayId, Expr, OpaqueFn, Stmt};

    fn parse(name: &str, src: &str) -> KernelSpec {
        prevv_ir::parse::parse_kernel(name, src).expect("parses")
    }

    #[test]
    fn pv001_flags_out_of_bounds_affine_access() {
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) {\n  a[i + 4] = i;\n}\n";
        let spec = parse("oob", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        assert!(r.has_errors());
        let d = r.with_code(Code::OutOfBounds)[0];
        assert_eq!(d.severity, Severity::Error);
        // The span points at the store target.
        let span = d.span.expect("store target span");
        assert_eq!(&src[span.start..span.end], "a[i + 4]");
        assert!(d.message.contains("out of bounds"));
    }

    #[test]
    fn pv001_respects_guards() {
        // The out-of-range index is only reachable when the guard passes,
        // and the guard never does.
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) {\n  if (i < 0) a[i + 8] = 1;\n}\n";
        let spec = parse("guarded-oob", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        assert!(r.with_code(Code::OutOfBounds).is_empty());
    }

    #[test]
    fn pv001_skips_runtime_indices() {
        let src = "int h[4];\nfor (int i = 0; i < 32; ++i) { h[h3_64(i)] += 1; }\n";
        let spec = parse("hash", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        // h3_64 yields 0..64, far beyond len 4, but runtime-dependent
        // indices wrap by design — not a static error.
        assert!(r.with_code(Code::OutOfBounds).is_empty());
    }

    #[test]
    fn pv002_is_a_note_with_fake_tokens_and_an_error_without() {
        let src =
            "int acc[4];\nfor (int i = 0; i < 48; ++i) {\n  if (i % 3 == 0) acc[1] += i;\n}\n";
        let spec = parse("guarded", src);
        let with = analyze(&spec, &AnalyzeOptions::default());
        let d = with.with_code(Code::DeadlockRisk);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Note);
        assert!(!with.has_errors());

        let without = analyze(
            &spec,
            &AnalyzeOptions {
                fake_tokens: false,
                ..AnalyzeOptions::default()
            },
        );
        let d = without.with_code(Code::DeadlockRisk);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(without.has_errors());
    }

    #[test]
    fn pv002_ignores_unambiguous_guarded_stores() {
        // Guarded, but no load ever conflicts: no pair, no deadlock hazard.
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) {\n  if (i % 2 == 0) a[i] = i;\n}\n";
        let spec = parse("benign", src);
        let r = analyze(
            &spec,
            &AnalyzeOptions {
                fake_tokens: false,
                ..AnalyzeOptions::default()
            },
        );
        assert!(r.with_code(Code::DeadlockRisk).is_empty());
    }

    #[test]
    fn zero_queue_depth_is_reported_not_a_panic() {
        let spec = parse(
            "fig2a",
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[b[i]] += 1;\n  b[i] += 2;\n}\n",
        );
        let popts = ProtocolOptions::for_config(&PrevvConfig::with_depth(0));
        assert!(modelcheck::check(&spec, &popts).is_err());
        let cex = modelcheck::Counterexample {
            code: Code::ProtocolDeadlock,
            events: Vec::new(),
            cycle_from: None,
        };
        assert!(modelcheck::replay(&spec, &popts, &cex).is_err());

        let analysis = lint_kernel(
            &spec,
            &AnalyzeOptions {
                depth: 0,
                protocol: Some(popts),
                ..AnalyzeOptions::default()
            },
            None,
        );
        assert!(analysis.protocol.is_none());
        let r = &analysis.report;
        assert_eq!(r.with_code(Code::QueueDepth)[0].severity, Severity::Error);
        assert!(r
            .with_code(Code::ProtocolBound)
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("could not run")));
    }

    #[test]
    fn pv003_depth_below_frontier_minimum_is_an_error() {
        let src = "int a[4];\nfor (int i = 0; i < 16; ++i) { a[0] += i; }\n";
        let spec = parse("accum", src);
        assert_eq!(spec.mem_ops_per_iter(), 2);
        let r = analyze(
            &spec,
            &AnalyzeOptions {
                depth: 1,
                ..AnalyzeOptions::default()
            },
        );
        let d = r.with_code(Code::QueueDepth);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
    }

    #[test]
    fn pv003_warns_below_the_matched_pair_recommendation() {
        // A heavy non-ambiguous statement inflates the iteration's token
        // time while the ambiguous accumulation stays cheap: the §V-A model
        // recommends more depth than the bare frontier minimum.
        let b = ArrayId(1);
        let a = ArrayId(0);
        let heavy = Expr::var(0)
            .mul(Expr::var(0))
            .mul(Expr::var(0))
            .mul(Expr::var(0))
            .mul(Expr::var(0))
            .mul(Expr::var(0));
        let spec = KernelSpec::new(
            "heavy",
            vec![LoopLevel::upto(16)],
            vec![ArrayDecl::zeroed("a", 4), ArrayDecl::zeroed("b", 16)],
            vec![
                Stmt::store(b, Expr::var(0), heavy),
                Stmt::store(
                    a,
                    Expr::lit(0),
                    Expr::load(a, Expr::lit(0)).add(Expr::lit(1)),
                ),
            ],
        )
        .expect("valid");
        let needed = spec.mem_ops_per_iter();
        let r = analyze(
            &spec,
            &AnalyzeOptions {
                depth: needed,
                ..AnalyzeOptions::default()
            },
        );
        let d = r.with_code(Code::QueueDepth);
        assert_eq!(d.len(), 1, "expected a depth warning: {:?}", r.diagnostics);
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(d[0].help.as_deref().unwrap_or("").contains("depth_q"));
        // A roomy depth silences it.
        let ok = analyze(
            &spec,
            &AnalyzeOptions {
                depth: 64,
                ..AnalyzeOptions::default()
            },
        );
        assert!(ok.with_code(Code::QueueDepth).is_empty());
    }

    #[test]
    fn pv301_reports_bypassed_pairs() {
        // a[i] += 1 over one level: load-before-store in the same iteration
        // only.
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n";
        let spec = parse("pure", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        let d = r.with_code(Code::ProvenDisjoint);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Note);
        assert!(d[0].message.contains("the arbiter is bypassed"));
        assert!(d[0].span.is_some(), "parsed kernels carry spans");
    }

    #[test]
    fn pv005_flags_unused_arrays_and_dead_stores() {
        // `b` is declared and never touched; the first store to a[0] is
        // overwritten by the second before anything reads it.
        let src =
            "int a[8];\nint b[8];\nfor (int i = 0; i < 8; ++i) {\n  a[0] = i;\n  a[0] = 7;\n}\n";
        let spec = parse("dead", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        let d = r.with_code(Code::DeadStore);
        assert_eq!(d.len(), 2, "unused array + dead store: {:?}", r.diagnostics);
        assert!(d.iter().any(|d| d.message.contains("never accessed")));
        assert!(d.iter().any(|d| d.message.contains("is dead")));
    }

    #[test]
    fn pv005_flags_never_executing_guards() {
        let src =
            "int a[8];\nfor (int i = 0; i < 8; ++i) {\n  if (i < 0) a[i] = 1;\n  a[i] = 2;\n}\n";
        let spec = parse("neverrun", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        assert!(r
            .with_code(Code::DeadStore)
            .iter()
            .any(|d| d.message.contains("never executes")));
    }

    #[test]
    fn pv005_final_contents_count_as_observed() {
        // Every store survives to the output: nothing is dead.
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = i; }\n";
        let spec = parse("out", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        assert!(r.with_code(Code::DeadStore).is_empty());
    }

    #[test]
    fn pv006_reports_missed_reduction_only_when_disabled() {
        // Three consecutive ambiguous loads of `a` form a run.
        let a = ArrayId(0);
        let spec = KernelSpec::new(
            "runs",
            vec![LoopLevel::upto(4), LoopLevel::upto(4)],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(
                a,
                Expr::var(0),
                Expr::load(a, Expr::var(0))
                    .add(Expr::load(a, Expr::var(0).add(Expr::lit(1))))
                    .add(Expr::load(a, Expr::var(0).add(Expr::lit(2)))),
            )],
        )
        .expect("valid");
        let disabled = analyze(
            &spec,
            &AnalyzeOptions {
                pair_reduction: false,
                ..AnalyzeOptions::default()
            },
        );
        let d = disabled.with_code(Code::PairReduction);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("eliminate 2 of 4"));
        let enabled = analyze(&spec, &AnalyzeOptions::default());
        assert!(enabled.with_code(Code::PairReduction).is_empty());
    }

    #[test]
    fn checked_synthesis_rejects_errors_and_passes_clean_kernels() {
        let bad = parse(
            "oob",
            "int a[4];\nfor (int i = 0; i < 8; ++i) { a[i] = i; }\n",
        );
        match synthesize(&bad) {
            Err(AnalyzeError::Rejected(r)) => {
                assert!(r.has_errors());
                assert!(!r.with_code(Code::OutOfBounds).is_empty());
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        let good = parse(
            "inc",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n",
        );
        let (synth, report) = synthesize(&good).expect("clean kernel synthesizes");
        assert!(!report.has_errors());
        assert!(!synth.bypassed.is_empty(), "PV301 pair is bypassed");
    }

    #[test]
    fn analyzer_handles_programmatic_kernels_without_spans() {
        let a = ArrayId(0);
        let idx = Expr::var(0).opaque(OpaqueFn::new(5, 8));
        let spec = KernelSpec::new(
            "prog",
            vec![LoopLevel::upto(8)],
            vec![ArrayDecl::zeroed("a", 8)],
            vec![Stmt::store(
                a,
                idx.clone(),
                Expr::load(a, idx).add(Expr::lit(1)),
            )],
        )
        .expect("valid");
        let r = analyze(&spec, &AnalyzeOptions::default());
        assert!(!r.has_errors());
        // Rendering and JSON must not panic without spans/source.
        let _ = r.render("prog", None);
        let _ = r.to_json(None);
    }
}
