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
//! | PV004 | note     | provably-disjoint pair — arbiter bypassed |
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
//! | PV301 | note     | pair footprints proven separate — discharged before model checking |
//! | PV302 | note     | pair footprints must-alias — validation provably live |
//! | PV400 | note     | perf: steady-state II bound + binding resource (+ critical cycle) |
//! | PV401 | warning  | perf: zero-slack backpressure cycle; buffer insertion suggested |
//! | PV402 | warning  | perf: premature-queue/arbiter serialization binds throughput |
//! | PV403 | warning  | perf: measured II diverged from the static prediction |
//! | PV500 | error/warn | value-range analysis proves an index out of bounds (warning for opaque wraparound) |
//! | PV501 | warning  | guard is provably false on every iteration — dead statement |
//! | PV502 | note     | invariant-backed pair discharge beyond GCD/Banerjee |
//! | PV503 | note     | static occupancy bound below the configured `depth_q` |
//!
//! The `PV0xx` lints run on the kernel; the `PV1xx` lints ([`circuit`])
//! run on the synthesized netlist via the channel-graph introspection API
//! of `prevv-dataflow`; the `PV2xx` lints ([`modelcheck`]) bounded-model-
//! check the abstract arbiter/premature-queue/squash protocol itself,
//! reusing the pure `prevv_core::ProtocolState` step functions the
//! simulator runs. The affine machinery behind PV001/PV004 is the
//! symbolic dependence engine [`prevv_ir::symdep`] (GCD and Banerjee
//! tests), which lets the lint families scale past enumerable iteration
//! spaces; the `PV3xx` notes ([`seplog`]) are the separation-logic-style
//! disjointness prover that discharges whole pair-classes before they reach
//! the arbiter or the model checker; the `PV4xx` lints ([`perf`]) model
//! the synthesized netlist as a timed marked graph and bound its
//! steady-state initiation interval (maximum cycle ratio plus the
//! controller's port/validation/retire budgets); the `PV5xx` lints
//! ([`absint`]) run a fixpoint abstract interpreter (interval ×
//! congruence × guard domains) over the loop nest, proving value-range
//! facts the affine engines cannot — and some of its diagnostics carry
//! machine-applicable suggestions that `prevv-lint --fix` applies.
//! [`explain`] documents every code with a minimal triggering example
//! (`prevv-lint --explain PVxxx`).
//!
//! [`synthesize`] is the checked front door: it runs the analyzer and
//! refuses kernels with any error-severity finding, attaching the report.
//! It then runs the circuit lints on the synthesized netlist and refuses
//! error-severity circuit findings too (and, when
//! [`AnalyzeOptions::protocol`] is set, the protocol findings).
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
use prevv_ir::depend;
use prevv_ir::{KernelError, KernelSpec, SynthOptions, SynthesizedKernel};

pub mod absint;
pub mod circuit;
pub mod diag;
pub mod explain;
mod lints;
pub mod modelcheck;
pub mod perf;
pub mod seplog;

pub use absint::{analyze_kernel as infer_invariants, occupancy_bound, DischargeReason};
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
    /// Configured premature-queue depth (`depth_q`) for PV003.
    pub depth: usize,
    /// Whether the controller applies the §V-B pair reduction; when false,
    /// PV006 reports the missed opportunity.
    pub pair_reduction: bool,
    /// Controller model for the PV1xx circuit lints in checked synthesis.
    /// `None` derives [`ControllerModel::Queue`] from [`Self::depth`] — the
    /// premature queue the kernel will actually run against.
    pub circuit_controller: Option<ControllerModel>,
    /// Run the PV2xx protocol model checker ([`modelcheck::check`]) as an
    /// additional pass in checked synthesis. `None` (the default) skips it —
    /// exhaustive exploration costs far more than the static lints.
    pub protocol: Option<ProtocolOptions>,
    /// Run the PV4xx static throughput pass ([`lint_perf`]) as an
    /// additional pass in checked synthesis. `None` (the default) skips it.
    pub perf: Option<PerfOptions>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        let cfg = PrevvConfig::default();
        AnalyzeOptions {
            fake_tokens: SynthOptions::default().fake_tokens,
            depth: cfg.depth,
            pair_reduction: cfg.pair_reduction,
            circuit_controller: None,
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
}

/// Runs every lint over a validated kernel and returns the findings in
/// deterministic order: by source span, then code ([`Report::normalize`]).
///
/// A `depth_q = N;` directive in the kernel source overrides
/// [`AnalyzeOptions::depth`] for every depth-sensitive lint — the file
/// records the configuration it was authored for.
pub fn analyze(spec: &KernelSpec, opts: &AnalyzeOptions) -> Report {
    let deps = depend::analyze(spec);
    let mut effective = opts.clone();
    if let Some((depth, _)) = spec.depth_hint() {
        effective.depth = depth;
    }
    let opts = &effective;
    let mut report = Report::default();
    lints::check_bounds(spec, &deps, &mut report);
    lints::check_deadlock(spec, &deps, opts, &mut report);
    let refinement = depend::refine_pairs(spec, &deps);
    lints::check_depth(spec, &deps, &refinement, opts, &mut report);
    lints::check_disjoint(spec, &deps, &refinement, &mut report);
    lints::check_dead_stores(spec, &deps, &mut report);
    lints::check_pair_reduction(spec, &deps, opts, &mut report);
    seplog::check_separation(spec, &deps, &mut report);
    absint::check_values(spec, &deps, &mut report);
    absint::check_occupancy(spec, opts.depth, &mut report);
    report.normalize();
    report
}

/// Lints kernel source text: parses it and runs [`analyze`]; a parse
/// failure becomes a single `PV000` error diagnostic carrying the failure
/// offset. This is what `prevv-lint` runs per file.
pub fn lint_source(name: &str, source: &str, opts: &AnalyzeOptions) -> Report {
    match prevv_ir::parse::parse_kernel(name, source) {
        Ok(spec) => analyze(&spec, opts),
        Err(e) => {
            let mut r = Report::default();
            r.push(
                Diagnostic::error(Code::Parse, e.message.clone())
                    .with_span(Some(prevv_ir::Span::point(e.at))),
            );
            r
        }
    }
}

/// Applies a kernel's `depth_q = N;` directive to the circuit pass: a
/// queue-modeled controller takes the in-source capacity, mirroring the
/// override [`analyze`] performs for the kernel-level lints.
fn circuit_for(spec: &prevv_ir::KernelSpec, circuit: &CircuitOptions) -> CircuitOptions {
    let mut eff = circuit.clone();
    if let (Some((depth, _)), ControllerModel::Queue { capacity }) =
        (spec.depth_hint(), &mut eff.controller)
    {
        *capacity = depth;
    }
    eff
}

/// Lints kernel source text including the PV1xx circuit lints: parses the
/// source, runs [`analyze`], then synthesizes the netlist (unchecked — the
/// point is to report, not refuse) and appends the [`lint_circuit`]
/// findings. Kernels that fail to parse report `PV000`; kernels that fail
/// structural synthesis keep their kernel-level findings only. This is what
/// `prevv-lint --circuit` runs per file.
pub fn lint_source_with_circuit(
    name: &str,
    source: &str,
    opts: &AnalyzeOptions,
    circuit: &CircuitOptions,
) -> Report {
    match prevv_ir::parse::parse_kernel(name, source) {
        Ok(spec) => {
            let mut report = analyze(&spec, opts);
            let synth_opts = SynthOptions {
                fake_tokens: opts.fake_tokens,
                ..SynthOptions::default()
            };
            if let Ok(synth) = prevv_ir::synthesize_with(&spec, &synth_opts) {
                report
                    .diagnostics
                    .extend(lint_circuit(&synth, &circuit_for(&spec, circuit)).diagnostics);
            }
            report.normalize();
            report
        }
        Err(e) => {
            let mut r = Report::default();
            r.push(
                Diagnostic::error(Code::Parse, e.message.clone())
                    .with_span(Some(prevv_ir::Span::point(e.at))),
            );
            r
        }
    }
}

/// Lints kernel source text including the PV4xx throughput pass (and,
/// when `circuit` is set, the PV1xx circuit lints): parses, runs
/// [`analyze`], synthesizes unchecked, and appends the perf findings.
/// Returns the report together with the [`PerfSummary`] when synthesis
/// succeeded. A `depth_q = N;` directive overrides the configured queue
/// depth here too, so `--fix`'s directive rewrite converges under the
/// same CLI flags. This is what `prevv-lint --perf` runs per file.
pub fn lint_source_with_perf(
    name: &str,
    source: &str,
    opts: &AnalyzeOptions,
    circuit: Option<&CircuitOptions>,
    perf_opts: &PerfOptions,
) -> (Report, Option<PerfSummary>) {
    match prevv_ir::parse::parse_kernel(name, source) {
        Ok(spec) => {
            let mut report = analyze(&spec, opts);
            let synth_opts = SynthOptions {
                fake_tokens: opts.fake_tokens,
                ..SynthOptions::default()
            };
            let mut perf_eff = perf_opts.clone();
            if let Some((depth, _)) = spec.depth_hint() {
                perf_eff.config.depth = depth;
            }
            let mut summary = None;
            if let Ok(synth) = prevv_ir::synthesize_with(&spec, &synth_opts) {
                if let Some(circuit) = circuit {
                    report
                        .diagnostics
                        .extend(lint_circuit(&synth, &circuit_for(&spec, circuit)).diagnostics);
                }
                summary = Some(lint_perf(&synth, &perf_eff, &mut report));
            }
            report.normalize();
            (report, summary)
        }
        Err(e) => {
            let mut r = Report::default();
            r.push(
                Diagnostic::error(Code::Parse, e.message.clone())
                    .with_span(Some(prevv_ir::Span::point(e.at))),
            );
            (r, None)
        }
    }
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

/// Checked synthesis with explicit options: runs [`analyze`], refuses the
/// kernel on any error-severity finding, otherwise synthesizes and returns
/// the circuit together with the (non-fatal) report.
///
/// # Errors
///
/// [`AnalyzeError::Rejected`] when the analyzer reports errors,
/// [`AnalyzeError::Kernel`] when the spec fails structural validation.
pub fn synthesize_with(
    spec: &KernelSpec,
    synth_opts: &SynthOptions,
    analyze_opts: &AnalyzeOptions,
) -> Result<(SynthesizedKernel, Report), AnalyzeError> {
    spec.validate()?;
    let mut report = analyze(spec, analyze_opts);
    if report.has_errors() {
        return Err(AnalyzeError::Rejected(report));
    }
    let mut synth = prevv_ir::synthesize_with(spec, synth_opts)?;
    // Value-invariant discharge (PV502): pairs absint proves disjoint over
    // the full iteration hull leave the arbiter's validated set — the
    // attached controller never compares them. Soundness rides on the
    // abstract domains (cross-checked against enumeration by the property
    // tests); the discharged pairs join `bypassed` so tooling sees them.
    if let Some(hull) = absint::hull_box(spec) {
        let discharged = absint::discharge_pairs(spec, &synth.deps, &synth.interface.pairs, &hull);
        if !discharged.is_empty() {
            synth
                .interface
                .pairs
                .retain(|p| !discharged.iter().any(|(d, _)| d == p));
            synth
                .bypassed
                .extend(discharged.into_iter().map(|(p, _)| p));
        }
    }
    let controller = analyze_opts
        .circuit_controller
        .unwrap_or(ControllerModel::Queue {
            capacity: analyze_opts.depth,
        });
    let circuit_report = lint_circuit(&synth, &CircuitOptions { controller });
    report.diagnostics.extend(circuit_report.diagnostics);
    if report.has_errors() {
        return Err(AnalyzeError::Rejected(report));
    }
    if let Some(protocol) = &analyze_opts.protocol {
        report
            .diagnostics
            .extend(protocol_report(spec, protocol).diagnostics);
        if report.has_errors() {
            return Err(AnalyzeError::Rejected(report));
        }
    }
    if let Some(perf_opts) = &analyze_opts.perf {
        lint_perf(&synth, perf_opts, &mut report);
    }
    report.normalize();
    Ok((synth, report))
}

/// Runs the PV2xx bounded model checker over an already-validated kernel
/// and returns its findings as a plain [`Report`]. An internal checker
/// failure (a kernel the abstract model cannot represent) is reported as a
/// `PV200` warning rather than a panic, so callers can always fold the
/// result into a larger report. This is what `prevv-lint --protocol` and
/// checked synthesis with [`AnalyzeOptions::protocol`] run.
pub fn protocol_report(spec: &KernelSpec, opts: &ProtocolOptions) -> Report {
    match modelcheck::check(spec, opts) {
        Ok(result) => {
            let mut r = result.report;
            r.normalize();
            r
        }
        Err(e) => {
            let mut r = Report::default();
            r.push(Diagnostic::warning(
                Code::ProtocolBound,
                format!("protocol model checker could not run: {e}"),
            ));
            r
        }
    }
}

/// Checked synthesis with default options; see [`synthesize_with`].
///
/// # Errors
///
/// See [`synthesize_with`].
pub fn synthesize(spec: &KernelSpec) -> Result<(SynthesizedKernel, Report), AnalyzeError> {
    synthesize_with(spec, &SynthOptions::default(), &AnalyzeOptions::default())
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
    fn pv004_reports_bypassed_pairs() {
        // a[i] += 1 over one level: load-before-store in the same iteration
        // only.
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] += 1; }\n";
        let spec = parse("pure", src);
        let r = analyze(&spec, &AnalyzeOptions::default());
        let d = r.with_code(Code::DisjointPair);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Note);
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
        assert!(!synth.bypassed.is_empty(), "PV004 pair is bypassed");
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
