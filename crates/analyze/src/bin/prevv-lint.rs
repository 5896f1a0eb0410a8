//! `prevv-lint` — static analysis for `.pvk` kernel sources.
//!
//! ```text
//! prevv-lint [--format text|json] [--depth N] [--no-fake-tokens]
//!            [--no-pair-reduction] [--circuit]
//!            [--controller none|direct|prevv] [--protocol]
//!            [--mc-depth N] [--mc-states N[k|m]] [--mc-audit]
//!            [--mc-no-por] [--no-forwarding] [--perf] [--fix]
//!            [--deny-warnings] [--jobs N] <file.pvk>...
//! prevv-lint --explain PVxxx
//! ```
//!
//! Parses each file and runs every kernel-level `prevv-analyze` lint
//! (`PV0xx`); with `--circuit` it additionally synthesizes the elastic
//! netlist and runs the circuit-level lints (`PV1xx`) against the
//! controller model chosen by `--controller` (`prevv`, the default, models
//! a premature queue of `--depth` slots; `direct` a combinational memory;
//! `none` leaves the memory ports open). With `--protocol` it runs the
//! `PV2xx` bounded model checker over the abstract premature-queue /
//! arbiter / squash protocol: `--depth` sizes the modeled queue,
//! `--no-fake-tokens` / `--no-pair-reduction` / `--no-forwarding` configure
//! the modeled controller, `--mc-depth` bounds the explored iteration
//! horizon and `--mc-states` caps the explored state count (human
//! suffixes accepted: `120k`, `10m`). The checker runs serially per file;
//! `--jobs N` lints N files at once (0 = all cores, the default; output is
//! identical at any count). `--mc-audit` enables the fingerprint collision
//! audit, and `--mc-no-por` disables partial-order reduction (the
//! unreduced oracle the reduction is cross-checked against). With
//! `--perf` it runs the `PV4xx` static throughput pass: the synthesized
//! netlist is modeled as a timed marked graph and its steady-state
//! initiation-interval bound, critical cycle, and binding resource are
//! reported (PV400) together with buffer-insertion (PV401) and
//! queue-sizing (PV402) suggestions.
//!
//! Each file runs through the analyzer's one driver,
//! `prevv_analyze::lint_text`, so a kernel's `depth_q = N;` directive
//! overrides `--depth` for every pass alike: the kernel lints, the `prevv`
//! circuit model, the perf model and the model-checked queue. Findings
//! from all passes fold into one report per file, rendered rustc-style
//! (default) or as one JSON document for the whole run:
//!
//! ```json
//! {"files":[{"file":"...","report":{...}}, ...],
//!  "summary":{"errors":N,"warnings":N,
//!             "protocol":{"states":N,"transitions":N,"enabled":N,
//!                         "reduction_ratio":R,"states_per_sec":R,
//!                         "truncated_by_budget":B,
//!                         "audit_collisions":N|null,"validated":N,
//!                         "pairs":{"conservative":N,"discharged":N,
//!                                  "must_alias":N,"residual":N}},
//!             "perf":{"ii_bound":R,"predicted_ii":R,"predicted_cycles":N,
//!                     "binding_resource":"...","critical_cycle":[...],
//!                     "recommended_depth":N|null}}}
//! ```
//!
//! The `summary.protocol` object (present only under `--protocol`)
//! aggregates the exploration over all checked files — actual states
//! explored, the partial-order reduction ratio, throughput, and the
//! PV30x pair-class discharge. The `summary.perf` object (present only
//! under `--perf`) carries the worst (highest-`ii_bound`) throughput
//! verdict across the checked files.
//!
//! `--fix` applies every machine-applicable suggestion in the report
//! (PV402 / PV503 `depth_q` resizes, PV501 dead-statement removal, ...)
//! to the file in place. Overlapping suggestions are applied outermost-
//! last-first; the patched source must re-parse and re-lint clean of every
//! code whose fix was applied, or the file is left untouched and the run
//! exits with status 2.
//!
//! `--explain PVxxx` prints the documentation, severity, and a minimal
//! triggering example for any diagnostic code and exits (status 2 for an
//! unknown code).
//!
//! Parse failures are reported as `PV000`. The exit status is nonzero iff
//! any file produced an error-severity diagnostic — or, under
//! `--deny-warnings`, any warning.

use prevv_analyze::{
    diag::Code, diag::Report, diag::Suggestion, explain_code, lint_text, AnalyzeOptions,
    CheckStats, CircuitOptions, ControllerModel, PerfOptions, PerfSummary, ProtocolOptions,
    Severity,
};
use prevv_core::PrevvConfig;
use prevv_dataflow::sweep;

enum Format {
    Text,
    Json,
}

struct Args {
    files: Vec<String>,
    format: Format,
    opts: AnalyzeOptions,
    circuit: Option<CircuitOptions>,
    fix: bool,
    deny_warnings: bool,
    jobs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: prevv-lint [--format text|json] [--depth N] [--no-fake-tokens] \
         [--no-pair-reduction] [--circuit] [--controller none|direct|prevv] \
         [--protocol] [--mc-depth N] [--mc-states N[k|m]] [--mc-audit] \
         [--mc-no-por] [--no-forwarding] [--perf] [--fix] \
         [--deny-warnings] [--jobs N] <file.pvk>...\n       prevv-lint --explain PVxxx"
    );
    std::process::exit(2);
}

fn run_explain(code: Option<String>) -> ! {
    let Some(code) = code else { usage() };
    match explain_code(&code) {
        Some(e) => {
            println!("{}: {}", e.code, e.title);
            println!("severity: {}", e.severity);
            println!("\n{}\n", e.doc);
            println!("minimal example:");
            for line in e.example.lines() {
                println!("    {}", line.trim_start());
            }
            std::process::exit(0);
        }
        None => {
            eprintln!("unknown diagnostic code `{code}` (known: PV000..PV006, PV101..PV105, PV200..PV204, PV300..PV302, PV400..PV403, PV500..PV503)");
            std::process::exit(2);
        }
    }
}

/// Parses a state count with an optional human suffix: `120000`, `120k`,
/// `10m` (case-insensitive).
fn parse_states(v: &str) -> Option<usize> {
    let v = v.trim();
    let (digits, mult) = match v.as_bytes().last()? {
        b'k' | b'K' => (&v[..v.len() - 1], 1_000usize),
        b'm' | b'M' => (&v[..v.len() - 1], 1_000_000usize),
        _ => (v, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// The next argument as a number, or the usage message.
fn number<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut files = Vec::new();
    let mut format = Format::Text;
    // The one controller configuration every pass checks against.
    let mut cfg = PrevvConfig::default();
    let mut fake_tokens = true;
    let mut want_circuit = false;
    let mut controller = None;
    let mut want_protocol = false;
    let mut protocol = ProtocolOptions::default();
    let mut want_perf = false;
    let mut fix = false;
    let mut deny_warnings = false;
    let mut jobs = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => run_explain(it.next()),
            "--format" => {
                format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    _ => usage(),
                };
            }
            "--depth" => cfg.depth = number(&mut it),
            "--no-fake-tokens" => fake_tokens = false,
            "--no-pair-reduction" => cfg.pair_reduction = false,
            "--circuit" => want_circuit = true,
            "--controller" => {
                controller = match it.next().as_deref() {
                    Some("none") => Some(ControllerModel::None),
                    Some("direct") => Some(ControllerModel::Direct),
                    Some("prevv") => None, // queue of --depth, resolved below
                    _ => usage(),
                };
                want_circuit = true;
            }
            "--protocol" => want_protocol = true,
            "--mc-depth" => {
                protocol.iterations = number(&mut it);
                want_protocol = true;
            }
            "--mc-states" => {
                let states = it
                    .next()
                    .and_then(|v| parse_states(&v))
                    .unwrap_or_else(|| usage());
                if states > 0 {
                    protocol.max_states = states;
                }
                want_protocol = true;
            }
            "--mc-audit" => {
                protocol.audit = true;
                want_protocol = true;
            }
            "--mc-no-por" => {
                protocol.por = false;
                want_protocol = true;
            }
            "--no-forwarding" => cfg.forwarding = false,
            "--perf" => want_perf = true,
            "--fix" => fix = true,
            "--deny-warnings" => deny_warnings = true,
            "--jobs" => jobs = number(&mut it),
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => usage(),
        }
    }
    if files.is_empty() {
        usage();
    }
    let circuit = want_circuit.then(|| CircuitOptions {
        controller: controller.unwrap_or(ControllerModel::Queue {
            capacity: cfg.depth,
        }),
    });
    let opts = AnalyzeOptions {
        fake_tokens,
        protocol: want_protocol.then(|| ProtocolOptions {
            config: cfg.clone(),
            fake_tokens,
            ..protocol
        }),
        perf: want_perf.then(|| PerfOptions {
            config: cfg.clone(),
        }),
        ..AnalyzeOptions::for_config(&cfg)
    };
    Args {
        files,
        format,
        opts,
        circuit,
        fix,
        deny_warnings,
        jobs,
    }
}

/// Applies machine-applicable suggestions to `source`, last span first so
/// earlier offsets stay valid; overlapping or out-of-range spans are
/// skipped. Returns the patched text and how many fixes were applied.
fn apply_suggestions(source: &str, report: &Report) -> (String, Vec<Code>) {
    let mut suggs: Vec<(&Suggestion, Code)> = report
        .diagnostics
        .iter()
        .filter_map(|d| d.suggestion.as_ref().map(|s| (s, d.code)))
        .collect();
    suggs.sort_by_key(|s| std::cmp::Reverse((s.0.span.start, s.0.span.end)));
    let mut out = source.to_string();
    let mut applied = Vec::new();
    let mut frontier = out.len();
    for (s, code) in suggs {
        if s.span.end > frontier || s.span.start > s.span.end {
            continue;
        }
        out.replace_range(s.span.start..s.span.end, &s.replacement);
        frontier = s.span.start;
        applied.push(code);
    }
    (out, applied)
}

/// `--fix` for one file: patch, verify (re-parse + re-lint clean of every
/// applied code), and write back. Returns false when verification fails
/// (the file is left untouched).
fn fix_file(path: &str, name: &str, source: &str, report: &Report, args: &Args) -> bool {
    let (fixed, applied) = apply_suggestions(source, report);
    if applied.is_empty() {
        return true;
    }
    // The model checker's diagnostics never carry fixes: skip it.
    let opts = AnalyzeOptions {
        protocol: None,
        ..args.opts.clone()
    };
    let recheck = lint_text(name, &fixed, &opts, args.circuit.as_ref()).report;
    let stale: Vec<&Code> = applied
        .iter()
        .filter(|c| recheck.diagnostics.iter().any(|d| d.code == **c))
        .collect();
    let parses = !recheck.diagnostics.iter().any(|d| d.code == Code::Parse);
    if !parses || !stale.is_empty() {
        eprintln!(
            "{path}: not fixed — patched source {}",
            if parses {
                format!("still reports {stale:?}")
            } else {
                "no longer parses".to_string()
            }
        );
        return false;
    }
    if let Err(e) = std::fs::write(path, &fixed) {
        eprintln!("cannot write {path}: {e}");
        return false;
    }
    println!("{path}: applied {} fix(es)", applied.len());
    true
}

/// Aggregated model-checker statistics over every checked file, for the
/// JSON `summary.protocol` object.
#[derive(Default)]
struct ProtocolSummary {
    states: usize,
    transitions: u64,
    enabled: u64,
    secs: f64,
    truncated_by_budget: bool,
    audit_collisions: Option<u64>,
    conservative: usize,
    discharged: usize,
    must_alias: usize,
    residual: usize,
    validated: usize,
}

impl ProtocolSummary {
    fn fold(&mut self, s: &CheckStats) {
        self.states += s.states;
        self.transitions += s.transitions;
        self.enabled += s.enabled;
        self.secs += s.duration.as_secs_f64();
        self.truncated_by_budget |= s.truncated_by_budget;
        if let Some(c) = s.audit_collisions {
            *self.audit_collisions.get_or_insert(0) += c;
        }
        self.conservative += s.pairs.conservative;
        self.discharged += s.pairs.discharged;
        self.must_alias += s.pairs.must_alias;
        self.residual += s.pairs.residual;
        self.validated += s.validated;
    }

    fn to_json(&self) -> String {
        let reduction = if self.enabled == 0 {
            1.0
        } else {
            self.transitions as f64 / self.enabled as f64
        };
        let per_sec = if self.secs > 0.0 {
            self.states as f64 / self.secs
        } else {
            0.0
        };
        format!(
            "{{\"states\":{},\"transitions\":{},\"enabled\":{},\"reduction_ratio\":{:.4},\
             \"states_per_sec\":{:.0},\"truncated_by_budget\":{},\
             \"audit_collisions\":{},\"validated\":{},\"pairs\":{{\"conservative\":{},\
             \"discharged\":{},\"must_alias\":{},\"residual\":{}}}}}",
            self.states,
            self.transitions,
            self.enabled,
            reduction,
            per_sec,
            self.truncated_by_budget,
            self.audit_collisions
                .map_or_else(|| "null".to_string(), |c| c.to_string()),
            self.validated,
            self.conservative,
            self.discharged,
            self.must_alias,
            self.residual,
        )
    }
}

fn main() {
    let args = parse_args();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut json_files = Vec::new();
    let mut fix_failures = 0usize;
    let mut protocol_summary: Option<ProtocolSummary> = None;
    let mut perf_summary: Option<PerfSummary> = None;
    let sources: Vec<(String, String)> = args
        .files
        .iter()
        .map(|path| {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("kernel")
                .to_string();
            (name, source)
        })
        .collect();
    // Files are independent: shard them across `--jobs` workers (0 = all
    // cores; the checker itself is serial). Results come back in file
    // order, so the rendered output is byte-identical at any job count.
    // Fixing and printing stay sequential below.
    let lint = |(name, source): &(String, String)| {
        let analysis = lint_text(name, source, &args.opts, args.circuit.as_ref());
        (
            analysis.report,
            analysis.perf,
            analysis.protocol.map(|r| r.stats),
        )
    };
    let linted: Vec<(Report, Option<PerfSummary>, Option<CheckStats>)> = match args.jobs {
        1 => sources.iter().map(lint).collect(),
        0 => sweep::run(&sources, lint),
        jobs => sweep::run_with_threads(&sources, jobs, lint),
    };
    for ((path, (name, source)), (report, perf, protocol)) in
        args.files.iter().zip(&sources).zip(linted)
    {
        // summary.perf keeps the worst verdict across the run.
        if let Some(s) = perf {
            let worse = perf_summary
                .as_ref()
                .is_none_or(|prev| s.ii_bound > prev.ii_bound);
            if worse {
                perf_summary = Some(s);
            }
        }
        if let Some(stats) = &protocol {
            protocol_summary
                .get_or_insert_with(ProtocolSummary::default)
                .fold(stats);
        }
        if args.fix && !fix_file(path, name, source, &report, &args) {
            fix_failures += 1;
        }
        total_errors += report.count(Severity::Error);
        total_warnings += report.count(Severity::Warning);
        match args.format {
            Format::Text => {
                if report.is_empty() {
                    println!("{path}: clean");
                } else {
                    print!("{}", report.render(path, Some(source)));
                }
            }
            Format::Json => {
                json_files.push(format!(
                    "{{\"file\":{},\"report\":{}}}",
                    prevv_analyze::diag::json_string(path),
                    report.to_json(Some(source))
                ));
            }
        }
    }
    if matches!(args.format, Format::Json) {
        let protocol = protocol_summary
            .as_ref()
            .map_or(String::new(), |p| format!(",\"protocol\":{}", p.to_json()));
        let perf = perf_summary
            .as_ref()
            .map_or(String::new(), |p| format!(",\"perf\":{}", p.to_json()));
        println!(
            "{{\"files\":[{}],\"summary\":{{\"errors\":{total_errors},\"warnings\":{total_warnings}{protocol}{perf}}}}}",
            json_files.join(",")
        );
    }
    if fix_failures > 0 {
        std::process::exit(2);
    }
    if total_errors > 0 || (args.deny_warnings && total_warnings > 0) {
        std::process::exit(1);
    }
}
