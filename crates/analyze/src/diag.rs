//! Structured diagnostics: stable codes, severities, spans, and two render
//! targets — rustc-style text against the original `.pvk` source, and a
//! machine-readable JSON form for tooling.

use std::fmt;

use prevv_ir::span::{line_col, render_snippet};
use prevv_ir::Span;

/// Stable diagnostic codes. The numeric part never changes meaning across
/// versions; tools may match on [`Code::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `PV000` — the source failed to parse (CLI only; the analyzer proper
    /// operates on parsed kernels).
    Parse,
    /// `PV001` — an affine index provably leaves the array bounds.
    OutOfBounds,
    /// `PV002` — a guarded operation participates in an ambiguous pair
    /// (paper §V-C deadlock shape).
    DeadlockRisk,
    /// `PV003` — the configured premature-queue depth is insufficient.
    QueueDepth,
    /// `PV005` — a dead store or an unused array.
    DeadStore,
    /// `PV006` — pair reduction (paper §V-B) would help but is disabled.
    PairReduction,
    /// `PV101` — a channel with no producer or no consumer (dangling wire).
    DanglingChannel,
    /// `PV102` — a channel driven by more than one producer (or consumed by
    /// more than one component), which corrupts the handshake.
    MultiDrivenChannel,
    /// `PV103` — a handshake cycle with no elastic buffer on it: the
    /// structural-deadlock analogue of a combinational loop.
    UnbufferedCycle,
    /// `PV104` — premature-queue/arbiter capacity inconsistent with the
    /// circuit's maximum in-flight iteration frontier.
    FrontierCapacity,
    /// `PV105` — a component unreachable from any token source.
    UnreachableComponent,
    /// `PV200` — the protocol model checker hit its state or depth bound
    /// before exhausting the space: PV201–PV204 verdicts are incomplete.
    /// Also lists the pairs value invariants prove safe only within it.
    ProtocolBound,
    /// `PV201` — a reachable protocol state has no enabled transition and
    /// the kernel has not completed (protocol deadlock).
    ProtocolDeadlock,
    /// `PV202` — a reachable cycle squashes and replays the same iteration
    /// without the retired frontier advancing (squash livelock).
    SquashLivelock,
    /// `PV203` — on some interleaving an operation can never take a queue
    /// slot and no resident entry can retire (capacity wedge).
    QueueWedge,
    /// `PV204` — a §V-B pair-reduced representative reaches a state where
    /// its validation verdict differs from the unreduced set's.
    ReductionUnsound,
    /// `PV300` — the separation-logic prover left at least one ambiguous
    /// pair to the dynamic arbiter (the symbolic horizon).
    SeparationHorizon,
    /// `PV301` — a pair is proven safe (affine tests, enumeration or value
    /// invariants): no cross-iteration collision is possible, synthesis
    /// bypasses the arbiter for the pair, and it never enters the model
    /// checker's validated set. (`PV004` and `PV502`, which reported some of
    /// these pairs, are `--explain` aliases.)
    ProvenDisjoint,
    /// `PV302` — a pair's access footprints provably coincide on every
    /// iteration pair (must-alias): the arbiter validation is guaranteed
    /// live, not defensive.
    MustAlias,
    /// `PV400` — the static steady-state initiation-interval bound of the
    /// synthesized circuit, with the critical cycle (or binding memory
    /// resource) that sets it.
    ThroughputBound,
    /// `PV401` — a zero-slack backpressure cycle: the critical cycle is
    /// capacity-bound and a buffer insertion would raise throughput.
    SlacklessCycle,
    /// `PV402` — throughput is bound by premature-queue/arbiter
    /// serialization rather than compute; a deeper queue shifts the
    /// bottleneck back to the datapath.
    QueueBound,
    /// `PV403` — the measured initiation interval diverged from the static
    /// prediction beyond tolerance (model self-check).
    ModelDivergence,
    /// `PV500` — the abstract interpreter proves an access out of bounds:
    /// its guard-refined value range (including indirect indices bounded
    /// through array initializers) escapes the array on a feasible
    /// iteration.
    RangeOutOfBounds,
    /// `PV501` — a guard predicate is infeasible over the whole iteration
    /// space: the statement is dead and can be removed.
    InfeasibleGuard,
    /// `PV503` — the static premature-queue occupancy bound differs from
    /// the configured `depth_q` (the queue can never fill past the bound).
    OccupancyBound,
}

impl Code {
    /// The stable `PVxxx` string of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Parse => "PV000",
            Code::OutOfBounds => "PV001",
            Code::DeadlockRisk => "PV002",
            Code::QueueDepth => "PV003",
            Code::DeadStore => "PV005",
            Code::PairReduction => "PV006",
            Code::DanglingChannel => "PV101",
            Code::MultiDrivenChannel => "PV102",
            Code::UnbufferedCycle => "PV103",
            Code::FrontierCapacity => "PV104",
            Code::UnreachableComponent => "PV105",
            Code::ProtocolBound => "PV200",
            Code::ProtocolDeadlock => "PV201",
            Code::SquashLivelock => "PV202",
            Code::QueueWedge => "PV203",
            Code::ReductionUnsound => "PV204",
            Code::SeparationHorizon => "PV300",
            Code::ProvenDisjoint => "PV301",
            Code::MustAlias => "PV302",
            Code::ThroughputBound => "PV400",
            Code::SlacklessCycle => "PV401",
            Code::QueueBound => "PV402",
            Code::ModelDivergence => "PV403",
            Code::RangeOutOfBounds => "PV500",
            Code::InfeasibleGuard => "PV501",
            Code::OccupancyBound => "PV503",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; no action needed.
    Note,
    /// Suspicious but not fatal; synthesis proceeds.
    Warning,
    /// The kernel must not be synthesized as configured.
    Error,
}

impl Severity {
    /// Lower-case label used in renders (`error`, `warning`, `note`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A machine-applicable source edit attached to a diagnostic: replace the
/// bytes of `span` with `replacement`. Suggestions are only attached when
/// the fix is semantics-preserving (or is exactly what the diagnostic asks
/// for), so `prevv-lint --fix` may apply them without review; the fixed
/// source must re-parse and re-lint clean of the originating code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// Byte range of the original source to replace.
    pub span: Span,
    /// Replacement text (may be empty: a deletion).
    pub replacement: String,
    /// One-line description of what applying the edit does.
    pub label: String,
}

impl Suggestion {
    /// A new suggestion replacing `span` with `replacement`.
    pub fn new(span: Span, replacement: impl Into<String>, label: impl Into<String>) -> Self {
        Suggestion {
            span,
            replacement: replacement.into(),
            label: label.into(),
        }
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// Source location, when the kernel was parsed from text.
    pub span: Option<Span>,
    /// Primary message (one line).
    pub message: String,
    /// Optional remediation hint.
    pub help: Option<String>,
    /// Optional machine-applicable fix (see [`Suggestion`]).
    pub suggestion: Option<Suggestion>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span: None,
            message: message.into(),
            help: None,
            suggestion: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Self::error(code, message)
        }
    }

    /// A note-severity diagnostic.
    pub fn note(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Self::error(code, message)
        }
    }

    /// Attaches a source span (builder style).
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Attaches a help line (builder style).
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Attaches a machine-applicable fix (builder style).
    pub fn with_suggestion(mut self, suggestion: Suggestion) -> Self {
        self.suggestion = Some(suggestion);
        self
    }

    /// Renders this diagnostic rustc-style against the original source.
    /// Without a span (or without source text) only the header is produced.
    pub fn render(&self, origin: &str, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        match (self.span, source) {
            (Some(span), Some(src)) => out.push_str(&render_snippet(src, origin, span)),
            _ => out.push_str(&format!(" --> {origin}\n")),
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        if let Some(h) = &self.help {
            out.push_str(&format!(" help: {h}\n"));
        }
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(
                " fix: {} (machine-applicable: `prevv-lint --fix`)\n",
                s.label
            ));
        }
        out
    }

    /// The machine-readable JSON object for this diagnostic. When `source`
    /// is available the span gains 1-based `line`/`column` fields.
    pub fn to_json(&self, source: Option<&str>) -> String {
        let mut fields = vec![
            format!("\"code\":\"{}\"", self.code),
            format!("\"severity\":\"{}\"", self.severity),
            format!("\"message\":{}", json_string(&self.message)),
        ];
        if let Some(h) = &self.help {
            fields.push(format!("\"help\":{}", json_string(h)));
        }
        if let Some(s) = &self.suggestion {
            fields.push(format!(
                "\"suggestion\":{{\"start\":{},\"end\":{},\"replacement\":{},\"label\":{}}}",
                s.span.start,
                s.span.end,
                json_string(&s.replacement),
                json_string(&s.label)
            ));
        }
        if let Some(span) = self.span {
            let mut s = format!("\"start\":{},\"end\":{}", span.start, span.end);
            if let Some(src) = source {
                let (line, col) = line_col(src, span.start);
                s.push_str(&format!(",\"line\":{line},\"column\":{col}"));
            }
            fields.push(format!("\"span\":{{{s}}}"));
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// All diagnostics of one analyzer run, in emission order (lints run in
/// code order, so PV001 findings precede PV002, and so on).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one diagnostic is an error — the kernel must be
    /// refused by checked synthesis.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics with the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Diagnostics carrying the given code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Canonicalizes the report for rendering: diagnostics are sorted by
    /// (span, code) — spanless file-level findings last — and exact
    /// duplicates (same code, span, severity, and message) emitted by
    /// overlapping passes collapse to one. The sort is stable, so
    /// equally-placed findings keep their emission order, and every lint
    /// entry point calls this before returning — text and JSON output are
    /// deterministic regardless of pass scheduling.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let key = |d: &Diagnostic| {
                (
                    d.span.map_or(usize::MAX, |s| s.start),
                    d.span.map_or(usize::MAX, |s| s.end),
                    d.code.as_str(),
                )
            };
            key(a).cmp(&key(b)).then_with(|| a.message.cmp(&b.message))
        });
        self.diagnostics
            .dedup_by(|a, b| a.code == b.code && a.span == b.span && a.message == b.message);
    }

    /// Renders every diagnostic rustc-style, followed by a one-line tally.
    pub fn render(&self, origin: &str, source: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(origin, source));
        }
        out.push_str(&format!(
            "{origin}: {} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        ));
        out
    }

    /// The machine-readable JSON object for the whole report.
    pub fn to_json(&self, source: Option<&str>) -> String {
        let items: Vec<String> = self.diagnostics.iter().map(|d| d.to_json(source)).collect();
        format!(
            "{{\"errors\":{},\"warnings\":{},\"notes\":{},\"diagnostics\":[{}]}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            items.join(",")
        )
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(Code::Parse.as_str(), "PV000");
        assert_eq!(Code::OutOfBounds.as_str(), "PV001");
        assert_eq!(Code::DeadlockRisk.as_str(), "PV002");
        assert_eq!(Code::QueueDepth.as_str(), "PV003");
        assert_eq!(Code::DeadStore.as_str(), "PV005");
        assert_eq!(Code::PairReduction.as_str(), "PV006");
        assert_eq!(Code::DanglingChannel.as_str(), "PV101");
        assert_eq!(Code::MultiDrivenChannel.as_str(), "PV102");
        assert_eq!(Code::UnbufferedCycle.as_str(), "PV103");
        assert_eq!(Code::FrontierCapacity.as_str(), "PV104");
        assert_eq!(Code::UnreachableComponent.as_str(), "PV105");
        assert_eq!(Code::ProtocolBound.as_str(), "PV200");
        assert_eq!(Code::ProtocolDeadlock.as_str(), "PV201");
        assert_eq!(Code::SquashLivelock.as_str(), "PV202");
        assert_eq!(Code::QueueWedge.as_str(), "PV203");
        assert_eq!(Code::ReductionUnsound.as_str(), "PV204");
        assert_eq!(Code::SeparationHorizon.as_str(), "PV300");
        assert_eq!(Code::ProvenDisjoint.as_str(), "PV301");
        assert_eq!(Code::MustAlias.as_str(), "PV302");
        assert_eq!(Code::ThroughputBound.as_str(), "PV400");
        assert_eq!(Code::SlacklessCycle.as_str(), "PV401");
        assert_eq!(Code::QueueBound.as_str(), "PV402");
        assert_eq!(Code::ModelDivergence.as_str(), "PV403");
        assert_eq!(Code::RangeOutOfBounds.as_str(), "PV500");
        assert_eq!(Code::InfeasibleGuard.as_str(), "PV501");
        assert_eq!(Code::OccupancyBound.as_str(), "PV503");
    }

    #[test]
    fn normalize_sorts_by_span_and_dedupes_exact_duplicates() {
        let mut r = Report::default();
        r.push(Diagnostic::note(Code::ProtocolBound, "horizon"));
        r.push(Diagnostic::warning(Code::DeadStore, "dead").with_span(Some(Span::new(40, 44))));
        r.push(Diagnostic::error(Code::OutOfBounds, "oob").with_span(Some(Span::new(10, 14))));
        // The same finding from an overlapping pass: collapses.
        r.push(Diagnostic::error(Code::OutOfBounds, "oob").with_span(Some(Span::new(10, 14))));
        // Same code and span, different message: both survive.
        r.push(Diagnostic::warning(Code::ProtocolBound, "budget hit").with_span(None));
        r.normalize();
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["PV001", "PV005", "PV200", "PV200"]);
        assert_eq!(
            r.with_code(Code::OutOfBounds).len(),
            1,
            "duplicate collapsed"
        );
        assert_eq!(r.with_code(Code::ProtocolBound).len(), 2);
    }

    #[test]
    fn suggestion_renders_and_serializes() {
        let src = "int a[4];\nfor (int i = 0; i < 4; ++i) {\n  if (i > 9) a[0] += 1;\n}\n";
        let at = src.find("if").expect("present");
        let end = src.find("1;").expect("present") + 2;
        let d = Diagnostic::warning(Code::InfeasibleGuard, "guard is never true")
            .with_span(Some(Span::new(at, end)))
            .with_suggestion(Suggestion::new(
                Span::new(at, end),
                "",
                "remove the dead statement",
            ));
        let text = d.render("t.pvk", Some(src));
        assert!(text.contains("warning[PV501]"));
        assert!(text.contains("fix: remove the dead statement"));
        let j = d.to_json(Some(src));
        assert!(j.contains("\"suggestion\":{\"start\":"));
        assert!(j.contains("\"replacement\":\"\""));
        assert!(j.contains("\"label\":\"remove the dead statement\""));
    }

    #[test]
    fn report_tallies_severities() {
        let mut r = Report::default();
        r.push(Diagnostic::error(Code::OutOfBounds, "oob"));
        r.push(Diagnostic::warning(Code::DeadStore, "dead"));
        r.push(Diagnostic::note(Code::ProvenDisjoint, "safe"));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Note), 1);
        assert_eq!(r.with_code(Code::DeadStore).len(), 1);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn diagnostic_renders_with_span_and_source() {
        let src = "int a[4];\nfor (int i = 0; i < 4; ++i) {\n  a[i + 9] = 1;\n}\n";
        let at = src.find("i + 9").expect("present");
        let d = Diagnostic::error(Code::OutOfBounds, "index out of bounds")
            .with_span(Some(Span::new(at, at + 5)))
            .with_help("shrink the index");
        let text = d.render("t.pvk", Some(src));
        assert!(text.contains("error[PV001]: index out of bounds"));
        assert!(text.contains("t.pvk:3:5"));
        assert!(text.contains("^^^^^"));
        assert!(text.contains("help: shrink the index"));
    }

    #[test]
    fn diagnostic_json_carries_line_and_column() {
        let src = "int a[4];\nfor (int i = 0; i < 4; ++i) {\n  a[i] = 1;\n}\n";
        let d =
            Diagnostic::note(Code::ProvenDisjoint, "bypassed").with_span(Some(Span::new(42, 46)));
        let j = d.to_json(Some(src));
        assert!(j.contains("\"code\":\"PV301\""));
        assert!(j.contains("\"severity\":\"note\""));
        assert!(j.contains("\"start\":42"));
        assert!(j.contains("\"line\":"));
        let no_src = d.to_json(None);
        assert!(no_src.contains("\"start\":42") && !no_src.contains("\"line\":"));
    }
}
