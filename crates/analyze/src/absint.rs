//! PV5xx — the value lints over the invariants of [`prevv_ir::absint`],
//! whose pair proofs already sit in the dependence verdicts (PV301):
//!
//! * **PV500** — definite out-of-bounds proofs where PV001 is blind:
//!   runtime-dependent indices bounded through store-free initializer data
//!   (`a[b[i]]`), and guarded statements in spaces too large to enumerate.
//! * **PV501** — provably-infeasible guards (dead statements), with a
//!   machine-applicable removal fix.
//! * **PV503** — a static occupancy bound for the premature queue
//!   ([`occupancy_bound`]): a deeper configured `depth_q` is wasted area.

use prevv_dataflow::Value;
use prevv_ir::absint::{eval, eval_exact_set, refine, GuardStatus, KernelInvariants, SET_LIMIT};
use prevv_ir::depend::{Dependences, ENUM_LIMIT};
use prevv_ir::KernelSpec;

use crate::diag::{Code, Diagnostic, Report, Suggestion};
use crate::lints::op_spans;

// --- consumer: occupancy bound (PV503) --------------------------------------

/// A sound static bound on premature-queue occupancy: the queue can never
/// hold more records than the kernel issues in total (guarded-off
/// statements still issue fake tokens, so every static op of every
/// iteration counts).
pub fn occupancy_bound(spec: &KernelSpec) -> usize {
    spec.mem_ops_per_iter()
        .saturating_mul(spec.iteration_count())
}

/// PV503 — configured queue depth exceeding the occupancy bound. Emitted
/// as a note with a machine-applicable `depth_q` shrink when the kernel
/// carries a `depth_q = N;` directive.
pub(crate) fn check_occupancy(spec: &KernelSpec, depth: usize, report: &mut Report) {
    let bound = occupancy_bound(spec);
    if bound == 0 {
        return;
    }
    // Compare against the power-of-two fit, not the raw bound: the fix
    // rounds up to hardware-friendly sizes, so a depth already at the fit
    // has nothing to shrink (and the suggested fix must re-lint clean).
    let fitted = bound.next_power_of_two();
    if depth <= fitted {
        return;
    }
    let mut d = Diagnostic::note(
        Code::OccupancyBound,
        format!(
            "premature queue depth {depth} exceeds the kernel's static occupancy bound \
             {bound}: the whole run issues only {bound} memory op(s), so slots beyond \
             {fitted} are provably dead area"
        ),
    )
    .with_help(format!("configure depth_q = {fitted}"));
    if let Some((_, span)) = spec.depth_hint() {
        d = d.with_span(Some(span)).with_suggestion(Suggestion::new(
            span,
            format!("depth_q = {fitted};"),
            format!("shrink the queue to the occupancy bound ({fitted})"),
        ));
    }
    report.push(d);
}

// --- consumer: value lints (PV500/PV501) ------------------------------------

/// PV500/PV501 — definite out-of-bounds proofs and infeasible guards, from
/// the hull invariants ([`analyze_kernel`]).
pub(crate) fn check_values(
    spec: &KernelSpec,
    deps: &Dependences,
    inv: &KernelInvariants,
    report: &mut Report,
) {
    if spec.iteration_count() == 0 {
        return;
    }
    let spans = op_spans(spec, &deps.ops);
    let large = spec.iteration_count() > ENUM_LIMIT;

    // PV501: provably-infeasible guards.
    for (si, stmt) in spec.body.iter().enumerate() {
        if inv.stmts[si].guard != GuardStatus::NeverTaken {
            continue;
        }
        let name = &spec.arrays[stmt.array.0].name;
        let mut d = Diagnostic::warning(
            Code::InfeasibleGuard,
            format!(
                "guard is provably false for every iteration: the statement updating \
                 `{name}` never executes"
            ),
        )
        .with_span(stmt.span())
        .with_help("delete the statement, or fix the predicate if it was meant to fire");
        if spec.body.len() > 1 {
            if let Some(span) = stmt.span() {
                d = d.with_suggestion(Suggestion::new(
                    span,
                    String::new(),
                    "remove the dead statement",
                ));
            }
        }
        report.push(d);
    }

    // PV500: definite out-of-bounds, only where PV001 is blind.
    for op in &deps.ops {
        let stmt = &spec.body[op.stmt];
        let runtime = op.index.is_runtime_dependent();
        if !(runtime || (large && stmt.guard.is_some())) {
            continue; // PV001 territory
        }
        // A definite witness needs the owning iteration to actually run.
        match inv.stmts[op.stmt].guard {
            GuardStatus::None | GuardStatus::AlwaysTaken => {}
            _ => continue,
        }
        let renv = match &stmt.guard {
            None => inv.env.clone(),
            Some(g) => match refine(&inv.env, g) {
                Some(e) => e,
                None => continue,
            },
        };
        let len = spec.arrays[op.array.0].len as Value;
        let witness = if let Some(set) = eval_exact_set(&op.index, &renv, spec) {
            set.into_iter().find(|&v| v < 0 || v >= len)
        } else {
            let idx = eval(&op.index, &renv);
            idx.enumerate(SET_LIMIT)
                .and_then(|vs| vs.into_iter().find(|&v| v < 0 || v >= len))
        };
        let Some(raw) = witness else { continue };
        let kind = op.kind;
        let name = &spec.arrays[op.array.0].name;
        let diag = if runtime {
            Diagnostic::warning(
                Code::RangeOutOfBounds,
                format!(
                    "{kind} index provably reaches {raw}, out of bounds for `{name}` of \
                     length {len}: the value analysis bounds the index through \
                     initializer data"
                ),
            )
        } else {
            Diagnostic::error(
                Code::RangeOutOfBounds,
                format!(
                    "{kind} index provably reaches {raw}, out of bounds for `{name}` of \
                     length {len} (guard-refined value analysis)"
                ),
            )
        };
        report.push(diag.with_span(spans[op.id]).with_help(format!(
            "the runtime wraps indices modulo the array length, silently aliasing \
                     `{name}[{}]`; fix the index data or enlarge the array",
            raw.rem_euclid(len)
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_ir::absint::analyze_kernel;
    use prevv_ir::depend;
    use prevv_ir::parse::parse_kernel;
    use prevv_ir::Expr;

    fn spec(src: &str) -> KernelSpec {
        parse_kernel("t", src).expect("parses")
    }

    #[test]
    fn pv501_fires_on_infeasible_guard_with_removal_fix() {
        let src = "int a[8];\nfor (int i = 0; i < 8; ++i) {\n  \
                   if (i % 2 == 3) a[i] = 1;\n  a[i] += 2;\n}\n";
        let s = spec(src);
        let deps = depend::analyze(&s);
        let mut report = Report::default();
        check_values(&s, &deps, &analyze_kernel(&s), &mut report);
        let d = report.with_code(Code::InfeasibleGuard);
        assert_eq!(d.len(), 1, "{:?}", report.diagnostics);
        let sugg = d[0].suggestion.as_ref().expect("machine-applicable");
        assert_eq!(sugg.replacement, "");
        assert_eq!(
            &src[sugg.span.start..sugg.span.end],
            "if (i % 2 == 3) a[i] = 1;"
        );
    }

    #[test]
    fn pv500_bounds_indirect_indices_through_initializers() {
        // b is store-free and holds 9, which escapes a's length 8; the
        // syntactic PV001 check skips runtime-dependent indices entirely.
        let src = "int a[8];\nint b[4] = { 1, 9, 2, 3 };\n\
                   for (int i = 0; i < 4; ++i) { a[b[i]] += 1; }\n";
        let s = spec(src);
        let deps = depend::analyze(&s);
        let mut report = Report::default();
        check_values(&s, &deps, &analyze_kernel(&s), &mut report);
        let d = report.with_code(Code::RangeOutOfBounds);
        assert!(!d.is_empty(), "{:?}", report.diagnostics);
        assert!(d[0].message.contains("reaches 9"), "{}", d[0].message);
        // In-bounds initializer data stays clean.
        let ok = spec(
            "int a[8];\nint b[4] = { 1, 7, 2, 3 };\n\
             for (int i = 0; i < 4; ++i) { a[b[i]] += 1; }\n",
        );
        let deps = depend::analyze(&ok);
        let mut report = Report::default();
        check_values(&ok, &deps, &analyze_kernel(&ok), &mut report);
        assert!(report.with_code(Code::RangeOutOfBounds).is_empty());
    }

    #[test]
    fn stock_shapes_stay_clean() {
        for src in [
            // histogram: opaque index is inexact — no definite proof.
            "int h[16];\nfor (int i = 0; i < 128; ++i) { h[h7_16(i)] += 1; }",
            // fig2a: b is stored, so no initializer exactness.
            "int a[16];\nint b[8] = {2, 5, 2, 7, 2, 1, 5, 2};\n\
             for (int i = 0; i < 8; ++i) { a[b[i]] = a[b[i]] + 5; b[i] = b[i] + 3; }",
            // guarded: the i % 3 == 0 guard is feasible.
            "int acc[4];\nfor (int i = 0; i < 48; ++i) { if (i % 3 == 0) acc[1] += i; }",
        ] {
            let s = spec(src);
            let deps = depend::analyze(&s);
            let mut report = Report::default();
            check_values(&s, &deps, &analyze_kernel(&s), &mut report);
            assert!(
                report.with_code(Code::RangeOutOfBounds).is_empty()
                    && report.with_code(Code::InfeasibleGuard).is_empty(),
                "spurious PV5xx on {src}: {:?}",
                report.diagnostics
            );
        }
    }

    #[test]
    fn occupancy_bound_and_pv503() {
        let s = spec("int a[4];\nfor (int i = 0; i < 3; ++i) { a[i] = i; }");
        assert_eq!(occupancy_bound(&s), 3);
        let mut report = Report::default();
        check_occupancy(&s, 16, &mut report);
        let d = report.with_code(Code::OccupancyBound);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("bound 3"), "{}", d[0].message);
        // A depth at or under the bound stays silent.
        let mut report = Report::default();
        check_occupancy(&s, 2, &mut report);
        assert!(report.with_code(Code::OccupancyBound).is_empty());
    }

    #[test]
    fn empty_iteration_spaces_are_inert() {
        let s = KernelSpec::new(
            "empty",
            vec![prevv_dataflow::components::LoopLevel::upto(0)],
            vec![prevv_ir::ArrayDecl::zeroed("a", 4)],
            vec![prevv_ir::Stmt::store(
                prevv_ir::ArrayId(0),
                Expr::var(0),
                Expr::lit(1),
            )],
        );
        // Zero-trip loops may be rejected by validation; only exercise the
        // interpreter when the spec constructs.
        if let Ok(s) = s {
            let deps = depend::analyze(&s);
            let mut report = Report::default();
            check_values(&s, &deps, &analyze_kernel(&s), &mut report);
            check_occupancy(&s, 16, &mut report);
            assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        }
    }
}
