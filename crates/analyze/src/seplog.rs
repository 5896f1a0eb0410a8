//! PV3xx — the separation notes over the dependence verdicts.
//!
//! Separation logic phrases "these two accesses never interfere" as one
//! judgment on their footprints (the sets of cells each can touch). Here
//! that judgment is the `PairVerdict` that `prevv_ir::depend::analyze` hands
//! every conservative pair — the affine tests, exact enumeration, the
//! must-alias check and the [`prevv_ir::absint`] value domains over the
//! iteration hull, run once. This pass only reports it:
//!
//! * **PV301 (proven separate)** — every collision is same-iteration and
//!   program-order protected (load sequenced before the store), proved by
//!   the affine tests or by enumeration; or value invariants proved the
//!   pair safe, and the message carries their `DischargeReason`. Synthesis
//!   bypasses the arbiter for such a pair, and it never enters the model
//!   checker's validated set. (`--explain PV004` and `--explain PV502`, the
//!   codes that once reported some of these pairs, resolve here.)
//! * **PV302 (must-alias)** — the two footprints are the *same* affine
//!   function, so they collide on every traversal: the arbiter validation
//!   for this pair is live, not defensive. Constant footprints (`a[0]`)
//!   additionally collide across iterations — the canonical squash-replay
//!   generator.
//! * **PV300 (separation horizon)** — at least one pair is must-alias or
//!   unproved (runtime-dependent index, cross-iteration reuse); the dynamic
//!   arbiter and the PV2xx bounded checker remain the only line of defense
//!   for it.
//!
//! The verdicts are one-sided (proof or silence) and are cross-checked
//! against brute-force enumeration by `tests/analyzer_properties.rs`.

use prevv_ir::depend::{Dependences, Proof, VerdictClass};
use prevv_ir::KernelSpec;

use crate::diag::{Code, Diagnostic, Report};
use crate::lints::op_spans;

/// Aggregate pair-class counts, surfaced in the model checker's stats and
/// the `prevv-lint` JSON summary so the discharge is visible to tooling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeparationStats {
    /// Conservative ambiguous pairs found by dependence analysis.
    pub conservative: usize,
    /// Pairs with a proof, by any method (PV301); in the checker's stats
    /// also the pairs proved only within its horizon (PV200).
    pub discharged: usize,
    /// Pairs proven must-alias (PV302) — validated, and provably live.
    pub must_alias: usize,
    /// Pairs with no verdict — validated defensively.
    pub residual: usize,
}

impl SeparationStats {
    /// Counts the verdicts of `deps`.
    pub fn of(deps: &Dependences) -> Self {
        let mut stats = SeparationStats {
            conservative: deps.pairs.len(),
            ..SeparationStats::default()
        };
        for v in &deps.verdicts {
            match v.class {
                VerdictClass::Proved(_) => stats.discharged += 1,
                VerdictClass::MustAlias => stats.must_alias += 1,
                VerdictClass::Unknown => stats.residual += 1,
            }
        }
        stats
    }
}

/// The lint pass: one PV301 note per proved pair (the pairs synthesis
/// bypasses), one PV302 note per must-alias pair, and a single PV300 horizon
/// note when anything remains for the dynamic arbiter.
pub(crate) fn check_separation(spec: &KernelSpec, deps: &Dependences, report: &mut Report) {
    let spans = op_spans(spec, &deps.ops);
    let mut residual = 0usize;
    for (pair, verdict) in deps.pairs.iter().zip(&deps.verdicts) {
        let name = &spec.arrays[deps.ops[pair.load].array.0].name;
        let span = spans[pair.load].or(spans[pair.store]);
        let note = match verdict.class {
            VerdictClass::Proved(proof) => {
                let why = match proof {
                    Proof::Invariant(reason) => reason.describe(),
                    Proof::Affine | Proof::Enumerated => {
                        "every overlap is same-iteration and the load is sequenced before \
                         the store, which the in-order commit serializes"
                    }
                };
                Diagnostic::note(
                    Code::ProvenDisjoint,
                    format!(
                        "load/store footprints on `{name}` are proven separate: {why}; the \
                         arbiter is bypassed for the pair"
                    ),
                )
            }
            VerdictClass::MustAlias => {
                residual += 1;
                Diagnostic::note(
                    Code::MustAlias,
                    format!(
                        "load/store footprints on `{name}` must-alias: both follow the \
                         same affine index function, so the arbiter validation for this \
                         pair fires on every traversal"
                    ),
                )
            }
            VerdictClass::Unknown => {
                residual += 1;
                continue;
            }
        };
        report.push(note.with_span(span));
    }
    if residual > 0 {
        report.push(
            Diagnostic::note(
                Code::SeparationHorizon,
                format!(
                    "separation horizon: {residual} of {} ambiguous pair(s) resist symbolic \
                     discharge; the dynamic arbiter validates them and the PV2xx checker \
                     explores their interleavings",
                    deps.pairs.len()
                ),
            )
            .with_help(
                "runtime-dependent or wrapping index functions have no affine footprint; \
                 only the bounded model checker can cover them",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_ir::depend::analyze;
    use prevv_ir::parse::parse_kernel;

    fn verdicts(src: &str) -> Vec<VerdictClass> {
        let spec = parse_kernel("t", src).expect("parses");
        analyze(&spec).verdicts.iter().map(|v| v.class).collect()
    }

    #[test]
    fn order_protected_accumulator_is_discharged() {
        let v = verdicts("int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + 1; }");
        assert_eq!(v, vec![VerdictClass::Proved(Proof::Affine)]);
    }

    #[test]
    fn shifted_streams_are_discharged_before_the_prover() {
        // `a[i + 8]` vs `a[i]`: `depend::analyze` drops outright-disjoint
        // pairs from the conservative set, so there is no verdict to
        // report.
        let spec = parse_kernel(
            "t",
            "int a[16];\nfor (int i = 0; i < 8; ++i) { a[i + 8] = a[i] + 1; }",
        )
        .expect("parses");
        let deps = analyze(&spec);
        assert!(
            deps.pairs.is_empty(),
            "fully disjoint footprints never reach the prover"
        );
        assert!(deps.verdicts.is_empty());
    }

    #[test]
    fn constant_cell_must_aliases() {
        let v = verdicts("int a[4];\nfor (int i = 0; i < 8; ++i) { a[0] = a[0] + 1; }");
        assert_eq!(v, vec![VerdictClass::MustAlias]);
    }

    #[test]
    fn runtime_indices_stay_residual() {
        let spec = parse_kernel(
            "t",
            "int a[16];\nint b[8];\nfor (int i = 0; i < 8; ++i) { a[b[i]] = a[b[i]] + 5; }",
        )
        .expect("parses");
        let deps = analyze(&spec);
        let stats = SeparationStats::of(&deps);
        assert_eq!(stats.conservative, stats.discharged + stats.residual);
        assert!(stats.residual >= 1, "the data-dependent pair stays");
    }

    #[test]
    fn fig2a_discharges_three_pairs_symbolically() {
        let src = "int a[16];\nint b[8] = {2, 5, 2, 7, 2, 1, 5, 2};\n\
                   for (int i = 0; i < 8; ++i) { a[b[i]] = a[b[i]] + 5; b[i] = b[i] + 3; }";
        let spec = parse_kernel("fig2a", src).expect("parses");
        let deps = analyze(&spec);
        let stats = SeparationStats::of(&deps);
        assert_eq!(stats.conservative, 4);
        assert_eq!(stats.discharged, 3, "the three affine b pairs");
        assert_eq!(stats.residual, 1, "the data-dependent a pair");
    }

    #[test]
    fn parity_guarded_pair_is_value_discharged_not_residual() {
        // Both accesses follow the same affine index `i`, so dependence
        // analysis says must-alias — but the guards confine the store to even
        // iterations and the load to odd ones, and the congruence domain
        // proves the footprints disjoint (PV301 with the reason, no horizon
        // note).
        let spec = parse_kernel(
            "parity",
            "int a[8];\nint s[8];\nfor (int i = 0; i < 8; ++i) {\n  \
             if (i % 2 == 0) a[i] = i;\n  if (i % 2 == 1) s[i] = a[i]; }",
        )
        .expect("parses");
        let deps = analyze(&spec);
        let mut report = Report::default();
        check_separation(&spec, &deps, &mut report);
        let proved = report.with_code(Code::ProvenDisjoint);
        assert_eq!(proved.len(), 1);
        let why = prevv_ir::depend::DischargeReason::DisjointValues.describe();
        assert!(proved[0].message.contains(why), "{}", proved[0].message);
        assert!(report.with_code(Code::MustAlias).is_empty());
        assert!(report.with_code(Code::SeparationHorizon).is_empty());
    }

    #[test]
    fn lint_emits_horizon_note_only_when_pairs_remain() {
        let spec = parse_kernel(
            "t",
            "int a[8];\nfor (int i = 0; i < 8; ++i) { a[i] = a[i] + 1; }",
        )
        .expect("parses");
        let deps = analyze(&spec);
        let mut report = Report::default();
        check_separation(&spec, &deps, &mut report);
        assert_eq!(report.with_code(Code::ProvenDisjoint).len(), 1);
        assert!(report.with_code(Code::SeparationHorizon).is_empty());

        let spec = parse_kernel(
            "t",
            "int a[4];\nfor (int i = 0; i < 8; ++i) { a[0] = a[0] + 1; }",
        )
        .expect("parses");
        let deps = analyze(&spec);
        let mut report = Report::default();
        check_separation(&spec, &deps, &mut report);
        assert_eq!(report.with_code(Code::MustAlias).len(), 1);
        assert_eq!(report.with_code(Code::SeparationHorizon).len(), 1);
    }
}
