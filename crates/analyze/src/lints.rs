//! The individual analyses (PV001–PV003, PV005, PV006). Each lint pushes into a shared
//! [`Report`]; the orchestration lives in [`crate::analyze`].
//!
//! Concrete values come from the IR's one kernel semantics: affine indices
//! and guards through [`Expr::eval_affine`](prevv_ir::Expr::eval_affine) and
//! [`Stmt::runs`](prevv_ir::Stmt::runs), and PV005's dead-store replay
//! through [`golden::replay`] — the interpreter the simulator's results are
//! checked against.

use std::collections::HashMap;

use prevv_core::reduce::reduce;
use prevv_core::sizing::{expr_latency, recommend_depth, PairTiming};
use prevv_dataflow::Value;
use prevv_ir::depend::{Dependences, StaticMemOp, ENUM_LIMIT};
use prevv_ir::symdep::{rect_bounds, AffineForm};
use prevv_ir::{golden, KernelSpec, MemOpKind, Span};

use crate::diag::{Code, Diagnostic, Report};
use crate::AnalyzeOptions;

/// Source span of each static op, aligned with `ops` (the `k`-th op of a
/// statement maps to [`prevv_ir::Stmt::op_span`] with that ordinal).
pub(crate) fn op_spans(spec: &KernelSpec, ops: &[StaticMemOp]) -> Vec<Option<Span>> {
    let mut next = vec![0usize; spec.body.len()];
    ops.iter()
        .map(|op| {
            let k = next[op.stmt];
            next[op.stmt] += 1;
            spec.body[op.stmt].op_span(k)
        })
        .collect()
}

fn array_name(spec: &KernelSpec, id: prevv_ir::ArrayId) -> &str {
    &spec.arrays[id.0].name
}

/// PV001 — out-of-bounds affine access. Below [`ENUM_LIMIT`] iterations,
/// enumerates every affine index over the (guard-filtered) iteration space
/// and compares against the declared array length. Above it, the symbolic
/// fast path bounds each unguarded affine index over the rectangular domain
/// via [`AffineForm::range`] — exact, since an affine form attains its
/// extrema at domain corners. A hit is a hard error: the runtime wraps
/// indices modulo the length, so the circuit "works", but it silently
/// touches the wrong cell.
pub(crate) fn check_bounds(spec: &KernelSpec, deps: &Dependences, report: &mut Report) {
    if spec.iteration_count() > ENUM_LIMIT {
        check_bounds_symbolic(spec, deps, report);
        return;
    }
    let spans = op_spans(spec, &deps.ops);
    for op in &deps.ops {
        if op.index.is_runtime_dependent() {
            continue;
        }
        let len = spec.arrays[op.array.0].len as Value;
        let hit = spec
            .iterations()
            .filter(|row| spec.body[op.stmt].runs(row))
            .find_map(|row| {
                let raw = op.index.eval_affine(&row);
                (raw < 0 || raw >= len).then_some((raw, row))
            });
        if let Some((raw, row)) = hit {
            let kind = op.kind;
            let name = array_name(spec, op.array);
            report.push(
                Diagnostic::error(
                    Code::OutOfBounds,
                    format!(
                        "{kind} index {raw} is out of bounds for `{name}` of length {len} \
                         (first at iteration {row:?})"
                    ),
                )
                .with_span(spans[op.id])
                .with_help(format!(
                    "the runtime wraps indices modulo the array length, silently aliasing \
                     `{name}[{}]`; fix the index or enlarge the array",
                    raw.rem_euclid(len)
                )),
            );
        }
    }
}

/// Symbolic arm of PV001 for iteration spaces too large to enumerate.
/// Guarded ops are skipped (the reachable index range depends on the guard,
/// which only enumeration can filter), as are triangular nests — both stay
/// conservatively silent rather than risk a false positive.
fn check_bounds_symbolic(spec: &KernelSpec, deps: &Dependences, report: &mut Report) {
    let Some(bounds) = rect_bounds(&spec.levels) else {
        return;
    };
    let spans = op_spans(spec, &deps.ops);
    for op in &deps.ops {
        if op.index.is_runtime_dependent() || spec.body[op.stmt].guard.is_some() {
            continue;
        }
        let Some(form) = AffineForm::from_expr(&op.index, spec.levels.len()) else {
            continue;
        };
        let len = spec.arrays[op.array.0].len as Value;
        let (lo, hi) = form.range(&bounds);
        if lo < 0 || hi >= len {
            let raw = if lo < 0 { lo } else { hi };
            let kind = op.kind;
            let name = array_name(spec, op.array);
            report.push(
                Diagnostic::error(
                    Code::OutOfBounds,
                    format!(
                        "{kind} index ranges over [{lo}, {hi}], out of bounds for `{name}` \
                         of length {len} (reaches {raw})"
                    ),
                )
                .with_span(spans[op.id])
                .with_help(format!(
                    "the runtime wraps indices modulo the array length, silently aliasing \
                     `{name}[{}]`; fix the index or enlarge the array",
                    raw.rem_euclid(len)
                )),
            );
        }
    }
}

/// PV002 — deadlock risk of guarded ambiguous ops (paper §V-C). A guarded
/// op in an ambiguous pair must send a fake token when its guard fails, or
/// the completion frontier never passes that iteration and the premature
/// queue wedges. With fake tokens enabled this is informational; with them
/// disabled it is an error (the exact deadlock the paper describes).
pub(crate) fn check_deadlock(
    spec: &KernelSpec,
    deps: &Dependences,
    opts: &AnalyzeOptions,
    report: &mut Report,
) {
    let ambiguous = deps.ambiguous_ops();
    let mut flagged_stmts = Vec::new();
    for op in &deps.ops {
        if op.guarded && ambiguous.contains(&op.id) && !flagged_stmts.contains(&op.stmt) {
            flagged_stmts.push(op.stmt);
        }
    }
    for si in flagged_stmts {
        let span = spec.body[si].span();
        let name = array_name(spec, spec.body[si].array);
        if opts.fake_tokens {
            report.push(
                Diagnostic::note(
                    Code::DeadlockRisk,
                    format!(
                        "guarded statement updates `{name}` through an ambiguous pair; \
                         untaken guards must send fake tokens so the premature queue drains \
                         (paper \u{a7}V-C) — synthesis emits them"
                    ),
                )
                .with_span(span),
            );
        } else {
            report.push(
                Diagnostic::error(
                    Code::DeadlockRisk,
                    format!(
                        "guarded statement updates `{name}` through an ambiguous pair with \
                         fake tokens disabled: the first untaken guard wedges the premature \
                         queue (paper \u{a7}V-C deadlock)"
                    ),
                )
                .with_span(span)
                .with_help("re-enable fake tokens (`SynthOptions::fake_tokens`)"),
            );
        }
    }
}

/// PV003 — premature-queue depth. A depth below the per-iteration op count
/// can never advance the completion frontier (the controller refuses it at
/// construction); a depth below the matched-pair recommendation of
/// [`prevv_core::sizing`] merely stalls. The recommendation covers every
/// pair dependence analysis leaves validated.
pub(crate) fn check_depth(
    spec: &KernelSpec,
    deps: &Dependences,
    opts: &AnalyzeOptions,
    report: &mut Report,
) {
    let needed = spec.mem_ops_per_iter();
    if opts.depth < needed {
        report.push(
            Diagnostic::error(
                Code::QueueDepth,
                format!(
                    "premature queue depth {} cannot hold one iteration's {needed} memory \
                     ops; the completion frontier would never advance",
                    opts.depth
                ),
            )
            .with_help(format!("configure depth_q >= {needed}")),
        );
        return;
    }
    // First-order matched-pair model (paper §V-A): t_org from the statement
    // datapath, t_token from the whole iteration body, squash probability
    // from the conflict-distance profile.
    let read_latency = prevv_mem::MemTiming::default().read_latency;
    let t_token: f64 = spec
        .body
        .iter()
        .map(|s| expr_latency(&s.index, read_latency) + expr_latency(&s.value, read_latency) + 1.0)
        .sum();
    let timings: Vec<PairTiming> = deps
        .validated()
        .map(|(pair, v)| {
            let stmt = &spec.body[deps.ops[pair.store].stmt];
            let t_org = expr_latency(&stmt.index, read_latency)
                + expr_latency(&stmt.value, read_latency)
                + 1.0;
            let squash_probability = match v.min_distance {
                Some(d) => 1.0 / (d as f64 + 1.0),
                None => 0.25, // runtime-dependent: collisions are data-dependent
            };
            PairTiming {
                t_org,
                squash_probability,
                t_token,
            }
        })
        .collect();
    if timings.is_empty() {
        return;
    }
    let recommended = recommend_depth(&timings).max(needed);
    if opts.depth < recommended {
        report.push(
            Diagnostic::warning(
                Code::QueueDepth,
                format!(
                    "premature queue depth {} is below the matched-pair recommendation \
                     {recommended} (paper \u{a7}V-A); expect live-out tokens to stall",
                    opts.depth
                ),
            )
            .with_help(format!("configure depth_q = {recommended}")),
        );
    }
}

/// PV005 — dead stores and unused arrays. Unused arrays are purely
/// declarative. Dead stores are found by running the golden interpreter
/// ([`golden::replay`]) over the iteration space and following the accesses
/// of the arrays whose every index is affine (guards evaluated, so this is
/// precise); arrays with any runtime-dependent access are skipped
/// conservatively.
/// A store is dead when none of its dynamic instances is read afterwards
/// nor survives to the final array contents (the kernel's output). The
/// replay is skipped (only the unused-array check runs) above
/// [`ENUM_LIMIT`] iterations — liveness is inherently path-sensitive and
/// has no symbolic shortcut.
pub(crate) fn check_dead_stores(spec: &KernelSpec, deps: &Dependences, report: &mut Report) {
    let spans = op_spans(spec, &deps.ops);

    for (ai, decl) in spec.arrays.iter().enumerate() {
        if !deps.ops.iter().any(|op| op.array.0 == ai) {
            report.push(Diagnostic::warning(
                Code::DeadStore,
                format!("array `{}` is declared but never accessed", decl.name),
            ));
        }
    }

    if spec.iteration_count() > ENUM_LIMIT {
        return;
    }

    // Arrays whose every access is affine can be replayed exactly.
    let mut exact = vec![true; spec.arrays.len()];
    for op in &deps.ops {
        if op.index.is_runtime_dependent() {
            exact[op.array.0] = false;
        }
    }

    // `pending[array][addr]` = op id of the last store there, not yet read.
    // An event's `seq` is its op id (the canonical order of `golden::replay`
    // and `depend::enumerate_ops` agree).
    let mut pending: Vec<HashMap<usize, usize>> = vec![HashMap::new(); spec.arrays.len()];
    let mut observed = vec![false; deps.ops.len()];
    let mut executed = vec![false; deps.ops.len()];
    golden::replay(spec, spec.iteration_count(), |ev| {
        if !exact[ev.array.0] {
            return;
        }
        let op = ev.seq as usize;
        executed[op] = true;
        match ev.kind {
            MemOpKind::Load => {
                if let Some(sid) = pending[ev.array.0].remove(&ev.index) {
                    observed[sid] = true;
                }
            }
            MemOpKind::Store => {
                pending[ev.array.0].insert(ev.index, op);
            }
        }
    });
    // Values still in place at the end are the kernel's output.
    for per_array in pending {
        for (_, sid) in per_array {
            observed[sid] = true;
        }
    }

    for op in &deps.ops {
        if op.kind != MemOpKind::Store || !exact[op.array.0] {
            continue;
        }
        let name = array_name(spec, op.array);
        if !executed[op.id] {
            let why = if spec.iteration_count() == 0 {
                "the iteration space is empty"
            } else {
                "its guard is always false"
            };
            report.push(
                Diagnostic::warning(
                    Code::DeadStore,
                    format!("store to `{name}` never executes: {why}"),
                )
                .with_span(spans[op.id].or(spec.body[op.stmt].span())),
            );
        } else if !observed[op.id] {
            report.push(
                Diagnostic::warning(
                    Code::DeadStore,
                    format!(
                        "store to `{name}` is dead: every value it writes is overwritten \
                         before being read or emitted"
                    ),
                )
                .with_span(spans[op.id].or(spec.body[op.stmt].span())),
            );
        }
    }
}

/// PV006 — pair-reduction opportunity (paper §V-B, Eq. 11–12). Counts,
/// through [`reduce`], the validation searches that collapsing runs of
/// consecutive same-kind ops among the validated pairs
/// ([`Dependences::validated`]) would eliminate; emitted only when
/// `pair_reduction` is disabled (when enabled, synthesis already applies
/// it).
pub(crate) fn check_pair_reduction(
    spec: &KernelSpec,
    deps: &Dependences,
    opts: &AnalyzeOptions,
    report: &mut Report,
) {
    if opts.pair_reduction {
        return;
    }
    let validated = deps.validated().flat_map(|(p, _)| [p.load, p.store]);
    let reduction = reduce(&deps.ops, validated.collect(), true);
    let eliminable = reduction.eliminated();
    if eliminable > 0 {
        let total = reduction.ambiguous.len();
        report.push(
            Diagnostic::note(
                Code::PairReduction,
                format!(
                    "pair reduction (paper \u{a7}V-B) would eliminate {eliminable} of \
                     {total} validation searches on `{}`, but `pair_reduction` is disabled",
                    spec.name
                ),
            )
            .with_help("enable `PrevvConfig::pair_reduction` to shrink the arbiter"),
        );
    }
}
