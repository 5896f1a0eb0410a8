//! Seeded adversarial kernel generator with shrinking.
//!
//! Turns the paper's five hand-written kernels into an unbounded scenario
//! family (ROADMAP item 4): every [`generate`] call derives a valid
//! [`KernelSpec`] — guards, indirect and opaque-hashed addressing,
//! triangular bounds, multi-level nests, `depth_q` directives — entirely
//! from a `u64` seed, so any failure reproduces from two numbers.
//!
//! Design constraints baked into the generator:
//!
//! - **Parser-closed.** Only operators the `.pvk` parser understands are
//!   emitted (`+ - * / % min max == != < <= > >=` and opaque hashes), so
//!   `pretty::render` → `parse` round-trips by construction. Array names
//!   avoid the loop-variable names and the `h<seed>_<modulus>` opaque
//!   spelling.
//! - **Lint-clean addressing by default.** Affine indices are interval
//!   checked against the array length; indirect sources are initialised
//!   with values inside every array, and opaque moduli equal the target
//!   array length. PV001/PV500 errors therefore indicate a generator or
//!   analyzer bug, which is exactly what the differential oracle asserts.
//! - **Division is total.** `BinOp::Div`/`Rem` by zero yield 0 in both the
//!   golden interpreter and the ALUs, so value expressions may divide.
//!
//! [`shrink`] produces one-step-smaller candidate specs; [`shrink_to_fixpoint`]
//! drives it greedily against a caller-supplied failure predicate, which is
//! how `runkernel --fuzz` turns a 3-level nest into a pinnable fixture.

use prevv_dataflow::components::{Bound, LoopLevel};
use prevv_dataflow::Value;
use prevv_ir::{ArrayDecl, ArrayId, Expr, KernelSpec, OpaqueFn, Span, Stmt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape limits for [`generate`].
///
/// The defaults keep kernels small enough that the model checker and both
/// schedulers finish in milliseconds while still covering every structural
/// feature the synthesizer supports.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum loop-nest depth (1..=this).
    pub max_levels: usize,
    /// Maximum statements per body (1..=this).
    pub max_stmts: usize,
    /// Maximum declared arrays (2..=this).
    pub max_arrays: usize,
    /// Maximum per-level trip extent.
    pub max_extent: Value,
    /// Hard cap on the total iteration count; levels are re-rolled until
    /// the product lands in `1..=this`.
    pub max_iterations: usize,
    /// Allow `if (...)` guards on statements.
    pub allow_guards: bool,
    /// Force every statement to carry a guard (used by the wedged-kernel
    /// tests, which starve guards of fake tokens).
    pub require_guard: bool,
    /// Allow data-dependent `a[b[i]]` addressing.
    pub allow_indirect: bool,
    /// Allow opaque-hash `a[h_s_m(i)]` addressing.
    pub allow_opaque: bool,
    /// Allow triangular (`for j = i..n`) inner bounds.
    pub allow_triangular: bool,
    /// Allow an embedded `depth_q = N;` directive.
    pub allow_depth_hint: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_levels: 3,
            max_stmts: 3,
            max_arrays: 3,
            max_extent: 6,
            max_iterations: 512,
            allow_guards: true,
            require_guard: false,
            allow_indirect: true,
            allow_opaque: true,
            allow_triangular: true,
            allow_depth_hint: true,
        }
    }
}

impl GenConfig {
    /// Profile for the pinned regression corpus: small iteration spaces so
    /// a debug-build replay of 32 kernels x 4 controllers x 2 schedulers
    /// stays fast.
    pub fn corpus() -> Self {
        GenConfig {
            max_iterations: 128,
            ..GenConfig::default()
        }
    }

    /// Profile for throughput benchmarking: bigger, irregular iteration
    /// spaces so the levelized scheduler's dirty sweep is actually
    /// exercised, without guards (which would add squash noise to timing).
    pub fn bench() -> Self {
        GenConfig {
            max_levels: 2,
            max_extent: 24,
            max_iterations: 4096,
            allow_depth_hint: false,
            ..GenConfig::default()
        }
    }
}

/// Conservative `[min, max]` interval for an affine expression.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lo: Value,
    hi: Value,
}

/// Per-generation context: declared arrays plus per-level bounds.
struct Ctx {
    arrays: Vec<ArrayDecl>,
    /// Inclusive value range of each induction variable.
    var_ranges: Vec<Interval>,
}

/// Generates one valid kernel from a seed. Always succeeds: shapes that
/// fail [`KernelSpec::new`] validation are re-rolled internally.
pub fn generate(seed: u64, config: &GenConfig) -> KernelSpec {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed);
    // A fresh sub-seed per attempt keeps retries from replaying the same
    // rejected shape forever.
    loop {
        if let Some(spec) = try_generate(&mut rng, config, seed) {
            return spec;
        }
    }
}

fn try_generate(rng: &mut StdRng, config: &GenConfig, seed: u64) -> Option<KernelSpec> {
    let levels = gen_levels(rng, config)?;
    let var_ranges = level_ranges(&levels);

    // Array lengths first, then inits bounded by the *minimum* length so
    // any array can serve as an in-range indirect index source.
    let n_arrays = rng.gen_range(2..=config.max_arrays.max(2));
    let mut arrays = Vec::with_capacity(n_arrays);
    let names = ["a", "b", "c", "d"];
    let lens: Vec<usize> = (0..n_arrays).map(|_| rng.gen_range(8..=16usize)).collect();
    let min_len = *lens.iter().min().expect("non-empty") as Value;
    for (i, len) in lens.iter().enumerate() {
        if rng.gen_range(0u32..3) == 0 {
            arrays.push(ArrayDecl::zeroed(names[i], *len));
        } else {
            let vals = (0..*len).map(|_| rng.gen_range(0..min_len)).collect();
            arrays.push(ArrayDecl::with_values(names[i], vals));
        }
    }

    let ctx = Ctx { arrays, var_ranges };

    let n_stmts = rng.gen_range(1..=config.max_stmts.max(1));
    let mut body = Vec::with_capacity(n_stmts);
    for _ in 0..n_stmts {
        body.push(gen_stmt(rng, config, &ctx));
    }

    let spec = KernelSpec::new(format!("fuzz_{seed:#x}"), levels, ctx.arrays, body).ok()?;
    if config.allow_depth_hint && rng.gen_range(0u32..4) == 0 {
        // depth_q must cover one iteration's worth of memory ops or the
        // PreVV backend refuses the kernel outright.
        let floor = spec.mem_ops_per_iter();
        let depth = if rng.gen_range(0u32..2) == 0 { 16 } else { 32 };
        if depth >= floor {
            return Some(spec.with_depth_hint(depth, Span::point(0)));
        }
    }
    Some(spec)
}

/// Rolls a loop nest whose total trip count is in `1..=max_iterations`.
fn gen_levels(rng: &mut StdRng, config: &GenConfig) -> Option<Vec<LoopLevel>> {
    for _ in 0..32 {
        let n = rng.gen_range(1..=config.max_levels.max(1));
        let mut levels = Vec::with_capacity(n);
        for lvl in 0..n {
            let hi = rng.gen_range(2..=config.max_extent.max(2));
            let lo = if lvl > 0 && config.allow_triangular && rng.gen_range(0u32..4) == 0 {
                // Triangular: start at an outer variable (optionally +1).
                Bound::OuterPlus(rng.gen_range(0..lvl), rng.gen_range(0..=1))
            } else {
                Bound::Const(0)
            };
            levels.push(LoopLevel::new(lo, Bound::Const(hi)));
        }
        let count = prevv_dataflow::components::count_iterations(&levels);
        if count.is_some_and(|c| (1..=config.max_iterations).contains(&c)) {
            return Some(levels);
        }
    }
    None
}

/// Inclusive value range of each induction variable, assuming every level
/// runs at least once (guaranteed by the `count >= 1` check above).
fn level_ranges(levels: &[LoopLevel]) -> Vec<Interval> {
    let mut ranges: Vec<Interval> = Vec::with_capacity(levels.len());
    for level in levels {
        let lo = match level.lo {
            Bound::Const(c) => c,
            Bound::OuterPlus(outer, off) => ranges[outer].lo + off,
        };
        let hi = match level.hi {
            Bound::Const(c) => c - 1,
            Bound::OuterPlus(outer, off) => ranges[outer].hi + off - 1,
        };
        ranges.push(Interval { lo, hi: hi.max(lo) });
    }
    ranges
}

fn gen_stmt(rng: &mut StdRng, config: &GenConfig, ctx: &Ctx) -> Stmt {
    let target = ArrayId(rng.gen_range(0..ctx.arrays.len()));
    let index = gen_index(rng, config, ctx, target);
    let value = gen_value(rng, ctx, 2);
    let guarded = config.require_guard || (config.allow_guards && rng.gen_range(0u32..3) == 0);
    if guarded {
        Stmt::guarded(target, index, value, gen_guard(rng, ctx))
    } else {
        Stmt::store(target, index, value)
    }
}

/// An address expression for `target` that the lints cannot prove
/// out-of-bounds: affine-in-interval, indirect through an in-range source
/// array, or opaque-hashed with modulus = target length.
fn gen_index(rng: &mut StdRng, config: &GenConfig, ctx: &Ctx, target: ArrayId) -> Expr {
    let len = ctx.arrays[target.0].len as Value;
    let mut choices = vec![0u32];
    if config.allow_indirect {
        choices.push(1);
    }
    if config.allow_opaque {
        choices.push(2);
    }
    match choices[rng.gen_range(0..choices.len())] {
        0 => gen_affine_in_range(rng, ctx, len),
        1 => {
            // a[min(max(src[affine], 0), len-1)] — src starts with in-range
            // values but earlier stores may overwrite it with anything, so
            // the load is clamped. Still runtime-dependent: no affine lint
            // can prove the address, which is what stresses the arbiter.
            use prevv_dataflow::components::BinOp;
            let src = ArrayId(rng.gen_range(0..ctx.arrays.len()));
            let src_len = ctx.arrays[src.0].len as Value;
            let raw = Expr::load(src, gen_affine_in_range(rng, ctx, src_len));
            Expr::bin(
                BinOp::Min,
                Expr::bin(BinOp::Max, raw, Expr::lit(0)),
                Expr::lit(len - 1),
            )
        }
        _ => {
            let inner_len = ctx.arrays[rng.gen_range(0..ctx.arrays.len())].len as Value;
            let inner = gen_affine_in_range(rng, ctx, inner_len);
            inner.opaque(OpaqueFn::new(rng.gen_range(0..256u64), len))
        }
    }
}

/// An affine expression over induction variables with interval `[0, len)`.
fn gen_affine_in_range(rng: &mut StdRng, ctx: &Ctx, len: Value) -> Expr {
    for _ in 0..16 {
        let (e, iv) = gen_affine(rng, ctx, 2);
        if iv.lo >= 0 && iv.hi < len {
            return e;
        }
    }
    // Fallback: a plain constant is always in range.
    Expr::lit(rng.gen_range(0..len))
}

/// A random affine expression plus its interval.
fn gen_affine(rng: &mut StdRng, ctx: &Ctx, depth: usize) -> (Expr, Interval) {
    if depth == 0 || rng.gen_range(0u32..2) == 0 {
        return match rng.gen_range(0u32..2) {
            0 => {
                let v = rng.gen_range(0..ctx.var_ranges.len());
                (Expr::var(v), ctx.var_ranges[v])
            }
            _ => {
                let c = rng.gen_range(0..8);
                (Expr::lit(c), Interval { lo: c, hi: c })
            }
        };
    }
    let (l, li) = gen_affine(rng, ctx, depth - 1);
    match rng.gen_range(0u32..3) {
        0 => {
            let (r, ri) = gen_affine(rng, ctx, depth - 1);
            (
                l.add(r),
                Interval {
                    lo: li.lo + ri.lo,
                    hi: li.hi + ri.hi,
                },
            )
        }
        1 => {
            let c = rng.gen_range(0..4);
            (
                l.sub(Expr::lit(c)),
                Interval {
                    lo: li.lo - c,
                    hi: li.hi - c,
                },
            )
        }
        _ => {
            let c = rng.gen_range(1..4);
            (
                l.mul(Expr::lit(c)),
                Interval {
                    lo: li.lo * c,
                    hi: li.hi * c,
                },
            )
        }
    }
}

/// A value expression: constants, induction variables, up to a couple of
/// loads, combined with total arithmetic (`Div`/`Rem` by zero yield 0).
fn gen_value(rng: &mut StdRng, ctx: &Ctx, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0u32..3) == 0 {
        return match rng.gen_range(0u32..3) {
            0 => Expr::lit(rng.gen_range(-4..=8)),
            1 => Expr::var(rng.gen_range(0..ctx.var_ranges.len())),
            _ => {
                let a = ArrayId(rng.gen_range(0..ctx.arrays.len()));
                let len = ctx.arrays[a.0].len as Value;
                Expr::load(a, gen_affine_in_range(rng, ctx, len))
            }
        };
    }
    use prevv_dataflow::components::BinOp;
    let l = gen_value(rng, ctx, depth - 1);
    let r = gen_value(rng, ctx, depth - 1);
    let op = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
    ][rng.gen_range(0..7usize)];
    Expr::bin(op, l, r)
}

/// A compile-time-affine guard (`KernelSpec::new` rejects runtime-dependent
/// guards as `NonAffineGuard`).
fn gen_guard(rng: &mut StdRng, ctx: &Ctx) -> Expr {
    use prevv_dataflow::components::BinOp;
    let v = Expr::var(rng.gen_range(0..ctx.var_ranges.len()));
    match rng.gen_range(0u32..3) {
        0 => {
            // (v % c) == k — the classic sparse-store guard from fig2b.
            let c = rng.gen_range(2..4);
            let k = rng.gen_range(0..c);
            Expr::bin(
                BinOp::Eq,
                Expr::bin(BinOp::Rem, v, Expr::lit(c)),
                Expr::lit(k),
            )
        }
        1 => {
            let cmp =
                [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Ne][rng.gen_range(0..5usize)];
            Expr::bin(cmp, v, Expr::lit(rng.gen_range(0..6)))
        }
        _ => {
            let w = Expr::var(rng.gen_range(0..ctx.var_ranges.len()));
            Expr::bin(BinOp::Ne, v, w)
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// One-step-smaller candidates for `spec`, each still a valid kernel.
///
/// Ordered roughly by how much they remove: whole statements and loop
/// levels first, then guards, extents, arrays, sub-expressions, and the
/// depth hint last.
pub fn shrink(spec: &KernelSpec) -> Vec<KernelSpec> {
    let mut out = Vec::new();
    let mut push = |candidate: Result<KernelSpec, prevv_ir::KernelError>| {
        if let Ok(k) = candidate {
            out.push(k);
        }
    };

    // Drop one statement (if more than one remains).
    if spec.body.len() > 1 {
        for i in 0..spec.body.len() {
            let mut body = spec.body.clone();
            body.remove(i);
            push(rebuild(
                spec,
                spec.levels.clone(),
                spec.arrays.clone(),
                body,
            ));
        }
    }

    // Drop the innermost loop level, substituting its variable's lower
    // bound for every use so addressing stays in range.
    if spec.levels.len() > 1 {
        let inner = spec.levels.len() - 1;
        let lo = match spec.levels[inner].lo {
            Bound::Const(c) => c,
            // Triangular inner bound: outer's smallest value plus offset.
            Bound::OuterPlus(_, off) => off,
        };
        let levels = spec.levels[..inner].to_vec();
        let body = spec
            .body
            .iter()
            .map(|s| map_stmt(s, &|e| subst_var(e, inner, lo)))
            .collect();
        push(rebuild(spec, levels, spec.arrays.clone(), body));
    }

    // Halve each level's constant extent.
    for (i, level) in spec.levels.iter().enumerate() {
        if let Bound::Const(hi) = level.hi {
            if hi > 2 {
                let mut levels = spec.levels.clone();
                levels[i] = LoopLevel::new(level.lo, Bound::Const(hi / 2 + 1));
                push(rebuild(
                    spec,
                    levels,
                    spec.arrays.clone(),
                    spec.body.clone(),
                ));
            }
        }
    }

    // Replace a triangular lower bound with 0.
    for (i, level) in spec.levels.iter().enumerate() {
        if matches!(level.lo, Bound::OuterPlus(..)) {
            let mut levels = spec.levels.clone();
            levels[i] = LoopLevel::new(Bound::Const(0), level.hi);
            push(rebuild(
                spec,
                levels,
                spec.arrays.clone(),
                spec.body.clone(),
            ));
        }
    }

    // Drop one guard.
    for (i, stmt) in spec.body.iter().enumerate() {
        if stmt.guard.is_some() {
            let mut body = spec.body.clone();
            body[i] = Stmt::store(stmt.array, stmt.index.clone(), stmt.value.clone());
            push(rebuild(
                spec,
                spec.levels.clone(),
                spec.arrays.clone(),
                body,
            ));
        }
    }

    // Zero an array's initial values (keeps lengths, so addressing through
    // it becomes all-zeros but stays in range).
    for (i, a) in spec.arrays.iter().enumerate() {
        if !matches!(a.init, prevv_ir::ArrayInit::Zero) {
            let mut arrays = spec.arrays.clone();
            arrays[i] = ArrayDecl::zeroed(a.name.clone(), a.len);
            push(rebuild(
                spec,
                spec.levels.clone(),
                arrays,
                spec.body.clone(),
            ));
        }
    }

    // One-step expression simplifications, one site at a time.
    for (i, stmt) in spec.body.iter().enumerate() {
        for (slot, e) in [(0usize, &stmt.index), (1, &stmt.value)] {
            for simpler in shrink_expr(e) {
                let mut body = spec.body.clone();
                body[i] = match slot {
                    0 => replace_index(stmt, simpler),
                    _ => replace_value(stmt, simpler),
                };
                push(rebuild(
                    spec,
                    spec.levels.clone(),
                    spec.arrays.clone(),
                    body,
                ));
            }
        }
        if let Some(g) = &stmt.guard {
            for simpler in shrink_expr(g) {
                let mut body = spec.body.clone();
                body[i] =
                    Stmt::guarded(stmt.array, stmt.index.clone(), stmt.value.clone(), simpler);
                push(rebuild(
                    spec,
                    spec.levels.clone(),
                    spec.arrays.clone(),
                    body,
                ));
            }
        }
    }

    // Drop the depth hint.
    if spec.depth_hint().is_some() {
        push(rebuild(
            spec,
            spec.levels.clone(),
            spec.arrays.clone(),
            spec.body.clone(),
        ));
    }

    out
}

/// Greedily shrinks `spec` while `still_fails` holds, up to `budget`
/// predicate evaluations. Returns the smallest failing spec found.
pub fn shrink_to_fixpoint<F>(spec: &KernelSpec, mut budget: usize, mut still_fails: F) -> KernelSpec
where
    F: FnMut(&KernelSpec) -> bool,
{
    let mut current = spec.clone();
    'outer: loop {
        for candidate in shrink(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current
}

/// Rebuilds a spec preserving name; drops the depth hint unless the caller
/// re-adds it (shrinking treats the hint as removable).
fn rebuild(
    orig: &KernelSpec,
    levels: Vec<LoopLevel>,
    arrays: Vec<ArrayDecl>,
    body: Vec<Stmt>,
) -> Result<KernelSpec, prevv_ir::KernelError> {
    KernelSpec::new(orig.name.clone(), levels, arrays, body)
}

fn replace_index(stmt: &Stmt, index: Expr) -> Stmt {
    match &stmt.guard {
        Some(g) => Stmt::guarded(stmt.array, index, stmt.value.clone(), g.clone()),
        None => Stmt::store(stmt.array, index, stmt.value.clone()),
    }
}

fn replace_value(stmt: &Stmt, value: Expr) -> Stmt {
    match &stmt.guard {
        Some(g) => Stmt::guarded(stmt.array, stmt.index.clone(), value, g.clone()),
        None => Stmt::store(stmt.array, stmt.index.clone(), value),
    }
}

fn map_stmt(stmt: &Stmt, f: &dyn Fn(&Expr) -> Expr) -> Stmt {
    match &stmt.guard {
        Some(g) => Stmt::guarded(stmt.array, f(&stmt.index), f(&stmt.value), f(g)),
        None => Stmt::store(stmt.array, f(&stmt.index), f(&stmt.value)),
    }
}

/// Substitutes `IndVar(level)` with `Const(value)` throughout.
fn subst_var(e: &Expr, level: usize, value: Value) -> Expr {
    match e {
        Expr::IndVar(l) if *l == level => Expr::lit(value),
        Expr::Const(_) | Expr::IndVar(_) => e.clone(),
        Expr::Load(a, idx) => Expr::load(*a, subst_var(idx, level, value)),
        Expr::Binary(op, l, r) => {
            Expr::bin(*op, subst_var(l, level, value), subst_var(r, level, value))
        }
        Expr::Opaque(f, x) => subst_var(x, level, value).opaque(*f),
    }
}

/// One-step structural simplifications of an expression.
fn shrink_expr(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Const(v) if *v != 0 => vec![Expr::lit(0)],
        Expr::Const(_) => vec![],
        Expr::IndVar(_) => vec![Expr::lit(0)],
        Expr::Load(_, idx) => vec![(**idx).clone(), Expr::lit(0)],
        Expr::Binary(_, l, r) => vec![(**l).clone(), (**r).clone()],
        Expr::Opaque(_, x) => vec![(**x).clone()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..16u64 {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg), "seed {seed}");
        }
    }

    #[test]
    fn generated_kernels_are_valid_and_bounded() {
        let cfg = GenConfig::default();
        for seed in 0..64u64 {
            let k = generate(seed, &cfg);
            k.validate().expect("generator emits valid kernels");
            let count = k.iteration_count();
            assert!(
                (1..=cfg.max_iterations).contains(&count),
                "seed {seed}: {count} iterations"
            );
        }
    }

    #[test]
    fn generator_covers_structural_features() {
        let cfg = GenConfig::default();
        let (mut guards, mut indirect, mut opaque, mut multi, mut tri, mut hint) =
            (false, false, false, false, false, false);
        for seed in 0..256u64 {
            let k = generate(seed, &cfg);
            guards |= k.body.iter().any(|s| s.guard.is_some());
            indirect |= k.body.iter().any(|s| !s.index.loads().is_empty());
            opaque |= k.body.iter().any(|s| matches!(&s.index, Expr::Opaque(..)));
            multi |= k.levels.len() > 1;
            tri |= k
                .levels
                .iter()
                .any(|l| matches!(l.lo, Bound::OuterPlus(..)));
            hint |= k.depth_hint().is_some();
        }
        assert!(
            guards && indirect && opaque && multi && tri && hint,
            "feature coverage: guards={guards} indirect={indirect} opaque={opaque} \
             multi={multi} tri={tri} hint={hint}"
        );
    }

    #[test]
    fn generated_addresses_stay_in_bounds() {
        // The interval tracking plus in-range inits must keep every runtime
        // address, load or store, inside its array without relying on the
        // Euclidean wrap.
        let cfg = GenConfig::default();
        for seed in 0..64u64 {
            let k = generate(seed, &cfg);
            let checked = |a: ArrayId, raw: Value| {
                let len = k.arrays[a.0].len as Value;
                assert!(
                    (0..len).contains(&raw),
                    "seed {seed}: raw address {raw} outside [0, {len})"
                );
                raw as usize
            };
            let mut ram: Vec<Vec<Value>> = k.arrays.iter().map(|a| a.initial()).collect();
            for iter in k.iterations() {
                for stmt in k.body.iter().filter(|s| s.runs(&iter)) {
                    let mut load = |a: ArrayId, raw: Value| ram[a.0][checked(a, raw)];
                    let raw = stmt.index.eval(&iter, &mut load);
                    let v = stmt.value.eval(&iter, &mut load);
                    ram[stmt.array.0][checked(stmt.array, raw)] = v;
                }
            }
        }
    }

    #[test]
    fn shrink_candidates_are_valid_and_smaller_or_equal() {
        let cfg = GenConfig::default();
        for seed in 0..32u64 {
            let k = generate(seed, &cfg);
            for c in shrink(&k) {
                c.validate().expect("shrunk candidates stay valid");
                // Un-triangularising a bound can grow the count somewhat,
                // but never past the configured generation ceiling.
                assert!(c.iteration_count() >= 1);
                assert!(c.iteration_count() <= cfg.max_iterations);
            }
        }
    }

    #[test]
    fn shrink_to_fixpoint_minimises_statement_count() {
        // Predicate: "has at least one store to array 0". The fixpoint must
        // be a single-statement, single-level kernel.
        let cfg = GenConfig::default();
        let seed = (0..256u64)
            .find(|s| {
                let k = generate(*s, &cfg);
                k.body.len() > 1
                    && k.levels.len() > 1
                    && k.body.iter().any(|st| st.array == ArrayId(0))
            })
            .expect("some seed yields a multi-stmt nest storing to array 0");
        let k = generate(seed, &cfg);
        let small =
            shrink_to_fixpoint(&k, 10_000, |c| c.body.iter().any(|s| s.array == ArrayId(0)));
        assert!(small.body.iter().any(|s| s.array == ArrayId(0)));
        assert_eq!(
            small.body.len(),
            1,
            "fixpoint should drop unrelated statements"
        );
        assert_eq!(small.levels.len(), 1, "fixpoint should drop inner levels");
    }

    #[test]
    fn generated_kernels_round_trip_through_pvk_text() {
        let cfg = GenConfig::default();
        for seed in 0..64u64 {
            let k = generate(seed, &cfg);
            let src = prevv_ir::pretty::render(&k);
            let body: String = src.lines().skip(1).collect::<Vec<_>>().join("\n");
            let reparsed = prevv_ir::parse::parse_kernel(&k.name, &body)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_eq!(k, reparsed, "seed {seed} round trip\n{src}");
            assert_eq!(
                k.depth_hint().map(|(d, _)| d),
                reparsed.depth_hint().map(|(d, _)| d),
                "seed {seed} depth hint"
            );
        }
    }
}
