//! Kernel specifications: a loop nest plus a straight-line body of guarded
//! update statements — the input language of the synthesizer, standing in
//! for the C kernels the paper compiles with Dynamatic.

use prevv_dataflow::components::{count_iterations, Bound, IterSpace, LoopLevel};
use prevv_dataflow::Value;

use crate::expr::{ArrayId, Expr};
use crate::span::Span;

/// How an array's initial contents are produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayInit {
    /// All zeros.
    Zero,
    /// Explicit values (length must equal the declared length).
    Values(Vec<Value>),
}

/// One array declared by a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name (for reports).
    pub name: String,
    /// Number of words.
    pub len: usize,
    /// Initial contents.
    pub init: ArrayInit,
}

impl ArrayDecl {
    /// Declares a zero-initialized array.
    pub fn zeroed(name: impl Into<String>, len: usize) -> Self {
        ArrayDecl {
            name: name.into(),
            len,
            init: ArrayInit::Zero,
        }
    }

    /// Declares an array with explicit initial values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from `len`.
    pub fn with_values(name: impl Into<String>, values: Vec<Value>) -> Self {
        ArrayDecl {
            name: name.into(),
            len: values.len(),
            init: ArrayInit::Values(values),
        }
    }

    /// Materializes the initial contents.
    pub fn initial(&self) -> Vec<Value> {
        match &self.init {
            ArrayInit::Zero => vec![0; self.len],
            ArrayInit::Values(v) => v.clone(),
        }
    }
}

/// Source locations attached to a parsed statement; all fields are optional
/// because kernels built programmatically carry no source text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtSpans {
    /// The whole statement, guard included, up to the closing `;`.
    pub stmt: Option<Span>,
    /// The store target `a[...]`, index included.
    pub target: Option<Span>,
    /// The index expression between the target's brackets.
    pub index: Option<Span>,
    /// Spans of the load operations in canonical program order (index loads
    /// first, then value loads) — aligned with [`Expr::loads`].
    pub loads: Vec<Span>,
}

/// A guarded store statement: `if guard { array[index] = value }`.
///
/// All memory traffic in a kernel comes from these statements: the loads are
/// the `Expr::Load` nodes inside `index` and `value`, and the store is the
/// statement itself. Read-modify-write updates (`a[x] += v`) are expressed
/// by loading inside `value`.
///
/// Equality compares semantics only: two statements with the same array,
/// index, value and guard are equal even if one was parsed (and carries
/// source spans) and the other built programmatically.
#[derive(Debug, Clone, Eq)]
pub struct Stmt {
    /// Target array.
    pub array: ArrayId,
    /// Index expression (reduced modulo the array length, see
    /// [`KernelSpec::resolve_index`]).
    pub index: Expr,
    /// Value expression.
    pub value: Expr,
    /// Optional guard: the statement executes only when this evaluates
    /// nonzero. Guarded statements are what create the deadlock hazard of
    /// paper §V-C.
    pub guard: Option<Expr>,
    /// Source locations (populated by the parser, empty otherwise).
    spans: StmtSpans,
}

impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        self.array == other.array
            && self.index == other.index
            && self.value == other.value
            && self.guard == other.guard
    }
}

impl Stmt {
    /// An unguarded store.
    pub fn store(array: ArrayId, index: Expr, value: Expr) -> Self {
        Stmt {
            array,
            index,
            value,
            guard: None,
            spans: StmtSpans::default(),
        }
    }

    /// A guarded store.
    pub fn guarded(array: ArrayId, index: Expr, value: Expr, guard: Expr) -> Self {
        Stmt {
            array,
            index,
            value,
            guard: Some(guard),
            spans: StmtSpans::default(),
        }
    }

    /// Attaches source spans (builder style; used by the parser).
    pub fn with_spans(mut self, spans: StmtSpans) -> Self {
        self.spans = spans;
        self
    }

    /// Source locations recorded for this statement, if it was parsed.
    pub fn spans(&self) -> &StmtSpans {
        &self.spans
    }

    /// Span of the whole statement, when known.
    pub fn span(&self) -> Option<Span> {
        self.spans.stmt
    }

    /// Span of the store's index expression, when known.
    pub fn index_span(&self) -> Option<Span> {
        self.spans.index
    }

    /// Span of the `k`-th memory operation of this statement in canonical
    /// program order (index loads, value loads, then the store — the order
    /// of [`Stmt::mem_op_count`] and `depend::enumerate_ops`). Returns
    /// `None` when out of range or when the statement carries no spans.
    pub fn op_span(&self, k: usize) -> Option<Span> {
        if k < self.spans.loads.len() {
            Some(self.spans.loads[k])
        } else if k == self.spans.loads.len() && k + 1 == self.mem_op_count() {
            self.spans.target
        } else {
            None
        }
    }

    /// True when the statement executes for this iteration-space row: it
    /// has no guard, or its (affine) guard evaluates nonzero.
    pub fn runs(&self, row: &[Value]) -> bool {
        self.guard.as_ref().is_none_or(|g| g.eval_affine(row) != 0)
    }

    /// Memory operations of this statement in canonical program order:
    /// loads of the index expression, loads of the value expression, then
    /// the store itself. Guard-expression loads are not supported (guards
    /// must be affine), which [`KernelSpec::validate`] enforces.
    pub fn mem_op_count(&self) -> usize {
        self.index.loads().len() + self.value.loads().len() + 1
    }
}

/// A complete kernel: loop nest, arrays, and body.
///
/// Equality compares semantics only (name, levels, arrays, body); the
/// optional `depth_q` directive recorded by the parser is configuration
/// metadata, like statement spans.
#[derive(Debug, Clone, Eq)]
pub struct KernelSpec {
    /// Kernel name (reports and labels).
    pub name: String,
    /// Loop levels, outermost first. The iteration space is their product,
    /// possibly triangular via [`prevv_dataflow::components::Bound`].
    pub levels: Vec<LoopLevel>,
    /// Declared arrays, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Straight-line body executed once per innermost iteration.
    pub body: Vec<Stmt>,
    /// Premature-queue depth pinned by a `depth_q = N;` source directive,
    /// with the directive's span (populated by the parser, `None`
    /// otherwise). Overrides CLI depth options: the file records the
    /// configuration it was authored for.
    depth_hint: Option<(usize, Span)>,
}

impl PartialEq for KernelSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.levels == other.levels
            && self.arrays == other.arrays
            && self.body == other.body
    }
}

/// Problems detected by [`KernelSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A statement references an undeclared array.
    UnknownArray(ArrayId),
    /// An induction variable deeper than the loop nest is referenced.
    UnknownIndVar(usize),
    /// A guard expression touches memory or opaque functions.
    NonAffineGuard(usize),
    /// The kernel has no loop levels.
    NoLoops,
    /// The kernel body is empty.
    EmptyBody,
    /// The trip count, or a loop bound, overflows (see
    /// [`count_iterations`]).
    TripCountOverflow,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownArray(a) => write!(f, "statement references undeclared {a}"),
            KernelError::UnknownIndVar(l) => {
                write!(f, "induction variable level {l} exceeds loop nest depth")
            }
            KernelError::NonAffineGuard(s) => {
                write!(f, "guard of statement {s} must be an affine expression")
            }
            KernelError::NoLoops => write!(f, "kernel has no loop levels"),
            KernelError::EmptyBody => write!(f, "kernel body is empty"),
            KernelError::TripCountOverflow => {
                write!(f, "the loop nest's trip count (or a loop bound) overflows")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl KernelSpec {
    /// Creates a kernel and validates it.
    ///
    /// # Errors
    ///
    /// Returns the first [`KernelError`] found.
    pub fn new(
        name: impl Into<String>,
        levels: Vec<LoopLevel>,
        arrays: Vec<ArrayDecl>,
        body: Vec<Stmt>,
    ) -> Result<Self, KernelError> {
        let spec = KernelSpec {
            name: name.into(),
            levels,
            arrays,
            body,
            depth_hint: None,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Attaches a `depth_q = N;` directive (builder style; used by the
    /// parser).
    #[must_use]
    pub fn with_depth_hint(mut self, depth: usize, span: Span) -> Self {
        self.depth_hint = Some((depth, span));
        self
    }

    /// The `depth_q` pinned by a source directive, with its span, if any.
    pub fn depth_hint(&self) -> Option<(usize, Span)> {
        self.depth_hint
    }

    /// Checks referential integrity of the kernel.
    ///
    /// # Errors
    ///
    /// See [`KernelError`].
    pub fn validate(&self) -> Result<(), KernelError> {
        if self.levels.is_empty() {
            return Err(KernelError::NoLoops);
        }
        if self.body.is_empty() {
            return Err(KernelError::EmptyBody);
        }
        for (depth, level) in self.levels.iter().enumerate() {
            for bound in [level.lo, level.hi] {
                if let Bound::OuterPlus(l, _) = bound {
                    if l >= depth {
                        return Err(KernelError::UnknownIndVar(l));
                    }
                }
            }
        }
        if count_iterations(&self.levels).is_none() {
            return Err(KernelError::TripCountOverflow);
        }
        for (si, stmt) in self.body.iter().enumerate() {
            self.check_expr(&stmt.index)?;
            self.check_expr(&stmt.value)?;
            if stmt.array.0 >= self.arrays.len() {
                return Err(KernelError::UnknownArray(stmt.array));
            }
            if let Some(g) = &stmt.guard {
                self.check_expr(g)?;
                if g.is_runtime_dependent() {
                    return Err(KernelError::NonAffineGuard(si));
                }
            }
        }
        Ok(())
    }

    fn check_expr(&self, e: &Expr) -> Result<(), KernelError> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::IndVar(l) => {
                if *l >= self.levels.len() {
                    Err(KernelError::UnknownIndVar(*l))
                } else {
                    Ok(())
                }
            }
            Expr::Load(a, idx) => {
                if a.0 >= self.arrays.len() {
                    return Err(KernelError::UnknownArray(*a));
                }
                self.check_expr(idx)
            }
            Expr::Binary(_, l, r) => {
                self.check_expr(l)?;
                self.check_expr(r)
            }
            Expr::Opaque(_, x) => self.check_expr(x),
        }
    }

    /// The iteration space in program order, enumerated lazily: one row of
    /// induction-variable values per innermost iteration.
    pub fn iterations(&self) -> IterSpace {
        IterSpace::new(&self.levels)
    }

    /// Total number of innermost iterations, computed without enumerating
    /// the space ([`count_iterations`]). Saturates at `usize::MAX` for a
    /// nest that [`KernelSpec::validate`] rejects as
    /// [`KernelError::TripCountOverflow`].
    pub fn iteration_count(&self) -> usize {
        count_iterations(&self.levels).unwrap_or(usize::MAX)
    }

    /// Memory operations per iteration (loads + stores over all statements,
    /// ignoring guards).
    pub fn mem_ops_per_iter(&self) -> usize {
        self.body.iter().map(Stmt::mem_op_count).sum()
    }

    /// Reduces a raw index into the valid range of `array` (Euclidean
    /// remainder, so negative indices wrap). Opaque index functions can
    /// produce arbitrary values; both the golden interpreter and the
    /// synthesized circuit apply this same reduction so results always
    /// agree.
    pub fn resolve_index(&self, array: ArrayId, raw: Value) -> usize {
        let len = self.arrays[array.0].len as Value;
        raw.rem_euclid(len) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_dataflow::components::{Bound, LoopLevel};

    fn toy() -> KernelSpec {
        // for i in 0..4 { a[b[i]] += 1; b[i] += 2 }  (paper Fig. 2a)
        let a = ArrayId(0);
        let b = ArrayId(1);
        KernelSpec::new(
            "fig2a",
            vec![LoopLevel::upto(4)],
            vec![
                ArrayDecl::zeroed("a", 8),
                ArrayDecl::with_values("b", vec![0, 1, 2, 3]),
            ],
            vec![
                Stmt::store(
                    a,
                    Expr::load(b, Expr::var(0)),
                    Expr::load(a, Expr::load(b, Expr::var(0))).add(Expr::lit(1)),
                ),
                Stmt::store(
                    b,
                    Expr::var(0),
                    Expr::load(b, Expr::var(0)).add(Expr::lit(2)),
                ),
            ],
        )
        .expect("valid kernel")
    }

    #[test]
    fn validation_accepts_well_formed() {
        let k = toy();
        assert_eq!(k.iteration_count(), 4);
        // stmt 0: loads b[i], b[i] (in value), a[b[i]] + store = 4 ops;
        // stmt 1: load b[i] + store = 2 ops
        assert_eq!(k.mem_ops_per_iter(), 6);
    }

    #[test]
    fn validation_rejects_unknown_array() {
        let r = KernelSpec::new(
            "bad",
            vec![LoopLevel::upto(2)],
            vec![ArrayDecl::zeroed("a", 4)],
            vec![Stmt::store(ArrayId(3), Expr::var(0), Expr::lit(1))],
        );
        assert_eq!(r.unwrap_err(), KernelError::UnknownArray(ArrayId(3)));
    }

    #[test]
    fn validation_rejects_deep_indvar() {
        let r = KernelSpec::new(
            "bad",
            vec![LoopLevel::upto(2)],
            vec![ArrayDecl::zeroed("a", 4)],
            vec![Stmt::store(ArrayId(0), Expr::var(2), Expr::lit(1))],
        );
        assert_eq!(r.unwrap_err(), KernelError::UnknownIndVar(2));
    }

    #[test]
    fn validation_rejects_memory_guard() {
        let a = ArrayId(0);
        let r = KernelSpec::new(
            "bad",
            vec![LoopLevel::upto(2)],
            vec![ArrayDecl::zeroed("a", 4)],
            vec![Stmt::guarded(
                a,
                Expr::var(0),
                Expr::lit(1),
                Expr::load(a, Expr::var(0)),
            )],
        );
        assert_eq!(r.unwrap_err(), KernelError::NonAffineGuard(0));
    }

    #[test]
    fn resolve_index_wraps_euclidean() {
        let k = toy();
        assert_eq!(k.resolve_index(ArrayId(0), 9), 1);
        assert_eq!(k.resolve_index(ArrayId(0), -1), 7);
    }

    #[test]
    fn triangular_nest_counts() {
        let k = KernelSpec::new(
            "tri",
            vec![
                LoopLevel::upto(4),
                LoopLevel::new(Bound::OuterPlus(0, 0), Bound::Const(4)),
            ],
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(
                ArrayId(0),
                Expr::var(0).mul(Expr::lit(4)).add(Expr::var(1)),
                Expr::lit(1),
            )],
        )
        .expect("valid");
        assert_eq!(k.iteration_count(), 10);
    }

    fn one_store(levels: Vec<LoopLevel>) -> Result<KernelSpec, KernelError> {
        KernelSpec::new(
            "nest",
            levels,
            vec![ArrayDecl::zeroed("a", 16)],
            vec![Stmt::store(ArrayId(0), Expr::var(0), Expr::lit(1))],
        )
    }

    #[test]
    fn validation_rejects_overflowing_trip_counts() {
        let huge = LoopLevel::upto(10_000_000_000);
        assert_eq!(
            one_store(vec![huge, huge]).unwrap_err(),
            KernelError::TripCountOverflow
        );
        let k = one_store(vec![huge, LoopLevel::upto(1_000_000_000)]).expect("10^19 fits");
        assert_eq!(k.iteration_count(), 10_000_000_000_000_000_000);
    }

    #[test]
    fn validation_rejects_bounds_on_inner_levels() {
        let r = one_store(vec![
            LoopLevel::upto(4),
            LoopLevel::new(Bound::OuterPlus(1, 0), Bound::Const(4)),
        ]);
        assert_eq!(r.unwrap_err(), KernelError::UnknownIndVar(1));
    }
}
