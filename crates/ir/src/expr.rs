//! Expression IR for kernel bodies.
//!
//! Index and value expressions are trees over loop induction variables,
//! constants, arithmetic, **array reads** (which lower to load ports), and
//! **opaque runtime functions** — the `f(x)` / `g(x)` of the paper's
//! Fig. 2(b) whose results are unknowable at compile time and therefore
//! defeat static dependence analysis.

use std::fmt;

pub use prevv_dataflow::components::BinOp;
use prevv_dataflow::Value;

/// Identifies an array declared by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub usize);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}", self.0)
    }
}

/// A deterministic, compile-time-opaque unary function.
///
/// Modeled as a strong integer mix (splitmix64 finalizer) reduced modulo a
/// configurable range. Workload generators use the modulus to control how
/// often runtime indices collide — i.e. how frequent genuine RAW hazards are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpaqueFn {
    /// Seed mixed into the hash; different seeds give independent functions.
    pub seed: u64,
    /// The result is reduced into `0..modulus`.
    pub modulus: Value,
}

impl OpaqueFn {
    /// Creates an opaque function with the given seed and range.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is not positive.
    pub fn new(seed: u64, modulus: Value) -> Self {
        assert!(modulus > 0, "opaque function modulus must be positive");
        OpaqueFn { seed, modulus }
    }

    /// Evaluates the function.
    pub fn apply(&self, x: Value) -> Value {
        let mut z = (x as u64)
            .wrapping_add(self.seed)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z % self.modulus as u64) as Value
    }
}

/// An expression over induction variables, constants, memory, and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal.
    Const(Value),
    /// The induction variable of loop level `n` (0 = outermost).
    IndVar(usize),
    /// A memory read `array[index]`. Lowers to a load port; participates in
    /// dependence analysis.
    Load(ArrayId, Box<Expr>),
    /// A two-operand arithmetic/logic operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// An opaque runtime function applied to a subexpression.
    Opaque(OpaqueFn, Box<Expr>),
}

impl Expr {
    /// Shorthand for a constant.
    pub fn lit(v: Value) -> Self {
        Expr::Const(v)
    }

    /// Shorthand for an induction variable.
    pub fn var(level: usize) -> Self {
        Expr::IndVar(level)
    }

    /// Shorthand for an array read.
    pub fn load(array: ArrayId, index: Expr) -> Self {
        Expr::Load(array, Box::new(index))
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Self {
        Expr::bin(BinOp::Add, self, rhs)
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Self {
        Expr::bin(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Self {
        Expr::bin(BinOp::Mul, self, rhs)
    }

    /// Applies an opaque function to `self`.
    pub fn opaque(self, f: OpaqueFn) -> Self {
        Expr::Opaque(f, Box::new(self))
    }

    /// Evaluates the expression for one iteration-space `row` — the one
    /// concrete semantics of a kernel expression.
    ///
    /// Evaluation is depth-first, left to right: a load's index is evaluated
    /// before the load, and a left operand before the right one — the order
    /// of [`Expr::loads`]. `load(array, raw)` supplies each loaded value; it
    /// receives the raw index, before
    /// [`KernelSpec::resolve_index`](crate::KernelSpec::resolve_index) wraps
    /// it.
    pub fn eval(&self, row: &[Value], load: &mut impl FnMut(ArrayId, Value) -> Value) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::IndVar(l) => row[*l],
            Expr::Load(a, idx) => {
                let raw = idx.eval(row, load);
                load(*a, raw)
            }
            Expr::Binary(op, l, r) => {
                let lv = l.eval(row, load);
                let rv = r.eval(row, load);
                op.apply(lv, rv)
            }
            Expr::Opaque(f, x) => f.apply(x.eval(row, load)),
        }
    }

    /// [`Expr::eval`] for memory-free expressions: guards and statically
    /// evaluable indices.
    ///
    /// # Panics
    ///
    /// Panics on a `Load` node; callers filter with
    /// [`Expr::is_runtime_dependent`] first (guards are affine by
    /// [`KernelSpec::validate`](crate::KernelSpec::validate)).
    pub fn eval_affine(&self, row: &[Value]) -> Value {
        self.eval(row, &mut |a, _| {
            unreachable!("affine evaluation reached a load of {a}")
        })
    }

    /// Collects the array loads in this expression in canonical
    /// (depth-first, left-to-right) order — the order in which they receive
    /// program-order sequence numbers.
    pub fn loads(&self) -> Vec<(ArrayId, &Expr)> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<(ArrayId, &'a Expr)>) {
        match self {
            Expr::Const(_) | Expr::IndVar(_) => {}
            Expr::Load(a, idx) => {
                idx.collect_loads(out);
                out.push((*a, idx));
            }
            Expr::Binary(_, l, r) => {
                l.collect_loads(out);
                r.collect_loads(out);
            }
            Expr::Opaque(_, e) => e.collect_loads(out),
        }
    }

    /// True if the expression depends on memory or opaque functions, i.e.
    /// its value is not a static affine function of the induction variables.
    pub fn is_runtime_dependent(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::IndVar(_) => false,
            Expr::Load(..) | Expr::Opaque(..) => true,
            Expr::Binary(_, l, r) => l.is_runtime_dependent() || r.is_runtime_dependent(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::IndVar(l) => write!(f, "{}", ["i", "j", "k", "l"].get(*l).unwrap_or(&"v")),
            Expr::Load(a, idx) => write!(f, "{a}[{idx}]"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Opaque(fun, e) => write!(f, "f{}({e})%{}", fun.seed, fun.modulus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opaque_fn_is_deterministic_and_in_range() {
        let f = OpaqueFn::new(7, 16);
        for x in -100..100 {
            let v = f.apply(x);
            assert!((0..16).contains(&v));
            assert_eq!(v, f.apply(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let f = OpaqueFn::new(1, 1 << 30);
        let g = OpaqueFn::new(2, 1 << 30);
        let same = (0..64).filter(|&x| f.apply(x) == g.apply(x)).count();
        assert!(same < 4, "independent functions should rarely collide");
    }

    #[test]
    fn loads_are_collected_in_canonical_order() {
        // a[b[i]] + b[i+1]
        let a = ArrayId(0);
        let b = ArrayId(1);
        let e = Expr::load(a, Expr::load(b, Expr::var(0)))
            .add(Expr::load(b, Expr::var(0).add(Expr::lit(1))));
        let loads = e.loads();
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[0].0, b, "inner index load first (depth-first)");
        assert_eq!(loads[1].0, a);
        assert_eq!(loads[2].0, b);
    }

    #[test]
    fn runtime_dependence_classification() {
        assert!(!Expr::var(0).add(Expr::lit(3)).is_runtime_dependent());
        assert!(Expr::load(ArrayId(0), Expr::var(0)).is_runtime_dependent());
        assert!(Expr::var(0)
            .opaque(OpaqueFn::new(0, 8))
            .is_runtime_dependent());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::load(ArrayId(1), Expr::var(0)).add(Expr::lit(1));
        assert_eq!(e.to_string(), "(arr1[i] add 1)");
    }
}
