//! PV5xx — fixpoint abstract interpretation over kernel loop nests.
//!
//! Every other analysis family treats index expressions and guards
//! conservatively: `symdep` is GCD + Banerjee over affine subscripts and
//! knows nothing about guard predicates, initializer data, or value
//! evolution. This module runs a classic abstract interpretation over the
//! kernel body using a **reduced product of three domains**:
//!
//! * an **interval** domain (`[lo, hi]`, inclusive, with `i64::MIN/MAX` as
//!   top) for range reasoning;
//! * a **congruence** (stride) domain (`x ≡ r (mod m)`; `m = 0` encodes a
//!   singleton) for parity/stride reasoning — this is what sees through
//!   `i % 2 == 0` guards that Banerjee cannot;
//! * **guard predicates**, applied as refinement: evaluating a statement
//!   under its guard first narrows the induction-variable environment to
//!   the iterations that can actually take the guard.
//!
//! Array contents are abstracted per array (one joined value per array,
//! store-free arrays keep their exact initializer abstraction), and the
//! body is iterated to a fixpoint with interval **widening** after
//! `WIDEN_AFTER` rounds — accumulators like `a[0] += 1` jump to top
//! instead of climbing forever.
//!
//! Four consumers ride on the inferred invariants:
//!
//! * **PV500** — definite out-of-bounds proofs in exactly the places the
//!   PV001 machinery is blind: runtime-dependent indices bounded through
//!   store-free initializer data (`a[b[i]]`), and guarded statements in
//!   spaces too large to enumerate.
//! * **PV501** — provably-infeasible guards (dead statements), with a
//!   machine-applicable removal fix.
//! * **PV502** — invariant-backed pair discharge ([`upgrade_verdicts`]):
//!   guard-refined footprints that are disjoint by interval or congruence,
//!   or same-address/injective over a restricted domain, upgrade the
//!   dependence verdicts no affine or enumeration proof settled. The lint
//!   runs the upgrade over the iteration hull, the model checker over its
//!   bounded-horizon box.
//! * **PV503** — a static occupancy bound for the premature queue
//!   ([`occupancy_bound`]): the queue can never hold more records than the
//!   kernel ever issues, so a deeper configured `depth_q` is wasted area.
//!
//! Soundness contract: every abstract value **over-approximates** the set
//! of concrete values. The `exact` flag additionally asserts the abstract
//! set (an arithmetic progression) equals the concrete set — only then may
//! a lint claim a *definite* out-of-bounds witness. Exactness is claimed
//! conservatively (constants, single-occurrence affine chains over
//! verified-contiguous variable domains) and is cross-checked against
//! concrete enumeration by `tests/absint_properties.rs`.

use prevv_dataflow::components::BinOp;
use prevv_dataflow::Value;
pub use prevv_ir::depend::DischargeReason;
use prevv_ir::depend::{AmbiguousPair, Dependences, Proof, StaticMemOp, VerdictClass, ENUM_LIMIT};
use prevv_ir::symdep::{hull_bounds, AffineForm};
use prevv_ir::{ArrayInit, Expr, KernelSpec, MemOpKind};

use crate::diag::{Code, Diagnostic, Report, Suggestion};
use crate::lints::op_spans;

/// Fixpoint rounds before interval bounds are widened to top.
const WIDEN_AFTER: usize = 3;
/// Hard cap on fixpoint rounds (widening makes this unreachable in
/// practice; the cap is a belt-and-braces termination guarantee).
const MAX_ROUNDS: usize = 16;
/// Largest exact value set [`eval_exact_set`] will enumerate.
const SET_LIMIT: usize = 4096;
/// Congruence moduli above this collapse to top (guards against overflow
/// in CRT/lcm arithmetic; strides this large never help a lint).
const MAX_MODULUS: i128 = 1 << 31;

// --- interval domain --------------------------------------------------------

/// An inclusive integer interval `[lo, hi]`. `i64::MIN`/`i64::MAX` act as
/// the unbounded ends; a transfer function whose true result could wrap
/// 64-bit arithmetic returns [`Interval::TOP`] (clamping would be unsound
/// under the simulator's wrapping semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value (inclusive).
    pub lo: Value,
    /// Largest value (inclusive).
    pub hi: Value,
}

impl Interval {
    /// The full 64-bit range.
    pub const TOP: Interval = Interval {
        lo: Value::MIN,
        hi: Value::MAX,
    };

    /// The interval holding exactly `v`.
    pub fn singleton(v: Value) -> Self {
        Interval { lo: v, hi: v }
    }

    /// An interval from inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` (empty intervals are represented by `Option`
    /// at the call sites, never inside an `Interval`).
    pub fn new(lo: Value, hi: Value) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Sound conversion from i128 arithmetic: results that fit in i64 are
    /// exact; anything wider could have wrapped concretely, so it is top.
    fn from_i128(lo: i128, hi: i128) -> Self {
        if lo >= Value::MIN as i128 && hi <= Value::MAX as i128 {
            Interval {
                lo: lo as Value,
                hi: hi as Value,
            }
        } else {
            Interval::TOP
        }
    }

    /// True when `v` lies inside.
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Greatest lower bound; `None` when the intervals are disjoint.
    pub fn meet(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Number of integers covered, saturating.
    fn count(&self) -> u128 {
        (self.hi as i128 - self.lo as i128 + 1) as u128
    }
}

// --- congruence domain ------------------------------------------------------

/// A congruence class `x ≡ rem (mod modulus)`. `modulus == 0` encodes the
/// singleton `{rem}`; `modulus == 1` is top. Invariant: `modulus >= 0`,
/// and `0 <= rem < modulus` when `modulus > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congruence {
    /// The stride (0 = singleton, 1 = top).
    pub modulus: Value,
    /// The residue, normalized into `[0, modulus)` when `modulus > 0`.
    pub rem: Value,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Congruence {
    /// All integers.
    pub const TOP: Congruence = Congruence { modulus: 1, rem: 0 };

    /// The singleton class `{v}`.
    pub fn singleton(v: Value) -> Self {
        Congruence { modulus: 0, rem: v }
    }

    /// Builds a normalized class from i128 arithmetic, collapsing oversized
    /// moduli to top.
    fn normalized(modulus: i128, rem: i128) -> Self {
        let m = modulus.abs();
        if m == 0 {
            if (Value::MIN as i128..=Value::MAX as i128).contains(&rem) {
                return Congruence::singleton(rem as Value);
            }
            return Congruence::TOP;
        }
        if m >= MAX_MODULUS {
            return Congruence::TOP;
        }
        Congruence {
            modulus: m as Value,
            rem: rem.rem_euclid(m) as Value,
        }
    }

    /// True when `v` lies in the class.
    pub fn contains(&self, v: Value) -> bool {
        if self.modulus == 0 {
            v == self.rem
        } else {
            (v as i128 - self.rem as i128).rem_euclid(self.modulus as i128) == 0
        }
    }

    /// Least upper bound: `gcd(m1, m2, |r1 - r2|)`.
    pub fn join(&self, other: &Congruence) -> Congruence {
        let m = gcd(
            gcd(self.modulus as i128, other.modulus as i128),
            self.rem as i128 - other.rem as i128,
        );
        Congruence::normalized(m, self.rem as i128)
    }

    /// Greatest lower bound (CRT); `None` when the classes are disjoint.
    pub fn meet(&self, other: &Congruence) -> Option<Congruence> {
        let (m1, r1) = (self.modulus as i128, self.rem as i128);
        let (m2, r2) = (other.modulus as i128, other.rem as i128);
        if m1 == 0 {
            return other.contains(self.rem).then_some(*self);
        }
        if m2 == 0 {
            return self.contains(other.rem).then_some(*other);
        }
        let g = gcd(m1, m2);
        if (r1 - r2).rem_euclid(g) != 0 {
            return None;
        }
        let lcm = m1 / g * m2;
        if lcm >= MAX_MODULUS {
            // Over-approximate the intersection by the finer operand.
            return Some(if m1 >= m2 { *self } else { *other });
        }
        // x ≡ r1 (m1) ∧ x ≡ r2 (m2): step from r1 in strides of m1.
        let mut x = r1.rem_euclid(lcm);
        while (x - r2).rem_euclid(m2) != 0 {
            x += m1;
        }
        Some(Congruence::normalized(lcm, x))
    }

    /// True when the two classes provably share no value.
    pub fn disjoint(&self, other: &Congruence) -> bool {
        self.meet(other).is_none()
    }
}

// --- the reduced product ----------------------------------------------------

/// One abstract value: the reduced product of an interval and a congruence
/// class, plus an exactness flag.
///
/// `exact` asserts the concrete value set is *precisely* the arithmetic
/// progression `γ(iv) ∩ γ(cg)` — every member is achieved by some executed
/// iteration. Only exact values may back a definite (PV500) proof;
/// inexact values still soundly over-approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Interval component.
    pub iv: Interval,
    /// Congruence component.
    pub cg: Congruence,
    /// Whether `γ(iv) ∩ γ(cg)` equals the concrete set.
    pub exact: bool,
}

impl AbsVal {
    /// The unconstrained value.
    pub const TOP: AbsVal = AbsVal {
        iv: Interval::TOP,
        cg: Congruence::TOP,
        exact: false,
    };

    /// The exact constant `v`.
    pub fn constant(v: Value) -> Self {
        AbsVal {
            iv: Interval::singleton(v),
            cg: Congruence::singleton(v),
            exact: true,
        }
    }

    /// An inclusive contiguous range, optionally exact.
    pub fn range(lo: Value, hi: Value, exact: bool) -> Self {
        AbsVal {
            iv: Interval::new(lo, hi),
            cg: if lo == hi {
                Congruence::singleton(lo)
            } else {
                Congruence::TOP
            },
            exact,
        }
    }

    /// True when the abstraction pins a single value.
    pub fn as_singleton(&self) -> Option<Value> {
        (self.iv.lo == self.iv.hi).then_some(self.iv.lo)
    }

    /// True when `v` lies in the abstraction.
    pub fn contains(&self, v: Value) -> bool {
        self.iv.contains(v) && self.cg.contains(v)
    }

    /// Least upper bound. Joins are never exact unless both sides agree on
    /// a singleton (a join genuinely unions two iterations' histories, and
    /// the union of two APs is rarely an AP).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        if self == other {
            return *self;
        }
        AbsVal {
            iv: self.iv.join(&other.iv),
            cg: self.cg.join(&other.cg),
            exact: false,
        }
    }

    /// Reduction step of the product: tightens the interval endpoints to
    /// the nearest members of the congruence class. `None` when the
    /// product is empty.
    pub fn reduce(mut self) -> Option<AbsVal> {
        if self.cg.modulus == 0 {
            return self.iv.contains(self.cg.rem).then(|| AbsVal {
                iv: Interval::singleton(self.cg.rem),
                ..self
            });
        }
        let m = self.cg.modulus as i128;
        let r = self.cg.rem as i128;
        let lo = self.iv.lo as i128;
        let hi = self.iv.hi as i128;
        let lo2 = lo + (r - lo).rem_euclid(m);
        let hi2 = hi - (hi - r).rem_euclid(m);
        if lo2 > hi2 {
            return None;
        }
        self.iv = Interval::from_i128(lo2, hi2);
        if self.iv.lo == self.iv.hi {
            self.cg = Congruence::singleton(self.iv.lo);
        }
        Some(self)
    }

    /// Greatest lower bound; `None` when provably empty.
    pub fn meet(&self, other: &AbsVal) -> Option<AbsVal> {
        let iv = self.iv.meet(&other.iv)?;
        let cg = self.cg.meet(&other.cg)?;
        AbsVal {
            iv,
            cg,
            exact: self.exact && other.exact,
        }
        .reduce()
    }

    /// True when the two abstractions provably share no value — the
    /// disjointness test PV502 runs on wrapped footprints.
    pub fn disjoint(&self, other: &AbsVal) -> bool {
        self.iv.meet(&other.iv).is_none() || self.cg.disjoint(&other.cg)
    }

    /// Enumerates the members of an exact abstraction, smallest first.
    /// `None` when inexact or larger than `cap`.
    pub fn enumerate(&self, cap: usize) -> Option<Vec<Value>> {
        if !self.exact {
            return None;
        }
        let v = self.reduce()?;
        let step = v.cg.modulus.max(1) as i128;
        let n = (v.iv.hi as i128 - v.iv.lo as i128) / step + 1;
        if n > cap as i128 {
            return None;
        }
        Some(
            (0..n)
                .map(|k| (v.iv.lo as i128 + k * step) as Value)
                .collect(),
        )
    }
}

// --- transfer functions -----------------------------------------------------

fn add(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let iv = Interval::from_i128(
        a.iv.lo as i128 + b.iv.lo as i128,
        a.iv.hi as i128 + b.iv.hi as i128,
    );
    if iv == Interval::TOP {
        return AbsVal::TOP; // possible concrete wrap: congruence is invalid too
    }
    let cg = Congruence::normalized(
        gcd(a.cg.modulus as i128, b.cg.modulus as i128),
        a.cg.rem as i128 + b.cg.rem as i128,
    );
    AbsVal {
        iv,
        cg,
        exact: a.exact && b.exact && (a.as_singleton().is_some() || b.as_singleton().is_some()),
    }
}

fn sub(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let neg = AbsVal {
        iv: Interval::from_i128(-(b.iv.hi as i128), -(b.iv.lo as i128)),
        cg: Congruence::normalized(b.cg.modulus as i128, -(b.cg.rem as i128)),
        exact: b.exact,
    };
    add(a, &neg)
}

fn mul(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let products = [
        a.iv.lo as i128 * b.iv.lo as i128,
        a.iv.lo as i128 * b.iv.hi as i128,
        a.iv.hi as i128 * b.iv.lo as i128,
        a.iv.hi as i128 * b.iv.hi as i128,
    ];
    let iv = Interval::from_i128(
        *products.iter().min().expect("nonempty"),
        *products.iter().max().expect("nonempty"),
    );
    if iv == Interval::TOP {
        return AbsVal::TOP; // could wrap concretely
    }
    let cg = if let Some(c) = a.as_singleton() {
        Congruence::normalized(
            c as i128 * b.cg.modulus as i128,
            c as i128 * b.cg.rem as i128,
        )
    } else if let Some(c) = b.as_singleton() {
        Congruence::normalized(
            c as i128 * a.cg.modulus as i128,
            c as i128 * a.cg.rem as i128,
        )
    } else {
        // (r1 + k·m1)(r2 + l·m2) ≡ r1·r2 (mod gcd(m1·m2, m1·r2, m2·r1)).
        let (m1, r1) = (a.cg.modulus as i128, a.cg.rem as i128);
        let (m2, r2) = (b.cg.modulus as i128, b.cg.rem as i128);
        Congruence::normalized(gcd(gcd(m1 * m2, m1 * r2), m2 * r1), r1 * r2)
    };
    AbsVal {
        iv,
        cg,
        exact: a.exact && b.exact && (a.as_singleton().is_some() || b.as_singleton().is_some()),
    }
}

/// Truncated remainder (the ALU's `Rem`, 0-safe: `x % 0 == 0`).
fn rem(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let Some(c) = b.as_singleton() else {
        // Bounded by the largest possible divisor magnitude.
        let maxc = b.iv.lo.unsigned_abs().max(b.iv.hi.unsigned_abs());
        if maxc == 0 || maxc > Value::MAX as u64 {
            return AbsVal::TOP;
        }
        let bound = (maxc - 1) as Value;
        return AbsVal {
            iv: Interval::new(-bound, bound),
            cg: Congruence::TOP,
            exact: false,
        };
    };
    if c <= 0 {
        // Negative or zero divisors: |result| < |c| still holds for c < 0;
        // x % 0 is defined as 0. Keep it coarse.
        if c == 0 {
            return AbsVal::constant(0);
        }
        let bound = c.checked_abs().map_or(Value::MAX - 1, |v| v - 1);
        return AbsVal {
            iv: Interval::new(-bound, bound),
            cg: Congruence::TOP,
            exact: false,
        };
    }
    if a.iv.lo >= 0 && a.iv.hi < c {
        return *a; // identity on [0, c)
    }
    if a.iv.lo >= 0 {
        // Nonnegative dividend: truncated rem agrees with euclidean rem.
        if a.cg.modulus > 0 && a.cg.modulus % c == 0 {
            // Every member shares one residue mod c.
            return AbsVal {
                iv: Interval::singleton(a.cg.rem % c),
                cg: Congruence::singleton(a.cg.rem % c),
                exact: true,
            };
        }
        if a.cg.modulus == 1 && a.iv.count() >= c as u128 {
            // A full window of consecutive integers covers every residue.
            return AbsVal {
                iv: Interval::new(0, c - 1),
                cg: Congruence::TOP,
                exact: a.exact,
            };
        }
        if a.iv.lo / c == a.iv.hi / c {
            // One block: remainder is order-preserving within it.
            return AbsVal {
                iv: Interval::new(a.iv.lo % c, a.iv.hi % c),
                cg: Congruence::TOP,
                exact: a.exact && a.cg.modulus == 1,
            };
        }
        return AbsVal {
            iv: Interval::new(0, c - 1),
            cg: Congruence::TOP,
            exact: false,
        };
    }
    AbsVal {
        iv: Interval::new(-(c - 1), c - 1),
        cg: Congruence::TOP,
        exact: false,
    }
}

fn div(a: &AbsVal, b: &AbsVal) -> AbsVal {
    match b.as_singleton() {
        Some(c) if c > 0 && a.iv.lo >= 0 => AbsVal {
            iv: Interval::new(a.iv.lo / c, a.iv.hi / c),
            cg: Congruence::TOP,
            exact: false,
        },
        _ => AbsVal::TOP,
    }
}

/// Three-valued comparison outcome as the ALU's 1/0 encoding.
fn cmp_result(definitely_true: bool, definitely_false: bool) -> AbsVal {
    match (definitely_true, definitely_false) {
        (true, _) => AbsVal::constant(1),
        (_, true) => AbsVal::constant(0),
        _ => AbsVal {
            iv: Interval::new(0, 1),
            cg: Congruence::TOP,
            exact: false,
        },
    }
}

fn compare(op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    let eq_possible = !a.disjoint(b);
    match op {
        BinOp::Eq => cmp_result(
            a.as_singleton().is_some() && a.as_singleton() == b.as_singleton(),
            !eq_possible,
        ),
        BinOp::Ne => cmp_result(
            !eq_possible,
            a.as_singleton().is_some() && a.as_singleton() == b.as_singleton(),
        ),
        BinOp::Lt => cmp_result(a.iv.hi < b.iv.lo, a.iv.lo >= b.iv.hi),
        BinOp::Le => cmp_result(a.iv.hi <= b.iv.lo, a.iv.lo > b.iv.hi),
        BinOp::Gt => cmp_result(a.iv.lo > b.iv.hi, a.iv.hi <= b.iv.lo),
        BinOp::Ge => cmp_result(a.iv.lo >= b.iv.hi, a.iv.hi < b.iv.lo),
        _ => unreachable!("compare() called on a non-comparison op"),
    }
}

fn bin_transfer(op: BinOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    match op {
        BinOp::Add => add(a, b),
        BinOp::Sub => sub(a, b),
        BinOp::Mul => mul(a, b),
        BinOp::Div => div(a, b),
        BinOp::Rem => rem(a, b),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => compare(op, a, b),
        _ => AbsVal::TOP,
    }
}

// --- environment and evaluation ---------------------------------------------

/// Per-array abstraction: one joined value for the whole array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAbs {
    /// Abstraction of every value the array can hold.
    pub val: AbsVal,
    /// True when no statement ever stores to the array — its contents are
    /// exactly the initializer for the whole run.
    pub store_free: bool,
}

/// The abstract environment: one domain per induction variable, one
/// abstraction per array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// Per-loop-level induction-variable domains (outermost first).
    pub vars: Vec<AbsVal>,
    /// Per-array content abstractions.
    pub arrays: Vec<ArrayAbs>,
}

/// Abstractly evaluates `e` under `env`.
pub fn eval(e: &Expr, env: &Env) -> AbsVal {
    match e {
        Expr::Const(v) => AbsVal::constant(*v),
        Expr::IndVar(l) => env.vars.get(*l).copied().unwrap_or(AbsVal::TOP),
        Expr::Load(a, _) => {
            let arr = &env.arrays[a.0];
            AbsVal {
                exact: arr.store_free && arr.val.as_singleton().is_some(),
                ..arr.val
            }
        }
        Expr::Opaque(f, _) => AbsVal {
            iv: Interval::new(0, f.modulus - 1),
            cg: if f.modulus == 1 {
                Congruence::singleton(0)
            } else {
                Congruence::TOP
            },
            exact: f.modulus == 1,
        },
        Expr::Binary(op, l, r) => bin_transfer(*op, &eval(l, env), &eval(r, env)),
    }
}

/// Enumerates the exact concrete value set of `e` under `env`, capped at
/// `SET_LIMIT` members. `None` when exactness cannot be established.
/// This is the path that bounds indirect indices like `a[b[i]]` through a
/// store-free `b`'s initializer data.
pub fn eval_exact_set(e: &Expr, env: &Env, spec: &KernelSpec) -> Option<Vec<Value>> {
    let mut out = match e {
        Expr::Const(v) => vec![*v],
        Expr::IndVar(l) => env.vars.get(*l)?.enumerate(SET_LIMIT)?,
        Expr::Load(a, idx) => {
            if !env.arrays[a.0].store_free {
                return None;
            }
            let init = spec.arrays[a.0].initial();
            eval_exact_set(idx, env, spec)?
                .into_iter()
                .map(|j| init[spec.resolve_index(*a, j)])
                .collect()
        }
        Expr::Opaque(..) => return None,
        Expr::Binary(op, l, r) => {
            // One side must be a provable constant (abstract singleton):
            // scaling/shifting an exact set keeps it exact; combining two
            // sets would need correlation tracking this domain lacks.
            let (set, konst, set_is_lhs) =
                match (eval(l, env).as_singleton(), eval(r, env).as_singleton()) {
                    (_, Some(c)) => (eval_exact_set(l, env, spec)?, c, true),
                    (Some(c), _) => (eval_exact_set(r, env, spec)?, c, false),
                    _ => return None,
                };
            set.into_iter()
                .map(|v| {
                    if set_is_lhs {
                        op.apply(v, konst)
                    } else {
                        op.apply(konst, v)
                    }
                })
                .collect()
        }
    };
    out.sort_unstable();
    out.dedup();
    (out.len() <= SET_LIMIT).then_some(out)
}

// --- guard refinement -------------------------------------------------------

/// What the interpreter proved about a statement's guard over the whole
/// (refined) iteration domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardStatus {
    /// No guard: the statement runs every iteration.
    None,
    /// The guard is provably nonzero on every iteration.
    AlwaysTaken,
    /// The guard is provably zero on every iteration — dead code (PV501).
    NeverTaken,
    /// Sometimes taken, or unknown.
    Mixed,
}

/// Evaluates a guard's status under `env`.
pub fn guard_status(guard: Option<&Expr>, env: &Env) -> GuardStatus {
    let Some(g) = guard else {
        return GuardStatus::None;
    };
    let v = eval(g, env);
    if !v.contains(0) {
        return GuardStatus::AlwaysTaken;
    }
    if v.as_singleton() == Some(0) {
        return GuardStatus::NeverTaken;
    }
    if refine(env, g).is_none() {
        return GuardStatus::NeverTaken;
    }
    GuardStatus::Mixed
}

/// Narrows the environment to iterations where `guard` is true (nonzero).
/// The result **over-approximates** that set; `None` means the guard is
/// infeasible. Two refinement patterns are understood — plain comparisons
/// against an induction variable, and the stride idiom
/// `var % c == k` (either operand order) — everything else refines to the
/// unchanged environment, which is always sound.
pub fn refine(env: &Env, guard: &Expr) -> Option<Env> {
    let Expr::Binary(op, lhs, rhs) = guard else {
        // Non-comparison guard (e.g. a bare expression): true = nonzero.
        let v = eval(guard, env);
        return (v.as_singleton() != Some(0)).then(|| env.clone());
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return Some(env.clone());
    }
    // `(var % c) == k`: refine the congruence component.
    if *op == BinOp::Eq {
        for (a, b) in [(lhs, rhs), (rhs, lhs)] {
            if let (Expr::Binary(BinOp::Rem, x, c), Expr::Const(k)) = (&**a, &**b) {
                if let (Expr::IndVar(l), Expr::Const(c)) = (&**x, &**c) {
                    if *c > 0 && *l < env.vars.len() {
                        // k outside [0, c) is unreachable for nonnegative x
                        // and handled by the interval meet below; the
                        // congruence applies when 0 <= k < c.
                        if *k >= 0 && *k < *c {
                            let mut out = env.clone();
                            let narrowed = out.vars[*l].meet(&AbsVal {
                                iv: Interval::TOP,
                                cg: Congruence {
                                    modulus: *c,
                                    rem: *k,
                                },
                                exact: false,
                            })?;
                            // The meet drops exactness pessimistically, but
                            // restricting a contiguous achieved range by a
                            // congruence keeps every member achieved.
                            out.vars[*l] = AbsVal {
                                exact: env.vars[*l].exact && env.vars[*l].cg.modulus <= 1,
                                ..narrowed
                            };
                            return Some(out);
                        }
                        if eval(guard, env).as_singleton() == Some(0) {
                            return None;
                        }
                    }
                }
            }
        }
    }
    // Plain comparison with an induction variable on one side.
    let a = eval(lhs, env);
    let b = eval(rhs, env);
    if compare(*op, &a, &b).as_singleton() == Some(0) {
        return None;
    }
    let mut out = env.clone();
    let mut narrow = |l: usize, allowed: Interval, other_exact_eq: Option<&AbsVal>| -> bool {
        let Some(iv) = out.vars[l].iv.meet(&allowed) else {
            return false;
        };
        let mut v = AbsVal { iv, ..out.vars[l] };
        if let Some(o) = other_exact_eq {
            match v.meet(o) {
                Some(m) => v = AbsVal { exact: false, ..m },
                None => return false,
            }
        }
        // Clipping a contiguous achieved range keeps it achieved.
        v.exact = out.vars[l].exact && v.cg == out.vars[l].cg;
        out.vars[l] = v;
        true
    };
    let feasible = match (&**lhs, &**rhs) {
        (Expr::IndVar(l), _) if *l < env.vars.len() => {
            let allowed = match op {
                BinOp::Lt => Interval::new(Value::MIN, b.iv.hi.saturating_sub(1)),
                BinOp::Le => Interval::new(Value::MIN, b.iv.hi),
                BinOp::Gt => Interval::new(b.iv.lo.saturating_add(1), Value::MAX),
                BinOp::Ge => Interval::new(b.iv.lo, Value::MAX),
                BinOp::Eq => b.iv,
                _ => Interval::TOP,
            };
            narrow(*l, allowed, (*op == BinOp::Eq).then_some(&b))
        }
        (_, Expr::IndVar(l)) if *l < env.vars.len() => {
            let allowed = match op {
                BinOp::Lt => Interval::new(a.iv.lo.saturating_add(1), Value::MAX),
                BinOp::Le => Interval::new(a.iv.lo, Value::MAX),
                BinOp::Gt => Interval::new(Value::MIN, a.iv.hi.saturating_sub(1)),
                BinOp::Ge => Interval::new(Value::MIN, a.iv.hi),
                BinOp::Eq => a.iv,
                _ => Interval::TOP,
            };
            narrow(*l, allowed, (*op == BinOp::Eq).then_some(&a))
        }
        _ => true,
    };
    feasible.then_some(out)
}

// --- the fixpoint interpreter -----------------------------------------------

/// Per-statement invariant annotations, computed under the statement's
/// guard-refined environment.
#[derive(Debug, Clone)]
pub struct StmtInvariant {
    /// What the interpreter proved about the guard.
    pub guard: GuardStatus,
    /// Abstraction of the raw (pre-wrap) store index.
    pub index: AbsVal,
    /// Abstraction of the stored value.
    pub value: AbsVal,
}

/// The result of running the interpreter to fixpoint: induction-variable
/// domains, post-fixpoint array abstractions, and per-statement invariants.
#[derive(Debug, Clone)]
pub struct KernelInvariants {
    /// Final abstract environment (variable domains + array contents).
    pub env: Env,
    /// Per-statement annotations, aligned with `spec.body`.
    pub stmts: Vec<StmtInvariant>,
}

/// Inclusive per-level variable bounds: the rectangular hull of the nest.
/// `None` only for nests `hull_bounds` cannot resolve (never for validated
/// kernels) or empty iteration spaces.
pub fn hull_box(spec: &KernelSpec) -> Option<Vec<(Value, Value)>> {
    if spec.iteration_count() == 0 {
        return None;
    }
    hull_bounds(&spec.levels)
}

/// Builds induction-variable domains from inclusive per-level bounds.
/// Domains are marked exact (each hull value achieved by some iteration)
/// only when achievement can be verified by enumeration or the nest is
/// rectangular (where it holds trivially).
fn var_domains(spec: &KernelSpec, bounds: &[(Value, Value)]) -> Vec<AbsVal> {
    let rectangular = spec.levels.iter().all(|l| {
        matches!(
            (l.lo, l.hi),
            (
                prevv_dataflow::components::Bound::Const(_),
                prevv_dataflow::components::Bound::Const(_)
            )
        )
    });
    let mut achieved: Vec<bool> = vec![rectangular; bounds.len()];
    if !rectangular && spec.iteration_count() <= ENUM_LIMIT {
        // Verify per-level projection exactness concretely.
        let space = spec.iteration_space();
        for (l, &(lo, hi)) in bounds.iter().enumerate() {
            achieved[l] = (lo..=hi).all(|v| space.iter().any(|row| row[l] == v));
        }
    }
    bounds
        .iter()
        .zip(achieved)
        .map(|(&(lo, hi), ok)| AbsVal::range(lo, hi.max(lo), ok && lo <= hi))
        .collect()
}

/// Initializer abstraction of one array.
fn init_abs(spec: &KernelSpec, ai: usize) -> AbsVal {
    let decl = &spec.arrays[ai];
    match &decl.init {
        ArrayInit::Zero => AbsVal::constant(0),
        ArrayInit::Values(vs) => {
            let mut it = vs.iter();
            let first = AbsVal::constant(*it.next().expect("nonempty initializer"));
            it.fold(first, |acc, &v| acc.join(&AbsVal::constant(v)))
        }
    }
}

/// Runs the interpreter to fixpoint over the full iteration hull.
pub fn analyze_kernel(spec: &KernelSpec) -> KernelInvariants {
    let bounds = hull_box(spec).unwrap_or_else(|| vec![(0, -1); spec.levels.len()]);
    analyze_within(spec, &bounds)
}

/// Runs the interpreter to fixpoint with explicit inclusive per-level
/// variable bounds — the model checker passes the box spanned by its
/// bounded-horizon iteration prefix to obtain horizon-valid invariants.
pub fn analyze_within(spec: &KernelSpec, bounds: &[(Value, Value)]) -> KernelInvariants {
    let empty = bounds.iter().any(|&(lo, hi)| hi < lo);
    let vars = var_domains(spec, bounds);
    let stored: Vec<bool> = {
        let mut s = vec![false; spec.arrays.len()];
        for stmt in &spec.body {
            s[stmt.array.0] = true;
        }
        s
    };
    let mut env = Env {
        vars,
        arrays: (0..spec.arrays.len())
            .map(|ai| ArrayAbs {
                val: init_abs(spec, ai),
                store_free: !stored[ai],
            })
            .collect(),
    };
    if !empty {
        let mut prev = env.arrays.clone();
        for round in 0..MAX_ROUNDS {
            let mut changed = false;
            for stmt in &spec.body {
                let refined = match &stmt.guard {
                    None => Some(env.clone()),
                    Some(g) => refine(&env, g),
                };
                let Some(renv) = refined else { continue };
                let v = eval(&stmt.value, &renv);
                let joined = env.arrays[stmt.array.0].val.join(&v);
                if joined != env.arrays[stmt.array.0].val {
                    env.arrays[stmt.array.0].val = joined;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if round + 1 >= WIDEN_AFTER {
                // Widen: any interval bound still moving jumps to top.
                for (arr, old) in env.arrays.iter_mut().zip(&prev) {
                    if arr.val.iv.lo < old.val.iv.lo {
                        arr.val.iv.lo = Value::MIN;
                    }
                    if arr.val.iv.hi > old.val.iv.hi {
                        arr.val.iv.hi = Value::MAX;
                    }
                    arr.val.exact = arr.val.exact && arr.val == old.val;
                }
            }
            prev = env.arrays.clone();
        }
    }
    let stmts = spec
        .body
        .iter()
        .map(|stmt| {
            if empty {
                return StmtInvariant {
                    guard: GuardStatus::NeverTaken,
                    index: AbsVal::TOP,
                    value: AbsVal::TOP,
                };
            }
            let guard = guard_status(stmt.guard.as_ref(), &env);
            let renv = match &stmt.guard {
                None => env.clone(),
                Some(g) => refine(&env, g).unwrap_or_else(|| env.clone()),
            };
            StmtInvariant {
                guard,
                index: eval(&stmt.index, &renv),
                value: eval(&stmt.value, &renv),
            }
        })
        .collect();
    KernelInvariants { env, stmts }
}

// --- consumer: footprints and pair discharge (PV502) ------------------------

/// Post-wrap footprint: the raw index abstraction folded into `[0, len)`
/// the way the runtime's `rem_euclid` does.
fn wrap_footprint(raw: &AbsVal, len: Value) -> AbsVal {
    if raw.iv.lo >= 0 && raw.iv.hi < len {
        return *raw;
    }
    rem(raw, &AbsVal::constant(len))
        .meet(&AbsVal {
            iv: Interval::new(0, len - 1),
            cg: Congruence::TOP,
            exact: false,
        })
        .unwrap_or(AbsVal {
            iv: Interval::new(0, len - 1),
            cg: Congruence::TOP,
            exact: false,
        })
}

/// Guard-refined raw index abstraction of one static op; `None` when the
/// owning statement's guard is infeasible (empty footprint).
fn op_footprint(spec: &KernelSpec, env: &Env, op: &StaticMemOp) -> Option<AbsVal> {
    let renv = match &spec.body[op.stmt].guard {
        None => None,
        Some(g) => Some(refine(env, g)?),
    };
    Some(eval(&op.index, renv.as_ref().unwrap_or(env)))
}

/// Exact i128 range of an affine form over inclusive bounds.
fn form_range(form: &AffineForm, bounds: &[(Value, Value)]) -> (i128, i128) {
    let mut lo = form.constant as i128;
    let mut hi = lo;
    for (&c, &(l, u)) in form.coeffs.iter().zip(bounds) {
        let c = c as i128;
        if c >= 0 {
            lo += c * l as i128;
            hi += c * u as i128;
        } else {
            lo += c * u as i128;
            hi += c * l as i128;
        }
    }
    (lo, hi)
}

/// Sufficient injectivity test for an affine form over a box: sorting the
/// nonzero coefficients by magnitude, each must exceed the largest value
/// the smaller terms can compose (mixed-radix argument).
fn form_injective(form: &AffineForm, bounds: &[(Value, Value)]) -> bool {
    let mut terms: Vec<(i128, i128)> = Vec::new();
    for (&c, &(l, u)) in form.coeffs.iter().zip(bounds) {
        if u <= l {
            continue; // singleton level contributes nothing
        }
        if c == 0 {
            // Two iterations differing only at this level share an address:
            // the form cannot separate them (constant forms land here).
            return false;
        }
        terms.push(((c as i128).abs(), u as i128 - l as i128));
    }
    terms.sort_unstable();
    let mut reach: i128 = 0;
    for (c, span) in terms {
        if reach >= c {
            return false;
        }
        reach += c * span;
    }
    true
}

/// Tries to discharge one ambiguous pair with value reasoning over the
/// inclusive per-level `bounds`, given the invariants [`analyze_within`]
/// computed for that box. Sound over-approximation: a verdict means no
/// cross-iteration hazard exists for any iteration inside the box (an empty
/// box has none); `None` means no proof (the pair stays validated).
fn discharge(
    spec: &KernelSpec,
    inv: &KernelInvariants,
    deps: &Dependences,
    pair: AmbiguousPair,
    bounds: &[(Value, Value)],
) -> Option<DischargeReason> {
    if bounds.iter().any(|&(lo, hi)| hi < lo) {
        return Some(DischargeReason::DeadCode);
    }
    let load = &deps.ops[pair.load];
    let store = &deps.ops[pair.store];
    let len = spec.arrays[load.array.0].len as Value;
    let (fp_load, fp_store) = match (
        op_footprint(spec, &inv.env, load),
        op_footprint(spec, &inv.env, store),
    ) {
        (Some(l), Some(s)) => (l, s),
        _ => return Some(DischargeReason::DeadCode),
    };
    if wrap_footprint(&fp_load, len).disjoint(&wrap_footprint(&fp_store, len)) {
        return Some(DischargeReason::DisjointValues);
    }
    // Same-address path: identical address function over the box, injective
    // and wrap-free, with the load sequenced first.
    if load.seq < store.seq {
        let levels = spec.levels.len();
        if let (Some(a), Some(b)) = (
            AffineForm::from_expr(&load.index, levels),
            AffineForm::from_expr(&store.index, levels),
        ) {
            let diff = AffineForm {
                coeffs: a.coeffs.iter().zip(&b.coeffs).map(|(x, y)| x - y).collect(),
                constant: a.constant - b.constant,
            };
            let (dlo, dhi) = form_range(&diff, bounds);
            let (alo, ahi) = form_range(&a, bounds);
            if dlo == 0 && dhi == 0 && alo >= 0 && ahi < len as i128 && form_injective(&a, bounds) {
                return Some(DischargeReason::SameIterationOrdered);
            }
        }
    }
    None
}

/// Discharges what value reasoning over the inclusive per-level `bounds`
/// can, returning the proven pairs.
pub fn discharge_pairs(
    spec: &KernelSpec,
    deps: &Dependences,
    pairs: &[AmbiguousPair],
    bounds: &[(Value, Value)],
) -> Vec<(AmbiguousPair, DischargeReason)> {
    let inv = analyze_within(spec, bounds);
    pairs
        .iter()
        .filter_map(|&p| discharge(spec, &inv, deps, p, bounds).map(|r| (p, r)))
        .collect()
}

/// The upgrade step over a box, given the invariants [`analyze_within`]
/// computed for it: every [`VerdictClass::MustAlias`] or
/// [`VerdictClass::Unknown`] verdict that value reasoning discharges becomes
/// a [`Proof::Invariant`] verdict (disjoint, or order-protected for the
/// same-address path). Proved verdicts are left as they are.
pub fn upgrade_verdicts(
    spec: &KernelSpec,
    deps: &mut Dependences,
    inv: &KernelInvariants,
    bounds: &[(Value, Value)],
) {
    for k in 0..deps.pairs.len() {
        if deps.verdicts[k].proof().is_some() {
            continue;
        }
        let Some(reason) = discharge(spec, inv, deps, deps.pairs[k], bounds) else {
            continue;
        };
        let proof = Proof::Invariant(reason);
        deps.verdicts[k].class = match reason {
            DischargeReason::SameIterationOrdered => VerdictClass::OrderProtected(proof),
            DischargeReason::DisjointValues | DischargeReason::DeadCode => {
                VerdictClass::Disjoint(proof)
            }
        };
    }
}

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
        let kind = match op.kind {
            MemOpKind::Load => "load",
            MemOpKind::Store => "store",
        };
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
    use prevv_ir::depend;
    use prevv_ir::parse::parse_kernel;

    fn spec(src: &str) -> KernelSpec {
        parse_kernel("t", src).expect("parses")
    }

    #[test]
    fn congruence_join_meet_disjoint() {
        let even = Congruence { modulus: 2, rem: 0 };
        let odd = Congruence { modulus: 2, rem: 1 };
        assert!(even.disjoint(&odd));
        assert_eq!(even.join(&odd), Congruence::TOP);
        let c3 = Congruence { modulus: 3, rem: 1 };
        let c2 = Congruence { modulus: 2, rem: 0 };
        let m = c3.meet(&c2).expect("compatible");
        assert_eq!(m.modulus, 6);
        assert_eq!(m.rem, 4);
        assert!(Congruence::singleton(5).disjoint(&even));
        assert!(!Congruence::singleton(4).disjoint(&even));
    }

    #[test]
    fn interval_transfer_is_sound_and_exactness_tracked() {
        let env = Env {
            vars: vec![AbsVal::range(0, 7, true)],
            arrays: vec![],
        };
        // 2*i + 1 over i in [0,7]: odd values 1..15, exact.
        let e = Expr::var(0).mul(Expr::lit(2)).add(Expr::lit(1));
        let v = eval(&e, &env);
        assert_eq!((v.iv.lo, v.iv.hi), (1, 15));
        assert_eq!((v.cg.modulus, v.cg.rem), (2, 1));
        assert!(v.exact);
        assert_eq!(
            v.enumerate(SET_LIMIT).unwrap(),
            vec![1, 3, 5, 7, 9, 11, 13, 15]
        );
        // i % 3 over a full window covers every residue.
        let r = eval(&Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(3)), &env);
        assert_eq!((r.iv.lo, r.iv.hi), (0, 2));
        assert!(r.exact);
        // i + i is NOT exact: the domain cannot see the correlation.
        let ii = eval(&Expr::var(0).add(Expr::var(0)), &env);
        assert!(!ii.exact);
        assert_eq!((ii.iv.lo, ii.iv.hi), (0, 14));
    }

    #[test]
    fn guard_refinement_narrows_and_detects_infeasible() {
        let env = Env {
            vars: vec![AbsVal::range(0, 7, true)],
            arrays: vec![],
        };
        // i % 2 == 0 refines the congruence.
        let g = Expr::bin(
            BinOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(2)),
            Expr::lit(0),
        );
        let r = refine(&env, &g).expect("feasible");
        assert_eq!((r.vars[0].cg.modulus, r.vars[0].cg.rem), (2, 0));
        assert_eq!((r.vars[0].iv.lo, r.vars[0].iv.hi), (0, 6));
        // i % 2 == 3 is infeasible.
        let g = Expr::bin(
            BinOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var(0), Expr::lit(2)),
            Expr::lit(3),
        );
        assert_eq!(guard_status(Some(&g), &env), GuardStatus::NeverTaken);
        // i > 100 is infeasible over [0,7].
        let g = Expr::bin(BinOp::Gt, Expr::var(0), Expr::lit(100));
        assert_eq!(guard_status(Some(&g), &env), GuardStatus::NeverTaken);
        // i < 4 narrows the interval.
        let g = Expr::bin(BinOp::Lt, Expr::var(0), Expr::lit(4));
        let r = refine(&env, &g).expect("feasible");
        assert_eq!((r.vars[0].iv.lo, r.vars[0].iv.hi), (0, 3));
        assert!(r.vars[0].exact);
    }

    #[test]
    fn fixpoint_widens_accumulators_without_diverging() {
        let s = spec("int a[4];\nfor (int i = 0; i < 64; ++i) { a[0] += 1; }");
        let inv = analyze_kernel(&s);
        // The accumulator climbs; widening must reach a fixpoint in a
        // handful of rounds rather than iterating 64 times. Once hi is
        // widened to MAX the next `+1` may wrap concretely, so the honest
        // fixpoint is full top — not `[0, MAX]`.
        assert_eq!(inv.env.arrays[0].val.iv.hi, Value::MAX);
        assert_eq!(inv.env.arrays[0].val.iv.lo, Value::MIN);
        assert!(!inv.env.arrays[0].store_free);
    }

    #[test]
    fn store_free_arrays_keep_exact_initializer_sets() {
        let s = spec(
            "int a[16];\nint b[4] = { 2, 5, 2, 7 };\n\
             for (int i = 0; i < 4; ++i) { a[b[i]] = i; }",
        );
        let inv = analyze_kernel(&s);
        assert!(inv.env.arrays[1].store_free);
        let idx = eval_exact_set(&s.body[0].index, &inv.env, &s).expect("exact");
        assert_eq!(idx, vec![2, 5, 7]);
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
    fn guard_parity_discharges_a_pair_banerjee_cannot() {
        // Store footprint = even cells, load footprint = odd cells; the
        // affine envelopes overlap, only the congruence separates them.
        let src = "int a[16];\nint s[16];\nfor (int i = 0; i < 16; ++i) {\n  \
                   if (i % 2 == 0) a[i] = i;\n  if (i % 2 == 1) s[i] = a[i];\n}\n";
        let s = spec(src);
        let deps = depend::analyze(&s);
        let bounds = hull_box(&s).expect("nonempty");
        let pairs: Vec<_> = deps
            .pairs
            .iter()
            .copied()
            .filter(|p| deps.ops[p.load].array.0 == 0)
            .collect();
        assert!(!pairs.is_empty(), "the a-pair must be conservative");
        let discharged = discharge_pairs(&s, &deps, &pairs, &bounds);
        assert_eq!(discharged.len(), pairs.len(), "{discharged:?}");
        assert!(discharged
            .iter()
            .all(|(_, r)| *r == DischargeReason::DisjointValues));
    }

    #[test]
    fn triangular_pair_discharges_inside_the_horizon_box_only() {
        let src = "int L[16] = { 1, 0, 0, 0, 2, 1, 0, 0, 3, 2, 1, 0, 4, 3, 2, 1 };\n\
                   int B[16] = { 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16 };\n\
                   for (int i = 0; i < 4; ++i) {\n  for (int j = 0; j < 4; ++j) {\n    \
                   for (int k = 0; k < i + 1; ++k) {\n      \
                   B[i * 4 + j] += L[i * 4 + k] * B[k * 4 + j];\n    }\n  }\n}\n";
        let s = spec(src);
        let deps = depend::analyze(&s);
        // The cross-statement pair: load B[k*4+j] vs store B[i*4+j].
        let pair = deps
            .pairs
            .iter()
            .copied()
            .find(|p| deps.ops[p.load].index != deps.ops[p.store].index)
            .expect("the k-pair is conservative");
        // Full space: a real cross-iteration RAW dependence exists — the
        // prover must stay silent.
        let full = hull_box(&s).expect("nonempty");
        assert!(discharge_pairs(&s, &deps, &[pair], &full).is_empty());
        // First-iterations box (i = 0, k = 0): load and store addresses
        // coincide per-iteration and the form is injective in j.
        let horizon = vec![(0, 0), (0, 3), (0, 0)];
        assert_eq!(
            discharge_pairs(&s, &deps, &[pair], &horizon),
            vec![(pair, DischargeReason::SameIterationOrdered)]
        );
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
