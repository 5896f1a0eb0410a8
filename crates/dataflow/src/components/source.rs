//! The iteration source: the dataflow analogue of a loop nest's control
//! network.
//!
//! Dynamatic materializes each loop as a ring of control components; for
//! memory-disambiguation studies what matters is that one *iteration token
//! set* enters the pipeline per cycle (initiation interval 1 at the source)
//! in original program order, and that the source can be **rewound** when a
//! premature-value-validation squash replays iterations. `IterSource`
//! captures exactly that. It walks the loop nest with an odometer
//! ([`IterSpace`]) and emits each row of induction-variable values on its
//! output channels, tagged with the flat iteration number. It keeps a replay
//! window: the rows it has emitted at or above the [`SquashBus`]'s squash
//! floor. A rewind re-issues rows from that window under the same iteration
//! numbers; the engine's same-cycle flush has already dropped every token
//! they could be confused with. Since a squash never restarts below the
//! floor, the source's memory is bounded by the in-flight window, never by
//! the trip count.

use std::collections::VecDeque;

use crate::component::{Component, Ports};
use crate::signal::{ChannelId, Signals};
use crate::squash::SquashBus;
use crate::token::{Token, Value};

/// Emits one row of values per iteration, in program order, with rewind
/// support for squash replay.
#[derive(Debug)]
pub struct IterSource {
    /// The rows not generated yet, for a loop-nest source; `None` for a
    /// table source, whose rows all sit in the window from the start.
    nest: Option<Nest>,
    outputs: Vec<ChannelId>,
    /// Rows `base..end`, flat: `outputs.len()` values per row.
    window: VecDeque<Value>,
    base: u64,
    end: u64,
    /// The iteration being issued.
    pos: u64,
    sent: Vec<bool>,
}

#[derive(Debug)]
struct Nest {
    space: IterSpace,
    /// Carries the squash floor that bounds the window.
    bus: SquashBus,
}

impl IterSource {
    /// Creates a source that emits `rows[i][k]` on `outputs[k]` for each
    /// iteration `i`, tagged `iter = i`. It holds every row for the whole
    /// run, so it suits hand-built netlists; synthesis uses
    /// [`IterSource::nest`].
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `outputs.len()`, or if
    /// `outputs` is empty.
    pub fn new(rows: Vec<Vec<Value>>, outputs: Vec<ChannelId>) -> Self {
        assert!(!outputs.is_empty(), "iteration source needs outputs");
        let mut window = VecDeque::with_capacity(rows.len() * outputs.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                outputs.len(),
                "row {i} width must match output count"
            );
            window.extend(r);
        }
        let n = outputs.len();
        IterSource {
            nest: None,
            outputs,
            window,
            base: 0,
            end: rows.len() as u64,
            pos: 0,
            sent: vec![false; n],
        }
    }

    /// Creates a source that walks the loop nest `levels` in program order.
    /// For iteration `i` with induction-variable values `row`, it emits `i`
    /// on `outputs[0]` (the allocation stream) and `row[l]` on
    /// `outputs[l + 1]`.
    ///
    /// Rows are generated as they are issued. A row stays in the replay
    /// window until it is below both the row being issued and `bus`'s
    /// squash floor ([`SquashBus::raise_floor`]); the window's size is
    /// reported to [`SquashBus::window_high_water`].
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len()` is not `levels.len() + 1`.
    pub fn nest(levels: &[LoopLevel], outputs: Vec<ChannelId>, bus: SquashBus) -> Self {
        assert_eq!(
            outputs.len(),
            levels.len() + 1,
            "a loop-nest source has one output per level plus the iteration number"
        );
        let n = outputs.len();
        let mut src = IterSource {
            nest: Some(Nest {
                space: IterSpace::new(levels),
                bus,
            }),
            outputs,
            window: VecDeque::new(),
            base: 0,
            end: 0,
            pos: 0,
            sent: vec![false; n],
        };
        src.refill();
        src
    }

    /// Has every iteration been fully issued?
    pub fn exhausted(&self) -> bool {
        self.pos >= self.end
    }

    /// Drops the rows no squash can replay any more, then generates the row
    /// to issue next if the window does not hold it yet.
    fn refill(&mut self) {
        let Some(nest) = &mut self.nest else {
            return;
        };
        let width = self.outputs.len();
        let keep = nest.bus.floor().min(self.pos);
        if keep > self.base {
            let rows = (keep - self.base) as usize;
            self.window.drain(..rows * width);
            self.base = keep;
        }
        if self.pos == self.end {
            if let Some(row) = nest.space.next_row() {
                self.window.push_back(self.end as Value);
                self.window.extend(row);
                self.end += 1;
                nest.bus.note_window((self.end - self.base) as usize);
            }
        }
    }
}

impl Component for IterSource {
    fn type_name(&self) -> &'static str {
        "iter_source"
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![], self.outputs.clone())
    }

    fn eval(&self, sig: &mut Signals) {
        if self.exhausted() {
            return;
        }
        let at = (self.pos - self.base) as usize * self.outputs.len();
        for (k, &out) in self.outputs.iter().enumerate() {
            if !self.sent[k] {
                sig.drive(out, Token::new(self.window[at + k], self.pos));
            }
        }
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        if self.exhausted() {
            return false;
        }
        let mut all = true;
        let mut changed = false;
        for (k, &out) in self.outputs.iter().enumerate() {
            if !self.sent[k] && sig.fired(out) {
                self.sent[k] = true;
                changed = true;
            }
            all &= self.sent[k];
        }
        if all {
            self.pos += 1;
            self.sent.iter_mut().for_each(|s| *s = false);
            self.refill();
            changed = true;
        }
        changed
    }

    fn flush(&mut self, from_iter: u64) {
        if self.pos >= from_iter {
            debug_assert!(
                from_iter >= self.base,
                "rewind to iteration {from_iter} below the replay window (starts at {})",
                self.base
            );
            self.pos = from_iter;
            self.sent.iter_mut().for_each(|s| *s = false);
        }
    }

    fn is_idle(&self) -> bool {
        self.exhausted()
    }

    fn occupancy(&self) -> usize {
        usize::from(!self.exhausted())
    }
}

/// One loop bound.
///
/// Each level has an inclusive lower and exclusive upper bound; bounds may
/// reference outer induction variables (`Bound::OuterPlus`), which is how
/// triangular kernels (gaussian elimination, triangular matrix product)
/// express `for j in i+1..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// A compile-time constant bound.
    Const(Value),
    /// `outer[level] + offset`, referencing an enclosing loop's variable.
    OuterPlus(usize, Value),
}

impl Bound {
    fn resolve(self, outer: &[Value]) -> Value {
        match self {
            Bound::Const(c) => c,
            Bound::OuterPlus(level, off) => outer[level] + off,
        }
    }

    /// [`Bound::resolve`], or `None` when the referenced level does not
    /// enclose this one or the sum overflows.
    fn checked_resolve(self, outer: &[Value]) -> Option<Value> {
        match self {
            Bound::Const(c) => Some(c),
            Bound::OuterPlus(level, off) => outer.get(level)?.checked_add(off),
        }
    }
}

/// One loop level: `for v in lo..hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopLevel {
    /// Inclusive lower bound.
    pub lo: Bound,
    /// Exclusive upper bound.
    pub hi: Bound,
}

impl LoopLevel {
    /// A rectangular level `0..n`.
    pub fn upto(n: Value) -> Self {
        LoopLevel {
            lo: Bound::Const(0),
            hi: Bound::Const(n),
        }
    }

    /// An explicit-bounds level.
    pub fn new(lo: Bound, hi: Bound) -> Self {
        LoopLevel { lo, hi }
    }

    /// `max(0, hi − lo)` under the enclosing values `outer`, or `None` when
    /// a bound cannot be resolved.
    fn extent(&self, outer: &[Value]) -> Option<usize> {
        let (lo, hi) = (
            self.lo.checked_resolve(outer)?,
            self.hi.checked_resolve(outer)?,
        );
        if hi <= lo {
            return Some(0);
        }
        usize::try_from(hi.abs_diff(lo)).ok()
    }
}

/// The iteration space of a loop nest, enumerated lazily in program order.
///
/// An odometer over the levels: the innermost level steps first, and a level
/// that reaches its upper bound steps the level enclosing it and re-seats
/// itself at its (possibly `OuterPlus`) lower bound. Empty ranges are
/// skipped at any depth, and a run of values on which a deeper level is
/// empty is jumped over, not stepped (a bound is affine in one enclosing
/// value, so where a level is empty has a closed form). A nest of zero
/// levels has one, empty, row.
/// [`IterSpace::next_row`] lends each row without allocating; the
/// [`Iterator`] impl copies rows out, for callers that want `Vec`s.
///
/// ```
/// use prevv_dataflow::components::{Bound, IterSpace, LoopLevel};
///
/// // for i in 0..3 { for j in i+1..3 { ... } }  — a triangular nest
/// let space: Vec<Vec<i64>> = IterSpace::new(&[
///     LoopLevel::upto(3),
///     LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(3)),
/// ])
/// .collect();
/// assert_eq!(space, vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
/// ```
#[derive(Debug, Clone)]
pub struct IterSpace {
    levels: Vec<LoopLevel>,
    row: Vec<Value>,
    /// Per level, the exclusive end of its live range under the current
    /// prefix.
    end: Vec<Value>,
    state: Odometer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Odometer {
    Fresh,
    Running,
    Done,
}

impl IterSpace {
    /// An enumerator positioned before the first row of `levels`.
    pub fn new(levels: &[LoopLevel]) -> Self {
        IterSpace {
            levels: levels.to_vec(),
            row: vec![0; levels.len()],
            end: vec![0; levels.len()],
            state: Odometer::Fresh,
        }
    }

    /// Advances to the next row and lends it, or returns `None` once the
    /// space is exhausted.
    pub fn next_row(&mut self) -> Option<&[Value]> {
        let more = match self.state {
            Odometer::Fresh => self.settle(0, false),
            Odometer::Running => self.settle(self.levels.len(), true),
            Odometer::Done => false,
        };
        self.state = if more {
            Odometer::Running
        } else {
            Odometer::Done
        };
        more.then_some(&self.row[..])
    }

    /// Levels `..depth` hold a valid prefix. When `step`, steps level
    /// `depth − 1` first; then seats every level from the stepped one
    /// inward at the start of its live range, stepping an enclosing level
    /// whenever a level's range is empty or run out. Returns false when the
    /// outermost level runs out.
    fn settle(&mut self, mut depth: usize, mut step: bool) -> bool {
        loop {
            if step {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
                self.row[depth] += 1;
            } else {
                if depth == self.levels.len() {
                    return true;
                }
                let outer = &self.row[..depth];
                let level = self.levels[depth];
                let (lo, hi) = (level.lo.resolve(outer), level.hi.resolve(outer));
                (self.row[depth], self.end[depth]) = live_range(&self.levels, outer, lo, hi);
            }
            step = self.row[depth] >= self.end[depth];
            if !step {
                depth += 1;
            }
        }
    }
}

impl Iterator for IterSpace {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        self.next_row().map(<[Value]>::to_vec)
    }
}

/// Counts the iterations of a loop nest without enumerating it, or returns
/// `None` when the count overflows, a bound overflows, or a bound refers to
/// a level that does not enclose it.
///
/// The innermost level closes as `max(0, hi − lo)`, so only the enclosing
/// levels of a triangular nest are stepped, and only over the values on
/// which the deeper levels are non-empty: `for i in 0..n { for j in
/// i+1..n }` costs `n` steps, not `n²/2`, and `for i in 0..10¹¹ { for j in
/// i..4 }` costs 4. A rectangular nest (all bounds [`Bound::Const`]) is a
/// product of extents, in O(levels).
pub fn count_iterations(levels: &[LoopLevel]) -> Option<usize> {
    let rectangular = levels
        .iter()
        .all(|l| matches!((l.lo, l.hi), (Bound::Const(_), Bound::Const(_))));
    if rectangular {
        // An empty level makes the count 0 whatever the other extents.
        let mut product = Some(1usize);
        for level in levels {
            let extent = level.extent(&[])?;
            if extent == 0 {
                return Some(0);
            }
            product = product.and_then(|p| p.checked_mul(extent));
        }
        return product;
    }
    fn recurse(levels: &[LoopLevel], outer: &mut Vec<Value>) -> Option<usize> {
        let level = levels[outer.len()];
        if outer.len() + 1 == levels.len() {
            return level.extent(outer);
        }
        let lo = level.lo.checked_resolve(outer)?;
        let hi = level.hi.checked_resolve(outer)?;
        let (lo, hi) = live_range(levels, outer, lo, hi);
        let mut total: usize = 0;
        for v in lo..hi {
            outer.push(v);
            total = total.checked_add(recurse(levels, outer)?)?;
            outer.pop();
        }
        Some(total)
    }
    recurse(levels, &mut Vec::with_capacity(levels.len()))
}

/// The values `lo..hi` of level `outer.len()`, under the enclosing values
/// `outer`, clamped to those on which no deeper level is empty whose bounds
/// read only this level and its enclosing ones. Values outside lead to no
/// row. Such a bound is affine in this level's value `v` (`c` or `v + c`),
/// so each of those levels is non-empty on one interval of `v`, in closed
/// form: `v + a < b` below `b − a`, `a < v + b` above `a − b`. Returns an
/// empty range (`lo == hi`) when no value is live.
fn live_range(levels: &[LoopLevel], outer: &[Value], lo: Value, hi: Value) -> (Value, Value) {
    let d = outer.len();
    // A deeper bound as (reads v, constant part), or None when it reads a
    // level between this one and its own.
    let affine = |b: Bound| match b {
        Bound::Const(c) => Some((false, i128::from(c))),
        Bound::OuterPlus(k, off) if k < d => Some((false, i128::from(outer[k]) + i128::from(off))),
        Bound::OuterPlus(k, off) if k == d => Some((true, i128::from(off))),
        Bound::OuterPlus(..) => None,
    };
    let (mut first, mut end) = (i128::from(lo), i128::from(hi));
    for level in &levels[d + 1..] {
        let (Some((lo_v, a)), Some((hi_v, b))) = (affine(level.lo), affine(level.hi)) else {
            continue;
        };
        match (lo_v, hi_v) {
            (true, false) => end = end.min(b - a),
            (false, true) => first = first.max(a - b + 1),
            _ if a >= b => end = first,
            _ => {}
        }
    }
    if first >= end {
        return (lo, lo);
    }
    // Both lie within `lo..=hi` now.
    (first as Value, end as Value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId(i)
    }

    fn one_cycle(src: &mut IterSource, ready: &[bool]) -> Vec<Option<Token>> {
        let mut s = Signals::new(ready.len());
        for (i, &r) in ready.iter().enumerate() {
            if r {
                s.accept(ch(i as u32));
            }
        }
        for _ in 0..4 {
            src.eval(&mut s);
            if !s.take_changed() {
                break;
            }
        }
        src.eval(&mut s);
        let outs = (0..ready.len()).map(|i| s.taken(ch(i as u32))).collect();
        src.commit(&s);
        outs
    }

    #[test]
    fn emits_rows_in_order() {
        let mut src = IterSource::new(vec![vec![10], vec![20], vec![30]], vec![ch(0)]);
        let a = one_cycle(&mut src, &[true]);
        let b = one_cycle(&mut src, &[true]);
        assert_eq!(a[0], Some(Token::new(10, 0)));
        assert_eq!(b[0], Some(Token::new(20, 1)));
        assert!(!src.exhausted());
        one_cycle(&mut src, &[true]);
        assert!(src.exhausted());
        assert!(src.is_idle());
    }

    #[test]
    fn partial_acceptance_holds_iteration() {
        let mut src = IterSource::new(vec![vec![1, 2]], vec![ch(0), ch(1)]);
        let outs = one_cycle(&mut src, &[true, false]);
        assert_eq!(outs[0], Some(Token::new(1, 0)));
        assert_eq!(outs[1], None);
        assert!(!src.exhausted(), "iteration not complete yet");
        let outs = one_cycle(&mut src, &[false, true]);
        assert_eq!(outs[0], None, "already-sent output stays quiet");
        assert_eq!(outs[1], Some(Token::new(2, 0)));
        assert!(src.exhausted());
    }

    #[test]
    fn rewind_replays_with_new_epoch() {
        let mut src = IterSource::new((0..5).map(|i| vec![10 * i]).collect(), vec![ch(0)]);
        for _ in 0..4 {
            one_cycle(&mut src, &[true]);
        }
        // A squash from iteration 2 rewinds the source, which re-issues
        // iteration 2's row under the same iteration number.
        src.flush(2);
        assert_eq!(one_cycle(&mut src, &[true])[0], Some(Token::new(20, 2)));
        assert_eq!(one_cycle(&mut src, &[true])[0], Some(Token::new(30, 3)));
    }

    #[test]
    fn rewind_beyond_position_is_noop() {
        let mut src = IterSource::new((0..5).map(|i| vec![i]).collect(), vec![ch(0)]);
        one_cycle(&mut src, &[true]);
        src.flush(4); // haven't got there yet
        assert_eq!(one_cycle(&mut src, &[true])[0], Some(Token::new(1, 1)));
    }

    #[test]
    fn triangular_iteration_space() {
        let space: Vec<Vec<Value>> = IterSpace::new(&[
            LoopLevel::upto(4),
            LoopLevel::new(Bound::OuterPlus(0, 0), Bound::Const(4)),
        ])
        .collect();
        // i in 0..4, j in i..4: 4+3+2+1 = 10 iterations
        assert_eq!(space.len(), 10);
        assert_eq!(space[0], vec![0, 0]);
        assert_eq!(space[9], vec![3, 3]);
    }

    #[test]
    fn rectangular_three_level_space() {
        let space: Vec<Vec<Value>> =
            IterSpace::new(&[LoopLevel::upto(2), LoopLevel::upto(3), LoopLevel::upto(2)]).collect();
        assert_eq!(space.len(), 12);
        assert_eq!(space[0], vec![0, 0, 0]);
        assert_eq!(space[11], vec![1, 2, 1]);
    }

    #[test]
    fn count_matches_materialized_space() {
        let nests: &[&[LoopLevel]] = &[
            &[],
            &[LoopLevel::upto(4)],
            &[LoopLevel::upto(2), LoopLevel::upto(3), LoopLevel::upto(2)],
            &[
                LoopLevel::upto(4),
                LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(4)),
            ],
            &[LoopLevel::upto(0), LoopLevel::upto(5)],
            &[
                LoopLevel::upto(3),
                LoopLevel::new(Bound::Const(2), Bound::OuterPlus(0, 0)),
                LoopLevel::upto(2),
            ],
        ];
        for nest in nests {
            assert_eq!(count_iterations(nest), Some(IterSpace::new(nest).count()));
        }
    }

    #[test]
    fn count_handles_huge_rectangular_spaces() {
        let nest = [
            LoopLevel::upto(1_000),
            LoopLevel::upto(1_000),
            LoopLevel::upto(1_000),
        ];
        assert_eq!(count_iterations(&nest), Some(1_000_000_000));
    }

    #[test]
    fn count_closes_the_innermost_triangular_level() {
        // 10^5 outer steps, 4,999,950,000 points: stepping every point
        // would take seconds.
        let nest = [
            LoopLevel::upto(100_000),
            LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(100_000)),
        ];
        assert_eq!(count_iterations(&nest), Some(4_999_950_000));
    }

    #[test]
    fn empty_inner_ranges_are_jumped_over() {
        // for i in 0..10¹¹ { for j in i..4 }: rows only while i < 4. The
        // third nest's innermost level reads level 0 past a rectangular one.
        let far = LoopLevel::upto(100_000_000_000);
        let tail = LoopLevel::new(Bound::OuterPlus(0, 0), Bound::Const(4));
        let head = LoopLevel::new(Bound::Const(99_999_999_998), Bound::OuterPlus(0, 0));
        for (nest, count) in [
            (vec![far, tail], 10),
            (vec![far, head], 1),
            (vec![far, LoopLevel::upto(2), tail], 20),
            (vec![far, LoopLevel::upto(0)], 0),
        ] {
            assert_eq!(count_iterations(&nest), Some(count), "{nest:?}");
            assert_eq!(IterSpace::new(&nest).count(), count, "{nest:?}");
        }
    }

    #[test]
    fn count_reports_overflow() {
        let huge = LoopLevel::upto(10_000_000_000);
        assert_eq!(count_iterations(&[huge, huge]), None);
        // An empty level makes the product 0 whatever the other extents.
        assert_eq!(count_iterations(&[huge, huge, LoopLevel::upto(0)]), Some(0));
        let wide = LoopLevel::new(Bound::Const(Value::MIN), Bound::Const(Value::MAX));
        assert_eq!(count_iterations(&[wide]), Some(u64::MAX as usize));
        let shifted = LoopLevel::new(Bound::Const(0), Bound::OuterPlus(0, Value::MAX));
        assert_eq!(count_iterations(&[LoopLevel::upto(2), shifted]), None);
        let not_enclosing = LoopLevel::new(Bound::OuterPlus(1, 0), Bound::Const(4));
        assert_eq!(count_iterations(&[LoopLevel::upto(2), not_enclosing]), None);
    }

    #[test]
    fn zero_levels_have_one_empty_row() {
        let mut space = IterSpace::new(&[]);
        assert_eq!(space.next_row(), Some(&[][..]));
        assert_eq!(space.next_row(), None);
        assert_eq!(space.next_row(), None);
    }

    #[test]
    fn the_window_holds_only_rows_at_or_above_the_floor() {
        let bus = SquashBus::new();
        bus.raise_floor(u64::MAX);
        let mut src = IterSource::nest(&[LoopLevel::upto(100)], vec![ch(0), ch(1)], bus.clone());
        for _ in 0..100 {
            one_cycle(&mut src, &[true, true]);
        }
        assert!(src.exhausted());
        assert_eq!(bus.window_high_water(), 1, "only the row being issued");
    }

    #[test]
    fn empty_space_is_immediately_idle() {
        let src = IterSource::new(vec![], vec![ch(0)]);
        assert!(src.is_idle());
        assert_eq!(src.occupancy(), 0);
    }
}
