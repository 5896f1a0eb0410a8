//! The iteration source: the dataflow analogue of a loop nest's control
//! network.
//!
//! Dynamatic materializes each loop as a ring of control components; for
//! memory-disambiguation studies what matters is that one *iteration token
//! set* enters the pipeline per cycle (initiation interval 1 at the source)
//! in original program order, and that the source can be **rewound** when a
//! premature-value-validation squash replays iterations. `IterSource`
//! captures exactly that: it owns the precomputed iteration space (one row of
//! induction-variable values per flattened iteration) and emits each row on
//! its output channels, tagged with the flat iteration number. A rewind
//! re-issues the same iteration numbers; the engine's same-cycle flush has
//! already dropped every token they could be confused with.

use crate::component::{Component, Ports};
use crate::signal::{ChannelId, Signals};
use crate::token::{Token, Value};

/// Emits one row of values per iteration, in program order, with rewind
/// support for squash replay.
#[derive(Debug)]
pub struct IterSource {
    rows: Vec<Vec<Value>>,
    outputs: Vec<ChannelId>,
    pos: usize,
    sent: Vec<bool>,
}

impl IterSource {
    /// Creates a source that emits `rows[i][k]` on `outputs[k]` for each
    /// iteration `i`, tagged `iter = i`.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `outputs.len()`, or if
    /// `outputs` is empty.
    pub fn new(rows: Vec<Vec<Value>>, outputs: Vec<ChannelId>) -> Self {
        assert!(!outputs.is_empty(), "iteration source needs outputs");
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                outputs.len(),
                "row {i} width must match output count"
            );
        }
        let n = outputs.len();
        IterSource {
            rows,
            outputs,
            pos: 0,
            sent: vec![false; n],
        }
    }

    /// Has every iteration been fully issued?
    pub fn exhausted(&self) -> bool {
        self.pos >= self.rows.len()
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
        let row = &self.rows[self.pos];
        for (k, &out) in self.outputs.iter().enumerate() {
            if !self.sent[k] {
                sig.drive(out, Token::new(row[k], self.pos as u64));
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
            changed = true;
        }
        changed
    }

    fn flush(&mut self, from_iter: u64) {
        let from = from_iter as usize;
        if self.pos >= from {
            self.pos = from;
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

/// Builds the iteration-space rows for a (possibly triangular) loop nest.
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
}

/// Enumerates the full iteration space of a loop nest in program order,
/// returning one row of induction-variable values per iteration.
///
/// ```
/// use prevv_dataflow::components::{iteration_space, Bound, LoopLevel};
///
/// // for i in 0..3 { for j in i+1..3 { ... } }  — a triangular nest
/// let space = iteration_space(&[
///     LoopLevel::upto(3),
///     LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(3)),
/// ]);
/// assert_eq!(space, vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
/// ```
pub fn iteration_space(levels: &[LoopLevel]) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let mut current: Vec<Value> = Vec::with_capacity(levels.len());
    fn recurse(
        levels: &[LoopLevel],
        depth: usize,
        current: &mut Vec<Value>,
        rows: &mut Vec<Vec<Value>>,
    ) {
        if depth == levels.len() {
            rows.push(current.clone());
            return;
        }
        let lo = levels[depth].lo.resolve(current);
        let hi = levels[depth].hi.resolve(current);
        let mut v = lo;
        while v < hi {
            current.push(v);
            recurse(levels, depth + 1, current, rows);
            current.pop();
            v += 1;
        }
    }
    recurse(levels, 0, &mut current, &mut rows);
    rows
}

/// Counts the iterations of a loop nest without materializing the rows.
///
/// For a rectangular nest (all bounds [`Bound::Const`]) this is a product of
/// extents and runs in O(levels), so static analyses can size 10^6+-iteration
/// spaces cheaply; triangular nests fall back to a recursive count that still
/// avoids allocating one `Vec` per iteration.
pub fn count_iterations(levels: &[LoopLevel]) -> usize {
    let rectangular = levels
        .iter()
        .all(|l| matches!((l.lo, l.hi), (Bound::Const(_), Bound::Const(_))));
    if rectangular {
        return levels
            .iter()
            .map(|l| {
                let (lo, hi) = (l.lo.resolve(&[]), l.hi.resolve(&[]));
                (hi - lo).max(0) as usize
            })
            .product();
    }
    fn recurse(levels: &[LoopLevel], depth: usize, current: &mut Vec<Value>) -> usize {
        if depth == levels.len() {
            return 1;
        }
        let lo = levels[depth].lo.resolve(current);
        let hi = levels[depth].hi.resolve(current);
        let mut total = 0;
        let mut v = lo;
        while v < hi {
            current.push(v);
            total += recurse(levels, depth + 1, current);
            current.pop();
            v += 1;
        }
        total
    }
    recurse(levels, 0, &mut Vec::with_capacity(levels.len()))
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
        let space = iteration_space(&[
            LoopLevel::upto(4),
            LoopLevel::new(Bound::OuterPlus(0, 0), Bound::Const(4)),
        ]);
        // i in 0..4, j in i..4: 4+3+2+1 = 10 iterations
        assert_eq!(space.len(), 10);
        assert_eq!(space[0], vec![0, 0]);
        assert_eq!(space[9], vec![3, 3]);
    }

    #[test]
    fn rectangular_three_level_space() {
        let space = iteration_space(&[LoopLevel::upto(2), LoopLevel::upto(3), LoopLevel::upto(2)]);
        assert_eq!(space.len(), 12);
        assert_eq!(space[0], vec![0, 0, 0]);
        assert_eq!(space[11], vec![1, 2, 1]);
    }

    #[test]
    fn count_matches_materialized_space() {
        let nests: &[&[LoopLevel]] = &[
            &[LoopLevel::upto(4)],
            &[LoopLevel::upto(2), LoopLevel::upto(3), LoopLevel::upto(2)],
            &[
                LoopLevel::upto(4),
                LoopLevel::new(Bound::OuterPlus(0, 1), Bound::Const(4)),
            ],
            &[LoopLevel::upto(0), LoopLevel::upto(5)],
        ];
        for nest in nests {
            assert_eq!(count_iterations(nest), iteration_space(nest).len());
        }
    }

    #[test]
    fn count_handles_huge_rectangular_spaces() {
        let nest = [
            LoopLevel::upto(1_000),
            LoopLevel::upto(1_000),
            LoopLevel::upto(1_000),
        ];
        assert_eq!(count_iterations(&nest), 1_000_000_000);
    }

    #[test]
    fn empty_space_is_immediately_idle() {
        let src = IterSource::new(vec![], vec![ch(0)]);
        assert!(src.is_idle());
        assert_eq!(src.occupancy(), 0);
    }
}
