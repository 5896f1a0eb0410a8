//! Squash coordination between a disambiguation controller and the engine.
//!
//! When premature value validation detects that a later-iteration operation
//! consumed stale data, the *entire pipeline behind it* must be flushed and
//! those iterations replayed (paper §IV-A). In hardware this is a broadcast
//! squash wire; in the simulator it is a small shared mailbox: the memory
//! controller posts a squash request during `commit`, and the engine applies
//! it at the end of the same cycle by flushing every component, which also
//! rewinds the iteration source. No token of a squashed iteration outlives
//! that flush, so replayed tokens need no mark beyond their iteration.
//!
//! The bus also carries the *squash floor*: the lowest iteration a squash
//! may still restart from. The controller raises it as iterations become
//! final (PreVV: to its retirement frontier, paper §IV-B), and the iteration
//! source keeps only the rows at or above it for replay, so the source's
//! memory is bounded by the in-flight window instead of the trip count.

use std::cell::Cell;
use std::rc::Rc;

/// Shared squash mailbox. Cheap to clone; all clones observe the same state.
///
/// Every field is a plain [`Cell`]: the engine polls [`take_pending`] every
/// cycle, so the mailbox sits on the simulation hot path — `Cell` reads
/// avoid `RefCell`'s borrow-flag traffic (and its reentrancy panics)
/// entirely.
///
/// [`take_pending`]: SquashBus::take_pending
#[derive(Debug, Clone, Default)]
pub struct SquashBus {
    inner: Rc<BusState>,
}

#[derive(Debug, Default)]
struct BusState {
    pending: Cell<Option<u64>>,
    squashes: Cell<u64>,
    /// No squash restarts below this iteration (0 until a controller
    /// raises it).
    floor: Cell<u64>,
    /// Most rows an iteration source on this bus has held at once.
    window_high_water: Cell<usize>,
}

impl SquashBus {
    /// Creates a bus with no pending squash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a squash restarting execution from `from_iter`.
    ///
    /// If a squash is already pending this cycle, the earlier restart point
    /// wins (a single flush from the minimum faulting iteration subsumes
    /// both).
    ///
    /// `from_iter` must be at or above the [floor](SquashBus::floor): the
    /// iteration source no longer holds the rows below it.
    pub fn post(&self, from_iter: u64) {
        debug_assert!(
            from_iter >= self.floor(),
            "squash from iteration {from_iter} below the squash floor {}",
            self.floor()
        );
        let cur = self.inner.pending.get();
        self.inner.pending.set(Some(match cur {
            Some(cur) => cur.min(from_iter),
            None => from_iter,
        }));
    }

    /// Engine side: takes the pending squash, if any, bumping the squash
    /// count. Returns the iteration to restart from.
    pub fn take_pending(&self) -> Option<u64> {
        let from = self.inner.pending.take()?;
        self.inner.squashes.set(self.inner.squashes.get() + 1);
        Some(from)
    }

    /// Total number of squashes applied so far.
    pub fn squash_count(&self) -> u64 {
        self.inner.squashes.get()
    }

    /// Promises that no squash will restart below `iter`: every iteration
    /// before it is final. The floor only rises; a lower `iter` is ignored.
    /// Controllers that never squash raise it to `u64::MAX` once.
    pub fn raise_floor(&self, iter: u64) {
        self.inner.floor.set(self.floor().max(iter));
    }

    /// The lowest iteration a squash may still restart from.
    pub fn floor(&self) -> u64 {
        self.inner.floor.get()
    }

    /// Records that an iteration source on this bus holds `rows` rows.
    pub(crate) fn note_window(&self, rows: usize) {
        self.inner
            .window_high_water
            .set(self.window_high_water().max(rows));
    }

    /// The most rows an iteration source on this bus has held for replay
    /// at once, the row being issued included (0 for sources built from an
    /// explicit row table, which hold every row from the start).
    pub fn window_high_water(&self) -> usize {
        self.inner.window_high_water.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_take_round_trip() {
        let bus = SquashBus::new();
        assert_eq!(bus.take_pending(), None);
        bus.post(7);
        assert_eq!(bus.take_pending(), Some(7));
        assert_eq!(bus.squash_count(), 1);
        assert_eq!(bus.take_pending(), None, "taking empties the mailbox");
        assert_eq!(bus.squash_count(), 1, "an empty take counts nothing");
    }

    #[test]
    fn earlier_restart_wins_when_double_posted() {
        let bus = SquashBus::new();
        bus.post(9);
        bus.post(4);
        bus.post(12);
        assert_eq!(bus.take_pending(), Some(4));
    }

    #[test]
    fn the_floor_only_rises() {
        let bus = SquashBus::new();
        assert_eq!(bus.floor(), 0);
        bus.raise_floor(5);
        bus.raise_floor(3);
        assert_eq!(bus.floor(), 5);
        bus.post(5);
        assert_eq!(bus.take_pending(), Some(5));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the squash floor")]
    fn a_squash_below_the_floor_is_a_bug() {
        let bus = SquashBus::new();
        bus.raise_floor(4);
        bus.post(3);
    }

    #[test]
    fn clones_share_state() {
        let a = SquashBus::new();
        let b = a.clone();
        b.post(2);
        assert_eq!(a.take_pending(), Some(2));
        assert_eq!(b.squash_count(), 1);
    }
}
