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

use std::cell::Cell;
use std::rc::Rc;

/// Shared squash mailbox. Cheap to clone; all clones observe the same state.
///
/// Both fields are plain [`Cell`]s: the engine polls [`take_pending`] every
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
    pub fn post(&self, from_iter: u64) {
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
    fn clones_share_state() {
        let a = SquashBus::new();
        let b = a.clone();
        b.post(2);
        assert_eq!(a.take_pending(), Some(2));
        assert_eq!(b.squash_count(), 1);
    }
}
