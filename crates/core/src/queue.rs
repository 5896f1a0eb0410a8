//! The premature queue (paper §IV-B, Fig. 4).
//!
//! A circular buffer of [`PrematureRecord`]s with a head pointer (earliest
//! stored operation) and a tail pointer (most recently stored operation).
//! `depth_q` bounds its capacity: a full queue backpressures the arbiter,
//! which in turn stalls the memory ports (paper Fig. 4c). Unlike the LSQ it
//! replaces, the queue needs **no associative search hardware** — the
//! arbiter walks it sequentially — which is where the LUT savings of
//! Tables I/II come from.

use crate::record::PrematureRecord;
use std::collections::VecDeque;

/// Occupancy states of the circular queue, matching the paper's Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueState {
    /// Empty or partially filled without wrap-around: head <= tail
    /// (Fig. 4a).
    Normal,
    /// Partially filled with wrap-around: tail has cycled past the end of
    /// the storage (Fig. 4b).
    WrapAround,
    /// Full: the queue must stall the arbiter (Fig. 4c).
    Full,
}

/// The premature queue.
#[derive(Debug)]
pub struct PrematureQueue {
    slots: VecDeque<PrematureRecord>,
    depth: usize,
    /// Monotone count of pushes, used to derive the physical head/tail
    /// pointer positions of the circular implementation.
    pushes: u64,
    high_water: usize,
}

impl Clone for PrematureQueue {
    fn clone(&self) -> Self {
        PrematureQueue {
            slots: self.slots.clone(),
            depth: self.depth,
            pushes: self.pushes,
            high_water: self.high_water,
        }
    }

    /// Reuses the existing slot storage: the model checker assigns states
    /// into a scratch buffer millions of times, and the derived fallback
    /// (`*self = source.clone()`) would reallocate the ring on every one.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.depth = source.depth;
        self.pushes = source.pushes;
        self.high_water = source.high_water;
    }
}

impl PrematureQueue {
    /// Creates a queue of capacity `depth` (the paper's `depth_q`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "premature queue depth must be positive");
        PrematureQueue {
            slots: VecDeque::with_capacity(depth),
            depth,
            pushes: 0,
            high_water: 0,
        }
    }

    /// Configured capacity (`depth_q`).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Records currently stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when the queue cannot accept another record.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.depth
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.depth - self.slots.len()
    }

    /// Physical position the tail pointer would have in the circular
    /// implementation.
    pub fn tail_pos(&self) -> usize {
        (self.pushes % self.depth as u64) as usize
    }

    /// Physical position the head pointer would have.
    pub fn head_pos(&self) -> usize {
        (self.tail_pos() + self.depth - self.slots.len()) % self.depth
    }

    /// The occupancy state of Fig. 4.
    pub fn state(&self) -> QueueState {
        if self.is_full() {
            QueueState::Full
        } else if self.head_pos() + self.slots.len() > self.depth {
            QueueState::WrapAround
        } else {
            QueueState::Normal
        }
    }

    /// Appends a record at the tail.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; callers must check [`is_full`] first
    /// (the hardware stalls instead).
    ///
    /// [`is_full`]: PrematureQueue::is_full
    pub fn push(&mut self, record: PrematureRecord) {
        assert!(!self.is_full(), "premature queue overflow");
        self.slots.push_back(record);
        self.pushes += 1;
        self.high_water = self.high_water.max(self.slots.len());
    }

    /// The record at the head (earliest stored), if any.
    pub fn head(&self) -> Option<&PrematureRecord> {
        self.slots.front()
    }

    /// Removes and returns the head record.
    pub fn pop_head(&mut self) -> Option<PrematureRecord> {
        self.slots.pop_front()
    }

    /// Removes up to `budget` records satisfying `eligible`, scanning from
    /// the head (a *collapsing* FIFO, like LSQ deallocation). Strict
    /// head-only retirement would deadlock when squash-replay arrivals
    /// interleave iterations: a young record at the head can block retirable
    /// older records behind it while the full queue blocks the young
    /// iteration's remaining arrivals. Returns the number removed.
    pub fn retire_if(
        &mut self,
        mut eligible: impl FnMut(&PrematureRecord) -> bool,
        budget: usize,
    ) -> usize {
        let mut removed = 0;
        let mut i = 0;
        while i < self.slots.len() && removed < budget {
            if eligible(&self.slots[i]) {
                self.slots.remove(i);
                removed += 1;
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Iterates head to tail — the arbiter's validation walk.
    pub fn iter(&self) -> impl Iterator<Item = &PrematureRecord> {
        self.slots.iter()
    }

    /// Mutable iteration (commit marking).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut PrematureRecord> {
        self.slots.iter_mut()
    }

    /// Drops all records of iterations `>= from_iter` (squash flush).
    /// Committed stores are never dropped — the squash controller
    /// guarantees squashes only target iterations newer than any commit.
    pub fn flush(&mut self, from_iter: u64) {
        debug_assert!(
            self.slots
                .iter()
                .all(|r| !(r.committed && r.iter >= from_iter)),
            "squash must never reach a committed store"
        );
        self.slots.retain(|r| r.iter < from_iter);
    }

    /// Maximum occupancy ever reached (for the sizing experiments).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prevv_ir::MemOpKind;

    fn rec(iter: u64, seq: u32) -> PrematureRecord {
        PrematureRecord::real(0, MemOpKind::Load, iter, seq, 0, 0)
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut q = PrematureQueue::new(4);
        q.push(rec(0, 0));
        q.push(rec(1, 0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_head().map(|r| r.iter), Some(0));
        assert_eq!(q.pop_head().map(|r| r.iter), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn full_state_matches_fig4c() {
        let mut q = PrematureQueue::new(2);
        assert_eq!(q.state(), QueueState::Normal);
        q.push(rec(0, 0));
        q.push(rec(1, 0));
        assert!(q.is_full());
        assert_eq!(q.state(), QueueState::Full);
        assert_eq!(q.free(), 0);
    }

    #[test]
    fn wrap_around_state_matches_fig4b() {
        let mut q = PrematureQueue::new(4);
        for i in 0..3 {
            q.push(rec(i, 0));
        }
        q.pop_head();
        q.pop_head();
        // head at position 2, two pushes wrap past the end
        q.push(rec(3, 0));
        q.push(rec(4, 0));
        assert_eq!(q.state(), QueueState::WrapAround);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = PrematureQueue::new(1);
        q.push(rec(0, 0));
        q.push(rec(1, 0));
    }

    #[test]
    fn flush_drops_squashed_iterations_only() {
        let mut q = PrematureQueue::new(8);
        for i in 0..6 {
            q.push(rec(i, 0));
        }
        q.flush(3);
        assert_eq!(q.len(), 3);
        assert!(q.iter().all(|r| r.iter < 3));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = PrematureQueue::new(8);
        for i in 0..5 {
            q.push(rec(i, 0));
        }
        q.pop_head();
        q.pop_head();
        assert_eq!(q.high_water(), 5);
        assert_eq!(q.len(), 3);
    }
}
