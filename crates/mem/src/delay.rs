//! Fixed-latency delay lines for modeling memory access timing.

use std::collections::VecDeque;

/// Items annotated with a countdown; `tick` decrements all and pops the ones
/// that reach zero. Used for RAM read/write latency modeling.
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    slots: VecDeque<(u32, T)>,
}

impl<T> Default for DelayLine<T> {
    fn default() -> Self {
        DelayLine {
            slots: VecDeque::new(),
        }
    }
}

impl<T> DelayLine<T> {
    /// Creates an empty delay line.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` to emerge after `latency` cycles (0 = next tick).
    pub fn push(&mut self, latency: u32, item: T) {
        self.slots.push_back((latency, item));
    }

    /// Advances one cycle, returning all items whose latency elapsed (in
    /// insertion order).
    pub fn tick(&mut self) -> Vec<T> {
        let mut any = false;
        for (c, _) in self.slots.iter_mut() {
            *c = c.saturating_sub(1);
            any |= *c == 0;
        }
        if !any {
            return Vec::new();
        }
        let mut done = Vec::new();
        // Items complete in insertion order because latencies are uniform
        // per line; a stable partition keeps order regardless.
        let mut remaining = VecDeque::with_capacity(self.slots.len());
        for (c, item) in self.slots.drain(..) {
            if c == 0 {
                done.push(item);
            } else {
                remaining.push_back((c, item));
            }
        }
        self.slots = remaining;
        done
    }

    /// Ticks until the first in-flight item emerges — its [`tick`] returns
    /// that item on exactly this many-th call — or `None` when nothing is in
    /// flight. Every earlier tick is a pure countdown.
    ///
    /// [`tick`]: DelayLine::tick
    pub fn next_due(&self) -> Option<u32> {
        self.slots.iter().map(|(c, _)| (*c).max(1)).min()
    }

    /// Applies `k` ticks at once. They must all be pure countdowns:
    /// `k` is below [`next_due`](DelayLine::next_due).
    pub fn skip(&mut self, k: u64) {
        debug_assert!(
            self.next_due().is_none_or(|d| k < u64::from(d)),
            "skip would drop a completed item"
        );
        // Every countdown exceeds `k`, so `k` fits in `u32` whenever the
        // loop body runs.
        for (c, _) in self.slots.iter_mut() {
            *c -= k as u32;
        }
    }

    /// Number of in-flight items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops in-flight items matching `pred` (used on squash).
    pub fn flush_if(&mut self, mut pred: impl FnMut(&T) -> bool) {
        self.slots.retain(|(_, t)| !pred(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_emerge_after_latency() {
        let mut d = DelayLine::new();
        d.push(2, "a");
        assert!(d.tick().is_empty());
        assert_eq!(d.tick(), vec!["a"]);
        assert!(d.is_empty());
    }

    #[test]
    fn zero_latency_emerges_next_tick() {
        let mut d = DelayLine::new();
        d.push(0, 1);
        assert_eq!(d.tick(), vec![1]);
    }

    #[test]
    fn order_is_preserved() {
        let mut d = DelayLine::new();
        d.push(1, 1);
        d.push(1, 2);
        assert_eq!(d.tick(), vec![1, 2]);
    }

    #[test]
    fn skip_matches_repeated_ticks() {
        let mut d = DelayLine::new();
        d.push(5, "a");
        d.push(7, "b");
        assert_eq!(d.next_due(), Some(5));
        d.skip(4);
        assert_eq!(d.next_due(), Some(1));
        assert_eq!(d.tick(), vec!["a"]);
        assert_eq!(d.next_due(), Some(2));
        assert!(DelayLine::<u8>::new().next_due().is_none());
    }

    #[test]
    fn flush_removes_matching() {
        let mut d = DelayLine::new();
        d.push(3, 10u64);
        d.push(3, 20u64);
        d.flush_if(|&x| x >= 15);
        assert_eq!(d.len(), 1);
    }
}
