//! Elastic buffers: the sequential elements that break combinational cycles
//! and provide slack (the FIFOs of a dataflow circuit).

use std::collections::VecDeque;

use crate::component::{Component, Ports};
use crate::signal::{ChannelId, Signals};

/// An opaque elastic FIFO of fixed capacity.
///
/// `out.valid` and `in.ready` are both driven from registered state, so a
/// buffer on a feedback path breaks the combinational cycle. A capacity-1
/// buffer behaves like Dynamatic's OEHB (one token of slack, one cycle of
/// latency); deeper buffers model transparent FIFOs.
#[derive(Debug)]
pub struct Buffer {
    input: ChannelId,
    output: ChannelId,
    capacity: usize,
    fifo: VecDeque<crate::Token>,
}

impl Buffer {
    /// Creates a buffer of the given capacity between `input` and `output`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, input: ChannelId, output: ChannelId) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Buffer {
            input,
            output,
            capacity,
            fifo: VecDeque::with_capacity(capacity),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tokens currently stored.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when no token is stored.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }
}

impl Component for Buffer {
    fn type_name(&self) -> &'static str {
        "buffer"
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![self.input], vec![self.output])
    }

    fn eval(&self, sig: &mut Signals) {
        if let Some(&front) = self.fifo.front() {
            sig.drive(self.output, front);
        }
        sig.accept_if(self.input, self.fifo.len() < self.capacity);
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        let mut changed = false;
        if sig.fired(self.output) {
            self.fifo.pop_front();
            changed = true;
        }
        if let Some(t) = sig.taken(self.input) {
            debug_assert!(self.fifo.len() < self.capacity);
            self.fifo.push_back(t);
            changed = true;
        }
        changed
    }

    fn flush(&mut self, from_iter: u64) {
        self.fifo.retain(|t| t.iter < from_iter);
    }

    fn is_idle(&self) -> bool {
        self.fifo.is_empty()
    }

    fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn latency(&self) -> u32 {
        // The FIFO is opaque: a token entering this cycle is visible at the
        // head no earlier than the next (see
        // `buffer_introduces_one_cycle_latency`).
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Token;

    fn ch(i: u32) -> ChannelId {
        ChannelId(i)
    }

    fn one_cycle(
        b: &mut Buffer,
        drive_in: Option<Token>,
        out_ready: bool,
    ) -> (bool, Option<Token>) {
        let mut s = Signals::new(2);
        if let Some(t) = drive_in {
            s.drive(ch(0), t);
        }
        if out_ready {
            s.accept(ch(1));
        }
        for _ in 0..4 {
            b.eval(&mut s);
            if !s.take_changed() {
                break;
            }
        }
        b.eval(&mut s);
        let accepted = s.fired(ch(0));
        let emitted = s.taken(ch(1));
        b.commit(&s);
        (accepted, emitted)
    }

    #[test]
    fn buffer_introduces_one_cycle_latency() {
        let mut b = Buffer::new(1, ch(0), ch(1));
        let (acc, out) = one_cycle(&mut b, Some(Token::new(1, 0)), true);
        assert!(acc);
        assert_eq!(out, None, "opaque buffer cannot forward same-cycle");
        let (_, out) = one_cycle(&mut b, None, true);
        assert_eq!(out, Some(Token::new(1, 0)));
        assert!(b.is_empty());
    }

    #[test]
    fn full_buffer_backpressures() {
        let mut b = Buffer::new(1, ch(0), ch(1));
        let (acc, _) = one_cycle(&mut b, Some(Token::new(1, 0)), false);
        assert!(acc);
        let (acc, _) = one_cycle(&mut b, Some(Token::new(2, 1)), false);
        assert!(!acc, "full buffer must not accept");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn deeper_buffer_pipelines() {
        let mut b = Buffer::new(4, ch(0), ch(1));
        for i in 0..4 {
            let (acc, _) = one_cycle(&mut b, Some(Token::new(i, i as u64)), false);
            assert!(acc);
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.capacity(), 4);
        let (acc, out) = one_cycle(&mut b, Some(Token::new(9, 9)), true);
        assert_eq!(out, Some(Token::new(0, 0)));
        // A slot was freed by the pop before the push is decided in real
        // hardware; our conservative model computes in.ready from the
        // pre-pop occupancy, so the push waits one cycle.
        assert!(!acc);
    }

    #[test]
    fn flush_drops_only_squashed_iterations() {
        let mut b = Buffer::new(4, ch(0), ch(1));
        for i in 0..4u64 {
            one_cycle(&mut b, Some(Token::new(i as i64, i)), false);
        }
        b.flush(2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.occupancy(), 2);
        let (_, out) = one_cycle(&mut b, None, true);
        assert_eq!(out, Some(Token::new(0, 0)));
    }
}
