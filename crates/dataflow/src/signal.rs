//! Per-cycle wire state for valid/ready handshake channels.
//!
//! A latency-insensitive circuit resolves, every clock cycle, a set of
//! combinational `valid` (producer has a token) and `ready` (consumer can
//! take it) wires. The simulator computes them by *monotone fixpoint
//! iteration*: all wires start low, component [`eval`] functions may only
//! raise them, and evaluation repeats until no wire changes. A token is
//! transferred on every channel whose `valid` and `ready` are both high at
//! the fixpoint.
//!
//! Monotonicity of `valid`/`ready` guarantees termination. No component
//! may rewrite token *data* once driven (the [`eval`] contract); one that
//! keeps doing so exhausts the engine's pass budget.
//!
//! [`eval`]: crate::Component::eval

use crate::token::Token;

/// Identifies one point-to-point channel in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// Raw index of this channel, usable for per-channel bookkeeping tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a channel id from a raw index (e.g. when iterating all
    /// channels of a netlist for visualization or tracing).
    pub fn from_index(i: usize) -> Self {
        ChannelId(i as u32)
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// One bit per channel, packed 64 to a word: the whole-netlist scan the
/// engine performs every cycle (fired/stall sampling) reduces to word-wise
/// boolean algebra and popcounts.
#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// The combinational wire state of every channel during one clock cycle.
///
/// Obtained by the engine; components interact with it inside
/// [`Component::eval`](crate::Component::eval) and read the fixpoint result
/// inside [`Component::commit`](crate::Component::commit). `valid` and
/// `ready` are packed bitmaps, one bit per channel.
#[derive(Debug, Clone)]
pub struct Signals {
    valid: Vec<u64>,
    ready: Vec<u64>,
    data: Vec<Option<Token>>,
    channels: usize,
    /// Every wire raised or rewritten since the last drain, as
    /// `channel << 1 | side` (side 0: `valid`/data, read by the consumer;
    /// side 1: `ready`, read by the producer). The engine wakes the reader
    /// of each entry; its emptiness is the fixpoint's change flag.
    touched: Vec<usize>,
}

impl Signals {
    /// Creates wire state for `n` channels, all low.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Signals {
            valid: vec![0; words],
            ready: vec![0; words],
            data: vec![None; n],
            channels: n,
            touched: Vec::new(),
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels
    }

    /// True if there are no channels.
    pub fn is_empty(&self) -> bool {
        self.channels == 0
    }

    /// Resets all wires low at the start of a cycle.
    pub(crate) fn reset(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = 0);
        self.ready.iter_mut().for_each(|r| *r = 0);
        self.data.iter_mut().for_each(|d| *d = None);
        self.touched.clear();
    }

    /// Clears the change flag before one fixpoint sweep; returns the previous
    /// value.
    pub(crate) fn take_changed(&mut self) -> bool {
        let changed = !self.touched.is_empty();
        self.touched.clear();
        changed
    }

    /// Drains the wires touched since the last drain (see `touched`).
    pub(crate) fn drain_touched(&mut self) -> std::vec::Drain<'_, usize> {
        self.touched.drain(..)
    }

    /// The channels touched since the last drain, in id order (divergence
    /// diagnosis).
    pub(crate) fn touched_channels(&self) -> Vec<ChannelId> {
        let mut chans: Vec<usize> = self.touched.iter().map(|t| t >> 1).collect();
        chans.sort_unstable();
        chans.dedup();
        chans.into_iter().map(ChannelId::from_index).collect()
    }

    /// Producer side: is a token offered on `ch` this cycle?
    pub fn is_valid(&self, ch: ChannelId) -> bool {
        bit_get(&self.valid, ch.index())
    }

    /// Consumer side: is the consumer of `ch` willing to accept this cycle?
    pub fn is_ready(&self, ch: ChannelId) -> bool {
        bit_get(&self.ready, ch.index())
    }

    /// The token currently offered on `ch`, if any.
    pub fn token(&self, ch: ChannelId) -> Option<Token> {
        self.data[ch.index()]
    }

    /// Did a transfer happen on `ch` this cycle (valid && ready)?
    ///
    /// Only meaningful after the fixpoint, i.e. inside
    /// [`Component::commit`](crate::Component::commit).
    pub fn fired(&self, ch: ChannelId) -> bool {
        let w = self.valid[ch.index() >> 6] & self.ready[ch.index() >> 6];
        (w >> (ch.index() & 63)) & 1 != 0
    }

    /// The token transferred on `ch` this cycle, if the channel fired.
    pub fn taken(&self, ch: ChannelId) -> Option<Token> {
        if self.fired(ch) {
            self.data[ch.index()]
        } else {
            None
        }
    }

    /// Producer drives a token on `ch` (raises `valid` and sets the data).
    ///
    /// Raising an already-high `valid` with identical data is a no-op.
    /// Rewriting the data breaks the [`eval`](crate::Component::eval)
    /// contract but is recorded like any other change. `valid` itself can
    /// never be lowered within a cycle.
    pub fn drive(&mut self, ch: ChannelId, token: Token) {
        let i = ch.index();
        if !bit_get(&self.valid, i) || self.data[i] != Some(token) {
            bit_set(&mut self.valid, i);
            self.data[i] = Some(token);
            self.touched.push(i << 1);
        }
    }

    /// Consumer raises `ready` on `ch`.
    pub fn accept(&mut self, ch: ChannelId) {
        let i = ch.index();
        if !bit_get(&self.ready, i) {
            bit_set(&mut self.ready, i);
            self.touched.push(i << 1 | 1);
        }
    }

    /// Runs `eval` repeatedly until the wire state stops changing, up to
    /// `max_sweeps` iterations — a public fixpoint helper for test benches
    /// that drive components without the full engine. Returns `true` if the
    /// state converged.
    pub fn settle_with(&mut self, max_sweeps: usize, mut eval: impl FnMut(&mut Signals)) -> bool {
        for _ in 0..max_sweeps {
            eval(self);
            if !self.take_changed() {
                return true;
            }
        }
        false
    }

    /// Consumer raises `ready` on `ch` if and only if `cond` holds.
    ///
    /// Convenience for the common pattern `if cond { sig.accept(ch) }`.
    pub fn accept_if(&mut self, ch: ChannelId, cond: bool) {
        if cond {
            self.accept(ch);
        }
    }

    /// One-pass fixpoint sample: returns `(fired, stalled)` counts, adds
    /// `cycles` to `stall_counts[ch]` for every stalled channel (the pinned
    /// stall semantics: valid-and-not-ready at the fixpoint), and appends the
    /// index of every fired channel to `fired_out`. `cycles` is 1 except
    /// when the engine books a run of repeats of a cycle where nothing
    /// fired. Fused and word-parallel because the engine takes this sample
    /// every cycle.
    pub(crate) fn sample_cycle(
        &self,
        cycles: u64,
        stall_counts: &mut [u64],
        fired_out: &mut Vec<usize>,
    ) -> (u64, u64) {
        let mut fired = 0;
        let mut stalled = 0;
        for (w, (v, r)) in self.valid.iter().zip(&self.ready).enumerate() {
            let mut f = v & r;
            let mut st = v & !r;
            fired += f.count_ones() as u64;
            stalled += st.count_ones() as u64;
            while f != 0 {
                fired_out.push((w << 6) | f.trailing_zeros() as usize);
                f &= f - 1;
            }
            while st != 0 {
                stall_counts[(w << 6) | st.trailing_zeros() as usize] += cycles;
                st &= st - 1;
            }
        }
        (fired, stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId(i)
    }

    #[test]
    fn drive_raises_valid_and_sets_data() {
        let mut s = Signals::new(2);
        assert!(!s.is_valid(ch(0)));
        s.drive(ch(0), Token::new(5, 0));
        assert!(s.is_valid(ch(0)));
        assert_eq!(s.token(ch(0)), Some(Token::new(5, 0)));
        assert!(!s.is_valid(ch(1)));
    }

    #[test]
    fn fired_requires_both_sides() {
        let mut s = Signals::new(1);
        s.drive(ch(0), Token::new(1, 0));
        assert!(!s.fired(ch(0)));
        s.accept(ch(0));
        assert!(s.fired(ch(0)));
        assert_eq!(s.taken(ch(0)), Some(Token::new(1, 0)));
    }

    #[test]
    fn idempotent_drive_does_not_flag_change() {
        let mut s = Signals::new(1);
        s.drive(ch(0), Token::new(1, 0));
        assert!(s.take_changed());
        s.drive(ch(0), Token::new(1, 0));
        assert!(!s.take_changed());
        // Rewriting with different data flags a change.
        s.drive(ch(0), Token::new(2, 0));
        assert!(s.take_changed());
    }

    #[test]
    fn reset_lowers_everything() {
        let mut s = Signals::new(1);
        s.drive(ch(0), Token::new(1, 0));
        s.accept(ch(0));
        s.reset();
        assert!(!s.is_valid(ch(0)));
        assert!(!s.is_ready(ch(0)));
        assert_eq!(s.token(ch(0)), None);
    }

    #[test]
    fn stall_accounting() {
        let mut s = Signals::new(3);
        s.drive(ch(0), Token::new(1, 0));
        s.accept(ch(0));
        s.drive(ch(1), Token::new(2, 0));
        let mut counts = vec![0u64; 3];
        let mut fired = Vec::new();
        assert_eq!(s.sample_cycle(1, &mut counts, &mut fired), (1, 1));
        assert_eq!(fired, vec![0]);
        assert_eq!(counts, vec![0, 1, 0], "stalled = valid && !ready");
        // A run of repeats books its length on every stalled channel.
        assert_eq!(s.sample_cycle(3, &mut counts, &mut fired), (1, 1));
        assert_eq!(counts, vec![0, 4, 0]);
    }
}
