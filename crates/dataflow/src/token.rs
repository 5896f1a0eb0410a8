//! Tokens flowing through elastic channels.
//!
//! Every value travelling through a dataflow circuit is a [`Token`]: a scalar
//! payload plus the loop iteration that produced it. The iteration number is
//! what makes pipeline squashes implementable: when premature value
//! validation detects a mis-speculated load, every token belonging to an
//! iteration at or beyond the faulting one is flushed, and the iteration
//! source re-issues those iterations. The flush reaches every component in
//! the cycle the squash is taken, so no token of a squashed iteration
//! survives to meet its replayed twin, and the iteration number alone
//! identifies a token.

use std::fmt;

/// Scalar payload carried by a token.
///
/// The simulator models all datapath values as 64-bit signed integers, which
/// is wide enough for the paper's kernels (32-bit data plus index arithmetic)
/// while keeping the memory model exact (no floating-point rounding concerns
/// when comparing a circuit run against its golden model).
pub type Value = i64;

/// A value plus its iteration: the unit of exchange on every channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Token {
    /// Scalar payload.
    pub value: Value,
    /// Flattened iteration number: position of the producing iteration in
    /// the original sequential program order, counted over the entire loop
    /// nest.
    pub iter: u64,
}

impl Token {
    /// Creates a token carrying `value` for iteration `iter`.
    ///
    /// ```
    /// use prevv_dataflow::Token;
    /// let t = Token::new(42, 3);
    /// assert_eq!(t.value, 42);
    /// assert_eq!(t.iter, 3);
    /// ```
    pub fn new(value: Value, iter: u64) -> Self {
        Token { value, iter }
    }

    /// Returns a copy of this token with a different payload but the same
    /// iteration.
    pub fn with_value(self, value: Value) -> Self {
        Token { value, ..self }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@i{}", self.value, self.iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_with_value_preserves_tag() {
        let t = Token::new(10, 4);
        let u = t.with_value(99);
        assert_eq!(u.value, 99);
        assert_eq!(u.iter, t.iter);
    }

    #[test]
    fn display_is_compact() {
        let t = Token::new(-3, 8);
        assert_eq!(t.to_string(), "-3@i8");
    }
}
