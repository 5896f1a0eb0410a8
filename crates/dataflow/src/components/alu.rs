//! Pipelined arithmetic/logic units.
//!
//! An ALU joins its operand channels (all must be valid), computes, and
//! delivers the result `latency` cycles later through an internal shift
//! register that stalls under backpressure — the standard fully-pipelined
//! functional unit of a dataflow circuit.

use std::fmt;
use std::rc::Rc;

use crate::component::{Component, Ports};
use crate::signal::{ChannelId, Signals};
use crate::token::{Token, Value};

/// Binary operations supported by [`BinaryAlu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (0 divisor yields 0, matching a hardware "don't care").
    Div,
    /// Remainder (0 divisor yields 0).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// Equality comparison (1/0).
    Eq,
    /// Inequality comparison (1/0).
    Ne,
    /// Signed less-than (1/0).
    Lt,
    /// Signed less-or-equal (1/0).
    Le,
    /// Signed greater-than (1/0).
    Gt,
    /// Signed greater-or-equal (1/0).
    Ge,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Applies the operation.
    pub fn apply(self, a: Value, b: Value) -> Value {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Eq => (a == b) as Value,
            BinOp::Ne => (a != b) as Value,
            BinOp::Lt => (a < b) as Value,
            BinOp::Le => (a <= b) as Value,
            BinOp::Gt => (a > b) as Value,
            BinOp::Ge => (a >= b) as Value,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Default pipeline latency for this operation in a Kintex-7-class
    /// dataflow circuit (combinational ops register once; multipliers and
    /// dividers are deeply pipelined).
    pub fn default_latency(self) -> u32 {
        match self {
            BinOp::Mul => 4,
            BinOp::Div | BinOp::Rem => 8,
            _ => 1,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Unary operations supported by [`UnaryAlu`].
#[derive(Clone)]
#[non_exhaustive]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Pass-through (useful as a registered stage).
    Identity,
    /// An opaque runtime function — the `f(x)` / `g(x)` of the paper's
    /// Fig. 2(b), whose value is only known at runtime.
    Opaque(Rc<dyn Fn(Value) -> Value>),
}

impl UnOp {
    /// Applies the operation.
    pub fn apply(&self, a: Value) -> Value {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
            UnOp::Identity => a,
            UnOp::Opaque(f) => f(a),
        }
    }
}

impl fmt::Debug for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("Neg"),
            UnOp::Not => f.write_str("Not"),
            UnOp::Identity => f.write_str("Identity"),
            UnOp::Opaque(_) => f.write_str("Opaque(..)"),
        }
    }
}

/// Shared pipeline implementation: a shift register of optional tokens that
/// advances whenever the head slot is free or drained.
#[derive(Debug)]
struct Pipeline {
    stages: Vec<Option<Token>>,
}

impl Pipeline {
    fn new(latency: u32) -> Self {
        assert!(latency >= 1, "alu latency must be at least 1 cycle");
        Pipeline {
            stages: vec![None; latency as usize],
        }
    }

    fn head(&self) -> Option<Token> {
        *self.stages.last().expect("latency >= 1")
    }

    /// Number of pipeline slots (the configured latency).
    fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Will the register shift this cycle, given whether the head drains?
    fn will_shift(&self, head_drains: bool) -> bool {
        self.head().is_none() || head_drains
    }

    /// Is the entry slot free this cycle, given whether the head drains?
    fn entry_free(&self, head_drains: bool) -> bool {
        self.stages[0].is_none() || self.will_shift(head_drains)
    }

    /// Returns `true` when any stage content actually changed — a shift of an
    /// all-empty register is a no-op and must not count, or an idle ALU would
    /// look permanently busy to the event scheduler and watchdog.
    fn advance(&mut self, head_drained: bool, entering: Option<Token>) -> bool {
        let before = self.stages.clone();
        if self.will_shift(head_drained) {
            for i in (1..self.stages.len()).rev() {
                self.stages[i] = self.stages[i - 1];
            }
            self.stages[0] = None;
        } else if head_drained {
            *self.stages.last_mut().expect("latency >= 1") = None;
        }
        if let Some(t) = entering {
            debug_assert!(self.stages[0].is_none(), "entry slot must be free");
            self.stages[0] = Some(t);
        }
        self.stages != before
    }

    fn flush(&mut self, from_iter: u64) {
        for s in &mut self.stages {
            if s.is_some_and(|t| t.iter >= from_iter) {
                *s = None;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.stages.iter().filter(|s| s.is_some()).count()
    }
}

/// A pipelined two-operand functional unit.
#[derive(Debug)]
pub struct BinaryAlu {
    op: BinOp,
    lhs: ChannelId,
    rhs: ChannelId,
    output: ChannelId,
    pipe: Pipeline,
}

impl BinaryAlu {
    /// Creates a unit with the operation's default latency.
    pub fn new(op: BinOp, lhs: ChannelId, rhs: ChannelId, output: ChannelId) -> Self {
        Self::with_latency(op, op.default_latency(), lhs, rhs, output)
    }

    /// Creates a unit with an explicit pipeline latency (>= 1).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn with_latency(
        op: BinOp,
        latency: u32,
        lhs: ChannelId,
        rhs: ChannelId,
        output: ChannelId,
    ) -> Self {
        BinaryAlu {
            op,
            lhs,
            rhs,
            output,
            pipe: Pipeline::new(latency),
        }
    }

    /// The operation computed by this unit.
    pub fn op(&self) -> BinOp {
        self.op
    }
}

impl Component for BinaryAlu {
    fn type_name(&self) -> &'static str {
        match self.op {
            BinOp::Mul => "binary_alu_mul",
            BinOp::Div | BinOp::Rem => "binary_alu_div",
            _ => "binary_alu",
        }
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![self.lhs, self.rhs], vec![self.output])
    }

    fn eval(&self, sig: &mut Signals) {
        if let Some(head) = self.pipe.head() {
            sig.drive(self.output, head);
        }
        let head_drains = self.pipe.head().is_some() && sig.is_ready(self.output);
        let both = sig.is_valid(self.lhs) && sig.is_valid(self.rhs);
        if both && self.pipe.entry_free(head_drains) {
            sig.accept(self.lhs);
            sig.accept(self.rhs);
        }
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        let head_drained = sig.fired(self.output);
        let entering = match (sig.taken(self.lhs), sig.taken(self.rhs)) {
            (Some(a), Some(b)) => {
                debug_assert_eq!(
                    a.iter, b.iter,
                    "alu operands must come from the same iteration"
                );
                Some(a.with_value(self.op.apply(a.value, b.value)))
            }
            (None, None) => None,
            _ => unreachable!("alu accepts operands jointly"),
        };
        self.pipe.advance(head_drained, entering)
    }

    fn flush(&mut self, from_iter: u64) {
        self.pipe.flush(from_iter);
    }

    fn is_idle(&self) -> bool {
        self.pipe.occupancy() == 0
    }

    fn occupancy(&self) -> usize {
        self.pipe.occupancy()
    }

    fn capacity(&self) -> usize {
        self.pipe.depth()
    }

    fn latency(&self) -> u32 {
        self.pipe.depth() as u32
    }
}

/// A pipelined one-operand functional unit.
#[derive(Debug)]
pub struct UnaryAlu {
    op: UnOp,
    input: ChannelId,
    output: ChannelId,
    pipe: Pipeline,
}

impl UnaryAlu {
    /// Creates a unit with a 1-cycle latency.
    pub fn new(op: UnOp, input: ChannelId, output: ChannelId) -> Self {
        Self::with_latency(op, 1, input, output)
    }

    /// Creates a unit with an explicit pipeline latency (>= 1).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn with_latency(op: UnOp, latency: u32, input: ChannelId, output: ChannelId) -> Self {
        UnaryAlu {
            op,
            input,
            output,
            pipe: Pipeline::new(latency),
        }
    }
}

impl Component for UnaryAlu {
    fn type_name(&self) -> &'static str {
        "unary_alu"
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![self.input], vec![self.output])
    }

    fn eval(&self, sig: &mut Signals) {
        if let Some(head) = self.pipe.head() {
            sig.drive(self.output, head);
        }
        let head_drains = self.pipe.head().is_some() && sig.is_ready(self.output);
        if sig.is_valid(self.input) && self.pipe.entry_free(head_drains) {
            sig.accept(self.input);
        }
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        let head_drained = sig.fired(self.output);
        let entering = sig
            .taken(self.input)
            .map(|t| t.with_value(self.op.apply(t.value)));
        self.pipe.advance(head_drained, entering)
    }

    fn flush(&mut self, from_iter: u64) {
        self.pipe.flush(from_iter);
    }

    fn is_idle(&self) -> bool {
        self.pipe.occupancy() == 0
    }

    fn occupancy(&self) -> usize {
        self.pipe.occupancy()
    }

    fn capacity(&self) -> usize {
        self.pipe.depth()
    }

    fn latency(&self) -> u32 {
        self.pipe.depth() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId(i)
    }

    fn run_cycle(
        alu: &mut BinaryAlu,
        a: Option<Token>,
        b: Option<Token>,
        out_ready: bool,
    ) -> (bool, Option<Token>) {
        let mut s = Signals::new(4);
        if let Some(t) = a {
            s.drive(ch(0), t);
        }
        if let Some(t) = b {
            s.drive(ch(1), t);
        }
        if out_ready {
            s.accept(ch(2));
        }
        for _ in 0..4 {
            alu.eval(&mut s);
            if !s.take_changed() {
                break;
            }
        }
        alu.eval(&mut s);
        let accepted = s.fired(ch(0));
        let out = s.taken(ch(2));
        alu.commit(&s);
        (accepted, out)
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(3, 4), 7);
        assert_eq!(BinOp::Sub.apply(3, 4), -1);
        assert_eq!(BinOp::Mul.apply(3, 4), 12);
        assert_eq!(BinOp::Div.apply(12, 4), 3);
        assert_eq!(BinOp::Div.apply(12, 0), 0, "division by zero is benign");
        assert_eq!(BinOp::Rem.apply(13, 4), 1);
        assert_eq!(BinOp::Lt.apply(1, 2), 1);
        assert_eq!(BinOp::Ge.apply(1, 2), 0);
        assert_eq!(BinOp::Min.apply(5, -2), -2);
        assert_eq!(BinOp::Max.apply(5, -2), 5);
        assert_eq!(BinOp::Shl.apply(1, 4), 16);
    }

    #[test]
    fn single_cycle_alu_produces_next_cycle() {
        let mut alu = BinaryAlu::with_latency(BinOp::Add, 1, ch(0), ch(1), ch(2));
        let (acc, out) = run_cycle(
            &mut alu,
            Some(Token::new(2, 0)),
            Some(Token::new(3, 0)),
            true,
        );
        assert!(acc);
        assert_eq!(out, None);
        let (_, out) = run_cycle(&mut alu, None, None, true);
        assert_eq!(out, Some(Token::new(5, 0)));
        assert!(alu.is_idle());
    }

    #[test]
    fn multi_cycle_latency_is_respected() {
        let mut alu = BinaryAlu::with_latency(BinOp::Mul, 3, ch(0), ch(1), ch(2));
        let (acc, _) = run_cycle(
            &mut alu,
            Some(Token::new(2, 0)),
            Some(Token::new(3, 0)),
            true,
        );
        assert!(acc);
        let (_, o1) = run_cycle(&mut alu, None, None, true);
        let (_, o2) = run_cycle(&mut alu, None, None, true);
        let (_, o3) = run_cycle(&mut alu, None, None, true);
        assert_eq!(o1, None);
        assert_eq!(o2, None);
        assert_eq!(o3, Some(Token::new(6, 0)));
    }

    #[test]
    fn pipeline_sustains_initiation_interval_one() {
        let mut alu = BinaryAlu::with_latency(BinOp::Add, 2, ch(0), ch(1), ch(2));
        let mut outs = Vec::new();
        for i in 0..6i64 {
            let (acc, out) = run_cycle(
                &mut alu,
                Some(Token::new(i, i as u64)),
                Some(Token::new(1, i as u64)),
                true,
            );
            assert!(acc, "pipelined alu accepts every cycle");
            outs.extend(out);
        }
        for _ in 0..2 {
            let (_, out) = run_cycle(&mut alu, None, None, true);
            outs.extend(out);
        }
        let values: Vec<i64> = outs.iter().map(|t| t.value).collect();
        assert_eq!(values, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn backpressure_stalls_pipeline() {
        let mut alu = BinaryAlu::with_latency(BinOp::Add, 1, ch(0), ch(1), ch(2));
        run_cycle(
            &mut alu,
            Some(Token::new(1, 0)),
            Some(Token::new(1, 0)),
            false,
        );
        // Head is full and output is not ready: the unit must refuse input.
        let (acc, out) = run_cycle(
            &mut alu,
            Some(Token::new(2, 1)),
            Some(Token::new(2, 1)),
            false,
        );
        assert!(!acc);
        assert_eq!(out, None);
        assert_eq!(alu.occupancy(), 1);
    }

    #[test]
    fn flush_clears_squashed_iterations() {
        let mut alu = BinaryAlu::with_latency(BinOp::Add, 3, ch(0), ch(1), ch(2));
        run_cycle(
            &mut alu,
            Some(Token::new(1, 3)),
            Some(Token::new(1, 3)),
            false,
        );
        run_cycle(
            &mut alu,
            Some(Token::new(1, 7)),
            Some(Token::new(1, 7)),
            false,
        );
        assert_eq!(alu.occupancy(), 2);
        alu.flush(5);
        assert_eq!(alu.occupancy(), 1, "iteration 7 flushed, 3 kept");
    }

    #[test]
    fn unary_opaque_function() {
        let f = Rc::new(|x: Value| (x * 7) % 5);
        let mut alu = UnaryAlu::new(UnOp::Opaque(f), ch(0), ch(1));
        let mut s = Signals::new(2);
        s.drive(ch(0), Token::new(4, 0));
        s.accept(ch(1));
        alu.eval(&mut s);
        alu.eval(&mut s);
        assert!(s.fired(ch(0)));
        alu.commit(&s);
        let mut s = Signals::new(2);
        s.accept(ch(1));
        alu.eval(&mut s);
        alu.eval(&mut s);
        assert_eq!(s.taken(ch(1)), Some(Token::new(3, 0)));
    }
}
