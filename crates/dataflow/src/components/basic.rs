//! Stateless / near-stateless elastic components: constant, sink, fork,
//! branch.

use std::cell::RefCell;
use std::rc::Rc;

use crate::component::{Component, Ports};
use crate::signal::{ChannelId, Signals};
use crate::token::{Token, Value};

/// Emits a fixed value each time a trigger token arrives, inheriting the
/// trigger's iteration. The dataflow analogue of a literal in the source program.
#[derive(Debug)]
pub struct Constant {
    value: Value,
    trigger: ChannelId,
    output: ChannelId,
}

impl Constant {
    /// Creates a constant driven by `trigger`, producing on `output`.
    pub fn new(value: Value, trigger: ChannelId, output: ChannelId) -> Self {
        Constant {
            value,
            trigger,
            output,
        }
    }
}

impl Component for Constant {
    fn type_name(&self) -> &'static str {
        "constant"
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![self.trigger], vec![self.output])
    }

    fn eval(&self, sig: &mut Signals) {
        if let Some(t) = sig.token(self.trigger) {
            sig.drive(self.output, t.with_value(self.value));
        }
        sig.accept_if(self.trigger, sig.is_ready(self.output));
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, _sig: &Signals) -> bool {
        false
    }
}

/// Consumes and discards tokens on any number of channels; optionally
/// records them for inspection by tests and examples.
#[derive(Debug, Default)]
pub struct Sink {
    inputs: Vec<ChannelId>,
    collected: Option<Rc<RefCell<Vec<Token>>>>,
}

impl Sink {
    /// A sink that silently discards tokens.
    pub fn new(inputs: Vec<ChannelId>) -> Self {
        Sink {
            inputs,
            collected: None,
        }
    }

    /// A sink that records every consumed token. The returned handle can be
    /// read after the simulation finishes.
    pub fn collecting(inputs: Vec<ChannelId>) -> (Self, Rc<RefCell<Vec<Token>>>) {
        let store = Rc::new(RefCell::new(Vec::new()));
        (
            Sink {
                inputs,
                collected: Some(store.clone()),
            },
            store,
        )
    }
}

impl Component for Sink {
    fn type_name(&self) -> &'static str {
        "sink"
    }

    fn ports(&self) -> Ports {
        Ports::new(self.inputs.clone(), vec![])
    }

    fn eval(&self, sig: &mut Signals) {
        for &ch in &self.inputs {
            sig.accept(ch);
        }
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        if let Some(store) = &self.collected {
            for &ch in &self.inputs {
                if let Some(t) = sig.taken(ch) {
                    store.borrow_mut().push(t);
                }
            }
        }
        // Collection is external bookkeeping, not eval-visible state.
        false
    }
}

/// Eager fork: replicates each input token onto every output, letting fast
/// consumers proceed while slow ones lag (per-output `sent` bits), and only
/// consuming the input once every output has taken its copy.
#[derive(Debug)]
pub struct Fork {
    input: ChannelId,
    outputs: Vec<ChannelId>,
    sent: Vec<bool>,
    /// Iteration of the token currently being distributed, if a partial
    /// send is in flight — needed so a squash can reset the right state.
    in_flight_iter: Option<u64>,
}

impl Fork {
    /// Creates a fork from `input` to `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty.
    pub fn new(input: ChannelId, outputs: Vec<ChannelId>) -> Self {
        assert!(!outputs.is_empty(), "fork needs at least one output");
        let n = outputs.len();
        Fork {
            input,
            outputs,
            sent: vec![false; n],
            in_flight_iter: None,
        }
    }
}

impl Component for Fork {
    fn type_name(&self) -> &'static str {
        "fork"
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![self.input], self.outputs.clone())
    }

    fn eval(&self, sig: &mut Signals) {
        let Some(t) = sig.token(self.input) else {
            return;
        };
        let mut all_done = true;
        for (k, &out) in self.outputs.iter().enumerate() {
            if !self.sent[k] {
                sig.drive(out, t);
                if !sig.is_ready(out) {
                    all_done = false;
                }
            }
        }
        sig.accept_if(self.input, all_done);
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, sig: &Signals) -> bool {
        if sig.fired(self.input) {
            // All copies delivered this cycle; state resets for the next token.
            let changed = self.sent.iter().any(|&s| s) || self.in_flight_iter.is_some();
            self.sent.iter_mut().for_each(|s| *s = false);
            self.in_flight_iter = None;
            return changed;
        }
        let mut changed = false;
        for (k, &out) in self.outputs.iter().enumerate() {
            if !self.sent[k] {
                if let Some(t) = sig.taken(out) {
                    self.sent[k] = true;
                    self.in_flight_iter = Some(t.iter);
                    changed = true;
                }
            }
        }
        changed
    }

    fn flush(&mut self, from_iter: u64) {
        if self.in_flight_iter.is_some_and(|i| i >= from_iter) {
            self.sent.iter_mut().for_each(|s| *s = false);
            self.in_flight_iter = None;
        }
    }

    fn is_idle(&self) -> bool {
        self.in_flight_iter.is_none()
    }
}

/// Branch: a condition token steers the data token to the true or false
/// output. The dataflow analogue of an `if`.
#[derive(Debug)]
pub struct Branch {
    data: ChannelId,
    condition: ChannelId,
    if_true: ChannelId,
    if_false: ChannelId,
}

impl Branch {
    /// Creates a branch steering `data` by `condition` (nonzero = true).
    pub fn new(
        data: ChannelId,
        condition: ChannelId,
        if_true: ChannelId,
        if_false: ChannelId,
    ) -> Self {
        Branch {
            data,
            condition,
            if_true,
            if_false,
        }
    }
}

impl Component for Branch {
    fn type_name(&self) -> &'static str {
        "branch"
    }

    fn ports(&self) -> Ports {
        Ports::new(
            vec![self.data, self.condition],
            vec![self.if_true, self.if_false],
        )
    }

    fn eval(&self, sig: &mut Signals) {
        let (Some(t), Some(c)) = (sig.token(self.data), sig.token(self.condition)) else {
            return;
        };
        let out = if c.value != 0 {
            self.if_true
        } else {
            self.if_false
        };
        sig.drive(out, t);
        if sig.is_ready(out) {
            sig.accept(self.data);
            sig.accept(self.condition);
        }
    }

    fn fire_driven_commit(&self) -> bool {
        true
    }

    fn commit(&mut self, _sig: &Signals) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: usize) -> Signals {
        Signals::new(n)
    }

    fn settle(c: &dyn Component, s: &mut Signals) {
        for _ in 0..8 {
            c.eval(s);
            if !s.take_changed() {
                break;
            }
        }
        // one final sweep so late-raised readiness is observed
        c.eval(s);
    }

    #[test]
    fn constant_inherits_trigger_tag() {
        let c = Constant::new(42, ChannelId(0), ChannelId(1));
        let mut s = sig(2);
        s.drive(ChannelId(0), Token::new(0, 3));
        s.accept(ChannelId(1));
        settle(&c, &mut s);
        assert_eq!(s.taken(ChannelId(1)), Some(Token::new(42, 3)));
        assert!(s.fired(ChannelId(0)));
    }

    #[test]
    fn fork_waits_for_slowest_consumer() {
        let mut f = Fork::new(ChannelId(0), vec![ChannelId(1), ChannelId(2)]);
        // Cycle 1: only output 1 is ready.
        let mut s = sig(3);
        s.drive(ChannelId(0), Token::new(7, 0));
        s.accept(ChannelId(1));
        settle(&f, &mut s);
        assert!(s.fired(ChannelId(1)));
        assert!(!s.fired(ChannelId(2)));
        assert!(!s.fired(ChannelId(0)), "input not consumed yet");
        f.commit(&s);
        assert!(!f.is_idle());

        // Cycle 2: output 2 becomes ready; input is consumed.
        let mut s = sig(3);
        s.drive(ChannelId(0), Token::new(7, 0));
        s.accept(ChannelId(2));
        settle(&f, &mut s);
        assert!(!s.is_valid(ChannelId(1)), "already-sent branch stays quiet");
        assert!(s.fired(ChannelId(2)));
        assert!(s.fired(ChannelId(0)));
        f.commit(&s);
        assert!(f.is_idle());
    }

    #[test]
    fn fork_flush_resets_partial_send() {
        let mut f = Fork::new(ChannelId(0), vec![ChannelId(1), ChannelId(2)]);
        let mut s = sig(3);
        s.drive(ChannelId(0), Token::new(7, 9));
        s.accept(ChannelId(1));
        settle(&f, &mut s);
        f.commit(&s);
        assert!(!f.is_idle());
        f.flush(5); // iteration 9 >= 5: partial send is discarded
        assert!(f.is_idle());
    }

    #[test]
    fn branch_steers_by_condition() {
        let b = Branch::new(ChannelId(0), ChannelId(1), ChannelId(2), ChannelId(3));
        let mut s = sig(4);
        s.drive(ChannelId(0), Token::new(5, 0));
        s.drive(ChannelId(1), Token::new(0, 0)); // false
        s.accept(ChannelId(2));
        s.accept(ChannelId(3));
        settle(&b, &mut s);
        assert!(!s.is_valid(ChannelId(2)));
        assert_eq!(s.taken(ChannelId(3)), Some(Token::new(5, 0)));
    }

    #[test]
    fn collecting_sink_records_tokens() {
        let (mut k, store) = Sink::collecting(vec![ChannelId(0)]);
        let mut s = sig(1);
        s.drive(ChannelId(0), Token::new(4, 2));
        k.eval(&mut s);
        assert!(s.fired(ChannelId(0)));
        k.commit(&s);
        assert_eq!(store.borrow().as_slice(), &[Token::new(4, 2)]);
    }
}
