//! Scheduler equivalence and diagnostics: the levelized dirty-sweep
//! fixpoint (`Scheduler::EventDriven`) must be observationally identical to
//! the dense reference sweep — same cycle counts, same outputs, same stall
//! attribution, and the same error (naming the same channels) when a
//! circuit is genuinely divergent.

use std::cell::RefCell;
use std::rc::Rc;

use prevv_dataflow::components::{
    BinOp, BinaryAlu, Branch, Buffer, Constant, Fork, IterSource, Sink,
};
use prevv_dataflow::{
    ChannelId, Component, Netlist, Ports, Scheduler, Signals, SimConfig, SimError, SimReport,
    Simulator, SquashBus, Token,
};

fn config(scheduler: Scheduler) -> SimConfig {
    SimConfig {
        scheduler,
        ..SimConfig::default()
    }
}

/// Runs a netlist builder under one scheduler and returns the report plus
/// whatever the collecting sink saw (sorted: sinks don't order concurrent
/// arrivals).
fn run_with(
    build: impl Fn() -> (Netlist, SquashBus, Rc<RefCell<Vec<Token>>>),
    scheduler: Scheduler,
) -> (SimReport, Vec<i64>) {
    let (net, bus, store) = build();
    let mut sim = Simulator::new(net, bus)
        .expect("valid netlist")
        .with_config(config(scheduler));
    let report = sim.run().expect("completes");
    let mut values: Vec<i64> = store.borrow().iter().map(|t| t.value).collect();
    values.sort_unstable();
    (report, values)
}

/// Asserts byte-identical `SimReport`s and outputs between both schedulers.
fn assert_equivalent(build: impl Fn() -> (Netlist, SquashBus, Rc<RefCell<Vec<Token>>>)) {
    let (dense, dense_vals) = run_with(&build, Scheduler::Dense);
    let (event, event_vals) = run_with(&build, Scheduler::EventDriven);
    if let Some(diff) = dense.diff(&event) {
        panic!("schedulers disagree: {diff}");
    }
    assert_eq!(dense_vals, event_vals, "collected outputs differ");
}

/// The order in which a test circuit's nodes enter its netlist.
#[derive(Debug, Clone, Copy)]
enum Insertion {
    /// Source first, sink last: the order the builder names them in.
    Given,
    Reversed,
    /// A Fisher–Yates shuffle driven by a xorshift generator seeded here.
    Shuffled(u64),
}

/// A netlist under construction whose nodes are held back, so that they
/// can be inserted in any [`Insertion`] order once the circuit is complete.
struct Staged {
    net: Netlist,
    nodes: Vec<(&'static str, Box<dyn Component>)>,
}

impl Staged {
    fn new() -> Self {
        Staged {
            net: Netlist::new(),
            nodes: Vec::new(),
        }
    }

    fn channel(&mut self) -> ChannelId {
        self.net.channel()
    }

    fn add(&mut self, label: &'static str, component: impl Component + 'static) {
        self.nodes.push((label, Box::new(component)));
    }

    fn finish(mut self, order: Insertion) -> Netlist {
        match order {
            Insertion::Given => {}
            Insertion::Reversed => self.nodes.reverse(),
            Insertion::Shuffled(mut x) => {
                for i in (1..self.nodes.len()).rev() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    self.nodes.swap(i, (x % (i as u64 + 1)) as usize);
                }
            }
        }
        for (label, component) in self.nodes {
            self.net.add_boxed(label, component);
        }
        self.net
    }
}

/// A multi-stage arithmetic pipeline: `(i + 1) * 2` through forked triggers,
/// buffers, and two ALU latencies.
fn pipeline(
    n: i64,
    add_latency: u32,
    mul_latency: u32,
    buf_cap: usize,
) -> impl Fn() -> (Netlist, SquashBus, Rc<RefCell<Vec<Token>>>) {
    pipeline_in(n, add_latency, mul_latency, buf_cap, Insertion::Given)
}

/// [`pipeline`] with its nodes inserted in `order`.
fn pipeline_in(
    n: i64,
    add_latency: u32,
    mul_latency: u32,
    buf_cap: usize,
    order: Insertion,
) -> impl Fn() -> (Netlist, SquashBus, Rc<RefCell<Vec<Token>>>) {
    move || {
        let mut net = Staged::new();
        let bus = SquashBus::new();
        let src_out = net.channel();
        let f1 = net.channel();
        let f2 = net.channel();
        let trig = net.channel();
        let one = net.channel();
        let sum = net.channel();
        let sum_f1 = net.channel();
        let sum_f2 = net.channel();
        let two = net.channel();
        let prod = net.channel();
        let rows = (0..n).map(|i| vec![i]).collect();
        net.add("src", IterSource::new(rows, vec![src_out]));
        net.add("fork", Fork::new(src_out, vec![f1, f2]));
        net.add("buf", Buffer::new(buf_cap, f2, trig));
        net.add("one", Constant::new(1, trig, one));
        net.add(
            "add",
            BinaryAlu::with_latency(BinOp::Add, add_latency, f1, one, sum),
        );
        net.add("fork2", Fork::new(sum, vec![sum_f1, sum_f2]));
        net.add("two", Constant::new(2, sum_f2, two));
        net.add(
            "mul",
            BinaryAlu::with_latency(BinOp::Mul, mul_latency, sum_f1, two, prod),
        );
        let (sink, store) = Sink::collecting(vec![prod]);
        net.add("sink", sink);
        (net.finish(order), bus, store)
    }
}

#[test]
fn schedulers_agree_on_pipelines() {
    assert_equivalent(pipeline(32, 1, 3, 2));
    assert_equivalent(pipeline(64, 2, 4, 1));
    assert_equivalent(pipeline(1, 1, 1, 1));
    assert_equivalent(pipeline(0, 1, 1, 1));
}

/// A Branch diamond with its nodes inserted in `order`: odd values detour
/// through an extra adder, and both legs end in one collecting sink.
fn routing(order: Insertion) -> impl Fn() -> (Netlist, SquashBus, Rc<RefCell<Vec<Token>>>) {
    move || {
        let mut net = Staged::new();
        let bus = SquashBus::new();
        let src_out = net.channel();
        let f_data = net.channel();
        let f_par = net.channel();
        let par_trig = net.channel();
        let one_p = net.channel();
        let parity = net.channel();
        let odd = net.channel();
        let even = net.channel();
        let odd_buf = net.channel();
        let trig2 = net.channel();
        let hundred = net.channel();
        let bumped = net.channel();
        let rows = (0..24).map(|i| vec![i]).collect();
        net.add("src", IterSource::new(rows, vec![src_out]));
        net.add("fork", Fork::new(src_out, vec![f_data, f_par, par_trig]));
        net.add("one_p", Constant::new(1, par_trig, one_p));
        net.add(
            "parity",
            BinaryAlu::with_latency(BinOp::And, 1, f_par, one_p, parity),
        );
        // Parity arrives one cycle after the data: buffer the data so the
        // branch can pair them without a combinational wait.
        let data_buf = net.channel();
        net.add("dbuf", Buffer::new(4, f_data, data_buf));
        net.add("branch", Branch::new(data_buf, parity, odd, even));
        net.add("obuf", Buffer::new(2, odd, odd_buf));
        let odd_f1 = net.channel();
        let odd_f2 = net.channel();
        net.add("ofork", Fork::new(odd_buf, vec![odd_f1, odd_f2]));
        net.add("c100", Constant::new(100, odd_f2, hundred));
        net.add("trig2src", Buffer::new(2, odd_f1, trig2));
        net.add(
            "bump",
            BinaryAlu::with_latency(BinOp::Add, 2, trig2, hundred, bumped),
        );
        let (sink, store) = Sink::collecting(vec![bumped, even]);
        net.add("sink", sink);
        (net.finish(order), bus, store)
    }
}

#[test]
fn schedulers_agree_on_routing_circuits() {
    assert_equivalent(routing(Insertion::Given));
    // The unevenly buffered legs neither lose nor duplicate a token.
    let (_, values) = run_with(routing(Insertion::Given), Scheduler::EventDriven);
    let mut expected: Vec<i64> = (0..24)
        .map(|i| if i % 2 == 1 { i + 100 } else { i })
        .collect();
    expected.sort_unstable();
    assert_eq!(values, expected);
}

type Build = Box<dyn Fn() -> (Netlist, SquashBus, Rc<RefCell<Vec<Token>>>)>;

/// The pipeline and routing circuits, their nodes inserted in `order`.
fn circuits(order: Insertion) -> Vec<Build> {
    vec![
        Box::new(pipeline_in(32, 1, 3, 2, order)),
        Box::new(pipeline_in(64, 2, 4, 1, order)),
        Box::new(routing(order)),
    ]
}

/// The levelized scheduler derives its order from the channels, not from
/// the order nodes were added in: reversed and shuffled netlists agree
/// across schedulers and give the same reports and outputs as the given
/// order.
#[test]
fn evaluation_order_comes_from_structure() {
    let given: Vec<_> = circuits(Insertion::Given)
        .iter()
        .map(|build| run_with(build, Scheduler::EventDriven))
        .collect();
    for order in [
        Insertion::Reversed,
        Insertion::Shuffled(0x9e37_79b9_7f4a_7c15),
        Insertion::Shuffled(7),
        Insertion::Shuffled(2024),
    ] {
        for (k, build) in circuits(order).iter().enumerate() {
            assert_equivalent(build);
            let (report, values) = run_with(build, Scheduler::EventDriven);
            if let Some(diff) = given[k].0.diff(&report) {
                panic!("{order:?}, circuit {k}: insertion order changed the run: {diff}");
            }
            assert_eq!(given[k].1, values, "{order:?}, circuit {k}: outputs");
        }
    }
}

/// A component outside the monotone `eval` contract: once `enter` offers
/// a token it drives `1 - v` for the value `v` fed back on `back` (or
/// `enter`'s own value while `back` is empty). Closing `out` onto `back`
/// without a buffer rewrites the loop's data on every pass, so the
/// fixpoint never settles.
struct Negator {
    enter: ChannelId,
    back: ChannelId,
    out: ChannelId,
}

impl Component for Negator {
    fn type_name(&self) -> &'static str {
        "negator"
    }

    fn ports(&self) -> Ports {
        Ports::new(vec![self.enter, self.back], vec![self.out])
    }

    fn eval(&self, sig: &mut Signals) {
        let Some(t) = sig.token(self.enter) else {
            return;
        };
        let v = sig.token(self.back).map_or(t.value, |b| 1 - b.value);
        sig.drive(self.out, t.with_value(v));
        sig.accept_if(self.enter, sig.is_ready(self.out));
    }

    fn commit(&mut self, _sig: &Signals) -> bool {
        false
    }
}

/// Both schedulers must refuse a genuinely divergent circuit with the
/// *same* `CombinationalCycle` error, naming the same channels.
///
/// The unbuffered loop runs from a [`Negator`] through a Fork back into
/// the negator, which flips the fed-back value on every pass. A Branch
/// gates loop entry on the *second* iteration, so cycle 0 converges (both
/// schedulers then rebuild cycle 1 from reset) and the divergence is
/// detected at cycle 1 by both schedulers.
///
/// Note this has to be a hand-built netlist with a test-local component:
/// every library `eval` is monotone and rewrites no data, so no
/// synthesized circuit can diverge at runtime, and the repo's divergence
/// fixture `kernels/bad/combinational_loop.pvk` is refused *statically*
/// (PV103, pinned in prevv-analyze's tests).
#[test]
fn schedulers_name_the_same_divergent_channels() {
    let build = || {
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let data = net.channel();
        let cond = net.channel();
        let enter = net.channel();
        let safe = net.channel();
        let back = net.channel();
        let out = net.channel();
        let spill = net.channel();
        // Iteration 0 routes its token to the safe sink; iteration 1 routes
        // it into the unbuffered loop.
        let rows = vec![vec![7, 0], vec![7, 1]];
        net.add("src", IterSource::new(rows, vec![data, cond]));
        net.add("gate", Branch::new(data, cond, enter, safe));
        net.add("safe_sink", Sink::new(vec![safe]));
        net.add("negator", Negator { enter, back, out });
        net.add("fork", Fork::new(out, vec![back, spill]));
        net.add("spill_sink", Sink::new(vec![spill]));
        (net, bus, (out, back))
    };

    let mut errors = Vec::new();
    for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
        let (net, bus, (out, back)) = build();
        let mut sim = Simulator::new(net, bus)
            .expect("structurally valid")
            .with_config(config(scheduler));
        match sim.run() {
            Err(SimError::CombinationalCycle { cycle, channels }) => {
                assert_eq!(cycle, 1, "{scheduler:?}: cycle 0 must converge");
                assert!(!channels.is_empty(), "{scheduler:?}: channels named");
                for ch in [out, back] {
                    assert!(
                        channels.contains(&ch),
                        "{scheduler:?}: loop channel {ch} must be named, got {channels:?}"
                    );
                }
                // The error message names the churning channels.
                let msg = SimError::CombinationalCycle {
                    cycle,
                    channels: channels.clone(),
                }
                .to_string();
                assert!(msg.contains("non-converging channels"), "{msg}");
                errors.push(channels);
            }
            other => panic!("{scheduler:?}: expected CombinationalCycle, got {other:?}"),
        }
    }
    assert_eq!(
        errors[0], errors[1],
        "dense and event must name the identical channel set"
    );
}

/// Satellite 2: a stall is "valid and not ready *at the fixpoint*", counted
/// once per channel per cycle — pinned against a hand-checked circuit, and
/// identical between schedulers.
#[test]
fn stall_accounting_is_sampled_at_the_fixpoint() {
    let build = || {
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let src_out = net.channel();
        let slow_in = net.channel();
        let f1 = net.channel();
        let f2 = net.channel();
        let trig = net.channel();
        let one = net.channel();
        let out = net.channel();
        let rows = (0..8).map(|i| vec![i]).collect();
        net.add("src", IterSource::new(rows, vec![src_out]));
        net.add("fork", Fork::new(src_out, vec![f1, f2]));
        net.add("buf", Buffer::new(1, f2, trig));
        net.add("one", Constant::new(1, trig, one));
        net.add("inbuf", Buffer::new(1, f1, slow_in));
        // A 5-cycle multiplier at initiation interval 1 backpressures the
        // channels feeding it.
        net.add(
            "slow",
            BinaryAlu::with_latency(BinOp::Mul, 5, slow_in, one, out),
        );
        let (sink, store) = Sink::collecting(vec![out]);
        net.add("sink", sink);
        (net, bus, store)
    };

    let (dense, _) = run_with(build, Scheduler::Dense);
    let (event, _) = run_with(build, Scheduler::EventDriven);
    if let Some(diff) = dense.diff(&event) {
        panic!("stall attribution diverged: {diff}");
    }

    // Pin the semantics, not just the agreement: the per-channel counts sum
    // to the total, every counted channel stalled at least one full cycle,
    // and the fully-pipelined unit's backpressure shows up (a 5-deep
    // pipeline at II 1 holds valid-high inputs it cannot accept).
    assert!(dense.stall_cycles > 0, "a deep pipeline must stall inputs");
    let per_channel: u64 = dense.stalled_channels.iter().map(|(_, c)| c).sum();
    assert_eq!(
        per_channel, dense.stall_cycles,
        "per-channel attribution must sum to the stall total"
    );
    // Attribution is sorted by count descending.
    for w in dense.stalled_channels.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

/// Satellite 3: slow drain is not deadlock. A 40-cycle ALU with a watchdog
/// of 8 completes: every in-flight token shifting through the pipeline is
/// internal progress, so the no-progress streak never accumulates. (Before
/// commit reported state changes, any quiescence longer than the watchdog
/// window with no channel transfer was misreported as deadlock.)
#[test]
fn watchdog_tolerates_long_latency_drain() {
    let build = || {
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let src_out = net.channel();
        let f1 = net.channel();
        let f2 = net.channel();
        let trig = net.channel();
        let one = net.channel();
        let out = net.channel();
        net.add("src", IterSource::new(vec![vec![3]], vec![src_out]));
        net.add("fork", Fork::new(src_out, vec![f1, f2]));
        net.add("buf", Buffer::new(1, f2, trig));
        net.add("one", Constant::new(1, trig, one));
        // 40 cycles in flight with zero channel transfers while the token
        // marches through the pipe.
        net.add(
            "slow",
            BinaryAlu::with_latency(BinOp::Add, 40, f1, one, out),
        );
        let (sink, store) = Sink::collecting(vec![out]);
        net.add("sink", sink);
        (net, bus, store)
    };
    for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
        let (net, bus, store) = build();
        let mut sim = Simulator::new(net, bus)
            .expect("valid")
            .with_config(SimConfig {
                max_cycles: 10_000,
                watchdog: 8,
                scheduler,
            });
        let report = sim
            .run()
            .unwrap_or_else(|e| panic!("{scheduler:?}: slow drain misread as failure: {e}"));
        assert!(report.cycles > 40, "the drain really took the latency");
        assert_eq!(store.borrow().iter().map(|t| t.value).sum::<i64>(), 4);
    }
}

/// Satellite 4 (substrate half): randomized shapes — iteration counts,
/// ALU latencies, and buffer capacities drawn per case — must produce
/// byte-identical reports and outputs under both schedulers. The
/// squash-and-replay half of this property lives in the core crate's
/// end-to-end proptests, where a real PreVV controller drives the bus.
mod randomized {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn schedulers_agree_on_random_pipelines(
            n in 0i64..48,
            add_latency in 1u32..6,
            mul_latency in 1u32..6,
            buf_cap in 1usize..5,
        ) {
            let build = pipeline(n, add_latency, mul_latency, buf_cap);
            let (dense, dense_vals) = run_with(&build, Scheduler::Dense);
            let (event, event_vals) = run_with(&build, Scheduler::EventDriven);
            prop_assert!(dense.diff(&event).is_none(), "{}", dense.diff(&event).unwrap());
            prop_assert_eq!(dense_vals, event_vals);
        }
    }
}

/// The inverse of `watchdog_tolerates_long_latency_drain`: a genuinely
/// wedged circuit (an ALU starved of its second operand) still trips the
/// watchdog under both schedulers — stuck-but-settled components report no
/// state change.
#[test]
fn watchdog_still_trips_on_genuine_deadlock() {
    let build = || {
        let mut net = Netlist::new();
        let bus = SquashBus::new();
        let a = net.channel();
        let a_buf = net.channel();
        let b = net.channel();
        let b_buf = net.channel();
        let out = net.channel();
        net.add("src", IterSource::new(vec![vec![1]], vec![a]));
        net.add("buf_a", Buffer::new(1, a, a_buf));
        net.add("src_b", IterSource::new(vec![], vec![b]));
        net.add("buf_b", Buffer::new(1, b, b_buf));
        net.add("alu", BinaryAlu::new(BinOp::Add, a_buf, b_buf, out));
        net.add("sink", Sink::new(vec![out]));
        (net, bus)
    };
    for scheduler in [Scheduler::Dense, Scheduler::EventDriven] {
        let (net, bus) = build();
        let mut sim = Simulator::new(net, bus)
            .expect("valid")
            .with_config(SimConfig {
                max_cycles: 100_000,
                watchdog: 50,
                scheduler,
            });
        match sim.run() {
            Err(SimError::Deadlock { detail, .. }) => {
                assert!(detail.contains("buf_a"), "{scheduler:?}: {detail}");
            }
            other => panic!("{scheduler:?}: expected deadlock, got {other:?}"),
        }
    }
}
