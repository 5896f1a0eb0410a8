//! Engine-level squash semantics, isolated from any memory controller: a
//! scripted component posts squashes on the bus and the tests pin down
//! exactly what the engine flushes, what survives, and what the source
//! replays.

use std::cell::RefCell;
use std::rc::Rc;

use prevv_dataflow::components::{Buffer, IterSource, Sink};
use prevv_dataflow::{
    ChannelId, Component, Netlist, Ports, Signals, SimConfig, Simulator, SquashBus, Token,
};

/// Each delivered token with the round it arrived in.
type Seen = Rc<RefCell<Vec<(u32, Token)>>>;

/// Consumes tokens; each time it sees iteration `trigger_at` it posts a
/// squash from `squash_from`, up to `max_fires` times in total, so the
/// stream eventually passes. Each token is recorded with the number of
/// squashes posted before it arrived: its *round*. The engine applies a
/// squash in the cycle it is posted, so round `k` holds exactly the tokens
/// delivered between the `k`-th and the `k+1`-th flush.
#[derive(Debug)]
struct ScriptedSquasher {
    input: ChannelId,
    bus: SquashBus,
    trigger_at: u64,
    squash_from: u64,
    max_fires: u32,
    fires: u32,
    seen: Seen,
}

impl Component for ScriptedSquasher {
    fn type_name(&self) -> &'static str {
        "scripted_squasher"
    }
    fn ports(&self) -> Ports {
        Ports::new(vec![self.input], vec![])
    }
    fn eval(&self, sig: &mut Signals) {
        sig.accept(self.input);
    }
    fn commit(&mut self, sig: &Signals) -> bool {
        if let Some(t) = sig.taken(self.input) {
            self.seen.borrow_mut().push((self.fires, t));
            if t.iter == self.trigger_at && self.fires < self.max_fires {
                self.fires += 1;
                self.bus.post(self.squash_from);
            }
        }
        false
    }
}

/// The iterations delivered in round `k`, in arrival order.
fn round(seen: &[(u32, Token)], k: u32) -> Vec<u64> {
    seen.iter()
        .filter(|&&(r, _)| r == k)
        .map(|(_, t)| t.iter)
        .collect()
}

fn scripted_circuit(iters: i64, trigger_at: u64, squash_from: u64) -> (Netlist, SquashBus, Seen) {
    scripted_circuit_fires(iters, trigger_at, squash_from, 1)
}

fn scripted_circuit_fires(
    iters: i64,
    trigger_at: u64,
    squash_from: u64,
    max_fires: u32,
) -> (Netlist, SquashBus, Seen) {
    let mut net = Netlist::new();
    let bus = SquashBus::new();
    let src_out = net.channel();
    let buffered = net.channel();
    net.add(
        "src",
        IterSource::new((0..iters).map(|i| vec![i]).collect(), vec![src_out]),
    );
    net.add("buf", Buffer::new(4, src_out, buffered));
    let seen = Rc::new(RefCell::new(Vec::new()));
    net.add(
        "squasher",
        ScriptedSquasher {
            input: buffered,
            bus: bus.clone(),
            trigger_at,
            squash_from,
            max_fires,
            fires: 0,
            seen: seen.clone(),
        },
    );
    (net, bus, seen)
}

#[test]
fn squash_replays_from_the_requested_iteration() {
    let (net, bus, seen) = scripted_circuit(8, 5, 3);
    let mut sim = Simulator::new(net, bus).expect("valid");
    let report = sim.run().expect("completes");
    assert_eq!(report.squashes, 1);

    // Before the squash: iterations 0..=5 in round 0. After: 3..=7 in
    // round 1. (Iteration 5 triggered the squash from 3.)
    let before = round(&seen.borrow(), 0);
    let after = round(&seen.borrow(), 1);
    assert!(before.contains(&5), "the trigger itself was consumed");
    assert!(
        before.iter().all(|&i| i <= 5),
        "nothing beyond the trigger leaked before the squash: {before:?}"
    );
    assert_eq!(
        after,
        vec![3, 4, 5, 6, 7],
        "replay restarts exactly at the squash point"
    );
}

#[test]
fn tokens_of_older_iterations_survive_the_flush() {
    // Squash from iteration 6 while iterations 0..6 are already delivered:
    // they must each be seen exactly once.
    let (net, bus, seen) = scripted_circuit(10, 6, 6);
    let mut sim = Simulator::new(net, bus).expect("valid");
    sim.run().expect("completes");
    let tokens = seen.borrow();
    let count = |i: u64| tokens.iter().filter(|(_, t)| t.iter == i).count();
    for i in 0..6u64 {
        assert_eq!(count(i), 1, "iteration {i} must be seen exactly once");
    }
    // Iteration 6 is seen twice: once before the squash, once replayed.
    assert_eq!(count(6), 2);
}

#[test]
fn double_squash_converges() {
    // Trigger at 4, squash from 4, twice: the first replay of iteration 4
    // triggers a second squash, and the second replay finally passes.
    let (net, bus, seen) = scripted_circuit_fires(6, 4, 4, 2);
    let mut sim = Simulator::new(net, bus)
        .expect("valid")
        .with_config(SimConfig {
            max_cycles: 10_000,
            watchdog: 500,
            ..SimConfig::default()
        });
    let report = sim.run().expect("completes");
    assert_eq!(report.squashes, 2);
    let tokens = seen.borrow();
    let last_round = tokens.iter().map(|&(r, _)| r).max().expect("tokens");
    assert_eq!(last_round, 2);
    assert_eq!(round(&tokens, 1), vec![4], "the first replay squashes at 4");
    // The final round delivers 4 and 5 to completion.
    assert_eq!(round(&tokens, 2), vec![4, 5]);
}

#[test]
fn flush_purges_buffered_tokens_of_squashed_iterations() {
    // A deep buffer holds iterations ahead of the squasher; after the
    // squash none of the flushed tokens may reach it before the replay.
    let mut net = Netlist::new();
    let bus = SquashBus::new();
    let src_out = net.channel();
    let deep = net.channel();
    net.add(
        "src",
        IterSource::new((0..12).map(|i| vec![i]).collect(), vec![src_out]),
    );
    net.add("deep", Buffer::new(8, src_out, deep));
    let seen = Rc::new(RefCell::new(Vec::new()));
    net.add(
        "squasher",
        ScriptedSquasher {
            input: deep,
            bus: bus.clone(),
            trigger_at: 2,
            squash_from: 3,
            max_fires: 1,
            fires: 0,
            seen: seen.clone(),
        },
    );
    let mut sim = Simulator::new(net, bus).expect("valid");
    sim.run().expect("completes");
    let tokens = seen.borrow();
    // Iterations >= 3 must never be observed before the squash even though
    // the buffer was holding several of them when the squash hit.
    assert_eq!(
        round(&tokens, 0),
        vec![0, 1, 2],
        "flushed tokens leaked: {tokens:?}"
    );
    // And every later iteration is delivered exactly once after it.
    assert_eq!(round(&tokens, 1), (3..12).collect::<Vec<u64>>());
}

#[test]
fn sink_and_source_quiesce_after_replay() {
    let (net, bus, _) = scripted_circuit(16, 9, 2);
    let mut sim = Simulator::new(net, bus).expect("valid");
    let report = sim.run().expect("completes");
    assert!(sim.quiescent());
    // 16 + (16 - 2) iterations of source work happened in total.
    assert!(report.transfers >= 30);
    let _ = Sink::new(vec![]); // keep the import exercised in this test file
}
