//! Unit-level tests of [`PrevvMemory`] driven directly through its channel
//! interface — no synthesized kernel, no datapath. This pins down the exact
//! cycle-level contract for adversarial arrival interleavings that a real
//! circuit only produces probabilistically.

use prevv_core::{PrevvConfig, PrevvMemory, SharedPrevvStats};
use prevv_dataflow::{ChannelId, Component, Signals, SquashBus, Token};
use prevv_ir::depend::StaticMemOp;
use prevv_ir::{ArrayId, ArrayLayout, Expr, MemOpKind, MemoryInterface, MemoryPort};
use prevv_mem::SharedRam;

/// A hand-built interface: one load port and one store port over an 8-word
/// array, channels numbered manually.
///
/// Channel map: 0 = alloc, 1 = load addr, 2 = load data out,
/// 3 = store addr, 4 = store data.
fn two_port_iface() -> MemoryInterface {
    let ch = ChannelId::from_index;
    let load_op = StaticMemOp {
        id: 0,
        stmt: 0,
        seq: 0,
        kind: MemOpKind::Load,
        array: ArrayId(0),
        guarded: false,
        index: Expr::var(0),
    };
    let store_op = StaticMemOp {
        id: 1,
        stmt: 0,
        seq: 1,
        kind: MemOpKind::Store,
        array: ArrayId(0),
        guarded: false,
        index: Expr::var(0),
    };
    MemoryInterface {
        ports: vec![
            MemoryPort {
                op: load_op,
                addr_in: ch(1),
                data_in: None,
                data_out: Some(ch(2)),
                fake_in: None,
            },
            MemoryPort {
                op: store_op,
                addr_in: ch(3),
                data_in: Some(ch(4)),
                data_out: None,
                fake_in: None,
            },
        ],
        alloc_in: ch(0),
        arrays: vec![ArrayLayout {
            name: "a".into(),
            base: 0,
            len: 8,
            init: vec![0; 8],
        }],
        iterations: 64,
        pairs: vec![prevv_ir::depend::AmbiguousPair { load: 0, store: 1 }],
    }
}

struct Bench {
    ctrl: PrevvMemory,
    ram: SharedRam,
    stats: SharedPrevvStats,
    log: prevv_core::SharedSquashLog,
    bus: SquashBus,
    cycle: u64,
    results: Vec<Token>,
}

impl Bench {
    fn new(config: PrevvConfig) -> Self {
        let bus = SquashBus::new();
        let (ctrl, ram, stats) =
            PrevvMemory::new(two_port_iface(), config, bus.clone()).expect("deep enough");
        let log = ctrl.squash_log();
        Bench {
            ctrl,
            ram,
            stats,
            log,
            bus,
            cycle: 0,
            results: Vec::new(),
        }
    }

    /// Runs one cycle, optionally driving load-addr / store-addr+data
    /// tokens, always accepting load results. Returns tokens accepted from
    /// us this cycle as (load_addr_taken, store_taken).
    fn cycle(&mut self, load_addr: Option<Token>, store: Option<(Token, Token)>) -> (bool, bool) {
        let ch = ChannelId::from_index;
        let mut sig = Signals::new(5);
        if let Some(t) = load_addr {
            sig.drive(ch(1), t);
        }
        if let Some((a, d)) = store {
            sig.drive(ch(3), a);
            sig.drive(ch(4), d);
        }
        sig.accept(ch(2));
        let converged = sig.settle_with(8, |s| self.ctrl.eval(s));
        assert!(converged, "controller eval must converge");
        let load_taken = sig.fired(ch(1));
        let store_taken = sig.fired(ch(3)) && sig.fired(ch(4));
        if let Some(t) = sig.taken(ch(2)) {
            self.results.push(t);
        }
        self.ctrl.commit(&sig);
        // Apply any squash the way the engine would.
        if let Some(from) = self.bus.take_pending() {
            self.ctrl.flush(from);
        }
        self.cycle += 1;
        (load_taken, store_taken)
    }

    fn idle_cycles(&mut self, n: usize) {
        for _ in 0..n {
            self.cycle(None, None);
        }
    }

    fn ram_at(&self, addr: usize) -> i64 {
        self.ram.borrow().image()[addr]
    }
}

fn tok(value: i64, iter: u64) -> Token {
    Token::new(value, iter)
}

#[test]
fn store_then_load_forwards_from_the_queue() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Iteration 0: store a[3] = 42 arrives first; its iteration's load has
    // not arrived yet, so the store cannot commit.
    let (_, st) = b.cycle(None, Some((tok(3, 0), tok(42, 0))));
    assert!(st, "store accepted");
    // Iteration 1: load a[3] arrives with the store resident-uncommitted.
    let (ld, _) = b.cycle(Some(tok(3, 1)), None);
    assert!(ld, "load accepted");
    b.idle_cycles(4);
    assert_eq!(b.stats.borrow().forwards, 1, "value came from the queue");
    assert_eq!(b.stats.borrow().squashes, 0);
    assert_eq!(b.stats.borrow().ram_writes, 0, "no premature RAM write");
    assert_eq!(b.ram_at(3), 0);
    // Result delivery is iteration-ordered: nothing can leave until
    // iteration 0's load arrives (every port sees one op per iteration).
    assert!(b.results.is_empty(), "iteration 0 gates delivery");
    b.cycle(Some(tok(1, 0)), None);
    b.idle_cycles(8);
    assert_eq!(b.results.len(), 2);
    assert_eq!(b.results[0].iter, 0);
    assert_eq!(
        (b.results[1].iter, b.results[1].value),
        (1, 42),
        "the forwarded value reaches the datapath"
    );
    // With both iterations complete the store retires and commits.
    assert_eq!(b.ram_at(3), 42);
}

#[test]
fn frontier_gates_commit_and_completion_releases_it() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Iteration 0: both ops arrive (load a[0], store a[3]).
    b.cycle(Some(tok(0, 0)), Some((tok(3, 0), tok(42, 0))));
    b.idle_cycles(8);
    // All of iteration 0 arrived, so the frontier passed it and the store
    // committed in (iter, seq) order.
    assert_eq!(b.stats.borrow().ram_writes, 1);
    assert_eq!(b.ram_at(3), 42);
    assert_eq!(b.results.len(), 1, "load result delivered");
    assert_eq!(b.results[0].value, 0, "a[0] was zero");
}

#[test]
fn late_store_flags_premature_load_and_squashes() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Iteration 0's load (unrelated address) keeps the contract intact.
    b.cycle(Some(tok(0, 0)), None);
    // Iteration 1's load of a[5] executes prematurely (nothing resident).
    b.cycle(Some(tok(5, 1)), None);
    b.idle_cycles(6);
    assert_eq!(b.results.len(), 2);
    assert_eq!(b.results[1].value, 0, "read stale zero");
    // Now iteration 0's store to a[5] with a different value arrives.
    b.cycle(None, Some((tok(5, 0), tok(99, 0))));
    b.idle_cycles(2);
    let stats = *b.stats.borrow();
    assert_eq!(stats.violations, 1, "value mismatch must be detected");
    assert_eq!(stats.squashes, 1);
    assert!(b.bus.squash_count() >= 1, "the engine side took the squash");
    // The datapath replays iteration 1's load. By now
    // iteration 0 is complete, so its store has committed (or will bypass).
    b.cycle(Some(tok(5, 1)), None);
    b.idle_cycles(10);
    assert_eq!(b.ram_at(5), 99, "store committed after retirement");
    let last = b.results.last().expect("replayed result");
    assert_eq!(
        (last.iter, last.value),
        (1, 99),
        "replayed load observes the store"
    );
}

#[test]
fn benign_same_value_store_does_not_squash() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    b.cycle(Some(tok(0, 0)), None);
    // Load of iteration 1 reads a[5] = 0 prematurely.
    b.cycle(Some(tok(5, 1)), None);
    b.idle_cycles(6);
    // Iteration 0's store writes the SAME value the load already read.
    b.cycle(None, Some((tok(5, 0), tok(0, 0))));
    b.idle_cycles(4);
    let stats = *b.stats.borrow();
    assert_eq!(stats.squashes, 0, "value validation accepts equal values");
    assert_eq!(stats.violations, 0);
}

#[test]
fn waw_commits_in_program_order_despite_reversed_arrival() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Iteration 1's store arrives BEFORE iteration 0's store, same address.
    b.cycle(None, Some((tok(2, 1), tok(111, 1))));
    b.cycle(None, Some((tok(2, 0), tok(222, 0))));
    // Loads of iterations 0 and 1 also arrive so the frontier can move.
    b.cycle(Some(tok(0, 0)), None);
    b.cycle(Some(tok(1, 1)), None);
    b.idle_cycles(12);
    assert_eq!(b.stats.borrow().ram_writes, 2);
    assert_eq!(
        b.ram_at(2),
        111,
        "iteration 1's store must be the final value (WAW order)"
    );
}

#[test]
fn queue_backpressures_when_admission_would_starve_older_iterations() {
    // Depth exactly 2 (= ports per iteration): only one iteration may be in
    // flight; a younger iteration's op must wait.
    let mut b = Bench::new(PrevvConfig::with_depth(2));
    let (ld, _) = b.cycle(Some(tok(0, 0)), None);
    assert!(ld);
    b.idle_cycles(4);
    // Iteration 1's load cannot be admitted: iteration 0's store is still
    // outstanding and owns the reserved slot.
    let (ld1, _) = b.cycle(Some(tok(1, 1)), None);
    let accepted_early = ld1;
    // Iteration 0's store arrives; iteration 0 completes, retires, and the
    // queue drains.
    b.cycle(None, Some((tok(4, 0), tok(7, 0))));
    b.idle_cycles(8);
    // Now iteration 1's load is admitted.
    let (ld1_retry, _) = if accepted_early {
        (true, false)
    } else {
        b.cycle(Some(tok(1, 1)), None)
    };
    assert!(ld1_retry, "after draining, the load must be admitted");
    assert!(
        b.stats.borrow().queue_full_stalls > 0 || accepted_early,
        "the reservation should have stalled at least once"
    );
}

#[test]
fn predictor_learns_and_prevents_the_second_squash() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Round 1: loads run three iterations ahead of their producer stores at
    // distance 1 on the same address — a guaranteed race.
    b.cycle(Some(tok(2, 0)), None);
    b.cycle(Some(tok(2, 1)), None);
    b.idle_cycles(4);
    // The store of iteration 0 arrives with a conflicting value: squash.
    b.cycle(None, Some((tok(2, 0), tok(50, 0))));
    b.idle_cycles(2);
    assert_eq!(b.stats.borrow().squashes, 1);
    assert_eq!(b.stats.borrow().predictions_learned, 1);
    let ev = b.stats.borrow();
    drop(ev);
    // Replay iteration 1; the predictor now holds the
    // load until port 1's op of iteration 0 has arrived — it has, so the
    // bypass forwards 50 with no further squash.
    b.cycle(Some(tok(2, 1)), None);
    b.idle_cycles(6);
    assert_eq!(b.stats.borrow().squashes, 1, "no repeat squash");
    let last = b.results.last().expect("replayed result");
    assert_eq!(last.value, 50, "bypassed from the resident store");
    // And the event log recorded exactly the one violation with distance 1.
    assert_eq!(b.log.borrow().len(), 1);
    assert_eq!(b.log.borrow()[0].distance, 1);
    assert_eq!(b.log.borrow()[0].from_iter, 1);
}

#[test]
fn predictor_hold_is_address_qualified() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Teach the predictor a (load <- store, d=1) dependence via one squash.
    b.cycle(Some(tok(2, 0)), None);
    b.cycle(Some(tok(2, 1)), None);
    b.idle_cycles(4);
    b.cycle(None, Some((tok(2, 0), tok(50, 0))));
    b.idle_cycles(2);
    assert_eq!(b.stats.borrow().squashes, 1);
    // Replay: iteration 1's store goes to a DIFFERENT address (7), and its
    // address token is visible when iteration 2's load (addr 3) issues —
    // the qualified hold must let the load through without waiting for the
    // store's data.
    b.cycle(Some(tok(2, 1)), None);
    b.idle_cycles(4);
    let holds_before = b.stats.borrow().predictor_holds;
    // Offer iteration 1's store addr+data and iteration 2's load together.
    b.cycle(Some(tok(3, 2)), Some((tok(7, 1), tok(9, 1))));
    b.idle_cycles(8);
    // The iteration-2 load must complete (deliver a result) without a new
    // squash; any holds taken must be transient.
    assert_eq!(b.stats.borrow().squashes, 1, "no new squash");
    let _ = holds_before;
    assert!(
        b.results.iter().any(|t| t.iter == 2),
        "iteration 2's load delivered: {:?}",
        b.results
    );
}

#[test]
fn out_of_order_results_deliver_in_iteration_order() {
    let mut b = Bench::new(PrevvConfig::prevv16());
    // Store a[6] = 5 in iteration 0 (resident → iteration 2's load will
    // bypass instantly) plus iteration 0's own load.
    b.cycle(Some(tok(4, 0)), Some((tok(6, 0), tok(5, 0))));
    // Drive the next loads in consecutive cycles: iter 1 (RAM, slow),
    // iter 2 (bypass, fast — it would complete first without reordering).
    b.cycle(Some(tok(7, 1)), None);
    b.cycle(Some(tok(6, 2)), None);
    b.idle_cycles(10);
    assert_eq!(b.results.len(), 3);
    let iters: Vec<u64> = b.results.iter().map(|t| t.iter).collect();
    assert_eq!(
        iters,
        vec![0, 1, 2],
        "the port reorders completions into iteration order"
    );
    assert_eq!(b.results[1].value, 0, "a[7] was zero");
    assert_eq!(b.results[2].value, 5, "bypassed from iteration 0's store");
}
