//! The arbiter: premature value validation (paper §III, Eq. 2–5, and §IV-C).
//!
//! On every arrival (the paper's LMerge/SMerge output) the arbiter walks the
//! premature queue head to tail and applies the violation test: an
//! earlier-iteration operation of the opposite kind at the same index with a
//! *different value* proves that the later operation consumed stale data, so
//! the pipeline behind it must be squashed. Ties on the iteration number are
//! broken with the order-ROM sequence numbers, as the paper prescribes.
//!
//! Two readings beyond the paper's literal text are implemented (see
//! DESIGN.md §4):
//!
//! * **Symmetric check** — arrivals are unordered, so an arriving *load*
//!   must also be compared against resident earlier-iteration stores
//!   (otherwise a load arriving after its conflicting store would never be
//!   validated and the scheme would be unsound).
//! * **Youngest-store matching** — a load is compared only against the
//!   youngest older store to the same address: that store's value is what
//!   the load should have observed. Comparing against every older store
//!   would raise false squashes when the same address is written twice.
//!
//! Note what is *not* here: WAR hazards cannot occur (premature stores never
//! touch RAM before commit), and WAW hazards are handled by the in-order
//! commit cursor, so only RAW validation logic exists — one comparator
//! walking a FIFO instead of the LSQ's per-entry CAM.

use std::collections::HashSet;

use prevv_dataflow::Value;
use prevv_ir::MemOpKind;

use crate::queue::PrematureQueue;
use crate::record::PrematureRecord;

/// A detected violation: which iteration must replay, and which load/store
/// port pair raced (so the controller's dependence predictor can prevent
/// the same race after the replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// First mis-speculated iteration.
    pub from_iter: u64,
    /// Port of the load that consumed stale data.
    pub load_port: usize,
    /// Port of the store it should have observed.
    pub store_port: usize,
    /// Iteration distance `load.iter - store.iter` (0 = same iteration,
    /// ordered by the ROM sequence).
    pub distance: u64,
}

/// Outcome of validating one arriving operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No violation: all compared values matched (or nothing to compare).
    Clean,
    /// Forwarding mode only: the arriving load should use this value (from
    /// the youngest older resident store) instead of its premature one.
    Forward(Value),
    /// A violation was detected: squash and replay.
    Squash(Violation),
}

impl Verdict {
    /// The squash restart iteration, if this verdict is a squash.
    pub fn squash_from(&self) -> Option<u64> {
        match self {
            Verdict::Squash(v) => Some(v.from_iter),
            _ => None,
        }
    }
}

/// Counters describing the arbiter's work (the paper's "search burden").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Arrivals validated.
    pub validations: u64,
    /// Queue records examined across all validations.
    pub comparisons: u64,
    /// Violations found (each triggers one squash request).
    pub violations: u64,
    /// Loads satisfied by forwarding (forwarding mode only).
    pub forwards: u64,
    /// Arrivals whose validation was skipped because the port is not in any
    /// ambiguous pair (pair-reduction benefit, paper §V-B).
    pub skipped: u64,
}

/// The validation engine.
#[derive(Debug, Clone)]
pub struct Arbiter {
    /// Ports whose arrivals trigger a validation search. Ports outside every
    /// ambiguous pair are exempt (they cannot conflict, by dependence
    /// analysis), which is the §V-B dimension reduction.
    validated_ports: HashSet<usize>,
    /// Forward from resident stores instead of squashing (ablation option).
    forwarding: bool,
    stats: ArbiterStats,
}

impl Arbiter {
    /// Creates an arbiter validating the given ports.
    pub fn new(validated_ports: HashSet<usize>, forwarding: bool) -> Self {
        Arbiter {
            validated_ports,
            forwarding,
            stats: ArbiterStats::default(),
        }
    }

    /// Work counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// Is this port's traffic validated?
    pub fn validates(&self, port: usize) -> bool {
        self.validated_ports.contains(&port)
    }

    /// Validates `arriving` against the resident queue (which must not yet
    /// contain it). Fake records never trigger violations — their only role
    /// is advancing retirement (paper §V-C).
    pub fn validate(&mut self, queue: &PrematureQueue, arriving: &PrematureRecord) -> Verdict {
        if arriving.fake {
            return Verdict::Clean;
        }
        if !self.validated_ports.contains(&arriving.port) {
            self.stats.skipped += 1;
            return Verdict::Clean;
        }
        self.stats.validations += 1;
        self.stats.comparisons += queue.len() as u64;
        let verdict = self.verdict(queue, arriving);
        match verdict {
            Verdict::Squash { .. } => self.stats.violations += 1,
            Verdict::Forward(_) => self.stats.forwards += 1,
            Verdict::Clean => {}
        }
        verdict
    }

    /// The pure violation test (paper Eq. 2–5): the verdict for `arriving`
    /// against the resident queue, with no statistics, no port filter and no
    /// fake shortcut — exactly the comparator network, usable by callers
    /// (such as the `prevv-analyze` model checker) that enumerate verdicts
    /// without simulating. [`Self::validate`] is the simulator-facing wrapper
    /// that applies the §V-B port exemptions and counts the work.
    ///
    /// # Panics
    ///
    /// Panics if `arriving` is a fake record (fakes carry no address).
    pub fn verdict(&self, queue: &PrematureQueue, arriving: &PrematureRecord) -> Verdict {
        match arriving.kind {
            MemOpKind::Store => self.validate_store(queue, arriving),
            MemOpKind::Load => self.validate_load(queue, arriving),
        }
    }

    /// Paper Eq. 2–5: an arriving store flags every resident
    /// *later*-in-program-order load of the same address whose value differs
    /// — unless another store to that address sits between them (then that
    /// store's own validation governs the load).
    fn validate_store(&self, queue: &PrematureQueue, store: &PrematureRecord) -> Verdict {
        let addr = store.addr.expect("real record");
        let mut worst: Option<Violation> = None;
        for load in queue.iter() {
            if load.fake
                || load.kind != MemOpKind::Load
                || load.addr != Some(addr)
                || load.order() <= store.order()
            {
                continue;
            }
            // Intervening store to the same address between `store` and
            // `load`? Then `load` should observe that one, not `store`.
            let intervened = queue.iter().any(|m| {
                !m.fake
                    && m.kind == MemOpKind::Store
                    && m.addr == Some(addr)
                    && store.order() < m.order()
                    && m.order() < load.order()
            });
            if intervened {
                continue;
            }
            if load.value != store.value && worst.is_none_or(|w| load.iter < w.from_iter) {
                worst = Some(Violation {
                    from_iter: load.iter,
                    load_port: load.port,
                    store_port: store.port,
                    distance: load.iter - store.iter,
                });
            }
        }
        match worst {
            Some(v) => Verdict::Squash(v),
            None => Verdict::Clean,
        }
    }

    /// Symmetric direction: the arriving load is compared against the
    /// youngest resident older store to the same address — the value the
    /// load should have read. In forwarding mode the store's value is handed
    /// to the load instead of squashing.
    fn validate_load(&self, queue: &PrematureQueue, load: &PrematureRecord) -> Verdict {
        let addr = load.addr.expect("real record");
        let youngest = queue
            .iter()
            .filter(|s| {
                !s.fake
                    && s.kind == MemOpKind::Store
                    && s.addr == Some(addr)
                    && s.order() < load.order()
            })
            .max_by_key(|s| s.order());
        match youngest {
            None => Verdict::Clean,
            Some(s) if s.value == load.value => Verdict::Clean,
            Some(s) if self.forwarding => Verdict::Forward(s.value),
            // Same-iteration forwarding is unconditional: a squash replays
            // the whole iteration, which cannot change the intra-iteration
            // arrival order, so squashing a same-iteration mismatch would
            // recur forever (pure value validation is incomplete for
            // intra-iteration RAW; see DESIGN.md §4).
            Some(s) if s.iter == load.iter => Verdict::Forward(s.value),
            Some(s) => Verdict::Squash(Violation {
                from_iter: load.iter,
                load_port: load.port,
                store_port: s.port,
                distance: load.iter - s.iter,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(iter: u64, seq: u32, addr: usize, value: Value) -> PrematureRecord {
        PrematureRecord::real(0, MemOpKind::Load, iter, seq, addr, value)
    }

    fn store(iter: u64, seq: u32, addr: usize, value: Value) -> PrematureRecord {
        PrematureRecord::real(1, MemOpKind::Store, iter, seq, addr, value)
    }

    fn arbiter() -> Arbiter {
        Arbiter::new([0usize, 1].into_iter().collect(), false)
    }

    #[test]
    fn raw_violation_on_store_arrival() {
        // Paper's C_3^2 / C_5^1 scenario: the later-iteration load executed
        // early with the stale value; the earlier-iteration store arrives
        // and flags it.
        let mut q = PrematureQueue::new(8);
        q.push(load(5, 0, 10, 0)); // read stale 0
        let mut arb = arbiter();
        let v = arb.validate(&q, &store(3, 1, 10, 42));
        assert_eq!(v.squash_from(), Some(5));
        assert_eq!(arb.stats().violations, 1);
        if let Verdict::Squash(viol) = v {
            assert_eq!(viol.load_port, 0);
            assert_eq!(viol.store_port, 1);
            assert_eq!(viol.distance, 2);
        } else {
            panic!("expected squash");
        }
    }

    #[test]
    fn matching_values_are_benign() {
        // Value validation's gift: if the store writes the value the load
        // already read, execution was correct despite the reordering.
        let mut q = PrematureQueue::new(8);
        q.push(load(5, 0, 10, 42));
        let mut arb = arbiter();
        assert_eq!(arb.validate(&q, &store(3, 1, 10, 42)), Verdict::Clean);
    }

    #[test]
    fn different_address_is_clean() {
        let mut q = PrematureQueue::new(8);
        q.push(load(5, 0, 11, 0));
        let mut arb = arbiter();
        assert_eq!(arb.validate(&q, &store(3, 1, 10, 42)), Verdict::Clean);
    }

    #[test]
    fn symmetric_check_flags_late_arriving_load() {
        // The store is already resident; the conflicting load arrives later
        // carrying the stale value it read from RAM.
        let mut q = PrematureQueue::new(8);
        q.push(store(3, 1, 10, 42));
        let mut arb = arbiter();
        let v = arb.validate(&q, &load(5, 0, 10, 0));
        assert_eq!(v.squash_from(), Some(5));
    }

    #[test]
    fn load_compares_against_youngest_older_store_only() {
        // Stores to addr 10 in iterations 2 and 4; a load from iteration 6
        // that read iteration 4's value is CORRECT even though it differs
        // from iteration 2's value.
        let mut q = PrematureQueue::new(8);
        q.push(store(2, 1, 10, 100));
        q.push(store(4, 1, 10, 200));
        let mut arb = arbiter();
        assert_eq!(arb.validate(&q, &load(6, 0, 10, 200)), Verdict::Clean);
        assert_eq!(
            arb.validate(&q, &load(6, 0, 10, 100)).squash_from(),
            Some(6),
            "reading the older store's value is stale"
        );
    }

    #[test]
    fn intervening_store_suppresses_false_squash() {
        // Store(2)=100, store(4)=200 resident... now store(2) arrives while
        // a load(6)=200 is resident: the load read iteration 4's value,
        // which is correct; iteration 2's arrival must not flag it.
        let mut q = PrematureQueue::new(8);
        q.push(store(4, 1, 10, 200));
        q.push(load(6, 0, 10, 200));
        let mut arb = arbiter();
        assert_eq!(arb.validate(&q, &store(2, 1, 10, 100)), Verdict::Clean);
    }

    #[test]
    fn same_iteration_ties_break_on_rom_sequence() {
        // Within one iteration, the order ROM (seq) decides: a load at seq 2
        // must observe the store at seq 1 of the same iteration.
        let mut q = PrematureQueue::new(8);
        q.push(PrematureRecord::real(0, MemOpKind::Load, 3, 2, 10, 0));
        let mut arb = arbiter();
        let st = PrematureRecord::real(1, MemOpKind::Store, 3, 1, 10, 9);
        assert_eq!(arb.validate(&q, &st).squash_from(), Some(3));
        // The reverse order (store at seq 2, load at seq 1) is fine: the
        // load legitimately precedes the store.
        let mut q = PrematureQueue::new(8);
        q.push(PrematureRecord::real(0, MemOpKind::Load, 3, 1, 10, 0));
        let st = PrematureRecord::real(1, MemOpKind::Store, 3, 2, 10, 9);
        assert_eq!(arb.validate(&q, &st), Verdict::Clean);
    }

    #[test]
    fn fake_records_never_violate() {
        let mut q = PrematureQueue::new(8);
        q.push(load(5, 0, 10, 0));
        let mut arb = arbiter();
        let fake = PrematureRecord::fake(1, MemOpKind::Store, 3, 1);
        assert_eq!(arb.validate(&q, &fake), Verdict::Clean);
        // Resident fakes are transparent to real validations.
        q.push(PrematureRecord::fake(1, MemOpKind::Store, 4, 1));
        assert_eq!(
            arb.validate(&q, &store(3, 1, 10, 42)).squash_from(),
            Some(5)
        );
    }

    #[test]
    fn unvalidated_ports_skip_the_search() {
        let mut q = PrematureQueue::new(8);
        q.push(load(5, 0, 10, 0));
        let mut arb = Arbiter::new(HashSet::new(), false);
        assert_eq!(arb.validate(&q, &store(3, 1, 10, 42)), Verdict::Clean);
        assert_eq!(arb.stats().skipped, 1);
        assert_eq!(arb.stats().comparisons, 0);
    }

    #[test]
    fn forwarding_mode_hands_over_the_store_value() {
        let mut q = PrematureQueue::new(8);
        q.push(store(3, 1, 10, 42));
        let mut arb = Arbiter::new([0usize, 1].into_iter().collect(), true);
        assert_eq!(arb.validate(&q, &load(5, 0, 10, 0)), Verdict::Forward(42));
        assert_eq!(arb.stats().forwards, 1);
        assert_eq!(arb.stats().violations, 0);
    }

    #[test]
    fn multiple_flagged_loads_squash_from_the_earliest() {
        let mut q = PrematureQueue::new(8);
        q.push(load(7, 0, 10, 0));
        q.push(load(5, 0, 10, 1));
        let mut arb = arbiter();
        assert_eq!(
            arb.validate(&q, &store(3, 1, 10, 42)).squash_from(),
            Some(5)
        );
    }

    #[test]
    fn comparison_count_tracks_queue_walk() {
        let mut q = PrematureQueue::new(8);
        for i in 0..4 {
            q.push(load(i + 10, 0, 99, 0));
        }
        let mut arb = arbiter();
        arb.validate(&q, &store(3, 1, 10, 42));
        assert_eq!(arb.stats().comparisons, 4, "head-to-tail walk");
    }
}
