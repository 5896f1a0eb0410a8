//! The PreVV retirement protocol as a pure, cloneable state machine.
//!
//! [`ProtocolState`] owns exactly the state that decides whether the
//! protocol makes progress: the premature queue, the completion *frontier*
//! (all iterations below it have fully arrived), the in-order store-commit
//! cursor, and the per-iteration arrival/admission counts behind the
//! deadlock-free admission reservation. Every transition is a plain method
//! with no I/O, no interior mutability and no timing — which makes the same
//! functions usable both by the cycle-accurate controller
//! ([`PrevvMemory`](crate::PrevvMemory) delegates here every cycle) and by
//! the `prevv-analyze` bounded model checker, which clones states and
//! explores every arrival interleaving exhaustively. Keeping one
//! implementation eliminates drift between what is *simulated* and what is
//! *verified*.
//!
//! The protocol invariants encoded here (and checked by the model checker's
//! PV2xx lints):
//!
//! * **Frontier** — iteration `i` completes when all `ports_per_iter` of its
//!   operations have arrived, really or fakely (paper §IV-B). Records of
//!   iterations at or beyond the frontier are always still resident, so
//!   residency plus the frontier decides per-op arrival exactly.
//! * **Admission reservation** — an op of iteration `i` may take a queue
//!   slot only if every not-yet-admitted op of an *older* iteration still
//!   has a reserved slot afterwards. Without this a queue full of young
//!   records would block the very arrivals the frontier waits for (the
//!   paper's §V-C deadlock shape, caused by capacity rather than guards).
//! * **In-order commit** — stores write RAM strictly in `(iteration,
//!   ROM-sequence)` order once the frontier has passed them, preserving WAW
//!   order; fake stores consume their commit slot without touching RAM.
//! * **Squash flush** — a squash from iteration `f` drops every record of
//!   iterations `>= f`; committed stores are never dropped because the
//!   frontier (and hence the commit cursor) never passes a pending squash
//!   point.

use std::fmt;
use std::ops::Range;

use prevv_ir::MemOpKind;

use crate::queue::PrematureQueue;
use crate::record::PrematureRecord;

/// What [`ProtocolState::commit_step`] did for one store slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStep {
    /// A real store committed: write `value` to `addr` in RAM.
    Write {
        /// Flat RAM address of the committed store.
        addr: usize,
        /// Value written.
        value: prevv_dataflow::Value,
    },
    /// A fake store consumed its commit slot without touching RAM.
    Fake,
    /// Nothing to commit: the next store slot's iteration has not been
    /// passed by the frontier yet (or the kernel has no stores).
    Blocked,
}

/// The pure protocol state: everything that decides progress, nothing that
/// decides timing. Compare states via [`ProtocolState::key`], which is
/// insensitive to physical queue geometry.
#[derive(Debug)]
pub struct ProtocolState {
    /// The premature queue (paper Fig. 4).
    pub queue: PrematureQueue,
    /// All iterations below this have fully arrived; their loads can retire
    /// and their stores commit.
    pub frontier: u64,
    /// Global store-slot commit cursor: `next_commit / stores_per_iter` is
    /// the iteration, `next_commit % stores_per_iter` indexes the ascending
    /// store-sequence list.
    pub next_commit: u64,
    /// Arrived-op counts per iteration (real + fake), for the frontier.
    pub arrived: IterCounts,
    /// Admitted-op counts per iteration (arrived plus loads in flight):
    /// input to the admission reservation.
    pub admitted: IterCounts,
}

impl Clone for ProtocolState {
    fn clone(&self) -> Self {
        ProtocolState {
            queue: self.queue.clone(),
            frontier: self.frontier,
            next_commit: self.next_commit,
            arrived: self.arrived.clone(),
            admitted: self.admitted.clone(),
        }
    }

    /// Field-wise assignment so the queue ring and both counter buffers are
    /// reused. The model checker leans on this in its scratch-state hot
    /// loop.
    fn clone_from(&mut self, source: &Self) {
        self.queue.clone_from(&source.queue);
        self.frontier = source.frontier;
        self.next_commit = source.next_commit;
        self.arrived.clone_from(&source.arrived);
        self.admitted.clone_from(&source.admitted);
    }
}

impl ProtocolState {
    /// A fresh protocol state over an empty queue of capacity `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (see [`PrematureQueue::new`]).
    pub fn new(depth: usize) -> Self {
        ProtocolState {
            queue: PrematureQueue::new(depth),
            frontier: 0,
            next_commit: 0,
            arrived: IterCounts::default(),
            admitted: IterCounts::default(),
        }
    }

    /// Free queue slots after subtracting `inflight` reservations held by
    /// operations admitted but not yet arrived (in-flight RAM reads).
    pub fn free_slots(&self, inflight: usize) -> usize {
        self.queue
            .depth()
            .saturating_sub(self.queue.len() + inflight)
    }

    /// Ops of iterations in `[frontier, iter)` that have not been admitted
    /// yet. They will all need queue slots, and the frontier (hence
    /// retirement) cannot advance without them.
    pub fn outstanding_before(&self, iter: u64, ports_per_iter: u32) -> usize {
        if iter <= self.frontier {
            // Ops of complete iterations never re-arrive; guard anyway so a
            // malformed driver cannot panic the range query below.
            return 0;
        }
        let per = u64::from(ports_per_iter);
        let range_iters = iter - self.frontier;
        let already = self.admitted.sum(self.frontier..iter);
        (range_iters * per).saturating_sub(already) as usize
    }

    /// Deadlock-free admission: an op of `iter` may take a queue slot only
    /// if every not-yet-admitted op of an *older* iteration still has a
    /// reserved slot afterwards.
    pub fn can_admit(&self, iter: u64, ports_per_iter: u32, inflight: usize) -> bool {
        self.free_slots(inflight) > self.outstanding_before(iter, ports_per_iter)
    }

    /// Counts one admission of an op of `iter` (called when the op's input
    /// tokens are consumed, which may precede its arrival by a RAM read).
    pub fn note_admitted(&mut self, iter: u64) {
        self.admitted.bump(iter);
    }

    /// Appends an (already validated) record and counts its arrival.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; callers gate on [`Self::can_admit`].
    pub fn record_arrival(&mut self, rec: PrematureRecord) {
        self.arrived.bump(rec.iter);
        self.queue.push(rec);
    }

    /// Advances the frontier over every fully-arrived iteration, but never
    /// past `cap` (the pending squash point, if any): iterations at and
    /// beyond a pending squash are about to be flushed and replayed, so they
    /// must not become retire- or commit-eligible.
    pub fn advance_frontier(&mut self, ports_per_iter: u32, cap: u64) {
        while self.frontier < cap && self.arrived.get(self.frontier) >= ports_per_iter {
            self.arrived.remove(self.frontier);
            self.admitted.remove(self.frontier);
            self.frontier += 1;
        }
    }

    /// True when an uncommitted store slot is already below the frontier —
    /// [`commit_step`](ProtocolState::commit_step) has work to do, though it
    /// may still be blocked on write bandwidth. Controllers use this to
    /// decide whether a quiet cycle can skip the commit/retire pipeline.
    pub fn commit_pending(&self, stores_per_iter: usize) -> bool {
        stores_per_iter != 0 && self.next_commit / (stores_per_iter as u64) < self.frontier
    }

    /// Tries to commit the next store slot in `(iteration, sequence)` order.
    /// `store_seqs` lists the ROM-sequence numbers of the kernel's store
    /// ports, ascending. Marks the record committed and advances the cursor;
    /// the caller performs the RAM write described by the returned
    /// [`CommitStep`]. A real store is only committed when `allow_write` is
    /// true (the caller's write-bandwidth budget); fake stores consume their
    /// slot regardless, since they need no RAM port.
    pub fn commit_step(&mut self, store_seqs: &[u32], allow_write: bool) -> CommitStep {
        if store_seqs.is_empty() {
            return CommitStep::Blocked;
        }
        let per_iter = store_seqs.len() as u64;
        let iter = self.next_commit / per_iter;
        if iter >= self.frontier {
            return CommitStep::Blocked;
        }
        let seq = store_seqs[(self.next_commit % per_iter) as usize];
        let Some(rec) = self
            .queue
            .iter_mut()
            .find(|r| r.iter == iter && r.seq == seq)
        else {
            // The frontier guarantees arrival; a missing record would be a
            // retirement bug.
            debug_assert!(
                false,
                "store (iter {iter}, seq {seq}) vanished before commit"
            );
            return CommitStep::Blocked;
        };
        if rec.fake {
            rec.committed = true;
            self.next_commit += 1;
            return CommitStep::Fake;
        }
        if !allow_write {
            return CommitStep::Blocked;
        }
        rec.committed = true;
        self.next_commit += 1;
        CommitStep::Write {
            addr: rec.addr.expect("real record"),
            value: rec.value,
        }
    }

    /// Retires up to `budget` records: loads of iterations below the
    /// frontier (nothing older can still flag them) and stores whose commit
    /// slot has been consumed. Returns the number retired.
    pub fn retire(&mut self, budget: usize) -> usize {
        let frontier = self.frontier;
        self.queue.retire_if(
            |r| match r.kind {
                MemOpKind::Load => r.iter < frontier,
                MemOpKind::Store => r.committed,
            },
            budget,
        )
    }

    /// Squash flush: drops all records and arrival/admission counts of
    /// iterations `>= from_iter`. The frontier and commit cursor never move
    /// backwards — squashes never reach committed state.
    pub fn flush(&mut self, from_iter: u64) {
        debug_assert!(self.frontier <= from_iter);
        self.queue.flush(from_iter);
        self.arrived.truncate_from(from_iter);
        self.admitted.truncate_from(from_iter);
    }

    /// Exact per-port arrival check: every arrived record of iterations at
    /// or beyond the frontier is still resident (loads retire only below
    /// the frontier, stores only after commit, which requires the same), so
    /// residency plus the frontier decides arrival precisely. A simple
    /// high-water mark would be wrong here: a *fake* of a later iteration
    /// can arrive before an earlier iteration's real op.
    pub fn port_op_arrived(&self, port: usize, iter: u64) -> bool {
        iter < self.frontier || self.queue.iter().any(|r| r.port == port && r.iter == iter)
    }

    /// Issue-time bypass probe: the value and iteration of the youngest
    /// resident older store to `addr`, if any — the latency equivalent of
    /// the LSQ's store-to-load forwarding.
    pub fn resident_bypass(
        &self,
        addr: usize,
        order: (u64, u32),
    ) -> Option<(prevv_dataflow::Value, u64)> {
        self.queue
            .iter()
            .filter(|s| {
                !s.fake && s.kind == MemOpKind::Store && s.addr == Some(addr) && s.order() < order
            })
            .max_by_key(|s| s.order())
            .map(|s| (s.value, s.iter))
    }

    /// A canonical, hashable encoding of this state. Two states with equal
    /// keys are indistinguishable to every transition above (the queue's
    /// physical pointer positions and high-water statistics are excluded on
    /// purpose) — this is what the model checker hash-conses on.
    pub fn key(&self) -> ProtocolKey {
        let mut records: Vec<RecordKey> = self
            .queue
            .iter()
            .map(|r| {
                (
                    r.port,
                    r.iter,
                    r.seq,
                    r.kind,
                    r.fake,
                    r.addr,
                    r.value,
                    r.committed,
                )
            })
            .collect();
        // Canonical order: `(iter, seq)` is unique per record, so the sort
        // erases the arrival history entirely. Interleavings that merely
        // permute independent arrivals collapse onto one key — the property
        // the model checker's partial-order reduction relies on.
        records.sort_unstable_by_key(|r| (r.1, r.2, r.0));
        ProtocolKey {
            records,
            frontier: self.frontier,
            next_commit: self.next_commit,
        }
    }
}

/// Per-iteration op counts: a sorted `(iteration, count)` list holding at
/// most one entry per in-flight iteration (a handful at any queue depth),
/// so a flat buffer beats a tree map — and, unlike one, its `clone_from`
/// reuses the allocation. Absent iterations count zero.
#[derive(Default, PartialEq, Eq)]
pub struct IterCounts {
    entries: Vec<(u64, u32)>,
}

impl IterCounts {
    fn find(&self, iter: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&iter, |&(i, _)| i)
    }

    /// Adds one to `iter`'s count.
    pub fn bump(&mut self, iter: u64) {
        match self.find(iter) {
            Ok(k) => self.entries[k].1 += 1,
            Err(k) => self.entries.insert(k, (iter, 1)),
        }
    }

    /// `iter`'s count (zero when absent).
    pub fn get(&self, iter: u64) -> u32 {
        self.find(iter).map_or(0, |k| self.entries[k].1)
    }

    /// Drops `iter`'s entry (the frontier's, once it completes).
    pub fn remove(&mut self, iter: u64) {
        if let Ok(k) = self.find(iter) {
            self.entries.remove(k);
        }
    }

    /// Sum of the counts of the iterations in `range`.
    pub fn sum(&self, range: Range<u64>) -> u64 {
        let lo = self.entries.partition_point(|&(i, _)| i < range.start);
        self.entries[lo..]
            .iter()
            .take_while(|&&(i, _)| i < range.end)
            .map(|&(_, n)| u64::from(n))
            .sum()
    }

    /// Drops every entry of iterations `>= iter` (a squash flush).
    pub fn truncate_from(&mut self, iter: u64) {
        let keep = self.entries.partition_point(|&(i, _)| i < iter);
        self.entries.truncate(keep);
    }
}

impl Clone for IterCounts {
    fn clone(&self) -> Self {
        IterCounts {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

/// Renders as a map, `{iteration: count, ...}`.
impl fmt::Debug for IterCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(i, n)| (i, n)))
            .finish()
    }
}

/// One record's projection inside a [`ProtocolKey`]: `(port, iter, seq,
/// kind, fake, addr, value, committed)`.
type RecordKey = (
    usize,
    u64,
    u32,
    MemOpKind,
    bool,
    Option<usize>,
    prevv_dataflow::Value,
    bool,
);

/// Canonical hashable projection of a [`ProtocolState`] (see
/// [`ProtocolState::key`]). The arrival/admission maps are derivable from
/// the records plus the frontier whenever every admission arrives atomically
/// (as in the model checker), so they are not part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProtocolKey {
    records: Vec<RecordKey>,
    frontier: u64,
    next_commit: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(port: usize, kind: MemOpKind, iter: u64, seq: u32) -> PrematureRecord {
        PrematureRecord::real(port, kind, iter, seq, port, 7)
    }

    fn iters(c: &IterCounts) -> Vec<u64> {
        c.entries.iter().map(|&(i, _)| i).collect()
    }

    #[test]
    fn reservation_protects_older_iterations() {
        // depth 5, 2 ops/iter: loads of iterations 0..3 admitted, the fourth
        // iteration's load must be refused — the remaining free slots are
        // reserved for the outstanding older stores.
        let mut p = ProtocolState::new(5);
        for it in 0..3u64 {
            assert!(p.can_admit(it, 2, 0), "load of iter {it} admits");
            p.note_admitted(it);
            p.record_arrival(real(0, MemOpKind::Load, it, 0));
        }
        assert!(!p.can_admit(3, 2, 0), "iter 3 must wait for older stores");
        assert!(p.can_admit(0, 2, 0), "the oldest iteration always admits");
    }

    #[test]
    fn frontier_advances_only_over_complete_iterations() {
        let mut p = ProtocolState::new(8);
        p.note_admitted(0);
        p.record_arrival(real(0, MemOpKind::Load, 0, 0));
        p.advance_frontier(2, u64::MAX);
        assert_eq!(p.frontier, 0, "one of two ops arrived");
        p.note_admitted(0);
        p.record_arrival(real(1, MemOpKind::Store, 0, 1));
        p.advance_frontier(2, u64::MAX);
        assert_eq!(p.frontier, 1);
        assert!(p.arrived.entries.is_empty() && p.admitted.entries.is_empty());
        assert_eq!(p.arrived.get(0), 0);
    }

    #[test]
    fn frontier_respects_the_squash_cap() {
        let mut p = ProtocolState::new(8);
        for it in 0..3u64 {
            p.note_admitted(it);
            p.record_arrival(real(0, MemOpKind::Load, it, 0));
        }
        p.advance_frontier(1, 2);
        assert_eq!(p.frontier, 2, "capped at the pending squash point");
    }

    #[test]
    fn commit_walks_stores_in_rom_order_and_skips_fakes() {
        let mut p = ProtocolState::new(8);
        p.record_arrival(real(1, MemOpKind::Store, 0, 1));
        p.record_arrival(PrematureRecord::fake(2, MemOpKind::Store, 0, 3));
        p.record_arrival(real(0, MemOpKind::Load, 0, 0));
        assert_eq!(p.arrived.get(0), 3, "every arrival counts, fakes included");
        p.advance_frontier(3, u64::MAX);
        assert_eq!(p.frontier, 1);
        assert_eq!(
            p.commit_step(&[1, 3], false),
            CommitStep::Blocked,
            "a real store waits for write bandwidth"
        );
        assert_eq!(
            p.commit_step(&[1, 3], true),
            CommitStep::Write { addr: 1, value: 7 }
        );
        assert_eq!(p.commit_step(&[1, 3], false), CommitStep::Fake);
        assert_eq!(p.commit_step(&[1, 3], true), CommitStep::Blocked);
        // Both stores and the now-old load retire.
        assert_eq!(p.retire(8), 3);
        assert!(p.queue.is_empty());
    }

    #[test]
    fn flush_drops_young_state_only() {
        let mut p = ProtocolState::new(8);
        for it in 0..4u64 {
            p.note_admitted(it);
            p.record_arrival(real(0, MemOpKind::Load, it, 0));
        }
        p.flush(2);
        assert_eq!(p.queue.len(), 2);
        assert!(iters(&p.arrived).iter().all(|&it| it < 2));
        assert!(iters(&p.admitted).iter().all(|&it| it < 2));
    }

    #[test]
    fn key_ignores_physical_queue_geometry() {
        // Two states reaching the same logical contents through different
        // push/pop histories share a key.
        let mut a = ProtocolState::new(4);
        a.record_arrival(real(0, MemOpKind::Load, 1, 0));

        let mut b = ProtocolState::new(4);
        b.record_arrival(real(0, MemOpKind::Load, 0, 0));
        b.queue.pop_head();
        b.record_arrival(real(0, MemOpKind::Load, 1, 0));
        b.arrived.remove(0);

        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn key_is_arrival_order_canonical() {
        // The same multiset of records, arrived in different orders, shares
        // one key.
        let mut a = ProtocolState::new(4);
        a.record_arrival(real(0, MemOpKind::Load, 0, 0));
        a.record_arrival(real(1, MemOpKind::Store, 0, 1));

        let mut b = ProtocolState::new(4);
        b.record_arrival(real(1, MemOpKind::Store, 0, 1));
        b.record_arrival(real(0, MemOpKind::Load, 0, 0));

        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), ProtocolState::new(4).key());
    }

    #[test]
    fn iter_counts_bump_get_and_sum() {
        let mut c = IterCounts::default();
        assert!(c.entries.is_empty());
        for it in [3u64, 1, 3, 2, 3] {
            c.bump(it);
        }
        assert_eq!((c.get(1), c.get(2), c.get(3), c.get(4)), (1, 1, 3, 0));
        assert_eq!(iters(&c), [1, 2, 3], "kept sorted");
        assert_eq!(c.sum(0..10), 5);
        assert_eq!(c.sum(2..3), 1, "half-open range");
        assert_eq!(c.sum(2..4), 4);
        assert_eq!(c.sum(4..9), 0);
        assert_eq!(c.sum(3..3), 0, "empty range");
        assert_eq!(format!("{c:?}"), "{1: 1, 2: 1, 3: 3}");
    }

    #[test]
    fn iter_counts_remove_frontier_and_truncate() {
        let mut c = IterCounts::default();
        for it in [0u64, 0, 1, 2, 2, 5] {
            c.bump(it);
        }
        c.remove(0);
        assert_eq!(c.get(0), 0);
        assert_eq!(iters(&c), [1, 2, 5]);
        c.remove(3);
        assert_eq!(iters(&c), [1, 2, 5], "absent: no-op");
        c.truncate_from(2);
        assert_eq!(iters(&c), [1]);
        c.truncate_from(7);
        assert_eq!(iters(&c), [1]);
        c.truncate_from(0);
        assert!(c.entries.is_empty());
    }

    #[test]
    fn iter_counts_clone_from_reuses_the_buffer() {
        let mut src = IterCounts::default();
        src.bump(4);
        src.bump(6);
        let mut dst = IterCounts::default();
        for it in 0..8u64 {
            dst.bump(it);
        }
        let buf = dst.entries.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.entries.as_ptr(), buf, "no reallocation");
    }

    #[test]
    fn flush_truncates_counts_and_the_reservation_sees_it() {
        // depth 8, 2 ops/iter: four loads admitted; flushing from 2 drops
        // iterations 2 and 3 from both counters, so the range sum behind
        // the reservation counts only iterations 0 and 1 again.
        let mut p = ProtocolState::new(8);
        for it in 0..4u64 {
            p.note_admitted(it);
            p.record_arrival(real(0, MemOpKind::Load, it, 0));
        }
        assert_eq!(p.outstanding_before(4, 2), 4);
        p.flush(2);
        assert_eq!(p.admitted.sum(0..u64::MAX), 2);
        assert_eq!(p.arrived.get(3), 0);
        assert_eq!(p.outstanding_before(4, 2), 6);
    }
}
