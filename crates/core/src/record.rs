//! The premature record: the paper's Eq. (1) property assembly.

use prevv_dataflow::Value;
use prevv_ir::MemOpKind;

/// The properties saved for every premature operation (paper Eq. 1):
/// `P_m = {iter_m, index_m, value_m, Op_m}`, extended with the
/// intra-iteration sequence number from the order ROM (used to break
/// `iter_m == iter_n` ties, paper §III) and a fake marker (paper §V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrematureRecord {
    /// Which static port produced this record.
    pub port: usize,
    /// Iteration number (`iter_m`).
    pub iter: u64,
    /// Program-order sequence within the iteration (the order-ROM tuple).
    pub seq: u32,
    /// Load or store (`Op_m`).
    pub kind: MemOpKind,
    /// Resolved flat RAM address (`index_m`); `None` for fake records.
    pub addr: Option<usize>,
    /// The value read (loads) or to be written (stores) (`value_m`).
    pub value: Value,
    /// True for fake records sent by untaken guards (paper §V-C).
    pub fake: bool,
    /// Stores only: committed to RAM, awaiting head deallocation.
    pub committed: bool,
}

impl PrematureRecord {
    /// Creates a real (non-fake) record.
    pub fn real(
        port: usize,
        kind: MemOpKind,
        iter: u64,
        seq: u32,
        addr: usize,
        value: Value,
    ) -> Self {
        PrematureRecord {
            port,
            iter,
            seq,
            kind,
            addr: Some(addr),
            value,
            fake: false,
            committed: false,
        }
    }

    /// Creates a fake record for an op suppressed by its guard.
    pub fn fake(port: usize, kind: MemOpKind, iter: u64, seq: u32) -> Self {
        PrematureRecord {
            port,
            iter,
            seq,
            kind,
            addr: None,
            value: 0,
            fake: true,
            committed: false,
        }
    }

    /// Global program-order key.
    pub fn order(&self) -> (u64, u32) {
        (self.iter, self.seq)
    }

    /// True for real stores that have not yet been written back.
    pub fn is_pending_store(&self) -> bool {
        self.kind == MemOpKind::Store && !self.fake && !self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_iteration_major() {
        let a = PrematureRecord::real(0, MemOpKind::Load, 2, 5, 0, 0);
        let b = PrematureRecord::real(0, MemOpKind::Store, 3, 1, 0, 0);
        assert!(a.order() < b.order());
    }

    #[test]
    fn fake_records_have_no_address() {
        let f = PrematureRecord::fake(1, MemOpKind::Store, 4, 2);
        assert!(f.fake);
        assert_eq!(f.addr, None);
        assert!(!f.is_pending_store(), "fake stores never commit");
    }

    #[test]
    fn pending_store_classification() {
        let mut s = PrematureRecord::real(0, MemOpKind::Store, 1, 0, 3, 9);
        assert!(s.is_pending_store());
        s.committed = true;
        assert!(!s.is_pending_store());
        let l = PrematureRecord::real(0, MemOpKind::Load, 1, 0, 3, 9);
        assert!(!l.is_pending_store());
    }
}
