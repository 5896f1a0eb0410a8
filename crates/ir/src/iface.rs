//! The contract between a synthesized datapath and a memory disambiguation
//! controller.
//!
//! Synthesis produces a netlist whose memory accesses end in open channels;
//! a controller (the Dynamatic-style LSQ from `prevv-mem`, or the PreVV
//! architecture from `prevv-core`) is then *attached*: it becomes the
//! consumer of every port's address/data channels and the producer of every
//! load's result channel. This mirrors how the paper's LLVM pass swaps the
//! LSQ for PreVV components without touching the rest of the circuit.

use std::collections::HashSet;

use prevv_dataflow::{ChannelId, Value};

use crate::depend::{AmbiguousPair, StaticMemOp};
use crate::golden::MemOpKind;

/// Placement of one kernel array inside the flat simulated RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Array name (reports).
    pub name: String,
    /// First word of the array in the flat RAM.
    pub base: usize,
    /// Number of words.
    pub len: usize,
    /// Initial contents.
    pub init: Vec<Value>,
}

impl ArrayLayout {
    /// Maps a raw index expression result to a flat RAM address, reducing it
    /// into range with Euclidean remainder (identical to the golden model's
    /// [`resolve_index`](crate::KernelSpec::resolve_index)).
    pub fn flat_addr(&self, raw: Value) -> usize {
        self.base + raw.rem_euclid(self.len as Value) as usize
    }
}

/// One memory access port awaiting a controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPort {
    /// The static operation this port implements.
    pub op: StaticMemOp,
    /// Address tokens, one per (unguarded-or-taken) iteration. Open
    /// consumer side: the controller must consume it.
    pub addr_in: ChannelId,
    /// Store value tokens (stores only). Open consumer side.
    pub data_in: Option<ChannelId>,
    /// Load results (loads only). Open producer side: the controller must
    /// produce it.
    pub data_out: Option<ChannelId>,
    /// Fake tokens for guarded ops (paper §V-C): one token arrives here per
    /// iteration whose guard was false. Open consumer side. `None` when the
    /// op is unguarded or fake tokens were disabled at synthesis.
    pub fake_in: Option<ChannelId>,
}

impl MemoryPort {
    /// Is this a load port?
    pub fn is_load(&self) -> bool {
        self.op.kind == MemOpKind::Load
    }

    /// Is this a store port?
    pub fn is_store(&self) -> bool {
        self.op.kind == MemOpKind::Store
    }
}

/// Everything a controller needs to plug into a synthesized kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryInterface {
    /// All ports in canonical program order (`op.seq` ascending).
    pub ports: Vec<MemoryPort>,
    /// One token per iteration, issued in program order — the group
    /// allocation stream (Dynamatic's group allocator input). Controllers
    /// that do not allocate (PreVV) simply consume it.
    pub alloc_in: ChannelId,
    /// Array placement in the flat RAM.
    pub arrays: Vec<ArrayLayout>,
    /// Total number of iterations the kernel will issue.
    pub iterations: usize,
    /// The ambiguous pairs the arbiter validates: those without a proof
    /// ([`Dependences::validated`](crate::depend::Dependences::validated)).
    pub pairs: Vec<AmbiguousPair>,
}

impl MemoryInterface {
    /// Total words of RAM needed.
    pub fn ram_words(&self) -> usize {
        self.arrays.iter().map(|a| a.len).sum()
    }

    /// Initial RAM image (arrays at their bases).
    pub fn initial_ram(&self) -> Vec<Value> {
        let mut ram = vec![0; self.ram_words()];
        for a in &self.arrays {
            ram[a.base..a.base + a.len].copy_from_slice(&a.init);
        }
        ram
    }

    /// Ids (into [`Self::ports`]) of ops in at least one validated pair
    /// ([`Self::pairs`]).
    pub fn validated_ops(&self) -> HashSet<usize> {
        self.pairs.iter().flat_map(|p| [p.load, p.store]).collect()
    }

    /// Number of load ports.
    pub fn load_ports(&self) -> usize {
        self.ports.iter().filter(|p| p.is_load()).count()
    }

    /// Number of store ports.
    pub fn store_ports(&self) -> usize {
        self.ports.iter().filter(|p| p.is_store()).count()
    }

    /// Extracts the final array contents from a flat RAM image.
    pub fn split_ram<'a>(&self, ram: &'a [Value]) -> Vec<&'a [Value]> {
        self.arrays
            .iter()
            .map(|a| &ram[a.base..a.base + a.len])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_addr_wraps_like_golden() {
        let a = ArrayLayout {
            name: "a".into(),
            base: 100,
            len: 8,
            init: vec![0; 8],
        };
        assert_eq!(a.flat_addr(3), 103);
        assert_eq!(a.flat_addr(9), 101);
        assert_eq!(a.flat_addr(-1), 107);
    }
}
