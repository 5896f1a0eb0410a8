//! # prevv-mem — memory subsystem and load-store queue baselines
//!
//! The memory side of the PreVV reproduction:
//!
//! * [`Ram`] — the functional BRAM model (timing lives in the controllers);
//! * [`PortIo`] — the channel adapter every controller is built on;
//! * [`DirectMemory`] — no disambiguation at all (demonstrates why
//!   dynamically scheduled circuits mis-execute without an LSQ);
//! * [`Lsq`] — the Dynamatic-style load-store queue \[15\] with group
//!   allocation, associative search, store-to-load forwarding and in-order
//!   commit; [`LsqConfig::fast`] models the fast-allocation plugin \[8\]
//!   and [`LsqConfig::speculative`] the speculative allocator of
//!   Szafarczyk et al. — one queue, three [`Allocation`] settings.
//!
//! The PreVV controller itself lives in `prevv-core` and plugs into the same
//! [`MemoryInterface`](prevv_ir::MemoryInterface).
//!
//! ## Example
//!
//! ```
//! use prevv_dataflow::{Simulator, components::LoopLevel};
//! use prevv_ir::{golden, synthesize, ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};
//! use prevv_mem::{Lsq, LsqConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = ArrayId(0);
//! let spec = KernelSpec::new(
//!     "inc",
//!     vec![LoopLevel::upto(8)],
//!     vec![ArrayDecl::zeroed("a", 8)],
//!     vec![Stmt::store(a, Expr::var(0), Expr::load(a, Expr::var(0)).add(Expr::lit(1)))],
//! )?;
//! let mut circuit = synthesize(&spec)?;
//! let (lsq, ram) = Lsq::new(circuit.interface.clone(), LsqConfig::dynamatic(16))?;
//! circuit.netlist.add("lsq", lsq);
//! let mut sim = Simulator::new(circuit.netlist, circuit.bus)?;
//! sim.run()?;
//! assert_eq!(ram.borrow().image(), golden::execute(&spec).array(a));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod direct;
mod lsq;
mod portio;
mod ram;
#[cfg(test)]
mod spec_alloc;

pub use delay::DelayLine;
pub use direct::DirectMemory;
pub use lsq::{Allocation, Lsq, LsqConfig, LsqError, LsqStats, SharedLsqStats};
pub use portio::{PortIo, DEFAULT_IO_CAPACITY};
pub use ram::{shared, Ram, SharedRam};

/// Former name of the speculative-allocation LSQ, now an [`Lsq`] under
/// [`LsqConfig::speculative`]. It exists only because the benchmark
/// package's `perfbench/src/mirror.rs` names it.
pub type SpecLsq = Lsq;
/// Former name of the speculative LSQ's configuration, kept for the same
/// reason as [`SpecLsq`].
pub type SpecLsqConfig = LsqConfig;

/// RAM timing and port bandwidth shared by all controllers.
///
/// Defaults model a dual-port BRAM (one read, one write per cycle) with a
/// 2-cycle read and 1-cycle write, typical of Dynamatic's memory interface
/// on 7-series FPGAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTiming {
    /// Cycles from read issue to data.
    pub read_latency: u32,
    /// Cycles from write issue to the cell being updated.
    pub write_latency: u32,
    /// Reads that may issue per cycle.
    pub read_ports: u32,
    /// Writes that may commit per cycle.
    pub write_ports: u32,
}

impl Default for MemTiming {
    fn default() -> Self {
        MemTiming {
            read_latency: 2,
            write_latency: 1,
            read_ports: 1,
            write_ports: 1,
        }
    }
}
