//! # prevv-dataflow — a cycle-accurate elastic dataflow circuit simulator
//!
//! This crate is the hardware substrate of the PreVV reproduction: it models
//! the *latency-insensitive* (elastic) circuits that dynamically scheduled
//! HLS compilers such as Dynamatic generate. Every component exchanges
//! tokens over point-to-point channels with a valid/ready handshake; the
//! engine resolves the handshake wires each clock cycle by monotone fixpoint
//! and advances component state on the clock edge.
//!
//! The simulator supports the two features memory-disambiguation studies
//! need beyond plain elasticity:
//!
//! * **iteration-numbered tokens** — every [`Token`] carries its flattened
//!   loop-iteration number, so controllers can reason about program order
//!   and squashes can be applied precisely;
//! * **pipeline squash** — a [`SquashBus`] lets a controller (premature
//!   value validation) flush all in-flight tokens of mis-speculated
//!   iterations and rewind the iteration source to replay them.
//!
//! ## Example
//!
//! Build and run a two-stage arithmetic pipeline:
//!
//! ```
//! use prevv_dataflow::{Netlist, Simulator, SquashBus};
//! use prevv_dataflow::components::{BinOp, BinaryAlu, Constant, Fork, IterSource, Sink, Buffer};
//!
//! # fn main() -> Result<(), prevv_dataflow::SimError> {
//! let mut net = Netlist::new();
//! let bus = SquashBus::new();
//! let (i, i1, i2, trig, one, sum) = (
//!     net.channel(), net.channel(), net.channel(),
//!     net.channel(), net.channel(), net.channel(),
//! );
//! net.add("src", IterSource::new((0..4).map(|v| vec![v]).collect(), vec![i]));
//! net.add("fork", Fork::new(i, vec![i1, i2]));
//! net.add("buf", Buffer::new(2, i2, trig));
//! net.add("one", Constant::new(1, trig, one));
//! net.add("inc", BinaryAlu::with_latency(BinOp::Add, 1, i1, one, sum));
//! let (sink, results) = Sink::collecting(vec![sum]);
//! net.add("sink", sink);
//!
//! let mut sim = Simulator::new(net, bus)?;
//! let report = sim.run()?;
//! assert_eq!(results.borrow().len(), 4);
//! assert!(report.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
pub mod components;
mod engine;
mod error;
mod netlist;
mod signal;
mod squash;
mod stats;
pub mod sweep;
mod token;
pub mod trace;
pub mod viz;

pub use component::{Component, Ports, QuietRun};
pub use engine::{Scheduler, SimConfig, Simulator};
pub use error::{NetlistError, SimError};
pub use netlist::{ChannelEndpoints, Netlist, NodeId};
pub use signal::{ChannelId, Signals};
pub use squash::SquashBus;
pub use stats::SimReport;
pub use token::{Token, Value};
