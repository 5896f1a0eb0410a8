//! The standard elastic component library.
//!
//! These are the dataflow building blocks synthesis emits for a
//! dynamically scheduled HLS circuit: token routing ([`Fork`], [`Branch`]),
//! storage ([`Buffer`]), computation ([`BinaryAlu`], [`UnaryAlu`],
//! [`Constant`]), loop control ([`IterSource`], which stands in for
//! Dynamatic's merge/mux loop rings and rewinds for squash replay), and
//! termination ([`Sink`]). Memory access ports and disambiguation
//! controllers (LSQ, PreVV) live in the `prevv-mem` and `prevv-core` crates
//! and implement the same [`Component`] trait, whose monotone `eval`
//! contract every component here meets.
//!
//! [`Component`]: crate::Component

mod alu;
mod basic;
mod buffer;
mod source;

pub use alu::{BinOp, BinaryAlu, UnOp, UnaryAlu};
pub use basic::{Branch, Constant, Fork, Sink};
pub use buffer::Buffer;
pub use source::{count_iterations, Bound, IterSource, IterSpace, LoopLevel};
