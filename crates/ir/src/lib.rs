//! # prevv-ir — kernel IR, dependence analysis, and synthesis
//!
//! The compiler side of the PreVV reproduction. Kernels are expressed as
//! loop nests with straight-line bodies of (optionally guarded) store
//! statements over expression trees ([`KernelSpec`]); this crate provides:
//!
//! * a **golden interpreter** ([`golden::execute`]) giving the sequential C
//!   semantics every circuit must match;
//! * **dependence analysis** ([`depend::analyze`]) finding the ambiguous
//!   load/store pairs (paper Def. 1) — exact for affine indices, conservative
//!   for runtime-dependent ones, and every pair settled once over the whole
//!   iteration space, value invariants ([`absint`]) included;
//! * a **synthesizer** ([`synth::synthesize`]) lowering kernels to elastic
//!   netlists with *open memory ports*, onto which a disambiguation
//!   controller (LSQ from `prevv-mem`, or PreVV from `prevv-core`) is
//!   attached.
//!
//! ## Example
//!
//! ```
//! use prevv_ir::{ArrayDecl, ArrayId, Expr, KernelSpec, Stmt};
//! use prevv_ir::{depend, golden, synth};
//! use prevv_dataflow::components::LoopLevel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // for i in 0..8 { a[i] = a[i] + 1 }
//! let a = ArrayId(0);
//! let spec = KernelSpec::new(
//!     "inc",
//!     vec![LoopLevel::upto(8)],
//!     vec![ArrayDecl::zeroed("a", 8)],
//!     vec![Stmt::store(a, Expr::var(0), Expr::load(a, Expr::var(0)).add(Expr::lit(1)))],
//! )?;
//! let gold = golden::execute(&spec);
//! assert_eq!(gold.array(a), &[1; 8]);
//! let deps = depend::analyze(&spec);
//! assert!(deps.needs_disambiguation());
//! let circuit = synth::synthesize(&spec)?;
//! assert_eq!(circuit.interface.ports.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod depend;
mod expr;
pub mod golden;
mod iface;
mod kernel;
pub mod parse;
pub mod pretty;
pub mod span;
pub mod symdep;
pub mod synth;

pub use expr::{ArrayId, BinOp, Expr, OpaqueFn};
pub use golden::{GoldenResult, MemEvent, MemOpKind};
pub use iface::{ArrayLayout, MemoryInterface, MemoryPort};
pub use kernel::{ArrayDecl, ArrayInit, KernelError, KernelSpec, Stmt, StmtSpans};
pub use span::Span;
pub use synth::{synthesize, synthesize_with, SynthOptions, SynthesizedKernel};
