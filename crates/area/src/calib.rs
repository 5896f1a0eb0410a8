//! Calibration constants for the analytic resource/timing models.
//!
//! ## Provenance
//!
//! Absolute gate counts require Vivado synthesis, which this reproduction
//! replaces per the substitution rule (DESIGN.md §1). The constants below
//! were fitted to the paper's published Kintex-7 (`xc7k160tfbg484-2`)
//! numbers:
//!
//! * one Dynamatic LSQ of depth 16 costs ≈ 17 k LUTs — back-solved from
//!   Table I: `polyn_mult` under \[15\] uses one LSQ plus a ~3 k-LUT datapath
//!   (20 086 total), and `2mm`'s two ambiguous arrays double the LSQ while
//!   keeping a ~5 k datapath (39 330 total);
//! * the premature queue + arbiter at `depth_q = 16` costs ≈ 4–6 k LUTs
//!   (PreVV16 totals of 10–15 k minus the same datapaths), growing roughly
//!   linearly in `depth_q` (PreVV64 totals);
//! * flip-flop counts follow the storage widths: 32-bit data + ~10-bit
//!   addresses + control per queue entry;
//! * clock periods: paper Table II reports 7.2–9.2 ns under a 4 ns
//!   constraint; the LSQ's associative search adds delay growing with
//!   depth, PreVV's sequential walk does not.
//!
//! The model's purpose is *relative* fidelity — which design wins and by
//! roughly what factor — not absolute gate counts.

/// Datapath word width (bits).
pub const WORD_BITS: u64 = 32;
/// Address width (bits) — 1 K-word memories.
pub const ADDR_BITS: u64 = 10;

// --- Datapath component costs (LUTs, FFs, muxes) -------------------------

/// Simple ALU (add/sub/compare/logic), one per unit.
pub const ALU_SIMPLE: (u64, u64, u64) = (WORD_BITS + 8, WORD_BITS + 4, 2);
/// LUT-fabric multiplier (DSPs excluded, matching the paper's methodology).
pub const ALU_MUL: (u64, u64, u64) = (96, 4 * WORD_BITS, 4);
/// Divider.
pub const ALU_DIV: (u64, u64, u64) = (620, 8 * WORD_BITS, 8);
/// Opaque-function unit (hash network).
pub const ALU_UNARY: (u64, u64, u64) = (72, 2 * WORD_BITS, 2);
/// Per fork output port.
pub const FORK_PORT: (u64, u64, u64) = (3, 2, 1);
/// Elastic buffer (slack FIFO slot pair).
pub const BUFFER: (u64, u64, u64) = (12, 2 * (WORD_BITS + 2), 2);
/// Branch (guard steering).
pub const BRANCH: (u64, u64, u64) = (WORD_BITS / 2, 4, 2);
/// Constant generator.
pub const CONSTANT: (u64, u64, u64) = (4, 2, 0);
/// Per iteration-source output stream (loop control ring).
pub const SOURCE_STREAM: (u64, u64, u64) = (28, 20, 2);
/// Per memory access port (address/data handshake plumbing).
pub const MEM_PORT: (u64, u64, u64) = (30, 24, 3);

// --- LSQ cost model (per queue instance) ----------------------------------

/// Fixed control overhead of one LSQ instance.
pub const LSQ_BASE_LUTS: u64 = 1_400;
/// Quadratic CAM / dependency-matrix term: each load entry compares against
/// each store entry (LUTs per entry-pair).
pub const LSQ_CAM_LUTS_PER_PAIR: u64 = 55;
/// Linear per-entry term (storage muxing, priority encode), per entry of
/// either queue.
pub const LSQ_ENTRY_LUTS: u64 = 64;
/// FFs per entry (address + data + state).
pub const LSQ_ENTRY_FFS: u64 = WORD_BITS + ADDR_BITS + 12;
/// Pipeline registers inside the CAM/dependency matrix (per entry pair).
pub const LSQ_CAM_FFS_PER_PAIR: u64 = 8;
/// Fixed FFs per instance.
pub const LSQ_BASE_FFS: u64 = 420;
/// Muxes per entry.
pub const LSQ_ENTRY_MUXES: u64 = 6;
/// Group-allocator cost per memory port (\[15\]'s allocation network).
pub const LSQ_ALLOC_LUTS_PER_PORT: u64 = 120;
/// Fast-token-delivery network cost per memory port (\[8\]).
pub const FAST_TOKEN_LUTS_PER_PORT: u64 = 260;
/// Fast-token-delivery FFs per port.
pub const FAST_TOKEN_FFS_PER_PORT: u64 = 90;

// --- PreVV cost model ------------------------------------------------------

/// Premature queue: FFs per entry. The Eq. 1 record
/// `{iter, index, value, op}` is held in LUT-RAM (priced in
/// [`PQ_ENTRY_LUTS`]); only the valid/fake/committed flags and the
/// head-window compare registers need dedicated flip-flops, which is why
/// the paper's PreVV64 FF counts sit barely above PreVV16's.
pub const PQ_ENTRY_FFS: u64 = 30;
/// Premature queue LUTs per entry (record muxing — no CAM, hence the
/// savings).
pub const PQ_ENTRY_LUTS: u64 = 53;
/// Premature queue fixed LUTs (head/tail pointers, full/empty logic).
pub const PQ_BASE_LUTS: u64 = 300;
/// Arbiter fixed cost per ambiguous pair (comparator, LMerge/SMerge,
/// squash mux, order ROM — the paper instantiates PreVV per pair, Fig. 3).
pub const ARB_BASE_LUTS: u64 = 2_200;
/// Arbiter fixed FFs per pair.
pub const ARB_BASE_FFS: u64 = 240;
/// Arbiter LUTs per validated port (merge tree inputs).
pub const ARB_LUTS_PER_VALIDATED_PORT: u64 = 140;
/// Arbiter walk-pointer muxing per queue entry.
pub const ARB_LUTS_PER_ENTRY: u64 = 20;
/// PreVV muxes per queue entry.
pub const PQ_ENTRY_MUXES: u64 = 2;

// --- Timing model (ns) -----------------------------------------------------

/// Baseline achieved clock period of a plain dataflow pipeline on the
/// paper's Kintex-7 under a 4 ns constraint.
pub const CP_BASE_NS: f64 = 6.55;
/// Additional delay when the datapath contains LUT-fabric multipliers.
pub const CP_MUL_NS: f64 = 0.62;
/// LSQ associative search: delay per log2(depth) level of the wide
/// priority/match network.
pub const CP_LSQ_PER_LOG_DEPTH_NS: f64 = 0.38;
/// LSQ delay per memory port on the allocation/search fan-in.
pub const CP_LSQ_PER_PORT_NS: f64 = 0.035;
/// PreVV's sequential walk adds only pointer-mux delay per log2(depth).
pub const CP_PREVV_PER_LOG_DEPTH_NS: f64 = 0.08;
/// Extra CP of the slow \[15\] allocation network per loop level.
pub const CP_ALLOC_PER_LEVEL_NS: f64 = 0.12;
