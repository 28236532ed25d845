//! `tms-pack`: memory-aware weight packing across BRAM36 / BRAM18-half /
//! LUTRAM bins.
//!
//! Every weight store of a FINN-style dataflow design has to live in *some*
//! physical memory, and the seed flow's answer — full RAMB36 sites for
//! everything — inherits avoidably fat macros: a PBlock that contains even
//! one block RAM must cover a BRAM column and grow to the RAMB36 row
//! alignment, which is exactly the capacity-vector pressure the minimal-CF
//! search then has to absorb. Kroes et al. (*Evolutionary Bin Packing for
//! Memory-Efficient Dataflow Inference Acceleration on FPGA*) showed that
//! packing dataflow weight buffers across BRAM and LUTRAM shrinks the
//! memory footprint enough to change what fits; this crate reproduces that
//! phase for the macro-sizing flow.
//!
//! The pieces:
//!
//! - [`bins`] — the bin geometry: RAMB36/RAMB18 aspect menus and the
//!   64-bit-per-LUT distributed-RAM model with its depth cut-off.
//! - [`problem`] — the packing problem: one [`BankSplit`] per weights
//!   module, an integer cost model whose LUTRAM price follows from the
//!   fabric, and [`PackProblem::solve`], an exact dynamic programme over
//!   the two design-wide budget sums.
//! - [`phase`] — the flow phase: [`MemPackPolicy`] (`Off` / `Naive` /
//!   `Packed`), the [`pack_design`] entry point (and
//!   [`pack_memories`], which returns only the regenerated weights
//!   modules), `pack.*` telemetry, and [`PackKey`], the exact inputs the
//!   phase reads, under which a caller may store a [`PackedMemories`]
//!   result and reuse it.
//!
//! The solver needs no seed and no search budget: a packing result is a
//! pure function of the design's memories, the device budget and the
//! policy, and the seed only seeds the regenerated netlists.

pub mod bins;
pub mod phase;
pub mod problem;
#[cfg(test)]
mod proptests;

pub use bins::{
    bram18_halves, bram36_sites, lutram_legal, lutram_luts, BinKind, LUTRAM_BITS_PER_LUT,
    LUTRAM_MAX_DEPTH,
};
pub use phase::{
    observe_pack_reuse, pack_design, pack_memories, MemPackConfig, MemPackPolicy, ModuleAssignment,
    PackKey, PackReport, PackedMemories,
};
pub use problem::{
    design_memories, module_lutram, module_sites36, BankSplit, MemBudget, ModuleMem, PackProblem,
    PackSolution,
};
