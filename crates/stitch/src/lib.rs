//! # tms-stitch — simulated-annealing placement of pre-implemented macros
//!
//! After every unique module is placed and routed inside its PBlock,
//! RapidWright replicates the implementations and *stitches* them onto the
//! device: a simulated-annealing placer moves the rectangular macros around,
//! minimising the wirelength between blocks. This crate reproduces that
//! stitcher with the two properties the paper's analysis rests on:
//!
//! * **Relocation legality** — a macro may only anchor where the device's
//!   column-kind sequence equals its footprint signature
//!   ([`tms_device::Device::matching_anchors`]) and at vertical offsets
//!   aligned to its BRAM/DSP content. Compact PBlocks have simpler
//!   signatures and therefore many more legal anchors.
//! * **Overlap rejection** — moves landing on occupied fabric are *illegal*
//!   and rejected; oversized, irregular footprints cause more of them,
//!   slowing convergence. [`StitchResult::illegal_moves`] and
//!   [`StitchResult::convergence_move`] quantify the paper's
//!   1.37×-faster-convergence result; [`StitchResult::unplaced`] reproduces
//!   the 68-versus-52 unplaced-module comparison of Figure 5.
//!
//! ```
//! use tms_device::Device;
//! use tms_stitch::{MacroBlock, StitchProblem, StitchConfig, stitch};
//!
//! let dev = Device::xc7z020();
//! let sig = dev.signature(0, 3);
//! let blk = MacroBlock { name: "b".into(), signature: sig, width: 3, height: 10,
//!                        used_slices: 25, irregularity: 0.2 };
//! let mut p = StitchProblem::new(vec![blk]);
//! let a = p.add_instance(0);
//! let b = p.add_instance(0);
//! p.add_net(&[a, b], 1.0);
//! let r = stitch(&dev, &p, &StitchConfig::fast(1));
//! assert_eq!(r.unplaced_count, 0);
//! assert!(r.final_cost <= r.initial_cost);
//! ```

#![warn(missing_docs)]

mod fabric;
pub mod portfolio;
pub mod problem;
mod proptests;
pub mod sa;
pub mod search;

pub use portfolio::{
    canonical_portfolio, stitch_portfolio, stitch_portfolio_observed, StitchPortfolioReport,
};
pub use problem::{InterNet, MacroBlock, StitchKey, StitchProblem};
pub use sa::{observe_stitch_reuse, stitch, stitch_observed, StitchConfig, StitchResult};
pub use search::{StitchSearch, StitchSolution};
