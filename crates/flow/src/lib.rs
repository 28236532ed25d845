//! # tms-flow — end-to-end flows and the paper's experiment drivers
//!
//! Two compilation flows over a [`tms_cnn::CnvDesign`]:
//!
//! * [`run_rw_flow`] — the RapidWright-style flow of Figure 1: per unique
//!   module, synthesise → pack → quick-place → build a PBlock under a
//!   [`CfPolicy`] (constant CF, minimal-CF search, or estimator-guided) →
//!   detailed place & route → replicate and stitch with simulated
//!   annealing.
//! * [`run_amd_flow`] — the monolithic "AMD EDA" baseline that places the
//!   flat design without PBlocks.
//!
//! The [`experiments`] module reproduces every table and figure of the
//! paper's evaluation; each driver returns a typed result whose `Display`
//! prints the corresponding table, and each has a `quick` configuration for
//! tests and a paper-scale one for the `paper_experiments` example.
//!
//! ```
//! use tms_cnn::cnvw1a1;
//! use tms_device::Device;
//! use tms_flow::{run_amd_flow, AmdFlowConfig};
//!
//! let design = cnvw1a1(1);
//! let dev = Device::xc7z020();
//! let flat = run_amd_flow(&design, &dev, &AmdFlowConfig::default());
//! // The vendor baseline places the whole network on the xc7z020 ...
//! assert!(flat.placement.fully_placed);
//! // ... at near-total slice utilisation (paper: 99.98%).
//! assert!(flat.placement.utilization > 0.90);
//! ```

#![warn(missing_docs)]

pub mod amd;
pub mod cache;
pub mod experiments;
pub mod integrity;
pub mod render;
pub mod resilient;
pub mod rwflow;

pub use amd::{run_amd_flow, AmdFlowConfig, AmdFlowResult};
pub use cache::{
    run_rw_flow_cached, CacheLookup, CachedFlowResult, ImplementationCache, MacroStore,
    ModuleFingerprint, VerifiedLookup, DEFAULT_CACHE_CAPACITY,
};
pub use integrity::{audit_module, module_digest, verify_sealed, SealedModule, StoreAuditor};
pub use render::{coverage_line, render_cost_trace, render_stitched};
pub use resilient::{implement_module_resilient, Resilience};
pub use rwflow::{
    implement_module, run_rw_flow, stitch_implemented, BlockDiagram, CfPolicy, ImplementedModule,
    RwFlowConfig, RwFlowResult,
};
pub use tms_pack::{MemPackConfig, MemPackPolicy, PackReport};
