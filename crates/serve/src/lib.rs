//! # tms-serve — a concurrent CF-estimation & pre-implementation service
//!
//! The batch flow trains an estimator, compiles one design, and exits —
//! every invocation pays the training and pre-implementation cost again.
//! This crate turns the expensive state into a long-lived process: a
//! JSON-over-TCP service holding a **pre-trained
//! [`CfEstimator`](tms_estimator::CfEstimator)** and a **process-wide warm
//! [`ImplementationCache`](tms_flow::ImplementationCache)** that every
//! connection shares.
//!
//! Six endpoints (see [`protocol`] for the wire format):
//!
//! * `estimate` — netlist statistics (or a module spec) → predicted CF;
//! * `preimpl` — module spec → PBlock + placement, through the shared
//!   cache: the second identical request is a cache hit and skips
//!   place-and-route entirely;
//! * `flow` — full cnvW1A1-style design → stitched-placement report via
//!   the cached flow (warm runs implement only cache misses; a repeated
//!   design whose modules are all cached is answered from memoised keys,
//!   without regenerating it, and its stitch from the cache's stitch memo,
//!   without annealing again: the reply is the same either way);
//! * `stats` — per-endpoint request counts, latency histograms, cache
//!   hit/miss rates, persistent-store statistics, and the pipeline-phase
//!   telemetry of [`tms_obs`];
//! * `metrics` — the same state as a Prometheus text-format page. The
//!   page is also served to a plain `GET /metrics` HTTP request on the
//!   same port, so a stock Prometheus scraper needs no JSON shim;
//! * `shutdown` — graceful stop: the store is fsynced before the reply,
//!   workers drain, and the final checkpoint compacts the library.
//!
//! With [`ServeConfig::store`] set, the shared cache is backed by a
//! crash-safe [`tms_store::Store`]: the process **warm-starts** from
//! whatever an earlier run persisted in the same directory (a restarted
//! server answers its first `flow` request entirely from the library —
//! zero place-and-route tool runs), every insert is appended to the
//! store's log, and a graceful shutdown compacts the log to its live
//! entries.
//!
//! The server is plain threads — a TCP acceptor plus a crossbeam-channel
//! worker pool, no async runtime; the cache sits behind a
//! `parking_lot::RwLock` so lookups proceed concurrently. Models are
//! loaded from the JSON produced by
//! [`CfEstimator::save`](tms_estimator::CfEstimator::save), so the serving
//! process never retrains.
//!
//! The service is built to *degrade, not crash*: a bounded accept queue
//! sheds excess connections with an explicit `overloaded` reply, request
//! lines are read through a byte-bounded reader (oversized, non-UTF-8,
//! and unparseable input all get structured error replies), every request
//! has a deadline, store writes retry under a [`tms_fault::Retry`]
//! policy, and persistent store failure demotes the server to memory-only
//! caching — flagged in `stats` and `/metrics` via
//! [`protocol::RobustnessReport`]. A seeded [`tms_fault::FaultPlan`] can
//! be armed through [`ServeConfig::with_fault`] to drive all of this
//! deterministically (see the chaos test suite and `tms chaos`). Clients
//! carry connect/read/write timeouts ([`ClientConfig`]) so a dead server
//! never hangs the caller.
//!
//! ```no_run
//! use tms_estimator::{CfEstimator, FeatureSet};
//! use tms_serve::{serve, Client, ModuleSpec, ServeConfig};
//! use tms_cnn::ModuleRole;
//!
//! let est = CfEstimator::load(std::path::Path::new("model.json")).unwrap();
//! let handle = serve(ServeConfig::default(), est, FeatureSet::Additional).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let spec = ModuleSpec {
//!     role: ModuleRole::Mvau, target_slices: 60, name: "mvau_18".into(), seed: 1,
//! };
//! println!("predicted CF: {:.2}", client.estimate_spec(&spec).unwrap().cf);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
mod memo;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use loadgen::{
    run_loadgen, EndpointLoadStats, LoadMode, LoadgenConfig, RequestMix, ServeBenchReport,
    ServerTotals,
};
pub use memo::MEMO_CAPACITY;
pub use metrics::{EndpointMetrics, Metrics, LATENCY_BUCKETS_US};
pub use protocol::{
    CacheStats, EndpointSnapshot, EstimateRequest, EstimateResponse, FlowRequest, FlowResponse,
    MemoReport, MetricsResponse, ModuleSpec, PreimplRequest, PreimplResponse, Request, Response,
    RobustnessReport, ShutdownResponse, SloReport, SlowlogReport, SlowlogRequest, StatsReport,
    StoreSnapshot,
};
pub use server::{serve, ServeConfig, ServerHandle};
pub use tms_obs::prometheus;
pub use tms_store::StoreConfig;
