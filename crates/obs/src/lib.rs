//! # tms-obs — the observability substrate of the workspace
//!
//! The paper's whole argument rests on per-module flow telemetry: CF
//! values tried, feasible-first-try rates, tool runs spent, placement
//! failure causes. This crate is the shared layer every other crate
//! records that telemetry through, without committing anyone to a
//! particular backend:
//!
//! * [`Phase`] — the eight pipeline phases (`synth`, `pack`, `place`,
//!   `route`, `stitch`, `estimate`, `cache`, `store`) every span is
//!   labelled with;
//! * [`Recorder`] — the pluggable sink trait: spans, named counters and
//!   numeric observations. The default is [`NoopRecorder`] (via
//!   [`noop()`]), which keeps the hot path allocation-free: a [`Span`]
//!   against a disabled recorder never clones its name and never grows
//!   its field vector;
//! * [`JsonlSink`] — one JSON document per line, for experiment runs;
//!   read back with [`read_trace`] and rendered by [`report::render`]
//!   (the `tms report` subcommand);
//! * [`AggregatingSink`] — in-memory per-phase totals plus counter and
//!   observation maps, the backend of the serve layer's `stats` and
//!   Prometheus endpoints and of the experiment drivers' accounting;
//! * [`metrics`] — dependency-free counter/histogram primitives (plain
//!   `AtomicU64`), including the endpoint metrics the serving layer uses;
//! * [`prometheus`] — text exposition (and a small parser for tests);
//! * [`slowlog`] — request-scoped tracing: [`RequestCtx`] trace contexts
//!   minted per request, the [`RequestRecorder`] that tags every event
//!   with its owning request's trace id, and the tail-sampling
//!   [`Slowlog`] ring that retains full span trees only for slow,
//!   errored, shed or degraded requests;
//! * [`slo`] — per-endpoint SLO definitions ([`SloSpec`]) with
//!   multi-window (5 min / 1 h) burn-rate tracking ([`SloTracker`]).
//!
//! ```
//! use tms_obs::{span, AggregatingSink, Phase, Recorder};
//!
//! let sink = AggregatingSink::new();
//! {
//!     let mut s = span(&sink, Phase::Place, "mvau_18");
//!     s.field("cf", 1.18);
//!     sink.count("pblock.search.tool_runs", 3);
//! } // span records on drop
//! assert_eq!(sink.phase_spans(Phase::Place), 1);
//! assert_eq!(sink.counter("pblock.search.tool_runs"), 3);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod phase;
pub mod prometheus;
pub mod record;
pub mod report;
pub mod sinks;
pub mod slo;
pub mod slowlog;

pub use metrics::{
    nearest_rank, quantile_from_buckets, Counter, EndpointMetrics, EndpointSnapshot, Histogram,
    LATENCY_BUCKETS_US,
};
pub use phase::Phase;
pub use record::{noop, now_us, span, NoopRecorder, Recorder, Span, SpanRecord, TraceEvent};
pub use sinks::{
    read_trace, replay, AggregatingSink, JsonlSink, ObsSnapshot, ObservationSnapshot, PhaseSnapshot,
};
pub use slo::{BurnRateSample, SloSpec, SloTracker, BURN_WINDOWS};
pub use slowlog::{RequestCtx, RequestOutcome, RequestRecorder, Slowlog, SlowlogEntry, TraceIdGen};
