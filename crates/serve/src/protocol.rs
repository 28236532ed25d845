//! The JSON-lines wire protocol of the serving layer.
//!
//! Framing is one JSON document per `\n`-terminated line, both directions.
//! Every request is a [`Request`] envelope carrying an endpoint name and a
//! typed payload; every reply is a [`Response`] echoing the request id.
//!
//! ```text
//! -> {"id":1,"endpoint":"estimate","payload":{"spec":{...}}}
//! <- {"id":1,"ok":true,"payload":{"cf":1.18,...},"error":null}
//! ```
//!
//! Endpoints:
//!
//! | endpoint   | payload              | reply                 |
//! |------------|----------------------|-----------------------|
//! | `estimate` | [`EstimateRequest`]  | [`EstimateResponse`]  |
//! | `preimpl`  | [`PreimplRequest`]   | [`PreimplResponse`]   |
//! | `flow`     | [`FlowRequest`]      | [`FlowResponse`]      |
//! | `stats`    | none (`null`)        | [`StatsReport`]       |
//! | `metrics`  | none (`null`)        | [`MetricsResponse`]   |
//! | `shutdown` | none (`null`)        | [`ShutdownResponse`]  |
//! | `slowlog`  | [`SlowlogRequest`] or `null` | [`SlowlogReport`] |
//!
//! The `metrics` page is also reachable over plain HTTP on the same port:
//! a connection whose first line starts with `GET ` gets the Prometheus
//! text page back as an `HTTP/1.1 200` response and is then closed.

use serde::Value;
use tms_cnn::ModuleRole;
use tms_netlist::NetlistStats;
use tms_obs::ObsSnapshot;
pub use tms_obs::{BurnRateSample, EndpointSnapshot, SlowlogEntry};
pub use tms_store::{ScrubReport, StoreSnapshot};

/// Request envelope: a client-chosen id, the endpoint, and its payload.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// Client-chosen id, echoed back in the [`Response`].
    pub id: u64,
    /// Endpoint name: `estimate`, `preimpl`, `flow` or `stats`.
    pub endpoint: String,
    /// Endpoint-specific payload (`null` for `stats`).
    pub payload: Value,
}

/// Response envelope.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Endpoint-specific payload (`null` on error).
    pub payload: Value,
    /// Error message when `ok` is false.
    pub error: Option<String>,
}

impl Response {
    /// A successful reply.
    pub fn success(id: u64, payload: Value) -> Response {
        Response {
            id,
            ok: true,
            payload,
            error: None,
        }
    }

    /// A failed reply.
    pub fn failure(id: u64, error: String) -> Response {
        Response {
            id,
            ok: false,
            payload: Value::Null,
            error: Some(error),
        }
    }
}

/// A module to synthesise on the server: role recipe, size, name, seed.
/// Deterministic — the same spec always yields the same netlist, which is
/// what makes the pre-implementation cache coherent across requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ModuleSpec {
    /// Resource recipe.
    pub role: ModuleRole,
    /// Target size in packed slices.
    pub target_slices: u32,
    /// Module/instance name (part of the cache fingerprint).
    pub name: String,
    /// Generator seed.
    pub seed: u64,
}

/// `estimate` payload: predict a CF either from post-synthesis statistics
/// computed client-side (`stats`) or from a module spec the server
/// synthesises first (`spec`). Exactly one must be present; `stats` wins
/// if both are.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EstimateRequest {
    /// Pre-computed netlist statistics.
    pub stats: Option<NetlistStats>,
    /// Module spec to synthesise server-side.
    pub spec: Option<ModuleSpec>,
}

/// `estimate` reply.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EstimateResponse {
    /// Predicted correction factor (clamped to ≥ 0.5, like the flow).
    pub cf: f64,
    /// Estimator family label (e.g. `Random Forest`).
    pub estimator: String,
    /// Feature-set label the model consumes (e.g. `Additional`).
    pub features: String,
    /// Server-side handling time in microseconds.
    pub micros: u64,
}

/// `preimpl` payload: pre-implement one module (PBlock + placement),
/// through the shared implementation cache.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PreimplRequest {
    /// The module to implement.
    pub spec: ModuleSpec,
    /// Target device name (e.g. `xc7z045`).
    pub device: String,
    /// Correction factor: `Some(cf)` implements at that constant CF,
    /// `None` searches the minimal feasible CF. The cache key does not
    /// carry the policy; see [`FlowRequest::cf`].
    pub cf: Option<f64>,
}

/// `preimpl` reply.
///
/// The cache key is structural (device, name, statistics digest), so a hit
/// returns the implementation as it was first built — including its CF —
/// regardless of the `cf` field of the *current* request; `cached` tells
/// the two cases apart.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PreimplResponse {
    /// Module name.
    pub name: String,
    /// The CF the PBlock was built with.
    pub cf: f64,
    /// PBlock width in slice columns.
    pub pblock_w: u32,
    /// PBlock height in slice rows.
    pub pblock_h: u32,
    /// Slices occupied by the detailed placement.
    pub used_slices: u32,
    /// Place-and-route attempts spent when the module was implemented.
    pub attempts: u32,
    /// Whether the first attempted CF was feasible.
    pub first_try: bool,
    /// Whether this reply was served from the warm cache.
    pub cached: bool,
    /// Server-side handling time in microseconds.
    pub micros: u64,
}

/// `flow` payload: compile a full cnvW1A1-style design through the cached
/// RapidWright-style flow (pre-implement misses, splice hits, stitch).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowRequest {
    /// Seed of the cnvW1A1 design generator (and of the flow).
    pub design_seed: u64,
    /// Target device name.
    pub device: String,
    /// `Some(cf)` for a constant-CF policy, `None` for minimal-CF search.
    ///
    /// The cache key carries no CF policy, and constant-CF and minimal-CF
    /// requests share the server's one cache: a module implemented under
    /// one policy is reused by a request under the other, so replies
    /// depend on which policy reached the module first. Send one policy
    /// per server (or store directory).
    pub cf: Option<f64>,
    /// Memory-packing policy for weight stores: `"off"` (default when
    /// absent), `"naive"` (all-BRAM36 baseline), or `"packed"` (the
    /// least-cost BRAM36 / BRAM18-half / LUTRAM assignment, solved
    /// exactly).
    pub mem_pack: Option<String>,
}

/// `flow` reply: the stitched-placement report.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowResponse {
    /// Unique modules implemented successfully (cached + fresh).
    pub implemented: usize,
    /// Modules with no feasible implementation.
    pub failed: usize,
    /// Block instances placed by the stitcher.
    pub placed_count: usize,
    /// Block instances the stitcher could not place.
    pub unplaced_count: usize,
    /// Unique modules served from the warm cache.
    pub reused: usize,
    /// Unique modules implemented fresh by this request.
    pub fresh: usize,
    /// Place-and-route tool runs actually spent by this request.
    pub tool_runs_spent: u32,
    /// Tool runs the full implementation records (cached + fresh).
    pub total_tool_runs: u32,
    /// BRAM36 sites the memory-packing phase saved versus the naive
    /// all-BRAM36 baseline; `None` when the request ran with packing off.
    pub pack_bram36_saved: Option<u64>,
    /// Whether the packed weight memories fit the device's memory budget
    /// (`false`: no assignment fits, and the flow ran the least-penalty
    /// one); `None` when the request ran with packing off.
    pub pack_feasible: Option<bool>,
    /// Server-side handling time in microseconds.
    pub micros: u64,
}

/// Shared-cache statistics inside a [`StatsReport`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Implementations currently cached.
    pub len: usize,
    /// Eviction bound.
    pub capacity: usize,
    /// Lookup hits since the server started.
    pub hits: u64,
    /// Lookup misses since the server started.
    pub misses: u64,
}

/// Robustness counters inside a [`StatsReport`]: how often the server
/// shed, refused, degraded, or absorbed failure instead of crashing. The
/// counts are the server's `serve.*` counters (`/metrics`:
/// `tms_serve_shed_total`, ..., `tms_serve_store_error_total`).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct RobustnessReport {
    /// Whether the server demoted itself to memory-only caching after
    /// persistent store failures (see the `degrade_after` threshold in
    /// `ServeConfig`). Once degraded it stays degraded until restart.
    pub degraded: bool,
    /// Connections refused with an `overloaded` reply — either the
    /// bounded accept queue was full, or the connection waited in the
    /// queue longer than the request deadline.
    pub shed: u64,
    /// Requests whose handling outlived the per-request deadline; the
    /// result was discarded and an error reply sent instead.
    pub deadline_expired: u64,
    /// Request lines rejected for exceeding the byte limit.
    pub oversized: u64,
    /// Lines that were not valid UTF-8 or not a valid request envelope;
    /// each got a structured error reply (never a silent drop).
    pub malformed: u64,
    /// Store puts that failed even after retrying, each booked on the
    /// request whose fill it was as `serve.store_error`.
    pub store_put_failures: u64,
    /// Faults injected by the server's `FaultPlan`, all points summed
    /// (0 when no plan is armed).
    pub faults_injected: u64,
}

/// Integrity counters inside a [`StatsReport`]: what the verified read
/// path and the background scrubber caught, and what the last scrub pass
/// covered.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct IntegrityReport {
    /// Verified cache reads that failed (digest mismatch, legality-audit
    /// violation, or corruption that broke the record's encoding). Each
    /// was answered by a transparent recompute, never an error.
    pub verify_failures: u64,
    /// Cache entries quarantined by verified reads: every failed read
    /// quarantines its entry, so this equals `verify_failures`.
    pub quarantined: u64,
    /// Inserts rejected by the pre-insert legality audit.
    pub insert_rejected: u64,
    /// Background scrub passes completed so far (`serve.scrub.pass`).
    pub scrub_passes: u64,
    /// What the most recent scrub pass covered (`None` before the first
    /// pass, or when the server runs without a store).
    pub last_scrub: Option<ScrubReport>,
}

/// The request memos inside a [`StatsReport`]: how many `flow` designs
/// and `preimpl` specs the server can answer without regenerating them.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct MemoReport {
    /// Designs remembered (design seed × device) with their module keys.
    pub design_entries: usize,
    /// Module specs remembered (spec × device) with their key.
    pub spec_entries: usize,
    /// Entry bound of each memo; a full memo is cleared wholesale.
    pub capacity: usize,
}

/// One endpoint's SLO posture inside a [`StatsReport`]: the objective
/// plus its multi-window burn-rate readings.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SloReport {
    /// The endpoint the objective covers.
    pub endpoint: String,
    /// Availability target, e.g. `0.999`.
    pub availability: f64,
    /// Latency target in microseconds; slower requests burn the latency
    /// budget.
    pub latency_target_us: u64,
    /// Fraction of requests that must meet the latency target.
    pub latency_goal: f64,
    /// Burn-rate readings, one per window (`5m`, `1h`).
    pub windows: Vec<BurnRateSample>,
}

/// `stats` reply: per-endpoint counters plus cache hit/miss rates and the
/// flow-phase telemetry of the pipeline work the server has done.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StatsReport {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// `estimate` endpoint counters.
    pub estimate: EndpointSnapshot,
    /// `preimpl` endpoint counters.
    pub preimpl: EndpointSnapshot,
    /// `flow` endpoint counters.
    pub flow: EndpointSnapshot,
    /// `stats` endpoint counters (not counting the in-flight request).
    pub stats: EndpointSnapshot,
    /// `metrics` endpoint counters (Prometheus exposition).
    pub metrics: EndpointSnapshot,
    /// `shutdown` endpoint counters.
    pub shutdown: EndpointSnapshot,
    /// `slowlog` endpoint counters.
    pub slowlog: EndpointSnapshot,
    /// Per-endpoint SLO burn rates.
    pub slo: Vec<SloReport>,
    /// Shared implementation-cache statistics.
    pub cache: CacheStats,
    /// Persistent-store statistics, when the server runs in store mode
    /// (`None` for a purely in-memory cache — including after a degrade
    /// to memory-only; `robustness.degraded` tells the two apart).
    pub store: Option<StoreSnapshot>,
    /// Shed/deadline/degrade/fault counters.
    pub robustness: RobustnessReport,
    /// Verified-read, quarantine, and scrubber counters.
    pub integrity: IntegrityReport,
    /// Fill of the request memos; their hit and miss counters are in
    /// `pipeline` (`serve.design_memo.*`, `serve.spec_memo.*`).
    pub memo: MemoReport,
    /// Pipeline telemetry: per-phase span totals, flow counters and
    /// observations accumulated across every request handled so far.
    pub pipeline: ObsSnapshot,
}

/// `shutdown` reply: acknowledged *after* the persistent store (if any)
/// has been fsynced, so receiving it implies every committed insert is
/// durable. The server stops accepting work right after answering.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ShutdownResponse {
    /// Always `true`: the flag is raised when this reply is sent.
    pub stopping: bool,
    /// Final persistent-store statistics (store mode only).
    pub store: Option<StoreSnapshot>,
    /// Server-side handling time in microseconds.
    pub micros: u64,
}

/// `metrics` reply: the Prometheus text-format page.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MetricsResponse {
    /// The rendered exposition page.
    pub text: String,
}

/// `slowlog` payload (optional — `null` means all retained entries).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SlowlogRequest {
    /// Maximum entries to return, newest first (`0` = all).
    pub limit: u64,
}

/// `slowlog` reply: the tail-sampling state plus the retained span trees.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SlowlogReport {
    /// Latency threshold (µs) above which a healthy request is retained.
    pub threshold_us: u64,
    /// Ring capacity.
    pub capacity: u64,
    /// Requests considered for retention so far.
    pub considered: u64,
    /// Requests retained so far (including since-evicted ones).
    pub retained: u64,
    /// Retained entries evicted to make room.
    pub evicted: u64,
    /// The retained entries, newest first.
    pub entries: Vec<SlowlogEntry>,
    /// Server-side handling time in microseconds.
    pub micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_round_trip() {
        let req = Request {
            id: 7,
            endpoint: "estimate".into(),
            payload: serde::Serialize::to_value(&EstimateRequest {
                stats: None,
                spec: Some(ModuleSpec {
                    role: ModuleRole::Mvau,
                    target_slices: 60,
                    name: "m0".into(),
                    seed: 1,
                }),
            }),
        };
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.endpoint, "estimate");
        let payload: EstimateRequest = serde_json::from_value(&back.payload).unwrap();
        assert!(payload.stats.is_none());
        assert_eq!(payload.spec.unwrap().name, "m0");
    }

    #[test]
    fn error_responses_carry_the_message() {
        let resp = Response::failure(3, "no such endpoint".into());
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.id, 3);
        assert_eq!(back.error.as_deref(), Some("no such endpoint"));
        assert_eq!(back.payload, Value::Null);
    }

    #[test]
    fn netlist_stats_travel_as_payload() {
        let nl = tms_cnn::synth_module(ModuleRole::Activation, 40, "act", 2);
        let stats = nl.stats();
        let v = serde::Serialize::to_value(&stats);
        let back: NetlistStats = serde_json::from_value(&v).unwrap();
        assert_eq!(back, stats);
    }
}
