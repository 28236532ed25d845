//! The concurrent service: a TCP acceptor feeding a crossbeam-channel
//! worker pool, all workers sharing one estimator and one warm
//! implementation cache behind a reader-writer lock.
//!
//! Threading model (no async runtime — plain threads):
//!
//! * one **acceptor** thread blocks on `TcpListener::accept` and hands
//!   each connection to the pool over a **bounded** channel of
//!   [`ServeConfig::queue_limit`] slots; when the queue is full the
//!   connection is *shed* — answered with an explicit `overloaded`
//!   error reply and closed — instead of queueing without bound;
//! * `workers` **worker** threads each own one connection at a time and
//!   serve its requests until the client disconnects — so the pool size
//!   bounds the number of *concurrent connections*. A connection that
//!   waited in the queue longer than the request deadline is shed at
//!   dequeue rather than served stale;
//! * the shared [`ImplementationCache`] sits behind a
//!   `parking_lot::RwLock`. Every `flow` and `preimpl` runs the same four
//!   steps: a verified lookup under the read lock, the misses implemented
//!   with no lock held, a fill under the write lock (only when something
//!   was implemented), and — for a `flow` — a stitch with no lock held. No
//!   lock spans an implementation or a stitch. Request memos map a
//!   repeated `flow` design or `preimpl` spec to its cache keys, so a
//!   repeat regenerates nothing (see `memo.rs`), and the cache's stitch
//!   memo answers a repeated stitch input without annealing.
//!
//! Robustness posture (see also [`crate::protocol::RobustnessReport`]):
//! request lines are read through a **bounded byte reader** — an
//! oversized line gets an error reply and the connection closes, a
//! non-UTF-8 or unparseable line gets a structured error reply (never a
//! silent drop); each request has a **deadline** after which its result
//! is discarded and an error returned; store writes retry under the
//! configured [`Retry`] policy, and after [`ServeConfig::degrade_after`]
//! consecutive store-put failures the server **degrades to memory-only
//! caching** (flagged in `stats` and `/metrics`) instead of crashing.
//! An optional seeded [`FaultPlan`] injects deterministic faults at the
//! `serve.read`/`serve.write` points and (via the store and flow crates)
//! at `store.*`/`flow.*` — the chaos suite and `tms chaos` drive it.
//!
//! Shutdown: [`ServerHandle::stop`] raises a flag, unblocks the acceptor
//! with a self-connection, drops the channel sender (so idle workers
//! drain and exit) and joins every thread; workers poll the flag between
//! read timeouts, so connections held open by clients terminate too.
//! Only *after* the last worker exits — no in-flight insert can race it —
//! the persistent store (if configured) is checkpointed (its log flushed
//! once, then compacted), so a restart warm-starts from a compacted log.
//! A client can trigger the same path remotely with the `shutdown`
//! endpoint: the handler fsyncs the store before acknowledging, then
//! raises the flag for [`ServerHandle::serve_forever`] to finish the job.

use crate::memo::{DesignKeys, MEMO_CAPACITY};
use crate::metrics::Metrics;
use crate::protocol::{
    CacheStats, EstimateRequest, EstimateResponse, FlowRequest, FlowResponse, IntegrityReport,
    MemoReport, MetricsResponse, ModuleSpec, PreimplRequest, PreimplResponse, Request, Response,
    RobustnessReport, ShutdownResponse, SloReport, SlowlogReport, SlowlogRequest, StatsReport,
};
use crossbeam::channel::TrySendError;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tms_cnn::{cnvw1a1, CnvDesign};
use tms_device::{Device, DeviceName};
use tms_estimator::{CfEstimator, FeatureSet};
use tms_fault::{FaultInjector, FaultPlan, FaultPoint, NoopInjector, Retry};
use tms_flow::{
    CacheLookup, CfPolicy, ImplementationCache, MacroStore, MemPackPolicy, Memo, ModuleFingerprint,
    RwFlowConfig, StoreAuditor, DEFAULT_CACHE_CAPACITY,
};
use tms_netlist::Netlist;
use tms_obs::prometheus::PromText;
use tms_obs::{
    span, AggregatingSink, Phase, Recorder, RequestCtx, RequestOutcome, RequestRecorder, SloSpec,
    SloTracker, Slowlog, SlowlogEntry, TraceIdGen,
};
use tms_pblock::CfSearch;
use tms_place::PlacementModel;
use tms_stitch::StitchConfig;
use tms_store::{Store, StoreConfig};

/// How long a worker waits on a quiet connection before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Byte bound on a single HTTP header line when draining a `GET` request.
const MAX_HTTP_HEADER_LINE: usize = 8 * 1024;

/// Byte bound on the whole HTTP header section of a `GET` request.
const MAX_HTTP_HEADERS: usize = 64 * 1024;

/// The server's own event counters on the shared sink, each the one count
/// of its event: `stats` reads them into its robustness and integrity
/// reports, and `/metrics` shows them as `tms_serve_*_total`. They are
/// registered at 0 on start, so a fresh server's page shows every one.
const SERVE_COUNTERS: [&str; 6] = [
    "serve.shed",
    "serve.deadline_expired",
    "serve.oversized",
    "serve.malformed",
    "serve.store_error",
    "serve.scrub.pass",
];

/// Server configuration.
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads — the bound on concurrent connections.
    pub workers: usize,
    /// Implementation-cache eviction bound (in-memory mode only).
    pub cache_capacity: usize,
    /// When set, back the implementation cache with a persistent
    /// [`MacroStore`] in this configuration's directory: the server
    /// warm-starts from whatever a previous process left there, every
    /// insert is WAL-appended, and a graceful shutdown checkpoints the
    /// library (so a restart replays nothing).
    pub store: Option<StoreConfig>,
    /// Bound on connections queued between acceptor and workers. When
    /// the queue is full, further connections are *shed*: answered with
    /// an `overloaded` error reply and closed, never queued unbounded.
    pub queue_limit: usize,
    /// Maximum bytes of one request line. An oversized line gets an
    /// error reply and the connection closes — it is never buffered
    /// whole (no OOM) and never dropped silently.
    pub max_line_bytes: usize,
    /// Per-request deadline. A request whose handling outlives it has
    /// its result discarded and an error returned; a connection that
    /// waited in the accept queue longer than this is shed at dequeue.
    pub request_deadline: Duration,
    /// Consecutive store-put failures (each already retried under
    /// `retry`) after which the server degrades to memory-only caching.
    /// `0` disables degradation.
    pub degrade_after: u32,
    /// Retry policy for store writes and (when a fault plan is armed)
    /// per-module implementation attempts.
    pub retry: Retry,
    /// Deterministic fault plan consulted at the `serve.*` points and
    /// handed to the store and flow layers. `None` (the default) serves
    /// fault-free with near-zero overhead.
    pub fault: Option<Arc<FaultPlan>>,
    /// A healthy request slower than this is retained in the slowlog
    /// (errored/shed/degraded/deadline-expired requests are retained
    /// regardless of latency).
    pub slow_threshold: Duration,
    /// Interval between background scrub passes over the persistent
    /// library (store mode only). Each pass re-audits every stored entry
    /// at the configured byte/s budget and quarantines violators; repair
    /// is recompute-on-next-request. `None` (the default) disables the
    /// scrubber.
    pub scrub_interval: Option<Duration>,
    /// Byte/s pacing budget of one scrub pass (`0` = unthrottled). The
    /// default 8 MiB/s keeps a pass's read-lock pressure negligible next
    /// to request traffic.
    pub scrub_bytes_per_sec: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            store: None,
            queue_limit: 64,
            max_line_bytes: 1024 * 1024,
            request_deadline: Duration::from_secs(60),
            degrade_after: 3,
            retry: Retry::default(),
            fault: None,
            slow_threshold: Duration::from_secs(1),
            scrub_interval: None,
            scrub_bytes_per_sec: 8 * 1024 * 1024,
        }
    }
}

/// Ring capacity of the tail-sampling slowlog: how many full request span
/// trees are retained for the `slowlog` endpoint.
const SLOWLOG_CAPACITY: usize = 64;

/// The per-endpoint service-level objectives, each with multi-window
/// burn-rate gauges on `/metrics` and in `stats`: 99.9% availability
/// everywhere, with latency targets scaled to what each endpoint does —
/// cheap lookups answer within 50 ms, a `preimpl` may place-and-route one
/// module (10 s), a `flow` may compile a whole design (60 s). 99% of
/// requests must meet the latency target.
fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new("estimate", 50_000),
        SloSpec::new("preimpl", 10_000_000),
        SloSpec::new("flow", 60_000_000),
        SloSpec::new("stats", 50_000),
        SloSpec::new("metrics", 50_000),
        SloSpec::new("shutdown", 5_000_000),
        SloSpec::new("slowlog", 50_000),
    ]
}

impl ServeConfig {
    /// Back the server's cache with a persistent store in `dir`
    /// (default store budgets; see [`StoreConfig::at`]).
    pub fn with_store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store = Some(StoreConfig::at(dir.into()));
        self
    }

    /// Arm a deterministic fault plan: the server consults it at every
    /// `serve.*`/`store.*`/`flow.*` fault point. Keep the `Arc` to steer
    /// rates and read injection counters while the server runs.
    pub fn with_fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Run a background scrub pass over the persistent library every
    /// `interval`, paced at `bytes_per_sec` (`0` = unthrottled).
    pub fn with_scrub(mut self, interval: Duration, bytes_per_sec: u64) -> Self {
        self.scrub_interval = Some(interval);
        self.scrub_bytes_per_sec = bytes_per_sec;
        self
    }
}

/// The limits a worker consults per request, copied out of [`ServeConfig`].
struct Limits {
    max_line_bytes: usize,
    request_deadline: Duration,
    degrade_after: u32,
}

/// Process-wide state shared by every worker.
struct ServerState {
    estimator: CfEstimator,
    features: FeatureSet,
    cache: parking_lot::RwLock<ImplementationCache>,
    metrics: Metrics,
    /// Shared by workers *and* (as an `Arc<dyn Recorder>`) by the
    /// persistent store's telemetry, so the store's spans land on the same
    /// page as the pipeline phases. It holds the [`SERVE_COUNTERS`].
    sink: Arc<AggregatingSink>,
    shutdown: AtomicBool,
    /// Ensures the final store checkpoint runs exactly once even though
    /// `shutdown()` may run twice (`stop()` + `Drop`).
    checkpointed: AtomicBool,
    started: Instant,
    limits: Limits,
    fault: Option<Arc<FaultPlan>>,
    /// Whether the cache runs memory-only because its store failed to
    /// open or kept failing puts.
    degraded: AtomicBool,
    /// Trace-id source for per-request [`RequestCtx`]s.
    traces: TraceIdGen,
    /// The tail-sampling slowlog behind the `slowlog` endpoint.
    slowlog: Slowlog,
    /// Per-endpoint SLO burn-rate trackers.
    slo: Vec<SloTracker>,
    /// `flow` designs (seed × device, packing off) → module keys and
    /// block diagram.
    designs: Memo<(u64, DeviceName), DesignKeys>,
    /// `preimpl` module specs (spec × device) → module key.
    specs: Memo<(ModuleSpec, DeviceName), ModuleFingerprint>,
}

impl ServerState {
    /// The persistent store behind the cache, when running in store mode.
    fn store(&self) -> Option<Arc<MacroStore>> {
        self.cache.read().store().cloned()
    }

    /// The SLO tracker covering `endpoint`, if one was configured.
    fn slo_tracker(&self, endpoint: &str) -> Option<&SloTracker> {
        self.slo.iter().find(|t| t.spec().endpoint == endpoint)
    }

    /// Consult the fault plan at a `serve.*` point (false when unarmed).
    fn should_fail(&self, point: FaultPoint) -> bool {
        match &self.fault {
            Some(plan) => plan.should_fail(point),
            None => false,
        }
    }

    /// Snapshot the robustness counters for `stats`. The event counts are
    /// the `serve.*` counters on the shared sink.
    fn robustness_report(&self) -> RobustnessReport {
        RobustnessReport {
            degraded: self.degraded.load(Ordering::SeqCst),
            shed: self.sink.counter("serve.shed"),
            deadline_expired: self.sink.counter("serve.deadline_expired"),
            oversized: self.sink.counter("serve.oversized"),
            malformed: self.sink.counter("serve.malformed"),
            store_put_failures: self.sink.counter("serve.store_error"),
            faults_injected: self.fault.as_ref().map(|p| p.injected_total()).unwrap_or(0),
        }
    }

    /// Snapshot the request memos' fill for `stats` and `/metrics`.
    fn memo_report(&self) -> MemoReport {
        MemoReport {
            design_entries: self.designs.len(),
            spec_entries: self.specs.len(),
            capacity: MEMO_CAPACITY,
        }
    }

    /// Snapshot the integrity counters for `stats` and `/metrics`. A
    /// failed verified read quarantines its entry, so one count serves
    /// both fields.
    fn integrity_report(&self, cache: &ImplementationCache) -> IntegrityReport {
        IntegrityReport {
            verify_failures: cache.verify_failures(),
            quarantined: cache.verify_failures(),
            insert_rejected: cache.insert_rejected(),
            scrub_passes: self.sink.counter("serve.scrub.pass"),
            last_scrub: cache.store().and_then(|s| s.last_scrub()),
        }
    }
}

/// A connection waiting between acceptor and worker, stamped with its
/// accept time so stale queue entries can be shed at dequeue.
struct Pending {
    stream: TcpStream,
    accepted: Instant,
}

/// A running server; dropping it (or calling [`ServerHandle::stop`])
/// shuts the service down and joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server: refuse new connections, finish in-flight
    /// requests, join every thread, and — in store mode — flush and
    /// checkpoint the persistent library so the next process warm-starts
    /// from a compacted log.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Serve until the shutdown flag is raised — by a client's `shutdown`
    /// request or another thread's signal handling — then run the full
    /// graceful-stop path (join workers, checkpoint the store). This is
    /// the CLI front end's main loop.
    pub fn serve_forever(self) {
        while !self.state.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.stop();
    }

    fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throw-away connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.scrubber.take() {
            let _ = h.join();
        }
        // Only after every worker has exited (no more in-flight inserts):
        // make the library durable and compact its log.
        if !self.state.checkpointed.swap(true, Ordering::SeqCst) {
            if let Some(store) = self.state.store() {
                // The checkpoint flushes the log before it compacts.
                let _ = store.checkpoint();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // `shutdown` is idempotent (acceptor/workers drain once, the
        // checkpoint is guarded), so running it after an explicit `stop`
        // or a client-initiated shutdown is harmless — and required when
        // the flag was raised by the `shutdown` endpoint, where threads
        // are still parked waiting to be joined.
        self.shutdown();
    }
}

/// Start a server with a pre-trained estimator. Returns once the listener
/// is bound; `handle.addr()` carries the resolved port.
pub fn serve(
    config: ServeConfig,
    estimator: CfEstimator,
    features: FeatureSet,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let sink = Arc::new(AggregatingSink::new());
    for key in SERVE_COUNTERS {
        sink.count(key, 0);
    }
    // Store mode opens (and crash-recovers) the persistent library before
    // accepting a single connection: the warm start is part of startup.
    // If the open itself fails, the server comes up memory-only and
    // flags itself degraded rather than refusing to start.
    let mut degraded_at_open = false;
    let cache = match &config.store {
        Some(store_config) => {
            let recorder: Arc<dyn Recorder> = Arc::clone(&sink) as Arc<dyn Recorder>;
            let fault: Arc<dyn FaultInjector> = match &config.fault {
                Some(plan) => Arc::clone(plan) as Arc<dyn FaultInjector>,
                None => Arc::new(NoopInjector),
            };
            match Store::open_faulty(store_config.clone(), recorder, fault) {
                Ok(store) => {
                    let store: MacroStore = store;
                    ImplementationCache::with_store(Arc::new(store))
                }
                Err(_) => {
                    sink.count("serve.store_open_failed", 1);
                    degraded_at_open = true;
                    ImplementationCache::with_capacity(config.cache_capacity)
                }
            }
        }
        None => ImplementationCache::with_capacity(config.cache_capacity),
    };
    let mut cache = cache.with_retry(config.retry);
    if let Some(plan) = &config.fault {
        // Verified reads must catch whatever `cache.corrupt_macro` flips,
        // and every cached flow's lookup carries the plan and the retry
        // policy on to absorb `flow.place`/`flow.route` faults.
        cache = cache.with_fault(Arc::clone(plan) as Arc<dyn FaultInjector>);
    }
    let state = Arc::new(ServerState {
        estimator,
        features,
        cache: parking_lot::RwLock::new(cache),
        metrics: Metrics::default(),
        sink,
        shutdown: AtomicBool::new(false),
        checkpointed: AtomicBool::new(false),
        started: Instant::now(),
        limits: Limits {
            max_line_bytes: config.max_line_bytes.max(1),
            request_deadline: config.request_deadline,
            degrade_after: config.degrade_after,
        },
        fault: config.fault.clone(),
        degraded: AtomicBool::new(degraded_at_open),
        traces: TraceIdGen::new(),
        slowlog: Slowlog::new(SLOWLOG_CAPACITY, config.slow_threshold.as_micros() as u64),
        slo: default_slos().into_iter().map(SloTracker::new).collect(),
        designs: Memo::new(MEMO_CAPACITY),
        specs: Memo::new(MEMO_CAPACITY),
    });

    let (tx, rx) = crossbeam::channel::bounded::<Pending>(config.queue_limit.max(1));
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let rx = rx.clone();
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                // Exits when the acceptor drops the sender and the queue
                // drains, or the shutdown flag is raised.
                while let Ok(pending) = rx.recv() {
                    if state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if pending.accepted.elapsed() > state.limits.request_deadline {
                        refuse(&state, pending.stream, "queued past the request deadline");
                        continue;
                    }
                    handle_connection(&state, pending.stream);
                }
            })
        })
        .collect();

    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            // `tx` lives in this thread; dropping it on exit disconnects
            // the channel and lets idle workers finish.
            for stream in listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let pending = Pending {
                    stream,
                    accepted: Instant::now(),
                };
                match tx.try_send(pending) {
                    Ok(()) => {}
                    Err(TrySendError::Full(p)) => refuse(&state, p.stream, "accept queue full"),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        })
    };

    // Background scrubber: periodically re-audit the persistent library
    // at the configured byte/s budget, quarantining violators. Runs only
    // in store mode; exits on shutdown or once the server degrades to
    // memory-only (the store handle disappears).
    let scrubber = config.scrub_interval.map(|interval| {
        let state = Arc::clone(&state);
        let bytes_per_sec = config.scrub_bytes_per_sec;
        std::thread::spawn(move || {
            let mut auditor = StoreAuditor::new();
            'passes: loop {
                let mut waited = Duration::ZERO;
                while waited < interval {
                    if state.shutdown.load(Ordering::SeqCst) {
                        break 'passes;
                    }
                    std::thread::sleep(READ_POLL);
                    waited += READ_POLL;
                }
                let Some(store) = state.store() else {
                    break;
                };
                // The store counts what a pass audits and quarantines.
                let counter =
                    match store.scrub_with(bytes_per_sec, |k, v| auditor.audit(k, v).is_ok()) {
                        Ok(_) => "serve.scrub.pass",
                        Err(_) => "serve.scrub.failed",
                    };
                state.sink.count(counter, 1);
            }
        })
    });

    Ok(ServerHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        workers,
        scrubber,
    })
}

/// Shed a connection: count it, answer an explicit `overloaded` error
/// reply (bounded write, best-effort), and close.
fn refuse(state: &ServerState, mut stream: TcpStream, why: &str) {
    state.sink.count("serve.shed", 1);
    // A shed connection never reaches an endpoint, but it is exactly the
    // kind of request the tail-sampler exists for: retain it.
    state.slowlog.offer(SlowlogEntry {
        trace_id: state.traces.mint(),
        endpoint: "accept".to_string(),
        latency_us: 0,
        outcome: RequestOutcome::Shed,
        over_budget_phases: Vec::new(),
        events: Vec::new(),
    });
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let resp = Response::failure(0, format!("overloaded: {why}"));
    let mut out = serde_json::to_string(&resp).unwrap_or_default();
    out.push('\n');
    let _ = stream.write_all(out.as_bytes());
}

/// What one bounded line read produced.
enum LineOutcome {
    /// `buf` holds one complete line (newline stripped, `\r` kept).
    Line,
    /// Clean EOF with nothing buffered.
    Eof,
    /// Read timeout; any partial line stays in `buf` for the next poll.
    Timeout,
    /// The line exceeded `max` bytes before its newline arrived.
    TooLong,
    /// Hard I/O error.
    Failed,
}

/// Read one `\n`-terminated line into `buf` without ever buffering more
/// than `max` bytes — the bounded replacement for `read_line` that makes
/// oversized input an explicit, answerable condition instead of
/// unbounded memory growth. EOF with a non-empty partial buffer yields
/// that partial as a final [`LineOutcome::Line`] so truncated requests
/// still get a structured error reply.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> LineOutcome {
    loop {
        let (used, complete) = {
            let available = match reader.fill_buf() {
                Ok(a) => a,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return LineOutcome::Timeout;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return LineOutcome::Failed,
            };
            if available.is_empty() {
                return if buf.is_empty() {
                    LineOutcome::Eof
                } else {
                    LineOutcome::Line
                };
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&available[..pos]);
                    (pos + 1, true)
                }
                None => {
                    buf.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        reader.consume(used);
        if buf.len() > max {
            return LineOutcome::TooLong;
        }
        if complete {
            return LineOutcome::Line;
        }
    }
}

/// Serialize and write one reply line.
fn respond(writer: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut out =
        serde_json::to_string(resp).unwrap_or_else(|_| "{\"id\":0,\"ok\":false}".to_string());
    out.push('\n');
    writer.write_all(out.as_bytes())
}

/// Serve one connection until EOF, error, or shutdown. Every malformed
/// input — oversized, non-UTF-8, unparseable — is answered with a
/// structured error reply before any close; nothing is dropped silently.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match read_line_bounded(&mut reader, &mut buf, state.limits.max_line_bytes) {
            // Timeout: keep any partial line in `buf` and poll again.
            LineOutcome::Timeout => continue,
            LineOutcome::Eof | LineOutcome::Failed => break,
            LineOutcome::TooLong => {
                state.sink.count("serve.oversized", 1);
                let resp = Response::failure(
                    0,
                    format!(
                        "request line exceeds the {}-byte limit",
                        state.limits.max_line_bytes
                    ),
                );
                let _ = respond(&mut writer, &resp);
                break;
            }
            LineOutcome::Line => {
                // Injected read fault: the connection dies mid-request,
                // as if the peer vanished.
                if state.should_fail(FaultPoint::ServeRead) {
                    state.sink.count("serve.fault.read", 1);
                    break;
                }
                let line = match String::from_utf8(std::mem::take(&mut buf)) {
                    Ok(s) => s,
                    Err(_) => {
                        state.sink.count("serve.malformed", 1);
                        let resp =
                            Response::failure(0, "request line is not valid UTF-8".to_string());
                        if respond(&mut writer, &resp).is_err() {
                            break;
                        }
                        continue;
                    }
                };
                let trimmed = line.trim();
                if trimmed.starts_with("GET ") {
                    // A plain HTTP scrape on the JSON-lines port: answer
                    // the Prometheus page and close the connection.
                    let request_line = trimmed.to_string();
                    handle_http(state, &mut reader, &mut writer, &request_line);
                    break;
                }
                if !trimmed.is_empty() {
                    let resp = handle_request(state, trimmed);
                    // Injected write fault: the reply is lost on the wire.
                    if state.should_fail(FaultPoint::ServeWrite) {
                        state.sink.count("serve.fault.write", 1);
                        break;
                    }
                    if respond(&mut writer, &resp).is_err() {
                        break;
                    }
                }
            }
        }
    }
}

/// Serve one HTTP GET on the JSON-lines port: drain the request headers
/// (bounded — an abusive header section closes the connection), answer
/// `/metrics` with the Prometheus text page (anything else is 404), and
/// let the caller close the connection.
fn handle_http(
    state: &ServerState,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_line: &str,
) {
    let start = Instant::now();
    // Drain headers until the blank line that ends the request.
    let mut header: Vec<u8> = Vec::new();
    let mut drained = 0usize;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        header.clear();
        match read_line_bounded(reader, &mut header, MAX_HTTP_HEADER_LINE) {
            LineOutcome::Line => {
                if header.iter().all(|b| b.is_ascii_whitespace()) {
                    break;
                }
                drained += header.len();
                if drained > MAX_HTTP_HEADERS {
                    return;
                }
            }
            LineOutcome::Timeout => continue,
            LineOutcome::Eof => break,
            LineOutcome::TooLong | LineOutcome::Failed => return,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", prometheus_text(state))
    } else {
        ("404 Not Found", "only /metrics lives here\n".to_string())
    };
    let ok = status.starts_with("200");
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.write_all(response.as_bytes());
    state
        .metrics
        .metrics
        .record(start.elapsed().as_micros() as u64, ok);
}

/// Parse, dispatch, time, deadline-check, and record one request line.
/// Mints the request's [`RequestCtx`] (trace id + per-phase budget) and
/// threads a [`RequestRecorder`] through the pipeline, so every span the
/// request causes is tagged with its trace id; the finished span tree is
/// offered to the tail-sampling slowlog, and the request's latency and
/// outcome feed the endpoint's SLO burn-rate tracker.
fn handle_request(state: &ServerState, line: &str) -> Response {
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            state.sink.count("serve.malformed", 1);
            return Response::failure(0, format!("bad request envelope: {e}"));
        }
    };
    let (name, endpoint): (&'static str, _) = match req.endpoint.as_str() {
        "estimate" => ("estimate", &state.metrics.estimate),
        "preimpl" => ("preimpl", &state.metrics.preimpl),
        "flow" => ("flow", &state.metrics.flow),
        "stats" => ("stats", &state.metrics.stats),
        "metrics" => ("metrics", &state.metrics.metrics),
        "shutdown" => ("shutdown", &state.metrics.shutdown),
        "slowlog" => ("slowlog", &state.metrics.slowlog),
        other => return Response::failure(req.id, format!("unknown endpoint '{other}'")),
    };
    // Per-phase budget: no single phase may spend more than half the
    // request deadline without being flagged in the slowlog entry.
    let deadline_us = state.limits.request_deadline.as_micros() as u64;
    let ctx = RequestCtx::with_uniform_budget(state.traces.mint(), name, deadline_us / 2);
    let rec = RequestRecorder::new(&*state.sink, ctx);
    let start = Instant::now();
    let mut outcome = dispatch(state, &req.endpoint, &req.payload, &start, &rec);
    let elapsed = start.elapsed();
    // Deadline enforcement: a result that arrives too late is discarded
    // (its side effects — cache fills — stand) and replaced with an
    // explicit error, so slow handling is visible instead of ambiguous.
    let mut deadline_hit = false;
    if outcome.is_ok() && elapsed > state.limits.request_deadline {
        deadline_hit = true;
        state.sink.count("serve.deadline_expired", 1);
        outcome = Err(format!(
            "deadline exceeded: handled in {}ms, {}ms allowed; result discarded",
            elapsed.as_millis(),
            state.limits.request_deadline.as_millis()
        ));
    }
    let elapsed_us = elapsed.as_micros() as u64;
    endpoint.record(elapsed_us, outcome.is_ok());
    if let Some(tracker) = state.slo_tracker(name) {
        tracker.record(elapsed_us, outcome.is_ok());
    }
    let request_outcome = if deadline_hit {
        RequestOutcome::DeadlineExpired
    } else if outcome.is_err() {
        RequestOutcome::Error
    } else if rec.counter_total("serve.store_error") > 0 {
        // The reply succeeded, but persistence failed along the way: the
        // request ran degraded and its trace explains what happened.
        RequestOutcome::Degraded
    } else {
        RequestOutcome::Ok
    };
    state.slowlog.offer(rec.finish(elapsed_us, request_outcome));
    match outcome {
        Ok(payload) => Response::success(req.id, payload),
        Err(e) => Response::failure(req.id, e),
    }
}

fn dispatch(
    state: &ServerState,
    endpoint: &str,
    payload: &Value,
    start: &Instant,
    obs: &RequestRecorder<'_>,
) -> Result<Value, String> {
    match endpoint {
        "estimate" => do_estimate(state, parse(payload)?, start, obs).map(|r| r.to_value()),
        "preimpl" => do_preimpl(state, parse(payload)?, start, obs).map(|r| r.to_value()),
        "flow" => do_flow(state, parse(payload)?, start, obs).map(|r| r.to_value()),
        "stats" => Ok(do_stats(state).to_value()),
        "metrics" => Ok(MetricsResponse {
            text: prometheus_text(state),
        }
        .to_value()),
        "shutdown" => do_shutdown(state, start).map(|r| r.to_value()),
        "slowlog" => do_slowlog(state, payload, start).map(|r| r.to_value()),
        _ => unreachable!("checked by handle_request"),
    }
}

fn parse<T: Deserialize>(v: &Value) -> Result<T, String> {
    T::from_value(v).map_err(|e| format!("bad payload: {e}"))
}

fn device_by_name(name: &str) -> Result<Device, String> {
    DeviceName::parse(name)
        .map(Device::from_name)
        .ok_or_else(|| format!("unknown device '{name}'"))
}

/// The per-request flow configuration: constant CF when given, minimal-CF
/// search otherwise. The stitcher runs its fast schedule — this is an
/// interactive service, not the benchmark harness — seeded with the
/// request's seed, so replies stay a pure function of the request.
/// Pipeline telemetry lands in `obs` (the server passes its shared sink).
/// A non-finite CF (JSON's `1e999` parses to infinity) is an error.
fn flow_config<'a>(
    cf: Option<f64>,
    seed: u64,
    mem_pack: tms_flow::MemPackConfig,
    obs: &'a dyn Recorder,
) -> Result<RwFlowConfig<'a>, String> {
    if let Some(cf) = cf.filter(|cf| !cf.is_finite()) {
        return Err(format!("cf must be a finite number, got {cf}"));
    }
    Ok(RwFlowConfig {
        policy: match cf {
            Some(cf) => CfPolicy::Constant(cf),
            None => CfPolicy::Minimal(CfSearch::wide()),
        },
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig::fast(seed),
        portfolio: None,
        mem_pack,
        seed,
        obs,
    })
}

/// Parse a request's `mem_pack` field into a packing configuration: the
/// policy names are the wire contract (`off` / `naive` / `packed`), and
/// the request's seed seeds the regenerated netlists, so replies stay a
/// pure function of the request.
fn mem_pack_config(mem_pack: Option<&str>, seed: u64) -> Result<tms_flow::MemPackConfig, String> {
    match mem_pack {
        None => Ok(tms_flow::MemPackConfig::off()),
        Some(s) => match tms_flow::MemPackPolicy::parse(s) {
            Some(policy) => Ok(tms_flow::MemPackConfig::new(policy, seed)),
            None => Err(format!(
                "unknown mem_pack policy '{s}' (expected off|naive|packed)"
            )),
        },
    }
}

/// Demote the server to memory-only caching once the store-put failure
/// streak reaches the configured threshold: the cache's live entries are
/// carried over, the store `Arc` is dropped (its final flush is
/// best-effort), and the degraded flag turns on in `stats`/`/metrics` —
/// the one record of the degrade, which happens at most once.
/// Serving continues uninterrupted — only persistence is lost.
fn maybe_degrade(state: &ServerState) {
    let threshold = state.limits.degrade_after;
    if threshold == 0 || state.degraded.load(Ordering::SeqCst) {
        return;
    }
    if state.cache.read().store_fail_streak() < threshold {
        return;
    }
    let mut cache = state.cache.write();
    // Re-check under the write lock: another worker may have raced here,
    // or a put may have succeeded and reset the streak.
    if cache.store().is_none() || cache.store_fail_streak() < threshold {
        return;
    }
    let carried = cache.degrade_to_memory();
    drop(cache);
    state.degraded.store(true, Ordering::SeqCst);
    state.sink.count("serve.degraded.carried", carried as u64);
}

fn do_estimate(
    state: &ServerState,
    req: EstimateRequest,
    start: &Instant,
    obs: &RequestRecorder<'_>,
) -> Result<EstimateResponse, String> {
    let stats = match (req.stats, req.spec) {
        (Some(stats), _) => stats,
        (None, Some(spec)) => {
            tms_cnn::synth_module(spec.role, spec.target_slices, &spec.name, spec.seed).stats()
        }
        (None, None) => return Err("estimate needs either 'stats' or 'spec'".to_string()),
    };
    let _estimate_span = span(obs, Phase::Estimate, "serve");
    let cf = state.estimator.predict_cf(&stats, state.features);
    Ok(EstimateResponse {
        cf,
        estimator: state.estimator.kind().label().to_string(),
        features: state.features.label().to_string(),
        micros: start.elapsed().as_micros() as u64,
    })
}

fn do_preimpl(
    state: &ServerState,
    req: PreimplRequest,
    start: &Instant,
    obs: &RequestRecorder<'_>,
) -> Result<PreimplResponse, String> {
    let device = device_by_name(&req.device)?;
    let cfg = flow_config(req.cf, req.spec.seed, tms_flow::MemPackConfig::off(), obs)?;
    let memo_key = (req.spec, device.name());
    let spec = &memo_key.0;
    let synth = || tms_cnn::synth_module(spec.role, spec.target_slices, &spec.name, spec.seed);
    // The spec's key comes from the memo; only an unseen spec is
    // synthesised here, and only a cache miss below needs the netlist.
    let mut netlist = None;
    let key = match state.specs.get(&memo_key) {
        Some(key) => {
            obs.count("serve.spec_memo.hit", 1);
            key
        }
        None => {
            obs.count("serve.spec_memo.miss", 1);
            let fresh = synth();
            let key = ModuleFingerprint::of(&fresh, &device);
            netlist = Some(fresh);
            state.specs.insert(memo_key.clone(), key)
        }
    };
    // A cached flow of one module, without the stitch. The hit is
    // read-verified; a corrupt record is quarantined and recomputed
    // exactly like a miss.
    let mut lookup = state
        .cache
        .read()
        .lookup(vec![(*key).clone()], &device, obs);
    let cached = lookup.is_complete();
    if !cached {
        let netlist = netlist.unwrap_or_else(synth);
        lookup.implement(|_| (spec.name.as_str(), &netlist), &device, &cfg);
        fill(state, &lookup, obs);
    }
    let (_, module) = lookup.into_outcomes().pop().expect("one key, one outcome");
    let module = module?;
    Ok(PreimplResponse {
        name: module.name,
        cf: module.cf,
        pblock_w: module.pblock.rect.w,
        pblock_h: module.pblock.rect.h,
        used_slices: module.placement.used_slices,
        attempts: module.attempts,
        first_try: module.first_try,
        cached,
        micros: start.elapsed().as_micros() as u64,
    })
}

/// Answer a `flow` request in the four steps of every cached flow. The
/// keys of an unpacked request come from the design memo, or else from the
/// generated design, fingerprinted in parallel and memoised; a packed
/// request takes its keys from the packing phase and leaves the memo
/// alone. The lookup runs under the read lock, the design is generated only
/// if a module must be implemented, and the implementation and the stitch
/// run with no lock held.
fn do_flow(
    state: &ServerState,
    req: FlowRequest,
    start: &Instant,
    obs: &RequestRecorder<'_>,
) -> Result<FlowResponse, String> {
    let device = device_by_name(&req.device)?;
    let seed = req.design_seed;
    let mem_pack = mem_pack_config(req.mem_pack.as_deref(), seed)?;
    let cfg = flow_config(req.cf, seed, mem_pack, obs)?;
    let mut design = None;
    let memoised = (cfg.mem_pack.policy == MemPackPolicy::Off).then(|| {
        let memo_key = (seed, device.name());
        let entry = state.designs.get(&memo_key);
        let counter = match entry {
            Some(_) => "serve.design_memo.hit",
            None => "serve.design_memo.miss",
        };
        obs.count(counter, 1);
        entry.unwrap_or_else(|| {
            let generated = design.insert(cnvw1a1(seed));
            state
                .designs
                .insert(memo_key, DesignKeys::of(generated, &device))
        })
    });
    let mut lookup = match &memoised {
        Some(entry) => state
            .cache
            .read()
            .lookup(entry.keys().to_vec(), &device, obs),
        None => {
            let generated = design.insert(cnvw1a1(seed));
            state.cache.read().lookup_design(generated, &device, &cfg)
        }
    };
    if !lookup.is_complete() {
        let design = design.get_or_insert_with(|| cnvw1a1(seed));
        lookup.implement(|idx| module_of(design, idx), &device, &cfg);
        fill(state, &lookup, obs);
    }
    let r = match memoised {
        Some(entry) => lookup.stitch(&*entry, &device, &cfg),
        None => lookup.stitch(&design.expect("generated for the lookup"), &device, &cfg),
    };
    Ok(FlowResponse {
        implemented: r.result.implemented.len(),
        failed: r.result.failed.len(),
        placed_count: r.result.stitch.placed_count,
        unplaced_count: r.result.stitch.unplaced_count,
        reused: r.reused,
        fresh: r.fresh,
        tool_runs_spent: r.tool_runs_spent,
        total_tool_runs: r.result.total_tool_runs,
        pack_bram36_saved: r.result.pack.as_ref().map(|p| p.bram36_saved),
        pack_feasible: r.result.pack.as_ref().map(|p| p.feasible),
        micros: start.elapsed().as_micros() as u64,
    })
}

/// Module `idx` of `design`: the design's name, which seeds the placer,
/// and its netlist.
fn module_of(design: &CnvDesign, idx: usize) -> (&str, &Netlist) {
    (&design.modules[idx].name, &design.modules[idx].netlist)
}

/// Step 3 of a cached request: insert what `lookup` implemented, holding
/// the write lock for the inserts alone, under a `store` span on the
/// request's trace. The fill returns the failed puts that were its own, so
/// they are booked as `serve.store_error` on this request and no other;
/// the implementations are still served, and the failures feed the
/// degrade decision.
fn fill(state: &ServerState, lookup: &CacheLookup, obs: &RequestRecorder<'_>) {
    let failed = {
        let _store_span = span(obs, Phase::Store, "fill");
        state.cache.write().fill(lookup)
    };
    if failed > 0 {
        obs.count("serve.store_error", failed);
    }
    maybe_degrade(state);
}

/// Gracefully stop the server from the wire: make the persistent library
/// durable *first* (so the acknowledgement implies durability), then raise
/// the shutdown flag. Workers drain after answering; the thread holding
/// the [`ServerHandle`] (e.g. [`ServerHandle::serve_forever`]) observes
/// the flag, joins everything and runs the final checkpoint.
fn do_shutdown(state: &ServerState, start: &Instant) -> Result<ShutdownResponse, String> {
    if let Some(store) = state.store() {
        store
            .flush()
            .map_err(|e| format!("store flush failed: {e}"))?;
    }
    state.shutdown.store(true, Ordering::SeqCst);
    Ok(ShutdownResponse {
        stopping: true,
        store: state.cache.read().store_stats(),
        micros: start.elapsed().as_micros() as u64,
    })
}

/// Answer a `slowlog` request: snapshot the tail-sampled ring (newest
/// first) together with its retention counters. A `null` payload means
/// "everything retained"; otherwise the payload's `limit` bounds the
/// entry count (`0` = all).
fn do_slowlog(
    state: &ServerState,
    payload: &Value,
    start: &Instant,
) -> Result<SlowlogReport, String> {
    let limit = match payload {
        Value::Null => 0,
        v => parse::<SlowlogRequest>(v)?.limit,
    };
    Ok(SlowlogReport {
        threshold_us: state.slowlog.threshold_us(),
        capacity: state.slowlog.capacity() as u64,
        considered: state.slowlog.considered(),
        retained: state.slowlog.retained(),
        evicted: state.slowlog.evicted(),
        entries: state.slowlog.snapshot(limit as usize),
        micros: start.elapsed().as_micros() as u64,
    })
}

/// The per-endpoint SLO reports for `stats`: each configured objective
/// with its current multi-window burn rates.
fn slo_reports(state: &ServerState) -> Vec<SloReport> {
    state
        .slo
        .iter()
        .map(|t| {
            let spec = t.spec();
            SloReport {
                endpoint: spec.endpoint.to_string(),
                availability: spec.availability,
                latency_target_us: spec.latency_target_us,
                latency_goal: spec.latency_goal,
                windows: t.burn_rates(),
            }
        })
        .collect()
}

fn do_stats(state: &ServerState) -> StatsReport {
    let cache = state.cache.read();
    StatsReport {
        uptime_micros: state.started.elapsed().as_micros() as u64,
        estimate: state.metrics.estimate.snapshot(),
        preimpl: state.metrics.preimpl.snapshot(),
        flow: state.metrics.flow.snapshot(),
        stats: state.metrics.stats.snapshot(),
        metrics: state.metrics.metrics.snapshot(),
        shutdown: state.metrics.shutdown.snapshot(),
        slowlog: state.metrics.slowlog.snapshot(),
        slo: slo_reports(state),
        cache: CacheStats {
            len: cache.len(),
            capacity: cache.capacity(),
            hits: cache.hits(),
            misses: cache.misses(),
        },
        store: cache.store_stats(),
        robustness: state.robustness_report(),
        integrity: state.integrity_report(&cache),
        memo: state.memo_report(),
        pipeline: state.sink.snapshot(),
    }
}

/// Render the whole server state as one Prometheus text page: the request
/// metrics of every endpoint, the cache, store and integrity counters, the
/// degraded flag, and the pipeline-phase telemetry of the shared sink,
/// whose `serve.*` counters are the server's event counts. Every count
/// shows once, under one family.
fn prometheus_text(state: &ServerState) -> String {
    let mut page = PromText::new();
    page.header(
        "tms_build_info",
        "Build metadata; the version label carries the crate version",
        "gauge",
    );
    page.sample(
        "tms_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1.0,
    );
    page.header("tms_uptime_seconds", "Seconds since server start", "gauge");
    page.sample(
        "tms_uptime_seconds",
        &[],
        state.started.elapsed().as_secs_f64(),
    );
    page.header("tms_requests_total", "Requests handled", "counter");
    for (name, m) in state.metrics.endpoints() {
        page.sample(
            "tms_requests_total",
            &[("endpoint", name)],
            m.snapshot().requests as f64,
        );
    }
    page.header(
        "tms_request_errors_total",
        "Requests answered with an error",
        "counter",
    );
    for (name, m) in state.metrics.endpoints() {
        page.sample(
            "tms_request_errors_total",
            &[("endpoint", name)],
            m.snapshot().errors as f64,
        );
    }
    page.header(
        "tms_request_latency_us",
        "Request handling latency, microseconds",
        "histogram",
    );
    for (name, m) in state.metrics.endpoints() {
        let snap = m.snapshot();
        page.histogram(
            "tms_request_latency_us",
            &[("endpoint", name)],
            &snap.bucket_bounds_us,
            &snap.buckets,
            snap.total_micros,
        );
    }
    {
        let cache = state.cache.read();
        page.header("tms_cache_len", "Implementations cached", "gauge");
        page.sample("tms_cache_len", &[], cache.len() as f64);
        page.header("tms_cache_capacity", "Cache eviction bound", "gauge");
        page.sample("tms_cache_capacity", &[], cache.capacity() as f64);
        page.header("tms_cache_hits_total", "Cache lookup hits", "counter");
        page.sample("tms_cache_hits_total", &[], cache.hits() as f64);
        page.header("tms_cache_misses_total", "Cache lookup misses", "counter");
        page.sample("tms_cache_misses_total", &[], cache.misses() as f64);
        if let Some(store) = cache.store_stats() {
            store_prometheus(&mut page, &store);
        }
        integrity_prometheus(&mut page, &state.integrity_report(&cache));
    }
    robust_prometheus(&mut page, state);
    memo_prometheus(&mut page, &state.memo_report());
    slo_prometheus(&mut page, state);
    slowlog_prometheus(&mut page, state);
    page.obs_snapshot(&state.sink.snapshot());
    page.finish()
}

/// The request memos' gauges; their hit and miss counters come with the
/// pipeline telemetry (`tms_serve_design_memo_hit_total`, ...).
fn memo_prometheus(page: &mut PromText, r: &MemoReport) {
    page.header(
        "tms_memo_entries",
        "Entries held by each request memo",
        "gauge",
    );
    page.sample(
        "tms_memo_entries",
        &[("memo", "design")],
        r.design_entries as f64,
    );
    page.sample(
        "tms_memo_entries",
        &[("memo", "spec")],
        r.spec_entries as f64,
    );
    page.header(
        "tms_memo_capacity",
        "Entry bound of each request memo; a full memo is cleared",
        "gauge",
    );
    page.sample("tms_memo_capacity", &[], r.capacity as f64);
}

/// The SLO burn-rate gauge family: one sample per (endpoint, window,
/// objective). A burn rate of 1.0 consumes the error budget exactly at
/// the sustainable pace; above it the budget drains early.
fn slo_prometheus(page: &mut PromText, state: &ServerState) {
    page.header(
        "tms_slo_burn_rate",
        "Error-budget burn rate per endpoint, window, and objective",
        "gauge",
    );
    for tracker in &state.slo {
        let endpoint = tracker.spec().endpoint;
        for w in tracker.burn_rates() {
            page.sample(
                "tms_slo_burn_rate",
                &[
                    ("endpoint", endpoint),
                    ("window", &w.window),
                    ("slo", "availability"),
                ],
                w.availability_burn,
            );
            page.sample(
                "tms_slo_burn_rate",
                &[
                    ("endpoint", endpoint),
                    ("window", &w.window),
                    ("slo", "latency"),
                ],
                w.latency_burn,
            );
        }
    }
}

/// The tail-sampling slowlog's retention counters and gauges.
fn slowlog_prometheus(page: &mut PromText, state: &ServerState) {
    let counters: [(&str, &str, u64); 3] = [
        (
            "tms_slowlog_considered_total",
            "Finished requests offered to the tail sampler",
            state.slowlog.considered(),
        ),
        (
            "tms_slowlog_retained_total",
            "Requests whose full span tree was retained",
            state.slowlog.retained(),
        ),
        (
            "tms_slowlog_evicted_total",
            "Retained entries evicted by the ring bound",
            state.slowlog.evicted(),
        ),
    ];
    for (name, help, value) in counters {
        page.header(name, help, "counter");
        page.sample(name, &[], value as f64);
    }
    page.header("tms_slowlog_len", "Entries currently retained", "gauge");
    page.sample("tms_slowlog_len", &[], state.slowlog.len() as f64);
    page.header(
        "tms_slowlog_threshold_us",
        "Latency above which a healthy request is retained",
        "gauge",
    );
    page.sample(
        "tms_slowlog_threshold_us",
        &[],
        state.slowlog.threshold_us() as f64,
    );
}

/// The robustness family on the Prometheus page that the sink does not
/// carry: the degraded flag and the fault plan's injections. The shed,
/// deadline, oversized, malformed and failed-put counts are the sink's
/// `tms_serve_*_total` families.
fn robust_prometheus(page: &mut PromText, state: &ServerState) {
    let r = state.robustness_report();
    page.header(
        "tms_degraded",
        "1 when the server fell back to memory-only caching",
        "gauge",
    );
    page.sample("tms_degraded", &[], if r.degraded { 1.0 } else { 0.0 });
    page.header(
        "tms_faults_injected_total",
        "Faults injected by the armed fault plan, all points",
        "counter",
    );
    page.sample("tms_faults_injected_total", &[], r.faults_injected as f64);
}

/// The integrity gauge/counter family on the Prometheus page: what the
/// verified read path caught (each failure quarantines its entry), what
/// the pre-insert audit refused, and what the last scrub pass covered.
/// Scrub passes are the sink's `tms_serve_scrub_pass_total`.
fn integrity_prometheus(page: &mut PromText, r: &IntegrityReport) {
    let counters: [(&str, &str, u64); 2] = [
        (
            "tms_verify_failures_total",
            "Verified cache reads that failed, quarantined their entry, and were healed by recompute",
            r.verify_failures,
        ),
        (
            "tms_verify_insert_rejected_total",
            "Inserts rejected by the pre-insert legality audit",
            r.insert_rejected,
        ),
    ];
    for (name, help, value) in counters {
        page.header(name, help, "counter");
        page.sample(name, &[], value as f64);
    }
    if let Some(scrub) = &r.last_scrub {
        let gauges: [(&str, &str, f64); 3] = [
            (
                "tms_scrub_last_entries",
                "Entries audited by the most recent scrub pass",
                scrub.entries as f64,
            ),
            (
                "tms_scrub_last_quarantined",
                "Entries quarantined by the most recent scrub pass",
                scrub.quarantined as f64,
            ),
            (
                "tms_scrub_last_bytes",
                "Payload bytes covered by the most recent scrub pass",
                scrub.bytes as f64,
            ),
        ];
        for (name, help, value) in gauges {
            page.header(name, help, "gauge");
            page.sample(name, &[], value);
        }
    }
}

/// The persistent store's gauge/counter family on the Prometheus page.
fn store_prometheus(page: &mut PromText, s: &tms_store::StoreSnapshot) {
    let gauges: [(&str, &str, f64); 4] = [
        ("tms_store_entries", "Live store entries", s.entries as f64),
        (
            "tms_store_bytes",
            "Payload bytes of live entries",
            s.bytes as f64,
        ),
        (
            "tms_store_byte_budget",
            "LRU eviction bound in bytes",
            s.byte_budget as f64,
        ),
        (
            "tms_store_wal_bytes",
            "Log bytes that count toward the next compaction",
            s.wal_bytes as f64,
        ),
    ];
    for (name, help, value) in gauges {
        page.header(name, help, "gauge");
        page.sample(name, &[], value);
    }
    let counters: [(&str, &str, u64); 7] = [
        (
            "tms_store_quarantined_total",
            "Store entries or log regions quarantined",
            s.quarantined,
        ),
        (
            "tms_store_scrubbed_total",
            "Store entries audited by scrub passes",
            s.scrubbed,
        ),
        (
            "tms_store_evicted_total",
            "Entries evicted by the byte budget",
            s.evicted,
        ),
        (
            "tms_store_recovered_total",
            "Log records applied at open",
            s.recovered,
        ),
        (
            "tms_store_appended_total",
            "Put records appended to the log",
            s.appended,
        ),
        (
            "tms_store_compactions_total",
            "Log compactions performed",
            s.compactions,
        ),
        (
            "tms_store_io_errors_total",
            "Store append/decode failures",
            s.io_errors,
        ),
    ];
    for (name, help, value) in counters {
        page.header(name, help, "counter");
        page.sample(name, &[], value as f64);
    }
}
