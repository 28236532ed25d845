//! Request-scoped tracing and the tail-sampling slowlog.
//!
//! Aggregate metrics say *how fast the server is*; they cannot explain
//! *why one request was slow*. This module closes that gap:
//!
//! * [`RequestCtx`] — a per-request trace context: a non-zero trace id
//!   plus the latency budget of each phase (derived from the request
//!   deadline);
//! * [`RequestRecorder`] — a [`Recorder`] the serving layer threads
//!   through the flow (via `RwFlowConfig.obs`), so every span, counter
//!   and observation the pipeline records while working on a request is
//!   tagged with the owning request's trace id, forwarded to the shared
//!   process-wide sink, *and* buffered as the request's own span tree;
//! * [`Slowlog`] — a tail-sampling ring buffer that retains the full
//!   span tree only for requests worth explaining: slower than its
//!   threshold, errored, shed, degraded, or past their deadline. The
//!   keep/drop decision and the fast path for healthy requests touch only
//!   atomics; the ring lock is taken only when a tree is actually
//!   retained.

use crate::phase::Phase;
use crate::record::{Recorder, SpanRecord, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a request ended, from the slowlog's point of view. Anything but
/// [`RequestOutcome::Ok`] is tail-sampled regardless of latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RequestOutcome {
    /// Handled successfully within its deadline.
    Ok,
    /// Answered with an error reply.
    Error,
    /// Refused at the accept queue (load shedding).
    Shed,
    /// Handled, but a dependency degraded while serving it (e.g. the
    /// persistent store demoted to memory-only mode).
    Degraded,
    /// The handler finished after the request deadline had expired.
    DeadlineExpired,
}

impl RequestOutcome {
    /// Stable lower-case label (`ok`, `error`, `shed`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Error => "error",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Degraded => "degraded",
            RequestOutcome::DeadlineExpired => "deadline_expired",
        }
    }

    /// Whether the request was healthy (only [`RequestOutcome::Ok`] is).
    pub fn is_ok(&self) -> bool {
        matches!(self, RequestOutcome::Ok)
    }
}

/// A request's trace context: minted in the serve acceptor, carried
/// through the worker pool, and stamped onto every [`TraceEvent`] the
/// pipeline emits while working on the request.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The request's trace id. Non-zero; `0` is reserved for untraced
    /// background work.
    pub trace_id: u64,
    /// The endpoint serving the request (`estimate`, `flow`, ...).
    pub endpoint: &'static str,
    /// The latency budget of every phase, microseconds (`0` =
    /// unbudgeted): no single phase may eat the whole deadline. A phase
    /// whose spans sum past it is flagged in
    /// [`SlowlogEntry::over_budget_phases`], pointing straight at the
    /// stage that spent the deadline.
    pub phase_budget_us: u64,
}

impl RequestCtx {
    /// A context whose every phase is budgeted at `budget_us`.
    pub fn with_uniform_budget(
        trace_id: u64,
        endpoint: &'static str,
        budget_us: u64,
    ) -> RequestCtx {
        RequestCtx {
            trace_id,
            endpoint,
            phase_budget_us: budget_us,
        }
    }
}

/// A monotonically increasing trace-id source. Ids start at 1, so `0`
/// stays free to mean "untraced".
#[derive(Debug)]
pub struct TraceIdGen(AtomicU64);

impl Default for TraceIdGen {
    fn default() -> TraceIdGen {
        TraceIdGen::new()
    }
}

impl TraceIdGen {
    /// A generator whose first id is 1.
    pub fn new() -> TraceIdGen {
        TraceIdGen(AtomicU64::new(1))
    }

    /// Mint the next trace id.
    pub fn mint(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// The recorder a request hands to the pipeline: tags every event with
/// the request's trace id, forwards the tagged event to the shared
/// process-wide sink (so aggregate metrics still see everything), and
/// buffers the events as the request's own span tree for the slowlog.
///
/// Thread-safe: `flow` records from rayon workers, so the buffer sits
/// behind a mutex and per-phase time in atomics.
pub struct RequestRecorder<'a> {
    inner: &'a dyn Recorder,
    ctx: RequestCtx,
    events: Mutex<Vec<TraceEvent>>,
    phase_us: [AtomicU64; Phase::ALL.len()],
}

impl<'a> RequestRecorder<'a> {
    /// Wrap the shared sink for one request.
    pub fn new(inner: &'a dyn Recorder, ctx: RequestCtx) -> RequestRecorder<'a> {
        RequestRecorder {
            inner,
            ctx,
            events: Mutex::new(Vec::new()),
            phase_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The request's trace context.
    pub fn ctx(&self) -> &RequestCtx {
        &self.ctx
    }

    /// Total span time recorded under `phase` so far (µs).
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_us[phase.index()].load(Ordering::Relaxed)
    }

    /// Total recorded under a counter key within this request — lets the
    /// serving layer classify a request (e.g. "did a store write fail
    /// while serving it?") from its own trace instead of racy globals.
    pub fn counter_total(&self, key: &str) -> u64 {
        self.events
            .lock()
            .expect("request trace poisoned")
            .iter()
            .map(|e| match e {
                TraceEvent::Count { key: k, delta, .. } if k == key => *delta,
                _ => 0,
            })
            .sum()
    }

    /// Close the request: produce the slowlog entry holding its full
    /// span tree, wall latency, outcome, and any phases that blew their
    /// budget.
    pub fn finish(self, latency_us: u64, outcome: RequestOutcome) -> SlowlogEntry {
        let budget = self.ctx.phase_budget_us;
        let over_budget_phases = Phase::ALL
            .iter()
            .copied()
            .filter(|&p| budget > 0 && self.phase_us(p) > budget)
            .collect();
        SlowlogEntry {
            trace_id: self.ctx.trace_id,
            endpoint: self.ctx.endpoint.to_string(),
            latency_us,
            outcome,
            over_budget_phases,
            events: self.events.into_inner().expect("request trace poisoned"),
        }
    }
}

impl Recorder for RequestRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, span: &SpanRecord) {
        let mut tagged = span.clone();
        tagged.trace_id = self.ctx.trace_id;
        self.phase_us[span.phase.index()].fetch_add(span.duration_us, Ordering::Relaxed);
        self.inner.record_span(&tagged);
        self.events
            .lock()
            .expect("request trace poisoned")
            .push(TraceEvent::Span(tagged));
    }

    fn count(&self, key: &str, delta: u64) {
        self.inner.count(key, delta);
        self.events
            .lock()
            .expect("request trace poisoned")
            .push(TraceEvent::Count {
                trace_id: self.ctx.trace_id,
                key: key.to_string(),
                delta,
            });
    }

    fn observe(&self, key: &str, value: f64) {
        self.inner.observe(key, value);
        self.events
            .lock()
            .expect("request trace poisoned")
            .push(TraceEvent::Observe {
                trace_id: self.ctx.trace_id,
                key: key.to_string(),
                value,
            });
    }
}

/// One retained request: identity, latency, outcome, budget verdict and
/// the full span tree. What the `slowlog` endpoint ships.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SlowlogEntry {
    /// The request's trace id.
    pub trace_id: u64,
    /// The endpoint that served it.
    pub endpoint: String,
    /// Wall latency of the request, microseconds.
    pub latency_us: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Phases whose span time exceeded the request's budget.
    pub over_budget_phases: Vec<Phase>,
    /// Every trace event recorded while serving the request.
    pub events: Vec<TraceEvent>,
}

impl SlowlogEntry {
    /// Spans in the retained tree (events that are spans).
    pub fn span_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span(_)))
            .count()
    }
}

/// The tail-sampling slowlog: a bounded ring of [`SlowlogEntry`] values
/// retaining only requests that were slow (`latency >= threshold`),
/// errored, shed, degraded, or deadline-expired. Healthy fast requests
/// cost one atomic increment; the ring mutex is taken only on retain
/// and on snapshot.
#[derive(Debug)]
pub struct Slowlog {
    capacity: usize,
    threshold_us: u64,
    considered: AtomicU64,
    retained: AtomicU64,
    evicted: AtomicU64,
    ring: Mutex<VecDeque<SlowlogEntry>>,
}

impl Slowlog {
    /// A slowlog keeping at most `capacity` entries, retaining requests
    /// at or above `threshold_us` (or with a non-ok outcome).
    pub fn new(capacity: usize, threshold_us: u64) -> Slowlog {
        Slowlog {
            capacity: capacity.max(1),
            threshold_us,
            considered: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The slow threshold (µs).
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a request with this latency and outcome is retained.
    fn wants(&self, latency_us: u64, outcome: RequestOutcome) -> bool {
        !outcome.is_ok() || latency_us >= self.threshold_us
    }

    /// Offer a finished request. Retains it if it was slow or did not end
    /// [`RequestOutcome::Ok`]; evicts the oldest entry when full.
    pub fn offer(&self, entry: SlowlogEntry) {
        self.considered.fetch_add(1, Ordering::Relaxed);
        if !self.wants(entry.latency_us, entry.outcome) {
            return;
        }
        self.retained.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("slowlog poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    /// Requests offered so far (retained or not).
    pub fn considered(&self) -> u64 {
        self.considered.load(Ordering::Relaxed)
    }

    /// Requests retained so far (including since-evicted ones).
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Retained entries evicted to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Currently retained entries.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("slowlog poisoned").len()
    }

    /// Whether nothing is currently retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent `limit` entries, newest first (`0` = all).
    pub fn snapshot(&self, limit: usize) -> Vec<SlowlogEntry> {
        let ring = self.ring.lock().expect("slowlog poisoned");
        let take = if limit == 0 { ring.len() } else { limit };
        ring.iter().rev().take(take).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{noop, span};
    use crate::sinks::AggregatingSink;

    fn entry(trace_id: u64, latency_us: u64, outcome: RequestOutcome) -> SlowlogEntry {
        SlowlogEntry {
            trace_id,
            endpoint: "estimate".into(),
            latency_us,
            outcome,
            over_budget_phases: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn request_recorder_tags_and_buffers_every_event() {
        let sink = AggregatingSink::new();
        let rec = RequestRecorder::new(&sink, RequestCtx::with_uniform_budget(7, "flow", 0));
        {
            let mut s = span(&rec, Phase::Place, "m0");
            s.field("cf", 1.5);
        }
        rec.count("cache.hit", 2);
        rec.observe("flow.cf.placed", 1.2);
        // Forwarded to the shared sink...
        assert_eq!(sink.phase_spans(Phase::Place), 1);
        assert_eq!(sink.counter("cache.hit"), 2);
        // ...and buffered with the trace id stamped on every event.
        let entry = rec.finish(100, RequestOutcome::Ok);
        assert_eq!(entry.trace_id, 7);
        assert_eq!(entry.events.len(), 3);
        assert!(entry.events.iter().all(|e| e.trace_id() == 7));
        assert_eq!(entry.span_count(), 1);
    }

    #[test]
    fn over_budget_phases_are_flagged() {
        // Every phase may spend 60 µs: two place spans sum past it, one
        // route span stays within it.
        let rec = RequestRecorder::new(noop(), RequestCtx::with_uniform_budget(3, "flow", 60));
        for (phase, start_us) in [(Phase::Place, 0), (Phase::Place, 50), (Phase::Route, 100)] {
            rec.record_span(&SpanRecord {
                trace_id: 0,
                phase,
                name: "m0".into(),
                start_us,
                duration_us: 50,
                fields: Vec::new(),
            });
        }
        let entry = rec.finish(150, RequestOutcome::Ok);
        assert_eq!(entry.over_budget_phases, vec![Phase::Place]);
        // A zero budget flags nothing.
        let rec = RequestRecorder::new(noop(), RequestCtx::with_uniform_budget(4, "flow", 0));
        rec.record_span(&SpanRecord {
            trace_id: 0,
            phase: Phase::Place,
            name: "m0".into(),
            start_us: 0,
            duration_us: 50,
            fields: Vec::new(),
        });
        assert!(rec
            .finish(50, RequestOutcome::Ok)
            .over_budget_phases
            .is_empty());
    }

    #[test]
    fn slowlog_retains_exactly_slow_or_unhealthy_requests() {
        let log = Slowlog::new(16, 1_000);
        log.offer(entry(1, 10, RequestOutcome::Ok)); // fast + ok: dropped
        log.offer(entry(2, 5_000, RequestOutcome::Ok)); // slow: kept
        log.offer(entry(3, 10, RequestOutcome::Error)); // errored: kept
        log.offer(entry(4, 10, RequestOutcome::Shed)); // shed: kept
        log.offer(entry(5, 10, RequestOutcome::Degraded)); // degraded: kept
        log.offer(entry(6, 1_000, RequestOutcome::Ok)); // exactly at threshold: kept
        log.offer(entry(7, 0, RequestOutcome::DeadlineExpired)); // expired: kept
        assert_eq!(log.considered(), 7);
        assert_eq!(log.retained(), 6);
        assert_eq!(log.len(), 6);
        let ids: Vec<u64> = log.snapshot(0).iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![7, 6, 5, 4, 3, 2], "newest first, trace 1 dropped");
    }

    #[test]
    fn slowlog_ring_evicts_oldest_and_limit_caps_snapshot() {
        let log = Slowlog::new(3, 0); // threshold 0: retain everything
        for id in 1..=5 {
            log.offer(entry(id, 10, RequestOutcome::Ok));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let ids: Vec<u64> = log.snapshot(0).iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![5, 4, 3]);
        assert_eq!(log.snapshot(2).len(), 2);
    }

    #[test]
    fn trace_ids_start_at_one_and_increase() {
        let gen = TraceIdGen::new();
        assert_eq!(gen.mint(), 1);
        assert_eq!(gen.mint(), 2);
    }

    #[test]
    fn slowlog_entry_serde_round_trip() {
        let mut e = entry(9, 2_000, RequestOutcome::DeadlineExpired);
        e.over_budget_phases = vec![Phase::Place, Phase::Stitch];
        e.events = vec![TraceEvent::Count {
            trace_id: 9,
            key: "cache.miss".into(),
            delta: 1,
        }];
        let json = serde_json::to_string(&e).unwrap();
        let back: SlowlogEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
