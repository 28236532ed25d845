//! Concrete recorders: the JSONL file sink and the in-memory aggregator.

use crate::phase::Phase;
use crate::record::{Recorder, SpanRecord, TraceEvent};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A recorder writing one JSON document per line — the experiment-run
/// trace format consumed by `tms report` and [`read_trace`].
pub struct JsonlSink {
    out: Mutex<BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Create (truncate) a trace file at `path`.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("jsonl sink poisoned").flush()
    }

    fn write_event(&self, event: &TraceEvent) {
        if let Ok(mut line) = serde_json::to_string(event) {
            line.push('\n');
            let mut out = self.out.lock().expect("jsonl sink poisoned");
            let _ = out.write_all(line.as_bytes());
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl Recorder for JsonlSink {
    fn record_span(&self, span: &SpanRecord) {
        self.write_event(&TraceEvent::Span(span.clone()));
    }

    fn count(&self, key: &str, delta: u64) {
        self.write_event(&TraceEvent::Count {
            trace_id: 0,
            key: key.to_string(),
            delta,
        });
    }

    fn observe(&self, key: &str, value: f64) {
        self.write_event(&TraceEvent::Observe {
            trace_id: 0,
            key: key.to_string(),
            value,
        });
    }
}

/// Parse a JSONL trace written by [`JsonlSink`]. Blank lines are skipped;
/// a malformed line is an error (traces are machine-written).
pub fn read_trace(path: &Path) -> io::Result<Vec<TraceEvent>> {
    let file = std::fs::File::open(path)?;
    let mut events = Vec::new();
    for (n, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: {e}", n + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Feed a parsed trace back into a recorder — e.g. rebuild an
/// [`AggregatingSink`] from a JSONL file to check totals.
pub fn replay(events: &[TraceEvent], recorder: &dyn Recorder) {
    for event in events {
        match event {
            TraceEvent::Span(s) => recorder.record_span(s),
            TraceEvent::Count { key, delta, .. } => recorder.count(key, *delta),
            TraceEvent::Observe { key, value, .. } => recorder.observe(key, *value),
        }
    }
}

/// Per-phase span totals of an [`AggregatingSink`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseSnapshot {
    /// The phase.
    pub phase: Phase,
    /// Spans recorded under it.
    pub spans: u64,
    /// Summed span durations, microseconds.
    pub total_us: u64,
}

/// One observation series of an [`AggregatingSink`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObservationSnapshot {
    /// Observation key.
    pub key: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// A consistent-enough snapshot of an [`AggregatingSink`] — what the
/// serve layer embeds in its `stats` reply and renders as Prometheus
/// series.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObsSnapshot {
    /// Per-phase span totals (only phases with at least one span).
    pub phases: Vec<PhaseSnapshot>,
    /// Counter totals, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Observation series, sorted by key.
    pub observations: Vec<ObservationSnapshot>,
}

impl ObsSnapshot {
    /// Totals of one phase, if any span was recorded under it.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// A counter's total (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// An in-memory aggregating recorder: lock-free per-phase span totals
/// (plain atomics) plus mutex-guarded counter and observation maps.
#[derive(Default)]
pub struct AggregatingSink {
    spans: [AtomicU64; Phase::ALL.len()],
    total_us: [AtomicU64; Phase::ALL.len()],
    counters: Mutex<BTreeMap<String, u64>>,
    observations: Mutex<BTreeMap<String, (u64, f64)>>,
}

impl AggregatingSink {
    /// An empty sink.
    pub fn new() -> AggregatingSink {
        AggregatingSink::default()
    }

    /// Spans recorded under `phase`.
    pub fn phase_spans(&self, phase: Phase) -> u64 {
        self.spans[phase.index()].load(Ordering::Relaxed)
    }

    /// Summed durations (µs) of the spans recorded under `phase`.
    pub fn phase_total_us(&self, phase: Phase) -> u64 {
        self.total_us[phase.index()].load(Ordering::Relaxed)
    }

    /// Summed durations (µs) across every phase.
    pub fn total_us(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.phase_total_us(p)).sum()
    }

    /// A counter's total (0 when never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// `(count, sum)` of an observation series, if any value was recorded.
    /// A value that would make the sum non-finite (NaN, ±∞, or an
    /// overflow) is counted but left out of the sum, so the sum can always
    /// be written as JSON.
    pub fn observation(&self, key: &str) -> Option<(u64, f64)> {
        self.observations
            .lock()
            .expect("observation map poisoned")
            .get(key)
            .copied()
    }

    /// Snapshot every series for reporting.
    pub fn snapshot(&self) -> ObsSnapshot {
        let phases = Phase::ALL
            .iter()
            .filter_map(|&p| {
                let spans = self.phase_spans(p);
                (spans > 0).then(|| PhaseSnapshot {
                    phase: p,
                    spans,
                    total_us: self.phase_total_us(p),
                })
            })
            .collect();
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        let observations = self
            .observations
            .lock()
            .expect("observation map poisoned")
            .iter()
            .map(|(k, &(count, sum))| ObservationSnapshot {
                key: k.clone(),
                count,
                sum,
            })
            .collect();
        ObsSnapshot {
            phases,
            counters,
            observations,
        }
    }
}

impl Recorder for AggregatingSink {
    fn record_span(&self, span: &SpanRecord) {
        let i = span.phase.index();
        self.spans[i].fetch_add(1, Ordering::Relaxed);
        self.total_us[i].fetch_add(span.duration_us, Ordering::Relaxed);
    }

    fn count(&self, key: &str, delta: u64) {
        let mut map = self.counters.lock().expect("counter map poisoned");
        match map.get_mut(key) {
            Some(v) => *v += delta,
            None => {
                map.insert(key.to_string(), delta);
            }
        }
    }

    fn observe(&self, key: &str, value: f64) {
        let mut map = self.observations.lock().expect("observation map poisoned");
        let entry = map.entry(key.to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        let sum = entry.1 + value;
        if sum.is_finite() {
            entry.1 = sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::span;

    #[test]
    fn non_finite_observations_are_counted_but_not_summed() {
        let sink = AggregatingSink::new();
        sink.observe("cf", 1.5);
        sink.observe("cf", f64::INFINITY);
        sink.observe("cf", f64::NAN);
        sink.observe("big", f64::MAX);
        sink.observe("big", f64::MAX);
        assert_eq!(sink.observation("cf"), Some((3, 1.5)));
        assert_eq!(sink.observation("big"), Some((2, f64::MAX)));
        let json = serde_json::to_string(&sink.snapshot()).expect("the snapshot serialises");
        assert!(json.contains("\"cf\""), "{json}");
    }

    #[test]
    fn aggregates_spans_counters_and_observations() {
        let sink = AggregatingSink::new();
        {
            let mut s = span(&sink, Phase::Place, "a");
            s.field("cf", 1.0);
        }
        span(&sink, Phase::Place, "b").finish();
        span(&sink, Phase::Stitch, "c").finish();
        sink.count("cache.hit", 2);
        sink.count("cache.hit", 3);
        sink.observe("cf", 1.5);
        sink.observe("cf", 2.5);
        assert_eq!(sink.phase_spans(Phase::Place), 2);
        assert_eq!(sink.phase_spans(Phase::Stitch), 1);
        assert_eq!(sink.phase_spans(Phase::Route), 0);
        assert_eq!(sink.counter("cache.hit"), 5);
        assert_eq!(sink.counter("cache.miss"), 0);
        assert_eq!(sink.observation("cf"), Some((2, 4.0)));
        let snap = sink.snapshot();
        assert_eq!(snap.phase(Phase::Place).unwrap().spans, 2);
        assert!(snap.phase(Phase::Route).is_none());
        assert_eq!(snap.counter("cache.hit"), 5);
        assert_eq!(snap.observations.len(), 1);
    }

    #[test]
    fn concurrent_span_recording_from_eight_threads() {
        // Satellite requirement: ≥ 8 threads recording spans, counters and
        // observations concurrently; nothing may be lost.
        let sink = AggregatingSink::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..200 {
                        let phase = Phase::ALL[(t + i) % Phase::ALL.len()];
                        let mut s = span(sink, phase, "worker");
                        s.field("i", i as f64);
                        drop(s);
                        sink.count("spans.done", 1);
                        sink.observe("value", 1.0);
                    }
                });
            }
        });
        let total: u64 = Phase::ALL.iter().map(|&p| sink.phase_spans(p)).sum();
        assert_eq!(total, 8 * 200);
        assert_eq!(sink.counter("spans.done"), 8 * 200);
        assert_eq!(sink.observation("value"), Some((8 * 200, 8.0 * 200.0)));
    }

    #[test]
    fn jsonl_round_trip_matches_the_aggregating_sink() {
        // Satellite requirement: write a trace, parse it back, and the
        // replayed totals must match a live aggregating sink fed the same
        // events.
        let path = std::env::temp_dir().join("tms_obs_roundtrip_test.jsonl");
        let live = AggregatingSink::new();
        {
            let jsonl = JsonlSink::create(&path).expect("create trace");
            for i in 0..20u64 {
                let phase = Phase::ALL[i as usize % Phase::ALL.len()];
                for obs in [&jsonl as &dyn Recorder, &live] {
                    let mut s = span(obs, phase, "m");
                    s.field("i", i as f64);
                    drop(s);
                    obs.count("cache.hit", i);
                    obs.observe("flow.cf.placed", 1.0 + i as f64 / 100.0);
                }
            }
            jsonl.flush().expect("flush");
        }
        let events = read_trace(&path).expect("read trace");
        std::fs::remove_file(&path).ok();
        assert_eq!(events.len(), 3 * 20);

        let replayed = AggregatingSink::new();
        replay(&events, &replayed);
        for p in Phase::ALL {
            assert_eq!(replayed.phase_spans(p), live.phase_spans(p), "{p:?}");
        }
        assert_eq!(replayed.counter("cache.hit"), live.counter("cache.hit"));
        let (rc, rs) = replayed.observation("flow.cf.placed").unwrap();
        let (lc, ls) = live.observation("flow.cf.placed").unwrap();
        assert_eq!(rc, lc);
        assert!((rs - ls).abs() < 1e-9);
        // Durations replay exactly (they are recorded, not re-measured).
        let replay_total: u64 = Phase::ALL.iter().map(|&p| replayed.phase_total_us(p)).sum();
        let event_total: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) => Some(s.duration_us),
                _ => None,
            })
            .sum();
        assert_eq!(replay_total, event_total);
    }

    #[test]
    fn read_trace_rejects_garbage() {
        let path = std::env::temp_dir().join("tms_obs_garbage_test.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = read_trace(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
