//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans of one op share its id; they are written out when the run
//! ends, and per-layer self times are derived from them.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for an op's root span.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Where a new span hangs: the op it belongs to and its parent span.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub op: u32,
    pub parent: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the context its
    /// own child spans hang from.
    pub fn span<R>(&self, at: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f(Ctx {
            op: at.op,
            parent: id,
        });
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent: at.parent,
            op: at.op,
            name,
            start_ns: start,
            end_ns: end,
        });
        r
    }

    /// Record a span measured elsewhere, from its two timestamps.
    pub fn record(&self, at: Ctx, name: &'static str, start: Instant, end: Instant) -> Ctx {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent: at.parent,
            op: at.op,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        Ctx {
            op: at.op,
            parent: id,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children of a parallel stage overlap, so the
/// covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Summed self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += selfs[&s.id] as f64 / 1e6;
    }
    out
}

/// Write the spans as JSON lines, one span per line.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
