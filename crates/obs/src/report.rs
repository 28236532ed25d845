//! The `tms report` renderer: a per-phase flame-style table (plus counter
//! and observation listings) from a JSONL trace.

use crate::metrics::nearest_rank;
use crate::record::TraceEvent;
use crate::sinks::{replay, AggregatingSink};
use crate::Phase;

const BAR_WIDTH: usize = 30;

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Render a parsed trace as a human-readable report: one row per phase
/// with span count, total time, share of all span time and a flame-style
/// bar, followed by the trace's counters and observations.
pub fn render(events: &[TraceEvent]) -> String {
    let sink = AggregatingSink::new();
    replay(events, &sink);
    let total_us = sink.total_us().max(1);

    // Every span duration per phase, for exact quantiles.
    let mut durations: Vec<Vec<u64>> = vec![Vec::new(); Phase::ALL.len()];
    for event in events {
        if let TraceEvent::Span(s) = event {
            durations[s.phase.index()].push(s.duration_us);
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} events ({} spans)\n\n",
        events.len(),
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span(_)))
            .count()
    ));
    out.push_str(&format!(
        "{:<10} {:>8} {:>10} {:>7} {:>9} {:>9} {:>9}  {}\n",
        "phase", "spans", "total", "share", "p50", "p99", "p999", "flame"
    ));
    for phase in Phase::ALL {
        let spans = sink.phase_spans(phase);
        if spans == 0 {
            continue;
        }
        let us = sink.phase_total_us(phase);
        let share = us as f64 / total_us as f64;
        let filled = ((share * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
        let samples = &mut durations[phase.index()];
        let mut q = |q: f64| fmt_us(nearest_rank(samples, q).unwrap_or(0));
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>6.1}% {:>9} {:>9} {:>9}  {}{}\n",
            phase.label(),
            spans,
            fmt_us(us),
            share * 100.0,
            q(0.50),
            q(0.99),
            q(0.999),
            "#".repeat(filled),
            ".".repeat(BAR_WIDTH - filled),
        ));
    }

    let snap = sink.snapshot();
    if !snap.counters.is_empty() {
        out.push_str("\ncounters\n");
        for (key, value) in &snap.counters {
            out.push_str(&format!("  {key:<32} {value}\n"));
        }
    }
    if !snap.observations.is_empty() {
        out.push_str("\nobservations (count / mean)\n");
        for obs in &snap.observations {
            let mean = obs.sum / obs.count.max(1) as f64;
            out.push_str(&format!(
                "  {:<32} {:>6} / {:.4}\n",
                obs.key, obs.count, mean
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SpanRecord;

    fn span_event(phase: Phase, us: u64) -> TraceEvent {
        TraceEvent::Span(SpanRecord {
            trace_id: 0,
            phase,
            name: "m".into(),
            start_us: 0,
            duration_us: us,
            fields: Vec::new(),
        })
    }

    #[test]
    fn report_lists_active_phases_counters_and_observations() {
        let events = vec![
            span_event(Phase::Place, 3_000_000),
            span_event(Phase::Place, 1_000_000),
            span_event(Phase::Stitch, 500),
            TraceEvent::Count {
                trace_id: 0,
                key: "cache.hit".into(),
                delta: 7,
            },
            TraceEvent::Observe {
                trace_id: 0,
                key: "flow.cf.placed".into(),
                value: 1.5,
            },
        ];
        let report = render(&events);
        assert!(report.contains("5 events (3 spans)"), "{report}");
        assert!(report.contains("place"), "{report}");
        assert!(report.contains("4.00s"), "{report}");
        assert!(report.contains("stitch"), "{report}");
        assert!(
            !report.contains("route"),
            "idle phases are omitted:\n{report}"
        );
        assert!(report.contains("cache.hit"), "{report}");
        assert!(report.contains('7'), "{report}");
        assert!(report.contains("flow.cf.placed"), "{report}");
        assert!(report.contains("1.5000"), "{report}");
    }

    /// The report's p50, p99 and p999 cells for `phase`.
    fn quantile_cells(report: &str, phase: Phase) -> Vec<&str> {
        let row = report
            .lines()
            .find(|l| l.split_whitespace().next() == Some(phase.label()))
            .unwrap_or_else(|| panic!("no {phase:?} row:\n{report}"));
        row.split_whitespace().skip(4).take(3).collect()
    }

    #[test]
    fn quantiles_are_samples_of_the_trace() {
        let mut events: Vec<TraceEvent> = (0..100).map(|_| span_event(Phase::Place, 101)).collect();
        events.extend((1..=10).map(|i| span_event(Phase::Stitch, 90 * i)));
        let report = render(&events);
        assert_eq!(quantile_cells(&report, Phase::Place), ["101µs"; 3]);
        // Ten spans, slowest 900 µs: p99 and p999 are that span, not more.
        assert_eq!(
            quantile_cells(&report, Phase::Stitch),
            ["450µs", "900µs", "900µs"]
        );
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let report = render(&[]);
        assert!(report.contains("0 events"));
    }

    #[test]
    fn time_units_scale() {
        assert_eq!(fmt_us(12), "12µs");
        assert_eq!(fmt_us(1_500), "1.50ms");
        assert_eq!(fmt_us(2_250_000), "2.25s");
    }
}
