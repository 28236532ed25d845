//! Prometheus text-format exposition (and a small parser for tests).
//!
//! The writer follows the text-format conventions: `# HELP`/`# TYPE`
//! headers, histogram series as cumulative `_bucket{le="..."}` samples
//! ending in `le="+Inf"`, plus `_sum` and `_count`.

use crate::metrics::EndpointSnapshot;
use crate::sinks::ObsSnapshot;
use std::collections::{BTreeMap, BTreeSet};

/// Incrementally builds a Prometheus text-format page.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

/// Turn a dotted counter/observation key into a metric-name segment:
/// every character outside `[a-zA-Z0-9_]` becomes `_`
/// (`place.fail.bram-column` → `place_fail_bram_column`).
pub fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a label value per the text-format rules: backslash, double
/// quote and newline become `\\`, `\"` and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Append one sample line — the single formatting path shared by
/// [`PromText::sample`] and [`PromPage::render`], so a parsed page
/// re-renders bit-identically.
fn write_sample(buf: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    buf.push_str(name);
    if !labels.is_empty() {
        buf.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(k);
            buf.push_str("=\"");
            buf.push_str(&escape_label_value(v));
            buf.push('"');
        }
        buf.push('}');
    }
    buf.push(' ');
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        buf.push_str(&format!("{}", value as i64));
    } else {
        buf.push_str(&format!("{value}"));
    }
    buf.push('\n');
}

impl PromText {
    /// An empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emit the `# HELP` and `# TYPE` headers of one metric family.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.buf.push_str("# HELP ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(help);
        self.buf.push_str("\n# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
    }

    /// Emit one sample line with optional labels (label values are
    /// escaped via [`escape_label_value`]).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        write_sample(&mut self.buf, name, labels, value);
    }

    /// Emit a full histogram family under `name`: cumulative
    /// `_bucket{le=...}` lines (the last bound renders as `+Inf`),
    /// then `_sum` and `_count`. `extra` labels are prepended to `le`.
    pub fn histogram(
        &mut self,
        name: &str,
        extra: &[(&str, &str)],
        bounds: &[u64],
        buckets: &[u64],
        sum: u64,
    ) {
        assert_eq!(bounds.len(), buckets.len());
        let mut cumulative = 0u64;
        for (&bound, &count) in bounds.iter().zip(buckets) {
            cumulative += count;
            let le = if bound == u64::MAX {
                "+Inf".to_string()
            } else {
                bound.to_string()
            };
            let mut labels: Vec<(&str, &str)> = extra.to_vec();
            labels.push(("le", &le));
            self.sample(&format!("{name}_bucket"), &labels, cumulative as f64);
        }
        self.sample(&format!("{name}_sum"), extra, sum as f64);
        self.sample(&format!("{name}_count"), extra, cumulative as f64);
    }

    /// Emit one endpoint's request/error counters and latency histogram
    /// under the shared `tms_requests_total` / `tms_request_errors_total` /
    /// `tms_request_latency_us` families (headers are the caller's job —
    /// they are per-family, not per-endpoint).
    pub fn endpoint(&mut self, endpoint: &str, snap: &EndpointSnapshot) {
        self.sample(
            "tms_requests_total",
            &[("endpoint", endpoint)],
            snap.requests as f64,
        );
        self.sample(
            "tms_request_errors_total",
            &[("endpoint", endpoint)],
            snap.errors as f64,
        );
        self.histogram(
            "tms_request_latency_us",
            &[("endpoint", endpoint)],
            &snap.bucket_bounds_us,
            &snap.buckets,
            snap.total_micros,
        );
    }

    /// Emit an [`ObsSnapshot`]: per-phase span totals plus one counter
    /// family per counter key and a `_sum`/`_count` pair per observation
    /// key (keys sanitized via [`sanitize`] under a `tms_` prefix).
    pub fn obs_snapshot(&mut self, snap: &ObsSnapshot) {
        if !snap.phases.is_empty() {
            self.header(
                "tms_phase_spans_total",
                "Spans recorded per pipeline phase",
                "counter",
            );
            for p in &snap.phases {
                self.sample(
                    "tms_phase_spans_total",
                    &[("phase", p.phase.label())],
                    p.spans as f64,
                );
            }
            self.header(
                "tms_phase_time_us_total",
                "Summed span time per pipeline phase, microseconds",
                "counter",
            );
            for p in &snap.phases {
                self.sample(
                    "tms_phase_time_us_total",
                    &[("phase", p.phase.label())],
                    p.total_us as f64,
                );
            }
        }
        for (key, value) in &snap.counters {
            let name = format!("tms_{}_total", sanitize(key));
            self.header(&name, &format!("Flow counter {key}"), "counter");
            self.sample(&name, &[], *value as f64);
        }
        for obs in &snap.observations {
            let name = format!("tms_{}", sanitize(&obs.key));
            self.header(&name, &format!("Flow observation {}", obs.key), "summary");
            self.sample(&format!("{name}_sum"), &[], obs.sum);
            self.sample(&format!("{name}_count"), &[], obs.count as f64);
        }
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// One line of a structurally parsed Prometheus page (see [`parse_page`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PromLine {
    /// A `# HELP <name> <help>` comment.
    Help {
        /// Metric family name.
        name: String,
        /// Help text (may contain spaces).
        help: String,
    },
    /// A `# TYPE <name> <kind>` comment.
    Type {
        /// Metric family name.
        name: String,
        /// Metric kind (`counter`, `gauge`, `histogram`, `summary`).
        kind: String,
    },
    /// A sample line: name, decoded labels, value.
    Sample {
        /// Sample name (including `_bucket`/`_sum`/`_count` suffixes).
        name: String,
        /// Label pairs with escape sequences decoded.
        labels: Vec<(String, String)>,
        /// Sample value.
        value: f64,
    },
}

/// A structurally parsed Prometheus text page that re-renders
/// bit-identically: [`parse_page`] followed by [`PromPage::render`] is
/// the identity on everything [`PromText`] emits (the round trip the
/// parser tests pin down).
#[derive(Debug, Clone, PartialEq)]
pub struct PromPage {
    /// The page's lines in exposition order.
    pub lines: Vec<PromLine>,
}

impl PromPage {
    /// Samples only, in page order.
    pub fn samples(&self) -> impl Iterator<Item = (&str, &[(String, String)], f64)> {
        self.lines.iter().filter_map(|l| match l {
            PromLine::Sample {
                name,
                labels,
                value,
            } => Some((name.as_str(), labels.as_slice(), *value)),
            _ => None,
        })
    }

    /// Re-render the page through the same formatting path as
    /// [`PromText`].
    pub fn render(&self) -> String {
        let mut buf = String::new();
        for line in &self.lines {
            match line {
                PromLine::Help { name, help } => {
                    buf.push_str("# HELP ");
                    buf.push_str(name);
                    buf.push(' ');
                    buf.push_str(help);
                    buf.push('\n');
                }
                PromLine::Type { name, kind } => {
                    buf.push_str("# TYPE ");
                    buf.push_str(name);
                    buf.push(' ');
                    buf.push_str(kind);
                    buf.push('\n');
                }
                PromLine::Sample {
                    name,
                    labels,
                    value,
                } => {
                    let borrowed: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    write_sample(&mut buf, name, &borrowed, *value);
                }
            }
        }
        buf
    }
}

/// Decoded label pairs plus the unparsed remainder of the sample line.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parse the label block of a sample line. `s` starts just after `{`;
/// returns the decoded pairs and the rest of the line after `}`.
fn parse_labels(s: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    let mut chars = s.char_indices();
    'pairs: loop {
        // Key runs until '='.
        let mut key = String::new();
        for (_, c) in chars.by_ref() {
            match c {
                '=' => break,
                '}' if key.is_empty() && labels.is_empty() => {
                    // "{}" — empty label set.
                    let rest = chars.as_str();
                    return Ok((labels, rest));
                }
                c => key.push(c),
            }
        }
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label {key:?}: expected opening quote")),
        }
        // Value runs until the closing quote, decoding escapes.
        let mut value = String::new();
        loop {
            match chars.next() {
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key:?}")),
                },
                Some((_, '"')) => break,
                Some((_, c)) => value.push(c),
                None => return Err(format!("unterminated value for label {key:?}")),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some((_, ',')) => continue 'pairs,
            Some((_, '}')) => return Ok((labels, chars.as_str())),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Parse a Prometheus text page structurally: `# HELP`/`# TYPE` comments
/// and samples with decoded label values, preserving order, so
/// [`PromPage::render`] reproduces the input byte for byte. Unknown
/// comment lines are rejected (the exposition never emits them); so are
/// malformed samples.
pub fn parse_page(text: &str) -> Result<PromPage, String> {
    let mut lines = Vec::new();
    for raw in text.lines() {
        if raw.is_empty() {
            continue;
        }
        if let Some(rest) = raw.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed HELP line {raw:?}"))?;
            lines.push(PromLine::Help {
                name: name.to_string(),
                help: help.to_string(),
            });
        } else if let Some(rest) = raw.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE line {raw:?}"))?;
            lines.push(PromLine::Type {
                name: name.to_string(),
                kind: kind.to_string(),
            });
        } else if raw.starts_with('#') {
            return Err(format!("unexpected comment line {raw:?}"));
        } else {
            // name[{labels}] value
            let brace = raw.find('{');
            let space = raw
                .find(' ')
                .ok_or_else(|| format!("no value in {raw:?}"))?;
            let (name, labels, rest) = match brace {
                Some(b) if b < space => {
                    let (labels, rest) = parse_labels(&raw[b + 1..])?;
                    (&raw[..b], labels, rest)
                }
                _ => (&raw[..space], Vec::new(), &raw[space..]),
            };
            let value: f64 = rest
                .trim()
                .parse()
                .map_err(|e| format!("bad value in {raw:?}: {e}"))?;
            lines.push(PromLine::Sample {
                name: name.to_string(),
                labels,
                value,
            });
        }
    }
    Ok(PromPage { lines })
}

/// Parse a Prometheus text page into `full-sample-name → value`, where the
/// key includes the label set exactly as printed (e.g.
/// `tms_requests_total{endpoint="flow"}`). Blank and `# HELP` lines are
/// skipped. A malformed sample line is an error, and so is a page
/// Prometheus would reject for declaring one family twice: a second
/// `# TYPE` line for a name, or a repeated sample. Used by the
/// integration tests to cross-check the exposition against the `stats`
/// JSON.
pub fn parse(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut samples = BTreeMap::new();
    let mut families = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap_or_default();
            if !families.insert(name.to_string()) {
                return Err(format!("family {name} is declared twice"));
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let split = line
            .rfind(' ')
            .ok_or_else(|| format!("no value in {line:?}"))?;
        let (name, value) = line.split_at(split);
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad value in {line:?}: {e}"))?;
        let name = name.trim();
        if samples.insert(name.to_string(), value).is_some() {
            return Err(format!("sample {name} is repeated"));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EndpointMetrics;
    use crate::record::{span, Recorder};
    use crate::sinks::AggregatingSink;
    use crate::Phase;

    #[test]
    fn sanitize_flattens_separators() {
        assert_eq!(sanitize("place.fail.bram-column"), "place_fail_bram_column");
        assert_eq!(sanitize("cache.hit"), "cache_hit");
    }

    #[test]
    fn histogram_series_are_cumulative_and_end_at_inf() {
        let m = EndpointMetrics::default();
        m.record(50, true);
        m.record(60, true);
        m.record(700, false);
        let mut text = PromText::new();
        text.endpoint("estimate", &m.snapshot());
        let page = text.finish();
        let samples = parse(&page).unwrap();
        assert_eq!(
            samples["tms_requests_total{endpoint=\"estimate\"}"] as u64,
            3
        );
        assert_eq!(
            samples["tms_request_errors_total{endpoint=\"estimate\"}"] as u64,
            1
        );
        assert_eq!(
            samples["tms_request_latency_us_bucket{endpoint=\"estimate\",le=\"100\"}"] as u64,
            2
        );
        assert_eq!(
            samples["tms_request_latency_us_bucket{endpoint=\"estimate\",le=\"1000\"}"] as u64, 3,
            "buckets must be cumulative"
        );
        assert_eq!(
            samples["tms_request_latency_us_bucket{endpoint=\"estimate\",le=\"+Inf\"}"] as u64,
            3
        );
        assert_eq!(
            samples["tms_request_latency_us_sum{endpoint=\"estimate\"}"] as u64,
            810
        );
        assert_eq!(
            samples["tms_request_latency_us_count{endpoint=\"estimate\"}"] as u64,
            3
        );
    }

    #[test]
    fn obs_snapshot_renders_phases_counters_and_observations() {
        let sink = AggregatingSink::new();
        span(&sink, Phase::Place, "m").finish();
        span(&sink, Phase::Place, "n").finish();
        sink.count("place.fail.congestion", 4);
        sink.observe("flow.cf.placed", 1.5);
        sink.observe("flow.cf.placed", 2.0);
        let mut text = PromText::new();
        text.obs_snapshot(&sink.snapshot());
        let page = text.finish();
        let samples = parse(&page).unwrap();
        assert_eq!(samples["tms_phase_spans_total{phase=\"place\"}"] as u64, 2);
        assert!(samples.contains_key("tms_phase_time_us_total{phase=\"place\"}"));
        assert_eq!(samples["tms_place_fail_congestion_total"] as u64, 4);
        assert_eq!(samples["tms_flow_cf_placed_count"] as u64, 2);
        assert!((samples["tms_flow_cf_placed_sum"] - 3.5).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("just_a_name_no_value").is_err());
        assert!(parse("name not_a_number").is_err());
        assert!(parse("# HELP x y\n# TYPE x counter\nx 1\n").is_ok());
    }

    #[test]
    fn parse_rejects_a_family_declared_twice() {
        let twice = "# TYPE x counter\nx 1\n# TYPE x counter\n";
        assert!(parse(twice).unwrap_err().contains("declared twice"));
        let repeated = "# TYPE x counter\nx 1\nx 2\n";
        assert!(parse(repeated).unwrap_err().contains("repeated"));
        let labelled = "# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"2\"} 2\n";
        assert_eq!(parse(labelled).unwrap().len(), 2, "distinct label sets");
    }

    #[test]
    fn label_values_are_escaped_and_decoded() {
        let mut text = PromText::new();
        text.sample(
            "tms_build_info",
            &[("version", "weird\"quote\\slash\nnewline")],
            1.0,
        );
        let page = text.finish();
        assert!(
            page.contains(r#"version="weird\"quote\\slash\nnewline""#),
            "{page}"
        );
        let parsed = parse_page(&page).unwrap();
        let (_, labels, value) = parsed.samples().next().unwrap();
        assert_eq!(labels[0].1, "weird\"quote\\slash\nnewline");
        assert_eq!(value, 1.0);
        assert_eq!(parsed.render(), page, "escaped page must round-trip");
    }

    #[test]
    fn full_page_round_trips_bit_identically() {
        // A page exercising every emission path: headers, plain and
        // labelled samples, a histogram family with its cumulative
        // buckets / _sum / _count, summaries, and non-integer values.
        let m = EndpointMetrics::default();
        m.record(50, true);
        m.record(60, true);
        m.record(700, false);
        m.record(2_000_000, true);
        let sink = AggregatingSink::new();
        span(&sink, Phase::Place, "m").finish();
        sink.count("place.fail.congestion", 4);
        sink.observe("flow.cf.placed", 1.5);
        sink.observe("flow.cf.placed", 2.0);

        let mut text = PromText::new();
        text.header("tms_requests_total", "Requests per endpoint", "counter");
        text.header(
            "tms_request_latency_us",
            "Request latency, microseconds",
            "histogram",
        );
        text.endpoint("estimate", &m.snapshot());
        text.obs_snapshot(&sink.snapshot());
        text.sample("tms_build_info", &[("version", "0.1.0")], 1.0);
        text.sample("tms_uptime_seconds", &[], 12.25);
        let page = text.finish();

        let parsed = parse_page(&page).expect("page must parse structurally");
        assert_eq!(parsed.render(), page, "render(parse(page)) != page");
        // And again: the round trip is a fixed point.
        let reparsed = parse_page(&parsed.render()).unwrap();
        assert_eq!(reparsed, parsed);

        // The structural parse agrees with the flat sample map.
        let flat = parse(&page).unwrap();
        assert_eq!(flat.len(), parsed.samples().count());
        // Histogram series survive with their cumulative structure.
        let buckets: Vec<f64> = parsed
            .samples()
            .filter(|(n, ..)| *n == "tms_request_latency_us_bucket")
            .map(|(.., v)| v)
            .collect();
        assert_eq!(buckets.len(), m.snapshot().buckets.len());
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "cumulative");
        assert_eq!(*buckets.last().unwrap() as u64, 4, "+Inf sees all");
    }

    #[test]
    fn parse_page_rejects_malformed_lines() {
        assert!(parse_page("tms_x{le=\"unterminated 1").is_err());
        assert!(parse_page("tms_x{le=nodquote} 1").is_err());
        assert!(parse_page("# WEIRD comment").is_err());
        assert!(parse_page("tms_x{a=\"b\"} nan_value_x").is_err());
    }
}
