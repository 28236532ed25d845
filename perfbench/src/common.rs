//! Shared pieces of the three workloads: the seeded generator, op records,
//! percentile and class reports, and the metric list a run prints.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The quality of one op's result. Every field is a pure function of the
/// op's inputs, so a repeated run must reproduce it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Qor {
    pub instances: u64,
    pub placed: u64,
    /// Final stitch cost (wirelength). `NaN` where the op cannot see it
    /// (serve replies carry no cost; the workload reads it from `stats`).
    pub hpwl: f64,
    pub tool_runs: u64,
    pub macro_area: u64,
    pub bram36: u64,
}

impl Qor {
    /// Bitwise equality, so `NaN` fields compare equal to themselves.
    pub fn same_as(&self, other: &Qor) -> bool {
        self.instances == other.instances
            && self.placed == other.placed
            && self.hpwl.to_bits() == other.hpwl.to_bits()
            && self.tool_runs == other.tool_runs
            && self.macro_area == other.macro_area
            && self.bram36 == other.bram36
    }
}

/// One timed op of a workload.
pub struct OpRecord {
    pub class: &'static str,
    pub ms: f64,
    pub qor: Qor,
    /// Why the op failed its output check, if it did.
    pub failure: Option<String>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Length of a sequence of about `rate × seconds` ops, in whole cycles of
/// the op mix (`cycle` ops each), so every seed gets the same class shares.
pub fn sequence_len(rate: f64, seconds: u64, cycle: usize) -> u64 {
    let cycles = (rate * seconds as f64 / cycle as f64).ceil().max(1.0);
    cycles as u64 * cycle as u64
}

/// Time `f`, returning its result and the elapsed wall-clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Nearest-rank percentile of `(value, class)` samples: the sample itself,
/// so the report can name the class it came from.
pub fn percentile(samples: &[(f64, &'static str)], q: f64) -> (f64, &'static str) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Print, for a percentile series, which class each reported sample came
/// from and how the samples split across classes. A percentile that sits
/// on the gap between two classes moves with every run; this line shows
/// whether it does.
pub fn class_report(label: &str, samples: &[(f64, &'static str)], quantiles: &[(&str, f64)]) {
    let mut shares: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, class) in samples {
        *shares.entry(class).or_default() += 1;
    }
    let mut line = format!("class report {label}: n={}", samples.len());
    for (class, n) in &shares {
        let _ = write!(
            line,
            " {class}={:.3}",
            *n as f64 / samples.len().max(1) as f64
        );
    }
    for (name, q) in quantiles {
        if !samples.is_empty() {
            let (v, class) = percentile(samples, *q);
            let _ = write!(line, "; {name}={v:.3}ms from {class}");
        }
    }
    println!("{line}");
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The metrics one run prints, in order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Passes of an untraced run. Each pass sets up afresh and runs the whole
/// op sequence. Shared 2-core hosts were measured switching between a
/// fast and a ~1.5× slower state for stretches of a fraction of a second
/// up to minutes; the best of a few passes mostly reads the program's
/// speed rather than the host's.
pub const PASSES: usize = 3;

/// One pass of an untraced run: its set-up time and its timed ops.
pub struct Pass {
    pub setup_s: f64,
    pub ops: Vec<OpRecord>,
    /// Mean final stitch cost per op, when the ops cannot report it
    /// individually (serve).
    pub hpwl: Option<f64>,
}

/// The end-to-end metrics of an untraced run: set-up time is the median
/// over passes, each time metric the best pass, and the QoR metrics come
/// from the first pass (every pass must reproduce it, see
/// [`check_repeat`]).
pub fn end_to_end(passes: &[Pass]) -> Metrics {
    let mut ops_per_s = Vec::new();
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    for (k, pass) in passes.iter().enumerate() {
        let samples: Vec<(f64, &'static str)> = pass.ops.iter().map(|o| (o.ms, o.class)).collect();
        class_report(
            &format!("op pass {k}"),
            &samples,
            &[("p50", 0.5), ("p90", 0.9)],
        );
        let busy_ms: f64 = pass.ops.iter().map(|o| o.ms).sum();
        ops_per_s.push(pass.ops.len() as f64 * 1e3 / busy_ms);
        p50.push(percentile(&samples, 0.5).0);
        p90.push(percentile(&samples, 0.9).0);
    }
    let best = |v: &[f64], better: fn(f64, f64) -> f64| v.iter().copied().fold(v[0], better);
    let setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("ops_per_s", best(&ops_per_s, f64::max), "1/s");
    m.put("op_p50_ms", best(&p50, f64::min), "ms");
    m.put("op_p90_ms", best(&p90, f64::min), "ms");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    // A failed op has no QoR to average; the run is already incorrect.
    let first = &passes[0];
    let q = first
        .ops
        .iter()
        .filter(|o| o.failure.is_none())
        .map(|o| &o.qor);
    m.put(
        "placed_frac",
        mean(q.clone().map(|q| q.placed as f64 / q.instances as f64)),
        "frac",
    );
    m.put(
        "stitch_hpwl",
        first
            .hpwl
            .unwrap_or_else(|| mean(q.clone().map(|q| q.hpwl))),
        "cost",
    );
    m.put("tool_runs", mean(q.map(|q| q.tool_runs as f64)), "count");
    m
}

/// QoR metrics that apply to one workload only; the traced run reports
/// them beside the per-layer numbers.
pub fn qor_extras(ops: &[OpRecord], v: &mut HashMap<&'static str, f64>) {
    v.insert(
        "macro_area_slices",
        mean(ops.iter().map(|o| o.qor.macro_area as f64)),
    );
    v.insert("bram36_used", mean(ops.iter().map(|o| o.qor.bram36 as f64)));
    v.insert(
        "fail_frac",
        ops.iter().filter(|o| o.failure.is_some()).count() as f64 / ops.len().max(1) as f64,
    );
}

/// The exact-repeat self-check: every pass runs the same op sequence from
/// an identical set-up, so every QoR value must repeat bit for bit.
pub fn check_repeat(passes: &[Pass]) -> Result<(), String> {
    let first = &passes[0];
    for (k, pass) in passes.iter().enumerate().skip(1) {
        for (i, (a, b)) in first.ops.iter().zip(&pass.ops).enumerate() {
            if !a.qor.same_as(&b.qor) {
                return Err(format!(
                    "repeat self-check: op {i} gave {:?} in pass 0, {:?} in pass {k}",
                    a.qor, b.qor
                ));
            }
        }
        if first.hpwl.map(f64::to_bits) != pass.hpwl.map(f64::to_bits) {
            return Err(format!(
                "repeat self-check: stitch cost differs in pass {k}"
            ));
        }
    }
    Ok(())
}
