//! The per-layer metrics of a traced run. Every workload prints the whole
//! list; a layer a workload never enters reads 0.

use crate::common::Metrics;
use crate::trace::{self_ms_by_name, Span};
use std::collections::HashMap;
use tms_core::flow::RwFlowResult;

/// Name and unit of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.stats_calls", "count"),
    ("netlist.stats_ms", "ms"),
    ("cache.fingerprint_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.insert_ms", "ms"),
    ("cache.hit_frac", "frac"),
    ("cache.quarantined", "count"),
    ("pack.pack_ms", "ms"),
    ("pack.calls", "count"),
    ("pack.bram36_saved", "count"),
    ("synth.pack_ms", "ms"),
    ("place.quick_place_ms", "ms"),
    ("timing.estimate_ms", "ms"),
    ("pblock.search_ms", "ms"),
    ("pblock.tool_runs", "count"),
    ("pblock.feasible_frac", "frac"),
    ("estimator.predict_ms", "ms"),
    ("estimator.train_s", "s"),
    ("flow.stage_ms", "ms"),
    ("flow.stage_busy_ms", "ms"),
    ("flow.module_max_ms", "ms"),
    ("stitch.stitch_ms", "ms"),
    ("stitch.moves", "count"),
    ("stitch.legal_frac", "frac"),
    ("stitch.accept_frac", "frac"),
    ("stitch.convergence_move", "count"),
    ("route.route_ms", "ms"),
    ("serve.flow_server_ms", "ms"),
    ("serve.flow_queue_ms", "ms"),
    ("serve.hit_server_ms", "ms"),
    ("serve.hit_queue_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("store.appended", "count"),
    ("store.io_errors", "count"),
    ("verify.failures", "count"),
    ("verify.quarantined", "count"),
    ("macro_area_slices", "slices"),
    ("bram36_used", "count"),
    ("fail_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Order `values` as [`PER_LAYER`], filling layers the workload does not
/// enter with 0. A value under a name outside the list is a bug.
pub fn per_layer(values: &HashMap<&'static str, f64>) -> Metrics {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in the list"
        );
    }
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    m
}

/// Counts the traced flows expose through their results, summed over ops.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub tool_runs: u64,
    pub feasible: u64,
    pub moves: u64,
    pub illegal: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub convergence: u64,
    pub lookups: u64,
    pub hits: u64,
    pub quarantined: u64,
    pub pack_calls: u64,
    pub bram36_saved: u64,
}

impl Tally {
    /// Book one op's flow result; `fresh` is how many modules it
    /// implemented (rather than took from a cache), `tool_runs` what it
    /// spent on them.
    pub fn add(&mut self, r: &RwFlowResult, fresh: u64, tool_runs: u64) {
        self.ops += 1;
        self.tool_runs += tool_runs;
        self.feasible += fresh;
        let s = &r.stitch;
        self.moves += s.total_moves;
        self.illegal += s.illegal_moves;
        self.accepted += s.accepted_moves;
        self.rejected += s.rejected_moves;
        self.convergence += s.convergence_move;
        if let Some(p) = &r.pack {
            self.pack_calls += 1;
            self.bram36_saved += p.bram36_saved;
        }
    }

    /// Per-op means of the counts plus every span-derived time, keyed as
    /// in [`PER_LAYER`].
    pub fn metrics(&self, spans: &[Span]) -> HashMap<&'static str, f64> {
        let n = self.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let selfs = self_ms_by_name(spans);
        let self_ms = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / n;
        let mut wall: HashMap<&str, f64> = HashMap::new();
        let mut module_max: HashMap<u32, f64> = HashMap::new();
        let mut stats_calls = 0u64;
        for s in spans {
            let d = s.dur_ns() as f64 / 1e6;
            *wall.entry(s.name).or_default() += d;
            match s.name {
                "flow.module" => {
                    let max = module_max.entry(s.op).or_default();
                    *max = max.max(d);
                }
                "netlist.stats" => stats_calls += 1,
                _ => {}
            }
        }
        let wall_ms = |name: &str| wall.get(name).copied().unwrap_or(0.0) / n;
        let mut v: HashMap<&'static str, f64> = HashMap::new();
        v.insert("netlist.stats_calls", stats_calls as f64 / n);
        v.insert("netlist.stats_ms", self_ms("netlist.stats"));
        v.insert("cache.fingerprint_ms", self_ms("cache.fingerprint"));
        v.insert("cache.lookup_ms", self_ms("cache.lookup"));
        v.insert("cache.insert_ms", self_ms("cache.insert"));
        v.insert("cache.hit_frac", ratio(self.hits, self.lookups));
        v.insert("cache.quarantined", self.quarantined as f64);
        v.insert("pack.pack_ms", self_ms("pack.pack"));
        v.insert("pack.calls", self.pack_calls as f64 / n);
        v.insert("pack.bram36_saved", self.bram36_saved as f64 / n);
        v.insert("synth.pack_ms", self_ms("synth.pack"));
        v.insert("place.quick_place_ms", self_ms("place.quick_place"));
        v.insert("timing.estimate_ms", self_ms("timing.estimate"));
        v.insert("pblock.search_ms", self_ms("pblock.search"));
        v.insert("pblock.tool_runs", self.tool_runs as f64 / n);
        v.insert("pblock.feasible_frac", ratio(self.feasible, self.tool_runs));
        v.insert("estimator.predict_ms", self_ms("estimator.predict"));
        v.insert("flow.stage_ms", wall_ms("flow.stage"));
        v.insert("flow.stage_busy_ms", wall_ms("flow.module"));
        v.insert("flow.module_max_ms", module_max.values().sum::<f64>() / n);
        v.insert("stitch.stitch_ms", self_ms("stitch.stitch"));
        v.insert("stitch.moves", self.moves as f64 / n);
        v.insert("stitch.legal_frac", 1.0 - ratio(self.illegal, self.moves));
        v.insert(
            "stitch.accept_frac",
            ratio(self.accepted, self.accepted + self.rejected),
        );
        v.insert("stitch.convergence_move", self.convergence as f64 / n);
        v.insert("route.route_ms", self_ms("route.route"));
        v
    }
}
