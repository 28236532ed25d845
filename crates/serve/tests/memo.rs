//! The request memos end to end: a repeated `flow` is answered from the
//! design memo (lookups under the read lock) and the cache's stitch memo
//! (no anneal, no lock held) with the same reply and the same telemetry as
//! a restarted server's repeat, corrupt records still heal by recomputing
//! exactly the victim, packed requests bypass the design memo, and a
//! repeated `preimpl` skips synthesis.

use std::sync::Arc;
use tms_cnn::ModuleRole;
use tms_estimator::{CfEstimator, EstimatorKind, FeatureSet};
use tms_fault::{FaultPlan, FaultPoint};
use tms_ml::Dataset;
use tms_obs::{ObsSnapshot, Phase};
use tms_serve::{serve, Client, FlowResponse, ModuleSpec, ServeConfig, StatsReport, MEMO_CAPACITY};

/// The counters a stitch books for the moves it ran; a stitch memo hit
/// books none of them.
const STITCH_WORK: [&str; 5] = [
    "stitch.moves",
    "stitch.accepted",
    "stitch.rejected",
    "stitch.illegal",
    "stitch.late_insertions",
];

/// The same tiny deterministic estimator as the other suites: these tests
/// care about memoisation, not model quality.
fn tiny_estimator() -> CfEstimator {
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<Vec<f64>> = (0..200).map(|_| (0..6).map(|_| next()).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 0.9 + 0.5 * x[0] + 0.2 * x[3]).collect();
    let names = (0..6).map(|i| format!("f{i}")).collect();
    let ds = Dataset::new(names, xs, ys);
    CfEstimator::train_small(EstimatorKind::LinearRegression, &ds, 1)
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tms_memo_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn start(config: ServeConfig) -> tms_serve::ServerHandle {
    serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind ephemeral port")
}

fn two_workers() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// A reply with its one timing field cleared.
fn sans_micros(r: &FlowResponse) -> String {
    format!(
        "{:?}",
        FlowResponse {
            micros: 0,
            ..r.clone()
        }
    )
}

/// What one request added to the server's cache reads (hits, misses) and
/// to its pipeline telemetry: span counts per phase, counters, and
/// observation counts and sums.
#[derive(Debug, PartialEq)]
struct Added {
    reads: (u64, u64),
    spans: Vec<(Phase, u64)>,
    counters: Vec<(String, u64)>,
    observations: Vec<(String, u64, f64)>,
}

fn added(before: &StatsReport, after: &StatsReport) -> Added {
    let reads = (
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
    );
    let (before, after) = (&before.pipeline, &after.pipeline);
    let spans = |s: &ObsSnapshot, p: Phase| s.phase(p).map_or(0, |x| x.spans);
    let observed = |s: &ObsSnapshot, key: &str| {
        s.observations
            .iter()
            .find(|o| o.key == key)
            .map_or((0, 0.0), |o| (o.count, o.sum))
    };
    Added {
        reads,
        spans: after
            .phases
            .iter()
            .map(|p| (p.phase, p.spans - spans(before, p.phase)))
            .filter(|&(_, n)| n > 0)
            .collect(),
        counters: after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - before.counter(k)))
            .filter(|&(_, n)| n > 0)
            .collect(),
        observations: after
            .observations
            .iter()
            .map(|o| {
                let (count, sum) = observed(before, &o.key);
                (o.key.clone(), o.count - count, o.sum - sum)
            })
            .filter(|&(_, n, _)| n > 0)
            .collect(),
    }
}

impl Added {
    fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    }

    fn spans(&self, phase: Phase) -> u64 {
        self.spans
            .iter()
            .find(|&&(p, _)| p == phase)
            .map_or(0, |&(_, n)| n)
    }

    /// Equal to `other` apart from the design memo's own counters, with
    /// observation sums equal up to the rounding of the running totals
    /// they were taken from.
    fn assert_same_work(&self, other: &Added, what: &str) {
        self.assert_same_work_but(other, &[], what);
    }

    /// [`Added::assert_same_work`] with the counters in `aside` also set
    /// aside.
    fn assert_same_work_but(&self, other: &Added, aside: &[&str], what: &str) {
        let work = |a: &Added| -> Vec<(String, u64)> {
            a.counters
                .iter()
                .filter(|(k, _)| !k.starts_with("serve.design_memo."))
                .filter(|(k, _)| !aside.contains(&k.as_str()))
                .cloned()
                .collect()
        };
        assert_eq!(self.reads, other.reads, "{what}: cache reads");
        assert_eq!(self.spans, other.spans, "{what}: spans");
        assert_eq!(work(self), work(other), "{what}: counters");
        assert_eq!(
            self.observations.len(),
            other.observations.len(),
            "{what}: observation series"
        );
        for ((ka, na, sa), (kb, nb, sb)) in self.observations.iter().zip(&other.observations) {
            assert_eq!((ka, na), (kb, nb), "{what}: observation counts");
            assert!(
                (sa - sb).abs() <= 1e-9 * sa.abs().max(1.0),
                "{what}: {ka} sums {sa} vs {sb}"
            );
        }
    }
}

/// A flow request together with what it added to the telemetry and to
/// the store's appended-record count.
fn traced_flow(
    client: &mut Client,
    seed: u64,
    device: &str,
) -> (FlowResponse, Added, u64, StatsReport) {
    let before = client.stats().expect("stats");
    let reply = client.flow(seed, device, None).expect("flow");
    let after = client.stats().expect("stats");
    let appended = |s: &StatsReport| s.store.as_ref().map_or(0, |s| s.appended);
    let work = added(&before, &after);
    (reply, work, appended(&after) - appended(&before), after)
}

const DESIGNS: [(u64, &str); 4] = [
    (3, "xc7z020"),
    (3, "xc7z045"),
    (8, "xc7z020"),
    (8, "xc7z045"),
];

#[test]
fn memo_served_replies_equal_a_restarted_servers() {
    let dir = unique_dir("restart");
    std::fs::remove_dir_all(&dir).ok();

    // Server one compiles each design cold, then serves it again from the
    // memos: every module a verified hit, no design regenerated, and the
    // stitch answered by the cache's stitch memo.
    let mut memo_served = Vec::new();
    {
        let handle = start(two_workers().with_store_dir(&dir));
        let mut client = Client::connect(handle.addr()).expect("connect");
        for (seed, device) in DESIGNS {
            let (cold, work, _, _) = traced_flow(&mut client, seed, device);
            // Designs of different seeds may share a module or two.
            assert!(cold.fresh > 0, "{seed}/{device}");
            assert_eq!(cold.fresh + cold.reused, 74);
            assert_eq!(work.counter("serve.design_memo.miss"), 1);
        }
        for (seed, device) in DESIGNS {
            let (warm, work, appended, stats) = traced_flow(&mut client, seed, device);
            assert_eq!(work.counter("serve.design_memo.hit"), 1, "{seed}/{device}");
            assert_eq!(work.counter("serve.design_memo.miss"), 0);
            assert_eq!((warm.fresh, warm.reused), (0, 74));
            assert_eq!(warm.tool_runs_spent, 0);
            // Nothing implemented, nothing persisted, nothing annealed: one
            // cache lookup span and the stitch memo's span.
            assert_eq!(work.spans(Phase::Place), 0, "{seed}/{device}");
            assert_eq!(work.spans(Phase::Synth), 0);
            assert_eq!(work.spans(Phase::Cache), 1);
            assert_eq!(work.spans(Phase::Stitch), 1);
            assert_eq!(work.counter("stitch.memo.hit"), 1);
            for counter in STITCH_WORK {
                assert_eq!(work.counter(counter), 0, "{seed}/{device}: {counter}");
            }
            assert_eq!(work.reads, (74, 0), "{seed}/{device}");
            assert_eq!(appended, 0, "an all-hit flow appends nothing");
            assert_eq!(stats.memo.design_entries, DESIGNS.len());
            assert_eq!(stats.memo.capacity, MEMO_CAPACITY);
            memo_served.push((warm, work));
        }
        handle.stop();
    }

    // Server two opens the same library with empty memos and gets each
    // design twice. The first request generates and fingerprints the
    // design before the same lookup under the read lock, and anneals; the
    // second is served by both memos, like server one's warm request, and
    // must answer and record exactly the same. The first answers the same
    // too, and records the same but for the stitch: the anneal's work
    // counters where the repeat counts a stitch memo hit.
    let handle = start(two_workers().with_store_dir(&dir));
    let mut client = Client::connect(handle.addr()).expect("connect");
    for ((seed, device), (warm, warm_work)) in DESIGNS.into_iter().zip(&memo_served) {
        let what = format!("{seed}/{device}");
        let (full, work, appended, _) = traced_flow(&mut client, seed, device);
        assert_eq!(work.counter("serve.design_memo.miss"), 1, "{what}");
        assert_eq!(appended, 0);
        assert_eq!(sans_micros(&full), sans_micros(warm), "{what}");
        let (repeat, repeat_work, appended, _) = traced_flow(&mut client, seed, device);
        assert_eq!(repeat_work.counter("serve.design_memo.hit"), 1, "{what}");
        assert_eq!(appended, 0);
        assert_eq!(sans_micros(&repeat), sans_micros(warm), "{what}");
        warm_work.assert_same_work(&repeat_work, &what);

        assert_eq!(work.counter("stitch.memo.hit"), 0, "{what}");
        assert!(work.counter("stitch.moves") > 0, "{what}");
        assert_eq!(work.spans(Phase::Stitch), 1);
        let mut aside = STITCH_WORK.to_vec();
        aside.push("stitch.memo.hit");
        work.assert_same_work_but(&repeat_work, &aside, &what);
    }
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_record_of_a_memoised_design_recomputes_exactly_that_module() {
    // Memory mode: a quarantined record stays in the map, so only a flow
    // that resumes from its own lookup — rather than reading the cache a
    // second time — recomputes the victim.
    let plan = Arc::new(FaultPlan::seeded(5));
    let handle = start(two_workers().with_fault(Arc::clone(&plan)));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.flow(4, "xc7z020", None).expect("cold flow");
    assert_eq!(cold.fresh, 74);
    let (clean, _, _, _) = traced_flow(&mut client, 4, "xc7z020");
    assert_eq!(clean.reused, 74);

    plan.fail_next(FaultPoint::CacheCorruptMacro, 1);
    let (healed, work, _, after) = traced_flow(&mut client, 4, "xc7z020");
    assert_eq!(plan.injected(FaultPoint::CacheCorruptMacro), 1);
    assert_eq!(work.counter("serve.design_memo.hit"), 1, "memo-served");
    assert_eq!(healed.fresh, 1, "exactly the victim recomputed");
    assert_eq!(healed.reused, 73);
    assert_eq!(healed.placed_count, clean.placed_count);
    assert_eq!(healed.implemented, 74);
    // Each module read once, as on the full path: 73 hits, one miss.
    assert_eq!(work.spans(Phase::Cache), 1);
    assert_eq!(work.reads, (73, 1));
    assert_eq!(after.integrity.quarantined, 1);

    let again = client.flow(4, "xc7z020", None).expect("clean again");
    assert_eq!((again.fresh, again.reused), (0, 74));
    assert_eq!(sans_micros(&again), sans_micros(&clean));
    handle.stop();
}

#[test]
fn packed_requests_leave_the_design_memo_alone() {
    let handle = start(two_workers());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for _ in 0..2 {
        let r = client
            .flow_packed(1, "xc7z020", Some(1.72), Some("packed"))
            .expect("packed flow");
        assert!(r.pack_bram36_saved.is_some());
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pipeline.counter("serve.design_memo.hit"), 0);
    assert_eq!(stats.pipeline.counter("serve.design_memo.miss"), 0);
    assert_eq!(stats.memo.design_entries, 0);
    // Packing named but off is an ordinary request.
    client
        .flow_packed(1, "xc7z020", Some(1.72), Some("off"))
        .expect("unpacked flow");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pipeline.counter("serve.design_memo.miss"), 1);
    assert_eq!(stats.memo.design_entries, 1);
    handle.stop();
}

#[test]
fn memo_counters_and_gauges_round_trip_through_prometheus() {
    let handle = start(two_workers());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ModuleSpec {
        role: ModuleRole::Activation,
        target_slices: 30,
        name: "act_memo".to_string(),
        seed: 17,
    };
    let cold = client.preimpl(&spec, "xc7z020", None).expect("preimpl");
    let warm = client.preimpl(&spec, "xc7z020", None).expect("preimpl");
    assert!(!cold.cached && warm.cached);
    assert_eq!(
        (warm.cf.to_bits(), warm.pblock_w, warm.pblock_h),
        (cold.cf.to_bits(), cold.pblock_w, cold.pblock_h)
    );
    // The same spec on another device is another key.
    client.preimpl(&spec, "xc7z045", None).expect("preimpl");
    for _ in 0..3 {
        client.flow(2, "xc7z020", None).expect("flow");
    }

    let text = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&text).expect("prometheus page parses");
    let stats = client.stats().expect("stats");
    for (counter, want) in [
        ("serve.spec_memo.miss", 2),
        ("serve.spec_memo.hit", 1),
        ("serve.design_memo.miss", 1),
        ("serve.design_memo.hit", 2),
        ("stitch.memo.hit", 2),
    ] {
        assert_eq!(stats.pipeline.counter(counter), want, "{counter}");
        let name = format!("tms_{}_total", tms_serve::prometheus::sanitize(counter));
        assert_eq!(samples[&name] as u64, want, "{name}");
    }
    assert_eq!(stats.memo.spec_entries, 2);
    assert_eq!(stats.memo.design_entries, 1);
    assert_eq!(
        samples["tms_memo_entries{memo=\"spec\"}"] as usize,
        stats.memo.spec_entries
    );
    assert_eq!(
        samples["tms_memo_entries{memo=\"design\"}"] as usize,
        stats.memo.design_entries
    );
    assert_eq!(samples["tms_memo_capacity"] as usize, MEMO_CAPACITY);
    handle.stop();
}
