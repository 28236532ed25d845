//! End-to-end service tests: a real server on an ephemeral port, real TCP
//! clients, concurrent load, and the warm-cache speedup.

use tms_cnn::ModuleRole;
use tms_estimator::{CfEstimator, EstimatorKind, FeatureSet};
use tms_ml::Dataset;
use tms_obs::Phase;
use tms_serve::{
    run_loadgen, serve, Client, ClientError, LoadgenConfig, ModuleSpec, ServeConfig, ServerTotals,
};

/// A quickly-trained linear estimator over the six `Additional` features —
/// the service doesn't care how good the model is, only that it loads and
/// predicts deterministically.
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

fn start_server(workers: usize) -> tms_serve::ServerHandle {
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind ephemeral port")
}

fn spec(role: ModuleRole, target: u32, name: &str) -> ModuleSpec {
    ModuleSpec {
        role,
        target_slices: target,
        name: name.to_string(),
        seed: 11,
    }
}

#[test]
fn eight_concurrent_clients_mixed_load() {
    let handle = start_server(12);
    let addr = handle.addr();
    let shared = [
        spec(ModuleRole::Mvau, 40, "mvau_a"),
        spec(ModuleRole::Activation, 30, "act_a"),
        spec(ModuleRole::SlidingWindow, 24, "swu_a"),
    ];

    // Warm the cache so the concurrent phase is deterministic: exactly
    // three misses happen here, everything after is a hit.
    let mut warm = Client::connect(addr).expect("connect");
    for s in &shared {
        let r = warm.preimpl(s, "xc7z020", Some(1.6)).expect("preimpl");
        assert!(!r.cached, "{} should miss on first sight", r.name);
    }

    // ≥ 8 concurrent clients, each issuing mixed estimate/preimpl traffic.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                for s in &shared {
                    let est = client.estimate_spec(s).expect("estimate");
                    assert!(est.cf >= 0.5 && est.cf.is_finite());
                    let pre = client.preimpl(s, "xc7z020", Some(1.6)).expect("preimpl");
                    assert!(pre.cached, "warm entry must be served from cache");
                    assert_eq!(pre.name, s.name);
                }
            });
        }
    });

    let stats = warm.stats().expect("stats");
    assert_eq!(stats.estimate.requests, 8 * 3);
    assert_eq!(stats.estimate.errors, 0);
    assert_eq!(stats.preimpl.requests, 8 * 3 + 3);
    assert_eq!(stats.preimpl.errors, 0);
    assert_eq!(stats.cache.len, 3);
    assert_eq!(stats.cache.misses, 3);
    assert_eq!(
        stats.cache.hits,
        8 * 3,
        "every concurrent preimpl was a hit"
    );
    assert_eq!(
        stats.preimpl.buckets.iter().sum::<u64>(),
        stats.preimpl.requests,
        "every request lands in exactly one latency bucket"
    );

    // The stats endpoint meters itself too (minus the in-flight request).
    let again = warm.stats().expect("stats");
    assert!(again.stats.requests >= 1);
    assert!(again.uptime_micros > 0);
    handle.stop();
}

#[test]
fn repeated_preimpl_is_cached_and_measurably_faster() {
    let handle = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Minimal-CF search on a big module: the cold request pays for several
    // place-and-route attempts, the warm one only for a cache lookup.
    let s = spec(ModuleRole::Weights, 400, "w_big");

    let cold = client.preimpl(&s, "xc7z045", None).expect("cold preimpl");
    assert!(!cold.cached);
    assert!(cold.attempts >= 1);
    assert!(cold.used_slices > 0);

    let warm = client.preimpl(&s, "xc7z045", None).expect("warm preimpl");
    assert!(warm.cached, "second identical request must hit the cache");
    assert_eq!(warm.cf, cold.cf);
    assert_eq!(
        (warm.pblock_w, warm.pblock_h),
        (cold.pblock_w, cold.pblock_h)
    );
    assert!(
        warm.micros < cold.micros,
        "warm {}µs !< cold {}µs",
        warm.micros,
        cold.micros
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    handle.stop();
}

#[test]
fn warm_flow_does_strictly_less_implementation_work() {
    let handle = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Place-and-route spans the server has recorded so far.
    let place_spans = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        stats.pipeline.phase(Phase::Place).map_or(0, |p| p.spans)
    };

    let before = place_spans(&mut client);
    let cold = client.flow(5, "xc7z045", None).expect("cold flow");
    let after_cold = place_spans(&mut client);
    assert_eq!(cold.reused, 0);
    assert_eq!(cold.fresh, 74);
    assert_eq!(cold.implemented, 74);
    assert_eq!(cold.failed, 0);
    assert!(cold.tool_runs_spent >= 74);
    assert!(cold.placed_count > 0);

    let warm = client.flow(5, "xc7z045", None).expect("warm flow");
    let after_warm = place_spans(&mut client);
    assert_eq!(warm.reused, 74, "fully warm cache serves every module");
    assert_eq!(warm.fresh, 0);
    assert_eq!(warm.tool_runs_spent, 0, "strictly less implementation work");
    assert_eq!(warm.total_tool_runs, cold.total_tool_runs);
    assert_eq!(warm.placed_count, cold.placed_count);
    // Exact, unlike wall-clock: the cold flow places every module at
    // least once, the warm flow places none.
    assert!(
        after_cold - before >= 74,
        "cold flow recorded {} place spans",
        after_cold - before
    );
    assert_eq!(after_warm, after_cold, "warm flow recorded place spans");
    handle.stop();
}

#[test]
fn prometheus_page_agrees_with_the_stats_report() {
    let handle = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let s = spec(ModuleRole::Mvau, 40, "prom_m");
    client.estimate_spec(&s).expect("estimate");
    let cold = client.preimpl(&s, "xc7z020", None).expect("cold preimpl");
    assert!(!cold.cached);
    let warm = client.preimpl(&s, "xc7z020", None).expect("warm preimpl");
    assert!(warm.cached);

    let text = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&text).expect("prometheus page parses");
    let stats = client.stats().expect("stats");

    // The stats and metrics endpoints meter themselves only *after*
    // answering, so their own counters drift by the in-flight request —
    // compare the endpoints this sequence no longer touches.
    for (name, snap) in [
        ("estimate", &stats.estimate),
        ("preimpl", &stats.preimpl),
        ("flow", &stats.flow),
    ] {
        assert_eq!(
            samples[&format!("tms_requests_total{{endpoint=\"{name}\"}}")] as u64,
            snap.requests,
            "{name} requests"
        );
        assert_eq!(
            samples[&format!("tms_request_errors_total{{endpoint=\"{name}\"}}")] as u64,
            snap.errors,
            "{name} errors"
        );
        assert_eq!(
            samples[&format!("tms_request_latency_us_count{{endpoint=\"{name}\"}}")] as u64,
            snap.requests,
            "{name} histogram covers every request"
        );
        assert_eq!(
            samples[&format!("tms_request_latency_us_sum{{endpoint=\"{name}\"}}")] as u64,
            snap.total_micros,
            "{name} latency sum"
        );
    }
    assert_eq!(samples["tms_cache_hits_total"] as u64, stats.cache.hits);
    assert_eq!(samples["tms_cache_misses_total"] as u64, stats.cache.misses);
    assert_eq!(samples["tms_cache_len"] as usize, stats.cache.len);

    // The pipeline telemetry is present on both sides and agrees: one
    // estimate span, one cache miss + one hit, and the cold preimpl's
    // placement work.
    assert_eq!(samples["tms_cache_hit_total"] as u64, 1);
    assert_eq!(samples["tms_cache_miss_total"] as u64, 1);
    assert!(samples["tms_phase_spans_total{phase=\"estimate\"}"] as u64 >= 1);
    assert!(samples["tms_phase_spans_total{phase=\"place\"}"] as u64 >= 1);
    assert_eq!(stats.pipeline.counter("cache.hit"), 1);
    assert_eq!(stats.pipeline.counter("cache.miss"), 1);
    assert_eq!(
        stats.pipeline.counter("pblock.search.tool_runs"),
        u64::from(cold.attempts),
        "the sink's tool runs are the cold implementation's attempts"
    );
    // The spec memo: the cold preimpl synthesised and remembered the
    // spec, the warm one found its key there.
    assert_eq!(stats.pipeline.counter("serve.spec_memo.miss"), 1);
    assert_eq!(stats.pipeline.counter("serve.spec_memo.hit"), 1);
    assert_eq!(samples["tms_serve_spec_memo_miss_total"] as u64, 1);
    assert_eq!(samples["tms_serve_spec_memo_hit_total"] as u64, 1);
    assert_eq!(stats.memo.spec_entries, 1);
    assert_eq!(
        samples["tms_memo_entries{memo=\"spec\"}"] as usize,
        stats.memo.spec_entries
    );
    assert_eq!(
        samples["tms_memo_entries{memo=\"design\"}"] as usize,
        stats.memo.design_entries
    );
    assert_eq!(samples["tms_memo_capacity"] as usize, stats.memo.capacity);
    handle.stop();
}

#[test]
fn packed_flow_round_trips_pack_telemetry() {
    // A `flow` request with `mem_pack: "packed"` must report its BRAM36
    // savings on the wire AND land the `pack.*` family in both `stats`
    // and the Prometheus page.
    let handle = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let r = client
        .flow_packed(1, "xc7z020", Some(1.72), Some("packed"))
        .expect("packed flow");
    let saved = r.pack_bram36_saved.expect("packed flow reports savings");
    assert!(saved > 0, "packing saved no BRAM36");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.pipeline.counter("pack.runs"), 1);
    assert_eq!(stats.pipeline.counter("pack.bram36_saved"), saved);
    assert!(stats.pipeline.counter("pack.modules") > 0);

    let text = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&text).expect("prometheus page parses");
    assert_eq!(samples["tms_pack_runs_total"] as u64, 1);
    assert_eq!(samples["tms_pack_bram36_saved_total"] as u64, saved);

    // The packing policy is per-request: a plain flow on the UltraScale-
    // like preset runs with packing off and reports no savings.
    let off = client
        .flow_packed(2, "ultrascale-like", Some(1.72), None)
        .expect("flow without packing");
    assert!(off.pack_bram36_saved.is_none());
    assert_eq!(
        client.stats().expect("stats").pipeline.counter("pack.runs"),
        1
    );

    // Unknown policies are rejected without killing the connection.
    assert!(client
        .flow_packed(1, "xc7z020", Some(1.72), Some("bogus"))
        .is_err());
    assert!(client.stats().is_ok());

    // Repeating the first request reuses its packing from the cache's
    // memo: the outcome is booked again, the search is not.
    let moves = client
        .stats()
        .expect("stats")
        .pipeline
        .counter("pack.search.moves");
    let again = client
        .flow_packed(1, "xc7z020", Some(1.72), Some("packed"))
        .expect("repeated packed flow");
    assert_eq!(again.pack_bram36_saved, Some(saved));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pipeline.counter("pack.runs"), 2);
    assert_eq!(stats.pipeline.counter("pack.memo.hit"), 1);
    assert_eq!(stats.pipeline.counter("pack.search.moves"), moves);
    let text = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&text).expect("prometheus page parses");
    assert_eq!(samples["tms_pack_runs_total"] as u64, 2);
    assert_eq!(samples["tms_pack_memo_hit_total"] as u64, 1);
    handle.stop();
}

#[test]
fn minimal_cf_flow_surfaces_the_prescreen_counter() {
    // A flow request without a CF runs the minimal-CF search per module;
    // the incremental engine's `pblock.search.prescreened` skip counter
    // must surface in `stats` and on the Prometheus page like any other
    // pipeline counter.
    let handle = start_server(4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let r = client.flow(1, "xc7z045", None).expect("minimal-CF flow");
    assert_eq!(r.failed, 0);

    let stats = client.stats().expect("stats");
    let prescreened = stats.pipeline.counter("pblock.search.prescreened");
    assert!(prescreened > 0, "wide search must prescreen some attempts");
    // Prescreens never outnumber the classified attempt failures they
    // short-circuit.
    let fails: u64 = [
        "place.fail.off-device",
        "place.fail.slices",
        "place.fail.m-slice",
        "place.fail.bram-column",
        "place.fail.dsp-column",
        "place.fail.carry-chain",
        "place.fail.congestion",
        "pblock.generate.failed",
    ]
    .iter()
    .map(|k| stats.pipeline.counter(k))
    .sum();
    assert!(
        prescreened <= fails,
        "prescreened {prescreened} > fails {fails}"
    );

    let text = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&text).expect("prometheus page parses");
    assert_eq!(
        samples["tms_pblock_search_prescreened_total"] as u64,
        prescreened
    );
    handle.stop();
}

#[test]
fn plain_http_get_scrapes_the_metrics_page() {
    use std::io::{Read, Write};

    let handle = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let s = spec(ModuleRole::Activation, 30, "http_m");
    client.preimpl(&s, "xc7z020", Some(1.6)).expect("preimpl");

    // A stock HTTP scrape on the JSON-lines port.
    let mut http = std::net::TcpStream::connect(handle.addr()).expect("connect http");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    http.read_to_string(&mut raw)
        .expect("server closes after replying");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "scrapers key on the exposition-format version: {head}"
    );
    let samples = tms_serve::prometheus::parse(body).expect("body is a Prometheus page");
    assert_eq!(
        samples["tms_requests_total{endpoint=\"preimpl\"}"] as u64,
        1
    );
    assert_eq!(samples["tms_cache_misses_total"] as u64, 1);

    // Unknown paths get a 404, and the JSON side still works afterwards.
    let mut http = std::net::TcpStream::connect(handle.addr()).expect("connect http");
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").expect("send");
    let mut raw = String::new();
    http.read_to_string(&mut raw).expect("read 404");
    assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
    let stats = client.stats().expect("stats still served");
    assert_eq!(stats.metrics.requests, 2, "both scrapes were metered");
    assert_eq!(stats.metrics.errors, 1, "the 404 counts as an error");
    handle.stop();
}

#[test]
fn errors_are_reported_and_the_connection_survives() {
    let handle = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    match client.call("optimize", serde::Value::Null) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("unknown endpoint")),
        other => panic!("expected a remote error, got {other:?}"),
    }
    let s = spec(ModuleRole::Mvau, 30, "m");
    match client.preimpl(&s, "xc7a200t", Some(1.5)) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("unknown device")),
        other => panic!("expected a remote error, got {other:?}"),
    }
    match client.call("estimate", serde::Value::Object(Vec::new())) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("stats")),
        other => panic!("expected a remote error, got {other:?}"),
    }

    // The connection is still healthy, and the stats/spec estimate paths
    // agree bit-for-bit on the same module.
    let by_spec = client.estimate_spec(&s).expect("estimate by spec");
    let nl = tms_cnn::synth_module(s.role, s.target_slices, &s.name, s.seed);
    let by_stats = client
        .estimate_stats(&nl.stats())
        .expect("estimate by stats");
    assert_eq!(by_spec.cf.to_bits(), by_stats.cf.to_bits());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.estimate.errors, 1);
    assert_eq!(stats.preimpl.errors, 1);
    handle.stop();
}

/// Tail sampling is *exact*: with an unreachable slow threshold, the
/// slowlog retains precisely the requests that errored — healthy fast
/// requests cost only atomic bumps and leave no trace behind.
#[test]
fn slowlog_retains_exactly_errors_under_a_high_threshold() {
    let config = ServeConfig {
        workers: 2,
        slow_threshold: std::time::Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let s = spec(ModuleRole::Mvau, 30, "slowlog_m");
    for _ in 0..3 {
        client.estimate_spec(&s).expect("estimate");
    }
    for _ in 0..2 {
        client
            .preimpl(&s, "no-such-device", None)
            .expect_err("unknown device must fail");
    }

    let log = client.slowlog(0).expect("slowlog");
    assert_eq!(log.retained, 2, "exactly the two errored requests");
    assert_eq!(log.entries.len(), 2);
    assert!(log.considered >= 5, "every finished request was offered");
    assert_eq!(log.evicted, 0);
    for entry in &log.entries {
        assert_eq!(entry.endpoint, "preimpl");
        assert_eq!(entry.outcome, tms_obs::RequestOutcome::Error);
        assert!(entry.trace_id > 0, "every request gets a real trace id");
        assert!(
            entry.events.iter().all(|e| e.trace_id() == entry.trace_id),
            "every buffered event carries the owning request's trace id"
        );
    }
    let (a, b) = (log.entries[0].trace_id, log.entries[1].trace_id);
    assert_ne!(a, b, "trace ids are unique per request");
    assert!(a > b, "snapshot is newest-first");
    handle.stop();
}

/// The seed-derived loadgen mix has exact outcome counts: 4 closed-loop
/// clients × 25 requests (seed 1) against 8 workers, with a slow threshold
/// no request reaches, so the slowlog retains exactly the 9 errors.
#[test]
fn loadgen_outcome_counts_are_exact() {
    let config = ServeConfig {
        workers: 8,
        slow_threshold: std::time::Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let report = run_loadgen(&LoadgenConfig::closed(handle.addr(), 4, 25, 1)).expect("loadgen");
    handle.stop();
    assert_eq!((report.requests_total, report.errors_total), (100, 9));
    let endpoints: Vec<_> = report
        .endpoints
        .iter()
        .map(|e| (e.endpoint.as_str(), e.requests, e.errors))
        .collect();
    assert_eq!(
        endpoints,
        [("estimate", 59, 0), ("preimpl", 25, 9), ("stats", 16, 0)]
    );
    assert_eq!(
        report.server,
        ServerTotals {
            shed: 0,
            deadline_expired: 0,
            store_put_failures: 0,
            degraded: false,
            slowlog_considered: 101,
            slowlog_retained: 9,
        }
    );
}

/// With a zero threshold every request is "slow": the slowlog retains all
/// of them, span trees included, and the healthy ones carry `Ok`.
#[test]
fn zero_threshold_retains_every_request_with_its_span_tree() {
    let config = ServeConfig {
        workers: 2,
        slow_threshold: std::time::Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let s = spec(ModuleRole::Activation, 24, "retain_m");
    client.estimate_spec(&s).expect("estimate");
    let cold = client.preimpl(&s, "xc7z020", Some(1.6)).expect("preimpl");
    assert!(!cold.cached);

    let log = client.slowlog(0).expect("slowlog");
    assert_eq!(log.retained, 2);
    let preimpl = log
        .entries
        .iter()
        .find(|e| e.endpoint == "preimpl")
        .expect("preimpl trace retained");
    assert_eq!(preimpl.outcome, tms_obs::RequestOutcome::Ok);
    assert!(
        preimpl.span_count() > 0,
        "a cold preimpl leaves real pipeline spans in its trace"
    );
    assert!(
        preimpl
            .events
            .iter()
            .any(|e| matches!(e, tms_obs::TraceEvent::Count { key, .. } if key == "cache.miss")),
        "the cache miss is booked on the request's own trace"
    );
    // The limit parameter bounds the reply without touching retention —
    // and under a zero threshold the *previous* slowlog request was
    // itself retained, so the count has grown to three.
    let limited = client.slowlog(1).expect("slowlog limit 1");
    assert_eq!(limited.entries.len(), 1);
    assert_eq!(limited.retained, 3);
    assert_eq!(limited.entries[0].endpoint, "slowlog", "newest first");
    handle.stop();
}

/// `/metrics` carries the new observability families: build info with the
/// crate version, uptime in seconds, multi-window SLO burn-rate gauges,
/// and the slowlog retention counters.
#[test]
fn metrics_page_carries_burn_rates_build_info_and_slowlog_gauges() {
    let handle = start_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let s = spec(ModuleRole::Mvau, 30, "slo_m");
    client.estimate_spec(&s).expect("estimate");
    client
        .preimpl(&s, "no-such-device", None)
        .expect_err("unknown device must fail");

    let text = client.metrics_text().expect("metrics");
    let samples = tms_serve::prometheus::parse(&text).expect("page parses");

    let version = env!("CARGO_PKG_VERSION");
    assert_eq!(
        samples[&format!("tms_build_info{{version=\"{version}\"}}")],
        1.0
    );
    assert!(samples["tms_uptime_seconds"] >= 0.0);

    // One failed preimpl burns the 99.9%-availability budget hard in
    // every window; the healthy estimate endpoint burns nothing.
    for window in ["5m", "1h"] {
        let burn = samples[&format!(
            "tms_slo_burn_rate{{endpoint=\"preimpl\",window=\"{window}\",slo=\"availability\"}}"
        )];
        assert!(
            burn > 1.0,
            "one error in two requests must over-burn: {burn}"
        );
        let healthy = samples[&format!(
            "tms_slo_burn_rate{{endpoint=\"estimate\",window=\"{window}\",slo=\"availability\"}}"
        )];
        assert_eq!(healthy, 0.0);
    }

    assert_eq!(samples["tms_slowlog_retained_total"], 1.0);
    assert!(samples["tms_slowlog_considered_total"] >= 2.0);
    assert_eq!(samples["tms_slowlog_len"], 1.0);
    assert!(samples["tms_slowlog_threshold_us"] > 0.0);

    // The stats reply mirrors the SLO state in structured form.
    let stats = client.stats().expect("stats");
    assert!(!stats.slo.is_empty());
    let preimpl_slo = stats
        .slo
        .iter()
        .find(|s| s.endpoint == "preimpl")
        .expect("preimpl has an SLO");
    assert_eq!(preimpl_slo.windows.len(), 2);
    assert!(preimpl_slo
        .windows
        .iter()
        .all(|w| w.availability_burn > 1.0));
    assert!(stats.estimate.p50_us > 0, "quantiles populated");
    assert!(stats.estimate.p999_us >= stats.estimate.p50_us);
    handle.stop();
}
