//! Chaos suite: the serving stack under seeded fault plans. Every test
//! drives a real server over real TCP while deterministic faults fire at
//! the `serve.*`, `store.*`, and `flow.*` points, asserting the
//! robustness contract: no panics, no hangs, structured error replies
//! for every malformed input, explicit `overloaded` sheds when the
//! bounded queue fills, degraded memory-only serving when the store
//! fails, full recovery (warm start included) once faults clear, and no
//! cache lock held while a flow implements.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tms_cnn::ModuleRole;
use tms_estimator::{CfEstimator, EstimatorKind, FeatureSet};
use tms_fault::{FaultPlan, FaultPoint, Retry};
use tms_ml::Dataset;
use tms_obs::{RequestOutcome, TraceEvent};
use tms_serve::{serve, Client, ClientError, FlowResponse, ModuleSpec, Response, ServeConfig};

/// A quickly-trained linear estimator (same shape as the service tests):
/// the chaos suite cares about failure handling, not model quality.
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

fn spec(role: ModuleRole, target: u32, name: &str) -> ModuleSpec {
    ModuleSpec {
        role,
        target_slices: target,
        name: name.to_string(),
        seed: 11,
    }
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tms_chaos_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A retry policy with microsecond backoffs so injected faults don't
/// slow the suite down.
fn fast_retry(attempts: u32) -> Retry {
    Retry {
        base_backoff: Duration::from_micros(50),
        ..Retry::attempts(attempts)
    }
}

/// Read one reply line from a raw socket and parse the envelope.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply line arrives");
    serde_json::from_str(line.trim()).expect("reply parses as a Response")
}

/// Satellite regression: malformed, truncated, non-UTF-8, and oversized
/// lines each get a *structured* error reply — the old server silently
/// dropped the connection on some of these paths — and the server keeps
/// serving afterwards.
#[test]
fn malformed_input_gets_structured_error_replies() {
    let config = ServeConfig {
        workers: 2,
        max_line_bytes: 4096,
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let addr = handle.addr();

    // Garbage JSON: an error reply naming the parse failure, and the
    // connection stays usable.
    let raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = raw.try_clone().unwrap();
    let mut reader = BufReader::new(raw);
    writer.write_all(b"this is not json\n").unwrap();
    let resp = read_reply(&mut reader);
    assert!(!resp.ok);
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("bad request envelope"),
        "got {:?}",
        resp.error
    );

    // A line that is not valid UTF-8: error reply, connection survives.
    writer.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    let resp = read_reply(&mut reader);
    assert!(!resp.ok);
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("not valid UTF-8"),
        "got {:?}",
        resp.error
    );

    // The same connection still answers a valid request.
    writer
        .write_all(b"{\"id\":7,\"endpoint\":\"stats\",\"payload\":null}\n")
        .unwrap();
    let resp = read_reply(&mut reader);
    assert!(
        resp.ok,
        "connection survives malformed lines: {:?}",
        resp.error
    );

    // An oversized line: explicit error reply, then the connection closes
    // (the server never buffers past the limit).
    let big = TcpStream::connect(addr).expect("connect");
    big.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut big_writer = big.try_clone().unwrap();
    let mut big_reader = BufReader::new(big);
    big_writer.write_all(&vec![b'a'; 8192]).unwrap();
    let resp = read_reply(&mut big_reader);
    assert!(!resp.ok);
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("exceeds the 4096-byte limit"),
        "got {:?}",
        resp.error
    );
    let mut rest = String::new();
    assert_eq!(
        big_reader
            .read_line(&mut rest)
            .expect("EOF after the error"),
        0,
        "oversized input closes the connection"
    );

    // A truncated request — the client vanishes mid-line: the partial
    // still gets an envelope error reply.
    let trunc = TcpStream::connect(addr).expect("connect");
    trunc
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut trunc_writer = trunc.try_clone().unwrap();
    let mut trunc_reader = BufReader::new(trunc);
    trunc_writer
        .write_all(b"{\"id\":3,\"endpoint\":\"stats\"")
        .unwrap();
    trunc_writer.shutdown(Shutdown::Write).unwrap();
    let resp = read_reply(&mut trunc_reader);
    assert!(!resp.ok);
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("bad request envelope"),
        "got {:?}",
        resp.error
    );

    // The counters saw everything, and the server still serves.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.robustness.malformed >= 3, "{:?}", stats.robustness);
    assert_eq!(stats.robustness.oversized, 1);
    handle.stop();
}

/// Tentpole: a full accept queue sheds load with an explicit
/// `overloaded` reply instead of queueing without bound.
#[test]
fn full_accept_queue_sheds_with_overloaded_reply() {
    let config = ServeConfig {
        workers: 1,
        queue_limit: 1,
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let addr = handle.addr();

    // Occupy the single worker: after this reply the worker sits in the
    // connection's read loop and never returns to the queue.
    let mut busy = Client::connect(addr).expect("connect");
    busy.stats().expect("worker owns this connection");

    // Fill the single queue slot, give the acceptor time to enqueue it.
    let _queued = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(150));

    // The next connection must be shed, not silently parked.
    let shed = TcpStream::connect(addr).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(shed);
    let resp = read_reply(&mut reader);
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("overloaded"),
        "got {:?}",
        resp.error
    );

    let stats = busy.stats().expect("stats");
    assert!(stats.robustness.shed >= 1);
    handle.stop();
}

/// Tentpole: a request whose handling outlives the per-request deadline
/// answers with an explicit error instead of an ambiguous late result.
#[test]
fn deadline_overrun_returns_explicit_error() {
    let config = ServeConfig {
        workers: 2,
        request_deadline: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A cold 75-module flow comfortably exceeds a 5 ms deadline.
    let err = client
        .flow(1, "xc7z045", None)
        .expect_err("cold flow blows the deadline");
    match err {
        ClientError::Remote(m) => assert!(m.contains("deadline exceeded"), "{m}"),
        other => panic!("expected a server-side deadline error, got {other}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.robustness.deadline_expired >= 1);
    handle.stop();
}

/// Tentpole: transient injected place faults are absorbed by the
/// server's retry policy — the client sees a clean success.
#[test]
fn transient_place_faults_absorbed_by_server_retries() {
    let plan = Arc::new(FaultPlan::seeded(21));
    let config = ServeConfig {
        workers: 2,
        retry: fast_retry(5),
        ..ServeConfig::default()
    }
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    plan.fail_next(FaultPoint::FlowPlace, 2);
    let s = spec(ModuleRole::Mvau, 40, "chaos_mvau");
    let r = client
        .preimpl(&s, "xc7z020", Some(1.6))
        .expect("retries absorb both injected faults");
    assert!(!r.cached);
    assert_eq!(plan.injected(FaultPoint::FlowPlace), 2);

    // The implementation landed in the cache despite the turbulence.
    let r = client.preimpl(&s, "xc7z020", Some(1.6)).expect("preimpl");
    assert!(r.cached);
    let stats = client.stats().expect("stats");
    assert!(stats.robustness.faults_injected >= 2);
    handle.stop();
}

/// Tentpole: an injected `serve.read` fault kills one connection the way
/// a vanished peer would — and only that connection.
#[test]
fn injected_read_fault_drops_the_connection_not_the_server() {
    let plan = Arc::new(FaultPlan::seeded(8));
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let addr = handle.addr();

    plan.fail_next(FaultPoint::ServeRead, 1);
    let mut doomed = Client::connect(addr).expect("connect");
    let err = doomed
        .stats()
        .expect_err("the injected read fault drops the connection");
    match err {
        ClientError::Protocol(_) | ClientError::Io(_) => {}
        other => panic!("expected a dropped connection, got {other}"),
    }

    // The server itself is unharmed.
    let mut fine = Client::connect(addr).expect("connect");
    fine.stats().expect("a fresh connection serves normally");
    assert_eq!(plan.injected(FaultPoint::ServeRead), 1);
    handle.stop();
}

/// Tentpole, end to end: persistent store-append failures push the
/// server into degraded memory-only mode (flagged in `stats` and
/// `/metrics`) while it keeps answering; once the faults clear, a
/// restart on the same directory warm-starts from everything persisted
/// before the trouble began.
#[test]
fn store_failure_degrades_to_memory_only_and_recovers_on_restart() {
    let dir = unique_dir("degrade");
    std::fs::remove_dir_all(&dir).ok();
    let plan = Arc::new(FaultPlan::seeded(33));
    let config = ServeConfig {
        workers: 2,
        degrade_after: 2,
        retry: fast_retry(2),
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone())
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Healthy store: A is implemented and persisted.
    let a = spec(ModuleRole::Mvau, 40, "degrade_a");
    assert!(
        !client
            .preimpl(&a, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached
    );
    let stats = client.stats().expect("stats");
    assert!(!stats.robustness.degraded);
    assert!(stats.store.is_some());

    // Every store append now fails (after retries). Two consecutive
    // failed puts cross the degrade threshold.
    plan.set_rate(FaultPoint::StoreAppend, 1.0);
    let b = spec(ModuleRole::Activation, 30, "degrade_b");
    let c = spec(ModuleRole::SlidingWindow, 24, "degrade_c");
    client
        .preimpl(&b, "xc7z020", Some(1.6))
        .expect("a failed put is not the client's problem");
    client.preimpl(&c, "xc7z020", Some(1.6)).expect("preimpl");

    let stats = client.stats().expect("stats");
    assert!(
        stats.robustness.degraded,
        "threshold crossed: {:?}",
        stats.robustness
    );
    assert!(stats.store.is_none(), "the store is gone from stats");
    assert!(stats.robustness.store_put_failures >= 2);
    let page = client.metrics_text().expect("metrics");
    assert!(page.contains("tms_degraded 1"), "degraded flag on /metrics");

    // The tail sampler caught the casualties: the requests whose store
    // puts failed ran *degraded*, and the slowlog retained their full
    // span trees even though they answered fast and successfully.
    let log = client.slowlog(0).expect("slowlog");
    let degraded: Vec<_> = log
        .entries
        .iter()
        .filter(|e| e.outcome == RequestOutcome::Degraded)
        .collect();
    assert!(
        degraded.len() >= 2,
        "both degraded preimpls are retained: {:?}",
        log.entries
            .iter()
            .map(|e| (e.endpoint.as_str(), e.outcome.label()))
            .collect::<Vec<_>>()
    );
    assert!(degraded
        .iter()
        .all(|e| e.endpoint == "preimpl" && e.trace_id > 0));

    // Memory-only serving continues: the store's entries were carried
    // into the memory cache, and new work caches there too.
    assert!(
        client
            .preimpl(&a, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached,
        "store entries carried into the memory cache"
    );
    let d = spec(ModuleRole::Mvau, 36, "degrade_d");
    assert!(
        !client
            .preimpl(&d, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached
    );
    assert!(
        client
            .preimpl(&d, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached
    );

    // Faults lift; the degraded process is retired gracefully.
    plan.clear();
    handle.stop();

    // A fault-free restart on the same directory warm-starts from the
    // pre-fault library: A survives, B (whose put was injected to fail)
    // and D (memory-only) were never persisted.
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone());
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("rebind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(
        client
            .preimpl(&a, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached,
        "A persisted before the faults and warm-starts"
    );
    assert!(
        !client
            .preimpl(&b, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached,
        "B's put was injected to fail; it never reached disk"
    );
    let stats = client.stats().expect("stats");
    assert!(!stats.robustness.degraded, "the fresh process is healthy");
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// No lock spans an implementation: a `preimpl` hit sent while a cold flow
/// sits in an injected 2 s retry backoff is answered at once, while the
/// flow is still backing off.
#[test]
fn a_preimpl_hit_is_answered_while_a_cold_flow_implements() {
    let backoff = Duration::from_secs(2);
    let plan = Arc::new(FaultPlan::seeded(4));
    let config = ServeConfig {
        workers: 2,
        retry: Retry {
            base_backoff: backoff,
            max_backoff: backoff,
            jitter: 0.0,
            ..Retry::attempts(2)
        },
        ..ServeConfig::default()
    }
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let addr = handle.addr();
    let mut hits = Client::connect(addr).expect("connect");
    let s = spec(ModuleRole::Activation, 30, "lock_hit");
    assert!(!hits.preimpl(&s, "xc7z020", Some(1.6)).expect("warm").cached);

    // The cold flow's first tool run fails and backs off for 2 s.
    plan.fail_next(FaultPoint::FlowPlace, 1);
    let flow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.flow(9, "xc7z020", Some(1.6))
    });
    // Poll the plan, not `stats`, which takes the read lock too.
    let waiting = Instant::now();
    while plan.injected(FaultPoint::FlowPlace) == 0 {
        assert!(waiting.elapsed() < Duration::from_secs(30), "no tool run");
        std::thread::sleep(Duration::from_millis(1));
    }
    let sent = Instant::now();
    let hit = hits.preimpl(&s, "xc7z020", Some(1.6)).expect("hit");
    let took = sent.elapsed();
    assert!(hit.cached);
    assert!(took < Duration::from_secs(1), "the hit waited {took:?}");
    assert!(!flow.is_finished(), "the flow is still backing off");
    let cold = flow.join().expect("flow thread").expect("retried flow");
    assert_eq!(cold.fresh + cold.reused + cold.failed, 74);
    handle.stop();
}

/// A cold flow's failed store puts are its own: the fill returns them, so
/// they are booked on the flow's trace, which the slowlog keeps as
/// degraded, and they account for every failure the server counted.
#[test]
fn a_cold_flows_failed_puts_are_booked_on_its_own_trace() {
    let dir = unique_dir("flow_puts");
    std::fs::remove_dir_all(&dir).ok();
    let plan = Arc::new(FaultPlan::seeded(6));
    let config = ServeConfig {
        workers: 2,
        degrade_after: 0,
        retry: fast_retry(2),
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone())
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    plan.set_rate(FaultPoint::StoreAppend, 1.0);
    let cold = client
        .flow(6, "xc7z020", Some(1.6))
        .expect("a failed put is not the client's problem");
    let stats = client.stats().expect("stats");
    let log = client.slowlog(0).expect("slowlog");
    let entry = log
        .entries
        .iter()
        .find(|e| e.endpoint == "flow")
        .expect("the degraded flow is retained");
    assert_eq!(entry.outcome, RequestOutcome::Degraded);
    let booked: u64 = entry
        .events
        .iter()
        .map(|e| match e {
            TraceEvent::Count { key, delta, .. } if key == "serve.store_error" => *delta,
            _ => 0,
        })
        .sum();
    assert_eq!((cold.fresh, booked), (72, 72));
    assert_eq!(stats.robustness.store_put_failures, booked);
    assert!(!stats.robustness.degraded, "degradation is off");
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two concurrent never-seen flows of one design may both implement a
/// module, but they agree on every result, and a third flow reuses every
/// module they implemented.
#[test]
fn concurrent_cold_flows_of_one_design_agree() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(2));
    let flows: Vec<FlowResponse> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.flow(12, "xc7z020", Some(1.6)).expect("flow")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("flow thread"))
        .collect();
    let qor = |r: &FlowResponse| {
        (
            r.implemented,
            r.failed,
            r.placed_count,
            r.unplaced_count,
            r.total_tool_runs,
        )
    };
    assert_eq!(qor(&flows[0]), qor(&flows[1]));
    for r in &flows {
        assert_eq!(r.fresh + r.reused + r.failed, 74);
    }
    let mut client = Client::connect(addr).expect("connect");
    let third = client.flow(12, "xc7z020", Some(1.6)).expect("flow");
    assert_eq!((third.fresh, third.reused), (0, third.implemented));
    assert_eq!(qor(&third), qor(&flows[0]));
    handle.stop();
}
