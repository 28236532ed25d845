//! `serve`: an in-process, store-backed `tms-serve` with 2 workers and two
//! clients on their own connections and threads.
//!
//! * A closed-loop client sends `flow` requests (cnvW1A1, minimal CF,
//!   packing off, alternating xc7z020 and xc7z045); one in five names a
//!   never-seen design seed, the rest repeat a design set-up already
//!   compiled on both devices.
//! * An open-loop client sends `preimpl` requests for modules set-up
//!   already implemented, at a fixed rate, timing each from when it was
//!   due.
//!
//! The clients use disjoint keys, so no reply depends on how they
//! interleave. This is the only workload with concurrent callers, the wire
//! protocol, WAL appends, and cache hits that wait out a flow's write lock.

use crate::common::{
    class_report, mean, ms, percentile, sequence_len, timed, OpRecord, Pass, Qor, Rng, PASSES,
};
use crate::layers::per_layer;
use crate::trace::{Ctx, Tracer};
use crate::{Args, RunResult, OUT_DIR};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tms_core::cnn::ModuleRole;
use tms_core::device::Device;
use tms_core::obs::Phase;
use tms_core::serve::{
    serve, Client, FlowResponse, ModuleSpec, PreimplResponse, ServeConfig, ServerHandle,
    StatsReport,
};
use tms_core::MacroSizingFlow;

/// Flow requests per second of `--seconds` on a 2-core host.
const RATE: f64 = 120.0;
/// Gap between open-loop `preimpl` requests: long enough that a hit
/// waiting out a cold flow is rarely still running when the next is due.
const HIT_INTERVAL: Duration = Duration::from_millis(25);
const WARM_SEEDS: usize = 8;
/// Seed of the warm designs: the same for every run, so the QoR means,
/// which the warm 80% dominate, do not swing with the run's seed. The
/// run's seed draws the never-seen designs and the hit specs.
const WARM_POOL_SEED: u64 = 0x706f_6f6c;
const HIT_SPECS: usize = 32;
const WARMUP: u64 = 10;
/// Flow requests per cycle of the op mix (warm seeds × devices, with the
/// never-seen fifth).
const CYCLE: usize = 40;
/// Devices the flow requests and the `preimpl` specs alternate over.
const DEVICES: [&str; 2] = ["xc7z020", "xc7z045"];
/// Every flow request compiles a cnvW1A1: 74 unique modules, 175 blocks.
const UNIQUE: usize = 74;
const INSTANCES: usize = 175;

/// The flow requests of a run: warm designs set-up compiled, plus the
/// seed never-seen designs are drawn from.
struct FlowPlan {
    warm: Vec<u64>,
    seed: u64,
}

impl FlowPlan {
    /// Request `i`: (design seed, never seen before).
    fn op(&self, i: u64, cold_seeds: &mut HashSet<u64>) -> (u64, bool) {
        if i % 5 == 4 {
            let mut rng = Rng::new(self.seed.wrapping_add(i.wrapping_mul(0x51_7cc1)));
            loop {
                let s = rng.next() >> 20;
                if !self.warm.contains(&s) && cold_seeds.insert(s) {
                    return (s, true);
                }
            }
        }
        (
            self.warm[((i - i / 5) % self.warm.len() as u64) as usize],
            false,
        )
    }
}

/// What set-up leaves behind: a warm server and its two clients.
struct Warm {
    handle: ServerHandle,
    store: PathBuf,
    flows: Client,
    hits: Client,
    plan: FlowPlan,
    /// Each pre-implemented spec with its device and set-up reply.
    specs: Vec<(ModuleSpec, &'static str, PreimplResponse)>,
    train: Duration,
}

impl Warm {
    fn stop(self) {
        drop(self.flows);
        drop(self.hits);
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Set-up: train the estimator the server loads, start the server on a
/// fresh store, and warm both request pools.
fn setup(seed: u64, rep: usize) -> Result<Warm, String> {
    let ((est, features), train) = timed(|| {
        MacroSizingFlow::new(Device::xc7z020())
            .with_dataset_size(600)
            .with_seed(seed)
            .train()
            .into_parts()
    });
    let store = PathBuf::from(OUT_DIR).join(format!("serve-store-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_store_dir(&store);
    let handle = serve(config, est, features).map_err(|e| format!("serve: {e}"))?;
    let connect = || Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"));
    let (mut flows, mut hits) = (connect()?, connect()?);
    let mut rng = Rng::new(WARM_POOL_SEED);
    let mut warm = Vec::new();
    for _ in 0..WARM_SEEDS {
        let w = rng.next() >> 20;
        for device in DEVICES {
            flows
                .flow(w, device, None)
                .map_err(|e| format!("warming flow: {e}"))?;
        }
        warm.push(w);
    }
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let roles = [
        ModuleRole::Mvau,
        ModuleRole::SlidingWindow,
        ModuleRole::Activation,
        ModuleRole::MaxPool,
    ];
    let mut specs = Vec::new();
    for k in 0..HIT_SPECS {
        let spec = ModuleSpec {
            role: roles[k % roles.len()],
            target_slices: 20 + rng.below(120) as u32,
            name: format!("hit_{k}"),
            seed: rng.next() >> 20,
        };
        let device = DEVICES[k / roles.len() % DEVICES.len()];
        let reply = hits
            .preimpl(&spec, device, None)
            .map_err(|e| format!("warming preimpl: {e}"))?;
        specs.push((spec, device, reply));
    }
    Ok(Warm {
        handle,
        store,
        flows,
        hits,
        plan: FlowPlan { warm, seed },
        specs,
        train,
    })
}

/// One answered request with its timestamps; `due` is when an open-loop
/// request should have been sent (`sent` for closed-loop ones).
struct Reply<T> {
    due: Instant,
    sent: Instant,
    done: Instant,
    reply: Result<T, String>,
    class: &'static str,
}

impl<T> Reply<T> {
    fn record(&self, qor: impl Fn(&T) -> Qor) -> OpRecord {
        OpRecord {
            class: self.class,
            ms: ms(self.done - self.due),
            qor: self.reply.as_ref().map_or(Qor::missing(), qor),
            failure: self.reply.as_ref().err().cloned(),
        }
    }
}

impl Qor {
    fn missing() -> Qor {
        Qor {
            instances: 0,
            placed: 0,
            hpwl: f64::NAN,
            tool_runs: 0,
            macro_area: 0,
            bram36: 0,
        }
    }
}

/// The reply invariants of a `flow` request.
fn flow_check(r: FlowResponse, cold: bool) -> Result<FlowResponse, String> {
    if r.implemented + r.failed != UNIQUE || r.failed != 0 {
        return Err(format!(
            "implemented {} + failed {}",
            r.implemented, r.failed
        ));
    }
    if r.placed_count + r.unplaced_count != INSTANCES {
        return Err(format!(
            "placed {} + unplaced {}",
            r.placed_count, r.unplaced_count
        ));
    }
    // A never-seen design may still share modules with cached ones; a
    // warm design must come wholly from the cache.
    let all_reused = r.reused == UNIQUE && r.fresh == 0 && r.tool_runs_spent == 0;
    if !cold && !all_reused {
        return Err(format!(
            "warm flow reused {} fresh {} spent {}",
            r.reused, r.fresh, r.tool_runs_spent
        ));
    }
    Ok(r)
}

/// A hit must come from the cache with its set-up implementation.
fn hit_check(r: PreimplResponse, setup: &PreimplResponse) -> Result<PreimplResponse, String> {
    let key = |r: &PreimplResponse| (r.cf.to_bits(), r.pblock_w, r.pblock_h, r.used_slices);
    if !r.cached || key(&r) != key(setup) {
        return Err(format!("hit {} is not its set-up implementation", r.name));
    }
    Ok(r)
}

fn flow_qor(r: &FlowResponse) -> Qor {
    Qor {
        instances: (r.placed_count + r.unplaced_count) as u64,
        placed: r.placed_count as u64,
        tool_runs: u64::from(r.tool_runs_spent),
        ..Qor::missing()
    }
}

/// `n` flow requests back to back on one connection.
fn run_flows(
    client: &mut Client,
    plan: &FlowPlan,
    n: u64,
    cold_seeds: &mut HashSet<u64>,
) -> Vec<Reply<FlowResponse>> {
    (0..n)
        .map(|i| {
            let (seed, cold) = plan.op(i, cold_seeds);
            let sent = Instant::now();
            let reply = client
                .flow(seed, DEVICES[(i % 2) as usize], None)
                .map_err(|e| e.to_string())
                .and_then(|r| flow_check(r, cold));
            Reply {
                due: sent,
                sent,
                done: Instant::now(),
                reply,
                class: if cold { "cold" } else { "warm" },
            }
        })
        .collect()
}

/// `n` open-loop `preimpl` requests, the k-th due `(k + 1)` intervals
/// after `start`.
fn run_hits(
    client: &mut Client,
    specs: &[(ModuleSpec, &'static str, PreimplResponse)],
    order: &[usize],
    n: u64,
    start: Instant,
) -> Vec<Reply<PreimplResponse>> {
    (0..n)
        .map(|k| {
            let due = start + HIT_INTERVAL * (k as u32 + 1);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (spec, device, setup) = &specs[order[k as usize % order.len()]];
            let sent = Instant::now();
            let reply = client
                .preimpl(spec, device, None)
                .map_err(|e| e.to_string())
                .and_then(|r| hit_check(r, setup));
            Reply {
                due,
                sent,
                done: Instant::now(),
                reply,
                class: "hit",
            }
        })
        .collect()
}

/// One measured window: warm-up, stats, both clients, stats again.
struct Window {
    flows: Vec<Reply<FlowResponse>>,
    hits: Vec<Reply<PreimplResponse>>,
    elapsed: Duration,
    before: StatsReport,
    after: StatsReport,
}

/// Untimed warm-up requests from their own seed; returns the never-seen
/// seeds they used, which the timed requests must not reuse.
fn warm_up(w: &mut Warm, order: &[usize]) -> HashSet<u64> {
    let plan = FlowPlan {
        warm: w.plan.warm.clone(),
        seed: w.plan.seed ^ 0x7761_726d,
    };
    let mut cold_seeds = HashSet::new();
    run_flows(&mut w.flows, &plan, WARMUP, &mut cold_seeds);
    run_hits(&mut w.hits, &w.specs, order, WARMUP, Instant::now());
    cold_seeds
}

fn window(w: &mut Warm, n_flows: u64, n_hits: u64, order: &[usize]) -> Result<Window, String> {
    let mut cold_seeds = warm_up(w, order);
    let (flows, hits, plan, specs) = (&mut w.flows, &mut w.hits, &w.plan, &w.specs);
    let before = flows.stats().map_err(|e| format!("stats: {e}"))?;
    let (flow_replies, hit_replies, elapsed) = std::thread::scope(|s| {
        let start = Instant::now();
        let hit_client = s.spawn(move || run_hits(hits, specs, order, n_hits, start));
        let flow_replies = run_flows(flows, plan, n_flows, &mut cold_seeds);
        let elapsed = start.elapsed();
        (
            flow_replies,
            hit_client.join().expect("hit client panicked"),
            elapsed,
        )
    });
    let after = flows.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(Window {
        flows: flow_replies,
        hits: hit_replies,
        elapsed,
        before,
        after,
    })
}

fn observation(s: &StatsReport, key: &str) -> (u64, f64) {
    s.pipeline
        .observations
        .iter()
        .find(|o| o.key == key)
        .map_or((0, 0.0), |o| (o.count, o.sum))
}

impl Window {
    /// Mean final stitch cost of the window's flows, from the server's
    /// own `stitch.cost` observations: replies carry no cost.
    fn hpwl(&self) -> Result<f64, String> {
        let (c0, s0) = observation(&self.before, "stitch.cost");
        let (c1, s1) = observation(&self.after, "stitch.cost");
        if c1 - c0 != self.flows.len() as u64 {
            return Err(format!(
                "{} stitches for {} flow requests",
                c1 - c0,
                self.flows.len()
            ));
        }
        Ok((s1 - s0) / (c1 - c0) as f64)
    }

    fn counter(&self, key: &str) -> u64 {
        self.after.pipeline.counter(key) - self.before.pipeline.counter(key)
    }

    fn phase_ms(&self, phase: Phase) -> f64 {
        let us = |s: &StatsReport| s.pipeline.phase(phase).map_or(0, |p| p.total_us);
        (us(&self.after) - us(&self.before)) as f64 / 1e3
    }

    fn records(&self) -> (Vec<OpRecord>, Vec<OpRecord>) {
        (
            self.flows.iter().map(|r| r.record(flow_qor)).collect(),
            self.hits
                .iter()
                .map(|r| r.record(|_| Qor::missing()))
                .collect(),
        )
    }
}

/// A fixed, seed-drawn order over the hit specs.
fn hit_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..HIT_SPECS).collect();
    let mut rng = Rng::new(seed ^ 0x4b17);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn hit_samples(hits: &[OpRecord]) -> Vec<(f64, &'static str)> {
    hits.iter().map(|o| (o.ms, o.class)).collect()
}

pub fn run(args: &Args) -> RunResult {
    // One pass's window; an untraced run makes PASSES passes.
    let n_flows = sequence_len(RATE / PASSES as f64, args.seconds, CYCLE);
    // Hits span ~90% of the flow window, so all of them meet flow traffic.
    let n_hits = (n_flows as f64 / RATE * 0.9 / HIT_INTERVAL.as_secs_f64()) as u64;
    let order = hit_order(args.seed);
    let mut out = RunResult::default();
    // Set up afresh, measure one window, and stop the server.
    let pass = |rep: usize, out: &mut RunResult| -> Option<(Window, Duration, Duration)> {
        let (warm, d) = timed(|| setup(args.seed, rep));
        let result = warm.and_then(|mut w| {
            let win = window(&mut w, n_flows, n_hits, &order);
            let train = w.train;
            w.stop();
            win.map(|win| (win, d, train))
        });
        result.map_err(|e| out.problems.push(e)).ok()
    };

    if !args.trace {
        let mut passes = Vec::new();
        for rep in 0..PASSES {
            let Some((win, d, _)) = pass(rep, &mut out) else {
                return out;
            };
            let (flows, hits) = win.records();
            out.book(&hits);
            class_report(
                &format!("hit pass {rep}"),
                &hit_samples(&hits),
                &[("p50", 0.5), ("p90", 0.9)],
            );
            let hpwl = win.hpwl().unwrap_or_else(|e| {
                out.problems.push(e);
                f64::NAN
            });
            passes.push(Pass {
                setup_s: d.as_secs_f64(),
                ops: flows,
                hpwl: Some(hpwl),
            });
        }
        out.finish(&passes);
        return out;
    }

    // Traced run: the same window twice on identical set-ups, the second
    // with spans; the flow replies must agree exactly.
    let mut runs = Vec::new();
    for rep in 0..2 {
        let Some((win, _, train)) = pass(rep, &mut out) else {
            return out;
        };
        runs.push((win, train));
    }
    let (traced, train) = runs.pop().expect("two runs");
    let (untraced, _) = runs.pop().expect("two runs");
    let (flows, hits) = traced.records();
    let (flows_u, hits_u) = untraced.records();
    for ops in [&flows, &hits, &flows_u, &hits_u] {
        out.book(ops);
    }
    let same = flows.len() == flows_u.len()
        && flows
            .iter()
            .zip(&flows_u)
            .all(|(a, b)| a.qor.same_as(&b.qor));
    if !same || traced.hpwl().map(f64::to_bits) != untraced.hpwl().map(f64::to_bits) {
        out.problems
            .push("traced window does not reproduce the untraced flow replies".to_string());
    }
    let tracer = Tracer::new();
    for (i, r) in traced.flows.iter().enumerate() {
        let at = tracer.record(
            Ctx {
                op: i as u32,
                parent: 0,
            },
            "op",
            r.sent,
            r.done,
        );
        if let Ok(f) = &r.reply {
            let server = r.done - Duration::from_micros(f.micros).min(r.done - r.sent);
            tracer.record(at, "serve.server", server, r.done);
        }
    }
    let base = traced.flows.len() as u32;
    for (k, r) in traced.hits.iter().enumerate() {
        let at = tracer.record(
            Ctx {
                op: base + k as u32,
                parent: 0,
            },
            "hit",
            r.due,
            r.done,
        );
        tracer.record(at, "serve.gen_late", r.due, r.sent);
        if let Ok(h) = &r.reply {
            let server = r.done - Duration::from_micros(h.micros).min(r.done - r.sent);
            tracer.record(at, "serve.server", server, r.done);
        }
    }
    out.write_trace(args, &tracer.spans());

    let n = flows.len().max(1) as f64;
    let ok_flows: Vec<&FlowResponse> = traced
        .flows
        .iter()
        .filter_map(|r| r.reply.as_ref().ok())
        .collect();
    let ok_hits: Vec<&Reply<PreimplResponse>> =
        traced.hits.iter().filter(|r| r.reply.is_ok()).collect();
    let micros = |r: &Reply<PreimplResponse>| r.reply.as_ref().map_or(0, |h| h.micros) as f64 / 1e3;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (before, after) = (&traced.before, &traced.after);
    let store = |s: &StatsReport| {
        s.store
            .as_ref()
            .map_or((0, 0), |s| (s.appended, s.io_errors))
    };
    let hit_ms = hit_samples(&hits);
    let mut v: HashMap<&'static str, f64> = HashMap::new();
    v.insert(
        "serve.flow_server_ms",
        mean(ok_flows.iter().map(|f| f.micros as f64 / 1e3)),
    );
    v.insert(
        "serve.flow_queue_ms",
        mean(traced.flows.iter().filter_map(|r| {
            r.reply
                .as_ref()
                .ok()
                .map(|f| ms(r.done - r.sent) - f.micros as f64 / 1e3)
        })),
    );
    v.insert(
        "serve.hit_server_ms",
        mean(ok_hits.iter().map(|r| micros(r))),
    );
    v.insert(
        "serve.hit_queue_ms",
        mean(ok_hits.iter().map(|r| ms(r.done - r.sent) - micros(r))),
    );
    v.insert(
        "serve.gen_late_ms",
        mean(traced.hits.iter().map(|r| ms(r.sent - r.due))),
    );
    v.insert("serve.hit_p50_ms", percentile(&hit_ms, 0.5).0);
    v.insert("serve.hit_p90_ms", percentile(&hit_ms, 0.9).0);
    v.insert("store.appended", (store(after).0 - store(before).0) as f64);
    v.insert("store.io_errors", store(after).1 as f64);
    v.insert("verify.failures", after.integrity.verify_failures as f64);
    v.insert("verify.quarantined", after.integrity.quarantined as f64);
    v.insert(
        "cache.hit_frac",
        ratio(
            after.cache.hits - before.cache.hits,
            after.cache.hits - before.cache.hits + after.cache.misses - before.cache.misses,
        ),
    );
    v.insert("cache.quarantined", after.integrity.quarantined as f64);
    v.insert("pblock.search_ms", traced.phase_ms(Phase::Place) / n);
    v.insert(
        "pblock.tool_runs",
        mean(flows.iter().map(|o| o.qor.tool_runs as f64)),
    );
    v.insert(
        "pblock.feasible_frac",
        ratio(
            traced.counter("pblock.search.feasible"),
            traced.counter("pblock.search.tool_runs"),
        ),
    );
    v.insert("estimator.train_s", train.as_secs_f64());
    v.insert("stitch.stitch_ms", traced.phase_ms(Phase::Stitch) / n);
    let moves = traced.counter("stitch.moves");
    v.insert("stitch.moves", moves as f64 / n);
    v.insert(
        "stitch.legal_frac",
        1.0 - ratio(traced.counter("stitch.illegal"), moves),
    );
    let accepted = traced.counter("stitch.accepted");
    v.insert(
        "stitch.accept_frac",
        ratio(accepted, accepted + traced.counter("stitch.rejected")),
    );
    v.insert(
        "fail_frac",
        flows.iter().filter(|o| o.failure.is_some()).count() as f64 / n,
    );
    v.insert(
        "trace.overhead_frac",
        traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    );
    out.metrics = per_layer(&v);
    out
}
