//! Deterministic load generator for the serving layer.
//!
//! `N` client threads replay a seed-derived request mix against a running
//! server — in **closed loop** (each client issues its next request the
//! moment the previous reply lands) or **open loop** (arrivals are
//! scheduled at a fixed rate and latency is measured from the *intended*
//! start, so queueing delay counts against the server, not the client).
//! Every client-observed latency is kept, and p50/p99/p999 per endpoint
//! are exact nearest-rank quantiles of them ([`tms_obs::nearest_rank`]).
//!
//! The request *sequence* is a pure function of the seed (one splitmix64
//! stream per client), so the machine-independent outcome counts —
//! requests and errors per endpoint, shed/deadline/degraded totals, how
//! many traces the slowlog retained — are reproducible run-to-run; the
//! service tests pin them exactly. Only the latency figures vary with the
//! machine.

use crate::client::Client;
use crate::protocol::{ModuleSpec, SlowlogReport, StatsReport};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tms_cnn::ModuleRole;
use tms_obs::nearest_rank;

/// How the load generator paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Closed loop: each client issues requests back-to-back, so offered
    /// load adapts to the server (no coordinated omission, but no
    /// overload either).
    Closed,
    /// Open loop at this many requests per second *across all clients*:
    /// arrivals are scheduled on a fixed grid and latency runs from the
    /// scheduled start, so a stalled server accrues queueing delay
    /// instead of silently slowing the generator down.
    Open {
        /// Aggregate arrival rate, requests per second (> 0).
        rate_hz: f64,
    },
}

impl LoadMode {
    /// Short label for reports: `closed` or `open@<rate>`.
    pub fn label(&self) -> String {
        match self {
            LoadMode::Closed => "closed".to_string(),
            LoadMode::Open { rate_hz } => format!("open@{rate_hz}"),
        }
    }
}

/// Relative weights of the request kinds in the generated mix. The mix
/// deliberately includes a *failing* kind (`bad_device`: a `preimpl`
/// naming a device that does not exist) so error paths, SLO burn, and
/// slowlog retention are exercised deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMix {
    /// `estimate` requests (cheap, always succeed).
    pub estimate: u32,
    /// `preimpl` requests drawn from a small spec pool (first sight of a
    /// spec pays place-and-route, repeats are cache hits).
    pub preimpl: u32,
    /// `stats` requests.
    pub stats: u32,
    /// `preimpl` requests with an unknown device — guaranteed server-side
    /// errors.
    pub bad_device: u32,
}

impl Default for RequestMix {
    /// Mostly estimates, some cache-heavy preimpls, a trickle of stats
    /// and guaranteed errors.
    fn default() -> Self {
        RequestMix {
            estimate: 6,
            preimpl: 2,
            stats: 1,
            bad_device: 1,
        }
    }
}

impl RequestMix {
    fn total(&self) -> u32 {
        self.estimate + self.preimpl + self.stats + self.bad_device
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to drive.
    pub addr: SocketAddr,
    /// Concurrent client connections (threads).
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Seed of the request streams; same seed, same request sequence.
    pub seed: u64,
    /// Pacing discipline.
    pub mode: LoadMode,
    /// Request-kind weights.
    pub mix: RequestMix,
    /// Device the well-formed `preimpl` requests target.
    pub device: String,
    /// Distinct module specs in the `preimpl` pool — small pools are
    /// cache-friendly, large pools force fresh place-and-route work.
    pub spec_pool: usize,
}

impl LoadgenConfig {
    /// A closed-loop configuration with the default mix.
    pub fn closed(addr: SocketAddr, clients: usize, requests_per_client: usize, seed: u64) -> Self {
        LoadgenConfig {
            addr,
            clients,
            requests_per_client,
            seed,
            mode: LoadMode::Closed,
            mix: RequestMix::default(),
            device: "xc7z020".to_string(),
            spec_pool: 3,
        }
    }
}

/// Client-observed latency summary for one endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointLoadStats {
    /// Endpoint name.
    pub endpoint: String,
    /// Requests issued against it.
    pub requests: u64,
    /// Requests answered with an error (server-reported or transport).
    pub errors: u64,
    /// Median latency (nearest rank), microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency (nearest rank), microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency (nearest rank), microseconds.
    pub p999_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
}

/// Server-side totals sampled after the run, via `stats` and `slowlog`.
/// Everything here is machine-independent under a deterministic mix (with
/// enough workers that nothing is shed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerTotals {
    /// Connections shed with an overloaded reply.
    pub shed: u64,
    /// Requests whose result missed the deadline.
    pub deadline_expired: u64,
    /// Store puts that failed after retrying.
    pub store_put_failures: u64,
    /// Whether the server degraded to memory-only caching.
    pub degraded: bool,
    /// Requests the tail sampler looked at.
    pub slowlog_considered: u64,
    /// Requests whose full span tree the slowlog retained.
    pub slowlog_retained: u64,
}

/// The loadgen run's report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Report schema tag (`tms-bench-serve-v1`).
    pub schema: String,
    /// Seed the request streams derive from.
    pub seed: u64,
    /// Pacing label (`closed` or `open@<rate>`).
    pub mode: String,
    /// Concurrent clients.
    pub clients: u64,
    /// Requests per client.
    pub requests_per_client: u64,
    /// Requests issued, all endpoints.
    pub requests_total: u64,
    /// Requests that failed, all endpoints.
    pub errors_total: u64,
    /// Client-observed per-endpoint latency and outcome summary.
    pub endpoints: Vec<EndpointLoadStats>,
    /// Server-side robustness and slowlog totals after the run.
    pub server: ServerTotals,
    /// Wall-clock of the load phase, milliseconds (machine-dependent —
    /// never gated).
    pub wall_ms: f64,
}

/// splitmix64 — one deterministic stream per client.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One latency histogram per endpoint, merged across clients.
#[derive(Default)]
struct EndpointTally {
    requests: u64,
    errors: u64,
    latencies: Vec<u64>,
}

const ENDPOINTS: [&str; 3] = ["estimate", "preimpl", "stats"];

fn endpoint_index(name: &str) -> usize {
    ENDPOINTS.iter().position(|&e| e == name).expect("known")
}

/// The small deterministic spec pool the `preimpl` requests draw from.
fn spec_pool(n: usize) -> Vec<ModuleSpec> {
    let roles = [
        ModuleRole::Mvau,
        ModuleRole::Activation,
        ModuleRole::SlidingWindow,
    ];
    (0..n.max(1))
        .map(|i| ModuleSpec {
            role: roles[i % roles.len()],
            target_slices: 24 + 8 * (i as u32 % 4),
            name: format!("loadgen_{i}"),
            seed: 11 + i as u64,
        })
        .collect()
}

/// Drive the configured load against the server and collect the report.
/// Connects `clients` sockets, replays each client's seed-derived mix,
/// then samples the server's `stats` and `slowlog` endpoints for the
/// machine-independent totals.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<ServeBenchReport, String> {
    if config.clients == 0 || config.requests_per_client == 0 {
        return Err("loadgen needs at least one client and one request".to_string());
    }
    if config.mix.total() == 0 {
        return Err("the request mix has zero total weight".to_string());
    }
    if let LoadMode::Open { rate_hz } = config.mode {
        if rate_hz <= 0.0 || !rate_hz.is_finite() {
            return Err("open-loop rate must be positive".to_string());
        }
    }
    let pool = spec_pool(config.spec_pool);
    // tally[client][endpoint]
    let tallies: Vec<Mutex<[EndpointTally; 3]>> = (0..config.clients)
        .map(|_| Mutex::new(std::array::from_fn(|_| EndpointTally::default())))
        .collect();
    let started = Instant::now();
    let failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for (c, tally) in tallies.iter().enumerate() {
            let pool = &pool;
            let failure = &failure;
            scope.spawn(move || {
                if let Err(e) = drive_client(config, c, pool, tally, started) {
                    failure.lock().expect("failure slot").get_or_insert(e);
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("failure slot") {
        return Err(e);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Merge the per-client tallies into per-endpoint latency samples.
    let mut endpoints = Vec::new();
    let mut requests_total = 0u64;
    let mut errors_total = 0u64;
    for (i, &name) in ENDPOINTS.iter().enumerate() {
        let mut latencies = Vec::new();
        let mut requests = 0u64;
        let mut errors = 0u64;
        for tally in &tallies {
            let t = tally.lock().expect("tally");
            requests += t[i].requests;
            errors += t[i].errors;
            latencies.extend_from_slice(&t[i].latencies);
        }
        requests_total += requests;
        errors_total += errors;
        if requests == 0 {
            continue;
        }
        endpoints.push(EndpointLoadStats {
            endpoint: name.to_string(),
            requests,
            errors,
            p50_us: nearest_rank(&mut latencies, 0.50).unwrap_or(0),
            p99_us: nearest_rank(&mut latencies, 0.99).unwrap_or(0),
            p999_us: nearest_rank(&mut latencies, 0.999).unwrap_or(0),
            mean_us: latencies.iter().sum::<u64>() / latencies.len().max(1) as u64,
        });
    }

    // Sample the server's own counters for the machine-independent gate.
    let mut probe =
        Client::connect(config.addr).map_err(|e| format!("post-run stats connect: {e}"))?;
    let stats: StatsReport = probe.stats().map_err(|e| format!("post-run stats: {e}"))?;
    let slowlog: SlowlogReport = probe
        .slowlog(0)
        .map_err(|e| format!("post-run slowlog: {e}"))?;
    Ok(ServeBenchReport {
        schema: "tms-bench-serve-v1".to_string(),
        seed: config.seed,
        mode: config.mode.label(),
        clients: config.clients as u64,
        requests_per_client: config.requests_per_client as u64,
        requests_total,
        errors_total,
        endpoints,
        server: ServerTotals {
            shed: stats.robustness.shed,
            deadline_expired: stats.robustness.deadline_expired,
            store_put_failures: stats.robustness.store_put_failures,
            degraded: stats.robustness.degraded,
            slowlog_considered: slowlog.considered,
            slowlog_retained: slowlog.retained,
        },
        wall_ms,
    })
}

/// One client thread: replay `requests_per_client` mix draws.
fn drive_client(
    config: &LoadgenConfig,
    client_index: usize,
    pool: &[ModuleSpec],
    tally: &Mutex<[EndpointTally; 3]>,
    started: Instant,
) -> Result<(), String> {
    let mut client =
        Client::connect(config.addr).map_err(|e| format!("client {client_index} connect: {e}"))?;
    let mut rng = SplitMix(
        config
            .seed
            .wrapping_add((client_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mix = config.mix;
    // Open loop: this client owns every `clients`-th slot of the global
    // arrival grid.
    let interval = match config.mode {
        LoadMode::Closed => None,
        LoadMode::Open { rate_hz } => Some(Duration::from_secs_f64(
            config.clients as f64 / rate_hz.max(f64::MIN_POSITIVE),
        )),
    };
    for i in 0..config.requests_per_client {
        let draw = (rng.next() % mix.total() as u64) as u32;
        let t0 = match interval {
            None => Instant::now(),
            Some(step) => {
                let scheduled =
                    started + step.mul_f64(i as f64 + client_index as f64 / config.clients as f64);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                // Latency runs from the *scheduled* arrival: a server that
                // falls behind pays for its queue.
                scheduled.max(started)
            }
        };
        let (endpoint, ok) = if draw < mix.estimate {
            let spec = &pool[(rng.next() % pool.len() as u64) as usize];
            ("estimate", client.estimate_spec(spec).is_ok())
        } else if draw < mix.estimate + mix.preimpl {
            let spec = &pool[(rng.next() % pool.len() as u64) as usize];
            (
                "preimpl",
                client.preimpl(spec, &config.device, Some(1.6)).is_ok(),
            )
        } else if draw < mix.estimate + mix.preimpl + mix.stats {
            ("stats", client.stats().is_ok())
        } else {
            // Guaranteed server-side error: the device does not exist.
            let spec = &pool[(rng.next() % pool.len() as u64) as usize];
            (
                "preimpl",
                client.preimpl(spec, "no-such-device", None).is_ok(),
            )
        };
        let us = t0.elapsed().as_micros() as u64;
        let mut t = tally.lock().expect("tally");
        let slot = &mut t[endpoint_index(endpoint)];
        slot.requests += 1;
        if !ok {
            slot.errors += 1;
        }
        slot.latencies.push(us);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(requests: u64, errors: u64) -> ServeBenchReport {
        ServeBenchReport {
            schema: "tms-bench-serve-v1".to_string(),
            seed: 1,
            mode: "closed".to_string(),
            clients: 4,
            requests_per_client: 25,
            requests_total: requests,
            errors_total: errors,
            endpoints: vec![EndpointLoadStats {
                endpoint: "estimate".to_string(),
                requests,
                errors,
                p50_us: 100,
                p99_us: 900,
                p999_us: 2000,
                mean_us: 150,
            }],
            server: ServerTotals {
                shed: 0,
                deadline_expired: 0,
                store_put_failures: 0,
                degraded: false,
                slowlog_considered: requests,
                slowlog_retained: errors,
            },
            wall_ms: 12.5,
        }
    }

    #[test]
    fn mix_draws_are_deterministic() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix(43);
        assert_ne!(xs, (0..32).map(|_| c.next()).collect::<Vec<u64>>());
    }

    #[test]
    fn report_serde_round_trips() {
        let r = report(100, 10);
        let json = serde_json::to_string(&r).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
