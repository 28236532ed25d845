//! Resilient wrappers around the flow: retry transient tool-run faults.
//!
//! Real CAD tool runs fail transiently — a licence hiccup, an OOM-killed
//! placer, a filesystem blip — and the paper's flow is built around
//! re-running placement with corrected parameters. These wrappers give
//! the reproduction the same posture: a [`Resilience`] bundle (a
//! [`FaultInjector`] consulted at `flow.place`/`flow.route` plus a
//! [`Retry`] policy) turns [`implement_module`] and the cached flow into
//! retry loops that absorb injected transient faults and surface only
//! genuine, permanent errors. [`crate::run_rw_flow_cached`] builds its
//! bundle from the cache's fault injector and retry policy
//! ([`crate::ImplementationCache::with_fault`] and
//! [`with_retry`](crate::ImplementationCache::with_retry)).
//!
//! With the default (unarmed) resilience the wrappers compile down to the
//! plain calls — one `armed()` check, no per-module overhead — so the
//! production path pays nothing for the instrumentation.

use crate::rwflow::{implement_module, ImplementedModule, RwFlowConfig};
use tms_device::Device;
use tms_fault::{FaultInjector, FaultPoint, Retry};
use tms_netlist::Netlist;

/// Marker prefix of errors produced by injected faults — the transient
/// class the retry loops are allowed to absorb.
const INJECTED: &str = "injected fault";

/// The resilience bundle threaded through the fault-aware flow entry
/// points: where faults come from, and how hard to retry them.
#[derive(Clone, Copy)]
pub struct Resilience<'a> {
    /// Injector consulted at [`FaultPoint::FlowPlace`] (once per
    /// tool-run attempt) and [`FaultPoint::FlowRoute`] (before the
    /// stitch). Unarmed injectors short-circuit the whole wrapper.
    pub fault: &'a dyn FaultInjector,
    /// Retry policy for transient faults.
    pub retry: Retry,
}

impl Default for Resilience<'static> {
    /// No injection, no retries: behaves exactly like the plain flow.
    fn default() -> Self {
        Resilience {
            fault: tms_fault::noop(),
            retry: Retry::none(),
        }
    }
}

impl<'a> Resilience<'a> {
    /// A bundle injecting from `fault` and retrying under `retry`.
    pub fn new(fault: &'a dyn FaultInjector, retry: Retry) -> Resilience<'a> {
        Resilience { fault, retry }
    }

    /// Whether an error string is a transient injected fault (retryable)
    /// rather than a genuine flow error (permanent).
    pub fn is_transient(e: &str) -> bool {
        e.starts_with(INJECTED)
    }
}

/// [`implement_module`] under a [`Resilience`] bundle: each tool-run
/// attempt first consults `flow.place`; an injected fault counts as a
/// failed (transient) attempt and is retried with backoff, while real
/// implementation errors abort immediately. Exhausting the budget
/// returns the final injected-fault error.
pub fn implement_module_resilient(
    name: &str,
    netlist: &Netlist,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    res: &Resilience<'_>,
) -> Result<ImplementedModule, String> {
    if !res.fault.armed() {
        return implement_module(name, netlist, device, cfg);
    }
    let out = res.retry.run(
        |e: &String| Resilience::is_transient(e),
        |attempt| {
            if attempt > 1 {
                cfg.obs.count("flow.place.retry", 1);
            }
            if res.fault.should_fail(FaultPoint::FlowPlace) {
                cfg.obs.count("fault.flow.place", 1);
                return Err(format!(
                    "{INJECTED}: flow.place ({name}, attempt {attempt})"
                ));
            }
            implement_module(name, netlist, device, cfg)
        },
    );
    out.map_err(|failed| failed.last)
}

/// Consult `flow.route` before the stitch, absorbing transient faults
/// under the retry budget. The stitch itself is deterministic in-process
/// work; the injection models the external routing tool failing and
/// being re-invoked. Returns how many faults were absorbed.
pub(crate) fn absorb_route_faults(cfg: &RwFlowConfig<'_>, res: &Resilience<'_>) -> u64 {
    if !res.fault.armed() {
        return 0;
    }
    let mut absorbed = 0u64;
    let mut attempt = 0u32;
    while res.fault.should_fail(FaultPoint::FlowRoute) {
        cfg.obs.count("fault.flow.route", 1);
        absorbed += 1;
        attempt += 1;
        if attempt >= res.retry.max_attempts.max(1) {
            cfg.obs.count("fault.flow.route.exhausted", 1);
            break;
        }
        std::thread::sleep(res.retry.backoff_for(attempt));
    }
    absorbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ImplementationCache;
    use crate::rwflow::CfPolicy;
    use std::sync::Arc;
    use tms_cnn::cnvw1a1;
    use tms_fault::FaultPlan;
    use tms_pblock::CfSearch;
    use tms_place::PlacementModel;
    use tms_stitch::StitchConfig;

    fn cfg(seed: u64) -> RwFlowConfig<'static> {
        RwFlowConfig {
            policy: CfPolicy::Minimal(CfSearch::wide()),
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig::fast(seed),
            portfolio: None,
            mem_pack: tms_pack::MemPackConfig::off(),
            obs: tms_obs::noop(),
            seed,
        }
    }

    #[test]
    fn default_resilience_matches_the_plain_flow() {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        let plain = implement_module(&m.name, &m.netlist, &dev, &cfg(3)).unwrap();
        let res = Resilience::default();
        let wrapped = implement_module_resilient(&m.name, &m.netlist, &dev, &cfg(3), &res).unwrap();
        assert_eq!(plain.pblock.rect, wrapped.pblock.rect);
        assert_eq!(plain.cf, wrapped.cf);
        assert_eq!(plain.attempts, wrapped.attempts);
    }

    #[test]
    fn transient_place_faults_are_retried_to_success() {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        // Two scheduled faults, three attempts: the third succeeds.
        let plan = FaultPlan::seeded(5).with_fail_next(FaultPoint::FlowPlace, 2);
        let retry = Retry {
            base_backoff: std::time::Duration::from_micros(50),
            ..Retry::attempts(3)
        };
        let res = Resilience::new(&plan, retry);
        let out = implement_module_resilient(&m.name, &m.netlist, &dev, &cfg(3), &res)
            .expect("third attempt succeeds");
        let plain = implement_module(&m.name, &m.netlist, &dev, &cfg(3)).unwrap();
        assert_eq!(
            out.pblock.rect, plain.pblock.rect,
            "result unaffected by retries"
        );
        assert_eq!(plan.injected(FaultPoint::FlowPlace), 2);
    }

    #[test]
    fn exhausted_budget_surfaces_the_injected_fault() {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        let plan = FaultPlan::seeded(5).with_rate(FaultPoint::FlowPlace, 1.0);
        let retry = Retry {
            base_backoff: std::time::Duration::from_micros(50),
            ..Retry::attempts(2)
        };
        let res = Resilience::new(&plan, retry);
        let err = implement_module_resilient(&m.name, &m.netlist, &dev, &cfg(3), &res)
            .expect_err("every attempt is injected");
        assert!(Resilience::is_transient(&err), "{err}");
        assert_eq!(plan.injected(FaultPoint::FlowPlace), 2, "one per attempt");
    }

    #[test]
    fn resilient_cached_flow_recovers_from_scattered_faults() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        // 20% of place attempts fail. Which hits land on which module
        // depends on rayon's interleaving, so the test budgets enough
        // attempts (10) that a module-level failure is ~0.2^10 — never.
        let plan = Arc::new(
            FaultPlan::seeded(11)
                .with_rate(FaultPoint::FlowPlace, 0.2)
                .with_fail_next(FaultPoint::FlowRoute, 1),
        );
        let retry = Retry {
            base_backoff: std::time::Duration::from_micros(50),
            ..Retry::attempts(10)
        };
        let mut cache = ImplementationCache::new()
            .with_fault(Arc::clone(&plan) as Arc<dyn FaultInjector>)
            .with_retry(retry);
        let faulty = crate::run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(
            faulty.result.failed.len(),
            0,
            "retries absorbed every fault"
        );
        assert_eq!(faulty.fresh, 74);
        assert!(
            plan.injected(FaultPoint::FlowPlace) > 0,
            "faults really fired"
        );
        assert_eq!(plan.injected(FaultPoint::FlowRoute), 1);

        // Same design through a clean flow: identical stitched outcome.
        let mut clean_cache = ImplementationCache::new();
        let clean = crate::run_rw_flow_cached(&design, &dev, &cfg(5), &mut clean_cache);
        assert_eq!(
            faulty.result.stitch.placed_count,
            clean.result.stitch.placed_count
        );
    }
}
