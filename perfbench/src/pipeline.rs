//! The traced pipeline: `run_rw_flow` and `run_rw_flow_cached` rebuilt
//! from the same public functions they call, with a span around each
//! layer call. The module stage runs in parallel exactly as the library
//! runs it. A traced op must reproduce its untraced twin bit for bit;
//! [`Outcome`] is what the two are compared on.

use crate::trace::{Ctx, Tracer};
use rayon::prelude::*;
use std::collections::HashMap;
use tms_core::cnn::CnvDesign;
use tms_core::device::Device;
use tms_core::estimator::ModuleFeatures;
use tms_core::flow::{
    stitch_implemented, CfPolicy, ImplementationCache, ImplementedModule, MemPackConfig,
    ModuleFingerprint, RwFlowConfig, RwFlowResult, VerifiedLookup,
};
use tms_core::netlist::Netlist;
use tms_core::pack::pack_design;
use tms_core::pblock::{guided_search_observed, min_feasible_cf_observed, PBlockGenerator};
use tms_core::place::{detail::module_key, quick_place, PlacementModel};
use tms_core::stitch::StitchConfig;
use tms_core::synth::pack;
use tms_core::timing::{estimate, TimingModel};
use tms_core::verify::Auditor;
use tms_core::TrainedEstimator;

/// The flow configuration every workload builds its ops from.
pub fn flow_config<'a>(
    policy: CfPolicy<'a>,
    seed: u64,
    stitch: StitchConfig,
    mem_pack: MemPackConfig,
) -> RwFlowConfig<'a> {
    RwFlowConfig {
        policy,
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch,
        portfolio: None,
        mem_pack,
        seed,
        obs: tms_core::obs::noop(),
    }
}

/// What a traced op must reproduce: stitch positions, final cost, tool
/// runs, and every module's CF and PBlock.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    positions: Vec<Option<(u32, u32)>>,
    final_cost_bits: u64,
    tool_runs: u32,
    modules: Vec<(String, u64, [u32; 4])>,
    failed: Vec<String>,
}

impl Outcome {
    pub fn of(r: &RwFlowResult) -> Outcome {
        Outcome {
            positions: r.stitch.positions.clone(),
            final_cost_bits: r.stitch.final_cost.to_bits(),
            tool_runs: r.total_tool_runs,
            modules: r
                .implemented
                .iter()
                .map(|m| {
                    let b = &m.pblock.rect;
                    (m.name.clone(), m.cf.to_bits(), [b.x, b.y, b.w, b.h])
                })
                .collect(),
            failed: r.failed.clone(),
        }
    }
}

/// `TrainedEstimator::predict`, rebuilt.
pub fn traced_predict(tr: &Tracer, at: Ctx, est: &TrainedEstimator, netlist: &Netlist) -> f64 {
    tr.span(at, "estimator.predict", |at| {
        let stats = tr.span(at, "netlist.stats", |_| netlist.stats());
        let packing = tr.span(at, "synth.pack", |_| pack(&stats));
        let shape = tr.span(at, "place.quick_place", |_| quick_place(&stats, &packing));
        let features = ModuleFeatures::extract(&stats, &packing, &shape);
        est.estimator()
            .predict(&features.select(est.feature_set()))
            .max(0.5)
    })
}

/// The per-module stage of the flow (`implement_module`), rebuilt for the
/// two CF policies the workloads use.
#[allow(clippy::too_many_arguments)]
fn traced_implement(
    tr: &Tracer,
    at: Ctx,
    gen: &PBlockGenerator<'_>,
    timing_model: &TimingModel,
    name: &str,
    netlist: &Netlist,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
) -> Result<ImplementedModule, String> {
    let obs = cfg.obs;
    let stats = tr.span(at, "netlist.stats", |_| netlist.stats());
    let packing = tr.span(at, "synth.pack", |_| pack(&stats));
    let shape = tr.span(at, "place.quick_place", |_| quick_place(&stats, &packing));
    let key = module_key(name, cfg.seed);
    let outcome = tr.span(at, "pblock.search", |_| match &cfg.policy {
        CfPolicy::Minimal(search) => min_feasible_cf_observed(
            gen, &stats, &packing, &shape, &cfg.model, search, key, obs, name,
        )
        .map(|r| (r.cf, r.pblock, r.placement, r.attempts, r.attempts == 1))
        .ok_or_else(|| "no feasible CF".to_string()),
        CfPolicy::Guided { predict, max_cf } => guided_search_observed(
            gen,
            &stats,
            &packing,
            &shape,
            &cfg.model,
            predict(name),
            *max_cf,
            key,
            obs,
            name,
        )
        .map(|r| (r.cf, r.pblock, r.placement, r.attempts, r.first_try))
        .ok_or_else(|| "no feasible CF".to_string()),
        _ => Err("CF policy not rebuilt by the traced pipeline".to_string()),
    });
    outcome.map(|(cf, pblock, placement, attempts, first_try)| {
        let timing = tr.span(at, "timing.estimate", |_| {
            estimate(&stats, &placement, device, timing_model)
        });
        ImplementedModule {
            name: name.to_string(),
            cf,
            pblock,
            placement,
            timing,
            attempts,
            first_try,
        }
    })
}

/// `run_rw_flow`, rebuilt.
pub fn traced_flow(
    tr: &Tracer,
    at: Ctx,
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
) -> RwFlowResult {
    let packed = tr.span(at, "pack.pack", |_| {
        pack_design(design, device, &cfg.mem_pack, cfg.obs)
    });
    let (design, pack_report) = match &packed {
        Some((d, r)) => (d, Some(r.clone())),
        None => (design, None),
    };
    let gen = PBlockGenerator::new(device, cfg.use_shape_report);
    let timing_model = TimingModel::default();
    let per_module: Vec<(usize, Result<ImplementedModule, String>)> =
        tr.span(at, "flow.stage", |at| {
            design
                .modules
                .par_iter()
                .enumerate()
                .map(|(idx, m)| {
                    (
                        idx,
                        tr.span(at, "flow.module", |at| {
                            traced_implement(
                                tr,
                                at,
                                &gen,
                                &timing_model,
                                &m.name,
                                &m.netlist,
                                device,
                                cfg,
                            )
                        }),
                    )
                })
                .collect()
        });
    let mut result = tr.span(at, "stitch.stitch", |_| {
        stitch_implemented(design, device, cfg, per_module)
    });
    result.pack = pack_report;
    result
}

/// The outcome of a rebuilt cached flow, with the lookup counts the
/// library keeps to itself.
pub struct TracedCached {
    pub result: RwFlowResult,
    pub reused: usize,
    pub fresh: usize,
    pub tool_runs_spent: u32,
    pub quarantined: u64,
}

/// `run_rw_flow_cached` (verified reads, no faults armed), rebuilt.
pub fn traced_cached(
    tr: &Tracer,
    at: Ctx,
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    cache: &mut ImplementationCache,
) -> TracedCached {
    let packed = tr.span(at, "pack.pack", |_| {
        pack_design(design, device, &cfg.mem_pack, cfg.obs)
    });
    let (design, pack_report) = match &packed {
        Some((d, r)) => (d, Some(r.clone())),
        None => (design, None),
    };
    let auditor = tr.span(at, "cache.lookup", |_| Auditor::new(device));
    let mut hits: HashMap<usize, ImplementedModule> = HashMap::new();
    let mut missing = Vec::new();
    let mut quarantined = 0;
    for (idx, m) in design.modules.iter().enumerate() {
        let key = tr.span(at, "cache.fingerprint", |_| {
            ModuleFingerprint::of(&m.netlist, device)
        });
        match tr.span(at, "cache.lookup", |_| cache.get_verified(&key, &auditor)) {
            VerifiedLookup::Hit(hit) => {
                hits.insert(idx, hit);
            }
            VerifiedLookup::Corrupt(_) => {
                quarantined += 1;
                missing.push(idx);
            }
            VerifiedLookup::Miss => missing.push(idx),
        }
    }
    let fresh_results: Vec<(usize, Result<ImplementedModule, String>)> =
        tr.span(at, "flow.stage", |at| {
            missing
                .par_iter()
                .map(|&idx| {
                    let m = &design.modules[idx];
                    let implemented = tr.span(at, "flow.module", |at| {
                        let gen = PBlockGenerator::new(device, cfg.use_shape_report);
                        traced_implement(
                            tr,
                            at,
                            &gen,
                            &TimingModel::default(),
                            &m.name,
                            &m.netlist,
                            device,
                            cfg,
                        )
                    });
                    (idx, implemented)
                })
                .collect()
        });
    let reused = hits.len();
    let (mut fresh, mut tool_runs_spent) = (0, 0);
    for (idx, outcome) in &fresh_results {
        match outcome {
            Ok(m) => {
                fresh += 1;
                tool_runs_spent += m.attempts;
                let key = tr.span(at, "cache.fingerprint", |_| {
                    ModuleFingerprint::of(&design.modules[*idx].netlist, device)
                });
                // A failed persist leaves the flow result intact, exactly
                // as in the library.
                let _ = tr.span(at, "cache.insert", |_| cache.try_insert(key, m.clone()));
            }
            Err(_) => tool_runs_spent += 1,
        }
    }
    let mut per_module: Vec<(usize, Result<ImplementedModule, String>)> = hits
        .into_iter()
        .map(|(idx, m)| (idx, Ok(m)))
        .chain(fresh_results)
        .collect();
    per_module.sort_by_key(|&(idx, _)| idx);
    let mut result = tr.span(at, "stitch.stitch", |_| {
        stitch_implemented(design, device, cfg, per_module)
    });
    result.pack = pack_report;
    TracedCached {
        result,
        reused,
        fresh,
        tool_runs_spent,
        quarantined,
    }
}
