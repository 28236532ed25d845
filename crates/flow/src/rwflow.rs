//! The RapidWright-style pre-implement-and-stitch flow.

use crate::cache::{modules_of, stitch_memoised, CacheLookup, StitchMemo};
use tms_cnn::CnvDesign;
use tms_device::Device;
use tms_obs::{noop, span, Phase, Recorder};
use tms_pack::{MemPackConfig, PackReport};
use tms_pblock::{
    guided_search_observed, min_feasible_cf_observed, CfSearch, PBlock, PBlockGenerator,
};
use tms_place::{detail::module_key, quick_place, Placement, PlacementModel};
use tms_search::PortfolioConfig;
use tms_stitch::{
    stitch_observed, stitch_portfolio_observed, MacroBlock, StitchConfig, StitchProblem,
    StitchResult,
};
use tms_synth::pack;
use tms_timing::{estimate, TimingModel, TimingReport};

/// How the flow chooses each module's correction factor.
pub enum CfPolicy<'a> {
    /// One constant CF for every module (RapidWright default: 1.5).
    Constant(f64),
    /// Search the minimal feasible CF per module (the labelling procedure).
    Minimal(CfSearch),
    /// Estimator-guided (Section VIII): predict, then recover from
    /// underestimates with +0.1 coarse steps and a 0.02 refinement.
    Guided {
        /// Returns the predicted CF for a module name.
        predict: &'a (dyn Fn(&str) -> f64 + Sync),
        /// Abort threshold.
        max_cf: f64,
    },
}

/// Flow configuration.
pub struct RwFlowConfig<'a> {
    /// CF selection policy.
    pub policy: CfPolicy<'a>,
    /// Honour the carry-chain shape report when building PBlocks.
    pub use_shape_report: bool,
    /// Placement-model constants.
    pub model: PlacementModel,
    /// Stitcher schedule (single-run anneal).
    pub stitch: StitchConfig,
    /// When set, stitch with the multi-lane search portfolio instead of
    /// the single-run anneal. `stitch` is ignored for that phase.
    pub portfolio: Option<PortfolioConfig>,
    /// Memory-aware weight packing, run *before* PBlock sizing. Under the
    /// default ([`MemPackConfig::off`]) the seed netlists pass through
    /// untouched; the `naive` / `packed` policies regenerate weight-store
    /// netlists to their bin assignments first, so every downstream stage
    /// (minimal-CF search, stitch, cache fingerprints) sees the packed
    /// memory demand.
    pub mem_pack: MemPackConfig,
    /// Seed for placer jitter.
    pub seed: u64,
    /// Telemetry sink every stage records through. Defaults to
    /// [`tms_obs::noop`], which keeps the hot path allocation-free.
    pub obs: &'a dyn Recorder,
}

impl<'a> RwFlowConfig<'a> {
    /// RapidWright's stock behaviour: constant CF 1.5, shape report on.
    pub fn rapidwright_default(seed: u64) -> Self {
        RwFlowConfig {
            policy: CfPolicy::Constant(1.5),
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig::standard(seed),
            portfolio: None,
            mem_pack: MemPackConfig::off(),
            seed,
            obs: noop(),
        }
    }

    /// The same configuration recording through `obs`.
    pub fn with_recorder(mut self, obs: &'a dyn Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// The same configuration with a memory-packing phase.
    pub fn with_mem_pack(mut self, mem_pack: MemPackConfig) -> Self {
        self.mem_pack = mem_pack;
        self
    }
}

/// One pre-implemented module.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ImplementedModule {
    /// Module name.
    pub name: String,
    /// The CF its PBlock was built with.
    pub cf: f64,
    /// The PBlock.
    pub pblock: PBlock,
    /// The detailed placement inside it.
    pub placement: Placement,
    /// Longest-path estimate of the placed module.
    pub timing: TimingReport,
    /// Place-and-route attempts (tool runs) spent on this module.
    pub attempts: u32,
    /// Whether the first attempted CF was already feasible.
    pub first_try: bool,
}

/// Result of the full RW-style flow.
pub struct RwFlowResult {
    /// Successfully pre-implemented unique modules.
    pub implemented: Vec<ImplementedModule>,
    /// Modules with no feasible CF under the policy (flow would stop).
    pub failed: Vec<String>,
    /// The stitched design.
    pub stitch: StitchResult,
    /// The stitch problem (instances and footprints), for reporting.
    pub problem: StitchProblem,
    /// Total place-and-route tool runs across all modules.
    pub total_tool_runs: u32,
    /// Report of the memory-packing phase (`None` when packing is off).
    pub pack: Option<PackReport>,
}

impl RwFlowResult {
    /// Find an implemented module by name.
    pub fn module(&self, name: &str) -> Option<&ImplementedModule> {
        self.implemented.iter().find(|m| m.name == name)
    }

    /// Fraction of modules whose first attempted CF was feasible
    /// (Section VIII: 52.7% for the NN estimator).
    pub fn first_try_rate(&self) -> f64 {
        if self.implemented.is_empty() {
            return 0.0;
        }
        self.implemented.iter().filter(|m| m.first_try).count() as f64
            / self.implemented.len() as f64
    }
}

/// Pre-implement one module under the configured CF policy.
///
/// This is the per-module step that [`CacheLookup::implement`] runs for
/// every missing module of [`run_rw_flow`] and of each cached flow,
/// exposed for callers that implement a single module on their own.
pub fn implement_module(
    name: &str,
    netlist: &tms_netlist::Netlist,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
) -> Result<ImplementedModule, String> {
    let gen = PBlockGenerator::new(device, cfg.use_shape_report);
    implement_with(&gen, &TimingModel::default(), name, netlist, device, cfg)
}

/// Per-module implementation against shared generator/timing state.
pub(crate) fn implement_with(
    gen: &PBlockGenerator<'_>,
    timing_model: &TimingModel,
    name: &str,
    netlist: &tms_netlist::Netlist,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
) -> Result<ImplementedModule, String> {
    let obs = cfg.obs;
    let stats = {
        let _sp = span(obs, Phase::Synth, name);
        netlist.stats()
    };
    let (packing, shape) = {
        let _sp = span(obs, Phase::Pack, name);
        let packing = pack(&stats);
        let shape = quick_place(&stats, &packing);
        (packing, shape)
    };
    let key = module_key(name, cfg.seed);
    // Every policy runs on the search engine, which records the module's
    // one `place` span. A constant CF is a guided search whose prediction
    // is also its ceiling: one attempt, no ascent.
    let guided = |predicted: f64, max_cf: f64| {
        guided_search_observed(
            gen, &stats, &packing, &shape, &cfg.model, predicted, max_cf, key, obs, name,
        )
        .map(|r| (r.cf, r.pblock, r.placement, r.attempts, r.first_try))
        .ok_or_else(|| "no feasible CF".to_string())
    };
    let outcome = match &cfg.policy {
        CfPolicy::Constant(cf) => guided(*cf, *cf),
        CfPolicy::Minimal(search) => min_feasible_cf_observed(
            gen, &stats, &packing, &shape, &cfg.model, search, key, obs, name,
        )
        .map(|r| (r.cf, r.pblock, r.placement, r.attempts, r.attempts == 1))
        .ok_or_else(|| "no feasible CF".to_string()),
        CfPolicy::Guided { predict, max_cf } => guided(predict(name), *max_cf),
    };
    outcome.map(|(cf, pblock, placement, attempts, first_try)| {
        let timing = {
            let _sp = span(obs, Phase::Estimate, name);
            estimate(&stats, &placement, device, timing_model)
        };
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

/// Run the flow: pre-implement every unique module under the CF policy,
/// then replicate and stitch.
///
/// This is the cached flow ([`crate::run_rw_flow_cached`]) with nothing
/// cached: every module is missing, so the same implement and stitch
/// steps run over all of them, with no fault plan armed.
pub fn run_rw_flow(design: &CnvDesign, device: &Device, cfg: &RwFlowConfig<'_>) -> RwFlowResult {
    let mut lookup = CacheLookup::uncached(design, device, cfg);
    lookup.implement(modules_of(design), device, cfg);
    lookup.stitch(design, device, cfg).result
}

/// What stitching reads of a block design: the unique modules' names,
/// which module each instance replicates, and the inter-block nets — no
/// netlist. [`CnvDesign`] is one; a service that keeps a design's diagram
/// without its netlists can be another.
pub trait BlockDiagram {
    /// Number of unique modules.
    fn module_count(&self) -> usize;
    /// Name of unique module `idx`.
    fn module_name(&self, idx: usize) -> &str;
    /// The unique-module index of every instance, in instance order.
    fn instance_modules(&self) -> impl Iterator<Item = usize> + '_;
    /// Inter-block nets: instance ids and bus weight.
    fn nets(&self) -> &[(Vec<u32>, f64)];
}

impl BlockDiagram for CnvDesign {
    fn module_count(&self) -> usize {
        self.modules.len()
    }

    fn module_name(&self, idx: usize) -> &str {
        &self.modules[idx].name
    }

    fn instance_modules(&self) -> impl Iterator<Item = usize> + '_ {
        self.instances.iter().map(|&(m, _)| m)
    }

    fn nets(&self) -> &[(Vec<u32>, f64)] {
        &self.nets
    }
}

/// Replicate per-module outcomes across the design's instances and stitch.
///
/// `per_module` pairs each design-module index with its implementation
/// outcome, in design order (as [`CacheLookup::into_outcomes`] assembles
/// them from hits and fresh implementations). Tool-run accounting sums the
/// `attempts` recorded in each implementation — for spliced cache hits
/// that is what the implementation *originally* cost, not what this call
/// spent; see `run_rw_flow_cached` for the spent-vs-total split. It has no
/// cache, so it anneals every time.
pub fn stitch_implemented(
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    per_module: Vec<(usize, Result<ImplementedModule, String>)>,
) -> RwFlowResult {
    stitch_diagram(design, device, cfg, per_module, None)
}

/// [`stitch_implemented`] over any [`BlockDiagram`]: the one place a
/// stitch problem is built from per-module outcomes. With a `memo`, a
/// single-run stitch goes through it; a portfolio stitch never does.
pub(crate) fn stitch_diagram(
    diagram: &impl BlockDiagram,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    per_module: Vec<(usize, Result<ImplementedModule, String>)>,
    memo: Option<&StitchMemo>,
) -> RwFlowResult {
    let mut implemented = Vec::new();
    let mut failed = Vec::new();
    let mut total_tool_runs = 0;
    // Map design-module index -> stitch-module index (implemented only).
    let mut stitch_index: Vec<Option<usize>> = vec![None; diagram.module_count()];
    let mut macros: Vec<MacroBlock> = Vec::new();
    for (idx, result) in per_module {
        match result {
            Ok(impl_mod) => {
                total_tool_runs += impl_mod.attempts;
                stitch_index[idx] = Some(macros.len());
                macros.push(MacroBlock {
                    name: impl_mod.name.clone(),
                    signature: impl_mod.pblock.signature.clone(),
                    width: impl_mod.pblock.rect.w,
                    height: impl_mod.pblock.rect.h,
                    used_slices: impl_mod.placement.used_slices,
                    irregularity: impl_mod.placement.irregularity,
                });
                implemented.push(impl_mod);
            }
            Err(why) => {
                total_tool_runs += 1;
                failed.push(format!("{}: {why}", diagram.module_name(idx)));
            }
        }
    }

    // Build the stitch problem over instances of implemented modules.
    let mut problem = StitchProblem::new(macros);
    // design instance id -> stitch instance id (None if module failed).
    let inst_map: Vec<Option<u32>> = diagram
        .instance_modules()
        .map(|midx| stitch_index[midx].map(|s| problem.add_instance(s)))
        .collect();
    for (ends, weight) in diagram.nets() {
        let mapped: Vec<u32> = ends.iter().filter_map(|&e| inst_map[e as usize]).collect();
        if mapped.len() >= 2 {
            problem.add_net(&mapped, *weight);
        }
    }

    cfg.obs
        .count("flow.modules.implemented", implemented.len() as u64);
    cfg.obs.count("flow.modules.failed", failed.len() as u64);
    let stitch_result = match (&cfg.portfolio, memo) {
        (Some(pcfg), _) => stitch_portfolio_observed(device, &problem, pcfg, cfg.obs).0,
        (None, Some(memo)) => stitch_memoised(memo, device, &problem, &cfg.stitch, cfg.obs),
        (None, None) => stitch_observed(device, &problem, &cfg.stitch, cfg.obs),
    };
    RwFlowResult {
        implemented,
        failed,
        stitch: stitch_result,
        problem,
        total_tool_runs,
        pack: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::cnvw1a1;
    use tms_device::DeviceName::{self, UltraScaleLike, Xc7z020};

    fn quick_cfg(policy: CfPolicy<'_>, seed: u64) -> RwFlowConfig<'_> {
        RwFlowConfig {
            policy,
            use_shape_report: true,
            model: PlacementModel::deterministic(),
            stitch: StitchConfig::fast(seed),
            portfolio: None,
            mem_pack: MemPackConfig::off(),
            seed,
            obs: noop(),
        }
    }

    #[test]
    fn portfolio_stitch_is_deterministic_across_thread_counts() {
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let portfolio = |threads: usize| tms_search::PortfolioConfig {
            rounds: 3,
            moves_per_round: 1_500,
            stall_stop: 0,
            threads,
            ..tms_search::PortfolioConfig::new(9)
        };
        let mut cfg = quick_cfg(CfPolicy::Constant(1.72), 1);
        cfg.portfolio = Some(portfolio(1));
        let a = run_rw_flow(&design, &dev, &cfg);
        cfg.portfolio = Some(portfolio(8));
        let b = run_rw_flow(&design, &dev, &cfg);
        assert!(a.failed.is_empty());
        assert_eq!(
            a.stitch.positions, b.stitch.positions,
            "thread count changed the stitched placement"
        );
        assert_eq!(a.stitch.final_cost, b.stitch.final_cost);
    }

    #[test]
    fn worst_case_constant_cf_implements_every_module() {
        // The design's worst minimal CF is ≈1.70 (paper: 1.68); a constant
        // CF at/above it must implement every module.
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let r = run_rw_flow(&design, &dev, &quick_cfg(CfPolicy::Constant(1.72), 1));
        assert!(r.failed.is_empty(), "failed: {:?}", r.failed);
        assert_eq!(r.implemented.len(), 74);
        assert_eq!(r.total_tool_runs, 74);
        assert_eq!(r.problem.instances.len(), 175);
    }

    #[test]
    fn minimal_cf_uses_tighter_pblocks_than_constant() {
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let constant = run_rw_flow(&design, &dev, &quick_cfg(CfPolicy::Constant(1.72), 1));
        let minimal = run_rw_flow(
            &design,
            &dev,
            &quick_cfg(CfPolicy::Minimal(CfSearch::wide()), 1),
        );
        assert!(minimal.failed.is_empty(), "failed: {:?}", minimal.failed);
        let area = |r: &RwFlowResult| r.problem.total_area();
        assert!(
            area(&minimal) < area(&constant),
            "minimal {} !< constant {}",
            area(&minimal),
            area(&constant)
        );
        // And therefore fewer unplaced blocks (the Figure 5 effect).
        assert!(
            minimal.stitch.unplaced_count <= constant.stitch.unplaced_count,
            "minimal {} > constant {}",
            minimal.stitch.unplaced_count,
            constant.stitch.unplaced_count
        );
    }

    /// The minimal-CF flow on cnvW1A1/xc7z020 under the default placement
    /// model implements every module and spends exactly the labelling
    /// sweep's tool runs.
    #[test]
    fn minimal_cf_flow_spends_the_sweeps_tool_runs() {
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let mut cfg = quick_cfg(CfPolicy::Minimal(CfSearch::wide()), 1);
        cfg.model = PlacementModel::default();
        let r = run_rw_flow(&design, &dev, &cfg);
        assert_eq!(r.implemented.len(), 74);
        assert_eq!(r.failed.len(), 0);
        assert_eq!(r.total_tool_runs, 1_824);
    }

    #[test]
    fn guided_policy_counts_first_tries() {
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let predict = |_: &str| 1.3;
        let r = run_rw_flow(
            &design,
            &dev,
            &quick_cfg(
                CfPolicy::Guided {
                    predict: &predict,
                    max_cf: 3.0,
                },
                1,
            ),
        );
        assert!(r.failed.is_empty());
        let rate = r.first_try_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(rate > 0.3, "rate = {rate}");
    }

    #[test]
    fn too_small_constant_cf_fails_some_modules() {
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let r = run_rw_flow(&design, &dev, &quick_cfg(CfPolicy::Constant(0.9), 1));
        assert!(!r.failed.is_empty(), "CF 0.9 should not fit every module");
    }

    #[test]
    fn observed_flow_reconciles_spans_and_counters() {
        use tms_obs::AggregatingSink;
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let sink = AggregatingSink::new();
        let cfg = quick_cfg(CfPolicy::Constant(1.72), 1).with_recorder(&sink);
        let r = run_rw_flow(&design, &dev, &cfg);
        assert!(r.failed.is_empty());
        let n = design.modules.len() as u64;
        // One span per module per phase, regardless of policy.
        assert_eq!(sink.phase_spans(Phase::Synth), n);
        assert_eq!(sink.phase_spans(Phase::Pack), n);
        assert_eq!(sink.phase_spans(Phase::MemPack), 0, "packing is off");
        assert_eq!(sink.phase_spans(Phase::Place), n);
        assert_eq!(sink.phase_spans(Phase::Estimate), n);
        assert_eq!(sink.phase_spans(Phase::Stitch), 1);
        // With every module implemented, the tool-run counter equals the
        // flow's own accounting.
        assert_eq!(
            sink.counter("pblock.search.tool_runs"),
            u64::from(r.total_tool_runs)
        );
        assert_eq!(sink.counter("flow.modules.implemented"), n);
        assert_eq!(sink.counter("flow.modules.failed"), 0);
        assert_eq!(sink.counter("stitch.placed"), r.stitch.placed_count as u64);
        // Requested vs placed CF agree under a feasible constant policy.
        assert_eq!(sink.observation("flow.cf.requested").unwrap().0, n);
        assert_eq!(sink.observation("flow.cf.placed").unwrap().0, n);
    }

    type PackingFlow = (
        &'static str,
        DeviceName,
        (u64, u64),
        (usize, usize),
        (u32, u32),
        usize,
        usize,
    );

    /// The packing flow table: cnvW1A1 and every zoo member (seed 1) on
    /// both device presets, each run with the naive and the packed
    /// assignment under the minimal-CF (wide) policy and the fast stitch.
    /// Per row: design, device, then (naive, packed) pairs of BRAM36
    /// sites, placed blocks and weights PBlock area, the block count, and
    /// the weights classes whose minimal PBlock shrank under packing.
    #[rustfmt::skip]
    const PACKING_FLOWS: [PackingFlow; 10] = [
        ("cnvw1a1", Xc7z020, (142, 85), (118, 174), (4_575, 2_200), 175, 35),
        ("cnvw1a1", UltraScaleLike, (142, 85), (175, 175), (3_350, 1_850), 175, 35),
        ("bnn-wide", Xc7z020, (140, 94), (50, 50), (6_275, 3_300), 77, 17),
        ("bnn-wide", UltraScaleLike, (140, 94), (76, 77), (4_405, 2_365), 77, 17),
        ("bnn-deep", Xc7z020, (114, 78), (67, 103), (3_950, 2_120), 109, 28),
        ("bnn-deep", UltraScaleLike, (114, 78), (109, 109), (2_905, 1_775), 109, 28),
        ("bnn-fc", Xc7z020, (72, 52), (43, 59), (2_420, 1_335), 59, 15),
        ("bnn-fc", UltraScaleLike, (72, 52), (59, 59), (1_800, 1_090), 59, 15),
        ("bnn-slim", Xc7z020, (52, 30), (42, 50), (1_700, 675), 50, 15),
        ("bnn-slim", UltraScaleLike, (52, 30), (50, 50), (1_285, 575), 50, 16),
    ];

    #[test]
    fn packed_weights_beat_naive_on_minimal_footprint_and_placement() {
        // The paper's tailored-macro effect, applied to memory. Under the
        // naive all-BRAM36 assignment every shallow weight store drags a
        // BRAM column span into its PBlock (the minimal-CF search bottoms
        // out at the floor with an 18-wide, 5-tall macro); packing moves
        // those stores to BRAM18 halves / LUTRAM, so the minimal feasible
        // PBlock of many weights classes shrinks strictly. On the xc7z020,
        // where naive cnvW1A1 demand (142 sites) nearly fills the 150
        // budgeted, the smaller macros let the stitch place more blocks.
        let mut designs = vec![("cnvw1a1".to_string(), cnvw1a1(1))];
        designs.extend(tms_cnn::zoo(1));
        let mut actual = Vec::new();
        for (name, design) in &designs {
            for dev in [Device::xc7z020(), Device::ultrascale_like()] {
                let run = |policy| {
                    let mut cfg = quick_cfg(CfPolicy::Minimal(CfSearch::wide()), 1);
                    cfg.mem_pack = MemPackConfig::new(policy, 1);
                    run_rw_flow(design, &dev, &cfg)
                };
                let naive = run(tms_pack::MemPackPolicy::Naive);
                let packed = run(tms_pack::MemPackPolicy::Packed);
                let what = format!("{name}/{}", dev.name());
                assert!(naive.failed.is_empty(), "{what}: failed {:?}", naive.failed);
                assert!(
                    packed.failed.is_empty(),
                    "{what}: failed {:?}",
                    packed.failed
                );
                let (rn, rp) = (naive.pack.as_ref().unwrap(), packed.pack.as_ref().unwrap());
                assert!(rp.feasible, "{what}");
                let area = |m: &ImplementedModule| m.pblock.rect.w * m.pblock.rect.h;
                let weights = |r: &RwFlowResult| {
                    r.implemented
                        .iter()
                        .filter(|m| m.name.starts_with("weights"))
                        .map(area)
                        .sum::<u32>()
                };
                let blocks = |r: &RwFlowResult| r.stitch.placed_count + r.stitch.unplaced_count;
                assert_eq!(blocks(&naive), blocks(&packed), "{what}");
                let shrunken = naive
                    .implemented
                    .iter()
                    .filter(|m| m.name.starts_with("weights"))
                    .filter_map(|m| packed.module(&m.name).map(|p| (m, p)))
                    .filter(|(n, p)| area(p) < area(n))
                    .count();
                actual.push((
                    name.as_str(),
                    dev.name(),
                    (rn.bram36_total, rp.bram36_total),
                    (naive.stitch.placed_count, packed.stitch.placed_count),
                    (weights(&naive), weights(&packed)),
                    blocks(&packed),
                    shrunken,
                ));
            }
        }
        assert_eq!(actual, PACKING_FLOWS);
    }

    /// `run_rw_flow` is the cached flow with nothing cached: on a fresh
    /// cache, `run_rw_flow_cached` returns the same result and records the
    /// same telemetry, but for the cache's own spans and counters.
    #[test]
    fn run_rw_flow_equals_the_cached_flow_on_a_fresh_cache() {
        use crate::cache::{run_rw_flow_cached, ImplementationCache};
        use tms_obs::AggregatingSink;
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let modules = |r: &RwFlowResult| {
            r.implemented
                .iter()
                .map(|m| (m.name.clone(), m.cf.to_bits(), m.pblock.clone()))
                .collect::<Vec<_>>()
        };
        let counters = |sink: &AggregatingSink| {
            let mut counters = sink.snapshot().counters;
            counters.retain(|(k, _)| !k.starts_with("cache.") && !k.starts_with("store."));
            counters
        };
        for mem_pack in [
            MemPackConfig::off(),
            MemPackConfig::new(tms_pack::MemPackPolicy::Packed, 1),
        ] {
            for cf in [Some(1.72), Some(1.0), None] {
                let what = format!("cf {cf:?}, {:?}", mem_pack.policy);
                let policy = || match cf {
                    Some(cf) => CfPolicy::Constant(cf),
                    None => CfPolicy::Minimal(CfSearch::wide()),
                };
                let cfg = |sink| {
                    quick_cfg(policy(), 1)
                        .with_mem_pack(mem_pack.clone())
                        .with_recorder(sink)
                };
                let (flow_sink, cached_sink) = (AggregatingSink::new(), AggregatingSink::new());
                let flow = run_rw_flow(&design, &dev, &cfg(&flow_sink));
                let mut cache = ImplementationCache::new();
                let cached = run_rw_flow_cached(&design, &dev, &cfg(&cached_sink), &mut cache);
                let cached = &cached.result;
                assert_eq!(cf == Some(1.0), !flow.failed.is_empty(), "{what}");
                assert_eq!(flow.stitch.positions, cached.stitch.positions, "{what}");
                assert_eq!(
                    flow.stitch.final_cost.to_bits(),
                    cached.stitch.final_cost.to_bits(),
                    "{what}"
                );
                assert_eq!(flow.total_tool_runs, cached.total_tool_runs, "{what}");
                assert_eq!(modules(&flow), modules(cached), "{what}");
                assert_eq!(flow.failed, cached.failed, "{what}");
                for phase in Phase::ALL {
                    if !matches!(phase, Phase::Cache | Phase::Store) {
                        assert_eq!(
                            flow_sink.phase_spans(phase),
                            cached_sink.phase_spans(phase),
                            "{what}: {phase:?}"
                        );
                    }
                }
                assert_eq!(counters(&flow_sink), counters(&cached_sink), "{what}");
            }
        }
    }

    /// A constant CF is one attempt of the search engine. Its oracle is
    /// the direct path: generate the PBlock at that CF, then place in it.
    #[test]
    fn constant_cf_matches_generate_then_place() {
        use tms_place::place_in_region;
        let design = cnvw1a1(1);
        let mut failures = 0;
        for dev in [Device::xc7z020(), Device::xc7z045()] {
            let gen = PBlockGenerator::new(&dev, true);
            for cf in [0.9, 1.0, 1.5, 1.72] {
                let mut cfg = quick_cfg(CfPolicy::Constant(cf), 1);
                cfg.model = PlacementModel::default();
                for m in &design.modules {
                    let stats = m.netlist.stats();
                    let packing = pack(&stats);
                    let shape = quick_place(&stats, &packing);
                    let key = module_key(&m.name, cfg.seed);
                    let oracle = gen.generate(&shape, cf).and_then(|pblock| {
                        place_in_region(&stats, &packing, &dev, &pblock.rect, &cfg.model, key)
                            .ok()
                            .map(|placement| (cf.to_bits(), pblock, placement, 1, true))
                    });
                    let got = implement_module(&m.name, &m.netlist, &dev, &cfg)
                        .ok()
                        .map(|m| {
                            (
                                m.cf.to_bits(),
                                m.pblock,
                                m.placement,
                                m.attempts,
                                m.first_try,
                            )
                        });
                    failures += usize::from(oracle.is_none());
                    assert_eq!(got, oracle, "{} at CF {cf} on {}", m.name, dev.name());
                }
            }
        }
        assert!(failures > 0, "the sweep exercises failing modules");
    }

    #[test]
    fn module_lookup_and_timing() {
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let r = run_rw_flow(&design, &dev, &quick_cfg(CfPolicy::Constant(1.68), 1));
        let w14 = r.module("weights_14").expect("implemented");
        assert!(w14.timing.longest_path_ns > 0.0);
        assert!(w14.placement.used_slices > 500);
        assert!(r.module("nope").is_none());
    }
}
