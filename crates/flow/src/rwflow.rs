//! The RapidWright-style pre-implement-and-stitch flow.

use rayon::prelude::*;
use tms_cnn::CnvDesign;
use tms_device::Device;
use tms_obs::{noop, span, Phase, Recorder};
use tms_pack::{pack_design, MemPackConfig, PackReport};
use tms_pblock::{
    guided_search_observed, min_feasible_cf_observed, CfSearch, PBlock, PBlockGenerator,
};
use tms_place::{detail::module_key, place_in_region, quick_place, Placement, PlacementModel};
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
/// This is the per-module stage of [`run_rw_flow`], exposed so callers
/// that already hold implementations for part of a design — the
/// implementation cache, the serving layer — can implement exactly the
/// modules they are missing and splice the rest in via
/// [`stitch_implemented`].
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
fn implement_with(
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
    // The searches emit their own `place`-phase spans; only the constant
    // branch — a single tool run — wraps one here, so every policy records
    // exactly one Place span per module.
    let outcome = match &cfg.policy {
        CfPolicy::Constant(cf) => {
            let mut sp = span(obs, Phase::Place, name);
            sp.field("cf", *cf);
            obs.observe("flow.cf.requested", *cf);
            match gen.generate(&shape, *cf) {
                None => {
                    obs.count("pblock.generate.failed", 1);
                    Err("no PBlock".to_string())
                }
                Some(pblock) => {
                    match place_in_region(&stats, &packing, device, &pblock.rect, &cfg.model, key) {
                        Ok(placement) => {
                            sp.field("attempts", 1.0);
                            obs.count("pblock.search.tool_runs", 1);
                            obs.count("pblock.search.feasible", 1);
                            obs.count("pblock.search.first_try", 1);
                            obs.observe("flow.cf.placed", *cf);
                            Ok((*cf, pblock, placement, 1u32, true))
                        }
                        Err(e) => {
                            obs.count(e.counter_key(), 1);
                            obs.count("pblock.search.infeasible", 1);
                            obs.count("pblock.search.wasted_runs", 1);
                            Err(e.to_string())
                        }
                    }
                }
            }
        }
        CfPolicy::Minimal(search) => min_feasible_cf_observed(
            gen, &stats, &packing, &shape, &cfg.model, search, key, obs, name,
        )
        .map(|r| (r.cf, r.pblock, r.placement, r.attempts, r.attempts == 1))
        .ok_or_else(|| "no feasible CF".to_string()),
        CfPolicy::Guided { predict, max_cf } => {
            let predicted = predict(name);
            guided_search_observed(
                gen, &stats, &packing, &shape, &cfg.model, predicted, *max_cf, key, obs, name,
            )
            .map(|r| (r.cf, r.pblock, r.placement, r.attempts, r.first_try))
            .ok_or_else(|| "no feasible CF".to_string())
        }
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
pub fn run_rw_flow(design: &CnvDesign, device: &Device, cfg: &RwFlowConfig<'_>) -> RwFlowResult {
    // Packing phase: regenerate weight-store netlists before any sizing.
    let packed = pack_design(design, device, &cfg.mem_pack, cfg.obs);
    let (design, pack_report) = match &packed {
        Some((d, r)) => (d, Some(r.clone())),
        None => (design, None),
    };
    let gen = PBlockGenerator::new(device, cfg.use_shape_report);
    let timing_model = TimingModel::default();

    // Pre-implement unique modules in parallel.
    let per_module: Vec<(usize, Result<ImplementedModule, String>)> = design
        .modules
        .par_iter()
        .enumerate()
        .map(|(idx, m)| {
            (
                idx,
                implement_with(&gen, &timing_model, &m.name, &m.netlist, device, cfg),
            )
        })
        .collect();

    let mut result = stitch_implemented(design, device, cfg, per_module);
    result.pack = pack_report;
    result
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
/// outcome, in design order (as produced by [`run_rw_flow`]'s parallel
/// stage or assembled from a cache). Tool-run accounting sums the
/// `attempts` recorded in each implementation — for spliced cache hits
/// that is what the implementation *originally* cost, not what this call
/// spent; see `run_rw_flow_cached` for the spent-vs-total split.
pub fn stitch_implemented(
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    per_module: Vec<(usize, Result<ImplementedModule, String>)>,
) -> RwFlowResult {
    stitch_diagram(design, device, cfg, per_module)
}

/// [`stitch_implemented`] over any [`BlockDiagram`]: the one place a
/// stitch problem is built from per-module outcomes.
pub(crate) fn stitch_diagram(
    diagram: &impl BlockDiagram,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    per_module: Vec<(usize, Result<ImplementedModule, String>)>,
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
    let stitch_result = match &cfg.portfolio {
        Some(pcfg) => stitch_portfolio_observed(device, &problem, pcfg, cfg.obs).0,
        None => stitch_observed(device, &problem, &cfg.stitch, cfg.obs),
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

    fn quick_pack(policy: tms_pack::MemPackPolicy, seed: u64, threads: usize) -> MemPackConfig {
        MemPackConfig {
            rounds: 6,
            moves_per_round: 1_024,
            threads,
            ..MemPackConfig::new(policy, seed)
        }
    }

    #[test]
    fn packed_weights_beat_naive_on_minimal_footprint_and_placement() {
        // The paper's tailored-macro effect, applied to memory. Under the
        // naive all-BRAM36 assignment every shallow weight store drags a
        // BRAM column span into its PBlock (the minimal-CF search bottoms
        // out at the floor with an 18-wide, 5-tall macro); packing moves
        // those stores to BRAM18 halves / LUTRAM, so the minimal feasible
        // PBlock of 26 weights classes shrinks strictly. Naive BRAM36
        // demand (142 sites) nearly fills the xc7z020's 150; packing cuts
        // it to 68, and the smaller macros let the stitch place 24 more
        // block instances.
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let run = |policy| {
            let mut cfg = quick_cfg(CfPolicy::Minimal(CfSearch::wide()), 1);
            cfg.mem_pack = quick_pack(policy, 1, 1);
            run_rw_flow(&design, &dev, &cfg)
        };
        let naive = run(tms_pack::MemPackPolicy::Naive);
        let packed = run(tms_pack::MemPackPolicy::Packed);
        assert!(packed.failed.is_empty(), "failed: {:?}", packed.failed);
        let report = packed.pack.as_ref().expect("packed flow carries a report");
        assert!(report.feasible);
        assert_eq!((report.naive_bram36, report.bram36_total), (142, 68));
        let area = |m: &ImplementedModule| m.pblock.rect.w * m.pblock.rect.h;
        let weights = |r: &RwFlowResult| {
            r.implemented
                .iter()
                .filter(|m| m.name.starts_with("weights"))
                .map(area)
                .sum::<u32>()
        };
        let strictly_smaller = naive
            .implemented
            .iter()
            .filter(|m| m.name.starts_with("weights"))
            .filter_map(|m| packed.module(&m.name).map(|p| (m, p)))
            .filter(|(n, p)| area(p) < area(n))
            .count();
        assert_eq!(strictly_smaller, 26);
        assert_eq!((weights(&naive), weights(&packed)), (4_575, 4_489));
        assert_eq!(
            (naive.stitch.placed_count, packed.stitch.placed_count),
            (118, 142)
        );
        assert_eq!(
            (naive.stitch.unplaced_count, packed.stitch.unplaced_count),
            (57, 33)
        );
    }

    #[test]
    fn packed_flow_is_deterministic_across_thread_counts() {
        // Thread invariance must survive the full pipeline, not just the
        // packing phase: same stitched placement and same pack report with
        // 1 and 8 portfolio workers.
        let design = cnvw1a1(1);
        let dev = Device::xc7z020();
        let run = |threads| {
            let mut cfg = quick_cfg(CfPolicy::Minimal(CfSearch::wide()), 1);
            cfg.mem_pack = quick_pack(tms_pack::MemPackPolicy::Packed, 1, threads);
            run_rw_flow(&design, &dev, &cfg)
        };
        let a = run(1);
        let b = run(8);
        let (ra, rb) = (a.pack.as_ref().unwrap(), b.pack.as_ref().unwrap());
        assert_eq!(ra.bram36_total, rb.bram36_total);
        assert_eq!(ra.cost, rb.cost);
        assert_eq!(a.stitch.positions, b.stitch.positions);
        assert_eq!(a.stitch.final_cost, b.stitch.final_cost);
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
