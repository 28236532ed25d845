//! The packing phase: policy, exact solve, netlist regeneration, and
//! telemetry.
//!
//! [`pack_design`] runs *before* PBlock sizing. Under
//! [`MemPackPolicy::Packed`] it solves the bin assignment exactly
//! ([`PackProblem::solve`]) and regenerates every weight-store netlist to
//! reflect it: banks on BRAM become RAMB36 primitives (and the
//! module sheds its LUT-ROM fabric), banks in LUTRAM become distributed-RAM
//! LUTs. The downstream minimal-CF search then sees the shrunken memory
//! demand — a module packed entirely into LUTRAM no longer forces its
//! PBlock onto a BRAM column at RAMB36 row alignment.
//! [`MemPackPolicy::Naive`] is the all-BRAM36 baseline the A/B compares
//! against, and [`MemPackPolicy::Off`] leaves the seed design untouched.

use crate::problem::{module_lutram, module_sites36, MemBudget, PackProblem, PackSolution};
use tms_cnn::{CnvDesign, CnvModule, WeightSpec};
use tms_device::Device;
use tms_obs::{span, Phase, Recorder};
use tms_rtlgen::{Generator, MixedParams};

/// How the flow treats weight memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemPackPolicy {
    /// No packing: the seed netlists (LUT-ROM weight stores) are used as-is.
    #[default]
    Off,
    /// Every bank on full RAMB36 sites, aspect-optimised but with no half
    /// pairing and no LUTRAM — the baseline packing reports compare against.
    Naive,
    /// The least-cost mix of BRAM36 / BRAM18-half / LUTRAM bins.
    Packed,
}

impl MemPackPolicy {
    /// Parse a policy name (`off` / `naive` / `packed`).
    pub fn parse(s: &str) -> Option<MemPackPolicy> {
        match s {
            "off" => Some(MemPackPolicy::Off),
            "naive" => Some(MemPackPolicy::Naive),
            "packed" => Some(MemPackPolicy::Packed),
            _ => None,
        }
    }

    /// The policy's canonical name.
    pub fn label(&self) -> &'static str {
        match self {
            MemPackPolicy::Off => "off",
            MemPackPolicy::Naive => "naive",
            MemPackPolicy::Packed => "packed",
        }
    }
}

/// Configuration of the packing phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MemPackConfig {
    /// Policy: off (default), naive baseline, or packed.
    pub policy: MemPackPolicy,
    /// Seed of the regenerated weight-store netlists.
    pub seed: u64,
}

impl MemPackConfig {
    /// Packing disabled (the seed flow).
    pub fn off() -> MemPackConfig {
        MemPackConfig::new(MemPackPolicy::Off, 0)
    }

    /// A policy whose regenerated netlists are seeded with `seed`.
    pub fn new(policy: MemPackPolicy, seed: u64) -> MemPackConfig {
        MemPackConfig { policy, seed }
    }
}

/// One module's final bin assignment.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModuleAssignment {
    /// Module name.
    pub name: String,
    /// Instance count the physical quantities multiply by.
    pub instances: u32,
    /// The bank split the policy chose.
    pub split: crate::problem::BankSplit,
    /// RAMB36 sites per instance under that split.
    pub sites36: u32,
    /// LUTRAM LUTs per instance under that split.
    pub lutram_luts: u32,
}

/// Result of the packing phase.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PackReport {
    /// The policy that produced the assignment (`naive` / `packed`).
    pub policy: String,
    /// Per-module assignments, in module order.
    pub modules: Vec<ModuleAssignment>,
    /// Instance-weighted RAMB36 sites under the all-BRAM36 baseline.
    pub naive_bram36: u64,
    /// Instance-weighted RAMB36 sites under the chosen assignment.
    pub bram36_total: u64,
    /// Sites saved against the baseline (`naive - chosen`).
    pub bram36_saved: u64,
    /// Instance-weighted LUTRAM LUTs under the chosen assignment.
    pub lutram_luts: u64,
    /// Instance-weighted banks on full RAMB36 sites.
    pub banks_bram36: u64,
    /// Instance-weighted banks on RAMB18 halves.
    pub banks_bram18: u64,
    /// Instance-weighted banks in LUTRAM.
    pub banks_lutram: u64,
    /// RAMB36 budget the device offered.
    pub budget_bram36: u32,
    /// Whether the assignment fits the device budget.
    pub feasible: bool,
    /// Model cost of the assignment, budget penalty included.
    pub cost: f64,
}

/// Everything [`pack_design`] reads from its inputs: for each module that
/// carries a [`WeightSpec`], its index, name, instance count and spec; the
/// device's [`MemBudget`]; and the [`MemPackConfig`]. Two calls whose
/// keys are equal return the same packed netlists and the same
/// [`PackReport`]. This is what lets a caller store a packing result and
/// reuse it instead of packing again.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackKey {
    memories: Vec<(usize, String, u32, WeightSpec)>,
    budget: MemBudget,
    policy: MemPackPolicy,
    seed: u64,
}

impl PackKey {
    /// The key of `pack_design(design, device, cfg, _)`, or `None` when that
    /// call packs nothing (policy off, or no weight memories).
    pub fn of(design: &CnvDesign, device: &Device, cfg: &MemPackConfig) -> Option<PackKey> {
        // Destructured so that a new config field must be classified here.
        let MemPackConfig { policy, seed } = *cfg;
        if policy == MemPackPolicy::Off {
            return None;
        }
        let memories: Vec<_> = design
            .modules
            .iter()
            .enumerate()
            .filter_map(|(i, m)| Some((i, m.name.clone(), m.instances, m.mem?)))
            .collect();
        if memories.is_empty() {
            return None;
        }
        Some(PackKey {
            memories,
            budget: MemBudget::for_device(device),
            policy,
            seed,
        })
    }
}

/// The packing phase's output without the design around it.
#[derive(Debug, Clone)]
pub struct PackedMemories {
    /// Each regenerated weights module with its index in the design, in
    /// module order. Every other module passes through unchanged.
    pub modules: Vec<(usize, CnvModule)>,
    /// The phase report.
    pub report: PackReport,
}

/// Run the packing phase on `design` for `device`.
///
/// Returns `None` when the policy is [`MemPackPolicy::Off`] or the design
/// has no packable memories — the caller keeps the original design.
/// Otherwise returns the regenerated design plus the report, recording
/// `pack.*` telemetry and a `MemPack`-phase `mempack` span through `obs`.
pub fn pack_design(
    design: &CnvDesign,
    device: &Device,
    cfg: &MemPackConfig,
    obs: &dyn Recorder,
) -> Option<(CnvDesign, PackReport)> {
    let PackedMemories { modules, report } = pack_memories(design, device, cfg, obs)?;
    Some((splice(design, modules), report))
}

/// [`pack_design`] without copying the design: only the regenerated
/// weights modules come back. Returns `None` exactly when
/// [`PackKey::of`] does.
pub fn pack_memories(
    design: &CnvDesign,
    device: &Device,
    cfg: &MemPackConfig,
    obs: &dyn Recorder,
) -> Option<PackedMemories> {
    if cfg.policy == MemPackPolicy::Off {
        return None;
    }
    let problem = PackProblem::new(design, MemBudget::for_device(device));
    if problem.memories().is_empty() {
        return None;
    }
    let mut sp = span(obs, Phase::MemPack, "mempack");
    let naive = problem.naive_solution();
    let solution = match cfg.policy {
        MemPackPolicy::Off => unreachable!("handled above"),
        MemPackPolicy::Naive => naive.clone(),
        MemPackPolicy::Packed => problem.solve(),
    };
    let report = build_report(&problem, &naive, &solution, cfg.policy);
    observe_outcome(&report, obs);
    sp.field("modules", report.modules.len() as f64);
    sp.field("bram36_saved", report.bram36_saved as f64);
    sp.field("cost", report.cost);
    let modules = packed_modules(design, &problem, &solution, cfg.seed);
    Some(PackedMemories { modules, report })
}

fn build_report(
    problem: &PackProblem,
    naive: &PackSolution,
    solution: &PackSolution,
    policy: MemPackPolicy,
) -> PackReport {
    let mut banks = [0u64; 3];
    let modules: Vec<ModuleAssignment> = problem
        .memories()
        .iter()
        .zip(&solution.splits)
        .map(|(m, split)| {
            let inst = u64::from(m.instances);
            banks[0] += inst * u64::from(split.full36);
            banks[1] += inst * u64::from(split.halves);
            banks[2] += inst * u64::from(split.lutram);
            ModuleAssignment {
                name: m.name.clone(),
                instances: m.instances,
                split: *split,
                sites36: module_sites36(m, split),
                lutram_luts: module_lutram(m, split),
            }
        })
        .collect();
    PackReport {
        policy: policy.label().to_string(),
        modules,
        naive_bram36: naive.bram36_total(),
        bram36_total: solution.bram36_total(),
        bram36_saved: naive.bram36_total().saturating_sub(solution.bram36_total()),
        lutram_luts: solution.lutram_total(),
        banks_bram36: banks[0],
        banks_bram18: banks[1],
        banks_lutram: banks[2],
        budget_bram36: problem.budget().bram36,
        feasible: problem.fits_budget(solution),
        cost: problem.cost(solution) as f64 / 10.0,
    }
}

/// Record a stored packing result reused in place of packing again:
/// `pack.memo.hit` plus the outcome counters a packing run books
/// (`pack.runs`, `pack.modules`, `pack.bram36_saved`, `pack.bins.*`,
/// `pack.infeasible`), so `pack.runs` still counts once per flow.
pub fn observe_pack_reuse(report: &PackReport, obs: &dyn Recorder) {
    obs.count("pack.memo.hit", 1);
    observe_outcome(report, obs);
}

/// Record a report's outcome counters through `obs`.
fn observe_outcome(report: &PackReport, obs: &dyn Recorder) {
    obs.count("pack.runs", 1);
    obs.count("pack.modules", report.modules.len() as u64);
    obs.count("pack.bram36_saved", report.bram36_saved);
    obs.count("pack.bins.bram36", report.banks_bram36);
    obs.count("pack.bins.bram18_half", report.banks_bram18);
    obs.count("pack.bins.lutram", report.banks_lutram);
    if !report.feasible {
        obs.count("pack.infeasible", 1);
    }
}

/// Regenerate the weight-store modules of `design` to reflect `solution`:
/// BRAM banks become RAMB36 primitives, LUTRAM banks become
/// distributed-RAM LUTs, and the LUT-ROM fabric of the seed recipe is
/// replaced by a small addressing/control skeleton. Returns each
/// regenerated module with its design index; non-weight modules are not
/// touched. Deterministic in `seed`.
fn packed_modules(
    design: &CnvDesign,
    problem: &PackProblem,
    solution: &PackSolution,
    seed: u64,
) -> Vec<(usize, CnvModule)> {
    problem
        .memories()
        .iter()
        .zip(&solution.splits)
        .map(|(m, split)| {
            let params = MixedParams {
                // Address decode and bank-select control.
                luts: 8 + 4 * m.banks,
                // Double-buffered output registers per bank word.
                ffs: (m.width * m.banks * 2).max(16),
                control_sets: 1,
                carry_chains: (0, 0),
                lutrams: module_lutram(m, split),
                srls: 0,
                brams: module_sites36(m, split),
                dsps: 0,
                depth: 4,
            };
            let src = &design.modules[m.module_idx];
            let module = CnvModule {
                name: src.name.clone(),
                role: src.role,
                layer: src.layer,
                netlist: params
                    .generate(seed ^ ((m.module_idx as u64) << 8))
                    .with_name(format!("{}_packed", m.name)),
                instances: src.instances,
                mem: src.mem,
            };
            (m.module_idx, module)
        })
        .collect()
}

/// A copy of `design` with `modules` put in at their indices.
fn splice(design: &CnvDesign, modules: Vec<(usize, CnvModule)>) -> CnvDesign {
    let mut out = design.clone();
    for (idx, m) in modules {
        out.modules[idx] = m;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::{cnvw1a1, zoo, ModuleRole};
    use tms_device::DeviceName::{self, UltraScaleLike, Xc7z020};
    use tms_obs::AggregatingSink;
    use tms_synth::pack as synth_pack;

    #[test]
    fn off_policy_packs_nothing() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        assert!(pack_design(&d, &dev, &MemPackConfig::off(), tms_obs::noop()).is_none());
    }

    #[test]
    fn packed_beats_naive_on_bram_demand() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (_, report) = pack_design(
            &d,
            &dev,
            &MemPackConfig::new(MemPackPolicy::Packed, 1),
            tms_obs::noop(),
        )
        .unwrap();
        assert!(report.feasible, "packed must fit the budget");
        assert!(
            report.bram36_saved > 0,
            "packed {} vs naive {}",
            report.bram36_total,
            report.naive_bram36
        );
        // The win has to be substantial, not incidental: at least a third
        // of the naive demand comes back.
        assert!(
            report.bram36_saved * 3 >= report.naive_bram36,
            "saved only {} of {}",
            report.bram36_saved,
            report.naive_bram36
        );
        assert_eq!(
            report.banks_bram36 + report.banks_bram18 + report.banks_lutram,
            66 * 2,
            "every instance-weighted bank is assigned somewhere"
        );
    }

    #[test]
    fn naive_policy_reports_zero_savings() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (_, report) = pack_design(
            &d,
            &dev,
            &MemPackConfig::new(MemPackPolicy::Naive, 1),
            tms_obs::noop(),
        )
        .unwrap();
        assert_eq!(report.bram36_saved, 0);
        assert_eq!(report.bram36_total, report.naive_bram36);
        assert_eq!(report.banks_bram18 + report.banks_lutram, 0);
    }

    #[test]
    fn regenerated_netlists_reflect_the_assignment() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (packed, report) = pack_design(
            &d,
            &dev,
            &MemPackConfig::new(MemPackPolicy::Packed, 1),
            tms_obs::noop(),
        )
        .unwrap();
        // Non-weight modules are bit-identical to the input design.
        for (a, b) in d.modules.iter().zip(&packed.modules) {
            if a.role != ModuleRole::Weights {
                assert_eq!(a.netlist.stats(), b.netlist.stats(), "{}", a.name);
            }
        }
        // Weight modules carry exactly the assigned memory primitives.
        for assign in &report.modules {
            let m = packed.find_module(&assign.name).unwrap();
            let stats = m.netlist.stats();
            assert_eq!(stats.counts.bram36, assign.sites36, "{}", assign.name);
            assert_eq!(
                stats.counts.lutram_luts, assign.lutram_luts,
                "{}",
                assign.name
            );
        }
        // The flow-facing consequence: regenerated BRAM demand equals the
        // report's instance-weighted total.
        let demand: u64 = packed
            .modules
            .iter()
            .map(|m| {
                u64::from(synth_pack(&m.netlist.stats()).demand.bram36) * u64::from(m.instances)
            })
            .sum();
        assert_eq!(demand, report.bram36_total);
    }

    #[test]
    fn deep_stores_stay_in_bram() {
        // weights_14 (depth 5200) cannot go to LUTRAM; the solver must
        // keep it on block RAM in some form.
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (_, report) = pack_design(
            &d,
            &dev,
            &MemPackConfig::new(MemPackPolicy::Packed, 1),
            tms_obs::noop(),
        )
        .unwrap();
        let w14 = report
            .modules
            .iter()
            .find(|m| m.name == "weights_14")
            .unwrap();
        assert_eq!(w14.split.lutram, 0);
        assert!(w14.sites36 > 0);
    }

    #[test]
    fn telemetry_reconciles_with_the_report() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let sink = AggregatingSink::new();
        let (_, report) = pack_design(
            &d,
            &dev,
            &MemPackConfig::new(MemPackPolicy::Packed, 1),
            &sink,
        )
        .unwrap();
        assert_eq!(sink.phase_spans(Phase::MemPack), 1);
        assert_eq!(sink.phase_spans(Phase::Pack), 0);
        assert_eq!(sink.counter("pack.runs"), 1);
        assert_eq!(sink.counter("pack.bram36_saved"), report.bram36_saved);
        assert_eq!(sink.counter("pack.bins.bram36"), report.banks_bram36);
        assert_eq!(sink.counter("pack.bins.bram18_half"), report.banks_bram18);
        assert_eq!(sink.counter("pack.bins.lutram"), report.banks_lutram);
    }

    /// cnvW1A1 and every zoo member packed for both device presets:
    /// design, device, weights modules, naive and
    /// packed BRAM36 sites, the device's RAMB36 budget, LUTRAM LUTs.
    #[rustfmt::skip]
    const PACKED: [(&str, DeviceName, usize, u64, u64, u32, u64); 10] = [
        ("cnvw1a1", Xc7z020, 43, 142, 85, 150, 0),
        ("cnvw1a1", UltraScaleLike, 43, 142, 85, 500, 0),
        ("bnn-wide", Xc7z020, 26, 140, 94, 150, 0),
        ("bnn-wide", UltraScaleLike, 26, 140, 94, 500, 0),
        ("bnn-deep", Xc7z020, 39, 114, 78, 150, 0),
        ("bnn-deep", UltraScaleLike, 39, 114, 78, 500, 0),
        ("bnn-fc", Xc7z020, 22, 72, 52, 150, 0),
        ("bnn-fc", UltraScaleLike, 22, 72, 52, 500, 0),
        ("bnn-slim", Xc7z020, 16, 52, 30, 150, 0),
        ("bnn-slim", UltraScaleLike, 16, 52, 30, 500, 0),
    ];

    #[test]
    fn zoo_members_all_pack_feasibly() {
        let mut designs = vec![("cnvw1a1".to_string(), cnvw1a1(1))];
        designs.extend(zoo(1));
        let mut actual = Vec::new();
        for (name, d) in &designs {
            for dev in [Device::xc7z020(), Device::ultrascale_like()] {
                let (_, r) = pack_design(
                    d,
                    &dev,
                    &MemPackConfig::new(MemPackPolicy::Packed, 1),
                    tms_obs::noop(),
                )
                .unwrap();
                assert!(r.feasible, "{name}/{} over budget", dev.name());
                actual.push((
                    name.as_str(),
                    dev.name(),
                    r.modules.len(),
                    r.naive_bram36,
                    r.bram36_total,
                    r.budget_bram36,
                    r.lutram_luts,
                ));
            }
        }
        assert_eq!(actual, PACKED);
    }

    #[test]
    fn policy_parsing_roundtrips() {
        for p in [
            MemPackPolicy::Off,
            MemPackPolicy::Naive,
            MemPackPolicy::Packed,
        ] {
            assert_eq!(MemPackPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(MemPackPolicy::parse("bogus"), None);
    }
}
