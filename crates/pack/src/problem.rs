//! Packing as an exact optimisation: assign every weight bank of every
//! module to a bin kind, minimising the BRAM36 capacity vector the
//! downstream minimal-CF search must satisfy.
//!
//! A solution is one [`BankSplit`] per weights module — how many of its
//! `pe` banks go to full RAMB36 sites, RAMB18 halves, or LUTRAM. Its cost
//! is a sum of per-module terms plus a penalty on two design-wide sums,
//! instance-weighted RAMB36 sites and LUTRAM LUTs, over the device budget.
//! That is the only coupling between modules, so [`PackProblem::solve`]
//! finds the optimum with a dynamic programme over the two sums.
//!
//! Every price and both penalties are whole tenths of a cost unit, so
//! costs are integer tenths and add exactly.

use crate::bins::{bram18_halves, bram36_sites, lutram_legal, lutram_luts};
use tms_cnn::CnvDesign;
use tms_device::{Device, LUTRAM_PER_M_SLICE, RAMB36_ROWS};

/// Cost of one occupied RAMB36 site, in tenths (12.0): the unit the
/// PBlock height/column constraints are driven by, so it dominates the
/// model.
pub const COST_BRAM36: u64 = 120;
/// Extra cost per RAMB18 half, in tenths (0.5): cascading and dual-clock
/// plumbing.
pub const COST_HALF_EXTRA: u64 = 5;
/// Cost per LUTRAM LUT, in tenths (0.6): what a RAMB36 site pays per cell
/// of PBlock area. A site spans `RAMB36_ROWS` cells of its column, and an
/// M-slice cell holds `LUTRAM_PER_M_SLICE` LUTRAM LUTs.
pub const COST_LUTRAM_LUT: u64 = COST_BRAM36 / LUTS_PER_BRAM36_AREA;
/// LUTRAM LUTs in the fabric cells one RAMB36 site spans.
const LUTS_PER_BRAM36_AREA: u64 = RAMB36_ROWS as u64 * LUTRAM_PER_M_SLICE as u64;
const _: () = assert!(COST_BRAM36.is_multiple_of(LUTS_PER_BRAM36_AREA));
/// Per-instance overhead once a module touches BRAM at all, in tenths
/// (25.0): its PBlock must then cover a BRAM column and grow to the
/// RAMB36 row alignment, which is exactly the capacity-vector pressure
/// packing tries to avoid.
pub const MODULE_BRAM_OVERHEAD: u64 = 250;
/// Penalty per weighted RAMB36 site over the device budget, in tenths.
const PENALTY_BRAM36: u64 = 10_000_000;
/// Penalty per weighted LUTRAM LUT over the device budget, in tenths.
const PENALTY_LUT: u64 = 100_000;

/// The memory demand of one weights module, precomputed per bin kind.
#[derive(Debug, Clone)]
pub struct ModuleMem {
    /// Index of the module in the design's `modules` vector.
    pub module_idx: usize,
    /// Module name (`weights_14`, …).
    pub name: String,
    /// Instance count — every physical quantity is multiplied by it.
    pub instances: u32,
    /// Independent banks (one per PE).
    pub banks: u32,
    /// Words per bank.
    pub depth: u32,
    /// Bits per bank word.
    pub width: u32,
    /// RAMB36 sites one bank needs.
    pub sites36: u32,
    /// RAMB18 halves one bank needs.
    pub halves18: u32,
    /// LUTRAM LUTs one bank needs.
    pub lutram: u32,
    /// Whether LUTRAM is legal for this depth.
    pub lutram_ok: bool,
}

/// Extract the packable memories of a design (modules carrying a
/// [`tms_cnn::WeightSpec`]), in module order.
pub fn design_memories(design: &CnvDesign) -> Vec<ModuleMem> {
    design
        .modules
        .iter()
        .enumerate()
        .filter_map(|(i, m)| {
            let spec = m.mem?;
            let depth = spec.bank_depth();
            let width = spec.bank_width();
            Some(ModuleMem {
                module_idx: i,
                name: m.name.clone(),
                instances: m.instances,
                banks: spec.banks(),
                depth,
                width,
                sites36: bram36_sites(depth, width),
                halves18: bram18_halves(depth, width),
                lutram: lutram_luts(depth, width),
                lutram_ok: lutram_legal(depth),
            })
        })
        .collect()
}

/// Device memory budget the packed design must fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemBudget {
    /// RAMB36 sites available to weight stores.
    pub bram36: u32,
    /// LUTRAM LUTs available to weight stores — half the device's M-slice
    /// LUT capability, leaving the rest for the sliding windows and SRLs
    /// the other module roles already consume.
    pub lutram_luts: u64,
}

impl MemBudget {
    /// Budget derived from a device's own resource counts.
    pub fn for_device(device: &Device) -> MemBudget {
        MemBudget {
            bram36: device.bram_count(),
            lutram_luts: u64::from(device.m_slice_count()) * u64::from(LUTRAM_PER_M_SLICE) / 2,
        }
    }
}

/// How one module's banks are split across bin kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BankSplit {
    /// Banks on full RAMB36 sites.
    pub full36: u32,
    /// Banks on RAMB18 halves (two halves of a module share a site).
    pub halves: u32,
    /// Banks in LUTRAM.
    pub lutram: u32,
}

impl BankSplit {
    /// The naive assignment: everything on full RAMB36 sites.
    pub fn all_bram36(banks: u32) -> BankSplit {
        BankSplit {
            full36: banks,
            halves: 0,
            lutram: 0,
        }
    }

    /// Total banks of the split.
    pub fn banks(&self) -> u32 {
        self.full36 + self.halves + self.lutram
    }

    /// Whether any bank occupies BRAM (full sites or halves).
    pub fn uses_bram(&self) -> bool {
        self.full36 + self.halves > 0
    }
}

/// A candidate packing: one split per entry of
/// [`PackProblem::memories`], plus cached design-wide totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackSolution {
    /// Per-module splits, parallel to the problem's memory list.
    pub splits: Vec<BankSplit>,
    /// Instance-weighted RAMB36 sites over the whole design.
    bram36_total: u64,
    /// Instance-weighted LUTRAM LUTs over the whole design.
    lutram_total: u64,
}

impl PackSolution {
    /// Instance-weighted RAMB36 sites over the whole design.
    pub fn bram36_total(&self) -> u64 {
        self.bram36_total
    }

    /// Instance-weighted LUTRAM LUTs over the whole design.
    pub fn lutram_total(&self) -> u64 {
        self.lutram_total
    }
}

/// RAMB36 sites one module occupies under `split` (per instance): full
/// banks plus paired halves.
pub fn module_sites36(m: &ModuleMem, split: &BankSplit) -> u32 {
    split.full36 * m.sites36 + (split.halves * m.halves18).div_ceil(2)
}

/// LUTRAM LUTs one module occupies under `split` (per instance).
pub fn module_lutram(m: &ModuleMem, split: &BankSplit) -> u32 {
    split.lutram * m.lutram
}

/// Cost of one module under `split`, in tenths: its sites, halves and
/// LUTRAM LUTs, plus the BRAM overhead when it touches BRAM, all per
/// instance.
fn module_cost(m: &ModuleMem, split: &BankSplit) -> u64 {
    let overhead = if split.uses_bram() {
        MODULE_BRAM_OVERHEAD
    } else {
        0
    };
    u64::from(m.instances)
        * (COST_BRAM36 * u64::from(module_sites36(m, split))
            + COST_HALF_EXTRA * u64::from(split.halves * m.halves18)
            + COST_LUTRAM_LUT * u64::from(module_lutram(m, split))
            + overhead)
}

/// Every legal split of one module, in split order: more banks on full
/// RAMB36 sites first, then more on halves, the rest in LUTRAM.
fn splits_of(m: &ModuleMem) -> impl Iterator<Item = BankSplit> + '_ {
    (0..=m.banks).rev().flat_map(move |full36| {
        (0..=m.banks - full36)
            .rev()
            .map(move |halves| BankSplit {
                full36,
                halves,
                lutram: m.banks - full36 - halves,
            })
            .filter(|s| s.lutram == 0 || m.lutram_ok)
    })
}

/// A state of [`PackProblem::solve`]: the totals and cost of the modules
/// decided so far, and the step that reached it.
#[derive(Debug, Clone, Copy)]
struct State {
    bram36: u64,
    lutram: u64,
    cost: u64,
    /// Index of the predecessor in the previous layer.
    prev: usize,
    /// The split of the module this layer decided.
    split: BankSplit,
}

/// Add `s` to the frontier of states that share its RAMB36 total, unless
/// a state with no more LUTRAM and no more cost is already there; drop the
/// states `s` beats on both.
fn insert_pareto(frontier: &mut Vec<State>, s: State) {
    if frontier
        .iter()
        .any(|f| f.lutram <= s.lutram && f.cost <= s.cost)
    {
        return;
    }
    frontier.retain(|f| f.lutram < s.lutram || f.cost < s.cost);
    frontier.push(s);
}

/// The memory-packing problem over one design on one device.
pub struct PackProblem {
    memories: Vec<ModuleMem>,
    budget: MemBudget,
}

impl PackProblem {
    /// Build the problem for `design` against `budget`.
    pub fn new(design: &CnvDesign, budget: MemBudget) -> PackProblem {
        PackProblem {
            memories: design_memories(design),
            budget,
        }
    }

    /// A problem over hand-made memories (the brute-force tests).
    #[cfg(test)]
    pub(crate) fn from_memories(memories: Vec<ModuleMem>, budget: MemBudget) -> PackProblem {
        PackProblem { memories, budget }
    }

    /// The packable memories, in module order.
    pub fn memories(&self) -> &[ModuleMem] {
        &self.memories
    }

    /// The device budget the problem packs against.
    pub fn budget(&self) -> MemBudget {
        self.budget
    }

    /// The all-BRAM36 baseline solution (aspect-optimised, no pairing,
    /// no LUTRAM) — what "naive" means throughout the reports.
    pub fn naive_solution(&self) -> PackSolution {
        self.solution_from(|m| BankSplit::all_bram36(m.banks))
    }

    /// Build a solution from a per-module split rule, recomputing totals.
    pub fn solution_from(&self, mut rule: impl FnMut(&ModuleMem) -> BankSplit) -> PackSolution {
        let splits: Vec<BankSplit> = self.memories.iter().map(&mut rule).collect();
        let mut sol = PackSolution {
            splits,
            bram36_total: 0,
            lutram_total: 0,
        };
        for (m, s) in self.memories.iter().zip(&sol.splits) {
            assert_eq!(s.banks(), m.banks, "{}: split loses banks", m.name);
            assert!(s.lutram == 0 || m.lutram_ok, "{}: illegal LUTRAM", m.name);
            sol.bram36_total += u64::from(m.instances) * u64::from(module_sites36(m, s));
            sol.lutram_total += u64::from(m.instances) * u64::from(module_lutram(m, s));
        }
        sol
    }

    /// Whether `s` fits the budget.
    pub fn fits_budget(&self, s: &PackSolution) -> bool {
        s.bram36_total <= u64::from(self.budget.bram36) && s.lutram_total <= self.budget.lutram_luts
    }

    fn penalty(&self, bram36_total: u64, lutram_total: u64) -> u64 {
        let over_bram = bram36_total.saturating_sub(u64::from(self.budget.bram36));
        let over_lut = lutram_total.saturating_sub(self.budget.lutram_luts);
        PENALTY_BRAM36 * over_bram + PENALTY_LUT * over_lut
    }

    /// Full cost of a solution in tenths: module costs plus the budget
    /// penalty.
    pub fn cost(&self, s: &PackSolution) -> u64 {
        let modules: u64 = self
            .memories
            .iter()
            .zip(&s.splits)
            .map(|(m, split)| module_cost(m, split))
            .sum();
        modules + self.penalty(s.bram36_total, s.lutram_total)
    }

    /// The least-cost solution, found exactly.
    ///
    /// A dynamic programme decides the modules one at a time. Its states
    /// are the two design-wide totals; for each RAMB36 total it keeps only
    /// the states that no other state beats on both LUTRAM and cost, which
    /// is exact because the penalty never falls as either total grows.
    /// When no assignment fits the budget, the answer is the one with the
    /// least penalty-inclusive cost, and [`PackProblem::fits_budget`] says
    /// so. The answer needs no seed: among equal costs it has the fewest
    /// RAMB36 sites, and equal totals go to the split listed first (more
    /// full RAMB36 banks, then more halves), earlier modules first.
    pub fn solve(&self) -> PackSolution {
        let root = State {
            bram36: 0,
            lutram: 0,
            cost: 0,
            prev: usize::MAX,
            split: BankSplit::all_bram36(0),
        };
        // Modules are decided last to first, so the backtrack below meets
        // them in module order and ties favour the earlier module.
        let mut layers: Vec<Vec<State>> = vec![vec![root]];
        // One frontier per RAMB36 total, reused across layers.
        let mut frontiers: Vec<Vec<State>> = Vec::new();
        for m in self.memories.iter().rev() {
            let inst = u64::from(m.instances);
            let prev = layers.last().expect("the root layer");
            for split in splits_of(m) {
                let bram36 = inst * u64::from(module_sites36(m, &split));
                let lutram = inst * u64::from(module_lutram(m, &split));
                let cost = module_cost(m, &split);
                for (i, p) in prev.iter().enumerate() {
                    let s = State {
                        bram36: p.bram36 + bram36,
                        lutram: p.lutram + lutram,
                        cost: p.cost + cost,
                        prev: i,
                        split,
                    };
                    let total = s.bram36 as usize;
                    if total >= frontiers.len() {
                        frontiers.resize_with(total + 1, Vec::new);
                    }
                    insert_pareto(&mut frontiers[total], s);
                }
            }
            layers.push(frontiers.iter_mut().flat_map(|f| f.drain(..)).collect());
        }
        let last = layers.last().expect("the root layer");
        let mut at = (0..last.len())
            .min_by_key(|&i| last[i].cost + self.penalty(last[i].bram36, last[i].lutram))
            .expect("every module has a legal split");
        let mut splits = Vec::with_capacity(self.memories.len());
        for layer in layers[1..].iter().rev() {
            splits.push(layer[at].split);
            at = layer[at].prev;
        }
        let mut next = splits.into_iter();
        self.solution_from(|_| next.next().expect("one split per module"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::cnvw1a1;

    fn problem() -> PackProblem {
        PackProblem::new(&cnvw1a1(1), MemBudget::for_device(&Device::xc7z020()))
    }

    #[test]
    fn memories_cover_every_weights_module() {
        let p = problem();
        assert_eq!(p.memories().len(), 43);
        for m in p.memories() {
            assert!(m.banks >= 1);
            assert!(m.sites36 >= 1);
            assert!(m.halves18 >= 1);
        }
    }

    #[test]
    fn naive_nearly_exhausts_the_xc7z020_bram_budget() {
        // The reason packing exists: all-BRAM36 eats essentially the whole
        // part's BRAM, leaving nothing for anything else on the fabric.
        let p = problem();
        let naive = p.naive_solution();
        let budget = u64::from(p.budget().bram36);
        assert!(
            naive.bram36_total() * 10 >= budget * 9,
            "naive = {} sites, budget = {budget}",
            naive.bram36_total()
        );
    }
}
