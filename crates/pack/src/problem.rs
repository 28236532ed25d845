//! Packing as a [`SearchProblem`]: assign every weight bank of every
//! module to a bin kind, minimising the BRAM36 capacity vector the
//! downstream minimal-CF search must satisfy.
//!
//! The solution space is one [`BankSplit`] per weights module — how many
//! of its `pe` banks go to full RAMB36 sites, RAMB18 halves, or LUTRAM.
//! Moves transfer one bank between kinds, so cost deltas are O(1): only
//! the touched module's contribution and the two global totals change.
//!
//! Budget overflow is folded into the cost as a steep linear penalty
//! rather than an infeasibility count: the SA lanes track cost by deltas,
//! and a penalty that moves with the totals keeps those deltas exact
//! while still making any over-budget solution lose to every in-budget
//! one.

use crate::bins::{bram18_halves, bram36_sites, lutram_legal, lutram_luts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tms_cnn::CnvDesign;
use tms_device::{Device, LUTRAM_PER_M_SLICE};
use tms_search::{Proposal, Score, SearchProblem};

/// Cost of one occupied RAMB36 site (the unit the PBlock height/column
/// constraints are driven by, so it dominates the model).
pub const COST_BRAM36: f64 = 12.0;
/// Extra cost per RAMB18 half: cascading and dual-clock plumbing.
pub const COST_HALF_EXTRA: f64 = 0.5;
/// Cost per LUTRAM LUT: cheap, but not free — it consumes M-slices.
pub const COST_LUTRAM_LUT: f64 = 0.1;
/// Per-instance overhead once a module touches BRAM at all: its PBlock
/// must then cover a BRAM column and grow to the RAMB36 row alignment,
/// which is exactly the capacity-vector pressure packing tries to avoid.
pub const MODULE_BRAM_OVERHEAD: f64 = 25.0;
/// Penalty per weighted RAMB36 site over the device budget.
const PENALTY_BRAM36: f64 = 1.0e6;
/// Penalty per weighted LUTRAM LUT over the device budget.
const PENALTY_LUT: f64 = 1.0e4;

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

/// The memory-packing search problem over one design on one device.
pub struct PackProblem {
    memories: Vec<ModuleMem>,
    budget: MemBudget,
}

/// Undo token: which module moved and its previous split.
pub struct PackUndo {
    idx: usize,
    old: BankSplit,
}

impl PackProblem {
    /// Build the problem for `design` against `budget`.
    pub fn new(design: &CnvDesign, budget: MemBudget) -> PackProblem {
        PackProblem {
            memories: design_memories(design),
            budget,
        }
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
        for (m, s) in self.memories.iter().zip(&splits) {
            assert_eq!(s.banks(), m.banks, "{}: split loses banks", m.name);
            assert!(s.lutram == 0 || m.lutram_ok, "{}: illegal LUTRAM", m.name);
        }
        let mut sol = PackSolution {
            splits,
            bram36_total: 0,
            lutram_total: 0,
        };
        self.recompute_totals(&mut sol);
        sol
    }

    fn recompute_totals(&self, s: &mut PackSolution) {
        s.bram36_total = 0;
        s.lutram_total = 0;
        for (m, split) in self.memories.iter().zip(&s.splits) {
            s.bram36_total += u64::from(m.instances) * u64::from(module_sites36(m, split));
            s.lutram_total += u64::from(m.instances) * u64::from(module_lutram(m, split));
        }
    }

    /// Whether `s` fits the budget (the hard feasibility the penalty
    /// enforces softly during the search).
    pub fn fits_budget(&self, s: &PackSolution) -> bool {
        s.bram36_total <= u64::from(self.budget.bram36) && s.lutram_total <= self.budget.lutram_luts
    }

    fn module_cost(&self, m: &ModuleMem, split: &BankSplit) -> f64 {
        let inst = f64::from(m.instances);
        let mut c = inst
            * (COST_BRAM36 * f64::from(module_sites36(m, split))
                + COST_HALF_EXTRA * f64::from(split.halves * m.halves18)
                + COST_LUTRAM_LUT * f64::from(module_lutram(m, split)));
        if split.uses_bram() {
            c += MODULE_BRAM_OVERHEAD * inst;
        }
        c
    }

    fn penalty(&self, bram36_total: u64, lutram_total: u64) -> f64 {
        let over_bram = bram36_total.saturating_sub(u64::from(self.budget.bram36));
        let over_lut = lutram_total.saturating_sub(self.budget.lutram_luts);
        PENALTY_BRAM36 * over_bram as f64 + PENALTY_LUT * over_lut as f64
    }

    /// Full cost of a solution (module costs + budget penalty).
    pub fn cost(&self, s: &PackSolution) -> f64 {
        let modules: f64 = self
            .memories
            .iter()
            .zip(&s.splits)
            .map(|(m, split)| self.module_cost(m, split))
            .sum();
        modules + self.penalty(s.bram36_total, s.lutram_total)
    }

    /// Apply `new` to module `idx`, updating cached totals; returns the
    /// exact cost delta.
    fn apply_split(&self, s: &mut PackSolution, idx: usize, new: BankSplit) -> f64 {
        let m = &self.memories[idx];
        let old = s.splits[idx];
        let inst = u64::from(m.instances);
        let old_pen = self.penalty(s.bram36_total, s.lutram_total);
        let old_cost = self.module_cost(m, &old);
        s.bram36_total = s.bram36_total - inst * u64::from(module_sites36(m, &old))
            + inst * u64::from(module_sites36(m, &new));
        s.lutram_total = s.lutram_total - inst * u64::from(module_lutram(m, &old))
            + inst * u64::from(module_lutram(m, &new));
        s.splits[idx] = new;
        self.module_cost(m, &new) - old_cost + self.penalty(s.bram36_total, s.lutram_total)
            - old_pen
    }
}

impl SearchProblem for PackProblem {
    type Solution = PackSolution;
    type Undo = PackUndo;

    fn initial(&self, seed: u64) -> PackSolution {
        // Seeded scatter over the per-module extremes: the lanes start
        // from diverse corners of the space and the penalty walks any
        // over-budget start back in.
        let mut rng = StdRng::seed_from_u64(seed);
        self.solution_from(|m| match rng.gen_range(0..4u32) {
            0 => BankSplit::all_bram36(m.banks),
            1 => BankSplit {
                full36: 0,
                halves: m.banks,
                lutram: 0,
            },
            2 if m.lutram_ok => BankSplit {
                full36: 0,
                halves: 0,
                lutram: m.banks,
            },
            _ => BankSplit {
                full36: m.banks - m.banks / 2,
                halves: m.banks / 2,
                lutram: 0,
            },
        })
    }

    fn score(&self, s: &PackSolution) -> Score {
        Score::feasible(self.cost(s))
    }

    fn propose(
        &self,
        s: &mut PackSolution,
        _temp_ratio: f64,
        rng: &mut StdRng,
    ) -> Proposal<PackUndo> {
        if self.memories.is_empty() {
            return Proposal::Skip;
        }
        let idx = rng.gen_range(0..self.memories.len());
        let m = &self.memories[idx];
        let old = s.splits[idx];
        // Transfer one bank between two distinct kinds. Kinds:
        // 0 = full36, 1 = halves, 2 = lutram.
        let from = rng.gen_range(0..3u32);
        let to = (from + 1 + rng.gen_range(0..2u32)) % 3;
        let count_of = |k: u32, sp: &BankSplit| match k {
            0 => sp.full36,
            1 => sp.halves,
            _ => sp.lutram,
        };
        if count_of(from, &old) == 0 || (to == 2 && !m.lutram_ok) {
            return Proposal::Illegal;
        }
        let mut new = old;
        match from {
            0 => new.full36 -= 1,
            1 => new.halves -= 1,
            _ => new.lutram -= 1,
        }
        match to {
            0 => new.full36 += 1,
            1 => new.halves += 1,
            _ => new.lutram += 1,
        }
        let delta = self.apply_split(s, idx, new);
        Proposal::Applied {
            delta,
            undo: PackUndo { idx, old },
        }
    }

    fn undo(&self, s: &mut PackSolution, undo: PackUndo) {
        self.apply_split(s, undo.idx, undo.old);
    }

    fn neighborhood(&self) -> u64 {
        (self.memories.len() as u64) * 6
    }

    fn crossover(&self, a: &PackSolution, b: &PackSolution, rng: &mut StdRng) -> PackSolution {
        let mut sol = PackSolution {
            splits: a
                .splits
                .iter()
                .zip(&b.splits)
                .map(|(&ga, &gb)| if rng.gen::<bool>() { ga } else { gb })
                .collect(),
            bram36_total: 0,
            lutram_total: 0,
        };
        self.recompute_totals(&mut sol);
        sol
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

    #[test]
    fn deltas_match_full_recompute() {
        let p = problem();
        let mut s = p.initial(7);
        let mut cost = p.cost(&s);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2_000 {
            if let Proposal::Applied { delta, .. } = p.propose(&mut s, 1.0, &mut rng) {
                cost += delta;
            }
        }
        let fresh = p.cost(&s);
        assert!(
            (cost - fresh).abs() < 1e-6 * fresh.abs().max(1.0),
            "tracked {cost} vs fresh {fresh}"
        );
        // Cached totals must also match a recompute.
        let rebuilt = p.solution_from(|m| {
            let i = p
                .memories()
                .iter()
                .position(|mm| mm.module_idx == m.module_idx)
                .unwrap();
            s.splits[i]
        });
        assert_eq!(rebuilt.bram36_total(), s.bram36_total());
        assert_eq!(rebuilt.lutram_total(), s.lutram_total());
    }

    #[test]
    fn propose_undo_roundtrips() {
        let p = problem();
        let mut s = p.initial(5);
        let orig = s.clone();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            if let Proposal::Applied { undo, .. } = p.propose(&mut s, 1.0, &mut rng) {
                p.undo(&mut s, undo);
                assert_eq!(s, orig);
            }
        }
    }

    #[test]
    fn crossover_preserves_bank_counts() {
        let p = problem();
        let a = p.initial(1);
        let b = p.initial(2);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let c = p.crossover(&a, &b, &mut rng);
            for (m, sp) in p.memories().iter().zip(&c.splits) {
                assert_eq!(sp.banks(), m.banks);
                assert!(sp.lutram == 0 || m.lutram_ok);
            }
        }
    }
}
