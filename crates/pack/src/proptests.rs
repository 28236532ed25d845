//! Property tests: the solver is exact against brute force on small
//! problems, and every packing of a real design is feasible and never
//! demands more BRAM36 than the naive baseline.

#![cfg(test)]

use crate::bins::{bram18_halves, bram36_sites, lutram_legal, lutram_luts};
use crate::phase::{pack_design, MemPackConfig, MemPackPolicy};
use crate::problem::{BankSplit, MemBudget, ModuleMem, PackProblem};
use proptest::prelude::*;
use tms_cnn::{cnvw1a1, zoo_design, zoo_names, CnvDesign};
use tms_device::Device;

fn arb_design() -> impl Strategy<Value = CnvDesign> {
    (0usize..=4, 1u64..6).prop_map(|(which, seed)| {
        if which == 0 {
            cnvw1a1(seed)
        } else {
            zoo_design(zoo_names()[which - 1], seed).unwrap()
        }
    })
}

fn arb_device() -> impl Strategy<Value = Device> {
    prop_oneof![
        Just(Device::xc7z020()),
        Just(Device::xc7z045()),
        Just(Device::ultrascale_like()),
    ]
}

/// One module of 1–3 banks, shallow or deep enough that LUTRAM is ruled
/// out, on 1–2 instances.
fn arb_memory() -> impl Strategy<Value = (u32, u32, u32, u32)> {
    (1u32..=2, 1u32..=3, 1u32..=1_600, 1u32..=80)
}

/// A small problem with budgets drawn between nothing and the most any
/// assignment can use, so they often bind and often cannot be met.
fn arb_problem() -> impl Strategy<Value = PackProblem> {
    (
        proptest::collection::vec(arb_memory(), 1..=4),
        0u64..=1_000,
        0u64..=1_000,
    )
        .prop_map(|(mems, bram_permille, lut_permille)| {
            let memories: Vec<ModuleMem> = mems
                .into_iter()
                .enumerate()
                .map(|(i, (instances, banks, depth, width))| ModuleMem {
                    module_idx: i,
                    name: format!("weights_{i}"),
                    instances,
                    banks,
                    depth,
                    width,
                    sites36: bram36_sites(depth, width),
                    halves18: bram18_halves(depth, width),
                    lutram: lutram_luts(depth, width),
                    lutram_ok: lutram_legal(depth),
                })
                .collect();
            let most_sites: u64 = memories
                .iter()
                .map(|m| u64::from(m.instances * m.banks * m.sites36))
                .sum();
            let most_luts: u64 = memories
                .iter()
                .filter(|m| m.lutram_ok)
                .map(|m| u64::from(m.instances * m.banks * m.lutram))
                .sum();
            let budget = MemBudget {
                bram36: (most_sites * bram_permille / 1_000) as u32,
                lutram_luts: most_luts * lut_permille / 1_000,
            };
            PackProblem::from_memories(memories, budget)
        })
}

/// Every legal split of a module.
fn all_splits(m: &ModuleMem) -> Vec<BankSplit> {
    let mut out = Vec::new();
    for full36 in 0..=m.banks {
        for halves in 0..=m.banks - full36 {
            let lutram = m.banks - full36 - halves;
            if lutram == 0 || m.lutram_ok {
                out.push(BankSplit {
                    full36,
                    halves,
                    lutram,
                });
            }
        }
    }
    out
}

/// The least cost over every assignment.
fn brute_force(problem: &PackProblem) -> u64 {
    let options: Vec<Vec<BankSplit>> = problem.memories().iter().map(all_splits).collect();
    let mut pick = vec![0usize; options.len()];
    let mut best = u64::MAX;
    loop {
        let mut i = 0;
        let s = problem.solution_from(|_| {
            i += 1;
            options[i - 1][pick[i - 1]]
        });
        best = best.min(problem.cost(&s));
        // Odometer step over the per-module choices.
        let mut k = 0;
        while k < pick.len() {
            pick[k] += 1;
            if pick[k] < options[k].len() {
                break;
            }
            pick[k] = 0;
            k += 1;
        }
        if k == pick.len() {
            return best;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every packed solution respects the hard constraints: the device
    /// budget (no bin overflow), bank conservation (every bank assigned to
    /// exactly one kind), and the LUTRAM depth alignment rule.
    #[test]
    fn packed_solutions_are_feasible(design in arb_design(), dev in arb_device()) {
        let problem = PackProblem::new(&design, MemBudget::for_device(&dev));
        let best = problem.solve();
        prop_assert!(problem.fits_budget(&best),
            "bram {}/{} lutram {}/{}",
            best.bram36_total(), problem.budget().bram36,
            best.lutram_total(), problem.budget().lutram_luts);
        for (m, split) in problem.memories().iter().zip(&best.splits) {
            prop_assert_eq!(split.banks(), m.banks, "{}: bank count drifted", &m.name);
            prop_assert!(split.lutram == 0 || m.lutram_ok,
                "{}: LUTRAM at depth {} (limit {})",
                &m.name, m.depth, crate::bins::LUTRAM_MAX_DEPTH);
        }
    }

    /// Packed never demands more BRAM36 than the naive all-BRAM36
    /// baseline, on any design/device/seed combination.
    #[test]
    fn packed_never_exceeds_naive(design in arb_design(), dev in arb_device(), seed in 0u64..1_000) {
        let cfg = MemPackConfig::new(MemPackPolicy::Packed, seed);
        let (_, report) = pack_design(&design, &dev, &cfg, tms_obs::noop()).unwrap();
        prop_assert!(report.bram36_total <= report.naive_bram36,
            "packed {} > naive {}", report.bram36_total, report.naive_bram36);
        prop_assert_eq!(report.bram36_saved, report.naive_bram36 - report.bram36_total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    /// The solver's answer costs exactly what the best of every
    /// assignment costs, whether the budgets are slack, bind, or cannot be
    /// met at all.
    #[test]
    fn solve_matches_brute_force(problem in arb_problem()) {
        prop_assert_eq!(problem.cost(&problem.solve()), brute_force(&problem));
    }
}
