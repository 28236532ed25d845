//! Property tests: invariants of the stitcher for arbitrary problems.

#![cfg(test)]

use crate::fabric::Grid;
use crate::problem::{MacroBlock, StitchProblem};
use crate::sa::{anneal, stitch, try_insert, State, StitchConfig, StitchResult};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tms_device::{Device, Rect};

/// Arbitrary stitching problems on the xc7z020: up to 40 instances of up
/// to 4 unique block shapes, chain-connected.
fn arb_problem() -> impl Strategy<Value = StitchProblem> {
    (
        proptest::collection::vec((1u32..8, 2u32..30, 0u32..3), 1..4),
        1usize..40,
        any::<u64>(),
    )
        .prop_map(|(shapes, n_inst, seed)| {
            let dev = Device::xc7z020();
            let modules: Vec<MacroBlock> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(w, h, x0))| MacroBlock {
                    name: format!("m{i}"),
                    signature: dev.signature(x0 * 7, w),
                    width: w,
                    height: h,
                    used_slices: w * h / 2,
                    irregularity: 0.3,
                })
                .collect();
            let n_mod = modules.len();
            let mut p = StitchProblem::new(modules);
            let ids: Vec<u32> = (0..n_inst)
                .map(|i| p.add_instance((i + seed as usize) % n_mod))
                .collect();
            for pair in ids.windows(2) {
                p.add_net(pair, 1.0 + (seed % 7) as f64);
            }
            p
        })
}

/// Crowded stitching problems on the test fabric or the xc7z010: 40–200
/// instances of up to six modules, where some modules share a signature
/// and width at other heights and others share only a width, so every
/// part of the insertion skip rule's key decides some scans.
fn arb_crowded_problem() -> impl Strategy<Value = (Device, StitchProblem)> {
    (any::<bool>(), 1usize..7, 40usize..201, any::<u64>()).prop_map(
        |(small, n_mod, n_inst, seed)| {
            let dev = if small {
                Device::test_fabric()
            } else {
                Device::xc7z010()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut modules: Vec<MacroBlock> = Vec::new();
            for i in 0..n_mod {
                let h = rng.gen_range(2..dev.rows() / 2);
                let (signature, width) = match modules.len() {
                    // Another height of an earlier module's signature.
                    n if n > 0 && rng.gen_range(0..3u32) == 0 => {
                        let m = &modules[rng.gen_range(0..n)];
                        (m.signature.clone(), m.width)
                    }
                    _ => {
                        let w = rng.gen_range(1..6u32);
                        (dev.signature(rng.gen_range(0..dev.width() - w), w), w)
                    }
                };
                modules.push(MacroBlock {
                    name: format!("m{i}"),
                    signature,
                    width,
                    height: h,
                    used_slices: width * h / 2,
                    irregularity: 0.3,
                });
            }
            let mut p = StitchProblem::new(modules);
            let ids: Vec<u32> = (0..n_inst)
                .map(|_| p.add_instance(rng.gen_range(0..n_mod)))
                .collect();
            for pair in ids.windows(2) {
                p.add_net(pair, 1.0);
            }
            for _ in 0..n_inst / 4 {
                let ends: Vec<u32> = (0..rng.gen_range(2..5u32))
                    .map(|_| ids[rng.gen_range(0..n_inst)])
                    .collect();
                p.add_net(&ends, f64::from(rng.gen_range(1..9u32)) / 4.0);
            }
            (dev, p)
        },
    )
}

/// The insertion before the skip rule: every call scans.
fn try_insert_scanning(state: &mut State, inst: u32, rng: &mut StdRng) -> bool {
    if state.positions[inst as usize].is_some() {
        return true;
    }
    let (bw, bh) = state.tables.footprint[inst as usize];
    let cand = state.tables.cand_of(inst);
    if cand.count == 0 {
        return false;
    }
    let start = rng.gen_range(0..cand.count);
    match state.grid.first_free(cand, start, bw, bh) {
        Some(at) => {
            let idx = cand.index_near(at);
            state.price_move(inst, idx, at);
            state.settle_move();
            true
        }
        None => false,
    }
}

/// Everything a stitch reports, with costs and temperatures as bits.
fn outcome(r: &StitchResult) -> impl PartialEq + std::fmt::Debug {
    (
        (r.positions.clone(), r.unplaced.clone(), r.late_insertions),
        [r.initial_cost, r.final_cost, r.final_temp].map(f64::to_bits),
        [
            r.illegal_moves,
            r.accepted_moves,
            r.rejected_moves,
            r.total_moves,
            r.convergence_move,
            r.best_move,
        ],
        r.cost_trace
            .iter()
            .map(|&(mv, c)| (mv, c.to_bits()))
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Skipping the insertion scans that must fail changes nothing: on
    /// crowded problems, where many scans fail, a stitch equals, bit for
    /// bit, the stitch whose every insertion scans.
    #[test]
    fn skipped_scans_change_no_stitch(case in arb_crowded_problem(), seed in 0u64..1000) {
        let (dev, problem) = case;
        let cfg = StitchConfig::fast(seed);
        let skipping = stitch(&dev, &problem, &cfg);
        let scanning = anneal(&dev, &problem, &cfg, try_insert_scanning);
        prop_assert_eq!(outcome(&skipping), outcome(&scanning));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Placed blocks never overlap and never leave the device, and every
    /// placed block sits on a legal anchor (matching column signature).
    #[test]
    fn placements_are_legal(problem in arb_problem(), seed in 0u64..500) {
        let dev = Device::xc7z020();
        let r = stitch(&dev, &problem, &StitchConfig::fast(seed));
        let mut rects: Vec<Rect> = Vec::new();
        for (i, pos) in r.positions.iter().enumerate() {
            let Some((x, y)) = pos else { continue };
            let b = problem.block_of(i as u32);
            let rect = Rect::new(*x, *y, b.width, b.height);
            prop_assert!(dev.bounds().contains(&rect), "block {i} off device");
            prop_assert_eq!(
                &dev.signature(*x, b.width),
                &b.signature,
                "block {} not on a legal anchor", i
            );
            prop_assert_eq!(*y % b.signature.y_alignment(), 0);
            for other in &rects {
                prop_assert!(!rect.overlaps(other), "overlap at block {}", i);
            }
            rects.push(rect);
        }
    }

    /// Bookkeeping is consistent: placed + unplaced = instances; the final
    /// cost equals a from-scratch recomputation; SA never worsens the
    /// initial cost.
    #[test]
    fn accounting_is_consistent(problem in arb_problem(), seed in 0u64..500) {
        let dev = Device::xc7z020();
        let r = stitch(&dev, &problem, &StitchConfig::fast(seed));
        prop_assert_eq!(r.placed_count + r.unplaced_count, problem.instances.len());
        prop_assert_eq!(r.unplaced.len(), r.unplaced_count);
        if r.late_insertions == 0 {
            // Without late insertions the anneal can only improve the cost.
            prop_assert!(r.final_cost <= r.initial_cost + 1e-9);
        }
        prop_assert!(r.final_cost >= 0.0);
        prop_assert!(r.convergence_move <= r.total_moves);
        // Recompute the cost from scratch.
        let mut expected = 0.0;
        for (ends, weight) in problem.nets.iter().map(|n| (&n.endpoints, n.weight)) {
            let pts: Vec<(f64, f64)> = ends
                .iter()
                .filter_map(|&e| {
                    r.positions[e as usize].map(|(x, y)| {
                        let b = problem.block_of(e);
                        (
                            f64::from(x) + f64::from(b.width) / 2.0,
                            f64::from(y) + f64::from(b.height) / 2.0,
                        )
                    })
                })
                .collect();
            if pts.len() >= 2 {
                let x0 = pts.iter().map(|p| p.0).fold(f64::MAX, f64::min);
                let x1 = pts.iter().map(|p| p.0).fold(f64::MIN, f64::max);
                let y0 = pts.iter().map(|p| p.1).fold(f64::MAX, f64::min);
                let y1 = pts.iter().map(|p| p.1).fold(f64::MIN, f64::max);
                expected += weight * ((x1 - x0) + (y1 - y0));
            }
        }
        // The same terms in the same order: equal, not just close.
        prop_assert!(r.final_cost == expected,
            "tracked {} vs recomputed {}", r.final_cost, expected);
    }

    /// The annealer's caches stay exact: after random insertions and
    /// legal moves, each priced and then settled or undone — on nets with
    /// up to four endpoints, repeated endpoints included — every cached
    /// net cost equals a fresh `net_cost` bit for bit, every placed
    /// instance's cached candidate index is the index of its anchor, and
    /// the grid holds exactly the placed footprints.
    #[test]
    fn cached_net_costs_stay_exact(problem in arb_problem(), seed in any::<u64>()) {
        let dev = Device::xc7z020();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut problem = problem;
        let n = problem.instances.len() as u32;
        for _ in 0..rng.gen_range(0..6u32) {
            let ends: Vec<u32> = (0..rng.gen_range(1..5u32))
                .map(|_| rng.gen_range(0..n))
                .collect();
            problem.add_net(&ends, rng.gen_range(1..9u32) as f64 / 4.0);
        }
        let mut state = State::new(&dev, &problem);
        for _ in 0..300 {
            let inst = rng.gen_range(0..n);
            let old = state.positions[inst as usize];
            if old.is_none() {
                try_insert(&mut state, inst, &mut rng);
            } else {
                let cand = state.tables.cand_of(inst);
                let idx = rng.gen_range(0..cand.count);
                let (x, y) = cand.nth(idx);
                let (bw, bh) = state.tables.footprint[inst as usize];
                if state.grid.is_free(x, y, bw, bh, old) {
                    state.price_move(inst, idx, (x, y));
                    if rng.gen_range(0..2u32) == 0 {
                        state.undo_move();
                    } else {
                        state.settle_move();
                    }
                }
            }
            for (i, &c) in state.net_costs.iter().enumerate() {
                let fresh = state.tables.net_cost(&state.positions, i as u32);
                prop_assert_eq!(c.to_bits(), fresh.to_bits(), "net {}", i);
            }
            for (i, pos) in state.positions.iter().enumerate() {
                let Some(at) = *pos else { continue };
                let cand = state.tables.cand_of(i as u32);
                prop_assert_eq!(state.cand_idx[i], cand.index_near(at), "instance {}", i);
                prop_assert_eq!(cand.nth(state.cand_idx[i]), at, "instance {}", i);
            }
            let mut fresh = Grid::new(dev.width(), dev.rows());
            for (i, pos) in state.positions.iter().enumerate() {
                if let Some((x, y)) = *pos {
                    let (bw, bh) = state.tables.footprint[i];
                    fresh.fill(x, y, bw, bh);
                }
            }
            prop_assert!(state.grid.same_cells(&fresh), "grid differs from the placed footprints");
        }
    }
}
