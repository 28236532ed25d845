//! Property tests: invariants of the stitcher for arbitrary problems.

#![cfg(test)]

use crate::problem::{MacroBlock, StitchProblem};
use crate::sa::{stitch, try_insert, State, StitchConfig};
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

    /// The annealer's caches stay exact: after random insertions, legal
    /// moves and undos — on nets with up to four endpoints, repeated
    /// endpoints included — every cached net cost equals a fresh
    /// `net_cost` bit for bit, and every placed instance's cached
    /// candidate index is the index of its anchor.
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
                    let delta = state.apply_move(inst, idx, (x, y));
                    if rng.gen_range(0..2u32) == 0 {
                        state.undo_move(inst, old, delta);
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
        }
    }
}
