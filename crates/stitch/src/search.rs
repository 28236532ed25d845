//! [`SearchProblem`] adapter: stitch placement as a portfolio problem.
//!
//! [`StitchSearch`] exposes the macro-stitching move set — range-limited
//! relocations over legal anchors, always-legal same-module swaps, plus
//! always-accepted insertion repairs for unplaced blocks — through the
//! [`tms_search::SearchProblem`] trait,
//! so the multi-lane portfolio in [`tms_search`] can drive it. It shares
//! the candidate tables, occupancy grid and incremental wirelength
//! accounting of the private `fabric` module with the single-run annealer, keeping
//! both in exact agreement about legality and cost.

use crate::fabric::{Grid, Tables};
use crate::problem::StitchProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tms_device::Device;
use tms_search::{Proposal, Score, SearchProblem};

/// A complete stitch placement owned by one portfolio lane.
#[derive(Clone)]
pub struct StitchSolution {
    positions: Vec<Option<(u32, u32)>>,
    grid: Grid,
    cost: f64,
    unplaced: u64,
}

impl StitchSolution {
    /// Anchor position of each instance (`None` = unplaced).
    pub fn positions(&self) -> &[Option<(u32, u32)>] {
        &self.positions
    }

    /// Wirelength cost of the placement.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Number of unplaced instances.
    pub fn unplaced(&self) -> u64 {
        self.unplaced
    }
}

/// Token reverting one applied move (relocation or swap).
pub struct StitchUndo {
    kind: UndoKind,
}

enum UndoKind {
    Move {
        inst: u32,
        old: Option<(u32, u32)>,
        delta: f64,
    },
    Swap {
        a: u32,
        b: u32,
        delta: f64,
    },
}

/// Stitch placement as a [`SearchProblem`]: shared read-only problem data
/// (candidate anchors, net incidence, fabric dimensions) precomputed once
/// and driven concurrently by every portfolio lane.
pub struct StitchSearch<'p> {
    problem: &'p StitchProblem,
    tables: Tables,
    width: u32,
    rows: u32,
    /// Instances sorted by descending footprint area (greedy/crossover order).
    order: Vec<u32>,
    /// Instance ids grouped by module: swap partners share a footprint.
    groups: Vec<Vec<u32>>,
}

impl<'p> StitchSearch<'p> {
    /// Precompute the shared search tables for `problem` on `device`.
    pub fn new(device: &Device, problem: &'p StitchProblem) -> Self {
        let mut order: Vec<u32> = (0..problem.instances.len() as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(problem.block_of(i).area()));
        let mut groups = vec![Vec::new(); problem.modules.len()];
        for (i, &m) in problem.instances.iter().enumerate() {
            groups[m].push(i as u32);
        }
        StitchSearch {
            problem,
            tables: Tables::new(device, problem),
            width: device.width(),
            rows: device.rows(),
            order,
            groups,
        }
    }

    /// The stitch problem this search places.
    pub fn problem(&self) -> &StitchProblem {
        self.problem
    }

    /// Move `inst` to the (legal) anchor `(x, y)`, returning the cost delta.
    fn apply_move(&self, s: &mut StitchSolution, inst: u32, x: u32, y: u32) -> f64 {
        let (bw, bh) = self.tables.footprint[inst as usize];
        let before = self.tables.incident_cost(&s.positions, inst);
        if let Some((ox, oy)) = s.positions[inst as usize] {
            s.grid.clear(ox, oy, bw, bh);
        } else {
            s.unplaced -= 1;
        }
        s.grid.fill(x, y, bw, bh);
        s.positions[inst as usize] = Some((x, y));
        let after = self.tables.incident_cost(&s.positions, inst);
        s.cost += after - before;
        after - before
    }

    /// Exchange the anchors of two placed same-module instances: identical
    /// footprints, so the move is always legal on any occupancy pattern
    /// and leaves the occupancy grid unchanged.
    fn swap_cells(&self, s: &mut StitchSolution, a: u32, b: u32) {
        let pa = s.positions[a as usize].expect("swap of a placed pair");
        let pb = s.positions[b as usize].expect("swap of a placed pair");
        s.positions[a as usize] = Some(pb);
        s.positions[b as usize] = Some(pa);
    }

    /// Swap `a` and `b` (placed, same module), returning the cost delta.
    fn apply_swap(&self, s: &mut StitchSolution, a: u32, b: u32) -> f64 {
        let before =
            self.tables.incident_cost(&s.positions, a) + self.tables.incident_cost(&s.positions, b);
        self.swap_cells(s, a, b);
        let after =
            self.tables.incident_cost(&s.positions, a) + self.tables.incident_cost(&s.positions, b);
        s.cost += after - before;
        after - before
    }

    /// Insert an unplaced `inst` at the first free candidate scanning from
    /// a random start (even fabric fill), returning the cost delta.
    fn try_insert(&self, s: &mut StitchSolution, inst: u32, rng: &mut StdRng) -> Option<f64> {
        if s.positions[inst as usize].is_some() {
            return None;
        }
        let (bw, bh) = self.tables.footprint[inst as usize];
        let cand = self.tables.cand_of(inst);
        if cand.count == 0 {
            return None;
        }
        let start = rng.gen_range(0..cand.count);
        let (x, y) = s.grid.first_free(cand, start, bw, bh)?;
        Some(self.apply_move(s, inst, x, y))
    }
}

impl SearchProblem for StitchSearch<'_> {
    type Solution = StitchSolution;
    type Undo = StitchUndo;

    /// Greedy legalisation, largest blocks first, scanning candidates from
    /// seeded random starts — the same construction the single-run
    /// annealer uses.
    fn initial(&self, seed: u64) -> StitchSolution {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.problem.instances.len();
        let mut s = StitchSolution {
            positions: vec![None; n],
            grid: Grid::new(self.width, self.rows),
            cost: 0.0,
            unplaced: n as u64,
        };
        for &inst in &self.order {
            self.try_insert(&mut s, inst, &mut rng);
        }
        s.cost = self.tables.total_cost(&s.positions);
        s
    }

    fn score(&self, s: &StitchSolution) -> Score {
        Score {
            infeasible: s.unplaced,
            cost: s.cost,
        }
    }

    fn propose(
        &self,
        s: &mut StitchSolution,
        temp_ratio: f64,
        rng: &mut StdRng,
    ) -> Proposal<StitchUndo> {
        let n_inst = self.problem.instances.len() as u32;
        if n_inst == 0 {
            return Proposal::Skip;
        }
        let inst = rng.gen_range(0..n_inst);
        // Drawing an unplaced instance becomes a repair attempt: Committed
        // (never undone) — placing a block outranks any wirelength change.
        if s.positions[inst as usize].is_none() {
            return match self.try_insert(s, inst, rng) {
                Some(delta) => Proposal::Committed {
                    delta,
                    infeasible_delta: -1,
                },
                None => Proposal::Illegal,
            };
        }
        let cand = self.tables.cand_of(inst);
        let count = cand.count;
        if count == 0 {
            return Proposal::Illegal;
        }
        // Same-module swap: on a dense fabric most relocation targets are
        // occupied, but exchanging two identical footprints is always
        // legal (and cheaper to evaluate than a legality scan), so most
        // proposals swap.
        if rng.gen_range(0..4u32) < 3 {
            let group = &self.groups[self.problem.instances[inst as usize]];
            if group.len() > 1 {
                let other = group[rng.gen_range(0..group.len() as u32) as usize];
                if other != inst && s.positions[other as usize].is_some() {
                    let delta = self.apply_swap(s, inst, other);
                    return Proposal::Applied {
                        delta,
                        undo: StitchUndo {
                            kind: UndoKind::Swap {
                                a: inst,
                                b: other,
                                delta,
                            },
                        },
                    };
                }
            }
            return Proposal::Illegal;
        }
        // VPR-style range limiting via the lane's temperature ratio.
        let window = ((temp_ratio.clamp(0.02, 1.0) * count as f64).max(8.0)) as u64;
        let (x, y) = if window >= count {
            cand.nth(rng.gen_range(0..count))
        } else {
            let cur = s.positions[inst as usize].unwrap();
            let cur_idx = cand.index_near(cur);
            let lo = cur_idx.saturating_sub(window / 2);
            let hi = (lo + window).min(count);
            cand.nth(rng.gen_range(lo..hi))
        };
        let old = s.positions[inst as usize];
        if old == Some((x, y)) {
            return Proposal::Illegal;
        }
        let (bw, bh) = self.tables.footprint[inst as usize];
        if !s.grid.is_free(x, y, bw, bh, old) {
            return Proposal::Illegal;
        }
        let delta = self.apply_move(s, inst, x, y);
        Proposal::Applied {
            delta,
            undo: StitchUndo {
                kind: UndoKind::Move { inst, old, delta },
            },
        }
    }

    fn undo(&self, s: &mut StitchSolution, undo: StitchUndo) {
        match undo.kind {
            UndoKind::Move { inst, old, delta } => {
                let (bw, bh) = self.tables.footprint[inst as usize];
                if let Some((x, y)) = s.positions[inst as usize] {
                    s.grid.clear(x, y, bw, bh);
                }
                if let Some((ox, oy)) = old {
                    s.grid.fill(ox, oy, bw, bh);
                }
                s.positions[inst as usize] = old;
                s.cost -= delta;
            }
            UndoKind::Swap { a, b, delta } => {
                self.swap_cells(s, a, b);
                // Exact restoration: subtract the recorded delta instead of
                // re-deriving it, so roundtrips are bit-identical.
                s.cost -= delta;
            }
        }
    }

    fn neighborhood(&self) -> u64 {
        // Instances × a bounded per-instance fan-out; the lanes clamp the
        // equilibrium inner loop to [64, 16384] anyway.
        (self.problem.instances.len() as u64).saturating_mul(32)
    }

    /// Path-relinking recombination: clone parent `a`, then graft a random
    /// contiguous window (quarter) of the area-ordered instance list
    /// toward parent `b`'s anchors via incremental legal relocations.
    /// Rebuilding a child from scratch — the classic uniform crossover —
    /// costs a full greedy construction plus a global cost recompute,
    /// which on placement-sized problems is more than an entire SA round;
    /// grafting touches only the window and keeps the incremental cost
    /// bookkeeping exact.
    fn crossover(
        &self,
        a: &StitchSolution,
        b: &StitchSolution,
        rng: &mut StdRng,
    ) -> StitchSolution {
        let mut child = a.clone();
        let n = self.order.len();
        if n == 0 {
            return child;
        }
        let len = (n / 4).max(1);
        let start = rng.gen_range(0..n as u32) as usize;
        for k in 0..len {
            let inst = self.order[(start + k) % n];
            let Some((x, y)) = b.positions[inst as usize] else {
                continue;
            };
            if child.positions[inst as usize] == Some((x, y)) {
                continue;
            }
            let (bw, bh) = self.tables.footprint[inst as usize];
            // `is_free` counts `inst`'s own footprint as free, so a placed
            // instance can slide onto an overlapping target.
            let own = child.positions[inst as usize];
            if child.grid.is_free(x, y, bw, bh, own) {
                self.apply_move(&mut child, inst, x, y);
            }
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MacroBlock;

    fn block(dev: &Device, w: u32, h: u32) -> MacroBlock {
        MacroBlock {
            name: "m".into(),
            signature: dev.signature(0, w),
            width: w,
            height: h,
            used_slices: w * h / 2,
            irregularity: 0.2,
        }
    }

    fn chain(dev: &Device, n: u32, w: u32, h: u32) -> StitchProblem {
        let mut p = StitchProblem::new(vec![block(dev, w, h)]);
        let ids: Vec<u32> = (0..n).map(|_| p.add_instance(0)).collect();
        for pair in ids.windows(2) {
            p.add_net(pair, 1.0);
        }
        p
    }

    fn assert_consistent(search: &StitchSearch<'_>, s: &StitchSolution) {
        // Cached cost and unplaced count match a from-scratch recompute.
        let true_cost = search.tables.total_cost(&s.positions);
        assert!(
            (s.cost - true_cost).abs() < 1e-6,
            "cached {} vs true {}",
            s.cost,
            true_cost
        );
        let true_unplaced = s.positions.iter().filter(|p| p.is_none()).count() as u64;
        assert_eq!(s.unplaced, true_unplaced);
        // No two placed footprints overlap.
        for (i, pi) in s.positions.iter().enumerate() {
            let Some((xi, yi)) = *pi else { continue };
            let bi = search.problem.block_of(i as u32);
            let ri = tms_device::Rect::new(xi, yi, bi.width, bi.height);
            for (j, pj) in s.positions.iter().enumerate().take(i) {
                let Some((xj, yj)) = *pj else { continue };
                let bj = search.problem.block_of(j as u32);
                let rj = tms_device::Rect::new(xj, yj, bj.width, bj.height);
                assert!(!ri.overlaps(&rj), "{i} and {j} overlap");
            }
        }
    }

    #[test]
    fn initial_is_legal_and_deterministic() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 25, 3, 10);
        let search = StitchSearch::new(&dev, &p);
        let a = search.initial(42);
        let b = search.initial(42);
        assert_eq!(a.positions, b.positions);
        assert_consistent(&search, &a);
        assert_eq!(a.unplaced, 0);
    }

    #[test]
    fn propose_undo_roundtrips_exactly() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 20, 3, 12);
        let search = StitchSearch::new(&dev, &p);
        let mut s = search.initial(1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut applied = 0;
        for _ in 0..500 {
            let snapshot = s.positions.clone();
            match search.propose(&mut s, 0.5, &mut rng) {
                Proposal::Applied { undo, .. } => {
                    applied += 1;
                    search.undo(&mut s, undo);
                    assert_eq!(s.positions, snapshot, "undo must restore positions");
                }
                Proposal::Committed { .. } => {}
                Proposal::Illegal | Proposal::Skip => {}
            }
            assert_consistent(&search, &s);
        }
        assert!(applied > 50, "only {applied} applied moves in 500");
    }

    #[test]
    fn committed_repairs_reduce_unplaced() {
        let dev = Device::xc7z020();
        // Oversubscribed: not everything fits, so the initial solution has
        // unplaced blocks and repair proposals fire.
        let p = chain(&dev, 120, 8, 25);
        let search = StitchSearch::new(&dev, &p);
        let mut s = search.initial(3);
        assert!(s.unplaced > 0);
        let before = s.unplaced;
        let mut rng = StdRng::seed_from_u64(4);
        let mut committed = 0;
        for _ in 0..4000 {
            if let Proposal::Committed {
                infeasible_delta, ..
            } = search.propose(&mut s, 1.0, &mut rng)
            {
                assert_eq!(infeasible_delta, -1);
                committed += 1;
            }
        }
        assert_consistent(&search, &s);
        assert_eq!(s.unplaced, before - committed);
    }

    #[test]
    fn crossover_children_are_legal() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 30, 3, 10);
        let search = StitchSearch::new(&dev, &p);
        let a = search.initial(10);
        let b = search.initial(11);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let child = search.crossover(&a, &b, &mut rng);
            assert_consistent(&search, &child);
            // Roomy device: the repair pass places everything.
            assert_eq!(child.unplaced, 0);
        }
    }

    #[test]
    fn scores_match_solution_state() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 15, 3, 10);
        let search = StitchSearch::new(&dev, &p);
        let s = search.initial(7);
        let score = search.score(&s);
        assert_eq!(score.infeasible, s.unplaced);
        assert!((score.cost - s.cost).abs() < 1e-12);
    }
}
