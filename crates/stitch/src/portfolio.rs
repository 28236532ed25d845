//! Portfolio stitching: drive [`crate::search::StitchSearch`] with the
//! multi-lane search portfolio of [`tms_search`] and map the outcome back
//! onto the stitcher's own [`StitchResult`] shape.
//!
//! The portfolio runs several independently-seeded SA lanes plus an
//! evolutionary lane over the same placement problem, exchanging the best
//! placement at deterministic round barriers. Same portfolio seed ⇒ same
//! best placement, bit-identical for every thread count.

use crate::sa::StitchResult;
use crate::search::StitchSearch;
use crate::StitchProblem;
use tms_device::Device;
use tms_search::{EaParams, LaneKind, LaneReport, PortfolioConfig, SaParams, Score};

/// The tuned portfolio behind `tms stitch --portfolio`: two SA lanes and
/// one EA lane that reach equal-or-better wirelength than the 120k-move
/// standard schedule in a fraction of its moves (statistical initial
/// temperature, equilibrium inner loops, early stall stop). Its cnvW1A1
/// outcome on the xc7z045 is pinned by the flow crate's stitch golden test.
pub fn canonical_portfolio(seed: u64) -> PortfolioConfig {
    PortfolioConfig {
        sa_lanes: 2,
        ea_lanes: 1,
        rounds: 3,
        moves_per_round: 800,
        stall_stop: 2,
        sa: SaParams {
            cooling: 0.85,
            ..SaParams::default()
        },
        ea: EaParams {
            population: 3,
            moves_per_offspring: 1_600,
            ..EaParams::default()
        },
        ..PortfolioConfig::new(seed)
    }
}

/// Portfolio-level accounting kept alongside the mapped [`StitchResult`].
#[derive(Debug, Clone)]
pub struct StitchPortfolioReport {
    /// Exchange rounds actually run.
    pub rounds_run: u32,
    /// Wall-clock time of the whole portfolio run.
    pub wall: std::time::Duration,
    /// Whether the wall-clock deadline ended the run.
    pub deadline_hit: bool,
    /// Whether the stall-stop rule ended the run.
    pub stalled_out: bool,
    /// Exchange barriers executed.
    pub exchanges: u64,
    /// Global-best adoptions across all lanes.
    pub adoptions: u64,
    /// Cruz-Chávez restarts across all SA lanes.
    pub restarts: u64,
    /// Index of the winning lane.
    pub winner: usize,
    /// Kind of the winning lane.
    pub winner_kind: LaneKind,
    /// Best score (unplaced count + wirelength) of the returned placement.
    pub best_score: Score,
    /// Per-lane reports, SA lanes first.
    pub lanes: Vec<LaneReport>,
}

/// Run the search portfolio on a stitch problem (no telemetry).
pub fn stitch_portfolio(
    device: &Device,
    problem: &StitchProblem,
    cfg: &PortfolioConfig,
) -> (StitchResult, StitchPortfolioReport) {
    stitch_portfolio_observed(device, problem, cfg, tms_obs::noop())
}

/// [`stitch_portfolio`] with telemetry: the portfolio's `search.*`
/// counters and `search.portfolio` span flow through `obs`, plus the
/// stitcher's own `stitch.*` counters so portfolio runs and single-run
/// anneals stay comparable on one dashboard.
pub fn stitch_portfolio_observed(
    device: &Device,
    problem: &StitchProblem,
    cfg: &PortfolioConfig,
    obs: &dyn tms_obs::Recorder,
) -> (StitchResult, StitchPortfolioReport) {
    let search = StitchSearch::new(device, problem);
    let out = tms_search::run_portfolio_observed(&search, cfg, obs);

    let positions = out.best.positions().to_vec();
    let unplaced: Vec<u32> = positions
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(i, _)| i as u32)
        .collect();

    // The single-run result reports the greedy-legalisation cost as its
    // baseline; lane 0's initial solution is the portfolio's equivalent.
    let initial_cost = out.lanes.first().map_or(0.0, |l| l.initial_cost);
    let final_cost = out.best_score.cost;

    // Convergence over the exchange trace: first round whose global best
    // is within 1% of the final improvement.
    let improvement = (initial_cost - final_cost).max(1e-12);
    let threshold = final_cost + 0.01 * improvement;
    let convergence_move = out
        .trace
        .iter()
        .find(|&&(_, c)| c <= threshold)
        .map(|&(m, _)| m)
        .unwrap_or(out.total_moves);
    let best_move = out
        .trace
        .iter()
        .find(|&&(_, c)| c <= final_cost + 1e-9)
        .map(|&(m, _)| m)
        .unwrap_or(out.total_moves);

    // Winner temperature; an EA winner has no schedule, so fall back to
    // the first SA lane's terminal temperature.
    let final_temp = out.lanes[out.winner]
        .temps
        .last()
        .or_else(|| out.lanes.iter().find_map(|l| l.temps.last()))
        .copied()
        .unwrap_or(0.0);

    let result = StitchResult {
        placed_count: positions.len() - unplaced.len(),
        unplaced_count: unplaced.len(),
        positions,
        unplaced,
        initial_cost,
        final_cost,
        illegal_moves: out.lanes.iter().map(|l| l.illegal).sum(),
        accepted_moves: out.lanes.iter().map(|l| l.accepted).sum(),
        rejected_moves: out.lanes.iter().map(|l| l.rejected).sum(),
        final_temp,
        late_insertions: 0,
        total_moves: out.total_moves,
        convergence_move,
        best_move,
        cost_trace: out.trace.clone(),
    };

    obs.count("stitch.placed", result.placed_count as u64);
    obs.count("stitch.unplaced", result.unplaced_count as u64);
    obs.count("stitch.moves", result.total_moves);
    obs.count("stitch.accepted", result.accepted_moves);
    obs.count("stitch.rejected", result.rejected_moves);
    obs.count("stitch.illegal", result.illegal_moves);
    obs.observe("stitch.cost", result.final_cost);
    obs.observe("stitch.final_temp", result.final_temp);

    let report = StitchPortfolioReport {
        rounds_run: out.rounds_run,
        wall: out.wall,
        deadline_hit: out.deadline_hit,
        stalled_out: out.stalled_out,
        exchanges: out.exchanges,
        adoptions: out.adoptions,
        restarts: out.lanes.iter().map(|l| l.restarts).sum(),
        winner: out.winner,
        winner_kind: out.lanes[out.winner].kind,
        best_score: out.best_score,
        lanes: out.lanes,
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MacroBlock;
    use crate::sa::{stitch, StitchConfig};

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

    fn quick_cfg(seed: u64) -> PortfolioConfig {
        PortfolioConfig {
            rounds: 4,
            moves_per_round: 2_000,
            stall_stop: 0,
            ..PortfolioConfig::new(seed)
        }
    }

    #[test]
    fn portfolio_placement_is_legal_and_complete() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 25, 3, 10);
        let (r, report) = stitch_portfolio(&dev, &p, &quick_cfg(1));
        assert_eq!(r.unplaced_count, 0);
        assert_eq!(r.placed_count, 25);
        assert_eq!(report.lanes.len(), 4);
        assert!(report.rounds_run >= 1);
        for i in 0..25u32 {
            for j in 0..i {
                let (a, b) = (
                    r.positions[i as usize].unwrap(),
                    r.positions[j as usize].unwrap(),
                );
                let ra = tms_device::Rect::new(a.0, a.1, 3, 10);
                let rb = tms_device::Rect::new(b.0, b.1, 3, 10);
                assert!(!ra.overlaps(&rb), "{i} and {j} overlap");
            }
        }
    }

    #[test]
    fn thread_count_is_invisible_on_a_real_stitch_problem() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 30, 3, 12);
        let mut cfg = quick_cfg(7);
        cfg.threads = 1;
        let (a, ra) = stitch_portfolio(&dev, &p, &cfg);
        cfg.threads = 8;
        let (b, rb) = stitch_portfolio(&dev, &p, &cfg);
        assert_eq!(a.positions, b.positions, "thread count changed placement");
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.accepted_moves, b.accepted_moves);
        assert_eq!(a.illegal_moves, b.illegal_moves);
        assert_eq!(ra.winner, rb.winner);
        assert_eq!(ra.rounds_run, rb.rounds_run);
    }

    #[test]
    fn deadline_bounds_the_portfolio() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 40, 3, 10);
        let cfg = PortfolioConfig {
            rounds: 10_000,
            moves_per_round: 2_000,
            stall_stop: 0,
            ..PortfolioConfig::new(2)
        }
        .with_deadline_ms(150);
        let started = std::time::Instant::now();
        let (_, report) = stitch_portfolio(&dev, &p, &cfg);
        let wall = started.elapsed();
        assert!(report.deadline_hit);
        assert!(
            wall < std::time::Duration::from_millis(2_000),
            "took {wall:?} against a 150ms budget"
        );
    }

    #[test]
    fn portfolio_matches_or_beats_an_equal_budget_single_run() {
        let dev = Device::xc7z020();
        let p = chain(&dev, 30, 3, 12);
        let (portfolio, _) = stitch_portfolio(&dev, &p, &quick_cfg(5));
        // Single-run anneal with the same total move budget.
        let single = stitch(
            &dev,
            &p,
            &StitchConfig {
                max_moves: 4 * 4 * 2_000,
                ..StitchConfig::fast(5)
            },
        );
        assert_eq!(portfolio.unplaced_count, 0);
        assert!(
            portfolio.final_cost <= single.final_cost * 1.10,
            "portfolio {} much worse than single-run {}",
            portfolio.final_cost,
            single.final_cost
        );
    }

    #[test]
    fn observed_portfolio_records_both_metric_families() {
        use tms_obs::AggregatingSink;
        let dev = Device::xc7z020();
        let p = chain(&dev, 20, 3, 10);
        let sink = AggregatingSink::new();
        let (r, report) = stitch_portfolio_observed(&dev, &p, &quick_cfg(3), &sink);
        // Portfolio family…
        assert_eq!(sink.counter("search.rounds"), u64::from(report.rounds_run));
        assert_eq!(sink.counter("search.lane.sa"), 3);
        assert_eq!(sink.counter("search.lane.ea"), 1);
        // …and the stitcher family, reconciling with the mapped result.
        assert_eq!(sink.counter("stitch.placed"), r.placed_count as u64);
        assert_eq!(sink.counter("stitch.accepted"), r.accepted_moves);
        assert_eq!(sink.counter("stitch.moves"), r.total_moves);
        let (_, cost) = sink.observation("stitch.cost").unwrap();
        assert!((cost - r.final_cost).abs() < 1e-9);
    }
}
