//! The canonical stitch benchmark: portfolio versus single-run SA on the
//! cnvW1A1 stitch problem, with a machine-portable regression gate.
//!
//! [`run_stitch_bench`] pre-implements cnvW1A1 once (constant CF, so the
//! stitch problem is identical run to run), then stitches it twice: with
//! the seed-era single-run annealer at its standard 120k-move schedule,
//! and with the multi-lane search portfolio. The [`StitchBenchReport`] it
//! returns serialises to the committed `BENCH_stitch.json` snapshot.
//!
//! [`check_regression`] gates CI on the *machine-independent* metrics —
//! wirelength, placed counts, and the move ratio
//! `baseline.moves / portfolio.moves`, exact for a seed — never on
//! wall-clock, so the committed snapshot stays valid across hardware. The
//! wall-clock `speedup` is recorded but not gated.

use crate::rwflow::{run_rw_flow, CfPolicy, RwFlowConfig};
use tms_cnn::cnvw1a1;
use tms_device::Device;
use tms_place::PlacementModel;
use tms_search::{EaParams, LaneKind, PortfolioConfig, SaParams};
use tms_stitch::{stitch, stitch_portfolio, StitchConfig, StitchProblem};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct StitchBenchConfig {
    /// Seed for the design, the flow, and both stitchers.
    pub seed: u64,
    /// Timed repetitions per contender; the median wall-clock is reported.
    pub reps: u32,
    /// The single-run baseline schedule.
    pub baseline: StitchConfig,
    /// The portfolio contender.
    pub portfolio: PortfolioConfig,
}

impl StitchBenchConfig {
    /// The canonical configuration behind the committed snapshot: the
    /// seed-era 120k-move standard schedule versus a portfolio tuned to
    /// reach equal-or-better wirelength in a fraction of the budget
    /// (statistical initial temperature, equilibrium inner loops, early
    /// stall stop).
    pub fn canonical(seed: u64) -> Self {
        StitchBenchConfig {
            seed,
            reps: 3,
            baseline: StitchConfig::standard(seed),
            portfolio: PortfolioConfig {
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
            },
        }
    }

    /// The canonical contenders timed with a single repetition — the CI
    /// smoke mode. Metrics other than wall-clock are identical to
    /// [`Self::canonical`] (both stitchers are deterministic), so the
    /// quick run is comparable against the committed snapshot.
    pub fn quick(seed: u64) -> Self {
        StitchBenchConfig {
            reps: 1,
            ..Self::canonical(seed)
        }
    }
}

/// Wall-clock and quality of one contender.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Median wall-clock over the configured repetitions, in milliseconds.
    pub wall_ms: f64,
    /// Final half-perimeter wirelength.
    pub hpwl: f64,
    /// Blocks placed.
    pub placed: u64,
    /// Blocks left unplaced.
    pub unplaced: u64,
    /// Total proposed moves.
    pub moves: u64,
}

/// The committed benchmark snapshot (`BENCH_stitch.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StitchBenchReport {
    /// Snapshot schema version.
    pub schema: u32,
    /// Benchmarked design.
    pub design: String,
    /// Target device (the smallest of the ladder that fits all instances).
    pub device: String,
    /// Seed of the design, flow, and stitchers.
    pub seed: u64,
    /// Instances in the stitch problem.
    pub instances: u64,
    /// The single-run SA baseline.
    pub baseline: RunStats,
    /// The search portfolio.
    pub portfolio: RunStats,
    /// `baseline.wall_ms / portfolio.wall_ms` (recorded, never gated).
    pub speedup: f64,
    /// `portfolio.hpwl / baseline.hpwl` (≤ 1 means equal or better).
    pub hpwl_ratio: f64,
    /// Exchange rounds the portfolio ran.
    pub rounds: u32,
    /// Cruz-Chávez restarts across SA lanes.
    pub restarts: u64,
    /// Rounds won by SA lanes.
    pub lane_wins_sa: u32,
    /// Rounds won by EA lanes.
    pub lane_wins_ea: u32,
    /// Whether the portfolio ended on the stall-stop rule.
    pub stalled_out: bool,
}

/// Build the benchmark's stitch problem: cnvW1A1 pre-implemented with a
/// constant CF (every module succeeds, so the problem has all 175
/// instances and is a pure function of the seed).
pub fn bench_problem(device: &Device, seed: u64) -> StitchProblem {
    let design = cnvw1a1(seed);
    let cfg = RwFlowConfig {
        policy: CfPolicy::Constant(1.72),
        use_shape_report: true,
        model: PlacementModel::deterministic(),
        // The flow's own stitch is irrelevant here — the fast schedule
        // keeps problem construction cheap; the contenders re-stitch.
        stitch: StitchConfig::fast(seed),
        portfolio: None,
        mem_pack: tms_pack::MemPackConfig::off(),
        seed,
        obs: tms_obs::noop(),
    };
    run_rw_flow(&design, device, &cfg).problem
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Run both contenders on the shared problem and build the report.
pub fn run_stitch_bench(cfg: &StitchBenchConfig) -> StitchBenchReport {
    // The xc7z045 fits all 175 cnvW1A1 instances at CF 1.72, so both
    // contenders fight over wirelength on fully placed solutions — on the
    // xc7z020 the problem over-subscribes the fabric and HPWL would
    // compare placements of different subsets.
    let device = Device::xc7z045();
    let problem = bench_problem(&device, cfg.seed);
    let reps = cfg.reps.max(1);

    let mut baseline_walls = Vec::new();
    let mut baseline = None;
    for _ in 0..reps {
        let started = std::time::Instant::now();
        let r = stitch(&device, &problem, &cfg.baseline);
        baseline_walls.push(started.elapsed().as_secs_f64() * 1e3);
        baseline = Some(r);
    }
    let baseline = baseline.expect("reps >= 1");

    let mut portfolio_walls = Vec::new();
    let mut portfolio = None;
    for _ in 0..reps {
        let started = std::time::Instant::now();
        let r = stitch_portfolio(&device, &problem, &cfg.portfolio);
        portfolio_walls.push(started.elapsed().as_secs_f64() * 1e3);
        portfolio = Some(r);
    }
    let (presult, preport) = portfolio.expect("reps >= 1");

    let baseline_stats = RunStats {
        wall_ms: median_ms(baseline_walls),
        hpwl: baseline.final_cost,
        placed: baseline.placed_count as u64,
        unplaced: baseline.unplaced_count as u64,
        moves: baseline.total_moves,
    };
    let portfolio_stats = RunStats {
        wall_ms: median_ms(portfolio_walls),
        hpwl: presult.final_cost,
        placed: presult.placed_count as u64,
        unplaced: presult.unplaced_count as u64,
        moves: presult.total_moves,
    };
    let speedup = baseline_stats.wall_ms / portfolio_stats.wall_ms.max(1e-9);
    let hpwl_ratio = portfolio_stats.hpwl / baseline_stats.hpwl.max(1e-9);
    let (mut wins_sa, mut wins_ea) = (0u32, 0u32);
    for lane in &preport.lanes {
        match lane.kind {
            LaneKind::Sa => wins_sa += lane.wins,
            LaneKind::Ea => wins_ea += lane.wins,
        }
    }
    StitchBenchReport {
        schema: 1,
        design: "cnvW1A1".to_string(),
        device: "xc7z045".to_string(),
        seed: cfg.seed,
        instances: problem.instances.len() as u64,
        baseline: baseline_stats,
        portfolio: portfolio_stats,
        speedup,
        hpwl_ratio,
        rounds: preport.rounds_run,
        restarts: preport.restarts,
        lane_wins_sa: wins_sa,
        lane_wins_ea: wins_ea,
        stalled_out: preport.stalled_out,
    }
}

/// `baseline.moves / portfolio.moves`: how many times fewer moves the
/// portfolio proposes than the single-run baseline.
fn move_ratio(report: &StitchBenchReport) -> f64 {
    report.baseline.moves as f64 / report.portfolio.moves.max(1) as f64
}

/// Compare a fresh report against the committed snapshot. Returns one
/// violation message per tracked metric that regressed beyond
/// `tolerance` (e.g. `0.2` = 20%). Only machine-independent metrics are
/// gated; wall-clock and the `speedup` derived from it are recorded but
/// never compared.
pub fn check_regression(
    old: &StitchBenchReport,
    new: &StitchBenchReport,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if new.schema != old.schema {
        violations.push(format!(
            "schema changed: snapshot {} vs current {} — regenerate the snapshot",
            old.schema, new.schema
        ));
        return violations;
    }
    let worse = 1.0 + tolerance;
    if new.portfolio.hpwl > old.portfolio.hpwl * worse {
        violations.push(format!(
            "portfolio HPWL regressed: {:.1} vs snapshot {:.1} (>{:.0}%)",
            new.portfolio.hpwl,
            old.portfolio.hpwl,
            tolerance * 100.0
        ));
    }
    if new.baseline.hpwl > old.baseline.hpwl * worse {
        violations.push(format!(
            "baseline HPWL regressed: {:.1} vs snapshot {:.1} (>{:.0}%)",
            new.baseline.hpwl,
            old.baseline.hpwl,
            tolerance * 100.0
        ));
    }
    if new.portfolio.placed < old.portfolio.placed {
        violations.push(format!(
            "portfolio placed fewer blocks: {} vs snapshot {}",
            new.portfolio.placed, old.portfolio.placed
        ));
    }
    if move_ratio(new) < move_ratio(old) / worse {
        violations.push(format!(
            "move ratio regressed: {:.2}x vs snapshot {:.2}x (>{:.0}%)",
            move_ratio(new),
            move_ratio(old),
            tolerance * 100.0
        ));
    }
    if new.hpwl_ratio > old.hpwl_ratio * worse {
        violations.push(format!(
            "portfolio/baseline HPWL ratio regressed: {:.3} vs snapshot {:.3}",
            new.hpwl_ratio, old.hpwl_ratio
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> StitchBenchConfig {
        // Small budgets: these tests check plumbing, not the headline
        // move ratio (the committed snapshot and CI smoke job cover that).
        StitchBenchConfig {
            seed: 1,
            reps: 1,
            baseline: StitchConfig::fast(1),
            portfolio: PortfolioConfig {
                rounds: 2,
                moves_per_round: 500,
                stall_stop: 0,
                ..PortfolioConfig::new(1)
            },
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run_stitch_bench(&tiny_cfg());
        assert_eq!(report.instances, 175);
        assert!(report.baseline.wall_ms > 0.0);
        assert!(report.portfolio.wall_ms > 0.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: StitchBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, report.seed);
        assert_eq!(back.portfolio.placed, report.portfolio.placed);
        assert!((back.speedup - report.speedup).abs() < 1e-9);
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = run_stitch_bench(&tiny_cfg());
        assert!(check_regression(&report, &report, 0.2).is_empty());
    }

    #[test]
    fn regressions_are_flagged() {
        let old = run_stitch_bench(&tiny_cfg());
        let mut bad = old.clone();
        bad.portfolio.hpwl = old.portfolio.hpwl * 1.5;
        bad.portfolio.moves = old.portfolio.moves * 2;
        bad.portfolio.placed = old.portfolio.placed.saturating_sub(1);
        bad.hpwl_ratio = old.hpwl_ratio * 1.5;
        let violations = check_regression(&old, &bad, 0.2);
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("move ratio")));
        // Wall-clock, and the speedup derived from it, are never gated.
        let mut slow = old.clone();
        slow.baseline.wall_ms *= 10.0;
        slow.portfolio.wall_ms *= 10.0;
        slow.speedup = old.speedup / 10.0;
        assert!(check_regression(&old, &slow, 0.2).is_empty());
    }

    #[test]
    fn schema_mismatch_short_circuits() {
        let old = run_stitch_bench(&tiny_cfg());
        let mut newer = old.clone();
        newer.schema += 1;
        let violations = check_regression(&old, &newer, 0.2);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("schema"));
    }
}
