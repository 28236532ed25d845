//! The simulated-annealing stitcher.

use crate::fabric::{Grid, Tables};
use crate::problem::StitchProblem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tms_device::Device;

/// SA schedule and bookkeeping knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StitchConfig {
    /// RNG seed; the whole anneal is deterministic given it.
    pub seed: u64,
    /// Total proposed moves.
    pub max_moves: u64,
    /// Moves between temperature updates.
    pub moves_per_temp: u32,
    /// Geometric cooling factor per temperature step.
    pub cooling: f64,
    /// Attempt to insert an unplaced instance every this many moves.
    pub retry_unplaced_every: u64,
    /// Cost-trace sampling period, in moves.
    pub sample_every: u64,
    /// VPR-style range limiting: propose moves near the current location
    /// as the temperature drops. Disable to ablate (pure random targets).
    pub range_limited: bool,
}

impl StitchConfig {
    /// A production-quality schedule for designs of a few hundred macros.
    pub fn standard(seed: u64) -> Self {
        StitchConfig {
            seed,
            max_moves: 120_000,
            moves_per_temp: 256,
            cooling: 0.985,
            retry_unplaced_every: 500,
            sample_every: 500,
            range_limited: true,
        }
    }

    /// A short schedule for tests and docs.
    pub fn fast(seed: u64) -> Self {
        StitchConfig {
            seed,
            max_moves: 4_000,
            moves_per_temp: 64,
            cooling: 0.95,
            retry_unplaced_every: 200,
            sample_every: 100,
            range_limited: true,
        }
    }
}

/// Outcome of a stitching run.
#[derive(Debug, Clone)]
pub struct StitchResult {
    /// Anchor position of each instance (`None` = unplaced).
    pub positions: Vec<Option<(u32, u32)>>,
    /// Instances that could not be placed.
    pub unplaced: Vec<u32>,
    /// Number of placed instances.
    pub placed_count: usize,
    /// Number of unplaced instances.
    pub unplaced_count: usize,
    /// Wirelength cost after greedy legalisation.
    pub initial_cost: f64,
    /// Wirelength cost at the end of the anneal.
    pub final_cost: f64,
    /// Moves rejected because the target fabric was occupied.
    pub illegal_moves: u64,
    /// Legal moves accepted by the Metropolis criterion.
    pub accepted_moves: u64,
    /// Legal moves rejected (and undone) by the Metropolis criterion.
    pub rejected_moves: u64,
    /// Temperature when the anneal stopped.
    pub final_temp: f64,
    /// Initially-unplaced instances successfully inserted during the
    /// anneal (each can raise the cost above `initial_cost`, since its
    /// nets gain endpoints). Always 0 from [`crate::stitch_portfolio`]:
    /// its lanes commit insertion repairs without counting them.
    pub late_insertions: u64,
    /// Total proposed moves.
    pub total_moves: u64,
    /// Move index at which the cost first came within 1% of its final
    /// improvement — the convergence measure behind the paper's 1.37×.
    pub convergence_move: u64,
    /// Move index at which the best (returned) placement was found.
    pub best_move: u64,
    /// Sampled `(move, cost)` trace.
    pub cost_trace: Vec<(u64, f64)>,
}

impl StitchResult {
    /// Total fabric cells covered by placed footprints.
    pub fn placed_area(&self, problem: &StitchProblem) -> u64 {
        self.positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| problem.block_of(i as u32).area())
            .sum()
    }

    /// Dead cells locked inside placed footprints (PBlock waste).
    pub fn wasted_cells(&self, problem: &StitchProblem) -> u64 {
        self.positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| {
                let b = problem.block_of(i as u32);
                b.area().saturating_sub(u64::from(b.used_slices))
            })
            .sum()
    }
}

/// The single-run annealer's placement over the flat problem tables.
///
/// A move is made in two steps. [`State::price_move`] updates the
/// positions, the candidate index and the net costs and returns the cost
/// delta; then [`State::settle_move`] writes the occupancy grid, or
/// [`State::undo_move`] restores what pricing changed. Nothing reads the
/// grid between the two, so a rejected move never touches it.
pub(crate) struct State {
    pub(crate) tables: Tables,
    pub(crate) positions: Vec<Option<(u32, u32)>>,
    /// Candidate index of each placed instance's anchor: exact, because
    /// every anchor an instance is placed at is one of its candidates.
    pub(crate) cand_idx: Vec<u64>,
    pub(crate) grid: Grid,
    pub(crate) cost: f64,
    /// Current half-perimeter wirelength of every net, always equal bit
    /// for bit to a fresh [`Tables::net_cost`] under `positions`.
    pub(crate) net_costs: Vec<f64>,
    /// The last priced move, for [`State::settle_move`] and
    /// [`State::undo_move`].
    priced: Priced,
    /// The costs of the last priced instance's incident nets before the
    /// move, in incidence order.
    saved: Vec<f64>,
    /// Per anchor class, the smallest footprint height whose insertion
    /// scan found no free anchor, and `frees` when it failed.
    failed: Vec<Option<(u32, u64)>>,
    /// Settled moves that freed cells. Filling cells cannot make a failed
    /// scan succeed, so a failure holds until this count moves.
    frees: u64,
}

/// An instance's anchor and candidate index before its priced move, and
/// the move's cost delta.
#[derive(Default)]
struct Priced {
    inst: u32,
    from: Option<(u32, u32)>,
    from_idx: u64,
    delta: f64,
}

impl State {
    /// An empty placement of `problem` on `device`.
    pub(crate) fn new(device: &Device, problem: &StitchProblem) -> Self {
        let n = problem.instances.len();
        State {
            tables: Tables::new(device, problem),
            positions: vec![None; n],
            cand_idx: vec![0; n],
            grid: Grid::new(device.width(), device.rows()),
            cost: 0.0,
            // A net with fewer than two placed endpoints costs 0.
            net_costs: vec![0.0; problem.nets.len()],
            priced: Priced::default(),
            saved: Vec::new(),
            failed: vec![None; problem.modules.len()],
            frees: 0,
        }
    }

    /// Price moving `inst` to its candidate `idx` at `(x, y)` (must be
    /// legal): update its position, candidate index and net costs, and
    /// return the cost delta. The grid is left as it was.
    ///
    /// The "before" cost sums the cached net costs in incidence order,
    /// the same terms and order a fresh recompute would sum, so the delta
    /// is bitwise the same.
    pub(crate) fn price_move(&mut self, inst: u32, idx: u64, (x, y): (u32, u32)) -> f64 {
        let nets = self.tables.incident(inst);
        self.saved.clear();
        self.saved
            .extend(nets.iter().map(|&n| self.net_costs[n as usize]));
        let before: f64 = self.saved.iter().copied().sum();
        let from = self.positions[inst as usize].replace((x, y));
        let from_idx = std::mem::replace(&mut self.cand_idx[inst as usize], idx);
        let after: f64 = nets
            .iter()
            .map(|&n| {
                let c = self.tables.net_cost(&self.positions, n);
                self.net_costs[n as usize] = c;
                c
            })
            .sum();
        let delta = after - before;
        self.cost += delta;
        self.priced = Priced {
            inst,
            from,
            from_idx,
            delta,
        };
        delta
    }

    /// Write the last priced move into the grid.
    pub(crate) fn settle_move(&mut self) {
        let Priced { inst, from, .. } = self.priced;
        let (bw, bh) = self.tables.footprint[inst as usize];
        if let Some((ox, oy)) = from {
            self.grid.clear(ox, oy, bw, bh);
            self.frees += 1;
        }
        let (x, y) = self.positions[inst as usize].expect("a priced instance is placed");
        self.grid.fill(x, y, bw, bh);
    }

    /// Revert the last priced move.
    pub(crate) fn undo_move(&mut self) {
        let Priced {
            inst,
            from,
            from_idx,
            delta,
        } = self.priced;
        self.positions[inst as usize] = from;
        self.cand_idx[inst as usize] = from_idx;
        for (&n, &c) in self.tables.incident(inst).iter().zip(&self.saved) {
            self.net_costs[n as usize] = c;
        }
        self.cost -= delta;
    }
}

/// Fires on every `period`-th tick, never for period 0: the test
/// `tick_count.is_multiple_of(period)` without a division.
struct Every {
    period: u64,
    left: u64,
}

impl Every {
    fn new(period: u64) -> Self {
        let left = if period == 0 { u64::MAX } else { period };
        Every { period, left }
    }

    fn tick(&mut self) -> bool {
        self.left -= 1;
        let fire = self.left == 0;
        if fire {
            self.left = self.period;
        }
        fire
    }
}

/// Run greedy legalisation followed by simulated annealing.
pub fn stitch(device: &Device, problem: &StitchProblem, config: &StitchConfig) -> StitchResult {
    anneal(device, problem, config, try_insert)
}

/// [`stitch`] with `insert` placing an unplaced instance, in the greedy
/// pass and in the unplaced-block retries.
pub(crate) fn anneal(
    device: &Device,
    problem: &StitchProblem,
    config: &StitchConfig,
    insert: impl Fn(&mut State, u32, &mut StdRng) -> bool,
) -> StitchResult {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut state = State::new(device, problem);

    // Greedy legalisation, largest blocks first.
    let mut order: Vec<u32> = (0..problem.instances.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(problem.block_of(i).area()));
    for &inst in &order {
        insert(&mut state, inst, &mut rng);
    }
    state.cost = state.tables.total_cost(&state.positions);
    let initial_cost = state.cost;

    // Temperature from the scale of legal-move deltas.
    let t0 = estimate_t0(&mut state, &mut rng).max(1e-6);
    let mut temp = t0;
    // VPR-style range limiting: as the temperature drops, propose targets
    // closer to the current location (candidates are ordered by x then y,
    // so index distance approximates fabric distance). Each module's
    // window changes only with the temperature.
    let counts: Vec<u64> = state.tables.candidates.iter().map(|c| c.count).collect();
    let windows_at = |temp: f64, windows: &mut Vec<u64>| {
        let frac = (temp / t0).clamp(0.02, 1.0);
        windows.clear();
        windows.extend(counts.iter().map(|&count| {
            if config.range_limited {
                (frac * count as f64).max(8.0) as u64
            } else {
                count
            }
        }));
    };
    let mut windows = Vec::new();
    windows_at(temp, &mut windows);

    let mut illegal_moves = 0u64;
    let mut accepted_moves = 0u64;
    let mut rejected_moves = 0u64;
    let mut late_insertions = 0u64;
    let mut cost_trace: Vec<(u64, f64)> = vec![(0, initial_cost)];
    let n_inst = state.tables.instances();

    // Best-so-far snapshot: SA accepts uphill moves, so the terminal state
    // can be worse than an earlier one; the returned placement is the best
    // visited. A late insertion resets the snapshot — placing one more
    // block always outranks wirelength.
    let mut best_cost = state.cost;
    let mut best_positions = state.positions.clone();
    let mut best_move = 0u64;

    let mut retry = Every::new(config.retry_unplaced_every);
    let mut cool = Every::new(u64::from(config.moves_per_temp));
    let mut sample = Every::new(config.sample_every);
    let mut mv = 0u64;
    while mv < config.max_moves && n_inst > 0 {
        mv += 1;
        // Every move ticks the countdowns, but a skipped or illegal move
        // `continue`s past the cooling and sampling checks at the bottom
        // of the loop, so a step fires only when the move that lands on a
        // multiple of its period is legal: the more of a design's moves
        // are rejected for overlap, the less it cools. With seed 7 and
        // minimal CF, cnvW1A1 on the xc7z020 records none of its 240
        // scheduled samples and cools once in 468 steps, from its
        // fallback 1.0 to 0.985. A fix moves every stitch result and
        // paper number, so the behaviour is kept.
        let (cool_due, sample_due) = (cool.tick(), sample.tick());
        if retry.tick() {
            if let Some(unp) = state.positions.iter().position(|p| p.is_none()) {
                if insert(&mut state, unp as u32, &mut rng) {
                    late_insertions += 1;
                    best_cost = state.cost;
                    best_positions.copy_from_slice(&state.positions);
                    best_move = mv;
                }
            }
        }
        let inst = rng.gen_range(0..n_inst);
        let module = state.tables.module[inst as usize] as usize;
        let cand = &state.tables.candidates[module];
        let (count, window) = (cand.count, windows[module]);
        let Some(cur) = state.positions[inst as usize] else {
            continue;
        };
        let idx = if window >= count {
            rng.gen_range(0..count)
        } else {
            let lo = state.cand_idx[inst as usize].saturating_sub(window / 2);
            let hi = (lo + window).min(count);
            rng.gen_range(lo..hi)
        };
        let (x, y) = cand.nth(idx);
        if cur == (x, y) {
            continue;
        }
        let (bw, bh) = state.tables.footprint[inst as usize];
        if !state.grid.is_free(x, y, bw, bh, Some(cur)) {
            illegal_moves += 1;
            continue;
        }
        let delta = state.price_move(inst, idx, (x, y));
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
        if !accept {
            rejected_moves += 1;
            state.undo_move();
        } else {
            accepted_moves += 1;
            state.settle_move();
            if state.cost < best_cost - 1e-12 {
                best_cost = state.cost;
                best_positions.copy_from_slice(&state.positions);
                best_move = mv;
            }
        }
        if cool_due {
            temp = (temp * config.cooling).max(t0 * 1e-4);
            windows_at(temp, &mut windows);
        }
        if sample_due {
            cost_trace.push((mv, state.cost));
        }
    }
    // Restore the best-visited placement if the terminal state is worse.
    if best_cost < state.cost - 1e-12 {
        state.positions = best_positions;
        state.cost = best_cost;
    }
    let final_cost = state.tables.total_cost(&state.positions);
    cost_trace.push((mv, final_cost));

    let unplaced: Vec<u32> = state
        .positions
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(i, _)| i as u32)
        .collect();

    // Convergence: first sampled move within 1% of the total improvement;
    // the sparse trace can miss the best-so-far level, so the recorded
    // best_move bounds it from above.
    let improvement = (initial_cost - final_cost).max(1e-12);
    let threshold = final_cost + 0.01 * improvement;
    let convergence_move = cost_trace
        .iter()
        .find(|&&(_, c)| c <= threshold)
        .map(|&(m, _)| m)
        .unwrap_or(mv)
        .min(best_move.max(1));

    StitchResult {
        placed_count: state.positions.len() - unplaced.len(),
        unplaced_count: unplaced.len(),
        positions: state.positions,
        unplaced,
        initial_cost,
        final_cost,
        illegal_moves,
        accepted_moves,
        rejected_moves,
        final_temp: temp,
        late_insertions,
        total_moves: mv,
        convergence_move,
        best_move,
        cost_trace,
    }
}

/// Try to insert an unplaced instance at a pseudo-random free candidate.
///
/// A scan that must fail is skipped: whether [`Grid::first_free`] finds
/// an anchor does not depend on its start, modules of one anchor class
/// share their columns and row step, a free anchor for a footprint is one
/// for every shorter footprint of its class, and filling cells never
/// frees an anchor. So once a class fails at height `h`, every footprint
/// of the class at least `h` tall fails too, until a settled move frees
/// cells. The start is still drawn, so the random stream is unchanged.
pub(crate) fn try_insert(state: &mut State, inst: u32, rng: &mut StdRng) -> bool {
    if state.positions[inst as usize].is_some() {
        return true;
    }
    let (bw, bh) = state.tables.footprint[inst as usize];
    let cand = state.tables.cand_of(inst);
    if cand.count == 0 {
        return false;
    }
    // Scan all candidates from a random start so the greedy pass fills the
    // fabric evenly rather than stacking left.
    let start = rng.gen_range(0..cand.count);
    let class = state.tables.class_of(inst) as usize;
    if matches!(state.failed[class], Some((h, at)) if at == state.frees && bh >= h) {
        return false;
    }
    match state.grid.first_free(cand, start, bw, bh) {
        Some(at) => {
            let idx = cand.index_near(at);
            state.price_move(inst, idx, at);
            state.settle_move();
            true
        }
        None => {
            state.failed[class] = Some((bh, state.frees));
            false
        }
    }
}

/// Sample legal moves to scale the starting temperature.
fn estimate_t0(state: &mut State, rng: &mut StdRng) -> f64 {
    let n_inst = state.tables.instances();
    if n_inst == 0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut n = 0u32;
    for _ in 0..200 {
        let inst = rng.gen_range(0..n_inst);
        let Some(cur) = state.positions[inst as usize] else {
            continue;
        };
        // A placed instance has candidates.
        let cand = state.tables.cand_of(inst);
        let idx = rng.gen_range(0..cand.count);
        let (x, y) = cand.nth(idx);
        let (bw, bh) = state.tables.footprint[inst as usize];
        if !state.grid.is_free(x, y, bw, bh, Some(cur)) {
            continue;
        }
        let delta = state.price_move(inst, idx, (x, y));
        state.undo_move();
        sum += delta.abs();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        2.0 * sum / f64::from(n)
    }
}

/// [`stitch`] with telemetry: wraps the anneal in a `stitch`-phase span
/// (placed/unplaced counts, final cost), bumps the
/// `stitch.{placed,unplaced,moves,accepted,rejected,late_insertions}`
/// counters and records the final wirelength cost and terminal
/// temperature as the `stitch.cost` / `stitch.final_temp` observations.
/// The plain [`stitch`] stays untouched — its many call sites record
/// nothing.
pub fn stitch_observed(
    device: &Device,
    problem: &StitchProblem,
    config: &StitchConfig,
    obs: &dyn tms_obs::Recorder,
) -> StitchResult {
    let mut sp = tms_obs::span(obs, tms_obs::Phase::Stitch, "sa");
    let r = stitch(device, problem, config);
    sp.field("placed", r.placed_count as f64);
    sp.field("unplaced", r.unplaced_count as f64);
    sp.field("final_cost", r.final_cost);
    obs.count("stitch.moves", r.total_moves);
    obs.count("stitch.accepted", r.accepted_moves);
    obs.count("stitch.rejected", r.rejected_moves);
    obs.count("stitch.illegal", r.illegal_moves);
    obs.count("stitch.late_insertions", r.late_insertions);
    observe_outcome(&r, obs);
    r
}

/// Record, through `obs`, a stored stitch result served instead of a new
/// anneal: `stitch.memo.hit` and what describes the placement
/// ([`stitch_observed`]'s `stitch.placed`, `stitch.unplaced`,
/// `stitch.cost` and `stitch.final_temp`), but none of the work counters,
/// since no move ran.
pub fn observe_stitch_reuse(r: &StitchResult, obs: &dyn tms_obs::Recorder) {
    obs.count("stitch.memo.hit", 1);
    observe_outcome(r, obs);
}

/// Record what describes a stitch's placement through `obs`.
fn observe_outcome(r: &StitchResult, obs: &dyn tms_obs::Recorder) {
    obs.count("stitch.placed", r.placed_count as u64);
    obs.count("stitch.unplaced", r.unplaced_count as u64);
    obs.observe("stitch.cost", r.final_cost);
    obs.observe("stitch.final_temp", r.final_temp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MacroBlock;
    use tms_device::Device;

    fn block(dev: &Device, name: &str, w: u32, h: u32) -> MacroBlock {
        MacroBlock {
            name: name.into(),
            signature: dev.signature(0, w),
            width: w,
            height: h,
            used_slices: w * h * 3 / 4,
            irregularity: 0.25,
        }
    }

    fn chain_problem(dev: &Device, n: u32, w: u32, h: u32) -> StitchProblem {
        let mut p = StitchProblem::new(vec![block(dev, "m", w, h)]);
        let ids: Vec<u32> = (0..n).map(|_| p.add_instance(0)).collect();
        for pair in ids.windows(2) {
            p.add_net(pair, 1.0);
        }
        p
    }

    #[test]
    fn all_blocks_place_when_device_is_roomy() {
        let dev = Device::xc7z020();
        let p = chain_problem(&dev, 20, 3, 10);
        let r = stitch(&dev, &p, &StitchConfig::fast(1));
        assert_eq!(r.unplaced_count, 0);
        assert_eq!(r.placed_count, 20);
        // No two placed blocks overlap.
        for i in 0..20u32 {
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
    fn observed_stitch_matches_the_plain_call_and_records() {
        use tms_obs::{AggregatingSink, Phase};
        let dev = Device::xc7z020();
        let p = chain_problem(&dev, 20, 3, 10);
        let cfg = StitchConfig::fast(1);
        let sink = AggregatingSink::new();
        let observed = stitch_observed(&dev, &p, &cfg, &sink);
        let plain = stitch(&dev, &p, &cfg);
        assert_eq!(
            observed.positions, plain.positions,
            "telemetry must not perturb the anneal"
        );
        assert_eq!(sink.phase_spans(Phase::Stitch), 1);
        assert_eq!(sink.counter("stitch.placed"), observed.placed_count as u64);
        assert_eq!(
            sink.counter("stitch.unplaced"),
            observed.unplaced_count as u64
        );
        assert_eq!(sink.counter("stitch.moves"), observed.total_moves);
        // The SA decision stats are exported, and they reconcile: every
        // proposed move is accepted, rejected, illegal, or skipped.
        assert_eq!(sink.counter("stitch.accepted"), observed.accepted_moves);
        assert_eq!(sink.counter("stitch.rejected"), observed.rejected_moves);
        assert_eq!(sink.counter("stitch.illegal"), observed.illegal_moves);
        assert!(observed.accepted_moves > 0);
        assert!(
            observed.accepted_moves + observed.rejected_moves + observed.illegal_moves
                <= observed.total_moves
        );
        let (n, cost) = sink.observation("stitch.cost").unwrap();
        assert_eq!(n, 1);
        assert!((cost - observed.final_cost).abs() < 1e-9);
        let (n, temp) = sink.observation("stitch.final_temp").unwrap();
        assert_eq!(n, 1);
        assert!((temp - observed.final_temp).abs() < 1e-12);
        assert!(observed.final_temp > 0.0);
    }

    #[test]
    fn sa_does_not_worsen_cost() {
        let dev = Device::xc7z020();
        let p = chain_problem(&dev, 30, 3, 12);
        let r = stitch(&dev, &p, &StitchConfig::standard(3));
        assert!(r.final_cost <= r.initial_cost * 1.0 + 1e-9);
        assert!(r.final_cost > 0.0);
    }

    #[test]
    fn oversubscribed_device_leaves_blocks_unplaced() {
        let dev = Device::xc7z020();
        // 200 instances of a 30x40 block: 240k cells on a ~24k-cell fabric.
        let p = chain_problem(&dev, 200, 30, 40);
        let r = stitch(&dev, &p, &StitchConfig::fast(5));
        assert!(r.unplaced_count > 150, "unplaced = {}", r.unplaced_count);
        assert!(r.placed_count >= 1);
    }

    #[test]
    fn bigger_footprints_leave_more_unplaced() {
        // The Figure-5 effect: same design, looser PBlocks, fewer placed.
        let dev = Device::xc7z020();
        let tight = chain_problem(&dev, 120, 8, 25);
        let loose = chain_problem(&dev, 120, 10, 31);
        let rt = stitch(&dev, &tight, &StitchConfig::fast(7));
        let rl = stitch(&dev, &loose, &StitchConfig::fast(7));
        assert!(
            rl.unplaced_count > rt.unplaced_count,
            "loose {} vs tight {}",
            rl.unplaced_count,
            rt.unplaced_count
        );
    }

    #[test]
    fn late_insertions_are_kept_and_counted() {
        // On over-subscribed fabrics some unplaced-block retries succeed
        // during the anneal. Each is counted and survives to the result,
        // so the placed count is the greedy pass's (a zero-move run) plus
        // the late insertions.
        let dev = Device::xc7z020();
        let mut late = 0;
        for seed in 0..16 {
            let mut p = StitchProblem::new(vec![
                block(&dev, "a", 4, 50),
                block(&dev, "b", 9, 20),
                block(&dev, "c", 12, 12),
            ]);
            let ids: Vec<u32> = (0..120).map(|i| p.add_instance(i % 3)).collect();
            for pair in ids.windows(2) {
                p.add_net(pair, 1.0);
            }
            let cfg = StitchConfig::fast(seed);
            let r = stitch(&dev, &p, &cfg);
            let greedy = stitch(
                &dev,
                &p,
                &StitchConfig {
                    max_moves: 0,
                    ..cfg
                },
            );
            assert_eq!(
                r.placed_count,
                greedy.placed_count + r.late_insertions as usize,
                "seed {seed}"
            );
            late += r.late_insertions;
        }
        assert!(late > 0, "no retry succeeded, so nothing was tested");
    }

    #[test]
    fn impossible_signature_is_unplaceable() {
        let dev = Device::xc7z020();
        let sig = tms_device::ColumnSignature(vec![tms_device::ColumnKind::Bram; 10]);
        let m = MacroBlock {
            name: "impossible".into(),
            signature: sig,
            width: 10,
            height: 10,
            used_slices: 0,
            irregularity: 0.0,
        };
        let mut p = StitchProblem::new(vec![m]);
        p.add_instance(0);
        let r = stitch(&dev, &p, &StitchConfig::fast(1));
        assert_eq!(r.unplaced_count, 1);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let dev = Device::xc7z020();
        let p = chain_problem(&dev, 25, 4, 10);
        let a = stitch(&dev, &p, &StitchConfig::fast(11));
        let b = stitch(&dev, &p, &StitchConfig::fast(11));
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.final_cost, b.final_cost);
        assert_eq!(a.illegal_moves, b.illegal_moves);
        assert_eq!(a.accepted_moves, b.accepted_moves);
        assert_eq!(a.rejected_moves, b.rejected_moves);
    }

    #[test]
    fn crowded_fabric_causes_illegal_moves() {
        let dev = Device::xc7z020();
        // Same instance count of narrow (widely relocatable) blocks; the
        // crowded variant fills ~half of the fabric, the sparse one ~10%,
        // so moves hit occupied cells far more often.
        let crowded = chain_problem(&dev, 60, 3, 40);
        let sparse = chain_problem(&dev, 60, 3, 8);
        let rc = stitch(&dev, &crowded, &StitchConfig::fast(2));
        let rs = stitch(&dev, &sparse, &StitchConfig::fast(2));
        assert_eq!(rc.unplaced_count, 0);
        assert!(
            rc.illegal_moves > rs.illegal_moves,
            "crowded {} vs sparse {}",
            rc.illegal_moves,
            rs.illegal_moves
        );
    }

    #[test]
    fn waste_accounting() {
        let dev = Device::xc7z020();
        let p = chain_problem(&dev, 4, 3, 10);
        let r = stitch(&dev, &p, &StitchConfig::fast(1));
        // used = 3*10*3/4 = 22 per block, waste = 8 per block.
        assert_eq!(r.placed_area(&p), 4 * 30);
        assert_eq!(r.wasted_cells(&p), 4 * 8);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let dev = Device::xc7z020();
        let p = StitchProblem::default();
        let r = stitch(&dev, &p, &StitchConfig::fast(1));
        assert_eq!(r.placed_count, 0);
        assert_eq!(r.final_cost, 0.0);
        assert_eq!(r.total_moves, 0);
    }

    #[test]
    fn convergence_move_is_within_run() {
        let dev = Device::xc7z020();
        let p = chain_problem(&dev, 40, 3, 10);
        let r = stitch(&dev, &p, &StitchConfig::standard(4));
        assert!(r.convergence_move <= r.total_moves);
        assert!(!r.cost_trace.is_empty());
    }
}
