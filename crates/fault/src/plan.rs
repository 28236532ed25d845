//! Seeded, rate- or schedule-driven fault plans.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::inject::{FaultInjector, FaultPoint};

/// One part-per-million granularity for probabilistic rates.
const PPM: u64 = 1_000_000;

/// Per-point injection state. All atomic: plans are shared (`Arc`) across
/// the acceptor and worker threads, and tests mutate rates while the
/// server is live.
#[derive(Debug, Default)]
struct PointState {
    /// Probability of failing a hit, in parts per million (0 = off).
    rate_ppm: AtomicU32,
    /// Deterministic schedule: fail the next `n` hits unconditionally.
    fail_next: AtomicU32,
    /// Total consults at this point.
    hits: AtomicU64,
    /// Total consults answered "fail".
    injected: AtomicU64,
}

/// A deterministic fault plan: the armed [`FaultInjector`].
///
/// Two independent mechanisms per point, combinable:
///
/// * **schedule** — [`fail_next`](FaultPlan::fail_next) fails the next
///   `n` hits unconditionally, then disarms. Exact, order-dependent;
///   perfect for "the next two fsyncs die" style tests.
/// * **rate** — [`set_rate`](FaultPlan::set_rate) fails each hit with
///   probability `rate`, decided by hashing `(seed, point, hit-index)`
///   with SplitMix64. The decision for hit *k* is a pure function of the
///   seed, so runs replay exactly; there is no RNG state to race on.
///
/// [`clear`](FaultPlan::clear) zeroes every rate and schedule at runtime
/// — the "fault condition lifted" half of recovery tests. Hit and
/// injected counters survive a `clear` so reports stay complete.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    points: [PointState; FaultPoint::ALL.len()],
}

impl FaultPlan {
    /// A plan with every point healthy; decisions derive from `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            points: Default::default(),
        }
    }

    fn state(&self, point: FaultPoint) -> &PointState {
        &self.points[point.index()]
    }

    /// Set the probabilistic failure rate for `point` (clamped to
    /// `0.0..=1.0`).
    pub fn set_rate(&self, point: FaultPoint, rate: f64) {
        let ppm = (rate.clamp(0.0, 1.0) * PPM as f64).round() as u32;
        self.state(point).rate_ppm.store(ppm, Ordering::Relaxed);
    }

    /// Schedule the next `n` hits at `point` to fail unconditionally.
    /// Adds to any outstanding schedule.
    pub fn fail_next(&self, point: FaultPoint, n: u32) {
        self.state(point).fail_next.fetch_add(n, Ordering::Relaxed);
    }

    /// Builder form of [`set_rate`](FaultPlan::set_rate).
    pub fn with_rate(self, point: FaultPoint, rate: f64) -> Self {
        self.set_rate(point, rate);
        self
    }

    /// Builder form of [`fail_next`](FaultPlan::fail_next).
    pub fn with_fail_next(self, point: FaultPoint, n: u32) -> Self {
        self.fail_next(point, n);
        self
    }

    /// Lift every fault: zero all rates and schedules. Counters keep
    /// their history.
    pub fn clear(&self) {
        for s in &self.points {
            s.rate_ppm.store(0, Ordering::Relaxed);
            s.fail_next.store(0, Ordering::Relaxed);
        }
    }

    /// The seed decisions derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consults so far at `point`.
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.state(point).hits.load(Ordering::Relaxed)
    }

    /// Faults injected so far at `point`.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.state(point).injected.load(Ordering::Relaxed)
    }

    /// Faults injected so far across every point.
    pub fn injected_total(&self) -> u64 {
        FaultPoint::ALL.iter().map(|&p| self.injected(p)).sum()
    }

    /// `(point, hits, injected)` for every point — report fodder.
    pub fn report(&self) -> Vec<(FaultPoint, u64, u64)> {
        FaultPoint::ALL
            .iter()
            .map(|&p| (p, self.hits(p), self.injected(p)))
            .collect()
    }
}

impl FaultInjector for FaultPlan {
    fn armed(&self) -> bool {
        true
    }

    fn should_fail(&self, point: FaultPoint) -> bool {
        let s = self.state(point);
        let hit = s.hits.fetch_add(1, Ordering::Relaxed);

        // Schedule first: consume one scheduled failure if any remain.
        let mut scheduled = s.fail_next.load(Ordering::Relaxed);
        while scheduled > 0 {
            match s.fail_next.compare_exchange_weak(
                scheduled,
                scheduled - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    s.injected.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => scheduled = now,
            }
        }

        // Then the rate: hash (seed, point, hit-index) → uniform ppm.
        let rate = s.rate_ppm.load(Ordering::Relaxed) as u64;
        if rate > 0 {
            let x = splitmix64(
                self.seed ^ (point.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hit,
            );
            if x % PPM < rate {
                s.injected.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    fn corrupt(&self, point: FaultPoint, buf: &mut [u8]) -> bool {
        debug_assert!(point.is_corruption(), "{point} is a fail-stop point");
        // `should_fail` bumps the hit counter and applies the same
        // schedule/rate machinery; the *position* of the flipped bit then
        // derives from the per-point injection count, so the k-th
        // corruption of a run is a pure function of (seed, point, k).
        if buf.is_empty() || !self.should_fail(point) {
            return false;
        }
        let k = self.injected(point);
        let x =
            splitmix64(self.seed ^ (point.index() as u64).wrapping_mul(0xD1B5_4A32_D192_ED03) ^ k);
        let bit = x % (buf.len() as u64 * 8);
        buf[(bit / 8) as usize] ^= 1 << (bit % 8);
        true
    }
}

/// SplitMix64 finalizer: a bijective avalanche over `u64`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_never_fails_but_counts_hits() {
        let plan = FaultPlan::seeded(1);
        for _ in 0..100 {
            assert!(!plan.should_fail(FaultPoint::StoreAppend));
        }
        assert_eq!(plan.hits(FaultPoint::StoreAppend), 100);
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn schedule_fails_exactly_n_hits() {
        let plan = FaultPlan::seeded(2).with_fail_next(FaultPoint::StoreFsync, 3);
        let fails: Vec<bool> = (0..6)
            .map(|_| plan.should_fail(FaultPoint::StoreFsync))
            .collect();
        assert_eq!(fails, [true, true, true, false, false, false]);
        assert_eq!(plan.injected(FaultPoint::StoreFsync), 3);
    }

    #[test]
    fn rate_is_deterministic_per_seed() {
        let run = |seed| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_rate(FaultPoint::FlowPlace, 0.3);
            (0..64)
                .map(|_| plan.should_fail(FaultPoint::FlowPlace))
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed replays exactly");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn rate_one_always_fails_rate_zero_never() {
        let plan = FaultPlan::seeded(3).with_rate(FaultPoint::ServeRead, 1.0);
        assert!((0..50).all(|_| plan.should_fail(FaultPoint::ServeRead)));
        plan.set_rate(FaultPoint::ServeRead, 0.0);
        assert!((0..50).all(|_| !plan.should_fail(FaultPoint::ServeRead)));
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::seeded(11).with_rate(FaultPoint::StoreAppend, 0.25);
        let n = 4000;
        let fails = (0..n)
            .filter(|_| plan.should_fail(FaultPoint::StoreAppend))
            .count();
        let frac = fails as f64 / n as f64;
        assert!((0.20..0.30).contains(&frac), "observed {frac}");
    }

    #[test]
    fn clear_lifts_faults_but_keeps_history() {
        let plan = FaultPlan::seeded(4)
            .with_rate(FaultPoint::StoreAppend, 1.0)
            .with_fail_next(FaultPoint::StoreFsync, 5);
        assert!(plan.should_fail(FaultPoint::StoreAppend));
        assert!(plan.should_fail(FaultPoint::StoreFsync));
        plan.clear();
        assert!(!plan.should_fail(FaultPoint::StoreAppend));
        assert!(!plan.should_fail(FaultPoint::StoreFsync));
        assert_eq!(plan.injected_total(), 2, "history survives clear");
        assert_eq!(plan.hits(FaultPoint::StoreAppend), 2);
    }

    #[test]
    fn points_are_independent() {
        let plan = FaultPlan::seeded(5).with_rate(FaultPoint::ServeWrite, 1.0);
        assert!(!plan.should_fail(FaultPoint::ServeRead));
        assert!(plan.should_fail(FaultPoint::ServeWrite));
    }

    #[test]
    fn corruption_flips_exactly_one_bit_deterministically() {
        let flips = |seed: u64| -> Vec<Vec<u8>> {
            let plan = FaultPlan::seeded(seed).with_rate(FaultPoint::StoreCorruptRecord, 1.0);
            (0..8)
                .map(|_| {
                    let mut buf = vec![0u8; 64];
                    assert!(plan.corrupt(FaultPoint::StoreCorruptRecord, &mut buf));
                    assert_eq!(
                        buf.iter().map(|b| b.count_ones()).sum::<u32>(),
                        1,
                        "exactly one bit flipped"
                    );
                    buf
                })
                .collect()
        };
        assert_eq!(flips(9), flips(9), "same seed replays the same positions");
        assert_ne!(flips(9), flips(10), "different seeds flip elsewhere");
    }

    #[test]
    fn unarmed_corruption_leaves_data_untouched() {
        let plan = FaultPlan::seeded(6);
        let mut buf = vec![0xA5u8; 32];
        assert!(!plan.corrupt(FaultPoint::CacheCorruptMacro, &mut buf));
        assert!(buf.iter().all(|&b| b == 0xA5));
        assert_eq!(plan.hits(FaultPoint::CacheCorruptMacro), 1);
        assert_eq!(plan.injected_total(), 0);
    }
}
