//! Deterministic retry/backoff policies.

use std::fmt;
use std::time::Duration;

use crate::plan::splitmix64;

/// Growth factor of the backoff per attempt (classic doubling).
const MULTIPLIER: f64 = 2.0;

/// A retry policy: bounded attempts and exponential backoff with
/// deterministic jitter.
///
/// The backoff for attempt *k* is a pure function of `(policy, k)` —
/// `base * 2^(k-1)`, capped at `max_backoff`, stretched by up to
/// `jitter` of itself using a SplitMix64 hash of `k`. No RNG state, no
/// wall-clock input: two runs with the same policy sleep the same
/// schedule, which keeps chaos tests reproducible.
///
/// ```
/// use tms_fault::Retry;
///
/// let retry = Retry::default();
/// let mut calls = 0;
/// let out: Result<u32, _> = retry.run(
///     |_e: &&str| true, // every error is transient
///     |attempt| { calls += 1; if attempt < 3 { Err("flaky") } else { Ok(attempt) } },
/// );
/// assert_eq!(out.unwrap(), 3);
/// assert_eq!(calls, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retry {
    /// Total attempts including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
    /// Jitter fraction in `0.0..=1.0`: each backoff is stretched by up to
    /// this share of itself, deterministically.
    pub jitter: f64,
}

impl Default for Retry {
    /// Three attempts, 1 ms base doubling to a 50 ms cap, half-width
    /// jitter — tuned for in-process stores and tests, not WAN calls.
    fn default() -> Self {
        Retry {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl Retry {
    /// A policy that never retries: one attempt, no backoff.
    pub fn none() -> Retry {
        Retry {
            max_attempts: 1,
            ..Retry::default()
        }
    }

    /// The default policy with a different attempt budget.
    pub fn attempts(max_attempts: u32) -> Retry {
        Retry {
            max_attempts: max_attempts.max(1),
            ..Retry::default()
        }
    }

    /// Deterministic backoff before attempt `attempt + 1` (so
    /// `backoff_for(1)` is the sleep after the first failure).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = MULTIPLIER.powi(attempt.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let u = splitmix64(u64::from(attempt)) as f64 / u64::MAX as f64;
        let stretched = capped * (1.0 + self.jitter.clamp(0.0, 1.0) * u);
        Duration::from_secs_f64(stretched)
    }

    /// Run `op` under this policy. `op` receives the 1-based attempt
    /// number. Errors for which `is_transient` answers `false` abort
    /// immediately; transient errors are retried with backoff until the
    /// attempt budget runs out.
    pub fn run<T, E>(
        &self,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, RetryError<E>> {
        let budget = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !is_transient(&e) || attempt >= budget => {
                    return Err(RetryError {
                        last: e,
                        attempts: attempt,
                    });
                }
                Err(_) => std::thread::sleep(self.backoff_for(attempt)),
            }
        }
    }
}

/// Terminal failure of a [`Retry::run`]: the last error and how many
/// attempts were spent.
#[derive(Debug)]
pub struct RetryError<E> {
    /// The error from the final attempt.
    pub last: E,
    /// Attempts actually made (1-based).
    pub attempts: u32,
}

impl<E: fmt::Display> fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gave up after {} attempts: {}", self.attempts, self.last)
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for RetryError<E> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_needs_no_retry() {
        let mut calls = 0;
        let out: Result<_, RetryError<&str>> = Retry::default().run(
            |_| true,
            |_| {
                calls += 1;
                Ok(42)
            },
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_errors_consume_the_budget() {
        let retry = Retry {
            base_backoff: Duration::from_micros(10),
            ..Retry::attempts(4)
        };
        let mut calls = 0;
        let out: Result<u32, _> = retry.run(
            |_e: &&str| true,
            |_| {
                calls += 1;
                Err("still down")
            },
        );
        let err = out.unwrap_err();
        assert_eq!(err.attempts, 4);
        assert_eq!(calls, 4);
        assert!(err.to_string().contains("gave up after 4 attempts"));
    }

    #[test]
    fn permanent_errors_abort_immediately() {
        let mut calls = 0;
        let out: Result<u32, _> = Retry::attempts(5).run(
            |e: &&str| *e != "permanent",
            |_| {
                calls += 1;
                Err("permanent")
            },
        );
        assert_eq!(out.unwrap_err().attempts, 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn recovery_mid_budget_succeeds() {
        let retry = Retry {
            base_backoff: Duration::from_micros(10),
            ..Retry::attempts(5)
        };
        let out: Result<u32, RetryError<&str>> = retry.run(
            |_| true,
            |attempt| {
                if attempt < 3 {
                    Err("flaky")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out.unwrap(), 3);
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let retry = Retry::default();
        let b1 = retry.backoff_for(1);
        let b2 = retry.backoff_for(2);
        let b9 = retry.backoff_for(9);
        assert!(b2 > b1, "{b1:?} then {b2:?}");
        // Cap plus full jitter bounds every backoff.
        assert!(b9 <= retry.max_backoff.mul_f64(1.0 + retry.jitter));
        assert_eq!(retry.backoff_for(3), retry.backoff_for(3));
    }

    /// The schedules of the default policy and of the 50 µs policy the
    /// chaos tests build, in nanoseconds for attempts 0..=10.
    #[test]
    fn backoff_schedule_is_pinned() {
        let fast = Retry {
            base_backoff: Duration::from_micros(50),
            ..Retry::attempts(4)
        };
        let pins: [(Retry, [u128; 11]); 2] = [
            (
                Retry::default(),
                [
                    1_441_655, 1_283_281, 2_591_190, 4_226_901, 9_725_823, 19_094_144, 43_837_072,
                    59_745_744, 65_462_616, 67_059_068, 50_832_776,
                ],
            ),
            (
                fast,
                [
                    72_083, 64_164, 129_559, 211_345, 486_291, 954_707, 2_191_854, 3_823_728,
                    8_379_215, 17_167_122, 26_026_381,
                ],
            ),
        ];
        for (retry, want) in pins {
            let got = (0..=10).map(|k| retry.backoff_for(k).as_nanos());
            assert!(got.eq(want), "{retry:?}");
        }
    }

    #[test]
    fn none_makes_exactly_one_attempt() {
        let mut calls = 0;
        let out: Result<u32, _> = Retry::none().run(
            |_e: &&str| true,
            |_| {
                calls += 1;
                Err("down")
            },
        );
        assert_eq!(out.unwrap_err().attempts, 1);
        assert_eq!(calls, 1);
    }
}
