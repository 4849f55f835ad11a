//! Retry with capped exponential backoff.

use simclock::{SeededRng, SimDuration};

/// Capped exponential backoff with deterministic jitter.
///
/// `delay(k)` for retry `k` (1-based) is `min(base · 2^(k-1), 30 s)` scaled by a jitter factor drawn
/// uniformly from `[1 − jitter, 1 + jitter]` out of the caller's
/// [`SeededRng`] — so the whole backoff schedule is a pure function of the
/// seed, and identical seeds retry at identical sim-times.
///
/// # Examples
///
/// ```
/// use scfault::RetryPolicy;
/// use simclock::{SeededRng, SimDuration};
///
/// let policy = RetryPolicy::new(5, SimDuration::from_millis(10));
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// // Same seed ⇒ the same jittered backoff schedule, delay by delay.
/// for attempt in 1..policy.max_attempts {
///     assert_eq!(policy.delay(attempt, &mut a), policy.delay(attempt, &mut b));
/// }
/// // Delays grow exponentially but never exceed the cap (plus jitter).
/// let late = policy.delay(60, &mut a);
/// assert!(late.as_secs_f64() <= 30.0 * (1.0 + policy.jitter));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `max_attempts − 1` retries).
    pub max_attempts: u32,
    /// Delay before the first retry, pre-jitter.
    pub base: SimDuration,
    /// Jitter half-width as a fraction of the delay (`0.1` ⇒ ±10 %).
    pub jitter: f64,
}

/// Upper bound on the pre-jitter delay.
const CAP: SimDuration = SimDuration::from_secs(30);
/// Exponential growth factor between retries.
const MULTIPLIER: f64 = 2.0;

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts starting at `base`,
    /// doubling each retry, capped at 30 s, with ±10 % jitter.
    pub fn new(max_attempts: u32, base: SimDuration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base,
            jitter: 0.1,
        }
    }

    /// Replaces the jitter fraction (clamped to `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// The jittered delay before retry `attempt` (1-based; attempt 0 is the
    /// initial try and has no delay).
    pub fn delay(&self, attempt: u32, rng: &mut SeededRng) -> SimDuration {
        if attempt == 0 {
            return SimDuration::ZERO;
        }
        let raw = self.base.as_secs_f64() * MULTIPLIER.powi(attempt as i32 - 1);
        let capped = raw.min(CAP.as_secs_f64());
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.next_f64();
        SimDuration::from_secs_f64(capped * factor)
    }

    /// The full retry schedule (delays before retries `1..max_attempts`)
    /// drawn from a fresh RNG seeded with `seed` — handy when backoff times
    /// must be known up front (e.g. scheduling probes in an event queue).
    pub fn schedule(&self, seed: u64) -> Vec<SimDuration> {
        let mut rng = SeededRng::new(seed ^ 0x5E7B_ACC0);
        (1..self.max_attempts)
            .map(|k| self.delay(k, &mut rng))
            .collect()
    }

    /// Drives `op` until it succeeds or attempts are exhausted, accumulating
    /// the sim-time spent backing off. `op` receives the 0-based attempt
    /// index.
    pub fn run<T, E>(
        &self,
        rng: &mut SeededRng,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> RetryOutcome<T, E> {
        let mut backoff = SimDuration::ZERO;
        let mut last = None;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                backoff += self.delay(attempt, rng);
            }
            match op(attempt) {
                Ok(v) => {
                    return RetryOutcome {
                        result: Ok(v),
                        attempts: attempt + 1,
                        backoff,
                    }
                }
                Err(e) => last = Some(e),
            }
        }
        RetryOutcome {
            result: Err(last.expect("max_attempts >= 1 so op ran at least once")),
            attempts: self.max_attempts,
            backoff,
        }
    }
}

/// What happened across a retried operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryOutcome<T, E> {
    /// The final success, or the last error once attempts ran out.
    pub result: Result<T, E>,
    /// Attempts actually made (≥ 1).
    pub attempts: u32,
    /// Total sim-time spent waiting between attempts.
    pub backoff: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_then_cap() {
        let p = RetryPolicy::new(10, SimDuration::from_secs(1)).with_jitter(0.0);
        let mut rng = SeededRng::new(1);
        assert_eq!(p.delay(1, &mut rng), SimDuration::from_secs(1));
        assert_eq!(p.delay(2, &mut rng), SimDuration::from_secs(2));
        assert_eq!(p.delay(5, &mut rng), SimDuration::from_secs(16));
        // 2^5 s would be 32 s: the sixth retry is the first one capped.
        assert_eq!(p.delay(6, &mut rng), SimDuration::from_secs(30), "capped");
        assert_eq!(p.delay(60, &mut rng), SimDuration::from_secs(30), "capped");
    }

    #[test]
    fn jitter_stays_in_band_and_is_seeded() {
        let p = RetryPolicy::new(8, SimDuration::from_millis(100));
        let mut a = SeededRng::new(9);
        let mut b = SeededRng::new(9);
        for k in 1..8 {
            let da = p.delay(k, &mut a);
            assert_eq!(da, p.delay(k, &mut b), "same seed, same delay");
            let nominal = 0.1 * 2f64.powi(k as i32 - 1);
            let s = da.as_secs_f64();
            assert!(
                s >= nominal * 0.9 - 1e-9 && s <= nominal * 1.1 + 1e-9,
                "{s}"
            );
        }
    }

    #[test]
    fn schedule_has_max_attempts_minus_one_entries() {
        let p = RetryPolicy::new(5, SimDuration::from_millis(10));
        assert_eq!(p.schedule(3).len(), 4);
        assert_eq!(p.schedule(3), p.schedule(3));
        assert_ne!(p.schedule(3), p.schedule(4));
    }

    #[test]
    fn run_retries_until_success() {
        let p = RetryPolicy::new(5, SimDuration::from_millis(10)).with_jitter(0.0);
        let mut rng = SeededRng::new(0);
        let out = p.run::<_, ()>(
            &mut rng,
            |attempt| if attempt < 2 { Err(()) } else { Ok(attempt) },
        );
        assert_eq!(out.result, Ok(2));
        assert_eq!(out.attempts, 3);
        assert_eq!(out.backoff, SimDuration::from_millis(30), "10 + 20");
    }

    #[test]
    fn run_exhausts_attempts() {
        let p = RetryPolicy::new(3, SimDuration::from_millis(1));
        let mut rng = SeededRng::new(0);
        let out = p.run::<(), _>(&mut rng, |_| Err("down"));
        assert_eq!(out.result, Err("down"));
        assert_eq!(out.attempts, 3);
    }
}
