//! Admission control: token-bucket rate limiting and a bounded service
//! queue with deterministic fluid drain.
//!
//! The ROADMAP's "millions of users" target means the serving tier must
//! fail *predictably* under overload: beyond saturation, extra demand is
//! shed at the door with a cheap degraded answer, while admitted requests
//! keep a bounded queue wait. Two gates implement that:
//!
//! 1. [`TokenBucket`] — a classic leaky/token bucket over sim-time.
//!    Refill is a pure function of elapsed sim-time, so identical request
//!    traces admit identical request subsets on every run.
//! 2. [`ServiceQueue`] — a fluid-model bounded queue: depth drains at
//!    `service_rate` requests per sim-second, an arrival that would push
//!    the depth past `capacity` is shed, and an admitted arrival's queue
//!    wait is `depth / service_rate`. The model is deliberately simple —
//!    deterministic M/D/1-style waits without an event scheduler — and
//!    yields the textbook overload knee: waits grow toward
//!    `capacity / service_rate` and then the *shed fraction*, not the
//!    latency, absorbs the excess (experiment E17).

use simclock::{SimDuration, SimTime};

/// A sim-time token bucket.
///
/// # Examples
///
/// ```
/// use scserve::TokenBucket;
/// use simclock::SimTime;
///
/// let mut tb = TokenBucket::new(10.0, 2.0); // 10 tokens/s, burst of 2
/// assert!(tb.try_acquire(SimTime::ZERO));
/// assert!(tb.try_acquire(SimTime::ZERO));
/// assert!(!tb.try_acquire(SimTime::ZERO), "burst exhausted");
/// assert!(tb.try_acquire(SimTime::from_millis(100)), "refilled 1 token");
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_s: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_per_s` with capacity `burst`
    /// (both clamped to be positive and finite).
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        let rate_per_s = if rate_per_s.is_finite() && rate_per_s > 0.0 {
            rate_per_s
        } else {
            1.0
        };
        let burst = if burst.is_finite() && burst >= 1.0 {
            burst
        } else {
            1.0
        };
        TokenBucket {
            rate_per_s,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_s).min(self.burst);
        self.last = now;
    }

    /// Takes one token if available. Calls must be non-decreasing in
    /// `now`; an out-of-order call refills nothing (never panics).
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Reconfigures the bucket in place — the admission-control knob an
    /// autoscaler turns to shed at the door. Tokens accrued so far refill
    /// at the *old* rate up to `now`, then clamp to the new burst, so a
    /// mid-run change never mints retroactive capacity.
    pub fn set_rate(&mut self, rate_per_s: f64, burst: f64, now: SimTime) {
        self.refill(now);
        self.rate_per_s = if rate_per_s.is_finite() && rate_per_s > 0.0 {
            rate_per_s
        } else {
            1.0
        };
        self.burst = if burst.is_finite() && burst >= 1.0 {
            burst
        } else {
            1.0
        };
        self.tokens = self.tokens.min(self.burst);
    }
}

/// Outcome of offering one request to a [`ServiceQueue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Admitted; the request waits this long before service starts.
    Admitted {
        /// Queue wait ahead of this request.
        wait: SimDuration,
    },
    /// Rejected: the queue was full.
    Shed,
}

/// A bounded queue drained as a fluid at a fixed service rate.
#[derive(Debug, Clone)]
pub struct ServiceQueue {
    service_rate: f64,
    capacity: usize,
    depth: f64,
    last: SimTime,
}

impl ServiceQueue {
    /// An empty queue serving `service_rate` requests per sim-second,
    /// holding at most `capacity` queued requests.
    pub fn new(service_rate: f64, capacity: usize) -> Self {
        let service_rate = if service_rate.is_finite() && service_rate > 0.0 {
            service_rate
        } else {
            1.0
        };
        ServiceQueue {
            service_rate,
            capacity: capacity.max(1),
            depth: 0.0,
            last: SimTime::ZERO,
        }
    }

    fn drain(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.depth = (self.depth - dt * self.service_rate).max(0.0);
        self.last = now;
    }

    /// Offers one request at `now`: drains elapsed work, then either
    /// admits (returning the queue wait ahead of the request) or sheds.
    pub fn offer(&mut self, now: SimTime) -> Admission {
        self.drain(now);
        if self.depth + 1.0 > self.capacity as f64 {
            return Admission::Shed;
        }
        let wait = SimDuration::from_secs_f64(self.depth / self.service_rate);
        self.depth += 1.0;
        Admission::Admitted { wait }
    }

    /// One request's service time, `1 / service_rate`.
    pub fn service_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.service_rate)
    }

    /// Reconfigures the drain rate in place — the capacity knob an
    /// autoscaler turns when shards or pool workers are added or removed.
    /// Work queued so far drains at the *old* rate up to `now`; the depth
    /// carries over, so a scale-up speeds the backlog from `now` on
    /// without rewriting history.
    pub fn set_rate(&mut self, service_rate: f64, now: SimTime) {
        self.drain(now);
        self.service_rate = if service_rate.is_finite() && service_rate > 0.0 {
            service_rate
        } else {
            1.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens available after refilling to `now`.
    fn available(tb: &mut TokenBucket, now: SimTime) -> f64 {
        tb.refill(now);
        tb.tokens
    }

    /// Queued depth after draining to `now`.
    fn depth(q: &mut ServiceQueue, now: SimTime) -> f64 {
        q.drain(now);
        q.depth
    }

    #[test]
    fn bucket_enforces_rate() {
        let mut tb = TokenBucket::new(100.0, 10.0);
        let mut admitted = 0;
        // 1000 arrivals over one second at 1 ms spacing: burst 10 + 100
        // refilled ⇒ about 110 admitted.
        for i in 0..1000u64 {
            if tb.try_acquire(SimTime::from_millis(i)) {
                admitted += 1;
            }
        }
        assert!((100..=120).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut tb = TokenBucket::new(1000.0, 5.0);
        assert!(available(&mut tb, SimTime::from_secs(100)) <= 5.0);
    }

    #[test]
    fn queue_sheds_beyond_capacity() {
        let mut q = ServiceQueue::new(10.0, 5);
        let mut sheds = 0;
        // 20 simultaneous arrivals into a 5-deep queue: 5 admitted.
        for _ in 0..20 {
            if q.offer(SimTime::ZERO) == Admission::Shed {
                sheds += 1;
            }
        }
        assert_eq!(sheds, 15);
    }

    #[test]
    fn queue_wait_grows_with_depth_and_is_bounded() {
        let mut q = ServiceQueue::new(10.0, 50);
        let mut last_wait = SimDuration::ZERO;
        for _ in 0..50 {
            match q.offer(SimTime::ZERO) {
                Admission::Admitted { wait } => {
                    assert!(wait >= last_wait, "waits are monotone in depth");
                    // capacity / service_rate: the bound that keeps admitted
                    // p99 finite under any overload.
                    assert!(wait <= SimDuration::from_secs(5));
                    last_wait = wait;
                }
                Admission::Shed => panic!("capacity not yet reached"),
            }
        }
        assert_eq!(q.offer(SimTime::ZERO), Admission::Shed);
    }

    #[test]
    fn bucket_set_rate_refills_at_old_rate_then_clamps() {
        let mut tb = TokenBucket::new(10.0, 10.0);
        for _ in 0..10 {
            assert!(tb.try_acquire(SimTime::ZERO));
        }
        // 500 ms at the old 10/s rate accrues 5 tokens; the new burst of
        // 2 clamps them — a mid-run tighten never mints capacity.
        tb.set_rate(1000.0, 2.0, SimTime::from_millis(500));
        assert!(available(&mut tb, SimTime::from_millis(500)) <= 2.0);
        assert_eq!(tb.rate_per_s, 1000.0);
        assert!(tb.try_acquire(SimTime::from_millis(500)));
        assert!(tb.try_acquire(SimTime::from_millis(500)));
        assert!(!tb.try_acquire(SimTime::from_millis(500)));
    }

    #[test]
    fn queue_set_rate_carries_backlog_and_changes_drain() {
        let mut q = ServiceQueue::new(10.0, 100);
        for _ in 0..40 {
            q.offer(SimTime::ZERO);
        }
        // 1 s at the old 10/s drains 10 of the 40; the backlog of 30
        // carries over and drains at the new 100/s from here on.
        q.set_rate(100.0, SimTime::from_secs(1));
        assert!((depth(&mut q, SimTime::from_secs(1)) - 30.0).abs() < 1e-9);
        assert_eq!(q.service_rate, 100.0);
        assert!(depth(&mut q, SimTime::from_millis(1_300)) < 1e-9);
        assert_eq!(q.service_time(), SimDuration::from_millis(10));
    }

    #[test]
    fn queue_drains_over_time() {
        let mut q = ServiceQueue::new(10.0, 5);
        for _ in 0..5 {
            q.offer(SimTime::ZERO);
        }
        assert_eq!(q.offer(SimTime::ZERO), Admission::Shed);
        // 300 ms drains 3 requests at 10/s.
        assert!(matches!(
            q.offer(SimTime::from_millis(300)),
            Admission::Admitted { .. }
        ));
        assert!((depth(&mut q, SimTime::from_millis(300)) - 3.0).abs() < 1e-9);
    }
}
