//! A sim-time circuit breaker.

use simclock::{SimDuration, SimTime};

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Requests are rejected until the reset window elapses.
    Open,
    /// One probe request is allowed; success closes, failure re-opens.
    HalfOpen,
}

/// Classic three-state circuit breaker over sim-time: `failure_threshold`
/// consecutive failures trip it open, and after `reset_after` of sim-time a
/// single half-open probe decides whether to close again.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    reset_after: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `failure_threshold` consecutive
    /// failures and probing again `reset_after` later.
    pub fn new(failure_threshold: u32, reset_after: SimDuration) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            reset_after,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
        }
    }

    /// Whether a request may proceed at `now`. An open breaker transitions
    /// to half-open (and admits the probe) once `reset_after` has elapsed.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.opened_at + self.reset_after {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful request: closes the breaker and clears the
    /// failure streak.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failed request at `now`; may trip the breaker open.
    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_secs(10));
        let t = SimTime::from_secs(1);
        assert!(b.allow(t));
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state, BreakerState::Closed);
        b.record_failure(t);
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.allow(SimTime::from_secs(5)));
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(10));
        b.record_failure(SimTime::from_secs(1));
        assert!(!b.allow(SimTime::from_secs(2)));
        assert!(b.allow(SimTime::from_secs(11)), "reset window elapsed");
        assert_eq!(b.state, BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state, BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(10));
        b.record_failure(SimTime::from_secs(0));
        assert!(b.allow(SimTime::from_secs(10)));
        b.record_failure(SimTime::from_secs(10));
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.allow(SimTime::from_secs(19)));
        assert!(b.allow(SimTime::from_secs(20)));
    }
}
