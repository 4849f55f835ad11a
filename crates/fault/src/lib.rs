//! # scfault — deterministic fault injection and resilience policies
//!
//! The paper's four-tier fog model (§II-B1) and federated cloud only earn
//! the word *distributed* if the system keeps working while nodes crash,
//! links partition, messages vanish, and disks rot. This crate supplies the
//! failure side of that argument as a first-class, reproducible input:
//!
//! - [`FaultPlan`]: a seed-driven, time-sorted schedule of [`FaultEvent`]s
//!   (node crash/restart, link partition, latency spike, message
//!   drop/duplication, block corruption), generated from a [`FaultSpec`]
//!   whose single [`FaultSpec::intensity`] knob drives the E16 sweep.
//!   Precomputed views ([`OutageWindows`], [`LatencySpikes`],
//!   [`MessageFaults`]) answer hot-path queries without scanning.
//! - Resilience policies the layers share: [`RetryPolicy`] (capped
//!   exponential backoff with seed-deterministic jitter) and
//!   [`CircuitBreaker`].
//!
//! **Determinism contract.** Faults are *data, not dice*: a plan is fixed
//! before the run starts, every retry delay is a pure function of a seed,
//! and consumers only read precomputed windows. Identical seeds therefore
//! produce byte-identical fault schedules, reports, and telemetry exports
//! at any `SCPAR_THREADS` — the property the determinism suite checks.
//!
//! Consumers: `scfog` re-routes/re-queues jobs around plan outages, `scdfs`
//! drives datanode churn and corruption scrubbing from a plan, and
//! `scstream` wraps a topic in a fault-gated broker with retrying
//! producers. See the DESIGN.md "Fault model" section for the taxonomy and
//! per-layer recovery guarantees.
//!
//! # Examples
//!
//! ```
//! use scfault::{FaultPlan, FaultSpec, OutageWindows};
//! use simclock::SimDuration;
//!
//! let spec = FaultSpec::new(SimDuration::from_secs(60), 4).intensity(2.0);
//! let plan = FaultPlan::generate(&spec, 42);
//! assert_eq!(plan, FaultPlan::generate(&spec, 42), "same seed, same plan");
//! let outages = OutageWindows::node_crashes(&plan);
//! for node in outages.targets() {
//!     assert!(!outages.windows_for(node).is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod plan;
mod retry;

pub use breaker::CircuitBreaker;
pub use plan::{
    FaultEvent, FaultKind, FaultPlan, FaultSpec, LatencySpikes, MessageFaults, OutageWindows,
    FOREVER,
};
pub use retry::RetryPolicy;

use sctelemetry::TelemetryHandle;

/// Counter: fault events actually applied by a layer executing a plan.
pub const METRIC_INJECTED: &str = "scfault_injected_total";

/// Records one applied fault into telemetry: bumps [`METRIC_INJECTED`] and
/// emits a sim-time event named after the fault kind. Layers call this at
/// the moment they apply an event, so traces show faults interleaved with
/// the work they disturb.
pub fn record_injection(t: &TelemetryHandle, event: &FaultEvent) {
    if !t.is_enabled() {
        return;
    }
    t.counter_inc(METRIC_INJECTED, "fault events injected into a run");
    t.event(
        "scfault",
        event.kind.name(),
        event.at,
        format_args!("{:?}", event.kind),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;

    #[test]
    fn record_injection_counts_and_traces() {
        let t = sctelemetry::Telemetry::shared();
        let e = FaultEvent {
            at: SimTime::from_secs(3),
            kind: FaultKind::NodeCrash { node: 7 },
        };
        record_injection(&t.handle(), &e);
        record_injection(&t.handle(), &e);
        let c = t.registry().get(METRIC_INJECTED).unwrap();
        assert_eq!(c.as_counter().unwrap().get(), 2);
        assert_eq!(t.trace_len(), 2);
    }

    #[test]
    fn disabled_handle_is_a_noop() {
        let e = FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::MessageDrop { seq: 1 },
        };
        record_injection(&TelemetryHandle::disabled(), &e);
    }
}
