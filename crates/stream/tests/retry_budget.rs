//! The rule E16 and E19 both obey, pinned as a property.
//!
//! E16 reports zero stream loss at 2× fault intensity; E19's gated
//! baseline reports lost ingest events. Both are the same producer under
//! different retry budgets: a send that meets a broker outage is retried
//! for the sum of its [`RetryPolicy`] delays and no longer. An outage
//! within that budget loses nothing; a longer one loses exactly the sends
//! that started inside it too early for the last retry to outlive it.

use proptest::prelude::*;
use scfault::{FaultKind, FaultPlan, RetryPolicy};
use scstream::{audit_delivery, Broker, Event, ResilientProducer, SendOutcome, Topic};
use simclock::{SeededRng, SimDuration, SimTime};

const BROKER: u32 = 0;

/// The shortest and longest total backoff `policy` can spend on one send
/// (its jitter-free schedule, scaled by `1 ∓ jitter`).
fn budget(policy: &RetryPolicy) -> (SimDuration, SimDuration) {
    let nominal: f64 = policy
        .with_jitter(0.0)
        .schedule(0)
        .iter()
        .map(|d| d.as_secs_f64())
        .sum();
    (
        SimDuration::from_secs_f64(nominal * (1.0 - policy.jitter)),
        SimDuration::from_secs_f64(nominal * (1.0 + policy.jitter)),
    )
}

/// Three broker outages of `len` each at seeded starts, separated by more
/// than `gap` so no retry chain spans two of them. Returns the plan and
/// the time by which the last outage has healed for `gap`.
fn outage_plan(seed: u64, len: SimDuration, gap: SimDuration) -> (FaultPlan, SimTime) {
    let mut rng = SeededRng::new(seed);
    let mut plan = FaultPlan::empty();
    let mut at = SimTime::ZERO;
    for _ in 0..3 {
        at += gap + SimDuration::from_micros(1 + rng.next_bounded(gap.as_micros().max(1)));
        plan = plan.with_event(at, FaultKind::NodeCrash { node: BROKER });
        at += len;
        plan = plan.with_event(at, FaultKind::NodeRestart { node: BROKER });
    }
    (plan, at + gap)
}

/// Sends one event every `step` until `until`; returns the audit's lost
/// count and the first-send times of the sends the producer gave up on.
fn drive(
    plan: &FaultPlan,
    policy: RetryPolicy,
    seed: u64,
    step: SimDuration,
    until: SimTime,
) -> (usize, Vec<SimTime>, Broker) {
    let mut broker = Broker::new(Topic::new("t", 4), BROKER, plan);
    let mut producer = ResilientProducer::new("p", policy, seed);
    let mut gave_up = Vec::new();
    let mut now = SimTime::ZERO;
    let mut sent = 0u64;
    while now < until {
        let event = Event::with_key(format!("k-{sent}"), vec![0]);
        if let SendOutcome::GaveUp { .. } = producer.send(&mut broker, event, now) {
            gave_up.push(now);
        }
        sent += 1;
        now += step;
    }
    let lost = audit_delivery(broker.topic(), &[("p", sent)]).lost;
    (lost, gave_up, broker)
}

fn policy(attempts: u32, base_ms: u64, jitter: f64) -> RetryPolicy {
    RetryPolicy::new(attempts, SimDuration::from_millis(base_ms)).with_jitter(jitter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Outage ≤ retry budget ⇒ nothing is lost (E16's regime).
    #[test]
    fn outages_within_the_retry_budget_lose_nothing(
        seed in 0u64..1_000,
        attempts in 2u32..9,
        base_ms in 10u64..200,
        jitter in prop_oneof![Just(0.0), Just(0.1)],
        fill in 0.05f64..0.95,
    ) {
        let policy = policy(attempts, base_ms, jitter);
        let (min_budget, max_budget) = budget(&policy);
        let len = SimDuration::from_secs_f64(min_budget.as_secs_f64() * fill);
        let (plan, until) = outage_plan(seed, len, max_budget);
        let step = SimDuration::from_micros(len.as_micros() / 5 + 1);
        let (lost, gave_up, _) = drive(&plan, policy, seed, step, until);
        prop_assert_eq!(lost, 0);
        prop_assert!(gave_up.is_empty());
    }

    /// Outage > retry budget ⇒ sends are lost, and every lost send
    /// started inside an outage window (E19's regime).
    #[test]
    fn losses_beyond_the_retry_budget_start_inside_an_outage(
        seed in 0u64..1_000,
        attempts in 2u32..9,
        base_ms in 10u64..200,
        jitter in prop_oneof![Just(0.0), Just(0.1)],
        over in 1.5f64..4.0,
    ) {
        let policy = policy(attempts, base_ms, jitter);
        let (_, max_budget) = budget(&policy);
        let len = SimDuration::from_secs_f64(max_budget.as_secs_f64() * over);
        let (plan, until) = outage_plan(seed, len, max_budget);
        let step = SimDuration::from_micros(max_budget.as_micros() / 4 + 1);
        let (lost, gave_up, broker) = drive(&plan, policy, seed, step, until);
        prop_assert!(lost > 0, "an outage past the budget must lose its early sends");
        prop_assert_eq!(lost, gave_up.len());
        for at in gave_up {
            prop_assert!(broker.down_until(at).is_some(), "lost send at {} began while up", at);
        }
    }
}

/// The two budgets the experiments run with: E16's covers outages of
/// most of a minute, E19's a third of a second.
#[test]
fn e16_and_e19_retry_budgets() {
    let e16 = RetryPolicy::new(10, SimDuration::from_millis(100));
    let e19 = RetryPolicy::new(4, SimDuration::from_millis(50)).with_jitter(0.0);
    assert_eq!(budget(&e19).0, SimDuration::from_millis(350));
    assert!(budget(&e16).0 >= SimDuration::from_secs(45));
}
