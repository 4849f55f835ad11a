//! Allocation budget of a DQN agent's greedy forward pass.
//!
//! A `DqnAgent` owns what its forward pass writes: the state's row, the
//! online network's `Workspace` and the Q row. A warm `q_values` allocates
//! the row it returns and nothing else, and a warm `act` allocates nothing.
//! `sctelemetry::CountingAlloc`, the one counting allocator (per thread, so
//! the tests can run side by side), holds the calls to that.

use scdrl::{Agent, DqnAgent, DqnConfig, Transition};
use sctelemetry::{counted, AllocCount, CountingAlloc};
use simclock::SeededRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An agent of 4 inputs and 3 actions that has trained a few batches,
/// its exploration rate decayed by `epsilon_decay` per batch.
fn trained_agent(epsilon_decay: f64) -> DqnAgent {
    let config = DqnConfig {
        hidden: 12,
        batch_size: 8,
        target_sync: 4,
        epsilon_decay,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(4, 3, config, 70);
    let mut rng = SeededRng::new(71);
    let mut state: Vec<f32> = (0..4).map(|_| rng.next_f32()).collect();
    for step in 0..20 {
        let next_state: Vec<f32> = (0..4).map(|_| rng.next_f32()).collect();
        agent.observe(Transition {
            state: state.clone(),
            action: rng.index(3),
            reward: rng.next_f64(),
            next_state: next_state.clone(),
            done: step % 7 == 6,
        });
        state = next_state;
    }
    agent
}

#[test]
fn a_warm_q_values_allocates_the_row_it_returns() {
    let mut agent = trained_agent(DqnConfig::default().epsilon_decay);
    let state = [0.1, 0.7, 0.3, 0.9];
    let cold = agent.q_values(&state);
    let (warm, heap) = counted(|| agent.q_values(&state));
    assert_eq!(warm, cold, "a reused workspace is invisible in the values");
    assert_eq!(heap.allocs, 1, "the returned row, nothing else");
    assert_eq!(heap.bytes, 3 * std::mem::size_of::<f32>());
}

#[test]
fn a_warm_act_allocates_nothing() {
    // Exploration falls to its floor (5 %) after one batch, so most of
    // these steps are greedy and some explore.
    let mut agent = trained_agent(0.0);
    let state = [0.1, 0.7, 0.3, 0.9];
    let greedy = agent.q_values(&state);
    let best = (0..3).max_by(|&a, &b| greedy[a].total_cmp(&greedy[b]));
    let mut greedy_steps = 0;
    for _ in 0..64 {
        let (action, AllocCount { allocs, .. }) = counted(|| agent.act(&state));
        assert_eq!(allocs, 0, "an exploring or a greedy step allocates nothing");
        greedy_steps += usize::from(Some(action) == best);
    }
    assert!(greedy_steps >= 48, "{greedy_steps} of 64 steps were greedy");
}
