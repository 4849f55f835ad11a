//! Agents: DQN, tabular Q-learning, and a random baseline.

use scneural::exec::ExecCtx;
use scneural::layers::{Dense, Relu};
use scneural::net::{Sequential, Workspace};
use scneural::optim::Adam;
use scneural::serialize::{load_params, save_params};
use scneural::tensor::Tensor;
use simclock::SeededRng;

use crate::env::Transition;
use crate::replay::ReplayBuffer;

/// An acting (and optionally learning) agent.
pub trait Agent {
    /// Chooses an action for `state`.
    fn act(&mut self, state: &[f32]) -> usize;

    /// Ingests an experienced transition (no-op for non-learning agents).
    fn observe(&mut self, _t: Transition) {}
}

/// Uniform random policy (the E11 floor baseline).
#[derive(Debug)]
pub struct RandomAgent {
    actions: usize,
    rng: SeededRng,
}

impl RandomAgent {
    /// Creates a random agent over `actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is zero.
    pub fn new(actions: usize, seed: u64) -> Self {
        assert!(actions > 0, "need at least one action");
        RandomAgent {
            actions,
            rng: SeededRng::new(seed),
        }
    }
}

impl Agent for RandomAgent {
    fn act(&mut self, _state: &[f32]) -> usize {
        self.rng.index(self.actions)
    }
}

/// Tabular Q-learning over a discretized state (each state component is
/// bucketed into `buckets` bins). The pre-deep-RL baseline the paper's DRL
/// section positions itself against.
#[derive(Debug)]
pub struct TabularQAgent {
    q: std::collections::HashMap<Vec<u8>, Vec<f64>>,
    actions: usize,
    buckets: u8,
    alpha: f64,
    gamma: f64,
    epsilon: f64,
    rng: SeededRng,
}

impl TabularQAgent {
    /// Creates a tabular agent.
    ///
    /// # Panics
    ///
    /// Panics if `actions` or `buckets` is zero.
    pub fn new(actions: usize, buckets: u8, seed: u64) -> Self {
        assert!(
            actions > 0 && buckets > 0,
            "actions and buckets must be positive"
        );
        TabularQAgent {
            q: std::collections::HashMap::new(),
            actions,
            buckets,
            alpha: 0.2,
            gamma: 0.95,
            epsilon: 0.15,
            rng: SeededRng::new(seed),
        }
    }

    fn key(&self, state: &[f32]) -> Vec<u8> {
        state
            .iter()
            .map(|&v| ((v.clamp(0.0, 1.0) * (self.buckets - 1) as f32).round()) as u8)
            .collect()
    }

    fn q_row(&mut self, key: Vec<u8>) -> &mut Vec<f64> {
        let actions = self.actions;
        self.q.entry(key).or_insert_with(|| vec![0.0; actions])
    }
}

impl Agent for TabularQAgent {
    fn act(&mut self, state: &[f32]) -> usize {
        if self.rng.chance(self.epsilon) {
            return self.rng.index(self.actions);
        }
        let key = self.key(state);
        let row = self.q_row(key);
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty row")
    }

    fn observe(&mut self, t: Transition) {
        let next_key = self.key(&t.next_state);
        let next_max = self
            .q_row(next_key)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let target = if t.done {
            t.reward
        } else {
            t.reward + self.gamma * next_max
        };
        let key = self.key(&t.state);
        let alpha = self.alpha;
        let row = self.q_row(key);
        row[t.action] += alpha * (target - row[t.action]);
    }
}

/// [`DqnAgent`]'s initial exploration rate.
const EPSILON_START: f64 = 1.0;

/// [`DqnAgent`]'s final exploration rate.
const EPSILON_END: f64 = 0.05;

/// [`DqnAgent`]'s replay capacity.
const REPLAY_CAPACITY: usize = 5_000;

/// [`DqnAgent`]'s discount factor γ.
const GAMMA: f64 = 0.95;

/// [`DqnAgent`]'s Adam learning rate.
const LR: f32 = 1e-3;

/// Hyper-parameters for [`DqnAgent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Multiplicative epsilon decay applied per training step.
    pub epsilon_decay: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Training steps between target-network syncs.
    pub target_sync: usize,
    /// Use Double DQN targets (action selected by the online net, valued by
    /// the target net) instead of plain max — reduces overestimation bias.
    pub double_dqn: bool,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            hidden: 32,
            epsilon_decay: 0.995,
            batch_size: 32,
            target_sync: 100,
            double_dqn: false,
        }
    }
}

/// Deep Q-network agent: ε-greedy policy over a two-layer MLP, experience
/// replay, and a target network synced every `target_sync` training steps.
///
/// It owns what a greedy forward pass writes (the state's row, the
/// network's [`Workspace`] and its Q row), so a warm `act` allocates
/// nothing and a warm `q_values` only the row it returns.
#[derive(Debug)]
pub struct DqnAgent {
    online: Sequential,
    target: Sequential,
    input: Tensor,
    workspace: Workspace,
    q: Tensor,
    replay: ReplayBuffer,
    config: DqnConfig,
    state_dim: usize,
    actions: usize,
    epsilon: f64,
    steps: usize,
    optimizer: Adam,
    rng: SeededRng,
}

fn build_net(state_dim: usize, hidden: usize, actions: usize, seed: u64) -> Sequential {
    Sequential::new()
        .with(Dense::new(state_dim, hidden, seed))
        .with(Relu::new())
        .with(Dense::new(hidden, hidden, seed.wrapping_add(1)))
        .with(Relu::new())
        .with(Dense::new(hidden, actions, seed.wrapping_add(2)))
}

impl DqnAgent {
    /// Creates a DQN agent for `state_dim` inputs and `actions` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` or `actions` is zero.
    pub fn new(state_dim: usize, actions: usize, config: DqnConfig, seed: u64) -> Self {
        assert!(state_dim > 0 && actions > 0, "dimensions must be positive");
        let online = build_net(state_dim, config.hidden, actions, seed);
        let mut target = build_net(state_dim, config.hidden, actions, seed.wrapping_add(100));
        // Start the target as an exact copy.
        load_params(&mut target, &save_params(&online)).expect("same architecture");
        DqnAgent {
            online,
            target,
            input: Tensor::zeros(vec![1, state_dim]),
            workspace: Workspace::default(),
            q: Tensor::default(),
            replay: ReplayBuffer::new(REPLAY_CAPACITY, seed.wrapping_add(7)),
            epsilon: EPSILON_START,
            config,
            state_dim,
            actions,
            steps: 0,
            optimizer: Adam::new(LR),
            rng: SeededRng::new(seed.wrapping_add(13)),
        }
    }

    /// Greedy Q-values for a state (no exploration).
    ///
    /// # Panics
    ///
    /// Panics if `state` is not `state_dim` long.
    pub fn q_values(&mut self, state: &[f32]) -> Vec<f32> {
        self.forward(state).to_vec()
    }

    /// The online network's Q row for `state`, written into the agent's
    /// own buffers.
    fn forward(&mut self, state: &[f32]) -> &[f32] {
        self.input.data_mut().copy_from_slice(state);
        self.online
            .predict_into(
                &self.input,
                &ExecCtx::serial(),
                &mut self.workspace,
                &mut self.q,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        self.q.data()
    }

    fn train_batch(&mut self) {
        let batch = self.replay.sample(self.config.batch_size);
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let mut states = Vec::with_capacity(n * self.state_dim);
        let mut next_states = Vec::with_capacity(n * self.state_dim);
        for t in &batch {
            states.extend_from_slice(&t.state);
            next_states.extend_from_slice(&t.next_state);
        }
        let states = Tensor::from_vec(vec![n, self.state_dim], states).expect("sized above");
        let next_states =
            Tensor::from_vec(vec![n, self.state_dim], next_states).expect("sized above");

        // Bellman targets from the frozen target network. Double DQN picks
        // the argmax action with the online net but values it with the
        // target net (van Hasselt et al.), curbing max-operator bias.
        let next_q_target = self.target.predict(&next_states);
        let next_q_online = if self.config.double_dqn {
            Some(self.online.predict(&next_states))
        } else {
            None
        };
        let mut targets = self.online.predict(&states);
        for (i, t) in batch.iter().enumerate() {
            let next_value = match &next_q_online {
                Some(online) => {
                    let best = (0..self.actions)
                        .max_by(|&a, &b| online.at(i, a).total_cmp(&online.at(i, b)))
                        .expect("non-empty action set");
                    next_q_target.at(i, best)
                }
                None => (0..self.actions)
                    .map(|a| next_q_target.at(i, a))
                    .fold(f32::NEG_INFINITY, f32::max),
            };
            let y = if t.done {
                t.reward as f32
            } else {
                t.reward as f32 + GAMMA as f32 * next_value
            };
            targets.set(i, t.action, y);
        }
        self.online
            .train_step_values(&states, &targets, &mut self.optimizer);

        self.steps += 1;
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(EPSILON_END);
        if self.steps.is_multiple_of(self.config.target_sync) {
            load_params(&mut self.target, &save_params(&self.online)).expect("same architecture");
        }
    }
}

impl Agent for DqnAgent {
    fn act(&mut self, state: &[f32]) -> usize {
        if self.rng.chance(self.epsilon) {
            return self.rng.index(self.actions);
        }
        self.forward(state)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty q row")
    }

    fn observe(&mut self, t: Transition) {
        self.replay.push(t);
        if self.replay.len() >= self.config.batch_size {
            self.train_batch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::CameraControlEnv;
    use crate::env::{run_episode, Environment};

    #[test]
    fn random_agent_uniformish() {
        let mut a = RandomAgent::new(4, 1);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[a.act(&[0.0])] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
    }

    #[test]
    fn tabular_learns_corridor() {
        // Simple deterministic chain: Q-learning must learn to go right.
        struct Chain {
            pos: i32,
            steps: usize,
        }
        impl Environment for Chain {
            fn state_dim(&self) -> usize {
                1
            }
            fn num_actions(&self) -> usize {
                2
            }
            fn reset(&mut self) -> Vec<f32> {
                self.pos = 0;
                self.steps = 0;
                vec![0.0]
            }
            fn step(&mut self, action: usize) -> (Vec<f32>, f64, bool) {
                self.pos += if action == 1 { 1 } else { -1 };
                self.pos = self.pos.max(0);
                self.steps += 1;
                let done = self.pos >= 4 || self.steps >= 30;
                let r = if self.pos >= 4 { 10.0 } else { -0.1 };
                (vec![self.pos as f32 / 4.0], r, done)
            }
        }
        let mut env = Chain { pos: 0, steps: 0 };
        let mut agent = TabularQAgent::new(2, 5, 2);
        for _ in 0..300 {
            run_episode(&mut env, &mut agent, true);
        }
        agent.epsilon = 0.0;
        let r = run_episode(&mut env, &mut agent, false);
        assert!(r > 9.0, "learned return {r}");
        assert!(agent.q.len() >= 4);
    }

    #[test]
    fn dqn_epsilon_decays() {
        let mut env = CameraControlEnv::new(8, 8, 20, 3);
        let mut agent = DqnAgent::new(env.state_dim(), env.num_actions(), DqnConfig::default(), 4);
        let e0 = agent.epsilon;
        for _ in 0..10 {
            run_episode(&mut env, &mut agent, true);
        }
        assert!(agent.epsilon < e0);
    }

    #[test]
    fn dqn_q_values_finite() {
        let mut env = CameraControlEnv::new(8, 8, 10, 5);
        let mut agent = DqnAgent::new(env.state_dim(), env.num_actions(), DqnConfig::default(), 6);
        let s = env.reset();
        for _ in 0..5 {
            run_episode(&mut env, &mut agent, true);
        }
        assert!(agent.q_values(&s).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dqn_improves_over_random_on_camera_task() {
        let mut env = CameraControlEnv::new(10, 8, 25, 7);
        let mut dqn = DqnAgent::new(
            env.state_dim(),
            env.num_actions(),
            DqnConfig {
                epsilon_decay: 0.99,
                ..DqnConfig::default()
            },
            8,
        );
        for _ in 0..60 {
            run_episode(&mut env, &mut dqn, true);
        }
        // Evaluate greedily over several episodes.
        dqn.epsilon = 0.0;
        let dqn_score: f64 = (0..10)
            .map(|_| run_episode(&mut env, &mut dqn, false))
            .sum::<f64>()
            / 10.0;
        let mut random = RandomAgent::new(env.num_actions(), 9);
        let rand_score: f64 = (0..10)
            .map(|_| run_episode(&mut env, &mut random, false))
            .sum::<f64>()
            / 10.0;
        assert!(
            dqn_score > rand_score,
            "dqn {dqn_score} should beat random {rand_score}"
        );
    }
}

#[cfg(test)]
mod double_dqn_tests {
    use super::*;
    use crate::camera::CameraControlEnv;
    use crate::env::{run_episode, Environment};
    use scneural::layers::Layer;

    #[test]
    fn double_dqn_trains_and_beats_random() {
        let mut env = CameraControlEnv::new(10, 8, 25, 21);
        let mut agent = DqnAgent::new(
            env.state_dim(),
            env.num_actions(),
            DqnConfig {
                double_dqn: true,
                epsilon_decay: 0.99,
                ..DqnConfig::default()
            },
            22,
        );
        for _ in 0..60 {
            run_episode(&mut env, &mut agent, true);
        }
        agent.epsilon = 0.0;
        let score: f64 = (0..10)
            .map(|_| run_episode(&mut env, &mut agent, false))
            .sum::<f64>()
            / 10.0;
        let mut random = RandomAgent::new(env.num_actions(), 23);
        let rand_score: f64 = (0..10)
            .map(|_| run_episode(&mut env, &mut random, false))
            .sum::<f64>()
            / 10.0;
        assert!(
            score > rand_score,
            "double-dqn {score} vs random {rand_score}"
        );
    }

    #[test]
    fn double_and_plain_produce_different_updates() {
        // Hand-set weights so the online and target nets disagree on the
        // best next action: plain DQN backs up max-target (value 2), Double
        // DQN backs up target[argmax online] (value 0) — one training step
        // must therefore move the two agents apart.
        let make = |double| {
            DqnAgent::new(
                4,
                3,
                DqnConfig {
                    double_dqn: double,
                    batch_size: 8,
                    hidden: 2,
                    ..DqnConfig::default()
                },
                7,
            )
        };
        let mut plain = make(false);
        let mut double = make(true);
        for agent in [&mut plain, &mut double] {
            // Zero every weight; then final online bias prefers action 1,
            // final target bias prefers action 2.
            for p in agent.online.params_mut() {
                for w in p.value.data_mut() {
                    *w = 0.0;
                }
            }
            for p in agent.target.params_mut() {
                for w in p.value.data_mut() {
                    *w = 0.0;
                }
            }
            let mut online_params = agent.online.params_mut();
            let last = online_params.len() - 1;
            online_params[last]
                .value
                .data_mut()
                .copy_from_slice(&[0.0, 1.0, 0.0]);
            let mut target_params = agent.target.params_mut();
            let last = target_params.len() - 1;
            target_params[last]
                .value
                .data_mut()
                .copy_from_slice(&[0.0, 0.0, 2.0]);

            for i in 0..8 {
                agent.replay.push(Transition {
                    state: vec![i as f32 / 8.0; 4],
                    action: 0,
                    reward: 0.0,
                    next_state: vec![(i + 1) as f32 / 8.0; 4],
                    done: false,
                });
            }
            agent.train_batch();
        }
        let s = vec![0.5; 4];
        assert_ne!(plain.q_values(&s), double.q_values(&s));
    }
}
