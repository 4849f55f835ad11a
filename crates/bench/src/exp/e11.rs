//! E11 (§III-D): DRL smart camera control — DQN vs tabular Q-learning vs
//! random on the pan/zoom tracking environment. Regenerates the learning
//! curves and greedy-evaluation table.

use crate::{f1, header, table, BenchJson};
use scdrl::{
    run_episode, Agent, CameraControlEnv, DqnAgent, DqnConfig, Environment, RandomAgent,
    TabularQAgent,
};

fn evaluate<A: Agent>(env: &mut CameraControlEnv, agent: &mut A, episodes: usize) -> f64 {
    (0..episodes)
        .map(|_| run_episode(env, agent, false))
        .sum::<f64>()
        / episodes as f64
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E11",
        "§III-D",
        "Smart camera control: DQN vs tabular Q vs random (reward = incident kept in view, zoom-weighted)",
    );
    // Identical but independent environments: agents see the same episode
    // distribution without consuming each other's RNG draws.
    let mut env_dqn = CameraControlEnv::new(10, 8, 25, 40);
    let mut env_ddqn = CameraControlEnv::new(10, 8, 25, 40);
    let mut env_tab = CameraControlEnv::new(10, 8, 25, 40);
    let mut env_rnd = CameraControlEnv::new(10, 8, 25, 40);
    let env = &mut env_dqn; // state/action dims are shared

    let (sd, na) = (env.state_dim(), env.num_actions());
    let mut dqn = DqnAgent::new(
        sd,
        na,
        DqnConfig {
            epsilon_decay: 0.995,
            ..DqnConfig::default()
        },
        41,
    );
    let mut ddqn = DqnAgent::new(
        sd,
        na,
        DqnConfig {
            epsilon_decay: 0.995,
            double_dqn: true,
            ..DqnConfig::default()
        },
        41,
    );
    let mut tabular = TabularQAgent::new(na, 4, 42);
    let mut random = RandomAgent::new(na, 43);

    let blocks = if quick { 2 } else { 5 };
    println!("training curves (mean return per 20-episode block):");
    let mut rows = Vec::new();
    for block in 0..blocks {
        let dqn_mean: f64 = (0..20)
            .map(|_| run_episode(&mut env_dqn, &mut dqn, true))
            .sum::<f64>()
            / 20.0;
        let ddqn_mean: f64 = (0..20)
            .map(|_| run_episode(&mut env_ddqn, &mut ddqn, true))
            .sum::<f64>()
            / 20.0;
        let tab_mean: f64 = (0..20)
            .map(|_| run_episode(&mut env_tab, &mut tabular, true))
            .sum::<f64>()
            / 20.0;
        let rnd_mean: f64 = (0..20)
            .map(|_| run_episode(&mut env_rnd, &mut random, false))
            .sum::<f64>()
            / 20.0;
        rows.push(vec![
            format!("{}-{}", block * 20, block * 20 + 19),
            f1(dqn_mean),
            f1(ddqn_mean),
            f1(tab_mean),
            f1(rnd_mean),
        ]);
    }
    table(
        &["episodes", "dqn", "double_dqn", "tabular_q", "random"],
        &rows,
    );

    // Greedy evaluation.
    let dqn_eval = evaluate(&mut env_dqn, &mut dqn, 20);
    let ddqn_eval = evaluate(&mut env_ddqn, &mut ddqn, 20);
    let tab_eval = evaluate(&mut env_tab, &mut tabular, 20);
    let rnd_eval = evaluate(&mut env_rnd, &mut random, 20);
    println!("\ngreedy-ish evaluation over 20 episodes:");
    table(
        &["agent", "mean_return"],
        &[
            vec!["dqn".into(), f1(dqn_eval)],
            vec!["double_dqn".into(), f1(ddqn_eval)],
            vec!["tabular_q".into(), f1(tab_eval)],
            vec!["random".into(), f1(rnd_eval)],
        ],
    );
    let mut json = BenchJson::new("e11", quick);
    json.det_f("dqn_eval_return", dqn_eval)
        .det_f("double_dqn_eval_return", ddqn_eval)
        .det_f("tabular_eval_return", tab_eval)
        .det_f("random_eval_return", rnd_eval);
    json
}
