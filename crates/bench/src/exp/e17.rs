//! E17: serving-tier scalability under an open-loop arrival sweep.
//!
//! The paper's cyberinfrastructure ultimately serves dashboards and
//! inference answers to an entire city; this bench measures how the
//! `scserve` tier holds up as open-loop demand sweeps past the backend's
//! service rate. Three mechanisms share the work:
//!
//! - **caches** serve repeat queries/rows from memory, multiplying the
//!   backend's effective capacity by `1 / (1 - hit_rate)`;
//! - **micro-batching** amortizes inference across coalesced rows;
//! - **admission control** bounds the queue, so past the knee the *shed
//!   fraction* — not the admitted p99 — absorbs the overload
//!   (`p99 ≤ queue_capacity / service_rate + service_time` by
//!   construction).
//!
//! The regenerated table sweeps arrival rate at a fixed service rate and
//! shows exactly that shape: flat p50, p99 rising to its bound at the
//! knee, hit rate holding, and shedding going from zero to dominant.
//! Everything is seeded and in sim-time: the same table prints on every
//! run and thread count. `quick` shrinks the sweep to the pinned run.

use crate::{f1, f3, header, table, BenchJson};
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scserve::{ServeConfig, Server, ServingReport, WorkloadConfig, WorkloadGen};

const RATES: [f64; 5] = [500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0];
const SERVICE_RATE: f64 = 2_000.0;
const QUEUE_CAPACITY: usize = 64;

fn model() -> Sequential {
    Sequential::new()
        .with(Dense::new(8, 32, 41))
        .with(Relu::new())
        .with(Dense::new(32, 4, 42))
}

fn server() -> Server {
    Server::new(ServeConfig {
        service_rate: SERVICE_RATE,
        queue_capacity: QUEUE_CAPACITY,
        // The token bucket is opened wide so the bounded queue is the
        // only shedding mechanism in this sweep.
        rate_per_s: 1e6,
        burst: 1e4,
        ..ServeConfig::default()
    })
    .with_model(model())
}

fn sweep_point(rate_per_s: f64, requests: usize) -> ServingReport {
    let mut srv = server();
    WorkloadGen::new(WorkloadConfig {
        seed: 17,
        requests,
        write_fraction: 0.02,
        rate_per_s,
        ..WorkloadConfig::default()
    })
    .run(&mut srv)
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E17",
        "§II-C3",
        "Open-loop arrival sweep through the serving tier: caches, micro-batches, and load shedding",
    );
    let requests = if quick { 1_200 } else { 5_000 };
    let p99_bound_ms = (QUEUE_CAPACITY as f64 / SERVICE_RATE + 1.0 / SERVICE_RATE) * 1e3;

    let mut json = BenchJson::new("e17", quick);
    let mut rows = Vec::new();
    let mut knee: Option<f64> = None;
    for &rate in &RATES {
        let r = sweep_point(rate, requests);
        if r.shed_fraction > 0.01 && knee.is_none() {
            knee = Some(rate);
        }
        let tag = format!("r{}", rate as u64);
        json.det_f(&format!("{tag}_p99_sim_ms"), r.p99_ms)
            .det_f(&format!("{tag}_hit_rate"), r.hit_rate)
            .det_f(&format!("{tag}_shed_fraction"), r.shed_fraction)
            .det_u(&format!("{tag}_completed"), r.completed);
        rows.push(vec![
            f1(rate),
            f3(r.p50_ms),
            f3(r.p99_ms),
            f3(r.hit_rate),
            f1(r.mean_batch),
            f3(r.shed_fraction),
            r.completed.to_string(),
            r.stale_served.to_string(),
        ]);
    }
    table(
        &[
            "arrival_per_s",
            "p50_ms",
            "p99_ms",
            "hit_rate",
            "mean_batch",
            "shed_frac",
            "completed",
            "stale",
        ],
        &rows,
    );
    match knee {
        Some(rate) => println!(
            "\nshedding engages at {} req/s (service rate {} req/s); admitted p99 \
             stays under its {} ms bound at every rate — overload is absorbed by \
             the shed fraction, not by latency",
            f1(rate),
            f1(SERVICE_RATE),
            f1(p99_bound_ms),
        ),
        None => println!(
            "\nno rate in the sweep engaged shedding (service rate {} req/s)",
            f1(SERVICE_RATE),
        ),
    }
    json.det_f("knee_rate_per_s_det", knee.unwrap_or(0.0));
    json
}
