//! E16 (§II-B1): fault injection and recovery across the three distributed
//! layers. The paper's hardware layer promises that the tiered
//! cyberinfrastructure keeps operating "even though some machines may fail";
//! this bench sweeps fault intensity (0×/0.5×/1×/2× of a baseline
//! [`FaultSpec`]) and regenerates a table of what resilience costs:
//!
//! - **fog**: p99 latency, jobs rerouted / lost / degraded, and the worst
//!   fault-induced stall (`recovery_s`) under crash + partition + spike
//!   injection;
//! - **degradation**: the edge-exit take-rate forced by partitions, and the
//!   effective classifier accuracy once degraded jobs fall back to the
//!   edge-exit answer;
//! - **stream**: at-least-once delivery through broker outages — unique
//!   deliveries, accounted duplicates, and losses (zero with an adequate
//!   retry budget);
//! - **DFS**: repair MTTR and the final under-replicated count after
//!   datanode crashes and block corruption.
//!
//! Everything is seeded: the same intensities print the same table on every
//! run and thread count. `quick` shrinks the sizes to the pinned run.

use crate::{f1, f3, header, table, BenchJson};
use scdfs::DfsCluster;
use scfault::{FaultPlan, FaultSpec, RetryPolicy};
use scfog::{FogSimulator, Placement, SimReport, Topology, Workload};
use scstream::{audit_delivery, Broker, DeliveryAudit, ResilientProducer, Topic};
use simclock::{SimDuration, SimTime};
use smartcity_core::apps::vehicle::VehicleClassifier;

const INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// Fog run under the plan: 23 nodes (1 cloud + 2 servers + 4 fogs + 16
/// edges), early-exit placement so partitions have a degradation path.
fn fog_run(intensity: f64, jobs: usize) -> SimReport {
    let sim = FogSimulator::new(Topology::four_tier(4, 2, 2));
    let workload = Workload::with_escalation(jobs, 100_000, 20.0, 0.4, 7);
    // Horizon matches the ~10 s arrival window so faults land while jobs
    // are in flight.
    let spec = FaultSpec {
        crashes: 3.0,
        partitions: 2.0,
        latency_spikes: 2.0,
        ..FaultSpec::new(SimDuration::from_secs(12), 23)
    }
    .intensity(intensity);
    let plan = FaultPlan::generate(&spec, 16);
    sim.runner(&workload)
        .placement(Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        })
        .faults(&plan)
        .run()
}

/// Stream run: one broker node taking partitions and message faults (no
/// unrecoverable crashes), producers retrying with a deep backoff budget.
fn stream_run(intensity: f64, sends: u64) -> (DeliveryAudit, u64) {
    let spec = FaultSpec {
        crashes: 0.0,
        partitions: 3.0,
        message_faults: 6.0,
        message_seq_space: sends * 2,
        ..FaultSpec::new(SimDuration::from_secs(30), 1)
    }
    .intensity(intensity);
    let plan = FaultPlan::generate(&spec, 17);
    let mut broker = Broker::new(Topic::new("annotations", 4), 0, &plan);
    let retry = RetryPolicy::new(10, SimDuration::from_millis(100));
    let mut producer = ResilientProducer::new("edge-cam", retry, 18);
    for i in 0..sends {
        let at = SimTime::from_millis(i * 40); // spread across the horizon
        let event = scstream::Event::with_key(format!("cam-{}", i % 8), vec![i as u8]);
        producer.send(&mut broker, event, at);
    }
    let audit = audit_delivery(broker.topic(), &[("edge-cam", sends)]);
    (audit, producer.retries())
}

/// DFS run: crashes and corruptions against a replicated cluster, healed by
/// the scrub + re-replication loop.
fn dfs_run(intensity: f64, files: usize) -> scdfs::RepairReport {
    let mut dfs = DfsCluster::new(8, 3, 1024, 19).expect("valid cluster config");
    for i in 0..files {
        let payload: Vec<u8> = (0..3000).map(|b| (b + i) as u8).collect();
        dfs.create(&format!("/video/f{i}"), &payload)
            .expect("healthy cluster accepts writes");
    }
    let blocks = dfs.stats().blocks as u64;
    let spec = FaultSpec {
        crashes: 3.0,
        corruptions: 4.0,
        blocks,
        ..FaultSpec::new(SimDuration::from_secs(40), 8)
    }
    .intensity(intensity);
    let plan = FaultPlan::generate(&spec, 20);
    dfs.run_fault_plan(&plan, SimDuration::from_secs(1), SimDuration::from_secs(60))
}

/// Accuracy at the trained confidence policy vs. forced edge exit (the
/// degraded mode partitions push jobs into).
fn accuracy_pair(quick: bool) -> (f64, f64) {
    let classes = 6;
    let catalog = scdata::vehicles::VehicleCatalog::generate(classes, 4);
    let mut gen = scdata::video::FrameGenerator::new(catalog.clone(), 16, 16, 5).noise(0.02);
    let (frames, labels) = gen.dataset(classes, if quick { 8 } else { 15 });
    let mut clf = VehicleClassifier::new(classes, 16, 0.5, 6);
    clf.train(&frames, &labels, if quick { 25 } else { 50 }, 0.01);
    let mut test_gen = scdata::video::FrameGenerator::new(catalog, 16, 16, 99).noise(0.10);
    let (test_frames, test_labels) = test_gen.dataset(classes, 12);
    let (acc_policy, _) = clf.evaluate(&test_frames, &test_labels);
    clf.set_threshold(0.0); // every frame takes the edge exit
    let (acc_edge, _) = clf.evaluate(&test_frames, &test_labels);
    (acc_policy, acc_edge)
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E16",
        "§II-B1",
        "Fault intensity sweep: fog recovery, stream delivery, DFS repair, degraded accuracy",
    );
    let (jobs, sends, files) = if quick { (60, 120, 6) } else { (200, 500, 20) };
    let (acc_policy, acc_edge) = accuracy_pair(quick);

    let mut json = BenchJson::new("e16", quick);
    let mut rows = Vec::new();
    for &x in &INTENSITIES {
        let fog = fog_run(x, jobs);
        let (audit, retries) = stream_run(x, sends);
        let dfs = dfs_run(x, files);
        let arrived = fog.jobs + fog.jobs_lost;
        let take_rate = if arrived > 0 {
            fog.jobs_degraded as f64 / arrived as f64
        } else {
            0.0
        };
        // Degraded jobs answer with the edge exit; the rest keep the
        // trained policy's accuracy.
        let eff_acc = acc_policy * (1.0 - take_rate) + acc_edge * take_rate;
        let tag = format!("i{}", (x * 10.0) as u32);
        json.det_u(&format!("{tag}_fog_lost"), fog.jobs_lost as u64)
            .det_u(&format!("{tag}_fog_degraded"), fog.jobs_degraded as u64)
            .det_u(&format!("{tag}_delivered"), audit.delivered as u64)
            .det_u(&format!("{tag}_stream_lost"), audit.lost as u64)
            .det_u(
                &format!("{tag}_under_repl"),
                dfs.final_stats.under_replicated as u64,
            )
            .det_f(&format!("{tag}_eff_accuracy"), eff_acc);
        rows.push(vec![
            f1(x),
            f3(fog.p99_latency_s * 1e3),
            fog.jobs_rerouted.to_string(),
            fog.jobs_lost.to_string(),
            fog.jobs_degraded.to_string(),
            f3(fog.recovery_time_s),
            f3(take_rate),
            f3(eff_acc),
            audit.delivered.to_string(),
            audit.duplicates.to_string(),
            audit.lost.to_string(),
            retries.to_string(),
            f3(dfs.mttr_mean_s),
            dfs.final_stats.under_replicated.to_string(),
        ]);
    }
    table(
        &[
            "intensity",
            "fog_p99_ms",
            "rerouted",
            "lost",
            "degraded",
            "recovery_s",
            "edge_take_rate",
            "eff_accuracy",
            "delivered",
            "dups",
            "stream_lost",
            "retries",
            "dfs_mttr_s",
            "under_repl",
        ],
        &rows,
    );
    println!(
        "\npolicy accuracy {} vs. forced edge exit {} — the gap is what \
         graceful degradation trades for availability under partition",
        f3(acc_policy),
        f3(acc_edge),
    );
    json.det_f("policy_accuracy", acc_policy)
        .det_f("edge_exit_accuracy", acc_edge);
    json
}
