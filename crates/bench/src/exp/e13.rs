//! E13 (§II-B1 / §II-C2): substrate behaviour tables — YARN scheduler
//! fairness/utilization under the three policies and the containers a
//! release frees, streaming delivery guarantees under consumer crashes, and
//! a Sqoop import of a legacy table into the DFS.

use crate::{f3, header, table, BenchJson};
use sccompute::yarn::{AppId, Policy, Resource, ResourceManager};
use scdfs::import::{BulkImporter, RelationalTable};
use scdfs::DfsCluster;
use scstream::{ConsumerGroup, ConsumerId, Event, Topic};
use simclock::SeededRng;

/// A 4-node cluster under `policy`, where app 1 floods 32 one-core
/// containers and app 2 then asks for as many.
fn flooded(policy: Policy) -> ResourceManager {
    let mut rm = ResourceManager::new(policy);
    for _ in 0..4 {
        rm.add_node(Resource::new(8192, 8));
    }
    for _ in 0..32 {
        rm.submit(AppId(1), "prod", Resource::new(1024, 1));
    }
    for _ in 0..32 {
        rm.submit(AppId(2), "dev", Resource::new(1024, 1));
    }
    rm
}

/// Containers `app` holds.
fn containers(rm: &ResourceManager, app: AppId) -> u64 {
    rm.app_usage(app).memory_mb / 1024
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E13",
        "§II-B1 / §II-C2",
        "(a) YARN policies: allocation split between an early flood app and a late app",
    );
    let mut json = BenchJson::new("e13", quick);
    let mut rows = Vec::new();
    for (name, policy) in [
        ("fifo", Policy::Fifo),
        ("fair", Policy::Fair),
        (
            "capacity(75/25)",
            Policy::Capacity(vec![("prod".into(), 0.75), ("dev".into(), 0.25)]),
        ),
    ] {
        let mut rm = flooded(policy);
        rm.schedule();
        let (u1, u2) = (containers(&rm, AppId(1)), containers(&rm, AppId(2)));
        let slug = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect::<String>();
        json.det_u(&format!("{slug}_app1_containers"), u1)
            .det_u(&format!("{slug}_app2_containers"), u2);
        rows.push(vec![
            name.to_string(),
            u1.to_string(),
            u2.to_string(),
            f3(rm.utilization()),
            rm.pending_count().to_string(),
        ]);
    }
    table(
        &[
            "policy",
            "app1_containers",
            "app2_containers",
            "utilization",
            "pending",
        ],
        &rows,
    );
    // A finished container goes back to its node: under FIFO, app 2 runs
    // once app 1 releases what it holds.
    let mut rm = flooded(Policy::Fifo);
    for c in rm.schedule().iter().filter(|c| c.app == AppId(1)) {
        assert!(rm.release(c.id), "a container the pass allocated");
    }
    rm.schedule();
    let (u1, u2) = (containers(&rm, AppId(1)), containers(&rm, AppId(2)));
    println!("fifo after app 1 releases: app1 {u1}, app2 {u2} containers");
    json.det_u("fifo_released_app1_containers", u1)
        .det_u("fifo_released_app2_containers", u2);

    println!("\n(b) streaming delivery under a consumer crash (at-least-once):");
    let mut topic = Topic::new("events", 4);
    for i in 0..1_000 {
        topic.publish(Event::with_key(format!("k{i}"), vec![0]));
    }
    let mut group = ConsumerGroup::new("workers", 4);
    group.join(ConsumerId(0));
    // Consume 600, commit only 400, crash, rejoin, drain.
    let batch = group.poll(ConsumerId(0), &topic, 600);
    for (pid, off, _) in batch.iter().take(400) {
        group.commit(*pid, *off);
    }
    let committed_before = group.total_committed();
    group.leave(ConsumerId(0));
    group.join(ConsumerId(1));
    let mut redelivered = 0;
    loop {
        let b = group.poll(ConsumerId(1), &topic, 256);
        if b.is_empty() {
            break;
        }
        redelivered += b.len();
        for (pid, off, _) in b {
            group.commit(pid, off);
        }
    }
    table(
        &["quantity", "value"],
        &[
            vec!["published".into(), "1000".into()],
            vec!["consumed pre-crash".into(), "600".into()],
            vec!["committed pre-crash".into(), committed_before.to_string()],
            vec!["delivered post-crash".into(), redelivered.to_string()],
            vec!["final lag".into(), group.lag(&topic).to_string()],
        ],
    );
    assert_eq!(group.lag(&topic), 0, "everything eventually delivered");
    assert!(redelivered >= 600, "uncommitted work redelivered");
    json.det_u("committed_pre_crash", committed_before)
        .det_u("redelivered_post_crash", redelivered as u64)
        .det_u("final_lag", group.lag(&topic));
    sqoop(&mut json);
    json
}

/// §II-C2's Sqoop: a seeded legacy crime table imported by 4 mappers, one
/// CSV part each, into a 3-way replicated DFS.
fn sqoop(json: &mut BenchJson) {
    let mut rng = SeededRng::new(13);
    let mut legacy = RelationalTable::new(vec!["id".into(), "offense".into(), "district".into()]);
    for id in 0..400 {
        let offense = *rng
            .choose(&["ROBBERY", "ASSAULT", "BURGLARY"])
            .expect("non-empty");
        legacy.insert(vec![
            id.to_string(),
            offense.into(),
            (1 + rng.index(12)).to_string(),
        ]);
    }
    let mut dfs = DfsCluster::new(5, 3, 4096, 13).expect("a valid cluster shape");
    let report = BulkImporter::new(4)
        .import(&legacy, "id", &mut dfs, "/warehouse/crimes")
        .expect("a known split column");
    assert_eq!(dfs.stats().files, report.files.len(), "one file per mapper");
    println!(
        "\n(c) Sqoop import: {} rows in {} files, {} bytes",
        report.rows,
        report.files.len(),
        report.bytes
    );
    json.det_u("sqoop_rows", report.rows as u64)
        .det_u("sqoop_files", report.files.len() as u64)
        .det_u("sqoop_bytes", report.bytes as u64);
}
