//! Datanode churn under bulk import: kill `k` nodes mid-import and assert
//! the repair loop restores the replication factor, with the MTTR recorded
//! into telemetry (ISSUE satellite: churn + MTTR).

use scdfs::import::{BulkImporter, RelationalTable};
use scdfs::{DfsCluster, METRIC_MTTR};
use scfault::{FaultEvent, FaultKind, FaultPlan};
use simclock::{SimDuration, SimTime};

fn sensor_table(rows: usize, offset: usize) -> RelationalTable {
    let mut t = RelationalTable::new(vec![
        "id".to_string(),
        "zone".to_string(),
        "reading".to_string(),
    ]);
    for i in 0..rows {
        let id = offset + i;
        t.insert(vec![
            id.to_string(),
            format!("zone-{}", id % 7),
            format!("{:.2}", (id as f64) * 0.37),
        ]);
    }
    t
}

#[test]
fn k_datanode_churn_mid_import_heals_to_full_replication() {
    const K: u32 = 2;
    let telemetry = sctelemetry::Telemetry::shared();
    let mut dfs = DfsCluster::new(8, 3, 1024, 99)
        .unwrap()
        .with_telemetry(telemetry.handle());
    let importer = BulkImporter::new(4);

    // First half of the import lands while the cluster is healthy.
    let a = importer
        .import(&sensor_table(400, 0), "id", &mut dfs, "/import/a")
        .unwrap();
    assert_eq!(a.files.len(), 4);

    // Churn: k datanodes crash mid-import.
    let crash_at = SimTime::from_secs(1);
    for node in 0..K {
        assert!(dfs.apply_fault(&FaultEvent {
            at: crash_at,
            kind: FaultKind::NodeCrash { node },
        }));
    }
    let degraded = dfs.stats();
    assert!(degraded.under_replicated > 0, "churn left blocks degraded");
    assert_eq!(degraded.alive_nodes, 6);

    // Second half of the import continues against the degraded cluster —
    // placement must route around the dead nodes.
    let b = importer
        .import(&sensor_table(400, 400), "id", &mut dfs, "/import/b")
        .unwrap();
    assert_eq!(b.files.len(), 4);

    // The repair loop (empty plan: no further faults) re-replicates and
    // measures MTTR for the open outage episode.
    let report = dfs.run_fault_plan(
        &FaultPlan::empty(),
        SimDuration::from_secs(1),
        SimDuration::from_secs(10),
    );
    assert_eq!(report.repairs, 1, "one outage episode healed");
    assert!(report.replicas_repaired > 0);
    assert!(!report.unrepaired_at_end);

    // Every block is back at the replication factor, counting only alive
    // holders.
    for (block, locs) in dfs.namenode().all_blocks() {
        let alive = locs
            .iter()
            .filter(|n| dfs.datanode(**n).is_some_and(|d| d.is_alive()))
            .count();
        assert!(
            alive >= dfs.replication(),
            "block {block} has {alive} alive replicas"
        );
    }
    assert_eq!(report.final_stats.under_replicated, 0);
    assert_eq!(report.final_stats.lost, 0);

    // Imported data survives the churn end-to-end.
    for path in a.files.iter().chain(&b.files) {
        assert!(dfs.read(path).is_ok(), "{path} readable after churn");
    }

    // MTTR landed in telemetry: one histogram sample, bounded by the repair
    // horizon.
    let registry = telemetry.registry();
    let entry = registry
        .get(METRIC_MTTR)
        .expect("MTTR histogram registered");
    let snap = entry.as_histogram().unwrap().snapshot();
    assert_eq!(snap.count, 1);
    assert!(
        snap.max <= 10.0,
        "MTTR {} within the repair horizon",
        snap.max
    );
}
