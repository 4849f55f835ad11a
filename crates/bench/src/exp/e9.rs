//! E9 (§II-C2): the HBase-vs-HDFS access-pattern contrast — "Unlike HDFS
//! that is optimized only for batch-style data access, HBase supports
//! efficient random read/write operations" — plus DFS availability under
//! failures with re-replication. The access-pattern timings are the timed
//! tables'; this half records what both stores hold, what the wide-column
//! store keeps after random deletes and a full compaction, and the
//! availability table.

use crate::{header, table, BenchJson};
use scdfs::DfsCluster;
use scnosql::wide_column::Table;
use simclock::SeededRng;

/// The DFS path holding every record as one batch file.
pub const BATCH_FILE: &str = "/incidents/all.dat";

/// The records both stores hold.
pub fn records(quick: bool) -> usize {
    if quick {
        500
    } else {
        2_000
    }
}

/// The same incident records as wide-column rows and as one DFS file.
pub fn seeded_stores(quick: bool) -> (Table, DfsCluster) {
    let mut table = Table::new("incidents", 256);
    let mut dfs = DfsCluster::new(5, 3, 8 * 1024, 30).unwrap();
    let mut batch = Vec::new();
    for i in 0..records(quick) {
        let record = format!("incident-{i:06},ROBBERY,district-4");
        table
            .put(
                &format!("row-{i:06}"),
                "f",
                "v",
                record.clone().into_bytes(),
            )
            .unwrap();
        batch.extend_from_slice(record.as_bytes());
        batch.push(b'\n');
    }
    dfs.create(BATCH_FILE, &batch).unwrap();
    (table, dfs)
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E9",
        "§II-C2",
        "(a) what the wide-column store and the DFS hold; (b) availability under failures",
    );
    let (mut table_store, dfs) = seeded_stores(quick);
    let scanned = table_store.scan_rows("", "\u{10FFFF}").count();
    let blob = dfs.read(BATCH_FILE).unwrap();
    println!(
        "wide-column scan: {scanned} rows; DFS batch file: {} bytes",
        blob.len()
    );

    // Random deletes after the writes: a quarter of the draws, repeats
    // allowed, leave tombstones that a full compaction drops.
    let mut rng = SeededRng::new(9);
    for _ in 0..records(quick) / 4 {
        let row = format!("row-{:06}", rng.index(records(quick)));
        table_store.delete(&row, "f", "v").unwrap();
    }
    table_store.flush();
    table_store.compact();
    let compacted = table_store.stats().run_cells;
    assert_eq!(
        compacted,
        table_store.scan_rows("", "\u{10FFFF}").count(),
        "a full compaction keeps exactly the live cells"
    );
    println!("after random deletes and a full compaction: {compacted} cells");

    let mut json = BenchJson::new("e9", quick);
    json.det_u("rows_scanned", scanned as u64)
        .det_u("dfs_file_bytes", blob.len() as u64)
        .det_u("cells_after_compaction", compacted as u64);

    // (b) Availability under progressive failures.
    println!("\nDFS availability (replication=3) under failures:");
    let mut rows = Vec::new();
    for kills in 0..=3u32 {
        let (_, mut dfs) = seeded_stores(quick);
        for k in 0..kills {
            dfs.kill_node(k).unwrap();
        }
        let readable_before = dfs.read(BATCH_FILE).is_ok();
        let created = dfs.re_replicate();
        let stats = dfs.stats();
        json.det_u(
            &format!("kills{kills}_readable"),
            u64::from(readable_before),
        )
        .det_u(&format!("kills{kills}_re_replicated"), created as u64)
        .det_u(&format!("kills{kills}_lost"), stats.lost as u64);
        rows.push(vec![
            kills.to_string(),
            readable_before.to_string(),
            created.to_string(),
            stats.under_replicated.to_string(),
            stats.lost.to_string(),
        ]);
    }
    table(
        &[
            "failures",
            "readable",
            "re_replicated",
            "under_repl_after",
            "lost",
        ],
        &rows,
    );
    json
}
