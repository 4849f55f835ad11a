//! E9 (§II-C2): the HBase-vs-HDFS access-pattern contrast — "Unlike HDFS
//! that is optimized only for batch-style data access, HBase supports
//! efficient random read/write operations" — plus DFS availability under
//! failures with re-replication.

use scbench::{f1, header, table, BenchJson};
use scdfs::DfsCluster;
use scnosql::wide_column::Table;
use std::time::Instant;

fn n() -> usize {
    if scbench::quick() {
        500
    } else {
        2_000
    }
}

fn seeded_stores() -> (Table, DfsCluster) {
    let mut table = Table::new("incidents", 256);
    let mut dfs = DfsCluster::new(5, 3, 8 * 1024, 30).unwrap();
    let mut batch = Vec::new();
    for i in 0..n() {
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
    dfs.create("/incidents/all.dat", &batch).unwrap();
    (table, dfs)
}

fn regenerate_figure() {
    header(
        "E9",
        "§II-C2",
        "(a) random point reads: wide-column vs whole-file DFS; (b) availability under failures",
    );
    let (table_store, dfs) = seeded_stores();

    // (a) 100 random point reads.
    let keys: Vec<String> = (0..100)
        .map(|i| format!("row-{:06}", (i * 97) % n()))
        .collect();
    let start = Instant::now();
    for k in &keys {
        assert!(table_store.get(k, "f", "v").is_some());
    }
    let wc_time = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in &keys {
        // The DFS has no point access: each "random read" is a file read.
        let blob = dfs.read("/incidents/all.dat").unwrap();
        std::hint::black_box(blob.len());
    }
    let dfs_time = start.elapsed().as_secs_f64();

    // Batch scan throughput comparison.
    let start = Instant::now();
    let scanned = table_store.scan_rows("", "\u{10FFFF}").count();
    let scan_time = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let blob = dfs.read("/incidents/all.dat").unwrap();
    let batch_time = start.elapsed().as_secs_f64();

    table(
        &["access pattern", "wide-column", "dfs", "winner"],
        &[
            vec![
                "100 random point reads (ms)".into(),
                f1(wc_time * 1e3),
                f1(dfs_time * 1e3),
                if wc_time < dfs_time {
                    "wide-column".into()
                } else {
                    "dfs".into()
                },
            ],
            vec![
                "full batch scan (ms)".into(),
                f1(scan_time * 1e3),
                f1(batch_time * 1e3),
                if batch_time < scan_time {
                    "dfs".into()
                } else {
                    "wide-column".into()
                },
            ],
        ],
    );
    println!(
        "random-read speedup (wide-column over whole-file DFS): {:.0}x; scanned {scanned} rows, {} bytes",
        dfs_time / wc_time.max(1e-9),
        blob.len()
    );

    let mut json = BenchJson::new("e9", scbench::quick());
    json.det_u("rows_scanned", scanned as u64)
        .det_u("dfs_file_bytes", blob.len() as u64);

    // (b) Availability under progressive failures.
    println!("\nDFS availability (replication=3) under failures:");
    let mut rows = Vec::new();
    for kills in 0..=3u32 {
        let (_, mut dfs) = seeded_stores();
        for k in 0..kills {
            dfs.kill_node(k).unwrap();
        }
        let readable_before = dfs.read("/incidents/all.dat").is_ok();
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
    json.write();
}

fn main() {
    regenerate_figure();
}
