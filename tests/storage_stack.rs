//! Integration: the storage substrates working as the paper combines them —
//! streaming ingestion feeding the wide-column store, batch archival in the
//! DFS, and the HBase-vs-HDFS access-pattern contrast (§II-C2).

use smartcity::dfs::DfsCluster;
use smartcity::nosql::wide_column::Table;
use smartcity::stream::{ConsumerGroup, ConsumerId, Event, Topic};

#[test]
fn stream_into_wide_column_store() {
    let mut topic = Topic::new("raw_events", 4);
    for i in 0..200 {
        topic.publish(Event::with_key(format!("evt-{i:04}"), vec![i as u8]));
    }
    let mut table = Table::new("raw_events", 64);
    let mut group = ConsumerGroup::new("store", topic.partition_count());
    group.join(ConsumerId(0));
    loop {
        let batch = group.poll(ConsumerId(0), &topic, 16);
        if batch.is_empty() {
            break;
        }
        // Commit only after the store accepted the event: at-least-once.
        for (partition, offset, event) in batch {
            let key = event.key().expect("keyed event");
            table
                .put(key, "raw", "payload", event.payload().to_vec())
                .unwrap();
            group.commit(partition, offset);
        }
    }
    assert_eq!(table.scan_rows("", "\u{10FFFF}").count(), 200);
    assert_eq!(group.lag(&topic), 0);
}

#[test]
fn wide_column_random_access_vs_dfs_batch() {
    // Same logical dataset in both systems.
    let n = 300usize;
    let mut table = Table::new("incidents", 128);
    let mut dfs = DfsCluster::new(4, 2, 4 * 1024, 9).unwrap();
    let mut batch = Vec::new();
    for i in 0..n {
        let value = format!("incident-{i}");
        table
            .put(&format!("row-{i:05}"), "f", "v", value.clone().into_bytes())
            .unwrap();
        batch.extend_from_slice(value.as_bytes());
        batch.push(b'\n');
    }
    dfs.create("/incidents/batch.dat", &batch).unwrap();

    // Random point reads: the wide-column store answers each key directly.
    for i in (0..n).step_by(29) {
        let v = table
            .get(&format!("row-{i:05}"), "f", "v")
            .expect("present");
        assert_eq!(v, format!("incident-{i}").into_bytes());
    }

    // The DFS only offers whole-file (batch) access — to read one record you
    // read the blocks.
    let blob = dfs.read("/incidents/batch.dat").unwrap();
    assert_eq!(blob.len(), batch.len());
    let lines: Vec<&[u8]> = blob
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(lines.len(), n);

    // Ordered scans: the wide-column store returns sorted row ranges.
    let day: Vec<String> = table
        .scan_rows("row-00010", "row-00020")
        .map(|(k, _)| k.row)
        .collect();
    assert_eq!(day.len(), 10);
    assert!(day.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn lsm_flush_plus_dfs_archival() {
    // Annotation lifecycle: hot writes in the memtable, flushed runs, and a
    // cold archive copy in the DFS.
    let mut table = Table::new("annotations", 16);
    for i in 0..100 {
        table
            .put(&format!("video-{i:03}"), "meta", "label", vec![i as u8])
            .unwrap();
    }
    table.flush();
    let stats = table.stats();
    assert!(stats.flushes >= 1);
    assert_eq!(stats.memtable_cells, 0);

    // Export the full scan as an archive file.
    let mut archive = Vec::new();
    for (key, value) in table.scan_rows("", "\u{10FFFF}") {
        archive.extend_from_slice(key.row.as_bytes());
        archive.push(b'=');
        archive.extend_from_slice(&value);
        archive.push(b';');
    }
    let mut dfs = DfsCluster::new(3, 2, 1024, 10).unwrap();
    dfs.create("/archive/annotations-2026-07.bin", &archive)
        .unwrap();
    assert_eq!(
        dfs.read("/archive/annotations-2026-07.bin").unwrap(),
        archive
    );
}
