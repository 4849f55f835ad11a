//! An LSM-tree wide-column store in the spirit of HBase.
//!
//! Writes land in a write-ahead log and a sorted in-memory memtable; when the
//! memtable exceeds its budget it flushes to an immutable sorted run
//! (SSTable). Reads consult the memtable first, then runs newest-to-oldest.
//! A size-tiered compaction merges runs. Deletes are tombstones, dropped at
//! full compaction.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::NosqlError;

/// A fully qualified cell coordinate: row, column family, qualifier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Row key (the primary dimension; rows sort lexicographically).
    pub row: String,
    /// Column family.
    pub family: String,
    /// Column qualifier within the family.
    pub qualifier: String,
}

impl CellKey {
    /// Creates a cell key.
    fn new(
        row: impl Into<String>,
        family: impl Into<String>,
        qualifier: impl Into<String>,
    ) -> Self {
        CellKey {
            row: row.into(),
            family: family.into(),
            qualifier: qualifier.into(),
        }
    }
}

/// A versioned value: `None` is a tombstone.
type Versioned = (u64, Option<Vec<u8>>);

/// One entry of the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WalEntry {
    /// Monotonic sequence number.
    seq: u64,
    /// Cell written.
    key: CellKey,
    /// Value, or `None` for a delete.
    value: Option<Vec<u8>>,
}

/// An immutable sorted run of cells (the on-disk SSTable analogue).
#[derive(Debug, Clone)]
struct SortedRun {
    /// Sorted by key; each key appears once with its newest (seq, value).
    entries: Vec<(CellKey, Versioned)>,
}

impl SortedRun {
    fn get(&self, key: &CellKey) -> Option<&Versioned> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Statistics describing a table's LSM state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Cells resident in the memtable.
    pub memtable_cells: usize,
    /// Number of immutable sorted runs.
    pub runs: usize,
    /// Total cells across all runs (including shadowed versions/tombstones).
    pub run_cells: usize,
    /// Total write-ahead-log entries since the last flush.
    pub wal_entries: usize,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// A wide-column table: the HBase analogue.
///
/// # Examples
///
/// ```
/// use scnosql::wide_column::Table;
///
/// let mut crimes = Table::new("crimes", 4096);
/// crimes.put("2026-06-01#0042", "info", "offense", b"ROBBERY".to_vec()).unwrap();
/// crimes.put("2026-06-01#0042", "info", "district", b"4".to_vec()).unwrap();
/// crimes.put("2026-06-02#0001", "info", "offense", b"ASSAULT".to_vec()).unwrap();
///
/// // Efficient random read:
/// assert!(crimes.get("2026-06-01#0042", "info", "offense").is_some());
/// // Ordered range scan over a day:
/// let day: Vec<_> = crimes.scan_rows("2026-06-01", "2026-06-02").collect();
/// assert_eq!(day.len(), 2);
/// ```
#[derive(Debug)]
pub struct Table {
    name: String,
    memtable: BTreeMap<CellKey, Versioned>,
    memtable_budget: usize,
    runs: Vec<SortedRun>, // newest last
    wal: Vec<WalEntry>,
    seq: u64,
    flushes: u64,
    compactions: u64,
}

impl Table {
    /// Creates a table that flushes its memtable after `memtable_budget`
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `memtable_budget` is zero.
    pub fn new(name: impl Into<String>, memtable_budget: usize) -> Self {
        assert!(memtable_budget > 0, "memtable budget must be positive");
        Table {
            name: name.into(),
            memtable: BTreeMap::new(),
            memtable_budget,
            runs: Vec::new(),
            wal: Vec::new(),
            seq: 0,
            flushes: 0,
            compactions: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn log_and_apply(&mut self, key: CellKey, value: Option<Vec<u8>>) {
        self.seq += 1;
        self.wal.push(WalEntry {
            seq: self.seq,
            key: key.clone(),
            value: value.clone(),
        });
        self.memtable.insert(key, (self.seq, value));
        if self.memtable.len() >= self.memtable_budget {
            self.flush();
        }
    }

    /// Writes a cell.
    ///
    /// # Errors
    ///
    /// Rejects empty row keys ([`NosqlError::EmptyRowKey`]): rows sort
    /// lexicographically and the empty key is reserved as the scan origin.
    pub fn put(
        &mut self,
        row: &str,
        family: &str,
        qualifier: &str,
        value: Vec<u8>,
    ) -> Result<(), NosqlError> {
        if row.is_empty() {
            return Err(NosqlError::EmptyRowKey);
        }
        self.log_and_apply(CellKey::new(row, family, qualifier), Some(value));
        Ok(())
    }

    /// Deletes a cell (writes a tombstone).
    ///
    /// # Errors
    ///
    /// Rejects empty row keys, like [`Table::put`].
    pub fn delete(&mut self, row: &str, family: &str, qualifier: &str) -> Result<(), NosqlError> {
        if row.is_empty() {
            return Err(NosqlError::EmptyRowKey);
        }
        self.log_and_apply(CellKey::new(row, family, qualifier), None);
        Ok(())
    }

    /// Random point read of the newest version of a cell.
    pub fn get(&self, row: &str, family: &str, qualifier: &str) -> Option<Vec<u8>> {
        let key = CellKey::new(row, family, qualifier);
        if let Some((_, v)) = self.memtable.get(&key) {
            return v.clone();
        }
        for run in self.runs.iter().rev() {
            if let Some((_, v)) = run.get(&key) {
                return v.clone();
            }
        }
        None
    }

    /// Ordered scan of live cells with row keys in `[start, end)`.
    ///
    /// Merges the memtable and all runs, newest version winning, skipping
    /// tombstones.
    pub fn scan_rows(&self, start: &str, end: &str) -> impl Iterator<Item = (CellKey, Vec<u8>)> {
        // Gather newest version per key across all sources.
        let mut newest: BTreeMap<CellKey, Versioned> = BTreeMap::new();
        let lo = CellKey::new(start, "", "");
        let in_range = |k: &CellKey| k.row.as_str() >= start && k.row.as_str() < end;

        for run in &self.runs {
            let from = run.entries.partition_point(|(k, _)| k < &lo);
            for (k, v) in &run.entries[from..] {
                if k.row.as_str() >= end {
                    break;
                }
                match newest.get(k) {
                    Some((seq, _)) if *seq >= v.0 => {}
                    _ => {
                        newest.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        for (k, v) in self.memtable.range((Bound::Included(lo), Bound::Unbounded)) {
            if k.row.as_str() >= end {
                break;
            }
            if in_range(k) {
                match newest.get(k) {
                    Some((seq, _)) if *seq >= v.0 => {}
                    _ => {
                        newest.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        newest
            .into_iter()
            .filter_map(|(k, (_, v))| v.map(|val| (k, val)))
    }

    /// Forces the memtable into a new immutable run and truncates the WAL.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries: Vec<(CellKey, Versioned)> =
            std::mem::take(&mut self.memtable).into_iter().collect();
        self.runs.push(SortedRun { entries });
        self.wal.clear();
        self.flushes += 1;
        // Size-tiered trigger: too many runs → compact.
        if self.runs.len() > 4 {
            self.compact();
        }
    }

    /// Merges all runs into one, keeping only the newest version per key and
    /// dropping tombstones (full major compaction).
    pub fn compact(&mut self) {
        if self.runs.len() <= 1 {
            return;
        }
        let mut newest: BTreeMap<CellKey, Versioned> = BTreeMap::new();
        for run in &self.runs {
            for (k, v) in &run.entries {
                match newest.get(k) {
                    Some((seq, _)) if *seq >= v.0 => {}
                    _ => {
                        newest.insert(k.clone(), v.clone());
                    }
                }
            }
        }
        let entries: Vec<(CellKey, Versioned)> = newest
            .into_iter()
            .filter(|(_, (_, v))| v.is_some())
            .collect();
        self.runs = vec![SortedRun { entries }];
        self.compactions += 1;
    }

    /// Rebuilds a table from flushed runs plus a WAL replay — simulating
    /// recovery after a crash that lost the memtable.
    pub fn recover_from(mut self) -> Table {
        let wal = std::mem::take(&mut self.wal);
        self.memtable.clear();
        for e in wal {
            // Bypass logging: replay directly at the original sequence.
            self.memtable.insert(e.key, (e.seq, e.value));
        }
        self
    }

    /// Current LSM statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            memtable_cells: self.memtable.len(),
            runs: self.runs.len(),
            run_cells: self.runs.iter().map(SortedRun::len).sum(),
            wal_entries: self.wal.len(),
            flushes: self.flushes,
            compactions: self.compactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut t = Table::new("t", 100);
        t.put("r1", "f", "q", v("hello")).unwrap();
        assert_eq!(t.get("r1", "f", "q"), Some(v("hello")));
        assert_eq!(t.get("r1", "f", "other"), None);
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut t = Table::new("t", 100);
        t.put("r", "f", "q", v("old")).unwrap();
        t.put("r", "f", "q", v("new")).unwrap();
        assert_eq!(t.get("r", "f", "q"), Some(v("new")));
    }

    #[test]
    fn delete_hides_value() {
        let mut t = Table::new("t", 100);
        t.put("r", "f", "q", v("x")).unwrap();
        t.delete("r", "f", "q").unwrap();
        assert_eq!(t.get("r", "f", "q"), None);
    }

    #[test]
    fn newest_wins_across_flush_boundary() {
        let mut t = Table::new("t", 100);
        t.put("r", "f", "q", v("old")).unwrap();
        t.flush();
        t.put("r", "f", "q", v("new")).unwrap();
        assert_eq!(t.get("r", "f", "q"), Some(v("new")));
        t.flush();
        assert_eq!(t.get("r", "f", "q"), Some(v("new")));
    }

    #[test]
    fn delete_works_across_flush() {
        let mut t = Table::new("t", 100);
        t.put("r", "f", "q", v("x")).unwrap();
        t.flush();
        t.delete("r", "f", "q").unwrap();
        assert_eq!(t.get("r", "f", "q"), None);
        t.flush();
        assert_eq!(t.get("r", "f", "q"), None);
    }

    #[test]
    fn auto_flush_on_budget() {
        let mut t = Table::new("t", 3);
        for i in 0..7 {
            t.put(&format!("r{i}"), "f", "q", v("x")).unwrap();
        }
        let s = t.stats();
        assert!(s.flushes >= 2, "{s:?}");
        assert!(s.memtable_cells < 3);
        // All values still readable.
        for i in 0..7 {
            assert!(t.get(&format!("r{i}"), "f", "q").is_some());
        }
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let mut t = Table::new("t", 4);
        for key in ["c", "a", "e", "b", "d"] {
            t.put(key, "f", "q", v(key)).unwrap();
        }
        let hits: Vec<String> = t.scan_rows("b", "e").map(|(k, _)| k.row).collect();
        assert_eq!(hits, vec!["b", "c", "d"]);
    }

    #[test]
    fn scan_sees_newest_across_runs() {
        let mut t = Table::new("t", 2); // force frequent flushes
        t.put("a", "f", "q", v("1")).unwrap();
        t.put("b", "f", "q", v("1")).unwrap();
        t.put("a", "f", "q", v("2")).unwrap();
        t.put("c", "f", "q", v("1")).unwrap();
        t.delete("b", "f", "q").unwrap();
        t.flush();
        let rows: Vec<(String, Vec<u8>)> = t.scan_rows("a", "z").map(|(k, v)| (k.row, v)).collect();
        assert_eq!(rows, vec![("a".into(), v("2")), ("c".into(), v("1"))]);
    }

    #[test]
    fn compaction_preserves_view_and_drops_garbage() {
        let mut t = Table::new("t", 2);
        for i in 0..10 {
            t.put(&format!("r{}", i % 3), "f", "q", v(&format!("v{i}")))
                .unwrap();
        }
        t.delete("r0", "f", "q").unwrap();
        t.flush();
        let before: Vec<_> = t.scan_rows("", "\u{10FFFF}").collect();
        t.compact();
        let after: Vec<_> = t.scan_rows("", "\u{10FFFF}").collect();
        assert_eq!(before, after);
        let s = t.stats();
        assert_eq!(s.runs, 1);
        assert_eq!(s.run_cells, 2, "only live cells survive major compaction");
    }

    #[test]
    fn wal_replay_recovers_memtable() {
        let mut t = Table::new("t", 100);
        t.put("a", "f", "q", v("1")).unwrap();
        t.flush(); // "a" durable, wal cleared
        t.put("b", "f", "q", v("2")).unwrap();
        t.put("a", "f", "q", v("3")).unwrap();
        assert_eq!(t.stats().wal_entries, 2);
        // Crash: memtable lost, recover from runs + wal.
        let recovered = t.recover_from();
        assert_eq!(recovered.get("a", "f", "q"), Some(v("3")));
        assert_eq!(recovered.get("b", "f", "q"), Some(v("2")));
    }

    #[test]
    fn stats_track_counts() {
        let mut t = Table::new("t", 10);
        t.put("a", "f", "q", v("1")).unwrap();
        let s = t.stats();
        assert_eq!(s.memtable_cells, 1);
        assert_eq!(s.wal_entries, 1);
        assert_eq!(s.runs, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics() {
        let _ = Table::new("t", 0);
    }

    #[test]
    fn empty_row_key_is_rejected() {
        let mut t = Table::new("t", 100);
        assert_eq!(t.put("", "f", "q", v("x")), Err(NosqlError::EmptyRowKey));
        assert_eq!(t.delete("", "f", "q"), Err(NosqlError::EmptyRowKey));
        assert_eq!(t.stats().wal_entries, 0, "rejected writes are not logged");
    }
}
