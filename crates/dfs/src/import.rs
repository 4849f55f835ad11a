//! Bulk import from legacy relational systems — the Sqoop analogue.
//!
//! The paper's software layer: *"to gather data from legacy database
//! systems, we utilize Apache Sqoop, a data import tool for bulk data
//! transfers between RDBMSs ... and HDFS"* (§II-C2). This module simulates
//! exactly that: a [`RelationalTable`] stands in for the legacy RDBMS, and
//! [`BulkImporter`] splits it on a numeric column into parallel "mapper"
//! partitions, each written as a CSV file into the DFS.

use std::collections::BTreeMap;

use crate::cluster::DfsCluster;
use crate::error::DfsError;

/// A minimal relational table: a schema and typed rows (all values stored
/// as strings, one numeric split column).
#[derive(Debug, Clone)]
pub struct RelationalTable {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl RelationalTable {
    /// Creates a table with the given column names.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(columns: Vec<String>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        RelationalTable {
            columns,
            rows: Vec::new(),
        }
    }

    /// Inserts a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the schema.
    pub fn insert(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }
}

/// Result of one bulk import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportReport {
    /// Rows transferred.
    pub rows: usize,
    /// DFS files written (one per mapper split).
    pub files: Vec<String>,
    /// Total bytes written (before replication).
    pub bytes: usize,
}

/// Splits a relational table on a numeric column and lands each split as a
/// CSV file in the DFS — Sqoop's `--split-by` import.
#[derive(Debug, Clone)]
pub struct BulkImporter {
    mappers: usize,
}

impl BulkImporter {
    /// Creates an importer with `mappers` parallel splits.
    ///
    /// # Panics
    ///
    /// Panics if `mappers` is zero.
    pub fn new(mappers: usize) -> Self {
        assert!(mappers > 0, "need at least one mapper");
        BulkImporter { mappers }
    }

    /// Imports `table` into the DFS under `target_dir`, splitting rows on
    /// the numeric `split_by` column into `mappers` ranges (Sqoop's range
    /// partitioning). Rows whose split value does not parse go to mapper 0.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError`] on DFS write failures, or
    /// [`DfsError::BadConfig`] if the split column is unknown.
    pub fn import(
        &self,
        table: &RelationalTable,
        split_by: &str,
        dfs: &mut DfsCluster,
        target_dir: &str,
    ) -> Result<ImportReport, DfsError> {
        let split_idx = table
            .column_index(split_by)
            .ok_or_else(|| DfsError::BadConfig(format!("unknown split column {split_by}")))?;

        // Determine split ranges from min/max of the split column.
        let values: Vec<f64> = table
            .rows
            .iter()
            .map(|r| r[split_idx].parse::<f64>().unwrap_or(0.0))
            .collect();
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let width = ((max - min) / self.mappers as f64).max(f64::MIN_POSITIVE);

        // Partition rows into mapper buckets, keyed for deterministic order.
        let mut buckets: BTreeMap<usize, Vec<&Vec<String>>> = BTreeMap::new();
        for (row, &v) in table.rows.iter().zip(&values) {
            let m = if table.rows.is_empty() || !v.is_finite() {
                0
            } else {
                (((v - min) / width) as usize).min(self.mappers - 1)
            };
            buckets.entry(m).or_default().push(row);
        }

        let header = table.columns.join(",");
        let mut files = Vec::new();
        let mut bytes = 0;
        for m in 0..self.mappers {
            let rows = buckets.get(&m).map(Vec::as_slice).unwrap_or(&[]);
            let mut csv = String::with_capacity(64 + rows.len() * 32);
            csv.push_str(&header);
            csv.push('\n');
            for r in rows {
                csv.push_str(&r.join(","));
                csv.push('\n');
            }
            let path = format!("{target_dir}/part-m-{m:05}.csv");
            dfs.create(&path, csv.as_bytes())?;
            bytes += csv.len();
            files.push(path);
        }
        Ok(ImportReport {
            rows: table.len(),
            files,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legacy_crime_table(n: usize) -> RelationalTable {
        let mut t = RelationalTable::new(vec!["id".into(), "offense".into(), "district".into()]);
        for i in 0..n {
            t.insert(vec![
                i.to_string(),
                if i % 2 == 0 {
                    "ROBBERY".into()
                } else {
                    "ASSAULT".into()
                },
                (1 + i % 12).to_string(),
            ]);
        }
        t
    }

    #[test]
    fn import_writes_one_file_per_mapper() {
        let table = legacy_crime_table(100);
        let mut dfs = DfsCluster::new(4, 2, 1024, 1).unwrap();
        let report = BulkImporter::new(4)
            .import(&table, "id", &mut dfs, "/warehouse/legacy_crimes")
            .unwrap();
        assert_eq!(report.rows, 100);
        assert_eq!(report.files.len(), 4);
        for f in &report.files {
            assert!(dfs.read(f).is_ok());
        }
    }

    #[test]
    fn all_rows_land_exactly_once() {
        let table = legacy_crime_table(57);
        let mut dfs = DfsCluster::new(3, 2, 512, 2).unwrap();
        let report = BulkImporter::new(3)
            .import(&table, "id", &mut dfs, "/warehouse/t")
            .unwrap();
        let mut total_rows = 0;
        for f in &report.files {
            let content = String::from_utf8(dfs.read(f).unwrap()).unwrap();
            // Subtract the header line.
            total_rows += content.lines().count() - 1;
        }
        assert_eq!(total_rows, 57);
    }

    #[test]
    fn splits_are_range_partitioned() {
        let table = legacy_crime_table(100);
        let mut dfs = DfsCluster::new(3, 2, 4096, 3).unwrap();
        let report = BulkImporter::new(2)
            .import(&table, "id", &mut dfs, "/warehouse/t")
            .unwrap();
        let first = String::from_utf8(dfs.read(&report.files[0]).unwrap()).unwrap();
        let second = String::from_utf8(dfs.read(&report.files[1]).unwrap()).unwrap();
        // All ids in the first split are below every id in the second.
        let max_first: u64 = first
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .max()
            .unwrap();
        let min_second: u64 = second
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .min()
            .unwrap();
        assert!(max_first < min_second, "{max_first} < {min_second}");
    }

    #[test]
    fn header_preserves_schema() {
        let table = legacy_crime_table(5);
        let mut dfs = DfsCluster::new(3, 2, 512, 4).unwrap();
        let report = BulkImporter::new(1)
            .import(&table, "id", &mut dfs, "/warehouse/t")
            .unwrap();
        let content = String::from_utf8(dfs.read(&report.files[0]).unwrap()).unwrap();
        assert!(content.starts_with("id,offense,district\n"));
    }

    #[test]
    fn unknown_split_column_is_error() {
        let table = legacy_crime_table(5);
        let mut dfs = DfsCluster::new(3, 2, 512, 5).unwrap();
        let err = BulkImporter::new(2).import(&table, "nope", &mut dfs, "/w");
        assert!(matches!(err, Err(DfsError::BadConfig(_))));
    }

    #[test]
    fn empty_table_imports_headers_only() {
        let table = RelationalTable::new(vec!["a".into()]);
        let mut dfs = DfsCluster::new(3, 2, 512, 6).unwrap();
        let report = BulkImporter::new(2)
            .import(&table, "a", &mut dfs, "/w")
            .unwrap();
        assert_eq!(report.rows, 0);
        assert_eq!(report.files.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = RelationalTable::new(vec!["a".into(), "b".into()]);
        t.insert(vec!["1".into()]);
    }
}
