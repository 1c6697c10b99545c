//! Tables: named collections of equal-length columns.

use crate::column::{Column, Compression};
use crate::index_table::{build_index_table, RunIndex};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tde_encodings::Algorithm;
use tde_types::DataType;

/// A read-only table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// The columns, all the same length.
    pub columns: Vec<Column>,
    /// The run structure of each run-length column, built on first use
    /// ([`Table::run_index`]).
    runs: RunMemo,
}

/// The run structure of one run-length column: what an IndexedScan
/// reads it through (paper §4.2.1).
#[derive(Debug, Clone)]
pub struct RunColumn {
    /// The IndexTable, named `<column>_index`. `None` for a string
    /// column, whose runs hold heap tokens with no scalar statistics.
    pub index: Option<Arc<Table>>,
    /// The prefix index over the runs.
    pub runs: Arc<RunIndex>,
}

/// The memo behind [`Table::run_index`]: one slot per column, sized on
/// first use, and a count of the slots filled.
#[derive(Default)]
struct RunMemo {
    slots: OnceLock<Box<[OnceLock<RunColumn>]>>,
    builds: AtomicUsize,
}

/// A clone starts empty: its columns are its own to rewrite.
impl Clone for RunMemo {
    fn clone(&self) -> RunMemo {
        RunMemo::default()
    }
}

impl fmt::Debug for RunMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RunMemo({} built)", self.builds.load(Ordering::Relaxed))
    }
}

impl Table {
    /// Build a table, validating column lengths.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Table {
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(
                    c.len(),
                    first.len(),
                    "column {} has {} rows, expected {}",
                    c.name,
                    c.len(),
                    first.len()
                );
            }
        }
        Table {
            name: name.into(),
            columns,
            runs: RunMemo::default(),
        }
    }

    /// The run structure of column `idx` — its IndexTable and run index —
    /// or `None` unless the column is stored run-length. The first caller
    /// builds it; every later query, morsel and partition shares it. The
    /// flag says whether this call built it.
    ///
    /// Only a shared table memoises, because nothing mutates a table
    /// behind an `Arc`: its columns are fixed, so the memo cannot go
    /// stale. A clone starts with an empty memo, and a rewritten or
    /// re-imported table is a new `Arc` with a fresh one.
    pub fn run_index(self: &Arc<Self>, idx: usize) -> Option<(RunColumn, bool)> {
        let column = &self.columns[idx];
        if column.data.algorithm() != Algorithm::RunLength {
            return None;
        }
        let slots = self
            .runs
            .slots
            .get_or_init(|| self.columns.iter().map(|_| OnceLock::new()).collect());
        let mut built = false;
        let view = slots[idx].get_or_init(|| {
            built = true;
            self.runs.builds.fetch_add(1, Ordering::Relaxed);
            let index = (!column.dtype.is_string())
                .then(|| Arc::new(build_index_table(column, &format!("{}_index", column.name))));
            RunColumn {
                index,
                runs: Arc::new(RunIndex::new(&column.data).expect("a run-length stream")),
            }
        });
        Some((view.clone(), built))
    }

    /// How many columns' run structures [`Table::run_index`] has built.
    pub fn run_index_builds(&self) -> usize {
        self.runs.builds.load(Ordering::Relaxed)
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.columns.first().map_or(0, Column::len)
    }

    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Total physical size of every column.
    pub fn physical_size(&self) -> u64 {
        self.columns.iter().map(Column::physical_size).sum()
    }

    /// Total logical (un-encoded) size of every column.
    pub fn logical_size(&self) -> u64 {
        self.columns.iter().map(Column::logical_size).sum()
    }

    /// Per-column compression telemetry: what each column is physically
    /// stored as and how much the encoding + compression save.
    pub fn compression_telemetry(&self) -> Vec<ColumnTelemetry> {
        self.columns
            .iter()
            .map(|c| {
                let h = c.data.header();
                let compression = match &c.compression {
                    Compression::None => "none".to_string(),
                    Compression::Array { dictionary, sorted } => format!(
                        "array[{} value(s){}]",
                        dictionary.len(),
                        if *sorted { ", sorted" } else { "" }
                    ),
                    Compression::Heap { heap, sorted } => format!(
                        "heap[{} string(s){}]",
                        heap.len(),
                        if *sorted { ", sorted" } else { "" }
                    ),
                };
                ColumnTelemetry {
                    column: c.name.clone(),
                    dtype: c.dtype,
                    algorithm: c.data.algorithm(),
                    packed_bits: h.bits,
                    compression,
                    cardinality: c.metadata.cardinality,
                    physical_bytes: c.physical_size(),
                    logical_bytes: c.logical_size(),
                }
            })
            .collect()
    }
}

/// One column's compression telemetry (see
/// [`Table::compression_telemetry`]).
#[derive(Debug, Clone)]
pub struct ColumnTelemetry {
    /// Column name.
    pub column: String,
    /// Logical type.
    pub dtype: DataType,
    /// Encoding algorithm of the stored stream.
    pub algorithm: Algorithm,
    /// Packing bits per value (0 when the algorithm does not bit-pack).
    pub packed_bits: u8,
    /// Compression layer, rendered (`none`, `array[...]`, `heap[...]`).
    pub compression: String,
    /// Domain cardinality, when known.
    pub cardinality: Option<u64>,
    /// Bytes actually stored (stream + dictionaries + heaps).
    pub physical_bytes: u64,
    /// Bytes an un-encoded representation would need.
    pub logical_bytes: u64,
}

impl ColumnTelemetry {
    /// Logical-to-physical compression ratio (1.0 when physical is zero).
    pub fn ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }

    /// The telemetry as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"column\":\"{}\",\"dtype\":\"{:?}\",\"algorithm\":\"{:?}\",\"packed_bits\":{},\
             \"compression\":\"{}\",\"cardinality\":{},\"physical_bytes\":{},\
             \"logical_bytes\":{},\"ratio\":{:.3}}}",
            tde_obs::json_escape(&self.column),
            self.dtype,
            self.algorithm,
            self.packed_bits,
            tde_obs::json_escape(&self.compression),
            self.cardinality
                .map_or("null".to_string(), |c| c.to_string()),
            self.physical_bytes,
            self.logical_bytes,
            self.ratio()
        )
    }
}

impl std::fmt::Display for ColumnTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} {:<9} {:?}({} bits) {:<24} card={:<8} {} / {} bytes ({:.1}x)",
            self.column,
            format!("{:?}", self.dtype),
            self.algorithm,
            self.packed_bits,
            self.compression,
            self.cardinality.map_or("?".to_string(), |c| c.to_string()),
            self.physical_bytes,
            self.logical_bytes,
            self.ratio()
        )
    }
}

/// The tables one extract file holds (paper §2.3.3), one per name.
/// The file format itself lives in `tde-pager::format`.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The tables.
    pub tables: Vec<Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Add a table, replacing any table of the same name in place.
    pub fn add_table(&mut self, table: Table) -> &Table {
        let at = self.tables.iter().position(|t| t.name == table.name);
        let at = match at {
            Some(i) => {
                self.tables[i] = table;
                i
            }
            None => {
                self.tables.push(table);
                self.tables.len() - 1
            }
        };
        &self.tables[at]
    }

    /// Find a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_encodings::dynamic::encode_all;
    use tde_types::{DataType, Width};

    fn col(name: &str, vals: &[i64]) -> Column {
        Column::scalar(
            name,
            DataType::Integer,
            encode_all(vals, Width::W8, true).stream,
        )
    }

    #[test]
    fn lookup_and_counts() {
        let t = Table::new("t", vec![col("a", &[1, 2, 3]), col("b", &[4, 5, 6])]);
        assert_eq!(t.row_count(), 3);
        assert!(t.column("a").is_some());
        assert!(t.column("z").is_none());
        assert_eq!(t.column_index("b"), Some(1));
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn mismatched_lengths_panic() {
        Table::new("t", vec![col("a", &[1, 2]), col("b", &[1])]);
    }

    #[test]
    fn adding_a_table_replaces_its_namesake() {
        let mut db = Database::new();
        db.add_table(Table::new("a", vec![col("v", &[1])]));
        db.add_table(Table::new("b", vec![col("v", &[2])]));
        let t = db.add_table(Table::new("a", vec![col("v", &[3, 4])]));
        assert_eq!(t.row_count(), 2);
        let names: Vec<&str> = db.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "replaced in place");
        assert_eq!(db.table("a").unwrap().row_count(), 2);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("t", vec![]);
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.physical_size(), 0);
    }
}
