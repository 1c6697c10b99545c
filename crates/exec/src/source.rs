//! The one storage-agnostic scan source.
//!
//! A [`Source`] is what a `Scan` plan leaf reads: a fully resident
//! table, a demand-loaded paged table, or a base + delta merge snapshot.
//! Where and how the columns live is decided here and nowhere else —
//! the planner, the lowering and the morsel executor hold a `Source`
//! (or the [`Projection`] it resolves to) and never ask which kind it
//! is. The single exception is [`Source::resident`]: the decompression
//! join rewrites (§4.1, §4.2) read a column's dictionary and run
//! structure at plan time, so they need the table in memory.

use crate::block::Schema;
use crate::expr::Expr;
use crate::handle::ColumnHandle;
use crate::merged_scan::{MergedScan, MergedSource};
use crate::pushdown::{has_raw_domain, raw_domain};
use crate::scan::TableScan;
use crate::{BoxOp, Operator};
use std::fmt;
use std::io;
use std::sync::Arc;
use tde_obs::CacheSnapshot;
use tde_pager::PagedTable;
use tde_storage::Table;

/// What a scan reads. Build one with `Source::from(&table)` — an eager
/// `Arc<Table>`, a `PagedTable` or an `Arc<MergedSource>` snapshot.
#[derive(Debug, Clone)]
pub struct Source(Residency);

#[derive(Debug, Clone)]
enum Residency {
    /// Fully resident.
    Eager(Arc<Table>),
    /// Demand-loaded through the buffer pool, column by column.
    Paged(PagedTable),
    /// Base columns plus a delta/tombstone overlay.
    Merged(Arc<MergedSource>),
}

impl From<&Arc<Table>> for Source {
    fn from(table: &Arc<Table>) -> Source {
        Source(Residency::Eager(Arc::clone(table)))
    }
}

impl From<&PagedTable> for Source {
    fn from(table: &PagedTable) -> Source {
        Source(Residency::Paged(table.clone()))
    }
}

impl From<&Arc<MergedSource>> for Source {
    fn from(snapshot: &Arc<MergedSource>) -> Source {
        Source(Residency::Merged(Arc::clone(snapshot)))
    }
}

/// The residency tag plan labels carry: `eager`, `paged`, or `merged`
/// with the overlay's size.
impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Residency::Eager(_) => f.write_str("eager"),
            Residency::Paged(_) => f.write_str("paged"),
            Residency::Merged(m) => write!(
                f,
                "merged (+{} delta, -{} tombstone)",
                m.delta_rows(),
                m.tombstone_count()
            ),
        }
    }
}

impl Source {
    /// Table name.
    pub fn name(&self) -> &str {
        match &self.0 {
            Residency::Eager(t) => &t.name,
            Residency::Paged(t) => t.name(),
            Residency::Merged(m) => m.name(),
        }
    }

    /// Column names in schema order (no segment I/O).
    pub fn column_names(&self) -> Vec<&str> {
        match &self.0 {
            Residency::Eager(t) => t.columns.iter().map(|c| c.name.as_str()).collect(),
            Residency::Paged(t) => t.column_names(),
            Residency::Merged(m) => m.column_names(),
        }
    }

    /// Whether a value set can read the named column's stored values
    /// ([`crate::pushdown::raw_domain`]) — from the column's type and
    /// compression alone, so planning loads no segment.
    pub fn raw_domain(&self, column: &str) -> bool {
        match &self.0 {
            Residency::Eager(t) => t
                .column(column)
                .is_some_and(|c| raw_domain(c.dtype, c.compression.is_heap())),
            Residency::Paged(t) => t
                .column_dir(column)
                .is_some_and(|d| raw_domain(d.dtype, d.ctag == 2)),
            Residency::Merged(m) => m
                .index_of(column)
                .is_some_and(|i| has_raw_domain(&m.fields()[i])),
        }
    }

    /// Locate the named columns and make them readable. A paged source
    /// demand-loads exactly these columns' segments here, so a failed or
    /// corrupt read surfaces as the error. A name the source does not
    /// have is `InvalidInput`, whatever the residency.
    pub fn resolve(&self, columns: &[&str]) -> io::Result<Projection> {
        let names = self.column_names();
        let positions = columns
            .iter()
            .map(|c| {
                names.iter().position(|n| n == c).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("no column {c:?} in {self} source {:?}", self.name()),
                    )
                })
            })
            .collect::<io::Result<Vec<usize>>>()?;
        Ok(Projection(match &self.0 {
            Residency::Eager(t) => Cols::Stored(
                positions
                    .into_iter()
                    .map(|idx| ColumnHandle::Shared {
                        table: Arc::clone(t),
                        idx,
                    })
                    .collect(),
            ),
            Residency::Paged(t) => Cols::Stored(
                positions
                    .into_iter()
                    .map(|pos| t.column_at(pos).map(ColumnHandle::Owned))
                    .collect::<io::Result<_>>()?,
            ),
            Residency::Merged(m) => Cols::Overlaid {
                snapshot: Arc::clone(m),
                columns: positions,
            },
        }))
    }

    /// The table itself when it is fully in memory. The invisible-join,
    /// IndexTable and ordered-retrieval rewrites fire only then: they
    /// read dictionary and run structure off the stored column at plan
    /// time, and under an overlay that structure describes the base
    /// alone, not the merged table.
    pub fn resident(&self) -> Option<&Arc<Table>> {
        match &self.0 {
            Residency::Eager(t) => Some(t),
            Residency::Paged(_) | Residency::Merged(_) => None,
        }
    }

    /// Buffer-pool counters, when reads go through a pool (EXPLAIN
    /// ANALYZE reports what one execution did to the cache).
    pub fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        match &self.0 {
            Residency::Paged(t) => Some(t.cache_snapshot()),
            Residency::Eager(_) | Residency::Merged(_) => None,
        }
    }
}

/// A source's projected columns, resolved and ready to scan — whole, or
/// split into morsel ranges.
#[derive(Debug, Clone)]
pub struct Projection(Cols);

#[derive(Debug, Clone)]
enum Cols {
    /// Stored columns read as they are.
    Stored(Vec<ColumnHandle>),
    /// Columns of a merge snapshot: base handles under a delta overlay.
    Overlaid {
        snapshot: Arc<MergedSource>,
        columns: Vec<usize>,
    },
}

impl Projection {
    /// The schema a scan of this projection emits.
    pub fn schema(&self, expand_dictionaries: bool) -> Schema {
        match &self.0 {
            Cols::Stored(handles) => Schema::new(
                handles
                    .iter()
                    .map(|h| h.field(expand_dictionaries))
                    .collect(),
            ),
            Cols::Overlaid { snapshot, columns } => {
                MergedScan::new(Arc::clone(snapshot), columns.clone(), expand_dictionaries)
                    .schema()
                    .clone()
            }
        }
    }

    /// What morsels partition: the stored rows, and whether a delta leg
    /// follows them.
    pub fn extent(&self) -> (u64, bool) {
        match &self.0 {
            Cols::Stored(handles) => (
                handles.iter().map(|h| h.col().len()).min().unwrap_or(0),
                false,
            ),
            Cols::Overlaid { snapshot, .. } => (snapshot.base_rows(), snapshot.delta_rows() > 0),
        }
    }

    /// Whether a scan can carry runs ([`TableScan::with_runs`]): every
    /// column is a stored run-length stream, with no overlay adding rows
    /// the streams do not have.
    pub fn reads_runs(&self) -> bool {
        match &self.0 {
            Cols::Stored(handles) => handles.iter().all(ColumnHandle::is_run_length),
            Cols::Overlaid { .. } => false,
        }
    }

    /// Whether `predicate` keeps no row, decided from min/max metadata or
    /// the dictionaries alone — no segment is read. Under an overlay the
    /// delta rows may still match.
    pub fn keeps_nothing(&self, expand_dictionaries: bool, predicate: &Expr) -> bool {
        match &self.0 {
            Cols::Stored(handles) => TableScan::from_handles(handles.clone(), expand_dictionaries)
                .with_pushed_quiet(predicate.clone(), false)
                .keeps_nothing(),
            Cols::Overlaid { .. } => false,
        }
    }

    /// The serial scan, with `predicate` answered inside it, plus how it
    /// answers — the kernel a pushed predicate resolved to, or the merge
    /// mode — for the plan label. With `runs` the scan carries runs
    /// (only where [`Projection::reads_runs`]).
    pub fn scan(
        &self,
        expand_dictionaries: bool,
        predicate: Option<&Expr>,
        runs: bool,
    ) -> (BoxOp, Option<String>) {
        match &self.0 {
            Cols::Stored(handles) => {
                let mut scan = TableScan::from_handles(handles.clone(), expand_dictionaries);
                if let Some(p) = predicate {
                    scan = scan.with_pushed(p.clone(), false);
                }
                if runs {
                    scan = scan.with_runs();
                }
                let how = scan
                    .pushed_kernel()
                    .map(|kernel| format!("where [kernel={kernel}]"));
                (Box::new(scan), how)
            }
            Cols::Overlaid { snapshot, columns } => {
                let mut scan =
                    MergedScan::new(Arc::clone(snapshot), columns.clone(), expand_dictionaries);
                if let Some(p) = predicate {
                    scan = scan.with_pushed(p.clone(), false);
                }
                let how = format!("[mode={}]", scan.merge_mode());
                (Box::new(scan), Some(how))
            }
        }
    }

    /// One morsel's scan: stored decompression blocks `[lo, hi)`, then
    /// the delta leg when `delta`. `predicate` is `(expr,
    /// force_fallback)`. Quiet — the query's pushdown telemetry is
    /// emitted once by the morsel operator, not per morsel.
    pub(crate) fn morsel_scan(
        &self,
        expand_dictionaries: bool,
        predicate: Option<&(Expr, bool)>,
        lo: usize,
        hi: usize,
        delta: bool,
    ) -> BoxOp {
        match &self.0 {
            Cols::Stored(handles) => {
                let mut scan = TableScan::from_handles(handles.clone(), expand_dictionaries);
                if let Some((p, force_fallback)) = predicate {
                    scan = scan.with_pushed_quiet(p.clone(), *force_fallback);
                }
                Box::new(scan.with_block_range(lo, hi))
            }
            Cols::Overlaid { snapshot, columns } => {
                let mut scan =
                    MergedScan::new(Arc::clone(snapshot), columns.clone(), expand_dictionaries);
                if let Some((p, force_fallback)) = predicate {
                    scan = scan.with_pushed(p.clone(), *force_fallback);
                }
                Box::new(scan.with_morsel_range(lo, hi, delta))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_rows;
    use tde_storage::{ColumnBuilder, EncodingPolicy};
    use tde_types::DataType;

    fn table() -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut b = ColumnBuilder::new("b", DataType::Integer, EncodingPolicy::default());
        for i in 0..3000i64 {
            a.append_i64(i);
            b.append_i64(i % 7);
        }
        Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]))
    }

    #[test]
    fn resolves_a_projection_in_the_order_asked() {
        let t = table();
        let source = Source::from(&t);
        assert_eq!(source.name(), "t");
        assert_eq!(source.column_names(), vec!["a", "b"]);
        assert!(source.resident().is_some());
        let p = source.resolve(&["b", "a"]).unwrap();
        let schema = p.schema(false);
        assert_eq!(schema.fields[0].name, "b");
        assert_eq!(p.extent(), (3000, false));
        assert!(!p.reads_runs());
        let (scan, how) = p.scan(false, None, false);
        assert!(how.is_none());
        assert_eq!(count_rows(scan), 3000);
    }

    #[test]
    fn unknown_column_is_invalid_input_naming_source_and_column() {
        let t = table();
        let err = Source::from(&t).resolve(&["a", "nope"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(msg.contains("\"nope\"") && msg.contains("\"t\""), "{msg}");
    }
}
