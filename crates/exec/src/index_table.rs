//! IndexTable: expose a run-length encoded column to the optimizer
//! (paper §4.2.1).
//!
//! Three columns — *value*, *count* and *start* — where value and count
//! come straight from the run pairs and start is the running total of the
//! counts. Joining it back against the main table is a *rank join*:
//!
//! ```text
//! Index.start <= Outer.rank < Index.start + Index.count
//! ```
//!
//! Because the inner side is an ordinary table, single-column predicates
//! and computations push down onto the *compressed* representation:
//! filtering 5 % of the values touches ~5 runs, not 5 % of the rows.
//!
//! The planner reads a resident table's IndexTables from the table's
//! memo ([`Table::run_index`]), built once per column. [`index_table`] is
//! the uncached build behind it (`tde_storage::index_table`), returned
//! with the schema a scan of it produces; [`rollup_index`] derives a
//! rolled-up index per query.

use crate::block::Schema;
use crate::scan::TableScan;
use crate::Operator;
use std::sync::Arc;
use tde_storage::index_table::{assemble, build_index_table};
use tde_storage::{Column, Table};

/// Build the IndexTable of a run-length encoded column.
pub fn index_table(column: &Column, name: &str) -> (Arc<Table>, Schema) {
    with_schema(build_index_table(column, name))
}

/// Roll up an index table through an order-preserving calculation on the
/// value column (paper §8): the computed result is aggregated with
/// `MIN(start)` and `SUM(count)` per rolled-up value, converting an index
/// on raw dates into one on, say, month starts.
pub fn rollup_index(
    index: &Arc<Table>,
    rollup: impl Fn(i64) -> i64,
    name: &str,
) -> (Arc<Table>, Schema) {
    let values = index.columns[0].data.decode_all();
    let counts = index.columns[1].data.decode_all();
    let starts = index.columns[2].data.decode_all();
    // Per rolled-up value: SUM(count), MIN(start).
    let (mut rolled, mut sums, mut mins) = (Vec::new(), Vec::new(), Vec::new());
    for ((&v, &c), &s) in values.iter().zip(&counts).zip(&starts) {
        let r = rollup(v);
        if rolled.last() == Some(&r) {
            let last = rolled.len() - 1;
            sums[last] += c;
            mins[last] = s.min(mins[last]);
        } else {
            rolled.push(r);
            sums.push(c);
            mins.push(s);
        }
    }
    with_schema(assemble(
        name,
        index.columns[0].dtype,
        &rolled,
        &sums,
        &mins,
    ))
}

/// The table, shared, with the schema a scan of it produces.
fn with_schema(table: Table) -> (Arc<Table>, Schema) {
    let table = Arc::new(table);
    let schema = TableScan::new(table.clone()).schema().clone();
    (table, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_encodings::{EncodedStream, BLOCK_SIZE};
    use tde_types::datetime::{days_from_ymd, trunc_to_month};
    use tde_types::{DataType, Width};

    fn rle_column(runs: &[(i64, u64)]) -> Column {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W4);
        let mut data = Vec::new();
        for &(v, c) in runs {
            data.extend(std::iter::repeat_n(v, c as usize));
        }
        for chunk in data.chunks(BLOCK_SIZE) {
            s.append_block(chunk).unwrap();
        }
        Column::scalar("v", DataType::Integer, s)
    }

    #[test]
    fn builds_value_count_start() {
        let col = rle_column(&[(10, 500), (20, 300), (10, 200)]);
        let (t, _) = index_table(&col, "idx");
        assert_eq!(t.row_count(), 3);
        let vals = t.columns[0].data.decode_all();
        let counts = t.columns[1].data.decode_all();
        let starts = t.columns[2].data.decode_all();
        assert_eq!(vals, vec![10, 20, 10]);
        assert_eq!(counts, vec![500, 300, 200]);
        assert_eq!(starts, vec![0, 500, 800]);
    }

    #[test]
    fn start_column_metadata_is_sorted() {
        let col = rle_column(&[(1, 100), (2, 100), (3, 100)]);
        let (t, _) = index_table(&col, "idx");
        assert!(t.columns[2].metadata.sorted_asc.is_true());
        assert!(t.columns[2].metadata.unique.is_true());
    }

    #[test]
    fn empty_column_builds_an_empty_index() {
        let (t, schema) = index_table(&rle_column(&[]), "idx");
        assert_eq!(t.row_count(), 0);
        assert_eq!(schema.len(), 3);
        assert!(t.columns.iter().all(|c| c.metadata.min.is_none()));
    }

    #[test]
    fn rollup_to_month() {
        // Daily runs across two months roll up to two index rows.
        let jan1 = days_from_ymd(1995, 1, 1);
        let runs: Vec<(i64, u64)> = (0..40).map(|i| (jan1 + i, 10)).collect();
        let col = rle_column(&runs);
        let (idx, _) = index_table(&col, "daily");
        let (rolled, _) = rollup_index(&idx, trunc_to_month, "monthly");
        assert_eq!(rolled.row_count(), 2);
        assert_eq!(
            rolled.columns[0].data.decode_all(),
            vec![days_from_ymd(1995, 1, 1), days_from_ymd(1995, 2, 1)]
        );
        assert_eq!(rolled.columns[1].data.decode_all(), vec![310, 90]);
        assert_eq!(rolled.columns[2].data.decode_all(), vec![0, 310]);
    }
}
