//! IndexedScan: the rank join (paper §4.2.1).
//!
//! A join operator specialized for the IndexTable's range condition
//! `start <= rank < start + count`: instead of probing, it translates the
//! qualified (start, count) ranges directly into reads of the outer table,
//! in the order given by the inner table. Range skipping is thereby
//! expressed simply as a join in the query plan. When the inner rows are
//! sorted by *value* instead of *start*, the scan performs the §4.2.2
//! ordered retrieval that enables sandwiched aggregation on a
//! non-primary-sort column — at the cost of many small reads when the
//! runs are short, the degradation the 1M-row experiment exposes.
//!
//! A fetched run-length column of a resident table is read through its
//! run index, which the table builds once and every query, partition and
//! worker shares ([`Table::run_index`]). When every fetched column has
//! one the scan can also hand an aggregate run-carrying blocks
//! ([`IndexedScan::with_runs`]): each qualified range becomes the
//! segments over which the fetched runs (and the carried index values)
//! hold still, read off each column's run index instead of expanded into
//! rows — sandwiched aggregation at run cost.

use crate::block::{Block, Field, Schema};
use crate::cursor::RangeReader;
use crate::handle::ColumnHandle;
use crate::{BoxOp, Operator, BLOCK_ROWS};
use std::sync::Arc;
use tde_encodings::metadata::Knowledge;
use tde_storage::{RunIndex, Table};

/// IndexedScan operator.
pub struct IndexedScan {
    /// The (filtered, possibly sorted) index rows, fully drained up front:
    /// (start, count, carried columns).
    ranges: Vec<(u64, u64)>,
    carried: Vec<Vec<i64>>, // column-major, parallel to ranges
    /// The outer-table columns the qualified ranges read from.
    fetch: Vec<ColumnHandle>,
    schema: Schema,
    next_range: usize,
    /// Rows of the current range already emitted (ranges can span many
    /// blocks; blocks can span many ranges).
    range_off: u64,
    readers: Vec<RangeReader>,
    /// Whether the ranges arrive in ascending start order (plan 2) or not
    /// (value-sorted ordered retrieval, plan 3).
    pub sequential: bool,
    /// Emit run-carrying blocks ([`IndexedScan::with_runs`]).
    runs: bool,
    /// Whether building this scan built a fetched column's run index.
    built_run_index: bool,
}

impl IndexedScan {
    /// Build from an inner operator whose schema contains `count` and
    /// `start` columns (an IndexTable pipeline); every *other* inner
    /// column is carried through repeated per row. `fetch` names the
    /// outer-table columns to read for the qualified ranges.
    pub fn new(inner: BoxOp, outer: Arc<Table>, fetch: &[&str]) -> IndexedScan {
        let handles = fetch
            .iter()
            .map(|n| {
                let idx = outer
                    .column_index(n)
                    .unwrap_or_else(|| panic!("no outer column {n}"));
                ColumnHandle::Shared {
                    table: Arc::clone(&outer),
                    idx,
                }
            })
            .collect();
        IndexedScan::from_handles(inner, handles)
    }

    /// Build from pre-resolved fetch handles. A run-length column of a
    /// shared table is read through the table's memoised run index
    /// ([`ColumnHandle::run_index`]); any other column by block decode.
    pub fn from_handles(mut inner: BoxOp, fetch: Vec<ColumnHandle>) -> IndexedScan {
        let ischema = inner.schema().clone();
        let count_col = ischema
            .index_of("count")
            .expect("inner must have a count column");
        let start_col = ischema
            .index_of("start")
            .expect("inner must have a start column");
        let carried_cols: Vec<usize> = (0..ischema.len())
            .filter(|&i| i != count_col && i != start_col)
            .collect();

        let mut ranges = Vec::new();
        let mut carried: Vec<Vec<i64>> = vec![Vec::new(); carried_cols.len()];
        while let Some(b) = inner.next_block() {
            debug_assert!(b.weights.is_none(), "IndexTable pipelines read rows");
            for r in 0..b.len {
                ranges.push((
                    b.columns[start_col][r] as u64,
                    b.columns[count_col][r] as u64,
                ));
                for (k, &c) in carried_cols.iter().enumerate() {
                    carried[k].push(b.columns[c][r]);
                }
            }
        }
        let sequential = ranges.windows(2).all(|w| w[0].0 <= w[1].0);

        let mut fields: Vec<Field> = carried_cols
            .iter()
            .map(|&c| ischema.fields[c].clone())
            .collect();
        // Values arrive grouped by index row; if the index was sorted by
        // value the carried value column is sorted — assert it so the
        // downstream aggregate can go ordered (§4.2.2). Expansion repeats
        // each index row `count` times, so per-row claims (unique, dense)
        // do not survive even though ordering does.
        for (k, &c) in carried_cols.iter().enumerate() {
            fields[k].metadata.unique = Knowledge::Unknown;
            fields[k].metadata.dense = Knowledge::Unknown;
            if ischema.fields[c].metadata.sorted_asc.is_true() {
                fields[k].metadata.sorted_asc = Knowledge::True;
            }
        }
        for h in &fetch {
            fields.push(h.field(false));
        }
        let mut built_run_index = false;
        let readers = fetch
            .iter()
            .map(|h| {
                RangeReader::new(h.run_index().map(|(runs, built)| {
                    built_run_index |= built;
                    runs
                }))
            })
            .collect();
        IndexedScan {
            ranges,
            carried,
            fetch,
            schema: Schema::new(fields),
            next_range: 0,
            range_off: 0,
            readers,
            sequential,
            runs: false,
            built_run_index,
        }
    }

    /// Whether every fetched column is read through a run index (is a
    /// run-length column of a shared table) — what
    /// [`IndexedScan::with_runs`] needs.
    pub fn fetches_runs(&self) -> bool {
        self.readers.iter().all(|r| r.runs().is_some())
    }

    /// Whether building this scan built a fetched column's run index, or
    /// found every one already built.
    pub fn built_run_index(&self) -> bool {
        self.built_run_index
    }

    /// Emit run-carrying blocks (see [`crate::block::Block`]): one row
    /// per segment of a qualified range over which every fetched column
    /// holds one value, weighted by its length. Only an aggregate may
    /// read them. Every fetched column must have a run index
    /// ([`IndexedScan::fetches_runs`]).
    pub fn with_runs(mut self) -> IndexedScan {
        assert!(
            self.fetches_runs(),
            "run-carrying IndexedScan over a column without a run index"
        );
        self.runs = true;
        self
    }

    /// Name the output columns. The IndexTable calls its value column
    /// `value`; the plan knows which outer column it stands for.
    pub fn with_names(mut self, names: &[String]) -> IndexedScan {
        for (field, name) in self.schema.fields.iter_mut().zip(names) {
            field.name.clone_from(name);
        }
        self
    }

    /// Qualified index rows (one range each).
    pub fn index_rows(&self) -> usize {
        self.ranges.len()
    }

    /// A fresh scan of index rows `[lo, hi)` alone — one partition of
    /// the index range (§8). Reading the partitions in order reads what
    /// the whole scan reads; every partition shares the scan's run
    /// indexes.
    pub fn partition(&self, lo: usize, hi: usize) -> IndexedScan {
        IndexedScan {
            ranges: self.ranges[lo..hi].to_vec(),
            carried: self.carried.iter().map(|c| c[lo..hi].to_vec()).collect(),
            fetch: self.fetch.clone(),
            schema: self.schema.clone(),
            next_range: 0,
            range_off: 0,
            readers: self
                .readers
                .iter()
                .map(|r| RangeReader::new(r.runs().cloned()))
                .collect(),
            sequential: self.sequential,
            runs: self.runs,
            built_run_index: false,
        }
    }

    /// Total rows the qualified ranges cover.
    pub fn qualified_rows(&self) -> u64 {
        self.ranges.iter().map(|r| r.1).sum()
    }
}

impl Operator for IndexedScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if self.next_range >= self.ranges.len() {
            return None;
        }
        if self.runs {
            return self.next_segments();
        }
        let ncarried = self.carried.len();
        let ncols = ncarried + self.fetch.len();
        let mut columns: Vec<Vec<i64>> = vec![Vec::with_capacity(BLOCK_ROWS); ncols];
        let mut filled = 0usize;
        // Fill exactly one block, consuming ranges incrementally: a long
        // range spans several blocks without any rebuffering, a block
        // gathers several short ranges.
        while filled < BLOCK_ROWS && self.next_range < self.ranges.len() {
            let (start, count) = self.ranges[self.next_range];
            let avail = count - self.range_off;
            let take = avail.min((BLOCK_ROWS - filled) as u64);
            for (k, col) in columns.iter_mut().take(ncarried).enumerate() {
                col.extend(std::iter::repeat_n(
                    self.carried[k][self.next_range],
                    take as usize,
                ));
            }
            for (k, reader) in self.readers.iter_mut().enumerate() {
                let stream = &self.fetch[k].col().data;
                reader.read_range(
                    stream,
                    start + self.range_off,
                    take,
                    &mut columns[ncarried + k],
                );
            }
            filled += take as usize;
            self.range_off += take;
            if self.range_off == count {
                self.next_range += 1;
                self.range_off = 0;
            }
        }
        if filled == 0 {
            return None;
        }
        Some(Block {
            columns,
            len: filled,
            weights: None,
        })
    }
}

impl IndexedScan {
    /// The next run-carrying block: up to a block's worth of segments,
    /// consuming ranges incrementally like the row path.
    fn next_segments(&mut self) -> Option<Block> {
        let ncarried = self.carried.len();
        let mut columns: Vec<Vec<i64>> = vec![Vec::new(); ncarried + self.fetch.len()];
        let mut weights = Vec::new();
        let indexes: Vec<&RunIndex> = self
            .readers
            .iter()
            .map(|r| &**r.runs().expect("checked by with_runs"))
            .collect();
        let mut run = vec![0usize; indexes.len()];
        while weights.len() < BLOCK_ROWS && self.next_range < self.ranges.len() {
            let (start, count) = self.ranges[self.next_range];
            let end = start + count;
            let mut at = start + self.range_off;
            if at < end {
                for (r, index) in run.iter_mut().zip(&indexes) {
                    *r = index.find(at);
                }
            }
            while at < end && weights.len() < BLOCK_ROWS {
                // The segment ends where the first fetched run (or the
                // range) does.
                let stop = run
                    .iter()
                    .zip(&indexes)
                    .map(|(&r, index)| index.end(r))
                    .fold(end, u64::min);
                if stop > at {
                    for (k, col) in columns.iter_mut().take(ncarried).enumerate() {
                        col.push(self.carried[k][self.next_range]);
                    }
                    for ((col, &r), index) in columns[ncarried..].iter_mut().zip(&run).zip(&indexes)
                    {
                        col.push(index.value(r));
                    }
                    weights.push(stop - at);
                }
                for (r, index) in run.iter_mut().zip(&indexes) {
                    if index.end(*r) == stop {
                        *r += 1;
                    }
                }
                at = stop;
            }
            self.range_off = at - start;
            if at == end {
                self.next_range += 1;
                self.range_off = 0;
            }
        }
        if weights.is_empty() {
            return None;
        }
        Some(Block {
            columns,
            len: weights.len(),
            weights: Some(weights),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::filter::Filter;
    use crate::index_table::index_table;
    use crate::scan::TableScan;
    use crate::sort::{Sort, SortOrder};
    use tde_encodings::{EncodedStream, BLOCK_SIZE};
    use tde_storage::Column;
    use tde_types::{DataType, Width};

    /// Two RLE columns: key (sorted runs) and payload.
    fn rle_table() -> (Arc<Table>, Vec<i64>, Vec<i64>) {
        let mut key_data = Vec::new();
        let mut pay_data = Vec::new();
        for v in 0..20i64 {
            for j in 0..250i64 {
                key_data.push(v);
                pay_data.push(v * 1000 + j % 50);
            }
        }
        let mut key = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W2);
        for c in key_data.chunks(BLOCK_SIZE) {
            key.append_block(c).unwrap();
        }
        let pay = tde_encodings::dynamic::encode_all(&pay_data, Width::W8, true).stream;
        let t = Arc::new(Table::new(
            "t",
            vec![
                Column::scalar("key", DataType::Integer, key),
                Column::scalar("pay", DataType::Integer, pay),
            ],
        ));
        (t, key_data, pay_data)
    }

    #[test]
    fn filtered_index_scan_matches_row_filter() {
        let (t, key_data, pay_data) = rle_table();
        let (idx, _) = index_table(&t.columns[0], "idx");
        let inner = Filter::new(
            Box::new(TableScan::new(idx)),
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(15)),
        );
        let mut scan = IndexedScan::new(Box::new(inner), t, &["pay"]);
        assert!(scan.sequential);
        assert_eq!(scan.qualified_rows(), 5 * 250);
        let mut got_key = Vec::new();
        let mut got_pay = Vec::new();
        while let Some(b) = scan.next_block() {
            got_key.extend_from_slice(&b.columns[0][..b.len]);
            got_pay.extend_from_slice(&b.columns[1][..b.len]);
        }
        let expect: Vec<(i64, i64)> = key_data
            .iter()
            .zip(&pay_data)
            .filter(|(&k, _)| k >= 15)
            .map(|(&k, &p)| (k, p))
            .collect();
        assert_eq!(got_key.len(), expect.len());
        for (i, (ek, ep)) in expect.iter().enumerate() {
            assert_eq!((got_key[i], got_pay[i]), (*ek, *ep));
        }
    }

    #[test]
    fn value_sorted_index_gives_ordered_retrieval() {
        // Build a table whose key runs repeat values out of order, then
        // retrieve ordered by value (§4.2.2).
        let mut key_data = Vec::new();
        for &v in &[3i64, 1, 3, 2, 1] {
            key_data.extend(std::iter::repeat_n(v, 100));
        }
        let mut key = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W1);
        for c in key_data.chunks(BLOCK_SIZE) {
            key.append_block(c).unwrap();
        }
        let t = Arc::new(Table::new(
            "t",
            vec![Column::scalar("key", DataType::Integer, key)],
        ));
        let (idx, _) = index_table(&t.columns[0], "idx");
        let sorted = Sort::new(Box::new(TableScan::new(idx)), vec![(0, SortOrder::Asc)]);
        let mut scan = IndexedScan::new(Box::new(sorted), t, &[]);
        assert!(!scan.sequential);
        // The value column must now arrive fully sorted and be marked so.
        assert!(scan.schema().fields[0].metadata.sorted_asc.is_true());
        let mut got = Vec::new();
        while let Some(b) = scan.next_block() {
            got.extend_from_slice(&b.columns[0][..b.len]);
        }
        let mut expect = key_data.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_filter_produces_nothing() {
        let (t, _, _) = rle_table();
        let (idx, _) = index_table(&t.columns[0], "idx");
        let inner = Filter::new(
            Box::new(TableScan::new(idx)),
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(1000)),
        );
        let mut scan = IndexedScan::new(Box::new(inner), t, &["pay"]);
        assert!(scan.next_block().is_none());
    }
}
