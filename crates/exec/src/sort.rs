//! Sort: a stop-and-go operator materializing and ordering its input.
//!
//! Keys compare in the stored `i64` domain: exact for scalars, and for
//! string tokens exactly when the heap is sorted — one more reason the
//! §3.4.3 heap sorting matters. `Real` keys compare as doubles.

use crate::block::{Block, Schema};
use crate::{BoxOp, Operator, BLOCK_ROWS};
use tde_types::DataType;

/// Sort direction per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// Sorts the whole input by the given key columns.
pub struct Sort {
    input: Option<BoxOp>,
    keys: Vec<(usize, SortOrder)>,
    schema: Schema,
    output: Vec<Block>,
    next: usize,
}

impl Sort {
    /// Sort `input` by `keys` (column index, order), most significant
    /// first.
    pub fn new(input: BoxOp, keys: Vec<(usize, SortOrder)>) -> Sort {
        let mut schema = input.schema().clone();
        // Sorting permutes rows, so order-dependent claims inherited from
        // the input (sorted_asc, dense) no longer describe the output —
        // value-set claims (unique, min/max, nulls) survive untouched.
        for f in &mut schema.fields {
            f.metadata.sorted_asc = tde_encodings::metadata::Knowledge::Unknown;
            f.metadata.dense = tde_encodings::metadata::Knowledge::Unknown;
        }
        // Sorting by the leading key makes the output sorted on it — the
        // downstream ordered aggregate relies on this metadata.
        if let Some(&(first, SortOrder::Asc)) = keys.first() {
            schema.fields[first].metadata.sorted_asc = tde_encodings::metadata::Knowledge::True;
        }
        Sort {
            input: Some(input),
            keys,
            schema,
            output: Vec::new(),
            next: 0,
        }
    }

    fn run(&mut self) {
        let mut input = self.input.take().expect("sort already ran");
        let in_schema = input.schema().clone();
        let blocks = {
            let mut v = Vec::new();
            while let Some(b) = input.next_block() {
                debug_assert!(b.weights.is_none(), "Sort got a run-carrying block");
                v.push(b);
            }
            v
        };
        // Flatten to column-major.
        let ncols = in_schema.len();
        let total: usize = blocks.iter().map(|b| b.len).sum();
        let mut cols: Vec<Vec<i64>> = vec![Vec::with_capacity(total); ncols];
        for b in &blocks {
            for (c, col) in b.columns.iter().enumerate() {
                cols[c].extend_from_slice(&col[..b.len]);
            }
        }
        let mut order: Vec<u32> = (0..total as u32).collect();
        let keys = self.keys.clone();
        let reals: Vec<bool> = in_schema
            .fields
            .iter()
            .map(|f| f.dtype == DataType::Real && f.repr.is_scalar())
            .collect();
        order.sort_unstable_by(|&a, &b| {
            for &(c, dir) in &keys {
                let (x, y) = (cols[c][a as usize], cols[c][b as usize]);
                let o = if reals[c] {
                    f64::from_bits(x as u64)
                        .partial_cmp(&f64::from_bits(y as u64))
                        .unwrap_or(std::cmp::Ordering::Equal)
                } else {
                    x.cmp(&y)
                };
                let o = match dir {
                    SortOrder::Asc => o,
                    SortOrder::Desc => o.reverse(),
                };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        // Emit permuted blocks.
        let mut at = 0;
        while at < total {
            let take = BLOCK_ROWS.min(total - at);
            let columns: Vec<Vec<i64>> = (0..ncols)
                .map(|c| {
                    order[at..at + take]
                        .iter()
                        .map(|&r| cols[c][r as usize])
                        .collect()
                })
                .collect();
            self.output.push(Block {
                columns,
                len: take,
                weights: None,
            });
            at += take;
        }
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if self.input.is_some() {
            self.run();
        }
        let b = self.output.get(self.next).cloned();
        self.next += 1;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TableScan;
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};

    fn table() -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut b = ColumnBuilder::new("b", DataType::Integer, EncodingPolicy::default());
        for i in 0..5000i64 {
            a.append_i64((i * 7919) % 100);
            b.append_i64(i);
        }
        Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]))
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let s = Sort::new(Box::new(TableScan::new(table())), vec![(0, SortOrder::Asc)]);
        let blocks = crate::drain(Box::new(s));
        let all: Vec<i64> = blocks.iter().flat_map(|b| b.columns[0].clone()).collect();
        assert_eq!(all.len(), 5000);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));

        let s = Sort::new(
            Box::new(TableScan::new(table())),
            vec![(0, SortOrder::Desc)],
        );
        let blocks = crate::drain(Box::new(s));
        let all: Vec<i64> = blocks.iter().flat_map(|b| b.columns[0].clone()).collect();
        assert!(all.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn secondary_key_breaks_ties() {
        let s = Sort::new(
            Box::new(TableScan::new(table())),
            vec![(0, SortOrder::Asc), (1, SortOrder::Desc)],
        );
        let blocks = crate::drain(Box::new(s));
        let a: Vec<i64> = blocks.iter().flat_map(|b| b.columns[0].clone()).collect();
        let b: Vec<i64> = blocks.iter().flat_map(|b| b.columns[1].clone()).collect();
        for w in 0..a.len() - 1 {
            if a[w] == a[w + 1] {
                assert!(b[w] >= b[w + 1]);
            }
        }
    }

    #[test]
    fn sort_asserts_sorted_metadata() {
        let s = Sort::new(Box::new(TableScan::new(table())), vec![(0, SortOrder::Asc)]);
        assert!(s.schema().fields[0].metadata.sorted_asc.is_true());
    }

    #[test]
    fn sort_invalidates_other_columns_order_claims() {
        // Column b scans sorted ascending (0..5000) and carries the claim;
        // sorting by a permutes it, so the stale claim must not survive —
        // found by tde-fuzz seed 1 (ordered retrieval over a stale claim).
        let scan = TableScan::new(table());
        assert!(scan.schema().fields[1].metadata.sorted_asc.is_true());
        let s = Sort::new(Box::new(scan), vec![(0, SortOrder::Asc)]);
        assert!(!s.schema().fields[1].metadata.sorted_asc.is_true());
        let blocks = crate::drain(Box::new(s));
        let b: Vec<i64> = blocks.iter().flat_map(|b| b.columns[1].clone()).collect();
        assert!(b.windows(2).any(|w| w[1] < w[0]));
    }
}
