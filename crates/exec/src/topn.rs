//! Top-N: a bounded-memory ordered head, the workhorse of "top 10 …"
//! dashboard panels. A stop-and-go operator that keeps only the best `n`
//! rows in a binary heap instead of sorting the whole input.

use crate::block::{Block, Schema};
use crate::sort::SortOrder;
use crate::{BoxOp, Operator, BLOCK_ROWS};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tde_types::DataType;

/// One retained row plus its key ordering.
struct Entry {
    key: Vec<i64>,
    key_real: Vec<bool>,
    dirs: Vec<SortOrder>,
    row: Vec<i64>,
}

impl Entry {
    fn cmp_keys(&self, other: &Self) -> Ordering {
        for ((&a, &b), (&real, &dir)) in self
            .key
            .iter()
            .zip(&other.key)
            .zip(self.key_real.iter().zip(&self.dirs))
        {
            let o = if real {
                f64::from_bits(a as u64)
                    .partial_cmp(&f64::from_bits(b as u64))
                    .unwrap_or(Ordering::Equal)
            } else {
                a.cmp(&b)
            };
            let o = match dir {
                SortOrder::Asc => o,
                SortOrder::Desc => o.reverse(),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }
}

// BinaryHeap is a max-heap; the max entry is the *worst* retained row.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_keys(other)
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_keys(other) == Ordering::Equal
    }
}
impl Eq for Entry {}

/// Keeps the first `n` rows of the input under the given ordering.
pub struct TopN {
    input: Option<BoxOp>,
    keys: Vec<(usize, SortOrder)>,
    n: usize,
    schema: Schema,
    output: Vec<Block>,
    next: usize,
}

impl TopN {
    /// Top `n` rows of `input` ordered by `keys`.
    pub fn new(input: BoxOp, keys: Vec<(usize, SortOrder)>, n: usize) -> TopN {
        let schema = input.schema().clone();
        TopN {
            input: Some(input),
            keys,
            n,
            schema,
            output: Vec::new(),
            next: 0,
        }
    }

    fn run(&mut self) {
        let mut input = self.input.take().expect("TopN already ran");
        let dirs: Vec<SortOrder> = self.keys.iter().map(|&(_, d)| d).collect();
        let key_real: Vec<bool> = self
            .keys
            .iter()
            .map(|&(c, _)| {
                self.schema.fields[c].dtype == DataType::Real
                    && self.schema.fields[c].repr.is_scalar()
            })
            .collect();
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(self.n + 1);
        while let Some(b) = input.next_block() {
            debug_assert!(b.weights.is_none(), "TopN got a run-carrying block");
            for r in 0..b.len {
                let key: Vec<i64> = self.keys.iter().map(|&(c, _)| b.columns[c][r]).collect();
                let entry = Entry {
                    key,
                    key_real: key_real.clone(),
                    dirs: dirs.clone(),
                    row: b.columns.iter().map(|c| c[r]).collect(),
                };
                if heap.len() < self.n {
                    heap.push(entry);
                } else if let Some(worst) = heap.peek() {
                    if entry.cmp_keys(worst) == Ordering::Less {
                        heap.pop();
                        heap.push(entry);
                    }
                }
            }
        }
        let mut rows = heap.into_sorted_vec(); // ascending by ordering
        let ncols = self.schema.len();
        let mut at = 0;
        while at < rows.len() {
            let take = BLOCK_ROWS.min(rows.len() - at);
            let mut columns = vec![Vec::with_capacity(take); ncols];
            for e in &rows[at..at + take] {
                for (c, col) in columns.iter_mut().enumerate() {
                    col.push(e.row[c]);
                }
            }
            self.output.push(Block {
                columns,
                len: take,
                weights: None,
            });
            at += take;
        }
        rows.clear();
    }
}

impl Operator for TopN {
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

    fn table(n: i64) -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut b = ColumnBuilder::new("b", DataType::Integer, EncodingPolicy::default());
        for i in 0..n {
            a.append_i64((i * 7919) % 1000);
            b.append_i64(i);
        }
        Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]))
    }

    fn collect(op: TopN) -> Vec<(i64, i64)> {
        crate::drain(Box::new(op))
            .iter()
            .flat_map(|b| {
                b.columns[0]
                    .iter()
                    .zip(&b.columns[1])
                    .map(|(&x, &y)| (x, y))
            })
            .collect()
    }

    #[test]
    fn matches_full_sort_head() {
        let t = table(20_000);
        let got = collect(TopN::new(
            Box::new(TableScan::new(t.clone())),
            vec![(0, SortOrder::Asc), (1, SortOrder::Asc)],
            25,
        ));
        // Reference: full sort.
        let mut all: Vec<(i64, i64)> = (0..20_000).map(|i| (((i * 7919) % 1000), i)).collect();
        all.sort_unstable();
        assert_eq!(got, all[..25].to_vec());
    }

    #[test]
    fn descending_top() {
        let t = table(5000);
        let got = collect(TopN::new(
            Box::new(TableScan::new(t)),
            vec![(1, SortOrder::Desc)],
            3,
        ));
        assert_eq!(
            got.iter().map(|r| r.1).collect::<Vec<_>>(),
            vec![4999, 4998, 4997]
        );
    }

    #[test]
    fn n_larger_than_input() {
        let t = table(10);
        let got = collect(TopN::new(
            Box::new(TableScan::new(t)),
            vec![(1, SortOrder::Asc)],
            100,
        ));
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
