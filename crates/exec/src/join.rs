//! Many-to-one joins: hash join and fetch join (paper §2.3.5).
//!
//! The Join operator takes a stop-and-go operator — a materialized table —
//! as its inner relation (§4.1.2). At construction the tactical optimizer
//! inspects the inner key column's metadata: a dense, unique, sorted key
//! means the inner row id is an affine transformation of the key value and
//! no lookup table is needed at all (the *fetch join*, the fastest join
//! available). This is the common case for primary-key/foreign-key joins
//! and especially for the expansion joins that decompress dictionary
//! columns.

use crate::block::{Block, Schema};
use crate::tactical::{self, JoinChoice};
use crate::{BoxOp, Operator};
use std::collections::HashMap;
use std::sync::Arc;
use tde_encodings::metadata::Knowledge;
use tde_encodings::Selection;
use tde_storage::Table;

/// How unmatched outer rows are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Drop unmatched outer rows.
    Inner,
    /// Keep them with NULL inner values (Tableau's NULL join semantics
    /// lean on left joins for expansion).
    Left,
}

enum Lookup {
    Fetch { base: i64, len: i64 },
    Hash(HashMap<i64, u32>),
}

/// Joins a flowing outer against a materialized inner table on one key.
pub struct Join {
    outer: BoxOp,
    inner_cols: Vec<Vec<i64>>, // decoded inner columns to project
    inner_nulls: Vec<i64>,
    outer_key: usize,
    kind: JoinKind,
    lookup: Lookup,
    schema: Schema,
    sel: Selection,
    /// The tactical decision that was made (for tests/explain).
    pub choice: JoinChoice,
}

impl Join {
    /// Join `outer.col(outer_key) == inner.col(inner_key)`, appending the
    /// `project` columns of `inner` to the output.
    pub fn new(
        outer: BoxOp,
        inner: &Arc<Table>,
        inner_schema: &Schema,
        outer_key: usize,
        inner_key: usize,
        project: &[usize],
        kind: JoinKind,
    ) -> Join {
        let choice = tactical::choose_join(&inner_schema.fields[inner_key]);
        let key_col = inner.columns[inner_key].data.decode_all();
        let lookup = match choice {
            JoinChoice::Fetch { base } => Lookup::Fetch {
                base,
                len: key_col.len() as i64,
            },
            JoinChoice::Hash => {
                let mut map = HashMap::with_capacity(key_col.len());
                for (row, &k) in key_col.iter().enumerate() {
                    map.insert(k, row as u32);
                }
                Lookup::Hash(map)
            }
        };
        let inner_cols: Vec<Vec<i64>> = project
            .iter()
            .map(|&c| inner.columns[c].data.decode_all())
            .collect();
        let inner_nulls: Vec<i64> = project
            .iter()
            .map(|&c| crate::block::null_raw(&inner_schema.fields[c]))
            .collect();
        // Joined-in columns are reordered by the outer key's probe order,
        // so order-dependent metadata only survives when the probe order
        // itself is monotone: outer key sorted and inner key sorted (row
        // id monotone in key). Uniqueness survives only when the outer
        // key never probes the same inner row twice. Value bounds and
        // cardinality remain valid as bounds either way.
        let outer_key_md = outer.schema().fields[outer_key].metadata.clone();
        let inner_key_md = &inner_schema.fields[inner_key].metadata;
        let order_kept = outer_key_md.sorted_asc.is_true() && inner_key_md.sorted_asc.is_true();
        let mut fields = outer.schema().fields.clone();
        for &c in project {
            let mut f = inner_schema.fields[c].clone();
            if !order_kept {
                f.metadata.sorted_asc = Knowledge::Unknown;
            }
            if !outer_key_md.unique.is_true() {
                f.metadata.unique = Knowledge::Unknown;
            }
            // An inner join can drop rows and a left join can add NULLs,
            // so a contiguous-range claim never survives.
            f.metadata.dense = Knowledge::Unknown;
            if kind == JoinKind::Left {
                f.metadata.has_nulls = Knowledge::Unknown;
            }
            fields.push(f);
        }
        Join {
            outer,
            inner_cols,
            inner_nulls,
            outer_key,
            kind,
            lookup,
            schema: Schema::new(fields),
            sel: Selection::default(),
            choice,
        }
    }

    #[inline]
    fn probe(&self, key: i64) -> Option<usize> {
        match &self.lookup {
            Lookup::Fetch { base, len } => {
                let row = key.wrapping_sub(*base);
                (row >= 0 && row < *len).then_some(row as usize)
            }
            Lookup::Hash(map) => map.get(&key).map(|&r| r as usize),
        }
    }
}

impl Operator for Join {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        loop {
            let mut block = self.outer.next_block()?;
            debug_assert!(block.weights.is_none(), "Join got a run-carrying block");
            let rows: Vec<Option<usize>> = block.columns[self.outer_key]
                .iter()
                .map(|&k| self.probe(k))
                .collect();
            if self.kind == JoinKind::Inner {
                self.sel.select_all(block.len);
                self.sel.retain(|r| rows[r].is_some());
                block.select(&self.sel);
            }
            for (col, &null) in self.inner_cols.iter().zip(&self.inner_nulls) {
                // Inner: only the matched rows are left; left: unmatched
                // rows take the NULL sentinel.
                let joined = rows.iter().filter_map(|row| match row {
                    Some(r) => Some(col[*r]),
                    None => (self.kind == JoinKind::Left).then_some(null),
                });
                block.columns.push(joined.collect());
            }
            if block.len > 0 {
                return Some(block);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TableScan;
    use tde_storage::{ColumnBuilder, EncodingPolicy};
    use tde_types::DataType;

    fn inner_table(dense: bool) -> (Arc<Table>, Schema) {
        let mut k = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        for i in 0..100i64 {
            k.append_i64(if dense { 10 + i } else { i * 3 });
            v.append_i64(i * 100);
        }
        let t = Arc::new(Table::new(
            "inner",
            vec![k.finish().column, v.finish().column],
        ));
        let scan = TableScan::new(t.clone());
        let schema = scan.schema().clone();
        (t, schema)
    }

    fn outer_scan(keys: &[i64]) -> BoxOp {
        let mut k = ColumnBuilder::new("ok", DataType::Integer, EncodingPolicy::default());
        for &x in keys {
            k.append_i64(x);
        }
        Box::new(TableScan::new(Arc::new(Table::new(
            "outer",
            vec![k.finish().column],
        ))))
    }

    #[test]
    fn fetch_join_chosen_for_dense_inner() {
        let (t, schema) = inner_table(true);
        let j = Join::new(
            outer_scan(&[10, 50, 109]),
            &t,
            &schema,
            0,
            0,
            &[1],
            JoinKind::Inner,
        );
        assert!(matches!(j.choice, JoinChoice::Fetch { base: 10 }));
        let blocks = crate::drain(Box::new(j));
        let v: Vec<i64> = blocks.iter().flat_map(|b| b.columns[1].clone()).collect();
        assert_eq!(v, vec![0, 4000, 9900]);
    }

    #[test]
    fn hash_join_for_sparse_inner() {
        let (t, schema) = inner_table(false);
        let j = Join::new(
            outer_scan(&[0, 3, 297]),
            &t,
            &schema,
            0,
            0,
            &[1],
            JoinKind::Inner,
        );
        assert!(matches!(j.choice, JoinChoice::Hash));
        let blocks = crate::drain(Box::new(j));
        let v: Vec<i64> = blocks.iter().flat_map(|b| b.columns[1].clone()).collect();
        assert_eq!(v, vec![0, 100, 9900]);
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let (t, schema) = inner_table(true);
        let j = Join::new(
            outer_scan(&[10, 9999]),
            &t,
            &schema,
            0,
            0,
            &[1],
            JoinKind::Inner,
        );
        let blocks = crate::drain(Box::new(j));
        let total: usize = blocks.iter().map(|b| b.len).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn left_join_keeps_unmatched_as_null() {
        let (t, schema) = inner_table(true);
        let j = Join::new(
            outer_scan(&[10, 9999]),
            &t,
            &schema,
            0,
            0,
            &[1],
            JoinKind::Left,
        );
        let blocks = crate::drain(Box::new(j));
        let v: Vec<i64> = blocks.iter().flat_map(|b| b.columns[1].clone()).collect();
        assert_eq!(v[0], 0);
        assert_eq!(v[1], tde_types::sentinel::NULL_I64);
    }

    /// A left join's unmatched row puts the scalar NULL sentinel among an
    /// array-compressed inner column's indexes: it materialises, evaluates
    /// and builds as NULL, never as a dictionary lookup.
    #[test]
    fn left_join_null_in_an_array_compressed_column() {
        use crate::expr::{eval, Expr};
        use crate::flow_table::{flow_table, FlowTableOptions};
        use tde_encodings::dynamic::encode_all;
        use tde_storage::{Column, Compression};
        use tde_types::sentinel::NULL_I64;
        use tde_types::{Value, Width};

        let mut k = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
        for i in 0..3i64 {
            k.append_i64(10 + i);
        }
        let d = Column {
            name: "d".into(),
            dtype: DataType::Integer,
            data: encode_all(&[2, 0, 1], Width::W8, false).stream,
            compression: Compression::Array {
                dictionary: vec![100, 200, 300],
                sorted: true,
            },
            metadata: tde_encodings::ColumnMetadata::unknown(),
        };
        let inner = Arc::new(Table::new("inner", vec![k.finish().column, d]));
        let schema = TableScan::new(inner.clone()).schema().clone();
        let join = || {
            Join::new(
                outer_scan(&[11, 9999, 10]),
                &inner,
                &schema,
                0,
                0,
                &[1],
                JoinKind::Left,
            )
        };
        let j = join();
        let out = j.schema().clone();
        let blocks = crate::drain(Box::new(j));
        assert_eq!(blocks[0].columns[1], vec![0, NULL_I64, 2]);

        let field = &out.fields[1];
        let values: Vec<Value> = blocks[0].columns[1]
            .iter()
            .map(|&raw| field.value_of(raw))
            .collect();
        assert_eq!(values, [Value::Int(100), Value::Null, Value::Int(300)]);

        let expanded = eval(&Expr::col(1), &out, &blocks[0], &mut None);
        assert_eq!(expanded.data, vec![100, NULL_I64, 300]);
        let is_null = Expr::IsNull(Box::new(Expr::col(1)));
        assert_eq!(eval(&is_null, &out, &blocks[0], &mut None).data, [0, 1, 0]);

        let built = flow_table(Box::new(join()), "joined", FlowTableOptions::default());
        let md = &built.table.columns[1].metadata;
        assert!(md.has_nulls.is_true(), "{md:?}");
        assert_eq!(md.max, Some(300));
    }

    #[test]
    fn fetch_and_hash_agree() {
        let (t, schema) = inner_table(true);
        let keys: Vec<i64> = (0..500).map(|i| 10 + (i * 37) % 100).collect();
        let fetch = Join::new(outer_scan(&keys), &t, &schema, 0, 0, &[1], JoinKind::Inner);
        assert!(matches!(fetch.choice, JoinChoice::Fetch { .. }));
        // Degrade the metadata to force a hash join.
        let mut dull = schema.clone();
        dull.fields[0].metadata = tde_encodings::ColumnMetadata::unknown();
        let hash = Join::new(outer_scan(&keys), &t, &dull, 0, 0, &[1], JoinKind::Inner);
        assert!(matches!(hash.choice, JoinChoice::Hash));
        let a: Vec<i64> = crate::drain(Box::new(fetch))
            .iter()
            .flat_map(|b| b.columns[1].clone())
            .collect();
        let b: Vec<i64> = crate::drain(Box::new(hash))
            .iter()
            .flat_map(|b| b.columns[1].clone())
            .collect();
        assert_eq!(a, b);
    }
}
