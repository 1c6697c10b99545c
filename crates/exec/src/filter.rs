//! Filter (Select): a flow operator applying a predicate per block.

use crate::block::{Block, Schema};
use crate::expr::Expr;
use crate::pushdown::CompiledPredicate;
use crate::{BoxOp, Operator};
use tde_encodings::Selection;

/// Keeps the rows for which `predicate` evaluates to true.
pub struct Filter {
    input: BoxOp,
    predicate: CompiledPredicate,
    schema: Schema,
    sel: Selection,
}

impl Filter {
    /// Wrap `input` with `predicate`.
    pub fn new(input: BoxOp, predicate: Expr) -> Filter {
        let schema = input.schema().clone();
        Filter {
            predicate: CompiledPredicate::new(&predicate, &schema),
            input,
            schema,
            sel: Selection::default(),
        }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        loop {
            let mut block = self.input.next_block()?;
            debug_assert!(block.weights.is_none(), "Filter got a run-carrying block");
            self.predicate
                .filter(&self.schema, &mut block, &mut self.sel);
            if block.len > 0 {
                return Some(block);
            }
            // Fully filtered block: pull the next one rather than emitting
            // empty blocks downstream.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::scan::TableScan;
    use crate::{count_rows, drain};
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::DataType;

    fn table(n: i64) -> Arc<tde_storage::Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        for i in 0..n {
            a.append_i64(i % 100);
        }
        Arc::new(Table::new("t", vec![a.finish().column]))
    }

    #[test]
    fn filters_rows() {
        let scan = Box::new(TableScan::new(table(10_000)));
        let f = Filter::new(scan, Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(90)));
        assert_eq!(count_rows(Box::new(f)), 1000);
    }

    #[test]
    fn empty_result() {
        let scan = Box::new(TableScan::new(table(5000)));
        let f = Filter::new(scan, Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(1000)));
        assert_eq!(count_rows(Box::new(f)), 0);
    }

    #[test]
    fn values_survive() {
        let scan = Box::new(TableScan::new(table(500)));
        let f = Filter::new(scan, Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(7)));
        let blocks = drain(Box::new(f));
        let all: Vec<i64> = blocks.iter().flat_map(|b| b.columns[0].clone()).collect();
        assert!(all.iter().all(|&v| v == 7));
        assert_eq!(all.len(), 5);
    }
}
