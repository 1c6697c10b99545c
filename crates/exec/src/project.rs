//! Project (Compute): a flow operator evaluating expressions per block.
//! A column selection also carries a run-carrying block's weights, and a
//! group key's codes, through to the aggregate above it.

use crate::block::{Block, Field, Schema};
use crate::expr::{eval, ComputeHeap, Expr};
use crate::{BoxOp, Operator};

/// Computes one output column per expression.
pub struct Project {
    input: BoxOp,
    exprs: Vec<Expr>,
    compute_heap: Option<ComputeHeap>,
    schema: Schema,
    names: Vec<String>,
}

impl Project {
    /// Wrap `input`; output column `i` is `exprs[i]` named `names[i]`.
    pub fn new(input: BoxOp, exprs: Vec<(String, Expr)>) -> Project {
        // Evaluate against an empty block to derive the output schema.
        let probe = Block::empty(input.schema().len());
        let mut compute_heap = Some(ComputeHeap::new());
        let mut fields = Vec::with_capacity(exprs.len());
        let mut names = Vec::with_capacity(exprs.len());
        for (name, e) in &exprs {
            let mut heap = compute_heap.as_mut();
            let mut f: Field = match coded(e, input.schema()) {
                Some(c) => input.schema().fields[c].clone(),
                None => eval(e, input.schema(), &probe, &mut heap).field,
            };
            f.name = name.clone();
            // Column pass-throughs keep their metadata; computed columns
            // start unknown (FlowTable re-derives it).
            if !matches!(e, Expr::Col(_)) {
                f.metadata = tde_encodings::ColumnMetadata::unknown();
            }
            fields.push(f);
            names.push(name.clone());
        }
        Project {
            input,
            exprs: exprs.into_iter().map(|(_, e)| e).collect(),
            compute_heap,
            schema: Schema::new(fields),
            names,
        }
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        let block = self.input.next_block()?;
        // Weights pass through a column selection on their way to the
        // aggregate; nothing computes over a column of a run-carrying
        // block.
        debug_assert!(
            block.weights.is_none()
                || self
                    .exprs
                    .iter()
                    .all(|e| matches!(e, Expr::Col(_)) || e.referenced_columns().is_empty()),
            "a computing Project got a run-carrying block"
        );
        let in_schema = self.input.schema();
        let mut columns = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            let mut heap = self.compute_heap.as_mut();
            columns.push(match coded(e, in_schema) {
                Some(c) => block.columns[c].clone(),
                None => eval(e, in_schema, &block, &mut heap).data,
            });
        }
        let _ = &self.names;
        Some(Block {
            columns,
            len: block.len,
            weights: block.weights,
        })
    }
}

/// The input column `e` selects, when that column holds a group key's
/// codes ([`Field::codes`]): the selection hands them on to the
/// aggregate, where evaluating the column would decode them.
fn coded(e: &Expr, input: &Schema) -> Option<usize> {
    match e {
        Expr::Col(c) if input.fields[*c].decoded().is_some() => Some(*c),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, Func};
    use crate::scan::TableScan;
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::{DataType, Value};

    #[test]
    fn computes_expressions() {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        for i in 0..100i64 {
            a.append_i64(i);
        }
        let t = Arc::new(Table::new("t", vec![a.finish().column]));
        let mut p = Project::new(
            Box::new(TableScan::new(t)),
            vec![
                ("a".into(), Expr::col(0)),
                (
                    "a2".into(),
                    Expr::Arith(ArithOp::Mul, Box::new(Expr::col(0)), Box::new(Expr::int(2))),
                ),
            ],
        );
        assert_eq!(p.schema().fields[1].name, "a2");
        let b = p.next_block().unwrap();
        assert_eq!(b.columns[1][7], 14);
    }

    #[test]
    fn string_function_column() {
        let mut s = ColumnBuilder::new("url", DataType::Str, EncodingPolicy::default());
        for i in 0..50 {
            s.append_str(Some(&format!("/f{i}.{}", ["html", "css"][i % 2])));
        }
        let t = Arc::new(Table::new("t", vec![s.finish().column]));
        let mut p = Project::new(
            Box::new(TableScan::new(t)),
            vec![(
                "ext".into(),
                Expr::Func(Func::FileExtension, Box::new(Expr::col(0))),
            )],
        );
        let schema = p.schema().clone();
        let b = p.next_block().unwrap();
        assert_eq!(
            schema.fields[0].value_of(b.columns[0][0]),
            Value::Str("html".into())
        );
        assert_eq!(
            schema.fields[0].value_of(b.columns[0][1]),
            Value::Str("css".into())
        );
    }
}
