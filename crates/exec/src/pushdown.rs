//! Compiling predicates into compressed-domain value sets, and the one
//! block evaluator built on them.
//!
//! A predicate is split into its top-level conjuncts. Each conjunct over
//! a single column compiles here into a [`ValueSet`] whose membership
//! test on a *raw stored value* is exactly the conjunct's truth value
//! under block-wise evaluation — including the three-valued-logic
//! corners: comparisons never match the NULL sentinel, `NOT` of a
//! comparison *does* match it, and comparisons against a NULL literal
//! match nothing. Conjuncts on one column intersect into one set, so a
//! `BETWEEN` is one interval and a Q6-style conjunction is one set per
//! column.
//!
//! Compilation is shape-only and conservative: `None` means "no exact
//! integer-domain reading exists" (real arithmetic, string literals,
//! functions, multi-column comparisons); such conjuncts stay *residual*
//! and go through [`eval`].
//!
//! [`CompiledPredicate`] is the evaluator over decoded blocks: `Filter`,
//! a merge snapshot's delta leg and a scan's residual all narrow a
//! [`Selection`] through it. The scan answers the same value sets on the
//! stored streams with the per-encoding kernels; both sides test values
//! with the same [`Matcher`].

use crate::block::{Block, Field, Repr, Schema};
use crate::expr::{eval, CmpOp, ComputeHeap, Expr};
use tde_encodings::kernel::{Matcher, ValueSet};
use tde_encodings::Selection;
use tde_types::sentinel::NULL_I64;
use tde_types::{DataType, Value};

/// Compile a predicate over one column into the exact set of raw stored
/// values it accepts, or `None` when the predicate has no integer-domain
/// value-set reading.
pub fn compile_value_set(expr: &Expr) -> Option<ValueSet> {
    match expr {
        Expr::Cmp(op, a, b) => {
            let (op, lit) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(_), Expr::Lit(v)) => (*op, v),
                (Expr::Lit(v), Expr::Col(_)) => (op.flip(), v),
                _ => return None,
            };
            let raw = match lit {
                // A NULL literal compares false against everything.
                Value::Null => return Some(ValueSet::empty()),
                Value::Int(i) => *i,
                Value::Bool(b) => *b as i64,
                Value::Date(d) => *d,
                Value::Timestamp(t) => *t,
                // Real comparisons promote to f64; string literals
                // compare through the heap. Neither is an i64 set.
                Value::Real(_) | Value::Str(_) => return None,
            };
            Some(match op {
                CmpOp::Eq => ValueSet::eq(raw),
                CmpOp::Ne => ValueSet::ne(raw),
                CmpOp::Lt => ValueSet::lt(raw),
                CmpOp::Le => ValueSet::le(raw),
                CmpOp::Gt => ValueSet::gt(raw),
                CmpOp::Ge => ValueSet::ge(raw),
            })
        }
        Expr::And(a, b) => Some(compile_value_set(a)?.intersect(&compile_value_set(b)?)),
        Expr::Or(a, b) => Some(compile_value_set(a)?.union(&compile_value_set(b)?)),
        Expr::Not(a) => Some(compile_value_set(a)?.complement()),
        Expr::IsNull(a) => match a.as_ref() {
            Expr::Col(_) => Some(ValueSet::is_null()),
            _ => None,
        },
        // A bare column is truthy when its raw value is nonzero (the
        // NULL sentinel is nonzero, so NULL rows are kept).
        Expr::Col(_) => Some(ValueSet::truthy()),
        Expr::Lit(v) => {
            let raw = match v {
                Value::Null => return Some(ValueSet::full()),
                Value::Real(r) => r.to_bits() as i64,
                Value::Str(_) => return None,
                other => other.as_i64()?,
            };
            Some(if raw != 0 {
                ValueSet::full()
            } else {
                ValueSet::empty()
            })
        }
        Expr::Arith(..) | Expr::Func(..) => None,
    }
}

/// The top-level conjuncts of `expr`: `a AND (b AND c)` is `[a, b, c]`.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

/// A predicate split by [`split_conjuncts`].
pub struct Split<'a> {
    /// One value set per pushed column: its conjuncts intersected, in
    /// the order the column's first conjunct appears.
    pub sets: Vec<(usize, ValueSet)>,
    /// The conjuncts the sets were compiled from.
    pub pushed: Vec<&'a Expr>,
    /// Every other conjunct.
    pub residual: Vec<&'a Expr>,
}

/// Split `expr` into its pushed conjuncts and a residual — the one
/// pushdown rule, shared by the strategic rewrite, the scan and the
/// block evaluator. A conjunct is pushed when it reads the single column
/// `c`, `eligible(c)` admits `c`'s raw domain ([`raw_domain`]) and it
/// compiles to a value set; every other conjunct is residual.
pub fn split_conjuncts(expr: &Expr, eligible: impl Fn(usize) -> bool) -> Split<'_> {
    let mut split = Split {
        sets: Vec::new(),
        pushed: Vec::new(),
        residual: Vec::new(),
    };
    for conjunct in conjuncts(expr) {
        let compiled = conjunct
            .single_column()
            .filter(|&c| eligible(c))
            .and_then(|c| Some((c, compile_value_set(conjunct)?)));
        let Some((c, set)) = compiled else {
            split.residual.push(conjunct);
            continue;
        };
        match split.sets.iter_mut().find(|(col, _)| *col == c) {
            Some((_, prior)) => *prior = prior.intersect(&set),
            None => split.sets.push((c, set)),
        }
        split.pushed.push(conjunct);
    }
    split
}

/// The dictionary codes whose entries lie in `set`, as a set over codes
/// — what a value set means on an array-compressed column's stored
/// stream.
pub(crate) fn code_set(dictionary: &[i64], set: &ValueSet) -> ValueSet {
    let mut runs: Vec<(i64, i64)> = Vec::new();
    for (code, &v) in dictionary.iter().enumerate() {
        if set.contains(v) {
            let code = code as i64;
            match runs.last_mut() {
                Some(last) if last.1 + 1 == code => last.1 = code,
                _ => runs.push((code, code)),
            }
        }
    }
    ValueSet::from_intervals(runs)
}

/// Whether raw `i64`s of type `dtype` admit a value set: scalars
/// directly, dictionary indexes through their dictionary. Heap tokens
/// (`heap`) and reals have string / `f64` semantics no integer set
/// expresses.
pub fn raw_domain(dtype: DataType, heap: bool) -> bool {
    dtype != DataType::Real && !heap
}

/// [`raw_domain`] of a block field — of its stored values, for codes.
pub(crate) fn has_raw_domain(field: &Field) -> bool {
    if let Some((_, values)) = field.decoded() {
        return has_raw_domain(values);
    }
    let heap = matches!(field.repr, Repr::Token(_) | Repr::TokenCell(_));
    raw_domain(field.dtype, heap)
}

/// `set` over the values of an eligible field, read in its raw domain.
/// An array-compressed column carries the scalar NULL sentinel where a
/// left join found no inner row; it stays NULL there. Codes are never
/// NULL: a NULL is one of the entries.
fn raw_set(field: &Field, set: &ValueSet) -> ValueSet {
    match &field.repr {
        Repr::DictIndex(dict, None) if set.contains(NULL_I64) => {
            code_set(dict, set).union(&ValueSet::is_null())
        }
        Repr::DictIndex(dict, _) => code_set(dict, set),
        _ => set.clone(),
    }
}

/// A predicate compiled against a block schema: one value test per
/// column plus the residual conjuncts. It narrows a [`Selection`] over a
/// decoded block, the value tests first.
pub struct CompiledPredicate {
    tests: Vec<(usize, Matcher)>,
    residual: Vec<Expr>,
    /// Created on the first residual evaluation (string literals and
    /// string functions intern into it).
    heap: Option<ComputeHeap>,
}

impl CompiledPredicate {
    /// Compile `predicate` (over `schema`).
    pub fn new(predicate: &Expr, schema: &Schema) -> CompiledPredicate {
        let split = split_conjuncts(predicate, |c| {
            schema.fields.get(c).is_some_and(has_raw_domain)
        });
        let tests = split
            .sets
            .into_iter()
            .map(|(c, set)| (c, Matcher::values(&raw_set(&schema.fields[c], &set))))
            .collect();
        CompiledPredicate {
            tests,
            residual: split.residual.into_iter().cloned().collect(),
            heap: None,
        }
    }

    /// Narrow `sel` (a selection over `block`) to the rows the predicate
    /// accepts.
    fn select(&mut self, schema: &Schema, block: &Block, sel: &mut Selection) {
        for (c, m) in &self.tests {
            let values = &block.columns[*c];
            m.narrow_values(sel, values);
        }
        for e in &self.residual {
            if sel.is_empty() {
                return;
            }
            let heap = self.heap.get_or_insert_with(ComputeHeap::new);
            let mask = eval(e, schema, block, &mut Some(heap));
            sel.retain(|i| mask.data[i] != 0);
        }
    }

    /// Keep the rows of `block` the predicate accepts; `sel` is scratch.
    pub fn filter(&mut self, schema: &Schema, block: &mut Block, sel: &mut Selection) {
        sel.select_all(block.len);
        self.select(schema, block, sel);
        block.select(sel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_cmp_shapes_and_flips_literal_side() {
        let set = compile_value_set(&Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(10))).unwrap();
        assert!(set.contains(9) && !set.contains(10) && !set.contains(NULL_I64));
        // 10 < col  ==  col > 10
        let set = compile_value_set(&Expr::cmp(CmpOp::Lt, Expr::int(10), Expr::col(0))).unwrap();
        assert!(set.contains(11) && !set.contains(10));
    }

    #[test]
    fn logic_and_null_shapes() {
        let between = Expr::And(
            Box::new(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(5))),
            Box::new(Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(8))),
        );
        assert_eq!(compile_value_set(&between).unwrap().intervals(), &[(5, 8)]);
        let not_eq = Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(5))));
        assert!(compile_value_set(&not_eq).unwrap().contains(NULL_I64));
        let is_null = Expr::IsNull(Box::new(Expr::col(0)));
        assert_eq!(
            compile_value_set(&is_null).unwrap().intervals(),
            &[(NULL_I64, NULL_I64)]
        );
        // NULL literal comparisons are empty, not errors.
        let vs_null = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::Lit(Value::Null));
        assert!(compile_value_set(&vs_null).unwrap().is_empty());
    }

    #[test]
    fn uncompilable_shapes_decline() {
        use crate::expr::ArithOp;
        let arith = Expr::Arith(ArithOp::Add, Box::new(Expr::col(0)), Box::new(Expr::int(1)));
        for pred in [
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::col(1)),
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::Lit(Value::Real(1.5))),
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Lit(Value::Str("x".into()))),
            Expr::cmp(CmpOp::Gt, arith, Expr::int(5)),
        ] {
            assert!(compile_value_set(&pred).is_none(), "{pred:?}");
        }
    }

    #[test]
    fn conjuncts_split_per_column_and_leave_the_rest() {
        let q6 = Expr::And(
            Box::new(Expr::And(
                Box::new(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(5))),
                Box::new(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::int(24))),
            )),
            Box::new(Expr::And(
                Box::new(Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(8))),
                Box::new(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::col(2))),
            )),
        );
        let split = split_conjuncts(&q6, |_| true);
        assert_eq!(split.sets.len(), 2);
        assert_eq!(
            (split.sets[0].0, split.sets[0].1.intervals()),
            (0, &[(5, 8)][..])
        );
        assert_eq!(split.sets[1].0, 1);
        assert_eq!((split.pushed.len(), split.residual.len()), (3, 1));
        // An ineligible column stays residual.
        let split = split_conjuncts(&q6, |c| c != 0);
        assert_eq!((split.sets.len(), split.residual.len()), (1, 3));
    }

    #[test]
    fn compiled_predicate_matches_eval_on_dictionary_codes() {
        use crate::join::{Join, JoinKind};
        use crate::scan::TableScan;
        use crate::Operator;
        use std::sync::Arc;
        use tde_storage::{ColumnBuilder, Table};
        let dict = Arc::new(vec![40, 10, NULL_I64, 30]);
        let dict_field = Field {
            name: "d".into(),
            dtype: DataType::Integer,
            repr: Repr::DictIndex(dict.clone(), None),
            metadata: tde_encodings::ColumnMetadata::unknown(),
        };
        let schema = Schema::new(vec![dict_field.clone()]);
        let block = Block::new(vec![vec![0, 1, 2, 3, 1, 0]]);
        let preds = [
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(30)),
            Expr::IsNull(Box::new(Expr::col(0))),
            Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(10)))),
        ];
        for pred in &preds {
            let mask = eval(pred, &schema, &block, &mut None);
            let mut sel = Selection::all(block.len);
            CompiledPredicate::new(pred, &schema).select(&schema, &block, &mut sel);
            let kept: Vec<usize> = sel
                .positions()
                .unwrap()
                .iter()
                .map(|&p| p as usize)
                .collect();
            let expect: Vec<usize> = (0..block.len).filter(|&i| mask.data[i] != 0).collect();
            assert_eq!(kept, expect, "{pred:?}");
        }

        // A Filter over a left join: the unmatched outer keys carry the
        // scalar NULL sentinel in the joined dictionary-index column, and
        // it must filter as NULL — the reference evaluates the expanded
        // values (sentinel kept) as a scalar column.
        let column = |name: &str, vals: &[i64]| {
            let mut b = ColumnBuilder::new(name, DataType::Integer, Default::default());
            vals.iter().for_each(|&v| b.append_i64(v));
            b.finish().column
        };
        let inner = Arc::new(Table::new(
            "lj_inner",
            vec![column("k", &[0, 1, 2, 3]), column("d", &[0, 1, 2, 3])],
        ));
        let mut inner_schema = TableScan::new(inner.clone()).schema().clone();
        inner_schema.fields[1] = dict_field;
        let keys = [0, 1, 99, 2, 3, 77, 1, 0];
        let outer = Arc::new(Table::new("lj_outer", vec![column("ok", &keys)]));
        let expanded: Vec<i64> = keys
            .iter()
            .map(|&k| dict.get(k as usize).copied().unwrap_or(NULL_I64))
            .collect();
        let scalar = Schema::new(vec![Field::scalar("d", DataType::Integer)]);
        for pred in &preds {
            let join = Join::new(
                Box::new(TableScan::new(outer.clone())),
                &inner,
                &inner_schema,
                0,
                0,
                &[1],
                JoinKind::Left,
            );
            let filter = crate::filter::Filter::new(Box::new(join), pred.remap_columns(&|_| 1));
            let kept: Vec<i64> = crate::drain(Box::new(filter))
                .iter()
                .flat_map(|b| b.columns[0].clone())
                .collect();
            let mask = eval(
                pred,
                &scalar,
                &Block::new(vec![expanded.clone()]),
                &mut None,
            );
            let expect: Vec<i64> = (0..keys.len())
                .filter(|&i| mask.data[i] != 0)
                .map(|i| keys[i])
                .collect();
            assert_eq!(kept, expect, "left join {pred:?}");
        }
    }
}
