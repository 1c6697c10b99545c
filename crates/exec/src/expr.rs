//! Expressions over blocks.
//!
//! Evaluation is block-at-a-time over the `i64` domain with sentinel NULL
//! propagation. String-producing functions (the §4.1.2 URL-extension
//! example) intern their results into a growing compute heap; the column
//! they produce has wide tokens and an unsorted heap, exactly the shape
//! FlowTable's post-processing then fixes.

use crate::block::{Block, Field, Repr, Schema};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tde_encodings::ColumnMetadata;
use tde_storage::{HeapAccelerator, StringHeap};
use tde_types::sentinel::{is_null_real, null_real, NULL_I64, NULL_TOKEN};
use tde_types::{Collation, DataType, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `a op b == b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    fn apply(self, o: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, o),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// Year of a date.
    Year,
    /// Month (1–12) of a date.
    Month,
    /// Day of month of a date.
    Day,
    /// Truncate a date to the first of its month (order-preserving).
    TruncMonth,
    /// Truncate a date to the first of its year (order-preserving).
    TruncYear,
    /// String length in bytes.
    StrLen,
    /// The file extension of a path/URL (the §4.1.2 example) — a
    /// string-producing function with a small output domain.
    FileExtension,
    /// Uppercase a string (string-producing).
    Upper,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum (integer domain).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// An expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Comparison; yields Bool.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Scalar function application.
    Func(Func, Box<Expr>),
    /// NULL test; yields Bool.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Convenience: column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Convenience: integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Convenience: comparison with a literal.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// The set of input columns the expression references.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Col(i) = e {
                cols.push(*i);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Whether the expression references exactly one column — the
    /// single-column-argument condition for pushdown (§4.1.1, §4.2.1).
    pub fn single_column(&self) -> Option<usize> {
        let cols = self.referenced_columns();
        (cols.len() == 1).then(|| cols[0])
    }

    /// Rewrite column references through `map` (old index → new index).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::And(a, b) => Expr::And(
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::Not(a) => Expr::Not(Box::new(a.remap_columns(map))),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(a.remap_columns(map)),
                Box::new(b.remap_columns(map)),
            ),
            Expr::Func(f, a) => Expr::Func(*f, Box::new(a.remap_columns(map))),
            Expr::IsNull(a) => Expr::IsNull(Box::new(a.remap_columns(map))),
        }
    }

    fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Col(_) | Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Not(a) | Expr::Func(_, a) | Expr::IsNull(a) => a.walk(f),
        }
    }
}

/// A growing heap for computed string columns, shared between the
/// producing Project and any downstream reader.
#[derive(Debug)]
pub struct ComputeHeap {
    /// The heap behind a lock (it grows while downstream may read).
    pub heap: Arc<RwLock<StringHeap>>,
    accel: HeapAccelerator,
}

impl Default for ComputeHeap {
    fn default() -> Self {
        ComputeHeap::new()
    }
}

impl ComputeHeap {
    /// An empty compute heap with an accelerator (so computed columns get
    /// distinct tokens when their domain is small).
    pub fn new() -> ComputeHeap {
        ComputeHeap {
            heap: Arc::new(RwLock::new(StringHeap::new())),
            accel: HeapAccelerator::new(Collation::Binary),
        }
    }

    /// Intern a string.
    pub fn intern(&mut self, s: &str) -> u64 {
        self.accel.intern(&mut self.heap.write(), s)
    }
}

/// Resolve a token through either heap representation.
pub fn token_str(repr: &Repr, token: i64) -> Option<String> {
    if token as u64 == NULL_TOKEN {
        return None;
    }
    match repr {
        Repr::Token(heap) => Some(heap.get_raw(token as u64).to_owned()),
        Repr::TokenCell(cell) => Some(cell.read().get_raw(token as u64).to_owned()),
        _ => panic!("token_str on non-token repr"),
    }
}

/// Result of evaluating an expression over a block.
pub struct EvalOutput {
    /// One value per input row.
    pub data: Vec<i64>,
    /// Shape of the produced column.
    pub field: Field,
}

/// Evaluate `expr` over `block`. String-producing functions intern into
/// `compute_heap` (required only when such functions are present).
pub fn eval(
    expr: &Expr,
    schema: &Schema,
    block: &Block,
    compute_heap: &mut Option<&mut ComputeHeap>,
) -> EvalOutput {
    match expr {
        Expr::Col(i) => {
            let f = &schema.fields[*i];
            if let Repr::DictIndex(dict, values) = &f.repr {
                // Expressions see *values*, not dictionary indexes. This
                // inline expansion is exactly the per-row cost the
                // invisible-join rewrite avoids by pushing the expression
                // onto the dictionary side (§4.1.1). A left join's NULL
                // among the indexes stays NULL.
                return EvalOutput {
                    data: block.columns[*i]
                        .iter()
                        .map(|&ix| {
                            if ix == NULL_I64 {
                                ix
                            } else {
                                dict[ix as usize]
                            }
                        })
                        .collect(),
                    field: match values {
                        Some(values) => Field::clone(values),
                        None => Field {
                            name: f.name.clone(),
                            dtype: f.dtype,
                            repr: Repr::Scalar,
                            metadata: ColumnMetadata::unknown(),
                        },
                    },
                };
            }
            EvalOutput {
                data: block.columns[*i].clone(),
                field: f.clone(),
            }
        }
        Expr::Lit(v) => {
            let (raw, dtype) = match v {
                Value::Null => (NULL_I64, DataType::Integer),
                Value::Real(r) => (r.to_bits() as i64, DataType::Real),
                Value::Str(s) => {
                    let heap = compute_heap
                        .as_deref_mut()
                        .expect("string literal needs a compute heap");
                    let t = heap.intern(s) as i64;
                    let cell = heap.heap.clone();
                    return EvalOutput {
                        data: vec![t; block.len],
                        field: Field {
                            name: "lit".into(),
                            dtype: DataType::Str,
                            repr: Repr::TokenCell(cell),
                            metadata: ColumnMetadata::unknown(),
                        },
                    };
                }
                other => (other.as_i64().expect("literal"), other.data_type().unwrap()),
            };
            EvalOutput {
                data: vec![raw; block.len],
                field: Field::scalar("lit", dtype),
            }
        }
        Expr::Cmp(op, a, b) => eval_cmp(*op, a, b, schema, block, compute_heap),
        Expr::And(a, b) => {
            let x = eval(a, schema, block, compute_heap);
            let y = eval(b, schema, block, compute_heap);
            bool_out(
                x.data
                    .iter()
                    .zip(&y.data)
                    .map(|(&p, &q)| p != 0 && q != 0)
                    .collect(),
            )
        }
        Expr::Or(a, b) => {
            let x = eval(a, schema, block, compute_heap);
            let y = eval(b, schema, block, compute_heap);
            bool_out(
                x.data
                    .iter()
                    .zip(&y.data)
                    .map(|(&p, &q)| p != 0 || q != 0)
                    .collect(),
            )
        }
        Expr::Not(a) => {
            let x = eval(a, schema, block, compute_heap);
            bool_out(x.data.iter().map(|&p| p == 0).collect())
        }
        Expr::IsNull(a) => {
            let x = eval(a, schema, block, compute_heap);
            let nulls: Vec<bool> = match (&x.field.repr, x.field.dtype) {
                (Repr::Token(_) | Repr::TokenCell(_), _) => {
                    x.data.iter().map(|&t| t as u64 == NULL_TOKEN).collect()
                }
                (_, DataType::Real) => x
                    .data
                    .iter()
                    .map(|&v| is_null_real(f64::from_bits(v as u64)))
                    .collect(),
                _ => x.data.iter().map(|&v| v == NULL_I64).collect(),
            };
            bool_out(nulls)
        }
        Expr::Arith(op, a, b) => {
            let x = eval(a, schema, block, compute_heap);
            let y = eval(b, schema, block, compute_heap);
            let real = x.field.dtype == DataType::Real || y.field.dtype == DataType::Real;
            let data: Vec<i64> = if real {
                x.data
                    .iter()
                    .zip(&y.data)
                    .map(|(&p, &q)| {
                        let (p, q) = (as_f64(p, x.field.dtype), as_f64(q, y.field.dtype));
                        if is_null_real(p) || is_null_real(q) {
                            return null_real().to_bits() as i64;
                        }
                        let r = match op {
                            ArithOp::Add => p + q,
                            ArithOp::Sub => p - q,
                            ArithOp::Mul => p * q,
                            ArithOp::Div => p / q,
                        };
                        r.to_bits() as i64
                    })
                    .collect()
            } else {
                x.data
                    .iter()
                    .zip(&y.data)
                    .map(|(&p, &q)| {
                        if p == NULL_I64 || q == NULL_I64 {
                            return NULL_I64;
                        }
                        match op {
                            ArithOp::Add => p.wrapping_add(q),
                            ArithOp::Sub => p.wrapping_sub(q),
                            ArithOp::Mul => p.wrapping_mul(q),
                            ArithOp::Div => {
                                if q == 0 {
                                    NULL_I64
                                } else {
                                    p / q
                                }
                            }
                        }
                    })
                    .collect()
            };
            EvalOutput {
                data,
                field: Field::scalar(
                    "arith",
                    if real {
                        DataType::Real
                    } else {
                        DataType::Integer
                    },
                ),
            }
        }
        Expr::Func(f, a) => eval_func(*f, a, schema, block, compute_heap),
    }
}

fn as_f64(raw: i64, dtype: DataType) -> f64 {
    match dtype {
        DataType::Real => f64::from_bits(raw as u64),
        _ => {
            if raw == NULL_I64 {
                null_real()
            } else {
                raw as f64
            }
        }
    }
}

fn bool_out(bits: Vec<bool>) -> EvalOutput {
    EvalOutput {
        data: bits.into_iter().map(i64::from).collect(),
        field: Field::scalar("bool", DataType::Bool),
    }
}

fn eval_cmp(
    op: CmpOp,
    a: &Expr,
    b: &Expr,
    schema: &Schema,
    block: &Block,
    compute_heap: &mut Option<&mut ComputeHeap>,
) -> EvalOutput {
    let x = eval(a, schema, block, compute_heap);
    let y = eval(b, schema, block, compute_heap);
    let x_tok = matches!(x.field.repr, Repr::Token(_) | Repr::TokenCell(_));
    let y_tok = matches!(y.field.repr, Repr::Token(_) | Repr::TokenCell(_));
    let bits: Vec<bool> = if x_tok || y_tok {
        // String comparison. Sorted heaps would allow raw token compares
        // within one heap; across heaps (column vs literal) we memoize the
        // string comparison per distinct token pair — cheap for the small
        // domains dictionary-encoded columns have.
        let mut memo: HashMap<(i64, i64), bool> = HashMap::new();
        x.data
            .iter()
            .zip(&y.data)
            .map(|(&p, &q)| {
                *memo.entry((p, q)).or_insert_with(|| {
                    let (sp, sq) = (token_like(&x, p), token_like(&y, q));
                    match (sp, sq) {
                        (Some(sp), Some(sq)) => op.apply(sp.cmp(&sq)),
                        _ => false, // NULL compares false
                    }
                })
            })
            .collect()
    } else if x.field.dtype == DataType::Real || y.field.dtype == DataType::Real {
        x.data
            .iter()
            .zip(&y.data)
            .map(|(&p, &q)| {
                let (p, q) = (as_f64(p, x.field.dtype), as_f64(q, y.field.dtype));
                if is_null_real(p) || is_null_real(q) {
                    return false;
                }
                p.partial_cmp(&q).is_some_and(|o| op.apply(o))
            })
            .collect()
    } else {
        x.data
            .iter()
            .zip(&y.data)
            .map(|(&p, &q)| p != NULL_I64 && q != NULL_I64 && op.apply(p.cmp(&q)))
            .collect()
    };
    bool_out(bits)
}

fn token_like(out: &EvalOutput, raw: i64) -> Option<String> {
    match &out.field.repr {
        Repr::Token(_) | Repr::TokenCell(_) => token_str(&out.field.repr, raw),
        _ => Some(Value::from_i64(out.field.dtype, raw).to_string()),
    }
}

fn eval_func(
    f: Func,
    a: &Expr,
    schema: &Schema,
    block: &Block,
    compute_heap: &mut Option<&mut ComputeHeap>,
) -> EvalOutput {
    let x = eval(a, schema, block, compute_heap);
    use tde_types::datetime;
    let int_fn = |g: fn(i64) -> i64, x: &EvalOutput, dtype: DataType| -> EvalOutput {
        EvalOutput {
            data: x
                .data
                .iter()
                .map(|&v| if v == NULL_I64 { NULL_I64 } else { g(v) })
                .collect(),
            field: Field::scalar("func", dtype),
        }
    };
    match f {
        Func::Year => int_fn(datetime::year_of, &x, DataType::Integer),
        Func::Month => int_fn(datetime::month_of, &x, DataType::Integer),
        Func::Day => int_fn(datetime::day_of, &x, DataType::Integer),
        Func::TruncMonth => int_fn(datetime::trunc_to_month, &x, DataType::Date),
        Func::TruncYear => int_fn(datetime::trunc_to_year, &x, DataType::Date),
        Func::StrLen => EvalOutput {
            data: x
                .data
                .iter()
                .map(|&t| token_str(&x.field.repr, t).map_or(NULL_I64, |s| s.len() as i64))
                .collect(),
            field: Field::scalar("strlen", DataType::Integer),
        },
        Func::FileExtension | Func::Upper => {
            let heap = compute_heap
                .as_deref_mut()
                .expect("string-producing function needs a compute heap");
            let data: Vec<i64> = x
                .data
                .iter()
                .map(|&t| match token_str(&x.field.repr, t) {
                    None => NULL_TOKEN as i64,
                    Some(s) => {
                        let produced = match f {
                            Func::FileExtension => s
                                .rsplit_once('.')
                                .map(|(_, ext)| {
                                    ext.split(['?', '#']).next().unwrap_or("").to_owned()
                                })
                                .unwrap_or_default(),
                            Func::Upper => s.to_uppercase(),
                            _ => unreachable!(),
                        };
                        heap.intern(&produced) as i64
                    }
                })
                .collect();
            EvalOutput {
                data,
                field: Field {
                    name: "func".into(),
                    dtype: DataType::Str,
                    repr: Repr::TokenCell(heap.heap.clone()),
                    metadata: ColumnMetadata::unknown(),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_block(vals: &[i64]) -> (Schema, Block) {
        (
            Schema::new(vec![Field::scalar("x", DataType::Integer)]),
            Block::new(vec![vals.to_vec()]),
        )
    }

    #[test]
    fn comparisons_and_logic() {
        let (s, b) = int_block(&[1, 5, 10, NULL_I64]);
        let e = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(4));
        let r = eval(&e, &s, &b, &mut None);
        assert_eq!(r.data, vec![0, 1, 1, 0]); // NULL > 4 is false
        let e = Expr::And(
            Box::new(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(0))),
            Box::new(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(10))),
        );
        assert_eq!(eval(&e, &s, &b, &mut None).data, vec![1, 1, 0, 0]);
    }

    #[test]
    fn null_detection_and_arith() {
        let (s, b) = int_block(&[2, NULL_I64]);
        let r = eval(&Expr::IsNull(Box::new(Expr::col(0))), &s, &b, &mut None);
        assert_eq!(r.data, vec![0, 1]);
        let e = Expr::Arith(ArithOp::Mul, Box::new(Expr::col(0)), Box::new(Expr::int(3)));
        assert_eq!(eval(&e, &s, &b, &mut None).data, vec![6, NULL_I64]);
        // Division by zero yields NULL, not a panic.
        let e = Expr::Arith(ArithOp::Div, Box::new(Expr::col(0)), Box::new(Expr::int(0)));
        assert_eq!(eval(&e, &s, &b, &mut None).data[0], NULL_I64);
    }

    #[test]
    fn date_functions() {
        let d = Value::date(1995, 7, 14).as_i64().unwrap();
        let (s, b) = int_block(&[d]);
        let schema = Schema::new(vec![Field::scalar("d", DataType::Date)]);
        let _ = s;
        let r = eval(
            &Expr::Func(Func::Month, Box::new(Expr::col(0))),
            &schema,
            &b,
            &mut None,
        );
        assert_eq!(r.data, vec![7]);
        let r = eval(
            &Expr::Func(Func::TruncMonth, Box::new(Expr::col(0))),
            &schema,
            &b,
            &mut None,
        );
        assert_eq!(r.data, vec![Value::date(1995, 7, 1).as_i64().unwrap()]);
        assert_eq!(r.field.dtype, DataType::Date);
    }

    #[test]
    fn string_comparison_with_literal() {
        let mut heap = StringHeap::new();
        let ta = heap.append("apple") as i64;
        let tb = heap.append("zebra") as i64;
        let schema = Schema::new(vec![Field {
            name: "s".into(),
            dtype: DataType::Str,
            repr: Repr::Token(Arc::new(heap)),
            metadata: ColumnMetadata::unknown(),
        }]);
        let b = Block::new(vec![vec![ta, tb, NULL_TOKEN as i64]]);
        let e = Expr::cmp(
            CmpOp::Eq,
            Expr::col(0),
            Expr::Lit(Value::Str("apple".into())),
        );
        let mut ch = ComputeHeap::new();
        let r = eval(&e, &schema, &b, &mut Some(&mut ch));
        assert_eq!(r.data, vec![1, 0, 0]);
    }

    #[test]
    fn file_extension_produces_small_domain() {
        let mut heap = StringHeap::new();
        let urls = ["/a/x.html", "/b/y.css", "/c/z.html", "/d/w.js?q=1"];
        let tokens: Vec<i64> = urls.iter().map(|u| heap.append(u) as i64).collect();
        let schema = Schema::new(vec![Field {
            name: "url".into(),
            dtype: DataType::Str,
            repr: Repr::Token(Arc::new(heap)),
            metadata: ColumnMetadata::unknown(),
        }]);
        let b = Block::new(vec![tokens]);
        let mut ch = ComputeHeap::new();
        let r = eval(
            &Expr::Func(Func::FileExtension, Box::new(Expr::col(0))),
            &schema,
            &b,
            &mut Some(&mut ch),
        );
        let exts: Vec<Option<String>> = r
            .data
            .iter()
            .map(|&t| token_str(&r.field.repr, t))
            .collect();
        assert_eq!(
            exts,
            vec![
                Some("html".into()),
                Some("css".into()),
                Some("html".into()),
                Some("js".into())
            ]
        );
        // The compute heap deduplicated: 3 distinct extensions.
        assert_eq!(ch.heap.read().len(), 3);
    }

    #[test]
    fn single_column_detection() {
        let e = Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(5));
        assert_eq!(e.single_column(), Some(2));
        let e = Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::col(2));
        assert_eq!(e.single_column(), None);
        let remapped = Expr::col(3).remap_columns(&|i| i - 3);
        assert_eq!(remapped.single_column(), Some(0));
    }
}
