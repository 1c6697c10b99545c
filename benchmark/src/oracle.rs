//! The correctness oracle: a naive row loop over the raw [`Dataset`]
//! computes every query's expected answer in set-up; each timed answer
//! is compared to it, order-insensitively, integers exactly and reals to
//! 1e-9 relative.

use crate::data::Dataset;
use crate::spec::QuerySpec;
use std::cmp::Ordering;
use std::collections::HashMap;
use tde_exec::expr::AggFunc;
use tde_types::{DataType, Value};

/// One cell of a canonical answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    I(i64),
    F(f64),
    S(String),
}

/// Rows sorted by their group-key cells.
pub type Answer = Vec<Vec<Cell>>;

/// The rows a query sees: the first `n` rows of the dataset, or an
/// explicit list (the merged view after appends and deletes).
pub enum RowSet<'a> {
    Prefix(usize),
    List(&'a [u32]),
}

impl RowSet<'_> {
    fn for_each(&self, mut f: impl FnMut(usize)) {
        match self {
            RowSet::Prefix(n) => (0..*n).for_each(&mut f),
            RowSet::List(l) => l.iter().for_each(|&r| f(r as usize)),
        }
    }
}

#[derive(Clone, Copy)]
struct Acc {
    bits: i64,
    count: u64,
}

fn fold(acc: &mut Acc, func: AggFunc, real: bool, v: i64) {
    acc.count += 1;
    if func == AggFunc::Count {
        return;
    }
    if acc.count == 1 {
        acc.bits = v;
        return;
    }
    let (a, b) = (f64::from_bits(acc.bits as u64), f64::from_bits(v as u64));
    acc.bits = match (func, real) {
        (AggFunc::Sum, true) => (a + b).to_bits() as i64,
        (AggFunc::Sum, false) => acc.bits.wrapping_add(v),
        (AggFunc::Min, true) => a.min(b).to_bits() as i64,
        (AggFunc::Max, true) => a.max(b).to_bits() as i64,
        (AggFunc::Min, false) => acc.bits.min(v),
        (AggFunc::Max, false) => acc.bits.max(v),
        (AggFunc::Count, _) => unreachable!("handled above"),
    };
}

/// Evaluate `spec` by looping over `rows` of `data`.
pub fn expected(data: &Dataset, rows: &RowSet<'_>, spec: &QuerySpec) -> Answer {
    let cols: Vec<_> = spec.columns.iter().map(|c| data.col(c)).collect();
    let blank = vec![Acc { bits: 0, count: 0 }; spec.aggs.len()];
    let mut groups: HashMap<Vec<i64>, Vec<Acc>> = HashMap::new();
    if spec.group_by.is_empty() {
        // An ungrouped aggregate yields one row even over no input.
        groups.insert(Vec::new(), blank.clone());
    }
    let mut key = Vec::with_capacity(spec.group_by.len());
    rows.for_each(|r| {
        if !spec
            .preds
            .iter()
            .all(|p| (p.lo..=p.hi).contains(&cols[p.col].vals[r]))
        {
            return;
        }
        key.clear();
        key.extend(spec.group_by.iter().map(|&g| cols[g].vals[r]));
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => groups.entry(key.clone()).or_insert_with(|| blank.clone()),
        };
        for (acc, &(func, c)) in accs.iter_mut().zip(&spec.aggs) {
            fold(acc, func, cols[c].dtype == DataType::Real, cols[c].vals[r]);
        }
    });
    let mut out: Answer = groups
        .into_iter()
        .map(|(key, accs)| {
            let mut row: Vec<Cell> = key
                .iter()
                .zip(&spec.group_by)
                .map(|(&v, &g)| match cols[g].dtype {
                    DataType::Str => Cell::S(cols[g].domain[v as usize].clone()),
                    DataType::Real => Cell::F(f64::from_bits(v as u64)),
                    _ => Cell::I(v),
                })
                .collect();
            for (acc, &(func, c)) in accs.iter().zip(&spec.aggs) {
                row.push(match (func, cols[c].dtype) {
                    (AggFunc::Count, _) => Cell::I(acc.count as i64),
                    _ if acc.count == 0 => Cell::Null,
                    (_, DataType::Real) => Cell::F(f64::from_bits(acc.bits as u64)),
                    (_, DataType::Str) => panic!("aggregates over strings are not generated"),
                    _ => Cell::I(acc.bits),
                });
            }
            row
        })
        .collect();
    sort_answer(&mut out, spec.group_by.len());
    out
}

fn cmp_cell(a: &Cell, b: &Cell) -> Ordering {
    fn rank(c: &Cell) -> u8 {
        match c {
            Cell::Null => 0,
            Cell::I(_) => 1,
            Cell::F(_) => 2,
            Cell::S(_) => 3,
        }
    }
    match (a, b) {
        (Cell::I(x), Cell::I(y)) => x.cmp(y),
        (Cell::F(x), Cell::F(y)) => x.total_cmp(y),
        (Cell::S(x), Cell::S(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn sort_answer(rows: &mut Answer, key_cells: usize) {
    rows.sort_by(|a, b| {
        a[..key_cells]
            .iter()
            .zip(&b[..key_cells])
            .map(|(x, y)| cmp_cell(x, y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
}

/// An engine answer in canonical form.
pub fn canonical(rows: Vec<Vec<Value>>, key_cells: usize) -> Answer {
    let mut out: Answer = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| match v {
                    Value::Null => Cell::Null,
                    Value::Bool(b) => Cell::I(b as i64),
                    Value::Int(i) | Value::Date(i) | Value::Timestamp(i) => Cell::I(i),
                    Value::Real(f) => Cell::F(f),
                    Value::Str(s) => Cell::S(s),
                })
                .collect()
        })
        .collect();
    sort_answer(&mut out, key_cells);
    out
}

/// Exact on integers and strings, 1e-9 relative on reals.
pub fn matches(actual: &Answer, expected: &Answer) -> bool {
    actual.len() == expected.len()
        && actual.iter().zip(expected).all(|(a, e)| {
            a.len() == e.len()
                && a.iter().zip(e).all(|(x, y)| match (x, y) {
                    (Cell::F(x), Cell::F(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                    _ => x == y,
                })
        })
}

/// Perturb an expected answer so that a correct engine answer no longer
/// matches it (`--inject-wrong-answer`: proves the check can fail).
pub fn corrupt(answer: &mut Answer) {
    match answer.first_mut().and_then(|r| r.last_mut()) {
        Some(Cell::I(v)) => *v = v.wrapping_add(1),
        Some(Cell::F(v)) => *v = *v * 2.0 + 1.0,
        Some(cell) => *cell = Cell::I(1),
        None => answer.push(vec![Cell::I(1)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{ColData, Dataset};
    use tde_exec::expr::AggFunc::{Count, Max, Sum};

    fn data() -> Dataset {
        Dataset::new(
            "t",
            vec![
                ColData::strs("k", vec![0, 1, 0, 1, 0], vec!["a".into(), "b".into()]),
                ColData::scalar("v", DataType::Integer, vec![1, 2, 3, 4, 5]),
            ],
        )
    }

    #[test]
    fn groups_filters_and_aggregates() {
        let d = data();
        let spec = QuerySpec::new("t", &d, &["k", "v"])
            .pred(1, 2, i64::MAX)
            .group(&[0])
            .agg(Sum, 1)
            .agg(Max, 1)
            .agg(Count, 0);
        let got = expected(&d, &RowSet::Prefix(5), &spec);
        let row = |k: &str, s, m, n| vec![Cell::S(k.into()), Cell::I(s), Cell::I(m), Cell::I(n)];
        assert_eq!(got, vec![row("a", 8, 5, 2), row("b", 6, 4, 2)]);
        // The merged view: row 4 deleted.
        let got = expected(&d, &RowSet::List(&[0, 1, 2, 3]), &spec);
        assert_eq!(got, vec![row("a", 3, 3, 1), row("b", 6, 4, 2)]);
    }

    #[test]
    fn an_ungrouped_aggregate_over_nothing_is_one_row() {
        let d = data();
        let spec = QuerySpec::new("t", &d, &["v"])
            .pred(0, 100, 200)
            .agg(Count, 0)
            .agg(Sum, 0);
        assert_eq!(
            expected(&d, &RowSet::Prefix(5), &spec),
            vec![vec![Cell::I(0), Cell::Null]]
        );
    }

    #[test]
    fn comparison_is_order_insensitive_and_a_corrupted_answer_fails_it() {
        let a = canonical(
            vec![
                vec![Value::Str("b".into()), Value::Real(1.0)],
                vec![Value::Str("a".into()), Value::Int(7)],
            ],
            1,
        );
        let mut e = vec![
            vec![Cell::S("a".into()), Cell::I(7)],
            vec![Cell::S("b".into()), Cell::F(1.0 + 1e-12)],
        ];
        assert!(matches(&a, &e));
        corrupt(&mut e);
        assert!(!matches(&a, &e));
    }
}
