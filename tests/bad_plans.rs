//! A plan naming a column past its input's width is a typed error.
//!
//! Every operator that indexes its input's columns — an aggregate's
//! inputs and keys, a filter, a projection, a sort — is handed an index
//! one past a two-column table. Each query returns `InvalidInput` naming
//! the operator and the index, through the planner (`Query::try_rows`)
//! and through lowering alone (`physical::try_execute`), and none
//! panics.

use std::io;
use std::sync::Arc;
use tde::exec::aggregate::AggSpec;
use tde::exec::expr::{AggFunc, CmpOp};
use tde::exec::sort::SortOrder;
use tde::exec::{Expr, Source};
use tde::plan::{try_execute, LogicalPlan, PlanBuilder};
use tde::storage::{ColumnBuilder, Table};
use tde::types::DataType;
use tde::Query;

fn table() -> Arc<Table> {
    let mut a = ColumnBuilder::new("a", DataType::Integer, Default::default());
    let mut b = ColumnBuilder::new("b", DataType::Integer, Default::default());
    for i in 0..3000i64 {
        a.append_i64(i % 17);
        b.append_i64(i);
    }
    Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]))
}

/// Each shape, with the operator its error names.
fn shapes(t: &Arc<Table>) -> Vec<(&'static str, Query)> {
    let past = Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(5));
    vec![
        (
            "Aggregate",
            Query::scan(t).aggregate(vec![0], vec![(AggFunc::Sum, 2, "s")]),
        ),
        (
            "Aggregate",
            Query::scan(t).aggregate(vec![], vec![(AggFunc::Count, 2, "n")]),
        ),
        (
            "Aggregate key",
            Query::scan(t).aggregate(vec![2], vec![(AggFunc::Count, 0, "n")]),
        ),
        ("Filter", Query::scan(t).filter(past)),
        (
            "Project",
            Query::scan(t).project(vec![("x".into(), Expr::col(2))]),
        ),
        ("Sort", Query::scan(t).sort(vec![(2, SortOrder::Asc)])),
    ]
}

fn assert_names(err: &io::Error, op: &str) {
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    let msg = err.to_string();
    assert!(msg.starts_with(&format!("{op} names column 2 ")), "{msg}");
}

#[test]
fn a_column_past_the_input_is_invalid_input() {
    let t = table();
    for (op, query) in shapes(&t) {
        let err = query.try_rows().expect_err(op);
        assert_names(&err, op);
    }
}

#[test]
fn lowering_refuses_a_bad_plan_built_by_hand() {
    let t = table();
    let past = Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(5));
    let scan = || PlanBuilder::scan(&t);
    let plans = [
        (
            "Aggregate",
            scan().aggregate(vec![0], vec![AggSpec::new(AggFunc::Max, 2, "m")]),
        ),
        ("Aggregate key", scan().aggregate(vec![2], vec![])),
        ("Filter", scan().filter(past.clone())),
        ("Project", scan().project(vec![("x".into(), Expr::col(2))])),
        ("Sort", scan().sort(vec![(2, SortOrder::Desc)])),
    ];
    let pushed = LogicalPlan::Scan {
        source: Source::from(&t),
        columns: vec!["a".into(), "b".into()],
        expand_dictionaries: false,
        predicate: Some(past),
    };
    let plans = plans.map(|(op, p)| (op, p.build()));
    for (op, plan) in plans.into_iter().chain([("scan predicate", pushed)]) {
        let err = try_execute(&plan).err().expect(op);
        assert_names(&err, op);
    }
    // A parallel plan takes the same path.
    let query = Query::scan(&t)
        .aggregate(vec![2], vec![(AggFunc::Count, 0, "n")])
        .with_parallelism(2);
    assert_names(&query.try_run().unwrap_err(), "Aggregate key");
}
