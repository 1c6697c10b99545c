//! Acceptance tests for the mutable delta store.
//!
//! The merge-on-read contract: any interleaving of appends, deletes and
//! compactions must answer queries exactly as a table rebuilt from
//! scratch out of the surviving logical rows would. And compaction must
//! restore the paged format's projection laziness — a 2-of-N column
//! query against a compacted extract loads only those columns'
//! segments.

use std::sync::Arc;
use tde::delta::{DeltaExtract, DeltaTable, ScanSource};
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::pager::save_v2;
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::{DataType, Value};
use tde::Query;

/// One logical row of the test table: (id, qty, city).
type Row = (i64, Option<i64>, Option<&'static str>);

fn base_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            (
                i,
                Some(i % 7),
                Some(["lyon", "oslo", "kyiv", "lima"][i as usize % 4]),
            )
        })
        .collect()
}

/// Build a read-optimized table from logical rows — both the seed of a
/// delta store and the from-scratch rebuild the differential compares
/// against.
fn build(rows: &[Row]) -> Arc<Table> {
    let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
    let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
    let mut city = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for &(i, q, c) in rows {
        id.append_i64(i);
        qty.append_value(&q.map_or(Value::Null, Value::Int));
        city.append_str(c);
    }
    Arc::new(Table::new(
        "orders",
        vec![
            id.finish().column,
            qty.finish().column,
            city.finish().column,
        ],
    ))
}

fn value_row(r: &Row) -> Vec<Value> {
    vec![
        Value::Int(r.0),
        r.1.map_or(Value::Null, Value::Int),
        r.2.map_or(Value::Null, |s| Value::Str(s.to_owned())),
    ]
}

#[test]
fn merged_view_matches_from_scratch_rebuild() {
    // The interleaving: appends with NULLs and heap-extending fresh
    // strings, deletes across base and delta rows, a mid-sequence
    // compaction, then more mutations on the rebuilt base.
    let mut model = base_rows(500);
    let mut dt = DeltaTable::from_eager(build(&model));

    let appends: Vec<Row> = vec![
        (500, Some(3), Some("quito")), // fresh string: heap overlay
        (501, None, Some("lyon")),     // NULL qty
        (502, Some(9), None),          // NULL city
        (503, Some(-4), Some("quito")),
    ];
    dt.append_rows(&appends.iter().map(value_row).collect::<Vec<_>>())
        .unwrap();
    model.extend(appends.iter().copied());

    // Delete base rows and one freshly appended row (id-space: base ids
    // then append slots).
    dt.delete(&[3, 250, 499, 501]).unwrap();
    for &gone in &[501usize, 499, 250, 3] {
        model.remove(gone);
    }

    let check = |dt: &DeltaTable, model: &[Row]| {
        let src = dt.snapshot().unwrap();
        let rebuilt = build(model);
        // Full scans are bit-identical, in base-then-append order.
        assert_eq!(
            Query::scan(&src).rows(),
            Query::scan(&rebuilt).rows(),
            "merged scan diverged from rebuild"
        );
        // A pushed predicate agrees too.
        let pred = Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(4));
        assert_eq!(
            Query::scan(&src).filter(pred.clone()).rows(),
            Query::scan(&rebuilt).filter(pred).rows(),
            "filtered merged scan diverged from rebuild"
        );
        // And a grouped rollup over the string column (canonicalized:
        // group order is an implementation detail).
        let rollup = |q: Query| {
            let mut rows = q
                .aggregate(vec![2], vec![(AggFunc::Sum, 1, "total")])
                .rows();
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        };
        assert_eq!(
            rollup(Query::scan(&src)),
            rollup(Query::scan(&rebuilt)),
            "merged rollup diverged from rebuild"
        );
    };
    check(&dt, &model);

    // Compact mid-sequence: the rebuilt base must answer identically...
    dt.compact().unwrap();
    assert!(dt.is_clean());
    check(&dt, &model);

    // ...and further mutations keep the contract on the new base.
    let more: Vec<Row> = vec![(600, Some(1), Some("oslo")), (601, None, None)];
    dt.append_rows(&more.iter().map(value_row).collect::<Vec<_>>())
        .unwrap();
    model.extend(more.iter().copied());
    dt.delete(&[0]).unwrap();
    model.remove(0);
    check(&dt, &model);
}

/// A 12-column database for the projection-laziness test.
fn wide_db(rows: i64) -> Database {
    let mut columns = Vec::new();
    for c in 0..11 {
        let name = format!("c{c}");
        let mut b = ColumnBuilder::new(&name, DataType::Integer, EncodingPolicy::default());
        for i in 0..rows {
            b.append_i64((i * (c + 3)) % 1000);
        }
        columns.push(b.finish().column);
    }
    let mut s = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        s.append_str(Some(["lyon", "oslo", "kyiv", "lima"][i as usize % 4]));
    }
    columns.push(s.finish().column);
    let mut db = Database::new();
    db.add_table(Table::new("wide", columns));
    db
}

#[test]
fn compaction_restores_projection_laziness() {
    let dir = std::env::temp_dir().join(format!("tde-delta-accept-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.tde2");
    save_v2(&wide_db(4000), &path).unwrap();

    // Mutate, compact, persist.
    let mut ex = DeltaExtract::open(&path).unwrap();
    {
        let dt = ex.delta_mut("wide").unwrap();
        let row: Vec<Value> = (0..11)
            .map(Value::Int)
            .chain([Value::Str("sofia".into())])
            .collect();
        dt.append_rows(&[row]).unwrap();
        dt.delete(&[17]).unwrap();
        assert!(matches!(ex.source("wide").unwrap(), ScanSource::Merged(_)));
    }
    ex.compact("wide").unwrap();
    assert!(matches!(ex.source("wide").unwrap(), ScanSource::Clean(_)));
    drop(ex);

    // Reopen cold and project 2 of 12 columns.
    let ex = DeltaExtract::open(&path).unwrap();
    assert!(ex.delta("wide").is_none(), "compaction left aux sections");
    let db = ex.database();
    let cold = db.cache_snapshot();
    assert_eq!(cold.misses, 0, "open must read only the directory");
    let ScanSource::Clean(t) = ex.source("wide").unwrap() else {
        panic!("compacted extract is not clean");
    };
    let rows = Query::scan_columns(&t, &["city", "c7"])
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
        .rows();
    assert_eq!(rows.len(), 5, "four base cities plus the appended one");

    // Exactly three segments loaded: c7 stream, city stream, city heap.
    // The other ten columns never left the disk.
    let after = db.cache_snapshot();
    assert_eq!(
        after.misses, 3,
        "expected only the projected columns' segments: {after:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persisted_delta_survives_reopen_with_nulls() {
    let dir = std::env::temp_dir().join(format!("tde-delta-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("orders.tde2");
    let mut db = Database::new();
    db.add_table((*build(&base_rows(100))).clone());
    save_v2(&db, &path).unwrap();

    let mut ex = DeltaExtract::open(&path).unwrap();
    {
        let dt = ex.delta_mut("orders").unwrap();
        dt.append_rows(&[
            vec![Value::Int(100), Value::Null, Value::Str("quito".into())],
            vec![Value::Int(101), Value::Int(5), Value::Null],
        ])
        .unwrap();
        dt.update(&[4], &[vec![Value::Int(4), Value::Int(99), Value::Null]])
            .unwrap();
    }
    let before = match ex.source("orders").unwrap() {
        ScanSource::Merged(src) => Query::scan(&src).rows(),
        ScanSource::Clean(_) => panic!("live delta reported clean"),
    };
    ex.save().unwrap();
    drop(ex);

    let ex = DeltaExtract::open(&path).unwrap();
    let after = match ex.source("orders").unwrap() {
        ScanSource::Merged(src) => Query::scan(&src).rows(),
        ScanSource::Clean(_) => panic!("restored delta reported clean"),
    };
    assert_eq!(before, after, "persistence changed query results");
    // NULLs round-tripped as NULLs, not as sentinels leaking into values.
    assert!(after
        .iter()
        .any(|r| r[0] == Value::Int(100) && r[1] == Value::Null));
    std::fs::remove_dir_all(&dir).ok();
}
