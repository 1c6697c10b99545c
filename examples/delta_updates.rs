//! Mutations on a read-optimized extract: buffer appends and deletes in
//! a delta store, query the merged view, then compact back into a clean
//! compressed table — and do the same against a persisted v2 file.
//!
//! Run with `cargo run --example delta_updates`.

use std::sync::Arc;
use tde::delta::{DeltaExtract, DeltaTable, ScanSource};
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::pager::save_v2;
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::{DataType, Value};
use tde::Query;

/// A small orders table: FoR-style id, low-cardinality dictionary city,
/// and a nullable quantity.
fn orders(rows: i64) -> Arc<Table> {
    let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
    let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
    let mut city = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        id.append_i64(i);
        qty.append_i64(i % 9 + 1);
        city.append_str(Some(["lyon", "oslo", "kyiv", "lima"][i as usize % 4]));
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

fn rollup(q: Query) -> Vec<Vec<Value>> {
    let mut rows = q
        .aggregate(vec![2], vec![(AggFunc::Sum, 1, "total")])
        .rows();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

fn main() {
    // ------------------------------------------------------------------
    // In memory: wrap a compressed table in a delta store and mutate it.
    // ------------------------------------------------------------------
    let mut dt = DeltaTable::from_eager(orders(10_000));
    println!(
        "base: {} rows, delta empty, clean = {}",
        dt.base_rows(),
        dt.is_clean()
    );

    // Appends go to an uncompressed row buffer. Fresh strings ("quito")
    // extend a copy-on-write heap overlay; NULLs are allowed anywhere.
    dt.append_rows(&[
        vec![
            Value::Int(10_000),
            Value::Int(40),
            Value::Str("quito".into()),
        ],
        vec![Value::Int(10_001), Value::Null, Value::Str("lyon".into())],
        vec![Value::Int(10_002), Value::Int(7), Value::Null],
    ])
    .unwrap();
    // Deletes are tombstones over the merged id space (base ids first,
    // then append slots). This kills one base row and one appended row.
    let killed = dt.delete(&[17, 10_001]).unwrap();
    println!(
        "after mutations: +{} appended, -{killed} deleted, {} bytes buffered",
        dt.delta_rows(),
        dt.buffered_bytes()
    );

    // Queries run merge-on-read: the compressed base scans through the
    // pushed-predicate kernels as usual, the delta leg re-encodes its
    // rows on the fly, and tombstones filter both legs.
    let src = dt.snapshot().unwrap();
    println!("\nsum(qty) by city over the merged view:");
    for row in rollup(Query::scan(&src)) {
        println!("  {row:?}");
    }
    let filtered = Query::scan(&src)
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(8)))
        .rows();
    println!("rows with qty >= 8: {}", filtered.len());

    // Compaction drains the buffer through the dynamic encoder and
    // rebuilds a clean compressed table; answers must not change.
    let before = rollup(Query::scan(&src));
    dt.compact().unwrap();
    assert!(dt.is_clean());
    let after = rollup(Query::scan(&dt.snapshot().unwrap()));
    assert_eq!(before, after, "compaction changed query results");
    println!(
        "\ncompacted: {} rows in the new base, clean = {}",
        dt.base_rows(),
        dt.is_clean()
    );

    // ------------------------------------------------------------------
    // On disk: the same flow against a paged v2 extract. The delta and
    // tombstones persist as auxiliary footer sections, so a half-synced
    // buffer survives process restarts.
    // ------------------------------------------------------------------
    let dir = std::env::temp_dir().join("tde_example_delta");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("orders.tde2");
    let mut db = Database::new();
    db.add_table((*orders(10_000)).clone());
    save_v2(&db, &path).unwrap();

    let mut ex = DeltaExtract::open(&path).unwrap();
    ex.delta_mut("orders")
        .unwrap()
        .append_rows(&[vec![
            Value::Int(10_000),
            Value::Int(99),
            Value::Str("sofia".into()),
        ]])
        .unwrap();
    ex.save().unwrap(); // atomic: tmp file + rename
    drop(ex);

    let mut ex = DeltaExtract::open(&path).unwrap();
    match ex.source("orders").unwrap() {
        ScanSource::Merged(src) => println!(
            "\nreopened with a live delta: {} merged rows",
            Query::scan(&src).rows().len()
        ),
        ScanSource::Clean(_) => unreachable!("saved delta was lost"),
    }

    // Compacting the extract rewrites the file in place (again via a
    // temp-file rename) and drops the aux sections.
    ex.compact("orders").unwrap();
    assert!(matches!(ex.source("orders").unwrap(), ScanSource::Clean(_)));
    println!("compacted on disk: delta sections gone, extract is clean");

    std::fs::remove_dir_all(&dir).ok();
}
