//! Paged storage: save an extract in the block-aligned v2 format, reopen
//! it lazily, and watch the buffer pool demand-load only the column
//! segments a query actually touches.
//!
//! Run with `cargo run --example paged_storage`.

use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::pager::save_v2;
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::DataType;
use tde::{Extract, Query};

fn main() {
    // A wide table of the kind dashboards produce: 40 measure columns
    // plus one dimension, 100 000 rows.
    let rows = 100_000i64;
    let mut columns = Vec::new();
    for c in 0..40 {
        let name = format!("m{c}");
        let mut b = ColumnBuilder::new(&name, DataType::Integer, EncodingPolicy::default());
        for i in 0..rows {
            b.append_i64((i * (c + 3)) % 10_000);
        }
        columns.push(b.finish().column);
    }
    let mut dim = ColumnBuilder::new("region", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        dim.append_str(Some(["north", "south", "east", "west"][i as usize % 4]));
    }
    columns.push(dim.finish().column);

    let mut db = Database::new();
    db.add_table(Table::new("metrics", columns));

    let dir = std::env::temp_dir().join("tde_example_paged");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.tde2");
    save_v2(&db, &path).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();
    println!("wrote {} ({} bytes, 41 columns)", path.display(), file_len);

    // Opening reads only the footer and directory — no column data yet.
    let paged = Extract::open_paged(&path).unwrap();
    let metrics = paged.table("metrics").unwrap();
    let opened = paged.cache_snapshot();
    println!(
        "\nafter open:  {} of {} bytes resident ({} segment loads)",
        opened.bytes_cached, file_len, opened.misses
    );

    // A dashboard query touching 2 of the 41 columns. The executor
    // resolves them through the buffer pool; the other 39 stay on disk.
    let report = Query::scan_columns(&metrics, &["region", "m7"])
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(5_000)))
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
        .explain_analyze();
    println!("\n{report}");

    let after = paged.cache_snapshot();
    println!(
        "after query: {} of {} bytes resident ({} segment loads: \
         m7 stream, region stream, region heap)",
        after.bytes_cached, file_len, after.misses
    );

    // Run it again: every lookup is a pool hit, nothing touches the disk.
    Query::scan_columns(&metrics, &["region", "m7"])
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
        .rows();
    let warm = paged.cache_snapshot();
    println!(
        "warm rerun:  +{} loads, +{} hits — served from the pool",
        warm.misses - after.misses,
        warm.hits - after.hits
    );

    std::fs::remove_file(&path).ok();
}
