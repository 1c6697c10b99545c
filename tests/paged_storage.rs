//! Acceptance tests for the paged storage engine: a query projecting 2
//! of N columns from a v2 file loads only those columns' segments, and a
//! repeated scan under sufficient budget runs entirely from the buffer
//! pool.

use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::pager::{save_v2, PagedDatabase, PoolConfig};
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::DataType;
use tde::Query;

/// A 50-column table: 49 integer columns plus one string column.
fn wide_db(rows: i64) -> Database {
    let mut columns = Vec::new();
    for c in 0..49 {
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

fn save_wide(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tde_paged_acceptance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    save_v2(&wide_db(5000), &path).unwrap();
    path
}

#[test]
fn projection_of_two_columns_loads_only_their_segments() {
    let path = save_wide("proj.tde2");
    let db = PagedDatabase::open(&path).unwrap();
    let t = db.table("wide").unwrap();
    assert_eq!(t.column_names().len(), 50);

    // Opening read only the directory: nothing cached yet.
    let cold = db.cache_snapshot();
    assert_eq!(cold.misses, 0);
    assert_eq!(cold.bytes_cached, 0);

    // Query 2 of 50 columns.
    let rows = Query::scan_columns(&t, &["city", "c7"])
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(500)))
        .rows();
    assert_eq!(rows.len(), 2500);

    // Exactly three segments loaded: c7 stream, city stream, city heap.
    // The other 48 columns never left the disk.
    let after = db.cache_snapshot();
    assert_eq!(
        after.misses, 3,
        "expected only the projected columns' segments: {after:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_scan_under_budget_is_all_hits() {
    let path = save_wide("warm.tde2");
    let db = PagedDatabase::open(&path).unwrap();
    let t = db.table("wide").unwrap();

    let agg = |t: &tde::pager::PagedTable| {
        Query::scan_columns(t, &["city", "c3"])
            .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
            .rows()
    };
    let first = agg(&t);
    let cold = db.cache_snapshot();
    assert!(cold.misses > 0);

    let second = agg(&t);
    let warm = db.cache_snapshot();
    assert_eq!(first, second);
    assert_eq!(
        warm.misses, cold.misses,
        "second pass must be served entirely from the pool"
    );
    assert!(warm.hits > cold.hits);
    assert_eq!(warm.evictions, 0, "default budget fits two columns");
    std::fs::remove_file(&path).ok();
}

#[test]
fn tiny_budget_evicts_but_stays_correct() {
    let path = save_wide("tiny.tde2");
    let db = PagedDatabase::open_with(
        &path,
        PoolConfig {
            budget_bytes: 4096,
            shards: 2,
        },
    )
    .unwrap();
    let t = db.table("wide").unwrap();

    // Touch many columns under a budget far too small to hold them.
    for c in 0..20 {
        let name = format!("c{c}");
        let col = t.column(&name).unwrap();
        assert_eq!(col.name, name);
    }
    let snap = db.cache_snapshot();
    assert!(snap.evictions > 0, "tiny budget must evict: {snap:?}");

    // Values stay correct after eviction and reload.
    let rows = Query::scan_columns(&t, &["c0"]).rows();
    assert_eq!(rows.len(), 5000);
    std::fs::remove_file(&path).ok();
}
