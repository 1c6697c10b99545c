//! Paged storage: cold-vs-warm scan over a wide table.
//!
//! The experiment behind the buffer pool: a dashboard query touches 2 of
//! 50 columns. The v1 eager format pays for all 50 at open time; the v2
//! paged format reads the directory at open and demand-loads only the
//! two referenced columns' segments, and a repeated scan under a
//! sufficient budget is served entirely from the pool.
//!
//! Three timings, each including whatever I/O the path actually incurs:
//!
//! * `eager` — `Database::load` (whole file) + 2-column aggregate
//! * `paged cold` — `PagedDatabase::open` (directory only) + the same
//!   aggregate, fresh pool each rep
//! * `paged warm` — the same aggregate against an already-warm pool
//!
//! Writes `bench_results/BENCH_paged_scan.json`.

use tde_bench::{banner, file_size, mb, measure, BenchReport, Direction, Scale};
use tde_core::Query;
use tde_exec::expr::AggFunc;
use tde_pager::{save_v2, PagedDatabase, PagedTable};
use tde_storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde_types::DataType;

const COLS: i64 = 49;

/// A 50-column table: 49 integer columns plus one string column, wide
/// enough that eager materialization visibly dominates open time.
fn wide_db(rows: i64) -> Database {
    let mut columns = Vec::new();
    for c in 0..COLS {
        let name = format!("c{c}");
        let mut b = ColumnBuilder::new(&name, DataType::Integer, EncodingPolicy::default());
        for i in 0..rows {
            // Vary the shape per column so the dynamic encoder produces a
            // mix of FoR, dictionary and RLE streams across the table.
            b.append_i64(match c % 3 {
                0 => (i * (c + 3)) % 1000,
                1 => i / 64,
                _ => (i % 7) * 1_000_003,
            });
        }
        columns.push(b.finish().column);
    }
    let mut s = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        s.append_str(Some(
            ["lyon", "oslo", "kyiv", "lima", "bonn"][i as usize % 5],
        ));
    }
    columns.push(s.finish().column);
    let mut db = Database::new();
    db.add_table(Table::new("wide", columns));
    db
}

fn run_query(t: &PagedTable) -> usize {
    Query::scan_columns(t, &["city", "c7"])
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
        .rows()
        .len()
}

fn main() {
    let scale = Scale::from_env();
    let rows = std::env::var("TDE_PAGED_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000i64);
    banner(
        "paged_scan",
        "paged storage: cold-vs-warm 2-of-50-column scan",
    );
    println!("rows={rows}, columns=50, projection touches 2\n");

    let dir = std::env::temp_dir().join("tde_bench_paged");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let v1_path = dir.join(format!("wide_{rows}.tde"));
    let v2_path = dir.join(format!("wide_{rows}.tde2"));
    let db = wide_db(rows);
    db.save(&v1_path).expect("save v1");
    save_v2(&db, &v2_path).expect("save v2");
    drop(db);

    let mut report = BenchReport::new("paged_scan");
    report.json(
        "files",
        format!(
            "{{\"rows\":{rows},\"v1_bytes\":{},\"v2_bytes\":{}}}",
            file_size(&v1_path),
            file_size(&v2_path)
        ),
    );

    // Eager: the whole file is deserialized before the first block flows.
    let eager = measure(scale.reps, || {
        let mut db = Database::load(&v1_path).expect("load v1");
        let t = std::sync::Arc::new(db.tables.remove(0));
        let n = Query::scan_columns(&t, &["city", "c7"])
            .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
            .rows()
            .len();
        assert_eq!(n, 5);
    });

    // Paged cold: fresh pool each rep; only the directory and the two
    // projected columns' segments are read.
    let cold = measure(scale.reps, || {
        let db = PagedDatabase::open(&v2_path).expect("open v2");
        let t = db.table("wide").expect("table");
        assert_eq!(run_query(&t), 5);
    });

    // Paged warm: one pool, pre-warmed, every rep served from memory.
    let warm_db = PagedDatabase::open(&v2_path).expect("open v2");
    let warm_table = warm_db.table("wide").expect("table");
    run_query(&warm_table);
    let before_warm = warm_db.cache_snapshot();
    let warm = measure(scale.reps, || {
        assert_eq!(run_query(&warm_table), 5);
    });
    let after_warm = warm_db.cache_snapshot();
    assert_eq!(
        after_warm.misses, before_warm.misses,
        "warm reps must not touch the disk"
    );

    println!(
        "{:<14} {:>12} {:>14}",
        "path", "best (ms)", "file read (MB)"
    );
    for (name, t, bytes) in [
        ("eager v1", eager, file_size(&v1_path)),
        ("paged cold", cold, after_warm.bytes_read),
        ("paged warm", warm, 0),
    ] {
        println!(
            "{:<14} {:>12.3} {:>14}",
            name,
            t.as_secs_f64() * 1e3,
            mb(bytes)
        );
    }
    println!(
        "\ncold speedup over eager: {:.1}x; warm over cold: {:.1}x",
        eager.as_secs_f64() / cold.as_secs_f64().max(1e-9),
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9)
    );
    println!("warm pool: {}", after_warm);

    report.timing("eager_v1_load_and_scan", eager);
    report.timing("paged_cold_open_and_scan", cold);
    report.timing("paged_warm_scan", warm);
    report.json("warm_pool", after_warm.to_json());
    report.json("warm_delta", after_warm.since(&before_warm).to_json());
    report.metric_timing("eager_v1_ns", eager, 2.0);
    report.metric_timing("paged_cold_ns", cold, 2.0);
    report.metric_timing("paged_warm_ns", warm, 2.0);
    report.metric(
        "cold_speedup_over_eager",
        eager.as_secs_f64() / cold.as_secs_f64().max(1e-9),
        "x",
        Direction::Higher,
        2.5,
    );
    // File size is deterministic for a fixed row count: flag any growth.
    report.metric(
        "v2_file_bytes",
        file_size(&v2_path) as f64,
        "bytes",
        Direction::Lower,
        1.05,
    );
    report.registry_snapshot();
    report.write();
}
