//! Delta store: append throughput, merge-on-read overhead, compaction.
//!
//! The experiment behind the mutable delta buffer: a read-optimized
//! extract takes a stream of appends and deletes, queries keep running
//! against the merged view, and a compaction drains the buffer back
//! into a fresh read-optimized base.
//!
//! Timings:
//!
//! * `append` — buffering rows into a fresh [`DeltaTable`]
//! * `plain scan` — the reference group-by over the base table alone
//! * `empty merged scan` — the same query through a merge-on-read
//!   snapshot with *no* buffered mutations; the tracked ratio against
//!   the plain scan is the acceptance criterion "an idle delta costs
//!   nothing observable"
//! * `live merged scan` — the query with appends and tombstones live
//! * `compact` — draining the buffer through the dynamic encoder
//! * `post-compaction scan` — the query against the rebuilt base
//!
//! Writes `bench_results/BENCH_delta_append.json`.

use std::sync::Arc;
use tde_bench::{banner, measure, BenchReport, Direction, Scale};
use tde_core::Query;
use tde_delta::DeltaTable;
use tde_exec::expr::AggFunc;
use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
use tde_types::{DataType, Value};

const CITIES: [&str; 5] = ["lyon", "oslo", "kyiv", "lima", "bonn"];

/// The read-optimized base: a dense id, a small-domain quantity and a
/// low-cardinality string — one column per encoder family the delta
/// must merge against (FoR/dense, dictionary, heap).
fn base_table(rows: i64) -> Arc<Table> {
    let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
    let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
    let mut city = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        id.append_i64(i);
        qty.append_i64(i % 7);
        city.append_str(Some(CITIES[i as usize % CITIES.len()]));
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

/// The `i`-th appended row. Every 97th city is fresh, forcing the
/// snapshot's heap-overlay path; every 53rd quantity is NULL.
fn delta_row(base_rows: i64, i: i64) -> Vec<Value> {
    let qty = if i % 53 == 0 {
        Value::Null
    } else {
        Value::Int(i % 7)
    };
    let city = if i % 97 == 0 {
        Value::Str(format!("metro{}", i / 97))
    } else {
        Value::Str(CITIES[i as usize % CITIES.len()].to_owned())
    };
    vec![Value::Int(base_rows + i), qty, city]
}

/// The dashboard query: total quantity per city.
fn rollup(q: Query) -> usize {
    q.aggregate(vec![2], vec![(AggFunc::Sum, 1, "total")])
        .rows()
        .len()
}

fn main() {
    let scale = Scale::from_env();
    let rows = std::env::var("TDE_DELTA_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000i64);
    let appends = (rows / 10).max(1000);
    banner(
        "delta_append",
        "delta store: append throughput, merge-on-read overhead, compaction",
    );
    println!("base rows={rows}, appended rows={appends}\n");

    let base = base_table(rows);
    let batch: Vec<Vec<Value>> = (0..appends).map(|i| delta_row(rows, i)).collect();
    let dead: Vec<u64> = (0..rows as u64 / 20)
        .map(|k| k * 13 % rows as u64)
        .collect();
    let base_groups = rollup(Query::scan(&base));

    let mut report = BenchReport::new("delta_append");
    report.json(
        "workload",
        format!(
            "{{\"base_rows\":{rows},\"appends\":{appends},\"deletes\":{}}}",
            dead.len()
        ),
    );

    // Append throughput: a fresh buffer swallows the whole batch.
    let append = measure(scale.reps, || {
        let mut dt = DeltaTable::from_eager(Arc::clone(&base));
        dt.append_rows(&batch).expect("append");
        assert_eq!(dt.delta_rows(), appends as u64);
    });

    // The reference: the same rollup over the base table alone.
    let plain = measure(scale.reps, || {
        assert_eq!(rollup(Query::scan(&base)), base_groups);
    });

    // Empty merged scan: snapshot of a clean buffer. The merge machinery
    // is all still there — tombstone mask, delta blocks — just empty.
    let clean = DeltaTable::from_eager(Arc::clone(&base));
    let clean_src = clean.snapshot().expect("snapshot");
    let empty = measure(scale.reps, || {
        assert_eq!(rollup(Query::scan(&clean_src)), base_groups);
    });

    // Live merged scan: appends buffered, base rows tombstoned.
    let mut live = DeltaTable::from_eager(Arc::clone(&base));
    live.append_rows(&batch).expect("append");
    live.delete(&dead).expect("delete");
    let live_src = live.snapshot().expect("snapshot");
    let live_groups = rollup(Query::scan(&live_src));
    assert!(live_groups >= base_groups);
    let merged = measure(scale.reps, || {
        assert_eq!(rollup(Query::scan(&live_src)), live_groups);
    });

    // Compaction: drain the buffer through the dynamic encoder into a
    // fresh read-optimized table (fresh delta per rep — the cost is the
    // whole rebuild, not an amortized slice of it).
    let merged_rows = live.merged_rows();
    let compact = measure(scale.reps, || {
        let mut dt = DeltaTable::from_eager(Arc::clone(&base));
        dt.append_rows(&batch).expect("append");
        dt.delete(&dead).expect("delete");
        let t = dt.compact().expect("compact");
        assert_eq!(t.row_count() as u64, merged_rows);
    });

    // Post-compaction scan: the rebuilt base answers the query alone.
    let rebuilt = live.compact().expect("compact");
    let post = measure(scale.reps, || {
        assert_eq!(rollup(Query::scan(&rebuilt)), live_groups);
    });

    println!("{:<22} {:>12}", "path", "best (ms)");
    for (name, t) in [
        ("append", append),
        ("plain scan", plain),
        ("empty merged scan", empty),
        ("live merged scan", merged),
        ("compact", compact),
        ("post-compaction scan", post),
    ] {
        println!("{:<22} {:>12.3}", name, t.as_secs_f64() * 1e3);
    }
    let overhead = empty.as_secs_f64() / plain.as_secs_f64().max(1e-9);
    println!("\nempty-delta merged-scan overhead over plain scan: {overhead:.2}x");

    report.timing("append_batch", append);
    report.timing("plain_scan", plain);
    report.timing("empty_merged_scan", empty);
    report.timing("live_merged_scan", merged);
    report.timing("compact", compact);
    report.timing("post_compaction_scan", post);
    report.metric(
        "append_rows_per_s",
        appends as f64 / append.as_secs_f64().max(1e-9),
        "rows/s",
        Direction::Higher,
        2.5,
    );
    // The acceptance criterion: an idle delta's merged scan stays within
    // gate noise of the plain scan.
    report.metric(
        "empty_merged_overhead",
        overhead,
        "x",
        Direction::Lower,
        1.6,
    );
    report.metric_timing("live_merged_scan_ns", merged, 2.0);
    report.metric_timing("compact_ns", compact, 2.0);
    report.metric_timing("post_compaction_scan_ns", post, 2.0);
    report.registry_snapshot();
    report.write();
}
