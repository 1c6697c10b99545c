//! Decompression joins over run-length data: the paper's §6.6 query
//!
//! ```sql
//! SELECT Index, MAX(Other) FROM table
//! WHERE Index > (100 - selectivity) GROUP BY Index
//! ```
//!
//! executed under the three plans of Fig 10 — the row-at-a-time control,
//! the IndexTable plan with hash aggregation, and the value-sorted
//! IndexTable plan with ordered aggregation — printing timings so the
//! plans can be compared interactively.
//!
//! ```sh
//! cargo run --release --example rle_index_scan [rows] [selectivity]
//! ```

use std::sync::Arc;
use std::time::Instant;
use tde::datagen::rle::RleTable;
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{Column, ColumnBuilder, EncodingPolicy, Table};
use tde::types::DataType;
use tde::Query;

/// Build the §5.3 table: primary and secondary RLE columns.
fn build(rows: u64) -> Arc<Table> {
    let spec = RleTable::generate(rows, 99);
    let make = |runs: Vec<(i64, u64)>, name: &str| -> Column {
        let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
        for (v, c) in runs {
            for _ in 0..c {
                b.append_i64(v);
            }
        }
        b.finish().column
    };
    let primary = make(spec.primary_runs(), "primary");
    let secondary = make(spec.secondary_runs(), "secondary");
    println!(
        "  primary: {} runs, secondary: {} runs (avg {:.0} rows/run)",
        primary.data.rle_runs().map_or(0, |r| r.len()),
        secondary.data.rle_runs().map_or(0, |r| r.len()),
        spec.avg_secondary_run(),
    );
    Arc::new(Table::new("rle", vec![primary, secondary]))
}

fn query(
    table: &Arc<Table>,
    key: &str,
    other: &str,
    selectivity: i64,
    opts: OptimizerOptions,
) -> (usize, f64) {
    let q = Query::scan_columns(table, &[key, other])
        .filter(Expr::cmp(
            CmpOp::Gt,
            Expr::col(0),
            Expr::int(100 - selectivity),
        ))
        .aggregate(vec![0], vec![(AggFunc::Max, 1, "mx")])
        .with_optimizer(opts);
    let start = Instant::now();
    let n = q.rows().len();
    (n, start.elapsed().as_secs_f64())
}

fn main() {
    let rows: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let sel: i64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);
    println!("building {rows}-row run-length table ...");
    let table = build(rows);

    let control = OptimizerOptions {
        invisible_joins: false,
        index_tables: false,
        ordered_retrieval: false,
        kernel_pushdown: false,
        parallelism: 1,
    };
    let indexed = OptimizerOptions {
        ordered_retrieval: false,
        kernel_pushdown: false,
        ..Default::default()
    };
    let ordered = OptimizerOptions::default();

    for key in ["primary", "secondary"] {
        let other = if key == "primary" {
            "secondary"
        } else {
            "primary"
        };
        println!(
            "\nSELECT {key}, MAX({other}) WHERE {key} > {} GROUP BY {key}",
            100 - sel
        );
        let (n1, t1) = query(&table, key, other, sel, control);
        println!("  plan 1  Scan→Filter→Aggregate              {t1:>8.4}s  ({n1} groups)");
        let (n2, t2) = query(&table, key, other, sel, indexed);
        println!("  plan 2  Index→Filter→IndexedScan→HashAgg   {t2:>8.4}s  ({n2} groups)");
        let (n3, t3) = query(&table, key, other, sel, ordered);
        println!("  plan 3  Index→Filter→Sort→IndexedScan→Ord  {t3:>8.4}s  ({n3} groups)");
        assert_eq!(n1, n2);
        assert_eq!(n1, n3);
        println!("  speedup: plan2 {:.2}x, plan3 {:.2}x", t1 / t2, t1 / t3);
    }
    println!("\n(Plans 2 and 3 fold runs, not rows: their aggregate reads one weighted");
    println!(" row per segment of runs, so they pay per qualified run — the paper's");
    println!(" short-run degradation of plan 3 is gone; see EXPERIMENTS.md E7.)");
}
