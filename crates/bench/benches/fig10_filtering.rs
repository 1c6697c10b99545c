//! Experiment E7 — Figure 10: filtering with indexed scans.
//!
//! The §6.6 query
//!
//! ```sql
//! SELECT Index, MAX(Other) FROM table
//! WHERE Index > (100 - selectivity) GROUP BY Index
//! ```
//!
//! under the paper's three plans:
//!
//! 1. `Scan → Filter → Aggregate` (control)
//! 2. `Index → Filter → IndexedScan → Aggregate` (hash aggregation)
//! 3. `Index → Filter → Sort → IndexedScan → OrdAggr` (ordered retrieval)
//!
//! over both sort columns of the small and large run-length tables,
//! across a selectivity sweep.
//!
//! Paper shape: plan 2/3 beat the control ~2× on the primary key; plan 3
//! wins ~3× on the *secondary* key of the large table (runs longer than
//! the block iteration size) but *loses* on the small table (runs of
//! ~100 rows — many small reads).

use std::sync::Arc;
use tde_bench::*;
use tde_core::Query;
use tde_exec::expr::{AggFunc, CmpOp, Expr};
use tde_plan::strategic::OptimizerOptions;
use tde_storage::Table;

const SELECTIVITIES: [i64; 6] = [1, 5, 10, 25, 50, 100];

fn run_query(
    table: &Arc<Table>,
    key: &str,
    other: &str,
    selectivity: i64,
    opts: OptimizerOptions,
) -> usize {
    Query::scan_columns(table, &[key, other])
        .filter(Expr::cmp(
            CmpOp::Gt,
            Expr::col(0),
            Expr::int(100 - selectivity),
        ))
        .aggregate(vec![0], vec![(AggFunc::Max, 1, "mx")])
        .with_optimizer(opts)
        .rows()
        .len()
}

fn sweep(table: &Arc<Table>, rows: u64, reps: usize) {
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
        println!("\n-- {rows} rows, filter on {key} --");
        println!(
            "{:>11} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "selectivity", "plan1 scan", "plan2 index", "plan3 sorted", "p1/p2", "p1/p3"
        );
        for sel in SELECTIVITIES {
            let mut groups = [0usize; 3];
            let t1 = measure(reps, || {
                groups[0] = run_query(table, key, other, sel, control);
            });
            let t2 = measure(reps, || {
                groups[1] = run_query(table, key, other, sel, indexed);
            });
            let t3 = measure(reps, || {
                groups[2] = run_query(table, key, other, sel, ordered);
            });
            assert_eq!(groups[0], groups[1], "plans disagree");
            assert_eq!(groups[0], groups[2], "plans disagree");
            println!(
                "{:>10}% {:>11.4}s {:>11.4}s {:>11.4}s {:>7.2}x {:>7.2}x",
                sel,
                t1.as_secs_f64(),
                t2.as_secs_f64(),
                t3.as_secs_f64(),
                t1.as_secs_f64() / t2.as_secs_f64(),
                t1.as_secs_f64() / t3.as_secs_f64(),
            );
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 10",
        "filter + aggregate over run-length data, three plans",
    );
    println!(
        "(RLE_SMALL={}, RLE_LARGE={}, reps={})",
        scale.rle_small, scale.rle_large, scale.reps
    );

    for (label, rows) in [("small", scale.rle_small), ("large", scale.rle_large)] {
        println!("\nbuilding the {label} table ...");
        let table = build_rle_table(rows, 99);
        let runs = table.columns[1].data.rle_runs().map_or(1, |r| r.len());
        let avg = rows as f64 / runs as f64;
        println!(
            "  secondary runs: {} (avg {:.0} rows — {} the {}-row block size)",
            runs,
            avg,
            if avg >= tde_encodings::BLOCK_SIZE as f64 {
                "above"
            } else {
                "below"
            },
            tde_encodings::BLOCK_SIZE
        );
        sweep(&table, rows, scale.reps);
    }

    println!("\nPaper: index plans ≈2× over the control on the primary key; the");
    println!("ordered plan wins ~3× on the large table's secondary key and loses");
    println!("on the small one. Here plans 2 and 3 fold runs, not rows (their");
    println!("aggregate reads run-carrying blocks); plan 1 reads rows.");
}
