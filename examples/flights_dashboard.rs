//! A Flights "dashboard": the analytic queries a Tableau-style viz would
//! issue against an imported FAA on-time extract — showcasing invisible
//! joins on a dictionary-compressed date column, pushed-down computations
//! (month extraction on the date *domain*, not the rows), and
//! small-domain string aggregation with tactically chosen hashing.
//!
//! ```sh
//! cargo run --release --example flights_dashboard [rows]
//! ```

use std::sync::Arc;
use tde::datagen::flights;
use tde::design::{optimize_physical_design, DesignOptions};
use tde::exec::expr::{AggFunc, CmpOp, Expr, Func};
use tde::plan::logical::{InnerOps, LogicalPlan};
use tde::plan::physical;
use tde::textscan::{import_file, ImportOptions};
use tde::Query;

fn main() -> std::io::Result<()> {
    let rows: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    let dir = std::env::temp_dir().join("tde_flights_dashboard");
    std::fs::create_dir_all(&dir)?;
    let csv = dir.join("flights.csv");

    println!("generating {rows} flights ...");
    flights::write_file(&csv, rows, 7)?;

    let mut result = import_file(
        &csv,
        &ImportOptions {
            table_name: "flights".into(),
            ..Default::default()
        },
    )?;
    // Physical design pass: dictionary-compress the date dimension so date
    // calculations can run on the domain via invisible joins (§3.4.3).
    let changes = optimize_physical_design(&mut result.table, DesignOptions::default());
    println!("design pass: {changes:?}\n");
    let flights = Arc::new(result.table);

    // Dashboard panel 1: flights and worst delay per carrier.
    println!("== flights per carrier ==");
    let mut rows1 = Query::scan_columns(&flights, &["carrier", "arr_delay"])
        .aggregate(
            vec![0],
            vec![(AggFunc::Count, 1, "flights"), (AggFunc::Max, 1, "worst")],
        )
        .rows();
    rows1.sort_by_key(|r| std::cmp::Reverse(r[1].as_i64()));
    for r in rows1.iter().take(5) {
        println!(
            "  {:<3} {:>8} flights, worst arrival delay {:>4} min",
            r[0], r[1], r[2]
        );
    }

    // Dashboard panel 2: a date-range filter. The strategic optimizer
    // rewrites this into an invisible join with the range pushed onto the
    // date dictionary.
    let q = Query::scan_columns(&flights, &["flight_date", "dep_delay"]).filter(Expr::And(
        Box::new(Expr::cmp(
            CmpOp::Ge,
            Expr::col(0),
            Expr::Lit(tde::types::Value::date(2003, 1, 1)),
        )),
        Box::new(Expr::cmp(
            CmpOp::Lt,
            Expr::col(0),
            Expr::Lit(tde::types::Value::date(2004, 1, 1)),
        )),
    ));
    println!("\n== 2003 date-range plan (filter pushed onto the dictionary) ==");
    print!(
        "{}",
        Query::scan_columns(&flights, &["flight_date", "dep_delay"])
            .filter(Expr::And(
                Box::new(Expr::cmp(
                    CmpOp::Ge,
                    Expr::col(0),
                    Expr::Lit(tde::types::Value::date(2003, 1, 1)),
                )),
                Box::new(Expr::cmp(
                    CmpOp::Lt,
                    Expr::col(0),
                    Expr::Lit(tde::types::Value::date(2004, 1, 1)),
                )),
            ))
            .explain()
    );
    let n2003 = q.rows().len();
    println!("flights in 2003: {n2003}");

    // Dashboard panel 3: month extraction computed on the date *domain*
    // (a few thousand distinct days) instead of every row, then joined
    // back — the §3.4.3 motivation, built explicitly here.
    let date_col = flights.column_index("flight_date").unwrap();
    let plan = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::ExpandJoin {
            outer: Box::new(Query::scan_columns(&flights, &["flight_date", "dep_delay"]).plan()),
            column: 0,
            source: (flights.clone(), date_col),
            inner: InnerOps {
                filter: None,
                compute: Some((
                    "month".into(),
                    Expr::Func(Func::Month, Box::new(Expr::col(1))),
                )),
            },
        }),
        group_by: vec![0],
        aggs: vec![tde::exec::aggregate::AggSpec::new(
            AggFunc::Count,
            1,
            "flights",
        )],
    };
    println!("\n== flights per month (month computed on the date domain) ==");
    let (_, blocks) = physical::try_run(&plan).expect("in-memory plan lowers");
    let mut rows3: Vec<(i64, i64)> = Vec::new();
    for b in &blocks {
        for r in 0..b.len {
            rows3.push((b.columns[0][r], b.columns[1][r]));
        }
    }
    rows3.sort_unstable();
    for (m, n) in rows3 {
        println!("  month {m:>2}: {n:>8} flights");
    }
    Ok(())
}
