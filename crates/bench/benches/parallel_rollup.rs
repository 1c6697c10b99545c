//! Ablation A3 — §8: parallel ordered aggregation on rolled-up dates.
//!
//! The paper's future-work proposal, implemented and measured: roll a
//! daily IndexTable up to month starts with `MIN(start)` / `SUM(count)`
//! (an order-preserving calculation performed on the *index*, not the
//! rows), partition the index range, and run the IndexedScan + ordered
//! aggregation for each partition as a task of the morsel runtime.

use std::sync::Arc;
use std::time::Instant;
use tde_bench::{banner, Scale};
use tde_core::exec::aggregate::AggSpec;
use tde_core::exec::count_rows;
use tde_core::exec::expr::AggFunc;
use tde_core::exec::index_table::{index_table, rollup_index};
use tde_core::exec::morsel::MorselExec;
use tde_encodings::{EncodedStream, BLOCK_SIZE};
use tde_storage::{Column, Table};
use tde_types::datetime::{days_from_ymd, trunc_to_month};
use tde_types::{DataType, Width};

fn build(rows: u64) -> Arc<Table> {
    // Ten years of sorted daily dates plus a payload.
    let days = 3650u64;
    let per_day = (rows / days).max(1);
    let d0 = days_from_ymd(1998, 1, 1);
    let mut date = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W4);
    let mut pay_data = Vec::with_capacity(rows as usize);
    let mut block = Vec::with_capacity(BLOCK_SIZE);
    for d in 0..days {
        for j in 0..per_day {
            block.push(d0 + d as i64);
            pay_data.push(((d * 31 + j) % 997) as i64);
            if block.len() == BLOCK_SIZE {
                date.append_block(&block).unwrap();
                block.clear();
            }
        }
    }
    date.append_block(&block).unwrap();
    let pay = tde_encodings::dynamic::encode_all(&pay_data, Width::W8, true).stream;
    Arc::new(Table::new(
        "events",
        vec![
            Column::scalar("day", DataType::Date, date),
            Column::scalar("pay", DataType::Integer, pay),
        ],
    ))
}

fn main() {
    let scale = Scale::from_env();
    let rows = scale.rle_large / 2;
    banner(
        "§8 (A3)",
        "parallel ordered aggregation on a rolled-up date index",
    );
    println!("building {rows} rows over 10 years of daily dates ...");
    let t = build(rows);
    let (daily, _) = index_table(&t.columns[0], "daily");
    let (monthly, _) = rollup_index(&daily, trunc_to_month, "monthly");
    println!(
        "daily index: {} rows → monthly index: {} rows\n",
        daily.row_count(),
        monthly.row_count()
    );
    let aggs = vec![
        AggSpec::new(AggFunc::Count, 1, "n"),
        AggSpec::new(AggFunc::Max, 1, "mx"),
    ];

    println!("{:>8} {:>10} {:>9}", "workers", "seconds", "speedup");
    let mut baseline = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let mut best = f64::MAX;
        let mut groups = 0;
        for _ in 0..scale.reps.max(2) {
            let t0 = Instant::now();
            let rollup = MorselExec::rollup(&monthly, &t, &["pay"], aggs.clone(), workers);
            groups = count_rows(Box::new(rollup));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        assert_eq!(groups, 120, "ten years of months");
        if workers == 1 {
            baseline = best;
        }
        println!("{:>8} {:>10.4} {:>8.2}x", workers, best, baseline / best);
    }
    println!("\nPartials concatenate in index order; a month cut by a partition");
    println!("boundary is rejoined by the ordered merge — no hash table.");
}
