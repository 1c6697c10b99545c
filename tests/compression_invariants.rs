//! Cross-crate property tests: whatever the import pipeline, optimizer and
//! storage layers do to a column, the values it yields must never change,
//! and the paper's structural invariants must hold.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{ColumnBuilder, EncodingPolicy, Table};
use tde::types::{DataType, Value};
use tde::{Extract, Query};

fn int_table(data: &[i64]) -> Arc<Table> {
    let mut b = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
    b.append_raw(data);
    let mut idx = ColumnBuilder::new("i", DataType::Integer, EncodingPolicy::default());
    for i in 0..data.len() as i64 {
        idx.append_i64(i);
    }
    Arc::new(Table::new(
        "t",
        vec![b.finish().column, idx.finish().column],
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(32)))]

    #[test]
    fn built_column_roundtrips(data in vec(any::<i64>(), 1..3000)) {
        let t = int_table(&data);
        for (row, &v) in data.iter().enumerate() {
            let got = t.columns[0].value(row as u64);
            if v == i64::MIN {
                prop_assert_eq!(got, Value::Null); // sentinel
            } else {
                prop_assert_eq!(got, Value::Int(v));
            }
        }
    }

    #[test]
    fn filter_matches_reference(data in vec(-100i64..100, 1..4000), threshold in -100i64..100) {
        let t = int_table(&data);
        let rows = Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(threshold)))
            .rows();
        let expect = data.iter().filter(|&&v| v > threshold).count();
        prop_assert_eq!(rows.len(), expect);
    }

    #[test]
    fn aggregate_matches_reference(data in vec(0i64..20, 1..4000)) {
        let t = int_table(&data);
        let mut rows = Query::scan(&t)
            .aggregate(vec![0], vec![(AggFunc::Count, 1, "n"), (AggFunc::Max, 1, "mx")])
            .rows();
        rows.sort_by_key(|r| r[0].as_i64());
        let mut expect: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for (i, &v) in data.iter().enumerate() {
            let e = expect.entry(v).or_insert((0, i64::MIN));
            e.0 += 1;
            e.1 = e.1.max(i as i64);
        }
        prop_assert_eq!(rows.len(), expect.len());
        for (row, (k, (n, mx))) in rows.iter().zip(expect) {
            prop_assert_eq!(row[0].as_i64(), Some(k));
            prop_assert_eq!(row[1].as_i64(), Some(n));
            prop_assert_eq!(row[2].as_i64(), Some(mx));
        }
    }

    #[test]
    fn optimizer_rewrites_never_change_results(
        runs in vec((0i64..50, 1u64..200), 1..40),
        threshold in 0i64..50,
    ) {
        // Run-length data: the IndexTable rewrite must agree with the
        // row-at-a-time control on arbitrary run structures.
        let mut data = Vec::new();
        for &(v, c) in &runs {
            data.extend(std::iter::repeat_n(v, c as usize));
        }
        let t = int_table(&data);
        let build = |opts: OptimizerOptions| {
            let mut rows = Query::scan(&t)
                .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(threshold)))
                .aggregate(vec![0], vec![(AggFunc::Count, 1, "n"), (AggFunc::Max, 1, "mx")])
                .with_optimizer(opts)
                .rows();
            rows.sort_by_key(|r| r[0].as_i64());
            rows
        };
        let clever = build(OptimizerOptions::default());
        let naive = build(OptimizerOptions {
            invisible_joins: false,
            index_tables: false,
            ordered_retrieval: false,
            kernel_pushdown: false,
            parallelism: 1,
        });
        prop_assert_eq!(clever, naive);
    }

    #[test]
    fn database_file_roundtrip(data in vec(-1000i64..1000, 1..2000), strings in vec(0usize..5, 1..2000)) {
        let n = data.len().min(strings.len());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        for i in 0..n {
            v.append_i64(data[i]);
            s.append_str(Some(words[strings[i]]));
        }
        let t1 = Table::new("t", vec![v.finish().column, s.finish().column]);
        let mut ex = Extract::new();
        ex.add_table(t1.clone());
        let path = std::env::temp_dir().join(format!("tde_invariants_{}.tde", std::process::id()));
        ex.save(&path).unwrap();
        let t2 = Extract::load(&path).unwrap().table("t").unwrap();
        std::fs::remove_file(&path).ok();
        for row in 0..n as u64 {
            prop_assert_eq!(t1.columns[0].value(row), t2.columns[0].value(row));
            prop_assert_eq!(t1.columns[1].value(row), t2.columns[1].value(row));
        }
    }

    #[test]
    fn physical_never_exceeds_logical_by_much(data in vec(any::<i64>(), 512..4000)) {
        // Worst case (incompressible) costs one partial block of overhead
        // plus headers; encodings must never blow a column up materially.
        let t = int_table(&data);
        let col = &t.columns[0];
        let slack = (tde::encodings::BLOCK_SIZE * 8 + 1024) as u64;
        prop_assert!(
            col.physical_size() <= col.logical_size() + slack,
            "physical {} vs logical {}",
            col.physical_size(),
            col.logical_size()
        );
    }

    #[test]
    fn narrowed_width_is_sound(data in vec(-300i64..300, 1..3000)) {
        // The width metadata must truly bound every stored value.
        let t = int_table(&data);
        let w = t.columns[0].metadata.width;
        let lo = -(1i128 << (w.bits() - 1));
        let hi = (1i128 << (w.bits() - 1)) - 1;
        for &v in &data {
            prop_assert!(i128::from(v) >= lo && i128::from(v) <= hi, "{v} outside {w}");
        }
    }
}

/// Triage of `compression_invariants.proptest-regressions` (seed
/// `cc 9b28…`, shrunk to `data = [-34, 287, 135]`): a mixed-sign column
/// whose width statistics straddle a signed/unsigned boundary once
/// tripped the round-trip property above. The offline proptest shim used
/// in this build does not read persistence files (no shrinking, no seed
/// replay), so the shrunk case is pinned here as an explicit test instead
/// of relying on the regression file being consumed.
#[test]
fn regression_built_column_roundtrips_mixed_signs() {
    let data = [-34i64, 287, 135];
    let t = int_table(&data);
    for (row, &v) in data.iter().enumerate() {
        assert_eq!(t.columns[0].value(row as u64), Value::Int(v));
    }
}
