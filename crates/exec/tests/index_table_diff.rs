//! Differential test: the IndexTable written straight into fixed-width
//! streams against one built the reference way, every index row through
//! a `ColumnBuilder`. The decoded (value, count, start) columns must be
//! identical, and the value column — whose metadata steers the tactical
//! choices above an IndexedScan — must carry exactly the builder's
//! claims. Count and start carry hand-derived claims instead; each must
//! hold on the decoded data.
//!
//! A resident table memoises each run-length column's IndexTable and run
//! index (`Table::run_index`), and the planner reads the memo: it must
//! hold exactly what a fresh build holds.

use std::sync::Arc;
use tde_encodings::metadata::Knowledge;
use tde_encodings::{EncodedStream, BLOCK_SIZE};
use tde_exec::index_table::{index_table, rollup_index};
use tde_storage::{Column, ColumnBuilder, EncodingPolicy, RunIndex, Table};
use tde_types::datetime::trunc_to_month;
use tde_types::sentinel::NULL_I64;
use tde_types::{DataType, Width};

/// The reference IndexTable: every index row appended to a
/// `ColumnBuilder` per column (raw appends, so a Real value column takes
/// its bit patterns as they are stored).
fn reference_index(dtype: DataType, rows: &[(i64, i64, i64)]) -> Table {
    let mut value = ColumnBuilder::new("value", dtype, EncodingPolicy::default());
    let mut count = ColumnBuilder::new("count", DataType::Integer, EncodingPolicy::default());
    let mut start = ColumnBuilder::new("start", DataType::Integer, EncodingPolicy::default());
    for &(v, c, s) in rows {
        value.append_raw(&[v]);
        count.append_raw(&[c]);
        start.append_raw(&[s]);
    }
    Table::new(
        "reference",
        vec![
            value.finish().column,
            count.finish().column,
            start.finish().column,
        ],
    )
}

fn reference_rows(column: &Column) -> Vec<(i64, i64, i64)> {
    let mut at = 0i64;
    let mut rows = Vec::new();
    for (v, c) in column.data.rle_runs().unwrap() {
        rows.push((v, c as i64, at));
        at += c as i64;
    }
    rows
}

/// The reference §8 rollup over decoded index rows.
fn reference_rollup(index: &Table, rollup: &dyn Fn(i64) -> i64) -> Vec<(i64, i64, i64)> {
    let cols: Vec<Vec<i64>> = index.columns.iter().map(|c| c.data.decode_all()).collect();
    let mut out: Vec<(i64, i64, i64)> = Vec::new();
    for ((&v, &c), &s) in cols[0].iter().zip(&cols[1]).zip(&cols[2]) {
        let r = rollup(v);
        match out.last_mut() {
            Some(last) if last.0 == r => {
                last.1 += c;
                last.2 = last.2.min(s);
            }
            _ => out.push((r, c, s)),
        }
    }
    out
}

fn assert_same_index(got: &Arc<Table>, reference: &Table, what: &str) {
    for (g, r) in got.columns.iter().zip(&reference.columns) {
        assert_eq!(g.name, r.name, "{what}");
        assert_eq!(
            g.data.decode_all(),
            r.data.decode_all(),
            "{what}: column {}",
            g.name
        );
    }
    assert_eq!(
        got.columns[0].metadata, reference.columns[0].metadata,
        "{what}: value metadata"
    );
    for c in &got.columns[1..] {
        check_claims(c, what);
    }
    let start = &got.columns[2].metadata;
    if got.row_count() > 0 {
        assert!(start.sorted_asc.is_true(), "{what}: start sorted");
    }
}

/// Every claim a hand-derived column makes holds on its values.
fn check_claims(col: &Column, what: &str) {
    let vals = col.data.decode_all();
    let md = &col.metadata;
    let what = format!("{what}: {} {md:?}", col.name);
    let ascending = vals.windows(2).all(|w| w[0] <= w[1]);
    match md.sorted_asc {
        Knowledge::True => assert!(ascending, "{what}"),
        Knowledge::False => assert!(!ascending, "{what}"),
        Knowledge::Unknown => {}
    }
    let mut sorted = vals.clone();
    sorted.sort_unstable();
    let unique = sorted.windows(2).all(|w| w[0] < w[1]);
    match md.unique {
        Knowledge::True => assert!(unique, "{what}"),
        Knowledge::False => assert!(!unique, "{what}"),
        Knowledge::Unknown => {}
    }
    assert_eq!(md.dense, Knowledge::Unknown, "{what}");
    assert_eq!(md.min, vals.iter().min().copied(), "{what}");
    assert_eq!(md.max, vals.iter().max().copied(), "{what}");
    let nulls = vals.contains(&NULL_I64);
    if md.has_nulls.is_known() {
        assert_eq!(md.has_nulls.is_true(), nulls, "{what}");
    }
    assert_eq!(md.width, col.data.width(), "{what}");
}

/// A run-length column holding `runs` in fields of the given widths
/// (narrow count fields split long runs into adjacent equal pairs).
fn rle_column(dtype: DataType, runs: &[(i64, u64)], cw: Width, vw: Width) -> Column {
    let mut s = EncodedStream::new_rle(Width::W8, true, cw, vw);
    let mut data = Vec::new();
    for &(v, c) in runs {
        data.extend(std::iter::repeat_n(v, c as usize));
    }
    for chunk in data.chunks(BLOCK_SIZE) {
        s.append_block(chunk).unwrap();
    }
    Column::scalar("k", dtype, s)
}

/// A named run sequence and the count-field width to store it with.
type Shape = (&'static str, Vec<(i64, u64)>, Width);

/// Run sequences of many shapes: sorted keys, repeating keys (the §5.3
/// secondary), NULL runs, wide and extreme values, a broken progression,
/// a growing domain.
fn run_shapes(seed: u64) -> Vec<Shape> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let n = 1 + rnd(3000) as usize;
    let mut len = || 1 + rnd(400);
    vec![
        (
            "sorted",
            (0..n as i64).map(|v| (v, len())).collect(),
            Width::W4,
        ),
        (
            "secondary",
            (0..n).map(|i| ((i % 100) as i64, len())).collect(),
            Width::W2,
        ),
        (
            "nulls",
            (0..n)
                .map(|i| (if i % 7 == 3 { NULL_I64 } else { i as i64 }, len()))
                .collect(),
            Width::W8,
        ),
        (
            "wide",
            (0..n)
                .map(|i| ((i as i64 % 13) * 1_000_000_007, len()))
                .collect(),
            Width::W8,
        ),
        (
            "extremes",
            (0..n)
                .map(|i| ([i64::MAX, i64::MIN + 1, -1, 0][i % 4], len()))
                .collect(),
            Width::W8,
        ),
        (
            "broken progression",
            (0..n)
                .map(|i| (if i % 500 == 499 { 3 } else { 9_000 + i as i64 }, len()))
                .collect(),
            Width::W4,
        ),
        (
            "growing domain",
            (0..n)
                .map(|i| {
                    (
                        if i < 1100 {
                            (i % 9) as i64
                        } else {
                            i as i64 * 37
                        },
                        len(),
                    )
                })
                .collect(),
            Width::W4,
        ),
        (
            "overflowing counts",
            (0..n.min(40) as i64)
                .map(|v| (v - 20, 200 + len()))
                .collect(),
            Width::W1,
        ),
        ("single run", vec![(-7, 5_000)], Width::W2),
        ("empty", vec![], Width::W1),
    ]
}

#[test]
fn index_table_matches_the_builder_reference() {
    let mut cases = 0;
    for seed in 0..6u64 {
        for (shape, runs, cw) in run_shapes(seed) {
            for dtype in [DataType::Integer, DataType::Date, DataType::Real] {
                let col = rle_column(dtype, &runs, cw, Width::W8);
                let (got, schema) = index_table(&col, "idx");
                let what = format!("{shape} (seed {seed}, {dtype:?}, {} runs)", runs.len());
                assert_same_index(&got, &reference_index(dtype, &reference_rows(&col)), &what);
                assert_eq!(
                    schema.fields[0].metadata, got.columns[0].metadata,
                    "{what}: schema carries the value claims"
                );
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 6 * 10 * 3);
}

#[test]
fn rollup_index_matches_the_builder_reference() {
    let rollups: [(&str, &dyn Fn(i64) -> i64); 4] = [
        ("identity", &|v| v),
        ("div 7", &|v| v.wrapping_div(7)),
        ("month", &trunc_to_month),
        ("constant", &|_| 1),
    ];
    for seed in 0..4u64 {
        for (shape, runs, cw) in run_shapes(seed) {
            if shape == "extremes" || shape == "nulls" {
                continue; // trunc_to_month is a calendar function
            }
            let col = rle_column(DataType::Date, &runs, cw, Width::W8);
            let (index, _) = index_table(&col, "daily");
            for (name, rollup) in rollups {
                let what = format!("{shape} rolled by {name} (seed {seed})");
                let (got, _) = rollup_index(&index, rollup, "rolled");
                let reference = reference_index(DataType::Date, &reference_rollup(&index, rollup));
                assert_same_index(&got, &reference, &what);
            }
        }
    }
}

#[test]
fn memoised_run_structures_match_a_fresh_build() {
    let mut cases = 0;
    for seed in 0..3u64 {
        for (shape, runs, cw) in run_shapes(seed) {
            for dtype in [DataType::Integer, DataType::Date, DataType::Real] {
                let what = format!("{shape} (seed {seed}, {dtype:?}, {} runs)", runs.len());
                let t = Arc::new(Table::new(
                    "t",
                    vec![rle_column(dtype, &runs, cw, Width::W8)],
                ));
                let (view, built) = t.run_index(0).expect("a run-length column");
                assert!(built, "{what}: the first call builds");
                let (fresh, schema) = index_table(&t.columns[0], "k_index");
                let memo = view
                    .index
                    .as_ref()
                    .expect("a scalar column has an IndexTable");
                assert_eq!(memo.name, fresh.name, "{what}");
                for (m, f) in memo.columns.iter().zip(&fresh.columns) {
                    assert_eq!(m.name, f.name, "{what}");
                    assert_eq!(m.dtype, f.dtype, "{what}: column {}", m.name);
                    assert_eq!(
                        m.data.decode_all(),
                        f.data.decode_all(),
                        "{what}: column {}",
                        m.name
                    );
                    assert_eq!(m.metadata, f.metadata, "{what}: column {} claims", m.name);
                }
                assert_eq!(
                    schema.fields[0].metadata, memo.columns[0].metadata,
                    "{what}: a scan of the memo carries the value claims"
                );
                assert_eq!(
                    *view.runs,
                    RunIndex::new(&t.columns[0].data).unwrap(),
                    "{what}: run index"
                );
                let (again, built) = t.run_index(0).unwrap();
                assert!(!built, "{what}: the second call reads the memo");
                assert!(Arc::ptr_eq(&again.runs, &view.runs), "{what}");
                assert_eq!(t.run_index_builds(), 1, "{what}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 3 * 10 * 3);
}
