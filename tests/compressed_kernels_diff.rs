//! Differential oracle for the compressed-domain predicate kernels.
//!
//! Every (encoding × compression × predicate-shape) combination is run
//! through four paths that must agree:
//!
//! 1. the kernel path — `TableScan::with_pushed(pred, false)`, where the
//!    per-encoding kernels (§3.1) answer in the compressed domain;
//! 2. the forced fallback — `TableScan::with_pushed(pred, true)`, the
//!    same scan pinned to decode-then-test;
//! 3. a `Filter` operator above an unpushed scan;
//! 4. the row loop — the predicate evaluated by `eval` over each
//!    unpushed block and the kept rows copied out one by one, sharing
//!    no selection code with the other three.
//!
//! The unpushed scan of every single-column table is first checked
//! against the values appended, since all four paths share the unpack.
//! Tables carry a row-id rider column so a kernel that skips blocks on
//! the predicate column but misaligns the other cursors is caught by
//! the row ids, not just the predicate values. The multi-conjunct rider
//! pushes Q6-shaped conjunctions over six encodings at once and
//! compares the paths block for block. The same checks run at the query
//! level (optimizer pushdown on vs off) and against paged v2 storage.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use tde::encodings::EncodedStream;
use tde::exec::expr::{eval, CmpOp, ComputeHeap};
use tde::exec::filter::Filter;
use tde::exec::scan::TableScan;
use tde::exec::{Block, BoxOp, Expr, Operator};
use tde::pager::save_v2;
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{Column, ColumnBuilder, Compression, Database, EncodingPolicy, Table};
use tde::types::sentinel::NULL_I64;
use tde::types::{DataType, Width};
use tde::Query;

const BLOCK: usize = tde::encodings::BLOCK_SIZE;

// ---------------------------------------------------------------------
// Table construction
// ---------------------------------------------------------------------

fn stream_of(data: &[i64], mut s: EncodedStream) -> EncodedStream {
    for chunk in data.chunks(BLOCK) {
        s.append_block(chunk).expect("values fit the encoding");
    }
    s
}

/// Predicate column plus a raw row-id rider, so row alignment across
/// skipped blocks is observable.
fn table_with_rider(col: Column) -> Arc<Table> {
    let n = col.len();
    let rid: Vec<i64> = (0..n as i64).collect();
    let rid = stream_of(&rid, EncodedStream::new_raw(Width::W8, true));
    Arc::new(Table::new(
        "t",
        vec![col, Column::scalar("rid", DataType::Integer, rid)],
    ))
}

/// A 64-bit mix of `seed` and `i` (splitmix64's finalizer).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `data` in the encoding `s` starts, plus the rider. The four paths
/// all decode through the same unpack, so the unpushed scan is first
/// checked against `data` itself.
fn plain_table(data: &[i64], s: EncodedStream) -> Arc<Table> {
    let t = table_with_rider(Column::scalar("v", DataType::Integer, stream_of(data, s)));
    let scanned: Vec<i64> = rows_of(Box::new(scan(&t, false)))
        .into_iter()
        .map(|row| row[0])
        .collect();
    assert_eq!(scanned, data, "the scan decodes what was appended");
    t
}

// ---------------------------------------------------------------------
// The four paths
// ---------------------------------------------------------------------

fn rows_of(mut op: BoxOp) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_block() {
        for r in 0..b.len {
            out.push(b.columns.iter().map(|c| c[r]).collect());
        }
    }
    out
}

fn scan(t: &Arc<Table>, expand: bool) -> TableScan {
    let names: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
    TableScan::project(Arc::clone(t), &names, expand)
}

/// The row loop: `pred` evaluated by `eval` over each block of an
/// unpushed scan, kept rows copied out one by one, empty blocks dropped.
fn row_loop_blocks(mut scan: TableScan, pred: &Expr) -> Vec<Block> {
    let schema = scan.schema().clone();
    let mut heap = ComputeHeap::new();
    let mut out = Vec::new();
    while let Some(b) = scan.next_block() {
        let mask = eval(pred, &schema, &b, &mut Some(&mut heap));
        let columns: Vec<Vec<i64>> = b
            .columns
            .iter()
            .map(|c| {
                (0..b.len)
                    .filter(|&r| mask.data[r] != 0)
                    .map(|r| c[r])
                    .collect()
            })
            .collect();
        let len = columns.first().map_or(0, Vec::len);
        if len > 0 {
            out.push(Block::new(columns));
        }
    }
    out
}

fn blocks_of(mut op: impl Operator) -> Vec<Block> {
    std::iter::from_fn(|| op.next_block()).collect()
}

/// Assert the kernel path, the forced fallback and `Filter` all emit the
/// row loop's blocks for one predicate.
fn assert_paths_agree(t: &Arc<Table>, expand: bool, name: &str, pred: &Expr) {
    let reference = row_loop_blocks(scan(t, expand), pred);
    let rows = |blocks: &[Block]| -> Vec<Vec<i64>> {
        blocks
            .iter()
            .flat_map(|b| (0..b.len).map(move |r| b.columns.iter().map(|c| c[r]).collect()))
            .collect()
    };
    let filtered = rows_of(Box::new(Filter::new(
        Box::new(scan(t, expand)),
        pred.clone(),
    )));
    assert_eq!(filtered, rows(&reference), "Filter differs: {name}");
    for (path, force) in [("forced fallback", true), ("kernel path", false)] {
        let got = blocks_of(scan(t, expand).with_pushed(pred.clone(), force));
        assert_eq!(got.len(), reference.len(), "{path} block count: {name}");
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g.len, r.len, "{path} block {i} length: {name}");
            assert_eq!(g.columns, r.columns, "{path} block {i}: {name}");
        }
    }
}

/// Every predicate shape the pushdown compiler accepts, parameterized
/// by two literals.
fn shapes(a: i64, b: i64) -> Vec<(String, Expr)> {
    let col = || Expr::col(0);
    let cmp = |op, lit: i64| Expr::cmp(op, col(), Expr::int(lit));
    let (lo, hi) = (a.min(b), a.max(b));
    let mut out = vec![
        ("eq".into(), cmp(CmpOp::Eq, a)),
        ("ne".into(), cmp(CmpOp::Ne, a)),
        ("lt".into(), cmp(CmpOp::Lt, a)),
        ("le".into(), cmp(CmpOp::Le, a)),
        ("gt".into(), cmp(CmpOp::Gt, a)),
        ("ge".into(), cmp(CmpOp::Ge, a)),
        (
            "between".into(),
            Expr::And(Box::new(cmp(CmpOp::Ge, lo)), Box::new(cmp(CmpOp::Le, hi))),
        ),
        (
            "or-eq".into(),
            Expr::Or(Box::new(cmp(CmpOp::Eq, a)), Box::new(cmp(CmpOp::Eq, b))),
        ),
        ("not-eq".into(), Expr::Not(Box::new(cmp(CmpOp::Eq, a)))),
        ("is-null".into(), Expr::IsNull(Box::new(col()))),
        (
            "not-null".into(),
            Expr::Not(Box::new(Expr::IsNull(Box::new(col())))),
        ),
        (
            "gt-and-not-null".into(),
            Expr::And(
                Box::new(cmp(CmpOp::Gt, a)),
                Box::new(Expr::Not(Box::new(Expr::IsNull(Box::new(col()))))),
            ),
        ),
        // Reversed literal/column order exercises CmpOp::flip.
        (
            "flipped-lt".into(),
            Expr::cmp(CmpOp::Lt, Expr::int(a), col()),
        ),
    ];
    for (n, _) in &mut out {
        *n = format!("{n} (a={a}, b={b})");
    }
    out
}

fn check_all_shapes(t: &Arc<Table>, expand: bool, a: i64, b: i64) {
    for (name, pred) in shapes(a, b) {
        assert_paths_agree(t, expand, &name, &pred);
    }
}

// ---------------------------------------------------------------------
// Property tests, one per encoding family
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(32)))]

    #[test]
    fn raw_stream_agrees(
        data in vec(-75i64..60, 0..3000),
        a in -60i64..60,
        b in -60i64..60,
    ) {
        // Values below the data range stand in for stored NULLs.
        let data: Vec<i64> = data.iter().map(|&v| if v < -60 { NULL_I64 } else { v }).collect();
        let t = plain_table(&data, EncodedStream::new_raw(Width::W8, true));
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn rle_stream_agrees(
        runs in vec((-48i64..40, 1u64..260), 0..40),
        a in -40i64..40,
        b in -40i64..40,
    ) {
        let mut data = Vec::new();
        for &(v, c) in &runs {
            let v = if v < -40 { NULL_I64 } else { v };
            data.extend(std::iter::repeat_n(v, c as usize));
        }
        let t = plain_table(
            &data,
            EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8),
        );
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn dict_encoded_stream_agrees(
        bits in 1u8..=15,
        picks in vec(any::<u64>(), 0..3000),
        seed in any::<u64>(),
        a in any::<prop::sample::Index>(),
        b in -1100i64..1100,
    ) {
        // Up to 2^bits distinct values, the NULL sentinel always first,
        // so every packing width's unpack runs under the kernel and the
        // gathers and the NULL shapes meet a stored NULL. Lengths are
        // rarely a block multiple: ragged last blocks come with them.
        let distinct = (1usize << bits).min(3000);
        let palette: Vec<i64> = (0..distinct as u64)
            .map(|i| match i {
                0 => NULL_I64,
                _ => (mix(seed, i) % 2000) as i64 - 1000,
            })
            .collect();
        let data: Vec<i64> = picks.iter().map(|&p| palette[p as usize % distinct]).collect();
        let a = if data.is_empty() { b } else { data[a.index(data.len())] };
        let t = plain_table(&data, EncodedStream::new_dict(Width::W8, true, bits));
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn frame_of_reference_stream_agrees(
        bits in 0u8..=64,
        raw in vec(any::<u64>(), 0..3000),
        frame in -100i64..100,
        a in any::<prop::sample::Index>(),
        b in any::<u64>(),
        near in 0u8..3,
        edge in -70i64..70,
    ) {
        // Every packing width, the byte-wise ones over 57 bits included;
        // offsets stop where `frame + offset` would leave the i64 range.
        // `b` lands inside the envelope, or either side of its frame or
        // of its top, so the all-match / none-match proofs and literals
        // outside the envelope are searched at every width.
        let mask = if bits == 0 { 0 } else { u64::MAX >> (64 - bits) };
        let room = i64::MAX.wrapping_sub(frame) as u64;
        let value = |r: u64| frame.wrapping_add((r & mask).min(room) as i64);
        let data: Vec<i64> = raw.iter().map(|&r| value(r)).collect();
        let b = match near {
            0 => value(b),
            1 => frame.saturating_add(edge),
            _ => value(u64::MAX).saturating_add(edge),
        };
        let a = if data.is_empty() { b } else { data[a.index(data.len())] };
        let t = plain_table(&data, EncodedStream::new_frame(Width::W8, true, frame, bits));
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn delta_stream_agrees(
        bits in 0u8..=51,
        steps in vec(any::<u64>(), 0..3000),
        start in -50i64..50,
        min_delta in -1i64..3,
        a in any::<prop::sample::Index>(),
        b in any::<i64>(),
    ) {
        // min_delta ≥ 0 proves sortedness (kernel binary search);
        // min_delta < 0 must decline to the fallback. Steps below 2^51
        // keep 3000 of them inside the i64 range.
        let mask = if bits == 0 { 0 } else { u64::MAX >> (64 - bits) };
        let mut v = start;
        let mut data = Vec::with_capacity(steps.len());
        for &s in &steps {
            data.push(v);
            v += min_delta + (s & mask) as i64;
        }
        let a = if data.is_empty() { b } else { data[a.index(data.len())] };
        let t = plain_table(
            &data,
            EncodedStream::new_delta(Width::W8, true, min_delta, bits),
        );
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn affine_stream_agrees(
        n in 0usize..3000,
        base in -1000i64..1000,
        delta in -7i64..8,
        a in -1000i64..1000, b in -1000i64..1000,
    ) {
        let data: Vec<i64> = (0..n as i64).map(|i| base + i * delta).collect();
        let t = plain_table(&data, EncodedStream::new_affine(Width::W8, true, base, delta));
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn array_compressed_column_agrees(
        codes in vec(0i64..8, 0..3000),
        a in -50i64..50, b in -50i64..50,
    ) {
        // Dictionary-domain kernel: predicate evaluated over 8 entries,
        // then a code-set test on the packed indexes.
        let dictionary = vec![-45, -12, -1, 0, 3, 17, 29, NULL_I64];
        let col = Column {
            name: "v".into(),
            dtype: DataType::Integer,
            data: stream_of(&codes, EncodedStream::new_dict(Width::W8, false, 3)),
            compression: Compression::Array {
                dictionary,
                sorted: false,
            },
            metadata: tde::encodings::ColumnMetadata::unknown(),
        };
        let t = table_with_rider(col);
        check_all_shapes(&t, true, a, b);
    }

    #[test]
    fn built_column_with_metadata_agrees(
        data in vec(-350i64..300, 0..4000),
        a in -320i64..320, b in -320i64..320,
    ) {
        let data: Vec<i64> = data.iter().map(|&v| if v < -300 { NULL_I64 } else { v }).collect();
        // ColumnBuilder picks the encoding dynamically and extracts
        // min/max metadata, exercising the metadata-minmax gate in
        // front of whichever kernel the chosen encoding has.
        let mut builder = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        builder.append_raw(&data);
        let t = table_with_rider(builder.finish().column);
        check_all_shapes(&t, false, a, b);
    }

    #[test]
    fn string_heap_column_falls_back_consistently(
        picks in vec(0usize..5, 0..2000),
        a in -10i64..10, b in -10i64..10,
    ) {
        // Heap tokens have string semantics the value set cannot carry:
        // the kernel must decline, and all paths must still agree. The
        // integer predicates target the rider (col 1 → remapped col 0
        // tests stay on the string col via IsNull only).
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let mut s = ColumnBuilder::new("v", DataType::Str, EncodingPolicy::default());
        for &p in &picks {
            s.append_str(Some(words[p]));
        }
        let t = table_with_rider(s.finish().column);
        // String-column predicates: only NULL tests compile; everything
        // else must take the identical fallback.
        for (name, pred) in [
            ("is-null", Expr::IsNull(Box::new(Expr::col(0)))),
            (
                "not-null",
                Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(0))))),
            ),
            (
                "str-eq",
                Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Lit(tde::types::Value::Str("beta".into()))),
            ),
        ] {
            assert_paths_agree(&t, false, name, &pred);
        }
        // Rider predicates around a string column keep alignment.
        for (name, pred) in shapes(a, b) {
            let pred = pred.remap_columns(&|_| 1);
            assert_paths_agree(&t, false, &name, &pred);
        }
    }

    #[test]
    fn query_level_pushdown_agrees(
        runs in vec((-36i64..30, 1u64..200), 0..30),
        a in -30i64..30, b in -30i64..30,
    ) {
        let mut data = Vec::new();
        for &(v, c) in &runs {
            let v = if v < -30 { NULL_I64 } else { v };
            data.extend(std::iter::repeat_n(v, c as usize));
        }
        let t = plain_table(
            &data,
            EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8),
        );
        let kernel_only = OptimizerOptions {
            invisible_joins: false,
            index_tables: false,
            ordered_retrieval: false,
            kernel_pushdown: true,
            parallelism: 1,
        };
        let none = OptimizerOptions {
            kernel_pushdown: false,
            ..kernel_only
        };
        for (name, pred) in shapes(a, b) {
            let run = |opts| {
                Query::scan(&t)
                    .filter(pred.clone())
                    .with_optimizer(opts)
                    .rows()
            };
            assert_eq!(run(kernel_only), run(none), "query rows differ: {name}");
            // And through the aggregation pipeline: pushed, the scan carries
            // runs into the aggregate; unpushed, a Filter keeps rows.
            let agg = |opts| {
                Query::scan_columns(&t, &["v"])
                    .filter(pred.clone())
                    .aggregate(
                        vec![],
                        vec![
                            (tde::exec::expr::AggFunc::Count, 0, "n"),
                            (tde::exec::expr::AggFunc::Sum, 0, "s"),
                            (tde::exec::expr::AggFunc::Min, 0, "lo"),
                            (tde::exec::expr::AggFunc::Max, 0, "hi"),
                        ],
                    )
                    .with_optimizer(opts)
                    .rows()
            };
            assert_eq!(agg(kernel_only), agg(none), "aggregate rows differ: {name}");
        }
    }

    #[test]
    fn paged_storage_pushdown_agrees(
        data in vec(-62i64..50, 1..3000),
        a in -50i64..50, b in -50i64..50,
        case in 0u32..1_000_000,
    ) {
        let data: Vec<i64> = data.iter().map(|&v| if v < -50 { NULL_I64 } else { v }).collect();
        let t = plain_table(&data, EncodedStream::new_raw(Width::W8, true));
        let mut db = Database::new();
        db.add_table((*t).clone());
        let path = std::env::temp_dir().join(format!(
            "tde_kernels_diff_{}_{case}.tde2",
            std::process::id()
        ));
        save_v2(&db, &path).unwrap();
        let paged = tde::pager::PagedDatabase::open(&path).unwrap();
        let pt = paged.table("t").unwrap();
        for (name, pred) in shapes(a, b) {
            let reference = rows_of(Box::new(Filter::new(
                Box::new(TableScan::paged_all(&pt, false).unwrap()),
                pred.clone(),
            )));
            let kernel = rows_of(Box::new(
                TableScan::paged_all(&pt, false)
                    .unwrap()
                    .with_pushed(pred.clone(), false),
            ));
            assert_eq!(kernel, reference, "paged kernel differs: {name}");
        }
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// Multi-conjunct rider: Q6-shaped conjunctions over six encodings
// ---------------------------------------------------------------------

/// One column per encoding family — frame-of-reference, dictionary
/// stream, run-length, sorted delta, array compression, heap strings —
/// plus the raw row-id rider, `n` rows each; NULL rows wherever the
/// encoding stores the sentinel.
fn rider_table(n: usize, seed: u64) -> Arc<Table> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m) as i64
    };
    let f: Vec<i64> = (0..n).map(|_| -40 + next(128)).collect();
    let palette = [-33, -17, -5, -1, 0, 1, 4, 9, 21, 36, NULL_I64, -40];
    let d: Vec<i64> = (0..n).map(|_| palette[next(12) as usize]).collect();
    let mut r = Vec::with_capacity(n);
    while r.len() < n {
        let v = match next(90) - 45 {
            v if v < -40 => NULL_I64,
            v => v,
        };
        let run = (1 + next(200) as usize).min(n - r.len());
        r.extend(std::iter::repeat_n(v, run));
    }
    let mut at = next(50) - 25;
    let sorted: Vec<i64> = (0..n)
        .map(|_| {
            at += next(4);
            at
        })
        .collect();
    let codes: Vec<i64> = (0..n).map(|_| next(8)).collect();
    let mut h = ColumnBuilder::new("h", DataType::Str, EncodingPolicy::default());
    for _ in 0..n {
        h.append_str(["alpha", "beta", "gamma"].get(next(4) as usize).copied());
    }
    let rid: Vec<i64> = (0..n as i64).collect();
    let scalar = |name: &str, data: &[i64], s: EncodedStream| {
        Column::scalar(name, DataType::Integer, stream_of(data, s))
    };
    Arc::new(Table::new(
        "rider",
        vec![
            scalar("f", &f, EncodedStream::new_frame(Width::W8, true, -40, 7)),
            scalar("d", &d, EncodedStream::new_dict(Width::W8, true, 4)),
            scalar(
                "r",
                &r,
                EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8),
            ),
            scalar(
                "s",
                &sorted,
                EncodedStream::new_delta(Width::W8, true, 0, 2),
            ),
            Column {
                name: "a".into(),
                dtype: DataType::Integer,
                data: stream_of(&codes, EncodedStream::new_dict(Width::W8, false, 3)),
                compression: Compression::Array {
                    dictionary: vec![-45, -12, -1, 0, 3, 17, 29, NULL_I64],
                    sorted: false,
                },
                metadata: tde::encodings::ColumnMetadata::unknown(),
            },
            h.finish().column,
            scalar("rid", &rid, EncodedStream::new_raw(Width::W8, true)),
        ],
    ))
}

/// The conjunction of the picked shapes on the picked integer columns,
/// a NULL test on the heap column, and — by `residual` — a conjunct no
/// value set expresses.
fn rider_predicate(picks: &[(usize, usize, i64, i64)], residual: usize) -> Expr {
    let mut parts: Vec<Expr> = picks
        .iter()
        .map(|&(col, shape, a, b)| {
            let (_, e) = shapes(a, b).swap_remove(shape);
            e.remap_columns(&|_| col)
        })
        .collect();
    parts.push(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(5))))));
    match residual {
        1 => parts.push(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(6))),
        2 => parts.push(Expr::cmp(
            CmpOp::Ne,
            Expr::col(5),
            Expr::Lit(tde::types::Value::Str("beta".into())),
        )),
        _ => {}
    }
    parts
        .into_iter()
        .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
        .expect("at least one conjunct")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(32)))]

    #[test]
    fn multi_conjunct_rider_agrees(
        n in 0usize..3500,
        seed in 0u64..1_000_000,
        picks in vec((0usize..5, 0usize..13, -45i64..90, -45i64..90), 1..5),
        residual in 0usize..3,
    ) {
        let t = rider_table(n, seed);
        let pred = rider_predicate(&picks, residual);
        let name = format!("n={n} seed={seed} {pred:?}");
        for expand in [false, true] {
            assert_paths_agree(&t, expand, &name, &pred);
        }
        let kernel_only = OptimizerOptions {
            invisible_joins: false,
            index_tables: false,
            ordered_retrieval: false,
            kernel_pushdown: true,
            parallelism: 1,
        };
        let run = |opts| Query::scan(&t).filter(pred.clone()).with_optimizer(opts).rows();
        let unpushed = OptimizerOptions { kernel_pushdown: false, ..kernel_only };
        prop_assert_eq!(run(kernel_only), run(unpushed), "query rows differ: {}", name);
    }
}

/// The frame-of-reference offset kernel at its edges: a frame at
/// `i64::MIN` (offset 0 is the NULL sentinel), 0 and 64 packing bits,
/// and intervals straddling the header envelope.
#[test]
fn pinned_for_offset_kernel_edges() {
    let data: Vec<i64> = (0..2500)
        .map(|i| {
            if i % 7 == 0 {
                NULL_I64
            } else {
                i64::MIN + 1 + i % 60
            }
        })
        .collect();
    let t = plain_table(
        &data,
        EncodedStream::new_frame(Width::W8, true, i64::MIN, 6),
    );
    check_all_shapes(&t, false, i64::MIN + 10, i64::MIN + 40);
    check_all_shapes(&t, false, i64::MIN, i64::MIN + 1);

    let t = plain_table(
        &[77; 2100],
        EncodedStream::new_frame(Width::W8, true, 77, 0),
    );
    check_all_shapes(&t, false, 77, 78);
    check_all_shapes(&t, false, 76, 77);

    let extremes = [i64::MIN, i64::MAX, -1, 0, 1, i64::MIN + 1, 1 << 62];
    let data: Vec<i64> = (0..2100).map(|i| extremes[i % extremes.len()]).collect();
    let t = plain_table(
        &data,
        EncodedStream::new_frame(Width::W8, true, i64::MIN, 64),
    );
    check_all_shapes(&t, false, -1, 1 << 62);
    check_all_shapes(&t, false, i64::MIN + 1, i64::MAX);

    // Envelope [100, 115].
    let data: Vec<i64> = (0..2100).map(|i| 100 + i % 16).collect();
    let t = plain_table(&data, EncodedStream::new_frame(Width::W8, true, 100, 4));
    for (a, b) in [
        (110, 200),
        (90, 103),
        (99, 100),
        (115, 116),
        (50, 99),
        (116, 300),
    ] {
        check_all_shapes(&t, false, a, b);
    }
    let straddling = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(110));
    let pushed = scan(&t, false).with_pushed(straddling, false);
    assert_eq!(pushed.pushed_kernel().as_deref(), Some("for-offset"));
}

// ---------------------------------------------------------------------
// Pinned regressions: counterexamples the oracle found, kept as
// explicit cases (the proptest shim reads the sibling
// `.proptest-regressions` file for bookkeeping, but these re-run the
// exact inputs directly).
// ---------------------------------------------------------------------

/// An RLE run straddling a block boundary with a partially-matching
/// run: the cursor must consume exactly one block's worth without
/// advancing past the run.
#[test]
fn pinned_rle_run_straddles_block_boundary() {
    let mut data = vec![7i64; BLOCK + 100];
    data.extend(std::iter::repeat_n(NULL_I64, 50));
    data.extend(std::iter::repeat_n(-3, BLOCK * 2 + 1));
    let t = plain_table(
        &data,
        EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8),
    );
    check_all_shapes(&t, false, 7, -3);
}

/// Affine with negative delta: interval solving must flip bounds, and
/// the last-value overflow guard must hold at the extremes.
#[test]
fn pinned_affine_negative_delta_extremes() {
    let data: Vec<i64> = (0..2500).map(|i| 1000 - 7 * i).collect();
    let t = plain_table(&data, EncodedStream::new_affine(Width::W8, true, 1000, -7));
    check_all_shapes(&t, false, 1000 - 7 * 2499, 1000);
    check_all_shapes(&t, false, i64::MAX, i64::MIN + 1);
}

/// Empty table: every path must produce zero rows without panicking.
#[test]
fn pinned_empty_table() {
    let t = plain_table(&[], EncodedStream::new_raw(Width::W8, true));
    check_all_shapes(&t, false, 0, 1);
}

/// A dictionary whose entries *all* match (and all miss): the all-true /
/// all-false shortcuts must preserve the rider column.
#[test]
fn pinned_dict_domain_all_and_none() {
    let codes: Vec<i64> = (0..2000).map(|i| i % 4).collect();
    let col = Column {
        name: "v".into(),
        dtype: DataType::Integer,
        data: stream_of(&codes, EncodedStream::new_dict(Width::W8, false, 2)),
        compression: Compression::Array {
            dictionary: vec![10, 20, 30, 40],
            sorted: true,
        },
        metadata: tde::encodings::ColumnMetadata::unknown(),
    };
    let t = table_with_rider(col);
    assert_paths_agree(
        &t,
        true,
        "all-match",
        &Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(0)),
    );
    assert_paths_agree(
        &t,
        true,
        "none-match",
        &Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(100)),
    );
}

/// NULL literal comparisons: `v = NULL` is false for every row under
/// the engine's sentinel semantics, including rows storing the
/// sentinel; `NOT (v = NULL)` is therefore true for every row.
#[test]
fn pinned_null_literal_comparisons() {
    let data = vec![1, NULL_I64, 3, NULL_I64, 5];
    let t = plain_table(&data, EncodedStream::new_raw(Width::W8, true));
    for pred in [
        Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Lit(tde::types::Value::Null)),
        Expr::Not(Box::new(Expr::cmp(
            CmpOp::Eq,
            Expr::col(0),
            Expr::Lit(tde::types::Value::Null),
        ))),
    ] {
        assert_paths_agree(&t, false, "null-literal", &pred);
    }
}

/// Sorted delta stream where the probe falls between stored values:
/// the binary-search bounds must not be off by one.
#[test]
fn pinned_delta_probe_between_values() {
    let data: Vec<i64> = (0..3000).map(|i| i * 3).collect();
    let t = plain_table(&data, EncodedStream::new_delta(Width::W8, true, 0, 2));
    check_all_shapes(&t, false, 4, 8996);
    check_all_shapes(&t, false, -1, 9000);
}
