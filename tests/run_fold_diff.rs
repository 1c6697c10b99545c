//! Differential oracle for run-carrying blocks.
//!
//! Over run-length columns, a scan (or an IndexedScan) feeding an
//! aggregate hands it one row per *segment* — a stretch over which every
//! column holds one value — weighted by the segment's length, and the
//! aggregate folds each segment once: `COUNT` adds the weight, an integer
//! `SUM` adds `v × w`, `MIN` and `MAX` ignore it. That fold must be the
//! row fold of the same plan, byte for byte. Every check here runs one
//! aggregate over both leaves and compares the output blocks:
//!
//! * built directly — `TableScan::with_pushed(..).with_runs()` against a
//!   `Filter` over the same unpushed scan, and `IndexedScan::with_runs`
//!   against the row-emitting IndexedScan over the same inner pipeline;
//! * through the planner — the kernel-pushdown plan, which folds runs,
//!   against the `kernel_pushdown: false` control, whose `Filter` keeps
//!   the row path — eager, paged, and an append-only merge snapshot, whose
//!   delta rows follow its base's runs (checked against an eager rebuild
//!   too) — and the IndexTable plans 2 and 3 against plan 1.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use tde::encodings::{Algorithm, ColumnMetadata, EncodedStream};
use tde::exec::aggregate::{AggSpec, HashAggregate, OrderedAggregate};
use tde::exec::expr::{AggFunc, CmpOp};
use tde::exec::filter::Filter;
use tde::exec::index_table::index_table;
use tde::exec::indexed_scan::IndexedScan;
use tde::exec::scan::TableScan;
use tde::exec::sort::{Sort, SortOrder};
use tde::exec::{drain, Block, BoxOp, Expr, Operator};
use tde::pager::{save_v2, PagedDatabase};
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{Column, ColumnBuilder, Compression, Database, EncodingPolicy, Table};
use tde::types::sentinel::{null_real, NULL_I64};
use tde::types::{DataType, Value, Width};
use tde::Query;

const BLOCK: usize = tde::encodings::BLOCK_SIZE;
const FUNCS: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Seeded xorshift: the data of a case is a function of its seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }

    /// `rows` rows in runs of 1..=`max_run` over `palette`.
    fn runs(&mut self, rows: usize, max_run: u64, palette: &[i64]) -> Vec<i64> {
        let mut out = Vec::with_capacity(rows);
        while out.len() < rows {
            let v = palette[self.below(palette.len() as u64) as usize];
            let n = (1 + self.below(max_run) as usize).min(rows - out.len());
            out.extend(std::iter::repeat_n(v, n));
        }
        out
    }
}

fn rle_stream(data: &[i64]) -> EncodedStream {
    let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8);
    for chunk in data.chunks(BLOCK) {
        s.append_block(chunk).expect("values fit the encoding");
    }
    s
}

fn rle_column(name: &str, dtype: DataType, data: &[i64]) -> Column {
    Column::scalar(name, dtype, rle_stream(data))
}

/// An array-compressed column whose codes are stored run-length.
fn dict_rle_column(name: &str, dictionary: Vec<i64>, codes: &[i64]) -> Column {
    Column {
        name: name.into(),
        dtype: DataType::Integer,
        data: rle_stream(codes),
        compression: Compression::Array {
            dictionary,
            sorted: false,
        },
        metadata: ColumnMetadata::unknown(),
    }
}

/// A column the builder encodes — run-length, for run-shaped data — with
/// the min/max metadata the kernels answer whole predicates from.
fn built_column(name: &str, data: &[i64]) -> Column {
    let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
    b.append_raw(data);
    b.finish().column
}

fn table(columns: Vec<Column>) -> Arc<Table> {
    for c in &columns {
        assert_eq!(c.data.algorithm(), Algorithm::RunLength, "{}", c.name);
    }
    Arc::new(Table::new("t", columns))
}

const KEYS: [i64; 5] = [-2, 0, 1, 5, NULL_I64];
/// Measures near both ends of the range, so long runs wrap the sum.
const MEASURES: [i64; 8] = [-7, -1, 0, 3, 12, NULL_I64, i64::MAX - 2, i64::MIN + 1];
const DICTIONARY: [i64; 4] = [-45, 3, 17, NULL_I64];

/// A key column in long runs, a measure column in short ones (their
/// boundaries rarely meet), and a dictionary-coded column in runs that
/// straddle blocks.
fn random_table(rows: usize, seed: u64) -> Arc<Table> {
    let mut rng = Rng::new(seed);
    let k = rng.runs(rows, 700, &KEYS);
    let m = rng.runs(rows, 300, &MEASURES);
    let d = rng.runs(rows, 2 * BLOCK as u64, &[0, 1, 2, 3]);
    table(vec![
        rle_column("k", DataType::Integer, &k),
        rle_column("m", DataType::Integer, &m),
        dict_rle_column("d", DICTIONARY.to_vec(), &d),
    ])
}

fn cmp(op: CmpOp, col: usize, lit: i64) -> Expr {
    Expr::cmp(op, Expr::col(col), Expr::int(lit))
}

fn and(parts: Vec<Expr>) -> Option<Expr> {
    parts
        .into_iter()
        .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
}

/// One single-column predicate shape on `col` around `lit`.
fn shape(col: usize, shape: usize, lit: i64) -> Expr {
    let c = || Box::new(Expr::col(col));
    match shape {
        0 => cmp(CmpOp::Ge, col, lit),
        1 => cmp(CmpOp::Lt, col, lit),
        2 => cmp(CmpOp::Eq, col, lit),
        3 => cmp(CmpOp::Ne, col, lit),
        4 => Expr::IsNull(c()),
        5 => Expr::Not(Box::new(Expr::IsNull(c()))),
        6 => Expr::And(
            Box::new(cmp(CmpOp::Ge, col, lit)),
            Box::new(cmp(CmpOp::Le, col, lit + 3)),
        ),
        _ => Expr::Or(
            Box::new(cmp(CmpOp::Eq, col, lit)),
            Box::new(cmp(CmpOp::Eq, col, lit + 1)),
        ),
    }
}

// ---------------------------------------------------------------------
// The two leaves, folded
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Agg {
    Hash,
    Ordered,
}

fn aggregate(input: BoxOp, agg: Agg, group_by: &[usize], aggs: &[AggSpec]) -> BoxOp {
    match agg {
        Agg::Hash => Box::new(HashAggregate::new(input, group_by.to_vec(), aggs.to_vec())),
        Agg::Ordered => Box::new(OrderedAggregate::new(
            input,
            group_by.to_vec(),
            aggs.to_vec(),
        )),
    }
}

/// Every function over every column.
fn every_agg(ncols: usize) -> Vec<AggSpec> {
    (0..ncols)
        .flat_map(|c| {
            FUNCS
                .iter()
                .map(move |&f| AggSpec::new(f, c, format!("{f:?}_{c}")))
        })
        .collect()
}

/// The grand total, hash groupings on each column and the first two, and
/// ordered groupings (runs of equal keys, sorted or not) on the first.
fn groupings(ncols: usize) -> Vec<(Agg, Vec<usize>)> {
    let mut out = vec![(Agg::Hash, vec![]), (Agg::Ordered, vec![0])];
    out.extend((0..ncols).map(|c| (Agg::Hash, vec![c])));
    if ncols > 1 {
        out.push((Agg::Hash, vec![0, 1]));
        out.push((Agg::Ordered, vec![1, 0]));
    }
    out
}

fn columns_of(blocks: &[Block]) -> Vec<Vec<Vec<i64>>> {
    for b in blocks {
        assert!(b.weights.is_none(), "an aggregate emitted weights");
    }
    blocks.iter().map(|b| b.columns.clone()).collect()
}

/// A scan leaf: run-carrying with `pred` pushed, or rows under a Filter.
fn leaf(scan: &dyn Fn() -> TableScan, pred: Option<&Expr>, runs: bool) -> BoxOp {
    let scan = scan();
    match (pred, runs) {
        (Some(p), true) => Box::new(scan.with_pushed(p.clone(), false).with_runs()),
        (None, true) => Box::new(scan.with_runs()),
        (Some(p), false) => Box::new(Filter::new(Box::new(scan), p.clone())),
        (None, false) => Box::new(scan),
    }
}

/// Fold every function over every column under every grouping, over the
/// run-carrying leaf and over the row leaf, and require equal blocks.
/// The run-carrying leaf must carry weights that stand for exactly the
/// rows the row leaf keeps.
fn assert_scan_folds_agree(scan: &dyn Fn() -> TableScan, pred: Option<&Expr>, what: &str) {
    let segments = drain(leaf(scan, pred, true));
    let rows = drain(leaf(scan, pred, false));
    assert!(segments.iter().all(|b| b.weights.is_some()), "{what}");
    let count = |blocks: &[Block]| blocks.iter().map(Block::rows).sum::<u64>();
    assert_eq!(count(&segments), count(&rows), "rows stood for: {what}");
    let ncols = scan().schema().len();
    let aggs = every_agg(ncols);
    for (agg, group_by) in groupings(ncols) {
        let fold = |runs| drain(aggregate(leaf(scan, pred, runs), agg, &group_by, &aggs));
        assert_eq!(
            columns_of(&fold(true)),
            columns_of(&fold(false)),
            "{what}: {agg:?} by {group_by:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Operators built directly
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(24)))]

    #[test]
    fn weighted_fold_matches_row_fold(
        rows in 0usize..5000,
        seed in 0u64..1_000_000,
        ncols in 2usize..4,
        picks in vec((0usize..3, 0usize..8, -3i64..6), 0..3),
        residual in 0u8..2,
    ) {
        let t = random_table(rows, seed);
        let names: Vec<&str> = ["k", "m", "d"][..ncols].to_vec();
        let mut parts: Vec<Expr> = picks
            .iter()
            .filter(|p| p.0 < ncols)
            .map(|&(col, s, lit)| shape(col, s, lit))
            .collect();
        if residual == 1 {
            // No value set expresses it: filtered over the segments.
            parts.push(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(1)));
        }
        let pred = and(parts);
        for expand in [false, true] {
            let scan = || TableScan::project(Arc::clone(&t), &names, expand);
            let what = format!("rows={rows} seed={seed} expand={expand} {pred:?}");
            assert_scan_folds_agree(&scan, pred.as_ref(), &what);
        }
    }
}

/// Long runs of values near `i64::MAX` and `i64::MIN`: `v × w` wraps
/// exactly like `w` wrapping additions.
#[test]
fn sums_wrap_like_repeated_addition() {
    let m = [
        (i64::MAX - 3, 5000),
        (i64::MAX, 3 * BLOCK + 7),
        (NULL_I64, 40),
        (i64::MIN + 1, 2 * BLOCK),
        (i64::MAX / 3, 9),
    ];
    let m: Vec<i64> = m
        .iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
        .collect();
    let k: Vec<i64> = (0..m.len() as i64).map(|i| i / 2500).collect();
    let t = table(vec![
        rle_column("k", DataType::Integer, &k),
        rle_column("m", DataType::Integer, &m),
    ]);
    let scan = || TableScan::new(Arc::clone(&t));
    assert_scan_folds_agree(&scan, None, "wrapping");
    let total = m
        .iter()
        .filter(|&&v| v != NULL_I64)
        .fold(0i64, |a, &v| a.wrapping_add(v));
    // The planned grand total folds the segments, the NULL run's weight
    // counted but not summed.
    let report = Query::scan(&t)
        .aggregate(
            vec![],
            vec![
                (AggFunc::Sum, 1, "s"),
                (AggFunc::Count, 1, "n"),
                (AggFunc::Min, 1, "lo"),
            ],
        )
        .explain_analyze();
    assert!(
        report.operator_tree.contains("[runs]"),
        "{}",
        report.operator_tree
    );
    let want = vec![vec![total], vec![m.len() as i64], vec![i64::MIN + 1]];
    assert_eq!(columns_of(&report.blocks), vec![want]);
}

/// Three columns whose run boundaries never line up, runs straddling the
/// 1024-row blocks, and a single-row tail.
#[test]
fn misaligned_runs_straddle_blocks() {
    let a: Vec<i64> = [(3, 1500), (NULL_I64, 700), (3, 2 * BLOCK + 1), (-1, 1)]
        .iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
        .collect();
    let n = a.len() as i64;
    let b: Vec<i64> = (0..n).map(|i| (i / 333) % 4).collect();
    let c: Vec<i64> = (0..n)
        .map(|i| {
            if (i / 1000) % 3 == 1 {
                NULL_I64
            } else {
                i / 1000
            }
        })
        .collect();
    let t = table(vec![
        rle_column("a", DataType::Integer, &a),
        rle_column("b", DataType::Integer, &b),
        rle_column("c", DataType::Integer, &c),
    ]);
    let scan = || TableScan::new(Arc::clone(&t));
    assert_scan_folds_agree(&scan, None, "no predicate");
    for col in 0..3 {
        for (s, lit) in [(0, 1), (3, 3), (4, 0), (6, 0)] {
            let pred = shape(col, s, lit);
            assert_scan_folds_agree(&scan, Some(&pred), &format!("{pred:?}"));
        }
    }
}

/// A conjunct per column, each resolving differently: min/max metadata
/// deciding all or none (`Const`), a run-length kernel's value set, and
/// a dictionary's code set, including code sets that keep every code or
/// none.
#[test]
fn pushed_conjuncts_on_each_column() {
    let mut rng = Rng::new(7);
    let rows = 6000;
    let k = rng.runs(rows, 900, &[10, 11, 12, 13]);
    let m = rng.runs(rows, 200, &[-5, 0, 5, 9]);
    let d = rng.runs(rows, 500, &[0, 1, 2, 3]);
    let t = Arc::new(Table::new(
        "t",
        vec![
            built_column("k", &k),
            built_column("m", &m),
            dict_rle_column("d", DICTIONARY.to_vec(), &d),
        ],
    ));
    assert!(t
        .columns
        .iter()
        .all(|c| c.data.algorithm() == Algorithm::RunLength));
    let preds = [
        // Metadata decides: every row, no row.
        cmp(CmpOp::Ge, 0, 10),
        cmp(CmpOp::Gt, 0, 13),
        cmp(CmpOp::Lt, 1, -100),
        // Run-length value sets.
        cmp(CmpOp::Ge, 0, 12),
        cmp(CmpOp::Ne, 1, 0),
        // Dictionary code sets: some codes, every code, none.
        cmp(CmpOp::Gt, 2, 0),
        Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(2), Expr::int(99)))),
        cmp(CmpOp::Eq, 2, 4),
        Expr::IsNull(Box::new(Expr::col(2))),
    ];
    for expand in [false, true] {
        let scan = || TableScan::project(Arc::clone(&t), &["k", "m", "d"], expand);
        for p in &preds {
            assert_scan_folds_agree(&scan, Some(p), &format!("expand={expand} {p:?}"));
        }
        let all = and(preds[3..6].to_vec()).unwrap();
        assert_scan_folds_agree(&scan, Some(&all), &format!("expand={expand} {all:?}"));
    }
}

/// Real extrema fold per segment; a real sum has no closed form, so a
/// weighted block folds its expansion — and the planner never asks for
/// runs under one.
#[test]
fn real_columns_fold_extrema_per_segment() {
    let reals = [1.5f64, -0.0, 0.0, 2.25e300, -7.0, null_real()];
    let mut rng = Rng::new(11);
    let r: Vec<i64> = rng
        .runs(4000, 600, &[0, 1, 2, 3, 4, 5])
        .iter()
        .map(|&i| reals[i as usize].to_bits() as i64)
        .collect();
    let k = rng.runs(4000, 900, &KEYS);
    let t = table(vec![
        rle_column("k", DataType::Integer, &k),
        rle_column("r", DataType::Real, &r),
    ]);
    let scan = || TableScan::new(Arc::clone(&t));
    assert_scan_folds_agree(&scan, None, "reals");
    let tree = |aggs: Vec<(AggFunc, usize, &str)>| {
        Query::scan(&t)
            .aggregate(vec![0], aggs)
            .explain_analyze()
            .operator_tree
    };
    let extrema = tree(vec![(AggFunc::Min, 1, "lo"), (AggFunc::Max, 1, "hi")]);
    assert!(extrema.contains("[runs]"), "{extrema}");
    let sum = tree(vec![(AggFunc::Min, 1, "lo"), (AggFunc::Sum, 1, "s")]);
    assert!(!sum.contains("[runs]"), "{sum}");
}

/// The IndexTable leaf: for each qualified range, the segments over which
/// the fetched runs hold still, the carried index value constant across
/// the range — in range order (plan 2) and value order (plan 3).
#[test]
fn indexed_scan_segments_fold_like_rows() {
    let t = random_table(7000, 3);
    let indexed = |key: usize, fetch: &[&str], pred: &Expr, sorted: bool, runs: bool| -> BoxOp {
        let (idx, _) = index_table(&t.columns[key], "key_index");
        let mut inner: BoxOp = Box::new(Filter::new(Box::new(TableScan::new(idx)), pred.clone()));
        if sorted {
            inner = Box::new(Sort::new(inner, vec![(0, SortOrder::Asc)]));
        }
        let scan = IndexedScan::new(inner, Arc::clone(&t), fetch);
        if runs {
            Box::new(scan.with_runs())
        } else {
            Box::new(scan)
        }
    };
    let cases: [(usize, &[&str], Expr); 5] = [
        (0, &["m"], cmp(CmpOp::Ge, 0, 0)),
        (
            0,
            &["m", "d"],
            Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(0))))),
        ),
        (1, &["k"], cmp(CmpOp::Lt, 0, 5)),
        (1, &["k", "d"], Expr::IsNull(Box::new(Expr::col(0)))),
        (2, &[], cmp(CmpOp::Ne, 0, 1)),
    ];
    for (key, fetch, pred) in cases {
        for sorted in [false, true] {
            let what = format!("key {key} fetch {fetch:?} sorted={sorted} {pred:?}");
            let segments = drain(indexed(key, fetch, &pred, sorted, true));
            let rows = drain(indexed(key, fetch, &pred, sorted, false));
            let count = |blocks: &[Block]| blocks.iter().map(Block::rows).sum::<u64>();
            assert_eq!(count(&segments), count(&rows), "{what}");
            let ncols = 1 + fetch.len();
            let aggs = every_agg(ncols);
            for (agg, group_by) in groupings(ncols) {
                let fold = |runs| {
                    drain(aggregate(
                        indexed(key, fetch, &pred, sorted, runs),
                        agg,
                        &group_by,
                        &aggs,
                    ))
                };
                assert_eq!(
                    columns_of(&fold(true)),
                    columns_of(&fold(false)),
                    "{what}: {agg:?} by {group_by:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Through the planner
// ---------------------------------------------------------------------

fn kernel_only() -> OptimizerOptions {
    OptimizerOptions {
        invisible_joins: false,
        index_tables: false,
        ordered_retrieval: false,
        kernel_pushdown: true,
        parallelism: 1,
    }
}

/// Fig 10's plan 1: no rewrite, a `Filter` above the scan.
fn control() -> OptimizerOptions {
    OptimizerOptions {
        kernel_pushdown: false,
        ..kernel_only()
    }
}

fn query_aggs(ncols: usize) -> Vec<(AggFunc, usize, String)> {
    every_agg(ncols)
        .into_iter()
        .map(|a| (a.func, a.col, a.name))
        .collect()
}

/// `query` under `opts`, with its operator tree.
fn traced(
    query: &dyn Fn(OptimizerOptions) -> Query,
    opts: OptimizerOptions,
) -> (String, Vec<Block>) {
    let report = query(opts).explain_analyze();
    (report.operator_tree, report.blocks)
}

/// The kernel-pushdown plan folds runs, the control keeps rows, and both
/// produce the same blocks.
fn assert_plans_agree(query: &dyn Fn(OptimizerOptions) -> Query, what: &str) {
    let (runs_tree, runs) = traced(query, kernel_only());
    let (rows_tree, rows) = traced(query, control());
    assert!(runs_tree.contains("[runs]"), "{what}:\n{runs_tree}");
    assert!(!rows_tree.contains("[runs]"), "{what}:\n{rows_tree}");
    assert_eq!(columns_of(&runs), columns_of(&rows), "{what}");
}

/// A sorted key (ordered aggregation is chosen from its metadata), a
/// measure and a dictionary-coded column, built as the engine stores them.
fn sorted_key_table() -> Arc<Table> {
    let mut rng = Rng::new(5);
    let rows = 9000;
    let k: Vec<i64> = (0..rows as i64).map(|i| i / 700).collect();
    let m = rng.runs(rows, 250, &MEASURES);
    let d = rng.runs(rows, 1200, &[0, 1, 2, 3]);
    table(vec![
        built_column("k", &k),
        rle_column("m", DataType::Integer, &m),
        dict_rle_column("d", DICTIONARY.to_vec(), &d),
    ])
}

const PLANNER_COLUMNS: [&str; 3] = ["k", "m", "d"];
const PLANNER_GROUPINGS: [&[usize]; 5] = [&[], &[0], &[1], &[2], &[0, 2]];

/// Predicates over [`PLANNER_COLUMNS`]: one per column, and a conjunction.
fn planner_preds() -> [Expr; 4] {
    [
        cmp(CmpOp::Ge, 0, 4),
        cmp(CmpOp::Ne, 1, 3),
        cmp(CmpOp::Lt, 2, 17),
        Expr::And(
            Box::new(cmp(CmpOp::Le, 0, 9)),
            Box::new(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(1)))))),
        ),
    ]
}

/// Every function over every planner column, filtered by `pred` and
/// grouped by `group_by`.
fn planner_query(
    source: &tde::exec::Source,
    pred: Option<&Expr>,
    group_by: &[usize],
    opts: OptimizerOptions,
) -> Query {
    let mut q = Query::scan_columns(source.clone(), &PLANNER_COLUMNS);
    if let Some(p) = pred {
        q = q.filter(p.clone());
    }
    let aggs = query_aggs(PLANNER_COLUMNS.len());
    q.aggregate(
        group_by.to_vec(),
        aggs.iter().map(|(f, c, n)| (*f, *c, n.as_str())).collect(),
    )
    .with_optimizer(opts)
}

fn planner_queries(source: tde::exec::Source, what: &str) {
    // Without a predicate both plans read runs; the direct checks above
    // cover that shape.
    for pred in &planner_preds() {
        for group_by in PLANNER_GROUPINGS {
            let query = |opts| planner_query(&source, Some(pred), group_by, opts);
            assert_plans_agree(&query, &format!("{what}: by {group_by:?} {pred:?}"));
        }
    }
}

#[test]
fn planner_folds_runs_over_eager_and_paged_sources() {
    let t = sorted_key_table();
    planner_queries(tde::exec::Source::from(&t), "eager");
    // Ordered aggregation on the sorted key, in both modes.
    let (tree, _) = traced(
        &|opts| {
            Query::scan_columns(&t, &["k", "m"])
                .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
                .with_optimizer(opts)
        },
        kernel_only(),
    );
    assert!(
        tree.contains("OrderedAggregate") && tree.contains("[runs]"),
        "{tree}"
    );

    let mut db = Database::new();
    db.add_table((*t).clone());
    let path = std::env::temp_dir().join(format!("tde_run_fold_{}.tde2", std::process::id()));
    save_v2(&db, &path).unwrap();
    let paged = PagedDatabase::open(&path).unwrap();
    let pt = paged.table("t").unwrap();
    planner_queries(tde::exec::Source::from(&pt), "paged");
    std::fs::remove_file(&path).ok();
}

/// A snapshot that only appended reads its all-run-length base as runs
/// and its delta rows after them, each of weight one: every function
/// folds as the row plan folds it, and answers what an eager rebuild of
/// the merged rows answers.
#[test]
fn append_only_snapshot_folds_its_base_runs() {
    let t = sorted_key_table();
    let mut dt = tde::delta::DeltaTable::from_eager(Arc::clone(&t));
    let mut rng = Rng::new(23);
    let appended: Vec<[i64; 3]> = (0..700)
        .map(|i| {
            let k = [i / 100 + 10, NULL_I64][usize::from(i % 97 == 0)];
            let m = MEASURES[rng.below(MEASURES.len() as u64) as usize];
            // Dictionary values, one the base dictionary lacks, and NULL.
            let d = [-45, 3, 17, 99, NULL_I64][rng.below(5) as usize];
            [k, m, d]
        })
        .collect();
    let value = |v: i64| {
        if v == NULL_I64 {
            Value::Null
        } else {
            Value::Int(v)
        }
    };
    let rows: Vec<Vec<Value>> = appended
        .iter()
        .map(|r| r.iter().map(|&v| value(v)).collect())
        .collect();
    dt.append_rows(&rows).unwrap();
    let snapshot = dt.snapshot().unwrap();
    assert_eq!(snapshot.tombstone_count(), 0);
    let merged = tde::exec::Source::from(&snapshot);
    planner_queries(merged.clone(), "append-only snapshot");

    // The merged rows, rebuilt into a fresh eager table.
    let stored = |c: usize| -> Vec<i64> {
        let col = &t.columns[c];
        let raw = col.data.decode_all();
        match &col.compression {
            Compression::Array { dictionary, .. } => {
                raw.iter().map(|&code| dictionary[code as usize]).collect()
            }
            _ => raw,
        }
    };
    let rebuilt = Arc::new(Table::new(
        "t",
        (0..3)
            .map(|c| {
                let mut data = stored(c);
                data.extend(appended.iter().map(|r| r[c]));
                built_column(PLANNER_COLUMNS[c], &data)
            })
            .collect(),
    ));
    let rebuilt = tde::exec::Source::from(&rebuilt);
    let preds = planner_preds();
    for pred in std::iter::once(None).chain(preds.iter().map(Some)) {
        for group_by in PLANNER_GROUPINGS {
            let what = format!("by {group_by:?} {pred:?}");
            let (tree, _) = traced(
                &|opts| planner_query(&merged, pred, group_by, opts),
                kernel_only(),
            );
            assert!(tree.contains("[runs]"), "{what}:\n{tree}");
            let on = |source| sorted_rows(planner_query(source, pred, group_by, kernel_only()));
            assert_eq!(on(&merged), on(&rebuilt), "{what}");
        }
    }
}

fn sorted_rows(q: Query) -> Vec<Vec<Value>> {
    let mut rows = q.rows();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// Fig 10's IndexTable plans fold runs and answer what plan 1 answers:
/// grouped by the indexed key, as a grand total, and through the
/// reorder `Project` when the key is not the first column.
#[test]
fn index_table_plans_fold_runs() {
    let t = random_table(8000, 19);
    let plan1 = control();
    let plan2 = OptimizerOptions {
        ordered_retrieval: false,
        kernel_pushdown: false,
        ..Default::default()
    };
    let plan3 = OptimizerOptions::default();
    let aggs = query_aggs(2);
    let aggs = || aggs.iter().map(|(f, c, n)| (*f, *c, n.as_str())).collect();
    let cases: [(&[&str], Expr, Vec<usize>); 5] = [
        (&["k", "m"], cmp(CmpOp::Ge, 0, 1), vec![0]),
        (&["m", "k"], cmp(CmpOp::Lt, 0, 3), vec![0]),
        (&["k", "m"], cmp(CmpOp::Eq, 0, 0), vec![]),
        (&["m", "k"], cmp(CmpOp::Ge, 1, 0), vec![1]),
        (&["m", "k"], cmp(CmpOp::Ne, 1, 5), vec![0, 1]),
    ];
    for (names, pred, group_by) in cases {
        let query = |opts| {
            Query::scan_columns(&t, names)
                .filter(pred.clone())
                .aggregate(group_by.clone(), aggs())
                .with_optimizer(opts)
        };
        let want = sorted_rows(query(plan1));
        for (plan, opts) in [("plan 2", plan2), ("plan 3", plan3)] {
            let what = format!("{plan} {names:?} by {group_by:?} {pred:?}");
            let report = query(opts).explain_analyze();
            let tree = &report.operator_tree;
            assert!(
                tree.contains("IndexedScan") && tree.contains("[runs]"),
                "{what}:\n{tree}"
            );
            assert_eq!(sorted_rows(query(opts)), want, "{what}");
        }
    }
}

// ---------------------------------------------------------------------
// A grand total over one run-length column
// ---------------------------------------------------------------------

fn one_column(data: &[i64]) -> Arc<Table> {
    table(vec![rle_column("v", DataType::Integer, data)])
}

#[test]
fn matches_row_at_a_time_aggregation() {
    let mut data = Vec::new();
    for v in 0..200i64 {
        data.extend(std::iter::repeat_n((v % 9) - 4, 17 + (v as usize % 29)));
    }
    data.push(NULL_I64);
    data.push(NULL_I64);
    let t = one_column(&data);
    let scan = || TableScan::new(Arc::clone(&t));
    assert_scan_folds_agree(&scan, None, "every row");
    assert_scan_folds_agree(&scan, Some(&cmp(CmpOp::Ge, 0, 0)), "v >= 0");
    // A predicate keeping nothing: COUNT 0, NULL for the rest.
    assert_scan_folds_agree(&scan, Some(&cmp(CmpOp::Gt, 0, 1000)), "v > 1000");
}

#[test]
fn empty_input_still_emits_one_row() {
    let t = one_column(&[]);
    let scan = || TableScan::new(Arc::clone(&t));
    assert_scan_folds_agree(&scan, None, "empty");
    let (_, blocks) = Query::scan(&t)
        .aggregate(
            vec![],
            vec![(AggFunc::Count, 0, "n"), (AggFunc::Sum, 0, "s")],
        )
        .run();
    assert_eq!(blocks[0].columns, vec![vec![0], vec![NULL_I64]]);
}

/// The planner asks for runs only where the fold is exact and the leaf
/// can give them: a residual `Filter`, a stored column that is not
/// run-length, a real sum, and the plan-1 control all keep rows.
#[test]
fn ineligible_shapes_decline() {
    let rle = one_column(&[1, 1, 2]);
    let mut raw = EncodedStream::new_raw(Width::W8, true);
    raw.append_block(&[1, 2, 3]).unwrap();
    let raw = Arc::new(Table::new(
        "r",
        vec![Column::scalar("v", DataType::Integer, raw)],
    ));
    let reals = table(vec![rle_column(
        "v",
        DataType::Real,
        &[0, 0, 4607182418800017408],
    )]);
    let tree = |t: &Arc<Table>, pred: Option<Expr>, func: AggFunc, opts: OptimizerOptions| {
        let mut q = Query::scan(t);
        if let Some(p) = pred {
            q = q.filter(p);
        }
        q.aggregate(vec![], vec![(func, 0, "a")])
            .with_optimizer(opts)
            .explain_analyze()
            .operator_tree
    };
    let folds = tree(
        &rle,
        Some(cmp(CmpOp::Ge, 0, 2)),
        AggFunc::Sum,
        kernel_only(),
    );
    assert!(folds.contains("[runs]"), "{folds}");
    let declined = [
        // No value set expresses `v = v`: a Filter stays above the scan.
        tree(
            &rle,
            Some(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::col(0))),
            AggFunc::Sum,
            kernel_only(),
        ),
        tree(&raw, None, AggFunc::Sum, kernel_only()),
        tree(&reals, None, AggFunc::Sum, kernel_only()),
        tree(&rle, Some(cmp(CmpOp::Ge, 0, 2)), AggFunc::Sum, control()),
    ];
    for t in declined {
        assert!(!t.contains("[runs]"), "{t}");
    }
}
