//! Differential oracle for grouping on stored codes.
//!
//! An aggregate directly on a scan is handed each group key whose stored
//! stream is dictionary-encoded as the stream's codes, and maps each
//! group's code back to its entry once, at finish. Its output must be
//! what grouping on the decoded values gives, byte for byte: the same
//! schema, the same blocks, the groups in the same order. Every check
//! here runs the coded aggregate and a `HashAggregate` over a plain,
//! uncoded `TableScan` (under a `Filter`, for a predicate) and compares
//! both, over:
//!
//! * dictionaries of every code width, 1–15 bits, over Integer, Date and
//!   heap-`Str` keys, with and without a NULL entry;
//! * one coded key, two, and a coded key beside a frame-of-reference
//!   key; `MAX`/`MIN`/`SUM`/`COUNT` over the key itself, which folds
//!   values;
//! * a predicate on the key answered by the dictionary kernel, by the
//!   forced decode-and-test fallback (on codes) and as a residual over
//!   the coded block;
//! * eager, paged and morsel execution, and a merge snapshot, which
//!   groups on values.

mod common;

use proptest::prelude::*;
use std::sync::Arc;
use tde::encodings::{Algorithm, ColumnMetadata, EncodedStream, BLOCK_SIZE};
use tde::exec::aggregate::{AggSpec, HashAggregate};
use tde::exec::expr::{AggFunc, ArithOp, CmpOp};
use tde::exec::filter::Filter;
use tde::exec::scan::TableScan;
use tde::exec::{drain, Block, BoxOp, Expr, Need, Operator, Schema, Source};
use tde::obs::Event;
use tde::pager::{save_v2, PagedDatabase};
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{Column, Compression, Database, StringHeap, Table};
use tde::types::sentinel::{NULL_I64, NULL_TOKEN};
use tde::types::{DataType, Value, Width};
use tde::Query;

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
}

/// `values` dictionary-encoded at `bits`-bit codes.
fn dict_stream(values: &[i64], bits: u8, signed: bool) -> EncodedStream {
    let mut s = EncodedStream::new_dict(Width::W8, signed, bits);
    for chunk in values.chunks(BLOCK_SIZE) {
        s.append_block(chunk)
            .expect("the entries fit the code width");
    }
    s
}

#[derive(Clone, Copy, Debug)]
enum KeyType {
    Integer,
    Date,
    Str,
}

const KEY_TYPES: [KeyType; 3] = [KeyType::Integer, KeyType::Date, KeyType::Str];

/// The key column `k`: `rows` draws over a palette that fills most of a
/// `bits`-bit dictionary (as many entries as rows allow), with a NULL
/// entry when `null`.
fn key_column(kind: KeyType, bits: u8, rows: usize, null: bool, rng: &mut Rng) -> Column {
    let size = ((1usize << bits) - (1usize << bits) / 4 - usize::from(null)).max(1);
    let draws: Vec<usize> = (0..rows)
        .map(|_| rng.below(size as u64 + u64::from(null)) as usize)
        .collect();
    let pick = |palette: &[i64], null_raw: i64| -> Vec<i64> {
        let at = |d: usize| palette.get(d).copied().unwrap_or(null_raw);
        draws.iter().map(|&d| at(d)).collect()
    };
    match kind {
        KeyType::Integer => {
            let palette: Vec<i64> = (0..size as i64)
                .map(|i| (i * 1_000_003) % 7_919_993 - 3_000_000)
                .collect();
            let data = pick(&palette, NULL_I64);
            Column::scalar("k", DataType::Integer, dict_stream(&data, bits, true))
        }
        KeyType::Date => {
            let palette: Vec<i64> = (0..size as i64).map(|i| 8_000 + 3 * i).collect();
            let data = pick(&palette, NULL_I64);
            Column::scalar("k", DataType::Date, dict_stream(&data, bits, true))
        }
        KeyType::Str => {
            let mut heap = StringHeap::new();
            let palette: Vec<i64> = (0..size)
                .map(|i| heap.append(&format!("w{}", (i * 37) % size)) as i64)
                .collect();
            let data = pick(&palette, NULL_TOKEN as i64);
            Column {
                name: "k".into(),
                dtype: DataType::Str,
                data: dict_stream(&data, bits, false),
                compression: Compression::Heap {
                    heap: Arc::new(heap),
                    sorted: false,
                },
                metadata: ColumnMetadata::unknown(),
            }
        }
    }
}

/// `k` (see [`key_column`]), then `j`, a second dictionary key of five
/// entries, `f`, a frame-of-reference key, and `m`, a measure.
fn table(kind: KeyType, bits: u8, rows: usize, null: bool, seed: u64) -> Arc<Table> {
    let mut rng = Rng::new(seed);
    let k = key_column(kind, bits, rows, null, &mut rng);
    let j: Vec<i64> = (0..rows)
        .map(|_| [-9, 4, 70, 71, 500][rng.below(5) as usize])
        .collect();
    let f: Vec<i64> = (0..rows).map(|_| 100 + rng.below(13) as i64).collect();
    let mut frame = EncodedStream::new_frame(Width::W8, true, 100, 4);
    for chunk in f.chunks(BLOCK_SIZE) {
        frame.append_block(chunk).unwrap();
    }
    let m: Vec<i64> = (0..rows).map(|_| rng.below(1000) as i64 - 300).collect();
    let mut measure = EncodedStream::new_frame(Width::W8, true, -300, 10);
    for chunk in m.chunks(BLOCK_SIZE) {
        measure.append_block(chunk).unwrap();
    }
    let columns = vec![
        k,
        Column::scalar("j", DataType::Integer, dict_stream(&j, 3, true)),
        Column::scalar("f", DataType::Integer, frame),
        Column::scalar("m", DataType::Integer, measure),
    ];
    for c in &columns[..2] {
        assert_eq!(c.data.algorithm(), Algorithm::Dictionary, "{}", c.name);
    }
    Arc::new(Table::new("t", columns))
}

const NAMES: [&str; 4] = ["k", "j", "f", "m"];

/// Groupings: the coded key alone, two coded keys (either order), a
/// coded key beside a frame-of-reference key, and one key named twice.
const GROUPINGS: [&[usize]; 5] = [&[0], &[0, 1], &[1, 0], &[0, 2], &[0, 0]];

/// Aggregates that leave every key coded, and aggregates over the key
/// column itself, which fold its values.
fn agg_sets() -> [Vec<AggSpec>; 2] {
    [
        vec![
            AggSpec::new(AggFunc::Count, 0, "n"),
            AggSpec::new(AggFunc::Sum, 3, "s"),
            AggSpec::new(AggFunc::Min, 3, "lo"),
            AggSpec::new(AggFunc::Max, 2, "hi"),
        ],
        vec![
            AggSpec::new(AggFunc::Max, 0, "kmax"),
            AggSpec::new(AggFunc::Min, 0, "kmin"),
            AggSpec::new(AggFunc::Sum, 0, "ksum"),
            AggSpec::new(AggFunc::Count, 0, "n"),
        ],
    ]
}

/// The keys the planner groups on as codes, in column order as its scan
/// label names them: the dictionary keys `k` and `j`, but `k` only while
/// no aggregate other than `COUNT` reads it.
fn coded_names(group_by: &[usize], aggs: &[AggSpec]) -> Vec<&'static str> {
    let k_coded = aggs.iter().all(|a| a.func == AggFunc::Count || a.col != 0);
    [(0, k_coded), (1, true)]
        .into_iter()
        .filter(|&(c, coded)| coded && group_by.contains(&c))
        .map(|(c, _)| NAMES[c])
        .collect()
}

/// A predicate on the key: a value set (the dictionary kernel answers
/// it) for a scalar key, a string equality (a residual) for a string one.
fn key_set(t: &Table, pick: u64) -> Expr {
    let k = &t.columns[0];
    let entries: Vec<i64> = k.data.dict_entries().unwrap();
    let values: Vec<i64> = entries.into_iter().filter(|&v| v != NULL_I64).collect();
    let at = values.get(pick as usize % values.len().max(1)).copied();
    match k.dtype {
        DataType::Str => Expr::cmp(
            CmpOp::Eq,
            Expr::col(0),
            Expr::Lit(Value::Str(format!("w{}", pick % 7))),
        ),
        _ if pick.is_multiple_of(2) => {
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(at.unwrap_or(0)))
        }
        _ => Expr::Or(
            Box::new(Expr::cmp(
                CmpOp::Eq,
                Expr::col(0),
                Expr::int(at.unwrap_or(0)),
            )),
            Box::new(Expr::IsNull(Box::new(Expr::col(0)))),
        ),
    }
}

/// A predicate on the key no value set expresses: evaluated over the
/// scan's output block, where the key is codes.
fn key_residual(t: &Table) -> Expr {
    match t.columns[0].dtype {
        DataType::Str => key_set(t, 0),
        _ => Expr::cmp(
            CmpOp::Lt,
            Expr::Arith(ArithOp::Add, Box::new(Expr::col(0)), Box::new(Expr::col(3))),
            Expr::int(0),
        ),
    }
}

/// The reference: `HashAggregate` over a plain scan, under a `Filter`.
fn reference(
    scan: TableScan,
    pred: Option<&Expr>,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> (Schema, Vec<Block>) {
    let mut input: BoxOp = Box::new(scan);
    if let Some(p) = pred {
        input = Box::new(Filter::new(input, p.clone()));
    }
    let agg = HashAggregate::new(input, group_by.to_vec(), aggs.to_vec());
    let schema = agg.schema().clone();
    (schema, drain(Box::new(agg)))
}

/// Schemas and blocks, byte for byte. A field's `Debug` spells out its
/// representation — the heap's bytes, a dictionary's entries — and its
/// metadata.
fn assert_same(got: &(Schema, Vec<Block>), want: &(Schema, Vec<Block>), what: &str) {
    assert_eq!(
        format!("{:?}", got.0.fields),
        format!("{:?}", want.0.fields),
        "schema: {what}"
    );
    let blocks = |b: &[Block]| -> Vec<(usize, Vec<Vec<i64>>)> {
        b.iter().map(|b| (b.len, b.columns.clone())).collect()
    };
    assert_eq!(blocks(&got.1), blocks(&want.1), "blocks: {what}");
    assert!(got.1.iter().all(|b| b.weights.is_none()), "{what}");
}

fn at_degree(parallelism: usize) -> OptimizerOptions {
    OptimizerOptions {
        parallelism,
        ..OptimizerOptions::default()
    }
}

/// The planner's aggregate over `source` against the reference over
/// `plain`, and whether the plan grouped on codes — in its scan label,
/// or (morsel-parallel) in its decision events.
fn assert_planner_agrees(
    source: &Source,
    plain: &dyn Fn() -> TableScan,
    pred: Option<&Expr>,
    parallelism: usize,
    expect_codes: bool,
    what: &str,
) {
    for aggs in agg_sets() {
        for group_by in GROUPINGS {
            let what = format!("{what} by {group_by:?} {aggs:?} {pred:?}");
            let mut q = Query::scan_columns(source.clone(), &NAMES);
            if let Some(p) = pred {
                q = q.filter(p.clone());
            }
            let q = q
                .aggregate(
                    group_by.to_vec(),
                    aggs.iter()
                        .map(|a| (a.func, a.col, a.name.as_str()))
                        .collect(),
                )
                .with_optimizer(at_degree(parallelism));
            let report = q.explain_analyze();
            let decided = report.events.iter().any(|e| {
                matches!(e, Event::Decision { point, choice, .. }
                    if *point == "aggregate" && choice == "group-codes")
            });
            let names = coded_names(group_by, &aggs);
            let want = expect_codes && !names.is_empty();
            assert_eq!(decided, want, "{what}:\n{}", report.operator_tree);
            if parallelism == 1 {
                let label = format!("[codes: {}]", names.join(", "));
                let labelled = report.operator_tree.contains(&label);
                assert_eq!(labelled, want, "{what}:\n{}", report.operator_tree);
            }
            let got = (report.schema.clone(), report.blocks.clone());
            let want = reference(plain(), pred, group_by, &aggs);
            assert_same(&got, &want, &what);
        }
    }
}

/// The coded aggregate built the way the planner builds it — the
/// projection with its keys as codes, the predicate pushed into its scan
/// — with the conjunct pinned to the kernel or to decode-and-test, or
/// left residual, against the reference.
fn assert_scan_predicates_agree(t: &Arc<Table>, what: &str) {
    let plain = || TableScan::project(Arc::clone(t), &NAMES, false);
    let preds = [
        (key_set(t, 1), false),
        (key_set(t, 2), true),
        (key_residual(t), false),
    ];
    for (pred, force_fallback) in &preds {
        for group_by in GROUPINGS {
            let aggs = &agg_sets()[0];
            let need = |c| match group_by.contains(&c) {
                true => Need::Codes,
                false => Need::Values,
            };
            let (projection, chose) =
                Source::from(t)
                    .resolve(&NAMES)
                    .unwrap()
                    .with_needs(need, false, Some(pred));
            assert!(chose.codes.contains(&0), "{what}");
            let (scan, _) = projection.scan(false, Some((pred, *force_fallback)), false);
            let agg = HashAggregate::new(scan, group_by.to_vec(), aggs.clone());
            let got = (agg.schema().clone(), drain(Box::new(agg)));
            let want = reference(plain(), Some(pred), group_by, aggs);
            let what = format!("{what} by {group_by:?} {pred:?} fallback={force_fallback}");
            assert_same(&got, &want, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(24)))]

    /// Eager serial and morsel-parallel plans, and the scan-level
    /// predicate paths, at a random width, key type and table.
    #[test]
    fn coded_groups_match_value_groups(
        bits in 1u8..=15,
        kind in 0usize..3,
        rows in 0usize..9000,
        null in any::<bool>(),
        seed in 0u64..1_000_000,
        pick in 0u64..1000,
    ) {
        let t = table(KEY_TYPES[kind], bits, rows, null, seed);
        let what = format!("{:?} bits={bits} rows={rows} null={null} seed={seed}", KEY_TYPES[kind]);
        let plain = || TableScan::project(Arc::clone(&t), &NAMES, false);
        let source = Source::from(&t);
        // A string predicate becomes an invisible join: no codes under it.
        let scalar = !matches!(KEY_TYPES[kind], KeyType::Str);
        let pred = key_set(&t, pick);
        for parallelism in [1, 2] {
            let what = format!("{what} parallelism={parallelism}");
            assert_planner_agrees(&source, &plain, None, parallelism, true, &what);
            assert_planner_agrees(&source, &plain, Some(&pred), parallelism, scalar, &what);
        }
        assert_scan_predicates_agree(&t, &what);
    }
}

/// Every code width and key type, through eager, morsel-parallel, paged
/// and merge-snapshot sources. The snapshot groups on values: its scan
/// has a delta leg, and the delta rows have no codes.
#[test]
fn every_width_through_every_source() {
    let mut db = Database::new();
    let mut tables = Vec::new();
    for bits in 1u8..=15 {
        for (i, kind) in KEY_TYPES.into_iter().enumerate() {
            let t = table(
                kind,
                bits,
                4500,
                bits % 2 == 1,
                u64::from(bits) * 3 + i as u64,
            );
            let name = format!("t{bits}_{i}");
            let t = Arc::new(Table::new(&name, t.columns.clone()));
            db.add_table((*t).clone());
            tables.push((name, kind, bits, t));
        }
    }
    let path = std::env::temp_dir().join(format!("tde_group_codes_{}.tde2", std::process::id()));
    save_v2(&db, &path).unwrap();
    let paged = PagedDatabase::open(&path).unwrap();
    for (name, kind, bits, t) in &tables {
        let what = format!("{kind:?} bits={bits}");
        let plain = || TableScan::project(Arc::clone(t), &NAMES, false);
        let eager = Source::from(t);
        assert_planner_agrees(&eager, &plain, None, 1, true, &format!("eager {what}"));
        assert_planner_agrees(&eager, &plain, None, 2, true, &format!("morsel {what}"));
        let pt = paged.table(name).unwrap();
        let paged_plain = || TableScan::paged(&pt, &NAMES, false).unwrap();
        let paged_source = Source::from(&pt);
        assert_planner_agrees(
            &paged_source,
            &paged_plain,
            None,
            1,
            true,
            &format!("paged {what}"),
        );
        let snapshot = tde::delta::DeltaTable::from_eager(Arc::clone(t))
            .snapshot()
            .unwrap();
        let merged = Source::from(&snapshot);
        assert_planner_agrees(&merged, &plain, None, 1, false, &format!("snapshot {what}"));
    }
    std::fs::remove_file(&path).ok();
}

/// An empty table and a single row: no group, then one.
#[test]
fn empty_and_single_row_tables() {
    for rows in [0, 1] {
        for kind in KEY_TYPES {
            let t = table(kind, 4, rows, true, 9);
            let plain = || TableScan::project(Arc::clone(&t), &NAMES, false);
            let what = format!("{kind:?} rows={rows}");
            assert_planner_agrees(&Source::from(&t), &plain, None, 1, true, &what);
        }
    }
}
