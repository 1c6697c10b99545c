//! Differential oracle for column demand.
//!
//! Lowering decides, per scan column, whether it arrives as nothing, as
//! a dictionary stream's codes, as runs or as values. The reference here
//! is built straight from the execution operators — `TableScan::new`,
//! which reads every column as values, then `Filter`, `Project` and
//! `HashAggregate` — so no choice of the planner reaches it. The
//! planner's answer must match it row for row (hash groups canonicalised)
//! with the same root schema, over:
//!
//! * a column only a `COUNT` names, and one only a pushed conjunct tests,
//!   both dropped from the scan;
//! * a group key under a residual `Filter` (kernel pushdown off) and
//!   under a column-select `Project`, both grouped on codes;
//! * serial and morsel (degree 2) execution;
//! * eager, paged and merge-snapshot sources.

mod common;

use proptest::prelude::*;
use std::sync::Arc;
use tde::encodings::{EncodedStream, BLOCK_SIZE};
use tde::exec::aggregate::{AggSpec, HashAggregate};
use tde::exec::expr::{AggFunc, CmpOp};
use tde::exec::filter::Filter;
use tde::exec::project::Project;
use tde::exec::scan::TableScan;
use tde::exec::{drain, Block, BoxOp, Expr, Operator, Schema, Source};
use tde::obs::Event;
use tde::pager::{save_v2, PagedDatabase};
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{convert, Column, ColumnBuilder, Database, Table};
use tde::types::{DataType, Value, Width};
use tde::Query;

/// Seeded xorshift: a case's data is a function of its seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, m: u64) -> i64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % m) as i64
    }
}

const NAMES: [&str; 5] = ["k", "j", "d", "c", "m"];

/// One row's values in `NAMES` order: `k` and `j` dictionary keys, `d` a
/// filtered column, `c` a string only counted, `m` a measure.
fn draw(rng: &mut Rng, bits: u8) -> Vec<Value> {
    let palette = 1i64 << bits;
    vec![
        Value::Int(rng.below(palette as u64) * 37 + 5),
        Value::Int([-9, 4, 70, 71, 500][rng.below(5) as usize]),
        Value::Int(rng.below(1000)),
        Value::Str(format!("s{}", rng.below(40))),
        Value::Int(rng.below(2000) - 700),
    ]
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("not an integer: {other:?}"),
    }
}

/// `values` dictionary-encoded at `bits`-bit codes.
fn dict_column(name: &str, values: &[i64], bits: u8) -> Column {
    let mut s = EncodedStream::new_dict(Width::W8, true, bits);
    for chunk in values.chunks(BLOCK_SIZE) {
        s.append_block(chunk)
            .expect("the entries fit the code width");
    }
    Column::scalar(name, DataType::Integer, s)
}

/// The table of `rows`, its keys stored as dictionary streams, the rest
/// as the column builder chooses.
fn table(name: &str, rows: &[Vec<Value>], bits: u8) -> Arc<Table> {
    let ints = |c: usize| -> Vec<i64> { rows.iter().map(|r| int(&r[c])).collect() };
    let mut columns = vec![
        dict_column("k", &ints(0), bits + 1),
        dict_column("j", &ints(1), 3),
    ];
    for (c, dtype) in [
        (2, DataType::Integer),
        (3, DataType::Str),
        (4, DataType::Integer),
    ] {
        let mut b = ColumnBuilder::new(NAMES[c], dtype, Default::default());
        for r in rows {
            b.append_value(&r[c]);
        }
        columns.push(b.finish().column);
    }
    Arc::new(Table::new(name, columns))
}

/// A query shape: an optional filter, an optional projection, then an
/// aggregate.
struct Shape {
    what: &'static str,
    filter: Option<Expr>,
    project: Option<Vec<(String, Expr)>>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
}

fn shapes(cut: i64) -> Vec<Shape> {
    let below = Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::int(cut));
    let agg = AggSpec::new;
    vec![
        Shape {
            what: "a column only COUNT names",
            filter: None,
            project: None,
            group_by: vec![0],
            aggs: vec![agg(AggFunc::Count, 3, "n"), agg(AggFunc::Sum, 4, "s")],
        },
        Shape {
            what: "a column only a conjunct tests",
            filter: Some(below.clone()),
            project: None,
            group_by: vec![1],
            aggs: vec![agg(AggFunc::Count, 2, "n"), agg(AggFunc::Max, 4, "mx")],
        },
        Shape {
            what: "a key under a filter",
            filter: Some(below),
            project: None,
            group_by: vec![0, 1],
            aggs: vec![agg(AggFunc::Min, 4, "lo"), agg(AggFunc::Count, 0, "n")],
        },
        Shape {
            what: "a key under a column selection",
            filter: None,
            project: Some(vec![
                ("pm".into(), Expr::col(4)),
                ("pk".into(), Expr::col(0)),
                ("pc".into(), Expr::col(3)),
            ]),
            group_by: vec![1],
            aggs: vec![agg(AggFunc::Sum, 0, "s"), agg(AggFunc::Count, 2, "n")],
        },
        Shape {
            what: "a grand total",
            filter: None,
            project: None,
            group_by: vec![],
            aggs: vec![agg(AggFunc::Count, 0, "n"), agg(AggFunc::Sum, 4, "s")],
        },
    ]
}

/// The shape through the planner, over `source`.
fn planned(source: Source, shape: &Shape, opts: OptimizerOptions) -> (Schema, Vec<Block>) {
    let mut q = Query::scan_columns(source, &NAMES).with_optimizer(opts);
    if let Some(p) = &shape.filter {
        q = q.filter(p.clone());
    }
    if let Some(exprs) = &shape.project {
        q = q.project(exprs.clone());
    }
    let aggs = shape.aggs.iter().map(|a| (a.func, a.col, a.name.as_str()));
    q.aggregate(shape.group_by.clone(), aggs.collect()).run()
}

/// The shape built from the operators alone, every column read as
/// values.
fn reference(t: &Arc<Table>, shape: &Shape) -> (Schema, Vec<Block>) {
    let mut input: BoxOp = Box::new(TableScan::new(Arc::clone(t)));
    if let Some(p) = &shape.filter {
        input = Box::new(Filter::new(input, p.clone()));
    }
    if let Some(exprs) = &shape.project {
        input = Box::new(Project::new(input, exprs.clone()));
    }
    let agg = HashAggregate::new(input, shape.group_by.clone(), shape.aggs.clone());
    let schema = agg.schema().clone();
    (schema, drain(Box::new(agg)))
}

/// Field names and types, and the rows as values, sorted.
fn canonical((schema, blocks): &(Schema, Vec<Block>)) -> (Vec<String>, Vec<String>) {
    let fields = schema
        .fields
        .iter()
        .map(|f| format!("{}: {:?}", f.name, f.dtype))
        .collect();
    let mut rows: Vec<String> = blocks
        .iter()
        .flat_map(|b| {
            (0..b.len).map(move |r| {
                let row: Vec<Value> = (0..schema.len())
                    .map(|c| schema.fields[c].value_of(b.columns[c][r]))
                    .collect();
                format!("{row:?}")
            })
        })
        .collect();
    rows.sort();
    (fields, rows)
}

/// Every shape over `source` — serial and at degree 2, with every
/// rewrite and with kernel pushdown off — against the reference over
/// `plain`, a table of the same rows.
fn assert_demand_agrees(source: &Source, plain: &Arc<Table>, cut: i64, what: &str) {
    for shape in shapes(cut) {
        let want = canonical(&reference(plain, &shape));
        for parallelism in [1, 2] {
            for kernel_pushdown in [true, false] {
                let opts = OptimizerOptions {
                    kernel_pushdown,
                    parallelism,
                    ..OptimizerOptions::default()
                };
                let got = canonical(&planned(source.clone(), &shape, opts));
                assert_eq!(
                    got, want,
                    "{what}: {} at parallelism {parallelism}, pushdown {kernel_pushdown}",
                    shape.what
                );
            }
        }
    }
}

fn rows(n: usize, bits: u8, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| draw(&mut rng, bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(24)))]

    /// Eager and merge-snapshot sources at a random size, key width and
    /// filter cut. The snapshot deletes some base rows and appends new
    /// ones; its reference is a table of the merged rows.
    #[test]
    fn demand_matches_values_everywhere(
        n in 0usize..9000,
        bits in 1u8..=10,
        seed in 0u64..1_000_000,
        cut in 0i64..1000,
    ) {
        let base = rows(n, bits, seed);
        let t = table("cd_t", &base, bits);
        let what = format!("rows={n} bits={bits} seed={seed} cut={cut}");
        assert_demand_agrees(&Source::from(&t), &t, cut, &format!("eager {what}"));

        let mut delta = tde::delta::DeltaTable::from_eager(Arc::clone(&t));
        let deleted: Vec<u64> = (0..n as u64).filter(|i| (i + seed) % 11 == 0).collect();
        delta.delete(&deleted).unwrap();
        let appended = rows(300, bits, seed + 1);
        delta.append_rows(&appended).unwrap();
        let merged: Vec<Vec<Value>> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| !deleted.contains(&(*i as u64)))
            .map(|(_, r)| r.clone())
            .chain(appended)
            .collect();
        let snapshot = delta.snapshot().unwrap();
        let plain = table("cd_t", &merged, bits);
        assert_demand_agrees(&Source::from(&snapshot), &plain, cut, &format!("snapshot {what}"));
    }
}

/// A paged source, which demand-loads what its scans resolve.
#[test]
fn paged_demand_matches_values() {
    let t = table("cd_paged", &rows(7000, 6, 17), 6);
    let mut db = Database::new();
    db.add_table((*t).clone());
    let path = std::env::temp_dir().join(format!("tde_column_demand_{}.tde2", std::process::id()));
    save_v2(&db, &path).unwrap();
    let paged = PagedDatabase::open(&path).unwrap();
    let pt = paged.table("cd_paged").unwrap();
    assert_demand_agrees(&Source::from(&pt), &t, 400, "paged");
    std::fs::remove_file(&path).ok();
}

/// The scan leaf's label in `tree`.
fn scan_leaf(tree: &str) -> &str {
    let leaf = tree.lines().find(|l| l.trim_start().starts_with("Scan "));
    leaf.unwrap_or_else(|| panic!("no scan in\n{tree}")).trim()
}

/// The two-column `ea_sales` table: an array-compressed day, a quantity.
fn sales_table() -> Arc<Table> {
    let days: Vec<i64> = (0..20_000).map(|i| 9_000 + i % 2_000).collect();
    let mut stream = EncodedStream::new_dict(Width::W8, true, 11);
    for c in days.chunks(BLOCK_SIZE) {
        stream.append_block(c).unwrap();
    }
    let mut day = Column::scalar("ea_day", DataType::Date, stream);
    convert::dict_encoding_to_compression(&mut day);
    let mut qty = ColumnBuilder::new("ea_qty", DataType::Integer, Default::default());
    for i in 0..20_000i64 {
        qty.append_i64(i % 31);
    }
    Arc::new(Table::new("ea_sales", vec![day, qty.finish().column]))
}

/// A grand total that counts and sums one column never gathers the
/// other: the scan keeps its `Scan ea_sales [ea_day, ea_qty]` label and
/// names the column it drops, and the `drop-columns` decision says so.
#[test]
fn an_unread_column_is_dropped_and_named() {
    let t = sales_table();
    let report = Query::scan(&t)
        .aggregate(
            vec![],
            vec![(AggFunc::Count, 1, "n"), (AggFunc::Sum, 1, "s")],
        )
        .explain_analyze();
    let leaf = scan_leaf(&report.operator_tree);
    assert!(
        leaf.starts_with("Scan ea_sales [ea_day, ea_qty]") && leaf.contains(" [dropped: ea_day]"),
        "{leaf}"
    );
    assert!(
        report.events.iter().any(|e| matches!(e,
            Event::Decision { point, choice, reason, .. }
                if *point == "scan" && choice == "drop-columns" && reason.contains("ea_day"))),
        "{:?}",
        report.events
    );
    let sum: i64 = (0..20_000i64).map(|i| i % 31).sum();
    assert_eq!(report.blocks[0].columns, vec![vec![20_000], vec![sum]]);
}

/// With kernel pushdown off the filter stays above the scan, and the key
/// it does not read still arrives as codes; a pushed conjunct's column
/// that nothing else reads is dropped.
#[test]
fn a_key_under_a_residual_filter_arrives_as_codes() {
    let t = table("cd_codes", &rows(6000, 7, 3), 7);
    let shape = &shapes(500)[2];
    let tree = |kernel_pushdown: bool| {
        let opts = OptimizerOptions {
            kernel_pushdown,
            ..OptimizerOptions::default()
        };
        let mut q = Query::scan_columns(&t, &NAMES).with_optimizer(opts);
        q = q.filter(shape.filter.clone().unwrap());
        let aggs = shape.aggs.iter().map(|a| (a.func, a.col, a.name.as_str()));
        let report = q
            .aggregate(shape.group_by.clone(), aggs.collect())
            .explain_analyze();
        assert_eq!(
            canonical(&(report.schema.clone(), report.blocks.clone())),
            canonical(&reference(&t, shape))
        );
        report.operator_tree
    };
    let residual = tree(false);
    assert!(residual.contains("Filter"), "{residual}");
    let leaf = scan_leaf(&residual);
    assert!(
        leaf.contains("[dropped: c]") && leaf.contains("[codes: k, j]"),
        "{residual}"
    );
    let pushed = tree(true);
    let leaf = scan_leaf(&pushed);
    assert!(
        !pushed.contains("Filter") && leaf.contains("[dropped: d, c]"),
        "{pushed}"
    );
}
