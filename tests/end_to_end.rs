//! End-to-end integration: generate → import → save → load → query, across
//! the crates. These tests exercise the same paths as the paper's
//! evaluation pipeline, at test scale.

use std::sync::Arc;
use tde::datagen::tpch::{write_table, TpchTable};
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::plan::strategic::OptimizerOptions;
use tde::textscan::{import_file, ImportOptions};
use tde::types::Value;
use tde::{Extract, Query};

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("tde_integration").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn import_tpch(table: TpchTable, sf: f64, dir: &std::path::Path) -> tde::textscan::ImportResult {
    let path = write_table(dir, table, sf, 42).unwrap();
    let schema = table
        .schema()
        .into_iter()
        .map(|(n, t)| (n.to_owned(), t))
        .collect();
    import_file(
        &path,
        &ImportOptions {
            schema: Some(schema),
            has_header: Some(false),
            table_name: table.name().to_owned(),
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn tpch_lineitem_import_roundtrip() {
    let dir = tmp("lineitem");
    let path = write_table(&dir, TpchTable::Lineitem, 0.002, 42).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let result = import_tpch(TpchTable::Lineitem, 0.002, &dir);
    let table = &result.table;
    assert_eq!(table.row_count() as usize, text.lines().count());
    assert_eq!(result.parse_errors, 0);

    // Spot-check parsed values against the raw text.
    for (row, line) in text.lines().enumerate().step_by(197) {
        let fields: Vec<&str> = line.trim_end_matches('|').split('|').collect();
        assert_eq!(
            table.column("l_orderkey").unwrap().value(row as u64),
            Value::Int(fields[0].parse().unwrap()),
            "row {row}"
        );
        assert_eq!(
            table.column("l_shipmode").unwrap().value(row as u64),
            Value::Str(fields[14].to_owned())
        );
        assert_eq!(
            table
                .column("l_shipdate")
                .unwrap()
                .value(row as u64)
                .to_string(),
            fields[10]
        );
        let price: f64 = fields[5].parse().unwrap();
        match table.column("l_extendedprice").unwrap().value(row as u64) {
            Value::Real(v) => assert!((v - price).abs() < 1e-6),
            other => panic!("expected real, got {other}"),
        }
    }
}

#[test]
fn tpch_q1_style_aggregate_matches_reference() {
    // A pricing-summary-style query computed by the engine and by a naive
    // reference over the parsed values.
    let dir = tmp("q1");
    let result = import_tpch(TpchTable::Lineitem, 0.002, &dir);
    let table = Arc::new(result.table);
    let flag = table.column_index("l_returnflag").unwrap();
    let qty = table.column_index("l_quantity").unwrap();

    let mut rows = Query::scan(&table)
        .aggregate(
            vec![flag],
            vec![(AggFunc::Count, qty, "n"), (AggFunc::Sum, qty, "sum_qty")],
        )
        .rows();
    rows.sort_by_key(|r| r[0].to_string());

    // Reference computation.
    use std::collections::BTreeMap;
    let mut reference: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    for row in 0..table.row_count() {
        let f = table.columns[flag].value(row).to_string();
        let q = table.columns[qty].value(row).as_i64().unwrap();
        let e = reference.entry(f).or_default();
        e.0 += 1;
        e.1 += q;
    }
    assert_eq!(rows.len(), reference.len());
    for row in &rows {
        let (n, sum) = reference[&row[0].to_string()];
        assert_eq!(row[1], Value::Int(n), "count for {}", row[0]);
        assert_eq!(row[2], Value::Int(sum), "sum for {}", row[0]);
    }
}

#[test]
fn extract_save_load_preserves_all_tables() {
    let dir = tmp("extract");
    let mut extract = Extract::new();
    for table in [TpchTable::Region, TpchTable::Nation, TpchTable::Supplier] {
        let r = import_tpch(table, 0.01, &dir);
        extract.add_table(r.table);
    }
    let file = dir.join("tiny.tde");
    extract.save(&file).unwrap();
    let loaded = Extract::load(&file).unwrap();
    assert_eq!(loaded.tables().len(), 3);
    let nation = loaded.table("nation").unwrap();
    assert_eq!(nation.row_count(), 25);
    assert_eq!(
        nation.column("n_name").unwrap().value(0),
        Value::Str("ALGERIA".into())
    );
    // Metadata round-trips: nation keys are dense and unique.
    let key = nation.column("n_nationkey").unwrap();
    assert!(key.metadata.dense.is_true());
    assert!(key.metadata.unique.is_true());
}

#[test]
fn foreign_key_join_through_engine() {
    // orders ⋈ customer on custkey, via the Join operator with tactical
    // choice: customer keys are dense 1..n, so this must be a fetch join.
    use tde::exec::join::{Join, JoinKind};
    use tde::exec::scan::TableScan;
    use tde::exec::tactical::JoinChoice;
    use tde::exec::Operator;

    let dir = tmp("fkjoin");
    let customer = Arc::new(import_tpch(TpchTable::Customer, 0.002, &dir).table);
    let orders = Arc::new(import_tpch(TpchTable::Orders, 0.002, &dir).table);
    let c_key = customer.column_index("c_custkey").unwrap();
    let c_seg = customer.column_index("c_mktsegment").unwrap();
    let o_cust = orders.column_index("o_custkey").unwrap();

    let cust_schema = TableScan::new(customer.clone()).schema().clone();
    let join = Join::new(
        Box::new(TableScan::new(orders.clone())),
        &customer,
        &cust_schema,
        o_cust,
        c_key,
        &[c_seg],
        JoinKind::Inner,
    );
    assert!(
        matches!(join.choice, JoinChoice::Fetch { .. }),
        "{:?}",
        join.choice
    );
    let schema = join.schema().clone();
    let mut op: tde::exec::BoxOp = Box::new(join);
    let mut total = 0u64;
    let seg_col = schema.len() - 1;
    while let Some(b) = op.next_block() {
        total += b.len as u64;
        // Every joined segment value is one of the five TPC-H segments.
        for r in 0..b.len {
            let v = schema.fields[seg_col]
                .value_of(b.columns[seg_col][r])
                .to_string();
            assert!(
                [
                    "AUTOMOBILE",
                    "BUILDING",
                    "FURNITURE",
                    "MACHINERY",
                    "HOUSEHOLD"
                ]
                .contains(&v.as_str()),
                "{v}"
            );
        }
    }
    assert_eq!(total, orders.row_count());
}

#[test]
fn optimizer_plans_agree_on_flights() {
    // A date filter over the flights extract, with and without the
    // strategic rewrites, must return identical results.
    let dir = tmp("flights_agree");
    let csv = dir.join("flights.csv");
    tde::datagen::flights::write_file(&csv, 30_000, 11).unwrap();
    let mut result = import_file(
        &csv,
        &ImportOptions {
            table_name: "flights".into(),
            ..Default::default()
        },
    )
    .unwrap();
    tde::design::optimize_physical_design(&mut result.table, Default::default());
    let flights = Arc::new(result.table);

    let cutoff = Expr::Lit(Value::date(2003, 1, 1));
    let build = |opts: OptimizerOptions| {
        Query::scan_columns(&flights, &["flight_date", "distance"])
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), cutoff.clone()))
            .aggregate(
                vec![],
                vec![(AggFunc::Count, 1, "n"), (AggFunc::Sum, 1, "dist")],
            )
            .with_optimizer(opts)
            .rows()
    };
    let clever = build(OptimizerOptions::default());
    let naive = build(OptimizerOptions {
        invisible_joins: false,
        index_tables: false,
        ordered_retrieval: false,
        kernel_pushdown: false,
        parallelism: 1,
    });
    assert_eq!(clever, naive);
    assert!(matches!(clever[0][0], Value::Int(n) if n > 0));
}

#[test]
fn string_predicate_pushdown_agrees() {
    // Equality on a small-domain string column: pushed to the dictionary
    // (semi-join) vs evaluated row-at-a-time.
    let dir = tmp("string_pushdown");
    let customer = Arc::new(import_tpch(TpchTable::Customer, 0.002, &dir).table);
    let seg = customer.column_index("c_mktsegment").unwrap();
    let build = |opts: OptimizerOptions| {
        Query::scan_columns(&customer, &["c_mktsegment", "c_custkey"])
            .filter(Expr::cmp(
                CmpOp::Eq,
                Expr::col(0),
                Expr::Lit(Value::Str("BUILDING".into())),
            ))
            .with_optimizer(opts)
            .rows()
            .len()
    };
    let _ = seg;
    let clever = build(OptimizerOptions::default());
    let naive = build(OptimizerOptions {
        invisible_joins: false,
        index_tables: false,
        ordered_retrieval: false,
        kernel_pushdown: false,
        parallelism: 1,
    });
    assert_eq!(clever, naive);
    assert!(clever > 0);
}

/// One table held every way a query can meet it: eager, paged (saved as
/// v2 and reopened), merged (an empty delta over the paged base), and
/// under a live delta (appends plus tombstones, neither touching key 0),
/// named by its residency tag. Columns: `d` dictionary-compressed dates,
/// `k` a sorted run-length key, `v` a plain integer.
fn residencies(name: &str) -> Vec<(&'static str, tde::exec::Source)> {
    use tde::encodings::{EncodedStream, BLOCK_SIZE};
    use tde::storage::{convert, Column, ColumnBuilder, Database, EncodingPolicy, Table};
    use tde::types::{DataType, Width};

    const ROWS: i64 = 20_000;
    let days: Vec<i64> = (0..ROWS).map(|i| 9_000 + i % 200).collect();
    let mut d = EncodedStream::new_dict(Width::W8, true, 8);
    let keys: Vec<i64> = (0..ROWS).map(|i| i / 200).collect();
    let mut k = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W1);
    for (dc, kc) in days.chunks(BLOCK_SIZE).zip(keys.chunks(BLOCK_SIZE)) {
        d.append_block(dc).unwrap();
        k.append_block(kc).unwrap();
    }
    let mut d = Column::scalar("d", DataType::Date, d);
    convert::dict_encoding_to_compression(&mut d);
    let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
    for i in 0..ROWS {
        v.append_i64((i * 7_919) % 1_000);
    }
    let table = Table::new(
        "facts",
        vec![
            d,
            Column::scalar("k", DataType::Integer, k),
            v.finish().column,
        ],
    );

    let path = tmp(name).join("facts.tde2");
    let mut db = Database::new();
    db.add_table(table.clone());
    tde::pager::save_v2(&db, &path).unwrap();
    let paged = tde::pager::PagedDatabase::open(&path)
        .unwrap()
        .table("facts")
        .unwrap();
    let merged = tde::delta::DeltaTable::from_paged(paged.clone())
        .snapshot()
        .unwrap();
    let mut live = tde::delta::DeltaTable::from_paged(paged.clone());
    let appended: Vec<Vec<Value>> = (0..40)
        .map(|i| vec![Value::Date(9_000 + i), Value::Int(99), Value::Int(i * 11)])
        .collect();
    live.append_rows(&appended).unwrap();
    live.delete(&(1_000..1_050).collect::<Vec<u64>>()).unwrap();
    let live = live.snapshot().unwrap();
    vec![
        ("eager", (&Arc::new(table)).into()),
        ("paged", (&paged).into()),
        ("merged", (&merged).into()),
        ("merged (+40 delta, -50 tombstone)", (&live).into()),
    ]
}

/// Residency changes no plan choice except the documented guards: the
/// invisible-join, IndexedScan and ordered-retrieval rewrites read
/// dictionary and run structure off the stored column, so they fire for
/// the resident source only, and a tombstone keeps a scan from folding
/// runs. Kernel pushdown and the morsel wrap fire for every source, and
/// every scan leaf says how its pushed predicate is answered the same
/// way.
#[test]
fn plan_choices_are_stable_across_residencies() {
    type Shape = fn(Query) -> Query;
    fn between(col: usize, lo: i64, hi: i64) -> Expr {
        Expr::And(
            Box::new(Expr::cmp(CmpOp::Ge, Expr::col(col), Expr::int(lo))),
            Box::new(Expr::cmp(CmpOp::Le, Expr::col(col), Expr::int(hi))),
        )
    }
    // (query, the decompression-join rewrites it earns when resident,
    //  whether its predicate is pushed into the scan otherwise)
    let queries: [(&str, Shape, &[&str], bool); 4] = [
        (
            "dictionary-column filter",
            |q| q.filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9_050))),
            &["ExpandJoin"],
            true,
        ),
        (
            "RLE-column filter + group-by",
            |q| {
                q.filter(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::int(80)))
                    .aggregate(vec![1], vec![(AggFunc::Max, 2, "mx")])
            },
            &["IndexedScan", " ordered"],
            true,
        ),
        (
            "range filter",
            |q| q.filter(between(2, 100, 300)),
            &[],
            true,
        ),
        (
            "bare group-by",
            |q| q.aggregate(vec![2], vec![(AggFunc::Count, 0, "n")]),
            &[],
            false,
        ),
    ];
    for (residency, source) in residencies("plan_stability") {
        for (what, shape, resident_rewrites, pushes) in queries {
            let plan = shape(Query::scan(source.clone()))
                .with_parallelism(2)
                .explain();
            let ctx = format!("{what} over the {residency} source:\n{plan}");
            // An IndexedScan replaces the scan leaf; every other plan
            // keeps it, and the leaf says how the source is held.
            assert_eq!(
                plan.contains(&format!("Scan facts [d, k, v] residency={residency}")),
                !plan.contains("IndexedScan"),
                "{ctx}"
            );
            let rewritten = residency == "eager" && !resident_rewrites.is_empty();
            for marker in ["ExpandJoin", "IndexedScan", " ordered"] {
                assert_eq!(
                    plan.contains(marker),
                    rewritten && resident_rewrites.contains(&marker),
                    "{marker}: {ctx}"
                );
            }
            // Where no decompression join took the predicate, the scan
            // does, and the pipeline is one the morsel executor runs.
            assert_eq!(plan.contains("+pred"), pushes && !rewritten, "{ctx}");
            assert_eq!(plan.contains("Morsel [parallel=2]"), !rewritten, "{ctx}");
            // Serially the scan leaf names the kernels that answer it.
            let tree = shape(Query::scan(source.clone()))
                .explain_analyze()
                .operator_tree;
            let ctx = format!("{what} over the {residency} source:\n{tree}");
            if pushes && !rewritten {
                assert!(tree.contains(" where [kernel="), "{ctx}");
            }
            assert!(!tree.contains("[mode="), "{ctx}");
        }
        // A group-by over the run-length key alone: every residency offers
        // the morsel wrap, but where the key is read as stored the
        // aggregate folds its runs, and lowering keeps that serial — one
        // pass over 100 runs beats any split of 20 000 rows. A snapshot
        // without tombstones reads its base's runs as they are stored (its
        // delta rows would follow as rows), so the empty delta folds too;
        // tombstones cut runs, so the live delta reads rows and goes
        // parallel.
        let report = Query::scan_columns(source.clone(), &["k"])
            .aggregate(vec![0], vec![(AggFunc::Count, 0, "n")])
            .with_parallelism(2)
            .explain_analyze();
        let folds = !residency.contains("tombstone");
        let tree = &report.operator_tree;
        assert!(report.logical.contains("Morsel [parallel=2]"), "{tree}");
        assert_eq!(tree.contains("[runs]"), folds, "{residency}:\n{tree}");
        assert_eq!(
            tree.contains("[parallel=2]"),
            !folds,
            "{residency}:\n{tree}"
        );
        if folds {
            assert!(
                report.events.iter().any(|e| matches!(
                    e,
                    tde::obs::Event::Decision { point: "parallelism", choice, reason }
                        if choice == "serial" && reason.contains("folds per run")
                )),
                "{residency}: {:?}",
                report.events
            );
        }
        assert_eq!(
            report.blocks[0].columns[1][0], 200,
            "{residency}: COUNT of key 0"
        );
    }
}

/// A projection naming a column the source does not have is the same
/// `InvalidInput` error — naming the source and the column — whatever
/// the residency and whichever lowering path meets it.
#[test]
fn unknown_column_is_invalid_input_for_every_residency() {
    type Shape = fn(Query) -> Query;
    let shapes: [(&str, Shape); 3] = [
        ("scan", |q| q),
        ("grand total", |q| {
            q.aggregate(vec![], vec![(AggFunc::Count, 0, "n")])
        }),
        ("morsel pipeline", |q| {
            q.filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(5)))
                .with_parallelism(2)
        }),
    ];
    for (residency, source) in residencies("unknown_column") {
        for (what, shape) in shapes {
            let err = shape(Query::scan_columns(source.clone(), &["v", "nope"]))
                .try_rows()
                .expect_err("a missing column must not resolve");
            let ctx = format!("{what} over the {residency} source: {err}");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{ctx}");
            let msg = err.to_string();
            assert!(
                msg.contains("\"nope\"") && msg.contains("\"facts\"") && msg.contains(residency),
                "{ctx}"
            );
        }
    }
}

/// The §5.3 table the `rle_dashboard` workload queries, small: two
/// sorted run-length keys over `[0, 100)`, an affine id and a 16-value
/// dictionary column, each built through the column builder.
fn dashboard_table() -> Arc<tde::storage::Table> {
    use tde::storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde::types::DataType;
    let runs = tde::datagen::rle::RleTable::generate(200_000, 1);
    let column = |name: &str, vals: &[i64]| {
        let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
        b.append_raw(vals);
        b.finish().column
    };
    let expand = |runs: Vec<(i64, u64)>| -> Vec<i64> {
        runs.into_iter()
            .flat_map(|(v, c)| std::iter::repeat_n(v, c as usize))
            .collect()
    };
    let (primary, secondary) = (expand(runs.primary_runs()), expand(runs.secondary_runs()));
    let rows = primary.len() as i64;
    let id: Vec<i64> = (0..rows).map(|i| 1000 + 3 * i).collect();
    let cat: Vec<i64> = (0..rows).map(|i| (i * 7_919 % 16) * 1_000_003).collect();
    Arc::new(Table::new(
        "rle",
        vec![
            column("primary", &primary),
            column("secondary", &secondary),
            column("id", &id),
            column("cat", &cat),
        ],
    ))
}

/// Every `rle_dashboard` query shape keeps its logical plan: the cost of
/// building an IndexTable is no input to any plan choice, so making it
/// cheaper must not move one — but a predicate the column's min/max
/// already decides builds no IndexTable at all: the scan answers it from
/// metadata. The texts are pinned.
#[test]
fn rle_dashboard_plans_are_pinned() {
    let t = dashboard_table();
    let ge = |c: usize, v: i64| Expr::cmp(CmpOp::Ge, Expr::col(c), Expr::int(v));
    let fig10 = |key: &str, other: &str| {
        Query::scan_columns(&t, &[key, other])
            .filter(ge(0, 95))
            .aggregate(vec![0], vec![(AggFunc::Max, 1, "mx")])
    };
    let counted = |cols: [&str; 2], pred: Expr, group: Vec<usize>| {
        Query::scan_columns(&t, &cols)
            .filter(pred)
            .aggregate(group, vec![(AggFunc::Count, 0, "n")])
    };
    let indexed = |key: &str, fetch: &str, aggs: &str, group: &str, ordered: &str| {
        format!(
            "Aggregate group_by=[{group}] aggs={aggs}\n  \
             IndexedScan rle.{key} fetch=[{fetch}] +filter{ordered}\n"
        )
    };
    let sites = [
        (
            "fig10 primary",
            fig10("primary", "secondary"),
            indexed("primary", "secondary", "1", "0", " ordered"),
        ),
        (
            "fig10 secondary",
            fig10("secondary", "primary"),
            indexed("secondary", "primary", "1", "0", " ordered"),
        ),
        (
            "run_agg",
            Query::scan_columns(&t, &["secondary", "primary"])
                .filter(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(17)))
                .aggregate(
                    vec![],
                    vec![(AggFunc::Count, 0, "n"), (AggFunc::Sum, 1, "s")],
                ),
            indexed("secondary", "primary", "2", "", ""),
        ),
        (
            "affine_range",
            counted(
                ["id", "cat"],
                Expr::And(
                    Box::new(ge(0, 31_000)),
                    Box::new(Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(181_000))),
                ),
                vec![1],
            ),
            "Aggregate group_by=[1] aggs=1\n  Scan rle [id, cat] residency=eager +pred\n".into(),
        ),
        (
            "out_of_range primary",
            counted(["primary", "cat"], ge(0, 500), vec![1]),
            "Aggregate group_by=[1] aggs=1\n  Scan rle [primary, cat] residency=eager +pred\n"
                .into(),
        ),
        (
            "out_of_range secondary",
            counted(
                ["secondary", "cat"],
                Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(-5)),
                vec![1],
            ),
            "Aggregate group_by=[1] aggs=1\n  Scan rle [secondary, cat] residency=eager +pred\n"
                .into(),
        ),
    ];
    for (site, query, pinned) in sites {
        assert_eq!(query.explain(), pinned, "{site}");
    }
}
