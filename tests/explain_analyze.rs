//! End-to-end EXPLAIN ANALYZE: a scan -> filter -> invisible join ->
//! aggregate query must come back with per-operator counters, at least
//! one tactical decision event, at least one dynamic-encoding event, and
//! per-table compression telemetry.
//!
//! A report is a view of its query's own timeline scope, so queries that
//! other tests in this binary run concurrently cannot reach it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tde::encodings::{EncodedStream, BLOCK_SIZE};
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::obs::{timeline, Event};
use tde::storage::{convert, Column, ColumnBuilder, Table};
use tde::types::{DataType, Width};
use tde::Query;

fn sales_table() -> Arc<Table> {
    // 2000 distinct days: a dense prefix, then gapped values so the
    // invisible join's dictionary materialization breaks its initial
    // affine encoding and re-encodes mid-load.
    let day_of = |i: i64| {
        if i < 1500 {
            9_000 + i
        } else {
            9_000 + i + (i - 1500) * 7
        }
    };
    let days: Vec<i64> = (0..20_000).map(|i| day_of(i % 2_000)).collect();
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

#[test]
fn report_has_operator_stats_decisions_and_telemetry() {
    let t = sales_table();
    let report = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9_100)))
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
        .explain_analyze();

    // The query itself still ran: 100 qualifying days.
    assert_eq!(report.row_count, 100);
    assert_eq!(report.blocks.iter().map(|b| b.len as u64).sum::<u64>(), 100);

    // Operator tree: aggregate over join over scan, each with counters.
    let tree = &report.operator_tree;
    assert!(tree.contains("Aggregate"), "{tree}");
    assert!(tree.contains("ExpandJoin ea_sales.ea_day"), "{tree}");
    assert!(tree.contains("Scan ea_sales [ea_day, ea_qty]"), "{tree}");
    let scan = report
        .operators
        .iter()
        .find(|n| n.label.starts_with("Scan ea_sales"))
        .expect("scan node present");
    assert_eq!(scan.rows, 20_000);
    assert!(scan.blocks > 1);
    assert!(scan.elapsed.as_nanos() > 0);
    let root = &report.operators[0];
    assert!(root.parent.is_none());
    assert_eq!(root.rows, 100);

    // At least one tactical decision and one dynamic-encoding event from
    // objects this test created.
    assert!(
        report.events.iter().any(|e| matches!(
            e,
            Event::Decision { point, reason, .. }
                if *point == "join" && reason.contains("token")
        )),
        "no join decision in {:?}",
        report.events
    );
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, Event::Reencode { .. } | Event::ColumnBuilt { .. })),
        "no dynamic-encoding event in {:?}",
        report.events
    );

    // Compression telemetry for the scanned table.
    let (name, rows, cols) = report
        .tables
        .iter()
        .find(|(n, _, _)| n == "ea_sales")
        .expect("telemetry for ea_sales");
    assert_eq!(name, "ea_sales");
    assert_eq!(*rows, 20_000);
    let day = cols.iter().find(|c| c.column == "ea_day").unwrap();
    assert_eq!(day.cardinality, Some(2_000));
    assert!(day.compression.starts_with("array["), "{}", day.compression);
    assert!(day.physical_bytes > 0 && day.logical_bytes > 0);

    // JSON is well-formed enough for the bench harness: key sections and
    // balanced braces.
    let json = report.to_json();
    for key in [
        "\"operators\":[",
        "\"events\":[",
        "\"tables\":[",
        "\"rows\":100",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON braces");
}

/// Serialises the tests here that flip the process-wide timeline gate,
/// read the trace ring, or churn it.
fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn untraced_execution_records_nothing() {
    // A table of its own, so an event naming it can only come from the
    // untraced query below.
    let mut day = ColumnBuilder::new("un_day", DataType::Date, Default::default());
    for i in 0..20_000i64 {
        day.append_i64(9_000 + i % 2_000);
    }
    let t = Arc::new(Table::new("un_sales", vec![day.finish().column]));
    // Unscoped events wait in the lanes until a scope ends; this one
    // takes the table build's re-encoding with it.
    let drain = || {
        let probe = timeline::query_begin(tde::obs::span::next_query_id());
        timeline::query_end(probe, "", 0, 0, None, &[])
    };
    let _gate = gate_lock();
    drain();
    // With the timeline off a plain run opens no scope: it must not
    // panic in any emit path…
    let prev = timeline::set_enabled(false);
    let rows = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9_050)))
        .rows();
    // …nor leave a scope open behind it.
    let still_recording = timeline::recording();
    timeline::set_enabled(prev);
    assert_eq!(rows.len(), 50 * 10); // 50 days x 10 rows each
    assert!(!still_recording, "the untraced query left a scope open");
    // Whatever it had recorded would sit in the lanes unscoped.
    let probe = drain();
    let ours: Vec<_> = probe
        .events
        .iter()
        .filter(|e| format!("{:?}", e.kind).contains("un_"))
        .collect();
    assert!(ours.is_empty(), "untraced query recorded {ours:?}");
}

/// EXPLAIN ANALYZE opens its own timeline scope, so it reports the
/// whole operator tree and every event with the timeline disabled — the
/// same report it gives with the timeline on.
#[test]
fn explain_analyze_reports_with_the_timeline_disabled() {
    let t = sales_table();
    let report = |on: bool| {
        let _gate = gate_lock();
        let prev = timeline::set_enabled(on);
        let report = Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9_100)))
            .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
            .explain_analyze();
        timeline::set_enabled(prev);
        report
    };
    let (off, on) = (report(false), report(true));
    let shape = |r: &tde::ExplainAnalyze| -> Vec<(String, Option<usize>, u64, u64)> {
        r.operators
            .iter()
            .map(|n| (n.label.clone(), n.parent, n.blocks, n.rows))
            .collect()
    };
    assert_eq!(off.row_count, 100);
    assert_eq!(shape(&off), shape(&on), "{}", off.operator_tree);
    assert!(off.operators.len() >= 3, "{}", off.operator_tree);
    assert!(off.operator_tree.contains("ExpandJoin ea_sales.ea_day"));
    let events = |r: &tde::ExplainAnalyze| -> Vec<String> {
        r.events.iter().map(ToString::to_string).collect()
    };
    assert_eq!(events(&off), events(&on));
    assert!(off
        .events
        .iter()
        .any(|e| matches!(e, Event::Decision { point, .. } if *point == "join")));
}

/// A query running beside EXPLAIN ANALYZE neither adds to nor takes
/// from its report: 50 reports over `iso_a`, with plain and degree-2
/// queries over `iso_b` running throughout, never name `iso_b`.
#[test]
fn concurrent_queries_stay_out_of_explain_analyze() {
    let table = |name: &str| {
        let mut k = ColumnBuilder::new(format!("{name}_k"), DataType::Integer, Default::default());
        let mut v = ColumnBuilder::new(format!("{name}_v"), DataType::Integer, Default::default());
        for i in 0..40_000i64 {
            k.append_i64((i * 7_919) % 97);
            v.append_i64(i % 1_000);
        }
        Arc::new(Table::new(name, vec![k.finish().column, v.finish().column]))
    };
    let (a, b) = (table("iso_a"), table("iso_b"));
    let query = |t: &Arc<Table>| {
        Query::scan(t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(500)))
            .aggregate(vec![0], vec![(AggFunc::Count, 1, "n")])
    };
    let done = AtomicBool::new(false);
    let _gate = gate_lock();
    let reports: Vec<tde::ExplainAnalyze> = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                assert_eq!(query(&b).rows().len(), 97);
                assert_eq!(query(&b).with_parallelism(2).rows().len(), 97);
            }
        });
        let reports = (0..50).map(|_| query(&a).explain_analyze()).collect();
        done.store(true, Ordering::Relaxed);
        reports
    });
    for report in &reports {
        assert_eq!(report.row_count, 97);
        for n in &report.operators {
            assert!(!n.label.contains("iso_b"), "{}", report.operator_tree);
        }
        for e in &report.events {
            assert!(!format!("{e:?}").contains("iso_b"), "{:?}", report.events);
        }
    }
}

/// A dictionary-encoded integer column (no array compression, so the
/// invisible-join rule declines) with a selective predicate: the
/// kernel pushdown must pick the dictionary-domain kernel, skip rows
/// without decoding them, and say so in the telemetry.
#[test]
fn kernel_scan_telemetry_on_dict_eligible_predicate() {
    let vals: Vec<i64> = (0..20_000).map(|i| (i * 7) % 16).collect();
    let mut s = EncodedStream::new_dict(Width::W8, true, 4);
    for c in vals.chunks(BLOCK_SIZE) {
        s.append_block(c).unwrap();
    }
    let mut rid = ColumnBuilder::new("kd_rid", DataType::Integer, Default::default());
    for i in 0..20_000i64 {
        rid.append_i64(i);
    }
    let t = Arc::new(Table::new(
        "kd_t",
        vec![
            Column::scalar("kd_v", DataType::Integer, s),
            rid.finish().column,
        ],
    ));
    let report = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3)))
        .explain_analyze();
    assert_eq!(
        report.row_count,
        vals.iter().filter(|&&v| v == 3).count() as u64
    );
    // The scan decided for the dictionary-domain kernel…
    assert!(
        report.events.iter().any(|e| matches!(
            e,
            Event::Decision { point, choice, reason, .. }
                if *point == "kernel-pushdown"
                    && choice == "dict-domain"
                    && reason.contains("kd_v")
        )),
        "no dict-domain decision in {:?}",
        report.events
    );
    // …and the end-of-scan telemetry shows rows skipped in the
    // compressed domain.
    let hit = report.kernel_scans().into_iter().any(|e| {
        matches!(
            e,
            Event::KernelScan { column, kernel, rows_in, rows_skipped, .. }
                if column == "kd_v"
                    && kernel == "dict-domain"
                    && *rows_in == 20_000
                    && *rows_skipped > 0
        )
    });
    assert!(hit, "no kernel-scan telemetry in {:?}", report.events);
    // The physical plan labels the scan with the kernel it used.
    assert!(
        report.operator_tree.contains("where [kernel=dict-domain]"),
        "{}",
        report.operator_tree
    );
}

/// A frame-of-reference column whose envelope only partially overlaps
/// the predicate is answered on the packed offsets, skipping rows
/// without decoding them; a raw column has no kernel at all, so the
/// scan must record the fallback decision and report zero skipped rows.
#[test]
fn kernel_scan_telemetry_on_ineligible_predicate_falls_back() {
    let vals: Vec<i64> = (0..8_000).map(|i| i % 64).collect();
    let mut frame = EncodedStream::new_frame(Width::W8, true, 0, 6);
    let mut raw = EncodedStream::new_raw(Width::W8, true);
    for c in vals.chunks(BLOCK_SIZE) {
        frame.append_block(c).unwrap();
        raw.append_block(c).unwrap();
    }
    let t = Arc::new(Table::new(
        "kf_t",
        vec![
            Column::scalar("kf_for", DataType::Integer, frame),
            Column::scalar("kf_v", DataType::Integer, raw),
        ],
    ));
    let expect = vals.iter().filter(|&&v| v > 30).count() as u64;
    for (col, kernel, skips) in [(0, "for-offset", true), (1, "fallback", false)] {
        let name = ["kf_for", "kf_v"][col];
        let report = Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Gt, Expr::col(col), Expr::int(30)))
            .explain_analyze();
        assert_eq!(report.row_count, expect);
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                Event::Decision { point, choice, reason, .. }
                    if *point == "kernel-pushdown"
                        && choice == kernel
                        && reason.contains(name)
            )),
            "no {kernel} decision in {:?}",
            report.events
        );
        let scanned = report.kernel_scans().into_iter().any(|e| {
            matches!(
                e,
                Event::KernelScan { column, kernel: k, rows_skipped, .. }
                    if column == name && k == kernel && (*rows_skipped > 0) == skips
            )
        });
        assert!(scanned, "no {kernel} kernel-scan in {:?}", report.events);
    }
}

/// An IndexedScan says how much of its run index the query used — index
/// rows, rows the inner filter kept, and whether the query built the
/// index — in EXPLAIN ANALYZE and on the timeline span alike, while its
/// operator kind stays `IndexedScan`.
#[test]
fn indexed_scan_label_reports_runs_and_qualified_rows() {
    let keys: Vec<i64> = (0..10_000).map(|i| i / 500).collect();
    let mut s = EncodedStream::new_rle(Width::W8, true, Width::W2, Width::W1);
    for c in keys.chunks(BLOCK_SIZE) {
        s.append_block(c).unwrap();
    }
    let mut pay = ColumnBuilder::new("ix_p", DataType::Integer, Default::default());
    for i in 0..10_000i64 {
        pay.append_i64(i % 97);
    }
    let t = Arc::new(Table::new(
        "ix_t",
        vec![
            Column::scalar("ix_k", DataType::Integer, s),
            pay.finish().column,
        ],
    ));
    let gate = gate_lock();
    let prev = tde::obs::timeline::set_enabled(true);
    let report = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(15)))
        .aggregate(vec![0], vec![(AggFunc::Max, 1, "mx")])
        .explain_analyze();
    tde::obs::timeline::set_enabled(prev);
    drop(gate);
    assert_eq!(report.row_count, 5);
    let node = report
        .operators
        .iter()
        .find(|n| n.label.starts_with("IndexedScan ix_t.ix_k"))
        .unwrap_or_else(|| panic!("no IndexedScan in\n{}", report.operator_tree));
    assert!(
        node.label.ends_with(" runs=20 qualified=5 index=built"),
        "{}",
        node.label
    );
    assert_eq!(node.rows, 5 * 500);

    // The timeline span of the same operator: kind `IndexedScan` (the
    // metric key), the same label and row count.
    let span = tde::obs::timeline::recent_traces()
        .iter()
        .flat_map(|trace| trace.events.clone())
        .find_map(|e| match e.kind {
            tde::obs::timeline::TimelineKind::OperatorSpan {
                op, label, rows, ..
            } if label == node.label => Some((op, rows)),
            _ => None,
        });
    assert_eq!(span, Some(("IndexedScan".to_string(), node.rows)));
}

/// A grand total over a run-length column folds its runs: the scan leaf
/// carries runs (`[runs]`), the choice is the aggregate's `fold-runs`
/// decision, and the leaf reports the rows its segments stand for — the
/// same count the row-emitting scan of the same predicate reports.
#[test]
fn run_aggregate_decision_is_recorded() {
    let mut s = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W8);
    let data: Vec<i64> = (0..30_000).map(|i| i / 3_000).collect();
    for c in data.chunks(BLOCK_SIZE) {
        s.append_block(c).unwrap();
    }
    let t = Arc::new(Table::new(
        "kr_t",
        vec![Column::scalar("kr_v", DataType::Integer, s)],
    ));
    let kernel_only = tde::plan::strategic::OptimizerOptions {
        invisible_joins: false,
        index_tables: false,
        ordered_retrieval: false,
        kernel_pushdown: true,
        parallelism: 1,
    };
    let scan = || {
        Query::scan_columns(&t, &["kr_v"])
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(5)))
            .with_optimizer(kernel_only)
    };
    let report = scan()
        .aggregate(
            vec![],
            vec![(AggFunc::Count, 0, "n"), (AggFunc::Sum, 0, "s")],
        )
        .explain_analyze();
    assert_eq!(report.row_count, 1);
    assert_eq!(report.blocks[0].columns[0][0], 15_000); // COUNT(v >= 5)
    assert_eq!(report.blocks[0].columns[1][0], 3_000 * (5 + 6 + 7 + 8 + 9));
    assert!(
        report.events.iter().any(|e| matches!(
            e,
            Event::Decision { point, choice, reason, .. }
                if *point == "aggregate" && choice == "fold-runs" && reason.contains("kr_t")
        )),
        "no fold-runs decision in {:?}",
        report.events
    );
    let leaf = |report: &tde::ExplainAnalyze| {
        report
            .operators
            .iter()
            .find(|n| n.label.starts_with("Scan kr_t"))
            .cloned()
            .unwrap_or_else(|| panic!("no scan in\n{}", report.operator_tree))
    };
    let runs = leaf(&report);
    assert!(runs.label.ends_with(" [runs]"), "{}", runs.label);
    // Five runs pass, in one block; the rows they stand for are counted.
    assert_eq!((runs.blocks, runs.rows), (1, 15_000));

    let rows = scan().explain_analyze();
    let rows = leaf(&rows);
    assert!(!rows.label.contains("[runs]"), "{}", rows.label);
    assert_eq!(rows.rows, runs.rows);
}

/// A table builds each run-length column's IndexTable and run index once:
/// the IndexedScan label says `index=built` for the query that paid for
/// them and `index=cached` for every later one — including a query keyed
/// on a column an earlier query only fetched.
#[test]
fn indexed_scan_label_says_whether_the_query_built_the_index() {
    let rle = |vals: &[i64]| {
        let mut s = EncodedStream::new_rle(Width::W8, true, Width::W2, Width::W1);
        for c in vals.chunks(BLOCK_SIZE) {
            s.append_block(c).unwrap();
        }
        s
    };
    let a: Vec<i64> = (0..10_000).map(|i| i / 500).collect();
    let b: Vec<i64> = (0..10_000).map(|i| (i / 100) % 7).collect();
    let t = Arc::new(Table::new(
        "ib_t",
        vec![
            Column::scalar("ib_a", DataType::Integer, rle(&a)),
            Column::scalar("ib_b", DataType::Integer, rle(&b)),
        ],
    ));
    let label = |key: usize, at: i64| {
        let report = Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(key), Expr::int(at)))
            .aggregate(vec![key], vec![(AggFunc::Max, 1 - key, "mx")])
            .explain_analyze();
        report
            .operators
            .iter()
            .find(|n| n.label.starts_with("IndexedScan ib_t."))
            .map(|n| n.label.clone())
            .unwrap_or_else(|| panic!("no IndexedScan in\n{}", report.operator_tree))
    };
    let seen: Vec<String> = [(0, 15), (0, 18), (1, 4)]
        .into_iter()
        .map(|(key, at)| {
            let label = label(key, at);
            let index = label.split(' ').find_map(|w| w.strip_prefix("index="));
            index.unwrap_or_else(|| panic!("{label}")).to_owned()
        })
        .collect();
    assert_eq!(seen, ["built", "cached", "cached"]);
    assert_eq!(t.run_index_builds(), 2);
}

/// A group-by over a dictionary-encoded key of 14-bit codes groups on
/// the codes: the scan hands them over (its label ends `[codes: gc_k]`),
/// the choice is the aggregate's `group-codes` decision, and the hash
/// strategy packs the codes' 14 bits into a direct table where the key's
/// 27-bit values need open addressing. The same query over a merge
/// snapshot, whose delta rows have no codes, groups on values.
#[test]
fn group_codes_decision_is_recorded() {
    let keys: Vec<i64> = (0..20_000i64)
        .map(|i| (i * 7_919) % 10_000 * 7_919 + 13)
        .collect();
    let mut stream = EncodedStream::new_dict(Width::W8, true, 14);
    for c in keys.chunks(BLOCK_SIZE) {
        stream.append_block(c).unwrap();
    }
    let mut k = Column::scalar("gc_k", DataType::Integer, stream);
    (k.metadata.min, k.metadata.max) = (Some(13), Some(9_999 * 7_919 + 13));
    let mut m = ColumnBuilder::new("gc_m", DataType::Integer, Default::default());
    for i in 0..20_000i64 {
        m.append_i64(i % 7);
    }
    let t = Arc::new(Table::new("gc_t", vec![k, m.finish().column]));
    let report = |source: tde::exec::Source| {
        Query::scan_columns(source, &["gc_k", "gc_m"])
            .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
            .with_parallelism(1)
            .explain_analyze()
    };
    let decided = |r: &tde::ExplainAnalyze| {
        r.events.iter().any(|e| {
            matches!(e, Event::Decision { point, choice, reason, .. }
                if *point == "aggregate" && choice == "group-codes" && reason.contains("gc_k"))
        })
    };
    let coded = report(tde::exec::Source::from(&t));
    assert!(
        decided(&coded),
        "no group-codes decision in {:?}",
        coded.events
    );
    let tree = &coded.operator_tree;
    assert!(tree.contains("strategy=Direct64K"), "{tree}");
    assert!(tree.contains("[codes: gc_k]"), "{tree}");
    assert_eq!(coded.row_count, 10_000);

    let snapshot = tde::delta::DeltaTable::from_eager(Arc::clone(&t))
        .snapshot()
        .unwrap();
    let values = report(tde::exec::Source::from(&snapshot));
    assert!(!decided(&values), "{:?}", values.events);
    let tree = &values.operator_tree;
    assert!(tree.contains("strategy=Perfect"), "{tree}");
    assert!(!tree.contains("[codes"), "{tree}");
    let columns = |r: &tde::ExplainAnalyze| -> Vec<Vec<Vec<i64>>> {
        r.blocks.iter().map(|b| b.columns.clone()).collect()
    };
    assert_eq!(columns(&coded), columns(&values));
}

/// A grand total groups by nothing, so it hashes nothing: its label
/// names no strategy and no `hash-strategy` decision is recorded, serial
/// or split into morsels. A grouped query over the same scan still
/// records its choice.
#[test]
fn grand_total_records_no_hash_strategy() {
    let t = sales_table();
    let strategies = |r: &tde::ExplainAnalyze| {
        r.events
            .iter()
            .filter(|e| matches!(e, Event::Decision { point, .. } if *point == "hash-strategy"))
            .count()
    };
    let sum: i64 = (0..20_000i64).map(|i| i % 31).sum();
    for workers in [1, 2] {
        let total = Query::scan(&t)
            .aggregate(
                vec![],
                vec![(AggFunc::Count, 1, "n"), (AggFunc::Sum, 1, "s")],
            )
            .with_parallelism(workers)
            .explain_analyze();
        let tree = &total.operator_tree;
        assert_eq!(strategies(&total), 0, "{:?}", total.events);
        assert!(!tree.contains("strategy="), "{tree}");
        let label = match workers {
            1 => "HashAggregate [total] group_by=[]",
            _ => "MorselHashAggregate [parallel=2]",
        };
        assert!(tree.starts_with(label), "{tree}");
        assert_eq!(total.blocks[0].columns, vec![vec![20_000], vec![sum]]);
    }
    let grouped = Query::scan(&t)
        .aggregate(vec![1], vec![(AggFunc::Count, 1, "n")])
        .with_parallelism(1)
        .explain_analyze();
    assert_eq!(strategies(&grouped), 1, "{:?}", grouped.events);
    assert!(
        grouped.operator_tree.contains("strategy="),
        "{}",
        grouped.operator_tree
    );
}
