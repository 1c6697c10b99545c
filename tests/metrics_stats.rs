//! Always-on metrics, end to end: run real queries through `Query`,
//! watch the global registry move, capture span records, and check that
//! both `tde-stats` export formats round-trip through strict parsers
//! (the text exposition through the Prometheus validator, the JSON
//! through `minijson`).
//!
//! Everything here observes *process-wide* state — the registry and the
//! span sink are global, and the test harness runs tests on several
//! threads — so assertions are `>=` on deltas and spans are matched by
//! plan digest or row count, never by absolute totals.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::obs::{metrics, span};
use tde::storage::{ColumnBuilder, EncodingPolicy, Table};
use tde::types::DataType;
use tde::Query;

/// `set_span_sink` swaps a process global; serialize the tests that use it.
fn sink_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// 20k rows: a sorted 10-value key (RLE territory) plus a payload.
fn demo_table() -> Arc<Table> {
    let mut k = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
    let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
    for i in 0..20_000i64 {
        k.append_i64(i / 2_000);
        v.append_i64((i * 13) % 500);
    }
    Arc::new(Table::new(
        "demo",
        vec![k.finish().column, v.finish().column],
    ))
}

fn histogram_count(snap: &metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            metrics::SampleValue::Histogram(h) => h.count,
            _ => 0,
        })
        .sum()
}

#[test]
fn queries_move_the_global_registry() {
    if !metrics::enabled() {
        return; // TDE_METRICS=0: the contract is "no samples", tested in tde-obs
    }
    let t = demo_table();
    let before = metrics::global().snapshot();

    let all = Query::scan(&t).rows();
    assert_eq!(all.len(), 20_000);
    let filtered = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(8)))
        .rows();
    assert_eq!(filtered.len(), 4_000);
    let grouped = Query::scan(&t)
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
        .rows();
    assert_eq!(grouped.len(), 10);

    let after = metrics::global().snapshot();
    let deltas = after.counter_deltas(&before);
    let delta = |name: &str| -> u64 {
        deltas
            .iter()
            .filter(|(k, _)| k.starts_with(name))
            .map(|(_, v)| *v)
            .sum()
    };

    assert!(delta("tde_queries_total") >= 3, "three queries ran");
    assert!(
        delta("tde_query_rows_total") >= 24_010,
        "row counter should cover all three result sets"
    );
    assert!(
        delta("tde_operator_blocks_total") >= 1,
        "metered operators should count blocks"
    );
    assert!(
        delta("tde_operator_rows_total") >= 20_000,
        "metered operators should count rows"
    );
    assert!(
        delta("tde_tactical_decisions_total") >= 1,
        "the aggregate strategy choice is a tactical decision"
    );
    // The latency histogram is a histogram, not a counter: check samples.
    assert!(
        histogram_count(&after, "tde_query_latency_ns")
            >= histogram_count(&before, "tde_query_latency_ns") + 3
    );
}

#[test]
fn kernel_pushdown_metrics_have_encoding_labels() {
    if !metrics::enabled() {
        return;
    }
    use tde::plan::strategic::OptimizerOptions;
    let t = demo_table();
    let before = metrics::global().snapshot();
    // Pin the optimizer off the index path: an Eq on a sorted key would
    // otherwise lower to IndexedScan and never exercise the kernels.
    let n = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3)))
        .with_optimizer(OptimizerOptions {
            index_tables: false,
            ordered_retrieval: false,
            ..Default::default()
        })
        .rows()
        .len();
    assert_eq!(n, 2_000);
    let after = metrics::global().snapshot();
    let deltas = after.counter_deltas(&before);
    assert!(
        deltas
            .iter()
            .any(|(k, v)| k.starts_with("tde_kernel_pushdown_total") && *v > 0),
        "a pushed predicate should record a kernel pushdown; got {deltas:?}"
    );
    assert!(
        deltas
            .iter()
            .any(|(k, v)| k.starts_with("tde_kernel_rows_in_total") && *v > 0),
        "kernel scan row accounting missing; got {deltas:?}"
    );
}

#[test]
fn paged_scans_record_pool_and_segment_metrics() {
    if !metrics::enabled() {
        return;
    }
    use tde::pager::{save_v2, PagedDatabase};
    use tde::storage::Database;

    let dir = std::env::temp_dir().join(format!("tde_metrics_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("demo.tde2");
    {
        let t = demo_table();
        let mut db = Database::new();
        db.add_table(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()));
        save_v2(&db, &path).unwrap();
    }

    let before = metrics::global().snapshot();
    let db = PagedDatabase::open(&path).unwrap();
    let t = db.table("demo").unwrap();
    let n = Query::scan_columns(&t, &["k", "v"])
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
        .rows()
        .len();
    assert_eq!(n, 10);
    let after = metrics::global().snapshot();
    let deltas = after.counter_deltas(&before);
    let delta = |name: &str| -> u64 {
        deltas
            .iter()
            .filter(|(k, _)| k.starts_with(name))
            .map(|(_, v)| *v)
            .sum()
    };
    assert!(
        delta("tde_pool_misses_total") >= 2,
        "cold open loads segments"
    );
    assert!(delta("tde_pool_read_bytes_total") > 0);
    assert!(
        histogram_count(&after, "tde_segment_load_ns")
            > histogram_count(&before, "tde_segment_load_ns"),
        "segment loads should be timed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spans_capture_phases_and_counter_deltas() {
    let _guard = sink_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let sink = span::MemorySink::new();
    let prev = span::set_span_sink(Some(sink.clone()));

    // Kept off the index path, so the filter is pushed into the scan.
    let query = |t: &Arc<Table>| {
        Query::scan(t)
            .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(2)))
            .with_optimizer(tde::plan::strategic::OptimizerOptions {
                index_tables: false,
                ordered_retrieval: false,
                ..Default::default()
            })
    };
    let t = demo_table();
    let rows = query(&t).rows();
    assert_eq!(rows.len(), 4_000);

    let spans = sink.spans();
    span::set_span_sink(prev);

    let ours: Vec<_> = spans.iter().filter(|s| s.rows_out == 4_000).collect();
    assert!(!ours.is_empty(), "the query should have emitted a span");
    let s = ours.last().unwrap();
    assert_eq!(s.plan_digest.len(), 16, "digest is 16 hex chars");
    assert!(s.plan_digest.chars().all(|c| c.is_ascii_hexdigit()));
    assert!(s.elapsed_ns > 0);
    let phase_names: Vec<&str> = s.phases.iter().map(|(n, _)| *n).collect();
    assert_eq!(phase_names, ["plan", "execute"]);
    assert!(
        s.phases.iter().map(|(_, ns)| ns).sum::<u64>() <= s.elapsed_ns,
        "phases partition the elapsed time"
    );
    // A span's counters are its own events folded: the pushed filter's
    // one kernel pushdown, whatever else the process counted meanwhile.
    let pushdowns: u64 = s
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("tde_kernel_pushdown_total"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(pushdowns, 1, "span counters: {:?}", s.counters());
    // Identical query shape → identical digest.
    let sink2 = span::MemorySink::new();
    let prev = span::set_span_sink(Some(sink2.clone()));
    let _ = query(&t).rows();
    span::set_span_sink(prev);
    let again = sink2.spans();
    let repeat = again.iter().rfind(|x| x.rows_out == 4_000);
    assert_eq!(repeat.unwrap().plan_digest, s.plan_digest);

    // And the JSON rendering of every span parses.
    for sp in spans.iter().chain(again.iter()) {
        let parsed = tde_stats::minijson::parse(&sp.span_json()).expect("span JSON parses");
        assert_eq!(
            parsed.get("query_id").and_then(|v| v.as_u64()),
            Some(sp.query_id)
        );
    }
}

#[test]
fn span_json_lines_sink_writes_parseable_lines() {
    let _guard = sink_lock().lock().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("tde_span_lines_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spans.jsonl");
    let sink = span::JsonLinesSink::append_to(&path).unwrap();
    let prev = span::set_span_sink(Some(sink.clone()));

    let t = demo_table();
    let _ = Query::scan(&t).rows();
    let _ = Query::scan(&t)
        .aggregate(vec![], vec![(AggFunc::Count, 0, "n")])
        .rows();
    span::set_span_sink(prev);

    // One slow-query record too, whatever `TDE_SLOW_QUERY_NS` says: the
    // first query's trace, marked slow.
    let first = std::fs::read_to_string(&path).unwrap();
    let first = tde_stats::minijson::parse(first.lines().next().unwrap()).unwrap();
    let id = first.get("query_id").and_then(|v| v.as_u64()).unwrap();
    let mut slow = (*tde::obs::timeline::find_trace(id).expect("trace retained")).clone();
    slow.slow = true;
    span::SpanSink::record(&*sink, &Arc::new(slow));

    let keys = |v: &tde_stats::minijson::Value| -> Vec<String> {
        let mut keys: Vec<String> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys
    };
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 3, "two span lines and a slow-query line");
    let (mut spans, mut slow_records) = (0, 0);
    for line in lines {
        let v = tde_stats::minijson::parse(line).expect("each line is a JSON object");
        assert!(v.get("plan_digest").is_some());
        assert!(v.get("phases").is_some());
        // The line formats keep their keys.
        if v.get("kind").and_then(|k| k.as_str()) == Some("slow_query") {
            slow_records += 1;
            assert_eq!(
                keys(&v),
                [
                    "elapsed_ns",
                    "kind",
                    "phases",
                    "plan_digest",
                    "query_id",
                    "rows_out",
                    "threshold_ns",
                    "top_ops"
                ],
                "{line}"
            );
        } else {
            spans += 1;
            assert_eq!(
                keys(&v),
                [
                    "counters",
                    "elapsed_ns",
                    "phases",
                    "plan_digest",
                    "query_id",
                    "rows_out"
                ],
                "{line}"
            );
        }
    }
    assert!(spans >= 2 && slow_records >= 1, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance criterion: both export formats must parse under
/// strict validators after real queries have populated the registry.
#[test]
fn exports_parse_as_prometheus_and_json() {
    let t = demo_table();
    let _ = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(5)))
        .aggregate(vec![0], vec![(AggFunc::Max, 1, "mx")])
        .rows();

    let text = tde_stats::prometheus_text();
    let scrape = tde_stats::prometheus::validate(&text).expect("text exposition validates");
    let json = tde_stats::json_text();
    let parsed = tde_stats::minijson::parse(&json).expect("JSON export parses");

    if metrics::enabled() {
        assert!(
            scrape.value("tde_queries_total", &[]).unwrap_or(0.0) >= 1.0,
            "scrape should carry the query counter"
        );
        let metrics_arr = parsed
            .get("metrics")
            .and_then(|v| v.as_array())
            .expect("json export has a metrics array");
        assert!(metrics_arr
            .iter()
            .any(|m| m.get("name").and_then(|n| n.as_str()) == Some("tde_queries_total")));
        // Both exports come from snapshots of the same registry; the
        // histogram family must appear in both.
        assert!(text.contains("tde_query_latency_ns_bucket"));
        assert!(metrics_arr
            .iter()
            .any(|m| m.get("name").and_then(|n| n.as_str()) == Some("tde_query_latency_ns")));
    } else {
        assert!(
            scrape.samples.is_empty(),
            "disabled registry exports nothing"
        );
    }
}

/// An import shows up in the event trace (once, with phase times that
/// account for the call) and in the metrics catalogue.
#[test]
fn import_reports_its_phases_and_moves_its_counters() {
    use std::fmt::Write as _;
    let mut text = String::from("id,when,word,amount\n");
    for i in 0..60_000 {
        let day = 1 + i % 28;
        writeln!(text, "{i},1997-03-{day:02},w{},{}.25", i % 300, i % 1000).unwrap();
    }
    text.push_str("oops,1997-03-01,w,1.0\n"); // one field that will not parse
    let options = tde::textscan::ImportOptions {
        table_name: "metrics_stats_import".into(),
        ..Default::default()
    };

    let before = metrics::global().snapshot();
    let token = tde::obs::timeline::query_begin(tde::obs::span::next_query_id());
    let started = std::time::Instant::now();
    let result = tde::textscan::import_bytes(text.as_bytes(), &options).unwrap();
    let wall = started.elapsed().as_nanos() as u64;
    let trace = tde::obs::timeline::query_end(token, "", 0, wall, None, &[]);
    assert_eq!(result.table.row_count(), 60_001);
    assert_eq!(result.parse_errors, 1);

    let imports: Vec<_> = trace
        .own_events()
        .filter(|e| matches!(e, tde::obs::Event::Import { table, .. } if table == "metrics_stats_import"))
        .collect();
    assert_eq!(imports.len(), 1, "one event per import");
    let tde::obs::Event::Import {
        bytes,
        rows,
        columns,
        parse_errors,
        scan_nanos,
        build_nanos,
        finish_nanos,
        ..
    } = *imports[0]
    else {
        unreachable!()
    };
    assert_eq!(
        (bytes, rows, columns, parse_errors),
        (text.len() as u64, 60_001, 4, 1)
    );
    assert!(scan_nanos > 0 && build_nanos > 0 && finish_nanos > 0);
    let phases = scan_nanos + build_nanos + finish_nanos;
    assert!(
        phases <= wall && phases as f64 >= wall as f64 * 0.95,
        "phases {phases} ns must account for the call's {wall} ns"
    );
    assert!(imports[0]
        .to_string()
        .contains("[import] metrics_stats_import"));
    let json = tde_stats::minijson::parse(&imports[0].to_json()).expect("event JSON parses");
    assert_eq!(json.get("kind").and_then(|k| k.as_str()), Some("import"));

    if metrics::enabled() {
        let deltas = metrics::global().snapshot().counter_deltas(&before);
        let delta = |name: &str| -> u64 {
            deltas
                .iter()
                .filter(|(k, _)| k.starts_with(name))
                .map(|(_, v)| *v)
                .sum()
        };
        assert!(delta("tde_import_bytes_total") >= text.len() as u64);
        assert!(delta("tde_import_rows_total") >= 60_001);
        assert!(delta("tde_import_parse_errors_total") >= 1);
        let scrape = tde_stats::prometheus::validate(&tde_stats::prometheus_text())
            .expect("text exposition validates");
        assert!(scrape.value("tde_import_rows_total", &[]).unwrap_or(0.0) >= 60_001.0);
    }
}

#[test]
fn explain_analyze_still_reports_while_metrics_run() {
    // The per-query `explain_analyze` path and the always-on registry
    // are independent observers; running one must not starve the other.
    let t = demo_table();
    let before = metrics::global().snapshot();
    let report = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(4)))
        .explain_analyze();
    assert!(report.row_count > 0);
    if metrics::enabled() {
        let after = metrics::global().snapshot();
        let d: u64 = after
            .counter_deltas(&before)
            .iter()
            .filter(|(k, _)| k.starts_with("tde_queries_total"))
            .map(|(_, v)| *v)
            .sum();
        assert!(d >= 1, "explain_analyze counts as a query");
    }
}
