//! Always-on query timeline tracing, end to end: every `Query` entry
//! point emits exactly one span, failed queries stay observable (failure
//! counter + error-tagged span + error-tagged trace), and a
//! morsel-parallel paged query produces a Chrome Trace Event Format
//! document that passes the strict validator with distinct worker
//! tracks, operator spans, and buffer-pool segment-load events.
//!
//! The timeline ring, the span sink, and the metrics registry are all
//! process-global, and the test harness runs tests on several threads —
//! so every test here serializes on one lock and matches its own work
//! by row count / query id, never by absolute ring contents.

use std::sync::{Arc, Mutex, OnceLock};

use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::obs::{metrics, span, timeline};
use tde::pager::{save_v2, PagedDatabase, PoolConfig};
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::DataType;
use tde::Query;

/// The timeline lanes, rings, and span sink are process globals:
/// serialize every test in this file.
fn trace_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// 400k rows: a 100-value sorted group key (RLE territory) plus a
/// high-entropy value column — the fig. 10 shape, big enough to split
/// into enough morsels that all four workers reliably claim work
/// before the counter runs out (on tiny inputs the workers that start
/// first can claim every morsel before a late-spawning one runs).
fn fig10_db() -> Database {
    let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
    let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
    for i in 0..400_000i64 {
        g.append_i64(i / 4_000);
        v.append_i64((i * 2_654_435_761) % 1_000_000);
    }
    let mut db = Database::new();
    db.add_table(Table::new(
        "fig10",
        vec![g.finish().column, v.finish().column],
    ));
    db
}

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

fn failed_queries_delta(
    before: &metrics::MetricsSnapshot,
    after: &metrics::MetricsSnapshot,
) -> u64 {
    after
        .counter_deltas(before)
        .iter()
        .filter(|(k, _)| k.starts_with("tde_queries_failed_total"))
        .map(|(_, v)| *v)
        .sum()
}

/// Satellite: every entry point — `rows` (via `run`), `try_run`,
/// `try_rows`, and `explain_analyze` — emits exactly one span.
#[test]
fn every_entry_point_emits_exactly_one_span() {
    let _guard = trace_lock().lock().unwrap();
    let t = demo_table();

    let run_one = |label: &str, f: &dyn Fn() -> usize| {
        let sink = span::MemorySink::new();
        let prev = span::set_span_sink(Some(sink.clone()));
        let rows = f();
        let spans = sink.spans();
        span::set_span_sink(prev);
        assert_eq!(
            spans.len(),
            1,
            "{label} must emit exactly one span, got {}",
            spans.len()
        );
        assert_eq!(spans[0].rows_out, rows as u64, "{label} span row count");
        assert!(spans[0].error.is_none(), "{label} succeeded");
        assert_eq!(spans[0].plan_digest.len(), 16, "{label} digest");
    };

    run_one("rows()", &|| Query::scan(&t).rows().len());
    run_one("try_rows()", &|| {
        Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(5)))
            .try_rows()
            .unwrap()
            .len()
    });
    run_one("try_run()", &|| {
        let (_, blocks) = Query::scan(&t).try_run().unwrap();
        blocks.iter().map(|b| b.len).sum()
    });
    run_one("explain_analyze()", &|| {
        Query::scan(&t)
            .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
            .explain_analyze()
            .row_count as usize
    });
}

/// Satellite: a query that fails mid-execution must not vanish from
/// observability — it bumps `tde_queries_failed_total`, emits an
/// error-tagged span, and leaves an error-tagged trace in the ring.
/// That holds for every entry point, EXPLAIN ANALYZE included (which
/// used to panic in lowering before the observation was settled).
#[test]
fn failed_queries_stay_observable() {
    let _guard = trace_lock().lock().unwrap();
    use tde::io::{FaultIo, FaultPlan};

    let dir = std::env::temp_dir().join(format!("tde_timeline_fail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fail.tde2");
    save_v2(&fig10_db(), &path).unwrap();

    let io = FaultIo::new(FaultPlan::default());
    let db = PagedDatabase::open_with_io(&path, PoolConfig::default(), &io).unwrap();
    let t = db.table("fig10").unwrap();

    type EntryPoint = fn(Query) -> std::io::Result<()>;
    let entry_points: [(&str, EntryPoint); 2] = [
        ("try_run", |q| q.try_run().map(drop)),
        ("try_explain_analyze", |q| q.try_explain_analyze().map(drop)),
    ];
    for (label, entry) in entry_points {
        let prev_trace = timeline::set_enabled(true);
        let sink = span::MemorySink::new();
        let prev_sink = span::set_span_sink(Some(sink.clone()));
        let before = metrics::global().snapshot();

        // Every segment read from here on fails hard (no retry).
        io.arm_hard_read_failures(u64::MAX);
        let err = entry(Query::scan_columns(&t, &["g", "v"]))
            .expect_err("armed hard read failures must fail the query");
        assert!(
            err.to_string().contains("injected hard read failure"),
            "{label}: {err}"
        );
        io.arm_hard_read_failures(0);

        let after = metrics::global().snapshot();
        let spans = sink.spans();
        span::set_span_sink(prev_sink);
        timeline::set_enabled(prev_trace);

        if metrics::enabled() {
            assert_eq!(
                failed_queries_delta(&before, &after),
                1,
                "{label}: the failure must bump tde_queries_failed_total once"
            );
        }
        assert_eq!(
            spans.len(),
            1,
            "{label}: the failed query still emits one span"
        );
        let s = &spans[0];
        assert!(
            s.error
                .as_deref()
                .is_some_and(|e| e.contains("injected hard read failure")),
            "{label}: span must carry the error, got {:?}",
            s.error
        );
        assert_eq!(s.rows_out, 0);
        let json = s.span_json();
        assert!(json.contains("\"error\":\""), "{json}");
        tde_stats::minijson::parse(&json).unwrap();

        let trace = timeline::find_trace(s.query_id).expect("failed query lands in the trace ring");
        assert_eq!(trace.plan_digest, s.plan_digest);
        assert!(trace
            .error
            .as_deref()
            .is_some_and(|e| e.contains("injected hard read failure")));
        let tef = tde_stats::tef::render_trace(&trace);
        tde_stats::tef::validate_tef(&tef).unwrap();
        assert!(tef.contains("injected hard read failure"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// One measurement per operator feeds every view: for a blocking
/// operator over a scan, the timeline's operator spans and the EXPLAIN
/// ANALYZE nodes carry identical blocks, rows and inclusive nanoseconds,
/// a parent's span contains its children's, and the operator the
/// slow-query log would blame is the one that did the work. (The
/// timeline used to start an operator's clock when its first block came
/// *back* — after a blocking operator had finished — so hashing and
/// sorting time was booked to the scan.)
#[test]
fn timeline_spans_and_explain_analyze_report_the_same_measurement() {
    let _guard = trace_lock().lock().unwrap();

    // 240k rows, an unsorted 60 000-value key: hash group-by territory,
    // with enough groups and aggregates that hashing and folding
    // outweigh decoding the two columns.
    let mut k = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
    let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
    for i in 0..240_000i64 {
        k.append_i64((i * 7_919) % 60_000);
        v.append_i64((i * 2_654_435_761) % 1_000_000);
    }
    let t = Arc::new(Table::new(
        "obs",
        vec![k.finish().column, v.finish().column],
    ));

    type Shape = fn(Query) -> Query;
    let shapes: [(&str, Shape); 2] = [
        ("HashAggregate", |q| {
            let aggs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];
            q.aggregate(vec![0], aggs.iter().map(|&f| (f, 1, "a")).collect())
        }),
        ("Sort", |q| {
            q.sort(vec![(1, tde::exec::sort::SortOrder::Asc)])
        }),
    ];
    for (blocking, shape) in shapes {
        let prev_trace = timeline::set_enabled(true);
        let sink = span::MemorySink::new();
        let prev_sink = span::set_span_sink(Some(sink.clone()));
        let report = shape(Query::scan(&t)).explain_analyze();
        let spans = sink.spans();
        span::set_span_sink(prev_sink);
        timeline::set_enabled(prev_trace);
        assert_eq!(spans.len(), 1);
        let trace = timeline::find_trace(spans[0].query_id).expect("trace retained");

        // (kind, blocks, rows, inclusive ns) per operator, root first.
        let explained: Vec<(String, u64, u64, u64)> = report
            .operators
            .iter()
            .map(|n| {
                let kind = n.label.split_whitespace().next().unwrap().to_owned();
                (kind, n.blocks, n.rows, n.elapsed.as_nanos() as u64)
            })
            .collect();
        struct Span<'a> {
            op: &'a str,
            id: u32,
            parent: Option<u32>,
            start: u64,
            dur: u64,
        }
        let mut timed = Vec::new();
        let mut labels = Vec::new();
        let mut on_timeline = Vec::new();
        for e in &trace.events {
            if let timeline::TimelineKind::OperatorSpan {
                op,
                label,
                op_id,
                parent,
                blocks,
                rows,
                dur_ns,
            } = &e.kind
            {
                timed.push((op.clone(), *blocks, *rows, *dur_ns));
                labels.push(label.as_str());
                on_timeline.push(Span {
                    op,
                    id: *op_id,
                    parent: *parent,
                    start: e.ts_ns,
                    dur: *dur_ns,
                });
            }
        }
        // Spans sort by start time: the root entered `next_block` first.
        assert_eq!(
            timed, explained,
            "{blocking}: the two views disagree\n{}",
            report.operator_tree
        );
        let explained_labels: Vec<&str> =
            report.operators.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, explained_labels, "{blocking}: span labels");
        assert_eq!(explained.len(), 2, "{}", report.operator_tree);
        assert_eq!(explained[0].0, blocking);
        let (kind, blocks, rows, _) = &explained[1];
        assert_eq!((kind.as_str(), *blocks, *rows), ("Scan", 235, 240_000));

        for child in &on_timeline {
            let Some(pid) = child.parent else { continue };
            let parent = on_timeline.iter().find(|s| s.id == pid).unwrap();
            assert!(
                parent.start <= child.start && child.start + child.dur <= parent.start + parent.dur,
                "{}'s span [{}, +{}] must contain {}'s [{}, +{}]",
                parent.op,
                parent.start,
                parent.dur,
                child.op,
                child.start,
                child.dur
            );
        }
        assert_eq!(
            trace.top_operators(1)[0].0,
            blocking,
            "self time must land on the blocking operator, not the scan: {:?}",
            trace.top_operators(2)
        );
    }
}

/// The acceptance criterion: a morsel-parallel (degree 4) query over a
/// paged extract produces a validated TEF trace with ≥ 4 distinct
/// worker tracks of morsel spans plus buffer-pool segment-load events,
/// attributable to the query via its plan digest.
#[test]
fn parallel_paged_query_produces_a_validated_worker_trace() {
    let _guard = trace_lock().lock().unwrap();

    let dir = std::env::temp_dir().join(format!("tde_timeline_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig10.tde2");
    save_v2(&fig10_db(), &path).unwrap();

    // Fresh open: the pool is cold, so the query itself triggers the
    // segment loads we want on its timeline.
    let db = PagedDatabase::open(&path).unwrap();
    let t = db.table("fig10").unwrap();

    let query = || {
        Query::scan_columns(&t, &["g", "v"])
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(500_000)))
            .aggregate(vec![0], vec![(AggFunc::Count, 1, "n")])
            .with_parallelism(4)
    };

    let prev_trace = timeline::set_enabled(true);
    let sink = span::MemorySink::new();
    let prev_sink = span::set_span_sink(Some(sink.clone()));

    let rows = query().rows();
    assert_eq!(rows.len(), 100, "one output row per group");

    let spans = sink.spans();
    span::set_span_sink(prev_sink);
    timeline::set_enabled(prev_trace);
    assert_eq!(spans.len(), 1);
    let s = &spans[0];

    let trace = timeline::find_trace(s.query_id).expect("trace retained in the ring");
    assert_eq!(
        trace.plan_digest, s.plan_digest,
        "the trace is attributable to the query via the plan digest"
    );
    assert_eq!(trace.rows_out, 100);
    assert!(trace.error.is_none());
    // Tracing observes the query without changing its answer.
    let prev_trace = timeline::set_enabled(false);
    let untraced = query().rows();
    timeline::set_enabled(prev_trace);
    assert_eq!(rows, untraced, "traced and untraced runs disagree");

    // ≥ 4 distinct workers actually executed morsels. The full-degree
    // assertion only means something when the host can run 4 workers at
    // once — on fewer cores the running workers can claim every morsel
    // from the shared counter before the OS first schedules a
    // late-spawning one.
    let workers: std::collections::BTreeSet<u32> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            timeline::TimelineKind::Morsel { worker, .. } => Some(worker),
            _ => None,
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if cores >= 4 { 4 } else { 1 };
    assert!(
        workers.len() >= floor,
        "expected ≥ {floor} worker tracks on a {cores}-core host, got {workers:?}"
    );
    // The cold pool loaded segments during the query.
    let loads = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                timeline::TimelineKind::Event(tde::obs::Event::SegmentLoad { .. })
            )
        })
        .count();
    assert!(loads >= 2, "both columns' segments load during the query");
    // Operator spans made it onto the timeline with wall durations.
    assert!(trace.events.iter().any(|e| matches!(
        &e.kind,
        timeline::TimelineKind::OperatorSpan { rows, .. } if *rows > 0
    )));

    // The TEF rendering passes the strict validator and shows the
    // worker tracks as distinct tids.
    let tef = tde_stats::tef::render_trace(&trace);
    let n_events = tde_stats::tef::validate_tef(&tef).expect("strict TEF validation");
    assert!(n_events > workers.len() + loads);
    for w in &workers {
        assert!(
            tef.contains(&format!("\"tid\":{}", 1000 + w)),
            "worker {w} track missing from TEF"
        );
        assert!(tef.contains(&format!("worker-{w}")));
    }
    assert!(tef.contains("\"name\":\"load stream\""));
    assert!(tef.contains(&format!("digest={}", s.plan_digest)));

    // The /spans summary and /trace/<id> endpoint payloads agree.
    let spans_doc = tde_stats::http::spans_json();
    let v = tde_stats::minijson::parse(&spans_doc).unwrap();
    let summaries = v.get("traces").unwrap().as_array().unwrap();
    assert!(summaries
        .iter()
        .any(|x| x.get("query_id").and_then(|q| q.as_u64()) == Some(s.query_id)));

    std::fs::remove_dir_all(&dir).ok();
}

/// Slow-query log: with a zero threshold every query is "slow" — it is
/// pinned in the slow ring and a structured record with the top-3
/// operators by self-time reaches the sink.
#[test]
fn slow_queries_are_pinned_and_logged() {
    let _guard = trace_lock().lock().unwrap();
    if timeline::slow_threshold_ns() != Some(0) {
        // The threshold is parsed from TDE_SLOW_QUERY_NS once per
        // process; this test only runs under the CI leg that sets it.
        return;
    }
    let prev_trace = timeline::set_enabled(true);
    let sink = span::MemorySink::new();
    let prev_sink = span::set_span_sink(Some(sink.clone()));

    let t = demo_table();
    let rows = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(2)))
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "s")])
        .rows();
    assert_eq!(rows.len(), 8);

    let spans = sink.spans();
    let slow = sink.slow_records();
    span::set_span_sink(prev_sink);
    timeline::set_enabled(prev_trace);

    assert_eq!(spans.len(), 1);
    let record = slow
        .iter()
        .rfind(|r| r.query_id == spans[0].query_id)
        .expect("slow record for the query");
    assert_eq!(record.plan_digest, spans[0].plan_digest);
    let top_ops = record.top_operators(3);
    assert!(!top_ops.is_empty() && top_ops.len() <= 3);
    tde_stats::minijson::parse(&record.slow_query_json()).unwrap();
    assert!(timeline::slow_traces()
        .iter()
        .any(|t| t.query_id == spans[0].query_id));
}

/// A trace splits compaction into domain translation and re-encode: every
/// snapshot is a span that says whether it built the per-base index, and
/// the compaction record and event carry the snapshot's share.
#[test]
fn compaction_trace_splits_the_snapshot_from_the_re_encode() {
    let _guard = trace_lock().lock().unwrap();
    let mut name = ColumnBuilder::new("name", DataType::Str, EncodingPolicy::default());
    for i in 0..5_000 {
        name.append_str(Some(&format!("base-{}", i % 700)));
    }
    let base = Arc::new(Table::new("tl_delta", vec![name.finish().column]));

    let prev_trace = timeline::set_enabled(true);
    let token = timeline::query_begin(span::next_query_id());
    let mut dt = tde::delta::DeltaTable::from_eager(base);
    for batch in 0..2 {
        let rows: Vec<Vec<tde::types::Value>> = (0..300)
            .map(|i| vec![tde::types::Value::Str(format!("new-{batch}-{}", i % 90))])
            .collect();
        dt.append_rows(&rows).unwrap();
        dt.snapshot().unwrap();
    }
    dt.compact().unwrap();
    let trace = timeline::query_end(token, "", 0, 0, None, &[]);
    timeline::set_enabled(prev_trace);

    let snapshots: Vec<(u64, bool)> = trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            timeline::TimelineKind::Event(tde::obs::Event::DeltaSnapshot {
                table,
                delta_rows,
                index_built,
                ..
            }) if table == "tl_delta" => Some((*delta_rows, *index_built)),
            _ => None,
        })
        .collect();
    assert_eq!(
        snapshots,
        [(300, true), (600, false), (600, false)],
        "two batch snapshots, then compaction's; one index build"
    );
    let (dur_ns, snapshot_ns) = trace
        .events
        .iter()
        .find_map(|e| match &e.kind {
            timeline::TimelineKind::Event(tde::obs::Event::Compaction {
                table,
                nanos: dur_ns,
                snapshot_nanos: snapshot_ns,
                ..
            }) if table == "tl_delta" => Some((*dur_ns, *snapshot_ns)),
            _ => None,
        })
        .expect("compaction on the timeline");
    assert!(
        0 < snapshot_ns && snapshot_ns < dur_ns,
        "{snapshot_ns} of {dur_ns} ns"
    );
    let tef = tde_stats::tef::render_trace(&trace);
    tde_stats::tef::validate_tef(&tef).expect("strict TEF validation");
    assert!(tef.contains("\"index_built\":true") && tef.contains("\"snapshot_us\":"));

    let compaction = trace
        .own_events()
        .find(|e| matches!(e, tde::obs::Event::Compaction { table, .. } if table == "tl_delta"))
        .expect("compaction event");
    let tde::obs::Event::Compaction {
        nanos,
        snapshot_nanos,
        ..
    } = *compaction
    else {
        unreachable!()
    };
    assert!(0 < snapshot_nanos && snapshot_nanos < nanos);
    let json = tde_stats::minijson::parse(&compaction.to_json()).expect("event JSON parses");
    assert!(
        json.get("snapshot_nanos").is_some(),
        "{}",
        compaction.to_json()
    );
}

/// A query that finishes takes only its own events: a query that is
/// still running keeps its operator spans. Thread A opens a query and
/// runs its plan to the end; query B then runs and finishes on another
/// thread before A ends. (Draining every lane at `query_end` gave A's
/// spans to B.)
#[test]
fn a_finishing_query_does_not_steal_a_running_querys_spans() {
    let _guard = trace_lock().lock().unwrap();
    let table = |name: &str| {
        let mut k = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
        for i in 0..5_000i64 {
            k.append_i64(i % 37);
        }
        Arc::new(Table::new(name, vec![k.finish().column]))
    };
    let (a, b) = (table("steal_a"), table("steal_b"));
    let prev_trace = timeline::set_enabled(true);
    let sink = span::MemorySink::new();
    let prev_sink = span::set_span_sink(Some(sink.clone()));

    let (to_b, b_waits) = std::sync::mpsc::channel::<()>();
    let (to_a, a_waits) = std::sync::mpsc::channel::<()>();
    let query_b = std::thread::spawn(move || {
        b_waits.recv().unwrap();
        assert_eq!(Query::scan(&b).rows().len(), 5_000);
        to_a.send(()).unwrap();
    });
    let token = timeline::query_begin(span::next_query_id());
    let plan = tde::plan::PlanBuilder::scan(&a)
        .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(10)))
        .build();
    let op = tde::plan::physical::try_execute(&plan).unwrap();
    assert_eq!(
        tde::exec::drain(op).iter().map(|b| b.len).sum::<usize>(),
        1_355
    );
    to_b.send(()).unwrap();
    a_waits.recv().unwrap();
    let trace_a = timeline::query_end(token, "", 1_355, 1, None, &[]);
    query_b.join().unwrap();
    let spans = sink.spans();
    span::set_span_sink(prev_sink);
    timeline::set_enabled(prev_trace);

    let op_ids = |trace: &timeline::QueryTrace| -> Vec<(u32, String)> {
        trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                timeline::TimelineKind::OperatorSpan { op_id, label, .. } => {
                    Some((*op_id, label.clone()))
                }
                _ => None,
            })
            .collect()
    };
    let mine = op_ids(&trace_a);
    assert_eq!(mine.len(), 2, "A's Filter and Scan: {mine:?}");
    assert!(
        mine.iter().any(|(_, l)| l.starts_with("Scan steal_a")),
        "{mine:?}"
    );
    assert_eq!(spans.len(), 1);
    let trace_b = timeline::find_trace(spans[0].query_id).expect("B's trace retained");
    let theirs = op_ids(&trace_b);
    assert!(
        theirs.iter().all(|s| !mine.contains(s)),
        "B's trace took A's spans: {theirs:?}"
    );
    assert!(
        theirs.iter().any(|(_, l)| l.starts_with("Scan steal_b")),
        "{theirs:?}"
    );
}

/// Opens real files whose reads call `hook` once, on the first read made
/// inside a query scope: a query over a table opened through it stops
/// mid-execution until the hook returns.
#[derive(Debug)]
struct GateIo {
    hook: Arc<Hook>,
}

struct Hook(Box<dyn Fn() + Send + Sync>);

impl std::fmt::Debug for Hook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Hook")
    }
}

#[derive(Debug)]
struct GateFile {
    inner: Box<dyn tde::io::IoFile>,
    hook: Arc<Hook>,
    fired: std::sync::atomic::AtomicBool,
}

impl tde::io::IoFile for GateFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        if timeline::current_scope() != 0
            && !self.fired.swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            (self.hook.0)();
        }
        self.inner.read_at(buf, offset)
    }

    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
}

impl tde::io::StorageIo for GateIo {
    fn open(&self, path: &std::path::Path) -> std::io::Result<Box<dyn tde::io::IoFile>> {
        Ok(Box::new(GateFile {
            inner: tde::io::RealIo.open(path)?,
            hook: Arc::clone(&self.hook),
            fired: std::sync::atomic::AtomicBool::new(false),
        }))
    }

    fn create(&self, path: &std::path::Path) -> std::io::Result<Box<dyn tde::io::IoWriter>> {
        tde::io::RealIo.create(path)
    }

    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        tde::io::RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        tde::io::RealIo.remove_file(path)
    }
}

/// Two spanned queries on two threads, interleaved: query B runs start
/// to finish while query A waits in its first segment read. Each span's
/// counters are its own query's events folded: A's kernel pushdown and
/// rows, B's aggregate decisions — never the other's. (Counters taken
/// as registry deltas around a query gave A every count B made.)
#[test]
fn concurrent_spans_count_only_their_own_events() {
    let _guard = trace_lock().lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tde_span_interleave_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("a.tde2");
    {
        let mut k = ColumnBuilder::new("ia_k", DataType::Integer, EncodingPolicy::default());
        for i in 0..20_000i64 {
            k.append_i64(i / 2_000);
        }
        let mut db = Database::new();
        db.add_table(Table::new("interleave_a", vec![k.finish().column]));
        save_v2(&db, &path).unwrap();
    }
    let b = demo_table();

    let (to_b, b_waits) = std::sync::mpsc::channel::<()>();
    let (to_a, a_waits) = std::sync::mpsc::channel::<()>();
    let a_waits = Mutex::new(a_waits);
    let io = GateIo {
        hook: Arc::new(Hook(Box::new(move || {
            to_b.send(()).unwrap();
            a_waits.lock().unwrap().recv().unwrap();
        }))),
    };
    let prev_trace = timeline::set_enabled(true);
    let sink = span::MemorySink::new();
    let prev_sink = span::set_span_sink(Some(sink.clone()));

    let query_b = std::thread::spawn(move || {
        b_waits.recv().unwrap();
        let groups = Query::scan(&b)
            .aggregate(vec![1], vec![(AggFunc::Sum, 0, "s")])
            .rows();
        assert_eq!(groups.len(), 500);
        to_a.send(()).unwrap();
    });
    let db = PagedDatabase::open_with_io(&path, PoolConfig::default(), &io).unwrap();
    let a = db.table("interleave_a").unwrap();
    let rows = Query::scan_columns(&a, &["ia_k"])
        .filter(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3)))
        .with_optimizer(tde::plan::strategic::OptimizerOptions {
            index_tables: false,
            ordered_retrieval: false,
            ..Default::default()
        })
        .rows();
    query_b.join().unwrap();
    let spans = sink.spans();
    span::set_span_sink(prev_sink);
    timeline::set_enabled(prev_trace);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(rows.len(), 2_000);

    // Decision and kernel counters only: A's segment loads are its own
    // too, but their byte counts follow the file layout.
    let own = |rows_out: u64| -> Vec<(String, u64)> {
        let span = spans
            .iter()
            .find(|s| s.rows_out == rows_out)
            .unwrap_or_else(|| panic!("no span with {rows_out} rows in {spans:?}"));
        span.counters()
            .into_iter()
            .filter(|(k, _)| k.starts_with("tde_kernel_") || k.starts_with("tde_tactical_"))
            .collect()
    };
    let pairs = |list: &[(&str, u64)]| -> Vec<(String, u64)> {
        list.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    };
    assert_eq!(spans.len(), 2, "{spans:?}");
    assert_eq!(
        own(2_000),
        pairs(&[
            (
                "tde_kernel_pushdown_total{encoding=\"rle\",kernel=\"rle-run-skip\"}",
                1
            ),
            ("tde_kernel_rows_in_total", 20_000),
            ("tde_kernel_rows_out_total", 2_000),
            ("tde_kernel_rows_skipped_total", 18_000),
        ]),
        "query A's span"
    );
    assert_eq!(
        own(500),
        pairs(&[
            (
                "tde_tactical_decisions_total{choice=\"Direct64K\",point=\"hash-strategy\"}",
                1
            ),
            (
                "tde_tactical_decisions_total{choice=\"Hash\",point=\"aggregation\"}",
                1
            ),
        ]),
        "query B's span"
    );
}
