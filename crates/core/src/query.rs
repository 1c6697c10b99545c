//! Query building and execution over extracts.
//!
//! A thin, fluent wrapper around the logical plan builder, the strategic
//! optimizer and the physical lowering: build, `optimize`, run. Results
//! come back as typed [`Value`] rows for display, or as raw blocks for
//! programmatic use.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tde_exec::aggregate::AggSpec;
use tde_exec::expr::AggFunc;
use tde_exec::sort::SortOrder;
use tde_exec::{Block, Expr, Schema, Source};
use tde_obs::timeline::{QueryTrace, TimelineKind};
use tde_obs::{CacheSnapshot, Event};
use tde_plan::strategic::OptimizerOptions;
use tde_plan::{LogicalPlan, PlanBuilder};
use tde_storage::ColumnTelemetry;
use tde_types::Value;

/// A query under construction.
pub struct Query {
    builder: PlanBuilder,
    opts: OptimizerOptions,
}

impl Query {
    /// Start from a scan of every column of `source`: an eager
    /// `&Arc<Table>`, a `&PagedTable`, an `&Arc<MergedSource>` merge
    /// snapshot, or whatever `DeltaExtract::source` hands back — the
    /// query reads the same either way. On a paged source this loads
    /// every column; prefer [`Query::scan_columns`] with a projection.
    pub fn scan(source: impl Into<Source>) -> Query {
        Query {
            builder: PlanBuilder::scan(source),
            opts: OptimizerOptions::default(),
        }
    }

    /// Start from a projection scan. On a paged source only the named
    /// columns' segments are read from disk, via the buffer pool.
    pub fn scan_columns(source: impl Into<Source>, columns: &[&str]) -> Query {
        Query {
            builder: PlanBuilder::scan_columns(source, columns),
            opts: OptimizerOptions::default(),
        }
    }

    // Exists only because the frozen benchmark package calls it.
    #[doc(hidden)]
    pub fn scan_paged_columns(table: &tde_pager::PagedTable, columns: &[&str]) -> Query {
        Query::scan_columns(table, columns)
    }

    // Exists only because the frozen benchmark package calls it.
    #[doc(hidden)]
    pub fn scan_delta_columns(
        source: &Arc<tde_exec::merged_scan::MergedSource>,
        columns: &[&str],
    ) -> Query {
        Query::scan_columns(source, columns)
    }

    /// Filter rows.
    pub fn filter(mut self, predicate: Expr) -> Query {
        self.builder = self.builder.filter(predicate);
        self
    }

    /// Compute output columns.
    pub fn project(mut self, exprs: Vec<(String, Expr)>) -> Query {
        self.builder = self.builder.project(exprs);
        self
    }

    /// Group and aggregate.
    pub fn aggregate(mut self, group_by: Vec<usize>, aggs: Vec<(AggFunc, usize, &str)>) -> Query {
        let aggs = aggs
            .into_iter()
            .map(|(f, c, n)| AggSpec::new(f, c, n))
            .collect();
        self.builder = self.builder.aggregate(group_by, aggs);
        self
    }

    /// Sort the result.
    pub fn sort(mut self, keys: Vec<(usize, SortOrder)>) -> Query {
        self.builder = self.builder.sort(keys);
        self
    }

    /// Override the optimizer options (the figure harnesses compare
    /// plans with individual rewrites disabled).
    pub fn with_optimizer(mut self, opts: OptimizerOptions) -> Query {
        self.opts = opts;
        self
    }

    /// Request morsel-parallel execution at `degree` workers (1 = serial,
    /// the default). Parallel output is byte-identical to serial; the
    /// planner falls back to the serial pipeline for shapes the morsel
    /// executor cannot run whole or aggregates that do not merge exactly.
    pub fn with_parallelism(mut self, degree: usize) -> Query {
        self.opts.parallelism = degree;
        self
    }

    /// The optimized logical plan.
    pub fn plan(self) -> LogicalPlan {
        tde_plan::optimize(self.builder.build(), self.opts)
    }

    /// The optimized plan rendered as text.
    pub fn explain(self) -> String {
        self.plan().explain()
    }

    /// Execute, returning the output schema and raw blocks. Panics where
    /// [`Query::try_run`] returns an error.
    pub fn run(self) -> (Schema, Vec<Block>) {
        self.try_run()
            .unwrap_or_else(|e| panic!("query execution failed: {e}"))
    }

    /// Execute, returning the output schema and raw blocks.
    ///
    /// Errors are the underlying [`std::io::Error`]: I/O and corruption
    /// faults — failed demand loads, segment checksum mismatches (use
    /// [`tde_io::checksum_mismatch_details`] to recognise corruption
    /// specifically) — and `InvalidInput` for a projection naming a
    /// column the source does not have or an operator naming a column
    /// index past its input's width.
    ///
    /// Always-on observability: when the process-wide metrics registry
    /// is enabled this records `tde_queries_total`,
    /// `tde_query_rows_total` and the `tde_query_latency_ns` histogram;
    /// when timeline tracing is on (see [`tde_obs::timeline`]) or a span
    /// sink is installed (see [`tde_obs::span`]) the execution runs in a
    /// query scope, its drained trace lands in the trace ring, and the
    /// sink gets the trace — rendered as one span line with the plan
    /// digest, phase timings and the counters the query's own events
    /// moved. Failed executions stay observable: they bump
    /// `tde_queries_failed_total` and leave an error-tagged span and
    /// trace instead of vanishing.
    pub fn try_run(self) -> io::Result<(Schema, Vec<Block>)> {
        self.execute(false).map(|x| (x.schema, x.blocks))
    }

    /// Plan, lower and drain under the always-on observation — the one
    /// path behind every entry point, so each emits exactly one span and
    /// one timeline trace, failed or not. `scoped` opens the query's
    /// timeline scope even when the layer is disabled (EXPLAIN ANALYZE
    /// reads the scope's trace).
    fn execute(self, scoped: bool) -> io::Result<Executed> {
        let obs = QueryObservation::begin(scoped);
        let t0 = Instant::now();
        // The optimizer indexes columns unchecked, so a plan naming one
        // past its input's width goes no further than this check.
        let checked = self.builder.as_plan().check_columns();
        let plan = match checked {
            Ok(_) => self.plan(),
            Err(_) => self.builder.build(),
        };
        let plan_ns = t0.elapsed().as_nanos() as u64;
        let digest = obs
            .as_ref()
            .map_or_else(String::new, |o| o.plan_digest(|| plan.explain()));
        let t1 = Instant::now();
        let result = checked.and_then(|_| tde_plan::physical::try_run(&plan));
        let elapsed = t1.elapsed();
        let trace = obs.and_then(|obs| {
            let exec_ns = elapsed.as_nanos() as u64;
            let rows = result
                .as_ref()
                .map_or(0, |(_, blocks)| blocks.iter().map(|b| b.len as u64).sum());
            obs.finish(
                &digest,
                rows,
                plan_ns + exec_ns,
                result.as_ref().err().map(ToString::to_string),
                &[("plan", plan_ns), ("execute", exec_ns)],
            )
        });
        result.map(|(schema, blocks)| Executed {
            plan,
            schema,
            blocks,
            elapsed,
            trace,
        })
    }

    /// Execute with full instrumentation. Panics where
    /// [`Query::try_explain_analyze`] returns an error.
    pub fn explain_analyze(self) -> ExplainAnalyze {
        self.try_explain_analyze()
            .unwrap_or_else(|e| panic!("query execution failed: {e}"))
    }

    /// Execute with full instrumentation: the query runs in its own
    /// timeline scope — also when the layer is disabled — and the report
    /// is a view of the trace that scope drains: the operator tree from
    /// its operator spans, the tactical decisions, re-encodings,
    /// conversions and segment loads from its events, plus per-table
    /// compression telemetry. Queries running beside it neither add to
    /// nor take from the report. The query still runs to completion and
    /// its output is available on the report.
    ///
    /// The always-on layers see this entry point like any other — same
    /// metrics, one span and timeline trace, same errors as
    /// [`Query::try_run`].
    pub fn try_explain_analyze(self) -> io::Result<ExplainAnalyze> {
        let sources = self.builder.as_plan().sources();
        let before: Vec<Option<CacheSnapshot>> =
            sources.iter().map(Source::cache_snapshot).collect();
        let x = self.execute(true)?;
        let trace = x.trace.expect("EXPLAIN ANALYZE always opens a scope");
        let caches = sources
            .iter()
            .zip(before)
            .filter_map(|(s, before)| {
                let after = s.cache_snapshot()?;
                Some(CacheReport {
                    table: s.name().to_owned(),
                    delta: after.since(&before?),
                    totals: after,
                })
            })
            .collect();
        let tables = sources
            .iter()
            .filter_map(Source::resident)
            .map(|t| (t.name.clone(), t.row_count(), t.compression_telemetry()))
            .collect();
        let operators = operator_nodes(&trace);
        Ok(ExplainAnalyze {
            logical: x.plan.explain(),
            operator_tree: render_tree(&operators),
            operators,
            events: trace.own_events().cloned().collect(),
            tables,
            caches,
            row_count: x.blocks.iter().map(|b| b.len as u64).sum(),
            elapsed: x.elapsed,
            schema: x.schema,
            blocks: x.blocks,
        })
    }

    /// Execute, returning typed value rows (convenient, not fast).
    /// Panics where [`Query::try_rows`] returns an error.
    pub fn rows(self) -> Vec<Vec<Value>> {
        self.try_rows()
            .unwrap_or_else(|e| panic!("query execution failed: {e}"))
    }

    /// Execute, returning typed value rows; errors as
    /// [`Query::try_run`].
    pub fn try_rows(self) -> io::Result<Vec<Vec<Value>>> {
        let (schema, blocks) = self.try_run()?;
        let mut rows = Vec::new();
        for b in &blocks {
            for r in 0..b.len {
                rows.push(
                    (0..schema.len())
                        .map(|c| schema.fields[c].value_of(b.columns[c][r]))
                        .collect(),
                );
            }
        }
        Ok(rows)
    }
}

/// What [`Query::execute`] hands back: the optimized plan it ran, the
/// output, the wall time of lowering + drain, and the drained timeline
/// trace when the query ran in a scope.
struct Executed {
    plan: LogicalPlan,
    schema: Schema,
    blocks: Vec<Block>,
    elapsed: Duration,
    trace: Option<Arc<QueryTrace>>,
}

/// One operator of an EXPLAIN ANALYZE report.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// Operator label, e.g. `"HashAggregate [strategy=Direct64K]"`.
    pub label: String,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Blocks produced.
    pub blocks: u64,
    /// Rows produced.
    pub rows: u64,
    /// Wall time inside `next_block`, children included.
    pub elapsed: Duration,
}

/// The query's own operator spans as a node list in lowering order —
/// operator ids are handed out as lowering registers each operator, so
/// parents precede children.
fn operator_nodes(trace: &QueryTrace) -> Vec<NodeSnapshot> {
    let mut spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.scope == trace.scope)
        .filter_map(|e| match &e.kind {
            TimelineKind::OperatorSpan {
                label,
                op_id,
                parent,
                blocks,
                rows,
                dur_ns,
                ..
            } => Some((*op_id, *parent, label, *blocks, *rows, *dur_ns)),
            _ => None,
        })
        .collect();
    spans.sort_by_key(|s| s.0);
    let index = |id: u32| spans.iter().position(|s| s.0 == id);
    spans
        .iter()
        .map(|&(_, parent, label, blocks, rows, dur_ns)| NodeSnapshot {
            label: label.clone(),
            parent: parent.and_then(index),
            blocks,
            rows,
            elapsed: Duration::from_nanos(dur_ns),
        })
        .collect()
}

/// Render the operator tree annotated with per-operator counters. The
/// nodes are in lowering order, which is depth-first: each operator
/// comes right before its subtree.
fn render_tree(nodes: &[NodeSnapshot]) -> String {
    let mut depth = vec![0; nodes.len()];
    let mut out = String::new();
    for (i, n) in nodes.iter().enumerate() {
        depth[i] = n.parent.map_or(0, |p| depth[p] + 1);
        let label = format!("{}{}", "  ".repeat(depth[i]), n.label);
        out.push_str(&format!(
            "{label:<44} blocks={:<6} rows={:<9} elapsed={:.3?}\n",
            n.blocks, n.rows, n.elapsed
        ));
    }
    out
}

/// One execution's always-on observability, shared by every entry
/// point (`run`/`try_run`/`rows`/`try_rows`/`explain_analyze`) so each
/// leaves exactly one span and one timeline trace.
///
/// [`QueryObservation::begin`] checks the layer gates — `None` means the
/// registry is off and no scope is wanted, and the caller takes the
/// uninstrumented fast path. The query runs in a timeline scope when the
/// timeline is on, a span sink is installed (the span is a rendering of
/// the trace) or the caller asks for one (EXPLAIN ANALYZE).
/// [`QueryObservation::finish`] settles everything at once: the query
/// metrics, the drained trace, and the span (with its slow-query record
/// when `TDE_SLOW_QUERY_NS` is set and met) for the sink.
struct QueryObservation {
    token: Option<tde_obs::timeline::QueryToken>,
    metrics_on: bool,
}

impl QueryObservation {
    fn begin(scoped: bool) -> Option<QueryObservation> {
        use tde_obs::{metrics, span, timeline};
        let metrics_on = metrics::enabled();
        let scoped = scoped || span::span_sink_installed() || timeline::enabled();
        if !metrics_on && !scoped {
            return None;
        }
        Some(QueryObservation {
            token: scoped.then(|| timeline::query_begin(span::next_query_id())),
            metrics_on,
        })
    }

    /// The plan digest, rendered only when a trace will carry it.
    fn plan_digest(&self, explain: impl FnOnce() -> String) -> String {
        if self.token.is_some() {
            format!("{:016x}", tde_obs::span::fnv1a64(&explain()))
        } else {
            String::new()
        }
    }

    /// Returns the drained timeline trace when the query had a scope.
    fn finish(
        self,
        plan_digest: &str,
        rows: u64,
        elapsed_ns: u64,
        error: Option<String>,
        phases: &[(&'static str, u64)],
    ) -> Option<Arc<QueryTrace>> {
        use tde_obs::{metrics, span, timeline};
        if self.metrics_on {
            let slow = timeline::slow_threshold_ns().is_some_and(|t| elapsed_ns >= t);
            metrics::query_finished(rows, elapsed_ns, error.is_some(), slow);
        }
        let trace = self
            .token
            .map(|token| timeline::query_end(token, plan_digest, rows, elapsed_ns, error, phases));
        if let Some(trace) = &trace {
            span::emit_span(trace);
        }
        trace
    }
}

/// Buffer-pool telemetry for one paged table scanned by a query:
/// what this execution did to the cache (`delta`) and where the pool
/// stands now (`totals`).
#[derive(Debug, Clone)]
pub struct CacheReport {
    /// The paged table's name.
    pub table: String,
    /// Hits/misses/evictions attributable to this execution.
    pub delta: CacheSnapshot,
    /// Cumulative pool state after the execution.
    pub totals: CacheSnapshot,
}

/// The result of [`Query::explain_analyze`]: the executed query's
/// output plus the view of its timeline trace.
#[derive(Debug)]
pub struct ExplainAnalyze {
    /// The optimized logical plan, rendered.
    pub logical: String,
    /// The physical operator tree annotated with blocks/rows/elapsed.
    pub operator_tree: String,
    /// Raw per-operator counters (lowering order; parents precede
    /// children).
    pub operators: Vec<NodeSnapshot>,
    /// Tactical decisions, re-encodings and conversions, in order.
    pub events: Vec<Event>,
    /// Per-table compression telemetry: (table, rows, columns).
    pub tables: Vec<(String, u64, Vec<ColumnTelemetry>)>,
    /// Buffer-pool telemetry for each paged table the query scanned.
    pub caches: Vec<CacheReport>,
    /// Rows the query produced.
    pub row_count: u64,
    /// Wall time for the whole execution (lowering + drain).
    pub elapsed: Duration,
    /// Output schema.
    pub schema: Schema,
    /// Output blocks (the query result).
    pub blocks: Vec<Block>,
}

impl ExplainAnalyze {
    /// The report as one JSON document (hand-rolled; the engine carries
    /// no serialization dependency). Written by the bench harnesses into
    /// `bench_results/`.
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self
            .operators
            .iter()
            .map(|n| {
                format!(
                    "{{\"label\":\"{}\",\"parent\":{},\"blocks\":{},\"rows\":{},\
                     \"elapsed_ns\":{}}}",
                    tde_obs::json_escape(&n.label),
                    n.parent.map_or("null".to_string(), |p| p.to_string()),
                    n.blocks,
                    n.rows,
                    n.elapsed.as_nanos()
                )
            })
            .collect();
        let events: Vec<String> = self.events.iter().map(Event::to_json).collect();
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|(name, rows, cols)| {
                let cols: Vec<String> = cols.iter().map(ColumnTelemetry::to_json).collect();
                format!(
                    "{{\"table\":\"{}\",\"rows\":{},\"columns\":[{}]}}",
                    tde_obs::json_escape(name),
                    rows,
                    cols.join(",")
                )
            })
            .collect();
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|c| {
                format!(
                    "{{\"table\":\"{}\",\"delta\":{},\"totals\":{}}}",
                    tde_obs::json_escape(&c.table),
                    c.delta.to_json(),
                    c.totals.to_json()
                )
            })
            .collect();
        format!(
            "{{\"rows\":{},\"elapsed_ns\":{},\"operators\":[{}],\"events\":[{}],\
             \"tables\":[{}],\"caches\":[{}]}}",
            self.row_count,
            self.elapsed.as_nanos(),
            ops.join(","),
            events.join(","),
            tables.join(","),
            caches.join(",")
        )
    }
}

impl ExplainAnalyze {
    /// The kernel telemetry events the scans emitted: one
    /// [`Event::KernelScan`] per scan with a pushed predicate, carrying
    /// the kernel kind and the rows it skipped without decoding.
    pub fn kernel_scans(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::KernelScan { .. }))
            .collect()
    }
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== physical plan ==")?;
        f.write_str(&self.operator_tree)?;
        writeln!(f, "\n== decisions & encoding events ==")?;
        if self.events.is_empty() {
            writeln!(f, "  (none recorded)")?;
        }
        for e in &self.events {
            writeln!(f, "  - {e}")?;
        }
        writeln!(f, "\n== compression telemetry ==")?;
        for (name, rows, cols) in &self.tables {
            let physical: u64 = cols.iter().map(|c| c.physical_bytes).sum();
            let logical: u64 = cols.iter().map(|c| c.logical_bytes).sum();
            writeln!(
                f,
                "table {name} ({rows} rows, {physical} physical / {logical} logical bytes)"
            )?;
            for c in cols {
                writeln!(f, "  {c}")?;
            }
        }
        if !self.caches.is_empty() {
            writeln!(f, "\n== buffer pool ==")?;
            for c in &self.caches {
                writeln!(f, "table {}: this query {}", c.table, c.delta)?;
                writeln!(f, "  pool totals {}", c.totals)?;
            }
        }
        writeln!(f, "\n== result ==")?;
        writeln!(f, "{} row(s) in {:.3?}", self.row_count, self.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_exec::expr::CmpOp;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::DataType;

    fn sales() -> Arc<Table> {
        let mut region = ColumnBuilder::new("region", DataType::Str, EncodingPolicy::default());
        let mut amount = ColumnBuilder::new("amount", DataType::Integer, EncodingPolicy::default());
        for i in 0..1000i64 {
            region.append_str(Some(["east", "west", "north"][i as usize % 3]));
            amount.append_i64(i);
        }
        Arc::new(Table::new(
            "sales",
            vec![region.finish().column, amount.finish().column],
        ))
    }

    #[test]
    fn end_to_end_group_by() {
        let t = sales();
        let mut rows = Query::scan(&t)
            .aggregate(
                vec![0],
                vec![(AggFunc::Count, 1, "n"), (AggFunc::Max, 1, "mx")],
            )
            .rows();
        rows.sort_by_key(|r| r[0].to_string());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Str("east".into()));
        assert_eq!(rows[0][1], Value::Int(334)); // 0,3,…,999
        assert_eq!(rows[0][2], Value::Int(999));
    }

    #[test]
    fn filter_and_rows() {
        let t = sales();
        let rows = Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(997)))
            .rows();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn explain_renders() {
        let t = sales();
        let text = Query::scan(&t)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(5)))
            .explain();
        assert!(text.contains("Scan sales"));
    }

    #[test]
    fn parallel_query_is_byte_identical_and_labeled() {
        let mut region = ColumnBuilder::new("region", DataType::Str, EncodingPolicy::default());
        let mut amount = ColumnBuilder::new("amount", DataType::Integer, EncodingPolicy::default());
        for i in 0..30_000i64 {
            region.append_str(Some(["east", "west", "north"][i as usize % 3]));
            amount.append_i64(i % 1013);
        }
        let t = Arc::new(Table::new(
            "sales",
            vec![region.finish().column, amount.finish().column],
        ));
        let query = |t: &Arc<Table>| {
            Query::scan(t)
                .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(100)))
                .aggregate(
                    vec![0],
                    vec![(AggFunc::Count, 1, "n"), (AggFunc::Max, 1, "mx")],
                )
        };
        let (ss, sb) = query(&t).run();
        let report = query(&t).with_parallelism(4).explain_analyze();
        assert!(
            report.operator_tree.contains("[parallel=4]"),
            "{}",
            report.operator_tree
        );
        assert!(
            report.logical.contains("Morsel [parallel=4]"),
            "{}",
            report.logical
        );
        assert_eq!(ss.fields.len(), report.schema.fields.len());
        assert_eq!(sb.len(), report.blocks.len());
        for (a, b) in sb.iter().zip(&report.blocks) {
            assert_eq!(a.len, b.len);
            assert_eq!(a.columns, b.columns);
        }
        // The lowering recorded its tactical call.
        assert!(
            report.events.iter().any(|e| matches!(
                e,
                tde_obs::Event::Decision {
                    point: "parallelism",
                    ..
                }
            )),
            "{:?}",
            report.events
        );
    }

    #[test]
    fn paged_query_reports_cache_telemetry() {
        let t = sales();
        let mut db = tde_storage::Database::new();
        db.add_table((*t).clone());
        let dir = std::env::temp_dir().join("tde_core_paged_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sales.tde2");
        tde_pager::save_v2(&db, &path).unwrap();
        let paged = tde_pager::PagedDatabase::open(&path).unwrap();
        let pt = paged.table("sales").unwrap();

        // Results through the paged path match the eager path.
        let mut eager = Query::scan(&t)
            .aggregate(vec![0], vec![(AggFunc::Count, 1, "n")])
            .rows();
        let report = Query::scan(&pt)
            .aggregate(vec![0], vec![(AggFunc::Count, 1, "n")])
            .explain_analyze();
        let mut lazy: Vec<Vec<Value>> = {
            let mut rows = Vec::new();
            for b in &report.blocks {
                for r in 0..b.len {
                    rows.push(
                        (0..report.schema.len())
                            .map(|c| report.schema.fields[c].value_of(b.columns[c][r]))
                            .collect(),
                    );
                }
            }
            rows
        };
        eager.sort_by_key(|r| r[0].to_string());
        lazy.sort_by_key(|r: &Vec<Value>| r[0].to_string());
        assert_eq!(eager, lazy);

        // The report carries buffer-pool telemetry for the scan: a cold
        // pool missed, and the JSON/Display both surface a caches section.
        assert_eq!(report.caches.len(), 1);
        assert_eq!(report.caches[0].table, "sales");
        assert!(report.caches[0].delta.misses > 0);
        assert!(report.to_json().contains("\"caches\""));
        assert!(report.to_string().contains("== buffer pool =="));
        assert!(report.operator_tree.contains("residency=paged"));

        // A repeat run is all hits.
        let again = Query::scan(&pt)
            .aggregate(vec![0], vec![(AggFunc::Count, 1, "n")])
            .explain_analyze();
        assert_eq!(again.caches[0].delta.misses, 0);
        assert!(again.caches[0].delta.hits > 0);
        std::fs::remove_file(&path).ok();
    }
}
