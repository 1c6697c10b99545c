//! The traced run: the benchmark's own spans on, every per-layer metric
//! out.
//!
//! 1. Rounds of the same script the timed run executes, each operation
//!    in a span; the engine's exact counters over the first round.
//! 2. Passes over the query set with each query decomposed into
//!    `core.query` ⊃ {`plan.optimize`, `plan.lower`, `exec.drain` ⊃ the
//!    engine's operator spans, `core.materialize`}, interleaved with the
//!    undecomposed query (the span overhead) and with the engine's own
//!    timeline and metrics toggled off and on.
//! 3. The layer ladder (`ladder`), pager and merged-scan probes.

use crate::driver::{self, Checked, Ctx, Options, Recorder};
use crate::ladder::{self, Fixture};
use crate::metrics::PER_LAYER;
use crate::report::{self, Reported};
use crate::spec::Source;
use crate::stats::{median, Summary};
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tde_core::Extract;
use tde_delta::{DeltaExtract, ScanSource};
use tde_encodings::BLOCK_SIZE;
use tde_exec::cursor::StreamCursor;
use tde_exec::merged_scan::MergedScan;
use tde_exec::scan::TableScan;
use tde_exec::Operator;
use tde_obs::metrics::{MetricsSnapshot, SampleValue};
use tde_obs::timeline::{self, TimelineKind};
use tde_pager::{PagedDatabase, PoolConfig};
use tde_types::Value;

/// One decomposed execution of a query.
#[derive(Debug, Clone, Default)]
struct Decomposed {
    wall_ns: u64,
    optimize_ns: u64,
    lower_ns: u64,
    materialize_ns: u64,
    /// Engine operator self time by ladder kind.
    op_self_ns: BTreeMap<&'static str, u64>,
    /// Rows the scan operators emitted.
    scan_rows: u64,
    /// Decode time of the columns × rows the scans touched, estimated at
    /// each column's measured `decode_block` rate.
    decode_ns: f64,
}

/// Sum of a registry counter over every label set passing `keep`.
fn counter(snap: &MetricsSnapshot, name: &str, keep: impl Fn(&[(String, String)]) -> bool) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name && keep(&s.labels))
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    counter(after, name, |_| true).saturating_sub(counter(before, name, |_| true))
}

fn registry() -> MetricsSnapshot {
    tde_obs::metrics::global().snapshot()
}

/// The ladder's name for an engine operator kind.
fn op_kind(op: &str) -> &'static str {
    match op {
        "Scan" | "PagedScan" | "MergedScan" => "scan",
        "Filter" => "filter",
        "IndexedScan" => "indexed_scan",
        _ if op.starts_with("Morsel") => "morsel",
        _ if op.ends_with("Aggregate") => "aggregate",
        _ => "other",
    }
}

/// Run `q` the way `Query::try_rows` does, with a span around each phase.
fn decomposed_query(
    rec: &mut Recorder,
    q: &Checked,
    src: &Source,
    parallelism: usize,
) -> io::Result<(Vec<Vec<Value>>, Decomposed)> {
    let (builder, opts) = q.spec.plan(src, parallelism);
    let whole = rec.spans.begin("core.query");
    let token = timeline::enabled().then(|| timeline::query_begin(tde_obs::span::next_query_id()));
    let t0 = Instant::now();

    let s = rec.spans.begin("plan.optimize");
    let plan = tde_plan::optimize(builder.build(), opts);
    let optimize_ns = rec.spans.end(s);

    let s = rec.spans.begin("plan.lower");
    let lowered = tde_plan::physical::try_execute(&plan);
    let lower_ns = rec.spans.end(s);
    let mut op = match lowered {
        Ok(op) => op,
        Err(e) => {
            rec.spans.end(whole);
            return Err(e);
        }
    };

    let drain = rec.spans.begin("exec.drain");
    let schema = op.schema().clone();
    let mut blocks = Vec::new();
    while let Some(b) = op.next_block() {
        blocks.push(b);
    }
    drop(op);
    rec.spans.end(drain);
    let out_rows: u64 = blocks.iter().map(|b| b.len as u64).sum();
    let trace = token
        .map(|t| timeline::query_end(t, "", out_rows, t0.elapsed().as_nanos() as u64, None, &[]));

    let s = rec.spans.begin("core.materialize");
    let mut rows = Vec::with_capacity(out_rows as usize);
    for b in &blocks {
        for r in 0..b.len {
            rows.push(
                (0..schema.len())
                    .map(|c| schema.fields[c].value_of(b.columns[c][r]))
                    .collect(),
            );
        }
    }
    let materialize_ns = rec.spans.end(s);
    let wall_ns = rec.spans.end(whole);

    let mut d = Decomposed {
        wall_ns,
        optimize_ns,
        lower_ns,
        materialize_ns,
        ..Decomposed::default()
    };
    // The engine's operator spans, read back from its QueryTrace: copied
    // under `exec.drain`, and their self times tallied by kind.
    if let Some(trace) = trace {
        struct OpSpan<'a> {
            op: &'a str,
            id: u32,
            parent: Option<u32>,
            dur_ns: u64,
            rows: u64,
            ts_ns: u64,
        }
        let ops: Vec<OpSpan> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TimelineKind::OperatorSpan {
                    op,
                    op_id,
                    parent,
                    rows,
                    dur_ns,
                    ..
                } => Some(OpSpan {
                    op,
                    id: *op_id,
                    parent: *parent,
                    dur_ns: *dur_ns,
                    rows: *rows,
                    ts_ns: e.ts_ns,
                }),
                _ => None,
            })
            .collect();
        for o in &ops {
            let children: u64 = ops
                .iter()
                .filter(|c| c.parent == Some(o.id))
                .map(|c| c.dur_ns)
                .sum();
            let kind = op_kind(o.op);
            *d.op_self_ns.entry(kind).or_default() += o.dur_ns.saturating_sub(children);
            if matches!(kind, "scan" | "indexed_scan") {
                d.scan_rows += o.rows;
            }
            rec.spans
                .add_closed(&format!("exec.{}", o.op), o.ts_ns, o.dur_ns, drain);
        }
    }
    Ok((rows, d))
}

/// What the decomposed passes run: the workload's query set and source.
fn query_set(ctx: &Ctx, live: &LiveDelta) -> (Vec<Checked>, Source) {
    match &ctx.main_source {
        Some(src) => (ctx.main_queries.clone(), src.clone()),
        // No main table: the refresh queries over the merged view after
        // the first batch, whose answers the oracle has.
        None => (
            ctx.batches[0].queries.to_vec(),
            Source::Merged(Arc::clone(&live.merged)),
        ),
    }
}

/// A live delta over a paged base: the extract (kept open), its merged
/// snapshot and the clean base table.
struct LiveDelta {
    _extract: DeltaExtract,
    merged: Arc<tde_exec::merged_scan::MergedSource>,
    base: tde_pager::PagedTable,
}

/// Import, save, open, apply the first refresh batch.
fn live_delta(ctx: &Ctx) -> io::Result<LiveDelta> {
    let path = ctx.dir.join("probe.tde");
    let mut ex = Extract::new();
    ex.import(&ctx.text_path, &driver::import_options(&ctx.life_name))?;
    ex.save_paged(&path)?;
    let mut dx = DeltaExtract::open(&path)?;
    let base = match dx.source(&ctx.life_name)? {
        ScanSource::Clean(t) => t,
        ScanSource::Merged(_) => return Err(io::Error::other("a fresh extract has no delta")),
    };
    let batch = &ctx.batches[0];
    let dt = dx.delta_mut(&ctx.life_name)?;
    dt.append_rows(&batch.rows)?;
    dt.delete(&batch.deletes)?;
    match dx.source(&ctx.life_name)? {
        ScanSource::Merged(merged) => Ok(LiveDelta {
            _extract: dx,
            merged,
            base,
        }),
        ScanSource::Clean(_) => Err(io::Error::other("the delta is live")),
    }
}

/// Nanoseconds per row to decode each column the query set projects the
/// way a scan does — `StreamCursor::next`, i.e. `decode_block` for the
/// bit-packed encodings and the run cursor for RLE (fastest of three).
fn decode_rates(ctx: &Ctx, set: &[Checked]) -> BTreeMap<String, f64> {
    let mut rates = BTreeMap::new();
    let mut out = Vec::new();
    for name in set.iter().flat_map(|q| &q.spec.columns) {
        if rates.contains_key(name) {
            continue;
        }
        let Some(col) = ctx.main_table.column(name) else {
            continue;
        };
        let best = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let mut cursor = StreamCursor::new(&col.data);
                loop {
                    out.clear();
                    if cursor.next(&col.data, BLOCK_SIZE, &mut out) == 0 {
                        break;
                    }
                    std::hint::black_box(&out);
                }
                t0.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        rates.insert(name.clone(), best / col.len().max(1) as f64);
    }
    rates
}

/// Everything the decomposed passes collect.
#[derive(Default)]
struct QueryPasses {
    /// Per (query, parallel?): every decomposed execution.
    runs: BTreeMap<(usize, bool), Vec<Decomposed>>,
    /// First serial pass: filtered queries, and those whose scan got a
    /// compressed-domain kernel; kernel rows considered and skipped.
    filtered: u64,
    kernel_pushdowns: u64,
    kernel_rows_in: u64,
    kernel_rows_skipped: u64,
    scan_rows: u64,
    source_rows: u64,
}

fn traced_pass(
    ctx: &Ctx,
    set: &[Checked],
    src: &Source,
    rates: &BTreeMap<String, f64>,
    rec: &mut Recorder,
    acc: &mut QueryPasses,
) {
    let first = acc.runs.is_empty();
    let rows_in = tde_obs::metrics::global().counter("tde_kernel_rows_in_total", "");
    let skipped = tde_obs::metrics::global().counter("tde_kernel_rows_skipped_total", "");
    // The undecomposed query, serial and parallel: the baseline of the
    // span overhead and of the morsel speed-up.
    for (id, q) in set.iter().enumerate() {
        rec.query("trace.plain", id, q, src, 1);
        rec.query("trace.plain_par", id, q, src, ctx.parallelism);
    }
    for parallel in [false, true] {
        let before = registry();
        for (id, q) in set.iter().enumerate() {
            let degree = if parallel { ctx.parallelism } else { 1 };
            let (in0, sk0) = (rows_in.get(), skipped.get());
            let kind = if parallel {
                "trace.decomposed_par"
            } else {
                "trace.decomposed"
            };
            rec.begin_op();
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| decomposed_query(rec, q, src, degree)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let Some((rows, mut d)) = rec.settle(kind, id, ms, result) else {
                continue;
            };
            rec.verify(q.spec.template, driver::answers(rows, q));
            let (d_in, d_skip) = (rows_in.get() - in0, skipped.get() - sk0);
            if !parallel {
                let pushed = (q.spec.preds.len() == 1 && d_in > 0).then(|| q.spec.preds[0].col);
                for (i, name) in q.spec.columns.iter().enumerate() {
                    let touched = if Some(i) == pushed {
                        d_in - d_skip
                    } else {
                        d.scan_rows.min(src.rows())
                    };
                    d.decode_ns += rates.get(name).copied().unwrap_or(0.0) * touched as f64;
                }
                if first {
                    acc.kernel_rows_in += d_in;
                    acc.kernel_rows_skipped += d_skip;
                    acc.scan_rows += d.scan_rows;
                    acc.source_rows += src.rows();
                    acc.filtered += !q.spec.preds.is_empty() as u64;
                }
            }
            acc.runs.entry((id, parallel)).or_default().push(d);
        }
        if first && !parallel {
            let after = registry();
            let with_kernel = |s: &MetricsSnapshot| {
                counter(s, "tde_kernel_pushdown_total", |labels| {
                    labels
                        .iter()
                        .any(|(k, v)| k == "kernel" && !v.contains("fallback"))
                })
            };
            acc.kernel_pushdowns = with_kernel(&after) - with_kernel(&before);
        }
    }
    // The engine's own observers, off and on, query for query.
    for (kind_off, kind_on, toggle) in [
        (
            "trace.timeline_off",
            "trace.timeline_on",
            set_timeline as fn(bool),
        ),
        ("trace.metrics_off", "trace.metrics_on", set_metrics),
    ] {
        for (id, q) in set.iter().enumerate() {
            toggle(false);
            rec.query(kind_off, id, q, src, 1);
            toggle(true);
            rec.query(kind_on, id, q, src, 1);
        }
    }
}

fn set_timeline(on: bool) {
    timeline::set_enabled(on);
}

fn set_metrics(on: bool) {
    if on {
        tde_obs::metrics::global().enable();
    } else {
        tde_obs::metrics::global().disable();
    }
}

/// Undisturbed time per site of `kind`, summed.
fn best_sum(rec: &Recorder, kind: &str) -> f64 {
    report::site_bests(rec, kind).iter().map(|b| b.0).sum()
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The pager probe of one ladder pass: open, then every column of the
/// cold query once on a miss and once on a hit.
fn pager_probe(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) -> io::Result<()> {
    let t0 = Instant::now();
    let db = PagedDatabase::open_with(&ctx.main_file, PoolConfig::default())?;
    out.push(("pager.open_us", t0.elapsed().as_secs_f64() * 1e6));
    let table = db
        .table(&ctx.main_table.name)
        .ok_or_else(|| io::Error::other("table missing from the directory"))?;
    let (mut miss_us, mut hit_us) = (Vec::new(), Vec::new());
    for name in &ctx.cold_query.spec.columns {
        let t0 = Instant::now();
        table.column(name)?;
        miss_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        table.column(name)?;
        hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let read = db.cache_snapshot().bytes_read as f64;
    out.push(("pager.segment_load_us_p50", median(&miss_us)));
    out.push((
        "pager.segment_load_mb_per_s",
        read / miss_us.iter().sum::<f64>(),
    ));
    out.push(("pager.pool_hit_us", median(&hit_us)));
    Ok(())
}

/// Ladder key of the plain scan the merged scan is compared with; not a
/// reported metric.
const PLAIN_SCAN: &str = "plain scan of the merged probe's base";

/// The merged-scan probe of one ladder pass: every column of a live-delta
/// merged view, against the plain scan of its base.
fn merged_probe(live: &LiveDelta, out: &mut Vec<(&'static str, f64)>) -> io::Result<()> {
    let (merged, base) = (Arc::clone(&live.merged), &live.base);
    let drain = |mut op: Box<dyn Operator>| -> (u64, f64) {
        let t0 = Instant::now();
        let mut n = 0;
        while let Some(b) = op.next_block() {
            n += b.len as u64;
        }
        (n, t0.elapsed().as_secs_f64())
    };
    // Load the base columns first so both scans run on a warm pool.
    drain(Box::new(TableScan::paged_all(base, false)?));
    let (plain_rows, plain_s) = drain(Box::new(TableScan::paged_all(base, false)?));
    let (merged_rows, merged_s) = drain(Box::new(MergedScan::all(merged, false)));
    out.push((
        "exec.scan_merged_mrows_per_s",
        merged_rows as f64 / 1e6 / merged_s,
    ));
    out.push((PLAIN_SCAN, plain_rows as f64 / 1e6 / plain_s));
    Ok(())
}

pub fn run_traced(opts: &Options) -> io::Result<()> {
    let t_start = Instant::now();
    let ctx = driver::setup(opts, 0)?;
    let spent = |t0: &Instant| t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut rec = Recorder::new(true);

    // 1. Rounds, spans on. The first gives the exact counts.
    let before = registry();
    let pool_before = ctx.main_db.as_ref().map(|db| db.cache_snapshot());
    driver::round(&ctx, &mut rec);
    let after = registry();
    let pool_after = ctx.main_db.as_ref().map(|db| db.cache_snapshot());
    let round_queries: u64 = rec
        .sites
        .iter()
        .filter(|((k, _), _)| k.starts_with("query") || *k == "cold_open")
        .map(|(_, s)| s.ms.len() as u64)
        .sum();
    while spent(&t0) < 0.3 * opts.seconds {
        driver::round(&ctx, &mut rec);
    }

    // 2. Decomposed query passes.
    let live = live_delta(&ctx)?;
    let (set, src) = query_set(&ctx, &live);
    let rates = decode_rates(&ctx, &set);
    let mut acc = QueryPasses::default();
    loop {
        traced_pass(&ctx, &set, &src, &rates, &mut rec, &mut acc);
        if spent(&t0) >= 0.6 * opts.seconds {
            break;
        }
    }

    // 3. Ladder passes until the time is up, three at least.
    let fixture = Fixture::new(opts.seed, opts.smoke);
    let mut ladder: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut passes = 0;
    while passes < if opts.smoke { 1 } else { 3 } || spent(&t0) < opts.seconds {
        let mut out = Vec::new();
        fixture.pass(&mut out);
        ladder::workload_pass(&ctx, &mut out)?;
        pager_probe(&ctx, &mut out)?;
        merged_probe(&live, &mut out)?;
        for (name, v) in out {
            ladder.entry(name).or_default().push(v);
        }
        passes += 1;
    }
    let end = registry();

    // Assemble every per-layer metric by name.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Ladder rungs: the best of the passes, in the metric's direction.
    for &(name, _, better) in &PER_LAYER {
        if let Some(samples) = ladder.get(name) {
            let best = if better == "higher" {
                samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            } else {
                samples.iter().copied().fold(f64::INFINITY, f64::min)
            };
            values.insert(name, best);
        }
    }
    // Rate against rate, each at its best pass: a per-pass ratio would
    // pick the pass where the plain scan happened to be disturbed.
    let fastest = |name: &str| ladder[name].iter().copied().fold(0.0, f64::max);
    values.insert(
        "exec.merged_overhead_x",
        fastest(PLAIN_SCAN) / fastest("exec.scan_merged_mrows_per_s"),
    );
    values.insert(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );

    // For every query the least-disturbed decomposed execution.
    let best_of = |parallel: bool| -> Vec<&Decomposed> {
        acc.runs
            .iter()
            .filter(|((_, p), _)| *p == parallel)
            .filter_map(|(_, runs)| runs.iter().min_by_key(|d| d.wall_ns))
            .collect()
    };
    let serial = best_of(false);
    let sum =
        |ds: &[&Decomposed], f: &dyn Fn(&Decomposed) -> f64| ds.iter().map(|d| f(d)).sum::<f64>();
    let wall = sum(&serial, &|d| d.wall_ns as f64);
    let self_of = |d: &Decomposed, kind: &str| d.op_self_ns.get(kind).copied().unwrap_or(0) as f64;
    let us = |ds: &[&Decomposed], f: &dyn Fn(&Decomposed) -> u64| -> f64 {
        median(&ds.iter().map(|d| f(d) as f64 / 1e3).collect::<Vec<_>>())
    };
    values.insert("plan.optimize_us_p50", us(&serial, &|d| d.optimize_ns));
    values.insert("plan.lower_us_p50", us(&serial, &|d| d.lower_ns));
    values.insert(
        "core.rows_materialize_us_p50",
        us(&serial, &|d| d.materialize_ns),
    );
    values.insert(
        "plan.plan_share_pct",
        pct(sum(&serial, &|d| (d.optimize_ns + d.lower_ns) as f64), wall),
    );
    values.insert(
        "encodings.decode_share_pct",
        pct(sum(&serial, &|d| d.decode_ns), wall),
    );
    let explained = sum(&serial, &|d| {
        (d.optimize_ns + d.lower_ns + d.materialize_ns + d.op_self_ns.values().sum::<u64>()) as f64
    });
    values.insert("core.residue_pct", pct(wall - explained, wall));
    // Shares of the serial queries' wall; the morsel operator's of the
    // parallel queries'.
    let parallel = best_of(true);
    for (name, kind, of) in [
        ("exec.self_share_pct_scan", "scan", &serial),
        ("exec.self_share_pct_filter", "filter", &serial),
        ("exec.self_share_pct_aggregate", "aggregate", &serial),
        ("exec.self_share_pct_indexed_scan", "indexed_scan", &serial),
        ("exec.self_share_pct_morsel", "morsel", &parallel),
    ] {
        values.insert(
            name,
            pct(
                sum(of, &|d| self_of(d, kind)),
                sum(of, &|d| d.wall_ns as f64),
            ),
        );
    }
    values.insert(
        "plan.kernel_pushdown_ratio",
        acc.kernel_pushdowns as f64 / acc.filtered.max(1) as f64,
    );
    values.insert(
        "plan.scan_rows_per_source_row",
        acc.scan_rows as f64 / acc.source_rows.max(1) as f64,
    );
    values.insert(
        "encodings.kernel_rows_skipped_ratio",
        acc.kernel_rows_skipped as f64 / acc.kernel_rows_in.max(1) as f64,
    );

    values.insert(
        "exec.query_par_p50_ms",
        report::typical_ms(&rec, "trace.plain_par"),
    );
    let plain = best_sum(&rec, "trace.plain");
    values.insert(
        "exec.morsel_speedup_x",
        plain / best_sum(&rec, "trace.plain_par"),
    );
    values.insert(
        "exec.morsel_stolen_ratio",
        delta(&end, &before, "tde_morsels_stolen_total") as f64
            / delta(&end, &before, "tde_morsels_dispatched_total").max(1) as f64,
    );
    values.insert(
        "obs.bench_span_overhead_pct",
        pct(best_sum(&rec, "trace.decomposed") - plain, plain),
    );
    for (name, off, on) in [
        (
            "obs.engine_trace_overhead_pct",
            "trace.timeline_off",
            "trace.timeline_on",
        ),
        (
            "obs.engine_metrics_overhead_pct",
            "trace.metrics_off",
            "trace.metrics_on",
        ),
    ] {
        let off = best_sum(&rec, off);
        values.insert(name, pct(best_sum(&rec, on) - off, off));
    }
    values.insert(
        "obs.timeline_dropped_events",
        timeline::dropped_events() as f64,
    );

    // Exact counts of the first traced round: the long-lived pool where
    // the workload has one, every pool the round opened otherwise.
    let pool = match (&pool_before, &pool_after) {
        (Some(before), Some(after)) => after.since(before),
        _ => tde_obs::CacheSnapshot {
            hits: delta(&after, &before, "tde_pool_hits_total"),
            misses: delta(&after, &before, "tde_pool_misses_total"),
            evictions: delta(&after, &before, "tde_pool_evictions_total"),
            bytes_read: delta(&after, &before, "tde_pool_read_bytes_total"),
            bytes_evicted: 0,
            bytes_cached: 0,
            budget_bytes: 0,
        },
    };
    values.insert("pager.pool_hit_rate", pool.hit_rate());
    values.insert("pager.pool_evictions", pool.evictions as f64);
    values.insert(
        "pager.bytes_read_per_query",
        pool.bytes_read as f64 / round_queries.max(1) as f64,
    );
    values.insert(
        "io.read_retries",
        delta(&end, &before, "tde_io_retries_total") as f64,
    );

    // The lifecycle operations of the rounds.
    let typical = |kind: &str| report::typical_ms(&rec, kind);
    let saved_mb = rec.stored_bytes as f64 / 1e6;
    values.insert("pager.save_mb_per_s", saved_mb / (typical("save") / 1e3));
    values.insert(
        "delta.append_krows_per_s",
        ctx.sizes.batch_rows as f64 / typical("append"),
    );
    values.insert(
        "delta.delete_kids_per_s",
        ctx.sizes.batch_deletes as f64 / typical("delete"),
    );
    values.insert("delta.snapshot_us", typical("snapshot") * 1e3);
    values.insert("delta.compact_ms", typical("delta.compact"));
    values.insert("delta.save_ms", typical("delta.save"));
    let merged_rows = ctx.batches.last().map_or(0, |b| b.merged_rows);
    values.insert("delta.rows_reencoded_per_compaction", merged_rows as f64);
    let rewritten = std::fs::metadata(&ctx.life_file).map_or(0, |m| m.len());
    values.insert(
        "delta.bytes_rewritten_per_user_byte",
        rewritten as f64 / ctx.appended_bytes.max(1) as f64,
    );
    let queries: Vec<f64> = rec
        .sites
        .iter()
        .filter(|((k, _), _)| *k == "query" || *k == "trace.plain")
        .flat_map(|(_, s)| s.ms.iter().copied())
        .collect();
    let tail = Summary::of(&queries);
    values.insert("core.query_p95_ms", tail.tail);
    values.insert(
        "core.error_rate",
        rec.failed as f64 / rec.attempted.max(1) as f64,
    );

    eprintln!(
        "{}: traced run, {:.1} s set-up, {:.1} s measured, {passes} ladder pass(es), {} span(s), \
         query tail is p{:.0} of {} samples",
        ctx.w.name(),
        t0.duration_since(t_start).as_secs_f64(),
        spent(&t0),
        rec.spans.spans.len(),
        tail.tail_pct,
        tail.n
    );
    if let Some(dir) = &opts.trace_out {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}.json", ctx.w.name()));
        std::fs::write(&path, rec.spans.to_trace_json(ctx.w.name()))?;
        eprintln!("wrote {}", path.display());
    }
    let metrics: Vec<Reported> = PER_LAYER
        .iter()
        .map(|&(name, _, _)| Reported::plain(name, values.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    report::print(ctx.w.name(), rec.attempted, rec.failed, &metrics);
    Ok(())
}
