//! Morsel-driven parallel pipelines (paper §3.3/§8) — the engine's one
//! data-parallel runtime.
//!
//! [`run_morsels`] is the only place in the engine that spawns worker
//! threads. Everything that goes parallel is a list of independent tasks
//! handed to it: the block ranges of a scan pipeline, the index
//! partitions of the §8 rollup ([`MorselExec::rollup`]), the columns of
//! a FlowTable build or a compaction (§3.3), the columns of an import's
//! chunk parse (§5.1.2). It returns results in task order and re-raises
//! the first task panic with its message once every worker has stopped.
//!
//! A query's pipelines and the rollup run at the degree the planner
//! gives them. Builds are sized by one rule, [`build_degree`]: a worker
//! per [`BYTES_PER_WORKER`] of work, so a small build stays on the
//! calling thread.
//!
//! A [`MorselExec`] runs a whole pipeline — task operator → partial
//! aggregate — per task, followed by a deterministic merge phase.
//! Determinism is the design constraint, not an afterthought: parallel
//! output must be **byte-identical** to the serial pipeline, which is
//! also what keeps §4.3's promise that an encoder downstream sees rows
//! in their original order.
//!
//! * Pass-through pipelines reassemble blocks in task order. Scan
//!   morsels align on decompression-block boundaries, so each ranged
//!   scan emits exactly the blocks the whole scan would (see
//!   `block_ranges_partition_the_scan` in [`crate::scan`]).
//! * Aggregating pipelines fold each task through the shared
//!   [`AggCore`] and absorb the partials in task order: hash groups keep
//!   their first-occurrence order, and an ordered run that continues
//!   across a task boundary is merged back into one. Integer folds are
//!   associative and commutative, so the merge is exact; Real sums are
//!   order-dependent — the planner declines parallelism for them.
//!
//! The scheduler is deliberately simple: the calling thread and
//! `degree - 1` scoped threads claim task ids from one shared counter
//! (`fetch_add`) until it passes the last. A task that panics pushes the
//! counter past the end, so the others stop at their next claim; the
//! consumer then observes the panic instead of a silent partial result.

use crate::aggregate::{merge_safe, AggCore, AggSpec};
use crate::block::{Block, Schema};
use crate::expr::Expr;
use crate::indexed_scan::IndexedScan;
use crate::scan::TableScan;
use crate::source::Projection;
use crate::{drain, BoxOp, Operator, BLOCK_ROWS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tde_storage::Table;

/// Decompression blocks per morsel: large enough to amortize scheduling,
/// small enough to balance (~4 × 1024 rows at the default block size).
pub const MORSEL_BLOCKS: usize = 4;

/// Bytes of work a build brings per worker. Workers start and join once
/// per call, so what one returns depends on where the kernel places it:
/// beside the caller it takes a share of the tasks, on the caller's own
/// core the two only trade places. On the two-core reference host that
/// choice moved a 1.4 MB import between 4.6 and 8.7 ms (5.2 ms on one
/// thread) from one process to the next, so a build too short for the
/// placement to matter runs on the calling thread.
pub const BYTES_PER_WORKER: usize = 8 << 20;

/// Workers for a build over `bytes` bytes of work (an import's text, a
/// FlowTable's or a compaction's values): one per [`BYTES_PER_WORKER`],
/// at least one, at most one per core (asked once: the answer costs a
/// few file reads on Linux). `run_morsels` caps it at one per task.
pub fn build_degree(bytes: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    workers(cores, bytes)
}

/// [`build_degree`] on a host with `cores` cores.
fn workers(cores: usize, bytes: usize) -> usize {
    cores.min(bytes / BYTES_PER_WORKER).max(1)
}

/// Run `ntasks` tasks across `degree` workers (this thread is worker 0),
/// returning the per-task outputs in task order. Workers claim task ids
/// from one shared counter. `f` must be safe to call from any worker.
/// Propagates the first task panic to the caller after every worker has
/// stopped.
pub(crate) fn run_morsels<T, F>(degree: usize, ntasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let workers = degree.min(ntasks).max(1);
    let timeline_on = tde_obs::timeline::recording();
    let run = |w: u32, m: u32| {
        let t0 = timeline_on.then(Instant::now);
        let v = f(m);
        if let Some(t0) = t0 {
            tde_obs::timeline::morsel_span(w, m, t0);
        }
        v
    };
    if workers == 1 {
        return (0..ntasks as u32).map(|m| run(0, m)).collect();
    }
    // Relaxed: the counter only hands out ids; the scope's join publishes
    // the results. A panic pushes it past the end, so every worker stops
    // at its next claim.
    let next = AtomicUsize::new(0);
    let poison: Mutex<Option<String>> = Mutex::new(None);
    let work = |w: u32| {
        let mut out: Vec<(u32, T)> = Vec::new();
        let started = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| loop {
            let m = next.fetch_add(1, Ordering::Relaxed);
            if m >= ntasks {
                break;
            }
            out.push((m as u32, run(w, m as u32)));
        }));
        if let Err(p) = caught {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "worker panicked".to_string());
            // First panic wins; later ones are its fallout.
            poison
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(msg);
            next.store(ntasks, Ordering::Relaxed);
        }
        (out, started.elapsed().as_nanos() as u64)
    };
    let scope = tde_obs::timeline::current_scope();
    let mut done: Vec<(Vec<(u32, T)>, u64)> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers as u32)
            .map(|w| {
                let work = &work;
                s.spawn(move || {
                    // The worker records in the caller's scope.
                    let _scope = tde_obs::timeline::enter_scope(scope);
                    work(w)
                })
            })
            .collect();
        done.push(work(0));
        for h in handles {
            done.push(h.join().expect("task panic was caught in-thread"));
        }
    });
    if tde_obs::metrics::enabled() {
        let m = tde_obs::metrics::morsel_metrics();
        m.dispatched
            .add(done.iter().map(|(out, _)| out.len() as u64).sum());
        for (_, ns) in &done {
            m.worker_busy_ns.observe(*ns);
        }
    }
    if let Some(msg) = poison.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("morsel worker panicked: {msg}");
    }
    // Task ids are unique, so the sort restores serial order exactly.
    let mut results: Vec<(u32, T)> = done.into_iter().flat_map(|(out, _)| out).collect();
    results.sort_by_key(|&(m, _)| m);
    debug_assert_eq!(results.len(), ntasks, "lost or duplicated tasks");
    results.into_iter().map(|(_, v)| v).collect()
}

/// What the pipeline computes over each task (and how partials merge).
#[derive(Clone)]
pub enum MorselPipeline {
    /// Pass-through: blocks reassembled in task order.
    Emit,
    /// Hash aggregate: per-task partials merged by group key, group
    /// order = serial insertion order.
    HashAgg {
        /// Group-key column indices into the task schema.
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Ordered (sandwiched) aggregate over grouped input: per-task
    /// runs concatenated with a boundary merge.
    OrderedAgg {
        /// Group-key column indices into the task schema.
        group_cols: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
}

/// Morsels `source` splits into: [`MORSEL_BLOCKS`] decompression blocks
/// each, plus one for a delta leg (a merge snapshot's delta rows are one
/// morsel, after the stored ones) or for an empty source.
pub fn morsel_count(source: &Projection) -> usize {
    let (rows, delta) = source.extent();
    let stored = (rows as usize).div_ceil(BLOCK_ROWS * MORSEL_BLOCKS);
    stored + usize::from(delta || stored == 0)
}

/// A full pipeline executed task-parallel: task *m*'s operator →
/// optional partial aggregate, with a deterministic merge phase. Output
/// is byte-identical to running the tasks' operators back to back
/// through the serial aggregate; see the module docs for why.
pub struct MorselExec {
    tasks: usize,
    task: Box<dyn Fn(u32) -> BoxOp + Send + Sync>,
    /// `None` passes blocks through.
    agg: Option<AggCore>,
    degree: usize,
    schema: Schema,
    output: Option<std::vec::IntoIter<Block>>,
}

impl MorselExec {
    /// Build a morsel pipeline over `source`, scanned with or without
    /// dictionary expansion (`expand`): task *m* scans morsel *m*'s
    /// block range. `predicate` is `(expr, force_fallback)` pushed into
    /// every ranged scan; `degree` is the worker count (1 = run on the
    /// calling thread, still through the same merge path).
    pub fn new(
        source: Projection,
        expand: bool,
        predicate: Option<(Expr, bool)>,
        pipeline: MorselPipeline,
        degree: usize,
    ) -> MorselExec {
        let tasks = morsel_count(&source);
        let nblocks = (source.extent().0 as usize).div_ceil(BLOCK_ROWS);
        MorselExec::from_tasks(
            source.schema(expand),
            tasks,
            move |m| {
                let lo = (m as usize * MORSEL_BLOCKS).min(nblocks);
                let hi = (lo + MORSEL_BLOCKS).min(nblocks);
                // The task past the stored blocks is the delta leg alone.
                let delta = lo == hi;
                let pushed = predicate.as_ref().map(|(p, ff)| (p, *ff));
                source.build(expand, pushed, false, Some((lo, hi)), delta).0
            },
            pipeline,
            degree,
        )
    }

    /// The §8 rollup: ordered aggregation by index value over the
    /// qualified ranges of `outer`, one task per contiguous partition of
    /// the (value-sorted, possibly rolled-up) IndexTable `index`. Task
    /// *m* is an [`IndexedScan`] of partition *m* fetching `fetch`; a
    /// value whose index rows straddle a partition boundary is rejoined
    /// by the ordered merge, so partitions need not align with values.
    /// `degree` caps both the partitions and the workers.
    pub fn rollup(
        index: &Arc<Table>,
        outer: &Arc<Table>,
        fetch: &[&str],
        aggs: Vec<AggSpec>,
        degree: usize,
    ) -> MorselExec {
        let whole = IndexedScan::new(
            Box::new(TableScan::new(Arc::clone(index))),
            Arc::clone(outer),
            fetch,
        );
        let rows = whole.index_rows();
        let per_task = rows.div_ceil(degree.clamp(1, rows.max(1)));
        MorselExec::from_tasks(
            whole.schema().clone(),
            rows.div_ceil(per_task.max(1)),
            move |m| {
                let lo = m as usize * per_task;
                Box::new(whole.partition(lo, (lo + per_task).min(rows)))
            },
            MorselPipeline::OrderedAgg {
                group_cols: vec![0],
                aggs,
            },
            degree,
        )
    }

    /// The general form: `tasks` independent operators, each emitting
    /// `schema`-shaped blocks; `task(m)` builds the *m*-th on whichever
    /// worker claims it.
    fn from_tasks(
        schema: Schema,
        tasks: usize,
        task: impl Fn(u32) -> BoxOp + Send + Sync + 'static,
        pipeline: MorselPipeline,
        degree: usize,
    ) -> MorselExec {
        if let MorselPipeline::HashAgg { aggs, .. } | MorselPipeline::OrderedAgg { aggs, .. } =
            &pipeline
        {
            // The planner must decline these; see [`merge_safe`].
            debug_assert!(
                merge_safe(&schema, aggs),
                "Sum over Real is not morsel-mergeable"
            );
        }
        let agg = match pipeline {
            MorselPipeline::Emit => None,
            MorselPipeline::HashAgg { group_cols, aggs } => {
                Some(AggCore::hash(&schema, group_cols, aggs))
            }
            MorselPipeline::OrderedAgg { group_cols, aggs } => {
                Some(AggCore::ordered(&schema, group_cols, aggs))
            }
        };
        MorselExec {
            tasks,
            task: Box::new(task),
            schema: agg.as_ref().map_or(schema, |a| a.schema().clone()),
            agg,
            degree: degree.max(1),
            output: None,
        }
    }

    /// Task count (used by the planner's explain label).
    pub fn morsel_count(&self) -> usize {
        self.tasks
    }

    /// The configured worker count.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Run every task, then the merge phase: deterministic,
    /// single-threaded, in task order.
    fn run(&self) -> Vec<Block> {
        if self.degree > 1 && tde_obs::metrics::enabled() {
            tde_obs::metrics::morsel_metrics().parallel_queries.inc();
        }
        let Some(agg) = &self.agg else {
            let blocks = run_morsels(self.degree, self.tasks, |m| drain((self.task)(m)));
            return blocks.into_iter().flatten().collect();
        };
        let partials = run_morsels(self.degree, self.tasks, |m| {
            agg.fold_all((self.task)(m)).without_index()
        });
        let mut merged = agg.start();
        for p in partials {
            agg.absorb(&mut merged, p);
        }
        agg.finish(merged)
    }
}

impl Operator for MorselExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if self.output.is_none() {
            self.output = Some(self.run().into_iter());
        }
        self.output.as_mut().and_then(Iterator::next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{HashAggregate, OrderedAggregate};
    use crate::expr::{AggFunc, CmpOp};
    use crate::handle::ColumnHandle;
    use crate::index_table::{index_table, rollup_index};
    use crate::merged_scan::MergedSource;
    use crate::source::Source;
    use std::sync::Arc;
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::datetime::{days_from_ymd, trunc_to_month};
    use tde_types::DataType;

    // ---- scheduler ----

    #[test]
    fn small_builds_stay_on_the_calling_thread() {
        assert_eq!(workers(16, 6 << 20), 1);
        assert_eq!(workers(16, 2 * BYTES_PER_WORKER), 2);
        assert_eq!(workers(1, 2 * BYTES_PER_WORKER), 1);
        assert_eq!(workers(16, 1 << 30), 16);
        assert_eq!(workers(16, 0), 1);
    }

    #[test]
    fn scheduler_returns_results_in_morsel_order() {
        for degree in [1usize, 2, 3, 8] {
            let out = run_morsels(degree, 37, |m| m * 10);
            assert_eq!(out, (0..37).map(|m| m * 10).collect::<Vec<_>>(), "{degree}");
        }
    }

    #[test]
    fn scheduler_propagates_worker_panics() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_morsels(4, 64, |m| {
                if m == 13 {
                    panic!("boom at morsel {m}");
                }
                m
            })
        }));
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("boom at morsel 13"), "{msg}");
    }

    // ---- pipeline serial equivalence ----

    /// Every column of `source`, resolved.
    fn all(source: Source) -> Projection {
        source.resolve(&source.column_names()).unwrap()
    }

    fn table(rows: i64) -> Arc<Table> {
        let mut g = ColumnBuilder::new("g", DataType::Integer, EncodingPolicy::default());
        let mut v = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..rows {
            g.append_i64(i / 300); // sorted, RLE-friendly
            v.append_i64(i % 977);
            s.append_str(Some(["x", "y", "z"][i as usize % 3]));
        }
        Arc::new(Table::new(
            "t",
            vec![g.finish().column, v.finish().column, s.finish().column],
        ))
    }

    fn assert_blocks_identical(serial: Vec<Block>, parallel: Vec<Block>, what: &str) {
        assert_eq!(serial.len(), parallel.len(), "{what}: block count");
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.len, b.len, "{what}: block {i} len");
            assert_eq!(a.columns, b.columns, "{what}: block {i} columns");
        }
    }

    fn pred() -> Expr {
        Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(3))
    }

    #[test]
    fn emit_pipeline_is_byte_identical_to_serial_scan() {
        let t = table(9000);
        for predicate in [None, Some((pred(), false)), Some((pred(), true))] {
            let mut serial = TableScan::new(Arc::clone(&t));
            if let Some((p, ff)) = &predicate {
                serial = serial.with_pushed_quiet(p.clone(), *ff);
            }
            let want = drain(Box::new(serial));
            for degree in [1usize, 2, 4, 8] {
                let m = MorselExec::new(
                    all(Source::from(&t)),
                    false,
                    predicate.clone(),
                    MorselPipeline::Emit,
                    degree,
                );
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("emit degree={degree} pred={}", predicate.is_some()),
                );
            }
        }
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Sum, 1, "s"),
            AggSpec::new(AggFunc::Min, 1, "lo"),
            AggSpec::new(AggFunc::Max, 2, "hi"),
        ]
    }

    #[test]
    fn hash_agg_pipeline_is_byte_identical_to_serial() {
        let t = table(20_000);
        // Group by a token column too: exercises non-trivial domains.
        for group_cols in [vec![0usize], vec![2, 0]] {
            let serial: BoxOp = Box::new(HashAggregate::new(
                Box::new(TableScan::new(Arc::clone(&t)).with_pushed_quiet(pred(), false)),
                group_cols.clone(),
                specs(),
            ));
            let want = drain(serial);
            for degree in [2usize, 4, 8] {
                let m = MorselExec::new(
                    all(Source::from(&t)),
                    false,
                    Some((pred(), false)),
                    MorselPipeline::HashAgg {
                        group_cols: group_cols.clone(),
                        aggs: specs(),
                    },
                    degree,
                );
                assert_eq!(m.schema().fields.len(), group_cols.len() + specs().len());
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("hash degree={degree} groups={group_cols:?}"),
                );
            }
        }
    }

    #[test]
    fn ordered_agg_pipeline_is_byte_identical_to_serial() {
        // Groups of 300 rows straddle both block and morsel boundaries,
        // so the boundary merge is exercised heavily.
        let t = table(20_000);
        let serial: BoxOp = Box::new(OrderedAggregate::new(
            Box::new(TableScan::new(Arc::clone(&t))),
            vec![0],
            specs(),
        ));
        let want = drain(serial);
        for degree in [2usize, 4, 8] {
            let m = MorselExec::new(
                all(Source::from(&t)),
                false,
                None,
                MorselPipeline::OrderedAgg {
                    group_cols: vec![0],
                    aggs: specs(),
                },
                degree,
            );
            assert_blocks_identical(
                want.clone(),
                drain(Box::new(m)),
                &format!("ordered degree={degree}"),
            );
        }
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let t = table(1000);
        // Predicate matching nothing → empty input to the aggregate.
        let none = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(-1));
        let m = MorselExec::new(
            all(Source::from(&t)),
            false,
            Some((none, false)),
            MorselPipeline::HashAgg {
                group_cols: vec![],
                aggs: vec![AggSpec::new(AggFunc::Count, 0, "n")],
            },
            4,
        );
        let blocks = drain(Box::new(m));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len, 1);
        assert_eq!(blocks[0].columns[0][0], 0);
    }

    #[test]
    fn merged_source_pipelines_match_serial() {
        let t = table(7000);
        let handles = ColumnHandle::all(&t);
        let fields: Vec<_> = handles.iter().map(|h| h.field(false)).collect();
        // One delta block in the merged repr (integer cols + a token col
        // reusing an existing token).
        let tok = {
            let b = drain(Box::new(TableScan::new(Arc::clone(&t))));
            b[0].columns[2][0]
        };
        let delta = vec![Block::new(vec![vec![100, 200], vec![7, 8], vec![tok, tok]])];
        for tombstones in [vec![], vec![5u64, 2000, 6999]] {
            let src = Arc::new(MergedSource::new(
                "t",
                handles.clone(),
                fields.clone(),
                7000,
                Arc::new(tombstones.clone()),
                delta.clone(),
            ));
            // Emit with predicate.
            let serial = |predicate: Option<(&Expr, bool)>| {
                all(Source::from(&src)).scan(false, predicate, false).0
            };
            let want = drain(serial(Some((&pred(), false))));
            for degree in [2usize, 4] {
                let m = MorselExec::new(
                    all(Source::from(&src)),
                    false,
                    Some((pred(), false)),
                    MorselPipeline::Emit,
                    degree,
                );
                assert_blocks_identical(
                    want.clone(),
                    drain(Box::new(m)),
                    &format!("merged emit degree={degree} tombstones={tombstones:?}"),
                );
            }
            // Hash aggregate over the merged scan.
            let want = drain(Box::new(HashAggregate::new(serial(None), vec![0], specs())));
            let m = MorselExec::new(
                all(Source::from(&src)),
                false,
                None,
                MorselPipeline::HashAgg {
                    group_cols: vec![0],
                    aggs: specs(),
                },
                4,
            );
            assert_blocks_identical(
                want,
                drain(Box::new(m)),
                &format!("merged hash tombstones={tombstones:?}"),
            );
        }
    }

    #[test]
    fn empty_table_pipelines() {
        let t = Arc::new(Table::new("e", vec![]));
        let m = MorselExec::new(all(Source::from(&t)), false, None, MorselPipeline::Emit, 4);
        assert!(drain(Box::new(m)).is_empty());
    }

    // ---- §8 index rollup ----

    /// A sorted daily date column (RLE) plus a payload.
    fn dated_table(days: i64, per_day: usize) -> (Arc<Table>, Vec<i64>, Vec<i64>) {
        use tde_encodings::{EncodedStream, BLOCK_SIZE};
        use tde_types::Width;
        let d0 = days_from_ymd(1995, 1, 1);
        let mut dates = Vec::new();
        let mut pay = Vec::new();
        for d in 0..days {
            for j in 0..per_day {
                dates.push(d0 + d);
                pay.push((d * 31 + j as i64) % 1000);
            }
        }
        let mut date_stream = EncodedStream::new_rle(Width::W8, true, Width::W4, Width::W4);
        for c in dates.chunks(BLOCK_SIZE) {
            date_stream.append_block(c).unwrap();
        }
        let pay_stream = tde_encodings::dynamic::encode_all(&pay, Width::W8, true).stream;
        let t = Arc::new(Table::new(
            "t",
            vec![
                tde_storage::Column::scalar("day", DataType::Date, date_stream),
                tde_storage::Column::scalar("pay", DataType::Integer, pay_stream),
            ],
        ));
        (t, dates, pay)
    }

    fn rows_of(op: MorselExec) -> Vec<Vec<i64>> {
        let mut rows = Vec::new();
        for b in drain(Box::new(op)) {
            for r in 0..b.len {
                rows.push(b.columns.iter().map(|c| c[r]).collect());
            }
        }
        rows
    }

    #[test]
    fn rollup_matches_serial_reference() {
        let (t, dates, pay) = dated_table(60, 53);
        let (idx, _) = index_table(&t.columns[0], "idx");
        let aggs = vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Max, 1, "mx"),
        ];
        let got = rows_of(MorselExec::rollup(&idx, &t, &["pay"], aggs, 4));
        // Output is globally ordered by the index value.
        assert!(got.windows(2).all(|w| w[0][0] < w[1][0]));
        let mut reference: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for (&d, &p) in dates.iter().zip(&pay) {
            let e = reference.entry(d).or_insert((0, i64::MIN));
            e.0 += 1;
            e.1 = e.1.max(p);
        }
        assert_eq!(got.len(), reference.len());
        for (g, (k, (n, mx))) in got.iter().zip(reference) {
            assert_eq!(*g, vec![k, n, mx]);
        }
    }

    #[test]
    fn rollup_then_aggregate_months() {
        // The full §8 proposal: roll daily dates up to month starts on the
        // index (MIN(start), SUM(count)), then aggregate in parallel.
        let (t, _, _) = dated_table(90, 29); // three months of 1995
        let (idx, _) = index_table(&t.columns[0], "daily");
        let (monthly, _) = rollup_index(&idx, trunc_to_month, "monthly");
        assert_eq!(monthly.row_count(), 3);
        let aggs = vec![AggSpec::new(AggFunc::Count, 1, "n")];
        let jan = days_from_ymd(1995, 1, 1);
        let feb = days_from_ymd(1995, 2, 1);
        let mar = days_from_ymd(1995, 3, 1);
        let want = vec![vec![jan, 31 * 29], vec![feb, 28 * 29], vec![mar, 31 * 29]];
        assert_eq!(
            rows_of(MorselExec::rollup(&monthly, &t, &["pay"], aggs.clone(), 3)),
            want
        );
        // Partitions need not fall between values: the daily index
        // relabelled (not merged) by month keeps its 90 rows, and four
        // partitions of it cut months in two — the ordered merge rejoins
        // them.
        let mut value = ColumnBuilder::new("value", DataType::Date, EncodingPolicy::default());
        for day in idx.columns[0].data.decode_all() {
            value.append_i64(trunc_to_month(day));
        }
        let relabelled = Arc::new(Table::new(
            "daily_by_month",
            vec![
                value.finish().column,
                idx.columns[1].clone(),
                idx.columns[2].clone(),
            ],
        ));
        let cut = MorselExec::rollup(&relabelled, &t, &["pay"], aggs, 4);
        assert_eq!(cut.morsel_count(), 4);
        assert_eq!(rows_of(cut), want);
    }

    #[test]
    fn rollup_single_partition_and_oversubscription() {
        let (t, _, _) = dated_table(5, 11);
        let (idx, _) = index_table(&t.columns[0], "idx");
        let aggs = vec![AggSpec::new(AggFunc::Count, 1, "n")];
        // More workers than index rows: clamps to one row per partition.
        let many = MorselExec::rollup(&idx, &t, &["pay"], aggs.clone(), 64);
        assert_eq!(many.morsel_count(), 5);
        let many = rows_of(many);
        assert_eq!(many.len(), 5);
        // And a single worker degenerates to the serial pipeline.
        let one = MorselExec::rollup(&idx, &t, &["pay"], aggs, 1);
        assert_eq!(one.morsel_count(), 1);
        assert_eq!(rows_of(one), many);
    }

    #[test]
    fn panicking_rollup_task_surfaces_its_message() {
        // A task operator that fails mid-stream, under the rollup's own
        // pipeline shape: the consumer sees the task's message.
        struct Boom(Schema);
        impl Operator for Boom {
            fn schema(&self) -> &Schema {
                &self.0
            }
            fn next_block(&mut self) -> Option<Block> {
                panic!("partition 2 unreadable")
            }
        }
        let (t, _, _) = dated_table(40, 7);
        let (idx, _) = index_table(&t.columns[0], "idx");
        let whole = IndexedScan::new(Box::new(TableScan::new(idx)), Arc::clone(&t), &["pay"]);
        let schema = whole.schema().clone();
        let m = MorselExec::from_tasks(
            schema.clone(),
            4,
            move |m| -> BoxOp {
                if m == 2 {
                    Box::new(Boom(schema.clone()))
                } else {
                    let lo = m as usize * 10;
                    Box::new(whole.partition(lo, lo + 10))
                }
            },
            MorselPipeline::OrderedAgg {
                group_cols: vec![0],
                aggs: vec![AggSpec::new(AggFunc::Count, 1, "n")],
            },
            4,
        );
        let r = catch_unwind(AssertUnwindSafe(|| drain(Box::new(m))));
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("partition 2 unreadable"), "{msg}");
    }
}
