//! The oracle families.
//!
//! Every optimization in the engine claims to be *semantically invisible*:
//! whatever the encodings, compression, storage format, rewrites or
//! parallelism, the result must match the naive decompress-then-execute
//! path. Each oracle checks one slice of that claim for one case:
//!
//! * **Differential** — `optimizer_diff` (rewrites on vs off, one flag at
//!   a time), `kernel_diff` (compressed-domain kernel vs forced fallback
//!   vs a plain Filter), `residency_diff` (the same plan over the table
//!   held eager, paged cold, paged warm and merged with an empty delta),
//!   `morsel_parallel_diff` (the whole plan at morsel degrees {2, 4, 8} vs
//!   serial — byte-for-byte, blocks and metadata claims, not merely the
//!   same multiset — plus the §8 index rollup at 1 and 4 workers), and
//!   [`crate::delta_oracle::delta_diff`] (merge-on-read over a mutated
//!   delta store vs a from-scratch rebuild of the final logical table).
//! * **Metamorphic** — `tlp_partition` (SQLancer-style predicate
//!   partitioning: the engine's two-valued predicates make `σ[p] ⊎ σ[¬p]`
//!   an exact partition, and the NULL leg splits `¬p` further), plus
//!   aggregate invariance under re-encoding (`reencode_invariance`:
//!   policy variants and RLE decompose/rebuild must not change results),
//!   and `memo_invariance` (the plan with the table's run-structure memo
//!   cold, then warm: byte-identical blocks and claims, nothing rebuilt).
//! * **Invariant** — `metadata_invariant`: every claim a column's
//!   metadata makes (sorted/dense/unique/min/max/cardinality/nulls/heap
//!   order) is verified against the decoded data, and positive claims on
//!   the query's *output* schema are verified against the materialized
//!   rows. Stale claims are exactly what the tactical optimizer consumes.
//!
//! Row comparisons canonicalize (sort) value-level rows: hash aggregation
//! order is nondeterministic by design, and several rewrites legitimately
//! reorder rows. Where an operator *does* guarantee order (kernel scans,
//! morsel pipelines) the comparison is exact.

use crate::spec::{CaseSpec, ColDtype, InjectKind, PlanOpSpec, Policy, PredSpec};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use tde_core::Query;
use tde_encodings::{manipulate, Algorithm};
use tde_exec::aggregate::AggSpec;
use tde_exec::filter::Filter;
use tde_exec::morsel::MorselExec;
use tde_exec::scan::TableScan;
use tde_exec::{AggFunc, Block, BoxOp, Expr, Schema, Source};
use tde_plan::strategic::OptimizerOptions;
use tde_storage::{Column, Compression, Table};
use tde_types::sentinel::{NULL_I64, NULL_TOKEN};
use tde_types::{Collation, DataType, Value};

/// One oracle disagreement.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// The outcome of running every oracle over one case.
#[derive(Debug)]
pub struct CaseReport {
    /// Everything that disagreed (empty = clean case).
    pub discrepancies: Vec<Discrepancy>,
    /// The EXPLAIN ANALYZE trace of the default plan, captured when
    /// something fired.
    pub trace: Option<String>,
}

impl CaseReport {
    /// Whether every oracle agreed.
    pub fn clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Run every applicable oracle over `spec`.
///
/// With an injection present only the consumers of the corrupted claims
/// run (the invariant oracle and the optimizer differential): the other
/// oracles would correctly fire too, but would attribute the deliberate
/// corruption to the wrong subsystem in the report.
pub fn run_case(spec: &CaseSpec) -> CaseReport {
    let mut ds = Vec::new();
    if let Err(e) = spec.validate() {
        return CaseReport {
            discrepancies: vec![Discrepancy {
                oracle: "spec",
                detail: e,
            }],
            trace: None,
        };
    }
    let table = spec.build_table();
    // A segment-byte injection corrupts nothing in memory — the in-memory
    // oracles would report clean and wrongly count the case as missed.
    // Only the on-disk checksum oracle can bite, so only it runs.
    if matches!(
        spec.inject,
        Some(inj) if inj.kind == InjectKind::SegmentByte
    ) {
        segment_byte_corruption(spec, &table, &mut ds);
        return CaseReport {
            discrepancies: ds,
            trace: None,
        };
    }
    metadata_invariant(spec, &table, &mut ds);
    optimizer_diff(spec, &table, &mut ds);
    if spec.inject.is_none() {
        kernel_diff(spec, &table, &mut ds);
        residency_diff(spec, &table, &mut ds);
        morsel_parallel_diff(spec, &table, &mut ds);
        tlp_partition(spec, &table, &mut ds);
        reencode_invariance(spec, &table, &mut ds);
        memo_invariance(spec, &table, &mut ds);
        crate::delta_oracle::delta_diff(spec, &table, &mut ds);
    }
    let trace = if ds.is_empty() {
        None
    } else {
        Some(
            spec.apply_plan(Query::scan(&table))
                .explain_analyze()
                .to_string(),
        )
    };
    CaseReport {
        discrepancies: ds,
        trace,
    }
}

/// As [`run_case`], but converts a panic anywhere in the engine into a
/// `panic` discrepancy — a crash is a finding, and the shrinker wants to
/// minimize those too.
pub fn run_case_catching(spec: &CaseSpec) -> CaseReport {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_case(spec))) {
        Ok(r) => r,
        Err(p) => CaseReport {
            discrepancies: vec![Discrepancy {
                oracle: "panic",
                detail: panic_message(p.as_ref()),
            }],
            trace: None,
        },
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Row plumbing.
// ---------------------------------------------------------------------

/// Materialize an operator's output as value rows (in stream order).
pub fn rows_of(mut op: BoxOp) -> Vec<Vec<Value>> {
    let schema = op.schema().clone();
    let mut rows = Vec::new();
    while let Some(b) = op.next_block() {
        extend_rows(&mut rows, &schema, &b);
    }
    rows
}

fn extend_rows(rows: &mut Vec<Vec<Value>>, schema: &Schema, b: &Block) {
    for r in 0..b.len {
        rows.push(
            (0..schema.len())
                .map(|c| schema.fields[c].value_of(b.columns[c][r]))
                .collect(),
        );
    }
}

fn value_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Real(_) => 3,
        Value::Date(_) => 4,
        Value::Timestamp(_) => 5,
        Value::Str(_) => 6,
    }
}

fn cmp_value(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y))
        | (Value::Date(x), Value::Date(y))
        | (Value::Timestamp(x), Value::Timestamp(y)) => x.cmp(y),
        (Value::Real(x), Value::Real(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => value_rank(a).cmp(&value_rank(b)),
    }
}

fn cmp_row(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = cmp_value(x, y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Sort rows into a canonical multiset representation.
pub fn canon(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| cmp_row(a, b));
    rows
}

fn preview(rows: &[Vec<Value>]) -> String {
    let shown: Vec<String> = rows
        .iter()
        .take(4)
        .map(|r| {
            let cells: Vec<String> = r.iter().map(Value::to_string).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    format!(
        "{} row(s) {}{}",
        rows.len(),
        shown.join(" "),
        if rows.len() > 4 { " …" } else { "" }
    )
}

/// `None` when equal, else a two-sided description.
pub(crate) fn diff(lhs: &str, a: &[Vec<Value>], rhs: &str, b: &[Vec<Value>]) -> Option<String> {
    if a == b {
        return None;
    }
    Some(format!("{lhs}: {} != {rhs}: {}", preview(a), preview(b)))
}

fn opts(
    invisible_joins: bool,
    index_tables: bool,
    ordered_retrieval: bool,
    kernel_pushdown: bool,
) -> OptimizerOptions {
    OptimizerOptions {
        invisible_joins,
        index_tables,
        ordered_retrieval,
        kernel_pushdown,
        parallelism: 1,
    }
}

/// The base-schema predicates of the case: leading plan filters (before
/// any projection changes the column indexes) plus the TLP predicate.
pub(crate) fn base_preds(spec: &CaseSpec) -> Vec<&PredSpec> {
    let mut preds: Vec<&PredSpec> = spec
        .plan
        .iter()
        .take_while(|op| matches!(op, PlanOpSpec::Filter(_)))
        .filter_map(|op| match op {
            PlanOpSpec::Filter(p) => Some(p),
            _ => None,
        })
        .collect();
    if let Some(p) = &spec.tlp {
        preds.push(p);
    }
    preds
}

// ---------------------------------------------------------------------
// Differential oracles.
// ---------------------------------------------------------------------

/// Optimizer rewrites on vs off: the full plan through every single-flag
/// variant must match the rewrite-free plan as a multiset.
pub fn optimizer_diff(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let variants: [(&'static str, OptimizerOptions); 5] = [
        ("all-rewrites", OptimizerOptions::default()),
        ("invisible-joins", opts(true, false, false, false)),
        ("index-tables", opts(false, true, false, false)),
        ("ordered-retrieval", opts(false, true, true, false)),
        ("kernel-pushdown", opts(false, false, false, true)),
    ];
    let reference = canon(
        spec.apply_plan(Query::scan(table))
            .with_optimizer(opts(false, false, false, false))
            .rows(),
    );
    for (name, o) in variants {
        let got = canon(spec.apply_plan(Query::scan(table)).with_optimizer(o).rows());
        if let Some(d) = diff(name, &got, "no-rewrites", &reference) {
            ds.push(Discrepancy {
                oracle: "optimizer-diff",
                detail: d,
            });
        }
    }
}

/// Compressed-domain kernel vs forced fallback vs a plain Filter, for
/// every base-schema predicate. Scans preserve row order, so the
/// comparison is exact.
pub fn kernel_diff(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    for (i, pred) in base_preds(spec).iter().enumerate() {
        let expr = pred.expr();
        let reference = rows_of(Box::new(Filter::new(
            Box::new(TableScan::new(table.clone())),
            expr.clone(),
        )));
        let kernel = rows_of(Box::new(
            TableScan::new(table.clone()).with_pushed(expr.clone(), false),
        ));
        let fallback = rows_of(Box::new(
            TableScan::new(table.clone()).with_pushed(expr.clone(), true),
        ));
        if let Some(d) = diff("kernel", &kernel, "filter", &reference) {
            ds.push(Discrepancy {
                oracle: "kernel-diff",
                detail: format!("pred #{i}: {d}"),
            });
        }
        if let Some(d) = diff("forced-fallback", &fallback, "filter", &reference) {
            ds.push(Discrepancy {
                oracle: "kernel-diff",
                detail: format!("pred #{i}: {d}"),
            });
        }
    }
}

static PAGED_SEQ: AtomicU64 = AtomicU64::new(0);

/// Save the case's table to a paged file, written from its `Arc`.
fn save_table(table: &Arc<Table>, path: &Path) -> Result<(), String> {
    tde_pager::save_v2_with_io(
        std::slice::from_ref(table),
        &HashMap::new(),
        path,
        &tde_io::RealIo,
    )
    .map_err(|e| format!("save_v2: {e}"))
}

/// Residency must be invisible: the same case and the same plan through
/// the one `Query::scan`, over the table held four ways — eager (the
/// reference), paged with a cold pool, paged again on the now-warm pool,
/// and merged with an empty delta over the paged base. Every leg must
/// produce the eager leg's rows under the eager leg's column names and
/// types; the warm pass, which runs the cold pass's very plan, must also
/// repeat its output schema claim for claim.
pub fn residency_diff(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let mut push = |detail: String| {
        ds.push(Discrepancy {
            oracle: "residency-diff",
            detail,
        })
    };
    let dir = std::env::temp_dir().join("tde-fuzz");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return push(format!("temp dir: {e}"));
    }
    let path = dir.join(format!(
        "case_{}_{}_{}.tde2",
        std::process::id(),
        spec.seed,
        PAGED_SEQ.fetch_add(1, AtomicOrdering::Relaxed)
    ));
    let result = (|| -> Result<(), String> {
        save_table(table, &path)?;
        let paged = tde_pager::PagedDatabase::open(&path).map_err(|e| format!("open: {e}"))?;
        let pt = paged
            .table("t")
            .ok_or_else(|| "table missing from v2 file".to_string())?;
        let run = |source: Source| -> Result<(Schema, Vec<Vec<Value>>), String> {
            let (schema, blocks) = spec
                .apply_plan(Query::scan(source))
                .try_run()
                .map_err(|e| e.to_string())?;
            let mut rows = Vec::new();
            for b in &blocks {
                extend_rows(&mut rows, &schema, b);
            }
            Ok((schema, canon(rows)))
        };
        let shape = |s: &Schema| -> Vec<(String, DataType)> {
            s.fields.iter().map(|f| (f.name.clone(), f.dtype)).collect()
        };
        let (eager_schema, eager) = run(table.into())?;
        // One leg: same rows, same column names and types as eager.
        let leg = |leg: &str, source: Source| -> Result<Schema, String> {
            let (schema, rows) = run(source).map_err(|e| format!("residency:{leg}: {e}"))?;
            if let Some(d) = diff(
                &format!("residency:{leg}"),
                &rows,
                "residency:eager",
                &eager,
            ) {
                return Err(d);
            }
            if shape(&schema) != shape(&eager_schema) {
                return Err(format!(
                    "residency:{leg}: output columns {:?} != residency:eager: {:?}",
                    shape(&schema),
                    shape(&eager_schema)
                ));
            }
            Ok(schema)
        };
        let cold = leg("paged-cold", (&pt).into())?;
        let warm = leg("paged-warm", (&pt).into())?;
        if format!("{warm:?}") != format!("{cold:?}") {
            return Err(format!(
                "residency:paged-warm: output schema {warm:?} != residency:paged-cold: {cold:?}"
            ));
        }
        // Taken last: a snapshot loads every base column through the pool.
        let snapshot = tde_delta::DeltaTable::from_paged(pt.clone())
            .snapshot()
            .map_err(|e| format!("residency:merged-empty-delta: snapshot: {e}"))?;
        leg("merged-empty-delta", (&snapshot).into())?;
        Ok(())
    })();
    std::fs::remove_file(&path).ok();
    if let Err(detail) = result {
        push(detail);
    }
}

/// How [`segment_byte_corruption`]'s caught discrepancy begins.
const CHECKSUM_REFUSED: &str = "checksum refused";

impl Discrepancy {
    /// Whether this is [`segment_byte_corruption`]'s caught outcome — the
    /// checksum refused the corrupt bytes — rather than a failure of the
    /// oracle's own file handling.
    pub fn is_checksum_refusal(&self) -> bool {
        self.oracle == "segment-byte" && self.detail.starts_with(CHECKSUM_REFUSED)
    }
}

/// Segment-byte checksum self-test: save the case's table as v2, flip one
/// seed-derived byte inside one of the injected column's on-disk segments
/// — the seed picks its stream, dictionary or heap segment — and
/// demand-load that column. The per-segment checksum must refuse the
/// corrupt bytes with a `ChecksumMismatch`: that refusal is the "caught"
/// discrepancy ([`Discrepancy::is_checksum_refusal`]). A silent load, or
/// corrupt bytes surfacing as anything other than a checksum error (a
/// decoder saw them), leaves the report clean and the sweep counts the
/// injection as missed; a failure of the oracle's own file handling is
/// reported as an `infrastructure:` discrepancy, which is no catch.
pub fn segment_byte_corruption(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let Some(inj) = spec.inject else { return };
    let col_name = spec.columns[inj.column].name.clone();
    let dir = std::env::temp_dir().join("tde-fuzz");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        ds.push(Discrepancy {
            oracle: "segment-byte",
            detail: format!("infrastructure: temp dir: {e}"),
        });
        return;
    }
    let path = dir.join(format!(
        "inject_{}_{}_{}.tde2",
        std::process::id(),
        spec.seed,
        PAGED_SEQ.fetch_add(1, AtomicOrdering::Relaxed)
    ));
    let result = (|| -> Result<Option<Discrepancy>, String> {
        save_table(table, &path)?;

        // Locate the injected column's segments via the directory.
        let paged = tde_pager::PagedDatabase::open(&path).map_err(|e| format!("open: {e}"))?;
        let pt = paged
            .table("t")
            .ok_or_else(|| "table missing from v2 file".to_string())?;
        let dir = pt
            .column_dir(&col_name)
            .ok_or_else(|| format!("column {col_name} missing from directory"))?;
        let segments: Vec<(&str, tde_pager::format::Extent)> = [
            ("stream", Some(dir.stream)),
            ("dictionary", dir.dict),
            ("heap", dir.heap),
        ]
        .into_iter()
        .filter_map(|(kind, e)| e.filter(|e| e.len > 0).map(|e| (kind, e)))
        .collect();
        drop(pt);
        drop(paged);

        // Flip one byte: the segment (when the column has a dictionary
        // or heap beside its stream), the position and the substitution
        // all derive from the seed, so a sweep exercises every segment
        // kind and many offsets deterministically.
        let mix = (spec.seed ^ 0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(31);
        let Some(&(kind, extent)) = segments.get((mix >> 13) as usize % segments.len().max(1))
        else {
            return Err(format!("column {col_name} has no segment bytes"));
        };
        let mut bytes = std::fs::read(&path).map_err(|e| format!("read: {e}"))?;
        let at = (extent.offset + mix % extent.len) as usize;
        let xor = ((mix >> 33) % 255) as u8 + 1; // never 0: always a real flip
        bytes[at] ^= xor;
        std::fs::write(&path, &bytes).map_err(|e| format!("rewrite: {e}"))?;

        // Demand-load the corrupted column through a fresh pool.
        let paged = tde_pager::PagedDatabase::open(&path)
            .map_err(|e| format!("reopen after corruption: {e}"))?;
        let pt = paged
            .table("t")
            .ok_or_else(|| "table missing after corruption".to_string())?;
        match pt.column(&col_name) {
            Err(e) if tde_io::is_checksum_mismatch(&e) => Ok(Some(Discrepancy {
                oracle: "segment-byte",
                detail: format!(
                    "{CHECKSUM_REFUSED} corrupt {kind} segment (column {col_name}, byte {at} ^ {xor:#04x}): {e}"
                ),
            })),
            // Silent success or a non-checksum error both mean the corrupt
            // bytes got past the checksum — the sweep records a miss.
            Ok(_) | Err(_) => Ok(None),
        }
    })();
    std::fs::remove_file(&path).ok();
    match result {
        Ok(Some(d)) => ds.push(d),
        Ok(None) => {}
        Err(detail) => ds.push(Discrepancy {
            oracle: "segment-byte",
            detail: format!("infrastructure: {detail}"),
        }),
    }
}

/// Parallel execution vs serial, all of it through the one morsel
/// runtime. The full plan at degrees {2, 4, 8} must be **byte-identical**
/// to the serial run — the same blocks in the same order with the same
/// values, and the same output-schema metadata claims — not merely the
/// same multiset. The planner's serial fallbacks are part of the
/// contract: a shape the morsel executor cannot run whole must lower to
/// the identical serial pipeline, so this leg applies to every generated
/// plan. When the case has a sorted run-length integer column, the §8
/// index rollup additionally runs at 1 and 4 workers: exact against each
/// other, and canonicalised against the optimizer-off hash aggregate.
pub fn morsel_parallel_diff(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let (serial_schema, serial_blocks) = spec.apply_plan(Query::scan(table)).run();
    for degree in [2usize, 4, 8] {
        let (schema, blocks) = spec
            .apply_plan(Query::scan(table))
            .with_parallelism(degree)
            .run();
        let mut push = |detail: String| {
            ds.push(Discrepancy {
                oracle: "morsel-parallel",
                detail: format!("degree {degree}: {detail}"),
            });
        };
        // Schema equality covers names, dtypes, reprs and every metadata
        // claim the parallel plan makes about its output.
        if format!("{serial_schema:?}") != format!("{schema:?}") {
            push(format!(
                "output schema diverged: serial {serial_schema:?} vs parallel {schema:?}"
            ));
            continue;
        }
        if let Some(d) = block_mismatch(&serial_blocks, &blocks) {
            push(d);
        }
    }

    // §8 rollup: an RLE column whose values are sorted gives a
    // value-ordered index to partition.
    let eligible = table.columns.iter().position(|c| {
        c.dtype == DataType::Integer
            && matches!(c.compression, Compression::None)
            && c.data.algorithm() == Algorithm::RunLength
            && c.metadata.sorted_asc.is_true()
    });
    if let Some(ci) = eligible {
        let fetch_idx = table
            .columns
            .iter()
            .position(|c| c.dtype == DataType::Integer && c.name != table.columns[ci].name)
            .unwrap_or(ci);
        let fetch_name = table.columns[fetch_idx].name.clone();
        let index = table
            .run_index(ci)
            .and_then(|(view, _)| view.index)
            .expect("an integer run-length column has an IndexTable");
        let aggs = vec![
            AggSpec::new(AggFunc::Count, 1, "n"),
            AggSpec::new(AggFunc::Max, 1, "mx"),
        ];
        let serial = canon(
            Query::scan(table)
                .aggregate(
                    vec![ci],
                    vec![
                        (AggFunc::Count, fetch_idx, "n"),
                        (AggFunc::Max, fetch_idx, "mx"),
                    ],
                )
                .with_optimizer(opts(false, false, false, false))
                .rows(),
        );
        let rollup = |workers: usize| {
            rows_of(Box::new(MorselExec::rollup(
                &index,
                table,
                &[&fetch_name],
                aggs.clone(),
                workers,
            )))
        };
        let (one, four) = (rollup(1), rollup(4));
        // Partials merge in index order: 1 vs 4 workers is exact.
        if let Some(d) = diff("rollup-4-workers", &four, "rollup-1-worker", &one) {
            ds.push(Discrepancy {
                oracle: "parallel-diff",
                detail: d,
            });
        }
        if let Some(d) = diff("rollup", &canon(one), "hash-aggregate", &serial) {
            ds.push(Discrepancy {
                oracle: "parallel-diff",
                detail: d,
            });
        }
    }
}

/// How `parallel` differs from `serial` block for block, if it does.
pub(crate) fn block_mismatch(serial: &[Block], parallel: &[Block]) -> Option<String> {
    if parallel.len() != serial.len() {
        return Some(format!(
            "block count {} vs serial {}",
            parallel.len(),
            serial.len()
        ));
    }
    let differs = |(a, b): &(&Block, &Block)| a.len != b.len || a.columns != b.columns;
    let (i, _) = serial
        .iter()
        .zip(parallel)
        .enumerate()
        .find(|(_, p)| differs(p))?;
    Some(format!("block {i} differs from serial"))
}

// ---------------------------------------------------------------------
// Metamorphic oracles.
// ---------------------------------------------------------------------

/// Predicate partitioning over the row-level plan prefix. The engine's
/// predicates are two-valued (NULL comparisons evaluate false, `not`
/// negates the 0/1 result), so `σ[p] ⊎ σ[¬p]` is an *exact* partition,
/// and `¬p` splits exactly into its NULL and non-NULL legs — the
/// SQLancer TLP identity specialized to sentinel-NULL semantics. Grand
/// totals (`count`, wrapping `sum`) must agree with the partition.
pub fn tlp_partition(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let Some(p) = &spec.tlp else {
        return;
    };
    let prefix = spec.row_level_prefix();
    let run = |extra: Option<Expr>| -> Vec<Vec<Value>> {
        let mut q = Query::scan(table);
        if let Some(e) = extra {
            q = q.filter(e);
        }
        spec.apply_plan_ops(q, prefix).rows()
    };
    let whole = canon(run(None));
    let part_p = run(Some(p.expr()));
    let part_n = run(Some(Expr::Not(Box::new(p.expr()))));
    let mut both = part_p.clone();
    both.extend(part_n.iter().cloned());
    if let Some(d) = diff("σ[p] ⊎ σ[¬p]", &canon(both), "Q", &whole) {
        ds.push(Discrepancy {
            oracle: "tlp-partition",
            detail: d,
        });
    }
    // Three-way: split the ¬p leg on NULL-ness of a referenced column.
    let mut cols = Vec::new();
    p.referenced(&mut cols);
    if let Some(&c) = cols.first() {
        let isnull = || Expr::IsNull(Box::new(Expr::col(c)));
        let notp = || Expr::Not(Box::new(p.expr()));
        let leg2 = run(Some(Expr::And(
            Box::new(notp()),
            Box::new(Expr::Not(Box::new(isnull()))),
        )));
        let leg3 = run(Some(Expr::And(Box::new(notp()), Box::new(isnull()))));
        let mut all = part_p.clone();
        all.extend(leg2);
        all.extend(leg3);
        if let Some(d) = diff("three-way partition", &canon(all), "Q", &whole) {
            ds.push(Discrepancy {
                oracle: "tlp-partition",
                detail: d,
            });
        }
    }

    // Aggregate invariance of the partition: grand totals distribute.
    let int_col = spec.columns.iter().position(|c| c.dtype() == ColDtype::Int);
    let totals = |extra: Option<Expr>| -> (i64, i64) {
        let mut q = Query::scan(table);
        if let Some(e) = extra {
            q = q.filter(e);
        }
        let mut aggs = vec![(AggFunc::Count, 0, "n")];
        if let Some(c) = int_col {
            aggs.push((AggFunc::Sum, c, "s"));
        }
        let rows = q.aggregate(vec![], aggs).rows();
        // An empty input may surface as no row at all or as NULL cells
        // (`Sum` of nothing); both mean "adds nothing" here.
        let cell = |i: usize| -> i64 {
            match rows.first().and_then(|r| r.get(i)) {
                None | Some(Value::Null) => 0,
                Some(v) => v.as_i64().unwrap_or(0),
            }
        };
        (cell(0), cell(1))
    };
    let (n_all, s_all) = totals(None);
    let (n_p, s_p) = totals(Some(p.expr()));
    let (n_n, s_n) = totals(Some(Expr::Not(Box::new(p.expr()))));
    if n_p + n_n != n_all || s_p.wrapping_add(s_n) != s_all {
        ds.push(Discrepancy {
            oracle: "tlp-partition",
            detail: format!(
                "grand totals do not distribute: count {n_p}+{n_n} vs {n_all}, \
                 sum {s_p}+{s_n} vs {s_all}"
            ),
        });
    }
}

/// Re-encoding invariance: the same logical data built under different
/// storage policies — and with RLE streams decomposed and rebuilt via
/// `tde-encodings::manipulate` — must run the full plan to the same
/// multiset.
pub fn reencode_invariance(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let reference = canon(spec.apply_plan(Query::scan(table)).rows());
    let mut variants = vec![Policy::NoSortHeaps, Policy::NoConvert, Policy::InnerSide];
    if spec.columns.iter().all(|c| c.dtype() == ColDtype::Int) {
        // An unaccelerated heap assigns duplicate tokens and legitimately
        // changes string group identities; baseline stays integer-only.
        variants.push(Policy::Baseline);
    }
    for v in variants {
        let t2 = spec.build_table_with(Some(v));
        let got = canon(spec.apply_plan(Query::scan(&t2)).rows());
        if let Some(d) = diff(v.name(), &got, "spec-policies", &reference) {
            ds.push(Discrepancy {
                oracle: "reencode",
                detail: d,
            });
        }
    }

    // RLE decomposition route (§3.4.3 last paragraph): values+counts out,
    // stream back in — byte layout changes, decode must not.
    let mut t2 = spec.build_raw(None);
    let mut touched = false;
    for col in &mut t2.columns {
        if matches!(col.compression, Compression::None)
            && col.data.algorithm() == Algorithm::RunLength
        {
            let before = col.data.decode_all();
            let (values, counts) = manipulate::rle_decompose(&col.data);
            let rebuilt = manipulate::rle_rebuild(&values, &counts, true);
            if rebuilt.decode_all() != before {
                ds.push(Discrepancy {
                    oracle: "reencode",
                    detail: format!("rle decompose/rebuild changed column {}", col.name),
                });
                return;
            }
            col.data = rebuilt;
            touched = true;
        }
    }
    if touched {
        let t2 = Arc::new(t2);
        let got = canon(spec.apply_plan(Query::scan(&t2)).rows());
        if let Some(d) = diff("rle-rebuilt", &got, "spec-policies", &reference) {
            ds.push(Discrepancy {
                oracle: "reencode",
                detail: d,
            });
        }
    }
}

/// Memo invariance: a table builds each run-length column's IndexTable
/// and run index for the first query that reads them and shares them
/// with every later one. The same plan over one fresh `Arc` of the table
/// (a clone starts with an empty memo), run cold and then warm, must
/// produce byte-identical blocks and the same output-schema claims, and
/// the warm run must build nothing.
pub fn memo_invariance(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    let fresh = Arc::new((**table).clone());
    let run = || spec.apply_plan(Query::scan(&fresh)).run();
    let (cold_schema, cold) = run();
    let builds = fresh.run_index_builds();
    let (warm_schema, warm) = run();
    let mut push = |detail: String| {
        ds.push(Discrepancy {
            oracle: "memo",
            detail,
        })
    };
    if fresh.run_index_builds() != builds {
        push(format!(
            "the warm run built {} run structure(s) again",
            fresh.run_index_builds() - builds
        ));
    }
    if format!("{cold_schema:?}") != format!("{warm_schema:?}") {
        push(format!(
            "output schema diverged: cold {cold_schema:?} vs warm {warm_schema:?}"
        ));
    }
    let same = cold.len() == warm.len()
        && cold
            .iter()
            .zip(&warm)
            .all(|(a, b)| a.len == b.len && a.columns == b.columns && a.weights == b.weights);
    if !same {
        push("blocks differ between the cold and the warm memo".to_string());
    }
}

// ---------------------------------------------------------------------
// Invariant oracle.
// ---------------------------------------------------------------------

/// Verify every metadata claim on the base table's columns — and on the
/// IndexTable of each run-length column, whose claims are derived by
/// hand rather than by a column builder — against the decoded data,
/// then verify positive claims on the executed plan's output schema
/// against the materialized rows. The IndexTables checked are the
/// table's memoised ones, which the planner reads.
pub fn metadata_invariant(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    for (ci, col) in table.columns.iter().enumerate() {
        check_column_claims(col, ds);
        if let Some(index) = table.run_index(ci).and_then(|(view, _)| view.index) {
            for c in &index.columns {
                check_column_claims(c, ds);
            }
        }
    }

    // Output-schema claims. Subsetting rows preserves sortedness,
    // uniqueness, bounds and NULL-freedom, and the operators that create
    // new claims (Sort, joins) assert them — so every *positive* claim on
    // the output must hold on the materialized rows. Negative claims are
    // not checked: a filter can legitimately turn a known-unsorted input
    // into a sorted output.
    let report = spec.apply_plan(Query::scan(table)).explain_analyze();
    for (c, field) in report.schema.fields.iter().enumerate() {
        if !field.repr.is_scalar() || field.dtype == DataType::Real {
            continue;
        }
        let mut raws = Vec::new();
        for b in &report.blocks {
            raws.extend_from_slice(&b.columns[c][..b.len]);
        }
        let md = &field.metadata;
        let claim_fail = |what: &str| Discrepancy {
            oracle: "metadata-invariant",
            detail: format!("output column {} ({}): {what}", c, field.name),
        };
        if md.sorted_asc.is_true() && raws.windows(2).any(|w| w[1] < w[0]) {
            ds.push(claim_fail("claimed sorted_asc, rows descend"));
        }
        if md.unique.is_true() && has_duplicates(&raws) {
            ds.push(claim_fail("claimed unique, rows repeat"));
        }
        if let Some(min) = md.min {
            if raws.iter().any(|&v| v < min) {
                ds.push(claim_fail("value below claimed min"));
            }
        }
        if let Some(max) = md.max {
            if raws.iter().any(|&v| v > max) {
                ds.push(claim_fail("value above claimed max"));
            }
        }
        if md.has_nulls == tde_encodings::metadata::Knowledge::False && raws.contains(&NULL_I64) {
            ds.push(claim_fail("claimed NULL-free, sentinel present"));
        }
    }
}

fn has_duplicates(vals: &[i64]) -> bool {
    let mut seen = std::collections::HashSet::with_capacity(vals.len());
    vals.iter().any(|v| !seen.insert(*v))
}

/// The sequence a column's claims describe: stored values for scalars,
/// dictionary-resolved values for array compression, tokens for heaps.
fn claim_domain(col: &Column) -> Vec<i64> {
    let raw = col.data.decode_all();
    match &col.compression {
        Compression::Array { dictionary, .. } => {
            raw.into_iter().map(|i| dictionary[i as usize]).collect()
        }
        _ => raw,
    }
}

/// Check every claim `col.metadata` and its compression make against
/// the column's stored values.
pub fn check_column_claims(col: &Column, ds: &mut Vec<Discrepancy>) {
    use tde_encodings::metadata::Knowledge;
    if col.dtype == DataType::Real {
        return; // Real metadata is reset to unknown by the builder.
    }
    let vals = claim_domain(col);
    let is_heap = matches!(col.compression, Compression::Heap { .. });
    let null_of = |v: i64| {
        if is_heap {
            v == NULL_TOKEN as i64
        } else {
            v == NULL_I64
        }
    };
    let md = &col.metadata;
    let fail = |what: String| Discrepancy {
        oracle: "metadata-invariant",
        detail: format!("column {}: {what}", col.name),
    };

    // Descent is a plain comparison: a NULL sentinel (i64::MIN) after a
    // value is a real descent even though the delta overflows. Overflow
    // only excuses the *negative* claim, whose statistics are delta-based.
    let descends = vals.windows(2).any(|w| w[1] < w[0]);
    let delta_overflow = vals.windows(2).any(|w| w[1].checked_sub(w[0]).is_none());
    match md.sorted_asc {
        Knowledge::True if descends => ds.push(fail("claimed sorted_asc, data descends".into())),
        // Delta overflow makes the statistics conservatively claim
        // unsorted even for ascending data — that imprecision is allowed.
        Knowledge::False if !descends && !delta_overflow && vals.len() >= 2 => {
            ds.push(fail("claimed not sorted, data never descends".into()))
        }
        _ => {}
    }

    let dense = !vals.is_empty() && vals.windows(2).all(|w| w[1].checked_sub(w[0]) == Some(1));
    match md.dense {
        Knowledge::True if !dense => ds.push(fail("claimed dense, data is not".into())),
        Knowledge::False if dense && vals.len() >= 2 => {
            ds.push(fail("claimed not dense, data is a unit progression".into()))
        }
        _ => {}
    }

    let dups = has_duplicates(&vals);
    match md.unique {
        Knowledge::True if dups => ds.push(fail("claimed unique, data repeats".into())),
        Knowledge::False if !dups => ds.push(fail("claimed duplicated, data is unique".into())),
        _ => {}
    }

    if let Some(min) = md.min {
        if vals.iter().any(|&v| v < min) {
            ds.push(fail(format!("value below claimed min {min}")));
        }
    }
    if let Some(max) = md.max {
        if vals.iter().any(|&v| v > max) {
            ds.push(fail(format!("value above claimed max {max}")));
        }
    }

    if let Some(card) = md.cardinality {
        let distinct: std::collections::HashSet<i64> = vals.iter().copied().collect();
        let nonnull = vals
            .iter()
            .filter(|&&v| !null_of(v))
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        // The accelerator counts heap entries (NULL has no entry); the
        // statistics count distinct stored values (NULL included). Either
        // is a valid claim.
        if card != distinct.len() as u64 && card != nonnull {
            ds.push(fail(format!(
                "claimed cardinality {card}, observed {} ({} non-null)",
                distinct.len(),
                nonnull
            )));
        }
    }

    let nulls = vals.iter().copied().any(null_of);
    match md.has_nulls {
        Knowledge::True if !nulls => ds.push(fail("claimed NULLs, none present".into())),
        Knowledge::False if nulls => ds.push(fail("claimed NULL-free, NULLs present".into())),
        _ => {}
    }

    if let Compression::Heap { heap, sorted } = &col.compression {
        if (md.sorted_heap_tokens.is_true() || *sorted) && !heap.is_sorted(Collation::Binary) {
            ds.push(fail("claimed sorted heap, heap is unsorted".into()));
        }
    }
    if let Compression::Array { dictionary, sorted } = &col.compression {
        if *sorted && dictionary.windows(2).any(|w| w[1] < w[0]) {
            ds.push(fail("claimed sorted dictionary, entries descend".into()));
        }
    }
}
