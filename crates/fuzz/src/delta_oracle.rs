//! Differential oracle for the `tde-delta` merge-on-read path.
//!
//! A case's `(delta …)` ops replay against two worlds at once: a
//! [`DeltaTable`] over the built base table (merged snapshots, tombstone
//! masking, mid-sequence compaction through the dynamic encoder) and a
//! plain vector-of-rows model that applies the same mutations by hand.
//! After *every* op a fresh snapshot must show the model's row count and
//! give the case's full plan the answer a table rebuilt *from scratch*
//! from the model's surviving rows gives — each snapshot translates the
//! delta through the store's per-base index, so an index that outlived
//! its base fails at the op it misleads. After the interleaving, the
//! merged view must also agree with the rebuild:
//!
//! * the case's full plan over `Query::scan` vs the rebuild, under
//!   every build-policy variant the re-encoding oracle already uses (the
//!   encoding axis of the matrix), and
//! * every base-schema predicate through the snapshot's projection scan —
//!   pushed to the kernels, pushed with the fallback forced, and under a
//!   plain `Filter` — compared exactly: the base leg then the delta leg
//!   is base order then append order, precisely the model's slot order
//!   (the predicate axis), and
//! * the same scan split into morsels at degrees 2 and 4, passing blocks
//!   through with the predicate pushed and folding a hash aggregate,
//!   byte-identical to serial (the morsel axis).
//!
//! Every compaction of a buffer with mutations must also store what a
//! FlowTable rebuild of the same rows stores, claim for claim
//! ([`compaction_mismatches`]): compaction keeps streams in their own
//! encoding, so its metadata is taken from the codes, not the encoder.
//!
//! Appended rows derive deterministically from the op's salt, so a pinned
//! `.case` file replays the exact mutation history with no generator.

use crate::gen::WORDS;
use crate::oracle::{
    base_preds, block_mismatch, canon, check_column_claims, diff, rows_of, Discrepancy,
};
use crate::spec::{CaseSpec, ColDtype, ColumnData, DeltaOpSpec, Policy};
use std::sync::Arc;
use tde_core::Query;
use tde_delta::DeltaTable;
use tde_exec::aggregate::{AggSpec, HashAggregate};
use tde_exec::filter::Filter;
use tde_exec::flow_table::{flow_table, FlowTableOptions};
use tde_exec::merged_scan::MergedSource;
use tde_exec::morsel::{MorselExec, MorselPipeline};
use tde_exec::{drain, AggFunc, Expr, Projection, Source};
use tde_storage::Table;
use tde_types::Value;

/// Words the base generator never emits — appends drawing these force
/// the snapshot's heap overlay (new tokens past the base heap's end).
const FRESH_WORDS: &[&str] = &["umbra", "vertex", "willow", "xenon", "yonder", "zephyr"];

fn mix(salt: u64, k: u64) -> u64 {
    let mut h = salt ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 29;
    h
}

/// The `i`-th appended row for `salt`, in the spec's base schema.
/// Deterministic and generator-free so a replayed case appends the very
/// rows the sweep did. Values mostly land inside the base's likely
/// domain (so predicates and dictionaries hit), with NULLs mixed in.
/// Strings reach every case of the snapshot's translation: base words,
/// the suffixed shape of the generator's many-distinct heaps (equal to
/// base entries when the base has them), `""`, and 6 × 300 new strings —
/// hundreds distinct in a large append, repeating within and across
/// batches, so a compaction turns earlier new strings into base entries.
fn appended_row(spec: &CaseSpec, salt: u64, i: u64) -> Vec<Value> {
    spec.columns
        .iter()
        .enumerate()
        .map(|(c, col)| {
            let h = mix(salt, i.wrapping_mul(31).wrapping_add(c as u64));
            if h.is_multiple_of(11) {
                return Value::Null;
            }
            match col.dtype() {
                ColDtype::Int => Value::Int((h % 201) as i64 - 100),
                ColDtype::Str => Value::Str(match (h >> 40) % 10 {
                    0 => String::new(),
                    1..=3 => {
                        let w = FRESH_WORDS[(h / 7) as usize % FRESH_WORDS.len()];
                        format!("{w}{}", (h >> 20) % 300)
                    }
                    4 | 5 => format!(
                        "{}{}",
                        WORDS[(h / 11) as usize % WORDS.len()],
                        (h >> 24) % 64
                    ),
                    _ => WORDS[(h / 11) as usize % WORDS.len()].to_string(),
                }),
            }
        })
        .collect()
}

/// The base table's logical rows, straight from the spec's data (one
/// model slot per addressable row id).
fn base_rows_of(spec: &CaseSpec) -> Vec<Vec<Value>> {
    (0..spec.rows())
        .map(|r| {
            spec.columns
                .iter()
                .map(|c| match &c.data {
                    ColumnData::Ints(v) => v[r].map_or(Value::Null, Value::Int),
                    ColumnData::Strs(v) => v[r].clone().map_or(Value::Null, Value::Str),
                })
                .collect()
        })
        .collect()
}

/// A spec describing the *final* logical table: the original columns
/// (names, policies, array conversions, plan, TLP) with their data
/// replaced by the model's surviving rows and the delta ops cleared.
/// Building it runs the full import path from scratch — the rebuild leg
/// of the differential.
fn respec(spec: &CaseSpec, slots: &[Option<Vec<Value>>]) -> CaseSpec {
    let mut s = spec.clone();
    s.delta.clear();
    for (c, col) in s.columns.iter_mut().enumerate() {
        match &mut col.data {
            ColumnData::Ints(v) => {
                *v = slots
                    .iter()
                    .flatten()
                    .map(|row| match &row[c] {
                        Value::Int(x) => Some(*x),
                        Value::Null => None,
                        other => unreachable!("int column holds {other:?}"),
                    })
                    .collect();
            }
            ColumnData::Strs(v) => {
                *v = slots
                    .iter()
                    .flatten()
                    .map(|row| match &row[c] {
                        Value::Str(x) => Some(x.clone()),
                        Value::Null => None,
                        other => unreachable!("str column holds {other:?}"),
                    })
                    .collect();
            }
        }
    }
    s
}

/// Replay the interleaving against the delta store and the model, then
/// check every agreement the merge-on-read contract promises.
pub fn delta_diff(spec: &CaseSpec, table: &Arc<Table>, ds: &mut Vec<Discrepancy>) {
    if spec.delta.is_empty() {
        return;
    }
    let fail = |detail: String| Discrepancy {
        oracle: "delta-diff",
        detail,
    };

    let mut dt = DeltaTable::from_eager(Arc::clone(table));
    // One slot per addressable row id (base ids, then append slots —
    // deleted appends keep their slot, exactly like the store). `None`
    // marks a deleted row; compaction keeps survivors and renumbers.
    let mut slots: Vec<Option<Vec<Value>>> = base_rows_of(spec).into_iter().map(Some).collect();
    let mut last = None;
    for (opno, op) in spec.delta.iter().enumerate() {
        match op {
            DeltaOpSpec::Append { count, salt } => {
                let rows: Vec<Vec<Value>> = (0..*count as u64)
                    .map(|i| appended_row(spec, *salt, i))
                    .collect();
                if let Err(e) = dt.append_rows(&rows) {
                    ds.push(fail(format!("op #{opno} append: {e}")));
                    return;
                }
                slots.extend(rows.into_iter().map(Some));
            }
            DeltaOpSpec::Delete { start, step, count } => {
                let total = slots.len() as u64;
                let ids: Vec<u64> = (0..*count as u64)
                    .filter(|_| total > 0)
                    .map(|k| start.wrapping_add(k.wrapping_mul(*step)) % total)
                    .collect();
                if let Err(e) = dt.delete(&ids) {
                    ds.push(fail(format!("op #{opno} delete: {e}")));
                    return;
                }
                for &id in &ids {
                    slots[id as usize] = None;
                }
            }
            DeltaOpSpec::Compact => {
                let before = match (!dt.is_clean()).then(|| dt.snapshot()).transpose() {
                    Ok(before) => before,
                    Err(e) => {
                        ds.push(fail(format!("op #{opno} snapshot: {e}")));
                        return;
                    }
                };
                match dt.compact() {
                    Ok(table) => {
                        for d in before.map_or(Vec::new(), |b| compaction_mismatches(&b, &table)) {
                            ds.push(fail(format!("op #{opno} compact: {d}")));
                        }
                    }
                    Err(e) => {
                        ds.push(fail(format!("op #{opno} compact: {e}")));
                        return;
                    }
                }
                slots.retain(Option::is_some);
            }
        }
        // After every op: the merged row count and the full plan over a
        // fresh snapshot agree with the model, so an index left over from
        // an earlier base or an earlier batch shows at the op it misleads.
        let live = slots.iter().flatten().count() as u64;
        if dt.merged_rows() != live {
            ds.push(fail(format!(
                "op #{opno}: store sees {} merged row(s), model has {live}",
                dt.merged_rows()
            )));
            return;
        }
        let snapshot = match dt.snapshot() {
            Ok(s) => s,
            Err(e) => {
                ds.push(fail(format!("op #{opno} snapshot: {e}")));
                return;
            }
        };
        let merged = canon(spec.apply_plan(Query::scan(&snapshot)).rows());
        let model = respec(spec, &slots);
        if let Err(e) = model.validate() {
            ds.push(fail(format!("op #{opno}: rebuilt spec invalid: {e}")));
            return;
        }
        let rebuilt = model.build_table_with(None);
        let got = canon(model.apply_plan(Query::scan(&rebuilt)).rows());
        if let Some(d) = diff("rebuild", &got, "merged", &merged) {
            ds.push(fail(format!("op #{opno}: {d}")));
            return;
        }
        last = Some((snapshot, merged, model, rebuilt));
    }
    let Some((src, merged_full, rebuilt_spec, rebuilt)) = last else {
        return;
    };

    // Encoding axis: the full plan over the merged view vs a from-scratch
    // rebuild of the final table under the other policy variants (the
    // spec's own policies were checked after the last op).
    let mut variants: Vec<(&'static str, Option<Policy>)> = vec![
        ("nosort", Some(Policy::NoSortHeaps)),
        ("noconvert", Some(Policy::NoConvert)),
        ("inner", Some(Policy::InnerSide)),
    ];
    if spec.columns.iter().all(|c| c.dtype() == ColDtype::Int) {
        variants.push(("baseline", Some(Policy::Baseline)));
    }
    for (name, policy) in variants {
        let rebuilt = rebuilt_spec.build_table_with(policy);
        let got = canon(rebuilt_spec.apply_plan(Query::scan(&rebuilt)).rows());
        if let Some(d) = diff(&format!("rebuild-{name}"), &got, "merged", &merged_full) {
            ds.push(fail(d));
        }
    }

    // Predicate axis: every base predicate through the snapshot's
    // projection scan, pushed to the kernels, with the fallback forced and
    // under a plain Filter. The base leg then the delta leg emit base
    // order then append order — the model's slot order — so the
    // comparison is exact, including against the rebuild.
    let source = Source::from(&src);
    let every = match source.resolve(&source.column_names()) {
        Ok(p) => p,
        Err(e) => {
            ds.push(fail(format!("resolve: {e}")));
            return;
        }
    };
    let scan = |predicate: Option<(&Expr, bool)>| every.scan(false, predicate, false).0;
    for (i, pred) in base_preds(spec).iter().enumerate() {
        let expr = pred.expr();
        let reference = rows_of(Box::new(Filter::new(scan(None), expr.clone())));
        let pushed = rows_of(scan(Some((&expr, false))));
        let fallback = rows_of(scan(Some((&expr, true))));
        if let Some(d) = diff("merged-pushed", &pushed, "merged-filter", &reference) {
            ds.push(fail(format!("pred #{i}: {d}")));
        }
        if let Some(d) = diff("merged-fallback", &fallback, "merged-filter", &reference) {
            ds.push(fail(format!("pred #{i}: {d}")));
        }
        let on_rebuild = Query::scan(&rebuilt).filter(expr.clone()).rows();
        if let Some(d) = diff(
            "rebuild-filter",
            &canon(on_rebuild),
            "merged-filter",
            &canon(reference),
        ) {
            ds.push(fail(format!("pred #{i}: {d}")));
        }
        if let Some(d) = morsel_mismatch(&every, &expr) {
            ds.push(fail(format!("pred #{i}: {d}")));
        }
    }
}

/// How the table a compaction of `snapshot` produced departs from a
/// FlowTable rebuild of the snapshot's rows: in the stored values of a
/// column, in any metadata claim (the width aside, which must be the
/// stream's own), or in a claim that does not hold.
pub fn compaction_mismatches(snapshot: &Arc<MergedSource>, compacted: &Table) -> Vec<String> {
    let source = Source::from(snapshot);
    let every = source
        .resolve(&source.column_names())
        .expect("a snapshot resolves its own columns");
    let scan = every.scan(false, None, false).0;
    let rebuilt = flow_table(scan, snapshot.name(), FlowTableOptions::default()).table;
    let mut out = Vec::new();
    if compacted.columns.len() != rebuilt.columns.len() {
        out.push(format!(
            "{} column(s), the rebuild has {}",
            compacted.columns.len(),
            rebuilt.columns.len()
        ));
    }
    for (got, want) in compacted.columns.iter().zip(&rebuilt.columns) {
        let name = &got.name;
        if got.data.decode_all() != want.data.decode_all() {
            out.push(format!(
                "column {name}: stored values differ from the rebuild's"
            ));
        }
        if got.metadata.width != got.data.width() {
            out.push(format!(
                "column {name}: claims width {:?} over a {:?} stream",
                got.metadata.width,
                got.data.width()
            ));
        }
        let mut claims = got.metadata.clone();
        claims.width = want.metadata.width;
        if claims != want.metadata {
            out.push(format!(
                "column {name}: claims {:?}, the rebuild claims {:?}",
                got.metadata, want.metadata
            ));
        }
        let mut ds = Vec::new();
        check_column_claims(got, &mut ds);
        out.extend(ds.into_iter().map(|d| d.detail));
    }
    out
}

/// The snapshot scan split into morsels — the stored block ranges, then
/// the delta leg alone — at degrees 2 and 4 against the serial scan,
/// block for block: passing blocks through with `pred` pushed, and a hash
/// aggregate by the first column over the same pushed scan.
fn morsel_mismatch(every: &Projection, pred: &Expr) -> Option<String> {
    let scan = || every.scan(false, Some((pred, false)), false).0;
    let aggs = vec![
        AggSpec::new(AggFunc::Count, 0, "n"),
        AggSpec::new(AggFunc::Min, 0, "lo"),
        AggSpec::new(AggFunc::Max, 0, "hi"),
    ];
    let hash = HashAggregate::new(scan(), vec![0], aggs.clone());
    let group_cols = vec![0];
    let pipelines = [
        ("emit", MorselPipeline::Emit, drain(scan())),
        (
            "hash",
            MorselPipeline::HashAgg { group_cols, aggs },
            drain(Box::new(hash)),
        ),
    ];
    for degree in [2usize, 4] {
        for (what, pipeline, serial) in &pipelines {
            let pushed = Some((pred.clone(), false));
            let exec = MorselExec::new(every.clone(), false, pushed, pipeline.clone(), degree);
            if let Some(d) = block_mismatch(serial, &drain(Box::new(exec))) {
                return Some(format!("morsel {what} at degree {degree}: {d}"));
            }
        }
    }
    None
}
