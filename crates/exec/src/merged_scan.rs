//! Merge-on-read scan over a base table plus a write-optimized delta.
//!
//! The C-Store write path (and the paper's TDE production successor)
//! keeps extracts read-optimized by routing mutations into a small
//! uncompressed delta that queries *merge on read*: a scan unions the
//! compressed base rows (minus tombstoned ones) with the delta rows, so
//! every operator above the scan sees one consistent table.
//!
//! [`MergedSource`] is the immutable snapshot an upstream delta store
//! (crate `tde-delta`) prepares: full-width base column handles, merged
//! output fields whose reprs extend the base dictionaries/heaps with the
//! delta's values (base tokens and codes stay valid — both structures
//! are append-only), a sorted tombstone list, and the delta rows already
//! tokenized into the merged representation. [`MergedScan`] then streams
//! base blocks followed by delta blocks.
//!
//! Predicate handling is two-sided: the base half *delegates* to a
//! [`TableScan`] that masks the tombstones out of each block's
//! selection before any pushed conjunct sees it — deletes are just the
//! first narrowing, so every compressed-domain kernel stays in play —
//! and delta blocks go through the same compiled evaluator `Filter`
//! uses (they are tiny and uncompressed by construction).

use crate::block::{Block, Field, Repr, Schema};
use crate::expr::Expr;
use crate::handle::ColumnHandle;
use crate::pushdown::CompiledPredicate;
use crate::scan::TableScan;
use crate::Operator;
use std::sync::Arc;
use tde_encodings::Selection;

/// An immutable merge snapshot: everything a [`MergedScan`] needs to
/// present base ∪ delta − tombstones as one table.
///
/// Invariants (enforced by the constructor):
/// * `handles`, `fields` and every delta block have the same width;
/// * `tombstones` is strictly increasing and every id is `< base_rows`
///   (delta-row deletions are resolved by the snapshot builder, not
///   carried here);
/// * delta blocks are in the *merged* representation — their token /
///   dictionary-code values are valid under `fields[i].repr`.
#[derive(Debug)]
pub struct MergedSource {
    name: String,
    handles: Vec<ColumnHandle>,
    fields: Vec<Field>,
    base_rows: u64,
    tombstones: Arc<Vec<u64>>,
    delta: Vec<Block>,
    delta_rows: u64,
}

impl MergedSource {
    /// Build a snapshot. Panics on violated invariants — snapshot
    /// construction is engine code, not untrusted input.
    pub fn new(
        name: impl Into<String>,
        handles: Vec<ColumnHandle>,
        fields: Vec<Field>,
        base_rows: u64,
        tombstones: Arc<Vec<u64>>,
        delta: Vec<Block>,
    ) -> MergedSource {
        assert_eq!(handles.len(), fields.len(), "handle/field width mismatch");
        assert!(
            tombstones.windows(2).all(|w| w[0] < w[1]),
            "tombstones must be strictly increasing"
        );
        assert!(
            tombstones.last().is_none_or(|&t| t < base_rows),
            "tombstone beyond base rows"
        );
        let mut delta_rows = 0u64;
        for b in &delta {
            assert_eq!(b.columns.len(), fields.len(), "delta block width mismatch");
            delta_rows += b.len as u64;
        }
        MergedSource {
            name: name.into(),
            handles,
            fields,
            base_rows,
            tombstones,
            delta,
            delta_rows,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Merged output fields, full width.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Base-table row count (before tombstone masking).
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// Live delta row count.
    pub fn delta_rows(&self) -> u64 {
        self.delta_rows
    }

    /// Number of tombstoned base rows.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Logical row count after the merge.
    pub fn merged_rows(&self) -> u64 {
        self.base_rows - self.tombstones.len() as u64 + self.delta_rows
    }
}

/// The merge-on-read scan operator. See the module docs for semantics.
pub struct MergedScan {
    source: Arc<MergedSource>,
    columns: Vec<usize>,
    schema: Schema,
    /// Unexpanded merged reprs of the projected columns (the schema may
    /// have been rewritten to Scalar by `expand`).
    reprs: Vec<Repr>,
    expand: bool,
    predicate: Option<Expr>,
    force_fallback: bool,
    /// The predicate compiled for delta blocks.
    delta_predicate: Option<CompiledPredicate>,
    sel: Selection,
    base: Option<TableScan>,
    started: bool,
    delta_idx: usize,
    done: bool,
    /// Base decompression-block range `[lo, hi)` this scan covers
    /// (`None` = the whole base).
    range: Option<(usize, usize)>,
    /// Whether the delta leg is emitted after the base range.
    include_delta: bool,
    /// Suppress per-scan decision/kernel telemetry (morsel copies).
    quiet: bool,
}

impl MergedScan {
    /// Scan the projection `columns` (indices into the source schema).
    pub fn new(source: Arc<MergedSource>, columns: Vec<usize>, expand: bool) -> MergedScan {
        let reprs: Vec<Repr> = columns
            .iter()
            .map(|&i| source.fields()[i].repr.clone())
            .collect();
        let fields = columns
            .iter()
            .map(|&i| {
                let mut f = source.fields()[i].clone();
                if expand && matches!(f.repr, Repr::DictIndex(_)) {
                    f.repr = Repr::Scalar;
                }
                f
            })
            .collect();
        MergedScan {
            source,
            columns,
            schema: Schema::new(fields),
            reprs,
            expand,
            predicate: None,
            force_fallback: false,
            delta_predicate: None,
            sel: Selection::default(),
            base: None,
            started: false,
            delta_idx: 0,
            done: false,
            range: None,
            include_delta: true,
            quiet: false,
        }
    }

    /// Scan every column.
    pub fn all(source: Arc<MergedSource>, expand: bool) -> MergedScan {
        let cols = (0..source.fields().len()).collect();
        MergedScan::new(source, cols, expand)
    }

    /// Apply `predicate` (over the scan's output schema) inside the scan.
    /// `force_fallback` pins the per-block decode-then-eval path on both
    /// sides — the differential oracle's control arm.
    pub fn with_pushed(mut self, predicate: Expr, force_fallback: bool) -> MergedScan {
        self.predicate = Some(predicate);
        self.force_fallback = force_fallback;
        self
    }

    /// Restrict the scan to base decompression blocks `[start, end)`,
    /// emitting the delta leg after the base range only when
    /// `include_delta` is set. Morsel workers use this to split one
    /// merge-on-read scan into disjoint ranged scans (the delta rides
    /// with exactly one morsel); the per-morsel copies are quiet — the
    /// query-level decision and kernel telemetry is emitted once by the
    /// morsel operator, not multiplied by the morsel count.
    pub fn with_morsel_range(
        mut self,
        start: usize,
        end: usize,
        include_delta: bool,
    ) -> MergedScan {
        debug_assert!(!self.started, "ranged after reads began");
        self.range = Some((start, end));
        self.include_delta = include_delta;
        self.quiet = true;
        self
    }

    /// How the base side answers the scan — `"base-kernel-delegate"`,
    /// or `"tombstone-select"` when deletes are masked out of each
    /// block's selection first. Labels the physical plan node.
    pub fn merge_mode(&self) -> &'static str {
        if self.source.tombstones.is_empty() {
            "base-kernel-delegate"
        } else {
            "tombstone-select"
        }
    }

    fn start(&mut self) {
        self.started = true;
        let handles: Vec<ColumnHandle> = self
            .columns
            .iter()
            .map(|&i| self.source.handles[i].clone())
            .collect();
        if !self.quiet {
            let rows = self.source.base_rows;
            let tombstones = self.source.tombstone_count();
            tde_obs::emit(|| tde_obs::Event::Decision {
                point: "merged-scan",
                choice: self.merge_mode().to_string(),
                reason: format!(
                    "table '{}': {rows} base row(s), {tombstones} tombstone(s), {} delta row(s)",
                    self.source.name, self.source.delta_rows
                ),
            });
        }
        let mut scan = TableScan::from_handles(handles, self.expand)
            .with_tombstones(Arc::clone(&self.source.tombstones));
        if let Some(p) = &self.predicate {
            scan = if self.quiet {
                scan.with_pushed_quiet(p.clone(), self.force_fallback)
            } else {
                scan.with_pushed(p.clone(), self.force_fallback)
            };
            self.delta_predicate = Some(CompiledPredicate::new(p, &self.schema));
        }
        if let Some((lo, hi)) = self.range {
            scan = scan.with_block_range(lo, hi);
        }
        self.base = Some(scan);
    }

    /// Project, expand and filter the next delta block; `None` when the
    /// delta is exhausted.
    fn next_delta_block(&mut self) -> Option<Block> {
        if !self.include_delta {
            return None;
        }
        while self.delta_idx < self.source.delta.len() {
            let src = &self.source.delta[self.delta_idx];
            self.delta_idx += 1;
            if src.len == 0 || self.columns.is_empty() {
                continue;
            }
            let columns: Vec<Vec<i64>> = self
                .columns
                .iter()
                .zip(&self.reprs)
                .map(|(&i, repr)| {
                    let mut out = src.columns[i].clone();
                    if self.expand {
                        if let Repr::DictIndex(dict) = repr {
                            for v in &mut out {
                                *v = dict[*v as usize];
                            }
                        }
                    }
                    out
                })
                .collect();
            let mut block = Block {
                len: src.len,
                columns,
                weights: None,
            };
            if let Some(p) = &mut self.delta_predicate {
                p.filter(&self.schema, &mut block, &mut self.sel);
            }
            if block.len > 0 {
                return Some(block);
            }
        }
        None
    }
}

impl Operator for MergedScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if self.done {
            return None;
        }
        if !self.started {
            self.start();
        }
        if let Some(b) = self.base.as_mut().and_then(Operator::next_block) {
            return Some(b);
        }
        self.base = None;
        let b = self.next_delta_block();
        self.done = b.is_none();
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::{count_rows, drain, BLOCK_ROWS};
    use tde_storage::{ColumnBuilder, EncodingPolicy, Table};
    use tde_types::{DataType, Value};

    fn tok(heap: &tde_storage::StringHeap, s: &str) -> i64 {
        heap.iter()
            .find(|&(_, v)| v == s)
            .map(|(t, _)| t as i64)
            .unwrap()
    }

    fn base_table(rows: i64) -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..rows {
            a.append_i64(i);
            s.append_str(Some(["x", "y"][i as usize % 2]));
        }
        Arc::new(Table::new("t", vec![a.finish().column, s.finish().column]))
    }

    fn source_over(t: &Arc<Table>, tombstones: Vec<u64>, delta: Vec<Block>) -> Arc<MergedSource> {
        let handles = ColumnHandle::all(t);
        let fields = handles.iter().map(|h| h.field(false)).collect();
        Arc::new(MergedSource::new(
            "t",
            handles,
            fields,
            t.row_count(),
            Arc::new(tombstones),
            delta,
        ))
    }

    #[test]
    fn empty_delta_matches_plain_scan() {
        let t = base_table(3000);
        let src = source_over(&t, vec![], vec![]);
        let merged = count_rows(Box::new(MergedScan::all(src, false)));
        let plain = count_rows(Box::new(TableScan::new(t)));
        assert_eq!(merged, plain);
    }

    #[test]
    fn tombstones_mask_and_delta_appends() {
        let t = base_table(2600); // straddles a block boundary
        let handles = ColumnHandle::all(&t);
        let fields: Vec<Field> = handles.iter().map(|h| h.field(false)).collect();
        // A delta row in the merged repr: `a` scalar, `s` heap token.
        let heap = match &fields[1].repr {
            Repr::Token(h) => Arc::clone(h),
            _ => panic!("expected token repr"),
        };
        let tok_x = tok(&heap, "x");
        let delta = vec![Block::new(vec![vec![9000, 9001], vec![tok_x, tok_x]])];
        let src = Arc::new(MergedSource::new(
            "t",
            handles,
            fields,
            t.row_count(),
            Arc::new(vec![0, 1, BLOCK_ROWS as u64, 2599]),
            delta,
        ));
        assert_eq!(src.merged_rows(), 2600 - 4 + 2);
        let scan = MergedScan::all(Arc::clone(&src), false);
        assert_eq!(scan.merge_mode(), "tombstone-select");
        let blocks = drain(Box::new(scan));
        let total: usize = blocks.iter().map(|b| b.len).sum();
        assert_eq!(total as u64, src.merged_rows());
        // First surviving base row is row 2 (0 and 1 tombstoned).
        assert_eq!(blocks[0].columns[0][0], 2);
        // Last block carries the delta rows.
        let last = blocks.last().unwrap();
        assert_eq!(last.columns[0], vec![9000, 9001]);
    }

    #[test]
    fn predicate_agrees_between_delegate_and_fallback() {
        let t = base_table(2000);
        let heap = match &ColumnHandle::all(&t)[1].field(false).repr {
            Repr::Token(h) => Arc::clone(h),
            _ => unreachable!(),
        };
        let tok_y = tok(&heap, "y");
        let delta = vec![Block::new(vec![vec![50, 5000], vec![tok_y, tok_y]])];
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(100));
        for tombstones in [vec![], vec![3u64, 70, 1999]] {
            let src = source_over(&t, tombstones.clone(), delta.clone());
            let kernel = MergedScan::all(Arc::clone(&src), false).with_pushed(pred.clone(), false);
            let fallback = MergedScan::all(Arc::clone(&src), false).with_pushed(pred.clone(), true);
            let k: Vec<Block> = drain(Box::new(kernel));
            let f: Vec<Block> = drain(Box::new(fallback));
            let krows: Vec<i64> = k.iter().flat_map(|b| b.columns[0].clone()).collect();
            let frows: Vec<i64> = f.iter().flat_map(|b| b.columns[0].clone()).collect();
            assert_eq!(krows, frows, "tombstones={tombstones:?}");
            // Base rows 0..100 minus tombstoned {3, 70}, plus delta row 50.
            let expect = if tombstones.is_empty() { 101 } else { 99 };
            assert_eq!(krows.len(), expect);
        }
    }

    #[test]
    fn morsel_ranges_partition_the_merged_scan() {
        // Both base modes (delegate and tombstone-select), with a pushed
        // predicate and a delta leg: the concatenation of disjoint
        // morsel-ranged scans must emit the same blocks as the whole
        // scan — the merged-source half of the morsel byte-identity
        // guarantee.
        let t = base_table(5200);
        let heap = match &ColumnHandle::all(&t)[1].field(false).repr {
            Repr::Token(h) => Arc::clone(h),
            _ => unreachable!(),
        };
        let tok_y = tok(&heap, "y");
        let delta = vec![Block::new(vec![vec![40, 7000], vec![tok_y, tok_y]])];
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(4000));
        let nblocks = 5200usize.div_ceil(BLOCK_ROWS);
        for tombstones in [vec![], vec![3u64, BLOCK_ROWS as u64 + 7, 5199]] {
            let src = source_over(&t, tombstones.clone(), delta.clone());
            let build = |range: Option<(usize, usize, bool)>| {
                let mut s =
                    MergedScan::all(Arc::clone(&src), false).with_pushed(pred.clone(), false);
                if let Some((lo, hi, d)) = range {
                    s = s.with_morsel_range(lo, hi, d);
                }
                s
            };
            let whole = drain(Box::new(build(None)));
            for split in [2usize, 3, nblocks] {
                let mut pieces = Vec::new();
                let mut at = 0usize;
                while at < nblocks {
                    let hi = (at + split).min(nblocks);
                    // The delta leg rides with the last base morsel.
                    pieces.extend(drain(Box::new(build(Some((at, hi, hi == nblocks))))));
                    at = hi;
                }
                assert_eq!(
                    pieces.len(),
                    whole.len(),
                    "tombstones={tombstones:?} split={split}"
                );
                for (i, (p, w)) in pieces.iter().zip(&whole).enumerate() {
                    assert_eq!(p.columns, w.columns, "split={split} block={i}");
                }
            }
        }
    }

    #[test]
    fn dictionary_expansion_covers_delta_codes() {
        // An array-compressed base column; the merged dict appends one
        // new value the delta uses.
        let codes: Vec<i64> = (0..500i64).map(|i| i % 3).collect();
        let r = tde_encodings::dynamic::encode_all(&codes, tde_types::Width::W8, false);
        let base_dict = vec![100i64, 200, 300];
        let col = tde_storage::Column {
            name: "d".into(),
            dtype: DataType::Integer,
            data: r.stream,
            compression: tde_storage::Compression::Array {
                dictionary: base_dict.clone(),
                sorted: true,
            },
            metadata: tde_encodings::ColumnMetadata::unknown(),
        };
        let t = Arc::new(Table::new("t", vec![col]));
        let handles = ColumnHandle::all(&t);
        let mut fields: Vec<Field> = handles.iter().map(|h| h.field(false)).collect();
        let mut merged_dict = base_dict.clone();
        merged_dict.push(999);
        fields[0].repr = Repr::DictIndex(Arc::new(merged_dict.clone()));
        let new_code = (merged_dict.len() - 1) as i64;
        let delta = vec![Block::new(vec![vec![new_code]])];
        let src = Arc::new(MergedSource::new(
            "t",
            handles,
            fields,
            500,
            Arc::new(vec![]),
            delta,
        ));
        let scan = MergedScan::all(src, true);
        assert!(matches!(scan.schema().fields[0].repr, Repr::Scalar));
        let blocks = drain(Box::new(scan));
        let last = blocks.last().unwrap();
        assert_eq!(last.columns[0], vec![999]);
        let all: Vec<i64> = blocks.iter().flat_map(|b| b.columns[0].clone()).collect();
        assert_eq!(all.len(), 501);
        assert!(all[..500].iter().all(|v| [100, 200, 300].contains(v)));
    }

    #[test]
    fn projection_keeps_order_and_values() {
        let t = base_table(10);
        let handles = ColumnHandle::all(&t);
        let fields: Vec<Field> = handles.iter().map(|h| h.field(false)).collect();
        let heap = match &fields[1].repr {
            Repr::Token(h) => Arc::clone(h),
            _ => unreachable!(),
        };
        let t_x = tok(&heap, "x");
        let delta = vec![Block::new(vec![vec![77], vec![t_x]])];
        let src = Arc::new(MergedSource::new(
            "t",
            handles,
            fields,
            10,
            Arc::new(vec![]),
            delta,
        ));
        // Project only the string column.
        let idx = src.index_of("s").unwrap();
        let mut scan = MergedScan::new(Arc::clone(&src), vec![idx], false);
        assert_eq!(scan.schema().fields.len(), 1);
        let b = scan.next_block().unwrap();
        assert_eq!(
            scan.schema().fields[0].value_of(b.columns[0][0]),
            Value::Str("x".into())
        );
    }
}
