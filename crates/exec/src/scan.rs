//! Table scan: decode stored columns block-at-a-time, optionally
//! answering a pushed-down predicate in the compressed domain first.

use crate::block::{Block, Repr, Schema};
use crate::cursor::StreamCursor;
use crate::expr::{eval, ComputeHeap, Expr};
use crate::handle::ColumnHandle;
use crate::pushdown::{compile_value_set, gather_ranges};
use crate::{Operator, BLOCK_ROWS};
use std::io;
use std::sync::Arc;
use tde_encodings::kernel::{
    metadata_selection, selection_from_ranges, BlockSelection, PredicateKernel,
};
use tde_pager::PagedTable;
use tde_storage::{Compression, Table};
use tde_types::DataType;

/// Scans stored columns, emitting one execution block per decompression
/// block. Compressed columns flow through in their stored representation
/// (tokens/indexes) unless `expand_dictionaries` is set — keeping them
/// compressed is what enables the invisible-join plans of §4.1.
///
/// The scan is storage-agnostic: it reads [`ColumnHandle`]s, which may
/// share an eager [`Table`] or own pager-resolved columns
/// ([`TableScan::paged`]) — the latter demand-loads only the projected
/// columns' segments through the buffer pool.
pub struct TableScan {
    handles: Vec<ColumnHandle>,
    schema: Schema,
    cursors: Vec<StreamCursor>,
    expand: bool,
    done: bool,
    total_rows: u64,
    rows_done: u64,
    block_idx: usize,
    pushed: Option<PushedState>,
}

/// How a pushed predicate is answered, chosen once at scan build
/// (the tactical decision the optimizer's strategic rewrite defers).
enum PushKind {
    /// A per-encoding compressed-domain kernel over the stored stream.
    Stream(PredicateKernel),
    /// Array compression: the predicate evaluated once over the
    /// dictionary values; packed codes are tested against the result.
    Codes { keep: Vec<bool> },
    /// Metadata or the dictionary proves every row matches.
    AllRows,
    /// Metadata or the dictionary proves no row matches.
    NoRows,
    /// Decode-then-eval per block — semantically the Filter operator
    /// fused into the scan.
    Fallback,
}

struct PushedState {
    col: usize,
    expr: Expr,
    kind: PushKind,
    kind_name: &'static str,
    column_name: String,
    heap: Option<ComputeHeap>,
    rows_in: u64,
    rows_out: u64,
    rows_skipped: u64,
    reported: bool,
}

impl TableScan {
    /// Scan every column of `table`.
    pub fn new(table: Arc<Table>) -> TableScan {
        let handles = ColumnHandle::all(&table);
        TableScan::from_handles(handles, false)
    }

    /// Scan named columns. `expand_dictionaries` materializes
    /// array-compressed columns to scalars at the scan (the baseline that
    /// forgoes invisible joins). Panics on a name the table does not
    /// have; [`crate::Source::resolve`] is the fallible route.
    pub fn project(table: Arc<Table>, names: &[&str], expand_dictionaries: bool) -> TableScan {
        let handles = names
            .iter()
            .map(|n| ColumnHandle::Shared {
                idx: table
                    .column_index(n)
                    .unwrap_or_else(|| panic!("no column {n}")),
                table: Arc::clone(&table),
            })
            .collect();
        TableScan::from_handles(handles, expand_dictionaries)
    }

    /// Scan named columns of a paged table, resolving each through the
    /// buffer pool. Only the named columns' segments are read; columns
    /// outside the projection never leave the disk.
    pub fn paged(
        table: &PagedTable,
        names: &[&str],
        expand_dictionaries: bool,
    ) -> io::Result<TableScan> {
        let handles = names
            .iter()
            .map(|n| table.column(n).map(ColumnHandle::Owned))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TableScan::from_handles(handles, expand_dictionaries))
    }

    /// Scan every column of a paged table (loads all segments — prefer
    /// [`TableScan::paged`] with a projection).
    pub fn paged_all(table: &PagedTable, expand_dictionaries: bool) -> io::Result<TableScan> {
        let names = table.column_names();
        TableScan::paged(table, &names, expand_dictionaries)
    }

    /// Scan pre-resolved column handles.
    pub fn from_handles(handles: Vec<ColumnHandle>, expand_dictionaries: bool) -> TableScan {
        let fields = handles
            .iter()
            .map(|h| h.field(expand_dictionaries))
            .collect();
        let cursors = handles
            .iter()
            .map(|h| StreamCursor::new(&h.col().data))
            .collect();
        let total_rows = handles.iter().map(|h| h.col().len()).min().unwrap_or(0);
        TableScan {
            handles,
            schema: Schema::new(fields),
            cursors,
            expand: expand_dictionaries,
            done: false,
            total_rows,
            rows_done: 0,
            block_idx: 0,
            pushed: None,
        }
    }

    /// Apply `predicate` (over the scan's output schema) inside the
    /// scan. Where the predicate compiles to a value set and the
    /// column's encoding has a kernel, rows are selected in the
    /// compressed domain; otherwise the scan decodes and evaluates per
    /// block, exactly like a Filter above it. `force_fallback` pins the
    /// decode-then-eval path — the differential oracle's control arm.
    pub fn with_pushed(self, predicate: Expr, force_fallback: bool) -> TableScan {
        self.push_predicate(predicate, force_fallback, false)
    }

    /// As [`TableScan::with_pushed`], but without the per-scan pushdown
    /// telemetry. Morsel workers build one ranged scan per morsel; the
    /// decision and row accounting for the query is emitted once by the
    /// morsel operator, not multiplied by the morsel count.
    pub fn with_pushed_quiet(self, predicate: Expr, force_fallback: bool) -> TableScan {
        self.push_predicate(predicate, force_fallback, true)
    }

    fn push_predicate(mut self, predicate: Expr, force_fallback: bool, quiet: bool) -> TableScan {
        let col = predicate.single_column();
        let column_name = col
            .and_then(|c| self.schema.fields.get(c).map(|f| f.name.clone()))
            .unwrap_or_default();
        let (kind, kind_name) = if force_fallback {
            (PushKind::Fallback, "forced-fallback")
        } else {
            match col {
                Some(c) if c < self.handles.len() => self.choose_kind(c, &predicate),
                _ => (PushKind::Fallback, "fallback"),
            }
        };
        let detail = col.map_or_else(
            || "multi-column predicate".to_string(),
            |c| {
                let stored = self.handles[c].col();
                format!(
                    "column '{}' ({}, {})",
                    column_name,
                    stored.data.algorithm().name(),
                    match &stored.compression {
                        Compression::None => "plain",
                        Compression::Heap { .. } => "heap",
                        Compression::Array { .. } => "array",
                    }
                )
            },
        );
        let encoding = col.map_or("none", |c| self.handles[c].col().data.algorithm().name());
        if !quiet {
            tde_obs::metrics::kernel_pushdown(encoding, kind_name);
            tde_obs::emit(|| tde_obs::Event::Decision {
                point: "kernel-pushdown",
                choice: kind_name.to_string(),
                reason: detail,
            });
        }
        self.pushed = Some(PushedState {
            col: col.unwrap_or(0),
            expr: predicate,
            kind,
            kind_name,
            column_name,
            heap: Some(ComputeHeap::new()),
            rows_in: 0,
            rows_out: 0,
            rows_skipped: 0,
            reported: quiet,
        });
        self
    }

    /// Restrict the scan to decompression blocks `[start, end)` of the
    /// stream: every cursor (and the pushed kernel, if any) is positioned
    /// at block `start` in one step and the scan ends after block
    /// `end - 1`. Must be applied after any pushed predicate and before
    /// the first read — this is how morsel workers turn one logical scan
    /// into disjoint ranged scans.
    pub fn with_block_range(mut self, start: usize, end: usize) -> TableScan {
        debug_assert!(start <= end, "inverted block range");
        debug_assert_eq!(self.rows_done, 0, "ranged after reads began");
        let start_row = (start as u64 * BLOCK_ROWS as u64).min(self.total_rows);
        let end_row = (end as u64 * BLOCK_ROWS as u64).min(self.total_rows);
        for (slot, h) in self.handles.iter().enumerate() {
            self.cursors[slot].skip_blocks(&h.col().data, start);
        }
        if let Some(p) = &mut self.pushed {
            if let PushKind::Stream(k) = &mut p.kind {
                k.seek(&self.handles[p.col].col().data, start_row);
            }
        }
        self.block_idx = start;
        self.rows_done = start_row;
        self.total_rows = end_row;
        self
    }

    /// Rows the scan covers (before any pushed predicate filters them).
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// The kernel kind a pushed predicate resolved to, if any — used by
    /// the physical plan to label the scan node.
    pub fn pushed_kernel(&self) -> Option<&'static str> {
        self.pushed.as_ref().map(|p| p.kind_name)
    }

    /// Tactical kernel choice for predicate column `c`.
    fn choose_kind(&self, c: usize, predicate: &Expr) -> (PushKind, &'static str) {
        let field = &self.schema.fields[c];
        // Token and real comparisons have heap / f64 semantics that the
        // integer value set cannot express.
        if matches!(field.repr, Repr::Token(_) | Repr::TokenCell(_))
            || field.dtype == DataType::Real
        {
            return (PushKind::Fallback, "fallback");
        }
        let Some(set) = compile_value_set(predicate) else {
            return (PushKind::Fallback, "fallback");
        };
        let stored = self.handles[c].col();
        match &stored.compression {
            Compression::Heap { .. } => (PushKind::Fallback, "fallback"),
            Compression::Array { dictionary, .. } => {
                let keep: Vec<bool> = dictionary.iter().map(|&v| set.contains(v)).collect();
                if keep.iter().all(|&k| !k) {
                    (PushKind::NoRows, "dict-domain")
                } else if keep.iter().all(|&k| k) {
                    (PushKind::AllRows, "dict-domain")
                } else {
                    (PushKind::Codes { keep }, "dict-domain")
                }
            }
            Compression::None => match metadata_selection(&stored.metadata, &set) {
                Some(false) => (PushKind::NoRows, "metadata-minmax"),
                Some(true) => (PushKind::AllRows, "metadata-minmax"),
                None => match PredicateKernel::build(&stored.data, &set) {
                    Some(k) => {
                        let kind = k.kind();
                        (PushKind::Stream(k), kind)
                    }
                    None => (PushKind::Fallback, "fallback"),
                },
            },
        }
    }

    /// Emit the once-per-scan kernel telemetry (end of stream).
    fn report_kernel(&mut self) {
        if let Some(p) = &mut self.pushed {
            if p.reported {
                return;
            }
            p.reported = true;
            let (column, kernel) = (p.column_name.clone(), p.kind_name.to_string());
            let (rows_in, rows_out, rows_skipped) = (p.rows_in, p.rows_out, p.rows_skipped);
            tde_obs::metrics::kernel_scan_rows(rows_in, rows_out, rows_skipped);
            tde_obs::emit(|| tde_obs::Event::KernelScan {
                column,
                kernel,
                rows_in,
                rows_out,
                rows_skipped,
            });
        }
    }
}

impl Operator for TableScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_block(&mut self) -> Option<Block> {
        if self.done {
            return None;
        }
        loop {
            if self.handles.is_empty() || self.rows_done >= self.total_rows {
                self.done = true;
                self.report_kernel();
                return None;
            }
            let blen = ((self.total_rows - self.rows_done) as usize).min(BLOCK_ROWS);
            let block_idx = self.block_idx;
            self.block_idx += 1;
            self.rows_done += blen as u64;
            let pcol = self.pushed.as_ref().map(|p| p.col);

            // Resolve the kernel's selection before decoding anything.
            // The dict-codes path decodes the predicate column's packed
            // codes (and only those) to test them; the decoded codes are
            // reused below so the column is not read twice.
            let mut pred_data: Option<Vec<i64>> = None;
            let sel = match &mut self.pushed {
                None => BlockSelection::All,
                Some(p) => {
                    p.rows_in += blen as u64;
                    match &mut p.kind {
                        PushKind::Fallback | PushKind::AllRows => BlockSelection::All,
                        PushKind::NoRows => BlockSelection::Skip,
                        PushKind::Stream(k) => {
                            k.eval_block(&self.handles[p.col].col().data, block_idx, blen)
                        }
                        PushKind::Codes { keep } => {
                            let mut codes = Vec::with_capacity(BLOCK_ROWS);
                            self.cursors[p.col].next(
                                &self.handles[p.col].col().data,
                                BLOCK_ROWS,
                                &mut codes,
                            );
                            codes.truncate(blen);
                            let mut ranges: Vec<(usize, usize)> = Vec::new();
                            for (i, &code) in codes.iter().enumerate() {
                                if keep[code as usize] {
                                    match ranges.last_mut() {
                                        Some(last) if last.1 == i => last.1 = i + 1,
                                        _ => ranges.push((i, i + 1)),
                                    }
                                }
                            }
                            pred_data = Some(codes);
                            selection_from_ranges(ranges, blen)
                        }
                    }
                }
            };

            if matches!(sel, BlockSelection::Skip) {
                // Nothing in this block can match: advance every cursor
                // without decoding (the predicate column's cursor has
                // already moved if its codes were read).
                for (slot, h) in self.handles.iter().enumerate() {
                    if pred_data.is_some() && Some(slot) == pcol {
                        continue;
                    }
                    self.cursors[slot].skip(&h.col().data, BLOCK_ROWS);
                }
                if let Some(p) = &mut self.pushed {
                    p.rows_skipped += blen as u64;
                }
                continue;
            }

            let ranges = match &sel {
                BlockSelection::Ranges(rs) => Some(rs.as_slice()),
                _ => None,
            };
            let mut columns = Vec::with_capacity(self.handles.len());
            for (slot, h) in self.handles.iter().enumerate() {
                let col = h.col();
                let mut out = if Some(slot) == pcol && pred_data.is_some() {
                    pred_data.take().unwrap()
                } else {
                    let mut v = Vec::with_capacity(BLOCK_ROWS);
                    self.cursors[slot].next(&col.data, BLOCK_ROWS, &mut v);
                    v.truncate(blen);
                    v
                };
                // Select first, expand after: dictionary expansion runs
                // only over the surviving rows.
                if let Some(rs) = ranges {
                    gather_ranges(&mut out, rs);
                }
                if self.expand {
                    if let Compression::Array { dictionary, .. } = &col.compression {
                        for v in &mut out {
                            *v = dictionary[*v as usize];
                        }
                    }
                }
                columns.push(out);
            }
            let len = columns.first().map_or(0, Vec::len);
            let mut block = Block { columns, len };

            if let Some(p) = &mut self.pushed {
                if matches!(p.kind, PushKind::Fallback) {
                    // Decode-then-eval, block-for-block identical to the
                    // Filter operator.
                    let mut heap = p.heap.as_mut();
                    let mask = eval(&p.expr, &self.schema, &block, &mut heap);
                    let keep: Vec<bool> = mask.data.iter().map(|&b| b != 0).collect();
                    block.filter(&keep);
                } else {
                    p.rows_skipped += (blen - block.len) as u64;
                }
                p.rows_out += block.len as u64;
            }
            if block.len == 0 {
                continue;
            }
            return Some(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_rows;
    use tde_storage::{ColumnBuilder, EncodingPolicy};
    use tde_types::{DataType, Value};

    fn table() -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..3000i64 {
            a.append_i64(i);
            s.append_str(Some(["x", "y"][i as usize % 2]));
        }
        Arc::new(Table::new("t", vec![a.finish().column, s.finish().column]))
    }

    #[test]
    fn scans_all_rows_in_blocks() {
        let t = table();
        let mut scan = TableScan::new(t);
        let mut total = 0;
        let mut expected_next = 0i64;
        while let Some(b) = scan.next_block() {
            assert!(b.len <= BLOCK_ROWS);
            for &v in &b.columns[0][..b.len] {
                assert_eq!(v, expected_next);
                expected_next += 1;
            }
            total += b.len;
        }
        assert_eq!(total, 3000);
    }

    #[test]
    fn projection_and_values() {
        let t = table();
        let mut scan = TableScan::project(t, &["s"], false);
        let b = scan.next_block().unwrap();
        assert_eq!(scan.schema().fields.len(), 1);
        assert_eq!(
            scan.schema().fields[0].value_of(b.columns[0][0]),
            Value::Str("x".into())
        );
        assert_eq!(
            scan.schema().fields[0].value_of(b.columns[0][1]),
            Value::Str("y".into())
        );
    }

    #[test]
    fn empty_table_scan() {
        let t = Arc::new(Table::new("e", vec![]));
        assert_eq!(count_rows(Box::new(TableScan::new(t))), 0);
    }

    #[test]
    fn block_ranges_partition_the_scan() {
        use crate::expr::CmpOp;
        // An RLE-shaped column so a pushed predicate takes the stateful
        // rle-run-skip kernel, plus a bit-packed payload.
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut b = ColumnBuilder::new("b", DataType::Integer, EncodingPolicy::default());
        for i in 0..5000i64 {
            a.append_i64(i / 300);
            b.append_i64(i % 977);
        }
        let t = Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]));
        let pred = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(5));
        let drain = |mut s: TableScan| {
            let mut blocks = Vec::new();
            while let Some(b) = s.next_block() {
                blocks.push(b);
            }
            blocks
        };
        let nblocks = 5000usize.div_ceil(BLOCK_ROWS);
        for pushed in [false, true] {
            let build = |range: Option<(usize, usize)>| {
                let mut s = TableScan::new(Arc::clone(&t));
                if pushed {
                    s = s.with_pushed_quiet(pred.clone(), false);
                }
                if let Some((lo, hi)) = range {
                    s = s.with_block_range(lo, hi);
                }
                s
            };
            let whole = drain(build(None));
            for split in [1usize, 2, 3, nblocks] {
                let mut pieces = Vec::new();
                let mut at = 0usize;
                while at < nblocks {
                    let hi = (at + split).min(nblocks);
                    pieces.extend(drain(build(Some((at, hi)))));
                    at = hi;
                }
                // Ranges align on decompression-block boundaries, so
                // the concatenated ranged scans must emit the *same
                // blocks* as the whole scan — the property the morsel
                // executor's byte-identity guarantee rests on.
                assert_eq!(pieces.len(), whole.len(), "pushed={pushed} split={split}");
                for (i, (p, w)) in pieces.iter().zip(&whole).enumerate() {
                    assert_eq!(p.len, w.len, "pushed={pushed} split={split} block={i}");
                    assert_eq!(
                        p.columns, w.columns,
                        "pushed={pushed} split={split} block={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn paged_scan_matches_eager_scan() {
        let t = table();
        let mut db = tde_storage::Database::new();
        db.add_table((*t).clone());
        let dir = std::env::temp_dir().join("tde_exec_paged_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.tde2");
        tde_pager::save_v2(&db, &path).unwrap();
        let paged = tde_pager::PagedDatabase::open(&path).unwrap();
        let pt = paged.table("t").unwrap();

        let mut eager = TableScan::project(Arc::clone(&t), &["s", "a"], false);
        let mut lazy = TableScan::paged(&pt, &["s", "a"], false).unwrap();
        loop {
            match (eager.next_block(), lazy.next_block()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.len, b.len);
                    assert_eq!(a.columns, b.columns);
                }
                (a, b) => panic!(
                    "block count mismatch: eager={:?} lazy={:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
