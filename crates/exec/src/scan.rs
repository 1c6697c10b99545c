//! Table scan: decode stored columns block-at-a-time, answering pushed
//! predicate conjuncts in the compressed domain first and decoding only
//! the rows that survive them — or, over run-length columns feeding an
//! aggregate, read the runs themselves and never expand them
//! ([`TableScan::with_runs`]).

use crate::block::{Block, Field, Schema};
use crate::cursor::StreamCursor;
use crate::expr::Expr;
use crate::handle::ColumnHandle;
use crate::pushdown::{code_set, has_raw_domain, split_conjuncts, CompiledPredicate};
use crate::{Operator, BLOCK_ROWS};
use std::io;
use std::sync::Arc;
use tde_encodings::kernel::{metadata_selection, Matcher, PredicateKernel, ValueSet};
use tde_encodings::rle::RunPairs;
use tde_encodings::Selection;
use tde_pager::PagedTable;
use tde_storage::{Column, Compression, Table};

/// Scans stored columns, emitting one execution block per decompression
/// block. Compressed columns flow through in their stored representation
/// (tokens/indexes) unless `expand_dictionaries` is set — keeping them
/// compressed is what enables the invisible-join plans of §4.1.
///
/// The scan is storage-agnostic: it reads [`ColumnHandle`]s, which may
/// share an eager [`Table`] or own pager-resolved columns
/// ([`TableScan::paged`]) — the latter demand-loads only the projected
/// columns' segments through the buffer pool.
///
/// Each block starts as a [`Selection`] of every row (minus tombstones,
/// for a merge snapshot's base); each pushed conjunct narrows it, the
/// surviving rows of every projected column but a dropped one
/// ([`crate::Need::None`]) are then decoded into the output block, and
/// residual conjuncts filter that block last.
///
/// A run-carrying scan ([`TableScan::with_runs`]) instead walks the runs
/// of every projected column in lockstep and emits one weighted row per
/// segment over which they all hold still.
pub struct TableScan {
    handles: Vec<ColumnHandle>,
    schema: Schema,
    cursors: Vec<StreamCursor>,
    expand: bool,
    done: bool,
    total_rows: u64,
    rows_done: u64,
    block_idx: usize,
    pushed: Option<Pushed>,
    /// Deleted base rows (global, ascending) a merge snapshot masks out.
    tombstones: Arc<Vec<u64>>,
    sel: Selection,
    /// Per column: its block as a decode-and-test conjunct decoded it,
    /// current while `decoded` is set (buffers reused block to block).
    values: Vec<Vec<i64>>,
    decoded: Vec<bool>,
    /// Per column: a pushed conjunct may test its stored stream, but it
    /// is never gathered — carried as an empty vector. No residual
    /// conjunct reads one.
    pub(crate) dropped: Vec<bool>,
    scratch: Vec<i64>,
    /// Set by [`TableScan::with_runs`].
    runs: Option<Runs>,
}

/// A run-carrying scan's place in each column: the next stored run to
/// read, and the current run's value and rows not yet emitted.
struct Runs {
    next: Vec<usize>,
    value: Vec<i64>,
    left: Vec<u64>,
}

/// A pushed predicate, compiled once at scan build: one conjunct per
/// column whose stored values a value set reads, then the residual.
struct Pushed {
    conjuncts: Vec<Conjunct>,
    residual: Option<Residual>,
    reported: bool,
}

/// A value set over one column's stored values and how it is answered —
/// the tactical choice the optimizer's strategic rewrite defers.
struct Conjunct {
    col: usize,
    kind: Kind,
    /// The set as a test on stored values (dictionary codes, for array
    /// compression): what decoding conjuncts and run-carrying scans run.
    test: Matcher,
    name: &'static str,
    rows: RowCounts,
}

enum Kind {
    /// Metadata or the dictionary decides every row.
    Const(bool),
    /// A per-encoding compressed-domain kernel over the stored stream.
    Kernel(PredicateKernel),
    /// Decode the column and test its values — the fallback, and what
    /// `force_fallback` pins every conjunct to.
    Decode,
}

/// Conjuncts no value set expresses, evaluated over the output block.
struct Residual {
    predicate: CompiledPredicate,
    columns: String,
    rows: RowCounts,
}

#[derive(Default)]
struct RowCounts {
    rows_in: u64,
    rows_out: u64,
    rows_skipped: u64,
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
        let dropped = vec![false; handles.len()];
        TableScan::with_fields(handles, fields, dropped, expand_dictionaries)
    }

    /// Scan `handles` into `fields`: their own, or a merge snapshot's,
    /// whose heaps and dictionaries extend the stored ones. A column
    /// whose field holds [codes](Field::codes) reads its dictionary-encoded
    /// stream's codes and never looks up an entry; a column `dropped`
    /// flags is never gathered.
    pub(crate) fn with_fields(
        handles: Vec<ColumnHandle>,
        fields: Vec<Field>,
        dropped: Vec<bool>,
        expand_dictionaries: bool,
    ) -> TableScan {
        let cursors = handles
            .iter()
            .zip(&fields)
            .map(|(h, f)| match f.decoded() {
                Some(_) => StreamCursor::codes(&h.col().data),
                None => StreamCursor::new(&h.col().data),
            })
            .collect();
        let total_rows = handles.iter().map(|h| h.col().len()).min().unwrap_or(0);
        TableScan {
            values: vec![Vec::new(); handles.len()],
            decoded: vec![false; handles.len()],
            dropped,
            handles,
            schema: Schema::new(fields),
            cursors,
            expand: expand_dictionaries,
            done: false,
            total_rows,
            rows_done: 0,
            block_idx: 0,
            pushed: None,
            tombstones: Arc::default(),
            sel: Selection::default(),
            scratch: Vec::new(),
            runs: None,
        }
    }

    /// Apply `predicate` (over the scan's output schema) inside the
    /// scan. Each conjunct over one column that compiles to a value set
    /// is answered on that column's stored stream — by its encoding's
    /// kernel where it has one, else by decoding and testing the values;
    /// the other conjuncts are evaluated over the decoded output block,
    /// exactly like a Filter above the scan. `force_fallback` pins every
    /// conjunct to decode-then-test — the differential oracle's control
    /// arm.
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
        let split = split_conjuncts(&predicate, |c| {
            self.schema.fields.get(c).is_some_and(has_raw_domain)
        });
        let conjuncts = split
            .sets
            .into_iter()
            .map(|(col, set)| {
                let stored = self.handles[col].col();
                let raw = stored_set(stored, &set);
                let (kind, name) = if force_fallback {
                    (Kind::Decode, "forced-fallback")
                } else {
                    choose_kind(stored, &set, &raw)
                };
                if !quiet {
                    let encoding = stored.data.algorithm().name();
                    tde_obs::metrics::kernel_pushdown(encoding, name);
                    tde_obs::emit(|| tde_obs::Event::Decision {
                        point: "kernel-pushdown",
                        choice: name.to_string(),
                        reason: format!(
                            "column '{}' ({encoding}, {})",
                            stored.name,
                            match &stored.compression {
                                Compression::None => "plain",
                                Compression::Heap { .. } => "heap",
                                Compression::Array { .. } => "array",
                            }
                        ),
                    });
                }
                // A decoding conjunct on codes tests the codes of the
                // entries in the set, as array compression's does.
                let test = match self.schema.fields[col].decoded() {
                    Some((entries, _)) => code_set(entries, &raw),
                    None => raw,
                };
                Conjunct {
                    col,
                    kind,
                    test: Matcher::values(&test),
                    name,
                    rows: RowCounts::default(),
                }
            })
            .collect();
        let residual = split
            .residual
            .into_iter()
            .cloned()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .map(|expr| {
                let names: Vec<&str> = expr
                    .referenced_columns()
                    .into_iter()
                    .filter_map(|c| self.schema.fields.get(c).map(|f| f.name.as_str()))
                    .collect();
                let columns = names.join(",");
                if !quiet {
                    tde_obs::metrics::kernel_pushdown("none", "fallback");
                    tde_obs::emit(|| tde_obs::Event::Decision {
                        point: "kernel-pushdown",
                        choice: "fallback".to_string(),
                        reason: format!(
                            "residual over [{columns}]: no value set, evaluated per block"
                        ),
                    });
                }
                Residual {
                    predicate: CompiledPredicate::new(&expr, &self.schema),
                    columns,
                    rows: RowCounts::default(),
                }
            });
        self.pushed = Some(Pushed {
            conjuncts,
            residual,
            reported: quiet,
        });
        self
    }

    /// Mask the base rows `tombstones` (global row ids, strictly
    /// increasing) out of the scan before any predicate sees them — a
    /// merge snapshot's deletes are just the first narrowing of each
    /// block's selection, so the kernels keep working under them.
    pub(crate) fn with_tombstones(mut self, tombstones: Arc<Vec<u64>>) -> TableScan {
        debug_assert!(tombstones.windows(2).all(|w| w[0] < w[1]));
        self.tombstones = tombstones;
        self
    }

    /// Restrict the scan to decompression blocks `[start, end)` of the
    /// stream: every cursor (and every pushed kernel) is positioned at
    /// block `start` in one step and the scan ends after block
    /// `end - 1`. Must be applied after any pushed predicate and before
    /// the first read — this is how morsel workers turn one logical scan
    /// into disjoint ranged scans.
    pub fn with_block_range(mut self, start: usize, end: usize) -> TableScan {
        debug_assert!(start <= end, "inverted block range");
        debug_assert_eq!(self.rows_done, 0, "ranged after reads began");
        debug_assert!(self.runs.is_none(), "a run-carrying scan is not ranged");
        let start_row = (start as u64 * BLOCK_ROWS as u64).min(self.total_rows);
        let end_row = (end as u64 * BLOCK_ROWS as u64).min(self.total_rows);
        for (slot, h) in self.handles.iter().enumerate() {
            self.cursors[slot].skip_blocks(&h.col().data, start);
        }
        if let Some(p) = &mut self.pushed {
            for c in &mut p.conjuncts {
                if let Kind::Kernel(k) = &mut c.kind {
                    k.seek(&self.handles[c.col].col().data, start_row);
                }
            }
        }
        self.block_idx = start;
        self.rows_done = start_row;
        self.total_rows = end_row;
        self
    }

    /// Emit run-carrying blocks (see [`Block`]): the runs of every
    /// projected column are merged into segments over which they all hold
    /// one value, and each segment is one row weighted by its length.
    /// Each pushed conjunct is tested once per segment against its value
    /// set over the stored values (the code set, for array compression);
    /// residual conjuncts, if any, filter the segments. Only an aggregate
    /// may read the output. Every projected stream must be run-length
    /// ([`crate::Projection::reads_runs`]); apply before the first read,
    /// and not to a ranged or tombstoned scan.
    pub fn with_runs(mut self) -> TableScan {
        assert!(
            self.handles.iter().all(ColumnHandle::is_run_length),
            "run-carrying scan over a non-RLE column"
        );
        debug_assert!(self.rows_done == 0 && self.tombstones.is_empty());
        let n = self.handles.len();
        self.runs = Some(Runs {
            next: vec![0; n],
            value: vec![0; n],
            left: vec![0; n],
        });
        self
    }

    /// Rows the scan covers (before any pushed predicate filters them).
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// How the pushed predicate is answered, one kernel name per
    /// conjunct (`fallback` for the residual) — the physical plan's scan
    /// label.
    pub fn pushed_kernel(&self) -> Option<String> {
        let p = self.pushed.as_ref()?;
        let names: Vec<&str> = p
            .conjuncts
            .iter()
            .map(|c| c.name)
            .chain(p.residual.as_ref().map(|_| "fallback"))
            .collect();
        Some(names.join(","))
    }

    /// Emit the once-per-scan kernel telemetry (end of stream), one
    /// record per conjunct.
    fn report_kernel(&mut self) {
        let Some(p) = &mut self.pushed else { return };
        if p.reported {
            return;
        }
        p.reported = true;
        let conjuncts = p.conjuncts.iter().map(|c| {
            let column = self.handles[c.col].col().name.clone();
            (column, c.name, &c.rows)
        });
        let residual = p
            .residual
            .iter()
            .map(|r| (r.columns.clone(), "fallback", &r.rows));
        for (column, kernel, rows) in conjuncts.chain(residual) {
            let (rows_in, rows_out, rows_skipped) =
                (rows.rows_in, rows.rows_out, rows.rows_skipped);
            tde_obs::metrics::kernel_scan_rows(rows_in, rows_out, rows_skipped);
            tde_obs::emit(|| tde_obs::Event::KernelScan {
                column,
                kernel: kernel.to_string(),
                rows_in,
                rows_out,
                rows_skipped,
            });
        }
    }

    /// Narrow `self.sel` (block `block_idx`, first global row `row0`)
    /// by the tombstones and every pushed conjunct.
    fn select_rows(&mut self, block_idx: usize, row0: u64) {
        let TableScan {
            handles,
            cursors,
            pushed,
            tombstones,
            sel,
            values,
            decoded,
            ..
        } = self;
        let blen = sel.rows();
        let lo = tombstones.partition_point(|&t| t < row0);
        let hi = tombstones.partition_point(|&t| t < row0 + blen as u64);
        if lo < hi {
            let mut dead = tombstones[lo..hi]
                .iter()
                .map(|&t| (t - row0) as usize)
                .peekable();
            sel.retain(|i| dead.next_if_eq(&i).is_none());
        }
        let Some(p) = pushed else { return };
        for c in &mut p.conjuncts {
            let before = sel.len() as u64;
            let stream = &handles[c.col].col().data;
            match &mut c.kind {
                Kind::Const(true) => {}
                Kind::Const(false) => sel.clear(),
                // Called even on an empty selection: the RLE kernel
                // walks every block in order.
                Kind::Kernel(k) => k.narrow(stream, block_idx, sel),
                Kind::Decode => {
                    if before > 0 {
                        let v = &mut values[c.col];
                        v.clear();
                        cursors[c.col].next(stream, BLOCK_ROWS, v);
                        v.truncate(blen);
                        c.test.narrow_values(sel, v);
                        decoded[c.col] = true;
                    }
                }
            }
            let after = sel.len() as u64;
            c.rows.rows_in += before;
            c.rows.rows_out += after;
            if !matches!(c.kind, Kind::Decode) {
                c.rows.rows_skipped += before - after;
            }
        }
    }

    /// Whether a pushed conjunct keeps no row — decided at build from
    /// min/max metadata or the dictionary — so the scan reads nothing.
    pub(crate) fn keeps_nothing(&self) -> bool {
        self.pushed.as_ref().is_some_and(|p| {
            p.conjuncts
                .iter()
                .any(|c| matches!(c.kind, Kind::Const(false)))
        })
    }

    /// End a scan that [keeps nothing](TableScan::keeps_nothing) without
    /// walking its blocks or runs: the deciding conjunct reports every
    /// row left as skipped.
    fn skip_rest(&mut self) {
        let left = self.total_rows - self.rows_done;
        let conjuncts = self.pushed.iter_mut().flat_map(|p| &mut p.conjuncts);
        if let Some(c) = conjuncts
            .into_iter()
            .find(|c| matches!(c.kind, Kind::Const(false)))
        {
            c.rows.rows_in += left;
            c.rows.rows_skipped += left;
        }
        self.rows_done = self.total_rows;
    }

    /// Up to a block's worth of the segments the pushed conjuncts keep,
    /// then the residual over them.
    fn fill_segments(&mut self) -> Option<Block> {
        let TableScan {
            handles,
            schema,
            expand,
            total_rows,
            rows_done,
            pushed,
            sel,
            runs,
            dropped,
            ..
        } = self;
        let runs = runs.as_mut().expect("a run-carrying scan");
        let pairs: Vec<RunPairs<'_>> = handles
            .iter()
            .map(|h| {
                let stream = &h.col().data;
                RunPairs::new(stream.as_bytes(), &stream.header())
            })
            .collect();
        let dictionaries: Vec<Option<&[i64]>> = handles
            .iter()
            .map(|h| match &h.col().compression {
                Compression::Array { dictionary, .. } if *expand => Some(dictionary.as_slice()),
                _ => None,
            })
            .collect();
        loop {
            let mut columns = vec![Vec::new(); handles.len()];
            let mut weights = Vec::new();
            while weights.len() < BLOCK_ROWS && *rows_done < *total_rows {
                // Every column holds rows past `rows_done`: its runs sum
                // to its length (checked when the stream was loaded).
                for (k, runs_k) in pairs.iter().enumerate() {
                    while runs.left[k] == 0 {
                        (runs.value[k], runs.left[k]) = runs_k.get(runs.next[k]);
                        runs.next[k] += 1;
                    }
                }
                let len = runs
                    .left
                    .iter()
                    .copied()
                    .fold(*total_rows - *rows_done, u64::min);
                let mut keep = true;
                for c in pushed.iter_mut().flat_map(|p| &mut p.conjuncts) {
                    c.rows.rows_in += len;
                    keep = match c.kind {
                        Kind::Const(all) => all,
                        _ => c.test.contains(runs.value[c.col] as u64),
                    };
                    if !keep {
                        c.rows.rows_skipped += len;
                        break;
                    }
                    c.rows.rows_out += len;
                }
                if keep {
                    let kept = columns.iter_mut().zip(&runs.value).zip(&dictionaries);
                    for (((col, &v), dict), _) in kept.zip(&*dropped).filter(|(_, &d)| !d) {
                        col.push(dict.map_or(v, |d| d[v as usize]));
                    }
                    weights.push(len);
                }
                for left in &mut runs.left {
                    *left -= len;
                }
                *rows_done += len;
            }
            if weights.is_empty() {
                return None;
            }
            let mut block = Block {
                columns,
                len: weights.len(),
                weights: Some(weights),
            };
            if let Some(r) = pushed.as_mut().and_then(|p| p.residual.as_mut()) {
                r.rows.rows_in += block.rows();
                r.predicate.filter(schema, &mut block, sel);
                r.rows.rows_out += block.rows();
            }
            if block.len > 0 {
                return Some(block);
            }
        }
    }
}

/// `set` (over values) as a set over the stored stream's raw values —
/// array compression stores dictionary codes, even when the scan
/// expands them.
fn stored_set(stored: &Column, set: &ValueSet) -> ValueSet {
    match &stored.compression {
        Compression::Array { dictionary, .. } => code_set(dictionary, set),
        _ => set.clone(),
    }
}

/// Tactical choice for one conjunct's value set over `stored`; `raw` is
/// the set over its stored values ([`stored_set`]).
fn choose_kind(stored: &Column, set: &ValueSet, raw: &ValueSet) -> (Kind, &'static str) {
    match &stored.compression {
        Compression::Array { dictionary, .. } => {
            // The set read over the dictionary once: a set of codes, which
            // the codes stream's own kernel then answers.
            let kind = if raw.is_empty() {
                Kind::Const(false)
            } else if raw.covers(0, dictionary.len() as i64 - 1) {
                Kind::Const(true)
            } else {
                PredicateKernel::build(&stored.data, raw).map_or(Kind::Decode, Kind::Kernel)
            };
            (kind, "dict-domain")
        }
        _ => match metadata_selection(&stored.metadata, set) {
            Some(all) => (Kind::Const(all), "metadata-minmax"),
            None => match PredicateKernel::build(&stored.data, set) {
                Some(k) => {
                    let name = k.kind();
                    (Kind::Kernel(k), name)
                }
                None => (Kind::Decode, "fallback"),
            },
        },
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
        let block = if self.keeps_nothing() {
            self.skip_rest();
            None
        } else if self.runs.is_some() {
            self.fill_segments()
        } else {
            self.fill_rows()
        };
        if block.is_none() {
            self.done = true;
            self.report_kernel();
        }
        block
    }
}

impl TableScan {
    /// The next block of the rows every conjunct keeps, or the end.
    fn fill_rows(&mut self) -> Option<Block> {
        loop {
            if self.handles.is_empty() || self.rows_done >= self.total_rows {
                return None;
            }
            let blen = ((self.total_rows - self.rows_done) as usize).min(BLOCK_ROWS);
            let (block_idx, row0) = (self.block_idx, self.rows_done);
            self.block_idx += 1;
            self.rows_done += blen as u64;

            // Resolve the selection before decoding anything but the
            // columns a decode-and-test conjunct needs.
            self.sel.select_all(blen);
            self.select_rows(block_idx, row0);

            if self.sel.is_empty() {
                // Nothing in this block survives: advance every cursor
                // a conjunct did not already read, without decoding.
                for (slot, h) in self.handles.iter().enumerate() {
                    if !std::mem::take(&mut self.decoded[slot]) {
                        self.cursors[slot].skip(&h.col().data, BLOCK_ROWS);
                    }
                }
                continue;
            }

            // Late materialization: only the surviving rows of each
            // column are decoded (or gathered from the block a conjunct
            // already decoded), and dictionary expansion runs over them.
            let mut columns = Vec::with_capacity(self.handles.len());
            for (slot, h) in self.handles.iter().enumerate() {
                let col = h.col();
                let decoded = std::mem::take(&mut self.decoded[slot]);
                if self.dropped[slot] {
                    if !decoded {
                        self.cursors[slot].skip(&col.data, BLOCK_ROWS);
                    }
                    columns.push(Vec::new());
                    continue;
                }
                let mut out = Vec::with_capacity(self.sel.len());
                if decoded {
                    self.sel.gather(&self.values[slot], &mut out);
                } else {
                    self.cursors[slot].next_selected(
                        &col.data,
                        BLOCK_ROWS,
                        &self.sel,
                        &mut self.scratch,
                        &mut out,
                    );
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
            let mut block = Block {
                columns,
                len: self.sel.len(),
                weights: None,
            };

            if let Some(r) = self.pushed.as_mut().and_then(|p| p.residual.as_mut()) {
                r.rows.rows_in += block.len as u64;
                r.predicate.filter(&self.schema, &mut block, &mut self.sel);
                r.rows.rows_out += block.len as u64;
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
