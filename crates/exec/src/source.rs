//! The one storage-agnostic scan source.
//!
//! A [`Source`] is what a `Scan` plan leaf reads: a fully resident
//! table, a demand-loaded paged table, or a base + delta merge snapshot.
//! Where and how the columns live is decided here and nowhere else —
//! the planner, the lowering and the morsel executor hold a `Source`
//! (or the [`Projection`] it resolves to) and never ask which kind it
//! is. The single exception is [`Source::resident`]: the decompression
//! join rewrites (§4.1, §4.2) read a column's dictionary and run
//! structure at plan time, so they need the table in memory.
//!
//! Every residency resolves to one [`Projection`] shape, and every scan
//! of it has two legs: the *base leg*, a [`TableScan`] of the stored
//! columns whose first narrowing is a merge snapshot's tombstones, then
//! the *delta leg*, the snapshot's delta rows projected,
//! dictionary-expanded and filtered through the compiled predicate. A
//! plain table is the case with no tombstones and no delta.

use crate::aggregate::sums_exactly;
use crate::block::{Block, Field, Repr, Schema};
use crate::expr::Expr;
use crate::handle::ColumnHandle;
use crate::merged_scan::MergedSource;
use crate::pushdown::{has_raw_domain, raw_domain, split_conjuncts, CompiledPredicate};
use crate::scan::TableScan;
use crate::{BoxOp, Operator};
use std::fmt;
use std::io;
use std::sync::Arc;
use tde_encodings::Algorithm;
use tde_encodings::Selection;
use tde_obs::CacheSnapshot;
use tde_pager::PagedTable;
use tde_storage::{Compression, Table};

/// What a scan reads. Build one with `Source::from(&table)` — an eager
/// `Arc<Table>`, a `PagedTable` or an `Arc<MergedSource>` snapshot.
#[derive(Debug, Clone)]
pub struct Source(Residency);

#[derive(Debug, Clone)]
enum Residency {
    /// Fully resident.
    Eager(Arc<Table>),
    /// Demand-loaded through the buffer pool, column by column.
    Paged(PagedTable),
    /// Base columns plus a delta/tombstone overlay.
    Merged(Arc<MergedSource>),
}

impl From<&Arc<Table>> for Source {
    fn from(table: &Arc<Table>) -> Source {
        Source(Residency::Eager(Arc::clone(table)))
    }
}

impl From<&PagedTable> for Source {
    fn from(table: &PagedTable) -> Source {
        Source(Residency::Paged(table.clone()))
    }
}

impl From<&Arc<MergedSource>> for Source {
    fn from(snapshot: &Arc<MergedSource>) -> Source {
        Source(Residency::Merged(Arc::clone(snapshot)))
    }
}

/// The residency tag plan labels carry: `eager`, `paged`, or `merged`
/// with the overlay's size.
impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Residency::Eager(_) => f.write_str("eager"),
            Residency::Paged(_) => f.write_str("paged"),
            Residency::Merged(m) => write!(
                f,
                "merged (+{} delta, -{} tombstone)",
                m.delta_rows(),
                m.tombstone_count()
            ),
        }
    }
}

impl Source {
    /// Table name.
    pub fn name(&self) -> &str {
        match &self.0 {
            Residency::Eager(t) => &t.name,
            Residency::Paged(t) => t.name(),
            Residency::Merged(m) => m.name(),
        }
    }

    /// Column names in schema order (no segment I/O).
    pub fn column_names(&self) -> Vec<&str> {
        match &self.0 {
            Residency::Eager(t) => t.columns.iter().map(|c| c.name.as_str()).collect(),
            Residency::Paged(t) => t.column_names(),
            Residency::Merged(m) => m.column_names(),
        }
    }

    /// Whether a value set can read the named column's stored values
    /// ([`crate::pushdown::raw_domain`]) — from the column's type and
    /// compression alone, so planning loads no segment.
    pub fn raw_domain(&self, column: &str) -> bool {
        match &self.0 {
            Residency::Eager(t) => t
                .column(column)
                .is_some_and(|c| raw_domain(c.dtype, c.compression.is_heap())),
            Residency::Paged(t) => t
                .column_dir(column)
                .is_some_and(|d| raw_domain(d.dtype, d.ctag == 2)),
            Residency::Merged(m) => m
                .index_of(column)
                .is_some_and(|i| has_raw_domain(&m.fields()[i])),
        }
    }

    /// Locate the named columns and make them readable. A paged source
    /// demand-loads exactly these columns' segments here, so a failed or
    /// corrupt read surfaces as the error. A name the source does not
    /// have is `InvalidInput`, whatever the residency.
    pub fn resolve(&self, columns: &[&str]) -> io::Result<Projection> {
        let names = self.column_names();
        let positions = columns
            .iter()
            .map(|c| {
                names.iter().position(|n| n == c).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("no column {c:?} in {self} source {:?}", self.name()),
                    )
                })
            })
            .collect::<io::Result<Vec<usize>>>()?;
        let handles: Vec<ColumnHandle> = match &self.0 {
            Residency::Eager(t) => positions
                .iter()
                .map(|&idx| ColumnHandle::Shared {
                    table: Arc::clone(t),
                    idx,
                })
                .collect(),
            Residency::Paged(t) => positions
                .iter()
                .map(|&pos| t.column_at(pos).map(ColumnHandle::Owned))
                .collect::<io::Result<_>>()?,
            Residency::Merged(m) => {
                return Ok(Projection {
                    handles: positions.iter().map(|&i| m.handles()[i].clone()).collect(),
                    fields: positions.iter().map(|&i| m.fields()[i].clone()).collect(),
                    dropped: vec![false; positions.len()],
                    tombstones: Arc::clone(m.tombstones()),
                    delta: Some((Arc::clone(m), positions)),
                })
            }
        };
        Ok(Projection {
            fields: handles.iter().map(|h| h.field(false)).collect(),
            dropped: vec![false; handles.len()],
            handles,
            tombstones: Arc::default(),
            delta: None,
        })
    }

    /// The table itself when it is fully in memory. The invisible-join,
    /// IndexTable and ordered-retrieval rewrites fire only then: they
    /// read dictionary and run structure off the stored column at plan
    /// time, and under an overlay that structure describes the base
    /// alone, not the merged table.
    pub fn resident(&self) -> Option<&Arc<Table>> {
        match &self.0 {
            Residency::Eager(t) => Some(t),
            Residency::Paged(_) | Residency::Merged(_) => None,
        }
    }

    /// Buffer-pool counters, when reads go through a pool (EXPLAIN
    /// ANALYZE reports what one execution did to the cache).
    pub fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        match &self.0 {
            Residency::Paged(t) => Some(t.cache_snapshot()),
            Residency::Eager(_) | Residency::Merged(_) => None,
        }
    }
}

/// What the operators above a scan need of one of its columns, weakest
/// first: a column two of them read gets the stronger need (`max`).
/// [`Projection::with_needs`] applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Need {
    /// Nothing reads it: the scan carries an empty vector in its place.
    None,
    /// A group key: a dictionary-encoded stream's codes will do.
    Codes,
    /// Folded by `MIN` or `MAX`: a run may stand for its rows.
    Runs,
    /// Summed: a run may stand for its rows where `w` additions of `v`
    /// are `v × w` ([`sums_exactly`]).
    Sum,
    /// Read row by row.
    Values,
}

impl Need {
    /// Whether a run-carrying block serves this need of `field`.
    pub fn takes_runs(self, field: &Field) -> bool {
        match self {
            Need::None | Need::Codes | Need::Runs => true,
            Need::Sum => sums_exactly(field),
            Need::Values => false,
        }
    }
}

/// What [`Projection::with_needs`] chose, by projected column index.
#[derive(Debug)]
pub struct Choices {
    /// Whether the base leg carries runs.
    pub runs: bool,
    /// The columns scanned as their streams' codes.
    pub codes: Vec<usize>,
    /// The columns never gathered.
    pub dropped: Vec<usize>,
}

/// A source's projected columns, resolved and ready to scan — whole, or
/// split into morsel ranges.
#[derive(Debug, Clone)]
pub struct Projection {
    /// The stored columns the base leg reads.
    handles: Vec<ColumnHandle>,
    /// What a scan emits before dictionary expansion: the stored
    /// columns' own fields, or a snapshot's merged ones, whose heaps and
    /// dictionaries extend the base's with the delta's values.
    fields: Vec<Field>,
    /// Per column, whether the scan leaves it empty ([`Need::None`]).
    dropped: Vec<bool>,
    /// Stored rows a merge snapshot deleted, ascending.
    tombstones: Arc<Vec<u64>>,
    /// The merge snapshot whose delta rows follow the stored ones, and
    /// the projected columns' positions in it.
    delta: Option<(Arc<MergedSource>, Vec<usize>)>,
}

impl Projection {
    /// The schema a scan of this projection emits.
    pub fn schema(&self, expand_dictionaries: bool) -> Schema {
        Schema::new(
            self.fields
                .iter()
                .map(|f| {
                    let mut f = f.clone();
                    if expand_dictionaries && matches!(f.repr, Repr::DictIndex(_, None)) {
                        f.repr = Repr::Scalar;
                    }
                    f
                })
                .collect(),
        )
    }

    /// What morsels partition: the stored rows, and whether a delta leg
    /// follows them.
    pub fn extent(&self) -> (u64, bool) {
        let stored = self.handles.iter().map(|h| h.col().len()).min();
        let delta = self.delta.as_ref().is_some_and(|(m, _)| m.delta_rows() > 0);
        (stored.unwrap_or(0), delta)
    }

    /// Whether the base leg can carry runs ([`TableScan::with_runs`]):
    /// every stored column is run-length and no tombstone cuts the runs.
    /// Delta rows follow as rows of weight one.
    pub fn reads_runs(&self) -> bool {
        self.tombstones.is_empty() && self.handles.iter().all(ColumnHandle::is_run_length)
    }

    /// Whether a scan can hand column `c` over as its stream's
    /// [codes](Field::codes): the stored stream is dictionary-encoded
    /// over scalars or heap tokens — array compression's indexes are
    /// codes already — and no delta leg follows, for the delta rows have
    /// no codes.
    pub fn reads_codes(&self, c: usize) -> bool {
        let col = self.handles[c].col();
        self.delta.is_none()
            && !matches!(col.compression, Compression::Array { .. })
            && col.data.algorithm() == Algorithm::Dictionary
    }

    /// This projection scanned for operators needing `need(c)` of each
    /// column `c`, by the serial scan and every morsel task alike:
    ///
    /// * the base leg carries runs where every column
    ///   [takes them](Need::takes_runs) and [`Projection::reads_runs`];
    /// * a column needing codes is scanned as codes where it
    ///   [reads as codes](Projection::reads_codes) and is not known
    ///   sorted — the aggregate may run ordered over it then (§4.2.2);
    /// * a column nothing needs is never gathered, unless a residual
    ///   conjunct of `predicate` (the scan's own) reads it from the
    ///   block. A pushed conjunct tests the stored stream either way.
    pub fn with_needs(
        mut self,
        need: impl Fn(usize) -> Need,
        expand_dictionaries: bool,
        predicate: Option<&Expr>,
    ) -> (Projection, Choices) {
        let n = self.fields.len();
        let runs = self.reads_runs() && (0..n).all(|c| need(c) < Need::Values) && {
            let schema = self.schema(expand_dictionaries);
            (0..n).all(|c| need(c).takes_runs(&schema.fields[c]))
        };
        let codes: Vec<usize> = (0..n)
            .filter(|&c| {
                need(c) == Need::Codes
                    && self.reads_codes(c)
                    && !self.fields[c].metadata.sorted_asc.is_true()
            })
            .collect();
        for &c in &codes {
            // The entries are read here, once, for every scan of the
            // projection.
            let entries = self.handles[c].col().data.dict_entries();
            self.fields[c] = self.fields[c].codes(entries.expect("a dictionary stream"));
        }
        let mut dropped: Vec<usize> = (0..n).filter(|&c| need(c) == Need::None).collect();
        if let (Some(p), false) = (predicate, dropped.is_empty()) {
            let split = split_conjuncts(p, |c| self.fields.get(c).is_some_and(has_raw_domain));
            let read: Vec<usize> = split
                .residual
                .iter()
                .flat_map(|e| e.referenced_columns())
                .collect();
            dropped.retain(|c| !read.contains(c));
        }
        for &c in &dropped {
            self.dropped[c] = true;
        }
        (
            self,
            Choices {
                runs,
                codes,
                dropped,
            },
        )
    }

    /// Whether `predicate` keeps no row, decided from min/max metadata or
    /// the dictionaries alone — no segment is read. Delta rows may still
    /// match, so a projection with a delta leg keeps something.
    pub fn keeps_nothing(&self, expand_dictionaries: bool, predicate: &Expr) -> bool {
        !self.extent().1
            && self
                .base_leg(expand_dictionaries)
                .with_pushed_quiet(predicate.clone(), false)
                .keeps_nothing()
    }

    /// The serial scan, with `predicate` — `(expr, force_fallback)` —
    /// answered inside it, plus how a pushed predicate is answered, for
    /// the plan label. With `runs` the base leg carries runs (only where
    /// [`Projection::reads_runs`]).
    pub fn scan(
        &self,
        expand_dictionaries: bool,
        predicate: Option<(&Expr, bool)>,
        runs: bool,
    ) -> (BoxOp, Option<String>) {
        self.build(expand_dictionaries, predicate, runs, None, true)
    }

    /// The one scan builder, for the serial scan and every morsel task:
    /// the base leg over stored decompression blocks `blocks` (every
    /// block when `None`), then the delta leg when `delta`. A ranged base
    /// leg is quiet — the query's pushdown telemetry is emitted once, by
    /// the morsel operator, not per morsel.
    pub(crate) fn build(
        &self,
        expand_dictionaries: bool,
        predicate: Option<(&Expr, bool)>,
        runs: bool,
        blocks: Option<(usize, usize)>,
        delta: bool,
    ) -> (BoxOp, Option<String>) {
        let mut base = self.base_leg(expand_dictionaries);
        if let Some((p, force_fallback)) = predicate {
            base = match blocks {
                None => base.with_pushed(p.clone(), force_fallback),
                Some(_) => base.with_pushed_quiet(p.clone(), force_fallback),
            };
        }
        if runs {
            base = base.with_runs();
        }
        if let Some((lo, hi)) = blocks {
            base = base.with_block_range(lo, hi);
        }
        let how = base
            .pushed_kernel()
            .map(|kernel| format!("where [kernel={kernel}]"));
        let Some((snapshot, columns)) = &self.delta else {
            return (Box::new(base), how);
        };
        let legs = Legs {
            predicate: predicate.map(|(p, _)| CompiledPredicate::new(p, base.schema())),
            base,
            snapshot: Arc::clone(snapshot),
            columns: columns.clone(),
            dictionaries: self
                .fields
                .iter()
                .map(|f| match &f.repr {
                    Repr::DictIndex(dict, None) if expand_dictionaries => Some(Arc::clone(dict)),
                    _ => None,
                })
                .collect(),
            sel: Selection::default(),
            // Without a delta leg the delta blocks start out read.
            next: if delta { 0 } else { snapshot.delta().len() },
        };
        (Box::new(legs), how)
    }

    /// The stored columns' scan into this projection's fields, its first
    /// narrowing the tombstones.
    fn base_leg(&self, expand_dictionaries: bool) -> TableScan {
        let fields = self.schema(expand_dictionaries).fields;
        let dropped = self.dropped.clone();
        TableScan::with_fields(self.handles.clone(), fields, dropped, expand_dictionaries)
            .with_tombstones(Arc::clone(&self.tombstones))
    }
}

/// A snapshot scan: the base leg's blocks, then the delta leg's — the
/// snapshot's delta blocks from `next` on, projected, expanded through
/// `dictionaries` and filtered by `predicate`.
struct Legs {
    base: TableScan,
    snapshot: Arc<MergedSource>,
    /// The projected columns' positions in the snapshot.
    columns: Vec<usize>,
    /// Per projected column, the dictionary an expanding scan maps its
    /// codes through.
    dictionaries: Vec<Option<Arc<Vec<i64>>>>,
    predicate: Option<CompiledPredicate>,
    sel: Selection,
    next: usize,
}

impl Operator for Legs {
    fn schema(&self) -> &Schema {
        self.base.schema()
    }

    fn next_block(&mut self) -> Option<Block> {
        if let Some(b) = self.base.next_block() {
            return Some(b);
        }
        while let Some(src) = self.snapshot.delta().get(self.next) {
            self.next += 1;
            if src.len == 0 || self.columns.is_empty() {
                continue;
            }
            let columns = self
                .columns
                .iter()
                .zip(&self.dictionaries)
                .map(|(&i, dict)| {
                    let mut out = src.columns[i].clone();
                    if let Some(dict) = dict {
                        for v in &mut out {
                            *v = dict[*v as usize];
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
            if let Some(p) = &mut self.predicate {
                p.filter(self.base.schema(), &mut block, &mut self.sel);
            }
            for (col, _) in block
                .columns
                .iter_mut()
                .zip(&self.base.dropped)
                .filter(|(_, &d)| d)
            {
                *col = Vec::new();
            }
            if block.len > 0 {
                return Some(block);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::{count_rows, drain, BLOCK_ROWS};
    use tde_storage::{ColumnBuilder, EncodingPolicy};
    use tde_types::{DataType, Value};

    fn table() -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut b = ColumnBuilder::new("b", DataType::Integer, EncodingPolicy::default());
        for i in 0..3000i64 {
            a.append_i64(i);
            b.append_i64(i % 7);
        }
        Arc::new(Table::new("t", vec![a.finish().column, b.finish().column]))
    }

    #[test]
    fn resolves_a_projection_in_the_order_asked() {
        let t = table();
        let source = Source::from(&t);
        assert_eq!(source.name(), "t");
        assert_eq!(source.column_names(), vec!["a", "b"]);
        assert!(source.resident().is_some());
        let p = source.resolve(&["b", "a"]).unwrap();
        let schema = p.schema(false);
        assert_eq!(schema.fields[0].name, "b");
        assert_eq!(p.extent(), (3000, false));
        assert!(!p.reads_runs());
        let (scan, how) = p.scan(false, None, false);
        assert!(how.is_none());
        assert_eq!(count_rows(scan), 3000);
    }

    #[test]
    fn unknown_column_is_invalid_input_naming_source_and_column() {
        let t = table();
        let err = Source::from(&t).resolve(&["a", "nope"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(msg.contains("\"nope\"") && msg.contains("\"t\""), "{msg}");
    }

    // ---- merge snapshots: the base leg, then the delta leg ----

    fn base_table(rows: i64) -> Arc<Table> {
        let mut a = ColumnBuilder::new("a", DataType::Integer, EncodingPolicy::default());
        let mut s = ColumnBuilder::new("s", DataType::Str, EncodingPolicy::default());
        for i in 0..rows {
            a.append_i64(i);
            s.append_str(Some(["x", "y"][i as usize % 2]));
        }
        Arc::new(Table::new("t", vec![a.finish().column, s.finish().column]))
    }

    /// The token of `s` in column 1's heap.
    fn token_of(t: &Arc<Table>, s: &str) -> i64 {
        let Repr::Token(heap) = ColumnHandle::all(t)[1].field(false).repr else {
            panic!("expected a token repr");
        };
        let token = heap.iter().find(|&(_, v)| v == s).map(|(t, _)| t as i64);
        token.unwrap()
    }

    fn snapshot_over(t: &Arc<Table>, tombstones: Vec<u64>, delta: Vec<Block>) -> Arc<MergedSource> {
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

    /// Every column of `source`, resolved.
    fn every(source: Source) -> Projection {
        source.resolve(&source.column_names()).unwrap()
    }

    fn rows_of(blocks: &[Block], col: usize) -> Vec<i64> {
        blocks.iter().flat_map(|b| b.columns[col].clone()).collect()
    }

    #[test]
    fn empty_delta_matches_plain_scan() {
        let t = base_table(3000);
        let merged = every(Source::from(&snapshot_over(&t, vec![], vec![])));
        let plain = every(Source::from(&t));
        assert_eq!(merged.extent(), plain.extent());
        let merged = drain(merged.scan(false, None, false).0);
        let plain = drain(plain.scan(false, None, false).0);
        assert_eq!(rows_of(&merged, 0), rows_of(&plain, 0));
        assert_eq!(rows_of(&merged, 1), rows_of(&plain, 1));
    }

    #[test]
    fn tombstones_mask_across_a_block_boundary_and_the_delta_follows() {
        let t = base_table(2600); // straddles a block boundary
        let tok_x = token_of(&t, "x");
        // Delta rows in the merged repr: `a` scalar, `s` heap token.
        let delta = vec![Block::new(vec![vec![9000, 9001], vec![tok_x, tok_x]])];
        let tombstones = vec![0, 1, BLOCK_ROWS as u64, 2599];
        let src = snapshot_over(&t, tombstones, delta);
        assert_eq!(src.merged_rows(), 2600 - 4 + 2);
        let p = every(Source::from(&src));
        assert_eq!(p.extent(), (2600, true));
        assert!(!p.reads_runs());
        let (scan, how) = p.scan(false, None, false);
        assert!(how.is_none(), "no predicate, no kernel label");
        let blocks = drain(scan);
        let total: usize = blocks.iter().map(|b| b.len).sum();
        assert_eq!(total as u64, src.merged_rows());
        // First surviving base row is row 2 (0 and 1 tombstoned).
        assert_eq!(blocks[0].columns[0][0], 2);
        assert!(!rows_of(&blocks, 0).contains(&(BLOCK_ROWS as i64)));
        // The last block is the delta leg.
        assert_eq!(blocks.last().unwrap().columns[0], vec![9000, 9001]);
    }

    #[test]
    fn kernel_agrees_with_fallback_with_and_without_tombstones() {
        let t = base_table(2000);
        let tok_y = token_of(&t, "y");
        let delta = vec![Block::new(vec![vec![50, 5000], vec![tok_y, tok_y]])];
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(100));
        for tombstones in [vec![], vec![3u64, 70, 1999]] {
            let p = every(Source::from(&snapshot_over(
                &t,
                tombstones.clone(),
                delta.clone(),
            )));
            let (kernel, how) = p.scan(false, Some((&pred, false)), false);
            assert!(how.unwrap().starts_with("where [kernel="));
            let (fallback, how) = p.scan(false, Some((&pred, true)), false);
            assert_eq!(how.unwrap(), "where [kernel=forced-fallback]");
            let k = rows_of(&drain(kernel), 0);
            assert_eq!(k, rows_of(&drain(fallback), 0), "tombstones={tombstones:?}");
            // Base rows 0..100 minus tombstoned {3, 70}, plus delta row 50.
            let expect = if tombstones.is_empty() { 101 } else { 99 };
            assert_eq!(k.len(), expect);
            assert_eq!(k.last(), Some(&50));
        }
    }

    #[test]
    fn morsel_ranges_partition_the_snapshot_scan() {
        // With and without tombstones, with a pushed predicate and a delta
        // leg: the stored ranges, then the delta leg alone, emit the same
        // blocks as the whole scan — the snapshot half of the morsel
        // byte-identity guarantee.
        let t = base_table(5200);
        let tok_y = token_of(&t, "y");
        let delta = vec![Block::new(vec![vec![40, 7000], vec![tok_y, tok_y]])];
        let pred = Some((&Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(4000)), false));
        let nblocks = 5200usize.div_ceil(BLOCK_ROWS);
        for tombstones in [vec![], vec![3u64, BLOCK_ROWS as u64 + 7, 5199]] {
            let p = every(Source::from(&snapshot_over(
                &t,
                tombstones.clone(),
                delta.clone(),
            )));
            let whole = drain(p.scan(false, pred, false).0);
            for split in [2usize, 3, nblocks] {
                let mut pieces = Vec::new();
                for lo in (0..nblocks).step_by(split) {
                    let hi = (lo + split).min(nblocks);
                    pieces.extend(drain(p.build(false, pred, false, Some((lo, hi)), false).0));
                }
                let delta_leg = p.build(false, pred, false, Some((nblocks, nblocks)), true);
                pieces.extend(drain(delta_leg.0));
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
        fields[0].repr = Repr::DictIndex(Arc::new(merged_dict.clone()), None);
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
        let p = every(Source::from(&src));
        let (scan, _) = p.scan(true, None, false);
        assert!(matches!(scan.schema().fields[0].repr, Repr::Scalar));
        let blocks = drain(scan);
        assert_eq!(blocks.last().unwrap().columns[0], vec![999]);
        let all = rows_of(&blocks, 0);
        assert_eq!(all.len(), 501);
        assert!(all[..500].iter().all(|v| [100, 200, 300].contains(v)));
    }

    #[test]
    fn snapshot_projection_keeps_order_and_values() {
        let t = base_table(10);
        let tok_x = token_of(&t, "x");
        let delta = vec![Block::new(vec![vec![77], vec![tok_x]])];
        let source = Source::from(&snapshot_over(&t, vec![], delta));
        // Project only the string column, then both in reverse order.
        let (mut scan, _) = source.resolve(&["s"]).unwrap().scan(false, None, false);
        assert_eq!(scan.schema().fields.len(), 1);
        let b = scan.next_block().unwrap();
        assert_eq!(
            scan.schema().fields[0].value_of(b.columns[0][0]),
            Value::Str("x".into())
        );
        let (scan, _) = source
            .resolve(&["s", "a"])
            .unwrap()
            .scan(false, None, false);
        let blocks = drain(scan);
        assert_eq!(rows_of(&blocks, 1), (0..10).chain([77]).collect::<Vec<_>>());
        assert_eq!(rows_of(&blocks, 0).last(), Some(&tok_x));
    }
}
