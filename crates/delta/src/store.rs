//! The write-optimized delta buffer and its merge-on-read snapshots.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use tde_encodings::metadata::Knowledge;
use tde_exec::block::Block;
use tde_exec::handle::ColumnHandle;
use tde_exec::merged_scan::MergedSource;
use tde_exec::{Field, Repr, BLOCK_ROWS};
use tde_pager::PagedTable;
use tde_storage::{HeapAccelerator, StringHeap, Table};
use tde_types::sentinel::{null_real, NULL_I64, NULL_TOKEN};
use tde_types::{Collation, DataType, Value, Width};

/// Delta-store configuration.
#[derive(Debug, Clone)]
pub struct DeltaConfig {
    /// Upper bound on bytes the delta buffer may hold; appends that
    /// would exceed it fail with [`io::ErrorKind::OutOfMemory`] — the
    /// caller's cue to compact.
    pub max_bytes: usize,
}

impl Default for DeltaConfig {
    fn default() -> DeltaConfig {
        DeltaConfig {
            max_bytes: 64 << 20,
        }
    }
}

/// The immutable base a [`DeltaTable`] buffers mutations against.
#[derive(Debug, Clone)]
pub enum BaseTable {
    /// An in-memory table.
    Eager(Arc<Table>),
    /// A lazy handle into a v2 paged file.
    Paged(PagedTable),
}

impl BaseTable {
    /// Table name.
    pub fn name(&self) -> &str {
        match self {
            BaseTable::Eager(t) => &t.name,
            BaseTable::Paged(t) => t.name(),
        }
    }

    /// Base row count (no segment I/O on the paged path).
    pub fn row_count(&self) -> u64 {
        match self {
            BaseTable::Eager(t) => t.row_count(),
            BaseTable::Paged(t) => t.row_count(),
        }
    }

    /// `(name, dtype)` pairs in schema order (directory-only on the
    /// paged path).
    pub fn schema(&self) -> Vec<(String, DataType)> {
        match self {
            BaseTable::Eager(t) => t
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.dtype))
                .collect(),
            BaseTable::Paged(t) => t
                .column_names()
                .iter()
                .map(|n| {
                    let d = t.column_dir(n).expect("directory lists the column");
                    (d.name.clone(), d.dtype)
                })
                .collect(),
        }
    }

    /// Full-width column handles for a merge snapshot. The paged path
    /// materializes every column through the buffer pool — the price of
    /// a live delta; compaction (which rebuilds and re-saves the base)
    /// restores projection laziness.
    fn handles(&self) -> io::Result<Vec<ColumnHandle>> {
        match self {
            BaseTable::Eager(t) => Ok(ColumnHandle::all(t)),
            BaseTable::Paged(t) => (0..t.column_names().len())
                .map(|i| t.column_at(i).map(ColumnHandle::Owned))
                .collect(),
        }
    }
}

/// One delta column's buffered values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeltaVals {
    /// Raw widened integers (`Real` travels as `f64` bit patterns),
    /// NULLs as the engine-wide in-band sentinels.
    Ints(Vec<i64>),
    /// Strings, stored contiguously.
    Strs(StrVals),
}

/// Buffered strings, stored contiguously: every string's bytes in one
/// buffer, where each one ends, and which rows are NULL — so a column of
/// strings frees in three deallocations however many rows it holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct StrVals {
    bytes: String,
    ends: Vec<usize>,
    nulls: Vec<bool>,
}

impl StrVals {
    /// Append one string; `None` is NULL.
    pub(crate) fn push(&mut self, s: Option<&str>) {
        self.bytes.push_str(s.unwrap_or_default());
        self.ends.push(self.bytes.len());
        self.nulls.push(s.is_none());
    }

    /// Buffered rows.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Row `i`; `None` is NULL.
    pub(crate) fn get(&self, i: usize) -> Option<&str> {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        (!self.nulls[i]).then(|| &self.bytes[start..self.ends[i]])
    }

    /// Rows `first..`, in order.
    pub(crate) fn iter_from(&self, first: usize) -> impl Iterator<Item = Option<&str>> {
        (first..self.len()).map(|i| self.get(i))
    }

    /// Every row, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<&str>> {
        self.iter_from(0)
    }
}

impl<'a> FromIterator<Option<&'a str>> for StrVals {
    fn from_iter<I: IntoIterator<Item = Option<&'a str>>>(strs: I) -> StrVals {
        let mut vals = StrVals::default();
        strs.into_iter().for_each(|s| vals.push(s));
        vals
    }
}

impl DeltaVals {
    pub(crate) fn empty_for(dtype: DataType) -> DeltaVals {
        match dtype {
            DataType::Str => DeltaVals::Strs(StrVals::default()),
            _ => DeltaVals::Ints(Vec::new()),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            DeltaVals::Ints(v) => v.len(),
            DeltaVals::Strs(v) => v.len(),
        }
    }
}

/// A validated raw value ready to enter the buffer; a string stays
/// borrowed from the row it came in.
enum Raw<'a> {
    Int(i64),
    Str(Option<&'a str>),
}

impl Raw<'_> {
    fn byte_cost(&self) -> usize {
        match self {
            Raw::Int(_) => 8,
            Raw::Str(s) => str_cost(*s),
        }
    }
}

/// What one buffered string counts against the memory budget.
fn str_cost(s: Option<&str>) -> usize {
    s.map_or(8, |s| 24 + s.len())
}

fn type_err(col: &str, dtype: DataType, v: &Value) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("column {col:?} holds {dtype}, got incompatible value {v}"),
    )
}

/// Widen `v` to the column's raw storage form, validating its type.
/// NULL binds to any column as that column's sentinel; integers widen
/// into `Real` columns (the only implicit coercion the engine allows).
fn raw_for<'a>(col: &str, dtype: DataType, v: &'a Value) -> io::Result<Raw<'a>> {
    if matches!(v, Value::Null) {
        return Ok(match dtype {
            DataType::Str => Raw::Str(None),
            DataType::Real => Raw::Int(null_real().to_bits() as i64),
            _ => Raw::Int(NULL_I64),
        });
    }
    Ok(match (dtype, v) {
        (DataType::Str, Value::Str(s)) => Raw::Str(Some(s)),
        (DataType::Real, Value::Real(f)) => Raw::Int(f.to_bits() as i64),
        (DataType::Real, Value::Int(i)) => Raw::Int((*i as f64).to_bits() as i64),
        (DataType::Bool, Value::Bool(b)) => Raw::Int(i64::from(*b)),
        (DataType::Integer, Value::Int(i)) => Raw::Int(*i),
        (DataType::Date, Value::Date(d)) => Raw::Int(*d),
        (DataType::Timestamp, Value::Timestamp(t)) => Raw::Int(*t),
        _ => return Err(type_err(col, dtype, v)),
    })
}

/// Marks a memoized delta value the base does not hold.
const MISS: i64 = i64::MIN;

/// One column's translation state against the current base: the index
/// that maps a buffered value to the base's stored form, and the memo of
/// what it answered for each delta row so far (a base token or code, or
/// [`MISS`]). Delta rows never change once appended, so a snapshot looks
/// up only the rows appended since the last one.
#[derive(Debug)]
enum ColumnIndex {
    /// Stored raw — nothing to translate.
    Scalar,
    /// Heap column: every base heap entry, seeded once. Where the heap
    /// repeats a string the last token is the representative.
    Heap {
        index: HeapAccelerator,
        memo: Vec<i64>,
    },
    /// Array-compressed column: value → code (the last code where the
    /// dictionary repeats a value).
    Dict {
        index: HashMap<i64, i64>,
        memo: Vec<i64>,
    },
}

impl ColumnIndex {
    fn of(field: &Field) -> ColumnIndex {
        match &field.repr {
            Repr::Token(heap) => ColumnIndex::Heap {
                index: HeapAccelerator::from_heap(heap),
                memo: Vec::new(),
            },
            Repr::DictIndex(dict, _) => ColumnIndex::Dict {
                index: dict
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| (v, c as i64))
                    .collect(),
                memo: Vec::new(),
            },
            _ => ColumnIndex::Scalar,
        }
    }
}

/// What a merge snapshot is made of ([`DeltaTable::parts`]).
pub(crate) struct Parts {
    /// The base's column handles, full width.
    pub(crate) handles: Vec<ColumnHandle>,
    /// The merged fields: base reprs extended by the delta's new values,
    /// claims widened.
    pub(crate) fields: Vec<Field>,
    /// Each column's live delta rows, in the merged representation.
    pub(crate) delta: Vec<Vec<i64>>,
    /// Whether building these parts built the per-base index.
    pub(crate) index_built: bool,
}

/// The per-base index of a [`DeltaTable`]: built by the first snapshot
/// with delta rows to translate, dropped whenever the base changes.
#[derive(Debug, Default)]
struct BaseIndex {
    columns: Option<Vec<ColumnIndex>>,
    /// Builds so far, over every base.
    builds: u64,
}

/// An append-friendly row/column hybrid buffer over one base table.
///
/// Row-id space: ids `0..base_rows` address base rows; id
/// `base_rows + i` addresses the `i`-th appended delta row (ids stay
/// stable across deletions — a deleted delta row keeps its slot until
/// compaction renumbers everything).
#[derive(Debug)]
pub struct DeltaTable {
    pub(crate) base: BaseTable,
    pub(crate) schema: Vec<(String, DataType)>,
    pub(crate) base_rows: u64,
    pub(crate) cols: Vec<DeltaVals>,
    /// Liveness per delta row; `false` marks a deleted append.
    pub(crate) live: Vec<bool>,
    dead_rows: usize,
    pub(crate) tombstones: BTreeSet<u64>,
    bytes: usize,
    config: DeltaConfig,
    index: parking_lot::Mutex<BaseIndex>,
}

impl DeltaTable {
    /// A fresh, empty delta over `base`.
    pub fn new(base: BaseTable) -> DeltaTable {
        DeltaTable::with_config(base, DeltaConfig::default())
    }

    /// As [`DeltaTable::new`] with an explicit memory budget.
    pub fn with_config(base: BaseTable, config: DeltaConfig) -> DeltaTable {
        let schema = base.schema();
        let base_rows = base.row_count();
        let cols = schema
            .iter()
            .map(|&(_, dtype)| DeltaVals::empty_for(dtype))
            .collect();
        DeltaTable {
            base,
            schema,
            base_rows,
            cols,
            live: Vec::new(),
            dead_rows: 0,
            tombstones: BTreeSet::new(),
            bytes: 0,
            config,
            index: parking_lot::Mutex::default(),
        }
    }

    /// Convenience: a delta over an in-memory table.
    pub fn from_eager(table: Arc<Table>) -> DeltaTable {
        DeltaTable::new(BaseTable::Eager(table))
    }

    /// Convenience: a delta over a paged table.
    pub fn from_paged(table: PagedTable) -> DeltaTable {
        DeltaTable::new(BaseTable::Paged(table))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.base.name()
    }

    /// The base this delta buffers against.
    pub fn base(&self) -> &BaseTable {
        &self.base
    }

    /// `(name, dtype)` pairs in schema order.
    pub fn schema(&self) -> &[(String, DataType)] {
        &self.schema
    }

    /// Base row count.
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// Live (not-deleted) appended rows.
    pub fn delta_rows(&self) -> u64 {
        (self.live.len() - self.dead_rows) as u64
    }

    /// Tombstoned base rows.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Logical row count a merged scan produces.
    pub fn merged_rows(&self) -> u64 {
        self.base_rows - self.tombstone_count() + self.delta_rows()
    }

    /// Approximate bytes the buffer holds.
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// How many times this buffer built its base index: once per base
    /// that a snapshot had delta rows to translate against.
    pub fn base_index_builds(&self) -> u64 {
        self.index.lock().builds
    }

    /// Whether a merged scan would be identical to a base scan.
    pub fn is_clean(&self) -> bool {
        self.delta_rows() == 0 && self.tombstones.is_empty()
    }

    /// Shift the process-wide delta gauges by the given amounts.
    fn meter(&self, rows: i64, bytes: i64, tombstones: i64) {
        let m = tde_obs::metrics::delta_metrics();
        m.rows.add(rows);
        m.bytes.add(bytes);
        m.tombstones.add(tombstones);
    }

    /// Append `rows` (one `Vec<Value>` per row, schema order). The whole
    /// batch is validated — width, per-column type, NULL widening — and
    /// checked against the memory budget before anything mutates, so a
    /// failed append leaves the buffer untouched.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> io::Result<()> {
        let (staged, bytes) = self.stage(rows)?;
        self.push_staged(staged, rows.len(), bytes);
        Ok(())
    }

    /// Validate and widen `rows`, and cost them against the memory budget
    /// — every way an append can fail, with nothing changed yet. Returns
    /// the raw values, row after row, and their bytes.
    fn stage<'a>(&self, rows: &'a [Vec<Value>]) -> io::Result<(Vec<Raw<'a>>, usize)> {
        let ncols = self.schema.len();
        let mut staged: Vec<Raw<'a>> = Vec::with_capacity(rows.len() * ncols);
        let mut add_bytes = 0usize;
        for row in rows {
            if row.len() != ncols {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "row has {} value(s), table {:?} has {ncols} column(s)",
                        row.len(),
                        self.name()
                    ),
                ));
            }
            for (v, (name, dtype)) in row.iter().zip(&self.schema) {
                let raw = raw_for(name, *dtype, v)?;
                add_bytes += raw.byte_cost();
                staged.push(raw);
            }
            add_bytes += 1;
        }
        if self.bytes + add_bytes > self.config.max_bytes {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!(
                    "delta buffer for {:?} would exceed its {} byte budget \
                     ({} held, {add_bytes} incoming) — compact first",
                    self.name(),
                    self.config.max_bytes,
                    self.bytes
                ),
            ));
        }
        Ok((staged, add_bytes))
    }

    /// Buffer the `n` rows [`DeltaTable::stage`] accepted, `add_bytes` in
    /// all.
    fn push_staged(&mut self, staged: Vec<Raw>, n: usize, add_bytes: usize) {
        let ncols = self.cols.len();
        for (i, raw) in staged.into_iter().enumerate() {
            match (&mut self.cols[i % ncols], raw) {
                (DeltaVals::Ints(v), Raw::Int(x)) => v.push(x),
                (DeltaVals::Strs(v), Raw::Str(s)) => v.push(s),
                _ => unreachable!("raw_for matched the column type"),
            }
        }
        self.live.resize(self.live.len() + n, true);
        let n = n as i64;
        self.bytes += add_bytes;
        self.meter(n, add_bytes as i64, 0);
        tde_obs::metrics::delta_metrics().appends.add(n as u64);
    }

    /// Delete rows by id (base or delta row-id space). Deleting an
    /// already-deleted row is a no-op; an out-of-range id fails the
    /// whole call before anything mutates. Returns the number of rows
    /// newly deleted.
    pub fn delete(&mut self, row_ids: &[u64]) -> io::Result<u64> {
        let upper = self.base_rows + self.live.len() as u64;
        if let Some(&bad) = row_ids.iter().find(|&&id| id >= upper) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "row id {bad} out of range for {:?} ({upper} addressable row(s))",
                    self.name()
                ),
            ));
        }
        let mut new_tombstones = 0i64;
        let mut dead_delta = 0i64;
        for &id in row_ids {
            if id < self.base_rows {
                if self.tombstones.insert(id) {
                    new_tombstones += 1;
                }
            } else {
                let slot = (id - self.base_rows) as usize;
                if std::mem::replace(&mut self.live[slot], false) {
                    self.dead_rows += 1;
                    dead_delta += 1;
                }
            }
        }
        self.meter(-dead_delta, 0, new_tombstones);
        let deleted = (new_tombstones + dead_delta) as u64;
        tde_obs::metrics::delta_metrics().deletes.add(deleted);
        Ok(deleted)
    }

    /// Update = delete the old rows, append the new images. `row_ids`
    /// and `rows` must pair up. The new images are staged — validated and
    /// checked against the memory budget — and the ids range-checked
    /// before anything changes, so a failed update deletes nothing.
    pub fn update(&mut self, row_ids: &[u64], rows: &[Vec<Value>]) -> io::Result<()> {
        if row_ids.len() != rows.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "update pairs {} row id(s) with {} replacement row(s)",
                    row_ids.len(),
                    rows.len()
                ),
            ));
        }
        let (staged, bytes) = self.stage(rows)?;
        self.delete(row_ids)?;
        self.push_staged(staged, rows.len(), bytes);
        Ok(())
    }

    /// Restore persisted tombstones (wire decode already validated
    /// range and order).
    pub(crate) fn restore_tombstones(&mut self, ts: BTreeSet<u64>) {
        let n = ts.len() as i64;
        self.tombstones = ts;
        self.meter(0, 0, n);
    }

    /// Restore persisted delta columns (all rows live — the wire format
    /// only persists live rows).
    pub(crate) fn restore_delta(&mut self, cols: Vec<DeltaVals>) {
        let rows = cols.first().map_or(0, DeltaVals::len);
        let bytes: usize = cols
            .iter()
            .map(|c| match c {
                DeltaVals::Ints(v) => v.len() * 8,
                DeltaVals::Strs(v) => v.iter().map(str_cost).sum(),
            })
            .sum::<usize>()
            + rows;
        self.cols = cols;
        self.drop_index();
        self.live = vec![true; rows];
        self.dead_rows = 0;
        self.bytes = bytes;
        self.meter(rows as i64, bytes as i64, 0);
    }

    /// Swap in a new base (after an atomic re-save). The replacement
    /// must describe the same logical table.
    pub(crate) fn rebind(&mut self, base: BaseTable) {
        assert_eq!(base.row_count(), self.base_rows, "rebind changed rows");
        assert_eq!(base.schema(), self.schema, "rebind changed schema");
        self.base = base;
        self.drop_index();
    }

    /// Forget the per-base index (the base or the buffered rows it
    /// memoizes are being replaced); the next snapshot rebuilds it.
    pub(crate) fn drop_index(&mut self) {
        self.index.get_mut().columns = None;
    }

    /// The *base* table, eager: an eager base is shared, not copied; a
    /// paged one is loaded whole (save path — the delta is persisted
    /// separately, as aux payloads).
    pub(crate) fn materialize_base(&self) -> io::Result<Arc<Table>> {
        match &self.base {
            BaseTable::Eager(t) => Ok(Arc::clone(t)),
            BaseTable::Paged(t) => t.load_all().map(Arc::new),
        }
    }

    /// Reset the buffer after a compaction drained it into `base`.
    pub(crate) fn reset_onto(&mut self, base: BaseTable) {
        self.meter(
            -(self.delta_rows() as i64),
            -(self.bytes as i64),
            -(self.tombstones.len() as i64),
        );
        self.schema = base.schema();
        self.base_rows = base.row_count();
        self.base = base;
        self.drop_index();
        self.cols = self
            .schema
            .iter()
            .map(|&(_, dtype)| DeltaVals::empty_for(dtype))
            .collect();
        self.live.clear();
        self.dead_rows = 0;
        self.tombstones.clear();
        self.bytes = 0;
    }

    /// Freeze the buffer into an immutable merge snapshot, which a query
    /// scans through `tde_exec::Source::from(&snapshot)`.
    ///
    /// Per column this (a) translates buffered values into the base's
    /// stored representation — heap tokens or dictionary codes — through
    /// the per-base index (built by the first snapshot with delta rows,
    /// dropped when the base changes), extending a *clone* of the
    /// heap/dictionary only when the delta introduces values the base
    /// never saw (base tokens/codes stay valid: both structures are
    /// append-only), and (b) widens every metadata claim the delta may
    /// have falsified, so the optimizer never fetch-joins or run-folds
    /// through a lie.
    pub fn snapshot(&self) -> io::Result<Arc<MergedSource>> {
        let t0 = Instant::now();
        let Parts {
            handles,
            fields,
            delta: delta_cols,
            index_built,
        } = self.parts()?;
        let live_rows = self.delta_rows() as usize;
        let mut blocks = Vec::new();
        let mut at = 0usize;
        while at < live_rows {
            let end = (at + BLOCK_ROWS).min(live_rows);
            blocks.push(Block::new(
                delta_cols.iter().map(|c| c[at..end].to_vec()).collect(),
            ));
            at = end;
        }
        let source = Arc::new(MergedSource::new(
            self.name().to_owned(),
            handles,
            fields,
            self.base_rows,
            Arc::new(self.tombstones.iter().copied().collect()),
            blocks,
        ));
        self.record_snapshot(index_built, t0);
        Ok(source)
    }

    /// Report a snapshot begun at `t0` — a merge snapshot's or a
    /// compaction's — as an [`tde_obs::Event::DeltaSnapshot`]. Returns
    /// its duration.
    pub(crate) fn record_snapshot(&self, index_built: bool, t0: Instant) -> u64 {
        let nanos = t0.elapsed().as_nanos() as u64;
        tde_obs::emit(|| tde_obs::Event::DeltaSnapshot {
            table: self.name().to_owned(),
            delta_rows: self.delta_rows(),
            tombstones: self.tombstone_count(),
            index_built,
            dur_ns: nanos,
        });
        nanos
    }

    /// What a snapshot is made of — the base's column handles, the
    /// merged fields and each column's live delta rows in the merged
    /// representation — translated through the per-base index (built
    /// here when there are delta rows and no index yet).
    pub(crate) fn parts(&self) -> io::Result<Parts> {
        let handles = self.base.handles()?;
        let mut fields: Vec<Field> = handles.iter().map(|h| h.field(false)).collect();
        let live_rows = self.delta_rows() as usize;
        let mut index = self.index.lock();
        let index_built = live_rows > 0 && index.columns.is_none();
        if index_built {
            index.columns = Some(fields.iter().map(ColumnIndex::of).collect());
            index.builds += 1;
        }
        let mut delta = Vec::with_capacity(fields.len());
        for (c, field) in fields.iter_mut().enumerate() {
            let (raws, extended) = match &mut index.columns {
                Some(columns) if live_rows > 0 => {
                    self.project_column(&self.cols[c], field, &mut columns[c])?
                }
                _ => (Vec::new(), false),
            };
            self.widen_metadata(field, &raws, extended);
            delta.push(raws);
        }
        Ok(Parts {
            handles,
            fields,
            delta,
            index_built,
        })
    }

    /// Translate one buffered column's live rows into the merged
    /// representation, and say whether that extended the base's heap or
    /// dictionary. Rows appended since the last snapshot are looked up in
    /// `index` once and memoized; a value the base lacks copies the base
    /// heap/dictionary into an overlay at its first live use, and new
    /// values are appended there in first-appearance order over the live
    /// rows, deduplicated among themselves.
    fn project_column(
        &self,
        col: &DeltaVals,
        field: &mut Field,
        index: &mut ColumnIndex,
    ) -> io::Result<(Vec<i64>, bool)> {
        match (col, &field.repr, index) {
            (DeltaVals::Ints(vals), Repr::Scalar, ColumnIndex::Scalar) => {
                Ok((self.map_live(vals.iter(), |&v| v), false))
            }
            (
                DeltaVals::Ints(vals),
                Repr::DictIndex(dict, _),
                ColumnIndex::Dict { index, memo },
            ) => {
                let seen = memo.len();
                memo.extend(vals[seen..].iter().map(|v| *index.get(v).unwrap_or(&MISS)));
                let mut overlay: Option<(Vec<i64>, HashMap<i64, i64>)> = None;
                let raws = self.map_live(vals.iter().zip(memo.iter()), |(&v, &code)| {
                    if code != MISS {
                        return code;
                    }
                    let (merged, fresh) =
                        overlay.get_or_insert_with(|| (dict.to_vec(), HashMap::new()));
                    *fresh.entry(v).or_insert_with(|| {
                        merged.push(v);
                        (merged.len() - 1) as i64
                    })
                });
                let extended = overlay.is_some();
                if let Some((merged, _)) = overlay {
                    field.repr = Repr::DictIndex(Arc::new(merged), None);
                }
                Ok((raws, extended))
            }
            (DeltaVals::Strs(vals), Repr::Token(heap), ColumnIndex::Heap { index, memo }) => {
                let seen = memo.len();
                memo.extend(vals.iter_from(seen).map(|s| match s {
                    None => NULL_TOKEN as i64,
                    Some(s) => index.lookup(heap, s).map_or(MISS, |t| t as i64),
                }));
                let mut overlay: Option<(StringHeap, HeapAccelerator)> = None;
                let raws = self.map_live(vals.iter().zip(memo.iter()), |(s, &token)| {
                    if token != MISS {
                        return token;
                    }
                    let s = s.expect("a NULL is never a miss");
                    let (merged, fresh) = overlay.get_or_insert_with(|| {
                        (
                            heap.as_ref().clone(),
                            HeapAccelerator::new(Collation::Binary),
                        )
                    });
                    fresh.intern(merged, s) as i64
                });
                let extended = overlay.is_some();
                if let Some((merged, _)) = overlay {
                    field.repr = Repr::Token(Arc::new(merged));
                }
                Ok((raws, extended))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "column {:?}: buffered kind does not match base representation",
                    field.name
                ),
            )),
        }
    }

    /// `f` of every live delta row's item of `rows`, in append order.
    fn map_live<T>(&self, rows: impl Iterator<Item = T>, mut f: impl FnMut(T) -> i64) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.delta_rows() as usize);
        for (v, &live) in rows.zip(&self.live) {
            if live {
                out.push(f(v));
            }
        }
        out
    }

    /// Widen `field.metadata` for the live delta rows `raws` (already
    /// in the stored domain), an `extended` heap or dictionary, and the
    /// tombstone set. Claims are only ever *weakened* to `Unknown` —
    /// never flipped to `False`, which would itself be a new claim the
    /// fuzzer's claim-verification oracle could catch lying.
    fn widen_metadata(&self, field: &mut Field, raws: &[i64], extended: bool) {
        let md = &mut field.metadata;
        if extended {
            // New entries land at the end of the heap in insertion order:
            // a sorted heap is almost certainly sorted no longer.
            md.sorted_heap_tokens = Knowledge::Unknown;
        }
        if !raws.is_empty() {
            md.sorted_asc = Knowledge::Unknown;
            md.dense = Knowledge::Unknown;
            md.unique = Knowledge::Unknown;
            md.cardinality = None;
            md.width = Width::W8;
            // min/max claims bound every stored raw, NULL sentinels
            // included — the builder's load statistics do the same, and
            // the hash-strategy key packing banks on the envelope being
            // total (an out-of-envelope sentinel would index a direct
            // table out of bounds). Dictionary claims live in the
            // *value* domain: resolve codes through the (possibly
            // merged) dictionary before widening.
            let null_raw = match (&field.repr, field.dtype) {
                (Repr::Token(_), _) => NULL_TOKEN as i64,
                (_, DataType::Real) => null_real().to_bits() as i64,
                _ => NULL_I64,
            };
            let dict = match &field.repr {
                Repr::DictIndex(d, _) => Some(Arc::clone(d)),
                _ => None,
            };
            for &r in raws {
                let v = match &dict {
                    Some(d) => d[r as usize],
                    None => r,
                };
                if v == null_raw {
                    md.has_nulls = Knowledge::True;
                }
                md.min = md.min.map(|m| m.min(v));
                md.max = md.max.map(|m| m.max(v));
            }
        }
        if !self.tombstones.is_empty() {
            // Deletion preserves sortedness and uniqueness and can only
            // shrink the value envelope (min/max stay valid bounds) —
            // but a dense range with holes is dense no more.
            md.dense = Knowledge::Unknown;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tde_exec::{count_rows, drain, BoxOp, Source};
    use tde_storage::{ColumnBuilder, EncodingPolicy};

    /// Every column of a snapshot, scanned.
    fn scan_all(src: &Arc<MergedSource>, expand: bool) -> BoxOp {
        let source = Source::from(src);
        let every = source.resolve(&source.column_names()).unwrap();
        every.scan(expand, None, false).0
    }

    /// Every row of a snapshot, as values, in scan order.
    pub(crate) fn merged_rows(src: &Arc<MergedSource>) -> Vec<Vec<Value>> {
        let mut scan = scan_all(src, false);
        let schema = scan.schema().clone();
        let mut rows = Vec::new();
        while let Some(b) = scan.next_block() {
            for r in 0..b.len {
                let row = schema.fields.iter().zip(&b.columns);
                rows.push(row.map(|(f, c)| f.value_of(c[r])).collect());
            }
        }
        rows
    }

    pub(crate) fn people(rows: i64) -> Arc<Table> {
        let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
        let mut name = ColumnBuilder::new("name", DataType::Str, EncodingPolicy::default());
        let mut score = ColumnBuilder::new("score", DataType::Real, EncodingPolicy::default());
        for i in 0..rows {
            id.append_i64(i);
            name.append_str(Some(["ann", "bob", "cat"][i as usize % 3]));
            score.append_f64(i as f64 / 2.0);
        }
        Arc::new(Table::new(
            "people",
            vec![
                id.finish().column,
                name.finish().column,
                score.finish().column,
            ],
        ))
    }

    fn row(id: i64, name: Option<&str>, score: Option<f64>) -> Vec<Value> {
        vec![
            Value::Int(id),
            name.map_or(Value::Null, |s| Value::Str(s.into())),
            score.map_or(Value::Null, Value::Real),
        ]
    }

    #[test]
    fn append_delete_update_roundtrip() {
        let mut dt = DeltaTable::from_eager(people(100));
        assert!(dt.is_clean());
        dt.append_rows(&[row(100, Some("dee"), Some(1.5)), row(101, None, None)])
            .unwrap();
        assert_eq!(dt.delta_rows(), 2);
        assert_eq!(dt.delete(&[0, 5, 100]).unwrap(), 3); // 2 base + delta row 100
        assert_eq!(dt.tombstone_count(), 2);
        assert_eq!(dt.delta_rows(), 1);
        assert_eq!(dt.delete(&[5]).unwrap(), 0); // idempotent
        assert_eq!(dt.merged_rows(), 100 - 2 + 1);
        dt.update(&[3], &[row(300, Some("eve"), Some(9.0))])
            .unwrap();
        assert_eq!(dt.tombstone_count(), 3);
        assert_eq!(dt.delta_rows(), 2);
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let mut dt = DeltaTable::from_eager(people(10));
        // Wrong width.
        assert!(dt.append_rows(&[vec![Value::Int(1)]]).is_err());
        // Wrong type.
        let bad = vec![Value::Str("x".into()), Value::Int(2), Value::Real(0.0)];
        assert!(dt.append_rows(&[bad]).is_err());
        // A failed batch leaves nothing behind.
        assert_eq!(dt.delta_rows(), 0);
        assert_eq!(dt.buffered_bytes(), 0);
        // Out-of-range delete fails whole.
        assert!(dt.delete(&[3, 10_000]).is_err());
        assert_eq!(dt.tombstone_count(), 0);
    }

    #[test]
    fn memory_budget_bounds_appends() {
        let mut dt =
            DeltaTable::with_config(BaseTable::Eager(people(10)), DeltaConfig { max_bytes: 200 });
        let r = row(1, Some("a-long-enough-string"), Some(2.0));
        dt.append_rows(std::slice::from_ref(&r)).unwrap();
        let err = loop {
            match dt.append_rows(std::slice::from_ref(&r)) {
                Ok(()) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        assert!(dt.buffered_bytes() <= 200);
    }

    #[test]
    fn an_update_over_the_budget_changes_nothing() {
        let mut dt =
            DeltaTable::with_config(BaseTable::Eager(people(10)), DeltaConfig { max_bytes: 120 });
        dt.append_rows(&[row(10, Some("ann"), Some(1.0))]).unwrap();
        dt.delete(&[4]).unwrap();
        let before = (
            dt.tombstone_count(),
            dt.merged_rows(),
            dt.buffered_bytes(),
            merged_rows(&dt.snapshot().unwrap()),
        );
        let long = "a replacement image far too long for what is left of the budget";
        let err = dt
            .update(
                &[2, 10],
                &[row(2, Some(long), None), row(10, Some(long), None)],
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        let after = (
            dt.tombstone_count(),
            dt.merged_rows(),
            dt.buffered_bytes(),
            merged_rows(&dt.snapshot().unwrap()),
        );
        assert_eq!(before, after, "a failed update deleted its old rows");
        // Within the budget the same update applies whole.
        dt.update(&[2], &[row(2, Some("bob"), None)]).unwrap();
        assert_eq!(dt.tombstone_count(), 2);
        assert_eq!(dt.merged_rows(), 10 - 2 + 2);
    }

    #[test]
    fn snapshot_merges_and_extends_domains() {
        let mut dt = DeltaTable::from_eager(people(50));
        dt.append_rows(&[
            row(50, Some("zed"), Some(4.5)), // "zed" is new to the heap
            row(51, Some("ann"), None),      // "ann" reuses a base token
        ])
        .unwrap();
        dt.delete(&[0, 49]).unwrap();
        let src = dt.snapshot().unwrap();
        assert_eq!(src.merged_rows(), 50 - 2 + 2);
        // The merged heap must resolve both old and new strings.
        let names: Vec<Value> = merged_rows(&src)
            .into_iter()
            .map(|r| r[1].clone())
            .collect();
        assert_eq!(names.len(), 50);
        assert_eq!(names[0], Value::Str("bob".into())); // row 0 tombstoned
        assert_eq!(names[48], Value::Str("zed".into()));
        assert_eq!(names[49], Value::Str("ann".into()));
        // Claims the delta falsified are widened, never asserted.
        for f in src.fields() {
            assert_ne!(f.metadata.dense, Knowledge::True);
        }
    }

    #[test]
    fn snapshot_of_clean_delta_is_base_scan() {
        let t = people(500);
        let dt = DeltaTable::from_eager(Arc::clone(&t));
        let src = dt.snapshot().unwrap();
        assert_eq!(count_rows(scan_all(&src, false)), t.row_count());
    }

    #[test]
    fn dictionary_column_extends_on_new_value() {
        let codes: Vec<i64> = (0..400i64).map(|i| i % 2).collect();
        let r = tde_encodings::dynamic::encode_all(&codes, Width::W8, false);
        let col = tde_storage::Column {
            name: "d".into(),
            dtype: DataType::Integer,
            data: r.stream,
            compression: tde_storage::Compression::Array {
                dictionary: vec![10, 20],
                sorted: true,
            },
            metadata: tde_encodings::ColumnMetadata::unknown(),
        };
        let mut dt = DeltaTable::from_eager(Arc::new(Table::new("t", vec![col])));
        dt.append_rows(&[
            vec![Value::Int(20)],
            vec![Value::Int(77)],
            vec![Value::Null],
        ])
        .unwrap();
        let src = dt.snapshot().unwrap();
        let blocks = drain(scan_all(&src, true)); // expand to scalars
        let all: Vec<i64> = blocks.iter().flat_map(|b| b.columns[0].clone()).collect();
        assert_eq!(all.len(), 403);
        assert_eq!(&all[400..], &[20, 77, NULL_I64]);
    }
    // ---- The per-base index against the translation it replaced ----

    /// The delta side of a snapshot: the raw (stored-domain) values of
    /// column `col` for the live delta rows, in append order.
    fn delta_raws(src: &Arc<MergedSource>, col: usize) -> Vec<i64> {
        let blocks = drain(scan_all(src, false));
        let all: Vec<i64> = blocks
            .iter()
            .flat_map(|b| b.columns[col].iter().copied())
            .collect();
        all[all.len() - src.delta_rows() as usize..].to_vec()
    }

    /// The heap translation snapshots did before the per-base index, kept
    /// as the oracle: a map over every base entry (so the last of a
    /// repeated entry wins), a linear list of new strings, and a
    /// `from_bytes` copy of the heap on the first one. Returns the tokens
    /// and the overlay heap's bytes.
    fn reference_tokens(heap: &StringHeap, vals: &[Option<&str>]) -> (Vec<i64>, Option<Vec<u8>>) {
        let token_of: HashMap<&str, i64> = heap.iter().map(|(t, s)| (s, t as i64)).collect();
        let mut overlay: Option<StringHeap> = None;
        let mut fresh: Vec<(String, i64)> = Vec::new();
        let mut raws = Vec::new();
        for &s in vals {
            let Some(s) = s else {
                raws.push(NULL_TOKEN as i64);
                continue;
            };
            if let Some(&t) = token_of.get(s) {
                raws.push(t);
            } else if let Some((_, t)) = fresh.iter().find(|(f, _)| f == s) {
                raws.push(*t);
            } else {
                let h = overlay.get_or_insert_with(|| {
                    StringHeap::from_bytes(heap.as_bytes().to_vec()).unwrap()
                });
                let t = h.append(s) as i64;
                fresh.push((s.to_owned(), t));
                raws.push(t);
            }
        }
        (raws, overlay.map(|h| h.as_bytes().to_vec()))
    }

    /// The dictionary translation snapshots did before the per-base
    /// index: a value → code map over the whole dictionary per snapshot.
    fn reference_codes(dict: &[i64], vals: &[i64]) -> (Vec<i64>, Option<Vec<i64>>) {
        let mut code_of: HashMap<i64, i64> = dict
            .iter()
            .enumerate()
            .map(|(c, &v)| (v, c as i64))
            .collect();
        let mut merged: Option<Vec<i64>> = None;
        let raws = vals
            .iter()
            .map(|&v| {
                *code_of.entry(v).or_insert_with(|| {
                    let m = merged.get_or_insert_with(|| dict.to_vec());
                    m.push(v);
                    (m.len() - 1) as i64
                })
            })
            .collect();
        (raws, merged)
    }

    /// Snapshot `dt` and check heap column `col` token for token and
    /// byte for byte against [`reference_tokens`] over its current base.
    fn assert_heap_translation(dt: &DeltaTable, col: usize) -> Arc<MergedSource> {
        let Repr::Token(base_heap) = dt.base.handles().unwrap()[col].field(false).repr else {
            panic!("column {col} is not a heap column");
        };
        let DeltaVals::Strs(vals) = &dt.cols[col] else {
            panic!("column {col} buffers no strings");
        };
        let live: Vec<Option<&str>> = vals
            .iter()
            .zip(&dt.live)
            .filter(|(_, &l)| l)
            .map(|(s, _)| s)
            .collect();
        let (want, want_heap) = reference_tokens(&base_heap, &live);
        let src = dt.snapshot().unwrap();
        assert_eq!(delta_raws(&src, col), want, "tokens");
        match (&src.fields()[col].repr, want_heap) {
            (Repr::Token(h), Some(bytes)) => assert_eq!(h.as_bytes(), &bytes[..], "overlay bytes"),
            (Repr::Token(h), None) => assert_eq!(h.as_bytes(), base_heap.as_bytes(), "no overlay"),
            (other, _) => panic!("merged repr {other:?}"),
        }
        src
    }

    /// `i`-th string of a delta batch: base strings, hundreds of new ones
    /// (repeating within and across batches), `""` and NULL.
    fn mixed_str(batch: u64, i: u64) -> Option<String> {
        let h = (batch * 7919 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        match h % 8 {
            0 => None,
            1 => Some(String::new()),
            2 | 3 => Some(["ann", "bob", "cat", "dup"][(h / 8) as usize % 4].to_owned()),
            _ => Some(format!("new{}", (h / 8) % 300)),
        }
    }

    /// One heap column built with the accelerator off, so its heap repeats
    /// entries (`"dup"` three times, `""` twice).
    fn repeating_heap_table() -> Arc<Table> {
        let policy = EncodingPolicy {
            acceleration: false,
            sort_heaps: false,
            ..EncodingPolicy::default()
        };
        let mut name = ColumnBuilder::new("name", DataType::Str, policy);
        for s in ["dup", "ann", "dup", "", "bob", "cat", "dup", ""] {
            name.append_str(Some(s));
        }
        Arc::new(Table::new("rep", vec![name.finish().column]))
    }

    #[test]
    fn heap_translation_matches_the_per_snapshot_reference() {
        let mut dt = DeltaTable::from_eager(repeating_heap_table());
        for batch in 0..6u64 {
            let rows: Vec<Vec<Value>> = (0..150)
                .map(|i| vec![mixed_str(batch, i).map_or(Value::Null, Value::Str)])
                .collect();
            dt.append_rows(&rows).unwrap();
            let first = dt.base_rows() + batch * 150;
            dt.delete(&[first + 3, first + 40, batch]).unwrap();
            assert_heap_translation(&dt, 0);
        }
        assert_eq!(dt.base_index_builds(), 1);
    }

    #[test]
    fn repeated_heap_entries_resolve_to_the_last_token() {
        let table = repeating_heap_table();
        let heap = Arc::clone(table.columns[0].heap().unwrap());
        assert_eq!(heap.len(), 8, "built with the accelerator off");
        let last = |want: &str| {
            heap.iter()
                .filter(|&(_, s)| s == want)
                .map(|(t, _)| t as i64)
                .last()
                .unwrap()
        };
        let mut dt = DeltaTable::from_eager(table);
        dt.append_rows(&[
            vec![Value::Str("dup".into())],
            vec![Value::Str(String::new())],
            vec![Value::Str("ann".into())],
        ])
        .unwrap();
        let src = assert_heap_translation(&dt, 0);
        assert_eq!(delta_raws(&src, 0), [last("dup"), last(""), last("ann")]);
    }

    #[test]
    fn a_string_new_before_compaction_resolves_to_the_new_base_after_it() {
        let mut dt = DeltaTable::from_eager(people(50));
        dt.append_rows(&[row(50, Some("zed"), None), row(51, Some("ann"), None)])
            .unwrap();
        assert_heap_translation(&dt, 1);
        let table = dt.compact().unwrap();
        // "zed" is a base string now: the index the first snapshot built
        // must not answer for the new base.
        dt.append_rows(&[row(52, Some("zed"), None), row(53, Some("yan"), None)])
            .unwrap();
        let src = assert_heap_translation(&dt, 1);
        let heap = table.column("name").unwrap().heap().unwrap();
        let zed = heap.iter().find(|&(_, s)| s == "zed").unwrap().0 as i64;
        assert_eq!(delta_raws(&src, 1)[0], zed);
        assert_eq!(dt.base_index_builds(), 2);
    }

    #[test]
    fn the_index_is_rebuilt_after_save_rebinds_the_base() {
        use crate::compact::DeltaExtract;
        let dir = std::env::temp_dir().join(format!("tde-delta-rebind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extract.tde2");
        let mut db = tde_storage::Database::new();
        db.add_table((*people(40)).clone());
        tde_pager::save_v2(&db, &path).unwrap();

        let mut ex = DeltaExtract::open(&path).unwrap();
        ex.delta_mut("people")
            .unwrap()
            .append_rows(&[row(40, Some("zed"), None), row(41, Some("bob"), None)])
            .unwrap();
        assert_heap_translation(ex.delta("people").unwrap(), 1);
        ex.save().unwrap();
        let dt = ex.delta_mut("people").unwrap();
        dt.append_rows(&[row(42, Some("zed"), None), row(43, Some("amy"), None)])
            .unwrap();
        let src = assert_heap_translation(dt, 1);
        let raws = delta_raws(&src, 1);
        assert_eq!(raws[0], raws[2], "one token per new string");
        assert_eq!(dt.base_index_builds(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dictionary_codes_extend_like_the_per_snapshot_reference() {
        let dictionary = vec![10, 20, 10, NULL_I64 + 1];
        let codes: Vec<i64> = (0..300i64).map(|i| i % 4).collect();
        let r = tde_encodings::dynamic::encode_all(&codes, Width::W8, false);
        let col = tde_storage::Column {
            name: "d".into(),
            dtype: DataType::Integer,
            data: r.stream,
            compression: tde_storage::Compression::Array {
                dictionary: dictionary.clone(),
                sorted: false,
            },
            metadata: tde_encodings::ColumnMetadata::unknown(),
        };
        let mut dt = DeltaTable::from_eager(Arc::new(Table::new("t", vec![col])));
        let mut appended: Vec<i64> = Vec::new();
        for batch in 0..4i64 {
            let vals: Vec<Value> = (0..90i64)
                .map(|i| match (i * 31 + batch * 7) % 9 {
                    0 => Value::Null,
                    1 | 2 => Value::Int(10),
                    3 => Value::Int(20),
                    k => Value::Int(100 + (i * k + batch) % 40),
                })
                .collect();
            appended.extend(vals.iter().map(|v| match v {
                Value::Int(x) => *x,
                _ => NULL_I64,
            }));
            dt.append_rows(&vals.into_iter().map(|v| vec![v]).collect::<Vec<_>>())
                .unwrap();
            let (want, want_dict) = reference_codes(&dictionary, &appended);
            let src = dt.snapshot().unwrap();
            assert_eq!(delta_raws(&src, 0), want, "codes after batch {batch}");
            let Repr::DictIndex(got_dict, _) = &src.fields()[0].repr else {
                panic!("dictionary column lost its dictionary");
            };
            assert_eq!(**got_dict, want_dict.unwrap_or_else(|| dictionary.clone()));
        }
        assert_eq!(dt.base_index_builds(), 1);
    }

    /// The CI scaling check, as a count rather than a timing: N snapshots
    /// of one base build its index once, a snapshot with nothing to
    /// translate builds none, and compaction's new base gets a new one.
    #[test]
    fn the_base_index_is_built_once_per_base() {
        let mut dt = DeltaTable::from_eager(people(200));
        dt.delete(&[1, 2, 3]).unwrap();
        dt.snapshot().unwrap();
        assert_eq!(dt.base_index_builds(), 0, "tombstones alone need no index");
        for n in 0..16i64 {
            dt.append_rows(&[row(200 + n, Some(&format!("n{n}")), Some(0.5))])
                .unwrap();
            dt.snapshot().unwrap();
        }
        assert_eq!(dt.base_index_builds(), 1);
        dt.compact().unwrap();
        assert_eq!(
            dt.base_index_builds(),
            1,
            "compaction's own snapshot reuses it"
        );
        dt.append_rows(&[row(300, Some("n3"), None)]).unwrap();
        for _ in 0..4 {
            dt.snapshot().unwrap();
        }
        assert_eq!(dt.base_index_builds(), 2);
    }
}
