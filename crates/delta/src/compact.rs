//! Compaction: drain the delta back into read-optimized storage.
//!
//! A merge-on-read snapshot answers queries correctly but at a cost —
//! widened metadata claims suspend the tactical optimizations, a live
//! delta forces full-width base materialization on the paged path, and
//! the buffer itself holds uncompressed rows. [`DeltaTable::compact`]
//! pays that debt at append cost, one column at a time over the parts a
//! snapshot is made of: the base stream, the tombstone positions and the
//! delta leg, already in the base's representation. The paper
//! re-encodes only when the statistics say the encoding must change
//! (§3.2), so each column's survivors keep their packed codes and the
//! delta leg is appended behind them in the base's own encoding
//! ([`tde_encodings::splice`]), with the statistics — and from them the
//! column's claims — taken from the codes. A column goes back through
//! the dynamic encoder ([`tde_exec::flow_table::build_column`]) only
//! when its encoding cannot carry the result (delta, affine losing
//! rows) or when the encoding the statistics now choose is another
//! algorithm; when they choose the same one with fewer bits, the
//! spliced stream is re-packed narrower ([`tde_encodings::splice::conform`]).
//! Either way the column claims what a rebuild of the same rows would
//! claim. Heaps survive by reference: the base's own when
//! the delta brought no new string, otherwise the snapshot's overlay
//! (one copy of the base heap, extended append-only).
//!
//! [`DeltaExtract`] ties the store to the v2 paged file: deltas persist
//! as opaque aux payloads in the footer directory, every save goes
//! through `tde-pager`'s temp-file + atomic-rename writer, and
//! [`DeltaExtract::source`] hands queries either a lazy clean table or
//! a merge snapshot. [`Compactor`] drives compaction from a background
//! thread once a threshold trips.

use crate::store::{BaseTable, DeltaConfig, DeltaTable, Parts};
use crate::wire;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tde_encodings::metadata::Knowledge;
use tde_encodings::splice::{conform, splice, survivors, Spliced};
use tde_encodings::stats::choose_encoding_with;
use tde_encodings::{Algorithm, EncodedStream};
use tde_exec::flow_table::{
    build_column, build_workers, dictionary_stats, heaviest_first, per_column,
};
use tde_exec::handle::ColumnHandle;
use tde_exec::merged_scan::MergedSource;
use tde_exec::{Field, Repr};
use tde_io::StorageIo;
use tde_pager::{save_v2_with_io, PagedDatabase, PagedTable, PoolConfig, TableAux};
use tde_storage::builder::stats_metadata;
use tde_storage::{BuiltColumn, Column, Compression, EncodingPolicy, Table};
use tde_types::Width;

impl DeltaTable {
    /// Compact: the merged rows (base − tombstones ∪ delta, in scan
    /// order) become a fresh eager base and the buffer empties. Returns
    /// the new base. A clean buffer has no rows to compact: the base is
    /// returned as it is and nothing is rebuilt or recorded, but the
    /// slots of appended rows deleted again are freed.
    pub fn compact(&mut self) -> io::Result<Arc<Table>> {
        if self.is_clean() {
            if !self.live.is_empty() {
                self.reset_onto(self.base.clone());
            }
            return self.materialize_base();
        }
        let t0 = Instant::now();
        let delta_rows = self.delta_rows();
        let tombstones = self.tombstone_count();
        let name = self.name().to_owned();
        let Parts {
            handles,
            fields,
            delta,
            index_built,
        } = self.parts()?;
        let snapshot_nanos = self.record_snapshot(index_built, t0);
        // The index describes the base this compaction replaces: free it
        // before the columns are built rather than after.
        self.drop_index();
        let dropped: Vec<u64> = self.tombstones.iter().copied().collect();
        let degree = build_workers(self.merged_rows() as usize, fields.len());
        let costs = handles
            .iter()
            .map(|h| compact_cost(&h.col().data, !dropped.is_empty()));
        let columns = per_column(degree, &heaviest_first(costs), |c| {
            compact_column(&handles[c], &fields[c], &dropped, &delta[c])
        });
        let columns = columns.into_iter().map(|compacted| match compacted {
            Compacted::Spliced(column) => column,
            Compacted::Rebuilt(built) => {
                let column = built.column;
                tde_obs::emit(|| tde_obs::Event::ColumnBuilt {
                    table: name.clone(),
                    column: column.name.clone(),
                    algorithm: format!("{:?}", column.data.algorithm()),
                    rows: column.len(),
                    reencodings: built.reencodings,
                    final_converted: built.final_converted,
                    compacted: true,
                });
                column
            }
        });
        let table = Arc::new(Table::new(&name, columns.collect()));
        let nanos = t0.elapsed().as_nanos() as u64;
        tde_obs::emit(|| tde_obs::Event::Compaction {
            table: name.clone(),
            delta_rows,
            tombstones,
            rows_out: table.row_count(),
            nanos,
            snapshot_nanos,
        });
        self.reset_onto(BaseTable::Eager(Arc::clone(&table)));
        Ok(table)
    }
}

/// A compacted column: spliced in its base's encoding, or rebuilt through
/// the dynamic encoder.
enum Compacted {
    Spliced(Column),
    Rebuilt(BuiltColumn),
}

/// What compacting a column stored as `data` costs, roughly: a column
/// its encoding cannot splice — delta, affine losing rows — goes through
/// the dynamic encoder and costs more than any splice; then the more
/// bytes to move, the more.
fn compact_cost(data: &EncodedStream, loses_rows: bool) -> u64 {
    let rebuilt = match data.algorithm() {
        Algorithm::Delta => true,
        Algorithm::Affine => loses_rows,
        _ => false,
    };
    (u64::from(rebuilt) << 48) | data.physical_size() as u64
}

/// One column of a compaction: the base stream without the `dropped`
/// rows, then the delta leg `tail`, spliced in the base's own encoding
/// when that encoding can carry them and is still the one the statistics
/// of the result choose (§3.2); otherwise the rows go through the
/// dynamic encoder.
fn compact_column(base: &ColumnHandle, field: &Field, dropped: &[u64], tail: &[i64]) -> Compacted {
    let policy = EncodingPolicy::default();
    let data = &base.col().data;
    let tokens = field.dtype.is_string();
    let spliced = splice(data, dropped, tail).and_then(|s| {
        let spec = choose_encoding_with(&s.stats, Width::W8, policy.allow, true, tokens);
        (spec.algorithm() == s.stream.algorithm()).then(|| conform(s, spec))
    });
    let Some(Spliced { stream, stats }) = spliced else {
        let mut values = survivors(data, dropped);
        values.extend_from_slice(tail);
        return Compacted::Rebuilt(build_column(field, &[&values], policy));
    };
    let mut metadata = stats_metadata(field.dtype, &stats, stream.width());
    let compression = match &field.repr {
        Repr::Scalar => Compression::None,
        Repr::Token(heap) => {
            let sorted = field.metadata.sorted_heap_tokens.is_true();
            if sorted {
                metadata.sorted_heap_tokens = Knowledge::True;
            }
            Compression::Heap {
                heap: Arc::clone(heap),
                sorted,
            }
        }
        Repr::DictIndex(dict, _) => {
            // The claims describe the values the indexes stand for.
            let stats = dictionary_stats(dict, &[&survivors(&stream, &[])]);
            metadata = stats_metadata(field.dtype, &stats, stream.width());
            Compression::Array {
                dictionary: dict.to_vec(),
                sorted: dict.windows(2).all(|w| w[0] <= w[1]),
            }
        }
        Repr::TokenCell(_) => unreachable!("a stored column has no growing heap"),
    };
    Compacted::Spliced(Column {
        name: field.name.clone(),
        dtype: field.dtype,
        data: stream,
        compression,
        metadata,
    })
}

/// What a query should scan for a table of a [`DeltaExtract`].
#[derive(Debug, Clone)]
pub enum ScanSource {
    /// No live mutations: scan the paged table directly — projections
    /// stay lazy, kernels stay pushed.
    Clean(PagedTable),
    /// Live mutations: scan this merge snapshot.
    Merged(Arc<MergedSource>),
}

/// Either way it is one scan source: `Query::scan(extract.source(name)?)`.
impl From<ScanSource> for tde_exec::Source {
    fn from(source: ScanSource) -> tde_exec::Source {
        match source {
            ScanSource::Clean(table) => (&table).into(),
            ScanSource::Merged(snapshot) => (&snapshot).into(),
        }
    }
}

/// A v2 paged extract plus the delta buffers of its mutated tables.
#[derive(Debug)]
pub struct DeltaExtract {
    path: PathBuf,
    db: PagedDatabase,
    deltas: HashMap<String, DeltaTable>,
    config: DeltaConfig,
    /// Backend for every read and (re)save of this extract; persists
    /// across [`DeltaExtract::save`] reopens so fault-injection tests
    /// cover the whole lifecycle.
    storage: Arc<dyn StorageIo>,
}

impl DeltaExtract {
    /// Open a v2 file, restoring any persisted delta/tombstone aux
    /// payloads into live buffers.
    pub fn open(path: impl AsRef<Path>) -> io::Result<DeltaExtract> {
        DeltaExtract::open_with(path, DeltaConfig::default())
    }

    /// As [`DeltaExtract::open`] with an explicit buffer budget.
    pub fn open_with(path: impl AsRef<Path>, config: DeltaConfig) -> io::Result<DeltaExtract> {
        DeltaExtract::open_with_io(path, config, Arc::new(tde_io::RealIo))
    }

    /// As [`DeltaExtract::open_with`], with every filesystem operation —
    /// the open itself, demand loads, atomic saves and their reopens —
    /// routed through the given [`StorageIo`] backend.
    pub fn open_with_io(
        path: impl AsRef<Path>,
        config: DeltaConfig,
        storage: Arc<dyn StorageIo>,
    ) -> io::Result<DeltaExtract> {
        let path = path.as_ref().to_path_buf();
        let db = PagedDatabase::open_with_io(&path, PoolConfig::default(), &*storage)?;
        let mut deltas = HashMap::new();
        let names: Vec<String> = db.table_names().iter().map(|s| s.to_string()).collect();
        for name in names {
            let pt = db.table(&name).expect("listed table resolves");
            if !pt.has_delta() && !pt.has_tombstone() {
                continue;
            }
            let mut dt = DeltaTable::with_config(BaseTable::Paged(pt.clone()), config.clone());
            if let Some(bytes) = pt.tombstone_bytes()? {
                dt.restore_tombstones(wire::decode_tombstones(&bytes, dt.base_rows())?);
            }
            if let Some(bytes) = pt.delta_bytes()? {
                let cols = wire::decode_delta(&bytes, dt.schema())?;
                dt.restore_delta(cols);
            }
            deltas.insert(name, dt);
        }
        Ok(DeltaExtract {
            path,
            db,
            deltas,
            config,
            storage,
        })
    }

    /// The file backing this extract.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The underlying paged database.
    pub fn database(&self) -> &PagedDatabase {
        &self.db
    }

    /// Table names in directory order.
    pub fn table_names(&self) -> Vec<String> {
        self.db
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// The delta buffer of a table, if one is live.
    pub fn delta(&self, name: &str) -> Option<&DeltaTable> {
        self.deltas.get(name)
    }

    /// The delta buffer of a table, created on first mutation.
    pub fn delta_mut(&mut self, name: &str) -> io::Result<&mut DeltaTable> {
        if !self.deltas.contains_key(name) {
            let pt = self.db.table(name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no table {name:?}"))
            })?;
            self.deltas.insert(
                name.to_owned(),
                DeltaTable::with_config(BaseTable::Paged(pt), self.config.clone()),
            );
        }
        Ok(self.deltas.get_mut(name).expect("just inserted"))
    }

    /// What a query over `name` should scan: the lazy paged table when
    /// the delta is clean, a merge snapshot otherwise.
    pub fn source(&self, name: &str) -> io::Result<ScanSource> {
        let pt = self
            .db
            .table(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no table {name:?}")))?;
        match self.deltas.get(name) {
            Some(dt) if !dt.is_clean() => Ok(ScanSource::Merged(dt.snapshot()?)),
            _ => Ok(ScanSource::Clean(pt)),
        }
    }

    /// Persist: rewrite the file atomically (temp file + rename) with
    /// every table's current base and the live buffers as aux payloads,
    /// then reopen and rebind the buffers onto the fresh handles.
    pub fn save(&mut self) -> io::Result<()> {
        let mut bases = Vec::new();
        for name in self.table_names() {
            bases.push(match self.deltas.get(&name) {
                Some(dt) => dt.materialize_base()?,
                None => Arc::new(
                    self.db
                        .table(&name)
                        .expect("listed table resolves")
                        .load_all()?,
                ),
            });
        }
        let mut aux = HashMap::new();
        for (name, dt) in &self.deltas {
            if dt.is_clean() {
                continue;
            }
            aux.insert(
                name.clone(),
                TableAux {
                    delta: (dt.delta_rows() > 0)
                        .then(|| wire::encode_delta(dt.schema(), &dt.cols, &dt.live)),
                    tombstone: (dt.tombstone_count() > 0)
                        .then(|| wire::encode_tombstones(&dt.tombstones)),
                },
            );
        }
        save_v2_with_io(&bases, &aux, &self.path, &*self.storage)?;
        self.db = PagedDatabase::open_with_io(&self.path, PoolConfig::default(), &*self.storage)?;
        self.deltas.retain(|_, dt| !dt.is_clean());
        for (name, dt) in &mut self.deltas {
            let pt = self.db.table(name).expect("saved table resolves");
            dt.rebind(BaseTable::Paged(pt));
        }
        Ok(())
    }

    /// Compact one table and persist the result. A table with no
    /// mutations to compact is not rebuilt, and written only when the
    /// file still holds mutations for it; a clean buffer is dropped.
    pub fn compact(&mut self, name: &str) -> io::Result<()> {
        let Some(dt) = self.deltas.get_mut(name) else {
            return Ok(());
        };
        if !dt.is_clean() {
            dt.compact()?;
            return self.save();
        }
        let pt = self.db.table(name).expect("buffered table resolves");
        if pt.has_delta() || pt.has_tombstone() {
            // Mutations persisted, then undone: the file must lose them.
            return self.save();
        }
        // Appended rows deleted again hold their slots until the buffer
        // goes.
        self.deltas.remove(name);
        Ok(())
    }
}

/// When the background [`Compactor`] fires.
#[derive(Debug, Clone, Copy)]
pub struct CompactorConfig {
    /// Compact once the live delta reaches this many rows.
    pub max_delta_rows: u64,
    /// ... or this many tombstones.
    pub max_tombstones: u64,
    /// ... or this many buffered bytes.
    pub max_delta_bytes: usize,
    /// How often the thread re-checks the thresholds.
    pub poll: Duration,
}

impl Default for CompactorConfig {
    fn default() -> CompactorConfig {
        CompactorConfig {
            max_delta_rows: 100_000,
            max_tombstones: 100_000,
            max_delta_bytes: 16 << 20,
            poll: Duration::from_millis(100),
        }
    }
}

/// A background thread that compacts a shared [`DeltaTable`] whenever
/// a [`CompactorConfig`] threshold trips. Dropping (or
/// [`Compactor::stop`]ping) joins the thread.
#[derive(Debug)]
pub struct Compactor {
    handle: Option<JoinHandle<()>>,
    shutdown: mpsc::Sender<()>,
}

impl Compactor {
    /// Spawn the driver over `store`.
    pub fn spawn(store: Arc<parking_lot::Mutex<DeltaTable>>, cfg: CompactorConfig) -> Compactor {
        let (shutdown, rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("tde-compactor".into())
            .spawn(move || loop {
                match rx.recv_timeout(cfg.poll) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
                let mut dt = store.lock();
                if dt.delta_rows() >= cfg.max_delta_rows
                    || dt.tombstone_count() >= cfg.max_tombstones
                    || dt.buffered_bytes() >= cfg.max_delta_bytes
                {
                    // A failed background compaction (e.g. paged I/O
                    // error) leaves the buffer intact; the next poll
                    // retries.
                    let _ = dt.compact();
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            handle: Some(handle),
            shutdown,
        }
    }

    /// Stop and join the driver.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        let _ = self.shutdown.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::people;
    use std::sync::Arc;
    use tde_storage::Database;
    use tde_types::Value;

    fn row(id: i64, name: &str, score: f64) -> Vec<Value> {
        vec![Value::Int(id), Value::Str(name.into()), Value::Real(score)]
    }

    /// Materialize every row of a source as display strings — the
    /// comparison key for differential checks.
    fn rows_of(src: &Arc<MergedSource>) -> Vec<Vec<String>> {
        crate::store::tests::merged_rows(src)
            .iter()
            .map(|row| row.iter().map(Value::to_string).collect())
            .collect()
    }

    #[test]
    fn compaction_drains_and_preserves_rows() {
        let mut dt = DeltaTable::from_eager(people(1000));
        dt.append_rows(&[row(1000, "zed", 7.5), row(1001, "ann", -1.0)])
            .unwrap();
        dt.delete(&[0, 500, 999]).unwrap();
        let before = rows_of(&dt.snapshot().unwrap());
        let table = dt.compact().unwrap();
        assert!(dt.is_clean());
        assert_eq!(table.row_count(), 1000 - 3 + 2);
        let after = rows_of(&dt.snapshot().unwrap());
        assert_eq!(before, after, "compaction changed query results");
    }

    #[test]
    fn compaction_shares_the_heap() {
        let base = people(300);
        let base_heap = Arc::clone(base.column("name").unwrap().heap().unwrap());
        let mut dt = DeltaTable::from_eager(base);
        // No new strings: the rebuilt column must reference the very
        // same heap allocation.
        dt.append_rows(&[row(300, "ann", 0.0)]).unwrap();
        let table = dt.compact().unwrap();
        let new_heap = table.column("name").unwrap().heap().unwrap();
        assert!(Arc::ptr_eq(&base_heap, new_heap), "heap was copied");
    }

    #[test]
    fn extract_saves_restores_and_compacts() {
        let dir = std::env::temp_dir().join(format!("tde-delta-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extract.tde2");
        let mut db = Database::new();
        db.add_table((*people(200)).clone());
        tde_pager::save_v2(&db, &path).unwrap();

        // Mutate and persist.
        let mut ex = DeltaExtract::open(&path).unwrap();
        {
            let dt = ex.delta_mut("people").unwrap();
            dt.append_rows(&[row(200, "new-name", 3.25)]).unwrap();
            dt.delete(&[7]).unwrap();
        }
        let live = rows_of(&ex.delta("people").unwrap().snapshot().unwrap());
        ex.save().unwrap();
        drop(ex);

        // Reopen: the buffer is restored from the aux payloads.
        let ex2 = DeltaExtract::open(&path).unwrap();
        let dt = ex2.delta("people").expect("delta restored");
        assert_eq!(dt.delta_rows(), 1);
        assert_eq!(dt.tombstone_count(), 1);
        let restored = rows_of(&dt.snapshot().unwrap());
        assert_eq!(live, restored, "persistence changed query results");
        assert!(matches!(
            ex2.source("people").unwrap(),
            ScanSource::Merged(_)
        ));
        drop(ex2);

        // Compact: the aux sections disappear and the source is clean.
        let mut ex3 = DeltaExtract::open(&path).unwrap();
        ex3.compact("people").unwrap();
        assert!(matches!(
            ex3.source("people").unwrap(),
            ScanSource::Clean(_)
        ));
        let pt = ex3.database().table("people").unwrap();
        assert!(!pt.has_delta() && !pt.has_tombstone());
        assert_eq!(pt.row_count(), 200);
        drop(ex3);

        let ex4 = DeltaExtract::open(&path).unwrap();
        assert!(ex4.delta("people").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_compactor_fires_on_threshold() {
        let store = Arc::new(parking_lot::Mutex::new(DeltaTable::from_eager(people(50))));
        let compactor = Compactor::spawn(
            Arc::clone(&store),
            CompactorConfig {
                max_delta_rows: 10,
                poll: Duration::from_millis(5),
                ..CompactorConfig::default()
            },
        );
        {
            let mut dt = store.lock();
            let rows: Vec<Vec<Value>> = (0..25).map(|i| row(50 + i, "bulk", i as f64)).collect();
            dt.append_rows(&rows).unwrap();
        }
        // Wait for the driver to notice.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let dt = store.lock();
                if dt.is_clean() {
                    assert_eq!(dt.base_rows(), 75);
                    break;
                }
            }
            assert!(Instant::now() < deadline, "compactor never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        compactor.stop();
        // Below-threshold mutations stay buffered.
        let compactor = Compactor::spawn(
            Arc::clone(&store),
            CompactorConfig {
                max_delta_rows: 1000,
                poll: Duration::from_millis(5),
                ..CompactorConfig::default()
            },
        );
        store.lock().append_rows(&[row(999, "x", 0.0)]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(store.lock().delta_rows(), 1);
        drop(compactor);
    }
}
