//! Opening and reading a paged database.
//!
//! [`PagedDatabase::open`] reads only the footer and directory — column
//! segments stay on disk until a [`PagedTable::column`] call pulls them
//! through the buffer pool. A query projecting 2 of 50 columns therefore
//! reads 2 columns' segments, not 50; the pool serves repeated scans
//! from memory and its counters prove both properties.

use crate::format::{self, ColumnDir, Extent, TableDir, FOOTER_LEN};
use crate::pool::{BufferPool, CachedSegment, PoolConfig, SegmentKey};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tde_encodings::EncodedStream;
use tde_io::{read_exact_at, IoFile, StorageIo};
use tde_obs::{CacheCounters, CacheSnapshot, Event};
use tde_storage::wire::{corrupt, validate_stream};
use tde_storage::{Column, Compression, StringHeap, Table};

#[derive(Debug)]
struct Inner {
    file: Box<dyn IoFile>,
    tables: Vec<TableDir>,
    pool: BufferPool,
    path: PathBuf,
}

impl Inner {
    /// Read one segment's bytes and verify them against the directory
    /// checksum before anything downstream decodes them. Transient read
    /// faults are absorbed by [`tde_io::read_exact_at`]'s bounded
    /// retries; a mismatch bumps `tde_segment_checksum_failures_total`
    /// and surfaces as a typed [`tde_io::ChecksumMismatch`] error.
    fn read_segment(&self, e: Extent, segment: &'static str) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; e.len as usize];
        read_exact_at(&*self.file, &mut buf, e.offset, segment)?;
        let actual = tde_io::checksum(&buf);
        if actual != e.checksum {
            tde_obs::metrics::checksum_failure(segment);
            return Err(tde_io::checksum_mismatch(segment, e.checksum, actual));
        }
        Ok(buf)
    }

    /// Read one column segment (`stream`, `dictionary` or `heap`) and
    /// feed both views of the load from one measurement: the
    /// segment-load metric and the [`Event::SegmentLoad`] on the query's
    /// timeline.
    fn load_segment(
        &self,
        table: &str,
        column: &str,
        e: Extent,
        segment: &'static str,
    ) -> io::Result<Vec<u8>> {
        let t0 = (tde_obs::metrics::enabled() || tde_obs::timeline::recording())
            .then(std::time::Instant::now);
        let bytes = self.read_segment(e, segment)?;
        if let Some(t0) = t0 {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            if tde_obs::metrics::enabled() {
                tde_obs::metrics::segment_load(segment, e.len, dur_ns);
            }
            tde_obs::emit(|| Event::SegmentLoad {
                table: table.to_string(),
                column: column.to_string(),
                segment,
                bytes: e.len,
                dur_ns,
            });
        }
        Ok(bytes)
    }
}

/// The magic of the retired eager v1 file. Opening one is refused with
/// a message that says so: the format is gone, so the extract must be
/// re-imported from its source.
pub const V1_MAGIC: &[u8; 4] = b"TDE1";

/// A database opened lazily from a paged file.
#[derive(Debug, Clone)]
pub struct PagedDatabase {
    inner: Arc<Inner>,
}

impl PagedDatabase {
    /// Open with the default pool configuration.
    pub fn open(path: impl AsRef<Path>) -> io::Result<PagedDatabase> {
        PagedDatabase::open_with(path, PoolConfig::default())
    }

    /// Open with an explicit buffer-pool configuration. Reads the footer
    /// and directory only.
    pub fn open_with(path: impl AsRef<Path>, cfg: PoolConfig) -> io::Result<PagedDatabase> {
        PagedDatabase::open_with_io(path, cfg, &tde_io::RealIo)
    }

    /// Open through an explicit [`StorageIo`] backend — every read this
    /// database ever performs (open-time footer/directory, demand-loaded
    /// segments, aux payloads) goes through it.
    pub fn open_with_io(
        path: impl AsRef<Path>,
        cfg: PoolConfig,
        storage: &dyn StorageIo,
    ) -> io::Result<PagedDatabase> {
        let path = path.as_ref().to_path_buf();
        let f = storage.open(&path)?;
        let len = f.len()?;
        let mut head = [0u8; 4];
        if len >= 4 {
            read_exact_at(&*f, &mut head, 0, "header")?;
        }
        if &head == V1_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "the v1 extract format (TDE1) is retired and no longer readable; \
                 re-import the extract from its source",
            ));
        }
        if len < format::HEADER_LEN + FOOTER_LEN {
            return Err(corrupt("file too small for a paged database"));
        }
        if &head != format::MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut footer = [0u8; FOOTER_LEN as usize];
        read_exact_at(&*f, &mut footer, len - FOOTER_LEN, "footer")?;
        let footer = format::read_footer(&footer, len)?;
        let mut dir = vec![0u8; footer.dir_len as usize];
        read_exact_at(&*f, &mut dir, footer.dir_offset, "directory")?;
        let actual = tde_io::checksum(&dir);
        if actual != footer.dir_checksum {
            tde_obs::metrics::checksum_failure("directory");
            return Err(tde_io::checksum_mismatch(
                "directory",
                footer.dir_checksum,
                actual,
            ));
        }
        let tables = format::read_directory(&dir, footer.dir_offset)?;
        Ok(PagedDatabase {
            inner: Arc::new(Inner {
                file: f,
                tables,
                pool: BufferPool::new(cfg),
                path,
            }),
        })
    }

    /// The file this database was opened from.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Names of the tables in directory order.
    pub fn table_names(&self) -> Vec<&str> {
        self.inner.tables.iter().map(|t| t.name.as_str()).collect()
    }

    /// A lazy handle to a table.
    pub fn table(&self, name: &str) -> Option<PagedTable> {
        let idx = self.inner.tables.iter().position(|t| t.name == name)?;
        Some(PagedTable {
            inner: Arc::clone(&self.inner),
            idx,
        })
    }

    /// Shared cache counters (hits, misses, evictions, bytes).
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(self.inner.pool.counters())
    }

    /// Counters plus current occupancy and budget.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.inner.pool.snapshot()
    }
}

/// A lazy handle to one table of a [`PagedDatabase`]. Cloning is cheap;
/// clones share the file, directory and buffer pool.
#[derive(Debug, Clone)]
pub struct PagedTable {
    inner: Arc<Inner>,
    idx: usize,
}

impl PagedTable {
    fn dir(&self) -> &TableDir {
        &self.inner.tables[self.idx]
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.dir().name
    }

    /// Row count (from the directory; no segment I/O).
    pub fn row_count(&self) -> u64 {
        self.dir().rows
    }

    /// Column names in schema order (no segment I/O).
    pub fn column_names(&self) -> Vec<&str> {
        self.dir().columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Directory entry for a column, if present (no segment I/O).
    pub fn column_dir(&self, name: &str) -> Option<&ColumnDir> {
        self.dir().columns.iter().find(|c| c.name == name)
    }

    /// The buffer pool's shared counters (same pool as the database).
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(self.inner.pool.counters())
    }

    /// Counters plus current occupancy and budget.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.inner.pool.snapshot()
    }

    /// Does the directory carry a delta-store payload for this table?
    pub fn has_delta(&self) -> bool {
        self.dir().delta.is_some()
    }

    /// Does the directory carry a tombstone payload for this table?
    pub fn has_tombstone(&self) -> bool {
        self.dir().tombstone.is_some()
    }

    /// Raw delta-store payload bytes, if present. Read directly rather
    /// than through the buffer pool: the payload is opaque to the pager
    /// (its wire format belongs to `tde-delta`) and is consumed once at
    /// open time, not re-scanned.
    pub fn delta_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        match self.dir().delta {
            Some(e) => self.inner.read_segment(e, "delta").map(Some),
            None => Ok(None),
        }
    }

    /// Raw tombstone payload bytes, if present (see [`PagedTable::delta_bytes`]).
    pub fn tombstone_bytes(&self) -> io::Result<Option<Vec<u8>>> {
        match self.dir().tombstone {
            Some(e) => self.inner.read_segment(e, "tombstone").map(Some),
            None => Ok(None),
        }
    }

    /// Resolve a column by name, demand-loading its segments through the
    /// buffer pool on first touch.
    pub fn column(&self, name: &str) -> io::Result<Arc<Column>> {
        let pos = self
            .dir()
            .columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no column {name:?} in table {:?}", self.dir().name),
                )
            })?;
        self.column_at(pos)
    }

    /// Resolve a column by schema position.
    pub fn column_at(&self, pos: usize) -> io::Result<Arc<Column>> {
        let table = self.dir();
        let cdir = table.columns.get(pos).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("column index {pos} out of range in table {:?}", table.name),
            )
        })?;
        let key = SegmentKey::Column {
            table: self.idx as u32,
            col: pos as u32,
        };
        // Fast path: cached.
        if let Some(CachedSegment::Column(c)) = self.inner.pool.try_get(key) {
            return Ok(c);
        }
        // Miss path. A heap column's heap segment is resolved FIRST, as
        // its own pool entry: the column loader below runs under its
        // shard lock, and the shim mutex is not reentrant — touching the
        // pool from inside it could self-deadlock on the same shard.
        let heap = match cdir.heap {
            Some(extent) => Some(self.load_heap(&table.name, &cdir.name, extent)?),
            None => None,
        };
        let seg = self.inner.pool.get_or_load(key, || {
            self.load_column(&table.name, table.rows, cdir, heap)
        })?;
        match seg {
            CachedSegment::Column(c) => Ok(c),
            CachedSegment::Heap(_) => Err(corrupt("segment kind mismatch in pool")),
        }
    }

    /// Materialise the whole table eagerly (how `Extract::load` reads an
    /// extract).
    pub fn load_all(&self) -> io::Result<Table> {
        let columns = (0..self.dir().columns.len())
            .map(|i| self.column_at(i).map(|c| (*c).clone()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Table::new(self.dir().name.clone(), columns))
    }

    fn load_heap(&self, table: &str, column: &str, extent: Extent) -> io::Result<Arc<StringHeap>> {
        let key = SegmentKey::Heap {
            offset: extent.offset,
        };
        if let Some(CachedSegment::Heap(h)) = self.inner.pool.try_get(key) {
            return Ok(h);
        }
        let seg = self.inner.pool.get_or_load(key, || {
            let bytes = self.inner.load_segment(table, column, extent, "heap")?;
            Ok((
                CachedSegment::Heap(Arc::new(StringHeap::from_bytes(bytes)?)),
                extent.len,
            ))
        })?;
        match seg {
            CachedSegment::Heap(h) => Ok(h),
            CachedSegment::Column(_) => Err(corrupt("segment kind mismatch in pool")),
        }
    }

    /// Load and assemble one column (stream + dictionary). Runs under the
    /// column entry's shard lock — must not touch the pool.
    fn load_column(
        &self,
        table: &str,
        rows: u64,
        cdir: &ColumnDir,
        heap: Option<Arc<StringHeap>>,
    ) -> io::Result<(CachedSegment, u64)> {
        let stream_bytes = self
            .inner
            .load_segment(table, &cdir.name, cdir.stream, "stream")?;
        validate_stream(&stream_bytes, rows)?;
        let mut cost = cdir.stream.len;
        let compression = match (cdir.ctag, cdir.dict, heap) {
            (0, _, _) => Compression::None,
            (1, Some(extent), _) => {
                let bytes = self
                    .inner
                    .load_segment(table, &cdir.name, extent, "dictionary")?;
                cost += extent.len;
                let dictionary = bytes
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Compression::Array {
                    dictionary,
                    sorted: cdir.sorted,
                }
            }
            (2, _, Some(heap)) => Compression::Heap {
                heap,
                sorted: cdir.sorted,
            },
            _ => return Err(corrupt("directory compression tag without its segment")),
        };
        let column = Column {
            name: cdir.name.clone(),
            dtype: cdir.dtype,
            data: EncodedStream::from_buf(stream_bytes),
            compression,
            metadata: cdir.metadata.clone(),
        };
        Ok((CachedSegment::Column(Arc::new(column)), cost))
    }
}
