//! The paged file format: the one on-disk format of an extract (paper
//! §2.3.3 — one file the user can pick in a dialog).
//!
//! Every per-column payload — encoded stream bytes, scalar dictionaries,
//! string heaps — is a *segment* at a block-aligned offset, described by
//! a directory that a footer at EOF points to. A reader opens a database
//! by reading the footer and directory only; column segments are fetched
//! on first touch through the buffer pool (`crate::pool`), as the
//! paper's memory-mapped design reads only what a query references.
//!
//! Layout (little-endian):
//!
//! ```text
//! header (16 B):  magic "TDE2" | format version u32 | reserved u64
//! segments:       each padded to a 4096-byte boundary
//!                 per column: stream bytes | [dictionary] ; heaps are
//!                 deduplicated (shared heaps written once)
//! directory:      table count u32
//!                 per table: name | row count u64 | column count u32
//!                   per column: name | dtype u8 | compression tag u8
//!                     | sorted u8 | metadata | stream extent
//!                     | [dictionary extent] | [heap extent]
//!                   aux presence u8 (bit0 delta, bit1 tombstone)
//!                     | [delta extent] | [tombstone extent]
//! footer (32 B):  dir offset u64 | dir len u64 | dir checksum u64
//!                 | version u32 | magic
//! ```
//!
//! The per-table *aux* sections carry the mutable write path (tde-delta):
//! an opaque delta-segment payload and a tombstone payload, stored as
//! ordinary block-aligned segments and located by extents after the
//! column entries. The pager treats both as opaque bytes — their wire
//! format belongs to `tde-delta` — but validates their extents exactly
//! like column segments, plus a disjointness check between the pair.
//!
//! An *extent* is `offset u64 | len u64 | checksum u64`. Segment offsets
//! are multiples of [`BLOCK_ALIGN`] so demand loads are aligned reads.
//! The directory is written with the [`tde_storage::wire`] primitives.
//! Table names are unique within a file: the writer refuses a database
//! that repeats one and the reader treats a repeat as corruption.
//!
//! **Integrity** (format version 4): every extent records the
//! [`tde_io::checksum`] of its segment bytes — a word-parallel 64-bit
//! checksum that detects every single-byte substitution — computed at
//! write time and verified by the pager on every demand load *before*
//! the bytes reach a decoder; the footer likewise records the checksum
//! of the directory bytes, verified at open. A mismatch surfaces as a
//! typed [`tde_io::ChecksumMismatch`] error and bumps
//! `tde_segment_checksum_failures_total` — corrupt bytes are never
//! decoded into wrong answers. A file of any other version is refused
//! at open with a message naming both versions: older files are
//! re-imported, not migrated.
//!
//! Everything here treats the file as untrusted:
//! bad magic, truncation, misaligned or out-of-bounds extents and lying
//! length prefixes surface as [`io::Error`], never a panic or an
//! unbounded allocation.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use tde_encodings::ColumnMetadata;
use tde_storage::wire::{
    corrupt, read_metadata, read_str, read_u32, read_u64, write_metadata, write_str,
};
use tde_storage::{Compression, Database, Table};
use tde_types::DataType;

/// Magic bytes opening (and closing) a v2 file.
pub const MAGIC: &[u8; 4] = b"TDE2";
/// Paged format version. Version 3 added per-segment and directory
/// checksums (widening extents to 24 bytes and the footer to 32);
/// version 4 computes them with the word-parallel [`tde_io::checksum`]
/// in place of FNV-1a, with every byte of the layout unchanged. The
/// reader refuses every other version rather than verify against the
/// wrong function.
pub const VERSION: u32 = 4;
/// Segment alignment: every segment starts on a 4 KiB boundary.
pub const BLOCK_ALIGN: u64 = 4096;
/// Fixed header size.
pub const HEADER_LEN: u64 = 16;
/// Fixed footer size.
pub const FOOTER_LEN: u64 = 32;

/// A byte range within the file, plus the checksum of its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Absolute file offset (multiple of [`BLOCK_ALIGN`]).
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// [`tde_io::checksum`] of the segment bytes.
    pub checksum: u64,
}

/// Directory entry for one column: everything needed to rebuild the
/// [`tde_storage::Column`] except the segment bytes themselves.
#[derive(Debug, Clone)]
pub struct ColumnDir {
    /// Column name.
    pub name: String,
    /// Logical data type.
    pub dtype: DataType,
    /// Compression tag (0 none, 1 array, 2 heap) — mirrors
    /// [`Compression::tag`].
    pub ctag: u8,
    /// Dictionary/heap sort flag (meaningless when `ctag == 0`).
    pub sorted: bool,
    /// Extracted column metadata.
    pub metadata: ColumnMetadata,
    /// Encoded main-data stream segment.
    pub stream: Extent,
    /// Scalar dictionary segment (`ctag == 1`): raw little-endian i64s.
    pub dict: Option<Extent>,
    /// String heap segment (`ctag == 2`): [`tde_storage::StringHeap`]
    /// bytes. Columns sharing a heap share the extent.
    pub heap: Option<Extent>,
}

/// Directory entry for one table.
#[derive(Debug, Clone)]
pub struct TableDir {
    /// Table name.
    pub name: String,
    /// Row count (every column's stream must agree).
    pub rows: u64,
    /// Column directory, in schema order.
    pub columns: Vec<ColumnDir>,
    /// Delta-store payload segment (opaque to the pager; `tde-delta`
    /// owns its wire format). `None` when the table has no live delta.
    pub delta: Option<Extent>,
    /// Tombstone payload segment (opaque; see [`TableDir::delta`]).
    pub tombstone: Option<Extent>,
}

/// Per-table auxiliary payloads attached at save time: the delta-store
/// and tombstone sections. Both are opaque to the pager.
#[derive(Debug, Clone, Default)]
pub struct TableAux {
    /// Serialized delta-store payload.
    pub delta: Option<Vec<u8>>,
    /// Serialized tombstone payload.
    pub tombstone: Option<Vec<u8>>,
}

/// Pad the writer with zeros up to the next [`BLOCK_ALIGN`] boundary.
fn pad_to_block(w: &mut impl Write, off: &mut u64) -> io::Result<()> {
    let rem = *off % BLOCK_ALIGN;
    if rem != 0 {
        let pad = (BLOCK_ALIGN - rem) as usize;
        w.write_all(&vec![0u8; pad])?;
        *off += pad as u64;
    }
    Ok(())
}

fn write_segment(w: &mut impl Write, off: &mut u64, bytes: &[u8]) -> io::Result<Extent> {
    pad_to_block(w, off)?;
    let extent = Extent {
        offset: *off,
        len: bytes.len() as u64,
        checksum: tde_io::checksum(bytes),
    };
    w.write_all(bytes)?;
    *off += bytes.len() as u64;
    Ok(extent)
}

/// Serialize tables in the paged format, attaching the given per-table
/// auxiliary (delta/tombstone) payloads, keyed by table name. The
/// tables are borrowed — owned, behind references or behind `Arc`s —
/// so a save copies no column. Two tables of one name are refused with
/// `InvalidInput` before anything is written.
pub fn write_v2<T: Borrow<Table>>(
    tables: &[T],
    aux: &HashMap<String, TableAux>,
    w: &mut impl Write,
) -> io::Result<()> {
    let mut names = HashSet::new();
    if let Some(t) = tables
        .iter()
        .map(Borrow::borrow)
        .find(|t| !names.insert(t.name.as_str()))
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("two tables named {:?}", t.name),
        ));
    }
    let mut off: u64 = 0;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u64.to_le_bytes())?; // reserved
    off += HEADER_LEN;

    // Segments first; remember where each landed. Shared heaps (same
    // `Arc`) are written once and referenced by every column using them.
    let mut heap_extents: HashMap<usize, Extent> = HashMap::new();
    let mut dirs = Vec::with_capacity(tables.len());
    for t in tables.iter().map(Borrow::borrow) {
        let mut columns = Vec::with_capacity(t.columns.len());
        for c in &t.columns {
            let stream = write_segment(w, &mut off, c.data.as_bytes())?;
            let (dict, heap, sorted) = match &c.compression {
                Compression::None => (None, None, false),
                Compression::Array { dictionary, sorted } => {
                    let mut bytes = Vec::with_capacity(dictionary.len() * 8);
                    for &v in dictionary {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    (Some(write_segment(w, &mut off, &bytes)?), None, *sorted)
                }
                Compression::Heap { heap, sorted } => {
                    let key = std::sync::Arc::as_ptr(heap) as usize;
                    let extent = match heap_extents.get(&key) {
                        Some(e) => *e,
                        None => {
                            let e = write_segment(w, &mut off, heap.as_bytes())?;
                            heap_extents.insert(key, e);
                            e
                        }
                    };
                    (None, Some(extent), *sorted)
                }
            };
            columns.push(ColumnDir {
                name: c.name.clone(),
                dtype: c.dtype,
                ctag: c.compression.tag(),
                sorted,
                metadata: c.metadata.clone(),
                stream,
                dict,
                heap,
            });
        }
        let t_aux = aux.get(&t.name);
        let delta = match t_aux.and_then(|a| a.delta.as_deref()) {
            Some(bytes) => Some(write_segment(w, &mut off, bytes)?),
            None => None,
        };
        let tombstone = match t_aux.and_then(|a| a.tombstone.as_deref()) {
            Some(bytes) => Some(write_segment(w, &mut off, bytes)?),
            None => None,
        };
        dirs.push(TableDir {
            name: t.name.clone(),
            rows: t.row_count(),
            columns,
            delta,
            tombstone,
        });
    }

    // Directory, then footer. The footer carries the directory's own
    // checksum so a corrupted directory is caught before parsing.
    let mut dir = Vec::new();
    write_directory(&mut dir, &dirs)?;
    let dir_offset = off;
    w.write_all(&dir)?;
    w.write_all(&dir_offset.to_le_bytes())?;
    w.write_all(&(dir.len() as u64).to_le_bytes())?;
    w.write_all(&tde_io::checksum(&dir).to_le_bytes())?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(MAGIC)?;
    Ok(())
}

/// Serialize a database to a paged file on disk **crash-safely**: the
/// bytes go to a temporary file in the target's directory, are fsynced,
/// and replace the target with an atomic rename. A crash mid-write
/// leaves any existing file at `path` untouched.
pub fn save_v2(db: &Database, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    save_v2_with_io(&db.tables, &HashMap::new(), path, &tde_io::RealIo)
}

/// As [`save_v2`], over borrowed tables (see [`write_v2`]) and attaching
/// per-table aux (delta/tombstone) payloads — the compactor's
/// footer-rewrite path — with every filesystem operation routed through
/// the given [`StorageIo`](tde_io::StorageIo) backend, the seam the
/// crash-consistency harness injects faults through.
///
/// On *every* error path — create, write (including ENOSPC), fsync, and
/// rename — the temporary file is removed through the same backend; only
/// a crash-dead backend (which by design refuses the unlink too) can
/// strand it, exactly as a real crash would.
pub fn save_v2_with_io<T: Borrow<Table>>(
    tables: &[T],
    aux: &HashMap<String, TableAux>,
    path: impl AsRef<std::path::Path>,
    storage: &dyn tde_io::StorageIo,
) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let stem = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    // A per-process, per-call unique temp name in the *same directory*
    // (rename is only atomic within one filesystem).
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        stem.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let file = storage.create(&tmp)?;
        let mut w = io::BufWriter::new(file);
        write_v2(tables, aux, &mut w)?;
        w.flush()?;
        w.into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?
            .sync_all()?;
        storage.rename(&tmp, path)
    })();
    if result.is_err() {
        storage.remove_file(&tmp).ok();
    }
    result
}

fn write_extent(w: &mut impl Write, e: Extent) -> io::Result<()> {
    w.write_all(&e.offset.to_le_bytes())?;
    w.write_all(&e.len.to_le_bytes())?;
    w.write_all(&e.checksum.to_le_bytes())
}

fn write_directory(w: &mut impl Write, tables: &[TableDir]) -> io::Result<()> {
    w.write_all(&(tables.len() as u32).to_le_bytes())?;
    for t in tables {
        write_str(w, &t.name)?;
        w.write_all(&t.rows.to_le_bytes())?;
        w.write_all(&(t.columns.len() as u32).to_le_bytes())?;
        for c in &t.columns {
            write_str(w, &c.name)?;
            w.write_all(&[c.dtype.tag(), c.ctag, u8::from(c.sorted)])?;
            write_metadata(w, &c.metadata)?;
            write_extent(w, c.stream)?;
            if let Some(d) = c.dict {
                write_extent(w, d)?;
            }
            if let Some(h) = c.heap {
                write_extent(w, h)?;
            }
        }
        let presence = u8::from(t.delta.is_some()) | (u8::from(t.tombstone.is_some()) << 1);
        w.write_all(&[presence])?;
        if let Some(d) = t.delta {
            write_extent(w, d)?;
        }
        if let Some(ts) = t.tombstone {
            write_extent(w, ts)?;
        }
    }
    Ok(())
}

fn read_extent(r: &mut impl Read, dir_offset: u64) -> io::Result<Extent> {
    let offset = read_u64(r)?;
    let len = read_u64(r)?;
    let checksum = read_u64(r)?;
    if offset % BLOCK_ALIGN != 0 {
        return Err(corrupt("misaligned segment extent"));
    }
    if offset < HEADER_LEN || offset.checked_add(len).is_none_or(|end| end > dir_offset) {
        return Err(corrupt("segment extent out of bounds"));
    }
    Ok(Extent {
        offset,
        len,
        checksum,
    })
}

/// Parse the directory bytes. `dir_offset` bounds segment extents: every
/// segment must lie between the header and the directory.
pub fn read_directory(bytes: &[u8], dir_offset: u64) -> io::Result<Vec<TableDir>> {
    let r = &mut &bytes[..];
    let ntables = read_u32(r)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    let mut names = HashSet::new();
    for _ in 0..ntables {
        let name = read_str(r)?;
        if !names.insert(name.clone()) {
            return Err(corrupt("duplicate table name"));
        }
        let rows = read_u64(r)?;
        let ncols = read_u32(r)? as usize;
        let mut columns = Vec::with_capacity(ncols.min(4096));
        for _ in 0..ncols {
            let cname = read_str(r)?;
            let mut tags = [0u8; 3];
            r.read_exact(&mut tags)?;
            let dtype = DataType::from_tag(tags[0]).ok_or_else(|| corrupt("bad dtype"))?;
            let ctag = tags[1];
            if ctag > 2 {
                return Err(corrupt("bad compression tag"));
            }
            let sorted = tags[2] != 0;
            let metadata = read_metadata(r)?;
            let stream = read_extent(r, dir_offset)?;
            let dict = if ctag == 1 {
                let e = read_extent(r, dir_offset)?;
                if e.len % 8 != 0 {
                    return Err(corrupt("dictionary extent not a multiple of 8"));
                }
                Some(e)
            } else {
                None
            };
            let heap = if ctag == 2 {
                Some(read_extent(r, dir_offset)?)
            } else {
                None
            };
            columns.push(ColumnDir {
                name: cname,
                dtype,
                ctag,
                sorted,
                metadata,
                stream,
                dict,
                heap,
            });
        }
        let mut presence = [0u8; 1];
        r.read_exact(&mut presence)?;
        if presence[0] > 3 {
            return Err(corrupt("bad aux presence byte"));
        }
        let delta = if presence[0] & 1 != 0 {
            Some(read_extent(r, dir_offset)?)
        } else {
            None
        };
        let tombstone = if presence[0] & 2 != 0 {
            Some(read_extent(r, dir_offset)?)
        } else {
            None
        };
        if let (Some(d), Some(ts)) = (delta, tombstone) {
            // Column extents may legitimately alias (shared heaps); the
            // aux pair is always written as two distinct segments, so
            // overlap can only mean a corrupted directory.
            let disjoint = d.offset + d.len <= ts.offset || ts.offset + ts.len <= d.offset;
            if !disjoint {
                return Err(corrupt("overlapping aux extents"));
            }
        }
        tables.push(TableDir {
            name,
            rows,
            columns,
            delta,
            tombstone,
        });
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after directory"));
    }
    Ok(tables)
}

/// Footer contents: where the directory lives and what it hashes to.
#[derive(Debug, Clone, Copy)]
pub struct Footer {
    /// Absolute offset of the directory.
    pub dir_offset: u64,
    /// Directory length in bytes.
    pub dir_len: u64,
    /// [`tde_io::checksum`] of the directory bytes.
    pub dir_checksum: u64,
}

/// Parse and validate the 32-byte footer given the total file length.
pub fn read_footer(bytes: &[u8; 32], file_len: u64) -> io::Result<Footer> {
    if &bytes[28..32] != MAGIC {
        return Err(corrupt("bad footer magic (not a paged extract file)"));
    }
    let version = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "paged format version {version} is not supported (this build reads version \
                 {VERSION}); re-import the extract from its source"
            ),
        ));
    }
    let dir_offset = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let dir_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let dir_checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let dir_end = dir_offset
        .checked_add(dir_len)
        .ok_or_else(|| corrupt("directory extent overflows"))?;
    if dir_offset < HEADER_LEN || dir_end > file_len.saturating_sub(FOOTER_LEN) {
        return Err(corrupt("directory extent out of bounds"));
    }
    Ok(Footer {
        dir_offset,
        dir_len,
        dir_checksum,
    })
}
