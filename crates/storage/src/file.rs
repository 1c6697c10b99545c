//! The single-file database format (paper §2.3.3).
//!
//! A TDE database must be choosable in a file-selection dialog: one file.
//! Extracts are read-only, so the writer simply concatenates every table's
//! column streams (with their heaps and dictionaries) behind a directory.
//! Compression applied at the column level reduces the size — and thus the
//! cost — of producing this file, which is the storage half of Fig 5.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "TDE1" | format version u32 | table count u32
//! per table: name | row count u64 | column count u32
//!   per column: name | dtype u8 | compression tag u8 | metadata
//!               | stream bytes | [dictionary] | [heap bytes | sorted u8]
//! ```
//!
//! Strings and byte blobs are u64-length-prefixed.
//!
//! This v1 format is *eager*: [`Database::load`] deserializes every
//! column of every table. The v2 paged format (crate `tde-pager`) stores
//! the same per-column payloads at block-aligned offsets behind a footer
//! directory so columns can be demand-loaded; both formats share the
//! [`crate::wire`] primitives.
//!
//! The reader treats its input as untrusted: truncated files, bad magic,
//! bad tags and absurd length prefixes all surface as [`io::Error`] —
//! never a panic or an unbounded allocation (see the corruption-matrix
//! test below).

use crate::column::{Column, Compression};
use crate::heap::StringHeap;
use crate::table::Table;
use crate::wire::{
    corrupt, read_bytes, read_i64, read_metadata, read_str, read_u32, read_u64, validate_stream,
    write_bytes, write_metadata, write_str, MAX_PREALLOC,
};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;
use tde_encodings::EncodedStream;
use tde_types::DataType;

const MAGIC: &[u8; 4] = b"TDE1";
const VERSION: u32 = 1;

/// A collection of tables stored in (or loaded from) one file.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The tables.
    pub tables: Vec<Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Add a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Find a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Serialize to one file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Serialize into any writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.tables.len() as u32).to_le_bytes())?;
        for t in &self.tables {
            write_str(w, &t.name)?;
            w.write_all(&t.row_count().to_le_bytes())?;
            w.write_all(&(t.columns.len() as u32).to_le_bytes())?;
            for c in &t.columns {
                write_column(w, c)?;
            }
        }
        Ok(())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Database> {
        let bytes = std::fs::read(path)?;
        Database::read_from(&mut bytes.as_slice())
    }

    /// Deserialize from any reader. The input is untrusted: corruption of
    /// any kind yields an [`io::Error`].
    pub fn read_from(r: &mut impl Read) -> io::Result<Database> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let ntables = read_u32(r)? as usize;
        // Capacity capped: a lying count fails at EOF, not at allocation.
        let mut tables = Vec::with_capacity(ntables.min(1024));
        for _ in 0..ntables {
            let name = read_str(r)?;
            let rows = read_u64(r)?;
            let ncols = read_u32(r)? as usize;
            let mut columns = Vec::with_capacity(ncols.min(4096));
            for _ in 0..ncols {
                columns.push(read_column(r, rows)?);
            }
            // `Table::new` asserts equal column lengths; `read_column`
            // already validated each against the header row count, so the
            // constructor cannot panic on corrupt input.
            tables.push(Table::new(name, columns));
        }
        Ok(Database { tables })
    }

    /// Size of the serialized file in bytes.
    pub fn serialized_size(&self) -> u64 {
        let mut counter = CountingWriter::default();
        self.write_to(&mut counter)
            .expect("counting writer cannot fail");
        counter.bytes
    }
}

/// Writer that only counts (for size reporting without I/O).
#[derive(Default)]
struct CountingWriter {
    bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn write_column(w: &mut impl Write, c: &Column) -> io::Result<()> {
    write_str(w, &c.name)?;
    w.write_all(&[c.dtype.tag(), c.compression.tag()])?;
    write_metadata(w, &c.metadata)?;
    write_bytes(w, c.data.as_bytes())?;
    match &c.compression {
        Compression::None => Ok(()),
        Compression::Array { dictionary, sorted } => {
            w.write_all(&(dictionary.len() as u64).to_le_bytes())?;
            for &v in dictionary {
                w.write_all(&v.to_le_bytes())?;
            }
            w.write_all(&[u8::from(*sorted)])
        }
        Compression::Heap { heap, sorted } => {
            write_bytes(w, heap.as_bytes())?;
            w.write_all(&[u8::from(*sorted)])
        }
    }
}

fn read_column(r: &mut impl Read, expected_rows: u64) -> io::Result<Column> {
    let name = read_str(r)?;
    let mut tags = [0u8; 2];
    r.read_exact(&mut tags)?;
    let dtype = DataType::from_tag(tags[0]).ok_or_else(|| corrupt("bad dtype"))?;
    let metadata = read_metadata(r)?;
    let stream_bytes = read_bytes(r)?;
    validate_stream(&stream_bytes, expected_rows)?;
    let data = EncodedStream::from_buf(stream_bytes);
    let compression = match tags[1] {
        0 => Compression::None,
        1 => {
            let n = read_u64(r)? as usize;
            let mut dictionary = Vec::with_capacity(n.min(MAX_PREALLOC / 8));
            for _ in 0..n {
                dictionary.push(read_i64(r)?);
            }
            let mut s = [0u8; 1];
            r.read_exact(&mut s)?;
            Compression::Array {
                dictionary,
                sorted: s[0] != 0,
            }
        }
        2 => {
            let heap = StringHeap::from_bytes(read_bytes(r)?)?;
            let mut s = [0u8; 1];
            r.read_exact(&mut s)?;
            Compression::Heap {
                heap: Arc::new(heap),
                sorted: s[0] != 0,
            }
        }
        _ => return Err(corrupt("bad compression tag")),
    };
    Ok(Column {
        name,
        dtype,
        data,
        compression,
        metadata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ColumnBuilder, EncodingPolicy};
    use tde_types::Value;

    fn sample_db() -> Database {
        let mut ints = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
        let mut dates = ColumnBuilder::new("day", DataType::Date, EncodingPolicy::default());
        let mut names = ColumnBuilder::new("name", DataType::Str, EncodingPolicy::default());
        for i in 0..5000i64 {
            ints.append_i64(i % 50);
            dates.append_i64(9000 + i / 100);
            names.append_str(Some(["red", "green", "blue"][i as usize % 3]));
        }
        let t = Table::new(
            "orders",
            vec![
                ints.finish().column,
                dates.finish().column,
                names.finish().column,
            ],
        );
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    /// A second table so multi-table directory arithmetic is exercised.
    fn two_table_db() -> Database {
        let mut db = sample_db();
        let mut seq = ColumnBuilder::new("seq", DataType::Integer, EncodingPolicy::default());
        let mut tag = ColumnBuilder::new("tag", DataType::Str, EncodingPolicy::default());
        for i in 0..1200i64 {
            seq.append_i64(i);
            tag.append_str(Some(["aa", "bb", "cc", "dd"][i as usize % 4]));
        }
        db.add_table(Table::new(
            "tags",
            vec![seq.finish().column, tag.finish().column],
        ));
        db
    }

    #[test]
    fn roundtrip_through_memory() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.write_to(&mut buf).unwrap();
        let db2 = Database::read_from(&mut buf.as_slice()).unwrap();
        let t1 = db.table("orders").unwrap();
        let t2 = db2.table("orders").unwrap();
        assert_eq!(t2.row_count(), 5000);
        for row in (0..5000).step_by(777) {
            for (c1, c2) in t1.columns.iter().zip(&t2.columns) {
                assert_eq!(c1.value(row), c2.value(row), "col {} row {row}", c1.name);
            }
        }
        // Metadata survives.
        let day = t2.column("day").unwrap();
        assert!(day.metadata.sorted_asc.is_true());
    }

    #[test]
    fn roundtrip_through_file() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("tde_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("orders.tde");
        db.save(&path).unwrap();
        let db2 = Database::load(&path).unwrap();
        assert_eq!(db2.table("orders").unwrap().row_count(), 5000);
        assert_eq!(
            db2.table("orders")
                .unwrap()
                .column("name")
                .unwrap()
                .value(1),
            Value::Str("green".into())
        );
        std::fs::remove_file(&path).ok();
    }

    /// `serialized_size` must agree with the writer byte-for-byte across
    /// every compression shape (plain, dictionary, heap) and multiple
    /// tables — the v2 directory derives segment extents from the same
    /// write path, so drift here would corrupt paged offsets.
    #[test]
    fn serialized_size_matches_write() {
        for db in [Database::new(), sample_db(), two_table_db()] {
            let mut buf = Vec::new();
            db.write_to(&mut buf).unwrap();
            assert_eq!(db.serialized_size(), buf.len() as u64);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Database::read_from(&mut &b"NOPE"[..]).is_err());
        assert!(Database::read_from(&mut &b"TDE1\xFF\xFF\xFF\xFF"[..]).is_err());
    }

    /// Corruption matrix: no prefix truncation, tag flip or absurd length
    /// prefix may panic, over-allocate or succeed — each must surface as
    /// a clean `io::Error`.
    #[test]
    fn corruption_matrix() {
        let db = two_table_db();
        let mut buf = Vec::new();
        db.write_to(&mut buf).unwrap();

        // Every truncation point fails cleanly (dense near the start where
        // all the structural fields live, sampled beyond).
        for cut in (0..buf.len().min(256)).chain((256..buf.len()).step_by(211)) {
            assert!(
                Database::read_from(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }

        // Bad magic / unsupported version.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(Database::read_from(&mut bad.as_slice()).is_err());
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(Database::read_from(&mut bad.as_slice()).is_err());

        // Absurd table count: claims 4 billion tables, carries one byte.
        let mut bad = buf[..8].to_vec();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.push(0);
        assert!(Database::read_from(&mut bad.as_slice()).is_err());

        // Absurd name-length prefix (u64::MAX) right after the counts.
        let mut bad = buf[..12].to_vec();
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        bad.extend_from_slice(b"x");
        assert!(Database::read_from(&mut bad.as_slice()).is_err());

        // Flip every byte of the structural prefix one at a time; whatever
        // the reader makes of it, it must not panic. (Some flips only move
        // payload bytes and still parse — that is fine; the property under
        // test is "no panic, no OOM".)
        for at in 0..buf.len().min(96) {
            let mut bad = buf.clone();
            bad[at] ^= 0xFF;
            let _ = Database::read_from(&mut bad.as_slice());
        }

        // Mismatched column lengths: patch the table row count so columns
        // disagree with the directory — must error, not panic in
        // `Table::new`.
        let mut bad = buf.clone();
        // Row count of table "orders" sits after magic(4)+ver(4)+count(4)
        // +name(8+6).
        let off = 4 + 4 + 4 + 8 + "orders".len();
        bad[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(Database::read_from(&mut bad.as_slice()).is_err());
    }

    /// A heap whose entries do not walk to its end — the v1 format has
    /// no checksum to stop it first — is a typed error, not a panic.
    #[test]
    fn malformed_heap_is_invalid_data() {
        let db = sample_db();
        let mut buf = Vec::new();
        db.write_to(&mut buf).unwrap();
        let heap = db
            .table("orders")
            .unwrap()
            .column("name")
            .unwrap()
            .heap()
            .unwrap();
        let heap = heap.as_bytes();
        let at = buf
            .windows(heap.len())
            .position(|w| w == heap)
            .expect("heap bytes in the file");
        // The first real entry claims more bytes than the heap has.
        buf[at + 4..at + 8].copy_from_slice(&0xFFFFu32.to_le_bytes());
        let err = Database::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("heap"), "{err}");
    }

    /// A run-length column, and its stream with each structural fault a
    /// scan would otherwise panic on: a bad count or value width, a data
    /// offset inside the RLE header, a ragged last pair, counts that do
    /// not sum to the length.
    fn malformed_rle_streams() -> (Column, Vec<(&'static str, Vec<u8>)>) {
        use tde_encodings::{header, rle, Algorithm};
        let mut b = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
        for i in 0..20_000i64 {
            b.append_i64(i / 500);
        }
        let col = b.finish().column;
        assert_eq!(col.data.algorithm(), Algorithm::RunLength);
        let ok = col.data.as_bytes().to_vec();
        let h = col.data.header();
        let edit = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = ok.clone();
            f(&mut bad);
            bad
        };
        let (cw, _) = rle::field_widths(&ok);
        let faults = vec![
            ("count width", edit(&|b| b[rle::OFF_COUNT_WIDTH] = 3)),
            ("value width", edit(&|b| b[rle::OFF_VALUE_WIDTH] = 0)),
            (
                "data offset",
                edit(&|b| header::put_u64(b, header::OFF_DATA_OFFSET, 24)),
            ),
            ("ragged pair", edit(&|b| b.truncate(b.len() - 1))),
            (
                "count sum",
                edit(&|b| header::put_fixed(b, h.data_offset, cw, 501)),
            ),
        ];
        (col, faults)
    }

    /// The v1 reader rejects every malformed run-length stream with a
    /// typed error instead of handing a scan a stream it panics on.
    #[test]
    fn malformed_rle_stream_is_invalid_data() {
        let (col, faults) = malformed_rle_streams();
        for (what, bytes) in faults {
            let bad = Column {
                data: EncodedStream::from_buf(bytes),
                ..col.clone()
            };
            let mut db = Database::new();
            db.add_table(Table::new("t", vec![bad]));
            let mut buf = Vec::new();
            db.write_to(&mut buf).unwrap();
            let err = Database::read_from(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("RLE"), "{what}: {err}");
        }
    }

    #[test]
    fn compressed_file_is_smaller_than_baseline() {
        // The single-file copy burden (§2.3.3): encodings shrink it.
        let build = |policy: EncodingPolicy| {
            let mut b = ColumnBuilder::new("v", DataType::Integer, policy);
            for i in 0..50_000i64 {
                b.append_i64(i % 10);
            }
            let mut db = Database::new();
            db.add_table(Table::new("t", vec![b.finish().column]));
            db.serialized_size()
        };
        let enc = build(EncodingPolicy::default());
        let raw = build(EncodingPolicy::baseline());
        assert!(enc * 4 < raw, "encoded {enc} should be far under raw {raw}");
    }
}
