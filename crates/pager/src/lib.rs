//! Paged storage engine: the extract file format, lazily loaded column
//! segments, and a sharded buffer pool.
//!
//! An extract is one file (paper §2.3.3), and the TDE's memory-mapped
//! design reads only what a query references: a workbook touches a
//! handful of the columns in a wide extract. This crate writes and reads
//! that one file in three layers:
//!
//! * [`format`]: the on-disk layout — per-column segments (encoded
//!   stream, scalar dictionary, string heap) at 4 KiB-aligned offsets,
//!   described by a directory that a fixed footer locates. Opening a
//!   database reads footer + directory only. [`write_v2`] serializes a
//!   database; [`save_v2`] and [`save_v2_with_io`] write it to disk
//!   crash-safely (temporary file, fsync, atomic rename).
//! * [`pool`]: a sharded buffer pool with second-chance (clock)
//!   eviction, a configurable byte budget, and `Arc`-based pinning.
//!   Segments are demand-loaded on first touch and repeat scans are
//!   served from memory; hit/miss/eviction counters flow into
//!   [`tde_obs::CacheCounters`].
//! * [`paged`]: [`PagedDatabase`] / [`PagedTable`] — the lazy
//!   counterparts of `tde_storage::Database` / `Table`, handing out
//!   `Arc<Column>`s that the executor scans exactly like eager columns.
//!
//! The eager v1 format is retired: [`PagedDatabase::open`] refuses a v1
//! file with a message saying it must be re-imported.

pub mod format;
pub mod paged;
pub mod pool;

pub use format::{save_v2, save_v2_with_io, write_v2, TableAux, BLOCK_ALIGN};
pub use paged::{PagedDatabase, PagedTable};
pub use pool::{BufferPool, PoolConfig, SegmentKey};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io;
    use tde_storage::builder::{ColumnBuilder, EncodingPolicy};
    use tde_storage::{Database, Table};
    use tde_types::{DataType, Value};

    fn wide_db(cols: usize, rows: i64) -> Database {
        let mut columns = Vec::new();
        for c in 0..cols {
            let name = format!("c{c}");
            let mut b = ColumnBuilder::new(&name, DataType::Integer, EncodingPolicy::default());
            for i in 0..rows {
                b.append_i64(i % (c as i64 + 2));
            }
            columns.push(b.finish().column);
        }
        let mut names = ColumnBuilder::new("label", DataType::Str, EncodingPolicy::default());
        for i in 0..rows {
            names.append_str(Some(["alpha", "beta", "gamma"][i as usize % 3]));
        }
        columns.push(names.finish().column);
        let mut db = Database::new();
        db.add_table(Table::new("wide", columns));
        db
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tde_pager_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Footer offset (the footer is the last [`format::FOOTER_LEN`] bytes).
    fn footer_at(bytes: &[u8]) -> usize {
        bytes.len() - format::FOOTER_LEN as usize
    }

    /// Recompute the directory checksum after mutating directory bytes,
    /// so a test can reach the structural validation *behind* the
    /// checksum line of defense.
    fn patch_dir_checksum(bytes: &mut [u8]) {
        let foot = footer_at(bytes);
        let dir_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
        let dir_len = u64::from_le_bytes(bytes[foot + 8..foot + 16].try_into().unwrap()) as usize;
        let ck = tde_io::checksum(&bytes[dir_off..dir_off + dir_len]);
        bytes[foot + 16..foot + 24].copy_from_slice(&ck.to_le_bytes());
    }

    #[test]
    fn roundtrip_and_lazy_projection() {
        let db = wide_db(10, 3000);
        let path = tmp("wide.tde2");
        save_v2(&db, &path).unwrap();

        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap();
        assert_eq!(t.row_count(), 3000);
        assert_eq!(t.column_names().len(), 11);

        // Open reads directory only: nothing cached, nothing missed.
        let before = paged.cache_snapshot();
        assert_eq!(before.misses, 0);
        assert_eq!(before.bytes_cached, 0);

        // Project 2 of 11 columns: exactly those columns' segments load.
        let c3 = t.column("c3").unwrap();
        let label = t.column("label").unwrap();
        let after = paged.cache_snapshot();
        assert_eq!(after.misses, 3, "c3 stream + label stream + label heap");
        assert!(after.bytes_cached > 0);

        // Values match the eager original.
        let orig = db.table("wide").unwrap();
        for row in (0..3000).step_by(491) {
            assert_eq!(c3.value(row), orig.column("c3").unwrap().value(row));
            assert_eq!(label.value(row), orig.column("label").unwrap().value(row));
        }
        assert_eq!(label.value(1), Value::Str("beta".into()));

        // Second touch: pure hits, zero new misses.
        drop((c3, label));
        t.column("c3").unwrap();
        t.column("label").unwrap();
        let warm = paged.cache_snapshot();
        assert_eq!(warm.misses, after.misses, "second pass must not miss");
        assert!(warm.hits >= 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_all_matches_eager() {
        let db = wide_db(4, 500);
        let path = tmp("all.tde2");
        save_v2(&db, &path).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap().load_all().unwrap();
        let orig = db.table("wide").unwrap();
        assert_eq!(t.row_count(), orig.row_count());
        for (a, b) in t.columns.iter().zip(&orig.columns) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.metadata, b.metadata);
            for row in (0..500).step_by(37) {
                assert_eq!(a.value(row), b.value(row));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A v1 file — magic, format version 1, a table count — is refused
    /// at open with a message that the format is retired, whether or not
    /// it is long enough to hold a paged footer.
    #[test]
    fn v1_file_is_politely_refused() {
        let mut v1 = paged::V1_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        let path = tmp("eager.tde");
        for len in [v1.len(), 4096] {
            v1.resize(len, 0);
            std::fs::write(&path, &v1).unwrap();
            let err = PagedDatabase::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let msg = err.to_string();
            for word in ["v1", "retired", "re-import"] {
                assert!(msg.contains(word), "{len} bytes: {msg}");
            }
            assert!(!msg.contains("Database::load"), "{msg}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Two tables of every compression shape (plain, array, heap) in one
    /// file: each comes back with its values and metadata.
    #[test]
    fn two_tables_roundtrip_with_metadata() {
        let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
        let mut day = ColumnBuilder::new("day", DataType::Date, EncodingPolicy::default());
        let mut name = ColumnBuilder::new("name", DataType::Str, EncodingPolicy::default());
        for i in 0..5000i64 {
            qty.append_i64(i % 50);
            day.append_i64(9000 + i / 100);
            name.append_str(Some(["red", "green", "blue"][i as usize % 3]));
        }
        let mut seq = ColumnBuilder::new("seq", DataType::Integer, EncodingPolicy::default());
        let mut tag = ColumnBuilder::new("tag", DataType::Str, EncodingPolicy::default());
        for i in 0..1200i64 {
            seq.append_i64(i % 7 * 1_000_003);
            tag.append_str(Some(["aa", "bb", "cc", "dd"][i as usize % 4]));
        }
        let mut seq = seq.finish().column;
        tde_storage::convert::reencode_as_dictionary(&mut seq);
        assert!(matches!(
            seq.compression,
            tde_storage::Compression::Array { .. }
        ));
        let mut db = Database::new();
        db.add_table(Table::new(
            "orders",
            vec![
                qty.finish().column,
                day.finish().column,
                name.finish().column,
            ],
        ));
        db.add_table(Table::new("tags", vec![seq, tag.finish().column]));
        let path = tmp("two_tables.tde2");
        save_v2(&db, &path).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        assert_eq!(paged.table_names(), ["orders", "tags"]);
        for orig in &db.tables {
            let back = paged.table(&orig.name).unwrap().load_all().unwrap();
            assert_eq!(back.row_count(), orig.row_count());
            for (a, b) in orig.columns.iter().zip(&back.columns) {
                assert_eq!((&a.name, a.dtype), (&b.name, b.dtype));
                assert_eq!(a.metadata, b.metadata, "{}", a.name);
                assert_eq!(a.compression.tag(), b.compression.tag(), "{}", a.name);
                for row in (0..orig.row_count()).step_by(97) {
                    assert_eq!(a.value(row), b.value(row), "{} row {row}", a.name);
                }
            }
        }
        let day = paged.table("orders").unwrap().column("day").unwrap();
        assert!(day.metadata.sorted_asc.is_true());
        std::fs::remove_file(&path).ok();
    }

    /// Table names are unique in a file: the writer refuses a database
    /// that repeats one before writing a byte, and a directory that
    /// repeats one (checksum re-signed) is corruption.
    #[test]
    fn duplicate_table_names_are_refused_and_detected() {
        let mut db = wide_db(1, 50);
        db.tables.push(db.tables[0].clone());
        let mut buf = Vec::new();
        let err = write_v2(&db, &HashMap::new(), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(buf.is_empty(), "nothing written");
        let path = tmp("twins.tde2");
        std::fs::remove_file(&path).ok();
        assert!(save_v2(&db, &path).is_err());
        assert!(!path.exists());

        db.tables[1].name = "wid2".into();
        write_v2(&db, &HashMap::new(), &mut buf).unwrap();
        let foot = footer_at(&buf);
        let dir_off = u64::from_le_bytes(buf[foot..foot + 8].try_into().unwrap()) as usize;
        let at = dir_off
            + buf[dir_off..foot]
                .windows(4)
                .position(|w| w == b"wid2")
                .expect("second table name in the directory");
        buf[at..at + 4].copy_from_slice(b"wide");
        patch_dir_checksum(&mut buf);
        std::fs::write(&path, &buf).unwrap();
        let err = PagedDatabase::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("duplicate table name"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The single-file copy burden (§2.3.3): encodings shrink the file,
    /// 4 KiB segment alignment included.
    #[test]
    fn compressed_file_is_smaller_than_baseline() {
        let size = |policy: EncodingPolicy| {
            let mut b = ColumnBuilder::new("v", DataType::Integer, policy);
            for i in 0..50_000i64 {
                b.append_i64(i % 10);
            }
            let mut db = Database::new();
            db.add_table(Table::new("t", vec![b.finish().column]));
            let mut buf = Vec::new();
            write_v2(&db, &HashMap::new(), &mut buf).unwrap();
            buf.len()
        };
        let enc = size(EncodingPolicy::default());
        let raw = size(EncodingPolicy::baseline());
        assert!(enc * 4 < raw, "encoded {enc} should be far under raw {raw}");
    }

    #[test]
    fn corrupt_v2_files_error_cleanly() {
        let db = wide_db(3, 200);
        let path = tmp("corrupt.tde2");
        save_v2(&db, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncations at the footer, mid-directory, and mid-segment.
        for cut in [bytes.len() - 1, bytes.len() - 30, bytes.len() / 2, 17, 4, 0] {
            let p = tmp("cut.tde2");
            std::fs::write(&p, &bytes[..cut]).unwrap();
            assert!(
                PagedDatabase::open(&p).is_err(),
                "truncation at {cut} must fail to open"
            );
        }

        // Corrupt footer directory offset.
        let mut bad = bytes.clone();
        let foot = footer_at(&bad);
        bad[foot..foot + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let p = tmp("badfoot.tde2");
        std::fs::write(&p, &bad).unwrap();
        assert!(PagedDatabase::open(&p).is_err());

        // Flip bytes across the directory *with the checksum patched to
        // match*: the structural validators behind the checksum must
        // still never panic on open+scan.
        let dir_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
        for at in (dir_off..bytes.len() - format::FOOTER_LEN as usize).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            patch_dir_checksum(&mut bad);
            let p = tmp("flip.tde2");
            std::fs::write(&p, &bad).unwrap();
            if let Ok(pdb) = PagedDatabase::open(&p) {
                if let Some(t) = pdb.table("wide") {
                    for name in ["c0", "c1", "c2"] {
                        let _ = t.column(name);
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A heap segment whose checksum matches but whose entries do not
    /// walk to its end (a crafted file) fails the column load with a
    /// typed error instead of panicking in the pool's loader.
    #[test]
    fn malformed_heap_segment_is_invalid_data() {
        let db = wide_db(1, 300);
        let path = tmp("badheap.tde2");
        save_v2(&db, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let heap = db
            .table("wide")
            .unwrap()
            .column("label")
            .unwrap()
            .heap()
            .unwrap();
        let heap = heap.as_bytes();
        let at = bytes
            .windows(heap.len())
            .position(|w| w == heap)
            .expect("heap segment in the file");
        bytes[at + 4..at + 8].copy_from_slice(&0xFFFFu32.to_le_bytes());
        // Re-sign the segment in the directory, then the directory.
        let old = tde_io::checksum(heap).to_le_bytes();
        let new = tde_io::checksum(&bytes[at..at + heap.len()]).to_le_bytes();
        let foot = footer_at(&bytes);
        let dir_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;
        let ck = dir_off
            + bytes[dir_off..foot]
                .windows(8)
                .position(|w| w == old)
                .expect("heap checksum in the directory");
        bytes[ck..ck + 8].copy_from_slice(&new);
        patch_dir_checksum(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap();
        assert!(t.column("c0").is_ok(), "the other columns still load");
        let err = t.column("label").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(!tde_io::is_checksum_mismatch(&err), "{err}");
        assert!(err.to_string().contains("heap"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A run-length stream segment whose checksum matches (the writer
    /// signs whatever bytes it is given) but whose layout is malformed —
    /// bad field widths, a data offset inside the RLE header, a ragged
    /// last pair, counts short of the length — fails the column load
    /// with a typed error instead of panicking in the first scan.
    #[test]
    fn malformed_rle_segment_is_invalid_data() {
        use tde_encodings::{header, rle, Algorithm, EncodedStream};
        let mut db = wide_db(1, 3000);
        let mut b = ColumnBuilder::new("k", DataType::Integer, EncodingPolicy::default());
        for i in 0..3000i64 {
            b.append_i64(i / 300);
        }
        let col = b.finish().column;
        assert_eq!(col.data.algorithm(), Algorithm::RunLength);
        let ok = col.data.as_bytes().to_vec();
        let (cw, _) = rle::field_widths(&ok);
        let data_offset = col.data.header().data_offset;
        let edit = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = ok.clone();
            f(&mut bad);
            bad
        };
        let faults = [
            ("count width", edit(&|b| b[rle::OFF_COUNT_WIDTH] = 5)),
            ("value width", edit(&|b| b[rle::OFF_VALUE_WIDTH] = 9)),
            (
                "data offset",
                edit(&|b| header::put_u64(b, header::OFF_DATA_OFFSET, 24)),
            ),
            ("ragged pair", edit(&|b| b.truncate(b.len() - 1))),
            (
                "count sum",
                edit(&|b| header::put_fixed(b, data_offset, cw, 299)),
            ),
        ];
        db.tables[0].columns.push(col.clone());
        for (what, bytes) in faults {
            *db.tables[0].columns.last_mut().unwrap() = tde_storage::Column {
                data: EncodedStream::from_buf(bytes),
                ..col.clone()
            };
            let path = tmp("badrle.tde2");
            save_v2(&db, &path).unwrap();
            let paged = PagedDatabase::open(&path).unwrap();
            let t = paged.table("wide").unwrap();
            assert!(
                t.column("c0").is_ok(),
                "{what}: the other columns still load"
            );
            let err = t.column("k").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(!tde_io::is_checksum_mismatch(&err), "{what}: {err}");
            assert!(err.to_string().contains("RLE"), "{what}: {err}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Satellite: the systematic corruption matrix. Every single-bit flip
    /// across the directory and footer region must yield a typed
    /// `io::Error` on open — never a panic, never a successful open that
    /// silently misreads the directory.
    #[test]
    fn directory_corruption_matrix() {
        let db = wide_db(2, 120);
        let mut aux = HashMap::new();
        aux.insert(
            "wide".to_string(),
            TableAux {
                delta: Some(vec![0x5A; 48]),
                tombstone: Some(vec![0xA5; 32]),
            },
        );
        let path = tmp("matrix.tde2");
        save_v2_with_io(&db, &aux, &path, &tde_io::RealIo).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let foot = footer_at(&bytes);
        let dir_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;

        let p = tmp("matrix_mut.tde2");
        let mut flips = 0u32;
        let mut checksum_catches = 0u32;
        for at in dir_off..bytes.len() {
            for bit in 0..8u8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                std::fs::write(&p, &bad).unwrap();
                let err = match PagedDatabase::open(&p) {
                    Err(e) => e,
                    Ok(_) => panic!("bit {bit} of byte {at} flipped but open succeeded"),
                };
                flips += 1;
                if tde_io::is_checksum_mismatch(&err) {
                    checksum_catches += 1;
                }
                // Typed classification for the landmark bytes.
                if at >= foot + 28 {
                    assert!(err.to_string().contains("magic"), "magic flip: {err}");
                } else if (foot + 24..foot + 28).contains(&at) {
                    assert!(err.to_string().contains("version"), "version flip: {err}");
                } else if (foot + 16..foot + 24).contains(&at) {
                    assert!(
                        tde_io::is_checksum_mismatch(&err),
                        "dir-checksum flip must be a checksum mismatch: {err}"
                    );
                }
            }
        }
        // Every flip inside the directory proper (extent offsets,
        // lengths, per-segment checksum bytes, names, metadata) is
        // caught by the directory checksum before parsing.
        assert!(flips > 1000, "matrix too small: {flips}");
        assert!(
            checksum_catches as usize >= (dir_off..foot).len() * 8,
            "directory flips must all be checksum-caught: {checksum_catches}/{flips}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&p).ok();
    }

    /// Every single-byte corruption inside any segment (stream,
    /// dictionary, heap, delta, tombstone) is caught by its extent
    /// checksum when the segment loads — corrupt bytes never reach a
    /// decoder. FNV-1a's per-byte bijection makes this deterministic.
    #[test]
    fn segment_corruption_is_caught_by_checksums() {
        let db = wide_db(2, 80);
        let mut aux = HashMap::new();
        aux.insert(
            "wide".to_string(),
            TableAux {
                delta: Some((0..64u8).collect()),
                tombstone: Some(vec![0xEE; 40]),
            },
        );
        let path = tmp("segcorrupt.tde2");
        save_v2_with_io(&db, &aux, &path, &tde_io::RealIo).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap();

        // (segment range, loader) for every extent in the file.
        let mut targets: Vec<(format::Extent, String)> = Vec::new();
        for name in t.column_names() {
            let cd = t.column_dir(name).unwrap();
            targets.push((cd.stream, name.to_string()));
            if let Some(d) = cd.dict {
                targets.push((d, name.to_string()));
            }
            if let Some(h) = cd.heap {
                targets.push((h, name.to_string()));
            }
        }

        let p = tmp("segmut.tde2");
        let mut caught = 0u64;
        let mut tried = 0u64;
        for (extent, column) in &targets {
            let start = extent.offset as usize;
            let end = start + extent.len as usize;
            let step = (extent.len as usize / 32).max(1);
            for at in (start..end).step_by(step) {
                let mut bad = bytes.clone();
                bad[at] ^= 0x01;
                std::fs::write(&p, &bad).unwrap();
                let pdb = PagedDatabase::open(&p).unwrap(); // directory intact
                let table = pdb.table("wide").unwrap();
                let err = table
                    .column(column)
                    .expect_err(&format!("flip at {at} in {column} must fail the load"));
                assert!(
                    tde_io::is_checksum_mismatch(&err),
                    "expected typed checksum mismatch, got: {err}"
                );
                tried += 1;
                caught += 1;
                // Untouched columns still load beside the corruption.
                for other in table.column_names() {
                    if other != column {
                        let _ = table.column(other);
                    }
                }
            }
        }
        assert_eq!(caught, tried, "checksum must catch 100% of corruptions");
        assert!(tried >= 64, "sweep too small: {tried}");

        // Aux payload corruption is caught the same way.
        let before = tde_obs::metrics::global().snapshot();
        let mut bad = bytes.clone();
        // The delta payload is the unique 64-byte segment 0,1,2,..,63.
        let needle: Vec<u8> = (0..64u8).collect();
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("delta payload bytes present");
        bad[at + 10] ^= 0x40;
        std::fs::write(&p, &bad).unwrap();
        let pdb = PagedDatabase::open(&p).unwrap();
        let t = pdb.table("wide").unwrap();
        let err = t.delta_bytes().unwrap_err();
        assert!(tde_io::is_checksum_mismatch(&err), "got: {err}");
        let d = tde_io::checksum_mismatch_details(&err).unwrap();
        assert_eq!(d.segment, "delta");
        // The failure counter moved (when metrics are enabled).
        if tde_obs::metrics::enabled() {
            let count = |snap: &tde_obs::metrics::MetricsSnapshot| {
                snap.samples
                    .iter()
                    .filter(|s| s.name == "tde_segment_checksum_failures_total")
                    .map(|s| match s.value {
                        tde_obs::metrics::SampleValue::Counter(c) => c,
                        _ => 0,
                    })
                    .sum::<u64>()
            };
            let after = tde_obs::metrics::global().snapshot();
            assert!(count(&after) > count(&before), "checksum metric must move");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn segments_are_block_aligned() {
        let db = wide_db(5, 800);
        let path = tmp("aligned.tde2");
        save_v2(&db, &path).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap();
        for name in t.column_names() {
            let cd = t.column_dir(name).unwrap();
            assert_eq!(cd.stream.offset % BLOCK_ALIGN, 0);
            if let Some(d) = cd.dict {
                assert_eq!(d.offset % BLOCK_ALIGN, 0);
            }
            if let Some(h) = cd.heap {
                assert_eq!(h.offset % BLOCK_ALIGN, 0);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aux_sections_roundtrip_and_atomic_save() {
        let db = wide_db(3, 150);
        let mut aux = HashMap::new();
        aux.insert(
            "wide".to_string(),
            TableAux {
                delta: Some(b"delta-payload-bytes".to_vec()),
                tombstone: Some(b"tombstone-payload".to_vec()),
            },
        );
        let path = tmp("aux.tde2");
        save_v2_with_io(&db, &aux, &path, &tde_io::RealIo).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap();
        assert!(t.has_delta() && t.has_tombstone());
        assert_eq!(t.delta_bytes().unwrap().unwrap(), b"delta-payload-bytes");
        assert_eq!(t.tombstone_bytes().unwrap().unwrap(), b"tombstone-payload");
        // Columns still resolve beside the aux segments.
        t.column("c0").unwrap();

        // Atomic re-save without aux replaces the file in place; no temp
        // files are left behind.
        save_v2(&db, &path).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("wide").unwrap();
        assert!(!t.has_delta() && !t.has_tombstone());
        assert_eq!(t.delta_bytes().unwrap(), None);
        let dir = path.parent().unwrap();
        // This file's own temporaries: other tests save into the directory.
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".aux.tde2.tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_aux_sections_error_cleanly() {
        let db = wide_db(2, 100);
        let mut aux = HashMap::new();
        aux.insert(
            "wide".to_string(),
            TableAux {
                delta: Some(vec![0xAB; 64]),
                tombstone: Some(vec![0xCD; 64]),
            },
        );
        let path = tmp("auxcorrupt.tde2");
        save_v2_with_io(&db, &aux, &path, &tde_io::RealIo).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let foot = footer_at(&bytes);
        let dir_off = u64::from_le_bytes(bytes[foot..foot + 8].try_into().unwrap()) as usize;

        // Locate the aux record in the directory: presence byte followed
        // by two 24-byte extents, at the very end of the single table's
        // entry. The directory checksum is re-patched after each
        // mutation so these reach the structural validators.
        let aux_at = foot - 1 - 48;
        assert_eq!(bytes[aux_at], 3, "presence byte (delta|tombstone)");

        let write_and_open = |mut mutated: Vec<u8>| {
            patch_dir_checksum(&mut mutated);
            let p = tmp("auxmut.tde2");
            std::fs::write(&p, &mutated).unwrap();
            PagedDatabase::open(&p)
        };

        // Presence byte with undefined bits set.
        let mut bad = bytes.clone();
        bad[aux_at] = 0x7;
        assert!(write_and_open(bad).is_err(), "bad presence bits must fail");

        // Absurd delta extent length (lying length prefix).
        let mut bad = bytes.clone();
        bad[aux_at + 9..aux_at + 17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(write_and_open(bad).is_err(), "absurd length must fail");

        // Misaligned delta offset.
        let mut bad = bytes.clone();
        let off = u64::from_le_bytes(bytes[aux_at + 1..aux_at + 9].try_into().unwrap());
        bad[aux_at + 1..aux_at + 9].copy_from_slice(&(off + 1).to_le_bytes());
        assert!(write_and_open(bad).is_err(), "misaligned extent must fail");

        // Out-of-bounds delta offset (past the directory).
        let mut bad = bytes.clone();
        let past = (dir_off as u64).div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN + BLOCK_ALIGN;
        bad[aux_at + 1..aux_at + 9].copy_from_slice(&past.to_le_bytes());
        assert!(write_and_open(bad).is_err(), "oob extent must fail");

        // Overlapping delta/tombstone extents: point the tombstone at the
        // delta's offset.
        let mut bad = bytes.clone();
        let delta_extent = bytes[aux_at + 1..aux_at + 25].to_vec();
        bad[aux_at + 25..aux_at + 49].copy_from_slice(&delta_extent);
        let err = write_and_open(bad).unwrap_err();
        assert!(err.to_string().contains("overlap"), "got: {err}");

        // Truncation inside the aux payload region still fails cleanly.
        for cut in [dir_off - 1, dir_off - 4000] {
            let p = tmp("auxcut.tde2");
            std::fs::write(&p, &bytes[..cut]).unwrap();
            assert!(PagedDatabase::open(&p).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: the atomic save must clean up its temp file on *every*
    /// error path — rename failure, ENOSPC mid-write, and a fault-free
    /// control — pinned through the FaultIo backend.
    #[test]
    fn atomic_save_cleans_up_tmp_on_every_error_path() {
        use tde_io::{FaultIo, FaultPlan};
        let db = wide_db(2, 100);
        let dir = std::env::temp_dir().join("tde_pager_tmpclean");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.tde2");
        let no_tmp_left = || {
            let stray: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                .collect();
            assert!(stray.is_empty(), "stray temp files: {stray:?}");
        };

        // Rename failure: the save errors, the target is untouched, the
        // temp file is gone.
        save_v2(&db, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let io = FaultIo::new(FaultPlan {
            fail_renames: 1,
            ..Default::default()
        });
        let aux = HashMap::new();
        let err = save_v2_with_io(&db, &aux, &path, &io).unwrap_err();
        assert!(err.to_string().contains("rename"), "got: {err}");
        assert_eq!(io.stats().renames_failed, 1);
        no_tmp_left();
        assert_eq!(std::fs::read(&path).unwrap(), before, "target untouched");

        // ENOSPC mid-write: same contract.
        let io = FaultIo::new(FaultPlan {
            enospc_after_bytes: Some(4096),
            ..Default::default()
        });
        let err = save_v2_with_io(&db, &aux, &path, &io).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        no_tmp_left();
        assert_eq!(std::fs::read(&path).unwrap(), before, "target untouched");

        // Fault-free pass through the same seam still works.
        save_v2_with_io(&db, &aux, &path, &tde_io::RealIo).unwrap();
        no_tmp_left();
        std::fs::remove_file(&path).ok();
    }

    /// Transient read faults (EINTR-style errors and short reads) are
    /// absorbed by the bounded-retry read path: scans through a flaky
    /// backend return the same values as the eager original.
    #[test]
    fn transient_read_faults_are_retried_on_scans() {
        use tde_io::{FaultIo, FaultPlan};
        let db = wide_db(4, 600);
        let path = tmp("flaky.tde2");
        save_v2(&db, &path).unwrap();
        let io = FaultIo::new(FaultPlan {
            transient_read_period: Some(2),
            short_read_period: Some(3),
            ..Default::default()
        });
        let paged = PagedDatabase::open_with_io(&path, PoolConfig::default(), &io).unwrap();
        let t = paged.table("wide").unwrap();
        let orig = db.table("wide").unwrap();
        for name in orig.columns.iter().map(|c| c.name.clone()) {
            let col = t.column(&name).unwrap();
            for row in (0..600).step_by(97) {
                assert_eq!(col.value(row), orig.column(&name).unwrap().value(row));
            }
        }
        let stats = io.stats();
        assert!(stats.transient_read_errors > 0, "{stats:?}");
        assert!(stats.short_reads > 0, "{stats:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_heaps_are_written_once_and_cached_once() {
        // Two columns sharing one heap Arc → one heap extent, one cached
        // heap entry.
        let mut b = ColumnBuilder::new("s1", DataType::Str, EncodingPolicy::default());
        for i in 0..400 {
            b.append_str(Some(["x", "y"][i % 2]));
        }
        let c1 = b.finish().column;
        let mut c2 = c1.clone();
        c2.name = "s2".into();
        let mut db = Database::new();
        db.add_table(Table::new("t", vec![c1, c2]));
        let path = tmp("shared.tde2");
        save_v2(&db, &path).unwrap();
        let paged = PagedDatabase::open(&path).unwrap();
        let t = paged.table("t").unwrap();
        let e1 = t.column_dir("s1").unwrap().heap.unwrap();
        let e2 = t.column_dir("s2").unwrap().heap.unwrap();
        assert_eq!(e1, e2, "shared heap must be deduplicated");
        t.column("s1").unwrap();
        let snap1 = paged.cache_snapshot();
        t.column("s2").unwrap();
        let snap2 = paged.cache_snapshot();
        // s2 loads its own stream but hits the shared heap entry.
        assert_eq!(snap2.misses, snap1.misses + 1);
        // Both columns read their values back through the one heap.
        let back = t.load_all().unwrap();
        for (a, b) in db.tables[0].columns.iter().zip(&back.columns) {
            for row in 0..400 {
                assert_eq!(a.value(row), b.value(row), "{} row {row}", a.name);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
