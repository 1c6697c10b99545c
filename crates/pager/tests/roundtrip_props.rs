//! Property tests: the paged format must roundtrip columns of every
//! encoding × compression combination —
//! values, metadata, compression structure and heap sort flags all
//! preserved bit-for-bit.
//!
//! Encodings are chosen by the dynamic encoder from the data's
//! statistics, so the generators produce the *shapes* that trigger each
//! algorithm (sorted dense → affine/delta, low cardinality → dictionary,
//! long runs → RLE, narrow range → frame-of-reference, wide random →
//! raw); compression levels are exercised via scalar, array-converted
//! and heap (string) columns.

include!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/common/proptest_env.rs"
));

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tde_pager::{save_v2, PagedDatabase};
use tde_storage::{convert, Column, ColumnBuilder, Compression, Database, EncodingPolicy, Table};
use tde_types::DataType;

/// Build an integer column from raw values with the default policy.
fn int_column(name: &str, data: &[i64]) -> Column {
    let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
    b.append_raw(data);
    b.finish().column
}

/// Build a string column (heap compression) from a token choice list.
fn str_column(name: &str, picks: &[u8]) -> Column {
    const WORDS: [&str; 5] = ["ash", "birch", "cedar", "oak", "pine"];
    let mut b = ColumnBuilder::new(name, DataType::Str, EncodingPolicy::default());
    for &p in picks {
        if p == 255 {
            b.append_str(None);
        } else {
            b.append_str(Some(WORDS[p as usize % WORDS.len()]));
        }
    }
    b.finish().column
}

/// Every data shape the dynamic encoder reacts to, as one strategy: the
/// selector picks the shape, the raw vector supplies the entropy.
fn shaped_data() -> impl Strategy<Value = Vec<i64>> {
    (0u8..5, vec(any::<i64>(), 1..2500), any::<i32>()).prop_map(|(kind, raw, start)| match kind {
        // Narrow range → frame-of-reference.
        0 => raw.iter().map(|v| v.rem_euclid(100) - 50).collect(),
        // Wide random → raw / wide FoR.
        1 => raw,
        // Sorted dense (affine/delta): start plus a prefix sum of steps.
        2 => {
            let mut v = start as i64;
            raw.iter()
                .map(|s| {
                    v += s.rem_euclid(3);
                    v
                })
                .collect()
        }
        // Low cardinality, shuffled → dictionary.
        3 => raw.iter().map(|v| v.rem_euclid(8) * 1_000_003).collect(),
        // Long runs → RLE.
        _ => raw
            .iter()
            .flat_map(|v| std::iter::repeat_n(v.rem_euclid(6), (v.rem_euclid(97) + 1) as usize))
            .take(3000)
            .collect(),
    })
}

/// Assert two columns are indistinguishable: same bytes, same metadata,
/// same compression structure, same values.
fn assert_columns_equal(a: &Column, b: &Column, ctx: &str) {
    assert_eq!(a.name, b.name, "{ctx}: name");
    assert_eq!(a.dtype, b.dtype, "{ctx}: dtype");
    assert_eq!(a.metadata, b.metadata, "{ctx}: metadata");
    assert_eq!(
        a.data.as_bytes(),
        b.data.as_bytes(),
        "{ctx}: stream bytes ({})",
        a.name
    );
    match (&a.compression, &b.compression) {
        (Compression::None, Compression::None) => {}
        (
            Compression::Array {
                dictionary: d1,
                sorted: s1,
            },
            Compression::Array {
                dictionary: d2,
                sorted: s2,
            },
        ) => {
            assert_eq!(d1, d2, "{ctx}: dictionary");
            assert_eq!(s1, s2, "{ctx}: dictionary sort flag");
        }
        (
            Compression::Heap {
                heap: h1,
                sorted: s1,
            },
            Compression::Heap {
                heap: h2,
                sorted: s2,
            },
        ) => {
            assert_eq!(h1.as_bytes(), h2.as_bytes(), "{ctx}: heap bytes");
            assert_eq!(s1, s2, "{ctx}: heap sort flag");
        }
        (x, y) => panic!("{ctx}: compression tag mismatch {} vs {}", x.tag(), y.tag()),
    }
    for row in 0..a.data.len() {
        assert_eq!(a.value(row), b.value(row), "{ctx}: value at row {row}");
    }
}

/// Roundtrip a database through the paged format and compare every
/// column with the original.
fn assert_roundtrips(db: &Database) {
    let dir = std::env::temp_dir().join("tde_pager_props");
    std::fs::create_dir_all(&dir).unwrap();
    // One file per call: the harness runs this file's tests in parallel.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("prop_{}_{call}.tde2", std::process::id()));
    save_v2(db, &path).unwrap();
    let paged = PagedDatabase::open(&path).unwrap();
    for t in &db.tables {
        let back = paged.table(&t.name).unwrap().load_all().unwrap();
        assert_eq!(back.row_count(), t.row_count());
        for (orig, col) in t.columns.iter().zip(&back.columns) {
            assert_columns_equal(orig, col, "paged");
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(24)))]

    #[test]
    fn scalar_columns_roundtrip(data in shaped_data()) {
        let col = int_column("v", &data);
        let mut db = Database::new();
        db.add_table(Table::new("t", vec![col]));
        assert_roundtrips(&db);
    }

    #[test]
    fn array_compressed_columns_roundtrip(data in vec(0i64..8, 1..2500)) {
        // Spread the domain, then re-encode as a dictionary and promote
        // it to array compression (reencode_as_dictionary does both).
        let spread: Vec<i64> = data.iter().map(|&x| x * 1_000_003).collect();
        let mut col = int_column("v", &spread);
        convert::reencode_as_dictionary(&mut col);
        let is_array = matches!(col.compression, Compression::Array { .. });
        let mut db = Database::new();
        db.add_table(Table::new("t", vec![col]));
        assert_roundtrips(&db);
        // The conversion must actually have produced array compression
        // for the roundtrip to mean anything.
        prop_assert!(is_array);
    }

    #[test]
    fn heap_columns_roundtrip(picks in vec(any::<u8>(), 1..2500)) {
        let col = str_column("s", &picks);
        let mut db = Database::new();
        db.add_table(Table::new("t", vec![col]));
        assert_roundtrips(&db);
    }

    #[test]
    fn mixed_tables_roundtrip(
        a in shaped_data(),
        picks in vec(any::<u8>(), 1..1500),
        b in vec(0i64..10, 1..1500),
    ) {
        // One table per shape (row counts differ), all in one database.
        let mut db = Database::new();
        db.add_table(Table::new("ints", vec![int_column("v", &a)]));
        db.add_table(Table::new("strs", vec![str_column("s", &picks)]));
        let n = picks.len().min(b.len());
        db.add_table(Table::new(
            "pair",
            vec![
                int_column("k", &b[..n]),
                str_column("s", &picks[..n]),
            ],
        ));
        assert_roundtrips(&db);
    }
}
