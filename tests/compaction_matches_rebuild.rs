//! Compaction keeps every column in its own encoding — survivors' codes
//! move as they are and the delta leg is appended behind them — yet it
//! must store what a FlowTable rebuild of the same merged rows stores:
//! the same rows, the same claims (the width aside, which must be the
//! compacted stream's own), and only claims that hold.
//!
//! The matrix: a base with a column on every encoding the dynamic
//! encoder ends on, heap columns over few and over many strings, an
//! array-compressed column and a real; base lengths around the block
//! size; tombstones none, scattered, one whole block, every row; and a
//! tail that is empty, fits, widens the envelope or the index width,
//! brings new strings, or brings NULLs.

use std::collections::BTreeSet;
use std::sync::Arc;
use tde::delta::{BaseTable, DeltaConfig, DeltaExtract, DeltaTable};
use tde::encodings::Algorithm;
use tde::io::FaultIo;
use tde::obs::{span, timeline, Event};
use tde::pager::save_v2;
use tde::storage::{convert, Column, ColumnBuilder, Compression, Database, EncodingPolicy, Table};
use tde::types::{DataType, Value};
use tde_fuzz::delta_oracle::compaction_mismatches;
use tde_fuzz::oracle::check_column_claims;

/// The base columns, one per shape.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Raw,
    Frame,
    Delta,
    Dict,
    Affine,
    Runs,
    FewStrings,
    ManyStrings,
    Array,
    Real,
}

const KINDS: [Kind; 10] = [
    Kind::Raw,
    Kind::Frame,
    Kind::Delta,
    Kind::Dict,
    Kind::Affine,
    Kind::Runs,
    Kind::FewStrings,
    Kind::ManyStrings,
    Kind::Array,
    Kind::Real,
];

#[derive(Debug, Clone, Copy)]
enum Tail {
    Empty,
    Fits,
    Widens,
    NewStrings,
    Nulls,
}

#[derive(Debug, Clone, Copy)]
enum Tombstones {
    None,
    Scattered,
    WholeBlock,
    All,
}

fn dtype(kind: Kind) -> DataType {
    match kind {
        Kind::FewStrings | Kind::ManyStrings => DataType::Str,
        Kind::Real => DataType::Real,
        _ => DataType::Integer,
    }
}

/// Row `i` of a column of `kind`.
fn value(kind: Kind, i: i64) -> Value {
    match kind {
        Kind::Raw => Value::Int(i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)),
        Kind::Frame => Value::Int(1000 + (i * 7919) % 4000),
        Kind::Delta => Value::Int(i * 3 + i % 2),
        Kind::Dict => Value::Int([17, -5, 1_000_000_007, 42][i as usize % 4]),
        Kind::Affine => Value::Int(7 + 3 * i),
        Kind::Runs => Value::Int(i / 300),
        Kind::FewStrings => Value::Str(["dee", "ann", "cat", "bob"][i as usize % 4].into()),
        Kind::ManyStrings => Value::Str(format!("s{}", (i * 7919) % 50_000)),
        Kind::Array => Value::Int((i % 7) * 10),
        Kind::Real => Value::Real((i % 1000) as f64 / 8.0),
    }
}

/// Tail row `j` of a column of `kind` over a base of `n` rows.
fn tail_value(kind: Kind, tail: Tail, n: i64, j: i64) -> Value {
    let fits = match kind {
        // Continue the progression, the runs, the sorted sequence.
        Kind::Affine | Kind::Runs | Kind::Delta => value(kind, n + j),
        // Repeat base rows: inside every envelope, every string known.
        _ => value(kind, j % n),
    };
    match tail {
        Tail::Empty | Tail::Fits => fits,
        Tail::Widens => match kind {
            Kind::FewStrings | Kind::ManyStrings => Value::Str(format!("wide-{j}")),
            Kind::Real => Value::Real(1e9 + j as f64),
            Kind::Array => Value::Int(500 + j),
            _ => Value::Int(1_000_000_000_000 + j * 1_000_003),
        },
        Tail::NewStrings => match kind {
            Kind::FewStrings | Kind::ManyStrings if j % 3 == 0 => {
                Value::Str(format!("new-{}", j % 40))
            }
            _ => fits,
        },
        Tail::Nulls if j % 2 == 0 => Value::Null,
        Tail::Nulls => fits,
    }
}

fn build_column(kind: Kind, n: i64) -> Column {
    let mut b = ColumnBuilder::new(format!("{kind:?}"), dtype(kind), EncodingPolicy::default());
    for i in 0..n {
        b.append_value(&value(kind, i));
    }
    let mut col = b.finish().column;
    if matches!(kind, Kind::Array) && col.data.algorithm() == Algorithm::Dictionary {
        convert::dict_encoding_to_compression(&mut col);
    }
    col
}

fn base(n: i64) -> Arc<Table> {
    let columns = KINDS.iter().map(|&k| build_column(k, n)).collect();
    Arc::new(Table::new("m", columns))
}

fn tombstones(shape: Tombstones, n: u64) -> Vec<u64> {
    match shape {
        Tombstones::None => Vec::new(),
        Tombstones::Scattered => (0..n).step_by(7).collect(),
        Tombstones::WholeBlock => {
            let block = n / 2 / 1024;
            (block * 1024..((block + 1) * 1024).min(n)).collect()
        }
        Tombstones::All => (0..n).collect(),
    }
}

#[test]
fn compaction_matches_a_rebuild_across_the_matrix() {
    let mut cases = 0;
    for n in [1i64, 1023, 1024, 1025, 40_000] {
        let base = base(n);
        if n == 40_000 {
            let ended_on: BTreeSet<&str> = base
                .columns
                .iter()
                .map(|c| c.data.algorithm().name())
                .collect();
            assert_eq!(ended_on.len(), Algorithm::ALL.len(), "{ended_on:?}");
            assert!(matches!(
                base.columns[8].compression,
                Compression::Array { .. }
            ));
        }
        for tail in [
            Tail::Empty,
            Tail::Fits,
            Tail::Widens,
            Tail::NewStrings,
            Tail::Nulls,
        ] {
            let rows = if matches!(tail, Tail::Empty) { 0 } else { 1500 };
            let appended: Vec<Vec<Value>> = (0..rows)
                .map(|j| KINDS.iter().map(|&k| tail_value(k, tail, n, j)).collect())
                .collect();
            for dead in [
                Tombstones::None,
                Tombstones::Scattered,
                Tombstones::WholeBlock,
                Tombstones::All,
            ] {
                let case = format!("{n} base row(s), tail {tail:?}, tombstones {dead:?}");
                let mut dt = DeltaTable::from_eager(Arc::clone(&base));
                dt.append_rows(&appended).unwrap();
                dt.delete(&tombstones(dead, n as u64)).unwrap();
                if dt.is_clean() {
                    continue;
                }
                let merged = dt.merged_rows();
                let snapshot = dt.snapshot().unwrap();
                let compacted = dt.compact().unwrap();
                assert_eq!(compacted.row_count(), merged, "{case}");
                let mismatches = compaction_mismatches(&snapshot, &compacted);
                assert!(mismatches.is_empty(), "{case}: {mismatches:#?}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 5 * 5 * 4 - 5);
}

/// Both heap claims — the heap's sortedness and the token cardinality —
/// hold after compactions that add strings to a heap of more than 2¹⁵
/// distinct ones, and after the compaction that follows without new
/// strings.
#[test]
fn compaction_keeps_heap_claims_true_past_the_dictionary_limit() {
    let mut words = ColumnBuilder::new("w", DataType::Str, EncodingPolicy::default());
    for i in 0..40_000 {
        words.append_str(Some(&format!("w{i:05}")));
    }
    let base = Arc::new(Table::new("heap", vec![words.finish().column]));
    let mut dt = DeltaTable::from_eager(base);
    let batches: [Vec<String>; 2] = [
        (0..3000)
            .map(|j| format!("{}-new-{j}", ["zz", "aa"][j % 2]))
            .collect(),
        (0..3000).map(|j| format!("w{:05}", j * 13)).collect(),
    ];
    for (round, batch) in batches.iter().enumerate() {
        let rows: Vec<Vec<Value>> = batch.iter().map(|s| vec![Value::Str(s.clone())]).collect();
        dt.append_rows(&rows).unwrap();
        dt.delete(&(0..40_000).step_by(11).collect::<Vec<u64>>())
            .unwrap();
        let table = dt.compact().unwrap();
        let col = &table.columns[0];
        let Compression::Heap { heap, sorted } = &col.compression else {
            panic!("round {round}: not a heap column");
        };
        let heap_sorted = heap.is_sorted(tde::types::Collation::Binary);
        assert!(
            !*sorted || heap_sorted,
            "round {round}: compression claims a sorted heap"
        );
        assert!(
            !col.metadata.sorted_heap_tokens.is_true() || heap_sorted,
            "round {round}: metadata claims a sorted heap"
        );
        let distinct: BTreeSet<i64> = col.data.decode_all().into_iter().collect();
        assert!(distinct.len() > 1 << 15, "round {round}");
        assert!(
            col.metadata
                .cardinality
                .is_none_or(|c| c == distinct.len() as u64),
            "round {round}: claimed cardinality {:?} of {} distinct tokens",
            col.metadata.cardinality,
            distinct.len()
        );
        let mut ds = Vec::new();
        check_column_claims(col, &mut ds);
        assert!(ds.is_empty(), "round {round}: {ds:?}");
    }
}

/// Compacting a buffer with nothing in it rebuilds nothing and writes
/// nothing: no compaction event, no mutating I/O.
#[test]
fn compacting_a_clean_buffer_is_a_no_op() {
    let dir = std::env::temp_dir().join(format!("tde-clean-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("extract.tde");
    let mut db = Database::new();
    db.add_table((*base(3000)).clone());
    save_v2(&db, &path).unwrap();

    let io = FaultIo::counting();
    let mut ex =
        DeltaExtract::open_with_io(&path, DeltaConfig::default(), Arc::new(io.clone())).unwrap();
    let compactions = |f: &mut dyn FnMut()| {
        let token = timeline::query_begin(span::next_query_id());
        f();
        let trace = timeline::query_end(token, "", 0, 0, None, &[]);
        trace
            .own_events()
            .filter(|e| matches!(e, Event::Compaction { .. }))
            .count()
    };
    let was = timeline::set_enabled(true);

    let rows: Vec<Vec<Value>> = (0..10)
        .map(|j| KINDS.iter().map(|&k| value(k, j)).collect())
        .collect();
    ex.delta_mut("m").unwrap().append_rows(&rows).unwrap();
    ex.delta_mut("m").unwrap().delete(&[5, 6]).unwrap();
    assert_eq!(compactions(&mut || ex.compact("m").unwrap()), 1);
    let written = io.ops_observed();
    assert!(written > 0, "the first compaction saves");

    assert_eq!(compactions(&mut || ex.compact("m").unwrap()), 0);
    // A buffer opened and left untouched is clean too.
    ex.delta_mut("m").unwrap();
    assert_eq!(compactions(&mut || ex.compact("m").unwrap()), 0);
    assert_eq!(io.ops_observed(), written, "a clean compaction wrote");

    let mut dt = DeltaTable::from_eager(base(100));
    dt.append_rows(&rows).unwrap();
    let first = dt.compact().unwrap();
    let mut again = None;
    assert_eq!(compactions(&mut || again = Some(dt.compact().unwrap())), 0);
    assert!(
        Arc::ptr_eq(&first, &again.unwrap()),
        "a clean compaction rebuilt the base"
    );

    timeline::set_enabled(was);
    std::fs::remove_dir_all(&dir).ok();
}

/// Appended rows deleted again leave no rows to compact, yet their slots
/// still hold bytes: compacting frees them, so an append that fits the
/// budget succeeds, and the extract drops the buffer without a write.
#[test]
fn compacting_deleted_appends_frees_the_buffer() {
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|j| KINDS.iter().map(|&k| value(k, j)).collect())
        .collect();
    let mut probe = DeltaTable::from_eager(base(100));
    probe.append_rows(&rows).unwrap();
    let batch = probe.buffered_bytes();
    let config = DeltaConfig {
        max_bytes: batch + batch / 2,
    };
    let mut dt = DeltaTable::with_config(BaseTable::Eager(base(100)), config.clone());
    dt.append_rows(&rows).unwrap();
    let appended: Vec<u64> = (100..300).collect();
    assert_eq!(dt.delete(&appended).unwrap(), 200);
    assert!(dt.is_clean());
    assert!(dt.append_rows(&rows).is_err(), "the dead slots count");
    dt.compact().unwrap();
    assert_eq!(dt.buffered_bytes(), 0);
    dt.append_rows(&rows).unwrap();
    assert_eq!(dt.delta_rows(), 200);

    let dir = std::env::temp_dir().join(format!("tde-dead-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("extract.tde");
    let mut db = Database::new();
    db.add_table((*base(100)).clone());
    save_v2(&db, &path).unwrap();
    let io = FaultIo::counting();
    let mut ex = DeltaExtract::open_with_io(&path, config, Arc::new(io.clone())).unwrap();
    let opened = io.ops_observed();
    let dt = ex.delta_mut("m").unwrap();
    dt.append_rows(&rows).unwrap();
    dt.delete(&appended).unwrap();
    ex.compact("m").unwrap();
    assert!(ex.delta("m").is_none(), "the dead buffer survived");
    assert_eq!(
        io.ops_observed(),
        opened,
        "nothing to persist, yet it wrote"
    );
    ex.delta_mut("m").unwrap().append_rows(&rows).unwrap();

    // Persisted, then undone: the file must lose the persisted rows.
    ex.save().unwrap();
    let dt = ex.delta_mut("m").unwrap();
    dt.delete(&appended).unwrap();
    ex.compact("m").unwrap();
    let pt = ex.database().table("m").unwrap();
    assert!(!pt.has_delta() && !pt.has_tombstone());
    assert_eq!(pt.row_count(), 100);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sliding-window churn — delete the oldest rows, append as many from a
/// drifting domain, compact — must not let a spliced stream's packed
/// width creep: the frame a splice keeps drifts away from the rows, and
/// entries only deleted rows used linger in the dictionary. After every
/// compaction each column stays on its encoding and packs within one bit
/// of what a rebuild of its rows packs.
#[test]
fn churn_keeps_packed_widths_near_a_rebuild() {
    const WINDOW: i64 = 4000;
    const STEP: i64 = 1000;
    let frame = |i: i64| Value::Int(i + (i * 7919) % 4099);
    let dict = |i: i64| Value::Int(((i * 7) % 16 + i / 1000 * 16) * 1_000_000_007);
    let row = |i: i64| vec![frame(i), dict(i)];
    let mut columns = Vec::new();
    for (name, f) in [("frame", &frame as &dyn Fn(i64) -> Value), ("dict", &dict)] {
        let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
        (0..WINDOW).for_each(|i| b.append_value(&f(i)));
        columns.push(b.finish().column);
    }
    let mut dt = DeltaTable::from_eager(Arc::new(Table::new("churn", columns)));
    for round in 0..12 {
        let first = WINDOW + round * STEP;
        let rows: Vec<Vec<Value>> = (first..first + STEP).map(row).collect();
        dt.append_rows(&rows).unwrap();
        dt.delete(&(0..STEP as u64).collect::<Vec<u64>>()).unwrap();
        let snapshot = dt.snapshot().unwrap();
        let compacted = dt.compact().unwrap();
        let mismatches = compaction_mismatches(&snapshot, &compacted);
        assert!(mismatches.is_empty(), "round {round}: {mismatches:#?}");
        for (col, algorithm) in compacted
            .columns
            .iter()
            .zip([Algorithm::FrameOfReference, Algorithm::Dictionary])
        {
            let mut b = ColumnBuilder::new("rebuilt", DataType::Integer, EncodingPolicy::default());
            col.data.decode_all().iter().for_each(|&v| b.append_i64(v));
            let rebuilt = b.finish().column.data;
            let (got, want) = (col.data.header(), rebuilt.header());
            assert_eq!(got.algorithm, algorithm, "round {round}: {}", col.name);
            assert_eq!(want.algorithm, algorithm, "round {round}: {}", col.name);
            assert!(
                got.bits <= want.bits + 1,
                "round {round}: {} packs {} bits, a rebuild {}",
                col.name,
                got.bits,
                want.bits
            );
        }
    }
}

/// The compactions whose distinct count is the dearest to take, each
/// against a rebuild: sorted delta columns — more than 2¹⁵ distinct
/// values, and duplicates — and a descending one, all rebuilt by rule; a
/// 20-bit frame whose new rows widen it past the splice's code bitmap
/// while it keeps fewer than 2¹⁵ distinct values; and a frame wider than
/// the bitmap from the start, with fewer than 2¹⁵ distinct values, whose
/// count is settled by a recount.
#[test]
fn compaction_matches_a_rebuild_where_distinct_values_are_dear() {
    const N: i64 = 40_000;
    type Shape<'a> = (&'a str, Algorithm, &'a dyn Fn(i64) -> i64);
    let shapes: [Shape; 5] = [
        ("many", Algorithm::Delta, &|i| 1_000 + i * 5 + i % 3),
        ("dups", Algorithm::Delta, &|i| (i / 2) * 1_000_003),
        ("falls", Algorithm::Delta, &|i| {
            1_000_000_000_000 - i * 3 - i % 2
        }),
        ("frame20", Algorithm::FrameOfReference, &|i| {
            ((i % 20_000) * 7919) % (1 << 20)
        }),
        ("frame22", Algorithm::FrameOfReference, &|i| {
            (i * 7919) % 20_000 * 211
        }),
    ];
    let columns = shapes
        .iter()
        .map(|(name, algorithm, f)| {
            let mut b = ColumnBuilder::new(*name, DataType::Integer, EncodingPolicy::default());
            (0..N).for_each(|i| b.append_i64(f(i)));
            let col = b.finish().column;
            assert_eq!(col.data.algorithm(), *algorithm, "{name}");
            col
        })
        .collect();
    let base = Arc::new(Table::new("dear", columns));
    assert_eq!(base.columns[3].data.header().bits, 20);
    assert_eq!(base.columns[4].data.header().bits, 23);
    // Continue each sequence; push the frame past 20 bits with values it
    // already holds but one, so it keeps fewer than 2¹⁵ distinct values.
    let tail: Vec<Vec<Value>> = (0..1500)
        .map(|j| {
            let frame = if j == 0 { 1 << 21 } else { shapes[3].2(j) };
            vec![
                Value::Int(shapes[0].2(N + j)),
                Value::Int(shapes[1].2(N + j)),
                Value::Int(shapes[2].2(N + j)),
                Value::Int(frame),
                Value::Int(shapes[4].2(j)),
            ]
        })
        .collect();
    for dead in [
        Tombstones::None,
        Tombstones::Scattered,
        Tombstones::WholeBlock,
    ] {
        let mut dt = DeltaTable::from_eager(Arc::clone(&base));
        dt.append_rows(&tail).unwrap();
        dt.delete(&tombstones(dead, N as u64)).unwrap();
        let snapshot = dt.snapshot().unwrap();
        let compacted = dt.compact().unwrap();
        let mismatches = compaction_mismatches(&snapshot, &compacted);
        assert!(
            mismatches.is_empty(),
            "tombstones {dead:?}: {mismatches:#?}"
        );
        for (col, (name, algorithm, _)) in compacted.columns.iter().zip(&shapes) {
            assert_eq!(col.data.algorithm(), *algorithm, "{name}, {dead:?}");
        }
        assert_eq!(compacted.columns[3].data.header().bits, 22, "{dead:?}");
        for frame in &compacted.columns[3..] {
            let distinct: BTreeSet<i64> = frame.data.decode_all().into_iter().collect();
            assert!(distinct.len() < 1 << 15);
            assert_eq!(frame.metadata.cardinality, Some(distinct.len() as u64));
        }
        let many = &compacted.columns[0];
        assert_eq!(many.metadata.cardinality, None, "{dead:?}");
    }
}
