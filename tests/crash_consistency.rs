//! Crash-consistency torture harness for the fault-injectable I/O layer.
//!
//! Every save flavor — the eager v2 writer, the paged facade save, and
//! the delta-aux save — is replayed with an injected crash at *each*
//! mutating-operation boundary (create, every buffered write, fsync,
//! rename). After every simulated crash the file is reopened with a
//! clean backend and must fingerprint as exactly the old extract or
//! exactly the new one: never a hybrid, never a panic. A separate leg
//! verifies that scans under transient read faults succeed after bounded
//! retries and that the retry/fault counters in tde-obs move.
//!
//! Scale with `TDE_TORTURE_SEEDS` (default 2; nightly CI runs more).
//! On failure the assert message carries the seed and boundary index,
//! which replay the exact same fault schedule.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tde::delta::{DeltaConfig, DeltaExtract, ScanSource};
use tde::io::{FaultIo, FaultPlan, RealIo};
use tde::pager::{save_v2_with_io, PagedDatabase, PoolConfig};
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::{DataType, Value};
use tde::{Extract, Query};

fn torture_seeds() -> u64 {
    std::env::var("TDE_TORTURE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tde_crash_torture_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small two-table database whose contents depend on `variant`, so
/// distinct variants fingerprint differently.
fn db(variant: u64) -> Database {
    let v = variant as i64;
    let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
    let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
    let mut city = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..800i64 {
        id.append_i64(i);
        qty.append_i64((i * 7 + v * 13) % 500);
        city.append_str(Some(
            ["lyon", "oslo", "kyiv", "lima"][((i + v) % 4) as usize],
        ));
    }
    let mut metric = ColumnBuilder::new("v", DataType::Integer, EncodingPolicy::default());
    for i in 0..300i64 {
        metric.append_i64(i * 3 + v);
    }
    let mut out = Database::new();
    out.add_table(Table::new(
        "orders",
        vec![
            id.finish().column,
            qty.finish().column,
            city.finish().column,
        ],
    ));
    out.add_table(Table::new("metrics", vec![metric.finish().column]));
    out
}

/// Canonical rendering of a fully-loaded paged file: every table, every
/// column, every value. Opening and loading go through a clean backend —
/// this is "what a recovering process would see".
fn fingerprint(path: &Path) -> String {
    let pdb = PagedDatabase::open_with_io(path, PoolConfig::default(), &RealIo)
        .unwrap_or_else(|e| panic!("recovered file failed to open: {e}"));
    let mut out = String::new();
    for name in pdb.table_names() {
        let table = pdb
            .table(name)
            .unwrap()
            .load_all()
            .unwrap_or_else(|e| panic!("recovered table {name:?} failed to load: {e}"));
        out.push_str(&format!("table {name}\n"));
        for c in &table.columns {
            out.push_str(&format!("  col {}:", c.name));
            for r in 0..c.len() {
                out.push_str(&format!(" {}", c.value(r)));
            }
            out.push('\n');
        }
    }
    out
}

/// Canonical rendering of an extract *including* its delta/tombstone aux
/// payloads: each table is materialized the way a query would scan it.
fn delta_fingerprint(path: &Path) -> String {
    let ex = DeltaExtract::open(path)
        .unwrap_or_else(|e| panic!("recovered delta extract failed to open: {e}"));
    let mut out = String::new();
    for name in ex.table_names() {
        out.push_str(&format!("table {name}\n"));
        match ex.source(&name).unwrap() {
            ScanSource::Clean(pt) => {
                let table = pt.load_all().unwrap();
                for c in &table.columns {
                    out.push_str(&format!("  col {}:", c.name));
                    for r in 0..c.len() {
                        out.push_str(&format!(" {}", c.value(r)));
                    }
                    out.push('\n');
                }
            }
            ScanSource::Merged(src) => {
                for row in Query::scan(&src).rows() {
                    out.push_str("  row");
                    for v in row {
                        out.push_str(&format!(" {v}"));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Sweep `crash_at_op` over every boundary of one save flavor.
///
/// * `save_old` / `save_new` write the two states through a given
///   backend; `print` fingerprints whatever is on disk with a clean one.
/// * For each boundary k the file is reset to the old state, the save of
///   the new state is crashed at k, and the recovered file must equal
///   exactly one of the two fingerprints.
fn crash_sweep(
    flavor: &str,
    seed: u64,
    path: &Path,
    save_old: &dyn Fn(&dyn tde::io::StorageIo) -> std::io::Result<()>,
    save_new: &dyn Fn(&FaultIo) -> std::io::Result<()>,
    print: &dyn Fn(&Path) -> String,
) {
    save_old(&RealIo).unwrap();
    let old_bytes = std::fs::read(path).unwrap();
    let old_print = print(path);

    // Fault-free counting pass: how many boundaries does this save have?
    let counter = FaultIo::counting();
    save_new(&counter).unwrap_or_else(|e| panic!("[{flavor} seed={seed}] counting save: {e}"));
    let boundaries = counter.ops_observed();
    assert!(
        boundaries >= 4,
        "[{flavor} seed={seed}] implausibly few boundaries: {boundaries}"
    );
    let new_print = print(path);
    assert_ne!(
        old_print, new_print,
        "[{flavor} seed={seed}] states must be distinguishable"
    );

    let (mut saw_old, mut saw_new) = (false, false);
    // k == boundaries: the crash never fires and the save must succeed —
    // the sweep's "new" witness.
    for k in 0..=boundaries {
        std::fs::write(path, &old_bytes).unwrap();
        let fault = FaultIo::new(FaultPlan {
            seed,
            crash_at_op: Some(k),
            ..Default::default()
        });
        let result = save_new(&fault);
        if k < boundaries {
            assert!(
                result.is_err(),
                "[{flavor} seed={seed} k={k}] crashed save must report failure"
            );
            assert!(
                fault.crashed(),
                "[{flavor} seed={seed} k={k}] crash must fire"
            );
        } else {
            result.unwrap_or_else(|e| panic!("[{flavor} seed={seed} k={k}] clean save: {e}"));
        }
        let recovered = print(path);
        if recovered == old_print {
            saw_old = true;
        } else if recovered == new_print {
            saw_new = true;
        } else {
            panic!("[{flavor} seed={seed} k={k}] recovered file is a hybrid:\n{recovered}");
        }
    }
    assert!(
        saw_old,
        "[{flavor} seed={seed}] no crash left the old state"
    );
    assert!(
        saw_new,
        "[{flavor} seed={seed}] no pass produced the new state"
    );
}

#[test]
fn eager_v2_save_is_crash_atomic() {
    for seed in 0..torture_seeds() {
        let path = temp_path(&format!("eager_{seed}.tde2"));
        let (old_db, new_db) = (db(2 * seed), db(2 * seed + 1));
        crash_sweep(
            "eager-v2",
            seed,
            &path,
            &|io| save_v2_with_io(&old_db.tables, &HashMap::new(), &path, io),
            &|io| save_v2_with_io(&new_db.tables, &HashMap::new(), &path, io),
            &fingerprint,
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn paged_facade_save_is_crash_atomic() {
    for seed in 0..torture_seeds() {
        let path = temp_path(&format!("paged_{seed}.tde2"));
        let mut old_ex = Extract::new();
        for t in db(2 * seed).tables {
            old_ex.add_table(t);
        }
        let mut new_ex = Extract::new();
        for t in db(2 * seed + 1).tables {
            new_ex.add_table(t);
        }
        crash_sweep(
            "paged",
            seed,
            &path,
            &|io| old_ex.save_with_io(&path, io),
            &|io| new_ex.save_with_io(&path, io),
            &fingerprint,
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn delta_aux_save_is_crash_atomic() {
    for seed in 0..torture_seeds() {
        let path = temp_path(&format!("delta_{seed}.tde2"));
        let base = db(2 * seed);
        // The new state is the old one plus buffered mutations persisted
        // as aux payloads: the save rewrites base segments *and* appends
        // delta/tombstone sections, so every boundary class is swept.
        let mutate_and_save = |io: &FaultIo| -> std::io::Result<()> {
            let mut ex =
                DeltaExtract::open_with_io(&path, DeltaConfig::default(), Arc::new(io.clone()))?;
            let dt = ex.delta_mut("orders")?;
            dt.append_rows(&[
                vec![
                    Value::Int(9000 + seed as i64),
                    Value::Int(77),
                    Value::Str("nara".into()),
                ],
                vec![Value::Int(9001), Value::Int(78), Value::Str("bern".into())],
            ])?;
            dt.delete(&[3, 11])?;
            ex.save()
        };
        crash_sweep(
            "delta-aux",
            seed,
            &path,
            &|io| save_v2_with_io(&base.tables, &HashMap::new(), &path, io),
            &mutate_and_save,
            &delta_fingerprint,
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Count every `tde_io_retries_total` sample (all `op` labels).
fn retries_total(snap: &tde::obs::metrics::MetricsSnapshot) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == "tde_io_retries_total")
        .map(|s| match s.value {
            tde::obs::metrics::SampleValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

#[test]
fn scans_survive_transient_faults_with_retry_counters() {
    let path = temp_path("transient.tde2");
    save_v2_with_io(&db(5).tables, &HashMap::new(), &path, &RealIo).unwrap();

    let expected = {
        let pdb = PagedDatabase::open_with_io(&path, PoolConfig::default(), &RealIo).unwrap();
        tde::Query::scan(&pdb.table("orders").unwrap()).rows()
    };

    let before = tde::obs::metrics::global().snapshot();
    let fault = FaultIo::new(FaultPlan {
        transient_read_period: Some(2),
        short_read_period: Some(3),
        ..Default::default()
    });
    let pdb = PagedDatabase::open_with_io(&path, PoolConfig::default(), &fault).unwrap();
    let rows = tde::Query::scan(&pdb.table("orders").unwrap())
        .try_rows()
        .expect("transient faults must be absorbed by bounded retry");
    assert_eq!(rows, expected, "faulted scan changed results");
    let stats = fault.stats();
    assert!(stats.transient_read_errors > 0, "{stats:?}");
    assert!(stats.short_reads > 0, "{stats:?}");
    if tde::obs::metrics::enabled() {
        let after = tde::obs::metrics::global().snapshot();
        assert!(
            retries_total(&after) > retries_total(&before),
            "tde_io_retries_total must move under transient faults"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_segment_surfaces_as_typed_query_error() {
    let path = temp_path("typed_err.tde2");
    save_v2_with_io(&db(9).tables, &HashMap::new(), &path, &RealIo).unwrap();
    // The first column segment starts at the first block boundary; flip
    // one byte inside it. The demand load must fail with a checksum
    // mismatch through the whole query stack — no panic, no wrong rows.
    let mut bytes = std::fs::read(&path).unwrap();
    let at = tde::pager::BLOCK_ALIGN as usize + 8;
    bytes[at] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let pdb = PagedDatabase::open(&path).unwrap();
    let err = tde::Query::scan(&pdb.table("orders").unwrap())
        .try_rows()
        .expect_err("corrupt segment must fail the query");
    let details = tde::io::checksum_mismatch_details(&err)
        .unwrap_or_else(|| panic!("expected checksum mismatch, got: {err}"));
    assert_eq!(details.segment, "stream");
    std::fs::remove_file(&path).ok();
}
