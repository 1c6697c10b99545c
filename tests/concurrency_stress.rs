//! Concurrency stress tests: many threads hammering the two shared,
//! stateful subsystems at once.
//!
//! 1. A paged extract behind a deliberately tiny buffer pool, so every
//!    scan fights for cache slots and forces evictions mid-query. The
//!    extract is immutable, so every thread must see byte-identical
//!    results no matter how the pool thrashes — and a quiesced rerun
//!    must reproduce them again.
//! 2. A live [`DeltaTable`] mutated by a writer while a background
//!    [`Compactor`] re-encodes it and reader threads scan snapshots at
//!    mixed morsel-parallel degrees. Each snapshot is immutable, so
//!    serial and parallel runs over it must agree exactly, and a row
//!    conservation invariant (`initial + appended - deleted`) must
//!    survive any interleaving of mutations and compactions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tde::delta::{Compactor, CompactorConfig, DeltaTable};
use tde::exec::block::{Block, Schema};
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::pager::{save_v2, PagedDatabase, PagedTable, PoolConfig};
use tde::storage::{ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::{DataType, Value};
use tde::Query;

const CITIES: [&str; 8] = [
    "lyon", "oslo", "kyiv", "lima", "turin", "quito", "perth", "osaka",
];

/// High-entropy integer stream: defeats RLE so the paged file is large
/// relative to the pool budget and scans genuinely churn the cache.
fn noisy(i: i64) -> i64 {
    (i.wrapping_mul(2654435761) ^ (i << 7)) % 1_000_003
}

fn orders_table(rows: i64) -> Table {
    let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
    let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
    let mut city = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        id.append_i64(i);
        qty.append_i64(noisy(i));
        city.append_str(Some(CITIES[i as usize % CITIES.len()]));
    }
    Table::new(
        "orders",
        vec![
            id.finish().column,
            qty.finish().column,
            city.finish().column,
        ],
    )
}

/// A wide, incompressible extract: 24 noisy integer columns plus one
/// string column. Wide matters — eviction only fires when a segment
/// *insert* finds the shard over budget, so the workload needs many
/// more segments than fit, with different queries pulling different
/// subsets so there is always something unpinned to evict.
fn wide_db(rows: i64) -> Database {
    let mut columns = Vec::new();
    for c in 0..24i64 {
        let name = format!("c{c}");
        let mut b = ColumnBuilder::new(&name, DataType::Integer, EncodingPolicy::default());
        for i in 0..rows {
            b.append_i64(noisy(i * 29 + c));
        }
        columns.push(b.finish().column);
    }
    let mut s = ColumnBuilder::new("city", DataType::Str, EncodingPolicy::default());
    for i in 0..rows {
        s.append_str(Some(CITIES[i as usize % CITIES.len()]));
    }
    columns.push(s.finish().column);
    let mut db = Database::new();
    db.add_table(Table::new("wide", columns));
    db
}

/// Canonical form of a query result for exact comparison across runs:
/// the schema's full debug rendering (so metadata claims count too)
/// plus every block's rows and lengths.
fn fingerprint(schema: &Schema, blocks: &[Block]) -> String {
    let mut s = format!("{schema:?}");
    for b in blocks {
        s.push_str(&format!("|len={} cols={:?}", b.len, b.columns));
    }
    s
}

// ---------------------------------------------------------------------
// 1. Paged extract under pool eviction pressure.
// ---------------------------------------------------------------------

/// The mixed query set every thread cycles through. Each variant pulls
/// a different column subset, so concurrent threads keep displacing
/// each other's segments. The extract is immutable, so fingerprints
/// are constant regardless of cache state or morsel scheduling.
fn paged_queries(t: &PagedTable, variant: usize) -> String {
    let (schema, blocks) = match variant % 4 {
        0 => Query::scan_columns(t, &["city", "c0", "c1"])
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(500_000)))
            .aggregate(
                vec![0],
                vec![(AggFunc::Count, 1, "n"), (AggFunc::Max, 2, "top")],
            )
            .with_parallelism(4)
            .run(),
        1 => Query::scan_columns(t, &["c5", "c6"])
            .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(400_000)))
            .aggregate(vec![], vec![(AggFunc::Sum, 0, "s"), (AggFunc::Max, 1, "m")])
            .with_parallelism(2)
            .run(),
        2 => Query::scan_columns(t, &["c10", "c11", "c12"])
            .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(40_000)))
            .run(),
        _ => Query::scan_columns(t, &["city", "c17"])
            .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
            .run(),
    };
    fingerprint(&schema, &blocks)
}

#[test]
fn paged_pool_stays_consistent_under_concurrent_eviction_pressure() {
    let dir = std::env::temp_dir().join("tde_concurrency_stress");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pressure.tde2");
    save_v2(&wide_db(20_000), &path).unwrap();

    // A budget a small fraction of the extract's segment footprint:
    // concurrent scans continually evict each other's columns.
    let budget = 192 * 1024;
    let db = PagedDatabase::open_with(
        &path,
        PoolConfig {
            budget_bytes: budget,
            shards: 2,
        },
    )
    .unwrap();

    let expected: Vec<String> = (0..4)
        .map(|v| paged_queries(&db.table("wide").unwrap(), v))
        .collect();

    std::thread::scope(|s| {
        for worker in 0..4usize {
            let db = &db;
            let expected = &expected;
            s.spawn(move || {
                let t = db.table("wide").unwrap();
                // Workers start at different offsets so distinct column
                // subsets are always in flight together.
                for iter in 0..10 {
                    let variant = (worker + iter) % 4;
                    assert_eq!(
                        paged_queries(&t, variant),
                        expected[variant],
                        "worker {worker} iteration {iter}: variant {variant} \
                         drifted under eviction pressure"
                    );
                }
            });
        }
    });

    // Quiesced rerun: same answers once the stampede is over.
    for (v, want) in expected.iter().enumerate() {
        assert_eq!(&paged_queries(&db.table("wide").unwrap(), v), want);
    }

    // Pool accounting stayed coherent through the thrash. Note there is
    // deliberately no hard `bytes_cached <= budget` cap: the sweep
    // tolerates over-budget occupancy while entries are pinned, and it
    // only runs on insert — so the *conservation identity* is the
    // contract, not the cap.
    let snap = db.cache_snapshot();
    assert_eq!(snap.budget_bytes, budget);
    assert!(snap.hits > 0, "repeat scans never hit the pool: {snap:?}");
    assert!(snap.misses > 0, "cold reads never missed: {snap:?}");
    assert!(
        snap.evictions > 0 && snap.bytes_evicted > 0,
        "a {budget}-byte budget must evict under this workload: {snap:?}"
    );
    assert!(
        snap.evictions <= snap.misses,
        "every eviction needs a prior insert: {snap:?}"
    );
    assert_eq!(
        snap.bytes_cached,
        snap.bytes_read - snap.bytes_evicted,
        "resident bytes must equal loaded minus evicted: {snap:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// A failing segment load must not poison its buffer-pool slot. Loads
/// run under the shard lock (the pool's single-flight discipline) and
/// insert only on success — so with `n` hard read failures armed, the
/// first `n` serialized loads fail, every later load (and every retry by
/// a thread that just saw the failure) succeeds with correct bytes, and
/// nothing corrupt or empty is ever cached.
#[test]
fn failed_segment_load_does_not_poison_the_pool_slot() {
    use tde::io::{FaultIo, FaultPlan};

    let dir = std::env::temp_dir().join("tde_concurrency_stress");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("poison.tde2");
    let eager = orders_table(5_000);
    let mut db = Database::new();
    db.add_table(eager.clone());
    save_v2(&db, &path).unwrap();

    let io = FaultIo::new(FaultPlan::default());
    let paged = PagedDatabase::open_with_io(&path, PoolConfig::default(), &io).unwrap();

    const ARMED: u64 = 3;
    const THREADS: usize = 8;
    io.arm_hard_read_failures(ARMED);

    // Storm: every thread demand-loads the same cold column, retrying on
    // failure. The shard lock serializes the loads and a failed load
    // inserts nothing, so each armed fault fails exactly one attempt —
    // ARMED failures total, distributed over the threads however the
    // races land — and every thread eventually succeeds against an
    // empty (not poisoned) slot.
    let failures = AtomicU64::new(0);
    std::thread::scope(|s| {
        for worker in 0..THREADS {
            let paged = &paged;
            let failures = &failures;
            s.spawn(move || {
                let t = paged.table("orders").unwrap();
                let col = loop {
                    match t.column("qty") {
                        Ok(c) => break c,
                        Err(e) => {
                            assert!(
                                e.to_string().contains("injected hard read failure"),
                                "worker {worker}: unexpected load error: {e}"
                            );
                            let seen = failures.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(
                                seen <= ARMED,
                                "worker {worker}: {seen} failures from {ARMED} armed faults"
                            );
                        }
                    }
                };
                for row in (0..5_000).step_by(617) {
                    assert_eq!(
                        col.value(row),
                        Value::Int(noisy(row as i64)),
                        "worker {worker}: cached column served wrong bytes at row {row}"
                    );
                }
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::SeqCst),
        ARMED,
        "each armed fault must fail exactly one load"
    );
    assert_eq!(io.stats().hard_read_errors, ARMED);

    // The pool recovered with the real segment: a full query over the
    // same handle matches the eager table, and the failed loads left no
    // phantom entries — resident bytes still reconcile with the counters.
    let sum: i64 = (0..5_000).map(noisy).sum();
    let rows = Query::scan_columns(&paged.table("orders").unwrap(), &["qty"])
        .aggregate(vec![], vec![(AggFunc::Sum, 0, "s")])
        .rows();
    assert_eq!(rows, vec![vec![Value::Int(sum)]]);
    let snap = paged.cache_snapshot();
    assert_eq!(
        snap.bytes_cached,
        snap.bytes_read - snap.bytes_evicted,
        "failed loads corrupted pool accounting: {snap:?}"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// 2. Live delta store + background compactor + parallel readers.
// ---------------------------------------------------------------------

fn delta_row(key: i64) -> Vec<Value> {
    vec![
        Value::Int(key),
        Value::Int(noisy(key) % 100),
        Value::Str(CITIES[key as usize % CITIES.len()].to_owned()),
    ]
}

#[test]
fn live_delta_under_background_compaction_answers_consistently() {
    const BASE_ROWS: i64 = 4_000;
    let base = Arc::new(orders_table(BASE_ROWS));
    let dt = Arc::new(parking_lot::Mutex::new(DeltaTable::from_eager(base)));

    // Aggressive thresholds + fast polling: compactions race the
    // mutations and snapshots instead of waiting politely for the end.
    let compactor = Compactor::spawn(
        dt.clone(),
        CompactorConfig {
            max_delta_rows: 512,
            max_tombstones: 256,
            max_delta_bytes: 1 << 20,
            poll: Duration::from_millis(2),
        },
    );

    let appended = Arc::new(AtomicU64::new(0));
    let deleted = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Writer: batches of appends with interleaved deletes. Delete
        // targets are bounded by merged_rows, which is always a valid
        // id bound no matter how compaction has re-packed the store.
        {
            let dt = dt.clone();
            let appended = appended.clone();
            let deleted = deleted.clone();
            s.spawn(move || {
                for round in 0..200i64 {
                    let mut g = dt.lock();
                    let batch: Vec<Vec<Value>> = (0..8)
                        .map(|j| delta_row(BASE_ROWS + round * 8 + j))
                        .collect();
                    g.append_rows(&batch).unwrap();
                    appended.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    if round % 3 == 0 {
                        let upper = g.merged_rows();
                        let ids: Vec<u64> = (0..2)
                            .map(|k| (noisy(round * 31 + k) as u64) % upper)
                            .collect();
                        deleted.fetch_add(g.delete(&ids).unwrap(), Ordering::Relaxed);
                    }
                    drop(g);
                    std::thread::yield_now();
                }
            });
        }

        // Readers: snapshot the store mid-flight and check that each
        // (immutable) snapshot answers identically at every morsel
        // degree, and that its full-scan cardinality matches the row
        // count the store claimed at snapshot time.
        for reader in 0..3usize {
            let dt = dt.clone();
            s.spawn(move || {
                for iter in 0..40 {
                    let (src, claimed_rows) = {
                        let g = dt.lock();
                        (g.snapshot().unwrap(), g.merged_rows())
                    };
                    let query = || {
                        Query::scan(&src)
                            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(10)))
                            .aggregate(
                                vec![2],
                                vec![(AggFunc::Count, 0, "n"), (AggFunc::Sum, 1, "total")],
                            )
                    };
                    let (schema, blocks) = query().run();
                    for degree in [2usize, 4] {
                        let (ps, pb) = query().with_parallelism(degree).run();
                        assert_eq!(
                            fingerprint(&schema, &blocks),
                            fingerprint(&ps, &pb),
                            "reader {reader} iteration {iter}: degree-{degree} run \
                             diverged from serial on the same snapshot"
                        );
                    }
                    let full: u64 = Query::scan(&src)
                        .aggregate(vec![], vec![(AggFunc::Count, 0, "n")])
                        .rows()
                        .iter()
                        .map(|r| match r[0] {
                            Value::Int(n) => n as u64,
                            ref v => panic!("count returned {v:?}"),
                        })
                        .sum();
                    assert_eq!(
                        full, claimed_rows,
                        "reader {reader} iteration {iter}: snapshot cardinality drifted"
                    );
                }
            });
        }
    });

    compactor.stop();

    // Conservation: whatever the interleaving of appends, deletes and
    // compactions, the logical row count is exact.
    let mut g = dt.lock();
    assert_eq!(
        g.merged_rows(),
        BASE_ROWS as u64 + appended.load(Ordering::Relaxed) - deleted.load(Ordering::Relaxed),
        "row conservation violated across concurrent compactions"
    );

    // Quiesced rerun: the final answer survives one more (manual)
    // compaction. Canonicalized rows, not fingerprints — re-encoding is
    // free to tighten metadata claims and re-token the dictionary, and
    // the group emission order is an implementation detail.
    let quiesced = |g: &DeltaTable| {
        let src = g.snapshot().unwrap();
        let mut rows = Query::scan(&src)
            .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(10)))
            .aggregate(vec![2], vec![(AggFunc::Sum, 1, "total")])
            .with_parallelism(4)
            .rows();
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    let before = quiesced(&g);
    g.compact().unwrap();
    assert!(g.is_clean(), "manual compact left residue");
    assert_eq!(
        quiesced(&g),
        before,
        "compaction changed the quiesced answer"
    );
}
