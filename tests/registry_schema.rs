//! The metrics registry's schema, pinned: one scripted sequence of
//! engine work — a pushed filter, a grouped aggregate, a fetch join, a
//! cold paged scan through `FaultIo` with one transient read fault and
//! its retry, a flat-file import, a delta append, snapshot and
//! compaction, a mid-load re-encode and a §3.4.3 conversion — must leave
//! exactly the instrument keys and counter deltas below.
//!
//! The registry is process-wide, so this file holds one test: nothing
//! else in its binary moves the registry while it runs. It passes with
//! the timeline on and off (`TDE_TRACE=0`): the registry counts the same
//! whether or not anything is recorded.

use std::sync::Arc;

use tde::delta::DeltaTable;
use tde::encodings::{EncodedStream, BLOCK_SIZE};
use tde::exec::expr::{AggFunc, CmpOp, Expr};
use tde::io::{FaultIo, FaultPlan};
use tde::obs::metrics::{self, SampleValue};
use tde::pager::{save_v2, PagedDatabase, PoolConfig};
use tde::plan::strategic::OptimizerOptions;
use tde::storage::{convert, Column, ColumnBuilder, Database, EncodingPolicy, Table};
use tde::types::{DataType, Value, Width};
use tde::Query;

/// The instrument keys after the sequence, each with its counter delta
/// (`counter N`), histogram observation count (`histogram N`) or kind
/// (`gauge`).
const EXPECTED: &str = "\
tde_columns_built_total counter 3
tde_compaction_duration_ns histogram 1
tde_compaction_rows_reencoded_total{encoding=\"FrameOfReference\"} counter 5300
tde_compactions_total counter 1
tde_conversions_total{route=\"dict-encoding->array-compression\"} counter 1
tde_conversions_total{route=\"for-encoding->array-compression\"} counter 1
tde_conversions_total{route=\"heap-sort-via-dictionary\"} counter 1
tde_delta_appends_total counter 300
tde_delta_bytes gauge
tde_delta_deletes_total counter 0
tde_delta_rows gauge
tde_delta_snapshot_duration_ns histogram 2
tde_delta_tombstones gauge
tde_import_bytes_total counter 39866
tde_import_parse_errors_total counter 1
tde_import_rows_total counter 3001
tde_io_faults_injected_total{kind=\"transient-read\"} counter 1
tde_io_retries_total{op=\"stream\"} counter 1
tde_kernel_pushdown_total{encoding=\"for\",kernel=\"for-offset\"} counter 1
tde_kernel_pushdown_total{encoding=\"rle\",kernel=\"rle-run-skip\"} counter 2
tde_kernel_rows_in_total counter 60000
tde_kernel_rows_out_total counter 14000
tde_kernel_rows_skipped_total counter 46000
tde_morsel_worker_busy_ns histogram 2
tde_morsels_dispatched_total counter 5
tde_operator_blocks_total{op=\"ExpandJoin\"} counter 12
tde_operator_blocks_total{op=\"Filter\"} counter 3
tde_operator_blocks_total{op=\"HashAggregate\"} counter 2
tde_operator_blocks_total{op=\"MorselHashAggregate\"} counter 1
tde_operator_blocks_total{op=\"OrderedAggregate\"} counter 1
tde_operator_blocks_total{op=\"Scan\"} counter 106
tde_operator_rows_total{op=\"ExpandJoin\"} counter 1000
tde_operator_rows_total{op=\"Filter\"} counter 12
tde_operator_rows_total{op=\"HashAggregate\"} counter 600
tde_operator_rows_total{op=\"MorselHashAggregate\"} counter 500
tde_operator_rows_total{op=\"OrderedAggregate\"} counter 10
tde_operator_rows_total{op=\"Scan\"} counter 94000
tde_parallel_queries_total counter 1
tde_pool_evicted_bytes_total counter 23134
tde_pool_evictions_total counter 2
tde_pool_hits_total counter 1
tde_pool_misses_total counter 3
tde_pool_read_bytes_total counter 59006
tde_pool_resident_bytes gauge
tde_queries_total counter 8
tde_query_latency_ns histogram 8
tde_query_rows_total counter 43122
tde_reencodings_total{phase=\"final-convert\"} counter 3
tde_reencodings_total{phase=\"mid-load\"} counter 7
tde_rows_encoded_total counter 5500
tde_segment_load_bytes_total{segment=\"stream\"} counter 59006
tde_segment_load_ns histogram 3
tde_segment_loads_total{segment=\"stream\"} counter 3
tde_tactical_decisions_total{choice=\"Direct64K\",point=\"hash-strategy\"} counter 3
tde_tactical_decisions_total{choice=\"Fetch\",point=\"join\"} counter 1
tde_tactical_decisions_total{choice=\"Hash\",point=\"aggregation\"} counter 3
tde_tactical_decisions_total{choice=\"Ordered\",point=\"aggregation\"} counter 1
tde_tactical_decisions_total{choice=\"morsel-parallel(degree=2)\",point=\"parallelism\"} counter 1
";

/// 20 000 rows: a sorted ten-value key (run-length territory) and a
/// payload.
fn demo_table() -> Arc<Table> {
    let mut k = ColumnBuilder::new("rs_k", DataType::Integer, EncodingPolicy::default());
    let mut v = ColumnBuilder::new("rs_v", DataType::Integer, EncodingPolicy::default());
    for i in 0..20_000i64 {
        k.append_i64(i / 2_000);
        v.append_i64((i * 13) % 500);
    }
    Arc::new(Table::new(
        "rs_demo",
        vec![k.finish().column, v.finish().column],
    ))
}

/// A dictionary-encoded day column converted to array compression
/// (§3.4.3), so a query grouping on it joins through its dictionary.
fn sales_table() -> Arc<Table> {
    let days: Vec<i64> = (0..20_000).map(|i| 9_000 + i % 2_000).collect();
    let mut stream = EncodedStream::new_dict(Width::W8, true, 11);
    for c in days.chunks(BLOCK_SIZE) {
        stream.append_block(c).unwrap();
    }
    let mut day = Column::scalar("rs_day", DataType::Date, stream);
    convert::dict_encoding_to_compression(&mut day);
    let mut qty = ColumnBuilder::new("rs_qty", DataType::Integer, EncodingPolicy::default());
    for i in 0..20_000i64 {
        qty.append_i64(i % 31);
    }
    Arc::new(Table::new("rs_sales", vec![day, qty.finish().column]))
}

/// Every sample as `key kind value`, counters and histogram counts as
/// deltas against `before`.
fn listing(before: &metrics::MetricsSnapshot, after: &metrics::MetricsSnapshot) -> String {
    let earlier = |key: &str| {
        before
            .samples
            .iter()
            .find(|s| s.key() == key)
            .map(|s| s.value.clone())
    };
    let mut out = String::new();
    for s in &after.samples {
        let key = s.key();
        let line = match (&s.value, earlier(&key)) {
            (SampleValue::Counter(v), Some(SampleValue::Counter(b))) => {
                format!("{key} counter {}", v - b)
            }
            (SampleValue::Counter(v), _) => format!("{key} counter {v}"),
            (SampleValue::Histogram(h), Some(SampleValue::Histogram(b))) => {
                format!("{key} histogram {}", h.count - b.count)
            }
            (SampleValue::Histogram(h), _) => format!("{key} histogram {}", h.count),
            (SampleValue::Gauge(_), _) => format!("{key} gauge"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn the_scripted_sequence_moves_exactly_the_pinned_instruments() {
    if !metrics::enabled() {
        return; // TDE_METRICS=0: a disabled registry has no samples
    }
    let dir = std::env::temp_dir().join(format!("tde_registry_schema_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let before = metrics::global().snapshot();

    // A pushed filter, kept off the index path so a kernel answers it.
    let t = demo_table();
    let pushed = Query::scan(&t)
        .filter(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3)))
        .with_optimizer(OptimizerOptions {
            index_tables: false,
            ordered_retrieval: false,
            ..Default::default()
        })
        .rows();
    assert_eq!(pushed.len(), 2_000);
    // A conjunct with no value set stays a Filter above the pushed scan.
    let residual = Query::scan(&t)
        .filter(Expr::And(
            Box::new(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3))),
            Box::new(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::col(0))),
        ))
        .with_optimizer(OptimizerOptions {
            index_tables: false,
            ordered_retrieval: false,
            ..Default::default()
        })
        .rows();
    assert_eq!(residual.len(), 12);

    // A grouped aggregate.
    let grouped = Query::scan(&t)
        .aggregate(vec![1], vec![(AggFunc::Sum, 0, "s")])
        .rows();
    assert_eq!(grouped.len(), 500);
    // The same aggregate as a degree-2 morsel pipeline.
    let parallel = Query::scan(&t)
        .aggregate(vec![1], vec![(AggFunc::Sum, 0, "s")])
        .with_parallelism(2)
        .rows();
    assert_eq!(parallel.len(), 500);

    // A fetch join: the array-compressed day column joins its dictionary.
    let sales = sales_table();
    let joined = Query::scan(&sales)
        .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9_100)))
        .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
        .rows();
    assert_eq!(joined.len(), 100);

    // A cold paged scan through a pool smaller than any one segment, with
    // the fourth read of the file (the first segment's) failing once with
    // a transient error the read path retries; then a hit, then a load
    // that evicts.
    let path = dir.join("rs.tde");
    {
        let mut w = ColumnBuilder::new("rs_w", DataType::Integer, EncodingPolicy::default());
        for i in 0..20_000i64 {
            w.append_i64((i * 7_919) % 10_007);
        }
        let mut columns = demo_table().columns.clone();
        columns.push(w.finish().column);
        let mut db = Database::new();
        db.add_table(Table::new("rs_demo", columns));
        save_v2(&db, &path).unwrap();
    }
    let io = FaultIo::new(FaultPlan {
        transient_read_period: Some(4),
        ..Default::default()
    });
    let pool = PoolConfig {
        budget_bytes: 4 << 10,
        shards: 1,
    };
    let paged = PagedDatabase::open_with_io(&path, pool, &io).unwrap();
    let pt = paged.table("rs_demo").unwrap();
    let cold = Query::scan_columns(&pt, &["rs_k", "rs_v"])
        .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(250)))
        .aggregate(vec![0], vec![(AggFunc::Count, 1, "n")])
        .rows();
    assert_eq!(cold.len(), 10);
    assert_eq!(io.stats().transient_read_errors, 1, "{:?}", io.stats());
    assert_eq!(Query::scan_columns(&pt, &["rs_k"]).rows().len(), 20_000);
    assert_eq!(Query::scan_columns(&pt, &["rs_w"]).rows().len(), 20_000);

    // An import with one field that does not parse.
    let mut text = String::from("id,word,amount\n");
    for i in 0..3_000 {
        text.push_str(&format!("{i},w{},{}.5\n", i % 40, i % 100));
    }
    text.push_str("oops,w,1.0\n");
    let options = tde::textscan::ImportOptions {
        table_name: "rs_import".into(),
        ..Default::default()
    };
    let imported = tde::textscan::import_bytes(text.as_bytes(), &options).unwrap();
    assert_eq!(imported.parse_errors, 1);

    // A delta append, snapshot and compaction. The name column is
    // spliced in its own encoding; the appended ids break the id column's
    // affine run, so compaction re-encodes it.
    let mut name = ColumnBuilder::new("rs_name", DataType::Str, EncodingPolicy::default());
    let mut id = ColumnBuilder::new("rs_id", DataType::Integer, EncodingPolicy::default());
    for i in 0..5_000i64 {
        name.append_str(Some(&format!("base-{}", i / 500)));
        id.append_i64(i);
    }
    let base = Arc::new(Table::new(
        "rs_delta",
        vec![name.finish().column, id.finish().column],
    ));
    let mut dt = DeltaTable::from_eager(base);
    let rows: Vec<Vec<Value>> = (0..300i64)
        .map(|i| {
            vec![
                Value::Str(format!("new-{}", i % 90)),
                Value::Int((i * 7_919) % 1_000_003),
            ]
        })
        .collect();
    dt.append_rows(&rows).unwrap();
    assert_eq!(dt.snapshot().unwrap().merged_rows(), 5_300);
    assert_eq!(dt.compact().unwrap().row_count(), 5_300);

    // A mid-load re-encode: a dense run, then values far outside it.
    let mut wide = ColumnBuilder::new("rs_wide", DataType::Integer, EncodingPolicy::default());
    for i in 0..4_096i64 {
        wide.append_i64(if i < 2_048 {
            i
        } else {
            (i * 2_654_435_761) % 1_000_003
        });
    }
    assert!(wide.finish().reencodings > 0);

    // A §3.4.3 conversion on a frame-of-reference column.
    let mut frame = EncodedStream::new_frame(Width::W8, true, 100, 6);
    let vals: Vec<i64> = (0..4_096).map(|i| 100 + i % 50).collect();
    for c in vals.chunks(BLOCK_SIZE) {
        frame.append_block(c).unwrap();
    }
    let mut col = Column::scalar("rs_for", DataType::Integer, frame);
    convert::for_encoding_to_compression(&mut col);

    let after = metrics::global().snapshot();
    std::fs::remove_dir_all(&dir).ok();
    let actual = listing(&before, &after);
    assert!(
        actual == EXPECTED,
        "the registry moved differently; the whole listing:\n{actual}"
    );
}
