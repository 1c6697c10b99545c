//! Builds are sized by the one worker rule: a FlowTable build or a
//! compaction forks workers only when its values come to
//! `BYTES_PER_WORKER` (8 MiB) per worker. The check reads which workers
//! recorded the build's column tasks on the timeline, inside the test's
//! own query scope.

use std::collections::BTreeSet;
use std::sync::Arc;
use tde::delta::DeltaTable;
use tde::exec::flow_table::{build_from_blocks, FlowTableOptions};
use tde::exec::morsel::BYTES_PER_WORKER;
use tde::exec::{Block, Field, Schema};
use tde::obs::timeline;
use tde::storage::{ColumnBuilder, EncodingPolicy, Table};
use tde::types::{DataType, Value};

/// The workers that ran `build`'s tasks, as its query scope recorded them.
fn task_workers(build: impl FnOnce()) -> BTreeSet<u32> {
    let token = timeline::query_begin(0);
    build();
    let trace = timeline::query_end(token, "build", 0, 0, None, &[]);
    trace
        .events
        .iter()
        .filter(|e| e.scope == trace.scope)
        .filter_map(|e| match e.kind {
            timeline::TimelineKind::Morsel { worker, .. } => Some(worker),
            _ => None,
        })
        .collect()
}

/// `cols` integer columns of `rows` rows, in 1024-row blocks.
fn blocks(cols: usize, rows: usize) -> (Schema, Vec<Block>) {
    let schema = Schema::new(
        (0..cols)
            .map(|c| Field::scalar(format!("c{c}"), DataType::Integer))
            .collect(),
    );
    let blocks = (0..rows)
        .step_by(1024)
        .map(|lo| {
            let hi = (lo + 1024).min(rows);
            Block::new(
                (0..cols)
                    .map(|c| (lo..hi).map(|r| (r * (c + 1) % 977) as i64).collect())
                    .collect(),
            )
        })
        .collect();
    (schema, blocks)
}

#[test]
fn small_builds_run_on_the_calling_thread() {
    let (schema, small) = blocks(4, 5_000);
    let opts = FlowTableOptions::default();
    let workers = task_workers(|| {
        let built = build_from_blocks(&schema, &small, "small", opts);
        assert_eq!(built.table.row_count(), 5_000);
    });
    assert_eq!(
        workers,
        BTreeSet::from([0]),
        "a 160 KB build forked workers"
    );

    let mut id = ColumnBuilder::new("id", DataType::Integer, EncodingPolicy::default());
    let mut qty = ColumnBuilder::new("qty", DataType::Integer, EncodingPolicy::default());
    for i in 0..3_000i64 {
        id.append_i64(i);
        qty.append_i64(i % 7);
    }
    let base = Arc::new(Table::new(
        "t",
        vec![id.finish().column, qty.finish().column],
    ));
    let mut delta = DeltaTable::from_eager(base);
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| vec![Value::Int(3_000 + i), Value::Int(i % 5)])
        .collect();
    delta.append_rows(&rows).unwrap();
    delta.delete(&[1, 2, 3]).unwrap();
    let workers = task_workers(|| {
        let compacted = delta.compact().unwrap();
        assert_eq!(compacted.row_count(), 3_197);
    });
    assert_eq!(
        workers,
        BTreeSet::from([0]),
        "a small compaction forked workers"
    );
}

#[test]
fn a_build_past_the_threshold_goes_parallel() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        eprintln!("skipped: one core, so every build runs on the calling thread");
        return;
    }
    // Two workers' worth of values, over more columns than workers.
    let (cols, rows) = (8, 2 * BYTES_PER_WORKER / 64);
    let (schema, big) = blocks(cols, rows);
    let workers = task_workers(|| {
        let built = build_from_blocks(&schema, &big, "big", FlowTableOptions::default());
        assert_eq!(built.table.row_count(), rows as u64);
    });
    assert!(workers.len() > 1, "a 16 MiB build ran on {workers:?}");
}
