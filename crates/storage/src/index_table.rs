//! The run structure of a run-length column: its IndexTable (paper
//! §4.2.1) and the prefix index over its runs.
//!
//! The IndexTable has three columns — *value*, *count* and *start* —
//! where value and count come straight from the run pairs and start is
//! the running total of the counts. It is a *view* that exposes the
//! column to the optimizer: single-column predicates filter runs, not
//! rows. [`RunIndex`] holds the same run starts and values for binary
//! search, the random access a run-length stream lacks.
//!
//! Both derive from the stream alone, so a resident table builds them
//! once per column and shares them ([`crate::Table::run_index`]). The
//! builders here are uncached. They work at run cost: one pass over the
//! runs, each IndexTable column written straight into a fixed-width
//! stream. The value column carries the claims a column builder would
//! extract from the same values (they steer the tactical choices above
//! the scan); count and start carry what the pass proves directly.

use crate::builder::scalar_metadata;
use crate::{Column, Compression, Table};
use tde_encodings::metadata::Knowledge;
use tde_encodings::{ColumnMetadata, ColumnStats, EncodedStream, BLOCK_SIZE};
use tde_types::sentinel::NULL_I64;
use tde_types::{DataType, Width};

/// Build the IndexTable of a run-length encoded column.
pub fn build_index_table(column: &Column, name: &str) -> Table {
    let runs = column
        .data
        .rle_run_iter()
        .expect("an IndexTable needs a run-length encoded column");
    let mut values = Vec::with_capacity(runs.len());
    let mut counts = Vec::with_capacity(runs.len());
    let mut starts = Vec::with_capacity(runs.len());
    let mut at = 0i64;
    for (v, c) in runs {
        values.push(v);
        counts.push(c as i64);
        starts.push(at);
        at += c as i64;
    }
    assemble(name, column.dtype, &values, &counts, &starts)
}

/// The (value, count, start) table over the three columns' values.
pub fn assemble(
    name: &str,
    dtype: DataType,
    values: &[i64],
    counts: &[i64],
    starts: &[i64],
) -> Table {
    let mut stats = ColumnStats::new();
    stats.update(values);
    let mut start = envelope(starts);
    if !starts.is_empty() {
        let ascending = starts.windows(2).all(|w| w[0] <= w[1]);
        start.sorted_asc = Knowledge::from_bool(ascending);
        if ascending {
            start.unique = Knowledge::from_bool(starts.windows(2).all(|w| w[0] < w[1]));
        }
    }
    Table::new(
        name,
        vec![
            fixed_column("value", dtype, values, scalar_metadata(dtype, &stats)),
            fixed_column("count", DataType::Integer, counts, envelope(counts)),
            fixed_column("start", DataType::Integer, starts, start),
        ],
    )
}

/// What one look at the values proves: their envelope, whether the NULL
/// sentinel (the smallest value) is among them, and the width that holds
/// them.
fn envelope(vals: &[i64]) -> ColumnMetadata {
    let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) else {
        return ColumnMetadata::unknown();
    };
    ColumnMetadata {
        min: Some(min),
        max: Some(max),
        has_nulls: Knowledge::from_bool(min == NULL_I64),
        width: Width::for_signed_range(min, max, true),
        ..ColumnMetadata::unknown()
    }
}

/// A column holding `vals` in a raw stream of the claimed width.
fn fixed_column(name: &str, dtype: DataType, vals: &[i64], metadata: ColumnMetadata) -> Column {
    let mut data = EncodedStream::new_raw(metadata.width, true);
    for block in vals.chunks(BLOCK_SIZE) {
        data.append_block(block)
            .expect("a raw stream takes every value at a width that holds it");
    }
    Column {
        name: name.to_owned(),
        dtype,
        data,
        compression: Compression::None,
        metadata,
    }
}

/// The prefix-sum index over a run-length stream's runs: where each run
/// starts and what it holds, so the run holding any row is a binary
/// search — the index structure standing in for the stream's missing
/// random access (§4.2.1).
#[derive(Debug, PartialEq, Eq)]
pub struct RunIndex {
    starts: Vec<u64>,
    values: Vec<i64>,
    rows: u64,
}

impl RunIndex {
    /// Index `stream`'s runs (O(runs)); `None` unless it is run-length.
    pub fn new(stream: &EncodedStream) -> Option<RunIndex> {
        let runs = stream.rle_run_iter()?;
        let mut starts = Vec::with_capacity(runs.len());
        let mut values = Vec::with_capacity(runs.len());
        let mut at = 0u64;
        for (v, c) in runs {
            starts.push(at);
            values.push(v);
            at += c;
        }
        Some(RunIndex {
            starts,
            values,
            rows: stream.len(),
        })
    }

    /// The run holding row `row`.
    pub fn find(&self, row: u64) -> usize {
        self.starts.partition_point(|&s| s <= row) - 1
    }

    /// Run `run`'s value.
    pub fn value(&self, run: usize) -> i64 {
        self.values[run]
    }

    /// The row after run `run`'s last.
    pub fn end(&self, run: usize) -> u64 {
        self.starts.get(run + 1).copied().unwrap_or(self.rows)
    }
}
