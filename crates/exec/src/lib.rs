//! Block-iterated Volcano-style execution engine (paper §2.3.1).
//!
//! Two operator styles exist: *flow* operators process one block of rows
//! at a time ([`scan::TableScan`], [`filter::Filter`],
//! [`project::Project`]); *stop-and-go* operators
//! must consume their whole input before producing output
//! ([`flow_table::FlowTable`], [`sort::Sort`], the aggregates and the join
//! inner sides).
//!
//! Scans read a [`source::Source`] — the one place that knows whether a
//! table is fully resident, demand-loaded through the buffer pool, or a
//! base + delta merge snapshot; every operator above sees columns.
//!
//! The paper's contributions live in:
//!
//! * [`dictionary_table`] — the DictionaryTable operator behind invisible
//!   joins (§4.1.1);
//! * [`index_table`] / [`indexed_scan`] — the IndexTable pseudo-table over
//!   a run-length column and the IndexedScan rank join that turns range
//!   matches into block skips (§4.2);
//! * [`flow_table`] — FlowTable with per-column parallel dynamic encoding
//!   and the §3.4 post-processing (narrowing, heap sorting, metadata
//!   extraction);
//! * [`tactical`] — the run-time optimizer choices: hash strategy by key
//!   width (§2.3.4), fetch joins from dense/unique metadata (§2.3.5),
//!   ordered vs hash aggregation (§4.2.2);
//! * [`morsel`] — the one data-parallel runtime: scan pipelines, the §8
//!   index rollup, FlowTable's and compaction's column builds and the
//!   import's column parse all run as tasks claimed from its one shared
//!   counter, reassembled in task order — which is how §4.3's order
//!   preservation upstream of encoders holds by construction.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod block;
pub mod cursor;
pub mod dictionary_table;
pub mod expr;
pub mod filter;
pub mod flow_table;
pub mod handle;
pub mod hash;
pub mod index_table;
pub mod indexed_scan;
pub mod join;
pub mod merged_scan;
pub mod morsel;
pub mod obs;
pub mod project;
pub mod pushdown;
pub mod scan;
pub mod sort;
pub mod source;
pub mod tactical;
pub mod topn;

pub use block::{Block, Field, Repr, Schema};
pub use expr::{AggFunc, CmpOp, Expr};
pub use source::{Choices, Need, Projection, Source};

/// Rows per execution block — matches the encoding decompression block
/// size so one decode call serves one block (paper §3.1).
pub const BLOCK_ROWS: usize = tde_encodings::BLOCK_SIZE;

/// A boxed operator in a pipeline.
pub type BoxOp = Box<dyn Operator + Send>;

/// The Volcano block iterator interface.
pub trait Operator {
    /// The output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next block, or `None` at end of stream.
    fn next_block(&mut self) -> Option<Block>;
}

/// Drain an operator into a vector of blocks (tests, stop-and-go inputs).
pub fn drain(mut op: BoxOp) -> Vec<Block> {
    let mut out = Vec::new();
    while let Some(b) = op.next_block() {
        out.push(b);
    }
    out
}

/// Count the rows an operator produces (a run-carrying block counts the
/// rows it stands for).
pub fn count_rows(mut op: BoxOp) -> u64 {
    let mut n = 0;
    while let Some(b) = op.next_block() {
        n += b.rows();
    }
    n
}
