//! Merge-on-read snapshots: a base table plus a write-optimized delta.
//!
//! The C-Store write path (and the paper's TDE production successor)
//! keeps extracts read-optimized by routing mutations into a small
//! uncompressed delta that queries *merge on read*: a scan unions the
//! compressed base rows (minus tombstoned ones) with the delta rows, so
//! every operator above the scan sees one consistent table.
//!
//! [`MergedSource`] is the immutable snapshot an upstream delta store
//! (crate `tde-delta`) prepares: full-width base column handles, merged
//! output fields whose reprs extend the base dictionaries/heaps with the
//! delta's values (base tokens and codes stay valid — both structures
//! are append-only), a sorted tombstone list, and the delta rows already
//! tokenized into the merged representation. A snapshot is scanned like
//! every other source, through `Source::from(&snapshot)`: its
//! [`crate::Projection`] reads the base leg, whose first narrowing is the
//! tombstones, then the delta leg.

use crate::block::{Block, Field, Schema};
use crate::handle::ColumnHandle;
use crate::source::Source;
use crate::{BoxOp, Operator};
use std::sync::Arc;

/// An immutable merge snapshot: everything a scan needs to present
/// base ∪ delta − tombstones as one table.
///
/// Invariants (enforced by the constructor):
/// * `handles`, `fields` and every delta block have the same width;
/// * `tombstones` is strictly increasing and every id is `< base_rows`
///   (delta-row deletions are resolved by the snapshot builder, not
///   carried here);
/// * delta blocks are in the *merged* representation — their token /
///   dictionary-code values are valid under `fields[i].repr`.
#[derive(Debug)]
pub struct MergedSource {
    name: String,
    handles: Vec<ColumnHandle>,
    fields: Vec<Field>,
    base_rows: u64,
    tombstones: Arc<Vec<u64>>,
    delta: Vec<Block>,
    delta_rows: u64,
}

impl MergedSource {
    /// Build a snapshot. Panics on violated invariants — snapshot
    /// construction is engine code, not untrusted input.
    pub fn new(
        name: impl Into<String>,
        handles: Vec<ColumnHandle>,
        fields: Vec<Field>,
        base_rows: u64,
        tombstones: Arc<Vec<u64>>,
        delta: Vec<Block>,
    ) -> MergedSource {
        assert_eq!(handles.len(), fields.len(), "handle/field width mismatch");
        assert!(
            tombstones.windows(2).all(|w| w[0] < w[1]),
            "tombstones must be strictly increasing"
        );
        assert!(
            tombstones.last().is_none_or(|&t| t < base_rows),
            "tombstone beyond base rows"
        );
        let mut delta_rows = 0u64;
        for b in &delta {
            assert_eq!(b.columns.len(), fields.len(), "delta block width mismatch");
            delta_rows += b.len as u64;
        }
        MergedSource {
            name: name.into(),
            handles,
            fields,
            base_rows,
            tombstones,
            delta,
            delta_rows,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Merged output fields, full width.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Base-table row count (before tombstone masking).
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// Live delta row count.
    pub fn delta_rows(&self) -> u64 {
        self.delta_rows
    }

    /// Number of tombstoned base rows.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Logical row count after the merge.
    pub fn merged_rows(&self) -> u64 {
        self.base_rows - self.tombstones.len() as u64 + self.delta_rows
    }

    /// Full-width base column handles.
    pub(crate) fn handles(&self) -> &[ColumnHandle] {
        &self.handles
    }

    /// The tombstoned base rows, ascending.
    pub(crate) fn tombstones(&self) -> &Arc<Vec<u64>> {
        &self.tombstones
    }

    /// The delta rows, full width, in the merged representation.
    pub(crate) fn delta(&self) -> &[Block] {
        &self.delta
    }
}

/// Every column of a snapshot, scanned: the projection scan of
/// `Source::from(&snapshot)`. Exists only because the frozen benchmark
/// package calls it.
#[doc(hidden)]
pub struct MergedScan(BoxOp);

impl MergedScan {
    #[doc(hidden)]
    pub fn all(source: Arc<MergedSource>, expand: bool) -> MergedScan {
        let source = Source::from(&source);
        let every = source
            .resolve(&source.column_names())
            .expect("a snapshot resolves its own columns");
        MergedScan(every.scan(expand, None, false).0)
    }
}

impl Operator for MergedScan {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn next_block(&mut self) -> Option<Block> {
        self.0.next_block()
    }
}
