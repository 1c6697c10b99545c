//! Column handles: how scan operators reference stored columns.
//!
//! The eager path shares one [`Table`] and addresses columns by index;
//! the paged path (crate `tde-pager`) hands out independent
//! `Arc<Column>`s demand-loaded through the buffer pool. A
//! [`ColumnHandle`] abstracts over both so the scan operators are
//! storage-agnostic.

use crate::block::{Field, Repr};
use std::sync::Arc;
use tde_encodings::Algorithm;
use tde_storage::{Column, Compression, RunIndex, Table};

/// A reference to one stored column, by table position or by ownership.
#[derive(Debug, Clone)]
pub enum ColumnHandle {
    /// A column of a shared eager table.
    Shared {
        /// The table.
        table: Arc<Table>,
        /// Column index within the table.
        idx: usize,
    },
    /// An independently owned column (e.g. resolved through the pager).
    Owned(Arc<Column>),
}

impl ColumnHandle {
    /// The underlying column.
    pub fn col(&self) -> &Column {
        match self {
            ColumnHandle::Shared { table, idx } => &table.columns[*idx],
            ColumnHandle::Owned(c) => c,
        }
    }

    /// Whether the stored stream is run-length encoded — what a
    /// run-carrying scan reads (for array compression, the codes).
    pub fn is_run_length(&self) -> bool {
        self.col().data.algorithm() == Algorithm::RunLength
    }

    /// The run index of a resident run-length column, from its table's
    /// memo ([`Table::run_index`]), and whether this call built it.
    /// `None` for every other encoding and for an owned column, which has
    /// no table to hold the memo.
    pub fn run_index(&self) -> Option<(Arc<RunIndex>, bool)> {
        let ColumnHandle::Shared { table, idx } = self else {
            return None;
        };
        table
            .run_index(*idx)
            .map(|(view, built)| (view.runs, built))
    }

    /// Every column of an eager table, as handles.
    pub fn all(table: &Arc<Table>) -> Vec<ColumnHandle> {
        (0..table.columns.len())
            .map(|idx| ColumnHandle::Shared {
                table: Arc::clone(table),
                idx,
            })
            .collect()
    }

    /// The execution-block field this column scans into.
    /// `expand_dictionaries` materializes array-compressed columns to
    /// scalars at the scan (the baseline that forgoes invisible joins).
    pub fn field(&self, expand_dictionaries: bool) -> Field {
        let c = self.col();
        let repr = match &c.compression {
            Compression::None => Repr::Scalar,
            Compression::Heap { heap, .. } => Repr::Token(heap.clone()),
            Compression::Array { dictionary, .. } => {
                if expand_dictionaries {
                    Repr::Scalar
                } else {
                    Repr::DictIndex(Arc::new(dictionary.clone()), None)
                }
            }
        };
        Field {
            name: c.name.clone(),
            dtype: c.dtype,
            repr,
            metadata: c.metadata.clone(),
        }
    }
}
