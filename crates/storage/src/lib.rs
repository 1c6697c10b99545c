//! Storage layer: string heaps, columns, tables and the [`Database`]
//! that one extract file holds (paper §2.3.2–2.3.3). The file format
//! itself is `tde-pager::format`; [`wire`] holds the primitives it
//! writes with.
//!
//! The TDE storage layer distinguishes *compression* from *encoding*:
//!
//! * **Compression** is dictionary compression at the column level: the
//!   main data column is always fixed width and holds either uncompressed
//!   scalars, indexes into a fixed-width dictionary (*array* compression)
//!   or offsets into a variable-width heap (*heap* compression).
//! * **Encodings** (crate `tde-encodings`) sit *below* that: the
//!   fixed-width main data column — scalars, indexes or offsets alike — is
//!   itself stored as an encoded stream behind a paged interface.
//!
//! This separation is what lets the query optimizer reason about
//! compression (invisible joins over the dictionary, paper §4.1) while
//! encodings stay concealed behind the stream interface.

pub mod accelerator;
pub mod builder;
pub mod column;
pub mod convert;
pub mod heap;
pub mod index_table;
pub mod table;
pub mod wire;

pub use accelerator::HeapAccelerator;
pub use builder::{BuiltColumn, ColumnBuilder, EncodingPolicy};
pub use column::{Column, Compression};
pub use heap::StringHeap;
pub use index_table::RunIndex;
pub use table::{ColumnTelemetry, Database, RunColumn, Table};
