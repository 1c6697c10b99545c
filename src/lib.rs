//! # tde — Leveraging Compression in the Tableau Data Engine (reproduction)
//!
//! A from-scratch Rust implementation of the system described in
//! R. Wesley & P. Terlecki, *Leveraging Compression in the Tableau Data
//! Engine*, SIGMOD 2014: a read-only column store that operates directly
//! on lightweight-compressed data.
//!
//! ## What's inside
//!
//! * **Encodings** ([`encodings`]): bit-packed frame-of-reference, delta,
//!   dictionary, affine and run-length streams behind a common header
//!   whose fields support the paper's O(1)/O(2^bits) manipulations —
//!   type narrowing, dictionary remapping, metadata extraction.
//! * **Dynamic encoding** ([`encodings::dynamic`]): statistics-driven
//!   encoding choice with mid-load re-encoding on overflow.
//! * **Storage** ([`storage`]): string heaps with offset tokens, the heap
//!   accelerator, array/heap dictionary compression, tables and the
//!   database of tables one extract file holds.
//! * **Paged storage** ([`pager`]): the block-aligned file format — the
//!   one on-disk format of an extract, written crash-safely by one save
//!   path — whose directory records per-column segment extents, opened by
//!   reading only the directory; a sharded second-chance buffer pool
//!   demand-loads column segments on first touch and reports cache
//!   telemetry through `explain_analyze`.
//! * **Execution** ([`exec`]): a block-iterated Volcano engine —
//!   FlowTable with parallel per-column encoding, DictionaryTable
//!   invisible joins, IndexTable rank joins with IndexedScan, fetch
//!   joins, direct/perfect/collision hashing, ordered aggregation, and
//!   one order-preserving morsel runtime for everything that goes
//!   parallel.
//! * **Planning** ([`plan`]): the strategic rewrites (decompression as
//!   joins, predicate/computation pushdown) and the tactical lowering.
//! * **Import** ([`textscan`]): TextScan with separator sniffing, type
//!   inference, buffer-oriented parsers and parallel column cracking.
//! * **Workloads** ([`datagen`]): TPC-H dbgen-style, Flights-style and
//!   run-length table generators for the paper's experiments.
//!
//! ## Quickstart
//!
//! ```
//! use tde::{Extract, Query};
//! use tde::exec::expr::{AggFunc, CmpOp, Expr};
//! use tde::textscan::ImportOptions;
//!
//! // Import a flat file (types and header are inferred).
//! let dir = std::env::temp_dir().join("tde_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let csv = dir.join("orders.csv");
//! std::fs::write(&csv, "day,qty\n2024-01-01,5\n2024-01-01,7\n2024-01-02,2\n").unwrap();
//!
//! let mut extract = Extract::new();
//! extract
//!     .import(&csv, &ImportOptions { table_name: "orders".into(), ..Default::default() })
//!     .unwrap();
//!
//! // Query it: total quantity per day.
//! let orders = extract.table("orders").unwrap();
//! let rows = Query::scan(&orders)
//!     .aggregate(vec![0], vec![(AggFunc::Sum, 1, "total")])
//!     .rows();
//! assert_eq!(rows.len(), 2);
//!
//! // Filters are pushed onto compressed representations automatically.
//! let rows = Query::scan(&orders)
//!     .filter(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(5)))
//!     .rows();
//! assert_eq!(rows.len(), 2);
//! ```

pub use tde_core::{design, CacheReport, ExplainAnalyze, Extract, NodeSnapshot, Query};

pub use tde_core::datagen;
pub use tde_core::encodings;
pub use tde_core::exec;
pub use tde_core::io;
pub use tde_core::obs;
pub use tde_core::pager;
pub use tde_core::plan;
pub use tde_core::storage;
pub use tde_core::textscan;
pub use tde_core::types;
pub use tde_delta as delta;
