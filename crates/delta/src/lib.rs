//! Mutable delta store over read-optimized extracts.
//!
//! The TDE keeps extracts aggressively read-optimized: columns are
//! dictionary-compressed and the fixed-width streams re-encoded until
//! they are close to entropy (paper §3). That representation is the
//! wrong one to mutate in place — a single insert can invalidate a
//! frame-of-reference dictionary, a sorted heap, or an affine run. The
//! classical answer (C-Store's WS/RS split, MonetDB's pending-update
//! columns) is the one this crate reproduces:
//!
//! * [`DeltaTable`] buffers mutations *next to* an immutable base
//!   table: appended rows live in uncompressed per-column vectors
//!   (strings contiguous in one buffer per column),
//!   deletes become a sorted tombstone set over base row ids, and
//!   updates are delete + append. The buffer is schema-validated,
//!   NULL-sentinel aware and bounded by a [`DeltaConfig`] memory
//!   budget.
//! * Queries **merge on read**: [`DeltaTable::snapshot`] freezes the
//!   buffer into a [`tde_exec::merged_scan::MergedSource`] whose merged
//!   dictionaries/heaps extend the base's (base tokens stay valid —
//!   both are append-only), with every compression-derived metadata
//!   claim widened so the optimizer never acts on a fact the delta
//!   falsified. Values translate through one index per base (the heap
//!   accelerator seeded from each base heap, a value → code map per
//!   dictionary), so a snapshot's cost follows the delta, not the base.
//! * A **compactor** ([`DeltaTable::compact`], or the background
//!   [`Compactor`] thread) folds the delta back into a fresh
//!   read-optimized table at append cost: each column's surviving codes
//!   are spliced with the delta rows in the base's own encoding, and only
//!   a column whose statistics now choose another encoding goes back
//!   through the dynamic encoder — restoring every claim the delta
//!   suspended, exactly as a rebuild would make it.
//!
//! Persistence rides on the v2 paged format: [`DeltaExtract`] stores
//! the buffer as opaque delta/tombstone aux sections in the footer
//! directory (crate `tde-pager`), rewritten atomically on save, and
//! restores them — with the same corrupt-input hardening as the rest of
//! the format — on open.

pub mod compact;
pub mod store;
pub mod wire;

pub use compact::{Compactor, CompactorConfig, DeltaExtract, ScanSource};
pub use store::{BaseTable, DeltaConfig, DeltaTable};
