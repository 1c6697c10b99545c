//! Query planning: logical plans, the strategic optimizer, and lowering
//! to physical operators (paper §2.3.1, §4).
//!
//! Optimization happens in two phases. The *strategic* phase fixes the
//! plan shape before execution: it expresses decompression as joins
//! against DictionaryTables and IndexTables ([`strategic`]), pushes
//! single-column filters and computations onto the inner (compressed)
//! side of those joins, and restricts encoding choices for hash-join
//! inner FlowTables (§4.3). The *tactical* phase is delayed until run time and
//! lives in `tde_exec::tactical`: the physical lowering ([`physical`])
//! materializes inner sides with FlowTable first, then lets the freshly
//! extracted metadata pick fetch joins, hash strategies and ordered
//! aggregation.

pub mod logical;
pub mod physical;
pub mod strategic;

pub use logical::{LogicalPlan, PlanBuilder};
pub use physical::try_execute;
pub use strategic::optimize;
