//! High-level facade over the TDE reproduction: extracts, import, and
//! query execution.
//!
//! The paper's system is a read-only column store holding *extracts* of a
//! data set (paper §2.2): single-file databases created by importing flat
//! files, optimized at load time through dynamic encoding and the §3.4
//! manipulations, and queried with plans that operate directly on the
//! compressed data. [`Extract`] wraps that lifecycle; [`Query`] wraps plan
//! building, strategic optimization and execution.

pub mod design;
pub mod extract;
pub mod query;

pub use design::optimize_physical_design;
pub use extract::Extract;
pub use query::{CacheReport, ExplainAnalyze, NodeSnapshot, Query};

// Re-export the crates behind the facade so downstream users need only
// one dependency.
pub use tde_datagen as datagen;
pub use tde_encodings as encodings;
pub use tde_exec as exec;
pub use tde_io as io;
pub use tde_obs as obs;
pub use tde_pager as pager;
pub use tde_plan as plan;
pub use tde_storage as storage;
pub use tde_textscan as textscan;
pub use tde_types as types;
