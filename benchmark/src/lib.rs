//! `tde-benchmark`: the repo benchmark. Four analyst workloads run the
//! import → query → refresh lifecycle against the engine's public API,
//! check every answer against a row-loop oracle, and report end-to-end
//! metrics (spans off) or a per-layer ladder (traced run). See README.md.

pub mod compare;
pub mod data;
pub mod driver;
pub mod ladder;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod workloads;
