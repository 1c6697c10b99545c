//! Shared harness for the figure benchmarks (paper §5–6).
//!
//! Every bench target regenerates one of the paper's tables or figures
//! (see DESIGN.md §3 for the experiment index). The harness provides the
//! common machinery: scale configuration via environment variables,
//! cached workload files, import-policy construction for the paper's
//! encoding/acceleration axes, and the 12-runs-drop-extremes timing
//! protocol of §6.6.
//!
//! Scale knobs (environment variables):
//!
//! * `TDE_SF` — TPC-H scale factor for the "SF-1 tables" set (default 0.02)
//! * `TDE_SF_LARGE` — scale factor for the large lineitem (default 0.05)
//! * `TDE_FLIGHTS_ROWS` — rows in the Flights file (default 200 000)
//! * `TDE_RLE_SMALL` / `TDE_RLE_LARGE` — RLE table rows (default 1 M / 16 M)
//! * `TDE_REPS` — timing repetitions (default 5; the paper used 12)

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tde_datagen::tpch::{self, TpchTable};
use tde_datagen::{flights, rle};
use tde_storage::{Column, ColumnBuilder, EncodingPolicy, Table};
use tde_textscan::{ImportOptions, ScanMode};
use tde_types::DataType;

/// Scale configuration, from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// TPC-H scale factor for the small table set.
    pub sf: f64,
    /// Scale factor for the large lineitem.
    pub sf_large: f64,
    /// Rows in the Flights file.
    pub flights_rows: u64,
    /// Rows in the small RLE table.
    pub rle_small: u64,
    /// Rows in the large RLE table.
    pub rle_large: u64,
    /// Timing repetitions.
    pub reps: usize,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        Scale {
            sf: env_f64("TDE_SF", 0.02),
            sf_large: env_f64("TDE_SF_LARGE", 0.05),
            flights_rows: env_u64("TDE_FLIGHTS_ROWS", 200_000),
            rle_small: env_u64("TDE_RLE_SMALL", 1_000_000),
            rle_large: env_u64("TDE_RLE_LARGE", 16_000_000),
            reps: env_u64("TDE_REPS", 5) as usize,
        }
    }
}

/// Directory where generated workload files are cached between runs.
pub fn data_dir() -> PathBuf {
    let d = std::env::temp_dir().join("tde_bench_data");
    std::fs::create_dir_all(&d).expect("create bench data dir");
    d
}

/// Generate (or reuse) the TPC-H text files at `sf`. Returns the dir.
pub fn tpch_files(sf: f64) -> PathBuf {
    let dir = data_dir().join(format!("tpch_sf{sf}"));
    let marker = dir.join(".complete");
    if !marker.exists() {
        std::fs::create_dir_all(&dir).unwrap();
        tpch::write_all(&dir, sf, 42).expect("generate TPC-H files");
        std::fs::write(&marker, b"ok").unwrap();
    }
    dir
}

/// Generate (or reuse) the Flights text file with `rows` rows.
pub fn flights_file(rows: u64) -> PathBuf {
    let path = data_dir().join(format!("flights_{rows}.csv"));
    if !path.exists() {
        flights::write_file(&path, rows, 7).expect("generate flights file");
    }
    path
}

/// Import options for one cell of the paper's encoding × acceleration
/// grid, with the table's ground-truth schema supplied (the experiments
/// measure encoding, not inference).
pub fn import_options(
    table: TpchTable,
    encodings: bool,
    acceleration: bool,
    mode: ScanMode,
) -> ImportOptions {
    let schema = table
        .schema()
        .into_iter()
        .map(|(n, t)| (n.to_owned(), t))
        .collect();
    ImportOptions {
        policy: policy(encodings, acceleration),
        schema: Some(schema),
        has_header: Some(false),
        parallel: true,
        mode,
        table_name: table.name().to_owned(),
        ..Default::default()
    }
}

/// The encoding policy for one grid cell.
pub fn policy(encodings: bool, acceleration: bool) -> EncodingPolicy {
    EncodingPolicy {
        encodings,
        acceleration,
        sort_heaps: encodings,
        narrow: encodings,
        ..EncodingPolicy::default()
    }
}

/// Import options for the Flights file (schema inferred from its header).
pub fn flights_options(encodings: bool, acceleration: bool, mode: ScanMode) -> ImportOptions {
    ImportOptions {
        policy: policy(encodings, acceleration),
        mode,
        table_name: "flights".to_owned(),
        ..Default::default()
    }
}

/// The §6.6 timing protocol: run `reps` times, drop the two extremes when
/// there are enough samples, average the rest.
pub fn measure(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let trimmed: &[Duration] = if times.len() >= 4 {
        &times[1..times.len() - 1]
    } else {
        &times
    };
    trimmed.iter().sum::<Duration>() / trimmed.len() as u32
}

/// Build the §5.3 artificial run-length table: primary and secondary
/// columns, sorted on both.
pub fn build_rle_table(rows: u64, seed: u64) -> std::sync::Arc<Table> {
    let spec = rle::RleTable::generate(rows, seed);
    let build = |runs: Vec<(i64, u64)>, name: &str| -> Column {
        let mut b = ColumnBuilder::new(name, DataType::Integer, EncodingPolicy::default());
        let mut block = Vec::with_capacity(tde_encodings::BLOCK_SIZE);
        for (v, c) in runs {
            for _ in 0..c {
                block.push(v);
                if block.len() == tde_encodings::BLOCK_SIZE {
                    b.append_raw(&block);
                    block.clear();
                }
            }
        }
        b.append_raw(&block);
        b.finish().column
    };
    std::sync::Arc::new(Table::new(
        "rle",
        vec![
            build(spec.primary_runs(), "primary"),
            build(spec.secondary_runs(), "secondary"),
        ],
    ))
}

/// Print a header for a figure harness.
pub fn banner(figure: &str, what: &str) {
    println!("\n================================================================");
    println!("{figure}: {what}");
    println!("================================================================");
}

/// Format a byte count as MB.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// File size helper.
pub fn file_size(path: impl AsRef<Path>) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The small-table set the paper labels "SF-1 Tables" (everything except
/// the two large tables).
pub const SF1_TABLES: [TpchTable; 7] = [
    TpchTable::Region,
    TpchTable::Nation,
    TpchTable::Supplier,
    TpchTable::Customer,
    TpchTable::Part,
    TpchTable::Partsupp,
    TpchTable::Orders,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_protocol_trims_extremes() {
        let mut calls = 0;
        let d = measure(6, || calls += 1);
        assert_eq!(calls, 6);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn scale_defaults() {
        let s = Scale::from_env();
        assert!(s.sf > 0.0);
        assert!(s.rle_large > s.rle_small);
    }

    #[test]
    fn rle_table_builder_matches_spec() {
        let t = build_rle_table(100_000, 3);
        assert_eq!(t.row_count(), 100_000);
        assert_eq!(
            t.columns[0].data.algorithm(),
            tde_encodings::Algorithm::RunLength
        );
        assert_eq!(
            t.columns[1].data.algorithm(),
            tde_encodings::Algorithm::RunLength
        );
    }
}
