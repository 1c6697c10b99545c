//! Experiment E2 — Figure 5: compression savings.
//!
//! Logical vs physical sizes of the two large tables under every
//! encoding × acceleration combination, with a per-algorithm breakdown of
//! the physical bytes, plus the §6.2 whole-database comparison over the
//! small-table set (E11).
//!
//! Paper shape: ~84 % savings vs the flat file for both large tables;
//! acceleration matters much more for Flights (all-small-domain strings)
//! than lineitem (dominated by l_comment); TPC-H's artificial regularity
//! creates affine opportunities (fixed-width unique names).

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use tde_bench::*;
use tde_datagen::tpch::TpchTable;
use tde_storage::{Database, Table};
use tde_textscan::{import_file, ScanMode};

fn breakdown(table: &Table) -> BTreeMap<&'static str, u64> {
    let mut by_alg: BTreeMap<&'static str, u64> = BTreeMap::new();
    for col in &table.columns {
        *by_alg.entry(col.data.algorithm().name()).or_default() += col.data.physical_size() as u64;
        match &col.compression {
            tde_storage::Compression::Heap { heap, .. } => {
                *by_alg.entry("heap").or_default() += heap.byte_size() as u64;
            }
            tde_storage::Compression::Array { dictionary, .. } => {
                *by_alg.entry("dict-compr").or_default() += (dictionary.len() * 8) as u64;
            }
            tde_storage::Compression::None => {}
        }
    }
    by_alg
}

fn run_table(
    label: &str,
    path: &std::path::Path,
    opts_for: &dyn Fn(bool, bool) -> tde_textscan::ImportOptions,
) {
    let flat = file_size(path);
    println!("\n-- {label} (flat file {} MB) --", mb(flat));
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>8}",
        "config", "logical MB", "phys MB", "vs flat", "vs logical"
    );
    for (enc, accel) in [(false, false), (false, true), (true, false), (true, true)] {
        let opts = opts_for(enc, accel);
        let result = import_file(path, &opts).unwrap();
        let (logical, physical) = (result.table.logical_size(), result.table.physical_size());
        println!(
            "{:<22} {:>10} {:>10} {:>7.0}% {:>7.0}%",
            format!("enc={} accel={}", onoff(enc), onoff(accel)),
            mb(logical),
            mb(physical),
            100.0 * (1.0 - physical as f64 / flat as f64),
            100.0 * (1.0 - physical as f64 / logical as f64),
        );
        if enc && accel {
            println!("  physical breakdown by encoding:");
            for (alg, bytes) in breakdown(&result.table) {
                println!("    {:<10} {:>10} MB", alg, mb(bytes));
            }
        }
    }
}

/// A writer that only counts the bytes it is handed.
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

fn main() {
    let scale = Scale::from_env();
    banner("Figure 5", "compression savings (logical vs physical size)");
    let tpch_dir = tpch_files(scale.sf_large);
    run_table(
        "lineitem",
        &tpch_dir.join(TpchTable::Lineitem.file_name()),
        &|enc, accel| import_options(TpchTable::Lineitem, enc, accel, ScanMode::All),
    );
    run_table(
        "flights",
        &flights_file(scale.flights_rows),
        &|enc, accel| flights_options(enc, accel, ScanMode::All),
    );

    // E11: whole-database size over the SF table set, with and without
    // encodings (the paper's "660 MB → −140 MB" comparison at SF-1).
    banner("§6.2", "whole-database size over the small table set (E11)");
    let small_dir = tpch_files(scale.sf);
    let mut sizes = Vec::new();
    for enc in [false, true] {
        let mut db = Database::new();
        for t in SF1_TABLES {
            let opts = import_options(t, enc, true, ScanMode::All);
            let result = import_file(small_dir.join(t.file_name()), &opts).unwrap();
            db.add_table(result.table);
        }
        let mut count = ByteCount(0);
        tde_pager::write_v2(&db, &HashMap::new(), &mut count).unwrap();
        let size = count.0;
        sizes.push(size);
        println!(
            "encodings {:>3}: single-file database = {} MB",
            onoff(enc),
            mb(size)
        );
    }
    println!(
        "encoding the database saved {} MB ({:.0}%)",
        mb(sizes[0].saturating_sub(sizes[1])),
        100.0 * (1.0 - sizes[1] as f64 / sizes[0] as f64)
    );
}
