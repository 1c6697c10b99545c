//! `tde` command-line tool: create, inspect and peek into extracts.
//!
//! ```text
//! tde_cli import <flat-file> <extract.tde> [table-name]
//! tde_cli info   <extract.tde>
//! tde_cli head   <extract.tde> <table> [rows]
//! tde_cli gen    <tpch|flights|rle> <out-dir> [scale]
//! ```

use std::process::ExitCode;
use tde::storage::Compression;
use tde::textscan::ImportOptions;
use tde::Extract;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tde_cli import <flat-file> <extract.tde> [table-name]\n  \
         tde_cli info   <extract.tde>\n  \
         tde_cli head   <extract.tde> <table> [rows]\n  \
         tde_cli gen    <tpch|flights|rle> <out-dir> [scale]"
    );
    ExitCode::from(2)
}

/// An optional positional argument: `default` when absent, `None` when
/// present but unparseable.
fn optional<T: std::str::FromStr>(arg: Option<&String>, default: T) -> Option<T> {
    arg.map_or(Some(default), |a| a.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("import") if args.len() >= 3 => cmd_import(&args[1], &args[2], args.get(3)),
        Some("info") if args.len() >= 2 => cmd_info(&args[1]),
        Some("head") if args.len() >= 3 => match optional(args.get(3), 10) {
            Some(n) => cmd_head(&args[1], &args[2], n),
            None => return usage(),
        },
        Some("gen") if args.len() >= 3 => {
            match optional(args.get(3), 0.01).filter(|s: &f64| s.is_finite() && *s > 0.0) {
                Some(scale) => cmd_gen(&args[1], &args[2], scale),
                None => return usage(),
            }
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_import(input: &str, output: &str, table: Option<&String>) -> std::io::Result<()> {
    let name = table.cloned().unwrap_or_else(|| {
        std::path::Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "imported".to_owned())
    });
    let mut extract = Extract::new();
    let start = std::time::Instant::now();
    let t = extract.import(
        input,
        &ImportOptions {
            table_name: name,
            ..Default::default()
        },
    )?;
    println!(
        "imported {} rows × {} columns in {:.2}s",
        t.row_count(),
        t.columns.len(),
        start.elapsed().as_secs_f64()
    );
    extract.save(output)?;
    println!(
        "wrote {output} ({} bytes; {} bytes logical — {:.0}% saved)",
        std::fs::metadata(output)?.len(),
        extract.logical_size(),
        100.0 * (1.0 - extract.physical_size() as f64 / extract.logical_size().max(1) as f64),
    );
    Ok(())
}

fn cmd_info(path: &str) -> std::io::Result<()> {
    let extract = Extract::load(path)?;
    for t in extract.tables() {
        println!("table {} ({} rows)", t.name, t.row_count());
        println!(
            "  {:<18} {:<9} {:<7} {:>5} {:>7} {:>12} {:>12}",
            "column", "type", "enc", "width", "card", "physical", "logical"
        );
        for c in &t.columns {
            let comp = match &c.compression {
                Compression::None => String::new(),
                Compression::Array { dictionary, sorted } => {
                    format!(
                        "  dict[{}]{}",
                        dictionary.len(),
                        if *sorted { " sorted" } else { "" }
                    )
                }
                Compression::Heap { heap, sorted } => {
                    format!(
                        "  heap[{}]{}",
                        heap.len(),
                        if *sorted { " sorted" } else { "" }
                    )
                }
            };
            println!(
                "  {:<18} {:<9} {:<7} {:>5} {:>7} {:>12} {:>12}{}",
                c.name,
                c.dtype.to_string(),
                c.data.algorithm().to_string(),
                c.metadata.width.to_string(),
                c.metadata
                    .cardinality
                    .map_or("-".to_owned(), |v| v.to_string()),
                c.physical_size(),
                c.logical_size(),
                comp,
            );
        }
    }
    Ok(())
}

fn cmd_head(path: &str, table: &str, n: u64) -> std::io::Result<()> {
    let extract = Extract::load(path)?;
    let t = extract.table(table).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no table named {table}"),
        )
    })?;
    let names: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
    println!("{}", names.join(" | "));
    for row in 0..n.min(t.row_count()) {
        let vals: Vec<String> = t.columns.iter().map(|c| c.value(row).to_string()).collect();
        println!("{}", vals.join(" | "));
    }
    Ok(())
}

fn cmd_gen(kind: &str, out: &str, scale: f64) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    match kind {
        "tpch" => {
            let paths = tde::datagen::tpch::write_all(out, scale, 42)?;
            for p in paths {
                println!(
                    "wrote {} ({} bytes)",
                    p.display(),
                    std::fs::metadata(&p)?.len()
                );
            }
        }
        "flights" => {
            let rows = (scale * 1_000_000.0) as u64;
            let p = tde::datagen::flights::write_file(
                std::path::Path::new(out).join("flights.csv"),
                rows.max(1),
                7,
            )?;
            println!("wrote {} ({} rows)", p.display(), rows);
        }
        "rle" => {
            let rows = (scale * 1_000_000.0).max(1.0) as u64;
            let spec = tde::datagen::rle::RleTable::generate(rows, 99);
            let p = std::path::Path::new(out).join("rle.csv");
            let mut w = std::io::BufWriter::new(std::fs::File::create(&p)?);
            use std::io::Write;
            writeln!(w, "primary,secondary")?;
            let secondary = spec.secondary_runs();
            let mut s_iter = secondary.iter();
            let mut current = s_iter.next().copied();
            let mut left = current.map_or(0, |c| c.1);
            for (p_val, p_count) in spec.primary_runs() {
                for _ in 0..p_count {
                    while left == 0 {
                        current = s_iter.next().copied();
                        left = current.map_or(0, |c| c.1);
                    }
                    writeln!(w, "{},{}", p_val, current.unwrap().0)?;
                    left -= 1;
                }
            }
            println!("wrote {} ({} rows)", p.display(), rows);
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown generator {other}"),
            ))
        }
    }
    Ok(())
}
