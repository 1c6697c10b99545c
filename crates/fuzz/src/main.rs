//! tde-fuzz command line.
//!
//! ```text
//! cargo run --release -p tde-fuzz -- --seeds 0..200
//! cargo run --release -p tde-fuzz -- --seeds 0..40 --inject sorted-claim
//! cargo run --release -p tde-fuzz -- --replay tests/fuzz_corpus/join_over_rle.case
//! ```
//!
//! A sweep generates one case per seed, runs every oracle family, and on
//! failure shrinks the case and pins it under the corpus directory as a
//! self-contained `.case` repro. Every seed also runs the import leg (a
//! rendered flat file against the row-loop reference importer, arbitrary
//! bytes against "never a panic"); its failing inputs are pinned as
//! `import_seed_N_{structured,arbitrary}.txt`. Exit status: 0 = clean sweep (or, with
//! `--inject`, every injected bug caught), 1 = findings (or a missed
//! injection), 2 = usage error.

use std::time::Instant;
use tde_fuzz::spec::{CaseSpec, InjectKind, Injection};
use tde_fuzz::{
    aggregate_leaf, eligible_injection_column, gen, grand_total, import_oracle, run_case_catching,
    shrink,
};

struct Args {
    seed_start: u64,
    seed_end: u64,
    seeds_explicit: bool,
    inject: Option<InjectKind>,
    corpus_dir: std::path::PathBuf,
    time_box_secs: Option<u64>,
    replay: Option<std::path::PathBuf>,
    shrink_budget: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: tde-fuzz [--seeds A..B] [--inject sorted-claim|dense-unique|min-max|segment-byte]\n\
         \x20               [--corpus-dir DIR] [--time-box-secs N] [--shrink-budget N]\n\
         \x20               [--replay FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed_start: 0,
        seed_end: 100,
        seeds_explicit: false,
        inject: None,
        corpus_dir: "fuzz_failures".into(),
        time_box_secs: None,
        replay: None,
        shrink_budget: 400,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seeds" => {
                let v = value("--seeds");
                let Some((a, b)) = v.split_once("..") else {
                    eprintln!("--seeds wants A..B, got {v}");
                    usage();
                };
                match (a.parse(), b.parse()) {
                    (Ok(a), Ok(b)) if a < b => {
                        args.seed_start = a;
                        args.seed_end = b;
                        args.seeds_explicit = true;
                    }
                    _ => {
                        eprintln!("--seeds wants A..B with A < B, got {v}");
                        usage();
                    }
                }
            }
            "--inject" => {
                let v = value("--inject");
                args.inject = Some(InjectKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown injection kind {v}");
                    usage()
                }));
            }
            "--corpus-dir" => args.corpus_dir = value("--corpus-dir").into(),
            "--time-box-secs" => {
                args.time_box_secs = Some(value("--time-box-secs").parse().unwrap_or_else(|_| {
                    eprintln!("--time-box-secs wants a number");
                    usage()
                }))
            }
            "--shrink-budget" => {
                args.shrink_budget = value("--shrink-budget").parse().unwrap_or_else(|_| {
                    eprintln!("--shrink-budget wants a number");
                    usage()
                })
            }
            "--replay" => args.replay = Some(value("--replay").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let mut args = parse_args();
    // A time box without an explicit range means "sweep until the box
    // expires", not "the first 100 seeds" — the nightly job relies on it.
    if args.time_box_secs.is_some() && !args.seeds_explicit {
        args.seed_end = u64::MAX;
    }
    let args = args;
    if let Some(path) = &args.replay {
        std::process::exit(replay(path));
    }
    std::process::exit(sweep(&args));
}

fn replay(path: &std::path::Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("read {}: {e}", path.display());
            return 2;
        }
    };
    let spec = match CaseSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse {}: {e}", path.display());
            return 2;
        }
    };
    let report = run_case_catching(&spec);
    if report.clean() {
        println!("{}: clean ({} row(s))", path.display(), spec.rows());
        return 0;
    }
    println!(
        "{}: {} discrepancy(ies)",
        path.display(),
        report.discrepancies.len()
    );
    for d in &report.discrepancies {
        println!("  {d}");
    }
    if let Some(t) = &report.trace {
        println!("--- trace ---\n{t}");
    }
    1
}

fn sweep(args: &Args) -> i32 {
    let started = Instant::now();
    // Caught engine panics are findings, not console noise.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut ran = 0u64;
    let mut skipped = 0u64;
    let (mut folded, mut coded, mut totals) = (0u64, 0u64, 0u64);
    let mut failures: Vec<(u64, String)> = Vec::new();
    let mut missed_injections: Vec<u64> = Vec::new();
    let mut timed_out = false;

    for seed in args.seed_start..args.seed_end {
        if let Some(limit) = args.time_box_secs {
            if started.elapsed().as_secs() >= limit {
                timed_out = true;
                break;
            }
        }
        let mut spec = gen::generate(seed);
        if let Some(kind) = args.inject {
            let Some(col) = eligible_injection_column(&spec, kind) else {
                skipped += 1;
                continue;
            };
            spec.inject = Some(Injection { column: col, kind });
            if spec.validate().is_err() {
                skipped += 1;
                continue;
            }
        }
        ran += 1;
        if args.inject.is_none() {
            let (runs, codes) = aggregate_leaf(&spec);
            folded += u64::from(runs);
            coded += u64::from(codes);
            totals += u64::from(grand_total(&spec));
            let found = import_oracle::run_import_seed(seed);
            if !found.is_empty() {
                let summary = summarize(&found);
                println!("seed {seed}: FAIL (import leg)\n  {summary}");
                if let Err(e) = pin_import_inputs(&args.corpus_dir, seed) {
                    eprintln!("  could not pin the inputs: {e}");
                }
                failures.push((seed, summary));
            }
        }
        let report = run_case_catching(&spec);
        if report.clean() {
            if args.inject.is_some() {
                missed_injections.push(seed);
            }
            continue;
        }
        // A corrupt segment byte is caught only by the checksum refusing
        // it; a failure of the oracle's own file handling is a miss.
        if args.inject == Some(InjectKind::SegmentByte)
            && !report.discrepancies.iter().all(|d| d.is_checksum_refusal())
        {
            println!(
                "seed {seed}: not caught: {}",
                summarize(&report.discrepancies)
            );
            missed_injections.push(seed);
            continue;
        }
        let outcome = shrink(&spec, args.shrink_budget);
        let summary = summarize(&outcome.report.discrepancies);
        println!(
            "seed {seed}: FAIL ({} -> {} row(s) after {} shrink eval(s))",
            spec.rows(),
            outcome.spec.rows(),
            outcome.evals
        );
        println!("  {summary}");
        if args.inject.is_none() {
            if let Err(e) = pin_case(&args.corpus_dir, seed, &outcome.spec, &summary) {
                eprintln!("  could not pin repro: {e}");
            }
            if let Some(t) = &outcome.report.trace {
                for line in t.lines().take(12) {
                    println!("  | {line}");
                }
            }
        }
        failures.push((seed, summary));
    }

    std::panic::set_hook(default_hook);
    let secs = started.elapsed().as_secs_f64();
    if let Some(kind) = args.inject {
        println!(
            "injection sweep ({:?}): {ran} case(s) injected, {} caught, {} missed, \
             {skipped} ineligible, {secs:.1}s{}",
            kind,
            failures.len(),
            missed_injections.len(),
            if timed_out { " (time box hit)" } else { "" }
        );
        if !missed_injections.is_empty() {
            println!("missed seeds: {missed_injections:?}");
            return 1;
        }
        if ran == 0 {
            println!("no eligible case in the seed range");
            return 1;
        }
        0
    } else {
        println!(
            "sweep: {ran} case(s), {} failure(s), {folded} fold runs, {coded} group on codes, \
             {totals} totals, {secs:.1}s{}",
            failures.len(),
            if timed_out { " (time box hit)" } else { "" }
        );
        if failures.is_empty() {
            0
        } else {
            println!("repros pinned under {}", args.corpus_dir.display());
            1
        }
    }
}

fn summarize(found: &[tde_fuzz::Discrepancy]) -> String {
    let lines: Vec<String> = found.iter().map(ToString::to_string).collect();
    lines.join("; ")
}

/// Write the import leg's two inputs for `seed` where the repro cases go.
fn pin_import_inputs(dir: &std::path::Path, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (kind, bytes) in [
        ("structured", import_oracle::structured_input(seed)),
        ("arbitrary", import_oracle::arbitrary_input(seed)),
    ] {
        let path = dir.join(format!("import_seed_{seed}_{kind}.txt"));
        std::fs::write(&path, bytes)?;
        println!("  pinned {}", path.display());
    }
    Ok(())
}

fn pin_case(
    dir: &std::path::Path,
    seed: u64,
    spec: &CaseSpec,
    summary: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("seed_{seed}.case"));
    let mut text = String::new();
    for line in summary.lines() {
        text.push_str("; ");
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(&spec.to_text());
    std::fs::write(&path, text)?;
    println!("  pinned {}", path.display());
    Ok(path)
}
