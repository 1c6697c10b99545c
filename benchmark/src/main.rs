//! `tde-benchmark`: see README.md.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//!   prints its result object as the last line (the `BENCHMARK.json`
//!   contract);
//! * without `--workload`, runs every workload timed and traced into
//!   `--out DIR` and writes `DIR/results.json`;
//! * `compare A.json B.json` judges two `results.json` files.

use std::path::PathBuf;
use std::process::ExitCode;
use tde_benchmark::driver::{self, Options};
use tde_benchmark::suite::{self, SuiteOptions};
use tde_benchmark::workloads::Workload;

const USAGE: &str = "usage:
  tde-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--inject-wrong-answer] [--out DIR]
  tde-benchmark [--seed <n>] [--seconds <s>] [--repeat <k>] [--smoke] [--out DIR]
  tde-benchmark compare <runA.json> <runB.json> [--benchmark BENCHMARK.json]
workloads: decode_scan rle_dashboard paged_cold import_refresh";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    inject: bool,
    out: Option<PathBuf>,
    benchmark: PathBuf,
}

fn parse() -> Option<Args> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        smoke: false,
        inject: false,
        out: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => a.smoke = true,
            "--inject-wrong-answer" => a.inject = true,
            "--workload" => a.workload = Some(args.next()?),
            "--seed" => a.seed = args.next()?.parse().ok()?,
            "--seconds" => a.seconds = args.next()?.parse().ok()?,
            "--trace" => a.trace = args.next()? == "1",
            "--repeat" => a.repeat = args.next()?.parse().ok()?,
            "--out" => a.out = Some(PathBuf::from(args.next()?)),
            "--benchmark" => a.benchmark = PathBuf::from(args.next()?),
            flag if flag.starts_with("--") => return None,
            _ => a.positional.push(arg),
        }
    }
    Some(a)
}

fn main() -> ExitCode {
    let Some(args) = parse() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".into());
    let outcome = match (args.positional.first().map(String::as_str), &args.workload) {
        (Some("compare"), _) if args.positional.len() == 3 => tde_benchmark::compare::compare(
            &args.benchmark,
            args.positional[1].as_ref(),
            args.positional[2].as_ref(),
        ),
        (None, Some(name)) => {
            let Some(workload) = Workload::from_name(name) else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            // Generated data lives in a directory of this run's own,
            // keyed by workload, seed and size; removed when it ends.
            let dir = args
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from(&target).join("bench-data"))
                .join(format!(
                    "{name}-seed{}-{}-{}",
                    args.seed,
                    if args.smoke { "smoke" } else { "full" },
                    std::process::id()
                ));
            let opts = Options {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                smoke: args.smoke,
                inject_wrong_answer: args.inject,
                dir: dir.clone(),
                trace_out: args.out.clone(),
            };
            let result = if args.trace {
                tde_benchmark::traced::run_traced(&opts)
            } else {
                driver::run_timed(&opts)
            };
            std::fs::remove_dir_all(&dir).ok();
            result.map(|()| true)
        }
        (None, None) => suite::run_all(
            &SuiteOptions {
                seed: args.seed,
                seconds: args.seconds,
                smoke: args.smoke,
                repeat: args.repeat,
            },
            &args
                .out
                .unwrap_or_else(|| PathBuf::from(&target).join("bench-out")),
        ),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tde-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
