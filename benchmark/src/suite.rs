//! The single command: every workload, timed then traced, each in a
//! child process of its own, one after another; every metric printed as
//! `workload name value unit` and collected into `results.json`.

use crate::driver;
use crate::workloads::Workload;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};

pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Complete sets of runs (`compare` needs several for quartiles).
    pub repeat: usize,
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn env_json(name: &str) -> String {
    match std::env::var(name) {
        Ok(v) => format!("\"{name}\": \"{}\"", tde_obs::json_escape(&v)),
        Err(_) => format!("\"{name}\": null"),
    }
}

/// Run the suite into `out`; `Ok(true)` when every run was correct.
pub fn run_all(opts: &SuiteOptions, out: &Path) -> io::Result<bool> {
    std::fs::create_dir_all(out)?;
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..opts.repeat {
        for w in Workload::ALL {
            for trace in [0, 1] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name()])
                    .args(["--seed", &opts.seed.to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .arg("--out")
                    .arg(out)
                    .stdout(Stdio::piped());
                if opts.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd.spawn()?.wait_with_output()?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let result = lines.pop().unwrap_or("");
                for line in lines {
                    println!("{line}");
                }
                if !output.status.success() || !result.starts_with('{') {
                    return Err(io::Error::other(format!(
                        "{} (trace {trace}) exited with {} and no result",
                        w.name(),
                        output.status
                    )));
                }
                all_correct &= result.starts_with("{\"correct\": true");
                runs.push(format!(
                    "{{\"workload\": \"{}\", \"trace\": {trace}, \"repeat\": {repeat}, {}",
                    w.name(),
                    &result[1..]
                ));
            }
        }
    }
    let sizes: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("\"{}\": \"{:?}\"", w.name(), w.sizes(opts.smoke)))
        .collect();
    let doc = format!(
        "{{\"git_sha\": \"{}\", \"nproc\": {}, \"parallelism\": {}, \"seed\": {}, \"seconds\": {}, \
         \"smoke\": {}, \"repeat\": {}, \"env\": {{{}}}, \"sizes\": {{{}}},\n \"runs\": [\n  {}\n ]}}\n",
        git_sha(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        driver::parallelism(),
        opts.seed,
        opts.seconds,
        opts.smoke,
        opts.repeat,
        ["TDE_TRACE", "TDE_METRICS", "TDE_SLOW_QUERY_NS", "MALLOC_ARENA_MAX"]
            .map(env_json)
            .join(", "),
        sizes.join(", "),
        runs.join(",\n  ")
    );
    let path = out.join("results.json");
    std::fs::write(&path, doc)?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}
