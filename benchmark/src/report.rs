//! From samples to the printed result: end-to-end metric values, the
//! human-readable lines and the one-line JSON object the driver reads.
//!
//! **How a timing is summarised.** The samples of one site (see
//! `driver::Recorder`) time identical work; on the shared host they
//! differ by what the other tenants were doing, which only ever adds
//! time. Each site is therefore summarised by the mean of the fastest
//! quarter of its samples, and a metric is the median of its sites'
//! summaries (or their sum, for throughput over a pass). The raw samples'
//! quartiles and count are printed beside every value.

use crate::driver::{Ctx, Recorder};
use crate::metrics::unit_of;
use crate::stats::{median, Summary};

/// A metric value with, for timings, the raw samples behind it.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub of: Option<Summary>,
}

impl Reported {
    pub fn plain(name: &'static str, value: f64) -> Reported {
        Reported {
            name,
            value,
            of: None,
        }
    }
}

/// The undisturbed time of a site: the mean of the fastest quarter of
/// its samples. Steadier than the minimum, which a single lucky sample
/// sets, and than the median, which moves with the neighbours.
pub fn undisturbed(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = &sorted[..sorted.len().div_ceil(4)];
    quarter.iter().sum::<f64>() / quarter.len() as f64
}

/// The undisturbed time of every site of `kind`, with the site's rows.
pub fn site_bests(rec: &Recorder, kind: &str) -> Vec<(f64, u64)> {
    rec.sites
        .iter()
        .filter(|((k, _), site)| *k == kind && !site.ms.is_empty())
        .map(|(_, site)| (undisturbed(&site.ms), site.rows))
        .collect()
}

/// Every raw sample of `kind`, over all its sites.
pub fn raw_summary(rec: &Recorder, kind: &str) -> Option<Summary> {
    let all: Vec<f64> = rec
        .sites
        .iter()
        .filter(|((k, _), _)| *k == kind)
        .flat_map(|(_, site)| site.ms.iter().copied())
        .collect();
    (!all.is_empty()).then(|| Summary::of(&all))
}

/// Median over the sites of `kind` of each site's undisturbed time, ms.
pub fn typical_ms(rec: &Recorder, kind: &str) -> f64 {
    let bests: Vec<f64> = site_bests(rec, kind).iter().map(|b| b.0).collect();
    if bests.is_empty() {
        f64::NAN
    } else {
        median(&bests)
    }
}

fn latency(rec: &Recorder, name: &'static str, kind: &str) -> Reported {
    Reported {
        name,
        value: typical_ms(rec, kind),
        of: raw_summary(rec, kind),
    }
}

/// `amount` per second at the typical latency of `kind`.
fn rate(rec: &Recorder, name: &'static str, kind: &str, amount: f64) -> Reported {
    Reported {
        name,
        value: amount / (typical_ms(rec, kind) / 1e3),
        of: raw_summary(rec, kind),
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The eight end-to-end metrics of a timed (spans-off) run.
pub fn end_to_end(ctx: &Ctx, rec: &Recorder, setups_s: &[f64]) -> Vec<Reported> {
    // Source rows under one pass of the query set over the time the pass
    // takes with every query at its undisturbed time.
    let (ms, rows) = site_bests(rec, "query")
        .iter()
        .fold((0.0, 0.0), |(ms, rows), b| (ms + b.0, rows + b.1 as f64));
    vec![
        // Set-up is one more site: the same work every time.
        Reported {
            name: "setup_s",
            value: undisturbed(setups_s),
            of: Some(Summary::of(setups_s)),
        },
        latency(rec, "query_p50_ms", "query"),
        Reported::plain("scan_mrows_per_s", rows / 1e6 / (ms / 1e3)),
        latency(rec, "cold_open_first_query_ms", "cold_open"),
        rate(
            rec,
            "import_mb_per_s",
            "import",
            ctx.import_bytes() as f64 / 1e6,
        ),
        Reported::plain(
            "stored_bytes_per_user_byte",
            rec.stored_bytes as f64 / ctx.import_bytes() as f64,
        ),
        latency(rec, "compact_ms", "compact"),
        Reported::plain("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Print `workload name value unit` per metric (timings with the raw
/// samples' quartiles, tail and count), then the result object as the
/// last line.
pub fn print(workload: &str, attempted: u64, failed: u64, metrics: &[Reported]) {
    for m in metrics {
        let unit = unit_of(m.name);
        match &m.of {
            Some(s) => println!(
                "{workload} {} {} {unit}  (raw samples: q1 {:.4} median {:.4} q3 {:.4} p{:.0} {:.4} n={})",
                m.name, m.value, s.q1, s.median, s.q3, s.tail_pct, s.tail, s.n
            ),
            None => println!("{workload} {} {} {unit}", m.name, m.value),
        }
    }
    let complete = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name,
                unit_of(m.name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && complete,
        body.join(", ")
    );
}
