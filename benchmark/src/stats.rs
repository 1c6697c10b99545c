//! Order statistics over timing samples.

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles, sample count and the tail of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, capped
    /// at the 95th; with fewer than 20 samples, the maximum.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let tail_q = if n >= 20 {
            (1.0 - 10.0 / n as f64).min(0.95)
        } else {
            1.0
        };
        Summary {
            n,
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            tail: quantile_sorted(&s, tail_q),
            tail_pct: tail_q * 100.0,
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}
