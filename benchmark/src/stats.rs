//! Order statistics over repeat samples.

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; an empty slice has no summary.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            median: quantile(&v, 0.5),
            min: v[0],
            max: v[v.len() - 1],
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            n: v.len(),
        })
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// `q`-quantile of unsorted samples (0 when empty).
pub fn quantile_of(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    quantile(samples, q)
}
