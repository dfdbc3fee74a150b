//! Order statistics for latency samples and per-pass metric values.

/// Smallest number of samples that must lie beyond a reported percentile
/// (choosing-metrics §1): below it the percentile is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `samples` ascending (no NaNs reach here: every sample is a duration
/// or a ratio of non-zero counts).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// The `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (the median only needs one
/// sample).
pub fn supported_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    // The epsilon keeps (1 - 0.9) * 100 from flooring to 9.
    let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
    if q > 0.5 && beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(quantile(&sorted(samples.to_vec()), q))
}

/// Median of `samples`; 0 for an empty sample (a layer that was never called).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    supported_quantile(samples, 0.5).unwrap_or(0.0)
}

/// Five-number summary of one metric's per-pass values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values.to_vec());
        Summary {
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }
}

/// 64-bit FNV-1a, the output digest: stable across runs, platforms and
/// commits (unlike `DefaultHasher`, whose algorithm is unspecified).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_respect_the_tail_rule() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        // 5 samples: the median is reportable, p90 is not (0 beyond it).
        assert_eq!(supported_quantile(&s, 0.5), Some(3.0));
        assert_eq!(supported_quantile(&s, 0.9), None);
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(supported_quantile(&many, 0.9).is_some());
        assert!(supported_quantile(&many, 0.99).is_none());
        let summary = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((summary.q1, summary.median, summary.q3), (1.5, 2.0, 2.5));
    }
}
