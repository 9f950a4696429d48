//! Sample statistics: medians, tail percentiles that are only reported
//! when enough samples lie beyond them, and small-integer histograms.

/// Samples beyond a reported tail percentile, at least.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` (0 < q < 1) of sorted samples, but only
/// when at least [`TAIL_MIN_BEYOND`] samples lie above the selected
/// rank: a p99 needs 1000 samples, a p90 100.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a sample vector in place and return it, for [`tail`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Exact histogram of small non-negative integers (queue depths).
#[derive(Debug, Clone, Default)]
pub struct CountHist {
    counts: Vec<u64>,
    max: usize,
}

impl CountHist {
    pub fn record(&mut self, v: usize) {
        let slot = v.min(4095);
        if self.counts.len() <= slot {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, o: &CountHist) {
        if self.counts.len() < o.counts.len() {
            self.counts.resize(o.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.max = self.max.max(o.max);
    }

    /// Lower median; 0 when empty.
    pub fn p50(&self) -> f64 {
        let n: u64 = self.counts.iter().sum();
        let mut acc = 0;
        for (v, c) in self.counts.iter().enumerate() {
            acc += c;
            if n > 0 && acc * 2 >= n {
                return v as f64;
            }
        }
        0.0
    }

    pub fn max(&self) -> f64 {
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred = sorted((1..=100).map(f64::from).collect());
        // p90 of 100 samples sits at rank 90 with exactly 10 beyond.
        assert_eq!(tail(&hundred, 0.90), Some(90.0));
        // p99 would have 1 beyond: not reported.
        assert_eq!(tail(&hundred, 0.99), None);
        let ninety_nine = sorted((1..=99).map(f64::from).collect());
        assert_eq!(tail(&ninety_nine, 0.90), None);
        let thousand = sorted((1..=1000).map(f64::from).collect());
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn count_hist_median_and_max() {
        let mut h = CountHist::default();
        for v in [0, 0, 1, 5, 9000] {
            h.record(v);
        }
        assert_eq!(h.p50(), 1.0);
        assert_eq!(h.max(), 9000.0);
        let mut g = CountHist::default();
        g.record(2);
        g.merge(&h);
        assert_eq!(g.max(), 9000.0);
    }
}
