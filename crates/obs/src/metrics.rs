//! Log₂ histograms: the summary the offline reducers keep of a value
//! series (commit latencies, detection latencies, phase durations) whose
//! full per-sample stream would be too long to print. Each sample costs
//! a couple of integer operations and no allocation.

/// Number of power-of-two buckets; covers values up to 2⁴⁰−1 (~12 days
/// in µs), far beyond any simulated run.
const BUCKETS: usize = 40;

/// A histogram with power-of-two buckets, exact count/sum/min/max.
///
/// Bucket `i` holds values `v` with `floor(log2(v+1)) == i`, i.e. bucket
/// 0 is `{0}`, bucket 1 is `{1}`, bucket 2 is `{2,3}`, and so on.
/// Quantiles interpolate linearly inside the bucket holding the ranked
/// sample (and clamp to the exact min/max), so their error is bounded
/// by the spacing of samples within one bucket; the mean is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = (64 - (v + 1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        if let Some(b) = self.buckets.get_mut(idx) {
            *b += 1;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0,1]`, interpolated linearly within
    /// the log₂ bucket containing the q-th ranked sample (exact min/max
    /// at the ends). Returning the bucket's upper bound instead would
    /// over-report tail quantiles by up to 2×, since a bucket's bounds
    /// are a factor of two apart.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // Bucket i spans [2^i - 1, 2^(i+1) - 2]. Place the ranked
                // sample proportionally to its position among the bucket's
                // `b` occupants (u128 keeps the product from overflowing).
                let lo = (1u64 << i) - 1;
                let hi = (1u64 << (i + 1)) - 2;
                let pos = rank - (seen - b); // 1-based position in bucket
                let est =
                    lo + (((hi - lo) as u128 * (pos - 1) as u128) / (*b).max(1) as u128) as u64;
                return est.clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_tracks_exact_count_sum_min_max() {
        let mut h = Hist::new();
        for v in [3u64, 9, 1, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 28.25).abs() < 1e-9);
    }

    #[test]
    fn hist_quantiles_bracket_samples() {
        let mut h = Hist::new();
        for v in 0..1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5);
        assert!((256..=1022).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 999);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // 0..1000 uniformly: the true p10/p50 are 99/499. Bucket upper
        // bounds (the old behaviour) would report 126/510; interpolation
        // lands within one sample of the truth.
        let mut h = Hist::new();
        for v in 0..1000u64 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.1), 98);
        assert_eq!(h.quantile(0.5), 498);
        // p99's bucket tops out above the sample max; the clamp keeps the
        // estimate inside the observed range.
        assert_eq!(h.quantile(0.99), 999);

        // A constant series must report that constant at every quantile.
        let mut c = Hist::new();
        for _ in 0..100 {
            c.observe(300);
        }
        for q in [0.01, 0.5, 0.9, 0.99] {
            assert_eq!(c.quantile(q), 300, "q={q}");
        }
    }

    #[test]
    fn empty_hist_is_zeroes() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
