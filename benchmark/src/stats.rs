//! Small statistics the harness needs: medians over reps, percentiles
//! that say how many samples stand behind them, and the dip rule.

/// Median of `values` (mean of the middle two for even counts); NaN for
/// no values, which no metric may carry.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / min` of `values`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    100.0 * (max - min) / min
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank: a tail percentile with
    /// fewer than ten of these is one outlier's value, not a tail.
    pub beyond: usize,
}

/// Nearest-rank percentile (`pct` in 0–100) of `samples`, sorted in
/// place. `None` for no samples.
pub fn percentile(samples: &mut [u64], pct: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let last = samples.len() - 1;
    let idx = (((pct / 100.0) * last as f64).round() as usize).min(last);
    Some(Percentile {
        value: samples[idx],
        samples: samples.len(),
        beyond: last - idx,
    })
}

/// The dip rule: the deepest one-second bucket of `series[from..to]`,
/// as the percentage of the failure-free rate `baseline` that was lost
/// in it (100 = a second with no completions, 0 or less = no bucket fell
/// below the baseline).
pub fn dip_pct(series: &[u32], from: usize, to: usize, baseline: f64) -> f64 {
    let to = to.min(series.len());
    let deepest = series[from.min(to)..to].iter().copied().min();
    match deepest {
        Some(low) if baseline > 0.0 => 100.0 * (baseline - low as f64) / baseline,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_is_relative_to_the_fastest() {
        assert!((spread_pct(&[2.0, 2.5, 2.2]) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_reports_samples_and_tail_evidence() {
        let mut s: Vec<u64> = (1..=1000).collect();
        let p50 = percentile(&mut s, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples), (501, 1000));
        let p999 = percentile(&mut s, 99.9).unwrap();
        assert_eq!((p999.value, p999.beyond), (999, 1));
        let p99 = percentile(&mut s, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990, 10));
        assert!(percentile(&mut [], 50.0).is_none());
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut s = vec![9, 1, 5];
        assert_eq!(percentile(&mut s, 100.0).unwrap().value, 9);
        assert_eq!(percentile(&mut s, 0.0).unwrap().value, 1);
    }

    #[test]
    fn dip_is_share_of_baseline_lost_in_deepest_second() {
        let series = [0, 100, 100, 64, 90, 100, 5];
        // Buckets 1..6 only: the ramp buckets 0 and 6 are outside.
        assert!((dip_pct(&series, 1, 6, 100.0) - 36.0).abs() < 1e-9);
        // An outage second is a 100 % dip.
        assert!((dip_pct(&series, 0, 6, 100.0) - 100.0).abs() < 1e-9);
        // A series that never falls below the baseline has no dip.
        assert!(dip_pct(&series, 1, 3, 90.0) < 0.0);
        // Degenerate windows and baselines do not divide by zero.
        assert_eq!(dip_pct(&series, 3, 3, 100.0), 0.0);
        assert_eq!(dip_pct(&series, 1, 6, 0.0), 0.0);
    }
}
