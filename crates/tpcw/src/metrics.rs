//! Performance recording.
//!
//! TPC-W measures WIPS (web interactions per second) with WIRT (web
//! interaction response time) as the complementary metric, over a
//! ramp-up / measurement-interval / ramp-down schedule (the paper uses
//! 30 s / 9 min / 30 s). The [`Recorder`] keeps the raw observables:
//! the per-second completion and error histograms (Figures 5/7/8), the
//! totals, and the typed WIRT samples with their percentiles and the
//! clause 5.3.1 compliance check. The dependability extension's
//! measures over those histograms — AWIPS and its coefficient of
//! variation over sub-windows (Tables 1/3/5) and accuracy (Tables
//! 2/4/6) — are computed by `faultload::measures`, and only there.

#![expect(
    clippy::indexing_slicing,
    reason = "histogram buckets and sample ranks are computed below the lengths they index; the recorder is host-side bookkeeping, off the replica path"
)]

/// Measurement schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Ramp-up length (µs).
    pub ramp_up_us: u64,
    /// Measurement interval length (µs).
    pub interval_us: u64,
    /// Ramp-down length (µs).
    pub ramp_down_us: u64,
}

impl Schedule {
    /// The paper's schedule: 30 s ramp-up, 9 min interval, 30 s ramp-down.
    pub fn paper() -> Schedule {
        Schedule {
            ramp_up_us: 30_000_000,
            interval_us: 540_000_000,
            ramp_down_us: 30_000_000,
        }
    }

    /// A shortened schedule for quick experiment runs (same structure).
    pub fn quick(interval_secs: u64) -> Schedule {
        Schedule {
            ramp_up_us: 30_000_000,
            interval_us: interval_secs * 1_000_000,
            ramp_down_us: 10_000_000,
        }
    }

    /// Start of the measurement interval.
    pub fn measure_start_us(&self) -> u64 {
        self.ramp_up_us
    }

    /// End of the measurement interval.
    pub fn measure_end_us(&self) -> u64 {
        self.ramp_up_us + self.interval_us
    }

    /// Total run length.
    pub fn total_us(&self) -> u64 {
        self.ramp_up_us + self.interval_us + self.ramp_down_us
    }

    /// Whether `t` falls inside the measurement interval.
    pub fn in_interval(&self, t: u64) -> bool {
        t >= self.measure_start_us() && t < self.measure_end_us()
    }
}

/// Per-second completion/error series plus response-time samples.
#[derive(Debug, Clone)]
pub struct Recorder {
    bucket_us: u64,
    completions: Vec<u32>,
    errors: Vec<u32>,
    /// (completion time µs, response time µs, interaction) samples of
    /// successes.
    wirt: Vec<(u64, u32, crate::Interaction)>,
    total_ok: u64,
    total_err: u64,
    err_conn: u64,
    err_served: u64,
}

impl Recorder {
    /// A recorder with one-second buckets covering `total_us`.
    pub fn new(total_us: u64) -> Recorder {
        let buckets = (total_us / 1_000_000 + 2) as usize;
        Recorder {
            bucket_us: 1_000_000,
            completions: vec![0; buckets],
            errors: vec![0; buckets],
            wirt: Vec::new(),
            total_ok: 0,
            total_err: 0,
            err_conn: 0,
            err_served: 0,
        }
    }

    /// Records a successful `interaction` completing at `t` with response
    /// time `rt_us` (the type enables the TPC-W clause 5.3.1
    /// response-time compliance check).
    pub fn record_ok(&mut self, t: u64, rt_us: u64, interaction: crate::Interaction) {
        let b = (t / self.bucket_us) as usize;
        if b < self.completions.len() {
            self.completions[b] += 1;
        }
        self.total_ok += 1;
        self.wirt
            .push((t, rt_us.min(u32::MAX as u64) as u32, interaction));
    }

    /// Records a failed interaction (connection error) at `t`.
    pub fn record_error(&mut self, t: u64) {
        let b = (t / self.bucket_us) as usize;
        if b < self.errors.len() {
            self.errors[b] += 1;
        }
        self.total_err += 1;
        self.err_conn += 1;
    }

    /// Records a served-but-erroneous page (deterministic business
    /// error) at `t` — counted against accuracy like any error.
    pub fn record_served_error(&mut self, t: u64) {
        let b = (t / self.bucket_us) as usize;
        if b < self.errors.len() {
            self.errors[b] += 1;
        }
        self.total_err += 1;
        self.err_served += 1;
    }

    /// `(connection errors, served error pages)` breakdown.
    pub fn error_breakdown(&self) -> (u64, u64) {
        (self.err_conn, self.err_served)
    }

    /// The per-second WIPS histogram (Figures 5/7/8).
    pub fn wips_series(&self) -> &[u32] {
        &self.completions
    }

    /// The per-second error series.
    pub fn error_series(&self) -> &[u32] {
        &self.errors
    }

    /// Total successful interactions.
    pub fn total_ok(&self) -> u64 {
        self.total_ok
    }

    /// Total failed interactions.
    pub fn total_errors(&self) -> u64 {
        self.total_err
    }

    /// Mean WIRT (µs) over `[from, to)` completion times.
    pub fn mean_wirt(&self, from: u64, to: u64) -> f64 {
        let (sum, count) = self
            .wirt_in(from, to)
            .fold((0.0, 0u64), |(sum, count), (rt, _)| {
                (sum + rt as f64, count + 1)
            });
        if count == 0 {
            return 0.0;
        }
        sum / count as f64
    }

    /// WIRT percentile (0–100) over `[from, to)`.
    pub fn wirt_percentile(&self, from: u64, to: u64, pct: f64) -> u64 {
        let samples = self.wirt_in(from, to).map(|(rt, _)| rt);
        nearest_rank(samples, pct / 100.0).unwrap_or(0)
    }

    /// TPC-W clause 5.3.1: 90 % of each interaction's responses must
    /// complete within its limit. Returns per-interaction
    /// `(interaction, p90 µs, limit µs, compliant)` over `[from, to)`,
    /// skipping interactions with no samples.
    pub fn wirt_compliance(&self, from: u64, to: u64) -> Vec<(crate::Interaction, u64, u64, bool)> {
        let mut out = Vec::new();
        for interaction in crate::ALL_INTERACTIONS {
            let samples = self
                .wirt_in(from, to)
                .filter(|(_, i)| *i == interaction)
                .map(|(rt, _)| rt);
            if let Some(p90) = nearest_rank(samples, 0.9) {
                let limit = wirt_limit_us(interaction);
                out.push((interaction, p90, limit, p90 <= limit));
            }
        }
        out
    }

    /// `(response time µs, interaction)` of the successes completed in
    /// `[from, to)`.
    fn wirt_in(&self, from: u64, to: u64) -> impl Iterator<Item = (u32, crate::Interaction)> + '_ {
        self.wirt
            .iter()
            .filter(move |(t, ..)| *t >= from && *t < to)
            .map(|(_, rt, i)| (*rt, *i))
    }
}

/// The nearest-rank sample at `share` (0–1) of `samples`, or `None` if
/// there are none.
fn nearest_rank(samples: impl Iterator<Item = u32>, share: f64) -> Option<u64> {
    let mut samples: Vec<u32> = samples.collect();
    let last = samples.len().checked_sub(1)?;
    samples.sort_unstable();
    let idx = (share * last as f64).round() as usize;
    Some(samples[idx.min(last)] as u64)
}

/// TPC-W clause 5.3.1.1 response-time limits (µs) per interaction.
pub fn wirt_limit_us(interaction: crate::Interaction) -> u64 {
    use crate::Interaction::*;
    match interaction {
        AdminConfirm => 20_000_000,
        AdminRequest | BestSellers | BuyConfirm | BuyRequest | CustomerRegistration
        | NewProducts | OrderDisplay | OrderInquiry | ShoppingCart => 3_000_000,
        Home | ProductDetail | SearchRequest => 3_000_000,
        SearchResults => 10_000_000,
    }
}

/// Simple linear regression `y = a + b·x` (scaleup fits, Figure 4).
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (sy / n, 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

/// Pearson correlation coefficient squared (r², Figure 4's WIPS↔WIRT
/// correlation analysis).
pub fn r_squared(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 1.0;
    }
    let mx: f64 = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let my: f64 = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = points.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    let vy: f64 = points.iter().map(|(_, y)| (y - my).powi(2)).sum();
    if vx.abs() < f64::EPSILON || vy.abs() < f64::EPSILON {
        return 1.0;
    }
    (cov * cov) / (vx * vy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interaction;

    #[test]
    fn schedule_windows() {
        let s = Schedule::paper();
        assert_eq!(s.measure_start_us(), 30_000_000);
        assert_eq!(s.measure_end_us(), 570_000_000);
        assert_eq!(s.total_us(), 600_000_000);
        assert!(!s.in_interval(29_999_999));
        assert!(s.in_interval(30_000_000));
        assert!(!s.in_interval(570_000_000));
    }

    #[test]
    fn recorder_buckets_and_totals() {
        let mut r = Recorder::new(10_000_000);
        r.record_ok(500_000, 20_000, Interaction::Home);
        r.record_ok(1_500_000, 30_000, Interaction::Home);
        r.record_ok(1_600_000, 30_000, Interaction::Home);
        r.record_error(1_700_000);
        assert_eq!(r.wips_series()[0], 1);
        assert_eq!(r.wips_series()[1], 2);
        assert_eq!(r.error_series()[1], 1);
        assert_eq!(r.total_ok(), 3);
        assert_eq!(r.total_errors(), 1);
    }

    #[test]
    fn wirt_stats() {
        let mut r = Recorder::new(2_000_000);
        for (i, rt) in [10_000u64, 20_000, 30_000, 40_000].iter().enumerate() {
            r.record_ok(i as u64 * 100_000, *rt, Interaction::Home);
        }
        assert!((r.mean_wirt(0, 2_000_000) - 25_000.0).abs() < 1e-6);
        assert_eq!(r.wirt_percentile(0, 2_000_000, 100.0), 40_000);
        assert_eq!(r.wirt_percentile(0, 2_000_000, 0.0), 10_000);
    }

    #[test]
    fn wirt_compliance_applies_per_interaction_limits() {
        let mut r = Recorder::new(10_000_000);
        // 10 fast Home pages and one slow one: p90 under the 3 s limit.
        for k in 0..10u64 {
            r.record_ok(k * 100_000, 50_000, Interaction::Home);
        }
        r.record_ok(1_500_000, 9_000_000, Interaction::Home);
        // SearchResults consistently slow but within its 10 s limit.
        for k in 0..5u64 {
            r.record_ok(2_000_000 + k, 8_000_000, Interaction::SearchResults);
        }
        // BestSellers blowing its 3 s limit.
        for k in 0..5u64 {
            r.record_ok(3_000_000 + k, 5_000_000, Interaction::BestSellers);
        }
        let report = r.wirt_compliance(0, 10_000_000);
        let get = |i: crate::Interaction| report.iter().find(|(x, ..)| *x == i).unwrap();
        assert!(get(Interaction::Home).3, "home compliant at p90");
        assert!(get(Interaction::SearchResults).3);
        assert!(!get(Interaction::BestSellers).3);
        // Interactions with no samples are skipped.
        assert!(report.iter().all(|(i, ..)| *i != Interaction::BuyConfirm));
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 + 2.0 * x as f64)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn r_squared_perfect_and_flat() {
        let pts: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 5.0 - x as f64)).collect();
        assert!((r_squared(&pts) - 1.0).abs() < 1e-9);
        let noise: Vec<(f64, f64)> = vec![(0.0, 1.0), (1.0, -1.0), (2.0, 1.0), (3.0, -1.0)];
        assert!(r_squared(&noise) < 0.5);
    }

    #[test]
    fn empty_recorder_is_benign() {
        let r = Recorder::new(1_000_000);
        assert_eq!(r.mean_wirt(0, 1_000_000), 0.0);
        assert_eq!(r.wirt_percentile(0, 1_000_000, 50.0), 0);
        assert!(r.wirt_compliance(0, 1_000_000).is_empty());
    }
}
