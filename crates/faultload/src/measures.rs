//! The dependability measures of the paper (§5.1).
//!
//! * **Availability** — fraction of the run during which the
//!   application delivered service.
//! * **Performability** — failure-free AWIPS (with CV) vs. AWIPS during
//!   recovery windows, and the performance variation PV%.
//! * **Accuracy** — `1 − errors/total` (reported as a percentage;
//!   "three nines" in the paper's worst case).
//! * **Autonomy** — `1 − human interventions / faults`.

/// One replica's recovery window, as observed by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpan {
    /// The replica that crashed (server index).
    pub server: usize,
    /// Crash time (µs).
    pub crash_at: u64,
    /// Restart (process re-instantiation) time (µs).
    pub restart_at: u64,
    /// Recovery completion time (µs) — checkpoint loaded, backlog
    /// re-learned, replica serving again. `None` if it never completed
    /// within the run.
    pub recovered_at: Option<u64>,
    /// Whether the restart was operator-triggered. A manual recovery's
    /// performability window starts at the restart (the paper's
    /// "recovery R2" column in Table 5), not at the crash.
    pub manual: bool,
}

impl RecoverySpan {
    /// The recovery duration (restart → operational), if completed.
    pub fn recovery_secs(&self) -> Option<f64> {
        self.recovered_at
            .map(|r| (r.saturating_sub(self.restart_at)) as f64 / 1e6)
    }
}

/// AWIPS/CV over one analysis window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformabilityWindow {
    /// Window start (µs).
    pub from_us: u64,
    /// Window end (µs).
    pub to_us: u64,
    /// Average WIPS over the window.
    pub awips: f64,
    /// Coefficient of variation of per-second WIPS.
    pub cv: f64,
}

/// Computes AWIPS/CV over `[from, to)` of a per-second series: the
/// run's AWIPS is this over the measurement interval.
pub fn performability(series: &[u32], from_us: u64, to_us: u64) -> PerformabilityWindow {
    let (_, window) = seconds(series, from_us, to_us);
    let (awips, cv) = mean_cv(window.iter().map(|v| *v as f64));
    PerformabilityWindow {
        from_us,
        to_us,
        awips,
        cv,
    }
}

/// The one-second buckets of `series` that `[from, to)` covers, with
/// the index of the first.
fn seconds(series: &[u32], from_us: u64, to_us: u64) -> (usize, &[u32]) {
    let b0 = (from_us / 1_000_000) as usize;
    let b1 = ((to_us / 1_000_000) as usize).min(series.len());
    (b0, series.get(b0..b1).unwrap_or_default())
}

/// The mean of `vals` and their coefficient of variation (0 for an
/// empty or non-positive series).
fn mean_cv(vals: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = vals.clone().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = vals.clone().sum::<f64>() / n as f64;
    let cv = if mean > 0.0 {
        let var = vals.map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        var.sqrt() / mean
    } else {
        0.0
    };
    (mean, cv)
}

/// The full dependability report for one experiment run.
#[derive(Debug, Clone)]
pub struct DependabilityReport {
    /// Failure-free AWIPS/CV (measurement interval minus recovery
    /// windows).
    pub failure_free: PerformabilityWindow,
    /// AWIPS/CV over the recovery periods (crash → recovery complete).
    pub recovery: Vec<PerformabilityWindow>,
    /// PV%: performance variation of each recovery window relative to
    /// the failure-free AWIPS.
    pub pv_percent: Vec<f64>,
    /// Availability: fraction of the measurement interval with service
    /// delivered (≥1 successful interaction per second bucket, or no
    /// demand).
    pub availability: f64,
    /// Accuracy percentage: `100 × (1 − errors/total)`.
    pub accuracy_percent: f64,
    /// Autonomy: `1 − interventions/faults` (1.0 when no faults).
    pub autonomy: f64,
}

impl DependabilityReport {
    /// Builds the report from the run's observables.
    ///
    /// `series` is the per-second successful-interaction histogram;
    /// `measure` the measurement window (µs); `spans` the observed
    /// recoveries; `errors`/`total` the request counts; `faults` and
    /// `interventions` come from the faultload.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one observable of the run, and the report is built once per run"
    )]
    pub fn build(
        series: &[u32],
        measure_from_us: u64,
        measure_to_us: u64,
        spans: &[RecoverySpan],
        errors: u64,
        total: u64,
        faults: usize,
        interventions: usize,
    ) -> DependabilityReport {
        // Recovery windows clipped to the measurement interval. An
        // autonomous recovery's window opens at the crash (the failover
        // dip belongs to it); a manual one opens at the operator's
        // restart.
        let windows: Vec<(u64, u64)> = spans
            .iter()
            .map(|s| {
                let start = if s.manual { s.restart_at } else { s.crash_at };
                (
                    start.max(measure_from_us),
                    s.recovered_at.unwrap_or(measure_to_us).min(measure_to_us),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();

        // Failure-free = measurement seconds not inside any recovery.
        let (b0, measured) = seconds(series, measure_from_us, measure_to_us);
        let in_recovery = |b: usize| {
            let t = b as u64 * 1_000_000;
            windows.iter().any(|(a, z)| t >= *a && t < *z)
        };
        let (ff_awips, ff_cv) = mean_cv(
            measured
                .iter()
                .enumerate()
                .filter(|(i, _)| !in_recovery(b0 + i))
                .map(|(_, v)| *v as f64),
        );
        let failure_free = PerformabilityWindow {
            from_us: measure_from_us,
            to_us: measure_to_us,
            awips: ff_awips,
            cv: ff_cv,
        };

        let recovery: Vec<PerformabilityWindow> = windows
            .iter()
            .map(|(a, z)| performability(series, *a, *z))
            .collect();
        let pv_percent = recovery
            .iter()
            .map(|w| {
                if ff_awips > 0.0 {
                    100.0 * (w.awips - ff_awips) / ff_awips
                } else {
                    0.0
                }
            })
            .collect();

        let availability = if measured.is_empty() {
            1.0
        } else {
            measured.iter().filter(|v| **v > 0).count() as f64 / measured.len() as f64
        };
        let accuracy_percent = if total == 0 {
            100.0
        } else {
            100.0 * (1.0 - errors as f64 / total as f64)
        };
        let autonomy = if faults == 0 {
            1.0
        } else {
            1.0 - interventions as f64 / faults as f64
        };

        DependabilityReport {
            failure_free,
            recovery,
            pv_percent,
            availability,
            accuracy_percent,
            autonomy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_series(len: usize, level: u32) -> Vec<u32> {
        vec![level; len]
    }

    #[test]
    fn performability_of_flat_series() {
        let s = flat_series(100, 50);
        let w = performability(&s, 10_000_000, 60_000_000);
        assert!((w.awips - 50.0).abs() < 1e-9);
        assert!(w.cv < 1e-9);
    }

    #[test]
    fn performability_empty_window() {
        let s = flat_series(10, 5);
        let w = performability(&s, 5_000_000, 5_000_000);
        assert_eq!(w.awips, 0.0);
        let past_the_end = performability(&s, 20_000_000, 30_000_000);
        assert_eq!((past_the_end.awips, past_the_end.cv), (0.0, 0.0));
    }

    #[test]
    fn report_separates_failure_free_from_recovery() {
        // 100 s of 100 WIPS, except a dip to 60 during seconds 40–60.
        let mut s = flat_series(100, 100);
        for b in s.iter_mut().take(60).skip(40) {
            *b = 60;
        }
        let spans = vec![RecoverySpan {
            server: 1,
            crash_at: 40_000_000,
            restart_at: 42_000_000,
            recovered_at: Some(60_000_000),
            manual: false,
        }];
        let r = DependabilityReport::build(&s, 0, 100_000_000, &spans, 5, 100_000, 1, 0);
        assert!((r.failure_free.awips - 100.0).abs() < 1e-9);
        assert_eq!(r.recovery.len(), 1);
        assert!((r.recovery[0].awips - 60.0).abs() < 1e-9);
        assert!(
            (r.pv_percent[0] + 40.0).abs() < 1e-9,
            "PV {}",
            r.pv_percent[0]
        );
        assert!((r.accuracy_percent - 99.995).abs() < 1e-9);
        assert_eq!(r.autonomy, 1.0);
        assert_eq!(r.availability, 1.0);
        assert!((spans[0].recovery_secs().unwrap() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn availability_counts_dead_seconds() {
        let mut s = flat_series(100, 10);
        for b in s.iter_mut().take(30).skip(20) {
            *b = 0;
        }
        let r = DependabilityReport::build(&s, 0, 100_000_000, &[], 0, 1_000, 0, 0);
        assert!((r.availability - 0.9).abs() < 1e-9);
    }

    #[test]
    fn autonomy_and_accuracy_match_paper_definitions() {
        let s = flat_series(10, 1);
        // 99 999 successes and one error read as the paper's 99.999 %.
        let r = DependabilityReport::build(&s, 0, 10_000_000, &[], 1, 100_000, 2, 1);
        assert!((r.autonomy - 0.5).abs() < 1e-9);
        let acc = r.accuracy_percent;
        assert!((acc - 99.999).abs() < 0.0005, "{acc}");
        let r = DependabilityReport::build(&s, 0, 10_000_000, &[], 0, 10, 0, 0);
        assert_eq!(r.autonomy, 1.0);
    }

    #[test]
    fn unfinished_recovery_extends_to_interval_end() {
        let s = flat_series(50, 10);
        let spans = vec![RecoverySpan {
            server: 0,
            crash_at: 30_000_000,
            restart_at: 31_000_000,
            recovered_at: None,
            manual: false,
        }];
        let r = DependabilityReport::build(&s, 0, 50_000_000, &spans, 0, 100, 1, 0);
        assert_eq!(r.recovery[0].to_us, 50_000_000);
        assert!(spans[0].recovery_secs().is_none());
    }
}
