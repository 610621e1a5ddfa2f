//! Two result files of the same tree, metric by metric: what must
//! repeat exactly does, and what is read off the host clock stays within
//! the bound `BENCHMARK.json` fixes for it.

use crate::json::{parse, Json};
use crate::metrics::{clock_of, Clock};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The verdict on one metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Equal,
    /// Host-clock metric with a bound: relative difference, and whether
    /// it is inside.
    Within(f64, bool),
    /// Host-clock metric with no bound (per-layer): difference only.
    Unbounded(f64),
    /// An exact metric that differs.
    Differs,
}

pub fn judge(clock: Clock, bound: Option<f64>, a: f64, b: f64) -> Verdict {
    if a == b {
        return Verdict::Equal;
    }
    let rel = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
    match (clock, bound) {
        (Clock::Exact, _) => Verdict::Differs,
        (Clock::Host, Some(bound)) => Verdict::Within(rel, rel <= bound),
        (Clock::Host, None) => Verdict::Unbounded(rel),
    }
}

/// Prints the table and returns whether every metric passed.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let benchmark = load("BENCHMARK.json")?;
    let bound_of = |name: &str| {
        benchmark
            .get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|list| {
                list.iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            })
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
    };
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{a_path}: no workloads"))?;
    let mut ok =
        a.get("correct") == Some(&Json::Bool(true)) && b.get("correct") == Some(&Json::Bool(true));
    if !ok {
        println!("a run reports failed output checks");
    }
    println!(
        "{:<16} {:<44} {:>16} {:>16}  verdict",
        "workload", "metric", "first", "second"
    );
    for (workload, metrics) in workloads {
        let other = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!("{b_path}: no workload {workload}"))?;
        for (name, m) in metrics.as_obj().ok_or("metrics are not an object")? {
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(x), Some(y)) = (value(m), other.get(name).and_then(value)) else {
                return Err(format!("{workload}/{name}: missing in one file"));
            };
            let clock = clock_of(name).ok_or(format!("{name}: not a declared metric"))?;
            let verdict = judge(clock, bound_of(name), x, y);
            let text = match verdict {
                Verdict::Equal => "equal".to_string(),
                Verdict::Within(rel, true) => format!("{:.2} % apart, within bound", 100.0 * rel),
                Verdict::Within(rel, false) => {
                    format!("{:.2} % apart, OUTSIDE BOUND", 100.0 * rel)
                }
                Verdict::Unbounded(rel) => format!("{:.2} % apart (host, no bound)", 100.0 * rel),
                Verdict::Differs => "DIFFERS, must be equal".to_string(),
            };
            ok &= !matches!(verdict, Verdict::Differs | Verdict::Within(_, false));
            println!("{workload:<16} {name:<44} {x:>16.4} {y:>16.4}  {text}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_must_be_equal_and_host_metrics_within_bound() {
        assert_eq!(
            judge(Clock::Exact, Some(0.02), 981.75, 981.75),
            Verdict::Equal
        );
        assert_eq!(
            judge(Clock::Exact, Some(0.02), 981.75, 981.76),
            Verdict::Differs
        );
        assert_eq!(judge(Clock::Exact, None, 3.0, 4.0), Verdict::Differs);
        match judge(Clock::Host, Some(0.10), 2.0, 2.1) {
            Verdict::Within(rel, true) => assert!((rel - 0.05).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            judge(Clock::Host, Some(0.10), 2.0, 1.7),
            Verdict::Within(_, false)
        ));
        assert!(matches!(
            judge(Clock::Host, None, 100.0, 150.0),
            Verdict::Unbounded(_)
        ));
        assert_eq!(judge(Clock::Host, None, 0.0, 0.0), Verdict::Equal);
    }
}
