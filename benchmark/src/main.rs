//! The repo benchmark: three TPC-W workloads on two clocks, with a
//! per-layer ledger measured from outside the program.
//!
//! ```text
//! repo-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is the result
//!     object the driver reads (end-to-end metrics untraced with
//!     --trace 0, the per-layer ledger with --trace 1)
//! repo-benchmark [--seed N] [--seconds S]
//!     every workload, both ways, each pass in a fresh process of this
//!     executable, every metric printed by name
//! repo-benchmark --compare A.json B.json
//!     two result files of the same tree, metric by metric
//! ```
//!
//! Run from the repository root (`benchmark/run.sh` does): the harness
//! reads `BENCHMARK.json` there and writes `benchmark/out/`.

// The root clippy.toml bans wall-clock reads because they break the
// simulation's determinism. This harness lives outside the simulation
// and the host clock is what it measures.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod compare;
mod endtoend;
mod json;
mod layers;
mod metrics;
mod probes;
mod spans;
mod stats;
mod traffic;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;
use spans::Spans;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 24.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// What one pass leaves in `benchmark/out/` for the parent to merge.
fn pass_file(workload: &str, trace: bool) -> String {
    let pass = if trace { "layers" } else { "endtoend" };
    format!("{OUT_DIR}/{workload}.{pass}.json")
}

/// One pass over one workload, in this process: measure, print every
/// metric by name, leave the pass file, and end stdout with the result
/// object if every output check passed.
fn run_pass(workload: &Workload, args: &Args) -> Result<bool, String> {
    let mut spans = Spans::new(workload.name);
    spans.enter("workload");
    let (decls, outcome) = if args.trace {
        let outcome = layers::run(workload, args.seed, args.quick, &mut spans);
        (metrics::PER_LAYER, outcome)
    } else {
        let outcome = endtoend::run(workload, args.seed, args.seconds, args.quick, &mut spans);
        (metrics::END_TO_END, outcome)
    };
    spans.exit();
    let mut failures = outcome.failures;
    let metrics = metrics::emit(decls, &outcome.metrics).unwrap_or_else(|e| {
        failures.push(e);
        Json::Obj(Vec::new())
    });

    let name = workload.name;
    for (metric, m) in metrics.as_obj().unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<16} {metric:<44} {value:>16.4} {unit}");
    }
    for (note, value) in &outcome.notes {
        println!("{name:<16} ({note:<42}) {value:>16.4}");
    }
    for failure in &failures {
        println!("{name:<16} CHECK FAILED: {failure}");
    }

    let correct = failures.is_empty();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.reps.max(1) as f64)),
        // Checks are not pinned on single reps: one failure condemns them all.
        (
            "failed",
            Json::Num(if correct { 0.0 } else { outcome.reps as f64 }),
        ),
        ("metrics", metrics),
    ]);
    let notes = outcome
        .notes
        .into_iter()
        .map(|(k, v)| {
            (
                k,
                if v.is_finite() {
                    Json::Num(v)
                } else {
                    Json::Null
                },
            )
        })
        .collect();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    write(
        &pass_file(name, args.trace),
        &Json::obj(vec![
            ("workload", Json::Str(name.to_string())),
            ("traced", Json::Bool(args.trace)),
            ("seed", Json::Num(args.seed as f64)),
            ("result", result.clone()),
            ("notes", Json::Obj(notes)),
            ("spans", spans.to_json()),
        ]),
    )?;
    if correct {
        println!("{}", result.render());
    }
    Ok(correct)
}

fn machine() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(model.to_string())),
    ])
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))
}

/// Every workload, both passes, each in a fresh process (so that peak
/// memory and warm caches are the pass's own), merged into
/// `results.json` and `trace.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut results = Vec::new();
    let mut traces = Vec::new();
    for workload in &WORKLOADS {
        let mut merged = Vec::new();
        for trace in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("spawn pass: {e}"))?;
            all_correct &= status.success();
            let path = pass_file(workload.name, trace);
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            let pass = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let metrics = pass.get("result").and_then(|r| r.get("metrics"));
            merged.extend(metrics.and_then(Json::as_obj).unwrap_or_default().to_vec());
            traces.push(pass);
        }
        results.push((workload.name.to_string(), Json::Obj(merged)));
    }
    write(
        &format!("{OUT_DIR}/results.json"),
        &Json::obj(vec![
            ("seed", Json::Num(args.seed as f64)),
            ("machine", machine()),
            ("correct", Json::Bool(all_correct)),
            ("workloads", Json::Obj(results)),
        ]),
    )?;
    write(&format!("{OUT_DIR}/trace.json"), &Json::Arr(traces))?;
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--setup-probe") => {
            let name = argv.get(1).ok_or("--setup-probe needs a workload")?;
            let workload = workloads::find(name).ok_or(format!("unknown workload {name:?}"))?;
            let report = cluster::run_experiment(&workload.setup_config());
            return Ok(report.audit.total_violations == 0);
        }
        Some("--compare") => {
            let (a, b) = match &argv[1..] {
                [a, b] => (a, b),
                _ => return Err("--compare takes two result files".to_string()),
            };
            return compare::run(a, b);
        }
        _ => {}
    }
    let args = parse_args(&argv)?;

    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    metrics::check_schema(&json::parse(&text)?)?;

    match &args.workload {
        Some(name) => {
            let workload = workloads::find(name).ok_or(format!("unknown workload {name:?}"))?;
            run_pass(workload, &args)
        }
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "repo-benchmark: an output check failed; no metric of this run is to be trusted"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("repo-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
