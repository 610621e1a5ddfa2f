//! Runs the complete evaluation (Figures 3–8, Tables 1–6) and writes a
//! markdown-ready report to `--out <path>` (default: stdout only).
use bench::render::*;
use bench::report::{out_path_from_args, write_file_or_die};
use bench::{
    dependability_grid, fig3_speedup, fig4_scaleup, fig6_recovery_times, Console, JsonReport, Mode,
};
use faultload::Faultload;
use tpcw::Profile;

fn main() {
    let con = Console::from_args();
    let mode = Mode::from_args();
    let mut json = JsonReport::new("exp_all", mode);
    let out_path = out_path_from_args();
    let mut report = String::new();
    let mut emit = |s: String| {
        con.say(&s);
        report.push_str(&s);
        report.push('\n');
    };

    emit(format!("mode: {mode:?}\n"));
    emit("== Figure 3: speedup ==".into());
    for profile in Profile::ALL {
        let points = fig3_speedup(mode, profile);
        for p in &points {
            json.push_raw(
                &format!("fig3 {profile:?} {}r", p.replicas),
                &[
                    ("replicas", p.replicas as f64),
                    ("wips", p.wips),
                    ("wirt_ms", p.wirt_ms),
                ],
            );
        }
        emit(render_speedup(profile, &points));
    }
    emit("== Figure 4: scaleup ==".into());
    for profile in Profile::ALL {
        let result = fig4_scaleup(mode, profile);
        emit(render_scaleup(profile, &result));
    }
    emit("== One crash (Fig 5, Tables 1-2) ==".into());
    let runs = dependability_grid(mode, &Faultload::single_crash());
    for run in &runs {
        json.push(
            &format!("one-crash {}r {:?}", run.replicas, run.profile),
            &run.report,
        );
    }
    for run in runs.iter().filter(|r| r.replicas == 5) {
        emit(render_fault_histogram(run));
    }
    emit(render_performability(
        "Table 1 — one failure: performability",
        &runs,
    ));
    emit(render_accuracy(
        "Table 2 — one failure: accuracy (%)",
        &runs,
    ));
    emit(render_autonomy("One failure: availability/autonomy", &runs));

    emit("== Recovery times (Fig 6) ==".into());
    emit(render_recovery_times(&fig6_recovery_times(mode)));

    emit("== Two overlapped crashes (Fig 7, Tables 3-4) ==".into());
    let runs = dependability_grid(mode, &Faultload::double_crash());
    for run in &runs {
        json.push(
            &format!("two-crashes {}r {:?}", run.replicas, run.profile),
            &run.report,
        );
    }
    for run in runs.iter().filter(|r| r.replicas == 5) {
        emit(render_fault_histogram(run));
    }
    emit(render_performability(
        "Table 3 — two overlapped crashes: performability",
        &runs,
    ));
    emit(render_accuracy(
        "Table 4 — two overlapped crashes: accuracy (%)",
        &runs,
    ));
    emit(render_autonomy("Two crashes: availability/autonomy", &runs));

    emit("== Delayed recovery (Fig 8, Tables 5-6) ==".into());
    let runs = dependability_grid(mode, &Faultload::double_crash_delayed());
    for run in &runs {
        json.push(
            &format!("delayed-recovery {}r {:?}", run.replicas, run.profile),
            &run.report,
        );
    }
    for run in runs.iter().filter(|r| r.replicas == 5) {
        emit(render_fault_histogram(run));
    }
    emit(render_performability_delayed(
        "Table 5 — delayed recovery: performability",
        &runs,
    ));
    emit(render_accuracy(
        "Table 6 — delayed recovery: accuracy (%)",
        &runs,
    ));
    emit(render_autonomy(
        "Delayed recovery: availability/autonomy",
        &runs,
    ));

    json.write_if_requested();
    if let Some(path) = out_path {
        write_file_or_die(&path, &report);
        con.note(format_args!("report written to {}", path.display()));
    }
}
