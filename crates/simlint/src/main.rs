//! CLI driver for simlint.
//!
//! ```text
//! cargo run -p simlint                       # human-readable diagnostics
//! cargo run -p simlint -- --json -           # JSON report to stdout
//! cargo run -p simlint -- --json out.json    # JSON report to a file
//! cargo run -p simlint -- --root DIR         # analyze another tree
//! cargo run -p simlint -- --list-rules       # enumerate rules
//! ```
//!
//! Exit codes: 0 clean, 1 unwaived violations, 2 usage or
//! configuration error, 3 stale waivers/roots only (the code is clean
//! but the allowlist or the `roots` list rotted).

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{diag, report_to_json, rules, workspace};

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: Option<String>,
    quiet: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        json: None,
        quiet: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a path")?),
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?))
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path or `-`")?),
            "--quiet" | "-q" => args.quiet = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: simlint [--root DIR] [--config simlint.toml] \
                            [--json PATH|-] [--quiet] [--list-rules]"
                    .into())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in rules::RULES {
            println!("{:<22} {}", r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("simlint.toml"));
    let waiver_src = match std::fs::read_to_string(&config_path) {
        Ok(s) => s,
        Err(_) if args.config.is_none() => String::new(), // optional by default
        Err(e) => {
            eprintln!("simlint: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };

    let report = match workspace::analyze(&args.root, &waiver_src) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "simlint: {}:{}: {}",
                config_path.display(),
                e.line,
                e.message
            );
            return ExitCode::from(2);
        }
    };

    if let Some(dest) = &args.json {
        let doc = report_to_json(&report);
        if dest == "-" {
            print!("{doc}");
        } else if let Err(e) = std::fs::write(dest, &doc) {
            eprintln!("simlint: cannot write {dest}: {e}");
            return ExitCode::from(2);
        }
    }

    if !args.quiet && args.json.as_deref() != Some("-") {
        for d in &report.errors {
            eprint!("{}", diag::render(d));
            eprintln!();
        }
        for w in &report.stale {
            eprintln!(
                "error[simlint::stale-waiver]: {} ({})",
                w.message, w.declared_at
            );
        }
        eprintln!(
            "simlint: {} files scanned, {} violation(s), {} waived, {} stale waiver(s)/root(s)",
            report.files_scanned,
            report.errors.len(),
            report.waived.len(),
            report.stale.len()
        );
    }

    if report.stale_only() {
        ExitCode::from(3)
    } else if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
