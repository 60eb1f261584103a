//! `trend` — consolidate `BENCH_*.json` summaries and fixed-seed campaign
//! outcome counts into `TREND.json`, and gate the current numbers against
//! the checked-in baseline. See the `ptaint_bench` crate docs for the
//! comparison rules (exact campaign counts, tolerance-banded throughput).
//!
//! ```text
//! trend print          write the fresh collection to stdout
//! trend write          refresh TREND.json at the repository root
//! trend check          compare a fresh collection against TREND.json;
//!                      exit 1 on any violation, 2 on usage/baseline errors
//! ```
//!
//! `TREND_TOLERANCE=0.4` overrides the default throughput tolerance band;
//! a value that is not a number in `[0, 1)` is a usage error. The mode,
//! the tolerance and the baseline are all checked before the (slow)
//! collection runs.

use std::path::Path;
use std::process::ExitCode;

use ptaint_bench::{check_trend, collect_trend, render_trend, Value, DEFAULT_TOLERANCE};

/// What to do with the fresh collection.
enum Mode {
    Print,
    Write,
    Check { baseline: Value, tolerance: f64 },
}

/// Parses the mode argument, and for `check` the tolerance and the
/// baseline at `baseline_path`; the error is the message for exit 2.
fn mode(arg: &str, baseline_path: &Path) -> Result<Mode, String> {
    match arg {
        "print" => Ok(Mode::Print),
        "write" => Ok(Mode::Write),
        "check" => {
            let tolerance = match std::env::var_os("TREND_TOLERANCE") {
                None => DEFAULT_TOLERANCE,
                Some(t) => t
                    .to_string_lossy()
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..1.0).contains(t))
                    .ok_or_else(|| {
                        format!(
                            "bad TREND_TOLERANCE `{}` (expected a number in [0, 1))",
                            t.to_string_lossy()
                        )
                    })?,
            };
            let text = std::fs::read_to_string(baseline_path).map_err(|e| {
                format!(
                    "cannot read baseline {}: {e} (run `trend write` first)",
                    baseline_path.display()
                )
            })?;
            let baseline = Value::parse(&text)
                .map_err(|e| format!("baseline {} is not JSON: {e}", baseline_path.display()))?;
            Ok(Mode::Check {
                baseline,
                tolerance,
            })
        }
        other => Err(format!(
            "unknown mode `{other}` (expected print | write | check)"
        )),
    }
}

fn main() -> ExitCode {
    let root = ptaint_bench::repo_root();
    let baseline_path = root.join("TREND.json");
    let arg = std::env::args().nth(1).unwrap_or_else(|| "print".into());
    let mode = match mode(&arg, &baseline_path) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("trend: {e}");
            return ExitCode::from(2);
        }
    };

    let mut notes = Vec::new();
    let current = collect_trend(&root, &mut notes);
    for note in &notes {
        eprintln!("trend: note: {note}");
    }

    match mode {
        Mode::Print => {
            print!("{}", render_trend(&current));
            ExitCode::SUCCESS
        }
        Mode::Write => {
            if let Err(e) = std::fs::write(&baseline_path, render_trend(&current)) {
                eprintln!("trend: cannot write {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
            println!("trend: wrote {}", baseline_path.display());
            ExitCode::SUCCESS
        }
        Mode::Check {
            baseline,
            tolerance,
        } => {
            let gate = check_trend(&baseline, &current, tolerance);
            for skip in &gate.skipped {
                println!("trend: skipped: {skip}");
            }
            for violation in &gate.violations {
                println!("trend: FAIL: {violation}");
            }
            println!(
                "trend: {} values checked, {} skipped, {} violations (tolerance {tolerance})",
                gate.checked,
                gate.skipped.len(),
                gate.violations.len()
            );
            if gate.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
