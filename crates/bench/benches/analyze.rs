//! Static-analysis throughput: cold fixpoint runs on the two guests the
//! trend gate tracks (Experiment 1 and ghttpd) — the full interprocedural
//! summary fixpoint (`ptaint::analyze`).
//!
//! The machine-readable summary is written to `BENCH_analyze.json` at the
//! repository root (`*_cold_analyses_per_sec` is tolerance-banded by the
//! trend gate). Set `BENCH_QUICK=1` to shrink iteration counts for CI
//! smoke runs.

use std::fmt::Write as _;

use ptaint::Image;
use ptaint_bench::{best_per_sec, quick, repo_root};
use ptaint_guest::apps::{ghttpd, synthetic};

/// Timed repetitions per measurement (after one warmup), best-of.
fn reps() -> u32 {
    if quick() {
        2
    } else {
        5
    }
}

fn guests() -> Vec<(&'static str, Image)> {
    vec![
        (
            "exp1",
            ptaint_guest::build(synthetic::EXP1_SOURCE).expect("exp1 builds"),
        ),
        (
            "ghttpd",
            ptaint_guest::build(ghttpd::SOURCE).expect("ghttpd builds"),
        ),
    ]
}

fn main() {
    let mut json = String::from("{\"bench\":\"analyze\"");
    let mut summary = String::new();
    for (name, image) in guests() {
        let proven = ptaint::analyze(&image).proven.len();
        let (_, cold) = best_per_sec(reps(), || {
            let _ = ptaint::analyze(&image);
            1
        });
        let _ = write!(
            json,
            ",\"{name}_proven_sites\":{proven},\"{name}_cold_analyses_per_sec\":{cold:.2}",
        );
        let _ = write!(summary, "{name}: {proven} proven; cold {cold:.2}/s  ");
    }

    let _ = write!(json, ",\"quick\":{}}}", quick());
    json.push('\n');
    let path = repo_root().join("BENCH_analyze.json");
    std::fs::write(&path, &json).expect("writes BENCH_analyze.json");
    println!("analyze: {summary}-> {}", path.display());
}
