//! Static-analysis throughput: cold fixpoint runs on the two guests the
//! trend gate tracks (Experiment 1 and ghttpd) and on null_httpd, the
//! slowest guest to analyze — the full interprocedural summary fixpoint
//! (`ptaint::analyze`).
//!
//! Each guest reports two rows from the same timed runs:
//!
//! * `*_cold_analyses_per_sec` — the best run, tolerance-banded by the
//!   trend gate;
//! * `*_cold_analysis_ms_median` — the median run in milliseconds. Best-of
//!   swings up to 1.6x between runs on a shared host; the median is the
//!   row to compare across commits.
//!
//! The machine-readable summary is written to `BENCH_analyze.json` at the
//! repository root. Set `BENCH_QUICK=1` to shrink iteration counts for CI
//! smoke runs.

use std::fmt::Write as _;

use ptaint::Image;
use ptaint_bench::{best, median, per_sec_samples, quick, repo_root};
use ptaint_guest::apps::{ghttpd, null_httpd, synthetic};

/// Timed repetitions per measurement (after one warmup).
fn reps() -> u32 {
    if quick() {
        2
    } else {
        11
    }
}

fn guests() -> Vec<(&'static str, Image)> {
    [
        ("exp1", synthetic::EXP1_SOURCE),
        ("ghttpd", ghttpd::SOURCE),
        ("null_httpd", null_httpd::SOURCE),
    ]
    .into_iter()
    .map(|(name, source)| (name, ptaint_guest::build(source).expect("guest builds")))
    .collect()
}

fn main() {
    let mut json = String::from("{\"bench\":\"analyze\"");
    let mut summary = String::new();
    for (name, image) in guests() {
        let proven = ptaint::analyze(&image).proven.len();
        let (_, rates) = per_sec_samples(reps(), || {
            let _ = ptaint::analyze(&image);
            1
        });
        let cold = best(&rates);
        let median_ms = median(rates.iter().map(|r| 1e3 / r).collect());
        let _ = write!(
            json,
            ",\"{name}_proven_sites\":{proven},\"{name}_cold_analyses_per_sec\":{cold:.2},\
             \"{name}_cold_analysis_ms_median\":{median_ms:.2}",
        );
        let _ = write!(
            summary,
            "{name}: {proven} proven; cold {cold:.2}/s, median {median_ms:.2} ms  "
        );
    }

    let _ = write!(json, ",\"quick\":{}}}", quick());
    json.push('\n');
    let path = repo_root().join("BENCH_analyze.json");
    std::fs::write(&path, &json).expect("writes BENCH_analyze.json");
    println!("analyze: {summary}-> {}", path.display());
}
