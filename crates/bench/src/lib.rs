#![warn(missing_docs)]

//! # ptaint-bench — benchmark harness and performance-trend gate
//!
//! The three benches in `benches/` (`engine`, `campaign`, `analyze`) are
//! plain `harness = false` programs. Each times its series with
//! [`best_per_sec`] and writes one machine-readable `BENCH_*.json`
//! summary at the repository root; `BENCH_QUICK=1` ([`quick`]) shrinks
//! them to CI smoke size. This library consolidates those summaries —
//! together with fixed-seed fault-injection campaign outcome counts —
//! into a single `TREND.json`, and checks a fresh collection against the
//! checked-in baseline:
//!
//! * campaign outcome counts (`detected` / `missed` / …) are compared
//!   **exactly**: the campaigns are deterministic at a fixed seed, so any
//!   drift is a behaviour change, not measurement noise;
//! * `*_per_sec` throughput fields get a tolerance band (`TREND_TOLERANCE`
//!   env var, default [`DEFAULT_TOLERANCE`]): only a regression below
//!   `baseline * (1 - tolerance)` fails, and the comparison is skipped
//!   when the two sides were measured in different modes (`quick` flags
//!   differ).
//!
//! Driven by the `trend` binary:
//!
//! ```text
//! cargo run -p ptaint-bench --bin trend -- print   # collection to stdout
//! cargo run -p ptaint-bench --bin trend -- write   # refresh TREND.json
//! cargo run -p ptaint-bench --bin trend -- check   # gate vs TREND.json
//! ```

use std::time::Instant;

pub mod json;
pub mod trend;

pub use json::Value;
pub use trend::{
    check_trend, collect_benches, collect_campaigns, collect_trend, render_trend, TrendGate,
    DEFAULT_TOLERANCE, TREND_SEED, TREND_TRIALS,
};

/// Whether `BENCH_QUICK` is set: the benches then run smoke-sized series
/// and mark their summary `"quick":true`.
#[must_use]
pub fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// Best-of-`reps` throughput of `f` after one untimed warmup call.
///
/// Each call of `f` does one batch of work and returns how many units it
/// did; every timed batch must match the warmup's count (the benched work
/// is deterministic). Returns that count and the best (least
/// noise-disturbed) units per second.
pub fn best_per_sec(reps: u32, mut f: impl FnMut() -> u64) -> (u64, f64) {
    let units = f();
    let mut best = f64::MIN;
    for _ in 0..reps {
        let start = Instant::now();
        let done = f();
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(
            done, units,
            "a timed batch did different work than the warmup"
        );
        best = best.max(units as f64 / elapsed);
    }
    (units, best)
}
