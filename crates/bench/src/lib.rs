#![warn(missing_docs)]

//! # ptaint-bench — benchmark harness and performance-trend gate
//!
//! Of the criterion benches in `benches/`, `engine`, `campaign` and
//! `analyze` each drop a machine-readable `BENCH_*.json` summary at the
//! repository root (`overhead` and `experiments` print only). This
//! library consolidates those
//! summaries — together with fixed-seed fault-injection campaign outcome
//! counts — into a single `TREND.json`, and checks a fresh collection
//! against the checked-in baseline:
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

pub mod json;
pub mod trend;

pub use json::Value;
pub use trend::{
    check_trend, collect_benches, collect_campaigns, collect_trend, render_trend, TrendGate,
    DEFAULT_TOLERANCE, TREND_SEED, TREND_TRIALS,
};
