//! The repository benchmark: three workloads that a user of `ptaint`
//! actually runs, each measured end to end through the public entry
//! points, plus a separate traced run that rebuilds every op from the
//! per-layer public calls of each crate and times them from outside.
//!
//! * [`table3`] — the Table 3 false-positive suite (step loop bound);
//! * [`sessions`] — `ptaint-run <daemon.c> --session FILE --provenance`
//!   on the three CVE daemons, in process (toolchain bound);
//! * [`campaign`] — the elided seed-7 fault campaign on exp1 and ghttpd
//!   (analysis, snapshot/fork and trial bound).
//!
//! See `README.md` beside this crate for the metric definitions, which
//! end-to-end metric each layer metric should move, and the mapping from
//! the legacy `BENCH_*.json` rows.

use std::collections::BTreeMap;
use std::time::Instant;

use ptaint::ExecStats;

pub mod campaign;
pub mod sessions;
pub mod table3;

/// One op's result, from either the untraced or the traced path.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// What the op produced (reports, CLI text, exit codes), compared byte
    /// for byte between the traced and the untraced run.
    pub output: String,
    /// Why the op's correctness check failed, if it did.
    pub failure: Option<String>,
    /// Guest instructions the op retired (exact).
    pub guest_insn: u64,
    /// Guest runs (boot or fork to exit) the op completed.
    pub guest_runs: u64,
}

/// A benchmark workload. Op `i` of a run is the same work on both paths.
pub trait Workload {
    /// Ops in one round: the traced run reports exact counts per round.
    fn round(&self) -> usize;
    /// Runs op `i` through the entry points a user calls.
    fn op(&self, i: usize) -> Op;
    /// Runs op `i` composed from the per-layer public calls that the
    /// untraced path makes, recording one span per call into `spans` and
    /// the wall time of that composed path into `spans.main_ms`. Probe
    /// calls made only to split a layer further are timed outside it.
    fn traced_op(&self, i: usize, spans: &mut Spans) -> Op;
    /// Lines for the traced run's notes, given the per-op median of every
    /// span key (ms).
    fn notes(&self, _medians: &BTreeMap<String, f64>) -> Vec<String> {
        Vec::new()
    }
}

/// Milliseconds spent running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// The per-layer record of one traced op: span totals in milliseconds and
/// exact counts, keyed by per-layer metric name.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Wall time of the composed path that mirrors the untraced op.
    pub main_ms: f64,
    /// Span totals (ms) by layer metric name, plus per-target notes.
    pub ms: BTreeMap<String, f64>,
    /// Exact counts by name.
    pub counts: BTreeMap<String, u64>,
}

/// Count keys kept only to derive ratios; they are not metrics themselves.
pub const DECODE_HITS: &str = "cpu.decode_hits";
/// See [`DECODE_HITS`].
pub const TAINTED_INSN: &str = "cpu.tainted_insn";

impl Spans {
    /// Runs `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let (value, ms) = timed(f);
        self.add(layer, ms);
        value
    }

    /// Adds `ms` to `layer`.
    pub fn add(&mut self, layer: &str, ms: f64) {
        *self.ms.entry(layer.to_owned()).or_default() += ms;
    }

    /// Adds `n` to count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_owned()).or_default() += n;
    }

    /// Adds the exact counters of one guest run.
    pub fn run_stats(&mut self, stats: &ExecStats, tainted_input_bytes: u64) {
        self.count("cpu.guest_insn", stats.instructions);
        self.count(DECODE_HITS, stats.decode_cache_hits);
        self.count("cpu.decode_misses", stats.decode_cache_misses);
        self.count("mem.loads", stats.loads);
        self.count("mem.stores", stats.stores);
        self.count(TAINTED_INSN, stats.tainted_operand_instructions);
        self.count("os.syscalls", stats.syscalls);
        self.count("os.tainted_input_bytes", tainted_input_bytes);
        self.count("cpu.elided_checks", stats.elided_checks);
    }
}

/// Self time of a span: its duration minus the part of it that its
/// (disjoint, sequential) child spans cover.
#[must_use]
pub fn self_time(total_ms: f64, children_ms: &[f64]) -> f64 {
    total_ms - children_ms.iter().sum::<f64>()
}

/// Checks that the traced run reproduced the untraced run's output byte
/// for byte; on a mismatch, names the first differing byte.
///
/// # Errors
///
/// Returns a description of the first difference.
pub fn check_identical(untraced: &str, traced: &str) -> Result<(), String> {
    if untraced == traced {
        return Ok(());
    }
    let at = untraced
        .bytes()
        .zip(traced.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| untraced.len().min(traced.len()));
    let context = |s: &str| {
        let end = (at + 40).min(s.len());
        String::from_utf8_lossy(&s.as_bytes()[at..end]).into_owned()
    };
    Err(format!(
        "traced output differs from untraced at byte {at} (lengths {} vs {}): {:?} vs {:?}",
        untraced.len(),
        traced.len(),
        context(untraced),
        context(traced)
    ))
}

/// Percentile arithmetic for the end-to-end timings.
pub mod stats {
    /// Median (mean of the two middle samples for an even count).
    #[must_use]
    pub fn median(samples: &[f64]) -> Option<f64> {
        let v = sorted(samples);
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` (0 < p <= 100): the smallest sample
    /// with at least `p`% of the samples at or below it.
    #[must_use]
    pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
        let v = sorted(samples);
        (!v.is_empty()).then(|| v[rank(v.len(), p) - 1])
    }

    /// Samples strictly beyond the nearest-rank percentile `p` of `n`.
    #[must_use]
    pub fn samples_beyond(n: usize, p: f64) -> usize {
        if n == 0 {
            0
        } else {
            n - rank(n, p)
        }
    }

    /// The highest of `ladder` that leaves at least `min_beyond` samples
    /// beyond it — the tail percentile a run of `n` samples can report.
    #[must_use]
    pub fn tail_percentile(n: usize, ladder: &[f64], min_beyond: usize) -> Option<f64> {
        ladder
            .iter()
            .copied()
            .filter(|&p| samples_beyond(n, p) >= min_beyond)
            .reduce(f64::max)
    }

    fn rank(n: usize, p: f64) -> usize {
        // The epsilon keeps exact products (0.9 * 100 = 90.000000000001)
        // on their rank.
        let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
        r.clamp(1, n)
    }

    fn sorted(samples: &[f64]) -> Vec<f64> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: the last line the benchmark prints.
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// End-to-end metrics (`--trace 0`), name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("guest_mips", "MIPS"),
    ("guest_runs_per_s", "1/s"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), name and unit, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("cc.compile_ms", "ms"),
    ("asm.assemble_ms", "ms"),
    ("os.load_ms", "ms"),
    ("analyze.cold_ms", "ms"),
    ("core.snapshot_ms", "ms"),
    ("inject.fork_trials", "count"),
    ("inject.fork_trial_ms", "ms"),
    ("inject.reboot_trials", "count"),
    ("inject.reboot_trial_ms", "ms"),
    ("inject.classify_ms", "ms"),
    ("cpu.run_ms", "ms"),
    ("cpu.guest_mips", "MIPS"),
    ("trace.provenance_ms", "ms"),
    ("cli.report_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("cpu.guest_insn", "count"),
    ("cpu.decode_hit_ratio", "ratio"),
    ("cpu.decode_misses", "count"),
    ("mem.loads", "count"),
    ("mem.stores", "count"),
    ("cpu.tainted_operand_ratio", "ratio"),
    ("os.syscalls", "count"),
    ("os.tainted_input_bytes", "count"),
    ("cpu.elided_checks", "count"),
    ("inject.detected", "count"),
    ("inject.missed", "count"),
    ("inject.false_alert", "count"),
    ("inject.benign", "count"),
    ("inject.guest_fault", "count"),
    ("inject.detector_fault", "count"),
    ("inject.watchdog", "count"),
];

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::stats::{median, percentile, samples_beyond, tail_percentile};
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 90.0), None);
        // 13 samples: p90 is rank ceil(11.7) = 12, the second largest.
        let v: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(12.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        let ladder = [90.0, 99.0, 99.9];
        assert_eq!(tail_percentile(13, &ladder, 10), None);
        assert_eq!(tail_percentile(99, &ladder, 10), None);
        assert_eq!(tail_percentile(100, &ladder, 10), Some(90.0));
        assert_eq!(tail_percentile(999, &ladder, 10), Some(90.0));
        assert_eq!(tail_percentile(1000, &ladder, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, &ladder, 10), Some(99.9));
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(10.0, &[2.5, 4.0, 1.5]), 2.0);
        // A campaign whose trials are its only children: the classifier's
        // self time is what is left over.
        let trials = [1.0, 1.25, 120.0, 1.5];
        assert_eq!(self_time(124.0, &trials), 0.25);
    }

    #[test]
    fn spans_accumulate_per_layer() {
        let mut spans = Spans::default();
        spans.add("cpu.run_ms", 1.5);
        spans.add("cpu.run_ms", 2.0);
        spans.count("inject.fork_trials", 2);
        spans.count("inject.fork_trials", 3);
        let v = spans.time("os.load_ms", || 7);
        assert_eq!(v, 7);
        assert_eq!(spans.ms["cpu.run_ms"], 3.5);
        assert!(spans.ms["os.load_ms"] >= 0.0);
        assert_eq!(spans.counts["inject.fork_trials"], 5);
    }

    #[test]
    fn identity_check_names_the_first_difference() {
        assert_eq!(check_identical("same", "same"), Ok(()));
        let err = check_identical("--- outcome: exited 0", "--- outcome: exited 1").unwrap_err();
        assert!(err.contains("byte 20"), "{err}");
        let err = check_identical("abc", "abcd").unwrap_err();
        assert!(
            err.contains("byte 3") && err.contains("lengths 3 vs 4"),
            "{err}"
        );
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "op_ms_p50",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "cpu.guest_insn",
                    value: 7_596_628.0,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"cpu.guest_insn\": {\"value\": 7596628, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            3 + END_TO_END.len() + PER_LAYER.len(),
            "three workloads plus every metric"
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
