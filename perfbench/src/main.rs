//! `perfbench --workload table3|sessions|campaign --seed N --seconds S
//! --trace 0|1 [--campaign-seed N] [--work-dir DIR]`
//!
//! Sets the workload up several times (reporting the median set-up time),
//! then runs ops for `--seconds` and prints a summary followed by one JSON
//! result line. With `--trace 1` it alternates untraced ops with traced
//! ops instead and reports the per-layer metrics. Run it through `run.py`,
//! which builds it first.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ptaint_perfbench::campaign::{self, Campaign};
use ptaint_perfbench::sessions::Sessions;
use ptaint_perfbench::stats::{median, percentile, samples_beyond, tail_percentile};
use ptaint_perfbench::table3::Table3;
use ptaint_perfbench::{
    check_identical, peak_rss_mb, result_line, timed, Metric, Spans, Workload, DECODE_HITS,
    END_TO_END, PER_LAYER, TAINTED_INSN,
};

/// Set-ups per untraced run: at least `MIN`, and more up to `MAX` while
/// they take under `BUDGET_S` in total. The reported `setup_s` is their
/// median, which keeps a cheap set-up's figure steady.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    campaign_seed: u64,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        campaign_seed: campaign::DEFAULT_SEED,
        work_dir: PathBuf::from("target/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--campaign-seed" => args.campaign_seed = value.parse().map_err(|e| bad(&e))?,
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "table3" => Box::new(Table3::setup()?),
        "sessions" => Box::new(Sessions::setup(&args.work_dir, args.seed)?),
        "campaign" => Box::new(Campaign::setup(args.seed, args.campaign_seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (table3|sessions|campaign)"
            ))
        }
    })
}

/// Tally of one run's ops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            // Report the first few failures; the count is in the result.
            if self.failed <= 3 {
                eprintln!("op {} failed: {why}", self.attempted - 1);
            }
        }
    }
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_REPS_MIN
        || (setup_s.len() < SETUP_REPS_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let (w, ms) = timed(|| setup(args));
        workload = Some(w?);
        setup_s.push(ms / 1e3);
    }
    let workload = workload.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut op_ms = Vec::new();
    let (mut guest_insn, mut guest_runs) = (0u64, 0u64);
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < workload.round() || start.elapsed() < deadline {
        let (op, ms) = timed(|| workload.op(i));
        op_ms.push(ms);
        guest_insn += op.guest_insn;
        guest_runs += op.guest_runs;
        tally.record(op.failure);
        i += 1;
    }

    let busy_s = op_ms.iter().sum::<f64>() / 1e3;
    let n = op_ms.len();
    let p90 = percentile(&op_ms, 90.0).expect("at least one op");
    println!(
        "{}: {n} ops in {busy_s:.2} s; op p50 {:.3} ms, p90 {p90:.3} ms ({} of {n} samples beyond p90)",
        args.workload,
        median(&op_ms).expect("at least one op"),
        samples_beyond(n, 90.0),
    );
    match tail_percentile(n, &[90.0, 99.0, 99.9], 10) {
        Some(p) => println!(
            "tail: p{p} = {:.3} ms is the highest percentile with 10+ samples beyond it",
            percentile(&op_ms, p).expect("at least one op")
        ),
        None => {
            println!("tail: under 100 samples, no percentile above the median has 10+ beyond it")
        }
    }
    println!(
        "counts: {guest_insn} guest instructions in {guest_runs} guest runs ({} per op)",
        guest_insn / n as u64
    );
    println!(
        "setup: median of {} set-ups, {:.3}..{:.3} s",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max)
    );

    let values = [
        median(&setup_s).expect("at least one set-up"),
        peak_rss_mb()?,
        n as f64 / busy_s,
        median(&op_ms).expect("at least one op"),
        p90,
        guest_insn as f64 / busy_s / 1e6,
        guest_runs as f64 / busy_s,
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Ok((tally, metrics))
}

/// The traced run: untraced and traced ops alternate, outputs are compared
/// byte for byte, and the spans become per-layer metrics.
fn run_traced(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let workload = setup(args)?;
    let round = workload.round();
    let mut tally = Tally::default();
    let mut traced = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    // Whole rounds only, so every round's exact counts compare.
    while i % round != 0 || i == 0 || start.elapsed() < deadline {
        let (plain, ms) = timed(|| workload.op(i));
        let mut spans = Spans::default();
        let op = workload.traced_op(i, &mut spans);
        untraced_ms += ms;
        traced_ms += spans.main_ms;
        tally.record(
            plain
                .failure
                .or(op.failure)
                .or_else(|| check_identical(&plain.output, &op.output).err()),
        );
        traced.push(spans);
        i += 1;
    }

    // Per round: span totals averaged over the round's ops, counts summed.
    let rounds: Vec<Spans> = traced
        .chunks(round)
        .map(|ops| {
            let mut sum = Spans::default();
            for op in ops {
                for (k, v) in &op.ms {
                    sum.add(k, v / round as f64);
                }
                for (k, &v) in &op.counts {
                    sum.count(k, v);
                }
            }
            sum
        })
        .collect();
    let counts = &rounds[0].counts;
    if let Some(r) = rounds.iter().position(|r| r.counts != *counts) {
        eprintln!("round {r}'s exact counts differ from round 0's");
        tally.failed += 1;
    }
    let keys: std::collections::BTreeSet<&String> =
        rounds.iter().flat_map(|r| r.ms.keys()).collect();
    let mut medians: BTreeMap<String, f64> = keys
        .into_iter()
        .map(|k| {
            let v: Vec<f64> = rounds
                .iter()
                .map(|r| r.ms.get(k).copied().unwrap_or(0.0))
                .collect();
            (k.clone(), median(&v).expect("at least one round"))
        })
        .collect();
    for (k, &v) in counts {
        medians.entry(k.clone()).or_insert(v as f64);
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_ms: f64 = rounds
        .iter()
        .map(|r| r.ms.get("cpu.run_ms").copied().unwrap_or(0.0))
        .sum::<f64>()
        * round as f64;
    let overhead_pct = 100.0 * (traced_ms / untraced_ms - 1.0);

    println!(
        "{}: {} traced ops in {} rounds; composed path {traced_ms:.1} ms vs untraced {untraced_ms:.1} ms ({overhead_pct:+.2}%)",
        args.workload,
        traced.len(),
        rounds.len()
    );
    for line in workload.notes(&medians) {
        println!("{line}");
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "cpu.guest_mips" => {
                    ratio(count("cpu.guest_insn") * rounds.len() as f64, run_ms * 1e3)
                }
                "cpu.decode_hit_ratio" => ratio(
                    count(DECODE_HITS),
                    count(DECODE_HITS) + count("cpu.decode_misses"),
                ),
                "cpu.tainted_operand_ratio" => ratio(count(TAINTED_INSN), count("cpu.guest_insn")),
                "trace.overhead_pct" => overhead_pct,
                _ if unit == "ms" => medians.get(name).copied().unwrap_or(0.0),
                _ => count(name),
            };
            Metric { name, value, unit }
        })
        .collect();
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.trace {
            run_traced(&args)
        } else {
            run_untraced(&args)
        }
    });
    match outcome {
        Ok((tally, metrics)) => {
            println!(
                "{}",
                result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
