//! Fault-injection campaign throughput: trials/sec for a full deterministic
//! campaign (baseline + seeded faulted trials across every `FaultKind`) on
//! two workloads — the synthetic Experiment 1 stack smash and the ghttpd
//! log-handler attack. The baseline records a checkpoint ladder as it runs,
//! and every trial forks copy-on-write from the last rung before its fault,
//! so it skips the fault-free prefix the baseline already ran.
//!
//! Two configurations are summarized:
//!
//! * **plain** (`*_forked_trials_per_sec`) — the default machine.
//! * **elided** (`*_elided_forked_trials_per_sec`) — the paper
//!   configuration with `--elide-checks`. A machine runs the whole-program
//!   static taint analysis once, on its first elided boot, and every later
//!   boot, fork and clone reuses it; the warmup run pays it, so the series
//!   measures the ladder and the trials, not analysis.
//!
//! Each of the four rows is the best of five campaign runs; the row with
//! `_median` appended is the median of the same five runs. Best-of swings
//! up to 1.6x between runs on a shared host; the median is the row to
//! compare across commits.
//!
//! Two deterministic rows count what the ladder saves:
//! `exp1_skipped_steps` and `ghttpd_skipped_steps` sum, over the seed-7
//! trials, the step of the rung each trial starts from — the baseline
//! prefix steps the trials did not re-run.
//!
//! Three layer rows time the checkpoints the campaigns fork from, each a
//! median so that a steady cost reads steady:
//!
//! * `ghttpd_fork_ns` — one `MachineSnapshot::fork` plus its drop at the
//!   last rung of ghttpd's ladder, in nanoseconds;
//! * `exp1_ladder_over_plain` and `ghttpd_ladder_over_plain` — the time
//!   `Machine::ladder` takes over a plain run of the same baseline from
//!   the post-boot snapshot, over alternated pairs in one process: what
//!   recording the ladder adds to the baseline.
//!
//! The machine-readable summary is written to `BENCH_campaign.json` at the
//! repository root. Set `BENCH_QUICK=1` to shrink the campaigns for CI
//! smoke runs.

use std::hint::black_box;
use std::time::Instant;

use ptaint::{CampaignSpec, Machine, ToJson};
use ptaint_bench::{best, best_per_sec, median, per_sec_samples, quick, repo_root};
use ptaint_guest::apps::{ghttpd, synthetic};

/// Faulted trials per campaign: full runs average over a broad fault
/// sample; quick mode keeps CI smoke runs under a second.
fn trials() -> u64 {
    if quick() {
        4
    } else {
        32
    }
}

/// Campaign seed: fixed so every run samples the identical fault schedule
/// (the trend gate's seed, so the summary measures the gated campaign).
const SEED: u64 = 7;

/// One campaign workload by name, in the default (plain) configuration.
fn build(name: &str) -> Machine {
    match name {
        "exp1" => Machine::from_c(synthetic::EXP1_SOURCE)
            .expect("exp1 builds")
            .world(synthetic::exp1_attack_world()),
        "ghttpd" => {
            let m = Machine::from_c(ghttpd::SOURCE).expect("ghttpd builds");
            let world = ghttpd::attack_world(m.image());
            m.world(world)
        }
        other => unreachable!("unknown workload {other}"),
    }
}

const WORKLOADS: [&str; 2] = ["exp1", "ghttpd"];

/// Best-of-5 and median-of-5 runs/sec of `machine`'s whole campaign,
/// counting the unfaulted baseline run along with the faulted trials.
fn trials_per_sec(machine: &Machine, spec: &CampaignSpec) -> (f64, f64) {
    let (_, rates) = per_sec_samples(5, || machine.run_campaign(spec).records.len() as u64 + 1);
    (best(&rates), median(rates))
}

/// Baseline prefix steps `machine`'s campaign trials skip: the sum of the
/// step of the rung each trial starts from.
fn skipped_steps(machine: &Machine, spec: &CampaignSpec) -> u64 {
    let (ladder, baseline) = machine.ladder();
    let hints = (baseline.outcome.stats.instructions, baseline.io_calls);
    (0..spec.trials)
        .map(|trial| {
            let fault = spec.fault_for_trial(trial, hints.0, hints.1);
            ladder.rung_for(&fault).step()
        })
        .sum()
}

/// Samples of each checkpoint row: alternated ladder/plain pairs, and
/// timed batches of forks.
fn samples() -> usize {
    if quick() {
        3
    } else {
        31
    }
}

/// Forks (each dropped at once) per timed batch of [`fork_ns`].
const FORKS_PER_BATCH: u32 = 100;

/// Median nanoseconds of one `MachineSnapshot::fork` plus its drop at the
/// last rung of `machine`'s ladder.
fn fork_ns(machine: &Machine) -> f64 {
    let (ladder, _) = machine.ladder();
    let rung = ladder.rungs().last().expect("a ladder holds rung 0");
    let batches = (0..samples())
        .map(|_| {
            let start = Instant::now();
            for _ in 0..FORKS_PER_BATCH {
                drop(black_box(rung.fork()));
            }
            start.elapsed().as_nanos() as f64 / f64::from(FORKS_PER_BATCH)
        })
        .collect();
    median(batches)
}

/// Median over alternated pairs of `Machine::ladder`'s time divided by a
/// plain run of the same baseline from the post-boot snapshot.
fn ladder_over_plain(machine: &Machine) -> f64 {
    let snapshot = machine.snapshot();
    let secs = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let ratios = (0..samples())
        .map(|_| {
            let ladder = secs(&|| drop(black_box(machine.ladder())));
            ladder / secs(&|| drop(black_box(snapshot.run())))
        })
        .collect();
    median(ratios)
}

fn main() {
    let spec = CampaignSpec::new(SEED, trials());
    let mut fields = Vec::new();
    let mut lines = Vec::new();
    let skipped = WORKLOADS.map(|name| (name, skipped_steps(&build(name), &spec)));
    // The plain configuration, then the elided (paper) one.
    for (elide, key, label) in [(false, "", "plain"), (true, "_elided", "elided")] {
        for name in WORKLOADS {
            let (rate, mid) = trials_per_sec(&build(name).elide_checks(elide), &spec);
            fields.push((format!("{name}{key}_forked_trials_per_sec"), rate));
            fields.push((format!("{name}{key}_forked_trials_per_sec_median"), mid));
            lines.push(format!(
                "{name} {label} {rate:.0} forked trials/s (median {mid:.0})"
            ));
        }
    }
    // The sharded runner (campaign engine v2) on the elided ghttpd
    // campaign — the workload where per-trial cost is highest. The
    // sequential reference run analyzes the image, and each timed campaign
    // records one ladder that every worker forks its trials from, so the
    // series measures one ladder plus the trials, with the work-stealing
    // shards adding core-count scaling on multi-core hosts. Byte-identity
    // with the sequential report is asserted on the untimed warmup run, so
    // the comparison is apples-to-apples by construction.
    {
        let m = build("ghttpd").elide_checks(true);
        let jobs = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        let sequential = m.run_campaign(&spec).to_json();
        let mut warmup = true;
        let (_, rate) = best_per_sec(3, || {
            let report = m.run_campaign_jobs(&spec, jobs);
            if std::mem::take(&mut warmup) {
                assert_eq!(
                    report.to_json(),
                    sequential,
                    "ghttpd: sharded and sequential campaigns must be byte-identical"
                );
            }
            report.records.len() as u64 + 1
        });
        fields.push(("campaign_sharded_trials_per_sec".to_owned(), rate));
        lines.push(format!("ghttpd elided sharded -j{jobs} {rate:.0} trials/s"));
    }
    let fork = fork_ns(&build("ghttpd"));
    lines.push(format!("ghttpd last-rung fork {fork:.0} ns"));
    let over_plain = WORKLOADS.map(|name| (name, ladder_over_plain(&build(name))));
    for (name, ratio) in over_plain {
        lines.push(format!("{name} ladder {ratio:.2}x a plain run"));
    }
    let mut json = format!("{{\"bench\":\"campaign\",\"trials\":{}", trials());
    for (field, rate) in &fields {
        if *rate >= 100.0 {
            json.push_str(&format!(",\"{field}\":{rate:.0}"));
        } else {
            json.push_str(&format!(",\"{field}\":{rate:.2}"));
        }
    }
    for (name, steps) in skipped {
        json.push_str(&format!(",\"{name}_skipped_steps\":{steps}"));
        lines.push(format!("{name} trials skip {steps} prefix steps"));
    }
    json.push_str(&format!(",\"ghttpd_fork_ns\":{fork:.0}"));
    for (name, ratio) in over_plain {
        json.push_str(&format!(",\"{name}_ladder_over_plain\":{ratio:.3}"));
    }
    json.push_str(&format!(",\"quick\":{}}}\n", quick()));
    let path = repo_root().join("BENCH_campaign.json");
    std::fs::write(&path, &json).expect("writes BENCH_campaign.json");
    println!(
        "campaign: {} faulted trials/campaign; {} -> {path}",
        trials(),
        lines.join("; "),
        path = path.display()
    );
}
