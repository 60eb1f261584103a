//! Fault-injection campaign throughput: trials/sec for a full deterministic
//! campaign (baseline + seeded faulted trials across every `FaultKind`) on
//! two workloads — the synthetic Experiment 1 stack smash and the ghttpd
//! log-handler attack. Every trial forks copy-on-write from one post-boot
//! snapshot.
//!
//! Two configurations are summarized:
//!
//! * **plain** (`*_forked_trials_per_sec`) — the default machine.
//! * **elided** (`*_elided_forked_trials_per_sec`) — the paper
//!   configuration with `--elide-checks`. A machine runs the whole-program
//!   static taint analysis once, on its first elided boot, and every later
//!   boot, fork and clone reuses it; the warmup run pays it, so the series
//!   measures trials (fork plus run), not analysis.
//!
//! Besides the criterion groups, the machine-readable summary is written
//! to `BENCH_campaign.json` at the repository root. Set `BENCH_QUICK=1`
//! to shrink the campaigns for CI smoke runs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ptaint::{CampaignSpec, Machine, ToJson};
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

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
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

/// Trials/sec over several whole-campaign runs, reporting the best (least
/// noise-disturbed) run after one warmup.
fn trials_per_sec(machine: &Machine, spec: &CampaignSpec) -> f64 {
    // Count the unfaulted baseline run along with the faulted trials.
    let runs = machine.run_campaign(spec).records.len() as f64 + 1.0;
    let mut best = f64::MIN;
    for _ in 0..3 {
        let start = Instant::now();
        let report = machine.run_campaign(spec);
        let elapsed = start.elapsed();
        assert_eq!(report.records.len() as f64 + 1.0, runs);
        best = best.max(runs / elapsed.as_secs_f64());
    }
    best
}

fn bench_campaigns(c: &mut Criterion) {
    let spec = CampaignSpec::new(SEED, trials());

    let mut group = c.benchmark_group("campaign");
    // Each campaign runs the unfaulted baseline plus `trials()` faulted runs.
    group.throughput(Throughput::Elements(trials() + 1));
    group.sample_size(10);
    for name in WORKLOADS {
        let forked = build(name);
        group.bench_function(format!("{name}_forked"), |b| {
            b.iter(|| forked.run_campaign(&spec).records.len())
        });
    }
    group.finish();

    // Machine-readable summary for the trend consolidator: the plain
    // configuration, then the elided (paper) one.
    let mut fields = Vec::new();
    let mut lines = Vec::new();
    for (elide, key, label) in [(false, "", "plain"), (true, "_elided", "elided")] {
        for name in WORKLOADS {
            let rate = trials_per_sec(&build(name).elide_checks(elide), &spec);
            fields.push((format!("{name}{key}_forked_trials_per_sec"), rate));
            lines.push(format!("{name} {label} {rate:.0} forked trials/s"));
        }
    }
    // The sharded runner (campaign engine v2) on the elided ghttpd
    // campaign — the workload where per-trial cost is highest. The
    // sequential reference run analyzes the image; every worker's snapshot
    // then reuses that analysis, so the series measures scheduler
    // throughput, and on multi-core hosts the work-stealing shards add
    // core-count scaling on top. Byte-identity with the sequential report
    // is asserted before timing, so the comparison is apples-to-apples by
    // construction.
    {
        let m = build("ghttpd").elide_checks(true);
        let jobs = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        let sequential = m.run_campaign(&spec);
        assert_eq!(
            m.run_campaign_jobs(&spec, jobs).to_json(),
            sequential.to_json(),
            "ghttpd: sharded and sequential campaigns must be byte-identical"
        );
        let runs = sequential.records.len() as f64 + 1.0;
        let mut best = f64::MIN;
        for _ in 0..3 {
            let start = Instant::now();
            let report = m.run_campaign_jobs(&spec, jobs);
            assert_eq!(report.records.len() as f64 + 1.0, runs);
            best = best.max(runs / start.elapsed().as_secs_f64());
        }
        fields.push(("campaign_sharded_trials_per_sec".to_owned(), best));
        lines.push(format!("ghttpd elided sharded -j{jobs} {best:.0} trials/s"));
    }
    let mut json = format!("{{\"bench\":\"campaign\",\"trials\":{}", trials());
    for (field, rate) in &fields {
        if *rate >= 100.0 {
            json.push_str(&format!(",\"{field}\":{rate:.0}"));
        } else {
            json.push_str(&format!(",\"{field}\":{rate:.2}"));
        }
    }
    json.push_str(&format!(",\"quick\":{}}}\n", quick()));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, &json).expect("writes BENCH_campaign.json");
    println!(
        "campaign: {} faulted trials/campaign; {} -> {path}",
        trials(),
        lines.join("; ")
    );
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
