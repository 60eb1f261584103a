//! `campaign`: one op is `Machine::run_campaign` with `elide_checks(true)`
//! and `CampaignSpec::new(seed, 32)` on exp1 and then ghttpd, the paper
//! configuration, single-threaded (`-j1`, one analysis worker). Static
//! analysis, snapshot/fork and `inject` do most of the work here, and they
//! are absent from both other workloads.

use std::collections::BTreeMap;

use ptaint::{
    CampaignReport, CampaignSpec, DetectionPolicy, FaultKind, HierarchyConfig, Machine,
    OutcomeClass, SplitMix64, ToJson, WorldConfig,
};
use ptaint_guest::apps::{ghttpd, synthetic};

use crate::{self_time, timed, Op, Spans, Workload};

/// Faulted trials per campaign.
pub const TRIALS: u64 = 32;

/// The campaign seed the benchmark runs unless told otherwise.
pub const DEFAULT_SEED: u64 = 7;

/// Seed-7 outcome counts per target, in [`OutcomeClass::ALL`] order:
/// detected, missed, false_alert, benign, guest_fault, detector_fault,
/// watchdog.
pub const PINNED_SEED7: [(&str, [u64; 7]); 2] = [
    ("exp1", [26, 3, 0, 0, 0, 3, 0]),
    ("ghttpd", [16, 16, 0, 0, 0, 0, 0]),
];

/// Per-layer metric name of each outcome class.
const OUTCOME_METRICS: [(OutcomeClass, &str); 7] = [
    (OutcomeClass::Detected, "inject.detected"),
    (OutcomeClass::Missed, "inject.missed"),
    (OutcomeClass::FalseAlert, "inject.false_alert"),
    (OutcomeClass::Benign, "inject.benign"),
    (OutcomeClass::GuestFault, "inject.guest_fault"),
    (OutcomeClass::DetectorFault, "inject.detector_fault"),
    (OutcomeClass::Watchdog, "inject.watchdog"),
];

/// One campaign target and its reference report.
struct Target {
    name: &'static str,
    machine: Machine,
    world: WorldConfig,
    /// The report's JSON from setup: every op must repeat it byte for byte.
    reference: String,
    /// Exact guest instructions over the baseline and every trial.
    guest_insn: u64,
}

/// The campaign workload.
pub struct Campaign {
    targets: Vec<Target>,
    /// Target order within an op, shuffled by the seed.
    order: Vec<usize>,
    spec: CampaignSpec,
}

/// `Machine::run_campaign` taken apart: the snapshot, then
/// `ptaint_inject::run_campaign` with each trial routed as the machine
/// routes it — proof-cache faults reboot through `Machine::run_injected`,
/// everything else forks through `MachineSnapshot`. Spans go to `spans`,
/// under the layer name and again under `<target>:<layer>` for the notes.
/// Returns the report and the wall time of the composed path.
fn composed_campaign(
    name: &str,
    machine: &Machine,
    spec: &CampaignSpec,
    spans: &mut Spans,
) -> (CampaignReport, f64) {
    let add = |spans: &mut Spans, layer: &str, ms: f64| {
        spans.add(layer, ms);
        spans.add(&format!("{name}:{layer}"), ms);
    };
    let (snap, snapshot_ms) = timed(|| machine.snapshot());
    add(spans, "core.snapshot_ms", snapshot_ms);
    let mut trials_ms = 0.0;
    let (report, campaign_ms) = timed(|| {
        ptaint_inject::run_campaign(spec, |fault| {
            const REBOOT: (&str, &str) = ("inject.reboot_trials", "inject.reboot_trial_ms");
            const FORK: (&str, &str) = ("inject.fork_trials", "inject.fork_trial_ms");
            let ((count, layer), (run, ms)) = match fault {
                Some(f) if f.kind == FaultKind::ProofCache => {
                    (REBOOT, timed(|| machine.run_injected(f)))
                }
                Some(f) => (FORK, timed(|| snap.run_injected(f))),
                None => (FORK, timed(|| snap.run())),
            };
            add(spans, layer, ms);
            spans.count(count, 1);
            spans.count(&format!("{name}:{count}"), 1);
            spans.run_stats(&run.outcome.stats, run.outcome.tainted_input_bytes);
            trials_ms += ms;
            run
        })
    });
    add(
        spans,
        "inject.classify_ms",
        self_time(campaign_ms, &[trials_ms]),
    );
    for (class, metric) in OUTCOME_METRICS {
        spans.count(metric, report.count(class));
    }
    (report, snapshot_ms + campaign_ms)
}

/// The correctness check on a fresh report: baseline detected, and at
/// seed 7 the pinned outcome counts.
fn check_report(name: &str, report: &CampaignReport) -> Result<(), String> {
    if !report.baseline_detected {
        return Err(format!("{name}: baseline attack not detected"));
    }
    if report.seed != DEFAULT_SEED {
        return Ok(());
    }
    let counts = OutcomeClass::ALL.map(|c| report.count(c));
    match PINNED_SEED7.iter().find(|(n, _)| *n == name) {
        Some((_, pinned)) if *pinned == counts => Ok(()),
        _ => Err(format!("{name}: seed-7 outcome counts {counts:?}")),
    }
}

impl Campaign {
    /// Builds both targets in the paper configuration and runs each
    /// campaign once through the composed path, checking it and keeping
    /// its report as the reference every op must repeat.
    ///
    /// # Errors
    ///
    /// Fails when a target does not build or its reference campaign
    /// fails the check.
    pub fn setup(seed: u64, campaign_seed: u64) -> Result<Campaign, String> {
        let spec = CampaignSpec::new(campaign_seed, TRIALS);
        let exp1 = Machine::from_c(synthetic::EXP1_SOURCE).map_err(|e| format!("exp1: {e}"))?;
        let ghttpd = Machine::from_c(ghttpd::SOURCE).map_err(|e| format!("ghttpd: {e}"))?;
        let ghttpd_world = ghttpd::attack_world(ghttpd.image());
        let mut targets = Vec::new();
        for (name, machine, world) in [
            ("exp1", exp1, synthetic::exp1_attack_world()),
            ("ghttpd", ghttpd, ghttpd_world),
        ] {
            let machine = machine
                .world(world.clone())
                .elide_checks(true)
                .analysis_jobs(1);
            let mut spans = Spans::default();
            let (report, _) = composed_campaign(name, &machine, &spec, &mut spans);
            check_report(name, &report)?;
            targets.push(Target {
                name,
                machine,
                world,
                reference: report.to_json(),
                guest_insn: spans.counts["cpu.guest_insn"],
            });
        }
        let mut order = vec![0, 1];
        if SplitMix64::new(seed).below(2) == 1 {
            order.reverse();
        }
        Ok(Campaign {
            targets,
            order,
            spec,
        })
    }

    fn op_of(&self, reports: &[(&Target, String)]) -> Op {
        let failure = reports
            .iter()
            .find(|(t, json)| *json != t.reference)
            .map(|(t, _)| format!("{}: report differs from the reference report", t.name));
        Op {
            output: reports.iter().map(|(_, json)| json.as_str()).collect(),
            failure,
            guest_insn: self.targets.iter().map(|t| t.guest_insn).sum(),
            guest_runs: self.targets.len() as u64 * (TRIALS + 1),
        }
    }
}

impl Workload for Campaign {
    fn round(&self) -> usize {
        1
    }

    fn op(&self, _i: usize) -> Op {
        let reports: Vec<(&Target, String)> = self
            .order
            .iter()
            .map(|&t| {
                let target = &self.targets[t];
                (target, target.machine.run_campaign(&self.spec).to_json())
            })
            .collect();
        self.op_of(&reports)
    }

    /// The composed campaign per target; then, outside it, one cold
    /// `Machine::analysis()` and one `ptaint_os::load` per target as
    /// probes.
    fn traced_op(&self, _i: usize, spans: &mut Spans) -> Op {
        let mut reports = Vec::new();
        for &t in &self.order {
            let target = &self.targets[t];
            let (report, ms) = composed_campaign(target.name, &target.machine, &self.spec, spans);
            spans.main_ms += ms;
            reports.push((target, report.to_json()));
        }
        for target in &self.targets {
            let (_, cold_ms) = timed(|| target.machine.analysis());
            spans.add("analyze.cold_ms", cold_ms);
            spans.add(&format!("{}:analyze.cold_ms", target.name), cold_ms);
            let (_, load_ms) = timed(|| {
                ptaint_os::load(
                    target.machine.image(),
                    target.world.clone(),
                    DetectionPolicy::PointerTaintedness,
                    HierarchyConfig::flat(),
                )
            });
            spans.add("os.load_ms", load_ms);
            spans.add(&format!("{}:os.load_ms", target.name), load_ms);
        }
        self.op_of(&reports)
    }

    /// ROADMAP item 1's guess, per target: the reboot trials cost one
    /// cold analysis each, and a plain boot is small against a trial run.
    fn notes(&self, medians: &BTreeMap<String, f64>) -> Vec<String> {
        let get = |k: String| medians.get(&k).copied().unwrap_or(0.0);
        self.targets
            .iter()
            .map(|t| {
                let n = t.name;
                let reboots = get(format!("{n}:inject.reboot_trials"));
                let forks = get(format!("{n}:inject.fork_trials"));
                let cold = get(format!("{n}:analyze.cold_ms"));
                format!(
                    "note: {n}: snapshot {:.2} ms; {reboots} reboot trials {:.2} ms vs \
                     {reboots} x analyze.cold_ms {cold:.2} = {:.2} ms; {forks} fork trials \
                     {:.3} ms each; plain load {:.3} ms; classify {:.3} ms",
                    get(format!("{n}:core.snapshot_ms")),
                    get(format!("{n}:inject.reboot_trial_ms")),
                    reboots * cold,
                    get(format!("{n}:inject.fork_trial_ms")) / forks.max(1.0),
                    get(format!("{n}:os.load_ms")),
                    get(format!("{n}:inject.classify_ms")),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_campaign_reproduces_run_campaign_and_accounts_for_it() {
        let campaign = Campaign::setup(1, DEFAULT_SEED).expect("setup");
        let plain = campaign.op(0);
        let mut spans = Spans::default();
        let traced = campaign.traced_op(0, &mut spans);
        assert_eq!(plain.failure, None);
        assert_eq!(
            crate::check_identical(&plain.output, &traced.output),
            Ok(())
        );
        // Snapshot, trials and classify self time cover the composed path.
        let parts: f64 = [
            "core.snapshot_ms",
            "inject.fork_trial_ms",
            "inject.reboot_trial_ms",
            "inject.classify_ms",
        ]
        .iter()
        .map(|k| spans.ms[*k])
        .sum();
        assert!((parts - spans.main_ms).abs() < 1e-6 * spans.main_ms.max(1.0));
        assert_eq!(spans.counts["inject.reboot_trials"], 4);
        assert_eq!(spans.counts["inject.fork_trials"], 2 * (TRIALS + 1) - 4);
    }
}
