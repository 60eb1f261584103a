//! The campaign runner: N seeded trials, outcome classification, and a
//! byte-identical JSON report.
//!
//! The runner is generic over *how* a trial executes — it only decides what
//! fault each trial carries and how the resulting [`ExitReason`] is
//! classified against the fault-free baseline. `ptaint::Machine` supplies
//! the closure that actually boots a guest and runs it.

use std::sync::atomic::{AtomicU64, Ordering};

use ptaint_os::{ExitReason, RunOutcome};
use ptaint_trace::ToJson;

use crate::fault::{Fault, FaultKind};
use crate::rng::SplitMix64;

/// The dependability classification of one trial, judged against the
/// fault-free baseline of the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Baseline detected the attack and the faulted run still did.
    Detected,
    /// Baseline detected the attack but the faulted run exited cleanly —
    /// the injection defeated the detector (e.g. a taint-loss flip).
    Missed,
    /// The faulted run raised an alert the baseline did not — a spurious
    /// detection (e.g. a taint-gain flip).
    FalseAlert,
    /// Clean workload stayed clean: the fault was absorbed.
    Benign,
    /// The faulted run crashed (guest memory/decode fault, break trap, or a
    /// hardening-caught host panic).
    GuestFault,
    /// The faulted run crashed under a fault that targeted the *detection
    /// machinery* (shadow taint, decode cache, static proofs) rather than
    /// the guest — "detector corrupted", as opposed to "guest corrupted".
    DetectorFault,
    /// The faulted run hung: step budget or wall-clock watchdog expired.
    Watchdog,
}

impl OutcomeClass {
    /// All classes, in report order.
    pub const ALL: [OutcomeClass; 7] = [
        OutcomeClass::Detected,
        OutcomeClass::Missed,
        OutcomeClass::FalseAlert,
        OutcomeClass::Benign,
        OutcomeClass::GuestFault,
        OutcomeClass::DetectorFault,
        OutcomeClass::Watchdog,
    ];

    /// Machine-readable class name (report keys).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            OutcomeClass::Detected => "detected",
            OutcomeClass::Missed => "missed",
            OutcomeClass::FalseAlert => "false_alert",
            OutcomeClass::Benign => "benign",
            OutcomeClass::GuestFault => "guest_fault",
            OutcomeClass::DetectorFault => "detector_fault",
            OutcomeClass::Watchdog => "watchdog",
        }
    }
}

/// Classifies a faulted run's exit against the baseline's verdict.
///
/// The deliberate asymmetry: when the baseline detects the attack, a clean
/// exit under injection is **never** reported as benign — it is a missed
/// detection, the severity the campaign exists to measure.
#[must_use]
pub fn classify(reason: &ExitReason, baseline_detected: bool) -> OutcomeClass {
    match reason {
        ExitReason::Security(_) => {
            if baseline_detected {
                OutcomeClass::Detected
            } else {
                OutcomeClass::FalseAlert
            }
        }
        ExitReason::Exited(_) => {
            if baseline_detected {
                OutcomeClass::Missed
            } else {
                OutcomeClass::Benign
            }
        }
        ExitReason::StepLimit | ExitReason::Watchdog => OutcomeClass::Watchdog,
        ExitReason::MemFault(_)
        | ExitReason::DecodeFault(_)
        | ExitReason::BreakTrap(_)
        | ExitReason::GuestFault(_)
        | ExitReason::ReplayDivergence(_) => OutcomeClass::GuestFault,
    }
}

/// [`classify`], widened by the fault vocabulary: a crash under a fault
/// kind that [`FaultKind::targets_detector`] is a *detector* corruption
/// ([`OutcomeClass::DetectorFault`]), not a guest one. Detection verdicts
/// (detected / missed / false-alert / benign) are unaffected — those
/// measure the detector's answer, not who crashed.
#[must_use]
pub fn classify_fault(
    reason: &ExitReason,
    baseline_detected: bool,
    kind: FaultKind,
) -> OutcomeClass {
    let class = classify(reason, baseline_detected);
    if class == OutcomeClass::GuestFault && kind.targets_detector() {
        OutcomeClass::DetectorFault
    } else {
        class
    }
}

/// What a campaign sweeps: the seed, the trial count, and the admissible
/// fault kinds.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Master seed; every trial's fault derives deterministically from it.
    pub seed: u64,
    /// Number of faulted trials (the baseline run is extra).
    pub trials: u64,
    /// Fault kinds to sample from, uniformly.
    pub kinds: Vec<FaultKind>,
}

impl CampaignSpec {
    /// A spec over every fault kind.
    #[must_use]
    pub fn new(seed: u64, trials: u64) -> CampaignSpec {
        CampaignSpec {
            seed,
            trials,
            kinds: FaultKind::ALL.to_vec(),
        }
    }

    /// Restricts the sampled kinds (builder). Empty input is ignored.
    #[must_use]
    pub fn kinds(mut self, kinds: Vec<FaultKind>) -> CampaignSpec {
        if !kinds.is_empty() {
            self.kinds = kinds;
        }
        self
    }

    /// The fault for trial `trial`, placed using the baseline run's shape:
    /// `step_hint` (instructions executed) bounds step triggers, `io_hint`
    /// (taint-delivering calls) bounds I/O call targeting.
    #[must_use]
    pub fn fault_for_trial(&self, trial: u64, step_hint: u64, io_hint: u64) -> Fault {
        // Decorrelate per-trial streams with the golden-ratio stride also
        // used inside SplitMix64, so trial N+1 isn't one step of trial N.
        let stream = self.seed ^ (trial + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = SplitMix64::new(stream);
        let kind = self.kinds[rng.below(self.kinds.len() as u64) as usize];
        Fault {
            kind,
            io_call: rng.below(io_hint.max(1)),
            step: rng.below(step_hint.max(1)),
            salt: rng.next_u64(),
        }
    }
}

/// One trial's result, as handed back by the execution closure.
#[derive(Debug, PartialEq, Eq)]
pub struct TrialRun {
    /// The run's full outcome.
    pub outcome: RunOutcome,
    /// Taint-delivering I/O calls the kernel serviced during the run.
    pub io_calls: u64,
    /// State-injector detail, when a state fault actually landed.
    pub applied: Option<String>,
}

/// One classified trial in the report.
#[derive(Debug)]
pub struct TrialRecord {
    /// 0-based trial index.
    pub trial: u64,
    /// The scheduled fault.
    pub fault: Fault,
    /// Why the run stopped.
    pub reason: ExitReason,
    /// The classification against the baseline.
    pub class: OutcomeClass,
    /// Whether the fault demonstrably landed (I/O faults always land if the
    /// targeted call happens; state faults may find no eligible target).
    pub applied: Option<String>,
}

/// The campaign's aggregate result. `ToJson` output is byte-identical for
/// identical (spec, workload) pairs: it contains no wall-clock values and
/// no per-run statistics that a watchdog could truncate nondeterministically.
#[derive(Debug)]
pub struct CampaignReport {
    /// The sweep parameters.
    pub seed: u64,
    /// Faulted trial count.
    pub trials: u64,
    /// Kinds that were admissible.
    pub kinds: Vec<FaultKind>,
    /// Did the fault-free baseline detect an attack?
    pub baseline_detected: bool,
    /// The baseline's exit reason.
    pub baseline_reason: ExitReason,
    /// Taint-delivering calls the baseline serviced (the `io_call` bound).
    pub baseline_io_calls: u64,
    /// Every classified trial, in trial order.
    pub records: Vec<TrialRecord>,
}

impl CampaignReport {
    /// Trials classified as `class`.
    #[must_use]
    pub fn count(&self, class: OutcomeClass) -> u64 {
        self.records.iter().filter(|r| r.class == class).count() as u64
    }
}

impl ToJson for CampaignReport {
    fn to_json(&self) -> String {
        let kinds = self
            .kinds
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect::<Vec<_>>()
            .join(",");
        let counts = OutcomeClass::ALL
            .iter()
            .map(|&c| format!("\"{}\":{}", c.name(), self.count(c)))
            .collect::<Vec<_>>()
            .join(",");
        let records = self
            .records
            .iter()
            .map(|r| {
                let applied = match &r.applied {
                    Some(detail) => ptaint_trace::json::escape(detail),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"trial\":{},\"fault\":{},\"reason\":{},\"class\":\"{}\",\"applied\":{}}}",
                    r.trial,
                    r.fault.to_json(),
                    r.reason.to_json(),
                    r.class.name(),
                    applied
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"seed\":{},\"trials\":{},\"kinds\":[{}],\
             \"baseline\":{{\"detected\":{},\"reason\":{},\"io_calls\":{}}},\
             \"counts\":{{{}}},\"records\":[{}]}}",
            self.seed,
            self.trials,
            kinds,
            self.baseline_detected,
            self.baseline_reason.to_json(),
            self.baseline_io_calls,
            counts,
            records
        )
    }
}

/// Sweeps `spec.trials` faulted runs of one workload.
///
/// `run_trial` executes the workload — fault-free when given `None` (the
/// baseline, run first), or under the given fault. The baseline's shape
/// (instructions executed, I/O calls serviced) bounds where later faults
/// are placed, so campaigns adapt to the workload without configuration.
pub fn run_campaign<F>(spec: &CampaignSpec, mut run_trial: F) -> CampaignReport
where
    F: FnMut(Option<&Fault>) -> TrialRun,
{
    let baseline = Baseline(run_trial(None));
    let records = baseline.take_trials(spec, &AtomicU64::new(0), |fault| run_trial(Some(fault)));
    baseline.report(spec, records)
}

/// [`run_campaign`], sharded across `jobs` worker threads with a
/// deterministic merge.
///
/// The caller runs the `baseline` first (its shape bounds fault placement,
/// exactly as in the sequential runner). The calling thread and `jobs - 1`
/// spawned workers then *steal* trial indices from a shared atomic counter
/// — each trial's fault derives from the spec and the trial index alone,
/// so any worker can run any trial — and the classified records are
/// reassembled **in trial order**. The report is therefore byte-identical
/// for every `jobs` value, including `jobs == 1` (which spawns nothing);
/// the CI `cmp` gate pins `-j1` vs `-j2` and `-j4`, the same contract as
/// the analyzer's parallel fixpoint driver.
///
/// Every worker calls the one shared `run_trial`, so it must be `Sync`: a
/// `Machine` passes a closure that forks each trial from its one
/// checkpoint ladder.
pub fn run_campaign_jobs<F>(
    spec: &CampaignSpec,
    jobs: usize,
    baseline: TrialRun,
    run_trial: F,
) -> CampaignReport
where
    F: Fn(&Fault) -> TrialRun + Sync,
{
    let n = jobs.clamp(1, usize::try_from(spec.trials).unwrap_or(usize::MAX).max(1));
    let baseline = Baseline(baseline);
    let next = AtomicU64::new(0);
    let mut records = std::thread::scope(|s| {
        let workers: Vec<_> = (1..n)
            .map(|_| s.spawn(|| baseline.take_trials(spec, &next, &run_trial)))
            .collect();
        let mut records = baseline.take_trials(spec, &next, &run_trial);
        for worker in workers {
            records.extend(worker.join().expect("campaign worker panicked"));
        }
        records
    });
    records.sort_unstable_by_key(|r| r.trial);
    baseline.report(spec, records)
}

/// A campaign's fault-free run: its shape places every trial's fault, and
/// its verdict is what each trial is classified against.
struct Baseline(TrialRun);

impl Baseline {
    /// Runs and classifies trials until `next` passes the last index, each
    /// taking its index from `next`, and returns their records in the
    /// order taken.
    fn take_trials<F>(
        &self,
        spec: &CampaignSpec,
        next: &AtomicU64,
        mut run_trial: F,
    ) -> Vec<TrialRecord>
    where
        F: FnMut(&Fault) -> TrialRun,
    {
        let detected = self.0.outcome.reason.is_detected();
        let (step_hint, io_hint) = (self.0.outcome.stats.instructions, self.0.io_calls);
        let mut records = Vec::new();
        loop {
            let trial = next.fetch_add(1, Ordering::Relaxed);
            if trial >= spec.trials {
                return records;
            }
            let fault = spec.fault_for_trial(trial, step_hint, io_hint);
            let run = run_trial(&fault);
            records.push(TrialRecord {
                trial,
                fault,
                class: classify_fault(&run.outcome.reason, detected, fault.kind),
                reason: run.outcome.reason,
                applied: run.applied,
            });
        }
    }

    fn report(self, spec: &CampaignSpec, records: Vec<TrialRecord>) -> CampaignReport {
        CampaignReport {
            seed: spec.seed,
            trials: spec.trials,
            kinds: spec.kinds.clone(),
            baseline_detected: self.0.outcome.reason.is_detected(),
            baseline_reason: self.0.outcome.reason,
            baseline_io_calls: self.0.io_calls,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_cpu::ExecStats;

    fn outcome(reason: ExitReason) -> RunOutcome {
        RunOutcome {
            reason,
            stats: ExecStats::default(),
            stdout: Vec::new(),
            stderr: Vec::new(),
            transcripts: Vec::new(),
            tainted_input_bytes: 0,
        }
    }

    #[test]
    fn classification_matrix() {
        use OutcomeClass::*;
        let exited = ExitReason::Exited(0);
        assert_eq!(classify(&exited, true), Missed);
        assert_eq!(classify(&exited, false), Benign);
        assert_eq!(classify(&ExitReason::StepLimit, true), Watchdog);
        assert_eq!(classify(&ExitReason::Watchdog, false), Watchdog);
        assert_eq!(
            classify(&ExitReason::GuestFault("x".into()), true),
            GuestFault
        );
        assert_eq!(classify(&ExitReason::DecodeFault(0), false), GuestFault);
    }

    #[test]
    fn detector_targeting_crashes_widen_to_detector_fault() {
        use OutcomeClass::*;
        let crash = ExitReason::MemFault(ptaint_mem::MemFault {
            kind: ptaint_mem::MemFaultKind::Unaligned,
            addr: 1,
        });
        // Guest-level fault kinds keep the old class...
        assert_eq!(classify_fault(&crash, true, FaultKind::DataBit), GuestFault);
        // ...detector-level kinds widen it.
        assert_eq!(
            classify_fault(&crash, true, FaultKind::ProvenFlip),
            DetectorFault
        );
        assert_eq!(
            classify_fault(&crash, false, FaultKind::DecodeSlot),
            DetectorFault
        );
        // Detection verdicts are untouched by the widening.
        let exited = ExitReason::Exited(0);
        assert_eq!(classify_fault(&exited, true, FaultKind::TaintSweep), Missed);
        assert_eq!(
            classify_fault(
                &ExitReason::Security(sample_alert()),
                false,
                FaultKind::TaintSet
            ),
            FalseAlert
        );
        assert_eq!(
            classify_fault(&ExitReason::Watchdog, true, FaultKind::ProofCache),
            Watchdog
        );
    }

    #[test]
    fn sharded_runner_merges_in_trial_order_and_matches_sequential() {
        // A deterministic synthetic runner: the outcome is a pure function
        // of the fault, so sequential and sharded sweeps must agree byte
        // for byte — the tentpole's determinism contract in miniature.
        let spec = CampaignSpec::new(0xfeed_beef, 23);
        let runner = |fault: Option<&Fault>| {
            let reason = match fault {
                None => ExitReason::Security(sample_alert()),
                Some(f) if f.salt % 3 == 0 => ExitReason::Exited(0),
                Some(f) if f.salt % 3 == 1 => ExitReason::Security(sample_alert()),
                Some(_) => ExitReason::StepLimit,
            };
            TrialRun {
                outcome: outcome(reason),
                io_calls: 2,
                applied: fault.map(|f| format!("salt {}", f.salt)),
            }
        };
        let sequential = run_campaign(&spec, runner);
        let json = sequential.to_json();
        for jobs in [1, 2, 4, 7, 64] {
            let sharded = run_campaign_jobs(&spec, jobs, runner(None), |f| runner(Some(f)));
            assert_eq!(sharded.to_json(), json, "jobs={jobs}");
        }
        // Records really are in trial order.
        for (i, rec) in sequential.records.iter().enumerate() {
            assert_eq!(rec.trial, i as u64);
        }
    }

    #[test]
    fn sharded_runner_allocates_nothing_per_scheduled_trial() {
        // A trial count no host could hold slots for: the sharded runner
        // must start running trials (records grow as they are taken)
        // rather than reserve room for all of them up front. The runner
        // panics past a small bound so the sweep ends.
        const BOUND: u64 = 8;
        let ran = AtomicU64::new(0);
        let runner = |_: Option<&Fault>| {
            let n = ran.fetch_add(1, Ordering::Relaxed);
            assert!(n < BOUND, "trial bound reached");
            TrialRun {
                outcome: outcome(ExitReason::Exited(0)),
                io_calls: 1,
                applied: None,
            }
        };
        let spec = CampaignSpec::new(1, u64::MAX);
        let swept = std::panic::catch_unwind(|| {
            run_campaign_jobs(&spec, 2, runner(None), |f| runner(Some(f)))
        });
        assert!(swept.is_err(), "the bounded runner ends the sweep");
        assert!(
            ran.load(Ordering::Relaxed) >= BOUND,
            "trials ran before the sweep ended"
        );
    }

    #[test]
    fn fault_schedule_is_deterministic_and_bounded() {
        let spec = CampaignSpec::new(0xabc, 16);
        for trial in 0..16 {
            let a = spec.fault_for_trial(trial, 1000, 4);
            let b = spec.fault_for_trial(trial, 1000, 4);
            assert_eq!(a, b);
            assert!(a.step < 1000);
            assert!(a.io_call < 4);
        }
        // Zero hints must not divide by zero.
        let f = spec.fault_for_trial(0, 0, 0);
        assert_eq!(f.step, 0);
        assert_eq!(f.io_call, 0);
    }

    #[test]
    fn kinds_builder_filters_sampling() {
        let spec = CampaignSpec::new(1, 32).kinds(vec![FaultKind::TaintClear]);
        for trial in 0..32 {
            assert_eq!(
                spec.fault_for_trial(trial, 100, 1).kind,
                FaultKind::TaintClear
            );
        }
        // Empty restriction is ignored, not a panic.
        let spec = CampaignSpec::new(1, 1).kinds(Vec::new());
        assert_eq!(spec.kinds.len(), FaultKind::ALL.len());
    }

    #[test]
    fn report_json_counts_and_classes() {
        let spec = CampaignSpec::new(7, 2).kinds(vec![FaultKind::TaintClear]);
        let mut calls = 0u32;
        let report = run_campaign(&spec, |fault| {
            calls += 1;
            let reason = match fault {
                None => ExitReason::Security(sample_alert()),
                Some(_) => ExitReason::Exited(0),
            };
            TrialRun {
                outcome: outcome(reason),
                io_calls: 3,
                applied: fault.map(|_| "taint cleared".to_string()),
            }
        });
        assert_eq!(calls, 3); // baseline + 2 trials
        assert!(report.baseline_detected);
        assert_eq!(report.count(OutcomeClass::Missed), 2);
        let json = report.to_json();
        assert!(json.contains("\"missed\":2"));
        assert!(json.contains("\"baseline\":{\"detected\":true"));
        assert!(json.contains("\"applied\":\"taint cleared\""));
        // Byte-identical on re-run.
        let again = run_campaign(&spec, |fault| TrialRun {
            outcome: outcome(match fault {
                None => ExitReason::Security(sample_alert()),
                Some(_) => ExitReason::Exited(0),
            }),
            io_calls: 3,
            applied: fault.map(|_| "taint cleared".to_string()),
        });
        assert_eq!(json, again.to_json());
    }

    fn sample_alert() -> ptaint_cpu::SecurityAlert {
        ptaint_cpu::SecurityAlert {
            pc: 0x40_0000,
            instr: ptaint_isa::Instr::Syscall,
            kind: ptaint_cpu::AlertKind::DataPointer,
            pointer_reg: ptaint_isa::Reg::T0,
            pointer: 0xdead_beef,
            taint: ptaint_mem::WordTaint::ALL,
        }
    }
}
