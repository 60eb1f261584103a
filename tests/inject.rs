//! Fault-injection campaigns against real guest applications, and the
//! no-panic contract of the hardened run loop: whatever we throw at the
//! stack — corrupted shadow bits, degraded I/O, hostile byte streams —
//! every run must come back as a structured [`RunOutcome`].

use proptest::prelude::*;
use ptaint::{
    CampaignSpec, ExitReason, Fault, FaultKind, Machine, NetSession, OutcomeClass, ToJson,
    WorldConfig,
};
use ptaint_guest::apps::{ghttpd, scenario, suite};

/// The paper's headline attack under taint-bit decay (§6 threat model
/// stress): clearing shadow bits around the tainted `url` pointer defeats
/// detection, and the campaign must *say so*. A trial where the attack
/// runs to a clean exit is a missed detection, never silently "benign".
#[test]
fn ghttpd_attack_taint_clear_campaign_reports_missed_not_benign() {
    let m = Machine::from_scenario(scenario("ghttpd"));
    let spec = CampaignSpec::new(0x9bad_5eed, 24).kinds(vec![FaultKind::TaintClear]);
    let report = m.run_campaign(&spec);

    assert!(report.baseline_detected, "{:?}", report.baseline_reason);
    assert_eq!(report.count(OutcomeClass::Benign), 0);
    for r in &report.records {
        if matches!(r.reason, ExitReason::Exited(_)) {
            assert_eq!(
                r.class,
                OutcomeClass::Missed,
                "trial {}: clean exit of a detected attack must be a miss",
                r.trial
            );
        }
    }
    assert!(
        report.count(OutcomeClass::Missed) >= 1,
        "no taint-clear trial defeated detection: {}",
        report.to_json()
    );
}

/// Same seed, same machine — byte-identical campaign report, on a real
/// network application (not just the unit-test toy programs).
#[test]
fn ghttpd_campaign_report_is_byte_identical_across_runs() {
    let m = Machine::from_scenario(scenario("ghttpd"));
    let spec = CampaignSpec::new(7, 12);
    let a = m.run_campaign(&spec).to_json();
    let b = m.run_campaign(&spec).to_json();
    assert_eq!(a, b);
    // And a different seed explores a different fault set.
    let c = m.run_campaign(&CampaignSpec::new(8, 12)).to_json();
    assert_ne!(a, c);
}

/// A full-vocabulary campaign over the synthetic exp1 stack smash: every
/// trial lands in exactly one class, counts reconcile, and the detected
/// baseline means no trial may be classified benign.
#[test]
fn exp1_campaign_classes_partition_the_trials() {
    let m = Machine::from_scenario(scenario("exp1"));
    let spec = CampaignSpec::new(3, 32);
    let report = m.run_campaign(&spec);

    assert!(report.baseline_detected);
    assert_eq!(report.count(OutcomeClass::Benign), 0);
    let total: u64 = OutcomeClass::ALL.iter().map(|&c| report.count(c)).sum();
    assert_eq!(total, spec.trials);
    assert_eq!(report.records.len() as u64, spec.trials);
    // Detection survives at least some injections (the plan spreads faults
    // over the whole run, most of which land far from the attack window).
    assert!(
        report.count(OutcomeClass::Detected) >= 1,
        "{}",
        report.to_json()
    );
}

/// On a benign workload nothing can be "missed": a taint-gain injection
/// either stays benign or surfaces as a false alert, and I/O degradation
/// may at worst crash the guest.
#[test]
fn benign_workload_campaign_never_reports_missed_or_detected() {
    let m = Machine::from_c(ghttpd::SOURCE)
        .unwrap()
        .world(ghttpd::benign_world());
    let report = m.run_campaign(&CampaignSpec::new(11, 16));
    assert!(!report.baseline_detected);
    assert_eq!(report.count(OutcomeClass::Missed), 0);
    assert_eq!(report.count(OutcomeClass::Detected), 0);
}

/// An injected ProvenClean-bitmap flip must never turn into a silent wrong
/// elision: the DMR replica compare (or the periodic integrity sweep)
/// catches it, the machine drops all proofs and continues in full-check
/// mode, and the attack is still detected — with the degradation visible
/// in `integrity_failures` and a reduced elision count.
#[test]
fn proven_flip_degrades_to_full_checks_and_still_detects() {
    let m = Machine::from_scenario(scenario("ghttpd")).elide_checks(true);

    let clean = m.run();
    assert!(clean.reason.is_detected(), "{:?}", clean.reason);
    assert!(clean.stats.elided_checks > 0);
    assert_eq!(clean.stats.integrity_failures, 0);

    let fault = Fault {
        kind: FaultKind::ProvenFlip,
        io_call: 0,
        step: 500,
        salt: 0xdead_beef,
    };
    let trial = m.run_injected(&fault);
    assert!(
        trial.applied.is_some(),
        "the decode cache should be populated well before step 500"
    );
    assert!(
        trial.outcome.reason.is_detected(),
        "{:?}",
        trial.outcome.reason
    );
    assert!(trial.outcome.stats.integrity_failures >= 1);
    assert!(
        trial.outcome.stats.elided_checks < clean.stats.elided_checks,
        "degraded mode must stop eliding: {} vs clean {}",
        trial.outcome.stats.elided_checks,
        clean.stats.elided_checks
    );
}

/// The acceptance gate for graceful degradation: a campaign that corrupts
/// the elision machinery itself (ProvenClean flips and decode-slot upsets)
/// on the detected ghttpd attack reports **zero missed detections** — every
/// corruption either degrades to full checks (still detected) or crashes as
/// a detector fault, never a silent miss.
#[test]
fn detector_corruption_campaign_reports_zero_missed() {
    let m = Machine::from_scenario(scenario("ghttpd")).elide_checks(true);
    let spec = CampaignSpec::new(0xd37e_c70f, 12)
        .kinds(vec![FaultKind::ProvenFlip, FaultKind::DecodeSlot]);
    let report = m.run_campaign(&spec);

    assert!(report.baseline_detected);
    assert_eq!(
        report.count(OutcomeClass::Missed),
        0,
        "a detector-corruption trial missed the attack: {}",
        report.to_json()
    );
    assert_eq!(report.count(OutcomeClass::Benign), 0);
    assert!(report.count(OutcomeClass::Detected) >= 1);
}

/// `ProofCache` is kept in [`FaultKind::ALL`] only so seeded schedules do
/// not shift; it never applies. On exp1, plain and elided, a `proof_cache`
/// trial on a fresh boot and on a fork both equal a fault-free trial.
#[test]
fn proof_cache_fault_is_inert() {
    let plain = Machine::from_scenario(scenario("exp1"));
    for m in [plain.clone(), plain.elide_checks(true)] {
        let snap = m.snapshot();
        let clean = snap.run();
        assert!(clean.outcome.reason.is_detected());
        assert_eq!(clean.applied, None);
        assert_eq!(clean.outcome.stats.injected_faults, 0);
        for step in [0, 1, clean.outcome.stats.instructions / 2] {
            let fault = Fault {
                kind: FaultKind::ProofCache,
                io_call: 0,
                step,
                salt: 0x5eed,
            };
            assert_eq!(m.run_injected(&fault), clean, "fresh boot, step {step}");
            assert_eq!(snap.run_injected(&fault), clean, "forked, step {step}");
        }
    }
}

/// An elided machine shares its one analysis across later boots, clones
/// and campaigns (the memo itself is pinned by `ptaint`'s unit tests). The
/// shared analysis carries no per-run state: repeated campaigns match a
/// fresh machine's byte for byte.
#[test]
fn elided_machine_analyzes_its_image_once() {
    let build = || Machine::from_scenario(scenario("exp1")).elide_checks(true);
    let m = build();
    assert!(m.run().reason.is_detected());

    let spec = CampaignSpec::new(7, 32);
    let first = m.run_campaign(&spec);
    assert!(
        first
            .records
            .iter()
            .any(|r| r.fault.kind == FaultKind::ProofCache),
        "the spec must exercise the inert proof-cache kind"
    );
    assert!(m.clone().run().reason.is_detected());

    let first = first.to_json();
    assert_eq!(m.run_campaign(&spec).to_json(), first);
    assert_eq!(build().run_campaign(&spec).to_json(), first);
}

/// Every campaign trial forks from the last checkpoint-ladder rung before
/// its fault; this pins that such a trial is a fresh boot, trial by trial.
/// On the seed-7 and seed-42, 32-trial schedules over exp1 and the ghttpd
/// attack, plain and elided, each scheduled fault run from the rung the
/// campaign picks equals the same fault run on a fresh boot, and on a fork
/// of the post-boot snapshot, in the whole `TrialRun`: exit reason, output,
/// every `ExecStats` counter (decode-cache counters included), I/O calls
/// serviced and the injector's landing detail. The campaign report equals
/// one composed from boot forks byte for byte, at `-j1` and `-j2`.
#[test]
fn every_forked_trial_equals_a_fresh_boot() {
    let exp1 = Machine::from_scenario(scenario("exp1"));
    let ghttpd = Machine::from_scenario(scenario("ghttpd"));
    for (name, plain) in [("exp1", exp1), ("ghttpd", ghttpd)] {
        for m in [plain.clone(), plain.elide_checks(true)] {
            let snap = m.snapshot();
            let (ladder, baseline) = m.ladder();
            assert_eq!(baseline, snap.run(), "{name}: ladder baseline");
            assert_eq!(m.run(), baseline.outcome, "{name}: baseline");
            assert!(
                ladder.rungs().len() >= 16,
                "{name}: {}",
                ladder.rungs().len()
            );
            let hints = (baseline.outcome.stats.instructions, baseline.io_calls);
            for seed in [7, 42] {
                let spec = CampaignSpec::new(seed, 32);
                let campaign = m.run_campaign(&spec);
                let mut skipped = 0;
                for trial in 0..spec.trials {
                    let fault = spec.fault_for_trial(trial, hints.0, hints.1);
                    assert_eq!(campaign.records[trial as usize].fault, fault);
                    let rung = ladder.rung_for(&fault);
                    skipped += rung.step();
                    let fresh = m.run_injected(&fault);
                    let what = format!(
                        "{name} seed {seed}: trial {trial} from rung {}",
                        rung.step()
                    );
                    assert_eq!(rung.run_injected(&fault), fresh, "{what}, {fault:?}");
                    assert_eq!(snap.run_injected(&fault), fresh, "{what}, {fault:?}");
                }
                assert!(
                    skipped > 0,
                    "{name} seed {seed}: no trial skipped its prefix"
                );
                let booted = ptaint_inject::run_campaign(&spec, |fault| match fault {
                    None => snap.run(),
                    Some(fault) => snap.run_injected(fault),
                });
                let json = campaign.to_json();
                assert_eq!(json, booted.to_json(), "{name} seed {seed}");
                assert_eq!(
                    m.run_campaign_jobs(&spec, 2).to_json(),
                    json,
                    "{name} seed {seed}"
                );
            }
        }
    }
}

/// A rung carries its decode cache warm, and a trial started there must
/// find it so. On elided exp1, seed-42 trial 3 is a `taint_set` on `$29`
/// at step 3601, started from the rung at step 3584. A fresh boot's cache
/// holds the later `lw` off `$29` as a proven slot, so its check is elided
/// and the run alerts at `jr $31` (0x405188); the rung must do the same.
/// A rung that rebuilt its cache fills that page from a different PC,
/// runs the `lw`'s check in full and alerts there (0x4051fc) instead.
/// Debug and release builds agree: the CPU's elision soundness assertion
/// holds off once a fault has been injected.
#[test]
fn a_rung_resumes_with_its_warm_decode_cache() {
    let m = Machine::from_scenario(scenario("exp1")).elide_checks(true);
    let (ladder, baseline) = m.ladder();
    let spec = CampaignSpec::new(42, 32);
    let fault = spec.fault_for_trial(3, baseline.outcome.stats.instructions, baseline.io_calls);
    assert_eq!((fault.kind, fault.step), (FaultKind::TaintSet, 3601));
    let rung = ladder.rung_for(&fault);
    assert_eq!(rung.step(), 3584);
    let fresh = m.run_injected(&fault);
    assert_eq!(fresh.applied.as_deref(), Some("taint set on $29"));
    let alert = fresh.outcome.reason.alert().expect("a fresh boot detects");
    assert_eq!(
        (alert.pc, alert.instr.to_string()),
        (0x405188, "jr $31".into())
    );
    let trial = rung.run_injected(&fault);
    assert_eq!(
        trial.outcome.reason, fresh.outcome.reason,
        "the run ended elsewhere"
    );
    assert_eq!(trial, fresh);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No guest program of the attack suite can panic the host, whatever
    /// bytes arrive on stdin and the network: every run terminates in a
    /// structured `ExitReason` within the step budget.
    #[test]
    fn no_guest_app_panics_on_arbitrary_input(
        stdin in proptest::collection::vec(any::<u8>(), 0..64),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..4),
    ) {
        for s in suite() {
            let world = WorldConfig::new()
                .stdin(stdin.clone())
                .session(NetSession::new(msgs.clone()));
            let out = Machine::from_image(s.image.clone())
                .world(world)
                .step_limit(2_000_000)
                .run();
            // Any reason is acceptable — the contract is that we *got* one.
            prop_assert!(!format!("{}", out.reason).is_empty());
        }
    }

    /// The sharded-determinism contract on a real machine, plain or in the
    /// elided paper configuration: for any seed, trial count, and worker
    /// count, `run_campaign_jobs` produces a report byte-identical to the
    /// single-threaded runner's.
    #[test]
    fn sharded_campaign_reports_are_byte_identical(
        seed in any::<u64>(),
        trials in 1u64..8,
        jobs in 2usize..6,
    ) {
        let plain = Machine::from_scenario(scenario("exp1"))
            .step_limit(2_000_000);
        let spec = CampaignSpec::new(seed, trials);
        for elide in [false, true] {
            let m = plain.clone().elide_checks(elide);
            let seq = m.run_campaign_jobs(&spec, 1).to_json();
            let sharded = m.run_campaign_jobs(&spec, jobs).to_json();
            prop_assert_eq!(seq, sharded);
        }
    }

    /// Arbitrary faults — any kind, any trigger point, any salt — injected
    /// into an attack run never panic and always classify.
    #[test]
    fn arbitrary_fault_injection_never_panics(
        kind_idx in 0usize..FaultKind::ALL.len(),
        step in 0u64..4000,
        io_call in 0u64..4,
        salt in any::<u64>(),
    ) {
        let m = Machine::from_scenario(scenario("exp1"))
            .step_limit(2_000_000);
        let fault = Fault {
            kind: FaultKind::ALL[kind_idx],
            io_call,
            step,
            salt,
        };
        let trial = m.run_injected(&fault);
        let class = ptaint::classify(&trial.outcome.reason, true);
        prop_assert!(OutcomeClass::ALL.contains(&class));
    }
}
