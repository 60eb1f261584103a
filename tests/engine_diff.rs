//! Integration: the predecoded/cached engine is a pure performance
//! transformation — for every guest program in the repository (the Figure 2
//! synthetics, the §5.1.2 real-world attacks, the Table 4 false-negative
//! trio, and the Table 3 workloads, attack and benign inputs alike) it must
//! produce bit-identical architectural results to the legacy interpreter:
//! same exit reason, same alert, same stdout/stderr/transcripts, same
//! retired-instruction statistics. Only the decode-cache counters (engine
//! activity, not guest-visible behaviour) may differ, so those are
//! normalized away with [`ExecStats::without_decode_cache`]. Within the
//! cached engine, page-runs are invisible too: a step hook that wakes only
//! at its trigger step sees the same trial as one woken before every step.

use ptaint::{
    run_to_exit_with, Cpu, Engine, ExitReason, Fault, FaultKind, Machine, MachineSnapshot,
    RunLimits, RunOutcome, SplitMix64, StateInjector, StepHook, TrialRun,
};
use ptaint_guest::apps::{
    calibrate_format_pad, dispatchd, ghttpd, globd, null_httpd, synthetic, table4, traceroute,
    wu_ftpd,
};
use ptaint_guest::workloads;

/// Runs `machine` under both engines and asserts they agree on everything
/// architecturally observable. Returns the cached outcome for extra,
/// scenario-specific assertions.
fn assert_engines_agree(label: &str, machine: &Machine) -> RunOutcome {
    let cached = machine.clone().engine(Engine::Cached).run();
    let interp = machine.clone().engine(Engine::Interp).run();

    // The engines really were different: the cache dispatched most steps,
    // the interpreter never touched it.
    assert!(
        cached.stats.decode_cache_hits > 0,
        "{label}: cached engine never hit its decode cache"
    );
    assert_eq!(
        (
            interp.stats.decode_cache_hits,
            interp.stats.decode_cache_misses,
            interp.stats.decode_cache_invalidations,
        ),
        (0, 0, 0),
        "{label}: interpreter touched the decode cache"
    );

    let mut normalized = cached.clone();
    normalized.stats = normalized.stats.without_decode_cache();
    let mut oracle = interp;
    oracle.stats = oracle.stats.without_decode_cache();
    assert_eq!(normalized, oracle, "{label}: engines diverged");
    cached
}

#[test]
fn synthetic_attacks_and_benign_runs_agree() {
    for (label, source, world) in [
        (
            "exp1/attack",
            synthetic::EXP1_SOURCE,
            synthetic::exp1_attack_world(),
        ),
        (
            "exp1/benign",
            synthetic::EXP1_SOURCE,
            synthetic::exp1_benign_world(),
        ),
        (
            "exp2/attack",
            synthetic::EXP2_SOURCE,
            synthetic::exp2_attack_world(),
        ),
        (
            "exp2/benign",
            synthetic::EXP2_SOURCE,
            synthetic::exp2_benign_world(),
        ),
        (
            "exp3/benign",
            synthetic::EXP3_SOURCE,
            synthetic::exp3_benign_world(),
        ),
    ] {
        let m = Machine::from_c(source).unwrap().world(world);
        assert_engines_agree(label, &m);
    }

    // exp3's attack needs a calibrated pad; probe with the plain machine
    // (the attack either alerts or not — both engines must say the same).
    let m = Machine::from_c(synthetic::EXP3_SOURCE).unwrap();
    for pad in 0..8 {
        let m = m.clone().world(synthetic::exp3_attack_world(pad));
        assert_engines_agree(&format!("exp3/attack pad={pad}"), &m);
    }
}

#[test]
fn real_world_attacks_agree() {
    // WU-FTPD: format string overwriting the uid word (Table 2).
    let m = Machine::from_c(wu_ftpd::SOURCE).unwrap();
    let target = wu_ftpd::uid_address(m.image());
    let pad = calibrate_format_pad(
        m.image(),
        |p| wu_ftpd::attack_world(m.image(), p),
        target,
        48,
    )
    .expect("calibrates");
    let attack = m.clone().world(wu_ftpd::attack_world(m.image(), pad));
    let out = assert_engines_agree("wu_ftpd/attack", &attack);
    assert_eq!(out.reason.alert().expect("detected").pointer, target);
    assert_engines_agree("wu_ftpd/benign", &m.world(wu_ftpd::benign_world()));

    // NULL-HTTPD: heap chunk-link corruption.
    let m = Machine::from_c(null_httpd::SOURCE).unwrap();
    let attack = m.clone().world(null_httpd::attack_world(m.image()));
    assert_engines_agree("null_httpd/attack", &attack);
    assert_engines_agree("null_httpd/benign", &m.world(null_httpd::benign_world()));

    // GHTTPD: stack overflow corrupting a URL pointer.
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let attack = m.clone().world(ghttpd::attack_world(m.image()));
    assert_engines_agree("ghttpd/attack", &attack);
    assert_engines_agree("ghttpd/benign", &m.world(ghttpd::benign_world()));

    // Traceroute double free, globd tilde expansion, dispatchd GOT-style
    // function-pointer overwrite.
    for (label, source, attack, benign) in [
        (
            "traceroute",
            traceroute::SOURCE,
            traceroute::attack_world(),
            traceroute::benign_world(),
        ),
        (
            "globd",
            globd::SOURCE,
            globd::attack_world(),
            globd::benign_world(),
        ),
        (
            "dispatchd",
            dispatchd::SOURCE,
            dispatchd::attack_world(),
            dispatchd::benign_world(),
        ),
    ] {
        let m = Machine::from_c(source).unwrap();
        assert_engines_agree(&format!("{label}/attack"), &m.clone().world(attack));
        assert_engines_agree(&format!("{label}/benign"), &m.world(benign));
    }
}

#[test]
fn table4_false_negative_scenarios_agree() {
    for (label, source, world) in [
        (
            "int_overflow/attack",
            table4::INT_OVERFLOW_SOURCE,
            table4::int_overflow_attack_world(),
        ),
        (
            "int_overflow/benign",
            table4::INT_OVERFLOW_SOURCE,
            table4::int_overflow_benign_world(),
        ),
        (
            "auth_flag/attack",
            table4::AUTH_FLAG_SOURCE,
            table4::auth_flag_attack_world(),
        ),
        (
            "auth_flag/good",
            table4::AUTH_FLAG_SOURCE,
            table4::auth_flag_good_password_world(),
        ),
        (
            "auth_flag/bad",
            table4::AUTH_FLAG_SOURCE,
            table4::auth_flag_bad_password_world(),
        ),
        (
            "fmt_leak/attack",
            table4::FMT_LEAK_SOURCE,
            table4::fmt_leak_attack_world(),
        ),
        (
            "fmt_leak/benign",
            table4::FMT_LEAK_SOURCE,
            table4::fmt_leak_benign_world(),
        ),
    ] {
        let m = Machine::from_c(source).unwrap().world(world);
        assert_engines_agree(label, &m);
    }
}

#[test]
fn per_pc_profiles_are_engine_invariant() {
    use ptaint::{RunConfig, ToJson, TraceConfig};

    // The trace records the guest, not the engine: both engines retire
    // through `Cpu::exec`, the profiler is built from that retire stream,
    // and no event reports decode-cache activity (those counts live in
    // `ExecStats`). So every
    // artifact of a fully traced, profiled run — JSONL stream, metrics,
    // forensic chain, and the profile (per-PC histogram, call tree, taint
    // heatmap, syscall table) — must be byte-identical across engines, not
    // merely equivalent.
    let wu_m = Machine::from_c(wu_ftpd::SOURCE).unwrap();
    let pad = calibrate_format_pad(
        wu_m.image(),
        |p| wu_ftpd::attack_world(wu_m.image(), p),
        wu_ftpd::uid_address(wu_m.image()),
        48,
    )
    .expect("calibrates");
    let wu_world = wu_ftpd::attack_world(wu_m.image(), pad);
    let null_m = Machine::from_c(null_httpd::SOURCE).unwrap();
    let null_world = null_httpd::attack_world(null_m.image());
    let ghttpd_m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let ghttpd_world = ghttpd::attack_world(ghttpd_m.image());
    for (label, machine) in [
        (
            "exp1/attack",
            Machine::from_c(synthetic::EXP1_SOURCE)
                .unwrap()
                .world(synthetic::exp1_attack_world()),
        ),
        ("wu_ftpd/attack", wu_m.world(wu_world)),
        ("null_httpd/attack", null_m.world(null_world)),
        ("ghttpd/attack", ghttpd_m.world(ghttpd_world)),
    ] {
        let artifacts = |engine| {
            let run = machine.clone().engine(engine).run_with(&RunConfig {
                trace: TraceConfig::all(),
                profile: true,
                ..RunConfig::default()
            });
            let profile = run.profile.expect("profiled");
            // The histogram really covered the whole run.
            assert_eq!(
                profile.steps, run.outcome.stats.instructions,
                "{label} ({engine:?})"
            );
            let chain = run.trace.forensic.expect("an attack leaves a chain");
            [
                String::from_utf8(run.trace.jsonl.expect("jsonl on")).unwrap(),
                run.trace.metrics.expect("metrics on").to_json(),
                chain.to_string(),
                profile.to_json(),
            ]
        };
        let cached = artifacts(Engine::Cached);
        let interp = artifacts(Engine::Interp);
        for (what, (c, i)) in ["JSONL", "metrics", "forensic chain", "profile"]
            .into_iter()
            .zip(cached.iter().zip(&interp))
        {
            // Name the first differing line rather than dumping megabytes.
            let diverged = c
                .lines()
                .zip(i.lines())
                .position(|(a, b)| a != b)
                .or_else(|| (c != i).then(|| c.lines().count().min(i.lines().count())));
            assert!(
                diverged.is_none(),
                "{label}: engine {what} diverged at line {diverged:?}:\n  cached: {:?}\n  interp: {:?}",
                diverged.and_then(|n| c.lines().nth(n)),
                diverged.and_then(|n| i.lines().nth(n)),
            );
        }
    }
}

#[test]
fn forked_runs_are_bit_identical_to_fresh_boots_under_both_engines() {
    // A fork resumes from the post-boot snapshot with copy-on-write pages
    // and a rebuilt decode cache, so under either engine it must retrace
    // the fresh boot bit-exactly — decode-cache counters included (both
    // executions start from an identical cold cache).
    let ghttpd_m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let ghttpd_world = ghttpd::attack_world(ghttpd_m.image());
    for (label, machine) in [
        (
            "exp1/attack",
            Machine::from_c(synthetic::EXP1_SOURCE)
                .unwrap()
                .world(synthetic::exp1_attack_world()),
        ),
        (
            "exp2/benign",
            Machine::from_c(synthetic::EXP2_SOURCE)
                .unwrap()
                .world(synthetic::exp2_benign_world()),
        ),
        ("ghttpd/attack", ghttpd_m.world(ghttpd_world)),
    ] {
        for engine in [Engine::Cached, Engine::Interp] {
            let m = machine.clone().engine(engine);
            let fresh = m.run();
            let snap = m.snapshot();
            for trial in 0..2 {
                let forked = snap.run();
                assert_eq!(
                    forked.outcome, fresh,
                    "{label}: forked run #{trial} diverged from the fresh boot ({engine:?})"
                );
            }
        }
    }
}

#[test]
fn workloads_agree_at_small_scale() {
    for w in workloads::all() {
        let m = Machine::from_c(w.source).unwrap().world(w.world(1));
        let out = assert_engines_agree(w.name, &m);
        assert!(
            !out.reason.is_detected(),
            "{}: workload should be alert-free",
            w.name
        );
    }
}

/// One forked trial under `fault`, run through the driver either with the
/// bare injector (which wakes the driver only at its trigger step, so the
/// cached engine runs page-runs in between) or wrapped in a hook that keeps
/// the default wake-every-step contract (one instruction per run).
fn hooked_trial(
    snap: &MachineSnapshot,
    fault: Fault,
    limits: RunLimits,
    every_step: bool,
) -> TrialRun {
    /// Delegates `on_step` and keeps the provided `next_wake`.
    struct EveryStep<'a>(&'a mut StateInjector);
    impl StepHook for EveryStep<'_> {
        fn on_step(&mut self, step: u64, cpu: &mut Cpu) {
            self.0.on_step(step, cpu);
        }
    }

    let (mut cpu, mut os) = snap.fork();
    os.set_io_faults(fault.io_plan());
    let mut injector = StateInjector::new(fault);
    let outcome = if every_step {
        run_to_exit_with(&mut cpu, &mut os, limits, &mut EveryStep(&mut injector))
    } else {
        run_to_exit_with(&mut cpu, &mut os, limits, &mut injector)
    };
    TrialRun {
        outcome,
        io_calls: os.io_call_count(),
        applied: injector.applied().map(str::to_owned),
    }
}

#[test]
fn page_runs_are_invisible_to_step_hooks() {
    // Batching the steps between hook wakes must not move anything: every
    // fault kind, fired early, late, past the end and at consecutive steps
    // (most of which land inside a page-run), and step limits that cut a
    // run, yield the same trial as a hook woken before every step — exit,
    // output and every `ExecStats` field, decode-cache counters included
    // (it is the same engine both ways).
    let ghttpd_m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let ghttpd_world = ghttpd::attack_world(ghttpd_m.image());
    for (label, machine) in [
        (
            "exp1/attack",
            Machine::from_c(synthetic::EXP1_SOURCE)
                .unwrap()
                .world(synthetic::exp1_attack_world()),
        ),
        ("ghttpd/attack", ghttpd_m.world(ghttpd_world)),
    ] {
        let n = machine.run().stats.instructions;
        // Ends a trial a fault sent into a loop without spinning to the
        // default budget.
        let limits = RunLimits::steps(2 * n);
        let mut steps = vec![0, 1, n - 1, n + 3];
        for k in 1..4 {
            let at = n * k / 4;
            steps.extend([at, at + 1, at + 6]);
        }
        for elide in [false, true] {
            let snap = machine.clone().elide_checks(elide).snapshot();
            let mut rng = SplitMix64::new(0x9a9e_2075);
            for (k, kind) in FaultKind::ALL.into_iter().enumerate() {
                // Six triggers per kind, rotating so every trigger is hit.
                for &step in steps.iter().cycle().skip(3 * k).take(6) {
                    let fault = Fault {
                        kind,
                        io_call: step % 3,
                        step,
                        salt: rng.next_u64(),
                    };
                    assert_eq!(
                        hooked_trial(&snap, fault, limits, false),
                        hooked_trial(&snap, fault, limits, true),
                        "{label} (elide {elide}): {} at step {step}",
                        kind.name()
                    );
                }
            }
            for cut in [1, 7, n / 3 + 1, n / 2 + 3, n - 2] {
                let fault = Fault {
                    kind: FaultKind::RegisterBit,
                    io_call: 0,
                    step: cut / 2,
                    salt: rng.next_u64(),
                };
                let limits = RunLimits::steps(cut);
                let batched = hooked_trial(&snap, fault, limits, false);
                assert_eq!(
                    batched,
                    hooked_trial(&snap, fault, limits, true),
                    "{label} (elide {elide}): step limit {cut}"
                );
                if batched.outcome.reason == ExitReason::StepLimit {
                    assert_eq!(batched.outcome.stats.instructions, cut, "{label}");
                }
            }
        }
    }
}
