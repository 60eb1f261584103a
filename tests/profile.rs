//! Integration: the guest-level profiler (`ptaint-profile`) end to end —
//! retirement accounting that matches the executed instruction count, the
//! pinned GHTTPD acceptance scenario (the attack's taint activity names the
//! `handle` → `log_request` path), and byte-deterministic profile JSON.

use ptaint::{DetectionPolicy, Machine, ProfileReport, RunConfig, ToJson};
use ptaint_guest::apps::{ghttpd, synthetic};

fn ghttpd_attack() -> Machine {
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let world = ghttpd::attack_world(m.image());
    m.world(world).policy(DetectionPolicy::PointerTaintedness)
}

fn profile_of(machine: &Machine) -> (u64, ProfileReport) {
    let run = machine.run_with(&RunConfig {
        profile: true,
        ..RunConfig::default()
    });
    (run.outcome.stats.instructions, run.profile.unwrap())
}

#[test]
fn profiler_totals_equal_executed_instructions() {
    // Exceptions (the alert) abort an instruction *before* it retires, so
    // the histogram total must track `ExecStats::instructions` exactly —
    // on a clean exit and on a detected attack alike.
    for (label, machine) in [
        (
            "exp1/attack",
            Machine::from_c(synthetic::EXP1_SOURCE)
                .unwrap()
                .world(synthetic::exp1_attack_world()),
        ),
        ("ghttpd/attack", ghttpd_attack()),
        (
            "ghttpd/benign",
            Machine::from_c(ghttpd::SOURCE)
                .unwrap()
                .world(ghttpd::benign_world()),
        ),
    ] {
        let (instructions, profile) = profile_of(&machine);
        assert_eq!(profile.steps, instructions, "{label}");
        let hist_total: u64 = profile.symbols.iter().map(|s| s.count).sum();
        assert_eq!(hist_total, instructions, "{label}: histogram total");
        let tree_total: u64 = profile.collapsed.iter().map(|(_, n)| n).sum();
        assert_eq!(tree_total, instructions, "{label}: call-tree total");
    }
}

#[test]
fn ghttpd_attack_profile_names_the_handle_log_request_path() {
    let (_, profile) = profile_of(&ghttpd_attack());

    // The vulnerable path is on the collapsed call stacks: main accepts,
    // handle logs the request, log_request runs the unbounded strcpy.
    assert!(
        profile
            .collapsed
            .iter()
            .any(|(path, _)| path.ends_with("main;handle;log_request;strcpy")),
        "collapsed stacks miss the overflow path: {:?}",
        profile.collapsed
    );

    // The taint heatmap names the copy/compare helpers the tainted request
    // flows through — and the alert site itself (the dereference of the
    // corrupted URL pointer) carries the alert count.
    let hot: Vec<&str> = profile
        .taint_symbols
        .iter()
        .map(|s| s.symbol.as_str())
        .collect();
    assert!(hot.contains(&"strcpy"), "taint hotspots: {hot:?}");
    let alerts: u64 = profile.taint_sites.iter().map(|s| s.alerts).sum();
    assert_eq!(alerts, 1, "exactly one alert site");

    // The syscall table covers the server's socket lifecycle up to the
    // detection (close never runs: the alert preempts it).
    let names: Vec<&str> = profile.syscalls.iter().map(|r| r.name.as_str()).collect();
    for expected in ["socket", "bind", "listen", "accept", "recv"] {
        assert!(names.contains(&expected), "syscalls: {names:?}");
    }
}

#[test]
fn profile_json_is_byte_deterministic() {
    let machine = ghttpd_attack();
    let (_, a) = profile_of(&machine);
    let (_, b) = profile_of(&machine);
    assert_eq!(a.to_json(), b.to_json());

    // And stable against an independently built machine (fresh compile of
    // the same source): addresses and counts are all derived, not sampled.
    let (_, c) = profile_of(&ghttpd_attack());
    assert_eq!(a.to_json(), c.to_json());
}
