//! Integration: the guest-level profiler (`ptaint-profile`) end to end —
//! retirement accounting that matches the executed instruction count, the
//! pinned GHTTPD acceptance scenario (the attack's taint activity names the
//! `handle` → `log_request` path), and byte-deterministic profile JSON
//! pinned against `tests/golden/profile/<name>.json`. Regenerate the
//! goldens deliberately with:
//!
//! ```sh
//! BLESS=1 cargo test --test profile
//! ```

use std::path::PathBuf;

use ptaint::{DetectionPolicy, Machine, ProfileReport, RunConfig, ToJson};
use ptaint_guest::apps::{dispatchd, ghttpd, scenario};

fn ghttpd_attack() -> Machine {
    Machine::from_scenario(scenario("ghttpd")).policy(DetectionPolicy::PointerTaintedness)
}

/// dispatchd's GOT-style handler overwrite with detection off: the
/// `jalr $31,$25` through the tainted `0x61616161` retires, then the fetch
/// faults, so the pending call's callee never retires.
fn dispatchd_off() -> Machine {
    Machine::from_scenario(scenario("dispatchd")).policy(DetectionPolicy::Off)
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
        ("exp1/attack", Machine::from_scenario(scenario("exp1"))),
        ("ghttpd/attack", ghttpd_attack()),
        ("dispatchd/off", dispatchd_off()),
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
fn jalr_calls_enter_their_callee_only_once_it_retires() {
    // Benign dispatchd calls both handlers through the function-pointer
    // table (`jalr`): each gets its own frame under `main`.
    let benign = Machine::from_c(dispatchd::SOURCE)
        .unwrap()
        .world(dispatchd::benign_world());
    let (_, profile) = profile_of(&benign);
    for handler in ["_start;main;handle_stat", "_start;main;handle_quit"] {
        assert!(
            profile.collapsed.iter().any(|(path, _)| path == handler),
            "{handler} missing: {:?}",
            profile.collapsed
        );
    }
    // Under `Off` the `jalr` through the tainted `0x61616161` retires but
    // its callee never does: nothing is charged to it, and the `jalr`
    // itself is charged to `main`.
    let (_, profile) = profile_of(&dispatchd_off());
    assert!(
        profile
            .collapsed
            .iter()
            .all(|(path, _)| path.starts_with("_start") && !path.contains("0x")),
        "{:?}",
        profile.collapsed
    );
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

fn check_golden(name: &str, machine: &Machine) {
    let (_, profile) = profile_of(machine);
    let json = profile.to_json();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/profile")
        .join(format!("{name}.json"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden {} ({e}); run with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        json,
        want,
        "{name}: profile drifted from {}; if intentional, regenerate with BLESS=1",
        path.display()
    );
}

#[test]
fn ghttpd_attack_profile_matches_golden() {
    check_golden("ghttpd_attack", &ghttpd_attack());
}

#[test]
fn dispatchd_off_profile_matches_golden() {
    check_golden("dispatchd_off", &dispatchd_off());
}
