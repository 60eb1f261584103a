//! Integration: statically-proven check elision is a pure performance
//! transformation. For every guest program in the repository — every
//! scenario of the attack suite and every workload, attack and benign
//! inputs alike — running with `--elide-checks` must produce
//! bit-identical architectural results to the full-checking machine: same
//! exit reason, same alert, same stdout/stderr/transcripts, same retired
//! statistics. [`Machine::run_elision_differential`] performs the paired
//! run and the equality assertion (normalizing only the decode-cache and
//! elision counters); the scenarios here add the two claims the equality
//! alone cannot make — benign runs really do elide work, and attacks are
//! still detected.

use ptaint::{DetectionPolicy, Machine, RunOutcome};
use ptaint_guest::apps::{suite, Origin, Scenario};
use ptaint_guest::workloads;

/// Runs the elision differential and asserts the elided machine actually
/// skipped some checks (the analysis proved something reachable).
fn assert_elides(label: &str, machine: &Machine) -> RunOutcome {
    let out = machine.run_elision_differential();
    assert!(
        out.stats.elided_checks > 0,
        "{label}: no checks were elided (statically proven sites never hit)"
    );
    out
}

/// Runs the elision differential on every world of every suite scenario
/// `pick` accepts; each keeps its labelled verdict under elision.
fn suite_elides(pick: impl Fn(&Scenario) -> bool) {
    for s in suite().iter().filter(|s| pick(s)) {
        let m = Machine::from_image(s.image.clone());
        s.assert_verdicts(DetectionPolicy::PointerTaintedness, |label, world| {
            assert_elides(label, &m.clone().world(world.clone()))
        });
    }
}

#[test]
fn synthetic_attacks_still_alert_and_benign_runs_elide() {
    suite_elides(|s| s.origin == Origin::Figure2);
}

#[test]
fn real_world_attacks_still_alert_under_elision() {
    // Every scenario outside Figure 2 and Table 4: the daemons and tools,
    // and any scenario origin added later.
    suite_elides(|s| !matches!(s.origin, Origin::Figure2 | Origin::Table4));
}

#[test]
fn table4_scenarios_are_unchanged_by_elision() {
    // Table 4 documents false negatives: elision must not change the
    // verdict either way.
    suite_elides(|s| s.origin == Origin::Table4);
}

#[test]
fn workloads_elide_and_stay_alert_free() {
    for w in workloads::all() {
        let m = Machine::from_c(w.source).unwrap().world(w.world(1));
        let out = assert_elides(w.name, &m);
        assert!(
            !out.reason.is_detected(),
            "{}: workload should be alert-free",
            w.name
        );
    }
}
