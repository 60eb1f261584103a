//! Integration: the static↔dynamic differential gate.
//!
//! The static analyzer's findings and the dynamic detector's alerts are
//! two views of the same property, and this gate keeps them honest
//! against each other: every `Alert` the dynamic detector raises across
//! the attack suite (every `ptaint_guest::apps::suite()` scenario, attack
//! and benign worlds alike) must land on a site the static lint *flags*
//! — a miss would mean the precision work taught the analyzer to talk
//! itself out of a dereference that demonstrably goes tainted at
//! runtime. The dual
//! claim — an alert site must never be in the ProvenClean set — is the
//! soundness half that `tests/elision_diff.rs` exercises end-to-end;
//! asserting it here too localizes the failure to the analysis instead
//! of a run-wide mismatch.

use ptaint::{DetectionPolicy, Machine};
use ptaint_guest::apps::{suite, Origin, Scenario};

/// Runs every world of every suite scenario `pick` accepts, requires each
/// to keep its labelled verdict, and requires the static analysis to flag
/// every alert's site (and to have never proven it clean).
fn suite_alerts_are_statically_flagged(pick: impl Fn(&Scenario) -> bool) {
    for s in suite().iter().filter(|s| pick(s)) {
        let m = Machine::from_image(s.image.clone());
        s.assert_verdicts(DetectionPolicy::PointerTaintedness, |label, world| {
            let out = m.clone().world(world.clone()).run();
            if let Some(alert) = out.reason.alert() {
                let analysis = ptaint::analyze(&s.image);
                assert!(
                    !analysis.proven.contains(&alert.pc),
                    "{label}: dynamic alert site {:08x} ({}) was statically proven clean",
                    alert.pc,
                    alert.instr
                );
                assert!(
                    analysis.findings.iter().any(|f| f.pc == alert.pc),
                    "{label}: dynamic alert site {:08x} ({}) is not statically flagged",
                    alert.pc,
                    alert.instr
                );
            }
            out
        });
    }
}

#[test]
fn synthetic_attack_alerts_are_statically_flagged() {
    suite_alerts_are_statically_flagged(|s| s.origin == Origin::Figure2);
}

#[test]
fn real_world_attack_alerts_are_statically_flagged() {
    // Every scenario outside Figure 2 and Table 4: the daemons and tools,
    // and any scenario origin added later.
    suite_alerts_are_statically_flagged(|s| !matches!(s.origin, Origin::Figure2 | Origin::Table4));
}

#[test]
fn table4_scenarios_raise_nothing_to_flag() {
    suite_alerts_are_statically_flagged(|s| s.origin == Origin::Table4);
}
