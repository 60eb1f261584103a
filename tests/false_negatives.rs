//! Integration: §5.3 / Table 4 — the engineered false negatives. The
//! architecture must *not* detect these (that is the paper's point), and
//! the damage must really happen.

use ptaint::experiments::table4;
use ptaint::{ExitReason, Machine};
use ptaint_guest::apps::scenario;

#[test]
fn table_4_suite_reproduces() {
    let report = table4::run_false_negative_suite();
    assert!(report.all_missed_with_damage(), "{report}");
}

/// Runs the Table 4 scenario `name`'s attack: it must exit cleanly, without
/// an alert, with its damage marker in stdout.
fn assert_silent_damage(name: &str) {
    let s = scenario(name);
    let out = Machine::from_scenario(s).run();
    assert_eq!(
        out.reason,
        ExitReason::Exited(0),
        "{name}: {:?}",
        out.reason
    );
    let marker = s
        .compromise_marker
        .expect("a designed miss shows its damage");
    assert!(
        out.stdout_text().contains(marker),
        "{name}: {}",
        out.stdout_text()
    );
}

#[test]
fn integer_overflow_index_writes_out_of_bounds_silently() {
    assert_silent_damage("int_overflow");
}

#[test]
fn auth_flag_overflow_grants_access_silently() {
    assert_silent_damage("auth_flag");
}

#[test]
fn format_leak_reads_the_secret_silently() {
    assert_silent_damage("fmt_leak");
}

#[test]
fn but_the_same_leak_program_is_caught_when_percent_n_is_used() {
    // §5.3's contrast: with %n instead of a trailing %x, the same program
    // *is* caught, because the store dereferences a tainted word.
    let out = Machine::from_scenario(scenario("fmt_leak"))
        .world(ptaint::WorldConfig::new().stdin(b"abcd%x%x%x%n".to_vec()))
        .run();
    assert!(out.reason.is_detected(), "{:?}", out.reason);
}

#[test]
fn scenario_programs_behave_correctly_on_honest_inputs() {
    let honest = |name: &str, i: usize| {
        let s = scenario(name);
        Machine::from_scenario(s).world(s.benign[i].clone()).run()
    };
    assert!(honest("int_overflow", 0).stdout_text().contains("safely"));
    assert!(honest("auth_flag", 0)
        .stdout_text()
        .contains("ACCESS GRANTED"));
    let denied = honest("auth_flag", 1);
    assert!(denied.stdout_text().contains("access denied"));
}
