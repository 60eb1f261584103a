//! Integration: §5.1.2 — the real-world-style attacks, each run to its
//! damage under the policies that miss it. Which policies catch each attack
//! is checked for the whole suite in `tests/attack_suite.rs`.

use ptaint::{AlertKind, DetectionPolicy, ExitReason, HierarchyConfig, Machine};
use ptaint_guest::apps::{scenario, suite, Origin};

/// The network transcript of the first session.
fn transcript(m: &Machine) -> String {
    String::from_utf8_lossy(&m.run().transcripts[0]).into_owned()
}

#[test]
fn wu_ftpd_format_string_full_story() {
    let m = Machine::from_scenario(scenario("wu_ftpd"));

    // Full detection: Table 2's alert — a store-word through the tainted
    // uid address, raised inside the formatter.
    let out = m.run();
    let alert = out.reason.alert().expect("detected");
    assert_eq!(alert.kind, AlertKind::DataPointer);
    assert!(
        alert.instr.to_string().starts_with("sw "),
        "{}",
        alert.instr
    );

    // Control-only baseline: blind (non-control-data attack), and the
    // compromise actually lands — the privileged STOR is accepted.
    let t = transcript(&m.clone().policy(DetectionPolicy::ControlOnly));
    assert!(t.contains("226 transfer complete"), "{t}");

    // Unprotected: same compromise.
    let out = m.policy(DetectionPolicy::Off).run();
    assert_eq!(out.reason, ExitReason::Exited(0));
}

#[test]
fn wu_ftpd_detection_survives_the_cache_hierarchy() {
    let out = Machine::from_scenario(scenario("wu_ftpd"))
        .hierarchy(HierarchyConfig::two_level())
        .run();
    let target = scenario("wu_ftpd").pointer.expect("the uid word");
    assert_eq!(out.reason.alert().expect("detected").pointer, target);
}

#[test]
fn null_httpd_heap_attack_full_story() {
    let m = Machine::from_scenario(scenario("null_httpd"));
    let alert = *m.run().reason.alert().expect("detected");
    assert_eq!(alert.kind, AlertKind::DataPointer);

    // Baseline and unprotected: the CGI root is retargeted and the fake
    // shell executes.
    for policy in [DetectionPolicy::ControlOnly, DetectionPolicy::Off] {
        let t = transcript(&m.clone().policy(policy));
        assert!(t.contains("EXEC /bin/sh"), "{policy}: {t}");
    }
}

#[test]
fn ghttpd_url_pointer_attack_full_story() {
    let m = Machine::from_scenario(scenario("ghttpd"));
    let out = m.run();
    let alert = out.reason.alert().expect("detected");
    // Paper: stopped at a load-byte (LB) dereferencing the tainted URL ptr.
    assert!(alert.instr.to_string().starts_with("lb"), "{}", alert.instr);

    let t = transcript(&m.policy(DetectionPolicy::Off));
    assert!(t.contains("/../../../../bin/sh"), "policy bypass: {t}");
}

#[test]
fn traceroute_double_free_full_story() {
    // Unprotected, the paper reports a crash — ours too.
    let out = Machine::from_scenario(scenario("traceroute"))
        .policy(DetectionPolicy::Off)
        .run();
    assert!(
        matches!(out.reason, ExitReason::MemFault(_)),
        "{:?}",
        out.reason
    );
}

#[test]
fn all_daemons_serve_benign_sessions_cleanly_under_full_detection() {
    for s in suite().iter().filter(|s| s.origin == Origin::RealWorld) {
        for world in &s.benign {
            let out = Machine::from_image(s.image.clone())
                .world(world.clone())
                .run();
            assert_eq!(
                out.reason,
                ExitReason::Exited(0),
                "{}: {:?}",
                s.name,
                out.reason
            );
        }
    }
}

#[test]
fn benign_sessions_also_clean_with_caches() {
    let ftpd = scenario("wu_ftpd");
    let out = Machine::from_image(ftpd.image.clone())
        .world(ftpd.benign[0].clone())
        .hierarchy(HierarchyConfig::two_level())
        .run();
    assert_eq!(out.reason, ExitReason::Exited(0));
}
