//! Integration: Figure 2 / §5.1.1 — the synthetic attack suite through the
//! public `ptaint` API. Which policies catch each attack is checked for the
//! whole suite in `tests/attack_suite.rs`; these pin what each alert says
//! and which policies see Figure 2's attacks.

use ptaint::{AlertKind, DetectionPolicy, ExitReason, Machine, WorldConfig};
use ptaint_guest::apps::{scenario, suite, synthetic, Origin};

#[test]
fn stack_smash_alert_matches_the_paper() {
    let out = Machine::from_scenario(scenario("exp1")).run();
    let alert = out.reason.alert().expect("detected");
    // Paper §5.1.1: "an alert is raised at the return instruction (JR $31)
    // of exp1(), which indicates that the return address is tainted as
    // 0x61616161".
    assert_eq!(alert.instr.to_string(), "jr $31");
    assert_eq!(alert.pointer, 0x6161_6161);
    assert_eq!(alert.kind, AlertKind::JumpPointer);
    assert!(alert.taint.any());
}

#[test]
fn heap_corruption_alert_fires_inside_free() {
    let m = Machine::from_scenario(scenario("exp2"));
    let out = m.run();
    let alert = out.reason.alert().expect("detected");
    assert_eq!(alert.kind, AlertKind::DataPointer);
    // The tainted link is built from 'a' bytes.
    assert_eq!(alert.pointer & 0xff00_0000, 0x6100_0000);
    // Inside the allocator, per the image's symbol table.
    let unlink = m.image().symbol("__unlink").unwrap();
    assert!((unlink..unlink + 0x100).contains(&alert.pc));
}

#[test]
fn format_string_alert_dereferences_abcd() {
    // The suite calibrated the `%x` pads like an attacker.
    let out = Machine::from_scenario(scenario("exp3")).run();
    let alert = out.reason.alert().expect("detected");
    assert_eq!(alert.pointer, 0x6463_6261);
    assert_eq!(alert.kind, AlertKind::DataPointer);
    assert!(alert.instr.to_string().starts_with("sw "));
}

#[test]
fn synthetic_attacks_do_not_fire_on_benign_inputs() {
    for s in suite().iter().filter(|s| s.origin == Origin::Figure2) {
        for world in &s.benign {
            let out = Machine::from_image(s.image.clone())
                .world(world.clone())
                .run();
            assert_eq!(out.reason, ExitReason::Exited(0), "{}", s.name);
        }
    }
}

#[test]
fn detection_works_identically_with_caches_enabled() {
    // Taintedness travels through the cache hierarchy (§4.1): enabling
    // L1/L2 must not change what is detected.
    let out = Machine::from_scenario(scenario("exp1"))
        .hierarchy(ptaint::HierarchyConfig::two_level())
        .run();
    let alert = out.reason.alert().expect("detected through caches");
    assert_eq!(alert.pointer, 0x6161_6161);
}

#[test]
fn exp1_detected_under_both_detecting_policies_but_not_off() {
    let m = Machine::from_scenario(scenario("exp1"));
    assert!(m
        .clone()
        .policy(DetectionPolicy::PointerTaintedness)
        .run()
        .reason
        .is_detected());
    assert!(m
        .clone()
        .policy(DetectionPolicy::ControlOnly)
        .run()
        .reason
        .is_detected());
    assert!(!m.policy(DetectionPolicy::Off).run().reason.is_detected());
}

#[test]
fn non_control_synthetic_attacks_are_invisible_to_the_baseline() {
    let exp3 = scenario("exp3");
    for (s, world) in [
        (scenario("exp2"), scenario("exp2").attack.clone()),
        (exp3, exp3.attack.clone()),
        // An uncalibrated pad: the attack goes astray, still unseen.
        (exp3, synthetic::exp3_attack_world(1)),
    ] {
        let out = Machine::from_image(s.image.clone())
            .world(world)
            .policy(DetectionPolicy::ControlOnly)
            .run();
        assert!(!out.reason.is_detected(), "{}: {:?}", s.name, out.reason);
    }
}

#[test]
fn attack_world_tainted_bytes_are_accounted() {
    let m = Machine::from_image(scenario("exp1").image.clone())
        .world(WorldConfig::new().stdin(vec![b'a'; 24]));
    let out = m.run();
    assert_eq!(out.tainted_input_bytes, 24);
    assert!(out.stats.tainted_operand_instructions > 0);
}
