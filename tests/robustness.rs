//! Robustness properties of the whole stack: detection must be stable
//! under environmental noise, and the timing model must stay consistent
//! with the functional machine.

use proptest::prelude::*;
use ptaint::{DetectionPolicy, ExitReason, Machine, RunConfig, WorldConfig};
use ptaint_guest::apps::synthetic;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exp1 detection is invariant under unrelated environmental noise:
    /// extra env strings and argv entries (all tainted at load) never mask
    /// the alert and never change what is reported.
    #[test]
    fn stack_smash_detection_is_noise_invariant(
        envs in proptest::collection::vec("[A-Z]{1,8}=[a-z0-9]{0,12}", 0..6),
        extra_args in proptest::collection::vec("[a-z0-9./-]{1,16}", 0..4),
    ) {
        let mut world = WorldConfig::new().stdin(vec![b'a'; 24]);
        let mut argv = vec!["exp1".to_owned()];
        argv.extend(extra_args);
        world = world.args(argv);
        for e in &envs {
            world = world.env(e);
        }
        let out = Machine::from_c(synthetic::EXP1_SOURCE)
            .unwrap()
            .world(world)
            .run();
        let alert = out.reason.alert().expect("still detected");
        prop_assert_eq!(alert.pointer, 0x6161_6161);
        prop_assert_eq!(alert.instr.to_string(), "jr $31");
    }

    /// Overflow length sweep. exp1's buffer holds 10 bytes ending right at
    /// the saved frame pointer (Figure 2's layout), and `scanf("%s")`
    /// appends an *untainted* NUL terminator:
    ///
    /// * `len <= 9` — payload and terminator stay inside the buffer: clean;
    /// * `len == 10` — the terminator (a constant written by the program,
    ///   hence untainted) zeroes one byte of the saved frame pointer:
    ///   corruption *without taint*, which pointer-taintedness detection by
    ///   design cannot see — the process later crashes wild, like the
    ///   Table 4 scenarios;
    /// * `len >= 11` — tainted payload bytes reach the saved frame pointer;
    ///   the epilogue restores it, `$sp` inherits the taint, and the next
    ///   frame access is a tainted dereference — detected;
    /// * `len >= 22` — the full return address is attacker bytes: the
    ///   paper's `jr $31` detection.
    #[test]
    fn overflow_length_boundary(len in 1usize..30) {
        let out = Machine::from_c(synthetic::EXP1_SOURCE)
            .unwrap()
            .world(WorldConfig::new().stdin(vec![b'a'; len]))
            .run();
        if len <= 9 {
            prop_assert_eq!(&out.reason, &ExitReason::Exited(0));
        } else if len == 10 {
            // Untainted-NUL corruption: undetected (and in this layout the
            // zeroed low byte sends the frame pointer into a crash).
            prop_assert!(!out.reason.is_detected(), "len 10: {:?}", out.reason);
        } else {
            let alert = out.reason.alert().expect("frame corruption detected");
            if len >= 22 {
                prop_assert_eq!(alert.instr.to_string(), "jr $31");
            }
        }
    }

    /// Functional and pipelined execution always agree on outcome and
    /// retired-instruction count for benign programs with arbitrary input.
    #[test]
    fn pipeline_functional_equivalence(input in proptest::collection::vec(any::<u8>(), 0..64)) {
        let m = Machine::from_c(
            r#"int main() {
                char buf[128];
                int i;
                int n = read(0, buf, 100);
                int acc = 7;
                for (i = 0; i < n; i++) acc = acc * 31 + (buf[i] & 0xff);
                printf("%x\n", acc);
                return 0;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(input));
        let plain = m.run();
        let run = m.run_with(&RunConfig { pipeline: true, ..RunConfig::default() });
        let (piped, report) = (run.outcome, run.pipeline.unwrap());
        prop_assert_eq!(&plain.reason, &piped.reason);
        prop_assert_eq!(plain.stdout, piped.stdout);
        prop_assert_eq!(plain.stats.instructions, report.instructions);
        prop_assert!(report.cycles >= report.instructions);
    }
}

/// The two boundary lengths `overflow_length_boundary` once shrank to
/// (`robustness.proptest-regressions`), promoted to named deterministic
/// regressions: they now run on every `cargo test` by construction, not
/// only when the proptest seed file is honored.
#[test]
fn regression_len_10_untainted_nul_corruption_is_invisible_by_design() {
    // The `scanf("%s")` terminator is a program constant, hence untainted:
    // it zeroes one byte of the saved frame pointer and the process crashes
    // wild without a taint alert — the Table 4 blind spot, pinned.
    let out = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(WorldConfig::new().stdin(vec![b'a'; 10]))
        .run();
    assert!(!out.reason.is_detected(), "len 10: {:?}", out.reason);
    assert_ne!(out.reason, ExitReason::Exited(0), "len 10 must still crash");
}

#[test]
fn regression_len_11_first_tainted_frame_byte_is_detected() {
    // One byte past the untainted-NUL boundary: a tainted payload byte
    // reaches the saved frame pointer, the epilogue restores it, and the
    // next frame access is a tainted dereference.
    let out = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(WorldConfig::new().stdin(vec![b'a'; 11]))
        .run();
    out.reason
        .alert()
        .expect("len 11: frame corruption detected");
}

#[test]
fn detection_point_is_deterministic_across_repeated_runs() {
    let m = Machine::from_c(synthetic::EXP2_SOURCE)
        .unwrap()
        .world(synthetic::exp2_attack_world());
    let first = m.run();
    for _ in 0..5 {
        let again = m.run();
        assert_eq!(first.reason, again.reason);
        assert_eq!(first.stats.instructions, again.stats.instructions);
    }
}

#[test]
fn step_limited_attack_still_reports_truthfully() {
    // With a budget too small to reach the vulnerable code, the run ends at
    // the limit without claiming detection.
    let out = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world())
        .step_limit(50)
        .run();
    assert_eq!(out.reason, ExitReason::StepLimit);
}

#[test]
fn all_three_policies_agree_on_fully_benign_programs() {
    let m = Machine::from_c(
        r#"int main() {
            int i; int s = 0;
            for (i = 0; i < 50; i++) s += i;
            printf("%d", s);
            return 0;
        }"#,
    )
    .unwrap();
    for policy in [
        DetectionPolicy::Off,
        DetectionPolicy::ControlOnly,
        DetectionPolicy::PointerTaintedness,
    ] {
        let out = m.clone().policy(policy).run();
        assert_eq!(out.stdout_text(), "1225", "{policy}");
    }
}

#[test]
fn oversized_globals_are_a_build_error_not_a_panic() {
    // 128 globals of 16 MiB cannot fit between the data base and the stack
    // top: the assembler refuses the segment on the first global that
    // would pass it, instead of overflowing its data cursor.
    let globals: String = (0..128)
        .map(|i| format!("char big{i}[16777216];\n"))
        .collect();
    let src = format!("{globals}int main() {{ return 0; }}\n");
    match ptaint_guest::build(&src) {
        Err(ptaint_guest::BuildError::Assemble(e)) => {
            assert!(e.msg.contains("stack top"), "{e}");
        }
        other => panic!("expected an assembly error, got {other:?}"),
    }
}
