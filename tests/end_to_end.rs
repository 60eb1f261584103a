//! Integration: cross-cutting end-to-end properties of the whole stack —
//! compiler → assembler → loader → taint-tracking CPU → virtual OS.

use ptaint::{
    AlertKind, DetectionPolicy, ExitReason, HierarchyConfig, Machine, NetSession, RunConfig,
    WorldConfig,
};

#[test]
fn taint_flows_from_every_input_source_to_detection() {
    // stdin, file, socket, argv, env — all five §4.4 taint sources.
    let deref_stdin = r#"
        int main() {
            int p;
            read(0, (char*)&p, 4);
            return *(int*)p;
        }"#;
    let out = Machine::from_c(deref_stdin)
        .unwrap()
        .world(WorldConfig::new().stdin(b"\x00\x10\x00\x10".to_vec()))
        .run();
    assert!(out.reason.is_detected(), "stdin: {:?}", out.reason);

    let deref_file = r#"
        int main() {
            int p;
            int fd = open("/data", 0);
            read(fd, (char*)&p, 4);
            return *(int*)p;
        }"#;
    let out = Machine::from_c(deref_file)
        .unwrap()
        .world(WorldConfig::new().file("/data", b"\x00\x10\x00\x10".to_vec()))
        .run();
    assert!(out.reason.is_detected(), "file: {:?}", out.reason);

    let deref_socket = r#"
        int main() {
            int p;
            int s = socket();
            int c;
            bind(s, 9); listen(s);
            c = accept(s);
            recv(c, (char*)&p, 4, 0);
            return *(int*)p;
        }"#;
    let out = Machine::from_c(deref_socket)
        .unwrap()
        .world(WorldConfig::new().session(NetSession::new(vec![b"\x00\x10\x00\x10".to_vec()])))
        .run();
    assert!(out.reason.is_detected(), "socket: {:?}", out.reason);

    let deref_argv = r#"
        int main(int argc, char **argv) {
            int p = *(int*)argv[1];
            return *(int*)p;
        }"#;
    let out = Machine::from_c(deref_argv)
        .unwrap()
        .world(WorldConfig::new().args(["prog", "AAAA"]))
        .run();
    assert!(out.reason.is_detected(), "argv: {:?}", out.reason);

    let deref_env = r#"
        int main(int argc, char **argv) {
            /* envp is the third crt0 argument; fetch it from the stack. */
            char **envp = (char**)*((int*)&argv + 1);
            int p = *(int*)envp[0];
            return *(int*)p;
        }"#;
    let out = Machine::from_c(deref_env)
        .unwrap()
        .world(WorldConfig::new().args(["prog"]).env("AAAA"))
        .run();
    assert!(out.reason.is_detected(), "env: {:?}", out.reason);
}

#[test]
fn function_pointer_overwrite_is_caught_as_a_jump_alert() {
    // A control-data variant beyond the paper's exp1: smashing a function
    // pointer. Detected by both PTD and the control-only baseline.
    let source = r#"
        int greet() { printf("hi\n"); return 0; }
        int main() {
            int (*handler)();
            char buf[16];
            handler = greet;
            gets(buf);              /* overflow reaches handler */
            return handler();
        }"#;
    let mut input = vec![b'x'; 16];
    input.extend_from_slice(b"BBBB\n");
    for policy in [
        DetectionPolicy::PointerTaintedness,
        DetectionPolicy::ControlOnly,
    ] {
        let out = Machine::from_c(source)
            .unwrap()
            .world(WorldConfig::new().stdin(input.clone()))
            .policy(policy)
            .run();
        let alert = out
            .reason
            .alert()
            .unwrap_or_else(|| panic!("{policy}: {:?}", out.reason));
        assert_eq!(alert.kind, AlertKind::JumpPointer, "{policy}");
        assert_eq!(alert.pointer, 0x4242_4242, "{policy}");
    }
}

#[test]
fn partial_pointer_corruption_still_detected() {
    // Overwriting a single byte of a stored pointer taints one byte of the
    // word; the OR-gate detector still fires.
    let source = r#"
        int target;
        int main() {
            int *p = &target;
            read(0, (char*)&p, 1);     /* taint only the low byte */
            *p = 7;
            return 0;
        }"#;
    let out = Machine::from_c(source)
        .unwrap()
        .world(WorldConfig::new().stdin(b"\x00".to_vec()))
        .run();
    let alert = out.reason.alert().expect("one tainted byte suffices");
    assert_eq!(alert.taint.count(), 1);
}

#[test]
fn untainting_via_validation_allows_the_dereference() {
    // checked_index models validated input (§4.2): after range validation
    // the value may be used in address arithmetic.
    let source = r#"
        int table[16];
        int main() {
            char buf[8];
            int i;
            scanf("%s", buf);
            i = checked_index(buf[0] - 'a', 0, 15);
            table[i] = 1;
            printf("ok %d", i);
            return 0;
        }"#;
    let out = Machine::from_c(source)
        .unwrap()
        .world(WorldConfig::new().stdin(b"f".to_vec()))
        .run();
    assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
    assert_eq!(out.stdout_text(), "ok 5");
}

#[test]
fn pipelined_and_functional_execution_agree_on_attacks() {
    use ptaint_guest::apps::synthetic;
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world());
    let plain = m.run();
    let piped = m.run_with(&RunConfig {
        pipeline: true,
        ..RunConfig::default()
    });
    assert_eq!(plain.reason, piped.outcome.reason);
    let detection = piped
        .pipeline
        .and_then(|p| p.detection)
        .expect("pipeline records the detection");
    assert_eq!(
        detection.alert,
        *plain.reason.alert().expect("functional alert")
    );
}

#[test]
fn cache_statistics_accumulate_during_real_runs() {
    let m = Machine::from_c(
        r#"int main() {
            int i; int s = 0;
            int a[512];
            for (i = 0; i < 512; i++) a[i] = i;
            for (i = 0; i < 512; i++) s += a[i];
            return s & 0xff;
        }"#,
    )
    .unwrap()
    .hierarchy(HierarchyConfig::two_level());
    // Run manually to inspect the memory system afterwards.
    let (mut cpu, mut os) = ptaint::load(
        m.image(),
        WorldConfig::new(),
        DetectionPolicy::PointerTaintedness,
        HierarchyConfig::two_level(),
    );
    let out = ptaint::run_to_exit(&mut cpu, &mut os, 10_000_000);
    assert!(matches!(out.reason, ExitReason::Exited(_)));
    let l1 = cpu.mem().l1_stats().unwrap();
    assert!(l1.hits > 1000, "{l1:?}");
    assert!(l1.hit_rate() > 0.5, "{l1:?}");
}

#[test]
fn recursive_programs_with_io_run_deeply() {
    let out = Machine::from_c(
        r#"
        int depth(int n) {
            char pad[24];
            pad[0] = n;
            if (n == 0) return pad[0];
            return depth(n - 1) + 1;
        }
        int main() { printf("%d", depth(300)); return 0; }
        "#,
    )
    .unwrap()
    .run();
    assert_eq!(out.stdout_text(), "300");
}

#[test]
fn disassembly_of_built_images_is_renderable() {
    let m = Machine::from_c("int main() { return 0; }").unwrap();
    let text = ptaint::disassemble(m.image());
    assert!(text.contains("<main>:"));
    assert!(text.contains("jr $31"));
    assert!(text.lines().count() > 50);
}

#[test]
fn a_huge_trace_depth_keeps_every_retire_without_reserving_it() {
    // The retire ring grows with what actually retires, so a depth far
    // beyond memory runs like any other and its tail is the whole run.
    let run = Machine::from_c(ptaint_guest::apps::synthetic::EXP1_SOURCE)
        .unwrap()
        .world(ptaint_guest::apps::synthetic::exp1_attack_world())
        .trace_depth(1 << 40)
        .run_with(&RunConfig::default());
    assert!(run.outcome.reason.is_detected(), "{:?}", run.outcome.reason);
    // The tail also holds the instruction the detector stopped.
    assert_eq!(run.tail.len() as u64, run.outcome.stats.instructions);
}
