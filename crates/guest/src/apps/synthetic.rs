//! The synthetic vulnerable functions of the paper's Figure 2 / §5.1.1:
//! exp1 (stack buffer overflow), exp2 (heap corruption), exp3 (format
//! string).

use ptaint_os::{NetSession, WorldConfig};

/// `exp1()` — the paper's stack smashing example: a 10-byte stack buffer
/// filled by an unbounded `scanf("%s", buf)`. Overflowing input overwrites
/// the saved frame pointer and then the return address (Figure 2, top).
pub const EXP1_SOURCE: &str = r#"
void exp1() {
    char buf[10];
    scanf("%s", buf);
}

int main() {
    exp1();
    printf("exp1 returned normally\n");
    return 0;
}
"#;

/// The paper's exp1 attack input: 24 `'a'` characters. Bytes 14..18 of the
/// overflow land in the saved return address, so `exp1` returns to
/// `0x61616161` — the value the paper reports in its alert.
#[must_use]
pub fn exp1_attack_world() -> WorldConfig {
    WorldConfig::new().stdin(vec![b'a'; 24])
}

/// A benign exp1 input that fits the buffer.
#[must_use]
pub fn exp1_benign_world() -> WorldConfig {
    WorldConfig::new().stdin(b"short".to_vec())
}

/// `exp2()` — the paper's heap corruption example: an 8-byte heap buffer
/// overflowed into the free chunk that physically follows it, corrupting
/// the chunk's forward/backward links; `free()`'s coalescing unlink then
/// dereferences the attacker's words (Figure 2, middle).
pub const EXP2_SOURCE: &str = r#"
int main() {
    char *buf;
    char *scratch;
    buf = malloc(8);
    scratch = malloc(64);
    free(scratch);              /* leaves a free chunk right after buf */
    scanf("%s", buf);           /* unbounded: overruns into the free chunk */
    free(buf);                  /* unlink dereferences corrupted fd/bk */
    printf("exp2 returned normally\n");
    return 0;
}
"#;

/// exp2 attack input. `buf`'s chunk holds 16 payload bytes; the following
/// free chunk's header starts right after:
///
/// ```text
/// [16 filler] [prev_size: 4] [size: 0x28, even] [fd: "aaaa"] [bk: "aaaa"]
/// ```
///
/// The forged `size` keeps its in-use bit clear so `free(buf)` coalesces
/// forward and unlinks the chunk through the tainted `fd = 0x61616161`.
#[must_use]
pub fn exp2_attack_world() -> WorldConfig {
    let mut payload = vec![b'a'; 16]; // fill buf's chunk payload
    payload.extend_from_slice(&40u32.to_le_bytes()); // prev_size (unused)
    payload.extend_from_slice(&40u32.to_le_bytes()); // size: even, >= 24
    payload.extend_from_slice(b"aaaa"); // fd -> 0x61616161
    payload.extend_from_slice(b"aaaa"); // bk
    WorldConfig::new().stdin(payload)
}

/// Benign exp2 input that stays within the 8 requested bytes.
#[must_use]
pub fn exp2_benign_world() -> WorldConfig {
    WorldConfig::new().stdin(b"ok".to_vec())
}

/// `exp3()` — the paper's format string example: a socket-filled buffer
/// passed to `printf` as the format argument (Figure 2, bottom). `%x` pads
/// march the argument pointer `ap` up the stack into `buf`, and the `%n`
/// store then dereferences `buf[0..4] = 0x64636261` ("abcd"). The paper's
/// libc frame geometry needed three pads (`abcd%x%x%x%n`); our guest libc
/// needs one (`abcd%x%n`) — the calibration helper discovers the count, and
/// the detection event is byte-for-byte the paper's: a store through the
/// tainted word `0x64636261`.
pub const EXP3_SOURCE: &str = r#"
int exp3(int s) {
    char buf[100];
    int n;
    n = recv(s, buf, 99, 0);
    if (n < 0) return -1;
    buf[n] = 0;
    printf(buf);                /* format-string vulnerability */
    return n;
}

int main() {
    int s;
    int c;
    s = socket();
    bind(s, 7);
    listen(s);
    c = accept(s);
    exp3(c);
    send(c, "done\n", 5);
    return 0;
}
"#;

/// The paper's exp3 attack string with a configurable number of `%x`
/// pads (the paper's stack layout needs exactly three).
#[must_use]
pub fn exp3_attack_world(pad: usize) -> WorldConfig {
    let mut msg = b"abcd".to_vec();
    msg.extend_from_slice("%x".repeat(pad).as_bytes());
    msg.extend_from_slice(b"%n");
    WorldConfig::new().session(NetSession::new(vec![msg]))
}

/// A benign exp3 message without format directives.
#[must_use]
pub fn exp3_benign_world() -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![b"plain text".to_vec()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{calibrate_format_pad, run_app};
    use crate::build;
    use ptaint_cpu::{AlertKind, DetectionPolicy};
    use ptaint_os::ExitReason;

    #[test]
    fn exp1_detected_at_return_instruction() {
        let image = build(EXP1_SOURCE).unwrap();
        let out = run_app(
            &image,
            exp1_attack_world(),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("stack smash must be detected");
        // The paper: alert at `jr $31`, return address tainted 0x61616161.
        assert_eq!(alert.kind, AlertKind::JumpPointer);
        assert_eq!(alert.instr.to_string(), "jr $31");
        assert_eq!(alert.pointer, 0x6161_6161);
    }

    #[test]
    fn exp1_crashes_wild_without_protection() {
        let image = build(EXP1_SOURCE).unwrap();
        let out = run_app(&image, exp1_attack_world(), DetectionPolicy::Off);
        // Control flow lands at 0x61616161 — a crash, or worse if the
        // attacker had placed real code bytes there.
        assert!(
            matches!(
                out.reason,
                ExitReason::MemFault(_) | ExitReason::DecodeFault(_)
            ),
            "{:?}",
            out.reason
        );
    }

    #[test]
    fn exp1_benign_run_is_clean() {
        let image = build(EXP1_SOURCE).unwrap();
        for policy in [
            DetectionPolicy::PointerTaintedness,
            DetectionPolicy::ControlOnly,
            DetectionPolicy::Off,
        ] {
            let out = run_app(&image, exp1_benign_world(), policy);
            assert_eq!(out.reason, ExitReason::Exited(0), "{policy}");
            assert_eq!(out.stdout_text(), "exp1 returned normally\n");
        }
    }

    #[test]
    fn exp2_detected_inside_free() {
        let image = build(EXP2_SOURCE).unwrap();
        let out = run_app(
            &image,
            exp2_attack_world(),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out
            .reason
            .alert()
            .expect("heap corruption must be detected");
        assert_eq!(alert.kind, AlertKind::DataPointer);
        // The dereferenced pointer derives from the attacker's "aaaa" links.
        assert_eq!(alert.pointer & 0xffff_ff00, 0x6161_6100);
        // The alert fires inside the allocator's unlink.
        let unlink = image.symbol("__unlink").unwrap();
        let free_fn = image.symbol("free").unwrap();
        assert!(
            alert.pc >= unlink && alert.pc < free_fn + 0x200,
            "alert pc {:#x} not inside the allocator (unlink at {unlink:#x})",
            alert.pc
        );
    }

    #[test]
    fn exp2_benign_run_is_clean() {
        let image = build(EXP2_SOURCE).unwrap();
        let out = run_app(
            &image,
            exp2_benign_world(),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
    }

    #[test]
    fn exp3_detected_at_percent_n_store_with_papers_pointer() {
        let image = build(EXP3_SOURCE).unwrap();
        let pad = calibrate_format_pad(&image, exp3_attack_world, 0x6463_6261, 16)
            .expect("some pad count must reach the buffer");
        // The paper's vfprintf needed three %x pads; our printf frame
        // geometry needs one. Either way ap lands on buf[0..4].
        assert_eq!(pad, 1, "guest libc frame geometry");
        let out = run_app(
            &image,
            exp3_attack_world(pad),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("format string must be detected");
        assert_eq!(alert.kind, AlertKind::DataPointer);
        assert_eq!(
            alert.pointer, 0x6463_6261,
            "first four payload bytes 'abcd'"
        );
        assert!(
            alert.instr.to_string().starts_with("sw "),
            "{}",
            alert.instr
        );
    }

    #[test]
    fn exp3_benign_run_is_clean() {
        let image = build(EXP3_SOURCE).unwrap();
        let out = run_app(
            &image,
            exp3_benign_world(),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.transcripts[0], b"done\n");
    }
}
