//! An LBNL-traceroute-style utility with the *double free* vulnerability
//! (BID-1739), reproducing the paper's §5.1.2 experiment.
//!
//! `savestr()` hands out memory from one shared slab; the gateway
//! registration path frees the returned pointer — which is the slab itself.
//! With `-g x -g y` on the command line, the second `savestr` writes the
//! (tainted) argument string into the *already freed* chunk, clobbering its
//! `fd`/`bk` list links; the second `free` then takes the buggy
//! "already-free → unlink first" path and dereferences the argv bytes as a
//! chunk pointer. The paper reports the alert at a store inside `free()`
//! whose pointer is `0x333231` — the bytes `"123"` of the attacker's
//! argument; our allocator alerts on the same unlink store with the
//! corresponding argv-derived pointer.

use ptaint_os::WorldConfig;

/// The traceroute-like tool.
pub const SOURCE: &str = r#"
char *tr_slab;

/* LBNL savestr(): amortize allocations by carving from one shared slab. */
char *savestr(char *s) {
    char *p;
    if (!tr_slab) {
        tr_slab = malloc(500);
    }
    p = tr_slab;
    strcpy(p, s);
    return p;
}

void register_gateway(char *spec) {
    char *gw;
    gw = savestr(spec);
    printf("gateway %s\n", gw);
    /* BID-1739: releases savestr's shared slab. The second -g frees the
     * same chunk again. */
    free(gw);
}

int main(int argc, char **argv) {
    int i;
    for (i = 1; i < argc; i++) {
        if (strcmp(argv[i], "-g") == 0 && i + 1 < argc) {
            register_gateway(argv[i + 1]);
            i++;
        } else {
            printf("probing %s\n", argv[i]);
        }
    }
    printf("traceroute done\n");
    return 0;
}
"#;

/// The paper's attacking command line: `traceroute -g 123 -g 5.6.7.8`.
#[must_use]
pub fn attack_world() -> WorldConfig {
    WorldConfig::new().args(["traceroute", "-g", "123", "-g", "5.6.7.8"])
}

/// A benign command line with a single gateway.
#[must_use]
pub fn benign_world() -> WorldConfig {
    WorldConfig::new().args(["traceroute", "-g", "10.0.0.1", "example.host"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_app;
    use crate::build;
    use ptaint_asm::Image;
    use ptaint_cpu::{AlertKind, DetectionPolicy};
    use ptaint_os::ExitReason;

    fn image() -> Image {
        build(SOURCE).unwrap()
    }

    #[test]
    fn double_free_detected_with_argv_bytes_as_pointer() {
        let image = image();
        let out = run_app(&image, attack_world(), DetectionPolicy::PointerTaintedness);
        let alert = out.reason.alert().expect("double free must be detected");
        assert_eq!(alert.kind, AlertKind::DataPointer);
        // The dereferenced pointer is built from the second argument's bytes
        // ("5.6." = 0x2e362e35) that overwrote the freed chunk's fd link
        // (the unlink store's address operand is fd + 12).
        assert_eq!(alert.pointer, 0x2e36_2e35 + 12);
        // And it fires inside the allocator.
        let unlink = image.symbol("__unlink").unwrap();
        assert!(
            alert.pc >= unlink && alert.pc < unlink + 0x100,
            "alert pc {:#x}",
            alert.pc
        );
    }

    #[test]
    fn crashes_without_protection() {
        // The paper: "traceroute crashes because free() is using an invalid
        // pointer" — the wild unlink store lands on an unaligned address.
        let out = run_app(&image(), attack_world(), DetectionPolicy::Off);
        assert!(
            matches!(out.reason, ExitReason::MemFault(_)),
            "{:?}",
            out.reason
        );
    }

    #[test]
    fn benign_run_is_clean() {
        let out = run_app(
            &image(),
            benign_world(),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let text = out.stdout_text();
        assert!(text.contains("gateway 10.0.0.1"), "{text}");
        assert!(text.contains("probing example.host"), "{text}");
        assert!(text.contains("traceroute done"), "{text}");
    }
}
