//! A LibC-globbing attack (the remaining Figure 1 vulnerability category,
//! in the style of CERT CA-2001-07 / the WU-FTPD `~user` glob heap
//! overflow).
//!
//! The daemon expands `~user` prefixes into a fixed-size heap buffer with
//! an unbounded copy, then glob-matches the expanded pattern against its
//! file table. An over-long "username" overflows the tilde buffer into the
//! free chunk that follows it, forging its `fd`/`bk` links; the
//! `free(home)` after matching walks the forged links — the same
//! heap-corruption detection point as exp2/NULL HTTPD.

use ptaint_os::{NetSession, WorldConfig};

/// The glob daemon: accepts `LIST <pattern>` requests.
pub const SOURCE: &str = r#"
char files[6][24];
int nfiles;

void add_file(char *name) {
    strcpy(files[nfiles], name);
    nfiles++;
}

/* Classic recursive glob matcher: `*` any run, `?` any char. */
int glob_match(char *pat, char *name) {
    if (*pat == 0) return *name == 0;
    if (*pat == '*') {
        if (glob_match(pat + 1, name)) return 1;
        if (*name && glob_match(pat, name + 1)) return 1;
        return 0;
    }
    if (*name == 0) return 0;
    if (*pat == '?' || *pat == *name) return glob_match(pat + 1, name + 1);
    return 0;
}

void reply(int s, char *msg) {
    send(s, msg, strlen(msg));
}

/* Tilde expansion with a fixed 32-byte home buffer and an unbounded copy
 * of the user name — the globbing bug class. Returns the malloc'd buffer
 * (caller frees). */
char *expand_tilde(char *pattern, char **rest_out) {
    char *home;
    char *p;
    int i;
    home = malloc(32);
    p = pattern + 1;            /* skip '~' */
    i = 0;
    while (*p && *p != '/') {
        home[i] = *p;           /* no bound check */
        i++;
        p++;
    }
    home[i] = 0;
    *rest_out = p;
    return home;
}

void handle_list(int s, char *pattern) {
    char *home;
    char *rest;
    int i;
    int shown = 0;
    if (pattern[0] == '~') {
        home = expand_tilde(pattern, &rest);
        reply(s, "150 listing for home ");
        reply(s, home);
        reply(s, "\r\n");
        pattern = rest;
        if (*pattern == '/') pattern++;
        free(home);             /* <- detection point after an overflow */
    }
    for (i = 0; i < nfiles; i++) {
        if (glob_match(pattern, files[i])) {
            reply(s, files[i]);
            reply(s, "\r\n");
            shown++;
        }
    }
    if (shown == 0) reply(s, "550 no match\r\n");
    else reply(s, "226 done\r\n");
}

int main() {
    char req[512];
    int s;
    int c;
    int n;
    char *scratch;
    add_file("notes.txt");
    add_file("todo.txt");
    add_file("a.out");
    add_file("readme.md");
    /* Heap churn leaves a free chunk for the tilde buffer to split. */
    scratch = malloc(200);
    free(scratch);
    s = socket();
    bind(s, 21);
    listen(s);
    c = accept(s);
    while (1) {
        n = recv(c, req, 511, 0);
        if (n <= 0) break;
        req[n] = 0;
        if (strncmp(req, "LIST ", 5) == 0) {
            handle_list(c, req + 5);
        } else if (strncmp(req, "QUIT", 4) == 0) {
            reply(c, "221 bye\r\n");
            break;
        } else {
            reply(c, "500 unknown\r\n");
        }
    }
    close(c);
    return 0;
}
"#;

/// The attack pattern: a "username" that fills the 32-byte tilde buffer
/// and forges the following free chunk's header and links
/// (`fd = "aaaa" = 0x61616161`).
#[must_use]
pub fn attack_world() -> WorldConfig {
    // The copy loop stops at NUL or '/', so every forged byte must avoid
    // both — the same constraint real glob exploits faced. The forged size
    // "...." = 0x2e2e2e2e is even (chunk looks free) and large (passes the
    // minimum-size check).
    let mut pattern = b"LIST ~".to_vec();
    pattern.extend_from_slice(&[b'A'; 32]); // fill home's chunk payload
    pattern.extend_from_slice(b"...."); // prev_size (ignored)
    pattern.extend_from_slice(b"...."); // forged size: even, >= 24
    pattern.extend_from_slice(b"aaaa"); // fd -> 0x61616161
    pattern.extend_from_slice(b"aaaa"); // bk
    pattern.extend_from_slice(b"/*.txt");
    WorldConfig::new().session(NetSession::new(vec![pattern, b"QUIT".to_vec()]))
}

/// A benign glob session.
#[must_use]
pub fn benign_world() -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![
        b"LIST *.txt".to_vec(),
        b"LIST ~bob/readme.??".to_vec(),
        b"LIST nomatch-*".to_vec(),
        b"QUIT".to_vec(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_app;
    use crate::build;
    use ptaint_cpu::{AlertKind, DetectionPolicy};
    use ptaint_os::ExitReason;

    #[test]
    fn glob_attack_detected_in_free() {
        let image = build(SOURCE).unwrap();
        let out = run_app(&image, attack_world(), DetectionPolicy::PointerTaintedness);
        let alert = out.reason.alert().expect("glob overflow must be detected");
        assert_eq!(alert.kind, AlertKind::DataPointer);
        assert_eq!(alert.pointer & 0xffff_ff00, 0x6161_6100);
        let unlink = image.symbol("__unlink").unwrap();
        assert!(
            (unlink..unlink + 0x100).contains(&alert.pc),
            "{:#x}",
            alert.pc
        );
    }

    #[test]
    fn glob_attack_unprotected_crashes_or_corrupts() {
        let image = build(SOURCE).unwrap();
        let out = run_app(&image, attack_world(), DetectionPolicy::Off);
        assert!(
            matches!(out.reason, ExitReason::MemFault(_) | ExitReason::Exited(_)),
            "{:?}",
            out.reason
        );
        assert!(!out.reason.is_detected());
    }

    #[test]
    fn benign_globbing_works() {
        let image = build(SOURCE).unwrap();
        let out = run_app(&image, benign_world(), DetectionPolicy::PointerTaintedness);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let t = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(t.contains("notes.txt"), "{t}");
        assert!(t.contains("todo.txt"), "{t}");
        assert!(t.contains("150 listing for home bob"), "{t}");
        assert!(t.contains("readme.md"), "{t}");
        assert!(t.contains("550 no match"), "{t}");
    }

    #[test]
    fn glob_matcher_semantics() {
        // Exercise the matcher through the daemon with targeted patterns.
        let image = build(SOURCE).unwrap();
        let world = WorldConfig::new().session(NetSession::new(vec![
            b"LIST ?.out".to_vec(),
            b"LIST *o*".to_vec(),
            b"QUIT".to_vec(),
        ]));
        let out = run_app(&image, world, DetectionPolicy::PointerTaintedness);
        let t = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(t.contains("a.out"), "{t}");
        assert!(t.contains("notes.txt") && t.contains("todo.txt"), "{t}");
    }
}
