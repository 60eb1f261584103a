//! Table 2 — attacking WU-FTPD on the proposed architecture: the full
//! client/server session transcript ending in the detector's alert.

use std::fmt;

use ptaint_cpu::{DetectionPolicy, SecurityAlert};
use ptaint_guest::apps::{run_app, scenario};

/// Who said a transcript line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Speaker {
    /// The FTP server (the victim).
    Server,
    /// The FTP client (the attacker).
    Client,
    /// The pointer-taintedness detector.
    Detector,
}

/// One line of the Table 2 transcript.
#[derive(Debug, Clone)]
pub struct TranscriptLine {
    /// Who produced the line.
    pub speaker: Speaker,
    /// The text.
    pub text: String,
}

/// The reproduced Table 2.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// The session transcript, in order.
    pub lines: Vec<TranscriptLine>,
    /// The detection alert that stopped the attack.
    pub alert: SecurityAlert,
    /// Address of the targeted `session_uid` word.
    pub target_address: u32,
    /// Calibrated `%x` pad count used by the exploit.
    pub pad: usize,
}

/// Runs the suite's WU-FTPD attack session under full detection and
/// reconstructs the paper's Table 2 transcript.
///
/// # Panics
///
/// Panics if the attack goes undetected (that would falsify the
/// reproduction).
#[must_use]
pub fn run_wu_ftpd_transcript() -> Table2Report {
    let ftpd = scenario("wu_ftpd");
    let out = run_app(
        &ftpd.image,
        ftpd.attack.clone(),
        DetectionPolicy::PointerTaintedness,
    );
    let alert = *out.reason.alert().expect("attack detected");

    // Reconstruct the conversation: client lines are the scripted session,
    // up to the first message the server never answered; server lines come
    // from the captured transcript.
    let mut lines = Vec::new();
    let server_text = String::from_utf8_lossy(&out.transcripts[0]).into_owned();
    let mut server_lines = server_text.lines();
    if let Some(banner) = server_lines.next() {
        lines.push(TranscriptLine {
            speaker: Speaker::Server,
            text: banner.trim().to_owned(),
        });
    }
    let messages = &ftpd.attack.sessions[0].messages;
    for msg in messages {
        lines.push(TranscriptLine {
            speaker: Speaker::Client,
            text: escape(msg),
        });
        match server_lines.next().map(str::trim) {
            Some(reply) if !reply.is_empty() => lines.push(TranscriptLine {
                speaker: Speaker::Server,
                text: reply.to_owned(),
            }),
            Some(_) => {}
            None => break,
        }
    }
    lines.push(TranscriptLine {
        speaker: Speaker::Detector,
        text: alert.to_string(),
    });

    let pad = messages
        .iter()
        .map(|m| m.windows(2).filter(|w| w == b"%x").count())
        .max()
        .unwrap_or(0);
    Table2Report {
        lines,
        alert,
        target_address: ftpd.pointer.expect("the uid word is the target"),
        pad,
    }
}

/// Renders a client message, escaping non-printable bytes as `\xNN`.
fn escape(msg: &[u8]) -> String {
    msg.iter()
        .map(|&b| match b {
            0x20..=0x7e => char::from(b).to_string(),
            _ => format!("\\x{b:02x}"),
        })
        .collect()
}

impl fmt::Display for Table2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2 — attacking WU-FTPD on the proposed architecture"
        )?;
        writeln!(
            f,
            "  (target word session_uid at {:#010x}, calibrated pad = {} %x directives)\n",
            self.target_address, self.pad
        )?;
        for line in &self.lines {
            let who = match line.speaker {
                Speaker::Server => "FTP Server",
                Speaker::Client => "FTP Client",
                Speaker::Detector => "Alert",
            };
            writeln!(f, "  {who:<11} {}", line.text)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_cpu::AlertKind;

    #[test]
    fn transcript_reproduces_table_2() {
        let report = run_wu_ftpd_transcript();
        // The alert is a store-word through the tainted uid address —
        // the paper's `sw $21,0($3)  $3=0x1002bc20` shape.
        assert_eq!(report.alert.kind, AlertKind::DataPointer);
        assert_eq!(report.alert.pointer, report.target_address);
        assert!(report.alert.instr.to_string().starts_with("sw "));

        let text = report.to_string();
        assert!(text.contains("220 FTP server"), "{text}");
        assert!(text.contains("USER user1"), "{text}");
        assert!(text.contains("331 Password required"), "{text}");
        assert!(text.contains("PASS xxxxxxx"), "{text}");
        assert!(text.contains("230 User logged in"), "{text}");
        assert!(text.contains("SITE EXEC"), "{text}");
        assert!(text.contains("%n"), "{text}");
        assert!(text.contains("Alert"), "{text}");
    }
}
