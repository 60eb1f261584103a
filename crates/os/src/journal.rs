//! Deterministic syscall record/replay.
//!
//! Record mode logs every syscall the kernel services — number, arguments,
//! result, and any tainted bytes delivered into guest memory. Replay mode
//! re-serves that journal byte-exactly *without consulting the world*: the
//! guest sees the same results, the same tainted bytes at the same
//! addresses, in the same order. Because everything the guest can observe
//! flows through `$v0` and delivered buffers, a replayed run is
//! instruction-exact with the recorded one.
//!
//! If the guest under replay issues a syscall the journal did not record
//! (different number, different arguments, or past the journal's end), the
//! run stops with a structured [`ReplayDivergence`] — never a panic. A
//! divergence means the execution being replayed is *not* the recorded one
//! (different image, different fault plan, nondeterminism), which is
//! precisely the forensic signal record/replay exists to surface.
//!
//! The on-disk format is a versioned line-oriented text file:
//!
//! ```text
//! ptaint-journal v1
//! syscall 3 0 268435456 64 -> 6
//! data 268435456 read 0 61747461636b
//! ```
//!
//! `syscall <number> <a0> <a1> <a2> -> <result>` per serviced call, followed
//! by an optional `data <buf> <source> <fd> <hex>` line when the call
//! delivered tainted bytes.

use std::fmt;

/// Magic first line of a serialized journal.
const HEADER: &str = "ptaint-journal v1";

/// Tainted bytes the kernel copied into a guest buffer while servicing one
/// syscall (`read`/`recv` delivery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredInput {
    /// Guest address the bytes landed at.
    pub buf: u32,
    /// The delivered bytes (journalled verbatim; re-served on replay).
    pub data: Vec<u8>,
    /// Taint-source name (`read` or `recv`), for provenance labels.
    pub source: String,
    /// Descriptor the guest read from, for provenance labels.
    pub fd: i32,
}

/// One serviced syscall: what the guest asked, what the kernel answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Syscall number (`$v0` at the trap).
    pub number: u32,
    /// Arguments (`$a0..$a2` at the trap).
    pub args: [u32; 3],
    /// Result written back to `$v0`.
    pub result: i32,
    /// Tainted bytes delivered into guest memory, if any.
    pub delivered: Option<DeliveredInput>,
}

impl JournalEntry {
    /// Human-readable call summary, used on both sides of a divergence
    /// report.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "syscall {} ({:#x}, {:#x}, {:#x})",
            self.number, self.args[0], self.args[1], self.args[2]
        )
    }
}

/// A recorded syscall sequence, replayable byte-exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallJournal {
    /// The serviced calls, in order.
    pub entries: Vec<JournalEntry>,
}

impl SyscallJournal {
    /// An empty journal (record mode starts here).
    #[must_use]
    pub fn new() -> SyscallJournal {
        SyscallJournal::default()
    }

    /// Number of recorded calls.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to the versioned text format (see module docs). The
    /// output is deterministic: same journal, same bytes.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!(
                "syscall {} {} {} {} -> {}\n",
                e.number, e.args[0], e.args[1], e.args[2], e.result
            ));
            if let Some(d) = &e.delivered {
                out.push_str(&format!(
                    "data {} {} {} {}\n",
                    d.buf,
                    d.source,
                    d.fd,
                    hex_encode(&d.data)
                ));
            }
        }
        out
    }

    /// Parses the text format back into a journal.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalFormatError`] naming the offending line on any
    /// header mismatch, malformed record, or dangling `data` line.
    pub fn from_text(text: &str) -> Result<SyscallJournal, JournalFormatError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, line)) if line.trim_end() == HEADER => {}
            _ => {
                return Err(JournalFormatError {
                    line: 1,
                    detail: format!("expected header `{HEADER}`"),
                })
            }
        }
        let mut journal = SyscallJournal::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let err = |detail: String| JournalFormatError {
                line: lineno,
                detail,
            };
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("syscall") => {
                    let mut num = |what: &str| -> Result<u32, JournalFormatError> {
                        fields
                            .next()
                            .and_then(|f| f.parse::<u32>().ok())
                            .ok_or_else(|| err(format!("bad or missing {what}")))
                    };
                    let number = num("syscall number")?;
                    let args = [num("a0")?, num("a1")?, num("a2")?];
                    if fields.next() != Some("->") {
                        return Err(err("expected `->` before result".to_string()));
                    }
                    let result = fields
                        .next()
                        .and_then(|f| f.parse::<i32>().ok())
                        .ok_or_else(|| err("bad or missing result".to_string()))?;
                    journal.entries.push(JournalEntry {
                        number,
                        args,
                        result,
                        delivered: None,
                    });
                }
                Some("data") => {
                    let buf = fields
                        .next()
                        .and_then(|f| f.parse::<u32>().ok())
                        .ok_or_else(|| err("bad or missing buffer address".to_string()))?;
                    let source = fields
                        .next()
                        .ok_or_else(|| err("missing source name".to_string()))?
                        .to_string();
                    let fd = fields
                        .next()
                        .and_then(|f| f.parse::<i32>().ok())
                        .ok_or_else(|| err("bad or missing fd".to_string()))?;
                    let data = hex_decode(
                        fields
                            .next()
                            .ok_or_else(|| err("missing hex payload".to_string()))?,
                    )
                    .map_err(&err)?;
                    let entry = journal
                        .entries
                        .last_mut()
                        .ok_or_else(|| err("data line before any syscall".to_string()))?;
                    if entry.delivered.is_some() {
                        return Err(err("second data line for one syscall".to_string()));
                    }
                    entry.delivered = Some(DeliveredInput {
                        buf,
                        data,
                        source,
                        fd,
                    });
                }
                Some(other) => {
                    return Err(err(format!("unknown record kind `{other}`")));
                }
                None => unreachable!("empty lines are skipped above"),
            }
            if let Some(extra) = fields.next() {
                return Err(err(format!("trailing field `{extra}`")));
            }
        }
        Ok(journal)
    }
}

/// A malformed journal file: the line and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalFormatError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for JournalFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for JournalFormatError {}

/// Replay stopped because the guest issued a call the journal did not
/// record — a structured outcome, never a panic. The indices and call
/// summaries tell the forensic user *where* the execution being replayed
/// departed from the recorded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// 0-based position in the journal where replay stopped.
    pub index: usize,
    /// What the journal recorded at that position (or `<end of journal>`).
    pub expected: String,
    /// What the guest actually issued.
    pub actual: String,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at call #{}: journal recorded {}, guest issued {}",
            self.index, self.expected, self.actual
        )
    }
}

fn hex_encode(data: &[u8]) -> String {
    use fmt::Write;
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_string());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| "non-hex payload byte".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SyscallJournal {
        SyscallJournal {
            entries: vec![
                JournalEntry {
                    number: 42,
                    args: [0, 0, 0],
                    result: 3,
                    delivered: None,
                },
                JournalEntry {
                    number: 46,
                    args: [3, 0x1000_0000, 64],
                    result: 5,
                    delivered: Some(DeliveredInput {
                        buf: 0x1000_0000,
                        data: b"GET /".to_vec(),
                        source: "recv".to_string(),
                        fd: 3,
                    }),
                },
                JournalEntry {
                    number: 1,
                    args: [0, 0, 0],
                    result: 0,
                    delivered: None,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let journal = sample();
        let text = journal.to_text();
        assert!(text.starts_with("ptaint-journal v1\n"));
        assert_eq!(SyscallJournal::from_text(&text).unwrap(), journal);
        // Serialization is deterministic.
        assert_eq!(journal.to_text(), text);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(SyscallJournal::from_text("").is_err());
        assert!(SyscallJournal::from_text("not a journal\n").is_err());
        let bad_result = "ptaint-journal v1\nsyscall 3 0 0 0 -> x\n";
        assert_eq!(SyscallJournal::from_text(bad_result).unwrap_err().line, 2);
        let dangling_data = "ptaint-journal v1\ndata 0 read 0 00\n";
        assert!(SyscallJournal::from_text(dangling_data).is_err());
        let odd_hex = "ptaint-journal v1\nsyscall 3 0 0 0 -> 1\ndata 0 read 0 0\n";
        assert!(SyscallJournal::from_text(odd_hex).is_err());
        let double_data =
            "ptaint-journal v1\nsyscall 3 0 0 0 -> 1\ndata 0 read 0 00\ndata 0 read 0 00\n";
        assert!(SyscallJournal::from_text(double_data).is_err());
        let trailing_syscall = "ptaint-journal v1\nsyscall 4 1 2 3 -> 5 junk\n";
        assert_eq!(
            SyscallJournal::from_text(trailing_syscall)
                .unwrap_err()
                .line,
            2
        );
        let trailing_data = "ptaint-journal v1\nsyscall 3 0 0 0 -> 1\ndata 0 read 0 00 ff\n";
        assert_eq!(
            SyscallJournal::from_text(trailing_data).unwrap_err().line,
            3
        );
    }

    #[test]
    fn negative_results_roundtrip() {
        let journal = SyscallJournal {
            entries: vec![JournalEntry {
                number: 3,
                args: [9, 0, 0],
                result: -1,
                delivered: None,
            }],
        };
        let text = journal.to_text();
        assert!(text.contains("-> -1"));
        assert_eq!(SyscallJournal::from_text(&text).unwrap(), journal);
    }

    #[test]
    fn divergence_display_names_both_sides() {
        let d = ReplayDivergence {
            index: 4,
            expected: "syscall 3 (0x0, 0x1000, 0x40)".to_string(),
            actual: "syscall 4 (0x1, 0x1000, 0x40)".to_string(),
        };
        let msg = d.to_string();
        assert!(msg.contains("call #4"));
        assert!(msg.contains("recorded syscall 3"));
        assert!(msg.contains("issued syscall 4"));
    }
}
