//! The JSONL trace sink: one event per line, each with a sequence number.

use crate::event::Event;

/// Buffers the event stream as JSON Lines.
///
/// Each event becomes `{"seq":N,...event fields...}` followed by `\n`. The
/// buffer is in-memory; callers (the CLI's `--trace-out`, tests) decide
/// where the bytes end up.
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: Vec<u8>,
    seq: u64,
}

impl JsonlSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// Appends one event line.
    pub fn record(&mut self, event: &Event) {
        self.record_fields(&event.json_fields());
    }

    /// Appends one line from pre-rendered JSON fields (no enclosing braces;
    /// the sink supplies them plus the sequence number). Interleaves
    /// non-`Event` records — the periodic `metrics_snapshot` rows — into the
    /// stream under the same dense numbering.
    pub fn record_fields(&mut self, fields: &str) {
        self.buf.extend_from_slice(b"{\"seq\":");
        self.buf.extend_from_slice(self.seq.to_string().as_bytes());
        self.buf.push(b',');
        self.buf.extend_from_slice(fields.as_bytes());
        self.buf.extend_from_slice(b"}\n");
        self.seq += 1;
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.seq
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }

    /// The accumulated JSONL bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A borrowed view of the accumulated bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_carry_monotonic_sequence_numbers() {
        let mut sink = JsonlSink::new();
        for i in 0..3u32 {
            sink.record(&Event::Syscall {
                pc: i * 4,
                number: 4001,
                name: "exit",
                result: 0,
            });
        }
        let text = String::from_utf8(sink.into_bytes()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"seq\":0,\"event\":\"syscall\""));
        assert!(lines[2].starts_with("{\"seq\":2,"));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }
}
