//! Assembling a unit's fixed leading parts once ([`Prelude`]).

use ptaint_isa::DATA_BASE;

use crate::assemble::build_prelude;
use crate::AsmError;

/// An assembled unit prefix.
///
/// A compiled unit is laid out as `.data` [prefix globals | the rest] and
/// `.text` [prefix code | the rest], so a prefix's globals and code are
/// section prefixes, not a textual one. A prelude is such a prefix
/// assembled ahead of time: its data and text bytes, its labels, the line
/// counts of its two parts, and the statements it could not encode on its
/// own (those naming labels defined later, kept as fixups). See
/// [`assemble_with`](crate::assemble_with) for how a source continues from
/// it. A prelude persists as bytes ([`Prelude::to_bytes`]), so a build
/// script can assemble it and embed the result; reading it back borrows
/// its label names from those bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prelude<'p> {
    /// Data bytes laid out from `DATA_BASE`.
    pub(crate) data: Vec<u8>,
    /// The data cursor after the data part (past `data` after `.space`).
    pub(crate) data_end: u32,
    /// Code words from `TEXT_BASE`; a fixup's words are left 0.
    pub(crate) text: Vec<u32>,
    /// Each code word's line, counted from the text part's `.text` line.
    pub(crate) lines: Vec<u32>,
    pub(crate) data_part: Part<'p>,
    pub(crate) text_part: Part<'p>,
}

/// One part of a prelude. Lines count from the part's section line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Part<'p> {
    /// How many lines the part spans.
    pub(crate) lines: u32,
    /// Labels in definition order: name, line, address.
    pub(crate) labels: Vec<(&'p str, u32, u32)>,
    /// Statements left for the unit's pass 2, in source order.
    pub(crate) fixups: Vec<Fixup<'p>>,
}

/// A statement the prelude could not encode on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fixup<'p> {
    pub(crate) addr: u32,
    pub(crate) line: u32,
    /// The mnemonic, or `.word` for a data word whose expression is
    /// `ops[0]`.
    pub(crate) mnemonic: &'p str,
    pub(crate) ops: [&'p str; 3],
    pub(crate) count: u32,
}

const MAGIC: &[u8] = b"ptaint-asm prelude 1\n";

impl Prelude<'static> {
    /// The empty prelude: [`assemble_with`](crate::assemble_with) with it is
    /// [`assemble`](crate::assemble).
    pub const EMPTY: Prelude<'static> = Prelude {
        data: Vec::new(),
        data_end: DATA_BASE,
        text: Vec::new(),
        lines: Vec::new(),
        data_part: Part {
            lines: 0,
            labels: Vec::new(),
            fixups: Vec::new(),
        },
        text_part: Part {
            lines: 0,
            labels: Vec::new(),
            fixups: Vec::new(),
        },
    };
}

impl<'p> Prelude<'p> {
    /// Assembles `source` into a prelude. The source holds only comments
    /// before a `.data` line, then the data part, one `.text` line and the
    /// text part: the shape `ptaint-cc` emits. Neither part may end with a
    /// label still waiting for its address.
    ///
    /// # Errors
    ///
    /// Any pass-1 [`AsmError`] of the source, or a source of another shape.
    /// Pass-2 errors are kept for the unit to report.
    pub fn new(source: &'p str) -> Result<Prelude<'p>, AsmError> {
        build_prelude(source)
    }

    /// Serializes the prelude.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer(MAGIC.to_vec());
        w.u32(self.data_end);
        w.bytes(&self.data);
        w.u32(self.text.len() as u32);
        for &v in self.text.iter().chain(&self.lines) {
            w.u32(v);
        }
        for part in [&self.data_part, &self.text_part] {
            w.u32(part.lines);
            w.u32(part.labels.len() as u32);
            for &(name, line, addr) in &part.labels {
                w.bytes(name.as_bytes());
                w.u32(line);
                w.u32(addr);
            }
            w.u32(part.fixups.len() as u32);
            for f in &part.fixups {
                w.u32(f.addr);
                w.u32(f.line);
                w.u32(f.count);
                for s in [f.mnemonic].iter().chain(&f.ops) {
                    w.bytes(s.as_bytes());
                }
            }
        }
        w.0
    }

    /// Reads a prelude written by [`to_bytes`](Self::to_bytes), borrowing
    /// its names from `bytes`; `None` when `bytes` is not one.
    #[must_use]
    pub fn from_bytes(bytes: &'p [u8]) -> Option<Prelude<'p>> {
        let mut r = Reader(bytes.strip_prefix(MAGIC)?);
        let data_end = r.u32()?;
        let data = r.bytes()?.to_vec();
        let words = r.u32()? as usize;
        let text = r.u32s(words)?;
        let lines = r.u32s(words)?;
        let mut part = || {
            let lines = r.u32()?;
            let labels = (0..r.u32()?)
                .map(|_| Some((r.str()?, r.u32()?, r.u32()?)))
                .collect::<Option<_>>()?;
            let fixups = (0..r.u32()?)
                .map(|_| {
                    let (addr, line, count) = (r.u32()?, r.u32()?, r.u32()?);
                    Some(Fixup {
                        addr,
                        line,
                        count,
                        mnemonic: r.str()?,
                        ops: [r.str()?, r.str()?, r.str()?],
                    })
                })
                .collect::<Option<_>>()?;
            Some(Part {
                lines,
                labels,
                fixups,
            })
        };
        let data_part = part()?;
        let text_part = part()?;
        r.0.is_empty().then_some(Prelude {
            data,
            data_end,
            text,
            lines,
            data_part,
            text_part,
        })
    }
}

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
}

struct Reader<'b>(&'b [u8]);

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Option<&'b [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u32s(&mut self, n: usize) -> Option<Vec<u32>> {
        let raw = self.take(n.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }

    fn bytes(&mut self) -> Option<&'b [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn str(&mut self) -> Option<&'b str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble, assemble_with};

    const PRELUDE: &str = "# prefix\n        .data\n\
        x:      .word y\n        .space 3\n\
        p:      .word x+4\n        .text\n\
        f:      jal g\n        jr $ra\n\
        h:      la $t0, x\n        beq $t0, $zero, h\n";

    /// The unit `assemble_with` stands for: the prelude's data part after
    /// the source's first `.data` line, its text part after the first
    /// `.text` line.
    fn spliced(source: &str) -> String {
        let body = |s: &str, directive: &str| -> (String, String) {
            let at = s.find(directive).expect("section line");
            let end = at + s[at..].find('\n').unwrap() + 1;
            (s[..end].to_owned(), s[end..].to_owned())
        };
        let (_, prelude_rest) = body(PRELUDE, ".data");
        let (pdata, ptext) = body(&prelude_rest, ".text");
        let pdata = &pdata[..pdata.rfind("        .text").unwrap()];
        let (head, rest) = body(source, ".data");
        let (mid, tail) = body(&rest, ".text");
        format!("{head}{pdata}{mid}{ptext}{tail}")
    }

    #[test]
    fn continuation_is_the_spliced_unit() {
        let prelude = Prelude::new(PRELUDE).unwrap();
        for source in [
            "# app\n        .data\ny:      .word f\n        .text\ng:      jr $ra\n",
            "        .data\n\n        .text\nmain:   jal f\ng: y:   nop\n",
            // Errors: a source data label named like a prelude code label
            // is a duplicate at the prelude's line; a missing label fails
            // at the prelude fixup naming it; data past the stack top.
            "        .data\nh:      .word 0\ny: .word 1\n        .text\ng: nop\n",
            "        .data\ny:      .word 0\n        .text\nnop\n",
            "        .data\ny:      .space 16777216\n.space 16777216\n        .text\ng: nop\n",
            "        .data\ny:      .word 0\n        .text\ng: nop\nf: nop\n",
        ] {
            let whole = assemble(&spliced(source));
            assert_eq!(assemble_with(&prelude, source), whole, "{source}");
        }
    }

    #[test]
    fn bytes_round_trip_and_empty_is_plain_assembly() {
        let prelude = Prelude::new(PRELUDE).unwrap();
        assert_eq!(prelude.text_part.fixups.len(), 1, "jal g waits for g");
        assert_eq!(prelude.data_part.fixups.len(), 1, ".word y waits for y");
        let bytes = prelude.to_bytes();
        assert_eq!(Prelude::from_bytes(&bytes), Some(prelude));
        assert_eq!(Prelude::from_bytes(&bytes[..bytes.len() - 1]), None);
        let empty = Prelude::new("        .data\n        .text\n").unwrap();
        assert_eq!(empty, Prelude::EMPTY);
    }

    #[test]
    fn misshapen_preludes_are_rejected() {
        for source in [
            "nop\n        .data\n        .text\n",
            "        .text\n        .data\n",
            "        .data\nx:\n        .text\nnop\n",
            "        .data\n        .text\nnop\nend:\n",
            "        .data\n        .text\n        .data\n",
            "        .data\n",
        ] {
            assert!(Prelude::new(source).is_err(), "{source}");
        }
    }

    #[test]
    fn a_source_without_a_section_line_or_with_early_code_is_an_error() {
        let prelude = Prelude::new(PRELUDE).unwrap();
        assert!(assemble_with(&prelude, "        .data\n").is_err());
        let err = assemble_with(&prelude, "nop\n        .data\n        .text\n").unwrap_err();
        assert_eq!(err.line, 3 + 3);
    }
}
