//! The two-pass assembler.
//!
//! Pass 1 scans each line once, left to right, and borrows every token from
//! the source. It binds labels, writes `.byte`/`.half`/`.ascii`/`.asciiz`
//! bytes straight into the data segment, and resolves each mnemonic to an
//! `Op` so it knows how many words the statement takes. The statements
//! that may name a later label (instructions and `.word` expressions) are
//! kept, in source order, for pass 2, which encodes them directly into the
//! image. Errors therefore come pass 1 first, then pass 2 in source order.
//!
//! A [`Prelude`] enters pass 1 as a whole: at the source's first `.data`
//! line its data part's bytes and labels are put in place and its
//! unresolved `.word`s queued, and at the first `.text` line the same
//! happens for its text part. Its line count is added to the line counter,
//! so every line number is the one the spliced unit would have.

use std::collections::HashMap;
use std::fmt;

use ptaint_isa::{
    BranchCond, BranchZCond, IAluOp, Instr, MemWidth, MulDivOp, RAluOp, Reg, ShiftOp, DATA_BASE,
    STACK_TOP, TEXT_BASE,
};

use crate::prelude::{Fixup, Part, Prelude};
use crate::Image;

/// An assembly error with the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl AsmError {
    fn new(line: u32, msg: impl Into<String>) -> AsmError {
        AsmError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// A mnemonic, resolved once in pass 1.
#[derive(Debug, Clone, Copy)]
enum Op {
    RAlu(RAluOp),
    IAlu(IAluOp),
    Shift(ShiftOp),
    ShiftV(ShiftOp),
    Load(MemWidth, bool),
    Store(MemWidth),
    MulDiv(MulDivOp),
    MoveFromHi,
    MoveFromLo,
    MoveToHi,
    MoveToLo,
    Lui,
    Branch(BranchCond),
    BranchZ(BranchZCond),
    Jump {
        link: bool,
    },
    JumpReg,
    JumpAndLinkReg,
    Syscall,
    Break,
    Nop,
    // ---- pseudo-instructions ----
    Move,
    Not,
    Neg,
    Li,
    La,
    B,
    /// `beqz` / `bnez`.
    BranchZero(BranchCond),
    /// `blt`/`bge`/`bgt`/`ble` and their `u` forms: `slt[u] $at` then a
    /// branch on `$at`; `swap` compares `rt, rs` instead of `rs, rt`.
    CompareBranch {
        unsigned: bool,
        swap: bool,
        cond: BranchCond,
    },
    /// Reported in pass 2, so a later pass-1 error still wins.
    Unknown,
}

impl Op {
    /// Resolves a mnemonic case-insensitively; it is lowercased only when it
    /// has an uppercase letter.
    fn resolve(mnemonic: &str) -> Op {
        let mut lower = [0u8; 8];
        let mut m = mnemonic.as_bytes();
        if m.iter().any(u8::is_ascii_uppercase) {
            let Some(buf) = lower.get_mut(..m.len()) else {
                return Op::Unknown;
            };
            buf.copy_from_slice(m);
            buf.make_ascii_lowercase();
            m = buf;
        }
        let cmp = |unsigned, swap, cond| Op::CompareBranch {
            unsigned,
            swap,
            cond,
        };
        match m {
            b"add" => Op::RAlu(RAluOp::Add),
            b"addu" => Op::RAlu(RAluOp::Addu),
            b"sub" => Op::RAlu(RAluOp::Sub),
            b"subu" => Op::RAlu(RAluOp::Subu),
            b"and" => Op::RAlu(RAluOp::And),
            b"or" => Op::RAlu(RAluOp::Or),
            b"xor" => Op::RAlu(RAluOp::Xor),
            b"nor" => Op::RAlu(RAluOp::Nor),
            b"slt" => Op::RAlu(RAluOp::Slt),
            b"sltu" => Op::RAlu(RAluOp::Sltu),
            b"addi" => Op::IAlu(IAluOp::Addi),
            b"addiu" => Op::IAlu(IAluOp::Addiu),
            b"slti" => Op::IAlu(IAluOp::Slti),
            b"sltiu" => Op::IAlu(IAluOp::Sltiu),
            b"andi" => Op::IAlu(IAluOp::Andi),
            b"ori" => Op::IAlu(IAluOp::Ori),
            b"xori" => Op::IAlu(IAluOp::Xori),
            b"sll" => Op::Shift(ShiftOp::Sll),
            b"srl" => Op::Shift(ShiftOp::Srl),
            b"sra" => Op::Shift(ShiftOp::Sra),
            b"sllv" => Op::ShiftV(ShiftOp::Sll),
            b"srlv" => Op::ShiftV(ShiftOp::Srl),
            b"srav" => Op::ShiftV(ShiftOp::Sra),
            b"lb" => Op::Load(MemWidth::Byte, true),
            b"lbu" => Op::Load(MemWidth::Byte, false),
            b"lh" => Op::Load(MemWidth::Half, true),
            b"lhu" => Op::Load(MemWidth::Half, false),
            b"lw" => Op::Load(MemWidth::Word, true),
            b"sb" => Op::Store(MemWidth::Byte),
            b"sh" => Op::Store(MemWidth::Half),
            b"sw" => Op::Store(MemWidth::Word),
            b"mult" => Op::MulDiv(MulDivOp::Mult),
            b"multu" => Op::MulDiv(MulDivOp::Multu),
            b"div" => Op::MulDiv(MulDivOp::Div),
            b"divu" => Op::MulDiv(MulDivOp::Divu),
            b"mfhi" => Op::MoveFromHi,
            b"mflo" => Op::MoveFromLo,
            b"mthi" => Op::MoveToHi,
            b"mtlo" => Op::MoveToLo,
            b"lui" => Op::Lui,
            b"beq" => Op::Branch(BranchCond::Eq),
            b"bne" => Op::Branch(BranchCond::Ne),
            b"blez" => Op::BranchZ(BranchZCond::Lez),
            b"bgtz" => Op::BranchZ(BranchZCond::Gtz),
            b"bltz" => Op::BranchZ(BranchZCond::Ltz),
            b"bgez" => Op::BranchZ(BranchZCond::Gez),
            b"j" => Op::Jump { link: false },
            b"jal" => Op::Jump { link: true },
            b"jr" => Op::JumpReg,
            b"jalr" => Op::JumpAndLinkReg,
            b"syscall" => Op::Syscall,
            b"break" => Op::Break,
            b"nop" => Op::Nop,
            b"move" => Op::Move,
            b"not" => Op::Not,
            b"neg" => Op::Neg,
            b"li" => Op::Li,
            b"la" => Op::La,
            b"b" => Op::B,
            b"beqz" => Op::BranchZero(BranchCond::Eq),
            b"bnez" => Op::BranchZero(BranchCond::Ne),
            // blt rs,rt: slt $at,rs,rt ; bne $at,$0
            // bge rs,rt: slt $at,rs,rt ; beq $at,$0
            // bgt rs,rt: slt $at,rt,rs ; bne $at,$0
            // ble rs,rt: slt $at,rt,rs ; beq $at,$0
            b"blt" => cmp(false, false, BranchCond::Ne),
            b"bge" => cmp(false, false, BranchCond::Eq),
            b"bgt" => cmp(false, true, BranchCond::Ne),
            b"ble" => cmp(false, true, BranchCond::Eq),
            b"bltu" => cmp(true, false, BranchCond::Ne),
            b"bgeu" => cmp(true, false, BranchCond::Eq),
            _ => Op::Unknown,
        }
    }
}

/// Up to three trimmed operand slices plus the true operand count.
#[derive(Debug, Clone, Copy)]
struct Operands<'a> {
    slots: [&'a str; 3],
    count: usize,
}

/// A slice of the source as `u32` byte offsets, half the size of a `&str`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

/// A statement kept for pass 2 because it may name a later label. The
/// queue holds one per instruction and is the assembler's largest
/// allocation, so it stores [`Span`]s rather than `&str`s: 48 bytes an
/// entry instead of 88.
#[derive(Debug)]
enum Deferred<'a> {
    Insn {
        addr: u32,
        line: u32,
        op: Op,
        mnemonic: Span,
        ops: [Span; 3],
        count: u32,
    },
    Word {
        addr: u32,
        line: u32,
        expr: Span,
    },
    /// A prelude statement, at its line in the unit.
    Fixup {
        fixup: &'a Fixup<'a>,
        line: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Deferred<'_>>() <= 48);

/// One or two machine instructions, the most any statement expands to.
type Encoded = (Instr, Option<Instr>);

/// The image's segments while pass 2 fills them in.
struct Segments {
    text: Vec<u32>,
    lines: Vec<u32>,
    data: Vec<u8>,
}

impl Segments {
    /// Stores the `.word` value `v` at `addr`.
    fn word(&mut self, addr: u32, v: i64, line: u32) -> Result<(), AsmError> {
        let v = to_u32(v, line)?;
        let off = (addr - DATA_BASE) as usize;
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }
}

/// Assembles a complete source file into an [`Image`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics or registers, undefined or duplicate labels,
/// out-of-range immediates or branch targets, and segments that outgrow
/// the address space.
pub fn assemble(source: &str) -> Result<Image, AsmError> {
    assemble_with(&Prelude::EMPTY, source)
}

/// Assembles `source` as though `prelude`'s data part stood right after the
/// source's first `.data` line and its text part right after its first
/// `.text` line. Line numbers, in errors and in [`Image::lines`], count the
/// prelude's lines where they stand.
///
/// With [`Prelude::EMPTY`] this is [`assemble`]. The prelude's statements
/// were laid out when it was built; those that named a label it did not
/// define are encoded here, in their place in source order.
///
/// # Errors
///
/// Every error [`assemble`] reports for the spliced unit, plus an error
/// when a prelude part has no line to follow, or when the source emits
/// code before its first `.text` line (it would move the prelude's code).
pub fn assemble_with(prelude: &Prelude<'_>, source: &str) -> Result<Image, AsmError> {
    let mut asm = Assembler::pass_one(source, prelude, None)?;
    for (part, spliced, section) in [
        (&prelude.data_part, asm.data_spliced, "data"),
        (&prelude.text_part, asm.text_spliced, "text"),
    ] {
        if !spliced && part.lines > 0 {
            return Err(AsmError::new(
                asm.line,
                format!("no `.{section}` line to place the prelude's {section} part after"),
            ));
        }
    }
    asm.bind_pending(asm.cursor());
    asm.encode_deferred()
}

/// What building a prelude records in pass 1: each label with its line,
/// and each section switch with its line and whether a label was waiting
/// for an address there.
#[derive(Default)]
struct Record<'a> {
    labels: Vec<(&'a str, u32)>,
    switches: Vec<(Section, u32, bool)>,
}

/// Builds a [`Prelude`] from `source`, which holds nothing but comments
/// before a `.data` line, then the data part, a `.text` line and the text
/// part, with no label left waiting for an address at the end of a part.
pub(crate) fn build_prelude(source: &str) -> Result<Prelude<'_>, AsmError> {
    static EMPTY: Prelude<'static> = Prelude::EMPTY;
    let mut asm = Assembler::pass_one(source, &EMPTY, Some(Record::default()))?;
    let record = asm.record.take().unwrap_or_default();
    let misshapen = |line| {
        AsmError::new(
            line,
            "a prelude is a `.data` line, its data, a `.text` line and its code",
        )
    };
    let (data_line, text_line) = match record.switches[..] {
        [(Section::Data, d, false), (Section::Text, t, false)] => (d, t),
        [] => return Err(misshapen(asm.line)),
        [.., (_, line, _)] => return Err(misshapen(line)),
    };
    if !asm.pending_labels.is_empty() {
        return Err(misshapen(asm.line));
    }
    if let Some(Deferred::Insn { line, .. }) = asm.deferred.first() {
        if *line < data_line {
            return Err(misshapen(*line));
        }
    }
    Ok(asm.into_prelude(&record.labels, data_line, text_line))
}

struct Assembler<'a> {
    source: &'a str,
    prelude: &'a Prelude<'a>,
    /// The line being parsed, as numbered in the unit: a spliced prelude
    /// part's lines are counted where they stand.
    line: u32,
    data_spliced: bool,
    text_spliced: bool,
    /// The line the prelude's text part follows.
    text_splice_line: u32,
    /// Set while building a prelude.
    record: Option<Record<'a>>,
    section: Section,
    text_cursor: u32,
    data_cursor: u32,
    symbols: HashMap<&'a str, u32>,
    pending_labels: Vec<&'a str>,
    /// Data bytes laid out so far; `.space`, `.align` and `.word` only move
    /// `data_cursor`, and the gap is zero-filled on the next write.
    data: Vec<u8>,
    /// Reused buffer for decoding `.ascii`/`.asciiz` literals.
    literal: Vec<u8>,
    deferred: Vec<Deferred<'a>>,
}

impl<'a> Assembler<'a> {
    /// Pass 1 over `source`, with `prelude` spliced in.
    fn pass_one(
        source: &'a str,
        prelude: &'a Prelude<'a>,
        record: Option<Record<'a>>,
    ) -> Result<Assembler<'a>, AsmError> {
        if u32::try_from(source.len()).is_err() {
            return Err(AsmError::new(0, "source is larger than 4 GiB"));
        }
        let mut asm = Assembler {
            source,
            prelude,
            line: 0,
            data_spliced: false,
            text_spliced: false,
            text_splice_line: 0,
            record,
            section: Section::Text,
            text_cursor: TEXT_BASE,
            data_cursor: DATA_BASE,
            symbols: HashMap::new(),
            pending_labels: Vec::new(),
            data: Vec::new(),
            literal: Vec::new(),
            deferred: Vec::new(),
        };
        // Lines end at `\n`, found by the line scan itself; a `\r` before it
        // is trailing whitespace like any other.
        let mut start = 0;
        while start < source.len() {
            asm.line += 1;
            start = asm.parse_line(start, asm.line)? + 1;
        }
        Ok(asm)
    }

    /// The span of `part`, a slice of the source.
    fn span(&self, part: &str) -> Span {
        let start = part.as_ptr().addr() - self.source.as_ptr().addr();
        debug_assert!(start + part.len() <= self.source.len());
        // `assemble` checked that the source fits in `u32`.
        Span {
            start: start as u32,
            end: (start + part.len()) as u32,
        }
    }

    fn text(&self, span: Span) -> &'a str {
        &self.source[span.start as usize..span.end as usize]
    }

    fn cursor(&self) -> u32 {
        match self.section {
            Section::Text => self.text_cursor,
            Section::Data => self.data_cursor,
        }
    }

    fn bind_pending(&mut self, addr: u32) {
        for name in self.pending_labels.drain(..) {
            self.symbols.insert(name, addr);
        }
    }

    fn define_label(&mut self, name: &'a str, line: u32) -> Result<(), AsmError> {
        if !is_ident(name) {
            return Err(AsmError::new(line, format!("invalid label name `{name}`")));
        }
        if self.symbols.contains_key(name) || self.pending_labels.contains(&name) {
            return Err(AsmError::new(line, format!("duplicate label `{name}`")));
        }
        self.pending_labels.push(name);
        if let Some(record) = &mut self.record {
            record.labels.push((name, line));
        }
        Ok(())
    }

    /// Switches to `section` at `line`; the first switch to a section puts
    /// the prelude's part for it right after that line.
    fn switch(&mut self, section: Section, line: u32) -> Result<(), AsmError> {
        if let Some(record) = &mut self.record {
            record
                .switches
                .push((section, line, !self.pending_labels.is_empty()));
        }
        self.bind_pending(self.cursor());
        self.section = section;
        let prelude = self.prelude;
        let (part, spliced) = match section {
            Section::Data => (&prelude.data_part, &mut self.data_spliced),
            Section::Text => (&prelude.text_part, &mut self.text_spliced),
        };
        if std::mem::replace(spliced, true) || part.lines == 0 {
            return Ok(());
        }
        match section {
            // Data needs a `.data` line, so none precedes the first one.
            Section::Data => {
                self.data.extend_from_slice(&prelude.data);
                self.data_cursor = prelude.data_end;
            }
            Section::Text => {
                if self.text_cursor != TEXT_BASE {
                    return Err(AsmError::new(
                        line,
                        "code before the first `.text` line would move the prelude's code",
                    ));
                }
                self.text_cursor = TEXT_BASE + 4 * prelude.text.len() as u32;
                self.text_splice_line = line;
            }
        }
        self.splice_part(part, line)
    }

    /// Binds `part`'s labels and queues its fixups as though its lines
    /// followed `line`.
    fn splice_part(&mut self, part: &'a Part<'a>, line: u32) -> Result<(), AsmError> {
        self.symbols.reserve(part.labels.len());
        for &(name, at, addr) in &part.labels {
            if self.symbols.insert(name, addr).is_some() {
                return Err(AsmError::new(
                    line + at,
                    format!("duplicate label `{name}`"),
                ));
            }
        }
        self.deferred
            .extend(part.fixups.iter().map(|fixup| Deferred::Fixup {
                fixup,
                line: line + fixup.line,
            }));
        self.line += part.lines;
        Ok(())
    }

    fn align_data(&mut self, align: u32) {
        // `data_cursor <= STACK_TOP`, which is page aligned, so this cannot
        // pass it.
        let rem = self.data_cursor % align;
        if rem != 0 {
            self.data_cursor += align - rem;
        }
    }

    /// Reserves `len` data bytes and returns their address.
    fn advance_data(&mut self, len: u32, line: u32) -> Result<u32, AsmError> {
        let addr = self.data_cursor;
        self.data_cursor = addr
            .checked_add(len)
            .filter(|&end| end <= STACK_TOP)
            .ok_or_else(|| {
                AsmError::new(
                    line,
                    format!("data segment would pass the stack top {STACK_TOP:#x}"),
                )
            })?;
        Ok(addr)
    }

    /// Writes `bytes` at the cursor, zero-filling any gap before them.
    fn emit_data(&mut self, bytes: &[u8], line: u32) -> Result<(), AsmError> {
        let addr = self.advance_data(bytes.len() as u32, line)?;
        self.data.resize((addr - DATA_BASE) as usize, 0);
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    /// Parses the line starting at byte `start` of the source and returns
    /// the index of the newline that ends it (or the source length).
    fn parse_line(&mut self, start: usize, line: u32) -> Result<usize, AsmError> {
        let source = self.source;
        let bytes = source.as_bytes();
        // Leading labels: `name:` where the name holds no quote, dot,
        // comment or whitespace before the colon.
        let mut start = skip_ws(source, start);
        let mut i = start;
        loop {
            i += run_len(
                &bytes[i..],
                COLON | QUOTE | DOT | COMMENT | WS | WIDE | NEWLINE,
            );
            match bytes.get(i) {
                Some(b':') => {
                    self.define_label(&source[start..i], line)?;
                    start = skip_ws(source, i + 1);
                    i = start;
                }
                Some(&c) if !c.is_ascii() => {
                    let ch = char_at(source, i);
                    if ch.is_whitespace() {
                        break;
                    }
                    i += ch.len_utf8();
                }
                _ => break,
            }
        }
        match bytes.get(start) {
            None | Some(b'\n') => return Ok(start),
            Some(b'#' | b';') => return Ok(start + run_len(&bytes[start..], NEWLINE)),
            _ => {}
        }

        let stmt = Statement::scan(source, start, i);
        if let Some(directive) = stmt.word.strip_prefix('.') {
            self.parse_directive(directive, trim(stmt.tail), line)?;
            return Ok(stmt.end);
        }
        if self.section != Section::Text {
            return Err(AsmError::new(line, "instruction outside .text section"));
        }
        let op = Op::resolve(stmt.word);
        let words = instruction_words(op, &stmt.ops, line)?;
        self.bind_pending(self.text_cursor);
        self.deferred.push(Deferred::Insn {
            addr: self.text_cursor,
            line,
            op,
            mnemonic: self.span(stmt.word),
            ops: stmt.ops.slots.map(|op| self.span(op)),
            count: stmt.ops.count as u32,
        });
        self.text_cursor = self
            .text_cursor
            .checked_add(4 * words)
            .filter(|&end| end <= DATA_BASE)
            .ok_or_else(|| {
                AsmError::new(
                    line,
                    format!("text segment would pass the data base {DATA_BASE:#x}"),
                )
            })?;
        Ok(stmt.end)
    }

    fn parse_directive(&mut self, name: &str, args: &'a str, line: u32) -> Result<(), AsmError> {
        match name {
            "text" => self.switch(Section::Text, line)?,
            "data" => self.switch(Section::Data, line)?,
            "globl" | "global" | "ent" | "end" => { /* accepted, no effect */ }
            "align" => {
                let n: u32 = args
                    .parse()
                    .map_err(|_| AsmError::new(line, ".align expects a small integer"))?;
                if n > 12 {
                    return Err(AsmError::new(line, ".align argument too large"));
                }
                if self.section == Section::Data {
                    self.align_data(1 << n);
                }
            }
            "space" => {
                self.require_data(line)?;
                let n = parse_int(args)
                    .ok_or_else(|| AsmError::new(line, ".space expects an integer"))?;
                if !(0..=16 * 1024 * 1024).contains(&n) {
                    return Err(AsmError::new(line, ".space size out of range"));
                }
                self.bind_pending(self.data_cursor);
                self.advance_data(n as u32, line)?;
            }
            "word" => {
                self.require_data(line)?;
                self.align_data(4);
                self.bind_pending(self.data_cursor);
                for expr in split_top(args) {
                    let addr = self.advance_data(4, line)?;
                    self.deferred.push(Deferred::Word {
                        addr,
                        line,
                        expr: self.span(trim(expr)),
                    });
                }
            }
            "half" => {
                self.require_data(line)?;
                self.align_data(2);
                self.bind_pending(self.data_cursor);
                for expr in split_top(args) {
                    let v = parse_int(expr)
                        .ok_or_else(|| AsmError::new(line, ".half expects integers"))?;
                    self.emit_data(&(v as u16).to_le_bytes(), line)?;
                }
            }
            "byte" => {
                self.require_data(line)?;
                self.bind_pending(self.data_cursor);
                for expr in split_top(args) {
                    let v = parse_int(expr)
                        .ok_or_else(|| AsmError::new(line, ".byte expects integers"))?;
                    self.emit_data(&[v as u8], line)?;
                }
            }
            "ascii" | "asciiz" => {
                self.require_data(line)?;
                let mut bytes = std::mem::take(&mut self.literal);
                bytes.clear();
                parse_string_literal(args, &mut bytes)
                    .ok_or_else(|| AsmError::new(line, "expected a string literal"))?;
                if name == "asciiz" {
                    bytes.push(0);
                }
                self.bind_pending(self.data_cursor);
                self.emit_data(&bytes, line)?;
                self.literal = bytes;
            }
            other => {
                return Err(AsmError::new(line, format!("unknown directive `.{other}`")));
            }
        }
        Ok(())
    }

    fn require_data(&self, line: u32) -> Result<(), AsmError> {
        if self.section != Section::Data {
            return Err(AsmError::new(line, "data directive outside .data section"));
        }
        Ok(())
    }

    /// Pass 2: encodes the deferred statements in source order, straight
    /// into the image, after the prelude's code.
    fn encode_deferred(mut self) -> Result<Image, AsmError> {
        let mut out = self.layout();
        let base = self.text_splice_line;
        for (dst, &line) in out.lines.iter_mut().zip(&self.prelude.lines) {
            *dst = base + line;
        }
        for item in &self.deferred {
            self.place(item, &mut out)?;
        }
        let symbols: HashMap<String, u32> = self
            .symbols
            .iter()
            .map(|(&name, &addr)| (name.to_owned(), addr))
            .collect();
        let entry = ["_start", "main"]
            .iter()
            .find_map(|name| self.symbols.get(name).copied())
            .unwrap_or(TEXT_BASE);
        Ok(Image {
            text: out.text,
            data: out.data,
            entry,
            symbols,
            lines: out.lines,
            ..Image::new()
        })
    }

    /// The segments as pass 1 left them, the prelude's code in front.
    fn layout(&mut self) -> Segments {
        let words = ((self.text_cursor - TEXT_BASE) / 4) as usize;
        let mut text = vec![0; words];
        text[..self.prelude.text.len()].copy_from_slice(&self.prelude.text);
        let mut data = std::mem::take(&mut self.data);
        data.resize((self.data_cursor - DATA_BASE) as usize, 0);
        Segments {
            text,
            lines: vec![0; words],
            data,
        }
    }

    /// Encodes one queued statement into `out`.
    fn place(&self, item: &Deferred<'a>, out: &mut Segments) -> Result<(), AsmError> {
        let (addr, line, op, mnemonic, ops) = match *item {
            Deferred::Word { addr, line, expr } => {
                return out.word(addr, self.eval(self.text(expr), line)?, line);
            }
            Deferred::Insn {
                addr,
                line,
                op,
                mnemonic,
                ops,
                count,
            } => {
                let ops = Operands {
                    slots: ops.map(|op| self.text(op)),
                    count: count as usize,
                };
                (addr, line, op, self.text(mnemonic), ops)
            }
            Deferred::Fixup { fixup, line } => {
                if fixup.mnemonic == ".word" {
                    return out.word(fixup.addr, self.eval(fixup.ops[0], line)?, line);
                }
                let ops = Operands {
                    slots: fixup.ops,
                    count: fixup.count as usize,
                };
                let op = Op::resolve(fixup.mnemonic);
                (fixup.addr, line, op, fixup.mnemonic, ops)
            }
        };
        let (first, second) = self.encode(addr, line, op, mnemonic, &ops)?;
        let i = ((addr - TEXT_BASE) / 4) as usize;
        out.text[i] = first.encode();
        out.lines[i] = line;
        if let Some(second) = second {
            out.text[i + 1] = second.encode();
            out.lines[i + 1] = line;
        }
        Ok(())
    }

    /// Pass 2 for a prelude: encodes what it can, and keeps the statements
    /// that fail (most name a label the prelude does not define) as fixups
    /// for the unit's pass 2, which reports whatever error is left. Lines
    /// become relative to the part's switch line.
    fn into_prelude(
        mut self,
        labels: &[(&'a str, u32)],
        data_line: u32,
        text_line: u32,
    ) -> Prelude<'a> {
        let mut out = self.layout();
        let mut parts = [
            Part {
                lines: text_line - data_line - 1,
                ..Part::default()
            },
            Part {
                lines: self.line - text_line,
                ..Part::default()
            },
        ];
        // The part a line is in, and the line counted from its switch.
        let part_of = |line: u32| {
            if line < text_line {
                (0, line - data_line)
            } else {
                (1, line - text_line)
            }
        };
        for &(name, line) in labels {
            let (part, at) = part_of(line);
            parts[part].labels.push((name, at, self.symbols[name]));
        }
        for item in &self.deferred {
            if self.place(item, &mut out).is_ok() {
                continue;
            }
            let fixup = match *item {
                Deferred::Word { addr, line, expr } => Fixup {
                    addr,
                    line,
                    mnemonic: ".word",
                    ops: [self.text(expr), "", ""],
                    count: 1,
                },
                Deferred::Insn {
                    addr,
                    line,
                    mnemonic,
                    ops,
                    count,
                    ..
                } => Fixup {
                    addr,
                    line,
                    mnemonic: self.text(mnemonic),
                    ops: ops.map(|op| self.text(op)),
                    count,
                },
                Deferred::Fixup { fixup, line } => Fixup { line, ..*fixup },
            };
            let (part, at) = part_of(fixup.line);
            parts[part].fixups.push(Fixup { line: at, ..fixup });
        }
        let lines = out
            .lines
            .iter()
            .map(|&l| l.saturating_sub(text_line))
            .collect();
        let [data_part, text_part] = parts;
        Prelude {
            data: out.data,
            data_end: self.data_cursor,
            text: out.text,
            lines,
            data_part,
            text_part,
        }
    }

    /// Evaluates an operand expression: integer/char literal, `sym`,
    /// `sym+off`, `sym-off`, `%hi(expr)`, `%lo(expr)`.
    fn eval(&self, expr: &str, line: u32) -> Result<i64, AsmError> {
        let expr = trim(expr);
        if let Some(inner) = expr.strip_prefix("%hi(").and_then(|s| s.strip_suffix(')')) {
            let v = self.eval(inner, line)?;
            return Ok((to_u32(v, line)? >> 16) as i64);
        }
        if let Some(inner) = expr.strip_prefix("%lo(").and_then(|s| s.strip_suffix(')')) {
            let v = self.eval(inner, line)?;
            return Ok(i64::from(to_u32(v, line)? & 0xffff));
        }
        if let Some(v) = parse_int(expr) {
            return Ok(v);
        }
        // sym, sym+off, sym-off  (split at the last +/- that is not leading)
        for (i, &c) in expr.as_bytes().iter().enumerate().skip(1).rev() {
            if c == b'+' || c == b'-' {
                let (sym, off) = (trim(&expr[..i]), &expr[i..]);
                if is_ident(sym) {
                    let base = self.symbol(sym, line)?;
                    // `off` starts with its sign; `parse_int` alone would
                    // accept only a leading `-`.
                    let magnitude = parse_int(&off[1..])
                        .ok_or_else(|| AsmError::new(line, format!("bad offset `{off}`")))?;
                    let delta = if c == b'-' {
                        magnitude.wrapping_neg()
                    } else {
                        magnitude
                    };
                    return Ok(i64::from(base).wrapping_add(delta));
                }
            }
        }
        if is_ident(expr) {
            return self.symbol(expr, line).map(i64::from);
        }
        Err(AsmError::new(
            line,
            format!("cannot parse expression `{expr}`"),
        ))
    }

    fn symbol(&self, name: &str, line: u32) -> Result<u32, AsmError> {
        self.symbols
            .get(name)
            .copied()
            .ok_or_else(|| AsmError::new(line, format!("undefined symbol `{name}`")))
    }

    fn reg(op: &str, line: u32) -> Result<Reg, AsmError> {
        Reg::parse(op).ok_or_else(|| AsmError::new(line, format!("unknown register `{op}`")))
    }

    /// A 16-bit immediate, signed or zero-extended: `-32768..=0xffff`.
    fn imm16(&self, expr: &str, line: u32) -> Result<i16, AsmError> {
        let v = self.eval(expr, line)?;
        if !(-32768..=0xffff).contains(&v) {
            return Err(AsmError::new(
                line,
                format!("immediate {v} does not fit in 16 bits"),
            ));
        }
        Ok((v as u16) as i16)
    }

    fn branch_offset(&self, target: &str, pc: u32, line: u32) -> Result<i16, AsmError> {
        let t = self.eval(target, line)?;
        let t = to_u32(t, line)?;
        if t % 4 != 0 {
            return Err(AsmError::new(line, "branch target is not word aligned"));
        }
        let delta = (i64::from(t) - i64::from(pc) - 4) / 4;
        i16::try_from(delta).map_err(|_| {
            AsmError::new(
                line,
                format!("branch target {delta} words away is out of range"),
            )
        })
    }

    fn memop(&self, op: &str, line: u32) -> Result<(i16, Reg), AsmError> {
        let open = op
            .find('(')
            .ok_or_else(|| AsmError::new(line, format!("expected `offset(reg)`, got `{op}`")))?;
        let close = op
            .rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| AsmError::new(line, "missing `)` in memory operand"))?;
        let off_str = trim(&op[..open]);
        let reg = Self::reg(trim(&op[open + 1..close]), line)?;
        let offset = if off_str.is_empty() {
            0
        } else {
            self.imm16(off_str, line)?
        };
        Ok((offset, reg))
    }

    #[allow(clippy::too_many_lines)]
    fn encode(
        &self,
        addr: u32,
        line: u32,
        op: Op,
        mnemonic: &str,
        ops: &Operands<'_>,
    ) -> Result<Encoded, AsmError> {
        let argc = ops.count;
        let arity = |n: usize| -> Result<(), AsmError> {
            if argc != n {
                Err(AsmError::new(
                    line,
                    format!(
                        "`{}` expects {n} operands, got {argc}",
                        mnemonic.to_ascii_lowercase()
                    ),
                ))
            } else {
                Ok(())
            }
        };
        let [a, b, c] = ops.slots;
        let reg = |s: &str| Self::reg(s, line);
        let one = |insn: Instr| Ok((insn, None));

        match op {
            Op::RAlu(op) => {
                arity(3)?;
                one(Instr::RAlu {
                    op,
                    rd: reg(a)?,
                    rs: reg(b)?,
                    rt: reg(c)?,
                })
            }
            Op::IAlu(op) => {
                arity(3)?;
                one(Instr::IAlu {
                    op,
                    rt: reg(a)?,
                    rs: reg(b)?,
                    imm: self.imm16(c, line)?,
                })
            }
            Op::Shift(op) => {
                arity(3)?;
                let rd = reg(a)?;
                let rt = reg(b)?;
                let sh = self.eval(c, line)?;
                if !(0..32).contains(&sh) {
                    return Err(AsmError::new(line, "shift amount must be in 0..32"));
                }
                one(Instr::Shift {
                    op,
                    rd,
                    rt,
                    shamt: sh as u8,
                })
            }
            Op::ShiftV(op) => {
                arity(3)?;
                one(Instr::ShiftV {
                    op,
                    rd: reg(a)?,
                    rt: reg(b)?,
                    rs: reg(c)?,
                })
            }
            Op::Load(width, signed) => {
                arity(2)?;
                let rt = reg(a)?;
                let (offset, base) = self.memop(b, line)?;
                one(Instr::Load {
                    width,
                    signed,
                    rt,
                    base,
                    offset,
                })
            }
            Op::Store(width) => {
                arity(2)?;
                let rt = reg(a)?;
                let (offset, base) = self.memop(b, line)?;
                one(Instr::Store {
                    width,
                    rt,
                    base,
                    offset,
                })
            }
            Op::MulDiv(op) => {
                arity(2)?;
                one(Instr::MulDiv {
                    op,
                    rs: reg(a)?,
                    rt: reg(b)?,
                })
            }
            Op::MoveFromHi => {
                arity(1)?;
                one(Instr::MoveFromHi { rd: reg(a)? })
            }
            Op::MoveFromLo => {
                arity(1)?;
                one(Instr::MoveFromLo { rd: reg(a)? })
            }
            Op::MoveToHi => {
                arity(1)?;
                one(Instr::MoveToHi { rs: reg(a)? })
            }
            Op::MoveToLo => {
                arity(1)?;
                one(Instr::MoveToLo { rs: reg(a)? })
            }
            Op::Lui => {
                arity(2)?;
                let v = self.eval(b, line)?;
                if !(0..=0xffff).contains(&v) {
                    return Err(AsmError::new(line, "lui immediate must fit in 16 bits"));
                }
                one(Instr::Lui {
                    rt: reg(a)?,
                    imm: v as u16,
                })
            }
            Op::Branch(cond) => {
                arity(3)?;
                one(Instr::Branch {
                    cond,
                    rs: reg(a)?,
                    rt: reg(b)?,
                    offset: self.branch_offset(c, addr, line)?,
                })
            }
            Op::BranchZ(cond) => {
                arity(2)?;
                one(Instr::BranchZ {
                    cond,
                    rs: reg(a)?,
                    offset: self.branch_offset(b, addr, line)?,
                })
            }
            Op::Jump { link } => {
                arity(1)?;
                let t = to_u32(self.eval(a, line)?, line)?;
                if t % 4 != 0 {
                    return Err(AsmError::new(line, "jump target is not word aligned"));
                }
                one(Instr::Jump {
                    target: (t >> 2) & 0x03ff_ffff,
                    link,
                })
            }
            Op::JumpReg => {
                arity(1)?;
                one(Instr::JumpReg { rs: reg(a)? })
            }
            Op::JumpAndLinkReg => match argc {
                1 => one(Instr::JumpAndLinkReg {
                    rd: Reg::RA,
                    rs: reg(a)?,
                }),
                2 => one(Instr::JumpAndLinkReg {
                    rd: reg(a)?,
                    rs: reg(b)?,
                }),
                _ => Err(AsmError::new(line, "`jalr` expects 1 or 2 operands")),
            },
            Op::Syscall => {
                arity(0)?;
                one(Instr::Syscall)
            }
            Op::Break => {
                let code = if argc == 1 {
                    to_u32(self.eval(a, line)?, line)? & 0xf_ffff
                } else {
                    0
                };
                one(Instr::Break { code })
            }
            Op::Nop => {
                arity(0)?;
                one(Instr::NOP)
            }
            Op::Move => {
                arity(2)?;
                one(Instr::RAlu {
                    op: RAluOp::Addu,
                    rd: reg(a)?,
                    rs: reg(b)?,
                    rt: Reg::ZERO,
                })
            }
            Op::Not => {
                arity(2)?;
                one(Instr::RAlu {
                    op: RAluOp::Nor,
                    rd: reg(a)?,
                    rs: reg(b)?,
                    rt: Reg::ZERO,
                })
            }
            Op::Neg => {
                arity(2)?;
                one(Instr::RAlu {
                    op: RAluOp::Subu,
                    rd: reg(a)?,
                    rs: Reg::ZERO,
                    rt: reg(b)?,
                })
            }
            Op::Li => {
                arity(2)?;
                let rt = reg(a)?;
                let v = self.eval(b, line)?;
                expand_li(rt, v, line)
            }
            Op::La => {
                arity(2)?;
                let rt = reg(a)?;
                let v = to_u32(self.eval(b, line)?, line)?;
                Ok((
                    Instr::Lui {
                        rt,
                        imm: (v >> 16) as u16,
                    },
                    Some(Instr::IAlu {
                        op: IAluOp::Ori,
                        rt,
                        rs: rt,
                        imm: (v & 0xffff) as u16 as i16,
                    }),
                ))
            }
            Op::B => {
                arity(1)?;
                one(Instr::Branch {
                    cond: BranchCond::Eq,
                    rs: Reg::ZERO,
                    rt: Reg::ZERO,
                    offset: self.branch_offset(a, addr, line)?,
                })
            }
            Op::BranchZero(cond) => {
                arity(2)?;
                one(Instr::Branch {
                    cond,
                    rs: reg(a)?,
                    rt: Reg::ZERO,
                    offset: self.branch_offset(b, addr, line)?,
                })
            }
            Op::CompareBranch {
                unsigned,
                swap,
                cond,
            } => {
                arity(3)?;
                let rs = reg(a)?;
                let rt = reg(b)?;
                let (x, y) = if swap { (rt, rs) } else { (rs, rt) };
                let offset = self.branch_offset(c, addr + 4, line)?;
                Ok((
                    Instr::RAlu {
                        op: if unsigned { RAluOp::Sltu } else { RAluOp::Slt },
                        rd: Reg::AT,
                        rs: x,
                        rt: y,
                    },
                    Some(Instr::Branch {
                        cond,
                        rs: Reg::AT,
                        rt: Reg::ZERO,
                        offset,
                    }),
                ))
            }
            Op::Unknown => Err(AsmError::new(
                line,
                format!("unknown mnemonic `{}`", mnemonic.to_ascii_lowercase()),
            )),
        }
    }
}

/// How many machine words a (pseudo-)instruction occupies — needed in pass 1
/// before symbols are known.
fn instruction_words(op: Op, ops: &Operands<'_>, line: u32) -> Result<u32, AsmError> {
    Ok(match op {
        Op::La | Op::CompareBranch { .. } => 2,
        Op::Li => {
            let v = (ops.count >= 2)
                .then_some(ops.slots[1])
                .and_then(parse_int)
                .ok_or_else(|| AsmError::new(line, "`li` expects a literal immediate"))?;
            1 + u32::from(expand_li(Reg::AT, v, line)?.1.is_some())
        }
        _ => 1,
    })
}

fn expand_li(rt: Reg, v: i64, line: u32) -> Result<Encoded, AsmError> {
    if v < -(1 << 31) || v > u32::MAX as i64 {
        return Err(AsmError::new(
            line,
            format!("immediate {v} exceeds 32 bits"),
        ));
    }
    if (-32768..=32767).contains(&v) {
        return Ok((
            Instr::IAlu {
                op: IAluOp::Addiu,
                rt,
                rs: Reg::ZERO,
                imm: v as i16,
            },
            None,
        ));
    }
    let u = v as u32;
    if u & 0xffff == 0 {
        return Ok((
            Instr::Lui {
                rt,
                imm: (u >> 16) as u16,
            },
            None,
        ));
    }
    if u <= 0xffff {
        return Ok((
            Instr::IAlu {
                op: IAluOp::Ori,
                rt,
                rs: Reg::ZERO,
                imm: u as u16 as i16,
            },
            None,
        ));
    }
    Ok((
        Instr::Lui {
            rt,
            imm: (u >> 16) as u16,
        },
        Some(Instr::IAlu {
            op: IAluOp::Ori,
            rt,
            rs: rt,
            imm: (u & 0xffff) as u16 as i16,
        }),
    ))
}

fn to_u32(v: i64, line: u32) -> Result<u32, AsmError> {
    if (-(1i64 << 31)..=u32::MAX as i64).contains(&v) {
        Ok(v as u32)
    } else {
        Err(AsmError::new(line, format!("value {v} exceeds 32 bits")))
    }
}

/// A line's body after its labels: the first word (mnemonic or
/// `.directive`), the text after it up to any comment, and that text split
/// at commas into trimmed operands.
struct Statement<'a> {
    word: &'a str,
    tail: &'a str,
    ops: Operands<'a>,
    /// Index of the newline ending the line, or the source length.
    end: usize,
}

impl<'a> Statement<'a> {
    /// Scans the body starting at `source[start]` once, to the end of its
    /// line. `resume` is where the label scan stopped: the bytes before it
    /// hold no whitespace, quote, comment character or newline.
    ///
    /// `#` and `;` start a comment outside double-quoted strings. The word
    /// ends at the first whitespace character, quoted or not, and operand
    /// commas split wherever they are: directives that take strings parse
    /// their own tail.
    fn scan(source: &'a str, start: usize, resume: usize) -> Statement<'a> {
        let bytes = source.as_bytes();
        let mut word_end = None;
        let mut piece = 0;
        let mut slots = [&source[start..start]; 3];
        let mut commas = 0;
        let (mut in_str, mut escape) = (false, false);
        let mut i = resume;
        loop {
            if !in_str {
                // Outside strings only these bytes can change anything.
                let stops = if word_end.is_some() {
                    QUOTE | COMMENT | COMMA | NEWLINE
                } else {
                    QUOTE | COMMENT | WS | WIDE | NEWLINE
                };
                i += run_len(&bytes[i..], stops);
            }
            let c = match bytes.get(i) {
                None | Some(b'\n') => break,
                Some(&c) => c,
            };
            if in_str {
                if escape {
                    escape = false;
                } else if c == b'\\' {
                    escape = true;
                } else if c == b'"' {
                    in_str = false;
                }
            } else if c == b'"' {
                in_str = true;
            } else if c == b'#' || c == b';' {
                break;
            }
            if word_end.is_some() {
                if c == b',' {
                    if let Some(slot) = slots.get_mut(commas) {
                        *slot = trim(&source[piece..i]);
                    }
                    commas += 1;
                    piece = i + 1;
                }
            } else if is_ascii_ws(c) {
                word_end = Some(i);
                piece = i;
            } else if !c.is_ascii() {
                let ch = char_at(source, i);
                if ch.is_whitespace() {
                    word_end = Some(i);
                    piece = i;
                } else {
                    i += ch.len_utf8();
                    continue;
                }
            }
            i += 1;
        }
        let word_end = word_end.unwrap_or(i);
        let last = trim(&source[piece.max(word_end)..i]);
        let count = if commas == 0 && last.is_empty() {
            0
        } else {
            if let Some(slot) = slots.get_mut(commas) {
                *slot = last;
            }
            commas + 1
        };
        Statement {
            word: &source[start..word_end],
            tail: &source[word_end..i],
            ops: Operands { slots, count },
            end: i + run_len(&bytes[i..], NEWLINE),
        }
    }
}

/// ASCII whitespace inside a line, exactly as [`char::is_whitespace`]
/// sees it: unlike [`u8::is_ascii_whitespace`] it includes vertical tab
/// (`\x0b`). A newline is never inside a line: it ends the line.
const fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r')
}

// Byte classes the line scanner stops at.
const WS: u8 = 1;
const QUOTE: u8 = 2;
const COMMENT: u8 = 4;
const COMMA: u8 = 8;
const COLON: u8 = 16;
const DOT: u8 = 32;
/// Any non-ASCII byte: the character it starts may be whitespace.
const WIDE: u8 = 64;
const NEWLINE: u8 = 128;

const CLASSES: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            c if is_ascii_ws(c) => WS,
            b'"' => QUOTE,
            b'#' | b';' => COMMENT,
            b',' => COMMA,
            b':' => COLON,
            b'.' => DOT,
            b'\n' => NEWLINE,
            c if !c.is_ascii() => WIDE,
            _ => 0,
        };
        b += 1;
    }
    table
};

/// The length of the leading run of `bytes` in none of the classes in
/// `stops`.
fn run_len(bytes: &[u8], stops: u8) -> usize {
    bytes
        .iter()
        .position(|&c| CLASSES[usize::from(c)] & stops != 0)
        .unwrap_or(bytes.len())
}

/// The character starting at byte `i`; the scans stop only on character
/// boundaries.
fn char_at(s: &str, i: usize) -> char {
    s[i..]
        .chars()
        .next()
        .expect("scan stops on a char boundary")
}

/// The index of the first character at or after `i` that is not
/// whitespace inside the line.
fn skip_ws(s: &str, mut i: usize) -> usize {
    let bytes = s.as_bytes();
    while let Some(&c) = bytes.get(i) {
        if is_ascii_ws(c) {
            i += 1;
        } else if c.is_ascii() {
            break;
        } else {
            let ch = char_at(s, i);
            if !ch.is_whitespace() {
                break;
            }
            i += ch.len_utf8();
        }
    }
    i
}

/// [`str::trim`] for text inside a line, with an ASCII fast path; a
/// non-ASCII byte at either end falls back to the full Unicode trim.
fn trim(s: &str) -> &str {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut end = bytes.len();
    while start < end && is_ascii_ws(bytes[start]) {
        start += 1;
    }
    while end > start && is_ascii_ws(bytes[end - 1]) {
        end -= 1;
    }
    let t = &s[start..end];
    match (t.as_bytes().first(), t.as_bytes().last()) {
        (Some(a), Some(z)) if !a.is_ascii() || !z.is_ascii() => t.trim(),
        _ => t,
    }
}

fn is_ident(s: &str) -> bool {
    s.as_bytes()
        .first()
        .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
        && s.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_')
}

/// Splits a (trimmed) directive tail on top-level commas, outside string
/// and char literals; pieces are not trimmed.
fn split_top(s: &str) -> SplitTop<'_> {
    SplitTop {
        rest: (!s.is_empty()).then_some(s),
    }
}

struct SplitTop<'a> {
    rest: Option<&'a str>,
}

impl<'a> Iterator for SplitTop<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        let (mut in_str, mut in_char, mut escape) = (false, false, false);
        for (i, &c) in s.as_bytes().iter().enumerate() {
            if escape {
                escape = false;
                continue;
            }
            match c {
                b'\\' if in_str || in_char => escape = true,
                b'"' if !in_char => in_str = !in_str,
                b'\'' if !in_str => in_char = !in_char,
                b',' if !in_str && !in_char => {
                    self.rest = Some(&s[i + 1..]);
                    return Some(&s[..i]);
                }
                _ => {}
            }
        }
        self.rest = None;
        Some(s)
    }
}

/// Parses an integer literal: decimal, `0x` hex, negative, or a char literal.
fn parse_int(s: &str) -> Option<i64> {
    let s = trim(s);
    if let Some(ch) = s.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        return parse_char_escape(ch).map(i64::from);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, trim(rest)),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if !body.is_empty() && body.bytes().all(|c| c.is_ascii_digit()) {
        body.parse::<i64>().ok()?
    } else {
        return None;
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

fn parse_char_escape(body: &str) -> Option<u8> {
    let mut chars = body.chars();
    let first = chars.next()?;
    let value = if first == '\\' {
        match chars.next()? {
            'n' => b'\n',
            't' => b'\t',
            'r' => b'\r',
            '0' => 0,
            '\\' => b'\\',
            '\'' => b'\'',
            '"' => b'"',
            'x' => return u8::from_str_radix(chars.as_str(), 16).ok(),
            _ => return None,
        }
    } else {
        u8::try_from(first as u32).ok()?
    };
    chars.next().is_none().then_some(value)
}

/// Appends the bytes of a `"…"` string literal with C escapes to `out`.
/// On `None` the literal was malformed and `out` holds a partial result.
fn parse_string_literal(s: &str, out: &mut Vec<u8>) -> Option<()> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?.as_bytes();
    let mut i = 0;
    while let Some(&c) = inner.get(i) {
        i += 1;
        if c != b'\\' {
            out.push(c);
            continue;
        }
        let escaped = *inner.get(i)?;
        i += 1;
        out.push(match escaped {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'"' => b'"',
            b'\'' => b'\'',
            b'x' => {
                let (hi, lo) = (*inner.get(i)?, *inner.get(i + 1)?);
                i += 2;
                // Two hex digits, or `+` and one (as `u8::from_str_radix`
                // reads them).
                let lo = char::from(lo).to_digit(16)?;
                let hi = if hi == b'+' {
                    0
                } else {
                    char::from(hi).to_digit(16)?
                };
                (hi * 16 + lo) as u8
            }
            _ => return None,
        });
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(src: &str) -> Image {
        assemble(src).unwrap_or_else(|e| panic!("assembly failed: {e}"))
    }

    fn decode_all(img: &Image) -> Vec<Instr> {
        img.text
            .iter()
            .map(|&w| Instr::decode(w).unwrap())
            .collect()
    }

    #[test]
    fn empty_source_yields_empty_image() {
        let img = asm("");
        assert!(img.text.is_empty());
        assert!(img.data.is_empty());
        assert_eq!(img.entry, TEXT_BASE);
    }

    #[test]
    fn simple_instructions_encode() {
        let img = asm("
            addu $t0, $t1, $t2
            addiu $sp, $sp, -16
            lw $a0, 4($sp)
            sw $a0, 0($sp)
            jr $ra
        ");
        let insns = decode_all(&img);
        assert_eq!(insns.len(), 5);
        assert_eq!(insns[0].to_string(), "addu $8,$9,$10");
        assert_eq!(insns[1].to_string(), "addiu $29,$29,-16");
        assert_eq!(insns[2].to_string(), "lw $4,4($29)");
        assert_eq!(insns[3].to_string(), "sw $4,0($29)");
        assert_eq!(insns[4].to_string(), "jr $31");
    }

    #[test]
    fn labels_and_branches_resolve() {
        let img = asm("
loop:   addiu $t0, $t0, 1
        bne $t0, $t1, loop
        beq $t0, $t1, done
        nop
done:   jr $ra
        ");
        let insns = decode_all(&img);
        // bne at word 1 targets word 0: offset = 0 - (1+1) = -2
        assert_eq!(insns[1].to_string(), "bne $8,$9,-2");
        // beq at word 2 targets word 4: offset = 4 - 3 = 1
        assert_eq!(insns[2].to_string(), "beq $8,$9,1");
        assert_eq!(img.symbol("loop"), Some(TEXT_BASE));
        assert_eq!(img.symbol("done"), Some(TEXT_BASE + 16));
    }

    #[test]
    fn data_directives_lay_out_correctly() {
        let img = asm(r#"
        .data
a:      .word 1, 2, 0x30
b:      .byte 1, 2
c:      .asciiz "hi"
d:      .half 0x1234
e:      .space 3
f:      .word a
        "#);
        assert_eq!(img.symbol("a"), Some(DATA_BASE));
        assert_eq!(img.symbol("b"), Some(DATA_BASE + 12));
        assert_eq!(img.symbol("c"), Some(DATA_BASE + 14));
        // .half aligns to 2: c is 3 bytes ("hi\0"), so d at +18 (17 rounded up).
        assert_eq!(img.symbol("d"), Some(DATA_BASE + 18));
        assert_eq!(img.symbol("e"), Some(DATA_BASE + 20));
        // f: .word aligns to 4 (23 -> 24)
        assert_eq!(img.symbol("f"), Some(DATA_BASE + 24));
        assert_eq!(&img.data[0..4], &1u32.to_le_bytes());
        assert_eq!(&img.data[8..12], &0x30u32.to_le_bytes());
        assert_eq!(&img.data[12..14], &[1, 2]);
        assert_eq!(&img.data[14..17], b"hi\0");
        assert_eq!(&img.data[18..20], &0x1234u16.to_le_bytes());
        assert_eq!(&img.data[24..28], &DATA_BASE.to_le_bytes());
    }

    #[test]
    fn li_expansion_sizes() {
        let img = asm("
            li $t0, 5
            li $t1, -1
            li $t2, 0x10000
            li $t3, 0x12345678
            li $t4, 0xffff
        ");
        let insns = decode_all(&img);
        assert_eq!(insns.len(), 1 + 1 + 1 + 2 + 1);
        assert_eq!(insns[0].to_string(), "addiu $8,$0,5");
        assert_eq!(insns[1].to_string(), "addiu $9,$0,-1");
        assert_eq!(insns[2].to_string(), "lui $10,0x1");
        assert_eq!(insns[3].to_string(), "lui $11,0x1234");
        assert_eq!(insns[4].to_string(), "ori $11,$11,0x5678");
        assert_eq!(insns[5].to_string(), "ori $12,$0,0xffff");
    }

    #[test]
    fn la_and_hi_lo_relocations() {
        let img = asm(r#"
        .data
buf:    .space 64
        .text
main:   la $a0, buf
        lui $a1, %hi(buf)
        ori $a1, $a1, %lo(buf)
        "#);
        let insns = decode_all(&img);
        assert_eq!(insns[0].to_string(), "lui $4,0x1000");
        assert_eq!(insns[1].to_string(), "ori $4,$4,0x0");
        assert_eq!(insns[2].to_string(), "lui $5,0x1000");
        assert_eq!(insns[3].to_string(), "ori $5,$5,0x0");
        // entry resolves to `main`
        assert_eq!(img.entry, TEXT_BASE);

        // `sym+off` and `sym-off` in `la`, `.word` and `off(reg)`.
        let img = asm(r#"
        .data
buf:    .space 8
ptrs:   .word buf+4, buf-4, buf + 0x10
        .text
        la $t0, buf+4
        la $t1, buf-4
        "#);
        let insns = decode_all(&img);
        assert_eq!(insns[0].to_string(), "lui $8,0x1000");
        assert_eq!(insns[1].to_string(), "ori $8,$8,0x4");
        assert_eq!(insns[2].to_string(), "lui $9,0xfff");
        assert_eq!(insns[3].to_string(), "ori $9,$9,0xfffc");
        assert_eq!(&img.data[8..12], &(DATA_BASE + 4).to_le_bytes());
        assert_eq!(&img.data[12..16], &(DATA_BASE - 4).to_le_bytes());
        assert_eq!(&img.data[16..20], &(DATA_BASE + 0x10).to_le_bytes());
        // A data address never fits a 16-bit offset, so the memory operand
        // reports the evaluated value rather than a parse failure.
        for (op, value) in [("buf+4", DATA_BASE + 4), ("buf-4", DATA_BASE - 4)] {
            let err =
                assemble(&format!(".data\nbuf: .space 8\n.text\nlw $t1, {op}($zero)")).unwrap_err();
            assert_eq!(
                err.msg,
                format!("immediate {value} does not fit in 16 bits"),
                "{op}"
            );
        }
    }

    #[test]
    fn conditional_pseudo_branches_expand() {
        let img = asm("
start:  blt $a0, $a1, start
        bge $a0, $a1, start
        bgt $a0, $a1, start
        ble $a0, $a1, start
        bltu $a0, $a1, start
        ");
        let insns = decode_all(&img);
        assert_eq!(insns[0].to_string(), "slt $1,$4,$5");
        assert_eq!(insns[1].to_string(), "bne $1,$0,-2");
        assert_eq!(insns[2].to_string(), "slt $1,$4,$5");
        assert_eq!(insns[3].to_string(), "beq $1,$0,-4");
        assert_eq!(insns[4].to_string(), "slt $1,$5,$4");
        assert_eq!(insns[6].to_string(), "slt $1,$5,$4");
        assert_eq!(insns[8].to_string(), "sltu $1,$4,$5");
    }

    #[test]
    fn jumps_to_labels() {
        let img = asm("
main:   jal f
        j end
f:      jr $ra
end:    nop
        ");
        let insns = decode_all(&img);
        assert_eq!(
            insns[0],
            Instr::Jump {
                target: (TEXT_BASE + 8) >> 2,
                link: true
            }
        );
        assert_eq!(
            insns[1],
            Instr::Jump {
                target: (TEXT_BASE + 12) >> 2,
                link: false
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("nop\n bogus $t0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("bogus"));

        let err = assemble("lw $t0, buf").unwrap_err();
        assert!(err.msg.contains("offset(reg)"));

        let err = assemble("beq $t0, $t1, missing").unwrap_err();
        assert!(err.msg.contains("undefined symbol"));

        let err = assemble("x: nop\nx: nop").unwrap_err();
        assert!(err.msg.contains("duplicate label"));

        let err = assemble(".data\n.word 1\nnop").unwrap_err();
        assert!(err.msg.contains("instruction outside .text"));

        let err = assemble(".word 1").unwrap_err();
        assert!(err.msg.contains("outside .data"));

        let err = assemble("addiu $t0, $t0, 0x20000").unwrap_err();
        assert!(err.msg.contains("16 bits"));
    }

    #[test]
    fn comments_and_strings_interact_safely() {
        let img = asm(r#"
        .data
s:      .asciiz "has # and ; inside" # real comment
        .text
        nop ; trailing comment
        "#);
        assert_eq!(&img.data[..7], b"has # a");
        assert_eq!(img.text.len(), 1);
    }

    #[test]
    fn char_literals_in_immediates() {
        let img = asm("li $t0, 'a'\nli $t1, '\\n'\nli $t2, '\\0'");
        let insns = decode_all(&img);
        assert_eq!(insns[0].to_string(), "addiu $8,$0,97");
        assert_eq!(insns[1].to_string(), "addiu $9,$0,10");
        assert_eq!(insns[2].to_string(), "addiu $10,$0,0");
    }

    #[test]
    fn string_escapes_decode() {
        let parse = |s: &str| {
            let mut out = Vec::new();
            parse_string_literal(s, &mut out).map(|()| out)
        };
        assert_eq!(
            parse(r#""a\n\t\x41\0z""#).unwrap(),
            vec![b'a', b'\n', b'\t', 0x41, 0, b'z']
        );
        assert_eq!(parse("\"\""), Some(vec![]));
        assert_eq!(parse("nope"), None);
    }

    #[test]
    fn entry_prefers_start_then_main() {
        let img = asm("pre: nop\nmain: nop");
        assert_eq!(img.entry, TEXT_BASE + 4);
        let img = asm("main: nop\n_start: nop");
        assert_eq!(img.entry, TEXT_BASE + 4, "_start wins over main");
        let img = asm("anon: nop");
        assert_eq!(img.entry, TEXT_BASE);
    }

    #[test]
    fn oversized_data_segment_is_an_error_not_a_panic() {
        const CHUNK: u32 = 16 * 1024 * 1024;
        let src = format!(".data\n{}", ".space 16777216\n".repeat(256));
        let err = assemble(&src).unwrap_err();
        // Line 1 is `.data`; the first chunk that would pass the stack top
        // is the one after the last that fits.
        let fits = (STACK_TOP - DATA_BASE) / CHUNK;
        assert_eq!(err.line, 1 + fits + 1);
        assert!(err.msg.contains("stack top"), "{err}");

        // Every other data directive checks the same bound.
        let fill = ".space 16777216\n".repeat(fits as usize);
        let rest = (STACK_TOP - DATA_BASE) - fits * CHUNK;
        let edge = format!(".data\n{fill}.space {rest}\n.align 12\n");
        for tail in [
            ".byte 1",
            ".half 1",
            ".word 1",
            ".ascii \"a\"",
            ".asciiz \"\"",
        ] {
            let err = assemble(&format!("{edge}{tail}\n")).unwrap_err();
            assert_eq!(err.line, fits + 4, "{tail}");
            assert!(err.msg.contains("stack top"), "{tail}: {err}");
        }
    }

    #[test]
    fn pass_one_error_beats_an_earlier_unknown_mnemonic() {
        // Unknown mnemonics are reported from pass 2, so a duplicate label
        // on a later line wins.
        let err = assemble("bogus $t0\nx: nop\nx: nop\n").unwrap_err();
        assert_eq!(err, AsmError::new(3, "duplicate label `x`"));
    }

    #[test]
    fn pass_two_reports_in_source_order() {
        // A bad `.word` expression on line 2 beats a bad instruction on
        // line 4: pass 2 walks words and instructions interleaved.
        let src = ".data\nw: .word nowhere\n.text\naddu $t0, $t1\n";
        let err = assemble(src).unwrap_err();
        assert_eq!(err, AsmError::new(2, "undefined symbol `nowhere`"));
        // With the word fixed, the instruction's arity error surfaces.
        let err = assemble(&src.replace("nowhere", "w")).unwrap_err();
        assert_eq!(err, AsmError::new(4, "`addu` expects 3 operands, got 2"));
    }

    #[test]
    fn uppercase_mnemonics_are_accepted() {
        assert_eq!(
            asm("ADDU $t0, $t1, $t2\nLi $t0, 0x12345678\nJr $ra"),
            asm("addu $t0, $t1, $t2\nli $t0, 0x12345678\njr $ra")
        );
        let err = assemble("NOP 1").unwrap_err();
        assert_eq!(err.msg, "`nop` expects 0 operands, got 1");
        let err = assemble("BOGUS").unwrap_err();
        assert_eq!(err.msg, "unknown mnemonic `bogus`");
        // Directives and registers stay case-sensitive.
        assert!(assemble(".DATA").is_err());
        assert!(assemble("jr $RA").is_err());
    }

    #[test]
    fn arity_errors_count_every_operand() {
        let err = assemble("addu $t0, $t1, $t2, $t3, $t4").unwrap_err();
        assert_eq!(err.msg, "`addu` expects 3 operands, got 5");
        // `break` ignores operands it does not use.
        assert_eq!(asm("break 1, 2").text, asm("break").text);
    }

    #[test]
    fn memory_operand_closed_before_it_opens_is_an_error() {
        let err = assemble("lw $t0, )4($sp").unwrap_err();
        assert_eq!(err, AsmError::new(1, "missing `)` in memory operand"));
    }

    #[test]
    fn unicode_whitespace_separates_like_ascii() {
        let plain = asm("main: addu $t0, $t1, $t2\n.data\ns: .asciiz \"a b\"");
        let wide = asm("\u{3000}main:\u{a0}addu\u{a0}$t0,\u{b}$t1 ,\u{c}$t2\u{3000}\n.data\u{85}\ns:\t.asciiz\u{a0}\"a b\"\u{a0}");
        assert_eq!(plain, wide);
        // Non-whitespace Unicode is part of the token it touches.
        let err = assemble("nop\u{e9}").unwrap_err();
        assert_eq!(err.msg, "unknown mnemonic `nop\u{e9}`");
    }

    #[test]
    fn source_lines_recorded() {
        let img = asm("nop\nnop\n\nnop");
        assert_eq!(img.lines, vec![1, 2, 4]);
    }
}
