//! Property tests: assembler ↔ disassembler consistency.

use proptest::prelude::*;
use ptaint_asm::{assemble, disassemble};
use ptaint_isa::Instr;

/// Strategy: a random decodable instruction word.
fn arb_instr() -> impl Strategy<Value = Instr> {
    any::<u32>().prop_filter_map("decodable", |w| Instr::decode(w).ok())
}

proptest! {
    /// Any decodable instruction's Display form assembles back to an
    /// instruction with identical semantics (encode fixpoint), as long as
    /// it is expressible in source (branch/jump targets must be in range —
    /// we relocate them to offset 0 to keep the test self-contained).
    #[test]
    fn display_reassembles(insn in arb_instr()) {
        // Normalize control flow to assembler-friendly forms.
        let insn = match insn {
            Instr::Branch { cond, rs, rt, .. } => Instr::Branch { cond, rs, rt, offset: -1 },
            Instr::BranchZ { cond, rs, .. } => Instr::BranchZ { cond, rs, offset: -1 },
            Instr::Jump { link, .. } => Instr::Jump { target: 0x0040_0000 >> 2, link },
            other => other,
        };
        let text = match insn {
            // Branch displays use instruction-relative offsets that the
            // assembler reads as absolute targets; write them with labels.
            Instr::Branch { .. } | Instr::BranchZ { .. } => {
                let mnemonic = insn.to_string();
                let head = mnemonic.split(',').next().unwrap().to_owned();
                let args: Vec<&str> = mnemonic.split(' ').nth(1).unwrap().split(',').collect();
                let regs = &args[..args.len() - 1];
                format!("main:\n {} {},main\n", head.split(' ').next().unwrap(), regs.join(","))
            }
            _ => format!("main:\n {insn}\n"),
        };
        let image = assemble(&text).unwrap_or_else(|e| panic!("`{text}` failed: {e}"));
        let redecoded = Instr::decode(image.text[0]).expect("decodes");
        match insn {
            Instr::Branch { cond, rs, rt, .. } => {
                prop_assert_eq!(redecoded, Instr::Branch { cond, rs, rt, offset: -1 });
            }
            Instr::BranchZ { cond, rs, .. } => {
                prop_assert_eq!(redecoded, Instr::BranchZ { cond, rs, offset: -1 });
            }
            other => prop_assert_eq!(redecoded, other),
        }
    }

    /// Disassembly output of a random word program never panics and marks
    /// undecodable words as data.
    #[test]
    fn disassembler_total(words in proptest::collection::vec(any::<u32>(), 1..64)) {
        let mut image = assemble("nop").unwrap();
        image.text = words.clone();
        let text = disassemble(&image);
        prop_assert_eq!(text.lines().count(), words.len());
        for (line, w) in text.lines().zip(&words) {
            if Instr::decode(*w).is_err() {
                prop_assert!(line.contains(".word"), "{}", line);
            }
        }
    }

    /// `.word`/`.byte`/`.space` layouts always produce data of the right
    /// size and alignment.
    #[test]
    fn data_layout_sizes(words in 1usize..8, bytes in 1usize..8, pad in 0u32..64) {
        let src = format!(
            ".data\nw: .word {}\nb: .byte {}\ns: .space {}\n.align 2\ne: .word 1\n",
            vec!["7"; words].join(", "),
            vec!["3"; bytes].join(", "),
            pad,
        );
        let image = assemble(&src).unwrap();
        let w = image.symbol("w").unwrap();
        let b = image.symbol("b").unwrap();
        let s = image.symbol("s").unwrap();
        let e = image.symbol("e").unwrap();
        prop_assert_eq!(w % 4, 0);
        prop_assert_eq!(b - w, 4 * words as u32);
        prop_assert_eq!(s - b, bytes as u32);
        prop_assert_eq!(e % 4, 0);
        prop_assert!(e >= s + pad);
        prop_assert!(e - (s + pad) < 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fuzz: the assembler never panics on arbitrary source text.
    #[test]
    fn assembler_is_panic_free(input in "\\PC{0,200}") {
        let _ = assemble(&input);
    }

    /// Fuzz with assembly-shaped lines.
    #[test]
    fn asm_shaped_fuzz(lines in proptest::collection::vec(
        "[a-z]{1,6} \\$[a-z0-9]{1,4}(, ?(\\$[a-z0-9]{1,4}|-?[0-9]{1,5}|0x[0-9a-f]{1,8})){0,3}",
        0..12))
    {
        let _ = assemble(&lines.join("\n"));
    }
}

/// Text statements as `(mnemonic, operands)`; every one assembles in the
/// program `whitespace_and_comments_are_invisible` builds around them.
const TEXT_STATEMENTS: &[(&str, &[&str])] = &[
    ("addu", &["$t0", "$t1", "$t2"]),
    ("addiu", &["$sp", "$sp", "-16"]),
    ("lw", &["$a0", "4($sp)"]),
    ("sw", &["$a0", "0($sp)"]),
    ("lb", &["$v0", "-1($t0)"]),
    ("li", &["$t0", "0x12345678"]),
    ("li", &["$t1", "'a'"]),
    ("la", &["$a0", "msg"]),
    ("lui", &["$a1", "%hi(msg)"]),
    ("ori", &["$a1", "$a1", "%lo(msg)"]),
    ("beq", &["$t0", "$t1", "top"]),
    ("blt", &["$a0", "$a1", "top"]),
    ("bnez", &["$v0", "top"]),
    ("jal", &["top"]),
    ("jalr", &["$t9"]),
    ("jr", &["$ra"]),
    ("sll", &["$t0", "$t1", "4"]),
    ("mult", &["$a0", "$a1"]),
    ("mflo", &["$v0"]),
    ("nop", &[]),
    ("syscall", &[]),
];

/// Data statements as `(directive, operands)`.
const DATA_STATEMENTS: &[(&str, &[&str])] = &[
    (".word", &["1", "msg", "top", "msg-4"]),
    (".byte", &["1", "2", "'z'", "0x7f"]),
    (".half", &["0x1234", "-1"]),
    (".asciiz", &["\"a b, c # d; e\""]),
    (".ascii", &["\"x\\ty\""]),
    (".space", &["3"]),
    (".align", &["2"]),
];

/// Whitespace characters the assembler must treat alike: ASCII space and
/// tab, vertical tab and form feed (which `u8::is_ascii_whitespace` misses),
/// and two Unicode spaces.
const SPACES: &[&str] = &[" ", "\t", "\u{b}", "\u{c}", "\u{a0}", "\u{3000}"];

/// Trailing comments, including comment characters and separators that
/// must not be read as code.
const COMMENTS: &[&str] = &["# note", "; x, y: z", "#", ";\"q", "# .data"];

/// Draws from a stream of random numbers.
struct Noise<'a>(std::slice::Iter<'a, usize>);

impl Noise<'_> {
    fn next(&mut self, n: usize) -> usize {
        self.0.next().map_or(0, |v| v % n)
    }

    /// A run of zero or more whitespace characters, at least `min` long.
    fn spaces(&mut self, min: usize) -> String {
        let len = min + self.next(3);
        (0..len).map(|_| SPACES[self.next(SPACES.len())]).collect()
    }

    fn comment(&mut self) -> String {
        if self.next(3) == 0 {
            format!("{}{}", self.spaces(0), COMMENTS[self.next(COMMENTS.len())])
        } else {
            String::new()
        }
    }
}

/// Renders one statement. With `noise`, whitespace runs go between every
/// pair of tokens and a trailing comment may follow; without it the line
/// is minimal.
fn render(
    label: Option<String>,
    head: &str,
    ops: &[&str],
    noise: &mut Option<Noise<'_>>,
) -> String {
    let mut gap = |min: usize| match noise {
        Some(n) => n.spaces(min),
        None => " ".repeat(min),
    };
    let mut line = gap(0);
    if let Some(label) = label {
        line += &label;
        line += ":";
        line += &gap(0);
    }
    line += head;
    if !ops.is_empty() {
        line += &gap(1);
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                line += &gap(0);
                line += ",";
                line += &gap(0);
            }
            line += op;
        }
    }
    line += &gap(0);
    if let Some(n) = noise {
        line += &n.comment();
    }
    line
}

fn program(data: &[usize], text: &[(usize, bool)], noise: Option<&[usize]>) -> String {
    let mut noise = noise.map(|v| Noise(v.iter()));
    let mut lines = vec![".data".to_owned()];
    lines.push(render(
        Some("msg".into()),
        ".asciiz",
        &["\"hi\""],
        &mut noise,
    ));
    for &d in data {
        let (head, ops) = DATA_STATEMENTS[d];
        lines.push(render(None, head, ops, &mut noise));
    }
    lines.push(".text".to_owned());
    lines.push(render(Some("top".into()), "nop", &[], &mut noise));
    for (i, &(t, labelled)) in text.iter().enumerate() {
        let (head, ops) = TEXT_STATEMENTS[t];
        let label = labelled.then(|| format!("l{i}"));
        lines.push(render(label, head, ops, &mut noise));
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whitespace of any kind between tokens, and trailing `#`/`;`
    /// comments, never change the assembled image.
    #[test]
    fn whitespace_and_comments_are_invisible(
        data in proptest::collection::vec(0..DATA_STATEMENTS.len(), 0..5),
        text in proptest::collection::vec((0..TEXT_STATEMENTS.len(), any::<bool>()), 1..16),
        noise in proptest::collection::vec(any::<usize>(), 512..513),
    ) {
        let plain = program(&data, &text, None);
        let noisy = program(&data, &text, Some(&noise));
        let expected = assemble(&plain).unwrap_or_else(|e| panic!("{plain:?}: {e}"));
        let actual = assemble(&noisy).unwrap_or_else(|e| panic!("{noisy:?}: {e}"));
        prop_assert_eq!(actual, expected, "{:?}", noisy);
    }
}
