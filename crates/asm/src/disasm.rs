//! Disassembly of an [`Image`] back into annotated assembly text.

use ptaint_isa::Instr;

use crate::Image;

/// Disassembles the text segment of `image`, one line per instruction, with
/// addresses and symbol annotations:
///
/// ```text
/// 00400000 <main>:  addiu $29,$29,-32
/// 00400004          sw $31,28($29)
/// ```
///
/// Undecodable words render as `.word 0x…`.
#[must_use]
pub fn disassemble(image: &Image) -> String {
    let symbols = image.symbol_index();
    let mut out = String::new();
    for (i, &word) in image.text.iter().enumerate() {
        let addr = image.text_base + 4 * i as u32;
        let label = symbols
            .get(&addr)
            .map(|s| format!(" <{s}>:"))
            .unwrap_or_default();
        let body = match Instr::decode(word) {
            Ok(insn) => insn.to_string(),
            Err(_) => format!(".word {word:#010x}"),
        };
        out.push_str(&format!("{addr:08x}{label:<12} {body}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    #[test]
    fn disassembly_round_trips_through_display() {
        let img =
            assemble("main: addiu $sp, $sp, -32\n      sw $ra, 28($sp)\n      jr $ra\n").unwrap();
        let text = disassemble(&img);
        assert!(text.contains("<main>:"), "{text}");
        assert!(text.contains("addiu $29,$29,-32"), "{text}");
        assert!(text.contains("sw $31,28($29)"), "{text}");
        assert!(text.contains("jr $31"), "{text}");
    }

    #[test]
    fn illegal_words_render_as_word_directive() {
        let mut img = assemble("nop").unwrap();
        img.text[0] = 0xffff_ffff;
        let text = disassemble(&img);
        assert!(text.contains(".word 0xffffffff"), "{text}");
    }
}
