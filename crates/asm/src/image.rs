//! The loadable program image produced by the assembler.

use std::collections::HashMap;
use std::fmt;

use ptaint_isa::{DATA_BASE, TEXT_BASE};

/// An assembled program: resolved text words, data bytes, the entry point,
/// and the symbol table.
///
/// Images are pure data — the loader in `ptaint-os` maps them into a
/// [`MemorySystem`](../ptaint_mem/struct.MemorySystem.html) and sets up the
/// initial stack.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Image {
    /// Encoded instructions, loaded consecutively at [`Image::text_base`].
    pub text: Vec<u32>,
    /// Base virtual address of the text segment.
    pub text_base: u32,
    /// Raw initialized data bytes, loaded at [`Image::data_base`].
    pub data: Vec<u8>,
    /// Base virtual address of the data segment.
    pub data_base: u32,
    /// Entry point (the `main`/`_start` symbol, or the first text address).
    pub entry: u32,
    /// Symbol table: label name → virtual address.
    pub symbols: HashMap<String, u32>,
    /// Source line (1-based) for each text word, parallel to [`Image::text`].
    pub lines: Vec<u32>,
}

impl Image {
    /// An empty image at the conventional bases.
    #[must_use]
    pub fn new() -> Image {
        Image {
            text: Vec::new(),
            text_base: TEXT_BASE,
            data: Vec::new(),
            data_base: DATA_BASE,
            entry: TEXT_BASE,
            symbols: HashMap::new(),
            lines: Vec::new(),
        }
    }

    /// Address of the symbol, if defined.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The symbol whose address equals `addr`, preferring the shortest name
    /// (then the lexicographically least) for stable output.
    #[must_use]
    pub fn symbol_at(&self, addr: u32) -> Option<&str> {
        self.symbols
            .iter()
            .filter(|&(_, &a)| a == addr)
            .map(|(n, _)| n.as_str())
            .reduce(preferred_name)
    }

    /// Every symbol address with the name [`Image::symbol_at`] prefers
    /// there: one pass over the table, for callers that resolve many
    /// addresses (a disassembly, a retire tail).
    #[must_use]
    pub fn symbol_index(&self) -> HashMap<u32, &str> {
        let mut index: HashMap<u32, &str> = HashMap::with_capacity(self.symbols.len());
        for (name, &addr) in &self.symbols {
            index
                .entry(addr)
                .and_modify(|best| *best = preferred_name(best, name))
                .or_insert(name);
        }
        index
    }

    /// One-past-the-end address of the text segment.
    #[must_use]
    pub fn text_end(&self) -> u32 {
        self.text_base + (self.text.len() as u32) * 4
    }

    /// One-past-the-end address of the data segment (the initial program
    /// break before heap growth).
    #[must_use]
    pub fn data_end(&self) -> u32 {
        self.data_base + self.data.len() as u32
    }

    /// Source line for the instruction at `addr`, when known.
    #[must_use]
    pub fn line_at(&self, addr: u32) -> Option<u32> {
        if addr < self.text_base || !addr.is_multiple_of(4) {
            return None;
        }
        self.lines
            .get(((addr - self.text_base) / 4) as usize)
            .copied()
    }
}

/// Of two names at one address, the shorter, then the lexicographically
/// least.
fn preferred_name<'a>(a: &'a str, b: &'a str) -> &'a str {
    if (b.len(), b) < (a.len(), a) {
        b
    } else {
        a
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image: {} text words @ {:#x}, {} data bytes @ {:#x}, entry {:#x}, {} symbols",
            self.text.len(),
            self.text_base,
            self.data.len(),
            self.data_base,
            self.entry,
            self.symbols.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_arithmetic() {
        let mut img = Image::new();
        img.text = vec![0; 3];
        img.data = vec![0; 10];
        assert_eq!(img.text_end(), TEXT_BASE + 12);
        assert_eq!(img.data_end(), DATA_BASE + 10);
    }

    #[test]
    fn symbol_lookup_both_ways() {
        let mut img = Image::new();
        img.symbols.insert("main".into(), TEXT_BASE);
        img.symbols.insert("m".into(), TEXT_BASE);
        img.symbols.insert("buf".into(), DATA_BASE + 4);
        assert_eq!(img.symbol("buf"), Some(DATA_BASE + 4));
        assert_eq!(img.symbol("nope"), None);
        // Shortest name wins for reverse lookup.
        assert_eq!(img.symbol_at(TEXT_BASE), Some("m"));
        assert_eq!(img.symbol_at(0xdead_0000), None);
    }

    #[test]
    fn symbol_index_prefers_what_symbol_at_prefers() {
        // Same-length names tie-break lexicographically, whatever order
        // the map iterates in: each fresh map has its own random order.
        for _ in 0..8 {
            let mut img = Image::new();
            for name in ["main", "zz", "ab", "abc", "buf"] {
                img.symbols.insert(name.into(), TEXT_BASE);
            }
            img.symbols.insert("data".into(), DATA_BASE);
            let index = img.symbol_index();
            assert_eq!(index.len(), 2);
            for (&addr, &name) in &index {
                assert_eq!(img.symbol_at(addr), Some(name));
            }
            assert_eq!(index[&TEXT_BASE], "ab");
        }
    }

    #[test]
    fn line_lookup() {
        let mut img = Image::new();
        img.text = vec![0, 0];
        img.lines = vec![10, 12];
        assert_eq!(img.line_at(TEXT_BASE), Some(10));
        assert_eq!(img.line_at(TEXT_BASE + 4), Some(12));
        assert_eq!(img.line_at(TEXT_BASE + 8), None);
        assert_eq!(img.line_at(TEXT_BASE + 1), None);
        assert_eq!(img.line_at(0), None);
    }
}
