//! Sparse paged memory with a shadow taintedness bit per byte.
//!
//! Pages live in a two-level radix table indexed by address bits: 1024
//! top-level entries (one per 4 MiB of address space), each an optional
//! leaf of 1024 page slots allocated on first touch. A lookup is two
//! indexed loads with no hashing, and iteration visits pages in address
//! order.
//!
//! Pages are reference-counted ([`Arc`]) so a whole address space can be
//! forked by copying the table: [`TaintedMemory::fork`] shares every page
//! between parent and child, and the first write to a shared page copies
//! it (copy-on-write). Read paths never unshare.

use std::fmt;
use std::sync::Arc;

use ptaint_isa::PAGE_SIZE;

use crate::WordTaint;

const PAGE_BYTES: usize = PAGE_SIZE as usize;
const TAINT_WORDS: usize = PAGE_BYTES / 64;
const PAGE_BITS: u32 = PAGE_SIZE.trailing_zeros();
/// Address bits consumed by a leaf: one leaf maps 1024 pages (4 MiB).
const LEAF_BITS: u32 = 10;
const LEAF_SLOTS: usize = 1 << LEAF_BITS;
const TOP_SLOTS: usize = 1 << (32 - PAGE_BITS - LEAF_BITS);

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// What went wrong.
    pub kind: MemFaultKind,
    /// The offending virtual address.
    pub addr: u32,
}

/// The kind of a [`MemFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// A word or halfword access to an address that is not a multiple of the
    /// access width.
    Unaligned,
    /// An access inside the guard page at address zero. Dereferencing wild
    /// pointers (e.g. NULL) crashes realistically instead of silently reading
    /// zeroes.
    NullDeref,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MemFaultKind::Unaligned => write!(f, "unaligned memory access at {:#010x}", self.addr),
            MemFaultKind::NullDeref => {
                write!(f, "null-page dereference at {:#010x}", self.addr)
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// One 4 KiB page: data bytes plus a taint bit per byte.
#[derive(Clone)]
struct Page {
    data: Box<[u8; PAGE_BYTES]>,
    taint: Box<[u64; TAINT_WORDS]>,
}

impl Page {
    fn new() -> Page {
        Page {
            data: Box::new([0; PAGE_BYTES]),
            taint: Box::new([0; TAINT_WORDS]),
        }
    }

    #[inline]
    fn taint_bit(&self, off: usize) -> bool {
        self.taint[off / 64] & (1 << (off % 64)) != 0
    }

    #[inline]
    fn set_taint_bit(&mut self, off: usize, tainted: bool) {
        let (word, bit) = (off / 64, 1u64 << (off % 64));
        if tainted {
            self.taint[word] |= bit;
        } else {
            self.taint[word] &= !bit;
        }
    }

    /// Sets or clears the shadow bits of bytes `off..off + len` (within
    /// the page) one masked shadow word at a time.
    fn set_taint_span(&mut self, off: usize, len: usize, tainted: bool) {
        let end = off + len;
        let mut at = off;
        while at < end {
            let (word, shift) = (at / 64, at % 64);
            let bits = (end - at).min(64 - shift);
            let mask = (u64::MAX >> (64 - bits)) << shift;
            if tainted {
                self.taint[word] |= mask;
            } else {
                self.taint[word] &= !mask;
            }
            at += bits;
        }
    }

    fn tainted_bytes(&self) -> u64 {
        self.taint.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

type Leaf = [Option<Arc<Page>>; LEAF_SLOTS];

/// The two-level page table: `top[addr >> 22]` is the leaf for a 4 MiB
/// region and `leaf[(addr >> 12) & 1023]` the page. Both indices are
/// bounded by construction, so lookups compile to two indexed loads.
/// Cloning copies the top level and every touched leaf; the pages
/// themselves are shared by reference count.
#[derive(Clone)]
struct PageTable {
    top: Box<[Option<Box<Leaf>>; TOP_SLOTS]>,
    len: usize,
}

impl PageTable {
    fn new() -> PageTable {
        PageTable {
            top: Box::new([const { None }; TOP_SLOTS]),
            len: 0,
        }
    }

    #[inline]
    fn indices(addr: u32) -> (usize, usize) {
        let page = (addr >> PAGE_BITS) as usize;
        (page >> LEAF_BITS, page & (LEAF_SLOTS - 1))
    }

    #[inline]
    fn get(&self, addr: u32) -> Option<&Page> {
        let (hi, lo) = PageTable::indices(addr);
        self.top[hi].as_ref()?[lo].as_deref()
    }

    /// The slot for `addr`'s page, materializing a zeroed page (and its
    /// leaf) on first touch.
    #[inline]
    fn get_or_insert(&mut self, addr: u32) -> &mut Arc<Page> {
        let (hi, lo) = PageTable::indices(addr);
        let leaf = self.top[hi].get_or_insert_with(|| Box::new([const { None }; LEAF_SLOTS]));
        let slot = &mut leaf[lo];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(|| Arc::new(Page::new()))
    }

    /// Every materialized page with its page number, in address order.
    fn iter(&self) -> impl Iterator<Item = (u32, &Arc<Page>)> {
        self.top.iter().enumerate().flat_map(|(hi, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter().enumerate().filter_map(move |(lo, page)| {
                    Some((((hi << LEAF_BITS) | lo) as u32, page.as_ref()?))
                })
            })
        })
    }
}

/// A sparse, little-endian, byte-addressable memory in which **every byte has
/// a taintedness bit**, implementing the extended memory model of paper §4.1.
///
/// Pages are allocated on first touch. Word and halfword accesses must be
/// naturally aligned; accesses to the zero page fault (see
/// [`MemFaultKind::NullDeref`]).
///
/// ```
/// use ptaint_mem::{TaintedMemory, WordTaint};
///
/// let mut mem = TaintedMemory::new();
/// mem.write_u32(0x1000_0000, 0xdead_beef, WordTaint::from_bits(0b0010))?;
/// let (v, t) = mem.read_u32(0x1000_0000)?;
/// assert_eq!(v, 0xdead_beef);
/// assert!(t.byte(1) && !t.byte(0));
/// # Ok::<(), ptaint_mem::MemFault>(())
/// ```
pub struct TaintedMemory {
    pages: PageTable,
    null_guard: bool,
    cow_faults: u64,
}

impl Default for TaintedMemory {
    /// An empty memory *without* the null-page guard, like
    /// [`TaintedMemory::without_null_guard`].
    fn default() -> TaintedMemory {
        TaintedMemory::without_null_guard()
    }
}

impl fmt::Debug for TaintedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaintedMemory")
            .field("pages", &self.pages.len)
            .field("null_guard", &self.null_guard)
            .field("cow_faults", &self.cow_faults)
            .finish()
    }
}

impl TaintedMemory {
    /// Creates an empty memory with the null-page guard enabled.
    #[must_use]
    pub fn new() -> TaintedMemory {
        TaintedMemory {
            pages: PageTable::new(),
            null_guard: true,
            cow_faults: 0,
        }
    }

    /// Creates an empty memory without the null-page guard (every address,
    /// including page zero, is readable/writable). Useful for raw unit tests.
    #[must_use]
    pub fn without_null_guard() -> TaintedMemory {
        TaintedMemory {
            pages: PageTable::new(),
            null_guard: false,
            cow_faults: 0,
        }
    }

    /// A copy-on-write fork of this memory: the child shares every page
    /// (data *and* shadow taint) with the parent by reference count, so the
    /// fork copies the page table (its top level and touched leaves) instead
    /// of any page bytes. The first write either side makes to a shared
    /// page unshares just that page (a "COW fault", counted per instance by
    /// [`TaintedMemory::cow_fault_count`]); the child's COW fault counter
    /// starts at zero.
    #[must_use]
    pub fn fork(&self) -> TaintedMemory {
        TaintedMemory {
            pages: self.pages.clone(),
            null_guard: self.null_guard,
            cow_faults: 0,
        }
    }

    /// Number of materialized pages currently shared with at least one fork
    /// (reference count above one).
    #[must_use]
    pub fn pages_shared(&self) -> usize {
        self.pages
            .iter()
            .filter(|(_, p)| Arc::strong_count(p) > 1)
            .count()
    }

    /// Number of writes that had to unshare a page since this instance was
    /// created or forked.
    #[must_use]
    pub fn cow_fault_count(&self) -> u64 {
        self.cow_faults
    }

    #[inline]
    fn check(&self, addr: u32, align: u32) -> Result<(), MemFault> {
        if self.null_guard && addr < PAGE_SIZE {
            return Err(MemFault {
                kind: MemFaultKind::NullDeref,
                addr,
            });
        }
        if align > 1 && !addr.is_multiple_of(align) {
            return Err(MemFault {
                kind: MemFaultKind::Unaligned,
                addr,
            });
        }
        Ok(())
    }

    /// The page under `addr` for writing: materialized on first touch,
    /// unshared first if a fork still holds it. `always`: with a plain
    /// `#[inline]` LLVM keeps it out of line, one call per guest store.
    #[inline(always)]
    fn page(&mut self, addr: u32) -> &mut Page {
        let arc = self.pages.get_or_insert(addr);
        if Arc::strong_count(arc) > 1 {
            self.cow_faults += 1;
        }
        Arc::make_mut(arc)
    }

    /// Reads one byte and its taint bit.
    ///
    /// # Errors
    ///
    /// Faults on a null-page access.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Result<(u8, bool), MemFault> {
        self.check(addr, 1)?;
        let off = (addr % PAGE_SIZE) as usize;
        Ok(match self.pages.get(addr) {
            Some(p) => (p.data[off], p.taint_bit(off)),
            None => (0, false),
        })
    }

    /// Writes one byte and its taint bit.
    ///
    /// # Errors
    ///
    /// Faults on a null-page access.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8, tainted: bool) -> Result<(), MemFault> {
        self.check(addr, 1)?;
        let off = (addr % PAGE_SIZE) as usize;
        let page = self.page(addr);
        page.data[off] = value;
        page.set_taint_bit(off, tainted);
        Ok(())
    }

    /// Reads a little-endian halfword; taint bits land in the low half of the
    /// returned [`WordTaint`].
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 2-aligned or inside the null page.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Result<(u16, WordTaint), MemFault> {
        self.check(addr, 2)?;
        let (b0, t0) = self.read_u8(addr)?;
        let (b1, t1) = self.read_u8(addr + 1)?;
        let taint = WordTaint::CLEAN.with_byte(0, t0).with_byte(1, t1);
        Ok((u16::from_le_bytes([b0, b1]), taint))
    }

    /// Writes a little-endian halfword with the low two taint bits of `taint`.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 2-aligned or inside the null page.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16, taint: WordTaint) -> Result<(), MemFault> {
        self.check(addr, 2)?;
        let [b0, b1] = value.to_le_bytes();
        self.write_u8(addr, b0, taint.byte(0))?;
        self.write_u8(addr + 1, b1, taint.byte(1))
    }

    /// Reads a little-endian word together with its four taint bits.
    ///
    /// This is the word-granular fast path: one page lookup, one 4-byte
    /// slice, and one shadow-word extraction. A 4-aligned word's taint bits
    /// can never straddle a shadow `u64` (`64 % 4 == 0`), so a single shift
    /// recovers all four.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 4-aligned or inside the null page.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<(u32, WordTaint), MemFault> {
        self.check(addr, 4)?;
        let off = (addr % PAGE_SIZE) as usize;
        Ok(match self.pages.get(addr) {
            Some(p) => {
                let bytes: [u8; 4] = p.data[off..off + 4].try_into().unwrap();
                let bits = ((p.taint[off / 64] >> (off % 64)) & 0xF) as u8;
                (u32::from_le_bytes(bytes), WordTaint::from_bits(bits))
            }
            None => (0, WordTaint::CLEAN),
        })
    }

    /// The little-endian words from the 4-aligned `addr` to the end of its
    /// page, data only, for one page lookup instead of one per
    /// [`TaintedMemory::read_u32`]. Words of an unmapped page read as zero.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 4-aligned or inside the null page.
    pub fn page_words(&self, addr: u32) -> Result<impl Iterator<Item = u32> + '_, MemFault> {
        static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];
        self.check(addr, 4)?;
        let off = (addr % PAGE_SIZE) as usize;
        let data = self.pages.get(addr).map_or(&ZERO_PAGE, |p| &*p.data);
        Ok(data[off..]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunks"))))
    }

    /// Writes a little-endian word together with its four taint bits.
    ///
    /// Like [`TaintedMemory::read_u32`], this resolves the page once and
    /// patches the four taint bits with a single masked shadow-word update.
    ///
    /// # Errors
    ///
    /// Faults when `addr` is not 4-aligned or inside the null page.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32, taint: WordTaint) -> Result<(), MemFault> {
        self.check(addr, 4)?;
        let off = (addr % PAGE_SIZE) as usize;
        let page = self.page(addr);
        page.data[off..off + 4].copy_from_slice(&value.to_le_bytes());
        let (word, shift) = (off / 64, off % 64);
        page.taint[word] =
            (page.taint[word] & !(0xF_u64 << shift)) | (u64::from(taint.bits()) << shift);
        Ok(())
    }

    /// Copies `data` into memory, marking every written byte with `tainted`.
    ///
    /// This is the primitive the virtual OS uses when returning data from
    /// `SYS_READ`/`SYS_RECV` into a user buffer: data from an external source
    /// arrives with `tainted == true` (paper §4.4).
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8], tainted: bool) -> Result<(), MemFault> {
        // One page lookup (and one null-guard check — the guard is
        // page-granular) per crossed page, not per byte. A fault mid-range
        // still leaves every byte of the preceding pages written, exactly
        // like the old byte-at-a-time loop.
        let mut i = 0;
        while i < data.len() {
            let a = addr.wrapping_add(i as u32);
            self.check(a, 1)?;
            let off = (a % PAGE_SIZE) as usize;
            let run = (data.len() - i).min(PAGE_BYTES - off);
            let page = self.page(a);
            page.data[off..off + run].copy_from_slice(&data[i..i + run]);
            page.set_taint_span(off, run, tainted);
            i += run;
        }
        Ok(())
    }

    /// Reads `len` bytes (data only).
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        (0..len)
            .map(|i| self.read_u8(addr + i).map(|(b, _)| b))
            .collect()
    }

    /// Reads `len` taint bits starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page, or runs past
    /// `0xffffffff` (it would wrap into the null page; nothing is read).
    pub fn read_taint(&self, addr: u32, len: u32) -> Result<Vec<bool>, MemFault> {
        if len > 0 && addr.checked_add(len - 1).is_none() {
            return Err(MemFault {
                kind: MemFaultKind::NullDeref,
                addr: 0,
            });
        }
        (0..len)
            .map(|i| self.read_u8(addr + i).map(|(_, t)| t))
            .collect()
    }

    /// Reads a NUL-terminated byte string of at most `max` bytes (terminator
    /// excluded).
    ///
    /// # Errors
    ///
    /// Faults when the scan touches the null page.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let (b, _) = self.read_u8(addr + i)?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Marks every byte in `[addr, addr + len)` with `tainted` without
    /// touching the data.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn set_taint_range(&mut self, addr: u32, len: u32, tainted: bool) -> Result<(), MemFault> {
        // Page lookup hoisted per crossed page, like `write_bytes`. The data
        // bytes are untouched; this flips shadow bits only.
        let mut i = 0;
        while i < len {
            let a = addr.wrapping_add(i);
            self.check(a, 1)?;
            let off = (a % PAGE_SIZE) as usize;
            let run = (len - i).min((PAGE_BYTES - off) as u32);
            self.page(a).set_taint_span(off, run as usize, tainted);
            i += run;
        }
        Ok(())
    }

    /// Maximal contiguous runs of tainted bytes, as `(base, len)` pairs in
    /// ascending address order.
    ///
    /// The page table iterates in address order, so the result is
    /// deterministic for a given memory state — the fault-injection harness
    /// relies on that to pick corruption targets reproducibly from a seed.
    #[must_use]
    pub fn tainted_ranges(&self) -> Vec<(u32, u32)> {
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (pi, page) in self.pages.iter() {
            let base = pi * PAGE_SIZE;
            for (wi, &word) in page.taint.iter().enumerate() {
                // One step per run of set bits, not per bit: skip the clean
                // run below it, measure it, then clear it.
                let mut rest = word;
                while rest != 0 {
                    let bit = rest.trailing_zeros();
                    let run = (rest >> bit).trailing_ones();
                    let addr = base + (wi * 64) as u32 + bit;
                    match ranges.last_mut() {
                        Some((start, len)) if start.wrapping_add(*len) == addr => *len += run,
                        _ => ranges.push((addr, run)),
                    }
                    rest &= u64::MAX.checked_shl(bit + run).unwrap_or(0);
                }
            }
        }
        ranges
    }

    /// Number of pages currently materialized.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len
    }

    /// Total number of tainted bytes across all pages — the quantity behind
    /// the paper's space-overhead discussion (§5.4).
    #[must_use]
    pub fn tainted_byte_count(&self) -> u64 {
        self.pages.iter().map(|(_, p)| p.tainted_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized_and_untainted() {
        let mem = TaintedMemory::new();
        assert_eq!(mem.read_u8(0x1000).unwrap(), (0, false));
        assert_eq!(mem.read_u32(0x0040_0000).unwrap(), (0, WordTaint::CLEAN));
        assert_eq!(mem.page_count(), 0);
        assert_eq!(mem.tainted_byte_count(), 0);
    }

    #[test]
    fn byte_write_read_with_taint() {
        let mut mem = TaintedMemory::new();
        mem.write_u8(0x2000, 0xab, true).unwrap();
        assert_eq!(mem.read_u8(0x2000).unwrap(), (0xab, true));
        mem.write_u8(0x2000, 0xcd, false).unwrap();
        assert_eq!(mem.read_u8(0x2000).unwrap(), (0xcd, false));
        assert_eq!(mem.page_count(), 1);
    }

    #[test]
    fn word_is_little_endian() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x3000, &[0x61, 0x62, 0x63, 0x64], true)
            .unwrap();
        let (v, t) = mem.read_u32(0x3000).unwrap();
        assert_eq!(v, 0x6463_6261);
        assert_eq!(t, WordTaint::ALL);
    }

    #[test]
    fn per_byte_taint_granularity_in_words() {
        let mut mem = TaintedMemory::new();
        mem.write_u32(0x3000, 0x1122_3344, WordTaint::from_bits(0b0110))
            .unwrap();
        let (_, t) = mem.read_u32(0x3000).unwrap();
        assert_eq!(t.bits(), 0b0110);
        // Individual bytes see their own bit.
        assert!(!mem.read_u8(0x3000).unwrap().1);
        assert!(mem.read_u8(0x3001).unwrap().1);
        assert!(mem.read_u8(0x3002).unwrap().1);
        assert!(!mem.read_u8(0x3003).unwrap().1);
        assert_eq!(mem.tainted_byte_count(), 2);
    }

    #[test]
    fn word_fast_path_agrees_with_byte_path() {
        // Exercise words adjacent to every interesting boundary: the shadow
        // u64 seam (offset 64) and the page seam.
        let mut mem = TaintedMemory::new();
        for (i, addr) in [0x2038, 0x203c, 0x2040, 2 * PAGE_SIZE - 4, 2 * PAGE_SIZE]
            .into_iter()
            .enumerate()
        {
            let taint = WordTaint::from_bits(0b1010 >> (i % 2));
            mem.write_u32(addr, 0x0101_0101 * (i as u32 + 1), taint)
                .unwrap();
            let (word, wt) = mem.read_u32(addr).unwrap();
            assert_eq!(word, 0x0101_0101 * (i as u32 + 1));
            assert_eq!(wt, taint);
            for b in 0..4 {
                let (byte, bt) = mem.read_u8(addr + b).unwrap();
                assert_eq!(u32::from(byte), i as u32 + 1);
                assert_eq!(bt, taint.byte(b as usize), "byte {b} of {addr:#x}");
            }
        }
    }

    #[test]
    fn page_words_read_like_read_u32_to_the_page_end() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x2ff0, &[7; 32], true).unwrap();
        let words: Vec<u32> = mem.page_words(0x2fe8).unwrap().collect();
        let expected: Vec<u32> = (0x2fe8..0x3000)
            .step_by(4)
            .map(|a| mem.read_u32(a).unwrap().0)
            .collect();
        assert_eq!(words, expected, "stops at the page end");
        assert_eq!(
            words,
            [0, 0, 0x0707_0707, 0x0707_0707, 0x0707_0707, 0x0707_0707]
        );
        // An unmapped page reads as zero words; faults match read_u32's.
        assert!(mem.page_words(0x9000).unwrap().all(|w| w == 0));
        assert_eq!(mem.page_words(0x2fea).err(), mem.read_u32(0x2fea).err());
        assert_eq!(mem.page_words(0x10).err(), mem.read_u32(0x10).err());
    }

    #[test]
    fn halfword_roundtrip() {
        let mut mem = TaintedMemory::new();
        mem.write_u16(0x4000, 0xbeef, WordTaint::from_bits(0b01))
            .unwrap();
        let (v, t) = mem.read_u16(0x4000).unwrap();
        assert_eq!(v, 0xbeef);
        assert!(t.byte(0) && !t.byte(1));
    }

    #[test]
    fn unaligned_accesses_fault() {
        let mut mem = TaintedMemory::new();
        assert_eq!(
            mem.read_u32(0x1001).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
        assert_eq!(
            mem.read_u16(0x1001).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
        assert_eq!(
            mem.write_u32(0x1002, 0, WordTaint::CLEAN).unwrap_err().kind,
            MemFaultKind::Unaligned
        );
        // Byte accesses never require alignment.
        mem.write_u8(0x1001, 1, false).unwrap();
    }

    #[test]
    fn null_page_guard() {
        let mut mem = TaintedMemory::new();
        assert_eq!(mem.read_u8(0).unwrap_err().kind, MemFaultKind::NullDeref);
        assert_eq!(mem.read_u8(4095).unwrap_err().kind, MemFaultKind::NullDeref);
        assert_eq!(
            mem.write_u32(0, 1, WordTaint::CLEAN).unwrap_err().kind,
            MemFaultKind::NullDeref
        );
        mem.read_u8(4096).unwrap();

        let mut raw = TaintedMemory::without_null_guard();
        raw.write_u8(0, 7, true).unwrap();
        assert_eq!(raw.read_u8(0).unwrap(), (7, true));
    }

    #[test]
    fn cross_page_bulk_copy() {
        let mut mem = TaintedMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        let base = 2 * PAGE_SIZE - 128; // straddles a page boundary
        mem.write_bytes(base, &data, true).unwrap();
        assert_eq!(mem.read_bytes(base, 256).unwrap(), data);
        assert!(mem.read_taint(base, 256).unwrap().iter().all(|&t| t));
        assert_eq!(mem.page_count(), 2);
        assert_eq!(mem.tainted_byte_count(), 256);
    }

    #[test]
    fn taint_reads_at_the_top_of_the_address_space() {
        let mut mem = TaintedMemory::new();
        mem.write_u8(0xffff_ffff, 1, true).unwrap();
        assert_eq!(mem.read_taint(0xffff_fffe, 2).unwrap(), [false, true]);
        assert!(mem.read_taint(0xffff_ffff, 0).unwrap().is_empty());
        // One byte past the top wraps: a fault, never a read of page zero
        // (and no `len`-sized allocation before it).
        for (addr, len) in [(0xffff_ffff, 2), (0x1000_0000, u32::MAX)] {
            let fault = mem.read_taint(addr, len).unwrap_err();
            assert_eq!((fault.kind, fault.addr), (MemFaultKind::NullDeref, 0));
        }
        let raw = TaintedMemory::without_null_guard();
        assert!(raw.read_taint(0xffff_ffff, 2).is_err());
    }

    #[test]
    fn cstr_reading() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x5000, b"hello\0world", false).unwrap();
        assert_eq!(mem.read_cstr(0x5000, 64).unwrap(), b"hello");
        // max cap respected when no terminator appears
        assert_eq!(mem.read_cstr(0x5000, 3).unwrap(), b"hel");
    }

    #[test]
    fn tainted_ranges_merge_across_shadow_and_page_seams() {
        let mut mem = TaintedMemory::new();
        assert!(mem.tainted_ranges().is_empty());
        // One run straddling a page boundary, one isolated byte, one run
        // straddling a shadow-u64 seam.
        mem.write_bytes(2 * PAGE_SIZE - 3, b"abcdef", true).unwrap();
        mem.write_u8(0x9000, 1, true).unwrap();
        mem.write_bytes(0x703e, b"xyzw", true).unwrap();
        assert_eq!(
            mem.tainted_ranges(),
            vec![(2 * PAGE_SIZE - 3, 6), (0x703e, 4), (0x9000, 1)]
        );
        // Clearing splits a run.
        mem.set_taint_range(0x7040, 1, false).unwrap();
        assert_eq!(
            mem.tainted_ranges(),
            vec![
                (2 * PAGE_SIZE - 3, 6),
                (0x703e, 2),
                (0x7041, 1),
                (0x9000, 1)
            ]
        );
    }

    #[test]
    fn tainted_ranges_walk_runs_within_and_across_whole_shadow_words() {
        let mut mem = TaintedMemory::new();
        // Alternating bytes: 32 runs in one shadow word.
        for addr in (0xa000..0xa040).step_by(2) {
            mem.write_u8(addr, 0, true).unwrap();
        }
        // Whole shadow words, up to the last byte of the address space.
        mem.set_taint_range(0xffff_ff00, 0x100, true).unwrap();
        let ranges = mem.tainted_ranges();
        let expected: Vec<(u32, u32)> = (0xa000..0xa040)
            .step_by(2)
            .map(|a| (a, 1))
            .chain([(0xffff_ff00, 0x100)])
            .collect();
        assert_eq!(ranges, expected);
    }

    #[test]
    fn fork_shares_pages_until_written() {
        let mut parent = TaintedMemory::new();
        parent.write_bytes(0x2000, b"seed", true).unwrap();
        parent.write_u8(0x5000, 9, false).unwrap();
        let mut child = parent.fork();
        assert_eq!(parent.pages_shared(), 2);
        assert_eq!(child.pages_shared(), 2);
        assert_eq!(child.read_bytes(0x2000, 4).unwrap(), b"seed");
        assert_eq!(child.cow_fault_count(), 0);

        // Reads never unshare.
        let _ = child.read_u32(0x2000).unwrap();
        assert_eq!(child.pages_shared(), 2);

        // The first write to a shared page copies it; the sibling page stays
        // shared, and the parent never sees the child's write.
        child.write_u8(0x2000, b'X', false).unwrap();
        assert_eq!(child.cow_fault_count(), 1);
        assert_eq!(child.pages_shared(), 1);
        assert_eq!(parent.read_u8(0x2000).unwrap(), (b's', true));
        assert_eq!(child.read_u8(0x2000).unwrap(), (b'X', false));

        // A second write to the now-private page is not a COW fault.
        child.write_u8(0x2001, b'Y', false).unwrap();
        assert_eq!(child.cow_fault_count(), 1);
    }

    #[test]
    fn fork_isolates_taint_both_directions() {
        let mut parent = TaintedMemory::new();
        parent.write_bytes(0x3000, &[1, 2, 3, 4], false).unwrap();
        let mut a = parent.fork();
        let mut b = parent.fork();
        a.set_taint_range(0x3000, 2, true).unwrap();
        b.write_u32(0x3000, 0xdead_beef, WordTaint::ALL).unwrap();
        parent.write_u8(0x3003, 7, true).unwrap();
        // Three divergent views of the same origin page.
        assert_eq!(a.read_bytes(0x3000, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(a.read_taint(0x3000, 4).unwrap(), [true, true, false, false]);
        assert_eq!(b.read_u32(0x3000).unwrap(), (0xdead_beef, WordTaint::ALL));
        assert_eq!(parent.read_u8(0x3003).unwrap(), (7, true));
        assert!(!parent.read_u8(0x3000).unwrap().1);
    }

    #[test]
    fn pages_materialized_after_fork_are_private() {
        let parent = TaintedMemory::new();
        let mut child = parent.fork();
        child.write_u8(0x8000, 1, true).unwrap();
        assert_eq!(child.cow_fault_count(), 0, "fresh page, nothing to copy");
        assert_eq!(parent.page_count(), 0);
        assert_eq!(parent.read_u8(0x8000).unwrap(), (0, false));
    }

    #[test]
    fn set_taint_range_preserves_data() {
        let mut mem = TaintedMemory::new();
        mem.write_bytes(0x6000, b"abcd", true).unwrap();
        mem.set_taint_range(0x6000, 4, false).unwrap();
        assert_eq!(mem.read_bytes(0x6000, 4).unwrap(), b"abcd");
        assert!(mem.read_taint(0x6000, 4).unwrap().iter().all(|&t| !t));
        mem.set_taint_range(0x6001, 2, true).unwrap();
        assert_eq!(
            mem.read_taint(0x6000, 4).unwrap(),
            vec![false, true, true, false]
        );
    }
}
