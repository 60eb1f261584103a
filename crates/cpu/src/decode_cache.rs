//! Per-page decode cache for the predecoded execution engine.
//!
//! On a miss the engine predecodes the straight-line block from the missing
//! PC to the end of its text page ([`DecodeCache::fill_block`]) and then
//! dispatches from the cache until the block is left or invalidated. A slot
//! holding `None` (never predecoded, or an undecodable word) is *not* an
//! error: the engine falls back to the authoritative fetch+decode path,
//! which reproduces the interpreter's exact faults. Coherence with
//! self-modifying code comes from the memory system's code-page watches:
//! the CPU drains dirty pages and calls [`DecodeCache::invalidate`] at the
//! start of each page-run, and a store that dirties a watched page ends
//! the run.

use std::collections::{HashMap, HashSet};

use ptaint_isa::{DecodedInsn, PAGE_SIZE};
use ptaint_mem::TaintedMemory;

/// Instruction slots per page (one per 4-aligned word).
const SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// One `u64` of proven-clean bits per 64 slots.
const PROVEN_WORDS: usize = SLOTS / 64;

/// FNV-1a hash of one filled slot's decoded form. XORed into a page's
/// header checksum, once the page has one, so the integrity sweep can
/// recompute and compare without touching authoritative memory.
fn slot_hash(slot: usize, d: &DecodedInsn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [slot as u32, d.instr.encode(), d.imm, d.target] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One predecoded text page.
#[derive(Clone)]
struct DecodedPage {
    slots: Box<[Option<DecodedInsn>; SLOTS]>,
    /// One bit per slot: the static analyzer proved this instruction's
    /// pointer check can never fire, so the engine may skip it.
    proven: Box<[u64; PROVEN_WORDS]>,
    /// Lockstep replica of `proven`. Every legitimate update writes both
    /// copies; `lookup` cross-checks the word covering a hit, so a single
    /// flipped proven bit yields a detectable mismatch instead of a
    /// silently elided check.
    proven_dup: Box<[u64; PROVEN_WORDS]>,
    /// Page header checksum: XOR of [`slot_hash`] over every filled slot.
    /// `None` until [`DecodeCache::corrupt_decode_slot`] first lands on the
    /// page — the only thing that can change a filled slot — which takes
    /// the pre-flip sum; from then on fills XOR into it. The periodic
    /// integrity sweep recomputes the pages that have one and compares, so
    /// a run with no decode-slot fault hashes nothing.
    sum: Option<u64>,
}

impl DecodedPage {
    fn new() -> DecodedPage {
        DecodedPage {
            slots: Box::new([None; SLOTS]),
            proven: Box::new([0; PROVEN_WORDS]),
            proven_dup: Box::new([0; PROVEN_WORDS]),
            sum: None,
        }
    }

    fn clear(&mut self) {
        self.slots.fill(None);
        self.proven.fill(0);
        self.proven_dup.fill(0);
        self.sum = None;
    }

    #[inline]
    fn is_proven(&self, slot: usize) -> bool {
        self.proven[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// Whether the proven bitmap agrees with its replica on every word.
    #[inline]
    fn replicas_agree(&self) -> bool {
        self.proven
            .iter()
            .zip(self.proven_dup.iter())
            .fold(0, |acc, (p, d)| acc | (p ^ d))
            == 0
    }

    fn set_proven(&mut self, slot: usize) {
        self.proven[slot / 64] |= 1 << (slot % 64);
        self.proven_dup[slot / 64] |= 1 << (slot % 64);
    }

    fn recompute_sum(&self) -> u64 {
        let mut sum = 0;
        for (slot, d) in self.slots.iter().enumerate() {
            if let Some(d) = d {
                sum ^= slot_hash(slot, d);
            }
        }
        sum
    }
}

/// Maps text pages to predecoded slot arrays.
///
/// A one-entry "last page" shortcut keeps the hot loop free of hash lookups
/// while execution stays within one page; invalidated slot arrays go on a
/// free list and are reused by later fills.
///
/// A fork takes a private deep copy ([`Clone`]): every page, stamp and
/// proof is the fork's own, so one timeline's invalidation can never
/// revoke (or fail to revoke) a proof in another, and the copy holds
/// exactly what the source held at that step — what a fresh run holds
/// there, too.
#[derive(Clone)]
pub(crate) struct DecodeCache {
    index: HashMap<u32, usize>,
    pages: Vec<DecodedPage>,
    free: Vec<usize>,
    last: Option<(u32, usize)>,
    /// Master proven-clean set installed by the static analyzer; consulted
    /// at fill time to stamp per-slot bits. Dropped wholesale on the first
    /// invalidation (self-modifying code makes the static proof stale).
    proven: HashSet<u32>,
    /// Set when `lookup` catches a proven-bitmap replica mismatch; the CPU
    /// drains it and enters degraded mode.
    compromised: Option<String>,
    /// Round-robin cursor for the deep (slot-checksum) half of the
    /// periodic integrity sweep: one page per sweep, amortized.
    sweep_cursor: usize,
}

impl DecodeCache {
    pub(crate) fn new() -> DecodeCache {
        DecodeCache {
            index: HashMap::new(),
            pages: Vec::new(),
            free: Vec::new(),
            last: None,
            proven: HashSet::new(),
            compromised: None,
            sweep_cursor: 0,
        }
    }

    /// Installs the analyzer's proven-clean set. Cached pages are dropped
    /// so the next fill stamps the per-slot bits; callers install at boot,
    /// before any execution, where the cache is empty anyway.
    pub(crate) fn install_proven(&mut self, pcs: impl IntoIterator<Item = u32>) {
        // Drop cached pages first: `invalidate` wipes the proven set (its
        // self-modifying-code contract), so install after.
        let pages: Vec<u32> = self.index.keys().copied().collect();
        for page in pages {
            self.invalidate(page);
        }
        self.proven = pcs.into_iter().collect();
    }

    /// Forgets every proven-clean bit — master set and per-page stamps.
    /// Called when self-modifying code makes the static analysis stale.
    pub(crate) fn clear_proven(&mut self) {
        if self.proven.is_empty() {
            return;
        }
        self.proven.clear();
        for page in &mut self.pages {
            page.proven.fill(0);
            page.proven_dup.fill(0);
        }
    }

    /// Whether a proven-clean set is installed (and not yet dropped).
    pub(crate) fn has_proven(&self) -> bool {
        !self.proven.is_empty()
    }

    /// The cached decode at `pc`, if this word has been predecoded, whether
    /// its pointer check is proven elidable, and — when the page's proven
    /// bitmap agrees with its replica on every word — the page's index for
    /// [`DecodeCache::slot`], so a page-run can dispatch the page's later
    /// slots without repeating this lookup. Unaligned PCs always miss, so
    /// the fetch path reproduces the exact alignment fault.
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32) -> Option<(DecodedInsn, bool, Option<usize>)> {
        if pc & 3 != 0 {
            return None;
        }
        let page = pc / PAGE_SIZE;
        let idx = match self.last {
            Some((p, idx)) if p == page => idx,
            _ => {
                let idx = *self.index.get(&page)?;
                self.last = Some((page, idx));
                idx
            }
        };
        let slot = ((pc % PAGE_SIZE) / 4) as usize;
        let p = &self.pages[idx];
        let d = p.slots[slot]?;
        // DMR cross-check: a flipped bit in either proven copy makes the
        // covering words differ. Fail safe (run the check) and flag the
        // cache so the CPU degrades before trusting any further proof.
        if p.proven[slot / 64] != p.proven_dup[slot / 64] {
            self.compromised = Some(format!(
                "proven bitmap replica mismatch on page {:#010x}",
                page * PAGE_SIZE
            ));
            return Some((d, false, None));
        }
        Some((d, p.is_proven(slot), p.replicas_agree().then_some(idx)))
    }

    /// A page-run's next dispatch: the slot at `pc` on the page `lookup`
    /// resolved to `idx`, with its proven bit. The caller keeps `pc` on that
    /// page and aligned, and ends the run before anything can invalidate,
    /// refill or corrupt the page.
    #[inline]
    pub(crate) fn slot(&self, idx: usize, pc: u32) -> Option<(DecodedInsn, bool)> {
        let slot = ((pc % PAGE_SIZE) / 4) as usize;
        let p = &self.pages[idx];
        p.slots[slot].map(|d| (d, p.is_proven(slot)))
    }

    /// Drains the replica-mismatch flag raised by [`DecodeCache::lookup`].
    pub(crate) fn take_compromised(&mut self) -> Option<String> {
        self.compromised.take()
    }

    /// One step of the periodic integrity check. Always compares every
    /// cached page's proven bitmap against its replica (cheap: a few words
    /// per page); additionally visits one page per call, round-robin, and
    /// recomputes its slot checksum when it has one, so decoded-slot
    /// corruption is caught within a bounded number of sweeps. A page with
    /// no checksum has never been corrupted. Returns a reason on the first
    /// mismatch.
    pub(crate) fn verify_sweep(&mut self) -> Option<String> {
        let describe = |index: &HashMap<u32, usize>, idx: usize| {
            index
                .iter()
                .find(|&(_, &i)| i == idx)
                .map_or(0, |(&p, _)| p * PAGE_SIZE)
        };
        for (idx, p) in self.pages.iter().enumerate() {
            if p.proven != p.proven_dup {
                return Some(format!(
                    "proven bitmap replica mismatch on page {:#010x}",
                    describe(&self.index, idx)
                ));
            }
        }
        if !self.pages.is_empty() {
            let idx = self.sweep_cursor % self.pages.len();
            self.sweep_cursor = self.sweep_cursor.wrapping_add(1);
            let p = &self.pages[idx];
            if p.sum.is_some_and(|sum| p.recompute_sum() != sum) {
                return Some(format!(
                    "decoded slot checksum mismatch on page {:#010x}",
                    describe(&self.index, idx)
                ));
            }
        }
        None
    }

    /// Enters degraded mode: drops every decoded page and every proof
    /// (master set and per-page stamps, both copies). The next fills
    /// re-predecode from authoritative memory — healing slot corruption —
    /// and nothing is ever proven again, so no check is elided.
    pub(crate) fn degrade(&mut self) {
        let pages: Vec<u32> = self.index.keys().copied().collect();
        for page in pages {
            self.invalidate(page);
        }
        self.clear_proven();
        self.compromised = None;
        self.sweep_cursor = 0;
    }

    /// Fault-injection hook: flips one bit in the *primary* proven bitmap
    /// of a cached page, bypassing the replica and the checksum, exactly
    /// as a hardware fault would. Returns a description of the flip, or
    /// `None` when no page is cached (the fault has nothing to land on).
    pub(crate) fn corrupt_proven_bit(&mut self, pick: u64, bit: u64) -> Option<String> {
        let mut pages: Vec<u32> = self.index.keys().copied().collect();
        pages.sort_unstable();
        let page = *pages.get((pick % pages.len().max(1) as u64) as usize)?;
        let idx = self.index[&page];
        let slot = (bit % SLOTS as u64) as usize;
        self.pages[idx].proven[slot / 64] ^= 1 << (slot % 64);
        self.last = None;
        Some(format!(
            "proven bit for {:#010x} flipped",
            page * PAGE_SIZE + 4 * slot as u32
        ))
    }

    /// Fault-injection hook: flips one bit in the pre-extended immediate of
    /// a filled decode slot, bypassing the page checksum (taken here,
    /// before the flip, when the page has none yet). Returns a
    /// description, or `None` when nothing is cached.
    pub(crate) fn corrupt_decode_slot(&mut self, pick: u64, bit: u64) -> Option<String> {
        let mut pages: Vec<u32> = self.index.keys().copied().collect();
        pages.sort_unstable();
        if pages.is_empty() {
            return None;
        }
        let n = pages.len() as u64;
        for off in 0..pages.len() {
            let page = pages[((pick + off as u64) % n) as usize];
            let idx = self.index[&page];
            let filled: Vec<usize> = self.pages[idx]
                .slots
                .iter()
                .enumerate()
                .filter_map(|(s, d)| d.map(|_| s))
                .collect();
            if filled.is_empty() {
                continue;
            }
            let slot = filled[(bit % filled.len() as u64) as usize];
            let pos = ((bit >> 40) % 32) as u32;
            let p = &mut self.pages[idx];
            if p.sum.is_none() {
                p.sum = Some(p.recompute_sum());
            }
            let d = p.slots[slot].as_mut().expect("slot was just seen filled");
            d.imm ^= 1 << pos;
            self.last = None;
            return Some(format!(
                "decoded imm bit {pos} at {:#010x} flipped",
                page * PAGE_SIZE + 4 * slot as u32
            ));
        }
        None
    }

    /// Predecodes the straight-line block starting at the 4-aligned `pc`:
    /// every word up to the end of its page, stopping early at the first
    /// undecodable word or at a slot an earlier fill already populated.
    /// Words are read from main memory directly, with one page lookup for
    /// the whole block (matching fetch semantics: no cache traffic,
    /// unmapped words read as zero and predecode to `nop`, and nothing is
    /// filled on the null page).
    pub(crate) fn fill_block(&mut self, pc: u32, mem: &TaintedMemory) {
        debug_assert_eq!(pc & 3, 0);
        let page = pc / PAGE_SIZE;
        let idx = match self.index.get(&page) {
            Some(&idx) => idx,
            None => {
                let idx = self.free.pop().unwrap_or_else(|| {
                    self.pages.push(DecodedPage::new());
                    self.pages.len() - 1
                });
                self.index.insert(page, idx);
                idx
            }
        };
        let Ok(words) = mem.page_words(pc) else {
            return;
        };
        let first = ((pc % PAGE_SIZE) / 4) as usize;
        let p = &mut self.pages[idx];
        for (slot, word) in (first..SLOTS).zip(words) {
            if p.slots[slot].is_some() {
                break;
            }
            let addr = pc + 4 * (slot - first) as u32;
            let Ok(d) = DecodedInsn::predecode(addr, word) else {
                break;
            };
            p.slots[slot] = Some(d);
            if let Some(sum) = &mut p.sum {
                *sum ^= slot_hash(slot, &d);
            }
            if !self.proven.is_empty() && self.proven.contains(&addr) {
                p.set_proven(slot);
            }
        }
    }

    /// Drops the cached page, returning whether anything was cached for it.
    /// Any invalidation also drops the whole proven-clean set: a store into
    /// text is self-modifying code, and the static analysis no longer
    /// describes the program that is running.
    pub(crate) fn invalidate(&mut self, page: u32) -> bool {
        self.clear_proven();
        let Some(idx) = self.index.remove(&page) else {
            return false;
        };
        self.pages[idx].clear();
        self.free.push(idx);
        if matches!(self.last, Some((p, _)) if p == page) {
            self.last = None;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::{IAluOp, Instr, Reg, TEXT_BASE};
    use ptaint_mem::WordTaint;

    fn addiu(imm: i16) -> Instr {
        Instr::IAlu {
            op: IAluOp::Addiu,
            rt: Reg::new(8),
            rs: Reg::new(0),
            imm,
        }
    }

    fn text_with(words: &[u32]) -> TaintedMemory {
        let mut mem = TaintedMemory::new();
        for (i, &w) in words.iter().enumerate() {
            mem.write_u32(TEXT_BASE + 4 * i as u32, w, WordTaint::CLEAN)
                .unwrap();
        }
        mem
    }

    #[test]
    fn fill_then_lookup_roundtrips_and_extends_to_unmapped_nops() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode()]);
        let mut cache = DecodeCache::new();
        assert_eq!(cache.lookup(TEXT_BASE), None);
        cache.fill_block(TEXT_BASE, &mem);
        assert_eq!(cache.lookup(TEXT_BASE).unwrap().0.instr, addiu(1));
        assert_eq!(cache.lookup(TEXT_BASE + 4).unwrap().0.instr, addiu(2));
        // Unmapped words beyond the program read as zero -> nop, like fetch.
        assert_eq!(cache.lookup(TEXT_BASE + 8).unwrap().0.instr, Instr::NOP);
        // Unaligned lookups always miss.
        assert_eq!(cache.lookup(TEXT_BASE + 2), None);
        // No proven set installed: nothing is elidable.
        assert!(!cache.lookup(TEXT_BASE).unwrap().1);
    }

    #[test]
    fn fill_stops_at_undecodable_words() {
        let mem = text_with(&[addiu(1).encode(), 0xffff_ffff, addiu(3).encode()]);
        assert!(Instr::decode(0xffff_ffff).is_err());
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.lookup(TEXT_BASE).is_some());
        assert_eq!(cache.lookup(TEXT_BASE + 4), None, "bad word left uncached");
        // A later fill starting past the bad word predecodes the rest.
        cache.fill_block(TEXT_BASE + 8, &mem);
        assert_eq!(cache.lookup(TEXT_BASE + 8).unwrap().0.instr, addiu(3));
    }

    #[test]
    fn invalidate_drops_the_page_and_allows_refill() {
        let mem = text_with(&[addiu(1).encode()]);
        let page = TEXT_BASE / PAGE_SIZE;
        let mut cache = DecodeCache::new();
        assert!(!cache.invalidate(page), "nothing cached yet");
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.invalidate(page));
        assert_eq!(cache.lookup(TEXT_BASE), None);
        // Refill (reusing the freed slot array) sees fresh contents.
        let patched = text_with(&[addiu(7).encode()]);
        cache.fill_block(TEXT_BASE, &patched);
        assert_eq!(cache.lookup(TEXT_BASE).unwrap().0.instr, addiu(7));
    }

    #[test]
    fn pages_are_independent() {
        let mut mem = text_with(&[addiu(1).encode()]);
        mem.write_u32(TEXT_BASE + PAGE_SIZE, addiu(2).encode(), WordTaint::CLEAN)
            .unwrap();
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        cache.fill_block(TEXT_BASE + PAGE_SIZE, &mem);
        assert!(cache.invalidate(TEXT_BASE / PAGE_SIZE));
        assert_eq!(cache.lookup(TEXT_BASE), None);
        assert_eq!(
            cache.lookup(TEXT_BASE + PAGE_SIZE).unwrap().0.instr,
            addiu(2),
            "sibling page survives the invalidation"
        );
    }

    #[test]
    fn proven_bits_are_stamped_at_fill_time() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode(), addiu(3).encode()]);
        let mut cache = DecodeCache::new();
        cache.install_proven([TEXT_BASE, TEXT_BASE + 8]);
        assert!(cache.has_proven());
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.lookup(TEXT_BASE).unwrap().1);
        assert!(!cache.lookup(TEXT_BASE + 4).unwrap().1, "not in the set");
        assert!(cache.lookup(TEXT_BASE + 8).unwrap().1);
    }

    #[test]
    fn any_invalidation_drops_every_proven_bit() {
        // Self-modifying code anywhere makes the static analysis stale, so
        // one invalidation must clear proven bits on *all* pages — including
        // pages the store never touched — and refills must not re-prove.
        let mut mem = text_with(&[addiu(1).encode()]);
        mem.write_u32(TEXT_BASE + PAGE_SIZE, addiu(2).encode(), WordTaint::CLEAN)
            .unwrap();
        let mut cache = DecodeCache::new();
        cache.install_proven([TEXT_BASE, TEXT_BASE + PAGE_SIZE]);
        cache.fill_block(TEXT_BASE, &mem);
        cache.fill_block(TEXT_BASE + PAGE_SIZE, &mem);
        assert!(cache.lookup(TEXT_BASE).unwrap().1);
        assert!(cache.lookup(TEXT_BASE + PAGE_SIZE).unwrap().1);

        assert!(cache.invalidate(TEXT_BASE / PAGE_SIZE));
        assert!(!cache.has_proven());
        // The sibling page stays decoded but loses its proven stamp.
        let (d, proven, _) = cache.lookup(TEXT_BASE + PAGE_SIZE).unwrap();
        assert_eq!(d.instr, addiu(2));
        assert!(!proven);
        // Refilling the invalidated page never re-proves it.
        cache.fill_block(TEXT_BASE, &mem);
        assert!(!cache.lookup(TEXT_BASE).unwrap().1);
    }

    #[test]
    fn a_flipped_proven_bit_never_elides_and_flags_the_cache() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode()]);
        let mut cache = DecodeCache::new();
        cache.install_proven([TEXT_BASE]);
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.lookup(TEXT_BASE).unwrap().1);
        assert!(cache.take_compromised().is_none());

        // Flip the primary bit covering slot 0: the replica now disagrees,
        // so the lookup fails safe (proven = false) and raises the flag.
        let applied = cache.corrupt_proven_bit(0, 0).unwrap();
        assert!(applied.contains("proven bit"), "{applied}");
        assert!(!cache.lookup(TEXT_BASE).unwrap().1, "mismatch fails safe");
        assert!(cache.take_compromised().is_some());

        // A flip the other way — falsely *proving* an unproven slot — is
        // caught the same way (the covering words still differ).
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        cache.corrupt_proven_bit(0, 1).unwrap();
        assert!(!cache.lookup(TEXT_BASE + 4).unwrap().1);
        assert!(cache.take_compromised().is_some());
    }

    #[test]
    fn only_replica_clean_pages_hand_out_page_runs() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode()]);
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        let (_, _, page) = cache.lookup(TEXT_BASE).unwrap();
        let idx = page.expect("a clean page may run");
        assert_eq!(cache.slot(idx, TEXT_BASE + 4).unwrap().0.instr, addiu(2));

        // A flip in a word that does not cover slot 0: the lookup itself
        // passes its cross-check, but the page no longer runs, so every
        // later slot goes back through `lookup` and its check.
        cache.corrupt_proven_bit(0, 100).unwrap();
        let (d, proven, page) = cache.lookup(TEXT_BASE).unwrap();
        assert_eq!((d.instr, proven, page), (addiu(1), false, None));
        assert!(cache.take_compromised().is_none());
    }

    #[test]
    fn the_sweep_catches_replica_and_slot_corruption() {
        let mem = text_with(&[addiu(1).encode(), addiu(2).encode()]);
        let mut cache = DecodeCache::new();
        cache.install_proven([TEXT_BASE]);
        cache.fill_block(TEXT_BASE, &mem);
        assert_eq!(cache.verify_sweep(), None, "clean cache passes");

        cache.corrupt_proven_bit(0, 3).unwrap();
        assert!(cache.verify_sweep().unwrap().contains("replica mismatch"));
        cache.degrade();
        assert_eq!(cache.verify_sweep(), None, "degrade heals the cache");

        cache.fill_block(TEXT_BASE, &mem);
        cache.corrupt_decode_slot(0, 0).unwrap();
        assert!(cache.verify_sweep().unwrap().contains("checksum mismatch"));
    }

    #[test]
    fn fills_after_a_slot_flip_keep_the_mismatch_visible() {
        // The first fill stops at the bad word, leaving room on the page
        // for a second fill after the flip.
        let mem = text_with(&[addiu(1).encode(), 0xffff_ffff, addiu(3).encode()]);
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        assert_eq!(cache.verify_sweep(), None);
        cache.corrupt_decode_slot(0, 0).unwrap();
        assert_eq!(
            cache.lookup(TEXT_BASE).unwrap().0.imm,
            0,
            "imm bit 0 flipped"
        );
        cache.fill_block(TEXT_BASE + 8, &mem);
        assert_eq!(cache.lookup(TEXT_BASE + 8).unwrap().0.instr, addiu(3));
        assert!(cache.verify_sweep().unwrap().contains("checksum mismatch"));
    }

    #[test]
    fn degrade_drops_pages_and_proofs_and_refills_heal() {
        let mem = text_with(&[addiu(1).encode()]);
        let mut cache = DecodeCache::new();
        cache.install_proven([TEXT_BASE]);
        cache.fill_block(TEXT_BASE, &mem);
        cache.corrupt_decode_slot(0, 0).unwrap();
        cache.degrade();
        assert!(!cache.has_proven());
        assert_eq!(cache.lookup(TEXT_BASE), None, "pages dropped");
        // The refill re-predecodes from authoritative memory: the corrupted
        // slot is healed, and nothing is proven any more.
        cache.fill_block(TEXT_BASE, &mem);
        let (d, proven, _) = cache.lookup(TEXT_BASE).unwrap();
        assert_eq!(d.instr, addiu(1));
        assert_eq!(d.imm, 1, "corruption healed by the authoritative refill");
        assert!(!proven);
        assert_eq!(cache.verify_sweep(), None);
    }

    #[test]
    fn corruption_hooks_report_none_on_an_empty_cache() {
        let mut cache = DecodeCache::new();
        assert_eq!(cache.corrupt_proven_bit(7, 9), None);
        assert_eq!(cache.corrupt_decode_slot(7, 9), None);
    }

    #[test]
    fn install_proven_resets_already_filled_pages() {
        let mem = text_with(&[addiu(1).encode()]);
        let mut cache = DecodeCache::new();
        cache.fill_block(TEXT_BASE, &mem);
        cache.install_proven([TEXT_BASE]);
        // The pre-install fill was dropped; the refill stamps the bit.
        assert_eq!(cache.lookup(TEXT_BASE), None);
        cache.fill_block(TEXT_BASE, &mem);
        assert!(cache.lookup(TEXT_BASE).unwrap().1);
    }
}
