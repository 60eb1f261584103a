//! The assembled memory hierarchy: main memory behind optional L1/L2 caches.

use std::collections::HashSet;
use std::fmt;

use ptaint_isa::PAGE_SIZE;

use crate::{Cache, CacheConfig, CacheStats, MemFault, TaintedMemory, WordTaint};

/// Which cache levels to model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 geometry, or `None` for no L1.
    pub l1: Option<CacheConfig>,
    /// L2 geometry, or `None` for no L2.
    pub l2: Option<CacheConfig>,
}

impl HierarchyConfig {
    /// No caches: every access goes straight to memory.
    #[must_use]
    pub const fn flat() -> HierarchyConfig {
        HierarchyConfig { l1: None, l2: None }
    }

    /// Default two-level hierarchy (16 KiB L1, 256 KiB L2).
    #[must_use]
    pub const fn two_level() -> HierarchyConfig {
        HierarchyConfig {
            l1: Some(CacheConfig::l1_default()),
            l2: Some(CacheConfig::l2_default()),
        }
    }
}

/// The full taint-extended memory system of paper §4.1: sparse main memory
/// with a taint bit per byte, optionally fronted by L1/L2 caches whose lines
/// also carry taint bits.
///
/// The caches are **write-through** (memory is always authoritative) with
/// allocation on read misses only, so the data path stays exact while the
/// model still demonstrates taintedness resident at every level and yields
/// hit/miss statistics.
///
/// ```
/// use ptaint_mem::{HierarchyConfig, MemorySystem, WordTaint};
///
/// let mut sys = MemorySystem::new(HierarchyConfig::two_level());
/// sys.write_u32(0x1000_0000, 0x6463_6261, WordTaint::ALL)?;
/// let (v, t) = sys.read_u32(0x1000_0000)?; // fills L2 then L1
/// assert_eq!((v, t), (0x6463_6261, WordTaint::ALL));
/// let again = sys.read_u32(0x1000_0000)?; // L1 hit, taint served from the line
/// assert_eq!(again.1, WordTaint::ALL);
/// assert!(sys.l1_stats().unwrap().hits > 0);
/// # Ok::<(), ptaint_mem::MemFault>(())
/// ```
pub struct MemorySystem {
    mem: TaintedMemory,
    l1: Option<Cache>,
    l2: Option<Cache>,
    /// Pages registered by a decode cache: a store into one of these moves
    /// it to `dirty_code_pages` (self-modifying-code coherence).
    code_watches: HashSet<u32>,
    /// Lowest and highest page ever watched (`lo > hi` until the first
    /// watch). Stores outside this range skip the `code_watches` probe. The
    /// bounds never shrink, so the filter only ever lets extra stores
    /// through to the set, never fewer.
    watched_lo: u32,
    watched_hi: u32,
    dirty_code_pages: Vec<u32>,
}

impl fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySystem")
            .field("mem", &self.mem)
            .field("l1", &self.l1)
            .field("l2", &self.l2)
            .field("code_watches", &self.code_watches.len())
            .finish()
    }
}

impl Default for MemorySystem {
    fn default() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::flat())
    }
}

impl MemorySystem {
    /// Creates a memory system with the requested cache levels.
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> MemorySystem {
        MemorySystem {
            mem: TaintedMemory::new(),
            l1: cfg.l1.map(Cache::new),
            l2: cfg.l2.map(Cache::new),
            code_watches: HashSet::new(),
            watched_lo: u32::MAX,
            watched_hi: 0,
            dirty_code_pages: Vec::new(),
        }
    }

    /// A system with no caches.
    #[must_use]
    pub fn flat() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::flat())
    }

    /// A copy-on-write fork of the whole hierarchy: main memory shares its
    /// pages with the parent (see [`TaintedMemory::fork`]), the L1/L2 line
    /// arrays and their statistics are deep-copied (they are bounded in
    /// size), and the self-modifying-code watch state carries over so a
    /// forked decode cache keeps its coherence contract.
    #[must_use]
    pub fn fork(&self) -> MemorySystem {
        MemorySystem {
            mem: self.mem.fork(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            code_watches: self.code_watches.clone(),
            watched_lo: self.watched_lo,
            watched_hi: self.watched_hi,
            dirty_code_pages: self.dirty_code_pages.clone(),
        }
    }

    /// Number of main-memory pages currently shared with a fork.
    #[must_use]
    pub fn pages_shared(&self) -> usize {
        self.mem.pages_shared()
    }

    /// Writes that unshared a copy-on-write page since this instance was
    /// created or forked.
    #[must_use]
    pub fn cow_fault_count(&self) -> u64 {
        self.mem.cow_fault_count()
    }

    /// Read-only view of main memory.
    #[must_use]
    pub fn memory(&self) -> &TaintedMemory {
        &self.mem
    }

    /// L1 statistics, if an L1 is configured.
    #[must_use]
    pub fn l1_stats(&self) -> Option<CacheStats> {
        self.l1.as_ref().map(Cache::stats)
    }

    /// L2 statistics, if an L2 is configured.
    #[must_use]
    pub fn l2_stats(&self) -> Option<CacheStats> {
        self.l2.as_ref().map(Cache::stats)
    }

    /// Resident tainted-line counts `(l1, l2)`.
    #[must_use]
    pub fn tainted_lines(&self) -> (usize, usize) {
        (
            self.l1.as_ref().map_or(0, Cache::tainted_line_count),
            self.l2.as_ref().map_or(0, Cache::tainted_line_count),
        )
    }

    /// Registers `page` (a byte address divided by [`PAGE_SIZE`]) for
    /// self-modifying-code coherence: the next store into it reports the
    /// page via [`MemorySystem::take_dirty_code_pages`] and drops the watch.
    /// The decode cache re-registers when it re-predecodes the page.
    pub fn watch_code_page(&mut self, page: u32) {
        self.code_watches.insert(page);
        self.watched_lo = self.watched_lo.min(page);
        self.watched_hi = self.watched_hi.max(page);
    }

    /// Watches every page overlapping the byte range `[base, base + len)`.
    ///
    /// Check elision uses this to cover the *whole* text segment at boot:
    /// the decode cache only watches pages it has predecoded, but a store
    /// into a not-yet-executed text page must still void the statically
    /// proven set before any stale proof can be consulted.
    pub fn watch_code_range(&mut self, base: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = base / PAGE_SIZE;
        let last = base.saturating_add(len - 1) / PAGE_SIZE;
        for page in first..=last {
            self.watch_code_page(page);
        }
    }

    /// Whether any watched code page has been written since the last
    /// [`MemorySystem::take_dirty_code_pages`].
    #[must_use]
    pub fn has_dirty_code_pages(&self) -> bool {
        !self.dirty_code_pages.is_empty()
    }

    /// Drains the set of watched pages that have been written to. Each page
    /// appears at most once per watch registration.
    pub fn take_dirty_code_pages(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty_code_pages)
    }

    /// Write-path hook: if `addr` falls in a watched code page, mark the
    /// page dirty. Data, heap and stack stores land outside the watched
    /// page range and cost two compares; only stores into that range probe
    /// the `HashSet`.
    #[inline]
    fn note_code_write(&mut self, addr: u32) {
        let page = addr / PAGE_SIZE;
        if page < self.watched_lo || page > self.watched_hi {
            return;
        }
        if self.code_watches.remove(&page) {
            self.dirty_code_pages.push(page);
        }
    }

    fn fill_from_memory(mem: &TaintedMemory, cache: &mut Cache, addr: u32) -> Result<(), MemFault> {
        let base = cache.line_base(addr);
        let len = cache.config().line_bytes;
        // Guard-page lines are never cached; the byte access below will fault.
        let mut data = Vec::with_capacity(len as usize);
        let mut taint = Vec::with_capacity(len as usize);
        for i in 0..len {
            let (b, t) = mem.read_u8(base + i)?;
            data.push(b);
            taint.push(t);
        }
        cache.fill_line(base, &data, &taint);
        Ok(())
    }

    /// Reads one byte and its taint bit through the cache hierarchy.
    ///
    /// # Errors
    ///
    /// Propagates [`MemFault`]s from main memory (null-page accesses).
    pub fn read_u8(&mut self, addr: u32) -> Result<(u8, bool), MemFault> {
        // Validate the access against memory first so faulting addresses are
        // never cached.
        let authoritative = self.mem.read_u8(addr)?;
        if let Some(l1) = &mut self.l1 {
            if let Some(hit) = l1.probe_read(addr) {
                return Ok(hit);
            }
            if let Some(l2) = &mut self.l2 {
                if l2.probe_read(addr).is_none() {
                    Self::fill_from_memory(&self.mem, l2, addr)?;
                }
            }
            Self::fill_from_memory(&self.mem, l1, addr)?;
            return Ok(authoritative);
        }
        if let Some(l2) = &mut self.l2 {
            if let Some(hit) = l2.probe_read(addr) {
                return Ok(hit);
            }
            Self::fill_from_memory(&self.mem, l2, addr)?;
        }
        Ok(authoritative)
    }

    /// Writes one byte and its taint bit (write-through).
    ///
    /// # Errors
    ///
    /// Propagates [`MemFault`]s from main memory.
    pub fn write_u8(&mut self, addr: u32, value: u8, tainted: bool) -> Result<(), MemFault> {
        self.note_code_write(addr);
        self.mem.write_u8(addr, value, tainted)?;
        if let Some(l1) = &mut self.l1 {
            l1.update_write(addr, value, tainted);
        }
        if let Some(l2) = &mut self.l2 {
            l2.update_write(addr, value, tainted);
        }
        Ok(())
    }

    /// Reads a little-endian halfword and its taint (low two bits).
    ///
    /// # Errors
    ///
    /// Faults on misalignment or null-page access.
    pub fn read_u16(&mut self, addr: u32) -> Result<(u16, WordTaint), MemFault> {
        if self.l1.is_none() && self.l2.is_none() {
            return self.mem.read_u16(addr);
        }
        // Alignment is checked by main memory.
        let _ = self.mem.read_u16(addr)?;
        let (b0, t0) = self.read_u8(addr)?;
        let (b1, t1) = self.read_u8(addr + 1)?;
        Ok((
            u16::from_le_bytes([b0, b1]),
            WordTaint::CLEAN.with_byte(0, t0).with_byte(1, t1),
        ))
    }

    /// Writes a little-endian halfword.
    ///
    /// # Errors
    ///
    /// Faults on misalignment or null-page access.
    pub fn write_u16(&mut self, addr: u32, value: u16, taint: WordTaint) -> Result<(), MemFault> {
        // A 2-aligned halfword never straddles a page, so one hook suffices.
        self.note_code_write(addr);
        if self.l1.is_none() && self.l2.is_none() {
            return self.mem.write_u16(addr, value, taint);
        }
        self.mem.write_u16(addr, value, taint)?;
        let [b0, b1] = value.to_le_bytes();
        self.write_u8(addr, b0, taint.byte(0))?;
        self.write_u8(addr + 1, b1, taint.byte(1))
    }

    /// Reads a little-endian word and its four taint bits.
    ///
    /// With no caches configured this is one call into the word-granular
    /// [`TaintedMemory::read_u32`] fast path; with caches it probes the
    /// hierarchy byte-wise to keep line statistics exact.
    ///
    /// # Errors
    ///
    /// Faults on misalignment or null-page access.
    pub fn read_u32(&mut self, addr: u32) -> Result<(u32, WordTaint), MemFault> {
        if self.l1.is_none() && self.l2.is_none() {
            return self.mem.read_u32(addr);
        }
        let _ = self.mem.read_u32(addr)?;
        let mut bytes = [0u8; 4];
        let mut taint = WordTaint::CLEAN;
        for (i, b) in bytes.iter_mut().enumerate() {
            let (v, t) = self.read_u8(addr + i as u32)?;
            *b = v;
            taint = taint.with_byte(i, t);
        }
        Ok((u32::from_le_bytes(bytes), taint))
    }

    /// Writes a little-endian word and its four taint bits.
    ///
    /// With no caches configured this is one call into the word-granular
    /// [`TaintedMemory::write_u32`] fast path.
    ///
    /// # Errors
    ///
    /// Faults on misalignment or null-page access.
    pub fn write_u32(&mut self, addr: u32, value: u32, taint: WordTaint) -> Result<(), MemFault> {
        // A 4-aligned word never straddles a page, so one hook suffices.
        self.note_code_write(addr);
        if self.l1.is_none() && self.l2.is_none() {
            return self.mem.write_u32(addr, value, taint);
        }
        self.mem.write_u32(addr, value, taint)?;
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr + i as u32, b, taint.byte(i))?;
        }
        Ok(())
    }

    /// Fetches an instruction word, bypassing the data caches so fetch
    /// traffic does not pollute D-cache statistics.
    ///
    /// # Contract
    ///
    /// The cache bypass is *silent but safe*: the hierarchy is
    /// write-through, so main memory is always authoritative and a fetch
    /// observes every store the instant it retires — including stores that
    /// travelled through the caches (pinned by the
    /// `fetch_sees_stores_through_caches` unit test). The bypass never
    /// allocates or probes a line, so fetching leaves D-cache statistics
    /// untouched. Anything that *caches decoded text* on top of this (the
    /// CPU's decode cache) must additionally register a
    /// [`MemorySystem::watch_code_page`] per fetched page to learn about
    /// later stores into it.
    ///
    /// # Errors
    ///
    /// Faults on misalignment or null-page access.
    pub fn fetch_u32(&self, addr: u32) -> Result<u32, MemFault> {
        self.mem.read_u32(addr).map(|(v, _)| v)
    }

    /// Bulk copy into memory with uniform taint; keeps caches coherent.
    ///
    /// This is the OS's kernel→user copy primitive (paper §4.4): buffers
    /// returned by `SYS_READ`/`SYS_RECV` are written with `tainted == true`.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8], tainted: bool) -> Result<(), MemFault> {
        if self.l1.is_some() || self.l2.is_some() {
            // Caches want byte-wise write-through so resident lines patch.
            for (i, &b) in data.iter().enumerate() {
                self.write_u8(addr + i as u32, b, tainted)?;
            }
            return Ok(());
        }
        // Flat fast path: one code-watch hook and one page-chunked bulk copy
        // per crossed page (the hook fires before the chunk's write, like
        // the byte path's note-then-write order).
        let mut i = 0;
        while i < data.len() {
            let a = addr.wrapping_add(i as u32);
            self.note_code_write(a);
            let off = (a % PAGE_SIZE) as usize;
            let run = (data.len() - i).min(PAGE_SIZE as usize - off);
            self.mem.write_bytes(a, &data[i..i + run], tainted)?;
            i += run;
        }
        Ok(())
    }

    /// Bulk read of data bytes.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        self.mem.read_bytes(addr, len)
    }

    /// Bulk read of taint bits.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn read_taint(&self, addr: u32, len: u32) -> Result<Vec<bool>, MemFault> {
        self.mem.read_taint(addr, len)
    }

    /// Reads a NUL-terminated string of at most `max` bytes.
    ///
    /// # Errors
    ///
    /// Faults when the scan touches the null page.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, MemFault> {
        self.mem.read_cstr(addr, max)
    }

    /// Re-marks a taint range, keeping caches coherent.
    ///
    /// # Errors
    ///
    /// Faults when the range touches the null page.
    pub fn set_taint_range(&mut self, addr: u32, len: u32, tainted: bool) -> Result<(), MemFault> {
        for i in 0..len {
            let (b, _) = self.mem.read_u8(addr + i)?;
            self.write_u8(addr + i, b, tainted)?;
        }
        Ok(())
    }

    /// Maximal contiguous runs of tainted bytes in main memory, in ascending
    /// address order (see [`TaintedMemory::tainted_ranges`]). Cached copies
    /// are coherent with this view because the hierarchy is write-through.
    #[must_use]
    pub fn tainted_ranges(&self) -> Vec<(u32, u32)> {
        self.mem.tainted_ranges()
    }

    /// Fault-injection hook: flips one bit in a resident line of the given
    /// cache level (1 or 2) — see [`Cache::corrupt_line`]. Unlike every
    /// other mutation here this deliberately breaks write-through coherence:
    /// main memory keeps the pristine value, the cache serves the corrupted
    /// one until the line is evicted or overwritten. Returns the corrupted
    /// byte address and whether a shadow taint bit (rather than a data bit)
    /// was hit; `None` when the level is absent or holds no valid line.
    pub fn corrupt_cache_line(&mut self, level: u8, pick: u64, bit: u64) -> Option<(u32, bool)> {
        let cache = match level {
            1 => self.l1.as_mut(),
            2 => self.l2.as_mut(),
            _ => None,
        }?;
        cache.corrupt_line(pick, bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_system_behaves_like_memory() {
        let mut sys = MemorySystem::flat();
        sys.write_u32(0x1000, 0x0102_0304, WordTaint::from_bits(0b1010))
            .unwrap();
        assert_eq!(
            sys.read_u32(0x1000).unwrap(),
            (0x0102_0304, WordTaint::from_bits(0b1010))
        );
        assert!(sys.l1_stats().is_none());
        assert!(sys.l2_stats().is_none());
    }

    #[test]
    fn taint_travels_through_both_cache_levels() {
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        sys.write_bytes(0x2000, b"evil", true).unwrap();
        // First read misses both levels and fills them.
        let (v, t) = sys.read_u32(0x2000).unwrap();
        assert_eq!(v, u32::from_le_bytes(*b"evil"));
        assert_eq!(t, WordTaint::ALL);
        let (l1_tainted, l2_tainted) = sys.tainted_lines();
        assert_eq!(
            (l1_tainted, l2_tainted),
            (1, 1),
            "tainted line resident at each level"
        );
        // Second read is an L1 hit and still reports full taint.
        let before = sys.l1_stats().unwrap().hits;
        let (_, t2) = sys.read_u32(0x2000).unwrap();
        assert_eq!(t2, WordTaint::ALL);
        assert!(sys.l1_stats().unwrap().hits > before);
    }

    #[test]
    fn write_through_keeps_cached_taint_coherent() {
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        sys.write_u32(0x3000, 7, WordTaint::CLEAN).unwrap();
        let _ = sys.read_u32(0x3000).unwrap(); // cache the line
                                               // Now overwrite with tainted data; the cached line must update.
        sys.write_u32(0x3000, 8, WordTaint::ALL).unwrap();
        let (v, t) = sys.read_u32(0x3000).unwrap();
        assert_eq!((v, t), (8, WordTaint::ALL));
        // And untainting is visible too.
        sys.set_taint_range(0x3000, 4, false).unwrap();
        let (v, t) = sys.read_u32(0x3000).unwrap();
        assert_eq!((v, t), (8, WordTaint::CLEAN));
    }

    #[test]
    fn l1_only_hierarchy_works() {
        let mut sys = MemorySystem::new(HierarchyConfig {
            l1: Some(CacheConfig::l1_default()),
            l2: None,
        });
        sys.write_u8(0x4000, 0x55, true).unwrap();
        assert_eq!(sys.read_u8(0x4000).unwrap(), (0x55, true));
        assert_eq!(sys.read_u8(0x4000).unwrap(), (0x55, true));
        let stats = sys.l1_stats().unwrap();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 1);
    }

    #[test]
    fn faulting_addresses_are_never_cached() {
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        assert!(sys.read_u8(0).is_err());
        assert!(sys.read_u32(0x5001).is_err()); // unaligned
        assert_eq!(sys.tainted_lines(), (0, 0));
    }

    #[test]
    fn fetch_bypasses_caches() {
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        sys.write_u32(0x0040_0000, 0x1234_5678, WordTaint::CLEAN)
            .unwrap();
        // write_u32 routes through write-through (no allocation), so stats
        // must show no read traffic from fetches.
        let l1_before = sys.l1_stats().unwrap();
        assert_eq!(sys.fetch_u32(0x0040_0000).unwrap(), 0x1234_5678);
        assert_eq!(sys.l1_stats().unwrap(), l1_before);
    }

    #[test]
    fn fetch_sees_stores_through_caches() {
        // The fetch_u32 contract: the bypass is coherent because the caches
        // are write-through — a fetch observes the newest store even when
        // the stored-to line is resident in L1/L2.
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        sys.write_u32(0x0040_0000, 0x1111_1111, WordTaint::CLEAN)
            .unwrap();
        let _ = sys.read_u32(0x0040_0000).unwrap(); // line now resident
        sys.write_u32(0x0040_0000, 0x2222_2222, WordTaint::CLEAN)
            .unwrap();
        assert_eq!(sys.fetch_u32(0x0040_0000).unwrap(), 0x2222_2222);
        assert_eq!(sys.read_u32(0x0040_0000).unwrap().0, 0x2222_2222);
    }

    #[test]
    fn corrupt_cache_line_diverges_cache_from_memory_until_overwrite() {
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        sys.write_bytes(0x2000, b"data", false).unwrap();
        let _ = sys.read_u32(0x2000).unwrap(); // line resident in L1+L2
        let (addr, taint_bit) = sys.corrupt_cache_line(1, 0, 0).unwrap();
        assert!(!taint_bit);
        // Memory stays pristine; the L1 read hit serves the flipped bit.
        let clean = sys.memory().read_u8(addr).unwrap().0;
        let (cached, _) = sys.read_u8(addr).unwrap();
        assert_eq!(cached, clean ^ 1);
        // A write-through store re-synchronizes the line.
        sys.write_u8(addr, clean, false).unwrap();
        assert_eq!(sys.read_u8(addr).unwrap().0, clean);
        // Absent levels and flat systems report no target.
        assert!(sys.corrupt_cache_line(3, 0, 0).is_none());
        assert!(MemorySystem::flat().corrupt_cache_line(1, 0, 0).is_none());
        // Shadow-bit upsets flip taint without touching data.
        let _ = sys.read_u32(0x2000).unwrap();
        let line_bits = 8 * u64::from(CacheConfig::l1_default().line_bytes);
        let (taddr, tbit) = sys.corrupt_cache_line(1, 0, line_bits).unwrap();
        assert!(tbit);
        assert!(sys.read_u8(taddr).unwrap().1, "cached taint bit gained");
        assert!(!sys.memory().read_u8(taddr).unwrap().1, "memory unchanged");
    }

    #[test]
    fn fork_copies_caches_and_shares_memory() {
        let mut sys = MemorySystem::new(HierarchyConfig::two_level());
        sys.write_bytes(0x2000, b"evil", true).unwrap();
        let _ = sys.read_u32(0x2000).unwrap(); // lines resident
        sys.watch_code_page(0x0040_0000 / PAGE_SIZE);

        let mut child = sys.fork();
        assert!(child.pages_shared() > 0);
        assert_eq!(child.l1_stats(), sys.l1_stats());
        assert_eq!(child.tainted_lines(), sys.tainted_lines());

        // The child's cache traffic and stores are invisible to the parent.
        child.write_u8(0x2000, b'X', false).unwrap();
        assert_eq!(sys.memory().read_u8(0x2000).unwrap(), (b'e', true));
        assert_eq!(child.memory().read_u8(0x2000).unwrap(), (b'X', false));
        assert!(child.cow_fault_count() > 0);
        assert_eq!(sys.cow_fault_count(), 0);

        // Code watches carried over: the child notices SMC independently.
        child.write_u32(0x0040_0000, 1, WordTaint::CLEAN).unwrap();
        assert!(child.has_dirty_code_pages());
        assert!(!sys.has_dirty_code_pages());
    }

    #[test]
    fn flat_bulk_write_hooks_code_watches_per_page() {
        let mut sys = MemorySystem::flat();
        let base = 0x0040_0000 + PAGE_SIZE - 2;
        sys.watch_code_page(base / PAGE_SIZE);
        sys.watch_code_page(base / PAGE_SIZE + 1);
        // A bulk write straddling the page seam dirties both pages.
        sys.write_bytes(base, &[1, 2, 3, 4], false).unwrap();
        assert_eq!(
            sys.take_dirty_code_pages(),
            vec![base / PAGE_SIZE, base / PAGE_SIZE + 1]
        );
    }

    #[test]
    fn code_page_watches_report_dirty_pages_once() {
        let mut sys = MemorySystem::flat();
        let page = 0x0040_0000 / PAGE_SIZE;
        sys.watch_code_page(page);
        assert!(!sys.has_dirty_code_pages());
        sys.write_u32(0x0040_0010, 1, WordTaint::CLEAN).unwrap();
        // The second store lands after the watch already fired.
        sys.write_u8(0x0040_0020, 2, false).unwrap();
        assert!(sys.has_dirty_code_pages());
        assert_eq!(sys.take_dirty_code_pages(), vec![page]);
        assert!(!sys.has_dirty_code_pages());
        // Stores into unwatched pages never report.
        sys.write_u32(0x0050_0000, 3, WordTaint::CLEAN).unwrap();
        assert!(!sys.has_dirty_code_pages());
        // Re-registering re-arms the watch, and cached hierarchies hook the
        // same write path.
        let mut cached = MemorySystem::new(HierarchyConfig::two_level());
        cached.watch_code_page(page);
        cached.write_u16(0x0040_0002, 9, WordTaint::CLEAN).unwrap();
        assert_eq!(cached.take_dirty_code_pages(), vec![page]);
    }

    #[test]
    fn watch_filter_widens_below_and_above_earlier_watches() {
        let mut sys = MemorySystem::flat();
        let text = 0x0040_0000 / PAGE_SIZE;
        sys.watch_code_page(text + 8);
        // A later watch *below* the first widens the range downwards, one
        // *above* it widens it upwards; stores into either still report.
        sys.watch_code_page(text);
        sys.write_u32(0x0040_0000, 1, WordTaint::CLEAN).unwrap();
        assert_eq!(sys.take_dirty_code_pages(), vec![text]);
        sys.watch_code_page(text + 20);
        sys.write_u8((text + 20) * PAGE_SIZE + 5, 1, false).unwrap();
        assert_eq!(sys.take_dirty_code_pages(), vec![text + 20]);
        // An unwatched page inside the range and stores outside it report
        // nothing; the remaining watch still fires.
        sys.write_u8((text + 9) * PAGE_SIZE, 1, false).unwrap();
        sys.write_u32(0x1000_0000, 1, WordTaint::CLEAN).unwrap();
        sys.write_bytes(0x0030_0000, &[1, 2], false).unwrap();
        assert!(!sys.has_dirty_code_pages());
        sys.write_u16((text + 8) * PAGE_SIZE, 1, WordTaint::CLEAN)
            .unwrap();
        assert_eq!(sys.take_dirty_code_pages(), vec![text + 8]);
        // The range carries over into a fork.
        sys.watch_code_page(text + 30);
        let mut child = sys.fork();
        child.write_u8((text + 30) * PAGE_SIZE, 1, false).unwrap();
        assert_eq!(child.take_dirty_code_pages(), vec![text + 30]);
    }

    #[test]
    fn code_range_watch_covers_every_overlapping_page() {
        let mut sys = MemorySystem::flat();
        // Three pages: a range from mid-page to mid-page two pages later.
        let base = 0x0040_0000 + PAGE_SIZE / 2;
        sys.watch_code_range(base, 2 * PAGE_SIZE);
        // A store into the last (partially covered) page reports it.
        sys.write_u8(base + 2 * PAGE_SIZE - 1, 7, false).unwrap();
        assert_eq!(
            sys.take_dirty_code_pages(),
            vec![(base + 2 * PAGE_SIZE - 1) / PAGE_SIZE]
        );
        // First page is watched too.
        sys.write_u8(base, 7, false).unwrap();
        assert_eq!(sys.take_dirty_code_pages(), vec![base / PAGE_SIZE]);
        // Just past the end is not.
        sys.write_u8(base + 3 * PAGE_SIZE, 7, false).unwrap();
        assert!(!sys.has_dirty_code_pages());
        // Empty ranges watch nothing.
        let mut empty = MemorySystem::flat();
        empty.watch_code_range(0x0040_0000, 0);
        empty.write_u8(0x0040_0000, 1, false).unwrap();
        assert!(!empty.has_dirty_code_pages());
    }
}
