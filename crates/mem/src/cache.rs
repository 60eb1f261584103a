//! A set-associative cache model whose lines carry taintedness bits.
//!
//! The paper (§4.1) requires that "L2 and L1 caches … are also extended with
//! the additional taintedness bits". This model stores one taint bit per
//! cached byte next to the data byte: line fills copy both, read hits serve
//! both, and write-throughs update both, demonstrating that taintedness
//! travels through the whole hierarchy. Replacement is LRU; the write policy
//! (applied by [`MemorySystem`](crate::MemorySystem)) is write-through with
//! no allocation on write miss.

use std::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheConfig {
    /// A 16 KiB, 4-way, 32-byte-line configuration resembling a small L1.
    #[must_use]
    pub const fn l1_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            assoc: 4,
        }
    }

    /// A 256 KiB, 8-way, 64-byte-line configuration resembling a small L2.
    #[must_use]
    pub const fn l2_default() -> CacheConfig {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 64,
            assoc: 8,
        }
    }

    fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// Hit/miss/eviction counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit a valid line.
    pub hits: u64,
    /// Read accesses that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone)]
struct Line {
    valid: bool,
    tag: u32,
    data: Vec<u8>,
    taint: Vec<bool>,
    last_use: u64,
}

/// One level of the taint-extended cache hierarchy.
///
/// Cloning copies the full line arrays (data, taint, LRU state) and the
/// statistics — a forked [`MemorySystem`](crate::MemorySystem) continues
/// with the parent's exact cache contents, so forked and fresh executions
/// observe identical hit/miss sequences.
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    clock: u64,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate (non-power-of-two line size,
    /// zero ways, or capacity not divisible into sets).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.assoc > 0, "associativity must be positive");
        assert!(
            cfg.size_bytes.is_multiple_of(cfg.line_bytes * cfg.assoc) && cfg.sets() > 0,
            "capacity must divide into whole sets"
        );
        let sets = (0..cfg.sets())
            .map(|_| {
                (0..cfg.assoc)
                    .map(|_| Line {
                        valid: false,
                        tag: 0,
                        data: vec![0; cfg.line_bytes as usize],
                        taint: vec![false; cfg.line_bytes as usize],
                        last_use: 0,
                    })
                    .collect()
            })
            .collect();
        Cache {
            cfg,
            sets,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Base address of the line containing `addr`.
    #[must_use]
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.cfg.line_bytes - 1)
    }

    fn set_index(&self, addr: u32) -> usize {
        ((addr / self.cfg.line_bytes) % self.cfg.sets()) as usize
    }

    fn tag(&self, addr: u32) -> u32 {
        addr / self.cfg.line_bytes / self.cfg.sets()
    }

    /// Probes for a read: on a hit, returns the byte and its taint bit
    /// straight from the cache line (and refreshes LRU). Counts the access.
    pub fn probe_read(&mut self, addr: u32) -> Option<(u8, bool)> {
        self.clock += 1;
        let (set, tag) = (self.set_index(addr), self.tag(addr));
        let off = (addr % self.cfg.line_bytes) as usize;
        let clock = self.clock;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.last_use = clock;
                self.stats.hits += 1;
                return Some((line.data[off], line.taint[off]));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Installs a full line (data plus taint bits), evicting the LRU way.
    ///
    /// # Panics
    ///
    /// Panics when `data`/`taint` are not exactly one line long.
    pub fn fill_line(&mut self, addr: u32, data: &[u8], taint: &[bool]) {
        assert_eq!(
            data.len(),
            self.cfg.line_bytes as usize,
            "fill must be one line"
        );
        assert_eq!(
            taint.len(),
            self.cfg.line_bytes as usize,
            "fill must be one line"
        );
        self.clock += 1;
        let (set, tag) = (self.set_index(addr), self.tag(addr));
        let clock = self.clock;
        let way = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.valid, l.last_use))
            .map(|(i, _)| i)
            .expect("associativity is positive");
        let line = &mut self.sets[set][way];
        if line.valid {
            self.stats.evictions += 1;
        }
        line.valid = true;
        line.tag = tag;
        line.data.copy_from_slice(data);
        line.taint.copy_from_slice(taint);
        line.last_use = clock;
    }

    /// Write-through update: if the line is resident, patch the byte and its
    /// taint bit. Returns whether the line was resident.
    pub fn update_write(&mut self, addr: u32, value: u8, tainted: bool) -> bool {
        let (set, tag) = (self.set_index(addr), self.tag(addr));
        let off = (addr % self.cfg.line_bytes) as usize;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.data[off] = value;
                line.taint[off] = tainted;
                return true;
            }
        }
        false
    }

    /// Access counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident lines containing at least one tainted byte — the
    /// quantity behind the paper's cache area-overhead discussion.
    #[must_use]
    pub fn tainted_line_count(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.valid && l.taint.iter().any(|&t| t))
            .count()
    }

    /// Fault-injection hook: flips one bit in a resident line, modelling a
    /// single-event upset in the cache array.
    ///
    /// `pick` selects among the valid lines (in set/way order, so the choice
    /// is deterministic) and `bit` selects the bit within the line: bits
    /// `0..8*line_bytes` address the data array, and the next `line_bytes`
    /// "bits" flip the per-byte taint bit instead — the paper's shadow bits
    /// are cache state too (§4.1). Returns the byte address of the corrupted
    /// cell and whether the taint bit (rather than a data bit) was hit, or
    /// `None` when the cache holds no valid line.
    pub fn corrupt_line(&mut self, pick: u64, bit: u64) -> Option<(u32, bool)> {
        let line_bytes = self.cfg.line_bytes as usize;
        let sets = self.cfg.sets();
        let coords: Vec<(usize, usize)> = (0..self.sets.len())
            .flat_map(|si| (0..self.sets[si].len()).map(move |wi| (si, wi)))
            .filter(|&(si, wi)| self.sets[si][wi].valid)
            .collect();
        if coords.is_empty() {
            return None;
        }
        let (si, wi) = coords[(pick % coords.len() as u64) as usize];
        let line = &mut self.sets[si][wi];
        // 8 data bits + 1 taint bit per cached byte.
        let b = (bit % (line_bytes as u64 * 9)) as usize;
        let off = if b < line_bytes * 8 {
            b / 8
        } else {
            b - line_bytes * 8
        };
        let addr = (line.tag * sets + si as u32) * self.cfg.line_bytes + off as u32;
        if b < line_bytes * 8 {
            line.data[off] ^= 1 << (b % 8);
            Some((addr, false))
        } else {
            line.taint[off] = !line.taint[off];
            Some((addr, true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            assoc: 2,
        })
    }

    fn line(fill: u8, tainted: bool) -> (Vec<u8>, Vec<bool>) {
        (vec![fill; 16], vec![tainted; 16])
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe_read(0x100), None);
        let (d, t) = line(0xaa, true);
        c.fill_line(0x100, &d, &t);
        assert_eq!(c.probe_read(0x104), Some((0xaa, true)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn taint_bits_are_stored_per_byte_in_lines() {
        let mut c = tiny();
        let d = vec![1u8; 16];
        let mut t = vec![false; 16];
        t[3] = true;
        c.fill_line(0x200, &d, &t);
        assert_eq!(c.probe_read(0x203), Some((1, true)));
        assert_eq!(c.probe_read(0x204), Some((1, false)));
        assert_eq!(c.tainted_line_count(), 1);
    }

    #[test]
    fn corrupt_line_flips_data_and_taint_bits_deterministically() {
        let mut c = tiny();
        assert_eq!(c.corrupt_line(0, 0), None, "empty cache has no target");
        let (d, t) = line(0xaa, false);
        c.fill_line(0x130, &d, &t);
        // Data bit: pick the only valid line, bit 0 of byte 0.
        let (addr, taint_bit) = c.corrupt_line(7, 0).unwrap();
        assert_eq!((addr, taint_bit), (0x130, false));
        assert_eq!(c.probe_read(0x130), Some((0xab, false)));
        // Taint "bit" region: bits 8*16.. flip shadow bits.
        let (addr, taint_bit) = c.corrupt_line(0, 16 * 8 + 5).unwrap();
        assert_eq!((addr, taint_bit), (0x135, true));
        assert_eq!(c.probe_read(0x135), Some((0xaa, true)));
        // The same (pick, bit) on the same state is reproducible.
        let mut c2 = tiny();
        c2.fill_line(0x130, &d, &t);
        assert_eq!(c2.corrupt_line(7, 0), Some((0x130, false)));
    }

    #[test]
    fn lru_eviction_prefers_least_recent() {
        let mut c = tiny();
        // Addresses mapping to the same set: line size 16, 2 sets -> set = (addr/16) % 2.
        let (a, b, d3) = (0x000, 0x020, 0x040); // all set 0
        let (d, t) = line(0x11, false);
        c.fill_line(a, &d, &t);
        let (d, t) = line(0x22, false);
        c.fill_line(b, &d, &t);
        // Touch `a` so `b` becomes LRU.
        assert!(c.probe_read(a).is_some());
        let (d, t) = line(0x33, false);
        c.fill_line(d3, &d, &t);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.probe_read(a).is_some(), "recently used line must survive");
        assert_eq!(c.probe_read(b), None, "LRU line must be evicted");
        assert!(c.probe_read(d3).is_some());
    }

    #[test]
    fn update_write_patches_resident_lines_only() {
        let mut c = tiny();
        assert!(!c.update_write(0x300, 9, true));
        let (d, t) = line(0, false);
        c.fill_line(0x300, &d, &t);
        assert!(c.update_write(0x305, 9, true));
        assert_eq!(c.probe_read(0x305), Some((9, true)));
        assert_eq!(c.tainted_line_count(), 1);
        assert!(c.update_write(0x305, 9, false));
        assert_eq!(c.tainted_line_count(), 0);
    }

    #[test]
    fn default_geometries_are_consistent() {
        let l1 = Cache::new(CacheConfig::l1_default());
        assert_eq!(l1.config().sets(), 128);
        let l2 = Cache::new(CacheConfig::l2_default());
        assert_eq!(l2.config().sets(), 512);
        assert_eq!(l1.line_base(0x1234), 0x1220);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 60,
            line_bytes: 15,
            assoc: 2,
        });
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        let (d, t) = line(0, false);
        c.fill_line(0, &d, &t);
        let _ = c.probe_read(0); // hit
        let _ = c.probe_read(0x100); // miss (set 0, different tag, other way invalid -> miss)
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
