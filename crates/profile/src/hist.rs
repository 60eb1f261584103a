//! Per-PC retirement histogram with the decode cache's page layout.

use ptaint_isa::PAGE_SIZE;
use std::collections::HashMap;

/// Counter slots per page: one per instruction word.
pub const PAGE_SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// A per-PC retirement histogram, bumped once per `Event::Retire`.
///
/// Mirrors the decode cache's layout (`crates/cpu/src/decode_cache.rs`):
/// pages are keyed by `pc / PAGE_SIZE` in a `HashMap` that points into a
/// flat `Vec` of boxed 1024-slot counter arrays, with a one-entry shortcut
/// for the last page touched — the steady-state cost of [`bump`] is the
/// shortcut compare plus one array increment. A running total makes
/// [`total`](PcHistogram::total) O(1), so syscall latency can read it on
/// every syscall.
///
/// [`bump`]: PcHistogram::bump
#[derive(Debug)]
pub struct PcHistogram {
    pages: HashMap<u32, usize>,
    store: Vec<Box<[u64; PAGE_SLOTS]>>,
    last_page: u32,
    last_idx: usize,
    total: u64,
}

impl Default for PcHistogram {
    fn default() -> PcHistogram {
        PcHistogram {
            pages: HashMap::new(),
            store: Vec::new(),
            last_page: u32::MAX,
            last_idx: usize::MAX,
            total: 0,
        }
    }
}

impl PcHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> PcHistogram {
        PcHistogram::default()
    }

    /// Count one retirement at `pc`.
    #[inline]
    pub fn bump(&mut self, pc: u32) {
        let page = pc / PAGE_SIZE;
        let slot = ((pc % PAGE_SIZE) / 4) as usize;
        if page != self.last_page {
            let idx = match self.pages.get(&page) {
                Some(&idx) => idx,
                None => {
                    let idx = self.store.len();
                    self.store.push(Box::new([0u64; PAGE_SLOTS]));
                    self.pages.insert(page, idx);
                    idx
                }
            };
            self.last_page = page;
            self.last_idx = idx;
        }
        self.store[self.last_idx][slot] += 1;
        self.total += 1;
    }

    /// Total retirements counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All non-zero `(pc, count)` pairs in ascending `pc` order.
    #[must_use]
    pub fn entries(&self) -> Vec<(u32, u64)> {
        let mut pages: Vec<(&u32, &usize)> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|(page, _)| **page);
        let mut out = Vec::new();
        for (page, &idx) in pages {
            let base = page * PAGE_SIZE;
            for (slot, &count) in self.store[idx].iter().enumerate() {
                if count != 0 {
                    out.push((base + (slot as u32) * 4, count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_the_right_slots_across_pages() {
        let mut h = PcHistogram::new();
        h.bump(0x40_0000);
        h.bump(0x40_0000);
        h.bump(0x40_0ffc); // last slot of the first page
        h.bump(0x40_1000); // next page
        h.bump(0x40_0004); // back to the first page (shortcut miss)
        assert_eq!(h.total(), 5);
        assert_eq!(
            h.entries(),
            vec![
                (0x40_0000, 2),
                (0x40_0004, 1),
                (0x40_0ffc, 1),
                (0x40_1000, 1),
            ]
        );
    }

    #[test]
    fn empty_histogram_is_empty() {
        let h = PcHistogram::new();
        assert_eq!(h.total(), 0);
        assert!(h.entries().is_empty());
    }
}
