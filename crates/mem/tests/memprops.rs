//! Property tests for the taint-extended memory system.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use ptaint_isa::{PAGE_SIZE, TEXT_BASE};
use ptaint_mem::{HierarchyConfig, MemFaultKind, MemorySystem, TaintedMemory, WordTaint};

proptest! {
    /// Data and taint written byte-by-byte are read back exactly (flat memory).
    #[test]
    fn byte_roundtrip(addr in 0x1000u32..0x8000_0000, val in any::<u8>(), t in any::<bool>()) {
        let mut mem = TaintedMemory::new();
        mem.write_u8(addr, val, t).unwrap();
        prop_assert_eq!(mem.read_u8(addr).unwrap(), (val, t));
    }

    /// Word round trips preserve per-byte taint (flat memory).
    #[test]
    fn word_roundtrip(addr_w in 0x400u32..0x1fff_ffff, val in any::<u32>(), bits in 0u8..16) {
        let addr = addr_w * 4;
        let taint = WordTaint::from_bits(bits);
        let mut mem = TaintedMemory::new();
        mem.write_u32(addr, val, taint).unwrap();
        prop_assert_eq!(mem.read_u32(addr).unwrap(), (val, taint));
    }

    /// The cached hierarchy always agrees with flat memory on reads,
    /// including taint, under arbitrary interleaved traffic.
    #[test]
    fn hierarchy_is_coherent(ops in proptest::collection::vec(
        (0u32..64, any::<u8>(), any::<bool>(), any::<bool>()), 1..200))
    {
        let mut flat = MemorySystem::flat();
        let mut cached = MemorySystem::new(HierarchyConfig::two_level());
        let base = 0x1000_0000u32;
        for (slot, val, tainted, is_write) in ops {
            let addr = base + slot;
            if is_write {
                flat.write_u8(addr, val, tainted).unwrap();
                cached.write_u8(addr, val, tainted).unwrap();
            } else {
                prop_assert_eq!(flat.read_u8(addr).unwrap(), cached.read_u8(addr).unwrap());
            }
        }
        for slot in 0..64u32 {
            prop_assert_eq!(
                flat.read_u8(base + slot).unwrap(),
                cached.read_u8(base + slot).unwrap()
            );
        }
    }

    /// Bulk writes taint exactly the written range.
    #[test]
    fn bulk_taint_is_exact(len in 1u32..128, pad in 1u32..16) {
        let mut mem = TaintedMemory::new();
        let base = 0x2000_0000;
        let data = vec![0xabu8; len as usize];
        mem.write_bytes(base + pad, &data, true).unwrap();
        prop_assert!(!mem.read_u8(base + pad - 1).unwrap().1);
        prop_assert!(mem.read_taint(base + pad, len).unwrap().iter().all(|&t| t));
        prop_assert!(!mem.read_u8(base + pad + len).unwrap().1);
        prop_assert_eq!(mem.tainted_byte_count(), u64::from(len));
    }

    /// Copy-on-write forks never alias: arbitrary interleaved writes (data
    /// bytes, bulk writes with shadow taint, and taint-only range flips)
    /// applied to the parent and two forked children after `fork()` leave
    /// each timeline byte-identical to an unforked replay of its own
    /// history — no write in one timeline is ever visible in another.
    #[test]
    fn forks_never_alias_parent_or_sibling(
        setup in proptest::collection::vec((0u32..96, any::<u8>(), any::<bool>()), 0..32),
        streams in proptest::collection::vec(
            (0usize..3, 0u32..96, any::<u8>(), any::<bool>(), 0u8..3), 1..96))
    {
        // The window deliberately straddles page boundaries so COW faults
        // split shared pages mid-stream.
        let base = 0x3000_0fc0u32;
        let apply = |mem: &mut TaintedMemory, slot: u32, val: u8, t: bool, kind: u8| {
            match kind {
                0 => mem.write_u8(base + slot, val, t).unwrap(),
                1 => mem.write_bytes(base + slot, &[val; 5], t).unwrap(),
                _ => mem.set_taint_range(base + slot, 7, t).unwrap(),
            }
        };

        let mut parent = TaintedMemory::new();
        for &(slot, val, t) in &setup {
            parent.write_u8(base + slot, val, t).unwrap();
        }
        let mut children = [parent.fork(), parent.fork()];

        // Replays: one unforked memory per timeline, fed the same history.
        let mut replays = [TaintedMemory::new(), TaintedMemory::new(), TaintedMemory::new()];
        for replay in &mut replays {
            for &(slot, val, t) in &setup {
                replay.write_u8(base + slot, val, t).unwrap();
            }
        }

        for &(who, slot, val, t, kind) in &streams {
            let target = match who {
                0 => &mut parent,
                i => &mut children[i - 1],
            };
            apply(target, slot, val, t, kind);
            apply(&mut replays[who], slot, val, t, kind);
        }

        for (timeline, replay) in [&parent, &children[0], &children[1]].into_iter().zip(&replays) {
            for slot in 0..104u32 {
                prop_assert_eq!(
                    timeline.read_u8(base + slot).unwrap(),
                    replay.read_u8(base + slot).unwrap(),
                    "fork timeline diverged from its unforked replay at slot {}", slot
                );
            }
            prop_assert_eq!(timeline.tainted_byte_count(), replay.tainted_byte_count());
        }
    }
}

/// Addresses the page-table model test draws around: `TEXT_BASE` and
/// `0x0080_0000` are page seams 4 MiB apart, `0xFFFF_F000` is the last
/// page, and `0` is where an access running off that page wraps into the
/// null guard.
const SEAMS: [u32; 4] = [TEXT_BASE, 0x0080_0000, 0xFFFF_F000, 0];
const WINDOW: i32 = 64;
/// Longest bulk write or taint-range flip: several 64-byte shadow words,
/// so runs start and end mid-word and cover whole words between.
const MAX_LEN: u32 = 200;

/// Reference model of a [`TaintedMemory`]: every byte ever written (absent
/// bytes read as clean zeroes) and every page a write materialized.
#[derive(Clone, Default)]
struct Model {
    bytes: BTreeMap<u32, (u8, bool)>,
    pages: BTreeSet<u32>,
}

impl Model {
    fn read(&self, addr: u32) -> (u8, bool) {
        self.bytes.get(&addr).copied().unwrap_or((0, false))
    }

    /// Applies `f` to each byte of `[addr, addr + len)` in order, stopping
    /// at the first null-page byte; returns whether the range faulted.
    fn each(&mut self, addr: u32, len: u32, mut f: impl FnMut(u32, &mut (u8, bool))) -> bool {
        for i in 0..len {
            let a = addr.wrapping_add(i);
            if a < PAGE_SIZE {
                return true;
            }
            self.pages.insert(a / PAGE_SIZE);
            f(a, self.bytes.entry(a).or_insert((0, false)));
        }
        false
    }

    fn tainted_ranges(&self) -> Vec<(u32, u32)> {
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (&a, _) in self.bytes.iter().filter(|(_, &(_, t))| t) {
            match ranges.last_mut() {
                Some((start, len)) if u64::from(*start) + u64::from(*len) == u64::from(a) => {
                    *len += 1
                }
                _ => ranges.push((a, 1)),
            }
        }
        ranges
    }
}

fn seam_addr(seam: usize, delta: i32) -> u32 {
    SEAMS[seam].wrapping_add(delta as u32)
}

/// The fault an access of `align` bytes at `addr` must raise, if any: the
/// null-page guard is checked before alignment.
fn fault(addr: u32, align: u32) -> Result<(), MemFaultKind> {
    if addr < PAGE_SIZE {
        Err(MemFaultKind::NullDeref)
    } else if !addr.is_multiple_of(align) {
        Err(MemFaultKind::Unaligned)
    } else {
        Ok(())
    }
}

/// Checks one timeline against its model over every probed address.
fn assert_matches_model(mem: &TaintedMemory, model: &Model) {
    for seam in 0..SEAMS.len() {
        for delta in -WINDOW..WINDOW + MAX_LEN as i32 + 8 {
            let a = seam_addr(seam, delta);
            if a < PAGE_SIZE {
                assert_eq!(mem.read_u8(a).unwrap_err().kind, MemFaultKind::NullDeref);
                continue;
            }
            assert_eq!(mem.read_u8(a).unwrap(), model.read(a), "byte at {a:#010x}");
            if a.is_multiple_of(2) {
                let (half, taint) = mem.read_u16(a).unwrap();
                let (lo, t0) = model.read(a);
                let (hi, t1) = model.read(a + 1);
                assert_eq!(
                    (half, taint.bits()),
                    (
                        u16::from_le_bytes([lo, hi]),
                        u8::from(t0) | u8::from(t1) << 1
                    ),
                    "halfword at {a:#010x}"
                );
            }
            if a.is_multiple_of(4) {
                let (word, taint) = mem.read_u32(a).unwrap();
                let mut bytes = [0u8; 4];
                let mut bits = 0u8;
                for (i, b) in bytes.iter_mut().enumerate() {
                    let (v, t) = model.read(a + i as u32);
                    *b = v;
                    bits |= u8::from(t) << i;
                }
                assert_eq!(
                    (word, taint.bits()),
                    (u32::from_le_bytes(bytes), bits),
                    "word at {a:#010x}"
                );
            }
        }
    }
    assert_eq!(mem.page_count(), model.pages.len());
    let ranges = mem.tainted_ranges();
    for pair in ranges.windows(2) {
        // Ascending, and maximal: a gap separates consecutive runs.
        assert!(
            u64::from(pair[0].0) + u64::from(pair[0].1) < u64::from(pair[1].0),
            "{ranges:x?}"
        );
    }
    assert_eq!(ranges, model.tainted_ranges());
    let tainted = model.bytes.values().filter(|&&(_, t)| t).count() as u64;
    assert_eq!(mem.tainted_byte_count(), tainted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The page table behaves like a flat byte map across page seams and
    /// at the top of the address space: random writes
    /// (byte, halfword, word, bulk, taint-only), reads and forks, applied
    /// to up to three timelines, leave every timeline equal to its own
    /// reference model — values, taint, materialized page count and
    /// tainted ranges — so no fork ever aliases its parent or sibling.
    /// Byte and halfword accesses fault exactly where the model says: in
    /// the null page first, then at odd halfword addresses.
    #[test]
    fn page_table_matches_a_flat_model(
        ops in proptest::collection::vec(
            (0u8..9, 0usize..3, 0usize..4, -WINDOW..WINDOW, any::<u32>(), (any::<bool>(), 0u32..MAX_LEN)),
            1..64))
    {
        let mut timelines = vec![(TaintedMemory::new(), Model::default())];
        for (kind, who, seam, delta, val, (t, len)) in ops {
            let addr = seam_addr(seam, delta);
            let who = who % timelines.len();
            let (mem, model) = &mut timelines[who];
            match kind {
                0 => {
                    let res = mem.write_u8(addr, val as u8, t);
                    prop_assert_eq!(res.map_err(|f| f.kind), fault(addr, 1));
                    model.each(addr, 1, |_, b| *b = (val as u8, t));
                }
                5 => {
                    let taint = WordTaint::from_bits(val as u8 & 0xF);
                    let res = mem.write_u16(addr, val as u16, taint);
                    prop_assert_eq!(res.map_err(|f| f.kind), fault(addr, 2));
                    if fault(addr, 2).is_ok() {
                        let bytes = (val as u16).to_le_bytes();
                        model.each(addr, 2, |a, b| {
                            let i = (a - addr) as usize;
                            *b = (bytes[i], taint.byte(i));
                        });
                    }
                }
                6 => match fault(addr, 2) {
                    Err(kind) => prop_assert_eq!(mem.read_u16(addr).unwrap_err().kind, kind),
                    Ok(()) => {
                        let (half, taint) = mem.read_u16(addr).unwrap();
                        let (lo, t0) = model.read(addr);
                        let (hi, t1) = model.read(addr + 1);
                        prop_assert_eq!(half, u16::from_le_bytes([lo, hi]));
                        prop_assert_eq!(taint.bits(), u8::from(t0) | u8::from(t1) << 1);
                    }
                },
                1 => {
                    let addr = addr & !3;
                    let taint = WordTaint::from_bits(val as u8 & 0xF);
                    let res = mem.write_u32(addr, val.rotate_left(7), taint);
                    prop_assert_eq!(res.is_err(), addr < PAGE_SIZE);
                    let bytes = val.rotate_left(7).to_le_bytes();
                    if addr >= PAGE_SIZE {
                        model.each(addr, 4, |a, b| {
                            let i = (a - addr) as usize;
                            *b = (bytes[i], taint.byte(i));
                        });
                    }
                }
                2 => {
                    let data: Vec<u8> = (0..len).map(|i| (val >> (i % 4 * 8)) as u8 ^ i as u8).collect();
                    let res = mem.write_bytes(addr, &data, t);
                    let faulted = model.each(addr, len, |a, b| {
                        *b = (data[a.wrapping_sub(addr) as usize], t);
                    });
                    prop_assert_eq!(res.is_err(), faulted);
                }
                3 => {
                    let res = mem.set_taint_range(addr, len, t);
                    let faulted = model.each(addr, len, |_, b| b.1 = t);
                    prop_assert_eq!(res.is_err(), faulted);
                }
                4 => {
                    let fork = (mem.fork(), model.clone());
                    if timelines.len() < 3 {
                        timelines.push(fork);
                    } else {
                        timelines[2] = fork;
                    }
                }
                _ => match fault(addr, 1) {
                    Err(kind) => prop_assert_eq!(mem.read_u8(addr).unwrap_err().kind, kind),
                    Ok(()) => prop_assert_eq!(mem.read_u8(addr).unwrap(), model.read(addr)),
                },
            }
        }
        for (mem, model) in &timelines {
            assert_matches_model(mem, model);
        }
    }
}

/// Base of the page-spread window the fork-chain and ordering tests write
/// into: 160 consecutive pages, more than the table holds before it grows
/// past 64 pages.
const SPREAD: u32 = 0x2000_0000;
const SPREAD_PAGES: u32 = 160;

/// Address `off` (mod a page) into page `page` of the spread window.
fn spread_addr(page: u32, off: u32) -> u32 {
    SPREAD + (page % SPREAD_PAGES) * PAGE_SIZE + off % PAGE_SIZE
}

/// Writes one byte into `mem` and `model` alike.
fn write_both(mem: &mut TaintedMemory, model: &mut Model, addr: u32, val: u8, t: bool) {
    mem.write_u8(addr, val, t).unwrap();
    model.each(addr, 1, |_, b| *b = (val, t));
}

/// Checks `mem` against `model` at every byte the model holds, and its
/// page count and tainted ranges.
fn assert_matches_written(mem: &TaintedMemory, model: &Model) {
    for (&a, &expected) in &model.bytes {
        assert_eq!(mem.read_u8(a).unwrap(), expected, "byte at {a:#010x}");
    }
    assert_eq!(mem.page_count(), model.pages.len());
    assert_eq!(mem.tainted_ranges(), model.tainted_ranges());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The checkpoint ladder's shape: each link forks the previous link
    /// while the origin keeps writing, across up to 160 pages. Every
    /// timeline stays equal to its own model; a fresh link has its
    /// source's page count; and the links dropped in any order leave every
    /// survivor intact and the origin sharing nothing.
    #[test]
    fn fork_chains_survive_drops_in_any_order(
        writes in proptest::collection::vec((0u32..SPREAD_PAGES, any::<u32>(), any::<u8>(), any::<bool>()), 1..160),
        links in 1usize..10,
        drop_keys in proptest::collection::vec(any::<u64>(), 10..11))
    {
        let mut origin = (TaintedMemory::new(), Model::default());
        let mut chain: Vec<(TaintedMemory, Model)> = Vec::new();
        let per_link = writes.len().div_ceil(links);
        for (link, batch) in writes.chunks(per_link).enumerate() {
            for &(page, off, val, t) in batch {
                write_both(&mut origin.0, &mut origin.1, spread_addr(page, off), val, t);
            }
            let source = chain.last().unwrap_or(&origin);
            let fork = (source.0.fork(), source.1.clone());
            prop_assert_eq!(fork.0.page_count(), source.0.page_count());
            prop_assert_eq!(fork.0.cow_fault_count(), 0);
            chain.push(fork);
            // The newest link diverges from its source on one page.
            let (page, off, val, t) = batch[0];
            if link % 2 == 1 {
                let (mem, model) = chain.last_mut().unwrap();
                write_both(mem, model, spread_addr(page + 1, off), val ^ 0xff, !t);
            }
        }
        prop_assert!(origin.0.pages_shared() > 0 || origin.0.page_count() == 0);
        let mut order: Vec<usize> = (0..chain.len()).collect();
        order.sort_by_key(|&i| drop_keys[i]);
        let mut alive: Vec<Option<(TaintedMemory, Model)>> = chain.into_iter().map(Some).collect();
        for i in order {
            drop(alive[i].take());
            assert_matches_written(&origin.0, &origin.1);
            for (mem, model) in alive.iter().flatten() {
                assert_matches_written(mem, model);
            }
        }
        prop_assert_eq!(origin.0.pages_shared(), 0);
    }

    /// Tainted ranges come back in ascending address order however the
    /// pages were first touched (random or descending order) and however
    /// often the table grew on the way.
    #[test]
    fn tainted_ranges_ascend_whatever_the_touch_order(
        pages in proptest::collection::vec((0u32..SPREAD_PAGES, 0u32..PAGE_SIZE), 1..120),
        descending in any::<bool>())
    {
        let mut touches = pages.clone();
        if descending {
            touches.sort_by(|a, b| b.cmp(a));
        }
        let mut mem = TaintedMemory::new();
        let mut model = Model::default();
        for &(page, off) in &touches {
            write_both(&mut mem, &mut model, spread_addr(page, off), 1, true);
        }
        let fork = mem.fork();
        for timeline in [&mem, &fork] {
            assert_matches_written(timeline, &model);
            prop_assert!(timeline.tainted_ranges().windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
