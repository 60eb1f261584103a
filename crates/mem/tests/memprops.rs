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
/// `0x0080_0000` are the first two leaf seams of the two-level table,
/// `0xFFFF_F000` is the last page, and `0` is where an access running off
/// that page wraps into the null guard.
const SEAMS: [u32; 4] = [TEXT_BASE, 0x0080_0000, 0xFFFF_F000, 0];
const WINDOW: i32 = 64;

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

/// Checks one timeline against its model over every probed address.
fn assert_matches_model(mem: &TaintedMemory, model: &Model) {
    for seam in 0..SEAMS.len() {
        for delta in -WINDOW..WINDOW + 8 {
            let a = seam_addr(seam, delta);
            if a < PAGE_SIZE {
                assert_eq!(mem.read_u8(a).unwrap_err().kind, MemFaultKind::NullDeref);
                continue;
            }
            assert_eq!(mem.read_u8(a).unwrap(), model.read(a), "byte at {a:#010x}");
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

    /// The two-level page table behaves like a flat byte map across its
    /// leaf seams and at the top of the address space: random writes
    /// (byte, word, bulk, taint-only) and forks, applied to up to three
    /// timelines, leave every timeline equal to its own reference model —
    /// values, taint, materialized page count and tainted ranges — so no
    /// fork ever aliases its parent or sibling.
    #[test]
    fn page_table_matches_a_flat_model(
        ops in proptest::collection::vec(
            (0u8..6, 0usize..3, 0usize..4, -WINDOW..WINDOW, any::<u32>(), (any::<bool>(), 0u32..12)),
            1..64))
    {
        let mut timelines = vec![(TaintedMemory::new(), Model::default())];
        for (kind, who, seam, delta, val, (t, len)) in ops {
            let addr = seam_addr(seam, delta);
            let who = who % timelines.len();
            let (mem, model) = &mut timelines[who];
            let null = addr < PAGE_SIZE;
            match kind {
                0 => {
                    let res = mem.write_u8(addr, val as u8, t);
                    prop_assert_eq!(res.is_err(), null);
                    model.each(addr, 1, |_, b| *b = (val as u8, t));
                }
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
                _ => {
                    if null {
                        prop_assert!(mem.read_u8(addr).is_err());
                    } else {
                        prop_assert_eq!(mem.read_u8(addr).unwrap(), model.read(addr));
                    }
                }
            }
        }
        for (mem, model) in &timelines {
            assert_matches_model(mem, model);
        }
    }
}
