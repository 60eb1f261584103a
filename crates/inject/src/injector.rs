//! The state-level injector: a [`StepHook`] that corrupts architectural
//! state once, at a seeded trigger step.

use ptaint_cpu::Cpu;
use ptaint_isa::{Reg, PAGE_SIZE};
use ptaint_mem::WordTaint;
use ptaint_os::StepHook;
use ptaint_trace::Event;

use crate::fault::{Fault, FaultKind};
use crate::rng::SplitMix64;

/// Bytes of shadow taint cleared around the picked byte by a
/// [`FaultKind::TaintClear`] injection. Wide enough to swallow a whole
/// attack payload (the ghttpd overflow is ~240 bytes), so a hit near the
/// corrupted pointer reliably produces the missed-detection outcome the
/// paper's Table 4 rows are contrasted against.
const TAINT_CLEAR_WINDOW: u32 = 256;

/// A one-shot state corrupter. Attach to [`ptaint_os::run_to_exit_with`],
/// which it wakes only at step `fault.step`: there it applies the fault (if
/// the targeted state exists), bumps `ExecStats::injected_faults`, and
/// emits a `fault_injected` trace event when an observer is attached.
#[derive(Debug)]
pub struct StateInjector {
    fault: Fault,
    fired: bool,
    applied: Option<String>,
}

impl StateInjector {
    /// An injector armed with `fault`. I/O kinds are inert here — schedule
    /// them on the kernel via [`Fault::io_plan`] instead.
    #[must_use]
    pub fn new(fault: Fault) -> StateInjector {
        StateInjector {
            fault,
            fired: false,
            applied: None,
        }
    }

    /// Human-readable description of what was corrupted, once applied.
    /// `None` means the fault never fired or found no eligible target
    /// (e.g. `taint_clear` before any taint exists).
    #[must_use]
    pub fn applied(&self) -> Option<&str> {
        self.applied.as_deref()
    }
}

impl StepHook for StateInjector {
    fn on_step(&mut self, step: u64, cpu: &mut Cpu) {
        if self.fired || self.fault.kind.is_io() || step < self.fault.step {
            return;
        }
        self.fired = true;
        let mut rng = SplitMix64::new(self.fault.salt);
        if let Some(detail) = apply_state_fault(self.fault.kind, &mut rng, cpu) {
            cpu.note_injected_fault();
            if cpu.has_observer() {
                cpu.emit_event(&Event::FaultInjected {
                    kind: self.fault.kind.name(),
                    detail: detail.clone(),
                });
            }
            self.applied = Some(detail);
        }
    }

    /// Wakes once, at the trigger step, until the fault fires; I/O kinds
    /// (applied by the kernel, not here) never wake.
    fn next_wake(&self, step: u64) -> u64 {
        if self.fired || self.fault.kind.is_io() {
            u64::MAX
        } else {
            step.max(self.fault.step)
        }
    }
}

/// Picks the `idx`-th tainted byte (in address order) out of `ranges`.
fn nth_tainted_byte(ranges: &[(u32, u32)], idx: u64) -> u32 {
    let mut remaining = idx;
    for &(start, len) in ranges {
        if remaining < u64::from(len) {
            return start + remaining as u32;
        }
        remaining -= u64::from(len);
    }
    unreachable!("index computed modulo the total tainted byte count")
}

fn apply_state_fault(kind: FaultKind, rng: &mut SplitMix64, cpu: &mut Cpu) -> Option<String> {
    match kind {
        FaultKind::DataBit => {
            let ranges = cpu.mem().tainted_ranges();
            let total: u64 = ranges.iter().map(|&(_, len)| u64::from(len)).sum();
            if total == 0 {
                return None;
            }
            let addr = nth_tainted_byte(&ranges, rng.below(total));
            let bit = rng.below(8) as u8;
            // Read the authoritative byte (not through the caches, so the
            // injection doesn't perturb hit/miss statistics), then write
            // through the hierarchy so caches stay coherent.
            let (value, tainted) = cpu.mem().memory().read_u8(addr).ok()?;
            cpu.mem_mut()
                .write_u8(addr, value ^ (1 << bit), tainted)
                .ok()?;
            Some(format!("data bit {bit} flipped at {addr:#010x}"))
        }
        FaultKind::TaintClear => {
            let ranges = cpu.mem().tainted_ranges();
            let total: u64 = ranges.iter().map(|&(_, len)| u64::from(len)).sum();
            if total == 0 {
                return None;
            }
            let addr = nth_tainted_byte(&ranges, rng.below(total));
            // Centre the window on the hit, but keep it off the null-guard
            // page so the clearing writes stay legal.
            let start = addr.saturating_sub(TAINT_CLEAR_WINDOW / 2).max(PAGE_SIZE);
            cpu.mem_mut()
                .set_taint_range(start, TAINT_CLEAR_WINDOW, false)
                .ok()?;
            Some(format!(
                "taint cleared on [{start:#010x}, +{TAINT_CLEAR_WINDOW})"
            ))
        }
        FaultKind::TaintSet => {
            if rng.below(2) == 0 {
                // Spuriously taint a register's shadow bits, value intact.
                let reg = Reg::new(1 + rng.below(31) as u8);
                let (value, _) = cpu.regs().get(reg);
                cpu.regs_mut().set(reg, value, WordTaint::ALL);
                Some(format!("taint set on {reg}"))
            } else {
                // Spuriously taint a word in the live stack frame.
                let sp = cpu.regs().value(Reg::SP) & !3;
                let addr = sp.wrapping_add(4 * rng.below(16) as u32);
                cpu.mem_mut().set_taint_range(addr, 4, true).ok()?;
                Some(format!("taint set on stack word {addr:#010x}"))
            }
        }
        FaultKind::RegisterBit => {
            let reg = Reg::new(1 + rng.below(31) as u8);
            let (value, taint) = cpu.regs().get(reg);
            // 32 value bits + 4 shadow taint bits per register.
            let bit = rng.below(36);
            if bit < 32 {
                cpu.regs_mut().set(reg, value ^ (1 << bit), taint);
                Some(format!("value bit {bit} flipped in {reg}"))
            } else {
                let byte = (bit - 32) as usize;
                cpu.regs_mut().set(reg, value, taint.toggle_byte(byte));
                Some(format!("shadow taint bit {byte} toggled in {reg}"))
            }
        }
        FaultKind::CacheLine => {
            let level = 1 + (rng.below(2) as u8);
            let pick = rng.next_u64();
            let bit = rng.next_u64();
            let (addr, taint_bit) = cpu.mem_mut().corrupt_cache_line(level, pick, bit)?;
            let what = if taint_bit { "taint" } else { "data" };
            Some(format!(
                "L{level} cache line {what} bit flipped (byte {addr:#010x})"
            ))
        }
        FaultKind::MultiBit => {
            let ranges = cpu.mem().tainted_ranges();
            let total: u64 = ranges.iter().map(|&(_, len)| u64::from(len)).sum();
            if total == 0 {
                return None;
            }
            // Burst upset: 2–8 single-bit flips inside one 64-byte window
            // anchored on a tainted byte. Offsets may land on unmapped or
            // untouched bytes; only the flips that land are counted.
            let base = nth_tainted_byte(&ranges, rng.below(total));
            let burst = 2 + rng.below(7);
            let mut landed = 0u32;
            for _ in 0..burst {
                let addr = base.wrapping_add(rng.below(64) as u32);
                let bit = rng.below(8) as u8;
                let Ok((value, tainted)) = cpu.mem().memory().read_u8(addr) else {
                    continue;
                };
                if cpu
                    .mem_mut()
                    .write_u8(addr, value ^ (1 << bit), tainted)
                    .is_ok()
                {
                    landed += 1;
                }
            }
            if landed == 0 {
                return None;
            }
            Some(format!(
                "{landed} of {burst} burst bit flips landed in [{base:#010x}, +64)"
            ))
        }
        FaultKind::TaintSweep => {
            // Blind the detector wholesale: clear every shadow taint bit in
            // memory and the register file.
            let ranges = cpu.mem().tainted_ranges();
            let bytes: u64 = ranges.iter().map(|&(_, len)| u64::from(len)).sum();
            let mut regs = 0u32;
            for n in 1..32 {
                let reg = Reg::new(n);
                if cpu.regs().get(reg).1.any() {
                    cpu.regs_mut().set_taint(reg, WordTaint::CLEAN);
                    regs += 1;
                }
            }
            for (start, len) in ranges {
                cpu.mem_mut().set_taint_range(start, len, false).ok()?;
            }
            if bytes == 0 && regs == 0 {
                return None;
            }
            Some(format!(
                "taint sweep cleared {bytes} shadow bytes and {regs} registers"
            ))
        }
        FaultKind::DecodeSlot => {
            let pick = rng.next_u64();
            let bit = rng.next_u64();
            cpu.corrupt_decode_slot(pick, bit)
        }
        FaultKind::ProvenFlip => {
            let pick = rng.next_u64();
            let bit = rng.next_u64();
            cpu.corrupt_proven_bit(pick, bit)
        }
        // I/O kinds are scheduled on the kernel; ProofCache never applies.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_cpu::{Cpu, DetectionPolicy};
    use ptaint_mem::{HierarchyConfig, MemorySystem};

    fn cpu() -> Cpu {
        Cpu::new(MemorySystem::flat(), DetectionPolicy::PointerTaintedness)
    }

    fn hook(kind: FaultKind, step: u64, salt: u64) -> StateInjector {
        StateInjector::new(Fault {
            kind,
            io_call: 0,
            step,
            salt,
        })
    }

    #[test]
    fn taint_clear_wipes_the_window_and_counts() {
        let mut cpu = cpu();
        cpu.mem_mut().set_taint_range(0x5000, 16, true).unwrap();
        let mut inj = hook(FaultKind::TaintClear, 3, 1);
        inj.on_step(0, &mut cpu); // before trigger: inert
        assert!(inj.applied().is_none());
        inj.on_step(3, &mut cpu);
        let detail = inj.applied().expect("taint existed, must apply");
        assert!(detail.starts_with("taint cleared"), "{detail}");
        assert!(cpu.mem().tainted_ranges().is_empty());
        assert_eq!(cpu.stats().injected_faults, 1);
        // One-shot: a second trigger step must not re-fire.
        cpu.mem_mut().set_taint_range(0x5000, 4, true).unwrap();
        inj.on_step(4, &mut cpu);
        assert_eq!(cpu.stats().injected_faults, 1);
    }

    #[test]
    fn wakes_only_at_the_trigger_step_until_fired() {
        let mut cpu = cpu();
        let mut inj = hook(FaultKind::RegisterBit, 7, 1);
        assert_eq!((inj.next_wake(0), inj.next_wake(7)), (7, 7));
        assert_eq!(inj.next_wake(9), 9, "a late start wakes at once");
        inj.on_step(7, &mut cpu);
        assert_eq!(inj.next_wake(8), u64::MAX, "fired: never again");
        // I/O kinds are the kernel's: the step hook never wakes for them.
        assert_eq!(hook(FaultKind::ShortRead, 7, 1).next_wake(0), u64::MAX);
    }

    #[test]
    fn taint_clear_without_taint_is_a_clean_no_op() {
        let mut cpu = cpu();
        let mut inj = hook(FaultKind::TaintClear, 0, 1);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().is_none());
        assert_eq!(cpu.stats().injected_faults, 0);
    }

    #[test]
    fn data_bit_flips_value_but_preserves_taint() {
        let mut cpu = cpu();
        cpu.mem_mut().write_u8(0x5000, 0xAA, true).unwrap();
        let mut inj = hook(FaultKind::DataBit, 0, 99);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().unwrap().contains("data bit"));
        let (value, tainted) = cpu.mem().memory().read_u8(0x5000).unwrap();
        assert_ne!(value, 0xAA);
        assert_eq!((value ^ 0xAA).count_ones(), 1);
        assert!(tainted, "taint must survive a data flip");
    }

    #[test]
    fn register_bit_and_taint_set_touch_the_register_file() {
        // Sweep salts until both register-fault shapes have been observed.
        let mut seen_value_flip = false;
        let mut seen_shadow = false;
        for salt in 0..64 {
            let mut cpu = cpu();
            let mut inj = hook(FaultKind::RegisterBit, 0, salt);
            inj.on_step(0, &mut cpu);
            let detail = inj.applied().unwrap();
            seen_value_flip |= detail.contains("value bit");
            seen_shadow |= detail.contains("shadow taint");
        }
        assert!(seen_value_flip && seen_shadow);

        // TaintSet lands on either a register or a stack word; give the CPU
        // a plausible stack pointer so the memory branch has a legal target.
        let mut cpu = cpu();
        cpu.regs_mut().set(Reg::SP, 0x7fff_0000, WordTaint::CLEAN);
        let mut seen = 0;
        for salt in 0..8 {
            let mut inj = hook(FaultKind::TaintSet, 0, salt);
            inj.on_step(0, &mut cpu);
            seen += inj.applied().is_some() as u32;
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn cache_line_needs_a_cache_with_valid_lines() {
        // Flat hierarchy: no caches, fault finds no target.
        let mut cpu = cpu();
        let mut inj = hook(FaultKind::CacheLine, 0, 5);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().is_none());

        // Two-level hierarchy with a touched line: fault lands.
        let mut cpu = Cpu::new(
            MemorySystem::new(HierarchyConfig::two_level()),
            DetectionPolicy::PointerTaintedness,
        );
        cpu.mem_mut().write_u8(0x5000, 1, false).unwrap();
        cpu.mem_mut().read_u8(0x5000).unwrap(); // miss-fill a valid line
        for salt in 0..8 {
            let mut inj = hook(FaultKind::CacheLine, 0, salt);
            inj.on_step(0, &mut cpu);
            if let Some(detail) = inj.applied() {
                assert!(detail.contains("cache line"), "{detail}");
                return;
            }
        }
        panic!("no cache-line fault landed across 8 salts");
    }

    #[test]
    fn multi_bit_bursts_flip_several_bits_and_preserve_taint() {
        let mut cpu = cpu();
        cpu.mem_mut().set_taint_range(0x5000, 64, true).unwrap();
        for addr in 0x5000..0x5040u32 {
            cpu.mem_mut().write_u8(addr, 0xAA, true).unwrap();
        }
        let mut inj = hook(FaultKind::MultiBit, 0, 17);
        inj.on_step(0, &mut cpu);
        let detail = inj.applied().expect("tainted window exists");
        assert!(detail.contains("burst bit flips landed"), "{detail}");
        // Count corrupted bytes; taint stays on every one of them.
        let mut flipped = 0;
        for addr in 0x5000..0x5040u32 {
            let (value, tainted) = cpu.mem().memory().read_u8(addr).unwrap();
            assert!(tainted);
            if value != 0xAA {
                flipped += 1;
            }
        }
        assert!(flipped >= 1, "at least one landed flip is visible");
    }

    #[test]
    fn taint_sweep_blinds_memory_and_registers_wholesale() {
        let mut cpu = cpu();
        cpu.mem_mut().set_taint_range(0x5000, 16, true).unwrap();
        cpu.mem_mut().set_taint_range(0x9000, 300, true).unwrap();
        cpu.regs_mut().set(Reg::T0, 7, WordTaint::ALL);
        let mut inj = hook(FaultKind::TaintSweep, 0, 1);
        inj.on_step(0, &mut cpu);
        let detail = inj.applied().unwrap();
        assert_eq!(
            detail,
            "taint sweep cleared 316 shadow bytes and 1 registers"
        );
        assert!(cpu.mem().tainted_ranges().is_empty());
        assert!(!cpu.regs().get(Reg::T0).1.any());

        // Nothing tainted anywhere: the sweep has nothing to clear.
        let mut clean = Cpu::new(MemorySystem::flat(), DetectionPolicy::PointerTaintedness);
        let mut inj = hook(FaultKind::TaintSweep, 0, 1);
        inj.on_step(0, &mut clean);
        assert!(inj.applied().is_none());
    }

    #[test]
    fn decode_faults_need_a_populated_decode_cache() {
        // Fresh CPU, nothing decoded: both detector faults find no target.
        let mut cpu = cpu();
        let mut inj = hook(FaultKind::DecodeSlot, 0, 3);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().is_none());
        let mut inj = hook(FaultKind::ProvenFlip, 0, 3);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().is_none());
        assert_eq!(cpu.stats().injected_faults, 0);
    }

    #[test]
    fn proof_cache_is_inert_at_the_state_level() {
        let mut cpu = cpu();
        let mut inj = hook(FaultKind::ProofCache, 0, 3);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().is_none(), "inert: never applies");
        assert_eq!(cpu.stats().injected_faults, 0);
    }

    #[test]
    fn io_kinds_are_inert_in_the_state_injector() {
        let mut cpu = cpu();
        let mut inj = hook(FaultKind::Eintr, 0, 1);
        inj.on_step(0, &mut cpu);
        assert!(inj.applied().is_none());
        assert_eq!(cpu.stats().injected_faults, 0);
    }
}
