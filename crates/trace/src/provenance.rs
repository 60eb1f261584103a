//! Taint provenance: labeled sources, a sparse per-byte origin map, a
//! bounded propagation ring, and forensic-chain reconstruction.
//!
//! The tracker watches the event stream and maintains, incrementally:
//!
//! * `sources` — every labeled [`Event::TaintSource`] seen so far;
//! * `mem_origin` — a sparse map from tainted guest byte address to the
//!   index of the source that (transitively) tainted it;
//! * `reg_origin` / `hilo_origin` — the same for register words;
//! * `ring` — the last N [`Transfer`]s, so the step-by-step path can be
//!   replayed backwards from an alert.
//!
//! When an [`Event::Alert`] arrives, the tracker walks the ring backwards
//! from the flagged pointer register, collecting the chain of transfers
//! that moved the taint there, and resolves the root source from the origin
//! maps — which works even when the chain's early steps have fallen off the
//! bounded ring.

use crate::event::{Event, Loc, Transfer};
use crate::json::taint_str;
use ptaint_isa::{Instr, Reg};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Default capacity of the propagation ring.
pub const DEFAULT_RING_DEPTH: usize = 4096;

/// Longest chain rendered for one alert.
const MAX_CHAIN_STEPS: usize = 32;

/// One labeled taint source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInfo {
    /// Source category: `"syscall"`, `"argv"`, or `"env"`.
    pub kind: &'static str,
    /// Human-readable origin, e.g. `recv#2 fd=4` or `argv[1]`.
    pub label: String,
    /// First tainted guest address.
    pub base: u32,
    /// Number of tainted bytes.
    pub len: u32,
}

impl fmt::Display for SourceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) bytes 0x{:x}..0x{:x}",
            self.label,
            self.kind,
            self.base,
            self.base + self.len
        )
    }
}

/// The forensic chain attached to one alert: from the input that tainted
/// the data to the instruction that dereferenced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicChain {
    /// The root taint source, when the origin maps could resolve one.
    pub source: Option<SourceInfo>,
    /// Propagation steps in execution order (oldest first).
    pub steps: Vec<Transfer>,
    /// Address of the alerting instruction.
    pub alert_pc: u32,
    /// The alerting instruction.
    pub alert_instr: Instr,
    /// Register that held the tainted pointer.
    pub pointer_reg: Reg,
    /// The tainted pointer value.
    pub pointer: u32,
    /// Per-byte taint of the pointer.
    pub taint_bits: u8,
}

impl fmt::Display for ForensicChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some(src) => writeln!(f, "taint source: {src}")?,
            None => writeln!(f, "taint source: <outside propagation window>")?,
        }
        for step in &self.steps {
            writeln!(f, "    {step}")?;
        }
        write!(
            f,
            "    {:x}: {}  flagged: {}=0x{:x} [{}]",
            self.alert_pc,
            self.alert_instr,
            self.pointer_reg,
            self.pointer,
            taint_str(self.taint_bits)
        )
    }
}

/// Multiplicative (Fibonacci) hashing of the origin map's `u32` byte
/// addresses: one multiply per lookup instead of SipHash's rounds. The map
/// is only ever looked up, never iterated, so its order is not observable.
#[derive(Default)]
struct AddrHasher(u64);

/// 2^64 divided by the golden ratio, odd: multiplying by it is a bijection
/// that spreads consecutive addresses over the high (tag) bits.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(FIBONACCI);
    }
}

/// Tainted guest byte address → index of the source that tainted it.
type OriginMap = HashMap<u32, u32, BuildHasherDefault<AddrHasher>>;

/// Incrementally tracks where taint came from (see module docs).
#[derive(Debug)]
pub struct ProvenanceTracker {
    sources: Vec<SourceInfo>,
    mem_origin: OriginMap,
    reg_origin: [Option<u32>; 32],
    hilo_origin: Option<u32>,
    ring: VecDeque<Transfer>,
    depth: usize,
    last_chain: Option<ForensicChain>,
}

impl Default for ProvenanceTracker {
    fn default() -> ProvenanceTracker {
        ProvenanceTracker::new(DEFAULT_RING_DEPTH)
    }
}

impl ProvenanceTracker {
    /// A tracker whose propagation ring holds `depth` transfers.
    #[must_use]
    pub fn new(depth: usize) -> ProvenanceTracker {
        ProvenanceTracker {
            sources: Vec::new(),
            mem_origin: OriginMap::default(),
            reg_origin: [None; 32],
            hilo_origin: None,
            ring: VecDeque::with_capacity(depth.min(DEFAULT_RING_DEPTH)),
            depth: depth.max(1),
            last_chain: None,
        }
    }

    /// The sources labeled so far.
    #[must_use]
    pub fn sources(&self) -> &[SourceInfo] {
        &self.sources
    }

    /// The chain built for the most recent alert, if any.
    #[must_use]
    pub fn last_chain(&self) -> Option<&ForensicChain> {
        self.last_chain.as_ref()
    }

    /// Consumes the tracker, yielding the most recent alert's chain.
    #[must_use]
    pub fn into_last_chain(self) -> Option<ForensicChain> {
        self.last_chain
    }

    /// Folds one event into the origin maps / ring.
    pub fn record(&mut self, event: &Event) {
        match event {
            Event::TaintSource {
                kind,
                label,
                base,
                len,
            } => {
                let id = self.sources.len() as u32;
                self.sources.push(SourceInfo {
                    kind,
                    label: label.clone(),
                    base: *base,
                    len: *len,
                });
                for addr in *base..base.saturating_add(*len) {
                    self.mem_origin.insert(addr, id);
                }
            }
            Event::TaintPropagate(t) => {
                self.apply_transfer(t);
                if self.ring.len() == self.depth {
                    self.ring.pop_front();
                }
                self.ring.push_back(*t);
            }
            Event::Alert {
                pc,
                instr,
                reg,
                value,
                taint_bits,
                ..
            } => {
                self.last_chain = Some(self.build_chain(*pc, *instr, *reg, *value, *taint_bits));
            }
            _ => {}
        }
    }

    /// Current origin (source index) of a location, if known.
    fn origin_of(&self, loc: Loc) -> Option<u32> {
        match loc {
            Loc::Reg(r) => self.reg_origin[r.index()],
            Loc::Mem(addr) => {
                (addr..addr.saturating_add(4)).find_map(|a| self.mem_origin.get(&a).copied())
            }
            Loc::HiLo => self.hilo_origin,
        }
    }

    fn set_origin(&mut self, loc: Loc, taint_bits: u8, origin: Option<u32>) {
        match loc {
            Loc::Reg(r) => {
                if !r.is_zero() {
                    self.reg_origin[r.index()] = if taint_bits == 0 { None } else { origin };
                }
            }
            Loc::Mem(addr) => {
                for i in 0..4u32 {
                    if taint_bits & (1 << i) != 0 {
                        if let Some(id) = origin {
                            self.mem_origin.insert(addr.wrapping_add(i), id);
                        }
                    } else {
                        self.mem_origin.remove(&addr.wrapping_add(i));
                    }
                }
            }
            Loc::HiLo => {
                self.hilo_origin = if taint_bits == 0 { None } else { origin };
            }
        }
    }

    fn apply_transfer(&mut self, t: &Transfer) {
        let origin = t.srcs.iter().flatten().find_map(|&s| self.origin_of(s));
        self.set_origin(t.dst, t.taint_bits, origin);
    }

    /// Whether `addr..addr+4` overlaps any recorded source range.
    fn in_source_range(&self, addr: u32) -> bool {
        self.sources.iter().any(|s| {
            let end = s.base.saturating_add(s.len);
            addr < end && addr.saturating_add(4) > s.base
        })
    }

    fn build_chain(
        &self,
        pc: u32,
        instr: Instr,
        reg: Reg,
        value: u32,
        taint_bits: u8,
    ) -> ForensicChain {
        let mut steps: Vec<Transfer> = Vec::new();
        let mut target = Loc::Reg(reg);
        let mut source_id = self.origin_of(target);
        for t in self.ring.iter().rev() {
            if steps.len() >= MAX_CHAIN_STEPS {
                break;
            }
            if t.dst != target || t.taint_bits == 0 {
                continue;
            }
            steps.push(*t);
            // Follow the tainted operand backwards, preferring one whose
            // origin is known over one that merely exists.
            let next = t
                .srcs
                .iter()
                .flatten()
                .copied()
                .find(|&s| self.origin_of(s).is_some())
                .or_else(|| t.srcs.iter().flatten().copied().next());
            let Some(next) = next else { break };
            if let Some(id) = self.origin_of(next) {
                source_id = Some(id);
            }
            if let Loc::Mem(addr) = next {
                if self.in_source_range(addr) {
                    break;
                }
            }
            target = next;
        }
        steps.reverse();
        ForensicChain {
            source: source_id.map(|id| self.sources[id as usize].clone()),
            steps,
            alert_pc: pc,
            alert_instr: instr,
            pointer_reg: reg,
            pointer: value,
            taint_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(pc: u32, dst: Reg, addr: u32) -> Transfer {
        Transfer {
            pc,
            instr: Instr::Load {
                width: ptaint_isa::MemWidth::Word,
                signed: false,
                rt: dst,
                base: Reg::SP,
                offset: 0,
            },
            rule: "load",
            dst: Loc::Reg(dst),
            srcs: [Some(Loc::Mem(addr)), None],
            taint_bits: 0b1111,
        }
    }

    fn alu(pc: u32, dst: Reg, a: Reg, b: Reg) -> Transfer {
        Transfer {
            pc,
            instr: Instr::RAlu {
                op: ptaint_isa::RAluOp::Addu,
                rd: dst,
                rs: a,
                rt: b,
            },
            rule: "generic",
            dst: Loc::Reg(dst),
            srcs: [Some(Loc::Reg(a)), Some(Loc::Reg(b))],
            taint_bits: 0b1111,
        }
    }

    fn source_event() -> Event {
        Event::TaintSource {
            kind: "syscall",
            label: "recv#1 fd=4".to_string(),
            base: 0x1000,
            len: 64,
        }
    }

    #[test]
    fn chain_walks_from_alert_back_to_the_source() {
        let mut p = ProvenanceTracker::default();
        p.record(&source_event());
        p.record(&Event::TaintPropagate(load(0x400000, Reg::T0, 0x1008)));
        p.record(&Event::TaintPropagate(alu(
            0x400004,
            Reg::V1,
            Reg::T0,
            Reg::ZERO,
        )));
        p.record(&Event::Alert {
            pc: 0x400008,
            instr: Instr::JumpReg { rs: Reg::V1 },
            kind: "tainted jump pointer",
            policy: "ptaint",
            reg: Reg::V1,
            value: 0x61616161,
            taint_bits: 0b1111,
        });
        let chain = p.last_chain().expect("chain built on alert");
        let src = chain.source.as_ref().expect("root source resolved");
        assert_eq!(src.label, "recv#1 fd=4");
        assert_eq!(chain.steps.len(), 2);
        assert_eq!(chain.steps[0].pc, 0x400000);
        assert_eq!(chain.steps[1].pc, 0x400004);
        let rendered = chain.to_string();
        assert!(rendered.contains("recv#1 fd=4"), "{rendered}");
        assert!(
            rendered.contains("flagged: $3=0x61616161 [TTTT]"),
            "{rendered}"
        );
    }

    #[test]
    fn origin_survives_ring_overflow() {
        let mut p = ProvenanceTracker::new(4);
        p.record(&source_event());
        p.record(&Event::TaintPropagate(load(0x400000, Reg::T0, 0x1000)));
        // Flood the ring with unrelated transfers.
        for i in 0..16 {
            p.record(&Event::TaintPropagate(alu(
                0x500000 + i * 4,
                Reg::T5,
                Reg::T6,
                Reg::T7,
            )));
        }
        p.record(&Event::Alert {
            pc: 0x600000,
            instr: Instr::JumpReg { rs: Reg::T0 },
            kind: "tainted jump pointer",
            policy: "ptaint",
            reg: Reg::T0,
            value: 0xdead,
            taint_bits: 0b0011,
        });
        let chain = p.last_chain().unwrap();
        // The load fell off the ring, but the origin map still knows.
        assert_eq!(chain.source.as_ref().unwrap().label, "recv#1 fd=4");
    }

    #[test]
    fn untainted_overwrite_clears_the_origin() {
        let mut p = ProvenanceTracker::default();
        p.record(&source_event());
        p.record(&Event::TaintPropagate(load(0x400000, Reg::T0, 0x1000)));
        assert!(p.origin_of(Loc::Reg(Reg::T0)).is_some());
        let mut clean = alu(0x400004, Reg::T0, Reg::S0, Reg::S1);
        clean.taint_bits = 0;
        p.record(&Event::TaintPropagate(clean));
        assert!(p.origin_of(Loc::Reg(Reg::T0)).is_none());
    }
}
