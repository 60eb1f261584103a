//! Event-stream aggregation: retire histogram and call tree, taint
//! heatmap, source totals, syscall table.

use crate::calltree::CallTree;
use crate::hist::PcHistogram;
use ptaint_isa::{Instr, Reg};
use ptaint_trace::{Event, Observer};
use std::collections::BTreeMap;

/// Per-site (per-pc) taint activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounters {
    /// `taint_propagate` events at this pc (Table-1 rules firing).
    pub propagations: u64,
    /// `pointer_check` events (a tainted address/target was inspected).
    pub checks: u64,
    /// Checks that flagged (would alert under the strictest policy).
    pub flagged: u64,
    /// `alert` events (the detector actually raised).
    pub alerts: u64,
    /// `check_elided` events (statically proven, probe skipped).
    pub elided: u64,
}

impl SiteCounters {
    /// Sum of all counters — the site's heat.
    #[must_use]
    pub fn heat(&self) -> u64 {
        self.propagations + self.checks + self.flagged + self.alerts + self.elided
    }
}

/// Taint-source totals for one source kind (`syscall`, `argv`, ...).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SourceAgg {
    /// Source events of this kind.
    pub count: u64,
    /// Total bytes tainted by them.
    pub bytes: u64,
}

/// Per-syscall accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyscallAgg {
    /// Invocations.
    pub count: u64,
    /// Instructions retired since the previous syscall (any syscall),
    /// summed — the guest-step latency spent reaching each invocation.
    pub steps: u64,
}

/// An [`Observer`] that folds the event stream into a profile: the retire
/// stream into a per-PC histogram and a call tree, the taint events into a
/// heatmap.
///
/// Sites are keyed by pc (symbolization happens at report time, so the
/// collector stays independent of the image). All maps are `BTreeMap`s:
/// iteration order — and therefore report output — is deterministic.
#[derive(Debug, Default)]
pub struct EventProfile {
    /// Per-PC retirement counts.
    pub hist: PcHistogram,
    /// Shadow call stack / call-path tree.
    pub calls: CallTree,
    /// Taint activity by site pc.
    pub sites: BTreeMap<u32, SiteCounters>,
    /// Taint sources by kind.
    pub sources: BTreeMap<&'static str, SourceAgg>,
    /// Syscall table by name.
    pub syscalls: BTreeMap<&'static str, SyscallAgg>,
    /// A `jal`/`jalr` retired last; the next retire enters its callee.
    pending_call: bool,
    last_syscall_retired: u64,
}

impl EventProfile {
    /// A fresh, empty collector.
    #[must_use]
    pub fn new() -> EventProfile {
        EventProfile::default()
    }

    /// One instruction retired at `pc`. This ISA has no delay slot, so the
    /// retire after a `jal`/`jalr` is the callee entry: that is where the
    /// call pushes its frame. A callee that never retires (its fetch
    /// faults) never gets one. `jr $ra` pops at once; a `jr` through any
    /// other register is a computed jump, not a return.
    fn retire(&mut self, pc: u32, instr: &Instr) {
        if std::mem::take(&mut self.pending_call) {
            self.calls.on_call(pc);
        }
        self.hist.bump(pc);
        self.calls.on_retire(pc);
        match instr {
            Instr::Jump { link: true, .. } | Instr::JumpAndLinkReg { .. } => {
                self.pending_call = true;
            }
            Instr::JumpReg { rs } if *rs == Reg::RA => self.calls.on_ret(),
            _ => {}
        }
    }

    fn site(&mut self, pc: u32) -> &mut SiteCounters {
        self.sites.entry(pc).or_default()
    }
}

impl Observer for EventProfile {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Retire { pc, instr, .. } => self.retire(*pc, instr),
            Event::TaintSource { kind, len, .. } => {
                let agg = self.sources.entry(*kind).or_default();
                agg.count += 1;
                agg.bytes += u64::from(*len);
            }
            Event::TaintPropagate(transfer) => self.site(transfer.pc).propagations += 1,
            Event::PointerCheck { pc, flagged, .. } => {
                let site = self.site(*pc);
                site.checks += 1;
                if *flagged {
                    site.flagged += 1;
                }
            }
            Event::Alert { pc, .. } => self.site(*pc).alerts += 1,
            Event::CheckElided { pc } => self.site(*pc).elided += 1,
            Event::Syscall { name, .. } => {
                let retired = self.hist.total();
                let steps = retired - self.last_syscall_retired;
                self.last_syscall_retired = retired;
                let agg = self.syscalls.entry(*name).or_default();
                agg.count += 1;
                agg.steps += steps;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::{Instr, MemWidth, Reg};

    fn retire() -> Event {
        Event::Retire {
            pc: 0x40_0000,
            instr: Instr::JumpReg { rs: Reg::RA },
            tainted: false,
        }
    }

    fn retire_at(pc: u32, instr: Instr) -> Event {
        Event::Retire {
            pc,
            instr,
            tainted: false,
        }
    }

    #[test]
    fn call_classification_matches_the_isa() {
        let symbols = crate::SymbolTable::build(
            [
                ("main".to_string(), 0x40_0000),
                ("handle".to_string(), 0x40_0100),
                ("log_request".to_string(), 0x40_0200),
            ],
            0x40_0000,
            0x40_1000,
        );
        let call = |target| Instr::Jump { target, link: true };
        let mut p = EventProfile::new();
        for event in [
            retire_at(0x40_0000, call(0x40_0100)),
            retire_at(
                0x40_0100,
                Instr::JumpAndLinkReg {
                    rd: Reg::RA,
                    rs: Reg::new(8),
                },
            ),
            retire_at(0x40_0200, Instr::JumpReg { rs: Reg::RA }),
            // `jr` through a non-$ra register is a computed jump, not a
            // return: it stays in `handle`.
            retire_at(0x40_0104, Instr::JumpReg { rs: Reg::new(8) }),
        ] {
            p.on_event(&event);
        }
        let expected = vec![
            ("main".to_string(), 1),
            ("main;handle".to_string(), 2),
            ("main;handle;log_request".to_string(), 1),
        ];
        assert_eq!(p.hist.total(), 4);
        assert_eq!(p.calls.depth(), 2); // root -> handle (log_request popped)
        assert_eq!(p.calls.collapsed(&symbols), expected);

        // A trailing call whose callee never retires (its fetch faults):
        // the `jal` itself is charged to its caller, and the callee gets
        // no frame.
        p.on_event(&retire_at(0x40_0108, call(0x6161_6160)));
        assert_eq!(p.hist.total(), 5);
        assert_eq!(p.calls.depth(), 2);
        let mut expected = expected;
        expected[1].1 += 1;
        assert_eq!(p.calls.collapsed(&symbols), expected);
    }

    #[test]
    fn syscall_latency_is_steps_since_previous_syscall() {
        let mut p = EventProfile::new();
        for _ in 0..5 {
            p.on_event(&retire());
        }
        p.on_event(&Event::Syscall {
            pc: 0x40_0010,
            number: 46,
            name: "recv",
            result: 4,
        });
        for _ in 0..3 {
            p.on_event(&retire());
        }
        p.on_event(&Event::Syscall {
            pc: 0x40_0010,
            number: 46,
            name: "recv",
            result: 4,
        });
        let recv = p.syscalls["recv"];
        assert_eq!(recv.count, 2);
        assert_eq!(recv.steps, 8);
    }

    #[test]
    fn sites_aggregate_checks_and_elisions_by_pc() {
        let probe = Instr::Load {
            width: MemWidth::Word,
            signed: true,
            rt: Reg::new(9),
            base: Reg::new(8),
            offset: 0,
        };
        let mut p = EventProfile::new();
        p.on_event(&Event::PointerCheck {
            pc: 0x40_0104,
            instr: probe,
            reg: Reg::new(8),
            value: 0x6161_6161,
            taint_bits: 0b1111,
            flagged: true,
        });
        p.on_event(&Event::CheckElided { pc: 0x40_0104 });
        p.on_event(&Event::CheckElided { pc: 0x40_0108 });
        let hot = p.sites[&0x40_0104];
        assert_eq!((hot.checks, hot.flagged, hot.elided), (1, 1, 1));
        assert_eq!(p.sites[&0x40_0108].elided, 1);
        assert_eq!(hot.heat(), 3);
    }

    #[test]
    fn sources_fold_counts_and_bytes_by_kind() {
        let mut p = EventProfile::new();
        for len in [4u32, 12] {
            p.on_event(&Event::TaintSource {
                kind: "syscall",
                label: format!("recv#1 fd={len}"),
                base: 0x1000_0000,
                len,
            });
        }
        assert_eq!(
            p.sources["syscall"],
            SourceAgg {
                count: 2,
                bytes: 16
            }
        );
    }
}
