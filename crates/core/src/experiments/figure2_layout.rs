//! Figure 2, drawn live — the paper's memory-layout diagrams with the
//! tainted ("grey") regions, reconstructed from the machine state at the
//! instant the detector fires.
//!
//! For exp1 this renders the victim frame: buffer bytes, saved frame
//! pointer and return address, with `▓` marking tainted bytes — the exact
//! picture of the paper's Figure 2 (top).

use std::fmt;

use ptaint_cpu::SecurityAlert;
use ptaint_guest::apps::scenario;
use ptaint_isa::Reg;

use crate::{Machine, RunConfig};

/// One rendered word of the layout.
#[derive(Debug, Clone)]
pub struct LayoutWord {
    /// Virtual address.
    pub addr: u32,
    /// The word value.
    pub value: u32,
    /// Per-byte taint flags (LSB first).
    pub taint: [bool; 4],
    /// Annotation (what this word is).
    pub label: &'static str,
}

/// The rendered Figure 2 frame.
#[derive(Debug, Clone)]
pub struct Figure2Layout {
    /// The alert that stopped execution.
    pub alert: SecurityAlert,
    /// Stack words from the buffer up past the return address.
    pub words: Vec<LayoutWord>,
}

/// Runs the exp1 attack to the moment of detection and captures the victim
/// frame.
///
/// # Panics
///
/// Panics if the attack unexpectedly goes undetected.
#[must_use]
pub fn capture_exp1_frame() -> Figure2Layout {
    let run = Machine::from_scenario(scenario("exp1")).run_with(&RunConfig::default());
    let alert = *run.outcome.reason.alert().expect("attack detected");
    let cpu = &run.cpu;

    // At the faulting `jr $31`, `$sp` has been restored to the frame base
    // (exp1's entry sp). The frame below it held, descending:
    //   [sp-4]  saved $ra   (tainted by the overflow)
    //   [sp-8]  saved $fp   (tainted)
    //   [sp-18..sp-8] buf   (the 10-byte buffer, plus alignment padding)
    let sp = cpu.regs().value(Reg::SP);
    let base = sp - 24;
    let mut words = Vec::new();
    for i in 0..8u32 {
        let addr = base + 4 * i;
        let (value, taint) = cpu.mem().memory().read_u32(addr).expect("frame readable");
        let label = match addr {
            a if a == sp - 4 => "saved return address",
            a if a == sp - 8 => "saved frame pointer",
            a if a >= sp - 18 && a < sp - 8 => "buf (char[10])",
            a if a < sp - 18 => "locals / padding",
            _ => "caller frame",
        };
        let mut flags = [false; 4];
        for (b, flag) in flags.iter_mut().enumerate() {
            *flag = taint.byte(b);
        }
        words.push(LayoutWord {
            addr,
            value,
            taint: flags,
            label,
        });
    }
    Figure2Layout { alert, words }
}

impl fmt::Display for Figure2Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 (live) — exp1's victim frame at the instant of detection"
        )?;
        writeln!(f, "  alert: {}\n", self.alert)?;
        writeln!(
            f,
            "  {:>10}  {:>10}  {:<8} role",
            "address", "value", "taint"
        )?;
        writeln!(f, "  low addresses — the overflow ran upward ↓")?;
        for w in &self.words {
            let taint: String = (0..4)
                .rev()
                .map(|i| if w.taint[i] { '▓' } else { '·' })
                .collect();
            writeln!(
                f,
                "  {:#010x}  {:#010x}  [{taint}]   {}",
                w.addr, w.value, w.label
            )?;
        }
        writeln!(f, "  high addresses — ▓ = tainted byte (the paper's grey)")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_frame_shows_the_papers_grey_region() {
        let layout = capture_exp1_frame();
        assert_eq!(layout.alert.pointer, 0x6161_6161);
        // The saved return address word is fully tainted and holds 'aaaa'.
        let ra = layout
            .words
            .iter()
            .find(|w| w.label == "saved return address")
            .expect("return address in the window");
        assert_eq!(ra.value, 0x6161_6161);
        assert!(ra.taint.iter().all(|&t| t));
        // The saved frame pointer is tainted too.
        let fp = layout
            .words
            .iter()
            .find(|w| w.label == "saved frame pointer")
            .expect("frame pointer in the window");
        assert!(fp.taint.iter().all(|&t| t));
        // Buffer words are tainted ('aaaa').
        assert!(layout
            .words
            .iter()
            .filter(|w| w.label == "buf (char[10])")
            .all(|w| w.taint.iter().any(|&t| t)));
        let rendered = layout.to_string();
        assert!(rendered.contains("▓▓▓▓"), "{rendered}");
        assert!(rendered.contains("saved return address"), "{rendered}");
    }
}
