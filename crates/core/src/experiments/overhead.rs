//! §5.4 — architectural overhead accounting.
//!
//! The paper argues three costs:
//!
//! 1. **Area**: one taintedness bit per byte — a fixed 12.5% widening of
//!    memory, caches, and the register file. We report the measured tainted
//!    footprint (how much of that provisioned capacity a workload actually
//!    uses).
//! 2. **Performance**: taint propagation is off the critical path, so the
//!    pipeline spends **no extra cycles** — we verify that cycle counts
//!    under full detection equal those with detection off.
//! 3. **Software**: the kernel marks each delivered input byte tainted; at
//!    one instruction per byte, that is `input_bytes / instructions` extra
//!    work — the paper reports 0.002%–0.2% for SPEC.

use std::fmt;

use ptaint_cpu::DetectionPolicy;
use ptaint_guest::workloads;
use ptaint_mem::HierarchyConfig;
use ptaint_os::ExitReason;

use crate::{Machine, RunConfig};

/// Overhead measurements for one workload.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Workload name.
    pub name: &'static str,
    /// Instructions retired (identical across policies).
    pub instructions: u64,
    /// Pipeline cycles with detection off.
    pub cycles_off: u64,
    /// Pipeline cycles with full detection.
    pub cycles_full: u64,
    /// Tainted input bytes delivered by the kernel.
    pub input_bytes: u64,
    /// §5.4's software overhead: one tainting instruction per input byte.
    pub software_overhead_pct: f64,
    /// Tainted bytes resident in memory at exit.
    pub tainted_resident_bytes: u64,
}

/// The §5.4 report.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Per-workload rows.
    pub rows: Vec<OverheadRow>,
    /// The architecture's fixed area overhead: one bit per byte.
    pub area_overhead_pct: f64,
}

impl OverheadReport {
    /// Whether taint tracking added zero pipeline cycles anywhere.
    #[must_use]
    pub fn zero_cycle_overhead(&self) -> bool {
        self.rows.iter().all(|r| r.cycles_off == r.cycles_full)
    }
}

/// Measures the §5.4 quantities over the Table 3 workloads.
///
/// # Panics
///
/// Panics if a workload fails to build or run — the suite is expected to be
/// green before overhead is measured.
#[must_use]
pub fn run_overhead_report(scale: u32) -> OverheadReport {
    let mut rows = Vec::new();
    for w in workloads::all() {
        let machine = Machine::from_c(w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .world(w.world(scale))
            .hierarchy(HierarchyConfig::flat());

        let pipelined = |policy| {
            let run = machine.clone().policy(policy).run_with(&RunConfig {
                pipeline: true,
                ..RunConfig::default()
            });
            let cycles = run.pipeline.as_ref().expect("pipelined run reports").cycles;
            (run, cycles)
        };
        let (off, cycles_off) = pipelined(DetectionPolicy::Off);
        let (full, cycles_full) = pipelined(DetectionPolicy::PointerTaintedness);
        let out_full = &full.outcome;
        assert_eq!(out_full.reason, ExitReason::Exited(0), "{}", w.name);
        assert_eq!(off.outcome.reason, out_full.reason, "{}", w.name);

        let software_pct = if out_full.stats.instructions == 0 {
            0.0
        } else {
            out_full.tainted_input_bytes as f64 / out_full.stats.instructions as f64 * 100.0
        };
        rows.push(OverheadRow {
            name: w.name,
            instructions: out_full.stats.instructions,
            cycles_off,
            cycles_full,
            input_bytes: out_full.tainted_input_bytes,
            software_overhead_pct: software_pct,
            tainted_resident_bytes: full.cpu.mem().memory().tainted_byte_count(),
        });
    }
    OverheadReport {
        rows,
        area_overhead_pct: 100.0 / 8.0,
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§5.4 — architectural overhead")?;
        writeln!(
            f,
            "  area: one taintedness bit per byte = {:.1}% wider memory/caches/registers",
            self.area_overhead_pct
        )?;
        writeln!(
            f,
            "  performance: taint tracking off the critical path — zero extra cycles: {}",
            if self.zero_cycle_overhead() {
                "verified"
            } else {
                "VIOLATED"
            }
        )?;
        writeln!(
            f,
            "\n  {:<8} {:>13} {:>13} {:>13} {:>10} {:>10} {:>10}",
            "program",
            "instructions",
            "cycles(off)",
            "cycles(full)",
            "input B",
            "sw ovh %",
            "tainted B"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<8} {:>13} {:>13} {:>13} {:>10} {:>10.4} {:>10}",
                r.name,
                r.instructions,
                r.cycles_off,
                r.cycles_full,
                r.input_bytes,
                r.software_overhead_pct,
                r.tainted_resident_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taint_tracking_adds_no_cycles_and_small_software_overhead() {
        let report = run_overhead_report(2);
        assert_eq!(report.rows.len(), 6);
        assert!(report.zero_cycle_overhead(), "{report}");
        assert!((report.area_overhead_pct - 12.5).abs() < 1e-9);
        for row in &report.rows {
            // The paper's software overhead band is 0.002%..0.2%; our small
            // test inputs run fewer instructions per byte, so allow some
            // slack while still bounding it to "well under 2%".
            assert!(
                row.software_overhead_pct < 2.0,
                "{}: {}%",
                row.name,
                row.software_overhead_pct
            );
            assert!(row.tainted_resident_bytes > 0, "{}", row.name);
        }
    }
}
