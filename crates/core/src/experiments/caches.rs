//! §4.1 in numbers — taintedness resident in the cache hierarchy.
//!
//! The paper extends L1/L2 with a taint bit per byte. This experiment runs
//! the workloads behind the modeled two-level hierarchy and reports hit
//! rates plus how many resident lines actually hold tainted bytes at exit —
//! the live occupancy of the provisioned taint storage.

use std::fmt;

use ptaint_mem::HierarchyConfig;
use ptaint_os::ExitReason;

use crate::{Machine, RunConfig};

/// Cache behaviour of one workload.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Workload name.
    pub name: &'static str,
    /// L1 hit rate.
    pub l1_hit_rate: f64,
    /// L2 hit rate (of L1 misses).
    pub l2_hit_rate: f64,
    /// L1 lines holding tainted bytes at exit.
    pub l1_tainted_lines: usize,
    /// L2 lines holding tainted bytes at exit.
    pub l2_tainted_lines: usize,
    /// Tainted bytes resident in memory at exit.
    pub tainted_bytes: u64,
}

/// The cache study.
#[derive(Debug, Clone)]
pub struct CacheReport {
    /// Per-workload rows.
    pub rows: Vec<CacheRow>,
    /// Input scale.
    pub scale: u32,
}

/// Runs the workloads behind L1+L2 and collects cache/taint statistics.
///
/// # Panics
///
/// Panics if a workload fails to run cleanly.
#[must_use]
pub fn run_cache_study(scale: u32) -> CacheReport {
    let mut rows = Vec::new();
    for w in ptaint_guest::workloads::all() {
        let run = Machine::from_c(w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .world(w.world(scale))
            .hierarchy(HierarchyConfig::two_level())
            .run_with(&RunConfig::default());
        assert_eq!(run.outcome.reason, ExitReason::Exited(0), "{}", w.name);
        let mem = run.cpu.mem();
        let l1 = mem.l1_stats().expect("l1 configured");
        let l2 = mem.l2_stats().expect("l2 configured");
        let (l1_tainted, l2_tainted) = mem.tainted_lines();
        rows.push(CacheRow {
            name: w.name,
            l1_hit_rate: l1.hit_rate(),
            l2_hit_rate: l2.hit_rate(),
            l1_tainted_lines: l1_tainted,
            l2_tainted_lines: l2_tainted,
            tainted_bytes: mem.memory().tainted_byte_count(),
        });
    }
    CacheReport { rows, scale }
}

impl fmt::Display for CacheReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§4.1 — taintedness in the cache hierarchy (16K/4w L1, 256K/8w L2, scale {})",
            self.scale
        )?;
        writeln!(
            f,
            "  {:<8} {:>9} {:>9} {:>16} {:>16} {:>13}",
            "program",
            "L1 hit%",
            "L2 hit%",
            "L1 tainted lines",
            "L2 tainted lines",
            "tainted bytes"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<8} {:>8.1}% {:>8.1}% {:>16} {:>16} {:>13}",
                r.name,
                r.l1_hit_rate * 100.0,
                r.l2_hit_rate * 100.0,
                r.l1_tainted_lines,
                r.l2_tainted_lines,
                r.tainted_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_serve_the_workloads_and_hold_taint() {
        let report = run_cache_study(2);
        assert_eq!(report.rows.len(), 6);
        for row in &report.rows {
            assert!(
                row.l1_hit_rate > 0.5,
                "{}: {:.3}",
                row.name,
                row.l1_hit_rate
            );
            assert!(
                row.tainted_bytes > 0,
                "{} left no tainted footprint",
                row.name
            );
        }
        // At least the input-heavy workloads keep tainted lines resident.
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.l1_tainted_lines > 0 || r.l2_tainted_lines > 0),
            "{report}"
        );
    }
}
