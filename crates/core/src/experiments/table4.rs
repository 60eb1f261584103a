//! Table 4 / §5.3 — the engineered false-negative scenarios: attacks that
//! corrupt memory or leak secrets *without* tainting any pointer, which the
//! architecture therefore (by design) does not detect.

use std::fmt;

use ptaint_cpu::DetectionPolicy;
use ptaint_guest::apps::{run_app, suite, Origin};
use ptaint_os::ExitReason;

/// One Table 4 scenario result.
#[derive(Debug, Clone)]
pub struct FalseNegativeRow {
    /// Scenario label (matching the paper's (A)/(B)/(C)).
    pub scenario: &'static str,
    /// The attack input.
    pub attack: &'static str,
    /// Whether an alert was raised (expected: false).
    pub alerted: bool,
    /// Whether the attack achieved its effect (expected: true).
    pub damage_done: bool,
    /// Evidence of the damage from the program output.
    pub evidence: String,
    /// Why the architecture misses it, per the paper.
    pub why_missed: &'static str,
}

/// The reproduced Table 4.
#[derive(Debug, Clone)]
pub struct Table4Report {
    /// Scenario rows (A), (B), (C).
    pub rows: Vec<FalseNegativeRow>,
}

/// Runs every Table 4 scenario of the attack suite under full detection.
#[must_use]
pub fn run_false_negative_suite() -> Table4Report {
    let rows = suite()
        .iter()
        .filter(|s| s.origin == Origin::Table4)
        .map(|s| {
            let out = run_app(
                &s.image,
                s.attack.clone(),
                DetectionPolicy::PointerTaintedness,
            );
            let stdout = out.stdout_text();
            let damage_marker = s
                .compromise_marker
                .expect("a designed miss shows its damage");
            let (attack, why_missed) = match s.name {
                "int_overflow" => (
                    "stdin: \"-1\" (flawed bound check lacks a lower bound)",
                    "the bound-check comparison untaints the index, and an array \
                     index is *supposed* to enter address arithmetic",
                ),
                "auth_flag" => (
                    "stdin: 16 filler bytes + nonzero word over `auth`",
                    "the corrupted flag is only branched on, never dereferenced — \
                     no pointer is tainted",
                ),
                "fmt_leak" => (
                    "stdin: \"%x%x%x%x\" (reads stack words incl. secret_key)",
                    "%x only reads through the untainted argument pointer; nothing \
                     tainted is dereferenced",
                ),
                _ => ("", ""),
            };
            FalseNegativeRow {
                scenario: s.title,
                attack,
                alerted: out.reason.is_detected(),
                damage_done: stdout.contains(damage_marker)
                    && matches!(out.reason, ExitReason::Exited(_)),
                evidence: stdout.trim().to_owned(),
                why_missed,
            }
        })
        .collect();
    Table4Report { rows }
}

impl Table4Report {
    /// The experiment's claim: every scenario does damage and none alerts.
    #[must_use]
    pub fn all_missed_with_damage(&self) -> bool {
        self.rows.iter().all(|r| !r.alerted && r.damage_done)
    }
}

impl fmt::Display for Table4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4 / §5.3 — false-negative scenarios (undetected by design)"
        )?;
        for r in &self.rows {
            writeln!(f, "\n  {}", r.scenario)?;
            writeln!(f, "    attack   : {}", r.attack)?;
            writeln!(
                f,
                "    result   : alert={} damage={}",
                if r.alerted { "YES (unexpected!)" } else { "no" },
                if r.damage_done {
                    "yes"
                } else {
                    "NO (unexpected!)"
                }
            )?;
            writeln!(f, "    evidence : {}", r.evidence)?;
            writeln!(f, "    why      : {}", r.why_missed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_do_damage_without_alerts() {
        let report = run_false_negative_suite();
        assert_eq!(report.rows.len(), 3);
        assert!(report.all_missed_with_damage(), "{report}");
    }
}
