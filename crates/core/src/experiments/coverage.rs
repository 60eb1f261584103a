//! §5.1 — the security-coverage comparison: every attack in the suite run
//! under all three policies (unprotected, control-data-only protection in
//! the style of Minos/Secure Program Execution, and full pointer
//! taintedness detection).
//!
//! The paper's headline: control-flow integrity baselines detect the
//! control-data attack but miss every non-control-data attack; pointer
//! taintedness detection catches both kinds.

use std::fmt;

use ptaint_cpu::DetectionPolicy;
use ptaint_guest::apps::AttackClass;
use ptaint_guest::apps::{run_app, suite};
use ptaint_os::{ExitReason, RunOutcome};

/// How a run under one policy ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageOutcome {
    /// The detector stopped the attack (the desired outcome).
    Detected,
    /// The attack achieved its goal (privilege escalation, policy bypass…).
    Compromised,
    /// The attack crashed the victim (denial of service, undetected).
    Crashed,
    /// The program finished without visible compromise.
    CleanExit,
}

impl CoverageOutcome {
    fn short(self) -> &'static str {
        match self {
            CoverageOutcome::Detected => "DETECTED",
            CoverageOutcome::Compromised => "compromised",
            CoverageOutcome::Crashed => "crashed",
            CoverageOutcome::CleanExit => "clean",
        }
    }
}

/// One attack × three policies.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Attack name.
    pub attack: &'static str,
    /// Control-data or non-control-data.
    pub class: AttackClass,
    /// Outcome with no protection.
    pub unprotected: CoverageOutcome,
    /// Outcome under the Minos-style control-only baseline.
    pub control_only: CoverageOutcome,
    /// Outcome under full pointer taintedness detection.
    pub pointer_taintedness: CoverageOutcome,
}

/// The full §5.1 coverage matrix.
#[derive(Debug, Clone)]
pub struct CoverageMatrix {
    /// One row per attack.
    pub rows: Vec<CoverageRow>,
}

impl CoverageMatrix {
    /// The paper's claim, as a predicate: full detection catches every
    /// attack; the control-only baseline catches exactly the control-data
    /// attacks; nothing is caught unprotected.
    #[must_use]
    pub fn matches_paper_claims(&self) -> bool {
        self.rows.iter().all(|r| {
            [
                (DetectionPolicy::Off, r.unprotected),
                (DetectionPolicy::ControlOnly, r.control_only),
                (DetectionPolicy::PointerTaintedness, r.pointer_taintedness),
            ]
            .into_iter()
            .all(|(policy, outcome)| {
                (outcome == CoverageOutcome::Detected) == r.class.caught_by(policy)
            })
        })
    }
}

/// Classifies one run's outcome, given an attack-specific compromise
/// marker looked for in the network transcripts and stdout.
fn classify(outcome: &RunOutcome, compromise_marker: Option<&str>) -> CoverageOutcome {
    match &outcome.reason {
        ExitReason::Security(_) => CoverageOutcome::Detected,
        ExitReason::MemFault(_)
        | ExitReason::DecodeFault(_)
        | ExitReason::BreakTrap(_)
        | ExitReason::GuestFault(_)
        | ExitReason::ReplayDivergence(_) => CoverageOutcome::Crashed,
        ExitReason::Exited(_) | ExitReason::StepLimit | ExitReason::Watchdog => {
            if let Some(marker) = compromise_marker {
                let mut all = outcome.stdout_text();
                for t in &outcome.transcripts {
                    all.push_str(&String::from_utf8_lossy(t));
                }
                if all.contains(marker) {
                    return CoverageOutcome::Compromised;
                }
            }
            CoverageOutcome::CleanExit
        }
    }
}

/// Runs every attack of the suite but Table 4's designed misses under all
/// three policies.
#[must_use]
pub fn run_coverage_matrix() -> CoverageMatrix {
    let rows = suite()
        .iter()
        .filter(|s| !s.designed_miss())
        .map(|s| {
            let outcome_for = |policy| {
                let out = run_app(&s.image, s.attack.clone(), policy);
                classify(&out, s.compromise_marker)
            };
            CoverageRow {
                attack: s.title,
                class: s.class,
                unprotected: outcome_for(DetectionPolicy::Off),
                control_only: outcome_for(DetectionPolicy::ControlOnly),
                pointer_taintedness: outcome_for(DetectionPolicy::PointerTaintedness),
            }
        })
        .collect();
    CoverageMatrix { rows }
}

impl fmt::Display for CoverageMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§5.1 — security coverage: attacks × protection policies")?;
        writeln!(
            f,
            "  {:<30} {:<17} {:<12} {:<12} {:<12}",
            "attack", "class", "unprotected", "control-only", "ptaint"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<30} {:<17} {:<12} {:<12} {:<12}",
                r.attack,
                r.class.to_string(),
                r.unprotected.short(),
                r.control_only.short(),
                r.pointer_taintedness.short()
            )?;
        }
        writeln!(
            f,
            "\n  paper's claim (full detection catches all; control-only \
             catches only control-data): {}",
            if self.matches_paper_claims() {
                "REPRODUCED"
            } else {
                "NOT reproduced"
            }
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_matrix_reproduces_the_papers_claims() {
        let matrix = run_coverage_matrix();
        assert_eq!(matrix.rows.len(), 9);
        assert!(matrix.matches_paper_claims(), "{matrix}");

        // Full detection catches every attack.
        for r in &matrix.rows {
            assert_eq!(
                r.pointer_taintedness,
                CoverageOutcome::Detected,
                "{}",
                r.attack
            );
        }
        // Both control-data attacks (return address and function pointer)
        // are caught by the control-only baseline.
        let control: Vec<_> = matrix
            .rows
            .iter()
            .filter(|r| r.class == AttackClass::ControlData)
            .collect();
        assert_eq!(control.len(), 2);
        for row in control {
            assert_eq!(
                row.control_only,
                CoverageOutcome::Detected,
                "{}",
                row.attack
            );
        }
        // The daemons are genuinely compromised when unprotected.
        let compromised = matrix
            .rows
            .iter()
            .filter(|r| r.unprotected == CoverageOutcome::Compromised)
            .count();
        assert!(compromised >= 3, "{matrix}");
    }
}
