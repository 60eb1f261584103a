//! Ablation study — *why Table 1 has its special cases*.
//!
//! The paper motivates each non-generic propagation rule informally
//! (§4.2). This experiment removes them one at a time and measures the
//! effect on the two properties the evaluation cares about:
//!
//! * **false positives** — do the Table 3 workloads still run alert-free?
//! * **detection** — are the Figure 2 attacks still caught?
//!
//! Expected outcome (verified by the test):
//!
//! * removing **compare-untaint** breaks the workloads (validated input is
//!   never trusted, so input-derived indices trip the detector);
//! * removing the other rules keeps this suite green in both directions —
//!   they matter for *other* compiler idioms (register zeroing, masking,
//!   sub-byte flows) and are cheap insurance, which is itself an
//!   interesting empirical note about the design.

use std::fmt;

use ptaint_cpu::{DetectionPolicy, TaintRules};
use ptaint_guest::apps::{suite, Origin};
use ptaint_guest::workloads;
use ptaint_os::ExitReason;

use crate::Machine;

/// Results for one rule-set variant.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub variant: &'static str,
    /// The rule set used.
    pub rules: TaintRules,
    /// Workloads that raised a (false-positive) alert.
    pub workload_false_positives: Vec<&'static str>,
    /// Synthetic attacks that were still detected (of exp1..exp3).
    pub attacks_detected: usize,
    /// Total synthetic attacks run.
    pub attacks_total: usize,
}

/// The ablation study.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// One row per rule-set variant.
    pub rows: Vec<AblationRow>,
    /// Workload input scale used.
    pub scale: u32,
}

fn run_variant(variant: &'static str, rules: TaintRules, scale: u32) -> AblationRow {
    // False-positive side: the Table 3 workloads.
    let mut workload_false_positives = Vec::new();
    for w in workloads::all() {
        let out = Machine::from_c(w.source)
            .expect("workload builds")
            .world(w.world(scale))
            .taint_rules(rules)
            .policy(DetectionPolicy::PointerTaintedness)
            .run();
        match out.reason {
            ExitReason::Security(_) => workload_false_positives.push(w.name),
            ExitReason::Exited(0) => {}
            other => panic!("{}: unexpected outcome {other:?}", w.name),
        }
    }

    // Detection side: the Figure 2 attacks.
    let attacks: Vec<_> = suite()
        .iter()
        .filter(|s| s.origin == Origin::Figure2)
        .collect();
    let attacks_total = attacks.len();
    let attacks_detected = attacks
        .into_iter()
        .filter(|s| {
            Machine::from_scenario(s)
                .taint_rules(rules)
                .run()
                .reason
                .is_detected()
        })
        .count();

    AblationRow {
        variant,
        rules,
        workload_false_positives,
        attacks_detected,
        attacks_total,
    }
}

/// Runs the full ablation grid.
#[must_use]
pub fn run_ablation_study(scale: u32) -> AblationReport {
    let rows = vec![
        run_variant("paper (all rules)", TaintRules::PAPER, scale),
        run_variant(
            "no compare-untaint",
            TaintRules::without_compare_untaint(),
            scale,
        ),
        run_variant(
            "no AND-zero untaint",
            TaintRules::without_and_untaint(),
            scale,
        ),
        run_variant(
            "no xor-idiom untaint",
            TaintRules::without_xor_idiom(),
            scale,
        ),
        run_variant("no shift smear", TaintRules::without_shift_smear(), scale),
        run_variant("generic OR only", TaintRules::GENERIC_ONLY, scale),
    ];
    AblationReport { rows, scale }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — Table 1 special cases, removed one at a time (workload scale {})",
            self.scale
        )?;
        writeln!(
            f,
            "  {:<22} {:>16} {:>22}",
            "variant", "attacks caught", "workload false pos."
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>13}/{:<2} {:>22}",
                r.variant,
                r.attacks_detected,
                r.attacks_total,
                if r.workload_false_positives.is_empty() {
                    "none".to_owned()
                } else {
                    r.workload_false_positives.join(",")
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_untaint_is_load_bearing_for_false_positives() {
        let report = run_ablation_study(2);
        let paper = &report.rows[0];
        assert!(paper.workload_false_positives.is_empty(), "{report}");
        assert_eq!(paper.attacks_detected, paper.attacks_total, "{report}");

        let no_compare = &report.rows[1];
        assert!(
            !no_compare.workload_false_positives.is_empty(),
            "removing compare-untaint must cause workload false positives\n{report}"
        );
        // Detection must never get weaker when propagation gets stronger.
        assert_eq!(no_compare.attacks_detected, no_compare.attacks_total);

        // The maximally conservative variant detects everything too (and
        // floods with false positives).
        let generic = report.rows.last().unwrap();
        assert_eq!(generic.attacks_detected, generic.attacks_total);
        assert!(!generic.workload_false_positives.is_empty());
    }
}
