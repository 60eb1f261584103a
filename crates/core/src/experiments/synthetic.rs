//! Figure 2 / §5.1.1 — the synthetic attack suite: exp1 (stack buffer
//! overflow), exp2 (heap corruption), exp3 (format string), each run under
//! full pointer-taintedness detection.

use std::fmt;

use ptaint_cpu::{DetectionPolicy, SecurityAlert};
use ptaint_guest::apps::{run_app, suite, Origin};

/// The detection result for one synthetic program.
#[derive(Debug, Clone)]
pub struct SyntheticDetection {
    /// Program name (`exp1`, `exp2`, `exp3`).
    pub name: &'static str,
    /// The attack input description.
    pub attack: String,
    /// The alert raised by the detector.
    pub alert: SecurityAlert,
    /// What the paper reports for this experiment.
    pub paper_expectation: &'static str,
}

/// Results for the whole suite.
#[derive(Debug, Clone)]
pub struct SyntheticSuite {
    /// One detection per program.
    pub detections: Vec<SyntheticDetection>,
}

/// Runs every Figure 2 scenario of the attack suite (exp1, exp2 and exp3)
/// under full detection and collects the alerts.
///
/// # Panics
///
/// Panics if any synthetic attack goes undetected — that would falsify the
/// reproduction (the test suite pins this down with precise assertions).
#[must_use]
pub fn run_synthetic_suite() -> SyntheticSuite {
    let detections = suite()
        .iter()
        .filter(|s| s.origin == Origin::Figure2)
        .map(|s| {
            let out = run_app(
                &s.image,
                s.attack.clone(),
                DetectionPolicy::PointerTaintedness,
            );
            let alert = *out
                .reason
                .alert()
                .unwrap_or_else(|| panic!("{} detected", s.name));
            let (name, attack, paper_expectation) = match s.name {
                "exp1" => (
                    "exp1 (stack buffer overflow)",
                    "stdin: 24 x 'a' into char buf[10] via scanf(\"%s\")".into(),
                    "alert at the return instruction (jr $31), return address tainted 0x61616161",
                ),
                "exp2" => (
                    "exp2 (heap corruption)",
                    "stdin: overflow of malloc(8) into the next free chunk's fd/bk links".into(),
                    "alert inside free() dereferencing the tainted chunk link (0x616161xx)",
                ),
                "exp3" => (
                    "exp3 (format string)",
                    format!(
                        "socket: \"{}\" through printf(buf)",
                        String::from_utf8_lossy(&s.attack.sessions[0].messages[0])
                    ),
                    "alert at the %n store (sw) dereferencing 0x64636261 ('abcd')",
                ),
                _ => (s.title, String::new(), ""),
            };
            SyntheticDetection {
                name,
                attack,
                alert,
                paper_expectation,
            }
        })
        .collect();
    SyntheticSuite { detections }
}

impl fmt::Display for SyntheticSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 2 / §5.1.1 — synthetic vulnerable programs")?;
        for d in &self.detections {
            writeln!(f, "\n  {}", d.name)?;
            writeln!(f, "    attack : {}", d.attack)?;
            writeln!(f, "    alert  : {}", d.alert)?;
            writeln!(f, "    paper  : {}", d.paper_expectation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_cpu::AlertKind;

    #[test]
    fn suite_reproduces_all_three_paper_alerts() {
        let suite = run_synthetic_suite();
        assert_eq!(suite.detections.len(), 3);

        let exp1 = &suite.detections[0].alert;
        assert_eq!(exp1.kind, AlertKind::JumpPointer);
        assert_eq!(exp1.pointer, 0x6161_6161);

        let exp2 = &suite.detections[1].alert;
        assert_eq!(exp2.kind, AlertKind::DataPointer);
        assert_eq!(exp2.pointer & 0xffff_ff00, 0x6161_6100);

        let exp3 = &suite.detections[2].alert;
        assert_eq!(exp3.kind, AlertKind::DataPointer);
        assert_eq!(exp3.pointer, 0x6463_6261);

        let rendered = suite.to_string();
        assert!(rendered.contains("jr $31"), "{rendered}");
        assert!(rendered.contains("0x64636261"), "{rendered}");
    }
}
