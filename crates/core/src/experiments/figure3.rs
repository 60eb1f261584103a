//! Figure 3 — the architecture of the detectors inside the pipeline: the
//! jump detector after ID/EX, the load/store detector after EX/MEM, and
//! the security exception at retirement.
//!
//! The experiment drives two attacks through the 5-stage pipeline timing
//! model and reports *where* each was flagged and *when* the exception was
//! raised.

use std::fmt;

use ptaint_cpu::pipeline::{PipelineDetection, Stage};
use ptaint_cpu::DetectionPolicy;
use ptaint_guest::apps::synthetic;

use crate::{Machine, RunConfig};

/// One pipeline detection walk.
#[derive(Debug, Clone)]
pub struct PipelineWalk {
    /// Which attack was driven through the pipeline.
    pub attack: &'static str,
    /// The detection record: stage of the malicious mark, mark cycle,
    /// retirement-exception cycle.
    pub detection: PipelineDetection,
}

/// The Figure 3 report: detector placement observed in action.
#[derive(Debug, Clone)]
pub struct Figure3Report {
    /// The jump-detector walk (exp1: tainted `jr $31`).
    pub jump_walk: PipelineWalk,
    /// The load/store-detector walk (exp2: tainted chunk link).
    pub data_walk: PipelineWalk,
}

/// Runs exp1 and exp2 through the pipeline model and captures the
/// detector staging.
///
/// # Panics
///
/// Panics if either attack goes undetected.
#[must_use]
pub fn run_pipeline_walk() -> Figure3Report {
    let exp1 = Machine::from_c(synthetic::EXP1_SOURCE)
        .expect("exp1 builds")
        .world(synthetic::exp1_attack_world())
        .policy(DetectionPolicy::PointerTaintedness);
    let pipelined = RunConfig {
        pipeline: true,
        ..RunConfig::default()
    };
    let jump_detection = exp1
        .run_with(&pipelined)
        .pipeline
        .and_then(|p| p.detection)
        .expect("exp1 detected in the pipeline");

    let exp2 = Machine::from_c(synthetic::EXP2_SOURCE)
        .expect("exp2 builds")
        .world(synthetic::exp2_attack_world())
        .policy(DetectionPolicy::PointerTaintedness);
    let data_detection = exp2
        .run_with(&pipelined)
        .pipeline
        .and_then(|p| p.detection)
        .expect("exp2 detected in the pipeline");

    Figure3Report {
        jump_walk: PipelineWalk {
            attack: "exp1: tainted return address reaches jr $31",
            detection: jump_detection,
        },
        data_walk: PipelineWalk {
            attack: "exp2: tainted chunk link dereferenced in free()",
            detection: data_detection,
        },
    }
}

fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Fetch => "IF",
        Stage::Decode => "ID/EX latch",
        Stage::Execute => "EX/MEM latch",
        Stage::Memory => "MEM",
        Stage::Retire => "retirement",
    }
}

impl fmt::Display for Figure3Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3 — detector placement in the 5-stage pipeline")?;
        for walk in [&self.jump_walk, &self.data_walk] {
            let d = &walk.detection;
            writeln!(f, "\n  {}", walk.attack)?;
            writeln!(f, "    alert          : {}", d.alert)?;
            writeln!(
                f,
                "    marked at      : after the {} (cycle {})",
                stage_name(d.marked_after),
                d.marked_cycle
            )?;
            writeln!(
                f,
                "    exception at   : retirement (cycle {})",
                d.exception_cycle
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detectors_sit_at_the_figure_3_stages() {
        let report = run_pipeline_walk();
        // Jump detector: after ID/EX, where the target register is read.
        assert_eq!(report.jump_walk.detection.marked_after, Stage::Decode);
        // Load/store detector: after EX/MEM, where the address is formed.
        assert_eq!(report.data_walk.detection.marked_after, Stage::Execute);
        // Exceptions are architectural: raised at retirement, after the mark.
        for walk in [&report.jump_walk, &report.data_walk] {
            assert!(
                walk.detection.exception_cycle > walk.detection.marked_cycle,
                "{walk:?}"
            );
        }
        let text = report.to_string();
        assert!(text.contains("ID/EX"), "{text}");
        assert!(text.contains("EX/MEM"), "{text}");
        assert!(text.contains("retirement"), "{text}");
    }
}
