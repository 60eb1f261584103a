//! A 5-stage in-order pipeline timing model with the paper's detector
//! placement (Figure 3).
//!
//! The functional architectural state is produced by the wrapped [`Cpu`];
//! this module adds the *microarchitectural* story the paper tells:
//!
//! * the **jump taintedness detector** sits after the ID/EX latch, where the
//!   `jr`/`jalr` target register value is available;
//! * the **load/store taintedness detector** sits after the EX/MEM latch,
//!   where the effective address word is available;
//! * a flagged instruction is *marked malicious* at that stage but the
//!   **security exception is raised at retirement** (WB), so that — as in a
//!   real out-of-order or speculative machine — squashed wrong-path
//!   instructions can never raise spurious alerts;
//! * taint propagation is off the critical path (§5.4), so the model charges
//!   **no extra cycles** for taint tracking; cycles come only from the usual
//!   hazards (a one-cycle load-use stall and a two-cycle taken-control-flow
//!   penalty in this classic 5-stage configuration).
//!
//! Observability: the pipeline delegates all architectural work to the
//! wrapped [`Cpu`], so any [`ptaint_trace::Observer`] attached to it sees
//! the full event stream unchanged; the hazard pre-decode fetches through
//! the cache-bypassing instruction path and emits no extra events.

use ptaint_isa::Instr;

use crate::{Cpu, CpuException, SecurityAlert, StepEvent};

/// Stage of the 5-stage pipeline (IF, ID, EX, MEM, WB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Instruction fetch.
    Fetch,
    /// Decode / register read (the ID/EX latch follows this stage).
    Decode,
    /// Execute / address generation (the EX/MEM latch follows this stage).
    Execute,
    /// Memory access.
    Memory,
    /// Write-back / retirement — where security exceptions are raised.
    Retire,
}

/// Where and when a detector fired for one offending instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineDetection {
    /// The security alert carried to retirement.
    pub alert: SecurityAlert,
    /// The stage after which the instruction was marked malicious:
    /// [`Stage::Decode`] (ID/EX) for register jumps, [`Stage::Execute`]
    /// (EX/MEM) for loads/stores.
    pub marked_after: Stage,
    /// Cycle at which the malicious mark was set.
    pub marked_cycle: u64,
    /// Cycle at which the exception was raised (retirement).
    pub exception_cycle: u64,
}

/// Aggregate timing results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Total cycles to drain the pipeline.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Load-use stall bubbles inserted.
    pub load_use_stalls: u64,
    /// Control-flow redirect bubbles inserted.
    pub control_flushes: u64,
    /// The detection event, if a security exception ended execution.
    pub detection: Option<PipelineDetection>,
}

impl PipelineReport {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The pipeline wrapper. Drive it exactly like a [`Cpu`]: call
/// [`Pipeline::step`], handle [`StepEvent::SyscallTrap`] through the
/// operating system against [`Pipeline::cpu_mut`], stop on exceptions.
#[derive(Debug)]
pub struct Pipeline {
    cpu: Cpu,
    /// Issue cycle of the most recently issued instruction.
    last_issue: u64,
    /// Destination register of the previous instruction when it was a load.
    prev_load_dest: Option<ptaint_isa::Reg>,
    /// Whether the previous instruction redirected fetch.
    pending_redirect: bool,
    report: PipelineReport,
}

/// Pipeline depth: retirement happens four cycles after issue.
const DEPTH_TO_RETIRE: u64 = 4;

/// Bubble cycles when a load's consumer issues back-to-back.
const LOAD_USE_STALL: u64 = 1;

/// Bubble cycles after a taken branch or jump (fetch redirect).
const CONTROL_PENALTY: u64 = 2;

impl Pipeline {
    /// Wraps `cpu` in the classic 5-stage timing model.
    #[must_use]
    pub fn new(cpu: Cpu) -> Pipeline {
        Pipeline {
            cpu,
            last_issue: 0,
            prev_load_dest: None,
            pending_redirect: false,
            report: PipelineReport::default(),
        }
    }

    /// The wrapped CPU.
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The wrapped CPU, mutably (for the OS syscall layer).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Unwraps the CPU, with everything the run left in it.
    #[must_use]
    pub fn into_cpu(self) -> Cpu {
        self.cpu
    }

    /// The timing report accumulated so far. `cycles` includes pipeline
    /// drain for everything already retired.
    #[must_use]
    pub fn report(&self) -> PipelineReport {
        let mut r = self.report.clone();
        r.cycles = self.last_issue + DEPTH_TO_RETIRE;
        r
    }

    /// Executes one instruction, accounting its cycles.
    ///
    /// # Errors
    ///
    /// Exactly the conditions of [`Cpu::step`]; on a security exception the
    /// report's [`PipelineReport::detection`] records the stage placement
    /// (ID/EX for jumps, EX/MEM for loads/stores) and the retirement cycle at
    /// which the exception was architecturally raised.
    pub fn step(&mut self) -> Result<StepEvent, CpuException> {
        // Pre-decode to model hazards (fetch faults surface via cpu.step()).
        let peek = self
            .cpu
            .mem()
            .fetch_u32(self.cpu.pc())
            .ok()
            .and_then(|w| Instr::decode(w).ok());

        let mut issue = self.last_issue + 1;
        if self.pending_redirect {
            issue += CONTROL_PENALTY;
            self.report.control_flushes += 1;
            self.pending_redirect = false;
        }
        if let (Some(dest), Some(instr)) = (self.prev_load_dest, peek) {
            if reads_register(&instr, dest) {
                issue += LOAD_USE_STALL;
                self.report.load_use_stalls += 1;
            }
        }

        let pc_before = self.cpu.pc();
        let result = self.cpu.step();
        self.last_issue = issue;

        match result {
            Ok(event) => {
                self.report.instructions += 1;
                // The step retired the instruction `peek` decoded.
                self.prev_load_dest = match peek {
                    Some(Instr::Load { rt, .. }) => Some(rt),
                    _ => None,
                };
                self.pending_redirect = self.cpu.pc() != pc_before.wrapping_add(4);
                Ok(event)
            }
            Err(CpuException::Security(alert)) => {
                let marked_after = match alert.instr {
                    Instr::JumpReg { .. } | Instr::JumpAndLinkReg { .. } => Stage::Decode,
                    _ => Stage::Execute,
                };
                let marked_cycle = issue
                    + match marked_after {
                        Stage::Decode => 1,
                        _ => 2,
                    };
                self.report.detection = Some(PipelineDetection {
                    alert,
                    marked_after,
                    marked_cycle,
                    exception_cycle: issue + DEPTH_TO_RETIRE,
                });
                Err(CpuException::Security(alert))
            }
            Err(other) => Err(other),
        }
    }
}

impl crate::Steppable for Pipeline {
    fn step(&mut self) -> Result<StepEvent, CpuException> {
        Pipeline::step(self)
    }

    fn cpu(&self) -> &Cpu {
        Pipeline::cpu(self)
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        Pipeline::cpu_mut(self)
    }
}

/// Whether `instr` reads `reg` as a source operand.
fn reads_register(instr: &Instr, reg: ptaint_isa::Reg) -> bool {
    if reg.is_zero() {
        return false;
    }
    match *instr {
        Instr::RAlu { rs, rt, .. }
        | Instr::MulDiv { rs, rt, .. }
        | Instr::Branch { rs, rt, .. }
        | Instr::ShiftV { rs, rt, .. } => rs == reg || rt == reg,
        Instr::IAlu { rs, .. }
        | Instr::BranchZ { rs, .. }
        | Instr::JumpReg { rs }
        | Instr::JumpAndLinkReg { rs, .. }
        | Instr::MoveToHi { rs }
        | Instr::MoveToLo { rs } => rs == reg,
        Instr::Shift { rt, .. } | Instr::Load { base: rt, .. } if rt == reg => true,
        Instr::Load { base, .. } => base == reg,
        Instr::Store { rt, base, .. } => rt == reg || base == reg,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionPolicy;
    use ptaint_asm::assemble;
    use ptaint_isa::Reg;
    use ptaint_mem::{MemorySystem, WordTaint};

    fn boot(src: &str) -> Pipeline {
        let image = assemble(src).unwrap();
        let mut mem = MemorySystem::flat();
        for (i, &w) in image.text.iter().enumerate() {
            mem.write_u32(image.text_base + 4 * i as u32, w, WordTaint::CLEAN)
                .unwrap();
        }
        mem.write_bytes(image.data_base, &image.data, false)
            .unwrap();
        let mut cpu = Cpu::new(mem, DetectionPolicy::PointerTaintedness);
        cpu.set_pc(image.entry);
        // The hazard model must not lean on the retire tail: it is off here.
        assert_eq!(cpu.trace_depth(), None);
        Pipeline::new(cpu)
    }

    fn run(p: &mut Pipeline, limit: u64) -> Result<(), CpuException> {
        for _ in 0..limit {
            if let StepEvent::BreakTrap(_) = p.step()? {
                return Ok(());
            }
        }
        panic!("did not finish");
    }

    #[test]
    fn straight_line_code_is_one_ipc_plus_drain() {
        let mut p = boot("main: li $t0,1\nli $t1,2\nli $t2,3\nbreak 0");
        run(&mut p, 10).unwrap();
        let r = p.report();
        assert_eq!(r.instructions, 4);
        // 4 issues + 4 drain cycles.
        assert_eq!(r.cycles, 8);
        assert_eq!(r.load_use_stalls, 0);
        assert_eq!(r.control_flushes, 0);
        assert!(r.ipc() > 0.4);
    }

    #[test]
    fn load_use_hazard_stalls_one_cycle() {
        let mut p = boot(
            ".data
v:      .word 7
        .text
main:   la $t0, v
        lw $t1, 0($t0)
        addu $t2, $t1, $t1   # consumes the load result immediately
        break 0",
        );
        run(&mut p, 10).unwrap();
        assert_eq!(p.report().load_use_stalls, 1);
    }

    #[test]
    fn independent_instruction_after_load_does_not_stall() {
        let mut p = boot(
            ".data
v:      .word 7
        .text
main:   la $t0, v
        lw $t1, 0($t0)
        addu $t2, $t3, $t3
        break 0",
        );
        run(&mut p, 10).unwrap();
        assert_eq!(p.report().load_use_stalls, 0);
    }

    #[test]
    fn taken_branches_pay_control_penalty() {
        let mut p = boot(
            "main: b skip
        nop
skip:   break 0",
        );
        run(&mut p, 10).unwrap();
        let r = p.report();
        assert_eq!(r.control_flushes, 1);
        // b (1) + penalty(2) + break(1) + drain(4)
        assert_eq!(r.cycles, 8);
    }

    #[test]
    fn untaken_branch_costs_nothing_extra() {
        let mut p = boot(
            "main: bne $zero, $zero, away
        break 0
away:   break 1",
        );
        run(&mut p, 10).unwrap();
        assert_eq!(p.report().control_flushes, 0);
    }

    #[test]
    fn jump_detection_marks_at_id_ex_and_raises_at_retire() {
        let mut p = boot("main: jr $t0");
        p.cpu_mut()
            .regs_mut()
            .set(Reg::T0, 0x6161_6161, WordTaint::ALL);
        let err = p.step().unwrap_err();
        assert!(matches!(err, CpuException::Security(_)));
        let det = p.report().detection.unwrap();
        assert_eq!(det.marked_after, Stage::Decode);
        assert!(det.exception_cycle > det.marked_cycle);
        assert_eq!(det.exception_cycle - det.marked_cycle, 3);
    }

    #[test]
    fn load_detection_marks_at_ex_mem_and_raises_at_retire() {
        let mut p = boot("main: lw $t1, 0($t0)");
        p.cpu_mut()
            .regs_mut()
            .set(Reg::T0, 0x6161_6161, WordTaint::ALL);
        let err = p.step().unwrap_err();
        assert!(matches!(err, CpuException::Security(_)));
        let det = p.report().detection.unwrap();
        assert_eq!(det.marked_after, Stage::Execute);
        assert_eq!(det.exception_cycle - det.marked_cycle, 2);
        assert_eq!(det.alert.pointer, 0x6161_6161);
    }

    #[test]
    fn function_calls_flush_like_jumps() {
        let mut p = boot(
            "main: jal f
        break 0
f:      jr $ra",
        );
        run(&mut p, 10).unwrap();
        // jal redirect + jr redirect.
        assert_eq!(p.report().control_flushes, 2);
    }
}
