//! The execution driver.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ptaint_cpu::{Cpu, CpuException, ExecStats, SecurityAlert, StepEvent, Steppable};
use ptaint_mem::MemFault;
use ptaint_trace::json::escape;
use ptaint_trace::ToJson;

use crate::Os;

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// The process called `exit(status)` (or returned from `main`).
    Exited(i32),
    /// A pointer-taintedness detector fired; the OS terminated the process —
    /// the paper's successful detection outcome.
    Security(SecurityAlert),
    /// The process crashed on a memory fault (typical fate of an undetected
    /// attack on the unprotected baseline).
    MemFault(MemFault),
    /// The PC reached an undecodable word (e.g. control flow diverted into
    /// attacker data on the unprotected baseline).
    DecodeFault(u32),
    /// The program hit a `break` instruction.
    BreakTrap(u32),
    /// The step budget ran out before the program finished.
    StepLimit,
    /// The host emulator panicked while executing the guest (a hardening
    /// backstop: any residual `unwrap()`/`panic!` reachable from guest state
    /// — including state corrupted by fault injection — is converted into
    /// this structured outcome instead of aborting the process).
    GuestFault(String),
    /// The wall-clock watchdog of [`RunLimits::watchdog`] expired before
    /// the program finished.
    Watchdog,
    /// A replayed run issued a syscall its journal did not record — the
    /// execution departed from the recorded timeline. Structured, never a
    /// panic: divergence is the forensic signal replay exists to surface.
    ReplayDivergence(crate::ReplayDivergence),
}

impl ExitReason {
    /// Whether the run ended in a security detection.
    #[must_use]
    pub fn is_detected(&self) -> bool {
        matches!(self, ExitReason::Security(_))
    }

    /// The alert, when the run was stopped by the detector.
    #[must_use]
    pub fn alert(&self) -> Option<&SecurityAlert> {
        match self {
            ExitReason::Security(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for ExitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitReason::Exited(code) => write!(f, "exited with status {code}"),
            ExitReason::Security(a) => write!(f, "SECURITY ALERT {a}"),
            ExitReason::MemFault(e) => write!(f, "crashed: {e}"),
            ExitReason::DecodeFault(pc) => write!(f, "crashed: illegal instruction at {pc:#010x}"),
            ExitReason::BreakTrap(code) => write!(f, "break trap {code:#x}"),
            ExitReason::StepLimit => write!(f, "step limit exhausted"),
            ExitReason::GuestFault(msg) => write!(f, "guest fault: {msg}"),
            ExitReason::Watchdog => write!(f, "watchdog expired"),
            ExitReason::ReplayDivergence(d) => write!(f, "{d}"),
        }
    }
}

impl ToJson for ExitReason {
    fn to_json(&self) -> String {
        match self {
            ExitReason::Exited(code) => format!("{{\"kind\":\"exited\",\"status\":{code}}}"),
            ExitReason::Security(a) => {
                format!(
                    "{{\"kind\":\"security\",\"alert\":{}}}",
                    escape(&a.to_string())
                )
            }
            ExitReason::MemFault(e) => {
                format!(
                    "{{\"kind\":\"mem_fault\",\"detail\":{}}}",
                    escape(&e.to_string())
                )
            }
            ExitReason::DecodeFault(pc) => {
                format!("{{\"kind\":\"decode_fault\",\"pc\":\"0x{pc:x}\"}}")
            }
            ExitReason::BreakTrap(code) => format!("{{\"kind\":\"break_trap\",\"code\":{code}}}"),
            ExitReason::StepLimit => "{\"kind\":\"step_limit\"}".to_string(),
            ExitReason::GuestFault(msg) => {
                format!("{{\"kind\":\"guest_fault\",\"detail\":{}}}", escape(msg))
            }
            // Deliberately carries no timing data, so campaign reports stay
            // byte-identical across hosts of different speeds.
            ExitReason::Watchdog => "{\"kind\":\"watchdog\"}".to_string(),
            ExitReason::ReplayDivergence(d) => {
                format!(
                    "{{\"kind\":\"replay_divergence\",\"index\":{},\"expected\":{},\"actual\":{}}}",
                    d.index,
                    escape(&d.expected),
                    escape(&d.actual)
                )
            }
        }
    }
}

/// Everything observable about a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why execution stopped.
    pub reason: ExitReason,
    /// CPU statistics.
    pub stats: ExecStats,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// Per-session bytes the guest sent to its network peers.
    pub transcripts: Vec<Vec<u8>>,
    /// Bytes the kernel delivered tainted (the §5.4 software-overhead
    /// quantity).
    pub tainted_input_bytes: u64,
}

impl RunOutcome {
    /// Stdout as a lossy string, for assertions and reports.
    #[must_use]
    pub fn stdout_text(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }
}

impl ToJson for RunOutcome {
    fn to_json(&self) -> String {
        format!(
            "{{\"reason\":{},\"stats\":{},\"tainted_input_bytes\":{}}}",
            self.reason.to_json(),
            self.stats.to_json(),
            self.tainted_input_bytes
        )
    }
}

/// Budgets on a run: a step count and an optional wall-clock watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum instructions before [`ExitReason::StepLimit`].
    pub max_steps: u64,
    /// Wall-clock budget before [`ExitReason::Watchdog`], or `None` for no
    /// watchdog. The clock is polled every [`WATCHDOG_STRIDE`] steps, so
    /// enforcement is coarse but the per-step cost is one integer mask.
    pub watchdog: Option<Duration>,
}

impl RunLimits {
    /// A step budget with no watchdog — the classic limit.
    #[must_use]
    pub fn steps(max_steps: u64) -> RunLimits {
        RunLimits {
            max_steps,
            watchdog: None,
        }
    }

    /// Adds a wall-clock watchdog (builder).
    #[must_use]
    pub fn watchdog(mut self, limit: Duration) -> RunLimits {
        self.watchdog = Some(limit);
        self
    }
}

/// Steps between watchdog clock polls.
pub const WATCHDOG_STRIDE: u64 = 1 << 16;

/// A per-step callback invoked by [`run_to_exit_with`] *before* the steps
/// it wakes at — the attachment point for the fault-injection harness's
/// state corruptions.
///
/// **Wake contract.** The driver calls [`StepHook::on_step`] before every
/// step `s` it is woken at and lets the CPU run the steps in between as one
/// batch (the cached engine's page-runs). After each call at step `s`, and
/// once before step 0, it asks [`StepHook::next_wake`] for the next step
/// to wake at. A hook's answer may change only through `on_step`, so the
/// driver keeps it until that step. The provided default wakes at every
/// step, so a hook that does not override it sees each step exactly as
/// before; `()` and `None` never wake. Batching never moves a wake, a
/// watchdog poll (still every [`WATCHDOG_STRIDE`] steps) or the step
/// limit off the instruction it lands on.
pub trait StepHook {
    /// Called before step `step` (0-based) executes, with the architectural
    /// CPU state open for inspection or corruption.
    fn on_step(&mut self, step: u64, cpu: &mut Cpu);

    /// The first step at or after `step` before which [`StepHook::on_step`]
    /// must run; `u64::MAX` for never. Default: `step` — wake every step.
    fn next_wake(&self, step: u64) -> u64 {
        step
    }
}

/// The no-op hook, for ordinary (uninjected) runs: never wakes.
impl StepHook for () {
    fn on_step(&mut self, _step: u64, _cpu: &mut Cpu) {}

    fn next_wake(&self, _step: u64) -> u64 {
        u64::MAX
    }
}

/// An optional hook: `None` runs uninjected and never wakes.
impl<H: StepHook> StepHook for Option<H> {
    #[inline]
    fn on_step(&mut self, step: u64, cpu: &mut Cpu) {
        if let Some(hook) = self {
            hook.on_step(step, cpu);
        }
    }

    fn next_wake(&self, step: u64) -> u64 {
        self.as_ref().map_or(u64::MAX, |hook| hook.next_wake(step))
    }
}

/// Runs `cpu` under `os` until exit, crash, detection, or `max_steps`.
///
/// `syscall` traps are serviced by the kernel; a pending `exit` ends the run
/// at the trap that requested it.
pub fn run_to_exit(cpu: &mut Cpu, os: &mut Os, max_steps: u64) -> RunOutcome {
    run_to_exit_with(cpu, os, RunLimits::steps(max_steps), &mut ())
}

/// The generalized driver behind [`run_to_exit`]: generic over the stepper
/// (functional [`Cpu`] or the pipelined timing model), with a wall-clock
/// watchdog and a [`StepHook`] woken at the steps it asks for (the steps
/// in between run as one batch, see the wake contract), and hardened so
/// that **no outcome aborts the host** — a panic reachable from guest or
/// injected state is caught and reported as [`ExitReason::GuestFault`].
pub fn run_to_exit_with<S: Steppable>(
    stepper: &mut S,
    os: &mut Os,
    limits: RunLimits,
    hook: &mut dyn StepHook,
) -> RunOutcome {
    let reason = catch_unwind(AssertUnwindSafe(|| drive(stepper, os, limits, hook)))
        .unwrap_or_else(|payload| ExitReason::GuestFault(panic_message(payload.as_ref())));
    RunOutcome {
        reason,
        stats: stepper.cpu().stats(),
        stdout: os.stdout().to_vec(),
        stderr: os.stderr().to_vec(),
        transcripts: os
            .session_transcripts()
            .iter()
            .map(|s| s.to_vec())
            .collect(),
        tainted_input_bytes: os.tainted_input_bytes,
    }
}

fn drive<S: Steppable>(
    stepper: &mut S,
    os: &mut Os,
    limits: RunLimits,
    hook: &mut dyn StepHook,
) -> ExitReason {
    let started = limits.watchdog.map(|_| Instant::now());
    let mut step = 0;
    let mut wake = hook.next_wake(0);
    while step < limits.max_steps {
        if step & (WATCHDOG_STRIDE - 1) == 0 {
            if let (Some(t0), Some(budget)) = (started, limits.watchdog) {
                if t0.elapsed() >= budget {
                    return ExitReason::Watchdog;
                }
            }
        }
        if step >= wake {
            hook.on_step(step, stepper.cpu_mut());
            wake = hook.next_wake(step + 1);
        }
        // Run up to the next step anything outside the CPU must see: the
        // hook's wake, the next watchdog poll, or the step limit.
        let end = limits
            .max_steps
            .min((step | (WATCHDOG_STRIDE - 1)).saturating_add(1))
            .min(wake.max(step + 1));
        let (ran, result) = stepper.run_steps(end - step);
        step += ran;
        match result {
            Ok(StepEvent::Executed) => {}
            Ok(StepEvent::SyscallTrap) => {
                os.handle_syscall(stepper.cpu_mut());
                if let Some(d) = os.take_replay_divergence() {
                    return ExitReason::ReplayDivergence(d);
                }
                if let Some(status) = os.exit_status() {
                    return ExitReason::Exited(status);
                }
                // §5.3 annotation extension: kernel buffer copies (read/
                // recv) may land tainted bytes inside an annotated region.
                if !stepper.cpu().taint_watches().is_empty() {
                    let pc = stepper.cpu().pc().wrapping_sub(4);
                    if let Some(alert) = stepper
                        .cpu_mut()
                        .scan_taint_watches(pc, ptaint_isa::Instr::Syscall)
                    {
                        return ExitReason::Security(alert);
                    }
                }
            }
            Ok(StepEvent::BreakTrap(code)) => return ExitReason::BreakTrap(code),
            Err(CpuException::Security(alert)) => return ExitReason::Security(alert),
            Err(CpuException::Mem(fault)) => return ExitReason::MemFault(fault),
            Err(CpuException::Decode { pc, .. }) => return ExitReason::DecodeFault(pc),
        }
    }
    ExitReason::StepLimit
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load, WorldConfig};
    use ptaint_asm::assemble;
    use ptaint_cpu::DetectionPolicy;
    use ptaint_mem::HierarchyConfig;

    fn run_program(src: &str, world: WorldConfig, policy: DetectionPolicy) -> RunOutcome {
        let image = assemble(src).unwrap();
        let (mut cpu, mut os) = load(&image, world, policy, HierarchyConfig::flat());
        run_to_exit(&mut cpu, &mut os, 100_000)
    }

    #[test]
    fn hello_world_via_syscalls() {
        let out = run_program(
            r#"
        .data
msg:    .ascii "hello, world\n"
        .text
main:   li $v0, 4        # write
        li $a0, 1        # stdout
        la $a1, msg
        li $a2, 13
        syscall
        li $v0, 1        # exit
        li $a0, 0
        syscall
        "#,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stdout, b"hello, world\n");
        assert!(out.stats.instructions > 5);
    }

    #[test]
    fn echo_stdin_shows_taint_flow_without_alert() {
        // Reading tainted data and *copying* it is fine; only dereferencing a
        // tainted word as a pointer alerts.
        let out = run_program(
            r#"
        .data
buf:    .space 64
        .text
main:   li $v0, 3        # read(0, buf, 64)
        li $a0, 0
        la $a1, buf
        li $a2, 64
        syscall
        move $a2, $v0    # length actually read
        li $v0, 4        # write(1, buf, n)
        li $a0, 1
        la $a1, buf
        syscall
        li $v0, 1
        li $a0, 0
        syscall
        "#,
            WorldConfig::new().stdin(b"tainted text".to_vec()),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stdout, b"tainted text");
        assert_eq!(out.tainted_input_bytes, 12);
    }

    #[test]
    fn dereferencing_input_as_pointer_is_detected() {
        // Load 4 input bytes as a word and dereference -> classic alert.
        let out = run_program(
            r#"
        .data
buf:    .space 8
        .text
main:   li $v0, 3
        li $a0, 0
        la $a1, buf
        li $a2, 8
        syscall
        la $t0, buf
        lw $t1, 0($t0)    # t1 = attacker word (tainted)
        lw $t2, 0($t1)    # dereference it -> ALERT
        li $v0, 1
        syscall
        "#,
            WorldConfig::new().stdin(b"aaaa".to_vec()),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("must be detected");
        assert_eq!(alert.pointer, 0x6161_6161);
        assert_eq!(alert.instr.to_string(), "lw $10,0($9)");
        assert!(out.reason.is_detected());
    }

    #[test]
    fn same_attack_crashes_undetected_without_protection() {
        let out = run_program(
            r#"
        .data
buf:    .space 8
        .text
main:   li $v0, 3
        li $a0, 0
        la $a1, buf
        li $a2, 8
        syscall
        la $t0, buf
        lw $t1, 0($t0)
        lw $t2, 0($t1)
        li $v0, 1
        syscall
        "#,
            WorldConfig::new().stdin(b"\x60aaa".to_vec()),
            DetectionPolicy::Off,
        );
        // 0x61616160 is unmapped but readable (sparse memory returns zeroes),
        // so the load succeeds silently — the attack would have proceeded.
        assert_eq!(out.reason, ExitReason::Exited(0));
        assert_eq!(out.stats.tainted_pointer_dereferences, 1);
    }

    #[test]
    fn argv_bytes_are_tainted_sources() {
        // Dereference argv[1]'s first word as a pointer -> alert.
        let out = run_program(
            r#"
        .text
main:   lw $t0, 4($a1)    # argv[1] pointer (untainted, kernel-built)
        lw $t1, 0($t0)    # the string bytes (tainted)
        lw $t2, 0($t1)    # dereference attacker word -> ALERT
        li $v0, 1
        syscall
        "#,
            WorldConfig::new().args(["prog", "AAAA"]),
            DetectionPolicy::PointerTaintedness,
        );
        let alert = out.reason.alert().expect("argv must be a taint source");
        assert_eq!(alert.pointer, 0x4141_4141);
    }

    #[test]
    fn step_limit_reports() {
        let out = run_program(
            "main: b main",
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(out.reason, ExitReason::StepLimit);
    }

    #[test]
    fn exit_reason_display() {
        assert_eq!(ExitReason::Exited(0).to_string(), "exited with status 0");
        assert_eq!(ExitReason::StepLimit.to_string(), "step limit exhausted");
        assert!(ExitReason::DecodeFault(0x400000)
            .to_string()
            .contains("illegal instruction"));
        assert_eq!(
            ExitReason::GuestFault("boom".into()).to_string(),
            "guest fault: boom"
        );
        assert_eq!(ExitReason::Watchdog.to_string(), "watchdog expired");
    }

    #[test]
    fn exit_reason_json_is_stable() {
        assert_eq!(
            ExitReason::Exited(42).to_json(),
            "{\"kind\":\"exited\",\"status\":42}"
        );
        assert_eq!(ExitReason::StepLimit.to_json(), "{\"kind\":\"step_limit\"}");
        assert_eq!(
            ExitReason::GuestFault("index out of \"bounds\"".into()).to_json(),
            "{\"kind\":\"guest_fault\",\"detail\":\"index out of \\\"bounds\\\"\"}"
        );
        // Deliberately carries no timing data: watchdog outcomes must not
        // perturb byte-identical campaign reports.
        assert_eq!(ExitReason::Watchdog.to_json(), "{\"kind\":\"watchdog\"}");
        assert_eq!(
            ExitReason::DecodeFault(0x40_0000).to_json(),
            "{\"kind\":\"decode_fault\",\"pc\":\"0x400000\"}"
        );
    }

    #[test]
    fn run_outcome_json_embeds_reason_and_stats() {
        let out = run_program(
            "main: li $v0, 1\n li $a0, 7\n syscall",
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
        );
        let json = out.to_json();
        assert!(json.starts_with("{\"reason\":{\"kind\":\"exited\",\"status\":7}"));
        assert!(json.contains("\"stats\":{"));
        assert!(json.ends_with("\"tainted_input_bytes\":0}"));
    }

    #[test]
    fn watchdog_interrupts_infinite_loop() {
        let image = assemble("main: b main").unwrap();
        let (mut cpu, mut os) = load(
            &image,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        let limits = RunLimits::steps(u64::MAX).watchdog(Duration::from_millis(10));
        let out = run_to_exit_with(&mut cpu, &mut os, limits, &mut ());
        assert_eq!(out.reason, ExitReason::Watchdog);
    }

    #[test]
    fn step_hook_sees_every_step_and_can_mutate_state() {
        // The hook plants $v0=1/$a0=9 right before the guest's syscall step,
        // turning a would-be getpid into exit(9) — proving hooks observe the
        // step index and can corrupt architectural state mid-run.
        struct ForceExit;
        impl StepHook for ForceExit {
            fn on_step(&mut self, step: u64, cpu: &mut Cpu) {
                if step == 4 {
                    let regs = cpu.regs_mut();
                    regs.set(ptaint_isa::Reg::V0, 1, ptaint_mem::WordTaint::CLEAN);
                    regs.set(ptaint_isa::Reg::A0, 9, ptaint_mem::WordTaint::CLEAN);
                }
            }
        }
        let image = assemble("main: nop\n nop\n nop\n li $v0, 20\n syscall\n b main").unwrap();
        let (mut cpu, mut os) = load(
            &image,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        let out = run_to_exit_with(&mut cpu, &mut os, RunLimits::steps(100), &mut ForceExit);
        assert_eq!(out.reason, ExitReason::Exited(9));
    }

    #[test]
    fn recorded_run_replays_bit_identical_and_divergence_is_structured() {
        let src = r#"
        .data
buf:    .space 64
        .text
main:   li $v0, 3        # read(0, buf, 64)
        li $a0, 0
        la $a1, buf
        li $a2, 64
        syscall
        move $a2, $v0
        li $v0, 4        # write(1, buf, n)
        li $a0, 1
        la $a1, buf
        syscall
        li $v0, 1
        li $a0, 0
        syscall
        "#;
        let image = assemble(src).unwrap();
        let world = WorldConfig::new().stdin(b"journal me".to_vec());
        let (mut cpu, mut os) = load(
            &image,
            world,
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        os.start_recording();
        let recorded = run_to_exit(&mut cpu, &mut os, 100_000);
        let journal = os.take_journal().expect("was recording");
        assert_eq!(recorded.reason, ExitReason::Exited(0));

        // Replay against an empty world: the outcome is bit-identical
        // except the console, which lives in the un-replayed kernel.
        let (mut cpu2, mut os2) = load(
            &image,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        os2.start_replay(journal.clone());
        let replayed = run_to_exit(&mut cpu2, &mut os2, 100_000);
        assert_eq!(replayed.reason, recorded.reason);
        assert_eq!(replayed.stats, recorded.stats);
        assert_eq!(replayed.tainted_input_bytes, recorded.tainted_input_bytes);

        // Replaying a DIFFERENT program against the same journal stops
        // with a structured divergence, not a panic.
        let other =
            assemble("main: li $v0, 20\n syscall\n li $v0, 1\n li $a0, 0\n syscall").unwrap();
        let (mut cpu3, mut os3) = load(
            &other,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        os3.start_replay(journal);
        let diverged = run_to_exit(&mut cpu3, &mut os3, 100_000);
        match &diverged.reason {
            ExitReason::ReplayDivergence(d) => {
                assert_eq!(d.index, 0);
                assert!(!diverged.reason.is_detected());
                assert!(diverged.reason.to_string().contains("replay diverged"));
                assert!(diverged
                    .reason
                    .to_json()
                    .starts_with("{\"kind\":\"replay_divergence\""));
            }
            other => panic!("expected ReplayDivergence, got {other:?}"),
        }
    }

    #[test]
    fn read_into_a_watched_text_page_executes_the_new_word() {
        // read() lands `li $a0, 99` on the already-decoded word at `patch`:
        // the kernel's copy dirties the watched page between page-runs, so
        // the next run starts by dropping the stale decode.
        let patched = ptaint_isa::Instr::IAlu {
            op: ptaint_isa::IAluOp::Addiu,
            rt: ptaint_isa::Reg::A0,
            rs: ptaint_isa::Reg::ZERO,
            imm: 99,
        }
        .encode();
        let image = assemble(
            "main:   li $v0, 3        # read(0, patch, 4)
                     li $a0, 0
                     la $a1, patch
                     li $a2, 4
                     syscall
            patch:   li $a0, 1
                     li $v0, 1        # exit($a0)
                     syscall",
        )
        .unwrap();
        for engine in [ptaint_cpu::Engine::Cached, ptaint_cpu::Engine::Interp] {
            let (mut cpu, mut os) = load(
                &image,
                WorldConfig::new().stdin(patched.to_le_bytes().to_vec()),
                DetectionPolicy::PointerTaintedness,
                HierarchyConfig::flat(),
            );
            cpu.set_engine(engine);
            let out = run_to_exit(&mut cpu, &mut os, 1000);
            assert_eq!(out.reason, ExitReason::Exited(99), "{engine:?}");
            if engine == ptaint_cpu::Engine::Cached {
                assert_eq!(out.stats.decode_cache_invalidations, 1);
            }
        }
    }

    #[test]
    fn batched_runs_wake_hooks_and_stop_exactly_where_single_steps_do() {
        // A hook woken at steps 3 and 70 (it asks for them) sees exactly
        // those steps; the steps between run as batches, and a step limit
        // inside a batch still stops on its instruction.
        struct WakeAt(Vec<u64>, Vec<u64>);
        impl StepHook for WakeAt {
            fn on_step(&mut self, step: u64, _cpu: &mut Cpu) {
                self.1.push(step);
            }
            fn next_wake(&self, step: u64) -> u64 {
                self.0
                    .iter()
                    .copied()
                    .find(|&s| s >= step)
                    .unwrap_or(u64::MAX)
            }
        }
        let image = assemble("main: nop\n nop\n b main").unwrap();
        let (mut cpu, mut os) = load(
            &image,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        let mut hook = WakeAt(vec![3, 70], Vec::new());
        let out = run_to_exit_with(&mut cpu, &mut os, RunLimits::steps(101), &mut hook);
        assert_eq!(out.reason, ExitReason::StepLimit);
        assert_eq!(out.stats.instructions, 101);
        assert_eq!(hook.1, [3, 70]);
    }

    #[test]
    fn host_panic_is_reported_as_guest_fault() {
        struct PanicAtStep(u64);
        impl StepHook for PanicAtStep {
            fn on_step(&mut self, step: u64, _cpu: &mut Cpu) {
                assert!(step < self.0, "injected host panic at step {step}");
            }
        }
        let image = assemble("main: b main").unwrap();
        let (mut cpu, mut os) = load(
            &image,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected backtrace
        let out = run_to_exit_with(
            &mut cpu,
            &mut os,
            RunLimits::steps(100),
            &mut PanicAtStep(5),
        );
        std::panic::set_hook(prev);
        match &out.reason {
            ExitReason::GuestFault(msg) => {
                assert!(msg.contains("injected host panic at step 5"), "{msg}");
            }
            other => panic!("expected GuestFault, got {other:?}"),
        }
    }
}
