//! The functional executor with taint tracking and pointer-taintedness
//! detection.

use std::fmt;

use ptaint_isa::{
    BranchCond, BranchZCond, DecodeError, DecodedInsn, IAluOp, Instr, MemWidth, MulDivOp, RAluOp,
    Reg, PAGE_SIZE,
};
use ptaint_mem::{MemFault, MemorySystem, WordTaint};
use ptaint_trace::{Event, Loc, SharedObserver, Transfer};

use crate::decode_cache::DecodeCache;
use crate::taint_alu;
use crate::{AlertKind, DetectionPolicy, ExecStats, RegisterFile, SecurityAlert, TaintRules};

/// A programmer annotation (the paper's §5.3 extension): a memory region
/// that must never become tainted. The processor raises a security
/// exception whenever a tainted byte lands inside the region — closing
/// false negatives like Table 4(B)'s authentication-flag overwrite, at the
/// cost of requiring annotations (i.e., giving up full transparency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintWatch {
    /// First byte of the protected region.
    pub addr: u32,
    /// Region length in bytes.
    pub len: u32,
    /// Human-readable label reported in alerts.
    pub label: String,
}

/// What a successfully executed step produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction retired.
    Executed,
    /// A `syscall` trapped to the host; `$v0` holds the syscall number and
    /// `$a0..$a3` the arguments. The PC has already advanced, so the host
    /// writes results and resumes with [`Cpu::step`].
    SyscallTrap,
    /// A `break` instruction trapped with its code.
    BreakTrap(u32),
}

/// A condition that stops execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuException {
    /// The pointer-taintedness detector fired — the paper's security
    /// exception. The operating system terminates the process.
    Security(SecurityAlert),
    /// A memory fault (unaligned access or null-page dereference). This is
    /// how undetected attacks typically crash on the unprotected baseline.
    Mem(MemFault),
    /// The PC reached a word that does not decode.
    Decode {
        /// Address of the undecodable word.
        pc: u32,
        /// The decode failure.
        err: DecodeError,
    },
}

impl fmt::Display for CpuException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuException::Security(a) => write!(f, "security exception: {a}"),
            CpuException::Mem(e) => write!(f, "memory fault: {e}"),
            CpuException::Decode { pc, err } => write!(f, "at {pc:#010x}: {err}"),
        }
    }
}

impl std::error::Error for CpuException {}

impl From<MemFault> for CpuException {
    fn from(e: MemFault) -> CpuException {
        CpuException::Mem(e)
    }
}

/// Which execution engine drives [`Cpu::run_steps`] and [`Cpu::step`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Fetch + decode on every step — the legacy interpreter, kept as the
    /// differential-testing oracle for the cached engine.
    Interp,
    /// Predecode straight-line blocks into a per-page decode cache on first
    /// execution and dispatch from the cache thereafter (the default).
    /// Stores into cached text pages invalidate them, so self-modifying
    /// code behaves exactly as under [`Engine::Interp`].
    #[default]
    Cached,
}

/// Default depth of the recently-retired diagnostic ring buffer; override
/// per-CPU with [`Cpu::set_trace_depth`].
pub const DEFAULT_TRACE_DEPTH: usize = 64;

/// Anything that advances the architectural state one instruction at a time
/// around a [`Cpu`] — the functional executor itself, or the pipelined
/// timing model wrapped around one. Execution drivers (the OS run loop, the
/// fault-injection harness) are generic over this so the functional and
/// pipelined paths share one loop.
pub trait Steppable {
    /// Executes one instruction (or pipeline issue).
    ///
    /// # Errors
    ///
    /// Propagates the [`CpuException`] that stopped the step.
    fn step(&mut self) -> Result<StepEvent, CpuException>;

    /// Executes up to `budget` (at least one) steps, stopping early at the
    /// first step that does not end in [`StepEvent::Executed`]. Returns the
    /// steps taken, counting the one that trapped or faulted, with that
    /// step's result. The default takes exactly one [`Steppable::step`], so
    /// a stepper that must see every instruction (the pipeline model) needs
    /// nothing more; [`Cpu`] runs [`Cpu::run_steps`].
    fn run_steps(&mut self, budget: u64) -> (u64, Result<StepEvent, CpuException>) {
        debug_assert!(budget >= 1);
        (1, self.step())
    }

    /// The architectural CPU state (read).
    fn cpu(&self) -> &Cpu;

    /// The architectural CPU state (write) — used by the syscall layer and
    /// injection hooks.
    fn cpu_mut(&mut self) -> &mut Cpu;
}

impl Steppable for Cpu {
    fn step(&mut self) -> Result<StepEvent, CpuException> {
        Cpu::step(self)
    }

    fn run_steps(&mut self, budget: u64) -> (u64, Result<StepEvent, CpuException>) {
        Cpu::run_steps(self, budget)
    }

    fn cpu(&self) -> &Cpu {
        self
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        self
    }
}

/// The taint-tracking processor (paper §4).
///
/// Each [`Cpu::step`] fetches, decodes, and executes one instruction,
/// propagating taintedness per Table 1 and applying the detection checks of
/// §4.3 under the configured [`DetectionPolicy`].
///
/// ```
/// use ptaint_cpu::{Cpu, DetectionPolicy, StepEvent};
/// use ptaint_isa::{Instr, Reg, TEXT_BASE};
/// use ptaint_mem::{MemorySystem, WordTaint};
///
/// let mut mem = MemorySystem::flat();
/// // jr $t0 with a tainted target must raise a security exception.
/// mem.write_u32(TEXT_BASE, Instr::JumpReg { rs: Reg::T0 }.encode(), WordTaint::CLEAN)?;
/// let mut cpu = Cpu::new(mem, DetectionPolicy::PointerTaintedness);
/// cpu.set_pc(TEXT_BASE);
/// cpu.regs_mut().set(Reg::T0, 0x61616161, WordTaint::ALL);
/// let err = cpu.step().unwrap_err();
/// assert!(matches!(err, ptaint_cpu::CpuException::Security(_)));
/// # Ok::<(), ptaint_mem::MemFault>(())
/// ```
pub struct Cpu {
    regs: RegisterFile,
    mem: MemorySystem,
    pc: u32,
    policy: DetectionPolicy,
    rules: TaintRules,
    watches: Vec<TaintWatch>,
    stats: ExecStats,
    // Recently-retired ring: a power-of-two `Vec` indexed by the masked
    // count of retires so far (`recent_head`), so a retire is one store. It
    // starts empty and doubles when `recent_head` reaches `recent_grow_at`,
    // up to the first power of two >= `trace_depth`, so a huge depth never
    // allocates up front.
    recent: Vec<(u32, Instr)>,
    recent_head: usize,
    recent_grow_at: usize,
    trace_depth: usize,
    observer: Option<SharedObserver>,
    last_step_tainted: bool,
    engine: Engine,
    dcache: DecodeCache,
    // Set once the decode-cache integrity machinery trips: all proofs are
    // dropped, elision is off, and every check runs in full for the rest of
    // the run (fail safe, not silent).
    degraded: bool,
}

/// Instructions between periodic decode-cache integrity sweeps on the
/// cached engine. Each sweep compares every cached page's ProvenClean
/// bitmap against its replica and recomputes one page's slot checksum
/// (round-robin), so the amortized cost is a few dozen word compares.
const INTEGRITY_STRIDE: u64 = 1 << 14;

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cpu {
    /// Creates a CPU over `mem` with the given detection policy. The PC
    /// starts at zero; set it with [`Cpu::set_pc`] (the loader uses the
    /// image entry point).
    #[must_use]
    pub fn new(mem: MemorySystem, policy: DetectionPolicy) -> Cpu {
        Cpu {
            regs: RegisterFile::new(),
            mem,
            pc: 0,
            policy,
            rules: TaintRules::PAPER,
            watches: Vec::new(),
            stats: ExecStats::default(),
            recent: Vec::new(),
            recent_head: 0,
            recent_grow_at: 0,
            trace_depth: DEFAULT_TRACE_DEPTH,
            observer: None,
            last_step_tainted: false,
            engine: Engine::default(),
            dcache: DecodeCache::new(),
            degraded: false,
        }
    }

    /// Selects the execution engine (default: [`Engine::Cached`]). Safe to
    /// switch at any time: the decode cache stays coherent through the
    /// memory system's code-page watches regardless of the active engine.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The active execution engine.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Attaches (or detaches) the structured-event observer. The same
    /// observer is handed to the memory system so cache probes report to it
    /// too. With no observer (the default) every hook is a `None` check.
    pub fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.mem.set_observer(observer.clone());
        self.observer = observer;
    }

    /// Whether an observer is attached — callers (the OS model) use this to
    /// skip building event labels that would go nowhere.
    #[must_use]
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Forwards an event to the attached observer, if any. The OS model and
    /// loader emit their [`Event::Syscall`] / [`Event::TaintSource`] events
    /// through this.
    pub fn emit_event(&self, event: &Event) {
        if let Some(obs) = &self.observer {
            obs.borrow_mut().on_event(event);
        }
    }

    /// Resizes the recently-retired diagnostic ring (default
    /// [`DEFAULT_TRACE_DEPTH`]). Shrinking drops the oldest entries.
    pub fn set_trace_depth(&mut self, depth: usize) {
        let kept = self.recent_trace();
        self.trace_depth = depth.max(1);
        // Rebuild the ring for the new depth from the tail it still keeps.
        self.recent = Vec::new();
        self.recent_head = 0;
        self.recent_grow_at = 0;
        for &(pc, instr) in &kept[kept.len().saturating_sub(self.trace_depth)..] {
            self.push_trace(pc, instr);
        }
    }

    /// Current depth of the recently-retired ring.
    #[must_use]
    pub fn trace_depth(&self) -> usize {
        self.trace_depth
    }

    /// Replaces the active taint-propagation rule set (default:
    /// [`TaintRules::PAPER`]). Used by the ablation experiments.
    pub fn set_taint_rules(&mut self, rules: TaintRules) {
        self.rules = rules;
    }

    /// The active taint-propagation rules.
    #[must_use]
    pub fn taint_rules(&self) -> TaintRules {
        self.rules
    }

    /// Registers a programmer annotation (§5.3 extension): raise a security
    /// exception as soon as any byte of `[addr, addr+len)` becomes tainted.
    pub fn add_taint_watch(&mut self, addr: u32, len: u32, label: impl Into<String>) {
        self.watches.push(TaintWatch {
            addr,
            len,
            label: label.into(),
        });
    }

    /// The registered annotations.
    #[must_use]
    pub fn taint_watches(&self) -> &[TaintWatch] {
        &self.watches
    }

    /// Scans all annotated regions for tainted bytes; returns an alert for
    /// the first violation. `instr`/`pc` describe the operation being
    /// blamed (the store that landed the taint, or the syscall whose buffer
    /// copy did).
    pub fn scan_taint_watches(&mut self, pc: u32, instr: Instr) -> Option<SecurityAlert> {
        for watch in &self.watches {
            let Ok(taint) = self.mem.read_taint(watch.addr, watch.len) else {
                continue;
            };
            if let Some(offset) = taint.iter().position(|&t| t) {
                return Some(SecurityAlert {
                    pc,
                    instr,
                    kind: AlertKind::AnnotationTainted,
                    pointer_reg: ptaint_isa::Reg::ZERO,
                    pointer: watch.addr + offset as u32,
                    taint: ptaint_mem::WordTaint::ALL,
                });
            }
        }
        None
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The active detection policy.
    #[must_use]
    pub fn policy(&self) -> DetectionPolicy {
        self.policy
    }

    /// Register file (read).
    #[must_use]
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Register file (write) — used by the loader and the syscall layer.
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Memory system (read).
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Memory system (write) — used by the loader and the syscall layer.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Counts one applied fault from the injection harness (I/O degradation
    /// or state corruption) in [`ExecStats::injected_faults`].
    pub fn note_injected_fault(&mut self) {
        self.stats.injected_faults += 1;
    }

    /// The most recently retired instructions (oldest first), for
    /// diagnostics.
    #[must_use]
    pub fn recent_trace(&self) -> Vec<(u32, Instr)> {
        let kept = self.recent_head.min(self.trace_depth);
        let mask = self.recent.len().wrapping_sub(1);
        (self.recent_head - kept..self.recent_head)
            .map(|i| self.recent[i & mask])
            .collect()
    }

    #[inline]
    fn push_trace(&mut self, pc: u32, instr: Instr) {
        if self.recent_head == self.recent_grow_at {
            self.grow_trace();
        }
        let mask = self.recent.len() - 1;
        self.recent[self.recent_head & mask] = (pc, instr);
        self.recent_head += 1;
    }

    /// Doubles the ring (from 16 entries) toward its full size, the first
    /// power of two >= `trace_depth`. Only called when every slot holds a
    /// retire in push order, so growing is a plain extension.
    #[cold]
    fn grow_trace(&mut self) {
        let full = self
            .trace_depth
            .checked_next_power_of_two()
            .unwrap_or(1 << (usize::BITS - 1));
        let len = (self.recent.len() * 2).clamp(16.min(full), full);
        self.recent.resize(len, (0, Instr::NOP));
        self.recent_grow_at = if len == full { usize::MAX } else { len };
    }

    /// Emits a [`Event::TaintPropagate`] when taint is actually in motion:
    /// the destination ends up tainted, or a tainted source got overwritten
    /// clean (provenance needs the clearing too). No-op without an observer:
    /// that test is inlined into every step, the rest is out of line.
    #[allow(clippy::too_many_arguments)] // mirrors the Transfer field list
    #[inline]
    fn emit_transfer(
        &self,
        pc: u32,
        instr: Instr,
        rule: &'static str,
        dst: Loc,
        srcs: [Option<Loc>; 2],
        dst_taint: WordTaint,
        src_taints: &[WordTaint],
    ) {
        if self.observer.is_some() {
            self.emit_transfer_observed(pc, instr, rule, dst, srcs, dst_taint, src_taints);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[cold]
    fn emit_transfer_observed(
        &self,
        pc: u32,
        instr: Instr,
        rule: &'static str,
        dst: Loc,
        srcs: [Option<Loc>; 2],
        dst_taint: WordTaint,
        src_taints: &[WordTaint],
    ) {
        if !dst_taint.any() && !src_taints.iter().any(|t| t.any()) {
            return;
        }
        self.emit_event(&Event::TaintPropagate(Transfer {
            pc,
            instr,
            rule,
            dst,
            srcs,
            taint_bits: dst_taint.bits(),
        }));
    }

    /// The load/store detector (paper §4.3: OR the taint bits of the
    /// address word; placed after EX/MEM). A clean base register — the
    /// common case — costs one inlined test.
    #[inline]
    fn check_data_pointer(&mut self, pc: u32, instr: Instr, base: Reg) -> Result<(), CpuException> {
        if self.regs.taint(base).any() {
            let flagged = self.policy.checks_data_pointers();
            return self.tainted_pointer(pc, instr, base, AlertKind::DataPointer, flagged);
        }
        Ok(())
    }

    /// The jump detector (paper §4.3: OR the taint bits of the target
    /// register; placed after ID/EX).
    #[inline]
    fn check_jump_pointer(
        &mut self,
        pc: u32,
        instr: Instr,
        target: Reg,
    ) -> Result<(), CpuException> {
        if self.regs.taint(target).any() {
            let flagged = self.policy.checks_jump_pointers();
            return self.tainted_pointer(pc, instr, target, AlertKind::JumpPointer, flagged);
        }
        Ok(())
    }

    /// A tainted pointer reached a detector: counts it, reports the check,
    /// and builds the alert when the policy `flagged` this detector.
    #[cold]
    fn tainted_pointer(
        &mut self,
        pc: u32,
        instr: Instr,
        reg: Reg,
        kind: AlertKind,
        flagged: bool,
    ) -> Result<(), CpuException> {
        let (value, taint) = self.regs.get(reg);
        self.stats.tainted_pointer_dereferences += 1;
        self.emit_event(&Event::PointerCheck {
            pc,
            instr,
            reg,
            value,
            taint_bits: taint.bits(),
            flagged,
        });
        if !flagged {
            return Ok(());
        }
        self.emit_alert_event(pc, instr, kind, reg, value, taint);
        Err(CpuException::Security(SecurityAlert {
            pc,
            instr,
            kind,
            pointer_reg: reg,
            pointer: value,
            taint,
        }))
    }

    fn emit_alert_event(
        &self,
        pc: u32,
        instr: Instr,
        kind: AlertKind,
        reg: Reg,
        value: u32,
        taint: WordTaint,
    ) {
        self.emit_event(&Event::Alert {
            pc,
            instr,
            kind: kind.name(),
            policy: self.policy.name(),
            reg,
            value,
            taint_bits: taint.bits(),
        });
    }

    /// Emits the in-place untainting a compare applies to an operand
    /// (Table 1's compare rule) so provenance sees the taint disappear.
    fn emit_compare_untaint(&self, pc: u32, instr: Instr, reg: Reg, old_taint: WordTaint) {
        if old_taint.any() {
            self.emit_transfer(
                pc,
                instr,
                "compare-untaint",
                Loc::Reg(reg),
                [Some(Loc::Reg(reg)), None],
                WordTaint::CLEAN,
                &[old_taint],
            );
        }
    }

    fn note_tainted_operands(&mut self, taints: &[WordTaint]) {
        if taints.iter().any(|t| t.any()) {
            self.stats.tainted_operand_instructions += 1;
            self.last_step_tainted = true;
        }
    }

    /// Installs the static analyzer's proven-clean set: instruction
    /// addresses whose pointer-taintedness check can never fire, which the
    /// cached engine then skips ([`ExecStats::elided_checks`] counts them).
    /// Soundness is the analyzer's contract; the machine layer only
    /// installs a set produced for the exact image, policy, and taint
    /// rules being run. Any store into watched text (self-modifying code)
    /// drops the whole set for the rest of the run.
    pub fn install_proven_checks(&mut self, pcs: impl IntoIterator<Item = u32>) {
        self.dcache.install_proven(pcs);
    }

    /// Whether a proven-clean set is installed and still valid (it is
    /// dropped wholesale on the first self-modifying-code invalidation).
    #[must_use]
    pub fn has_proven_checks(&self) -> bool {
        self.dcache.has_proven()
    }

    /// Whether the decode-cache integrity machinery has tripped: all
    /// proofs dropped, elision disabled, every check running in full for
    /// the rest of the run.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Enters degraded mode: drops every cached page and every proof,
    /// bumps [`ExecStats::integrity_failures`], emits a
    /// [`Event::DegradedMode`] trace event, and keeps executing with all
    /// checks in force. Corrupted elision state fails safe, never silent.
    fn degrade(&mut self, reason: &str) {
        self.stats.integrity_failures += 1;
        self.degraded = true;
        self.dcache.degrade();
        if self.observer.is_some() {
            self.emit_event(&Event::DegradedMode {
                reason: reason.to_owned(),
            });
        }
    }

    /// Fault-injection hook: flips one bit in the *primary* ProvenClean
    /// bitmap of a cached decode page, bypassing the replica — modelling a
    /// hardware fault in the elision machinery. Returns a description, or
    /// `None` when nothing is cached yet.
    pub fn corrupt_proven_bit(&mut self, pick: u64, bit: u64) -> Option<String> {
        self.dcache.corrupt_proven_bit(pick, bit)
    }

    /// Fault-injection hook: flips one bit in the pre-extended immediate
    /// of a filled decode-cache slot, bypassing the page checksum. Returns
    /// a description, or `None` when nothing is cached yet.
    pub fn corrupt_decode_slot(&mut self, pick: u64, bit: u64) -> Option<String> {
        self.dcache.corrupt_decode_slot(pick, bit)
    }

    /// Forks the processor: a new [`Cpu`] with identical architectural
    /// state whose memory shares pages copy-on-write with this one
    /// ([`MemorySystem::fork`]). Writes on either side never alias the
    /// other.
    ///
    /// The decode cache is **rebuilt on demand** rather than shared: the
    /// fork starts with no decoded pages and a private copy of the
    /// analyzer's proven-clean set, exactly the state a fresh boot has
    /// after [`Cpu::install_proven_checks`]. Sharing decoded pages would
    /// couple the proof machinery across timelines — a self-modifying
    /// store in one fork must never revoke (or preserve) proofs in
    /// another. Forked from a pre-execution snapshot, the child is
    /// bit-identical to a fresh boot by construction, decode-cache
    /// counters included.
    ///
    /// The observer is deliberately *not* inherited — it is a
    /// single-timeline sink; attach a fresh one to the fork if needed.
    #[must_use]
    pub fn fork(&self) -> Cpu {
        Cpu {
            regs: self.regs.clone(),
            mem: self.mem.fork(),
            pc: self.pc,
            policy: self.policy,
            rules: self.rules,
            watches: self.watches.clone(),
            stats: self.stats,
            recent: self.recent.clone(),
            recent_head: self.recent_head,
            recent_grow_at: self.recent_grow_at,
            trace_depth: self.trace_depth,
            observer: None,
            last_step_tainted: self.last_step_tainted,
            engine: self.engine,
            dcache: self.dcache.fork_rebuild(),
            degraded: self.degraded,
        }
    }

    /// Bookkeeping for a statically elided pointer check. The analyzer
    /// guarantees the checked word is clean here, so skipping the check
    /// cannot change architectural behaviour — asserted in debug builds
    /// and by the machine-level elision differential tests.
    #[inline]
    fn elide_check(&mut self, pc: u32, taint: WordTaint) {
        debug_assert!(
            !taint.any(),
            "elided a pointer check on a tainted word at {pc:#010x}"
        );
        self.stats.elided_checks += 1;
        if self.observer.is_some() {
            self.emit_event(&Event::CheckElided { pc });
        }
    }

    /// Executes one instruction under the active [`Engine`]: the
    /// one-instruction case of [`Cpu::run_steps`], so both share one front
    /// end and one execute site.
    ///
    /// # Errors
    ///
    /// * [`CpuException::Security`] — a pointer-taintedness detector fired;
    /// * [`CpuException::Mem`] — unaligned or null-page access (fetch or
    ///   data);
    /// * [`CpuException::Decode`] — the PC reached an undecodable word.
    pub fn step(&mut self) -> Result<StepEvent, CpuException> {
        self.run_steps(1).1
    }

    /// Executes up to `budget` (at least one) instructions, stopping early
    /// at the first trap or exception. Returns the steps taken, counting the
    /// one that trapped or faulted, with that step's result
    /// ([`StepEvent::Executed`] when the budget ran out; otherwise the trap,
    /// or the exception [`Cpu::step`] documents). Every instruction retires
    /// exactly as if [`Cpu::step`] had been called once per step taken.
    ///
    /// The interpreter fetches and decodes every instruction. The cached
    /// engine runs **page-runs**: its front end drains pending code-page
    /// invalidations, runs the periodic integrity sweep when due, and looks
    /// the PC up in the decode cache. A miss falls back to the
    /// interpreter's fetch+decode (reproducing its exact faults),
    /// predecodes the straight-line block and watches its page. A hit
    /// resolves the page once and then executes consecutive predecoded
    /// slots until the PC leaves the page or is unaligned, a slot is
    /// unfilled, a step traps or faults, a store dirties a watched code
    /// page, the instruction count reaches the next sweep, or the budget
    /// runs out; the next instruction then goes through the front end
    /// again. Either way the execute stage runs from one call site.
    pub fn run_steps(&mut self, budget: u64) -> (u64, Result<StepEvent, CpuException>) {
        debug_assert!(budget >= 1);
        let mut done = 0;
        loop {
            let mut pc = self.pc;
            let hit = if self.engine == Engine::Cached {
                self.cached_decode(pc)
            } else {
                None
            };
            let (mut d, mut elide, page) = match hit {
                Some(hit) => hit,
                None => match self.fetch_decode(pc) {
                    Ok(d) => (d, false, None),
                    Err(e) => return (done + 1, Err(e)),
                },
            };
            // A page-run stops before the instruction count reaches the
            // next multiple of the sweep stride, so the sweep still runs at
            // the top of exactly that instruction.
            let stop = if page.is_some() {
                let to_sweep =
                    INTEGRITY_STRIDE - (self.stats.instructions & (INTEGRITY_STRIDE - 1));
                budget.min(done + to_sweep)
            } else {
                done + 1
            };
            let base = pc & !(PAGE_SIZE - 1);
            loop {
                match self.exec(pc, d, elide) {
                    Ok(StepEvent::Executed) => done += 1,
                    other => return (done + 1, other),
                }
                let Some(idx) = page else { break };
                if done == stop || self.mem.has_dirty_code_pages() {
                    break;
                }
                pc = self.pc;
                // Still aligned and on the resolved page?
                if (pc ^ base) & (!(PAGE_SIZE - 1) | 3) != 0 {
                    break;
                }
                let Some(next) = self.dcache.slot(idx, pc) else {
                    break;
                };
                (d, elide) = next;
                self.stats.decode_cache_hits += 1;
            }
            if done == budget {
                return (done, Ok(StepEvent::Executed));
            }
        }
    }

    /// The cached engine's front end: drains pending code-page
    /// invalidations, runs the periodic integrity sweep, then looks `pc` up
    /// in the decode cache. `None` sends the step down the authoritative
    /// path: a miss, or a hit whose proven-bit replica mismatched. A hit
    /// carries its page's slot-array index when a page-run may continue
    /// from it (the page's proven bitmap agrees with its replica, so no
    /// later slot on it can trip the lookup's cross-check).
    #[inline]
    fn cached_decode(&mut self, pc: u32) -> Option<(DecodedInsn, bool, Option<usize>)> {
        if self.mem.has_dirty_code_pages() {
            self.invalidate_dirty_pages();
        }
        // Periodic integrity sweep: ProvenClean bitmaps (full, against
        // the replica) plus one page's slot checksum per sweep. On a
        // mismatch the cache degrades — proofs dropped, pages refilled
        // from authoritative memory — and execution continues with
        // every check in force.
        if self.stats.instructions & (INTEGRITY_STRIDE - 1) == 0 && self.stats.instructions != 0 {
            if let Some(reason) = self.dcache.verify_sweep() {
                self.degrade(&reason);
            }
        }
        let hit = self.dcache.lookup(pc)?;
        if let Some(reason) = self.dcache.take_compromised() {
            // A proven-bit replica mismatch at lookup: degrade now
            // (dropping this page with the rest) and fall through to the
            // authoritative fetch+decode path.
            self.degrade(&reason);
            return None;
        }
        self.stats.decode_cache_hits += 1;
        Some(hit)
    }

    /// The authoritative fetch+decode path: every step of the interpreter,
    /// a miss of the cached engine (which then fills the block and watches
    /// its page). Checks are never elided here — elision bits live in the
    /// decode cache, so the interpreter stays the unelided oracle.
    fn fetch_decode(&mut self, pc: u32) -> Result<DecodedInsn, CpuException> {
        let word = self.mem.fetch_u32(pc)?;
        let d = DecodedInsn::predecode(pc, word).map_err(|err| CpuException::Decode { pc, err })?;
        if self.engine == Engine::Cached {
            self.stats.decode_cache_misses += 1;
            self.dcache.fill_block(pc, self.mem.memory());
            self.mem.watch_code_page(pc / PAGE_SIZE);
        }
        Ok(d)
    }

    /// Invalidates every decode-cache page the memory system reports as
    /// written since the last drain.
    fn invalidate_dirty_pages(&mut self) {
        for page in self.mem.take_dirty_code_pages() {
            if self.dcache.invalidate(page) {
                self.stats.decode_cache_invalidations += 1;
            }
        }
    }

    /// The execute stage shared by both engines: applies `d` (predecoded at
    /// `pc`) to the architectural and taint state. With `elide` set (cached
    /// engine, statically proven site) the pointer-taintedness check is
    /// skipped; taint *propagation* always runs in full — elision only
    /// removes the detector probe, never the Table 1 dataflow.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn exec(&mut self, pc: u32, d: DecodedInsn, elide: bool) -> Result<StepEvent, CpuException> {
        let instr = d.instr;
        let mut next_pc = pc.wrapping_add(4);
        let mut event = StepEvent::Executed;
        self.last_step_tainted = false;

        match instr {
            Instr::RAlu { op, rd, rs, rt } => {
                let (a, ta) = self.regs.get(rs);
                let (b, tb) = self.regs.get(rt);
                self.note_tainted_operands(&[ta, tb]);
                let value = match op {
                    RAluOp::Add | RAluOp::Addu => a.wrapping_add(b),
                    RAluOp::Sub | RAluOp::Subu => a.wrapping_sub(b),
                    RAluOp::And => a & b,
                    RAluOp::Or => a | b,
                    RAluOp::Xor => a ^ b,
                    RAluOp::Nor => !(a | b),
                    RAluOp::Slt => u32::from((a as i32) < (b as i32)),
                    RAluOp::Sltu => u32::from(a < b),
                };
                let taint = taint_alu::ralu_result_with(self.rules, op, a, ta, b, tb, rs == rt);
                if op.is_compare() && self.rules.compare_untaints && (ta.any() || tb.any()) {
                    // Table 1: compare untaints its operands in place.
                    self.regs.set_taint(rs, taint_alu::compare_operand_taint());
                    self.regs.set_taint(rt, taint_alu::compare_operand_taint());
                    self.emit_compare_untaint(pc, instr, rs, ta);
                    self.emit_compare_untaint(pc, instr, rt, tb);
                }
                self.regs.set(rd, value, taint);
                self.emit_transfer(
                    pc,
                    instr,
                    taint_alu::ralu_rule(self.rules, op, rs == rt),
                    Loc::Reg(rd),
                    [Some(Loc::Reg(rs)), Some(Loc::Reg(rt))],
                    taint,
                    &[ta, tb],
                );
            }
            Instr::IAlu { op, rt, rs, .. } => {
                let (a, ta) = self.regs.get(rs);
                self.note_tainted_operands(&[ta]);
                // Sign/zero extension was done at predecode time.
                let ext: u32 = d.imm;
                let value = match op {
                    IAluOp::Addi | IAluOp::Addiu => a.wrapping_add(ext),
                    IAluOp::Slti => u32::from((a as i32) < (ext as i32)),
                    IAluOp::Sltiu => u32::from(a < ext),
                    IAluOp::Andi => a & ext,
                    IAluOp::Ori => a | ext,
                    IAluOp::Xori => a ^ ext,
                };
                let taint = taint_alu::ialu_result_with(self.rules, op, a, ta, ext);
                if op.is_compare() && self.rules.compare_untaints && ta.any() {
                    self.regs.set_taint(rs, taint_alu::compare_operand_taint());
                    self.emit_compare_untaint(pc, instr, rs, ta);
                }
                self.regs.set(rt, value, taint);
                self.emit_transfer(
                    pc,
                    instr,
                    taint_alu::ialu_rule(self.rules, op),
                    Loc::Reg(rt),
                    [Some(Loc::Reg(rs)), None],
                    taint,
                    &[ta],
                );
            }
            Instr::Shift { op, rd, rt, shamt } => {
                let (v, tv) = self.regs.get(rt);
                self.note_tainted_operands(&[tv]);
                let value = shift_value(op, v, u32::from(shamt));
                let taint = taint_alu::shift_result_with(self.rules, op, tv, WordTaint::CLEAN);
                self.regs.set(rd, value, taint);
                self.emit_transfer(
                    pc,
                    instr,
                    taint_alu::shift_rule(self.rules, op),
                    Loc::Reg(rd),
                    [Some(Loc::Reg(rt)), None],
                    taint,
                    &[tv],
                );
            }
            Instr::ShiftV { op, rd, rt, rs } => {
                let (v, tv) = self.regs.get(rt);
                let (amt, tamt) = self.regs.get(rs);
                self.note_tainted_operands(&[tv, tamt]);
                let value = shift_value(op, v, amt & 0x1f);
                let taint = taint_alu::shift_result_with(self.rules, op, tv, tamt);
                self.regs.set(rd, value, taint);
                self.emit_transfer(
                    pc,
                    instr,
                    taint_alu::shift_rule(self.rules, op),
                    Loc::Reg(rd),
                    [Some(Loc::Reg(rt)), Some(Loc::Reg(rs))],
                    taint,
                    &[tv, tamt],
                );
            }
            Instr::Lui { rt, .. } => {
                // A program constant, pre-shifted at predecode time:
                // untainted (paper §4.2).
                self.regs.set(rt, d.imm, WordTaint::CLEAN);
            }
            Instr::MulDiv { op, rs, rt } => {
                let (a, ta) = self.regs.get(rs);
                let (b, tb) = self.regs.get(rt);
                self.note_tainted_operands(&[ta, tb]);
                let taint = taint_alu::generic(ta, tb);
                match op {
                    MulDivOp::Mult => {
                        let prod = i64::from(a as i32).wrapping_mul(i64::from(b as i32)) as u64;
                        self.regs.set_lo(prod as u32, taint);
                        self.regs.set_hi((prod >> 32) as u32, taint);
                    }
                    MulDivOp::Multu => {
                        let prod = u64::from(a).wrapping_mul(u64::from(b));
                        self.regs.set_lo(prod as u32, taint);
                        self.regs.set_hi((prod >> 32) as u32, taint);
                    }
                    MulDivOp::Div => {
                        // Division by zero is architecturally undefined on
                        // MIPS; we pick the common emulator convention.
                        if b == 0 {
                            self.regs.set_lo(u32::MAX, taint);
                            self.regs.set_hi(a, taint);
                        } else {
                            let (a, b) = (a as i32, b as i32);
                            self.regs.set_lo(a.wrapping_div(b) as u32, taint);
                            self.regs.set_hi(a.wrapping_rem(b) as u32, taint);
                        }
                    }
                    MulDivOp::Divu => match (a.checked_div(b), a.checked_rem(b)) {
                        (Some(q), Some(r)) => {
                            self.regs.set_lo(q, taint);
                            self.regs.set_hi(r, taint);
                        }
                        _ => {
                            self.regs.set_lo(u32::MAX, taint);
                            self.regs.set_hi(a, taint);
                        }
                    },
                }
                self.emit_transfer(
                    pc,
                    instr,
                    "generic",
                    Loc::HiLo,
                    [Some(Loc::Reg(rs)), Some(Loc::Reg(rt))],
                    taint,
                    &[ta, tb],
                );
            }
            Instr::MoveFromHi { rd } => {
                let (v, t) = self.regs.hi();
                self.regs.set(rd, v, t);
                self.emit_transfer(
                    pc,
                    instr,
                    "move",
                    Loc::Reg(rd),
                    [Some(Loc::HiLo), None],
                    t,
                    &[t],
                );
            }
            Instr::MoveFromLo { rd } => {
                let (v, t) = self.regs.lo();
                self.regs.set(rd, v, t);
                self.emit_transfer(
                    pc,
                    instr,
                    "move",
                    Loc::Reg(rd),
                    [Some(Loc::HiLo), None],
                    t,
                    &[t],
                );
            }
            Instr::MoveToHi { rs } => {
                let (v, t) = self.regs.get(rs);
                self.regs.set_hi(v, t);
                self.emit_transfer(
                    pc,
                    instr,
                    "move",
                    Loc::HiLo,
                    [Some(Loc::Reg(rs)), None],
                    t,
                    &[t],
                );
            }
            Instr::MoveToLo { rs } => {
                let (v, t) = self.regs.get(rs);
                self.regs.set_lo(v, t);
                self.emit_transfer(
                    pc,
                    instr,
                    "move",
                    Loc::HiLo,
                    [Some(Loc::Reg(rs)), None],
                    t,
                    &[t],
                );
            }
            Instr::Load {
                width,
                signed,
                rt,
                base,
                ..
            } => {
                self.stats.loads += 1;
                let (bv, bt) = self.regs.get(base);
                self.note_tainted_operands(&[bt]);
                if elide {
                    self.elide_check(pc, bt);
                } else {
                    self.check_data_pointer(pc, instr, base)?;
                }
                let addr = bv.wrapping_add(d.imm);
                let (value, taint) = match width {
                    MemWidth::Byte => {
                        let (b, t) = self.mem.read_u8(addr)?;
                        let v = if signed {
                            b as i8 as i32 as u32
                        } else {
                            u32::from(b)
                        };
                        (v, WordTaint::CLEAN.with_byte(0, t))
                    }
                    MemWidth::Half => {
                        let (h, t) = self.mem.read_u16(addr)?;
                        let v = if signed {
                            h as i16 as i32 as u32
                        } else {
                            u32::from(h)
                        };
                        (v, t)
                    }
                    MemWidth::Word => self.mem.read_u32(addr)?,
                };
                let result_taint = taint_alu::load_result(width, signed, taint);
                self.regs.set(rt, value, result_taint);
                self.emit_transfer(
                    pc,
                    instr,
                    "load",
                    Loc::Reg(rt),
                    [Some(Loc::Mem(addr)), None],
                    result_taint,
                    &[taint],
                );
            }
            Instr::Store {
                width, rt, base, ..
            } => {
                self.stats.stores += 1;
                let (bv, bt) = self.regs.get(base);
                let (v, tv) = self.regs.get(rt);
                self.note_tainted_operands(&[bt, tv]);
                if elide {
                    self.elide_check(pc, bt);
                } else {
                    self.check_data_pointer(pc, instr, base)?;
                }
                let addr = bv.wrapping_add(d.imm);
                let stored_taint = match width {
                    MemWidth::Byte => {
                        self.mem.write_u8(addr, v as u8, tv.byte(0))?;
                        WordTaint::from_bits(tv.bits() & 1)
                    }
                    MemWidth::Half => {
                        self.mem.write_u16(addr, v as u16, tv.low_half())?;
                        tv.low_half()
                    }
                    MemWidth::Word => {
                        self.mem.write_u32(addr, v, tv)?;
                        tv
                    }
                };
                self.emit_transfer(
                    pc,
                    instr,
                    "store",
                    Loc::Mem(addr),
                    [Some(Loc::Reg(rt)), None],
                    stored_taint,
                    &[tv],
                );
                // §5.3 extension: annotated regions must never become
                // tainted. Only stores of tainted data can violate this.
                if tv.any() && !self.watches.is_empty() {
                    if let Some(alert) = self.scan_taint_watches(pc, instr) {
                        return Err(CpuException::Security(alert));
                    }
                }
            }
            Instr::Branch { cond, rs, rt, .. } => {
                self.stats.branches += 1;
                let (a, ta) = self.regs.get(rs);
                let (b, tb) = self.regs.get(rt);
                self.note_tainted_operands(&[ta, tb]);
                // Branches are compare instructions: untaint the operands.
                // (Clean operands need no write — the common case.)
                if self.rules.compare_untaints && (ta.any() || tb.any()) {
                    self.regs.set_taint(rs, taint_alu::compare_operand_taint());
                    self.regs.set_taint(rt, taint_alu::compare_operand_taint());
                    self.emit_compare_untaint(pc, instr, rs, ta);
                    self.emit_compare_untaint(pc, instr, rt, tb);
                }
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                };
                if taken {
                    // Target computed at predecode time.
                    next_pc = d.target;
                }
            }
            Instr::BranchZ { cond, rs, .. } => {
                self.stats.branches += 1;
                let (a, ta) = self.regs.get(rs);
                self.note_tainted_operands(&[ta]);
                if self.rules.compare_untaints && ta.any() {
                    self.regs.set_taint(rs, taint_alu::compare_operand_taint());
                    self.emit_compare_untaint(pc, instr, rs, ta);
                }
                let a = a as i32;
                let taken = match cond {
                    BranchZCond::Lez => a <= 0,
                    BranchZCond::Gtz => a > 0,
                    BranchZCond::Ltz => a < 0,
                    BranchZCond::Gez => a >= 0,
                };
                if taken {
                    next_pc = d.target;
                }
            }
            Instr::Jump { link, .. } => {
                if link {
                    self.regs.set(Reg::RA, pc.wrapping_add(4), WordTaint::CLEAN);
                }
                next_pc = d.target;
            }
            Instr::JumpReg { rs } => {
                self.stats.register_jumps += 1;
                let (_, t) = self.regs.get(rs);
                self.note_tainted_operands(&[t]);
                if elide {
                    self.elide_check(pc, t);
                } else {
                    self.check_jump_pointer(pc, instr, rs)?;
                }
                next_pc = self.regs.value(rs);
            }
            Instr::JumpAndLinkReg { rd, rs } => {
                self.stats.register_jumps += 1;
                let (_, t) = self.regs.get(rs);
                self.note_tainted_operands(&[t]);
                if elide {
                    self.elide_check(pc, t);
                } else {
                    self.check_jump_pointer(pc, instr, rs)?;
                }
                next_pc = self.regs.value(rs);
                self.regs.set(rd, pc.wrapping_add(4), WordTaint::CLEAN);
            }
            Instr::Syscall => {
                self.stats.syscalls += 1;
                event = StepEvent::SyscallTrap;
            }
            Instr::Break { code } => {
                event = StepEvent::BreakTrap(code);
            }
        }

        self.stats.instructions += 1;
        self.push_trace(pc, instr);
        self.pc = next_pc;
        if self.observer.is_some() {
            self.emit_event(&Event::Retire {
                pc,
                instr,
                tainted: self.last_step_tainted,
            });
        }
        Ok(event)
    }
}

fn shift_value(op: ptaint_isa::ShiftOp, v: u32, amount: u32) -> u32 {
    use ptaint_isa::ShiftOp;
    match op {
        ShiftOp::Sll => v << amount,
        ShiftOp::Srl => v >> amount,
        ShiftOp::Sra => ((v as i32) >> amount) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_asm::assemble;
    use ptaint_isa::TEXT_BASE;

    /// Assembles `src`, loads it flat, returns a CPU at its entry.
    fn boot(src: &str, policy: DetectionPolicy) -> Cpu {
        let image = assemble(src).expect("test program must assemble");
        let mut mem = MemorySystem::flat();
        for (i, &w) in image.text.iter().enumerate() {
            mem.write_u32(image.text_base + 4 * i as u32, w, WordTaint::CLEAN)
                .unwrap();
        }
        mem.write_bytes(image.data_base, &image.data, false)
            .unwrap();
        let mut cpu = Cpu::new(mem, policy);
        cpu.set_pc(image.entry);
        cpu
    }

    /// Steps until a break trap, a limit, or an exception.
    fn run(cpu: &mut Cpu, limit: u64) -> Result<u32, CpuException> {
        for _ in 0..limit {
            match cpu.step()? {
                StepEvent::BreakTrap(code) => return Ok(code),
                StepEvent::SyscallTrap | StepEvent::Executed => {}
            }
        }
        panic!("program did not finish within {limit} steps");
    }

    /// Like [`run`], but hands [`Cpu::run_steps`] the whole remaining
    /// budget each time, so the cached engine runs page-runs.
    fn run_batched(cpu: &mut Cpu, limit: u64) -> Result<u32, CpuException> {
        let mut left = limit;
        while left > 0 {
            let (ran, result) = cpu.run_steps(left);
            left -= ran;
            if let StepEvent::BreakTrap(code) = result? {
                return Ok(code);
            }
        }
        panic!("program did not finish within {limit} steps");
    }

    type Driver = fn(&mut Cpu, u64) -> Result<u32, CpuException>;

    /// Per-step [`Cpu::step`] and batched [`Cpu::run_steps`].
    const DRIVERS: [(&str, Driver); 2] = [("step", run), ("run_steps", run_batched)];

    #[test]
    fn arithmetic_executes() {
        let mut cpu = boot(
            "main: li $t0, 6
                   li $t1, 7
                   addu $t2, $t0, $t1
                   mult $t0, $t1
                   mflo $t3
                   break 0",
            DetectionPolicy::PointerTaintedness,
        );
        run(&mut cpu, 100).unwrap();
        assert_eq!(cpu.regs().value(Reg::T2), 13);
        assert_eq!(cpu.regs().value(Reg::T3), 42);
    }

    #[test]
    fn loops_and_branches() {
        // sum 1..=10
        let mut cpu = boot(
            "main:  li $t0, 0      # i
                    li $t1, 0      # sum
loop:               addiu $t0, $t0, 1
                    addu $t1, $t1, $t0
                    li $t2, 10
                    bne $t0, $t2, loop
                    break 0",
            DetectionPolicy::PointerTaintedness,
        );
        run(&mut cpu, 1000).unwrap();
        assert_eq!(cpu.regs().value(Reg::T1), 55);
        assert!(cpu.stats().branches >= 10);
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut cpu = boot(
            ".data
buf:    .space 16
        .text
main:   la $t0, buf
        li $t1, 0x12345678
        sw $t1, 4($t0)
        lw $t2, 4($t0)
        lbu $t3, 4($t0)
        lb  $t4, 7($t0)
        break 0",
            DetectionPolicy::PointerTaintedness,
        );
        run(&mut cpu, 100).unwrap();
        assert_eq!(cpu.regs().value(Reg::T2), 0x12345678);
        assert_eq!(cpu.regs().value(Reg::T3), 0x78);
        assert_eq!(cpu.regs().value(Reg::T4), 0x12);
    }

    #[test]
    fn function_call_and_return() {
        let mut cpu = boot(
            "main:   jal f
                    break 0
f:      li $v0, 99
        jr $ra",
            DetectionPolicy::PointerTaintedness,
        );
        run(&mut cpu, 100).unwrap();
        assert_eq!(cpu.regs().value(Reg::V0), 99);
        assert_eq!(cpu.stats().register_jumps, 1);
    }

    #[test]
    fn taint_propagates_through_alu_chain() {
        let mut cpu = boot(
            "main: addu $t1, $t0, $zero    # copy tainted t0
                   addiu $t2, $t1, 4
                   sll $t3, $t2, 2
                   break 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 0x100, WordTaint::ALL);
        run(&mut cpu, 100).unwrap();
        assert_eq!(cpu.regs().taint(Reg::T1), WordTaint::ALL);
        assert_eq!(cpu.regs().taint(Reg::T2), WordTaint::ALL);
        assert_eq!(cpu.regs().taint(Reg::T3), WordTaint::ALL);
        assert!(cpu.stats().tainted_operand_instructions >= 3);
    }

    #[test]
    fn tainted_load_address_raises_alert() {
        let mut cpu = boot(
            "main: lw $t1, 0($t0)\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 0x6161_6161, WordTaint::ALL);
        let err = run(&mut cpu, 10).unwrap_err();
        match err {
            CpuException::Security(alert) => {
                assert_eq!(alert.kind, AlertKind::DataPointer);
                assert_eq!(alert.pointer, 0x6161_6161);
                assert_eq!(alert.pc, TEXT_BASE);
                assert_eq!(alert.instr.to_string(), "lw $9,0($8)");
            }
            other => panic!("expected security exception, got {other:?}"),
        }
    }

    #[test]
    fn tainted_store_address_raises_alert() {
        let mut cpu = boot(
            "main: sw $t1, 0($t0)\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut()
            .set(Reg::T0, 0x1002_bc20, WordTaint::from_bits(0b0001));
        let err = run(&mut cpu, 10).unwrap_err();
        assert!(matches!(
            err,
            CpuException::Security(SecurityAlert {
                kind: AlertKind::DataPointer,
                pointer: 0x1002_bc20,
                ..
            })
        ));
    }

    #[test]
    fn partially_tainted_pointer_still_detected() {
        // Even a single tainted byte in the address word trips the OR-gate.
        let mut cpu = boot(
            "main: lb $t1, 0($t0)\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut()
            .set(Reg::T0, 0x1000_0000, WordTaint::from_bits(0b0100));
        assert!(matches!(run(&mut cpu, 10), Err(CpuException::Security(_))));
    }

    #[test]
    fn tainted_jump_target_raises_alert_under_both_policies() {
        for policy in [
            DetectionPolicy::PointerTaintedness,
            DetectionPolicy::ControlOnly,
        ] {
            let mut cpu = boot("main: jr $t0\nbreak 0", policy);
            cpu.regs_mut().set(Reg::T0, 0x6161_6161, WordTaint::ALL);
            let err = run(&mut cpu, 10).unwrap_err();
            assert!(
                matches!(
                    err,
                    CpuException::Security(SecurityAlert {
                        kind: AlertKind::JumpPointer,
                        ..
                    })
                ),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn control_only_policy_misses_data_pointer_attacks() {
        let mut cpu = boot(
            ".data
scratch: .space 64
        .text
main:   sw $t1, 0($t0)
        break 0",
            DetectionPolicy::ControlOnly,
        );
        cpu.regs_mut()
            .set(Reg::T0, ptaint_isa::DATA_BASE, WordTaint::ALL);
        // No alert: the store silently lands.
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.stats().tainted_pointer_dereferences, 1);
    }

    #[test]
    fn off_policy_detects_nothing() {
        let mut cpu = boot("main: jr $t0", DetectionPolicy::Off);
        cpu.regs_mut().set(Reg::T0, TEXT_BASE, WordTaint::ALL); // jump to self: fine
        cpu.step().unwrap();
        assert_eq!(cpu.pc(), TEXT_BASE);
        assert_eq!(cpu.stats().tainted_pointer_dereferences, 1);
    }

    #[test]
    fn compare_untaints_operands_in_register_file() {
        let mut cpu = boot(
            "main: slt $t2, $t0, $t1\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 5, WordTaint::ALL);
        cpu.regs_mut().set(Reg::T1, 9, WordTaint::ALL);
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().taint(Reg::T0), WordTaint::CLEAN);
        assert_eq!(cpu.regs().taint(Reg::T1), WordTaint::CLEAN);
        assert_eq!(cpu.regs().taint(Reg::T2), WordTaint::CLEAN);
        assert_eq!(cpu.regs().value(Reg::T2), 1);
    }

    #[test]
    fn branch_untaints_compared_registers() {
        let mut cpu = boot(
            "main: beq $t0, $t1, out\nout: break 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 1, WordTaint::ALL);
        cpu.regs_mut().set(Reg::T1, 2, WordTaint::ALL);
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().taint(Reg::T0), WordTaint::CLEAN);
        assert_eq!(cpu.regs().taint(Reg::T1), WordTaint::CLEAN);
    }

    #[test]
    fn xor_zero_idiom_untaints() {
        let mut cpu = boot(
            "main: xor $t1, $t0, $t0\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 0x4141_4141, WordTaint::ALL);
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().get(Reg::T1), (0, WordTaint::CLEAN));
    }

    #[test]
    fn and_mask_untaints_constant_zero_bytes() {
        let mut cpu = boot(
            "main: li $t1, 0xff
                   and $t2, $t0, $t1
                   lw $t3, 0($t2)      # would alert if $t2 were tainted beyond byte 0
                   break 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 0x4141_4141, WordTaint::ALL);
        // $t2 = 0x41 with only byte 0 tainted -> still tainted -> alert expected.
        let err = run(&mut cpu, 10).unwrap_err();
        assert!(matches!(err, CpuException::Security(_)));
        // But the upper three bytes were untainted by the mask:
        // re-run and inspect the taint before the load.
        let mut cpu2 = boot(
            "main: li $t1, 0xff\nand $t2, $t0, $t1\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu2.regs_mut().set(Reg::T0, 0x4141_4141, WordTaint::ALL);
        run(&mut cpu2, 10).unwrap();
        assert_eq!(cpu2.regs().taint(Reg::T2).bits(), 0b0001);
    }

    #[test]
    fn loads_copy_memory_taint() {
        let mut cpu = boot(
            ".data
buf:    .space 8
        .text
main:   la $t0, buf
        lw $t1, 0($t0)
        lb $t2, 0($t0)
        lbu $t3, 0($t0)
        break 0",
            DetectionPolicy::PointerTaintedness,
        );
        // Taint the buffer as if recv() had filled it.
        let buf = ptaint_isa::DATA_BASE;
        cpu.mem_mut()
            .write_bytes(buf, &[0x80, 0, 0, 0], true)
            .unwrap();
        run(&mut cpu, 100).unwrap();
        assert_eq!(cpu.regs().taint(Reg::T1), WordTaint::ALL);
        // lb sign-extends: all four bytes derived from the tainted byte.
        assert_eq!(cpu.regs().taint(Reg::T2), WordTaint::ALL);
        assert_eq!(cpu.regs().value(Reg::T2), 0xffff_ff80);
        // lbu zero-extends: only byte 0 tainted.
        assert_eq!(cpu.regs().taint(Reg::T3).bits(), 0b0001);
    }

    #[test]
    fn stores_write_taint_to_memory() {
        let mut cpu = boot(
            ".data
buf:    .space 8
        .text
main:   la $t0, buf
        sw $t1, 0($t0)
        sb $t1, 4($t0)
        break 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut()
            .set(Reg::T1, 0xaabb_ccdd, WordTaint::from_bits(0b0011));
        run(&mut cpu, 100).unwrap();
        let buf = ptaint_isa::DATA_BASE;
        let taint = cpu.mem().read_taint(buf, 5).unwrap();
        assert_eq!(taint, vec![true, true, false, false, true]);
    }

    #[test]
    fn syscall_traps_and_resumes() {
        let mut cpu = boot(
            "main: li $v0, 42\nsyscall\nmove $t0, $v0\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        assert!(matches!(cpu.step().unwrap(), StepEvent::Executed));
        assert!(matches!(cpu.step().unwrap(), StepEvent::SyscallTrap));
        // Host handles the syscall: writes a result.
        cpu.regs_mut().set(Reg::V0, 7, WordTaint::CLEAN);
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().value(Reg::T0), 7);
        assert_eq!(cpu.stats().syscalls, 1);
    }

    #[test]
    fn null_dereference_faults() {
        let mut cpu = boot("main: lw $t0, 0($zero)\nbreak 0", DetectionPolicy::Off);
        assert!(matches!(run(&mut cpu, 10), Err(CpuException::Mem(_))));
    }

    #[test]
    fn undecodable_pc_reports_decode_error() {
        let mut mem = MemorySystem::flat();
        mem.write_u32(TEXT_BASE, 0xffff_ffff, WordTaint::CLEAN)
            .unwrap();
        let mut cpu = Cpu::new(mem, DetectionPolicy::PointerTaintedness);
        cpu.set_pc(TEXT_BASE);
        assert!(matches!(
            cpu.step(),
            Err(CpuException::Decode { pc: TEXT_BASE, .. })
        ));
    }

    #[test]
    fn recent_trace_keeps_tail() {
        let mut cpu = boot(
            "main: li $t0, 1\nli $t1, 2\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        run(&mut cpu, 10).unwrap();
        let trace = cpu.recent_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].0, TEXT_BASE);
    }

    #[test]
    fn cached_engine_is_the_default_and_counts_cache_traffic() {
        let mut cpu = boot(
            "main: li $t0, 1\nli $t1, 2\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        assert_eq!(cpu.engine(), Engine::Cached);
        run(&mut cpu, 10).unwrap();
        let stats = cpu.stats();
        assert_eq!(stats.decode_cache_misses, 1, "one block predecode");
        assert_eq!(
            stats.decode_cache_hits,
            stats.instructions - 1,
            "everything after the first step dispatches from the cache"
        );

        let mut interp = boot(
            "main: li $t0, 1\nli $t1, 2\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        interp.set_engine(Engine::Interp);
        run(&mut interp, 10).unwrap();
        assert_eq!(interp.stats().decode_cache_hits, 0);
        assert_eq!(interp.stats().decode_cache_misses, 0);
        assert_eq!(
            interp.stats().without_decode_cache(),
            cpu.stats().without_decode_cache()
        );
    }

    /// Self-modifying code: a store into a text page must invalidate the
    /// decode cache and force a re-decode of the patched word — also when
    /// the store lands inside a running page-run.
    #[test]
    fn store_into_text_invalidates_decode_cache() {
        // The patch turns `li $t2, 1` (at label `patch`) into
        // `addiu $t2, $zero, 99`; executing a stale decode would leave 1.
        let src = format!(
            "main:   la $t0, patch
                     li $t1, 0x{:08x}
                     sw $t1, 0($t0)
            patch:   li $t2, 1
                     break 0",
            patch_t2_99()
        );
        for (how, drive) in DRIVERS {
            let mut cpu = boot(&src, DetectionPolicy::PointerTaintedness);
            drive(&mut cpu, 100).unwrap();
            assert_eq!(
                cpu.regs().value(Reg::T2),
                99,
                "{how}: the patched instruction must execute, not the stale decode"
            );
            let stats = cpu.stats();
            assert!(stats.decode_cache_invalidations >= 1, "{how}: {stats:?}");
            assert!(
                stats.decode_cache_misses >= 2,
                "{how}: re-decode after the patch"
            );
            assert!(stats.decode_cache_hits >= 1, "{how}");

            // The interpreter is the oracle: same program, same result.
            let mut interp = boot(&src, DetectionPolicy::PointerTaintedness);
            interp.set_engine(Engine::Interp);
            drive(&mut interp, 100).unwrap();
            assert_eq!(interp.regs().value(Reg::T2), 99, "{how}");
            assert_eq!(
                interp.stats().without_decode_cache(),
                cpu.stats().without_decode_cache(),
                "{how}"
            );
        }
    }

    /// `addiu $t2, $zero, 99`, the word the self-modifying tests store.
    fn patch_t2_99() -> u32 {
        Instr::IAlu {
            op: IAluOp::Addiu,
            rt: Reg::T2,
            rs: Reg::ZERO,
            imm: 99,
        }
        .encode()
    }

    /// A store that patches the very next word while a page-run is well
    /// under way (a loop has been dispatching from the cached page) must
    /// end the run: the patched word executes under both engines, and the
    /// batched run retires exactly what per-step execution retires.
    #[test]
    fn smc_patch_of_the_next_word_mid_page_run() {
        let src = format!(
            "main:   la $t0, patch
                     li $t1, 0x{:08x}
                     li $t3, 0
                     li $t4, 5
            warm:    addiu $t3, $t3, 1
                     bne $t3, $t4, warm
                     sw $t1, 0($t0)
            patch:   li $t2, 1
                     break 0",
            patch_t2_99()
        );
        for engine in [Engine::Cached, Engine::Interp] {
            let mut stepped = boot(&src, DetectionPolicy::PointerTaintedness);
            stepped.set_engine(engine);
            run(&mut stepped, 100).unwrap();
            let mut batched = boot(&src, DetectionPolicy::PointerTaintedness);
            batched.set_engine(engine);
            let (ran, result) = batched.run_steps(100);
            assert_eq!(result, Ok(StepEvent::BreakTrap(0)), "{engine:?}");
            assert_eq!(ran, stepped.stats().instructions, "{engine:?}");
            assert_eq!(batched.regs().value(Reg::T2), 99, "{engine:?}");
            assert_eq!(batched.regs(), stepped.regs(), "{engine:?}");
            assert_eq!(batched.stats(), stepped.stats(), "{engine:?}");
        }
    }

    /// Elision skips the check probe at proven sites without disturbing
    /// anything architectural: a run with every site proven matches a run
    /// with no proven set, modulo the engine-activity counters.
    #[test]
    fn proven_sites_elide_checks_without_changing_state() {
        let src = ".data
buf:    .space 8
        .text
main:   la $t0, buf
        li $t2, 0
loop:   lw $t1, 0($t0)
        sw $t2, 4($t0)
        addiu $t2, $t2, 1
        li $t3, 5
        bne $t2, $t3, loop
        break 0";
        let image = assemble(src).expect("test program must assemble");
        let every_pc: Vec<u32> = (0..image.text.len() as u32)
            .map(|i| image.text_base + 4 * i)
            .collect();

        let mut elided = boot(src, DetectionPolicy::PointerTaintedness);
        elided.install_proven_checks(every_pc);
        assert!(elided.has_proven_checks());
        run(&mut elided, 100).unwrap();
        // Iterations after the block predecode dispatch from the cache and
        // skip both the load and the store check.
        assert!(elided.stats().elided_checks >= 4, "{:?}", elided.stats());

        let mut full = boot(src, DetectionPolicy::PointerTaintedness);
        run(&mut full, 100).unwrap();
        assert_eq!(full.stats().elided_checks, 0);
        assert_eq!(
            full.stats().without_decode_cache(),
            elided.stats().without_decode_cache()
        );
        assert_eq!(full.regs().value(Reg::T1), elided.regs().value(Reg::T1));
    }

    /// A store into text drops the whole proven set: static analysis only
    /// described the original image, so after self-modification every check
    /// must run again (and refills never re-prove).
    #[test]
    fn smc_store_drops_all_proven_sites() {
        let src = format!(
            "main:   la $t0, patch
                     li $t1, 0x{:08x}
                     sw $t1, 0($t0)
            patch:   li $t2, 1
                     break 0",
            patch_t2_99()
        );
        let image = assemble(&src).expect("test program must assemble");
        let every_pc: Vec<u32> = (0..image.text.len() as u32)
            .map(|i| image.text_base + 4 * i)
            .collect();

        for (how, drive) in DRIVERS {
            let mut cpu = boot(&src, DetectionPolicy::PointerTaintedness);
            cpu.install_proven_checks(every_pc.iter().copied());
            drive(&mut cpu, 100).unwrap();
            assert_eq!(
                cpu.regs().value(Reg::T2),
                99,
                "{how}: patched word must execute"
            );
            assert!(
                !cpu.has_proven_checks(),
                "{how}: self-modification must wipe the proven set"
            );
            assert!(cpu.stats().decode_cache_invalidations >= 1, "{how}");

            // Still architecturally identical to the uninstrumented run.
            let mut full = boot(&src, DetectionPolicy::PointerTaintedness);
            drive(&mut full, 100).unwrap();
            assert_eq!(
                full.stats().without_decode_cache(),
                cpu.stats().without_decode_cache(),
                "{how}"
            );
        }
    }

    /// `recent_trace` keeps exactly the last `depth` retires — the tail a
    /// plain bounded queue keeps — through shrinks and grows of the depth
    /// mid-run, through forks, and through batched runs.
    #[test]
    fn recent_trace_is_the_last_depth_retires() {
        use std::collections::VecDeque;
        let src = "main:  li $t0, 0
                          li $t1, 60
                   loop:  addiu $t0, $t0, 1
                          sll $t2, $t0, 2
                          bne $t0, $t1, loop
                          break 0";
        for depth in [1, 5, 64, 100] {
            let mut cpu = boot(src, DetectionPolicy::PointerTaintedness);
            cpu.set_trace_depth(depth);
            let mut model = VecDeque::new();
            let mut model_depth = depth;
            for step in 0..150 {
                match step {
                    // Shrink, then grow, mid-run.
                    60 => model_depth = (depth / 3).max(1),
                    110 => model_depth = depth * 2,
                    _ => {}
                }
                if cpu.trace_depth() != model_depth {
                    cpu.set_trace_depth(model_depth);
                    while model.len() > model_depth {
                        model.pop_front();
                    }
                }
                let pc = cpu.pc();
                let word = cpu.mem().memory().read_u32(pc).unwrap().0;
                cpu.step().unwrap();
                model.push_back((pc, Instr::decode(word).unwrap()));
                if model.len() > model_depth {
                    model.pop_front();
                }
                assert_eq!(
                    cpu.recent_trace(),
                    Vec::from(model.clone()),
                    "depth {depth}"
                );
            }
            // A fork carries the ring and keeps it independent.
            let mut child = cpu.fork();
            assert_eq!(child.recent_trace(), cpu.recent_trace(), "depth {depth}");
            run_batched(&mut child, 1000).unwrap();
            run_batched(&mut cpu, 1000).unwrap();
            assert_eq!(child.recent_trace(), cpu.recent_trace(), "depth {depth}");
        }
    }

    #[test]
    fn a_huge_trace_depth_allocates_only_what_retires() {
        let mut cpu = boot(
            "main: li $t0, 1\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.set_trace_depth(1 << 40);
        run_batched(&mut cpu, 10).unwrap();
        assert_eq!(cpu.recent_trace().len(), 2);
        assert!(cpu.recent.capacity() <= 16, "{}", cpu.recent.capacity());
    }

    #[test]
    fn sra_vs_srl_semantics() {
        let mut cpu = boot(
            "main: li $t0, 0x80000000
                   sra $t1, $t0, 4
                   srl $t2, $t0, 4
                   break 0",
            DetectionPolicy::PointerTaintedness,
        );
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().value(Reg::T1), 0xf800_0000);
        assert_eq!(cpu.regs().value(Reg::T2), 0x0800_0000);
    }

    #[test]
    fn division_semantics_and_taint() {
        let mut cpu = boot(
            "main: li $t0, -7
                   li $t1, 2
                   div $t0, $t1
                   mflo $t2     # -3
                   mfhi $t3     # -1
                   break 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set_taint(Reg::T0, WordTaint::ALL);
        // note: li overwrote the taint; retaint after the li executes instead
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().value(Reg::T2) as i32, -3);
        assert_eq!(cpu.regs().value(Reg::T3) as i32, -1);

        // Tainted dividend taints both HI and LO.
        let mut cpu = boot(
            "main: divu $t0, $t1\nmflo $t2\nmfhi $t3\nbreak 0",
            DetectionPolicy::PointerTaintedness,
        );
        cpu.regs_mut().set(Reg::T0, 10, WordTaint::ALL);
        cpu.regs_mut().set(Reg::T1, 3, WordTaint::CLEAN);
        run(&mut cpu, 10).unwrap();
        assert_eq!(cpu.regs().value(Reg::T2), 3);
        assert_eq!(cpu.regs().value(Reg::T3), 1);
        assert_eq!(cpu.regs().taint(Reg::T2), WordTaint::ALL);
        assert_eq!(cpu.regs().taint(Reg::T3), WordTaint::ALL);
    }

    #[test]
    fn fork_runs_bit_identical_to_source() {
        let src = "main:  li $t0, 0
                          li $t1, 0
        loop:             addiu $t0, $t0, 1
                          addu $t1, $t1, $t0
                          li $t2, 25
                          bne $t0, $t2, loop
                          break 0";
        let cpu = boot(src, DetectionPolicy::PointerTaintedness);
        let mut fresh = boot(src, DetectionPolicy::PointerTaintedness);
        let mut child = cpu.fork();
        run(&mut child, 1000).unwrap();
        run(&mut fresh, 1000).unwrap();
        assert_eq!(child.regs(), fresh.regs());
        assert_eq!(child.pc(), fresh.pc());
        // From a pre-execution fork even the decode-cache counters match a
        // fresh boot: the fork rebuilds its cache on demand.
        assert_eq!(child.stats(), fresh.stats());
        assert_eq!(child.recent_trace(), fresh.recent_trace());
    }

    #[test]
    fn fork_stores_never_alias_the_parent() {
        let mut cpu = boot(
            ".data
        buf:    .space 8
                .text
        main:   la $t0, buf
                li $t1, 0x11111111
                sw $t1, 0($t0)
                break 0",
            DetectionPolicy::PointerTaintedness,
        );
        let mut child = cpu.fork();
        run(&mut child, 100).unwrap();
        let buf = child.regs().value(Reg::T0);
        assert_eq!(child.mem_mut().read_u32(buf).unwrap().0, 0x1111_1111);
        // The parent's copy of `buf` is untouched by the child's store.
        assert_eq!(cpu.mem_mut().read_u32(buf).unwrap().0, 0);
        // ...and the parent still runs to the same result itself.
        run(&mut cpu, 100).unwrap();
        assert_eq!(cpu.mem_mut().read_u32(buf).unwrap().0, 0x1111_1111);
    }

    #[test]
    fn fork_carries_a_private_proven_set() {
        let cpu = {
            let mut c = boot("main: break 0", DetectionPolicy::PointerTaintedness);
            c.install_proven_checks([TEXT_BASE]);
            c
        };
        let mut child = cpu.fork();
        assert!(child.has_proven_checks());
        // Invalidation in the child must not revoke the parent's proofs.
        child.mem_mut().watch_code_page(TEXT_BASE / PAGE_SIZE);
        child
            .mem_mut()
            .write_u32(TEXT_BASE, 0, WordTaint::CLEAN)
            .unwrap();
        child.invalidate_dirty_pages();
        assert!(!child.has_proven_checks());
        assert!(cpu.has_proven_checks());
    }
}
