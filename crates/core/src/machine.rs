//! The top-level machine builder.

use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ptaint_asm::Image;
use ptaint_cpu::pipeline::{Pipeline, PipelineReport};
use ptaint_cpu::{Cpu, DetectionPolicy, Engine, Steppable, TaintRules};
use ptaint_guest::BuildError;
use ptaint_inject::{CampaignReport, CampaignSpec, Fault, StateInjector, TrialRun};
use ptaint_mem::HierarchyConfig;
use ptaint_os::{
    load_with_observer, run_to_exit_with, Os, RunLimits, RunOutcome, SyscallJournal, WorldConfig,
};
use ptaint_profile::{EventProfile, ProfileReport, SymbolTable};
use ptaint_trace::{Event, Observer, SharedObserver, TraceConfig, TraceHub, TraceReport};
use std::cell::RefCell;

/// A configured guest machine: program image, outside world, detection
/// policy, and memory hierarchy. Each [`Machine::run`] boots a fresh
/// instance, so one `Machine` can be run many times (e.g. under different
/// payload calibrations).
///
/// ```
/// use ptaint::{Machine, WorldConfig};
///
/// let m = Machine::from_c(r#"int main() { printf("hi\n"); return 0; }"#)?;
/// assert_eq!(m.run().stdout_text(), "hi\n");
/// # Ok::<(), ptaint::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    image: Image,
    world: WorldConfig,
    policy: DetectionPolicy,
    hierarchy: HierarchyConfig,
    rules: TaintRules,
    watches: Vec<(u32, u32, String)>,
    step_limit: u64,
    watchdog: Option<Duration>,
    trace_depth: Option<usize>,
    engine: Engine,
    elide_checks: bool,
    analysis_jobs: Option<usize>,
    /// The image's analysis, filled by the first elided boot and shared by
    /// every later boot and every clone.
    analysis_memo: Arc<OnceLock<ptaint_analyze::Analysis>>,
}

impl Machine {
    /// Default step budget (ample for every program in this workspace).
    pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

    /// Compiles a mini-C program (linked against the guest libc and
    /// runtime) into a machine.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when compilation or assembly fails.
    pub fn from_c(source: &str) -> Result<Machine, BuildError> {
        Ok(Machine::from_image(ptaint_guest::build(source)?))
    }

    /// Like [`Machine::from_c`], with the mini-C peephole optimizer enabled.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when compilation or assembly fails.
    pub fn from_c_optimized(source: &str) -> Result<Machine, BuildError> {
        Ok(Machine::from_image(ptaint_guest::build_optimized(source)?))
    }

    /// Assembles a bare-metal assembly program (no libc) into a machine.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when assembly fails.
    pub fn from_asm(source: &str) -> Result<Machine, BuildError> {
        Ok(Machine::from_image(ptaint_asm::assemble(source)?))
    }

    /// Wraps an already-built image.
    #[must_use]
    pub fn from_image(image: Image) -> Machine {
        Machine {
            image,
            world: WorldConfig::new(),
            policy: DetectionPolicy::PointerTaintedness,
            hierarchy: HierarchyConfig::flat(),
            rules: TaintRules::PAPER,
            watches: Vec::new(),
            step_limit: Machine::DEFAULT_STEP_LIMIT,
            watchdog: None,
            trace_depth: None,
            engine: Engine::default(),
            elide_checks: false,
            analysis_jobs: None,
            analysis_memo: Arc::default(),
        }
    }

    /// Selects the execution engine (default: the predecoded/cached engine;
    /// [`Engine::Interp`] keeps the legacy interpreter available as the
    /// differential-testing oracle).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Machine {
        self.engine = engine;
        self
    }

    /// Sets the taint-propagation rule set (default: the paper's Table 1;
    /// ablated variants via [`TaintRules`]).
    #[must_use]
    pub fn taint_rules(mut self, rules: TaintRules) -> Machine {
        self.rules = rules;
        self
    }

    /// Adds a §5.3 programmer annotation on the *global symbol* `name`:
    /// execution stops as soon as any of its `len` bytes becomes tainted.
    ///
    /// # Panics
    ///
    /// Panics when the symbol is not defined by the program.
    #[must_use]
    pub fn taint_watch_symbol(mut self, name: &str, len: u32) -> Machine {
        let addr = self
            .image
            .symbol(name)
            .unwrap_or_else(|| panic!("no such symbol `{name}` to annotate"));
        self.watches.push((addr, len, name.to_owned()));
        self
    }

    /// Enables static check elision: boots hand the proven-clean sites of
    /// the [`ptaint_analyze`] taint dataflow to the cached engine, which
    /// then skips the pointer-taintedness probe at those sites.
    ///
    /// The image is analyzed once per machine, on its first elided boot;
    /// every later boot, snapshot, campaign trial and worker — and every
    /// clone — reuses that result. [`Machine::analysis`] itself never
    /// memoizes.
    ///
    /// Elision is armed only under the exact configuration the analysis
    /// models — [`DetectionPolicy::PointerTaintedness`] with the paper's
    /// [`TaintRules::PAPER`] — and only the cached engine consults the
    /// proven set (the interpreter stays the unelided oracle). Any store
    /// into the text segment voids the whole set for the rest of the run.
    #[must_use]
    pub fn elide_checks(mut self, on: bool) -> Machine {
        self.elide_checks = on;
        self
    }

    /// Sets the static-analysis worker count (default:
    /// [`ptaint_analyze::default_jobs`]). The analysis result is
    /// byte-identical for any value; this only trades wall-clock time.
    #[must_use]
    pub fn analysis_jobs(mut self, jobs: usize) -> Machine {
        self.analysis_jobs = Some(jobs.max(1));
        self
    }

    /// Sets the outside world (stdin, files, network sessions, argv/envp).
    #[must_use]
    pub fn world(mut self, world: WorldConfig) -> Machine {
        self.world = world;
        self
    }

    /// Sets the detection policy (default: full pointer taintedness).
    #[must_use]
    pub fn policy(mut self, policy: DetectionPolicy) -> Machine {
        self.policy = policy;
        self
    }

    /// Sets the cache hierarchy (default: no caches).
    #[must_use]
    pub fn hierarchy(mut self, hierarchy: HierarchyConfig) -> Machine {
        self.hierarchy = hierarchy;
        self
    }

    /// Sets the step budget.
    #[must_use]
    pub fn step_limit(mut self, limit: u64) -> Machine {
        self.step_limit = limit;
        self
    }

    /// Arms a wall-clock watchdog: runs exceeding `limit` stop with
    /// [`ptaint_os::ExitReason::Watchdog`] instead of spinning until the
    /// step budget.
    /// Off by default — campaign reports stay deterministic when only the
    /// (deterministic) step budget can end a hung run.
    #[must_use]
    pub fn watchdog(mut self, limit: Duration) -> Machine {
        self.watchdog = Some(limit);
        self
    }

    fn limits(&self) -> RunLimits {
        RunLimits {
            max_steps: self.step_limit,
            watchdog: self.watchdog,
        }
    }

    /// Sets the depth of the CPU's recently-retired diagnostic ring (default
    /// [`ptaint_cpu::DEFAULT_TRACE_DEPTH`]) — the tail reported by
    /// [`Machine::run_with`] and the CLI's alert report.
    #[must_use]
    pub fn trace_depth(mut self, depth: usize) -> Machine {
        self.trace_depth = Some(depth);
        self
    }

    /// The program image (symbol table, segments) — payload builders use
    /// this to locate attack targets.
    #[must_use]
    pub fn image(&self) -> &Image {
        &self.image
    }

    fn boot(&self) -> (Cpu, Os) {
        self.boot_with(None)
    }

    fn boot_with(&self, observer: Option<SharedObserver>) -> (Cpu, Os) {
        let (mut cpu, os) = load_with_observer(
            &self.image,
            self.world.clone(),
            self.policy,
            self.hierarchy,
            observer,
        );
        cpu.set_taint_rules(self.rules);
        cpu.set_engine(self.engine);
        if let Some(depth) = self.trace_depth {
            cpu.set_trace_depth(depth);
        }
        for (addr, len, label) in &self.watches {
            cpu.add_taint_watch(*addr, *len, label.clone());
        }
        if self.elision_armed() {
            let analysis = self.analysis_memo.get_or_init(|| self.analysis());
            if cpu.has_observer() {
                cpu.emit_event(&Event::StaticAnalysis {
                    functions: analysis.stats.functions as u64,
                    blocks: analysis.stats.blocks as u64,
                    proven: analysis.proven.len() as u64,
                    flagged: analysis.stats.flagged_sites as u64,
                });
            }
            // Watch the whole analyzed program — text *plus* the loader's
            // exit stub, which the analyzer treats as code — not just the
            // pages the decode cache has predecoded: a store into a
            // never-executed text (or stub) page must still void the proven
            // set before it can mislead anyone. Without the stub bytes, a
            // text segment that is an exact page multiple would leave the
            // stub on an unwatched page.
            cpu.mem_mut().watch_code_range(
                self.image.text_base,
                self.image.text.len() as u32 * 4 + ptaint_os::EXIT_STUB_BYTES,
            );
            cpu.install_proven_checks(analysis.proven.iter().copied());
        }
        (cpu, os)
    }

    /// Whether boots of this machine arm static check elision — the exact
    /// configuration the analysis models (pointer-taintedness policy under
    /// the paper's taint rules).
    fn elision_armed(&self) -> bool {
        self.elide_checks
            && self.policy == DetectionPolicy::PointerTaintedness
            && self.rules == TaintRules::PAPER
    }

    /// Runs the image's static analysis on the builder's worker count.
    /// Unlike boots, this never consults or fills the machine's memo.
    #[must_use]
    pub fn analysis(&self) -> ptaint_analyze::Analysis {
        match self.analysis_jobs {
            Some(jobs) => ptaint_analyze::analyze_with(&self.image, jobs),
            None => ptaint_analyze::analyze(&self.image),
        }
    }

    /// Boots a fresh instance and runs it to completion.
    #[must_use]
    pub fn run(&self) -> RunOutcome {
        run_trial(self.boot(), self.limits(), None).outcome
    }

    /// Boots a fresh instance and runs it under one injected [`Fault`]:
    /// I/O kinds are scheduled on the kernel, state kinds armed as a
    /// [`StateInjector`] step hook. Returns the trial result the campaign
    /// classifier consumes.
    #[must_use]
    pub fn run_injected(&self, fault: &Fault) -> TrialRun {
        run_trial(self.boot(), self.limits(), Some(fault))
    }

    /// Boots a fresh instance and captures it, pre-execution, as a
    /// [`MachineSnapshot`]: the post-boot baseline that campaign trials
    /// (and any other caller) can cheaply [`MachineSnapshot::fork`] from.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        let (cpu, os) = self.boot();
        MachineSnapshot {
            cpu,
            os,
            limits: self.limits(),
        }
    }

    /// Boots a fresh instance and re-serves `journal` byte-exactly instead
    /// of consulting the world. A guest that departs from the journal stops
    /// with [`ptaint_os::ExitReason::ReplayDivergence`] — a structured
    /// outcome, never a panic.
    #[must_use]
    pub fn replay(&self, journal: SyscallJournal) -> RunOutcome {
        let (cpu, mut os) = self.boot();
        os.start_replay(journal);
        run_trial((cpu, os), self.limits(), None).outcome
    }

    /// Runs a whole fault-injection campaign against this workload: one
    /// fault-free baseline plus `spec.trials` seeded injections, classified
    /// against the baseline's verdict. The campaign boots once, snapshots
    /// the post-boot state, and forks every trial copy-on-write from it; a
    /// forked trial equals a fresh boot under the same fault (pinned per
    /// trial by `tests/inject.rs`). Same as [`Machine::run_campaign_jobs`]
    /// with one job.
    #[must_use]
    pub fn run_campaign(&self, spec: &CampaignSpec) -> CampaignReport {
        self.run_campaign_jobs(spec, 1)
    }

    /// Runs the campaign of [`Machine::run_campaign`] on `jobs` worker
    /// threads: each worker takes its own post-boot snapshot (boots are
    /// deterministic, so every worker's snapshot is bit-identical) and
    /// steals trial indices from a shared counter. Records merge in trial
    /// order, so the report is **byte-identical** for every `jobs` value;
    /// `jobs <= 1` runs on the calling thread. Workers borrow the machine's
    /// one static analysis (see [`Machine::elide_checks`]).
    #[must_use]
    pub fn run_campaign_jobs(&self, spec: &CampaignSpec, jobs: usize) -> CampaignReport {
        ptaint_inject::run_campaign_jobs(spec, jobs, || {
            let snap = self.snapshot();
            move |fault: Option<&Fault>| run_trial(snap.fork(), snap.limits, fault)
        })
    }

    /// Runs twice under the cached engine — once with every check executed,
    /// once with statically proven checks elided — and asserts the two runs
    /// are bit-identical in everything guest-visible: exit reason (including
    /// any security alert), stdout/stderr, network transcripts, and the
    /// retired-instruction statistics (engine-activity counters normalized
    /// away with [`ExecStats::without_decode_cache`](ptaint_cpu::ExecStats::without_decode_cache)).
    ///
    /// Returns the elided outcome so callers can make scenario-specific
    /// assertions (e.g. that elision actually fired).
    ///
    /// # Panics
    ///
    /// Panics when the runs diverge — i.e. when the static analysis proved
    /// a site clean that was not.
    #[must_use]
    pub fn run_elision_differential(&self) -> RunOutcome {
        let full = self.clone().elide_checks(false).run();
        let elided = self.clone().elide_checks(true).run();
        assert_eq!(
            full.stats.elided_checks, 0,
            "elision leaked into the oracle"
        );
        let mut a = full;
        a.stats = a.stats.without_decode_cache();
        let mut b = elided.clone();
        b.stats = b.stats.without_decode_cache();
        assert_eq!(a, b, "check elision changed observable behaviour");
        elided
    }

    /// Boots a fresh instance with everything `cfg` asks for attached —
    /// any combination of the trace sinks, the profiler, syscall
    /// journal recording and the 5-stage pipeline timing model (Figure 3)
    /// — and runs it to completion. The pipeline retires through the same
    /// taint CPU, so every sink sees the identical event stream with or
    /// without it; with no sink and no profiler, no observer is attached.
    #[must_use]
    pub fn run_with(&self, cfg: &RunConfig) -> RunArtifacts {
        let sinks = (cfg.trace.any() || cfg.profile).then(|| {
            Rc::new(RefCell::new(RunSinks {
                hub: TraceHub::new(&cfg.trace),
                events: cfg.profile.then(EventProfile::new),
            }))
        });
        let observer = sinks.clone().map(|s| -> SharedObserver { s });
        let (cpu, mut os) = self.boot_with(observer);
        if cfg.record {
            os.start_recording();
        }
        // Each branch owns (and drops) the CPU, releasing its observer
        // handle before the sinks are consumed below.
        let ((outcome, tail), pipeline) = if cfg.pipeline {
            let mut pipe = Pipeline::new(cpu);
            let run = self.drive(&mut pipe, &mut os);
            (run, Some(pipe.report()))
        } else {
            let mut cpu = cpu;
            (self.drive(&mut cpu, &mut os), None)
        };
        let journal = cfg.record.then(|| os.take_journal().unwrap_or_default());
        drop(os);
        let (trace, events) = sinks
            .and_then(|s| Rc::try_unwrap(s).ok())
            .map(|cell| {
                let sinks = cell.into_inner();
                (sinks.hub.into_report(), sinks.events)
            })
            .unwrap_or_default();
        let profile = cfg
            .profile
            .then(|| ProfileReport::build(&events.unwrap_or_default(), &self.symbol_table()));
        RunArtifacts {
            outcome,
            tail,
            trace,
            profile,
            journal,
            pipeline,
        }
    }

    /// Runs `stepper` to completion and collects what only the live CPU
    /// holds: the disassembled tail.
    fn drive<S: Steppable>(&self, stepper: &mut S, os: &mut Os) -> (RunOutcome, Vec<String>) {
        let outcome = run_to_exit_with(stepper, os, self.limits(), &mut ());
        (outcome, self.render_tail(stepper.cpu()))
    }

    /// [`Machine::run_with`] with only the trace sinks `cfg` enables:
    /// the outcome, the execution tail and the [`TraceReport`].
    #[must_use]
    pub fn run_with_trace(&self, cfg: &TraceConfig) -> (RunOutcome, Vec<String>, TraceReport) {
        let run = self.run_with(&RunConfig {
            trace: cfg.clone(),
            ..RunConfig::default()
        });
        (run.outcome, run.tail, run.trace)
    }

    /// A profile-ready symbol table over the image's text segment (plus a
    /// synthetic name for the loader's exit stub, which executes right
    /// after text). The mini-C compiler's internal basic-block labels
    /// (`_L<n>_<stem>`) are dropped so samples attribute to the enclosing
    /// function, not the branch target inside it.
    #[must_use]
    pub fn symbol_table(&self) -> SymbolTable {
        let stub = ("<exit-stub>".to_string(), self.image.text_end());
        SymbolTable::build(
            self.image
                .symbols
                .iter()
                .filter(|(name, _)| !name.starts_with("_L"))
                .map(|(name, &addr)| (name.clone(), addr))
                .chain(std::iter::once(stub)),
            self.image.text_base,
            self.image.text_end() + ptaint_os::EXIT_STUB_BYTES,
        )
    }

    fn render_tail(&self, cpu: &Cpu) -> Vec<String> {
        cpu.recent_trace()
            .into_iter()
            .map(|(pc, instr)| {
                let sym = self
                    .image
                    .symbol_at(pc)
                    .map(|s| format!(" <{s}>"))
                    .unwrap_or_default();
                format!("{pc:08x}{sym}: {instr}")
            })
            .collect()
    }

    /// Static program size in bytes (text + data), the "program size"
    /// column of Table 3.
    #[must_use]
    pub fn program_size_bytes(&self) -> u32 {
        self.image.text.len() as u32 * 4 + self.image.data.len() as u32
    }
}

/// A booted, pre-execution machine captured as a copy-on-write baseline.
///
/// Produced by [`Machine::snapshot`]. Every [`MachineSnapshot::fork`]
/// yields an independent `(Cpu, Os)` pair whose memory shares pages with
/// the snapshot until written (see `ptaint_mem`'s COW model); kernel state
/// is copied outright (it is small), and the decode cache is rebuilt on
/// demand with a private copy of the proven-clean set, so a forked run is
/// bit-identical to a fresh boot of the same machine — stats, traces, and
/// campaign reports included.
#[derive(Debug)]
pub struct MachineSnapshot {
    cpu: Cpu,
    os: Os,
    limits: RunLimits,
}

impl MachineSnapshot {
    /// Forks an independent, runnable machine instance off the baseline.
    #[must_use]
    pub fn fork(&self) -> (Cpu, Os) {
        (self.cpu.fork(), self.os.fork())
    }

    /// Forks and runs to completion under the machine's limits — the
    /// baseline trial of a forked campaign.
    #[must_use]
    pub fn run(&self) -> TrialRun {
        run_trial(self.fork(), self.limits, None)
    }

    /// Forks and runs under one injected [`Fault`] — the forked
    /// counterpart of [`Machine::run_injected`], producing bit-identical
    /// [`TrialRun`]s.
    #[must_use]
    pub fn run_injected(&self, fault: &Fault) -> TrialRun {
        run_trial(self.fork(), self.limits, Some(fault))
    }

    /// Baseline pages currently shared copy-on-write with live forks.
    #[must_use]
    pub fn pages_shared(&self) -> usize {
        self.cpu.mem().pages_shared()
    }
}

/// Runs one booted instance to completion under `limits` — with `fault`,
/// when given, scheduled on the kernel and armed as a step hook. Plain
/// runs, replays and every campaign trial (forked from a snapshot) all
/// run through here.
fn run_trial((mut cpu, mut os): (Cpu, Os), limits: RunLimits, fault: Option<&Fault>) -> TrialRun {
    let mut injector = fault.map(|f| {
        os.set_io_faults(f.io_plan());
        StateInjector::new(*f)
    });
    let outcome = run_to_exit_with(&mut cpu, &mut os, limits, &mut injector);
    TrialRun {
        outcome,
        io_calls: os.io_call_count(),
        applied: injector.and_then(|i| i.applied().map(str::to_owned)),
    }
}

/// What one [`Machine::run_with`] attaches to its boot. Every field
/// composes with every other; the default is a plain run.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// The trace sinks (JSONL stream, metrics, provenance) to run.
    pub trace: TraceConfig,
    /// Profile the run: an [`EventProfile`] on the observer folds the
    /// retire stream into a per-PC histogram and call tree, and the taint
    /// events into a heatmap and syscall table.
    pub profile: bool,
    /// Record every serviced syscall into a [`SyscallJournal`], which
    /// [`Machine::replay`] re-serves instruction-exactly.
    pub record: bool,
    /// Run through the 5-stage pipeline timing model (Figure 3).
    pub pipeline: bool,
}

/// Everything one [`Machine::run_with`] produced.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The functional outcome.
    pub outcome: RunOutcome,
    /// The disassembled execution tail (most recently retired
    /// instructions, oldest first) — the `--trace` view of `ptaint-run`.
    pub tail: Vec<String>,
    /// What the enabled trace sinks collected (empty when none ran).
    pub trace: TraceReport,
    /// The merged, symbolized profile — per-PC and per-symbol retirement
    /// counts, collapsed call stacks, the taint heatmap and the syscall
    /// table — when [`RunConfig::profile`] was set. Counts only, so a
    /// deterministic guest profiles byte-identically under either engine.
    pub profile: Option<ProfileReport>,
    /// The recorded syscall journal, when [`RunConfig::record`] was set.
    pub journal: Option<SyscallJournal>,
    /// The cycle-level report (detection staging, stalls, IPC), when
    /// [`RunConfig::pipeline`] was set.
    pub pipeline: Option<PipelineReport>,
}

/// The single observer a [`Machine::run_with`] boot attaches: the trace
/// hub plus, when profiling, the profile collector.
struct RunSinks {
    hub: TraceHub,
    events: Option<EventProfile>,
}

impl Observer for RunSinks {
    fn on_event(&mut self, event: &Event) {
        self.hub.on_event(event);
        if let Some(events) = &mut self.events {
            events.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_os::ExitReason;

    #[test]
    fn from_c_builds_and_runs() {
        let m = Machine::from_c("int main() { return 7; }").unwrap();
        assert_eq!(m.run().reason, ExitReason::Exited(7));
        assert!(m.program_size_bytes() > 100);
    }

    #[test]
    fn machine_is_reusable() {
        let m = Machine::from_c(
            r#"int main() {
                char b[16];
                int n = read(0, b, 15);
                b[n] = 0;
                printf("<%s>", b);
                return 0;
            }"#,
        )
        .unwrap();
        let a = m
            .clone()
            .world(WorldConfig::new().stdin(b"one".to_vec()))
            .run();
        let b = m.world(WorldConfig::new().stdin(b"two".to_vec())).run();
        assert_eq!(a.stdout_text(), "<one>");
        assert_eq!(b.stdout_text(), "<two>");
    }

    #[test]
    fn from_asm_builds_bare_programs() {
        let m = Machine::from_asm(
            "main: li $v0, 1
                   li $a0, 9
                   syscall",
        )
        .unwrap();
        assert_eq!(m.run().reason, ExitReason::Exited(9));
    }

    #[test]
    fn pipelined_run_matches_functional_run() {
        let m = Machine::from_c(
            "int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
             int main() { return f(10); }",
        )
        .unwrap();
        let plain = m.run();
        let run = m.run_with(&RunConfig {
            pipeline: true,
            ..RunConfig::default()
        });
        let (piped, report) = (run.outcome, run.pipeline.unwrap());
        assert_eq!(plain.reason, ExitReason::Exited(55));
        assert_eq!(piped.reason, plain.reason);
        assert_eq!(piped.stats.instructions, plain.stats.instructions);
        assert!(report.cycles >= report.instructions);
        assert!(report.ipc() > 0.3 && report.ipc() <= 1.0);
    }

    #[test]
    fn hierarchy_does_not_change_results() {
        let m = Machine::from_c(
            r#"int main() {
                int i; int s = 0;
                int a[64];
                for (i = 0; i < 64; i++) a[i] = i;
                for (i = 0; i < 64; i++) s += a[i];
                return s & 0x7f;
            }"#,
        )
        .unwrap();
        let flat = m.run();
        let cached = m.hierarchy(HierarchyConfig::two_level()).run();
        assert_eq!(flat.reason, cached.reason);
    }

    #[test]
    fn engine_selector_switches_between_interpreter_and_cache() {
        let m = Machine::from_c("int main() { return 7; }").unwrap();
        let cached = m.clone().engine(Engine::Cached).run();
        let interp = m.engine(Engine::Interp).run();
        assert_eq!(cached.reason, ExitReason::Exited(7));
        assert_eq!(interp.reason, ExitReason::Exited(7));
        assert!(cached.stats.decode_cache_hits > 0);
        assert_eq!(interp.stats.decode_cache_hits, 0);
        assert_eq!(
            cached.stats.without_decode_cache(),
            interp.stats.without_decode_cache()
        );
    }

    #[test]
    fn elision_skips_checks_and_preserves_behaviour() {
        let m = Machine::from_c(
            r#"int main() {
                int i; int s = 0;
                int a[32];
                for (i = 0; i < 32; i++) a[i] = i;
                for (i = 0; i < 32; i++) s += a[i];
                return s & 0x7f;
            }"#,
        )
        .unwrap();
        let elided = m.run_elision_differential();
        assert!(
            elided.stats.elided_checks > 0,
            "an all-clean loop should elide its array accesses: {:?}",
            elided.stats
        );
    }

    #[test]
    fn elision_watch_covers_the_exit_stub_page() {
        use ptaint_isa::PAGE_SIZE;
        use ptaint_mem::WordTaint;

        // Pad text to an exact page multiple so the loader's exit stub
        // starts on its own page; a store patching the stub before it is
        // ever executed must still dirty a watched page (and hence void
        // the proven set), or the analyzed exit path and the running
        // program could silently diverge.
        let body = "nop\n".repeat(PAGE_SIZE as usize / 4 - 1);
        let m = Machine::from_asm(&format!("main: {body} jr $31"))
            .unwrap()
            .elide_checks(true);
        assert_eq!(m.image().text.len() as u32 * 4 % PAGE_SIZE, 0);
        let (mut cpu, _os) = m.boot();
        assert!(cpu.has_proven_checks());
        let stub = m.image().text_end();
        cpu.mem_mut().write_u32(stub, 0, WordTaint::CLEAN).unwrap();
        assert!(
            cpu.mem().has_dirty_code_pages(),
            "store into the exit stub went unwatched"
        );
    }

    #[test]
    fn elided_boots_share_one_analysis_memo() {
        use ptaint_guest::apps::synthetic;

        let m = Machine::from_c(synthetic::EXP1_SOURCE)
            .unwrap()
            .world(synthetic::exp1_attack_world())
            .elide_checks(true);
        let early = m.clone();
        assert!(Arc::ptr_eq(&m.analysis_memo, &early.analysis_memo));
        assert!(m.analysis_memo.get().is_none(), "nothing booted yet");

        // The first elided boot fills the memo.
        assert!(m.run().reason.is_detected());
        let analysis: *const ptaint_analyze::Analysis = m.analysis_memo.get().unwrap();
        assert!(std::ptr::eq(early.analysis_memo.get().unwrap(), analysis));

        // Later clones, snapshots and campaign workers all borrow it.
        let late = m.clone();
        let _snap = late.snapshot();
        let _ = late.run_campaign_jobs(&CampaignSpec::new(7, 4), 2);
        for machine in [&early, &late] {
            assert!(Arc::ptr_eq(&m.analysis_memo, &machine.analysis_memo));
            assert!(std::ptr::eq(machine.analysis_memo.get().unwrap(), analysis));
        }

        // Campaign workers fill the shared memo when no boot has yet.
        let idle = Machine::from_image(m.image().clone()).elide_checks(true);
        let watcher = idle.clone();
        let _ = idle.run_campaign_jobs(&CampaignSpec::new(7, 4), 2);
        assert!(watcher.analysis_memo.get().is_some());

        // A fresh machine over the same image starts its own memo.
        let fresh = Machine::from_image(m.image().clone()).elide_checks(true);
        assert!(!Arc::ptr_eq(&m.analysis_memo, &fresh.analysis_memo));
        assert!(fresh.analysis_memo.get().is_none());
    }

    #[test]
    fn elision_stays_off_under_other_policies_and_rules() {
        let m = Machine::from_c("int main() { int a[4]; a[1] = 2; return a[1]; }").unwrap();
        let baseline = m
            .clone()
            .policy(DetectionPolicy::ControlOnly)
            .elide_checks(true)
            .run();
        assert_eq!(baseline.stats.elided_checks, 0, "gate: policy mismatch");
        let ablated = m
            .taint_rules(TaintRules {
                compare_untaints: false,
                ..TaintRules::PAPER
            })
            .elide_checks(true)
            .run();
        assert_eq!(ablated.stats.elided_checks, 0, "gate: rules mismatch");
    }

    #[test]
    fn step_limit_is_respected() {
        let m = Machine::from_asm("main: b main").unwrap().step_limit(1000);
        assert_eq!(m.run().reason, ExitReason::StepLimit);
    }

    #[test]
    fn watchdog_stops_a_hung_machine() {
        let m = Machine::from_asm("main: b main")
            .unwrap()
            .watchdog(Duration::from_millis(10));
        assert_eq!(m.run().reason, ExitReason::Watchdog);
    }

    #[test]
    fn injected_taint_clear_defeats_detection() {
        use ptaint_inject::FaultKind;
        // Baseline: dereferencing input is detected. With the shadow bits
        // cleared right before the dereference, the same run exits clean.
        let m = Machine::from_asm(
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
        li $v0, 1
        li $a0, 0
        lw $t2, 0($t1)
        syscall
        "#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"\x60aaa".to_vec()));
        let baseline = m.run();
        assert!(baseline.reason.is_detected());
        // Some trigger step between the read (taint arrives) and the load
        // (taint reaches the register file) must defeat the detector: the
        // cleared word dereferences into sparse zero memory and exits clean.
        let mut defeated = false;
        for step in 0..baseline.stats.instructions {
            let trial = m.run_injected(&ptaint_inject::Fault {
                kind: FaultKind::TaintClear,
                io_call: 0,
                step,
                salt: 0,
            });
            if trial.applied.is_some() && trial.outcome.reason == ExitReason::Exited(0) {
                assert_eq!(trial.io_calls, 1);
                assert_eq!(trial.outcome.stats.injected_faults, 1);
                defeated = true;
                break;
            }
        }
        assert!(
            defeated,
            "no taint-clear trigger step defeated the detector"
        );
    }

    #[test]
    fn campaign_reports_are_seed_deterministic() {
        use ptaint_inject::CampaignSpec;
        use ptaint_trace::ToJson;
        let m = Machine::from_c(
            r#"int main() {
                char b[16];
                int n = read(0, b, 15);
                b[n] = 0;
                printf("<%s>", b);
                return 0;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"benign input".to_vec()))
        .step_limit(2_000_000);
        let spec = CampaignSpec::new(0xfeed, 6);
        let a = m.run_campaign(&spec).to_json();
        let b = m.run_campaign(&spec).to_json();
        assert_eq!(a, b, "same seed must reproduce the report byte-for-byte");
        assert!(a.contains("\"baseline\":{\"detected\":false"));
    }

    #[test]
    fn snapshot_forks_run_bit_identical_to_fresh_boots() {
        let m = Machine::from_c(
            r#"int main() {
                char b[32];
                int n = read(0, b, 31);
                write(1, b, n);
                return n;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"cow snapshot".to_vec()));
        let fresh = m.run();
        let snap = m.snapshot();
        for _ in 0..3 {
            let trial = snap.run();
            assert_eq!(trial.outcome.reason, fresh.reason);
            assert_eq!(trial.outcome.stats, fresh.stats);
            assert_eq!(trial.outcome.stdout, fresh.stdout);
        }
        // Sharing is live only while a fork exists: completed trials drop
        // their pages, so hold one open to observe the COW state.
        let held = snap.fork();
        assert!(
            snap.pages_shared() > 0,
            "a live fork should share the baseline's read-only pages"
        );
        drop(held);
        assert_eq!(snap.pages_shared(), 0);
    }

    #[test]
    fn record_then_replay_reproduces_the_run_without_the_world() {
        let m = Machine::from_c(
            r#"int main() {
                char b[32];
                int n = read(0, b, 31);
                write(1, b, n);
                return 7;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"journal me".to_vec()));
        let run = m.run_with(&RunConfig {
            record: true,
            ..RunConfig::default()
        });
        let (live, journal) = (run.outcome, run.journal.unwrap());
        assert!(!journal.is_empty());
        // Replay against an empty world: every result comes from the journal.
        let empty = Machine {
            world: WorldConfig::new(),
            ..m
        };
        let replayed = empty.replay(journal);
        assert_eq!(replayed.reason, live.reason);
        assert_eq!(replayed.stats, live.stats);
        // Replay reproduces guest-visible execution from the journal; it
        // does not re-perform world side effects, so stdout stays empty.
        assert!(replayed.stdout.is_empty());
    }

    #[test]
    fn composed_runs_match_functional_runs_byte_for_byte() {
        use ptaint_guest::apps::{ghttpd, synthetic};
        use ptaint_trace::ToJson;

        let ghttpd = Machine::from_c(ghttpd::SOURCE).unwrap();
        let ghttpd_world = ghttpd::attack_world(ghttpd.image());
        for (label, m) in [
            (
                "exp1",
                Machine::from_c(synthetic::EXP1_SOURCE)
                    .unwrap()
                    .world(synthetic::exp1_attack_world()),
            ),
            ("ghttpd", ghttpd.world(ghttpd_world)),
        ] {
            let cfg = RunConfig {
                trace: TraceConfig::all(),
                profile: true,
                record: true,
                pipeline: false,
            };
            let plain = m.run_with(&cfg);
            let piped = m.run_with(&RunConfig {
                pipeline: true,
                ..cfg
            });
            assert!(plain.outcome.reason.is_detected(), "{label}");
            assert_eq!(piped.outcome, plain.outcome, "{label}");
            assert_eq!(piped.tail, plain.tail, "{label}");
            let jsonl = plain.trace.jsonl.as_deref().unwrap();
            assert!(!jsonl.is_empty(), "{label}");
            assert_eq!(piped.trace.jsonl.as_deref(), Some(jsonl), "{label}");
            let json = |r: &RunArtifacts| {
                (
                    r.trace.metrics.as_ref().unwrap().to_json(),
                    r.trace.forensic.as_ref().unwrap().to_string(),
                    r.profile.as_ref().unwrap().to_json(),
                )
            };
            assert_eq!(json(&piped), json(&plain), "{label}");
            assert!(plain.pipeline.is_none(), "{label}");
            let detection = piped.pipeline.unwrap().detection;
            assert!(detection.is_some(), "{label}: pipeline staged the alert");

            // The journal recorded by the composed run replays to the same
            // outcome.
            let replayed = m.replay(piped.journal.unwrap());
            assert_eq!(replayed, plain.outcome, "{label}");
        }
    }
}
