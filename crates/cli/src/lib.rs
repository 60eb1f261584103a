#![warn(missing_docs)]

//! # ptaint-cli — drive the taintedness architecture from the shell
//!
//! ```text
//! ptaint-run program.c [options]
//! ptaint-run analyze program.c [options]
//! ptaint-run inject program.c [options]
//! ptaint-run profile program.c [options]
//! ptaint-run replay program.c --journal FILE [options]
//! ```
//!
//! The `analyze` subcommand runs the static taint dataflow analysis
//! (`ptaint-analyze`) over the built image and prints the lint report —
//! tainted-pointer dereference sites with disassembly and reachability —
//! instead of executing the program. It exits 0 when nothing is flagged
//! and 3 when the report contains findings. The keyword is recognized only
//! as the **first** argument, so a source file that happens to be named
//! `analyze` can still be run: `ptaint-run ./analyze`.
//!
//! The `inject` subcommand runs a deterministic fault-injection campaign
//! (`ptaint-inject`) against the configured workload: a fault-free
//! baseline plus `--trials` seeded injections, each classified against the
//! baseline's verdict (detected / missed / false-alert / benign /
//! guest-fault / watchdog). The JSON report is byte-identical for the same
//! `--seed` and workload. Like `analyze`, the keyword is positional.
//!
//! The `profile` subcommand (`ptaint-profile`) runs the program with the
//! profiler observing its event stream and prints a top-N report: hot
//! blocks and pcs (per-PC retirement histogram, symbolized), taint
//! hotspots (the TaintSource/PointerCheck/Alert/check-elided heatmap by
//! site and symbol), the per-syscall count/step-latency table, and
//! collapsed call stacks. `--profile-out FILE` writes the full profile as
//! JSON — counts only, no wall-clock data, so a deterministic guest
//! profiles byte-identically. `--profile-out` also works without the subcommand
//! (collect during a normal run, skip the printed report). Like
//! `analyze`, the keyword is positional.
//!
//! The `replay` subcommand re-executes a run from a syscall journal
//! recorded with `--journal-out`: every syscall result and every delivered
//! input byte is re-served from the journal instead of the world, so the
//! guest retraces the recorded execution bit-exactly — same exit reason,
//! same statistics — with no stdin, files, or scripted sessions attached.
//! A guest that issues a different syscall than the journal recorded stops
//! with a structured `replay diverged` outcome (exit 1). World side
//! effects (stdout, transcripts) are not re-performed. Like `analyze`,
//! the keyword is positional.
//!
//! The artifact flags (`--trace-out`, `--metrics-out`, `--metrics-interval`,
//! `--profile-out`, `--journal-out`, `--provenance`, `--pipeline`,
//! `--trace`) compose freely on one run; under `analyze`, `inject`,
//! `replay` or `--disasm`, which make no single run, they are usage errors.
//! The campaign flags (`--seed`, `--trials`, `--faults`, `--report`) are
//! usage errors outside `inject`, as `--journal` is outside `replay`.
//!
//! [`USAGE`] is the option and exit-code reference; `ptaint-run --help`
//! prints it.

use std::fmt::Write as _;
use std::time::Duration;

use ptaint::{
    CampaignSpec, DetectionPolicy, Engine, ExitReason, FaultKind, Machine, NetSession, RunConfig,
    SyscallJournal, ToJson, TraceConfig, WorldConfig,
};

/// Exit code for a failure to persist a requested artifact.
pub const EXIT_ARTIFACT: i32 = 4;

/// The `ptaint-run --help` text: usage lines, subcommands, every flag
/// [`parse_args`] accepts, and the exit codes.
pub const USAGE: &str = r"ptaint-run <program.c|program.s> [options]
ptaint-run analyze <program.c|program.s> [options]
ptaint-run inject <program.c|program.s> [options]
ptaint-run profile <program.c|program.s> [options]
ptaint-run replay <program.c|program.s> --journal FILE [options]

analyze              print the static taint lint report and
                     exit (0 clean, 3 with findings); only
                     recognized as the first argument (use
                     `ptaint-run ./analyze` to run a file of
                     that name), like every subcommand
inject               run a deterministic fault-injection
                     campaign (baseline + --trials seeded
                     faults) and emit the JSON report; same
                     seed => byte-identical report
profile              run with the profiler and print
                     the top-N report: hot blocks/pcs, taint
                     hotspots, syscall table, call paths
replay               re-execute a run from a syscall journal
                     recorded with --journal-out; bit-exact
                     retrace, no world attached; a guest that
                     leaves the recording stops with a
                     `replay diverged` outcome

--asm                input is assembly
--optimize           peephole-optimize the generated code
                     (mini-C only, not with --asm)
--policy P           off | control-only | ptaint (default)
--engine E           interp | cached (default)
--elide-checks       skip taint checks at statically proven
                     clean sites (ptaint policy only)
-j N, --jobs N       worker threads: analysis fixpoint and
                     inject campaign shards (also -jN;
                     default for inject: available
                     parallelism); byte-identical output
                     for any N
--stdin FILE         stdin bytes from FILE (tainted)
--stdin-text STRING  stdin bytes inline (tainted)
--arg S / --env K=V  guest argv / environment (repeatable)
--file PATH=HOST     mount HOST file at guest PATH (repeatable)
--session FILE       scripted client, one message per line
                     (\xNN hex escapes and \\ for raw payload
                     bytes; repeatable)
--watch SYMBOL:LEN   annotate never-tainted data (§5.3)
--caches             model L1/L2 caches; print each level's
                     hits, misses and evictions
--pipeline           5-stage pipeline timing model
--steps N            step budget (default 500M)
--watchdog-ms N      wall-clock watchdog on the run
--seed N             (inject) campaign seed, default 1
--trials N           (inject) faulted trials, default 32
--faults LIST        (inject) comma-separated fault kinds;
                     must name at least one (proof_cache is
                     inert: it never applies)
--report FILE        (inject) write campaign JSON to FILE
--journal-out FILE   record the syscall journal for `replay`
--journal FILE       (replay) journal to re-serve the run from
--trace-out FILE     write the event stream (JSONL) to FILE
--metrics-out FILE   write the metrics snapshot (JSON) to FILE
--metrics-interval N interleave a metrics_snapshot record into
                     the JSONL stream every N retired
                     instructions (needs --trace-out)
--profile-out FILE   write the profile JSON to FILE (counts
                     only; byte-deterministic)
--provenance         print the forensic taint chain on detection
--trace              print the last retired instructions after
                     the run (also printed on a detection)
--trace-depth N      depth of that retired-instruction ring
--disasm             print disassembly and exit
--quiet              program output only

exit code: guest status; 42 on a security detection; 1 on any
other abnormal stop (crash, step limit, watchdog, replay
divergence); 2 on usage/read/build errors, including a
missing or malformed --journal file, a single-run flag
(--trace-out, --metrics-out, --metrics-interval,
--profile-out, --journal-out, --provenance, --pipeline,
--trace) given to analyze, inject, replay or --disasm, or a
campaign flag (--seed, --trials, --faults, --report)
outside inject; 3 on analyze findings; 4 when a requested
artifact file (--trace-out, --metrics-out, --profile-out,
--report, --journal-out) cannot be written";

/// Rows per section in the `profile` subcommand's printed report.
const PROFILE_TOP_N: usize = 10;

/// Parsed command-line options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// Path of the guest program source.
    pub program: String,
    /// Run the static analyzer and print the lint report instead of
    /// executing (the `analyze` subcommand).
    pub analyze: bool,
    /// Run a fault-injection campaign instead of a single execution (the
    /// `inject` subcommand).
    pub inject: bool,
    /// Run with the profiler and print the top-N report (the `profile`
    /// subcommand).
    pub profile: bool,
    /// Re-serve a recorded syscall journal instead of running against the
    /// world (the `replay` subcommand).
    pub replay: bool,
    /// Path of the journal to replay (`--journal`, replay only).
    pub journal_in: Option<String>,
    /// Record the run's syscall journal here (`--journal-out`).
    pub journal_out: Option<String>,
    /// Write the profile JSON here (implies profile collection).
    pub profile_out: Option<String>,
    /// Interleave `metrics_snapshot` records into the JSONL stream every N
    /// retired instructions (`--metrics-interval`; needs `--trace-out`).
    pub metrics_interval: Option<u64>,
    /// Campaign seed (`--seed`, inject only).
    pub seed: Option<u64>,
    /// Campaign trial count (`--trials`, inject only).
    pub trials: Option<u64>,
    /// Restricted fault kinds (`--faults`, inject only; empty = all).
    pub fault_kinds: Vec<FaultKind>,
    /// Write the campaign JSON here instead of stdout (`--report`).
    pub report_out: Option<String>,
    /// Treat the program as assembly instead of mini-C.
    pub asm: bool,
    /// Run the peephole optimizer (mini-C only).
    pub optimize: bool,
    /// Detection policy.
    pub policy: Option<DetectionPolicy>,
    /// Execution engine (predecoded cache by default; `interp` keeps the
    /// legacy interpreter available as the differential oracle).
    pub engine: Option<Engine>,
    /// Skip taint checks at statically proven-clean sites.
    pub elide_checks: bool,
    /// Analysis fixpoint worker threads (`-j` / `--jobs`).
    pub jobs: Option<usize>,
    /// Stdin bytes.
    pub stdin: Vec<u8>,
    /// Guest argv (the program name is prepended automatically).
    pub args: Vec<String>,
    /// Guest environment strings.
    pub envs: Vec<String>,
    /// Guest files: (guest path, contents).
    pub files: Vec<(String, Vec<u8>)>,
    /// Network sessions, one `Vec` of messages each.
    pub sessions: Vec<Vec<Vec<u8>>>,
    /// §5.3 annotations: (symbol, length).
    pub watches: Vec<(String, u32)>,
    /// Model the cache hierarchy.
    pub caches: bool,
    /// Use the pipeline timing model.
    pub pipeline: bool,
    /// Step budget.
    pub steps: Option<u64>,
    /// Wall-clock watchdog in milliseconds.
    pub watchdog_ms: Option<u64>,
    /// Print disassembly and exit.
    pub disasm: bool,
    /// Print the last retired instructions after the run.
    pub trace: bool,
    /// Write the JSONL event stream here.
    pub trace_out: Option<String>,
    /// Write the metrics snapshot (JSON) here.
    pub metrics_out: Option<String>,
    /// Track taint provenance and print the forensic chain on a detection.
    pub provenance: bool,
    /// Depth of the recently-retired diagnostic ring.
    pub trace_depth: Option<usize>,
    /// Suppress banner/statistics.
    pub quiet: bool,
}

/// A CLI usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Reads a host file, mapping errors to usage errors.
fn read_host(path: &str) -> Result<Vec<u8>, UsageError> {
    std::fs::read(path).map_err(|e| UsageError(format!("cannot read `{path}`: {e}")))
}

/// Decodes one session-file line into message bytes.
///
/// Session files are line-oriented text, but real exploit payloads carry
/// raw bytes (addresses, NULs) that cannot survive a UTF-8 text file: the
/// escapes `\xNN` (one byte from two hex digits) and `\\` (a literal
/// backslash) express them. Any other sequence is a usage error.
fn unescape_session_line(line: &str) -> Result<Vec<u8>, UsageError> {
    let mut bytes = Vec::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            let mut buf = [0u8; 4];
            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            continue;
        }
        match chars.next() {
            Some('\\') => bytes.push(b'\\'),
            Some('x') => {
                let hi = chars.next();
                let lo = chars.next();
                let (Some(hi), Some(lo)) = (
                    hi.and_then(|c| c.to_digit(16)),
                    lo.and_then(|c| c.to_digit(16)),
                ) else {
                    return Err(UsageError(format!(
                        "bad `\\x` escape in session line `{line}` (expects two hex digits)"
                    )));
                };
                bytes.push((hi * 16 + lo) as u8);
            }
            other => {
                return Err(UsageError(format!(
                    "unknown escape `\\{}` in session line `{line}` (use \\xNN or \\\\)",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(bytes)
}

/// Parses the argument vector (without the leading program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the offending flag.
pub fn parse_args(args: &[String]) -> Result<Options, UsageError> {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    // `analyze`/`inject` are subcommands only in the very first argument
    // position, so a source file literally named after one stays runnable
    // (`ptaint-run ./analyze`, `ptaint-run --asm inject`).
    match args.first().map(String::as_str) {
        Some("analyze") => {
            opts.analyze = true;
            it.next();
        }
        Some("inject") => {
            opts.inject = true;
            it.next();
        }
        Some("profile") => {
            opts.profile = true;
            it.next();
        }
        Some("replay") => {
            opts.replay = true;
            it.next();
        }
        _ => {}
    }
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, UsageError> {
        it.next()
            .cloned()
            .ok_or_else(|| UsageError(format!("`{flag}` needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--asm" => opts.asm = true,
            "--optimize" => opts.optimize = true,
            "--elide-checks" => opts.elide_checks = true,
            "--caches" => opts.caches = true,
            "--pipeline" => opts.pipeline = true,
            "--disasm" => opts.disasm = true,
            "--trace" => opts.trace = true,
            "--quiet" => opts.quiet = true,
            "--policy" => {
                let v = value(&mut it, "--policy")?;
                opts.policy = Some(match v.as_str() {
                    "off" => DetectionPolicy::Off,
                    "control-only" | "control" => DetectionPolicy::ControlOnly,
                    "ptaint" | "full" => DetectionPolicy::PointerTaintedness,
                    other => {
                        return Err(UsageError(format!(
                            "unknown policy `{other}` (off | control-only | ptaint)"
                        )))
                    }
                });
            }
            "--engine" => {
                let v = value(&mut it, "--engine")?;
                opts.engine = Some(match v.as_str() {
                    "interp" | "interpreter" => Engine::Interp,
                    "cached" | "predecoded" => Engine::Cached,
                    other => {
                        return Err(UsageError(format!(
                            "unknown engine `{other}` (interp | cached)"
                        )))
                    }
                });
            }
            "--stdin" => {
                let path = value(&mut it, "--stdin")?;
                opts.stdin = read_host(&path)?;
            }
            "--stdin-text" => {
                opts.stdin = value(&mut it, "--stdin-text")?.into_bytes();
            }
            "--arg" => opts.args.push(value(&mut it, "--arg")?),
            "--env" => opts.envs.push(value(&mut it, "--env")?),
            "--file" => {
                let spec = value(&mut it, "--file")?;
                let (guest, host) = spec
                    .split_once('=')
                    .ok_or_else(|| UsageError("`--file` expects PATH=HOSTFILE".into()))?;
                opts.files.push((guest.to_owned(), read_host(host)?));
            }
            "--session" => {
                let path = value(&mut it, "--session")?;
                let bytes = read_host(&path)?;
                let messages = String::from_utf8_lossy(&bytes)
                    .lines()
                    .map(unescape_session_line)
                    .collect::<Result<Vec<_>, _>>()?;
                opts.sessions.push(messages);
            }
            "--watch" => {
                let spec = value(&mut it, "--watch")?;
                let (sym, len) = spec
                    .split_once(':')
                    .ok_or_else(|| UsageError("`--watch` expects SYMBOL:LEN".into()))?;
                let len: u32 = len
                    .parse()
                    .map_err(|_| UsageError(format!("bad watch length `{len}`")))?;
                opts.watches.push((sym.to_owned(), len));
            }
            "--steps" => {
                let v = value(&mut it, "--steps")?;
                opts.steps = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad step count `{v}`")))?,
                );
            }
            "--watchdog-ms" => {
                let v = value(&mut it, "--watchdog-ms")?;
                opts.watchdog_ms = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad watchdog `{v}` (milliseconds)")))?,
                );
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                opts.seed = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad seed `{v}`")))?,
                );
            }
            "--trials" => {
                let v = value(&mut it, "--trials")?;
                opts.trials = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad trial count `{v}`")))?,
                );
            }
            "--faults" => {
                let v = value(&mut it, "--faults")?;
                let named = opts.fault_kinds.len();
                for token in v.split(',').filter(|t| !t.is_empty()) {
                    let kind = FaultKind::parse(token).ok_or_else(|| {
                        UsageError(format!(
                            "unknown fault kind `{token}` (one of: {})",
                            FaultKind::ALL.map(FaultKind::name).join(", ")
                        ))
                    })?;
                    opts.fault_kinds.push(kind);
                }
                if opts.fault_kinds.len() == named {
                    return Err(UsageError(format!(
                        "`--faults` list `{v}` names no fault kind (one of: {})",
                        FaultKind::ALL.map(FaultKind::name).join(", ")
                    )));
                }
            }
            "--journal" => opts.journal_in = Some(value(&mut it, "--journal")?),
            "--journal-out" => opts.journal_out = Some(value(&mut it, "--journal-out")?),
            "--report" => opts.report_out = Some(value(&mut it, "--report")?),
            "--trace-out" => opts.trace_out = Some(value(&mut it, "--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value(&mut it, "--metrics-out")?),
            "--profile-out" => opts.profile_out = Some(value(&mut it, "--profile-out")?),
            "--metrics-interval" => {
                let v = value(&mut it, "--metrics-interval")?;
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| UsageError(format!("bad metrics interval `{v}`")))?;
                opts.metrics_interval = Some(n);
            }
            "-j" | "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                opts.jobs = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| UsageError(format!("bad job count `{v}`")))?,
                );
            }
            "--provenance" => opts.provenance = true,
            "--trace-depth" => {
                let v = value(&mut it, "--trace-depth")?;
                opts.trace_depth = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| UsageError(format!("bad trace depth `{v}`")))?,
                );
            }
            // The attached spelling `-j4`, matching the make/cargo idiom.
            flag if flag.len() > 2 && flag.starts_with("-j") => {
                let v = &flag[2..];
                opts.jobs = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| UsageError(format!("bad job count `{v}`")))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(UsageError(format!("unknown flag `{flag}`")));
            }
            path => {
                if !opts.program.is_empty() {
                    return Err(UsageError(format!("unexpected extra argument `{path}`")));
                }
                opts.program = path.to_owned();
            }
        }
    }
    if opts.program.is_empty() {
        return Err(UsageError(
            "no program given (usage: ptaint-run prog.c [options])".into(),
        ));
    }
    if opts.metrics_interval.is_some() && opts.trace_out.is_none() {
        return Err(UsageError(
            "`--metrics-interval` needs `--trace-out FILE` (the periodic snapshots land in the JSONL stream)".into(),
        ));
    }
    if opts.replay && opts.journal_in.is_none() {
        return Err(UsageError(
            "`replay` needs `--journal FILE` (a journal recorded with `--journal-out`)".into(),
        ));
    }
    if opts.journal_in.is_some() && !opts.replay {
        return Err(UsageError(
            "`--journal` only applies to the `replay` subcommand".into(),
        ));
    }
    // Campaign flags shape a campaign; anywhere else they would be dropped.
    let campaign_flag = [
        (opts.seed.is_some(), "--seed"),
        (opts.trials.is_some(), "--trials"),
        (!opts.fault_kinds.is_empty(), "--faults"),
        (opts.report_out.is_some(), "--report"),
    ]
    .into_iter()
    .find_map(|(set, flag)| set.then_some(flag));
    if let (false, Some(flag)) = (opts.inject, campaign_flag) {
        return Err(UsageError(format!(
            "`{flag}` only applies to the `inject` subcommand"
        )));
    }
    if opts.asm && opts.optimize {
        return Err(UsageError(
            "`--optimize` applies to mini-C only, not `--asm` input".into(),
        ));
    }
    // Flags whose artifact only a single run can produce are usage errors
    // where no single run happens, never silently dropped.
    let no_run = [
        (opts.analyze, "analyze"),
        (opts.inject, "inject"),
        (opts.replay, "replay"),
        (opts.disasm, "--disasm"),
    ]
    .into_iter()
    .find_map(|(set, mode)| set.then_some(mode));
    let single_run = [
        (opts.trace_out.is_some(), "--trace-out"),
        (opts.metrics_out.is_some(), "--metrics-out"),
        (opts.metrics_interval.is_some(), "--metrics-interval"),
        (opts.profile_out.is_some(), "--profile-out"),
        (opts.profile, "profile"),
        (opts.journal_out.is_some(), "--journal-out"),
        (opts.provenance, "--provenance"),
        (opts.pipeline, "--pipeline"),
        (opts.trace, "--trace"),
    ]
    .into_iter()
    .find_map(|(set, flag)| set.then_some(flag));
    if let (Some(mode), Some(flag)) = (no_run, single_run) {
        return Err(UsageError(format!(
            "`{flag}` needs a single run, which `{mode}` does not make"
        )));
    }
    Ok(opts)
}

/// Builds the machine described by `opts` from an in-memory source.
///
/// # Errors
///
/// Returns a [`UsageError`] when the program fails to build or a watched
/// symbol does not exist.
pub fn build_machine(opts: &Options, source: &str) -> Result<Machine, UsageError> {
    let mut machine = if opts.asm {
        Machine::from_asm(source)
    } else if opts.optimize {
        Machine::from_c_optimized(source)
    } else {
        Machine::from_c(source)
    }
    .map_err(|e| UsageError(format!("build failed: {e}")))?;

    let mut world = WorldConfig::new().stdin(opts.stdin.clone());
    let mut argv = vec![opts.program.clone()];
    argv.extend(opts.args.iter().cloned());
    world = world.args(argv);
    for env in &opts.envs {
        world = world.env(env);
    }
    for (path, contents) in &opts.files {
        world = world.file(path.clone(), contents.clone());
    }
    for session in &opts.sessions {
        world = world.session(NetSession::new(session.clone()));
    }
    machine = machine.world(world);
    if let Some(policy) = opts.policy {
        machine = machine.policy(policy);
    }
    if let Some(engine) = opts.engine {
        machine = machine.engine(engine);
    }
    if opts.elide_checks {
        machine = machine.elide_checks(true);
    }
    if opts.caches {
        machine = machine.hierarchy(ptaint::HierarchyConfig::two_level());
    }
    if let Some(steps) = opts.steps {
        machine = machine.step_limit(steps);
    }
    if let Some(ms) = opts.watchdog_ms {
        machine = machine.watchdog(Duration::from_millis(ms));
    }
    if let Some(depth) = opts.trace_depth {
        machine = machine.trace_depth(depth);
    }
    for (sym, len) in &opts.watches {
        let Some(addr) = machine.image().symbol(sym) else {
            return Err(UsageError(format!("no symbol `{sym}` to watch")));
        };
        if *len == 0 || addr.checked_add(len - 1).is_none() {
            return Err(UsageError(format!(
                "watch `{sym}:{len}` covers no bytes or runs past 0xffffffff"
            )));
        }
        machine = machine.taint_watch_symbol(sym, *len);
    }
    if let Some(jobs) = opts.jobs {
        machine = machine.analysis_jobs(jobs);
    }
    Ok(machine)
}

/// Runs the machine and renders the report. Returns `(report, exit_code)`.
///
/// With `--trace-out` / `--metrics-out` / `--report` the collected
/// artifacts are written to the named host files; a write failure is
/// reported in the text output and forces exit code [`EXIT_ARTIFACT`], so
/// lost data is never mistaken for success.
#[must_use]
pub fn run_machine(opts: &Options, machine: &Machine) -> (String, i32) {
    if opts.analyze {
        return run_analyze_cli(opts, machine);
    }
    if opts.inject {
        return run_campaign_cli(opts, machine);
    }
    if opts.replay {
        return run_replay_cli(opts, machine);
    }
    if opts.disasm {
        return (ptaint::disassemble(machine.image()), 0);
    }
    let run = machine.run_with(&RunConfig {
        trace: TraceConfig {
            jsonl: opts.trace_out.is_some(),
            metrics: opts.metrics_out.is_some(),
            provenance: opts.provenance,
            metrics_interval: opts.metrics_interval,
            ..TraceConfig::default()
        },
        profile: opts.profile || opts.profile_out.is_some(),
        record: opts.journal_out.is_some(),
        pipeline: opts.pipeline,
    });
    let outcome = &run.outcome;
    let detected = outcome.reason.is_detected();

    let mut report = String::new();
    if !outcome.stdout.is_empty() {
        report.push_str(&String::from_utf8_lossy(&outcome.stdout));
        if !report.ends_with('\n') {
            report.push('\n');
        }
    }
    for (i, transcript) in outcome.transcripts.iter().enumerate() {
        if !transcript.is_empty() {
            let _ = writeln!(
                report,
                "--- session {i} transcript ---\n{}",
                String::from_utf8_lossy(transcript)
            );
        }
    }
    // The execution tail is printed when asked for (`--trace`) and, so the
    // detection report stands on its own, whenever an alert fired.
    if (opts.trace || (detected && !opts.quiet)) && !run.tail.is_empty() {
        let _ = writeln!(report, "--- last {} instructions ---", run.tail.len());
        for line in &run.tail {
            let _ = writeln!(report, "{line}");
        }
    }
    if !opts.quiet {
        let _ = writeln!(report, "--- outcome: {}", outcome.reason);
        let _ = writeln!(report, "--- stats: {}", outcome.stats);
        let mem = run.cpu.mem();
        let levels: Vec<String> = (1..)
            .zip([mem.l1_stats(), mem.l2_stats()])
            .filter_map(|(level, stats)| {
                stats.map(|c| {
                    format!(
                        "L{level} {} hits, {} misses, {} evictions",
                        c.hits, c.misses, c.evictions
                    )
                })
            })
            .collect();
        if !levels.is_empty() {
            let _ = writeln!(report, "--- caches: {}", levels.join("; "));
        }
        if let Some(p) = &run.pipeline {
            let _ = writeln!(
                report,
                "--- pipeline: {} cycles, IPC {:.3}, {} load-use stalls, {} flushes",
                p.cycles,
                p.ipc(),
                p.load_use_stalls,
                p.control_flushes
            );
        }
    }
    if let Some(chain) = &run.trace.forensic {
        let _ = writeln!(report, "--- provenance ---\n{chain}");
    } else if opts.provenance && detected {
        let _ = writeln!(report, "--- provenance: no chain reconstructed ---");
    }
    // The `profile` subcommand's reason to exist: the human top-N report.
    if opts.profile && !opts.quiet {
        if let Some(p) = &run.profile {
            report.push_str(&p.render_text(PROFILE_TOP_N));
        }
    }
    let mut artifact_failed = false;
    if let Some(path) = &opts.profile_out {
        let json = run
            .profile
            .as_ref()
            .map_or(String::new(), |p| p.to_json() + "\n");
        artifact_failed |= write_artifact(&mut report, opts, "profile", path, "", json);
    }
    if let Some(path) = &opts.trace_out {
        let bytes = run.trace.jsonl.as_deref().unwrap_or_default();
        let events = bytes.iter().filter(|&&b| b == b'\n').count();
        let detail = format!("{events} events to ");
        artifact_failed |= write_artifact(&mut report, opts, "trace", path, &detail, bytes);
    }
    if let Some(path) = &opts.metrics_out {
        let json = run
            .trace
            .metrics
            .as_ref()
            .map_or(String::new(), |m| m.to_json() + "\n");
        artifact_failed |= write_artifact(&mut report, opts, "metrics", path, "", json);
    }
    if let Some(path) = &opts.journal_out {
        let journal = run.journal.as_ref();
        let detail = format!("{} calls to ", journal.map_or(0, SyscallJournal::len));
        let text = journal.map(SyscallJournal::to_text).unwrap_or_default();
        artifact_failed |= write_artifact(&mut report, opts, "journal", path, &detail, text);
    }
    let code = if artifact_failed {
        EXIT_ARTIFACT
    } else {
        exit_code(&run.outcome.reason)
    };
    (report, code)
}

/// Writes one requested artifact to `path` and notes the result in
/// `report` as `--- {label}: wrote {detail}{path}` (unless quiet) or as
/// the write error. Returns whether the write failed.
fn write_artifact(
    report: &mut String,
    opts: &Options,
    label: &str,
    path: &str,
    detail: &str,
    contents: impl AsRef<[u8]>,
) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => {
            if !opts.quiet {
                let _ = writeln!(report, "--- {label}: wrote {detail}{path}");
            }
            false
        }
        Err(e) => {
            let _ = writeln!(report, "--- {label}: cannot write `{path}`: {e}");
            true
        }
    }
}

/// The exit code a finished run reports: the guest's exit status, 42 on a
/// detection, 1 on any other abnormal stop.
fn exit_code(reason: &ExitReason) -> i32 {
    match reason {
        ExitReason::Exited(status) => *status,
        ExitReason::Security(_) => 42,
        _ => 1,
    }
}

/// The `analyze` subcommand: prints the static lint report; findings
/// exit 3.
fn run_analyze_cli(opts: &Options, machine: &Machine) -> (String, i32) {
    let image = machine.image();
    let analysis = match opts.jobs {
        Some(jobs) => ptaint::analyze_with(image, jobs),
        None => ptaint::analyze(image),
    };
    let code = i32::from(analysis.stats.flagged_sites > 0) * 3;
    (ptaint::render_report(image, &analysis), code)
}

/// The `inject` subcommand: runs a seeded campaign and emits the JSON
/// report (to `--report FILE`, or into the text output).
fn run_campaign_cli(opts: &Options, machine: &Machine) -> (String, i32) {
    let spec = CampaignSpec::new(opts.seed.unwrap_or(1), opts.trials.unwrap_or(32))
        .kinds(opts.fault_kinds.clone());
    let jobs = opts.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let campaign = machine.run_campaign_jobs(&spec, jobs);
    let json = campaign.to_json() + "\n";

    let mut report = String::new();
    if !opts.quiet {
        let counts = ptaint::OutcomeClass::ALL
            .iter()
            .map(|&c| format!("{} {}", campaign.count(c), c.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            report,
            "--- campaign: seed {}, {} trials over `{}`: {counts}",
            campaign.seed, campaign.trials, opts.program
        );
        let _ = writeln!(
            report,
            "--- baseline: {} ({} taint-delivering calls)",
            campaign.baseline_reason, campaign.baseline_io_calls
        );
    }
    let mut code = 0;
    match &opts.report_out {
        Some(path) => {
            if write_artifact(&mut report, opts, "report", path, "", json) {
                code = EXIT_ARTIFACT;
            }
        }
        None => report.push_str(&json),
    }
    (report, code)
}

/// The `replay` subcommand: re-serves a recorded journal against the
/// built image and reports the retraced outcome. An unreadable or
/// malformed journal file is a read error (exit 2), matching the other
/// input files; a divergence is an abnormal stop (exit 1) whose outcome
/// line names the call where the guest left the recording.
fn run_replay_cli(opts: &Options, machine: &Machine) -> (String, i32) {
    let path = opts.journal_in.as_deref().unwrap_or_default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return (format!("cannot read journal `{path}`: {e}\n"), 2),
    };
    let journal = match SyscallJournal::from_text(&text) {
        Ok(j) => j,
        Err(e) => return (format!("bad journal `{path}`: {e}\n"), 2),
    };
    let calls = journal.len();
    let outcome = machine.replay(journal);
    let mut report = String::new();
    if !opts.quiet {
        let _ = writeln!(report, "--- replay: {calls} journaled calls from {path}");
        let _ = writeln!(report, "--- outcome: {}", outcome.reason);
        let _ = writeln!(report, "--- stats: {}", outcome.stats);
    }
    (report, exit_code(&outcome.reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, UsageError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&owned)
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse(&[
            "prog.c",
            "--policy",
            "control-only",
            "--stdin-text",
            "hello",
            "--arg",
            "-g",
            "--arg",
            "123",
            "--env",
            "HOME=/root",
            "--watch",
            "uid:4",
            "--caches",
            "--pipeline",
            "--steps",
            "1000",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(opts.program, "prog.c");
        assert_eq!(opts.policy, Some(DetectionPolicy::ControlOnly));
        assert_eq!(opts.stdin, b"hello");
        assert_eq!(opts.args, vec!["-g", "123"]);
        assert_eq!(opts.envs, vec!["HOME=/root"]);
        assert_eq!(opts.watches, vec![("uid".to_owned(), 4)]);
        assert!(opts.caches && opts.pipeline && opts.quiet);
        assert_eq!(opts.steps, Some(1000));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["a.c", "b.c"]).is_err());
        assert!(parse(&["a.c", "--policy"]).is_err());
        assert!(parse(&["a.c", "--policy", "what"]).is_err());
        assert!(parse(&["a.c", "--watch", "nocolon"]).is_err());
        assert!(parse(&["a.c", "--bogus"]).is_err());
        assert!(parse(&["a.c", "--steps", "NaN"]).is_err());
        assert!(parse(&["a.c", "--engine"]).is_err());
        assert!(parse(&["a.c", "--engine", "jit"]).is_err());
        // The peephole optimizer runs on mini-C only.
        let err = parse(&["a.s", "--asm", "--optimize"]).unwrap_err();
        assert!(err.0.contains("--optimize"), "{err}");
        assert!(parse(&["--optimize", "a.s", "--asm"]).is_err());
        assert!(parse(&["a.c", "--optimize"]).unwrap().optimize);
    }

    #[test]
    fn engine_flag_selects_the_engine() {
        assert_eq!(parse(&["a.c"]).unwrap().engine, None);
        assert_eq!(
            parse(&["a.c", "--engine", "interp"]).unwrap().engine,
            Some(Engine::Interp)
        );
        assert_eq!(
            parse(&["a.c", "--engine", "cached"]).unwrap().engine,
            Some(Engine::Cached)
        );
    }

    #[test]
    fn session_lines_decode_hex_escapes() {
        assert_eq!(unescape_session_line("GET /x").unwrap(), b"GET /x");
        assert_eq!(
            unescape_session_line("A\\x00\\xd0\\x01B\\\\").unwrap(),
            [b'A', 0x00, 0xd0, 0x01, b'B', b'\\']
        );
        assert!(unescape_session_line("\\x2").is_err());
        assert!(unescape_session_line("\\q").is_err());
        assert!(unescape_session_line("trailing\\").is_err());
    }

    #[test]
    fn end_to_end_hello() {
        let opts = parse(&["hello.c", "--quiet"]).unwrap();
        let machine = build_machine(
            &opts,
            r#"int main() { printf("hi from cli\n"); return 3; }"#,
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(report, "hi from cli\n");
        assert_eq!(code, 3);
    }

    #[test]
    fn end_to_end_detection_exits_42() {
        let opts = parse(&["vuln.c", "--quiet", "--stdin-text"]).unwrap_err();
        assert!(opts.0.contains("needs a value"));

        let opts = parse(&["vuln.c"]).unwrap();
        let mut opts = opts;
        opts.stdin = vec![b'a'; 24];
        let machine = build_machine(
            &opts,
            "void f() { char b[10]; scanf(\"%s\", b); } int main() { f(); return 0; }",
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 42);
        assert!(report.contains("SECURITY ALERT"), "{report}");
        assert!(report.contains("jr $31"), "{report}");
    }

    #[test]
    fn watch_flag_protects_symbols() {
        let mut opts = parse(&["auth.c", "--watch", "authenticated:4", "--quiet"]).unwrap();
        opts.stdin = {
            let mut v = vec![b'x'; 16];
            v.extend_from_slice(b"AAAA\n");
            v
        };
        let source = "char pw[16]; int authenticated;
             int main() { gets(pw); if (authenticated) printf(\"in\\n\"); return 0; }";
        let machine = build_machine(&opts, source).unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 42, "{report}");

        // Unknown symbol is a usage error.
        let opts = parse(&["auth.c", "--watch", "nope:4"]).unwrap();
        assert!(build_machine(&opts, source).is_err());

        // So is a range that covers no bytes or wraps past 0xffffffff:
        // it could never fire.
        for spec in ["pw:0", "pw:4294967295", "authenticated:4294967295"] {
            let opts = parse(&["auth.c", "--watch", spec]).unwrap();
            let err = build_machine(&opts, source).unwrap_err();
            assert!(err.0.contains("runs past 0xffffffff"), "{spec}: {err}");
        }
        let opts = parse(&["auth.c", "--watch", "pw:16", "--quiet"]).unwrap();
        assert!(build_machine(&opts, source).is_ok());
    }

    #[test]
    fn analyze_subcommand_prints_the_lint_report() {
        let opts = parse(&["analyze", "p.c"]).unwrap();
        assert!(opts.analyze);
        assert_eq!(opts.program, "p.c");

        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("ptaint-analyze report"), "{report}");

        // A provable tainted dereference is reported and exits 3.
        let machine = build_machine(
            &opts,
            r#"int main() {
                char buf[8];
                read(0, buf, 4);
                int *p = (int *)(buf[0]);
                return *p;
            }"#,
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 3, "{report}");
    }

    #[test]
    fn jobs_flag_parses_all_spellings() {
        assert_eq!(parse(&["p.c"]).unwrap().jobs, None);
        assert_eq!(parse(&["p.c", "-j", "4"]).unwrap().jobs, Some(4));
        assert_eq!(parse(&["p.c", "--jobs", "2"]).unwrap().jobs, Some(2));
        assert_eq!(parse(&["p.c", "-j8"]).unwrap().jobs, Some(8));
        assert!(parse(&["p.c", "-j", "0"]).is_err());
        assert!(parse(&["p.c", "-j0"]).is_err());
        assert!(parse(&["p.c", "-jx"]).is_err());
        assert!(parse(&["p.c", "--jobs", "NaN"]).is_err());
    }

    #[test]
    fn analyze_jobs_output_is_thread_count_independent() {
        let source = r#"int main() {
            char buf[8];
            read(0, buf, 4);
            int *p = (int *)(buf[0]);
            return *p;
        }"#;
        let mut one = parse(&["analyze", "p.c", "-j1"]).unwrap();
        let machine = build_machine(&one, source).unwrap();
        let (report_one, code_one) = run_machine(&one, &machine);
        one.jobs = Some(4);
        let (report_four, code_four) = run_machine(&one, &machine);
        assert_eq!(code_one, 3, "{report_one}");
        assert_eq!(code_four, 3);
        assert_eq!(
            report_one, report_four,
            "-j1 and -j4 must render byte-identical reports"
        );
    }

    #[test]
    fn analyze_keyword_is_positional_only() {
        // Only the first argument is the subcommand keyword: later
        // positionals named `analyze` are program paths.
        let opts = parse(&["--asm", "analyze"]).unwrap();
        assert!(!opts.analyze);
        assert_eq!(opts.program, "analyze");

        // The `./` escape hatch works even in the first position.
        let opts = parse(&["./analyze"]).unwrap();
        assert!(!opts.analyze);
        assert_eq!(opts.program, "./analyze");

        // Flags may precede the program after the keyword.
        let opts = parse(&["analyze", "--asm", "p.s"]).unwrap();
        assert!(opts.analyze && opts.asm);
        assert_eq!(opts.program, "p.s");

        // A bare `analyze` still reports the missing program.
        assert!(parse(&["analyze"]).unwrap_err().0.contains("no program"));
    }

    #[test]
    fn elide_checks_flag_reaches_the_machine() {
        let opts = parse(&["p.c", "--elide-checks", "--quiet"]).unwrap();
        assert!(opts.elide_checks);
        let machine = build_machine(&opts, "int main() { return 5; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 5, "{report}");
    }

    #[test]
    fn disasm_mode_prints_assembly() {
        let opts = parse(&["p.c", "--disasm"]).unwrap();
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 0);
        assert!(report.contains("<main>:"));
    }

    #[test]
    fn pipeline_mode_reports_cycles() {
        let opts = parse(&["p.c", "--pipeline"]).unwrap();
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, _) = run_machine(&opts, &machine);
        assert!(report.contains("--- pipeline:"), "{report}");
    }

    #[test]
    fn caches_flag_reports_each_level_from_the_cache_model() {
        let source = "int main() { char b[8]; read(0, b, 8); return b[0]; }";
        let opts = parse(&["p.c", "--caches", "--stdin-text", "x"]).unwrap();
        let (report, _) = run_machine(&opts, &build_machine(&opts, source).unwrap());
        let line = report
            .lines()
            .find(|l| l.starts_with("--- caches: "))
            .unwrap_or_else(|| panic!("no caches line: {report}"));
        assert!(line.contains("L1 ") && line.contains("; L2 "), "{line}");
        assert!(line.ends_with(" evictions"), "{line}");
        let flat = parse(&["p.c"]).unwrap();
        let (report, _) = run_machine(&flat, &build_machine(&flat, source).unwrap());
        assert!(!report.contains("--- caches:"), "{report}");
    }

    #[test]
    fn inject_subcommand_parses_campaign_flags() {
        let opts = parse(&[
            "inject",
            "p.c",
            "--seed",
            "7",
            "--trials",
            "4",
            "--faults",
            "taint_clear,eintr",
            "--report",
            "out.json",
        ])
        .unwrap();
        assert!(opts.inject);
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.trials, Some(4));
        assert_eq!(
            opts.fault_kinds,
            vec![FaultKind::TaintClear, FaultKind::Eintr]
        );
        assert_eq!(opts.report_out.as_deref(), Some("out.json"));

        assert!(parse(&["inject", "p.c", "--faults", "cosmic_ray"]).is_err());
        // An explicit list that names no kind never widens to all kinds.
        for empty in ["", ",", ",,"] {
            let err = parse(&["inject", "p.c", "--faults", empty]).unwrap_err();
            assert!(err.0.contains("names no fault kind"), "{err}");
        }
        assert!(parse(&["inject", "p.c", "--faults", "eintr", "--faults", ""]).is_err());
        assert!(parse(&["p.c", "--seed", "NaN"]).is_err());
        assert!(parse(&["p.c", "--watchdog-ms", "x"]).is_err());
        // Campaign flags outside `inject` are usage errors, never dropped.
        for (flag, value) in [
            ("--seed", "5"),
            ("--trials", "3"),
            ("--faults", "eintr"),
            ("--report", "r.json"),
        ] {
            for mode in [&[][..], &["profile"], &["analyze"]] {
                let args = [mode, &["p.c", flag, value]].concat();
                let err = parse(&args).unwrap_err();
                assert!(
                    err.0.contains(flag) && err.0.contains("`inject`"),
                    "{args:?}: {err}"
                );
            }
            assert!(parse(&["replay", "p.c", "--journal", "j", flag, value]).is_err());
            assert!(parse(&["p.c", "--disasm", flag, value]).is_err());
        }
        // Positional-only, like `analyze`.
        let opts = parse(&["--asm", "inject"]).unwrap();
        assert!(!opts.inject);
        assert_eq!(opts.program, "inject");
    }

    #[test]
    fn inject_campaign_runs_and_is_deterministic() {
        let mut opts =
            parse(&["inject", "p.c", "--seed", "3", "--trials", "4", "--quiet"]).unwrap();
        opts.stdin = b"abcd".to_vec();
        let machine = build_machine(
            &opts,
            r#"int main() {
                char b[8];
                read(0, b, 8);
                return 0;
            }"#,
        )
        .unwrap();
        let (a, code_a) = run_machine(&opts, &machine);
        let (b, code_b) = run_machine(&opts, &machine);
        assert_eq!(code_a, 0);
        assert_eq!(code_b, 0);
        assert_eq!(a, b, "same seed must give byte-identical output");
        assert!(a.contains("\"seed\":3"), "{a}");
        assert!(a.contains("\"records\":["), "{a}");
    }

    #[test]
    fn profile_subcommand_prints_the_report() {
        let opts = parse(&["profile", "p.c"]).unwrap();
        assert!(opts.profile);
        assert_eq!(opts.program, "p.c");

        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("--- profile:"), "{report}");
        assert!(report.contains("hot blocks"), "{report}");
        assert!(report.contains("main"), "{report}");

        // Positional-only, like `analyze` and `inject`.
        let opts = parse(&["--asm", "profile"]).unwrap();
        assert!(!opts.profile);
        assert_eq!(opts.program, "profile");
    }

    #[test]
    fn profile_out_writes_deterministic_json() {
        let dir = std::env::temp_dir().join("ptaint-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let mut opts = parse(&["p.c", "--quiet"]).unwrap();
        opts.profile_out = Some(path.to_string_lossy().into_owned());
        let machine = build_machine(
            &opts,
            "int f(int x) { return x + 1; } int main() { return f(4); }",
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 5, "{report}");
        let first = std::fs::read(&path).unwrap();
        let (_, code2) = run_machine(&opts, &machine);
        assert_eq!(code2, 5);
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "profile JSON must be byte-deterministic");
        let text = String::from_utf8(first).unwrap();
        assert!(text.starts_with("{\"steps\":"), "{text}");
        assert!(text.contains("\"symbol\":\"main\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_interval_needs_trace_out_and_rejects_zero() {
        assert!(parse(&["p.c", "--metrics-interval", "100"])
            .unwrap_err()
            .0
            .contains("--trace-out"));
        assert!(parse(&["p.c", "--metrics-interval", "0", "--trace-out", "t"]).is_err());
        assert!(parse(&["p.c", "--metrics-interval", "x", "--trace-out", "t"]).is_err());
        let opts = parse(&["p.c", "--metrics-interval", "512", "--trace-out", "t.jsonl"]).unwrap();
        assert_eq!(opts.metrics_interval, Some(512));
    }

    #[test]
    fn trace_depth_rejects_zero() {
        assert!(parse(&["p.c", "--trace-depth", "0"]).is_err());
        assert!(parse(&["p.c", "--trace-depth", "x"]).is_err());
        assert_eq!(
            parse(&["p.c", "--trace-depth", "3"]).unwrap().trace_depth,
            Some(3)
        );
    }

    #[test]
    fn artifact_write_failures_exit_4() {
        // Campaign report into a directory that does not exist.
        let mut opts = parse(&[
            "inject",
            "p.c",
            "--trials",
            "1",
            "--report",
            "/nonexistent-dir/r.json",
        ])
        .unwrap();
        opts.quiet = true;
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, EXIT_ARTIFACT, "{report}");
        assert!(report.contains("cannot write"), "{report}");

        // Trace stream into an unwritable path: exit 4, not the guest's 0.
        let opts2 = {
            let mut o =
                parse(&["p.c", "--quiet", "--trace-out", "/nonexistent-dir/t.jsonl"]).unwrap();
            o.quiet = true;
            o
        };
        let machine2 = build_machine(&opts2, "int main() { return 0; }").unwrap();
        let (report2, code2) = run_machine(&opts2, &machine2);
        assert_eq!(code2, EXIT_ARTIFACT, "{report2}");

        // Profile JSON into an unwritable path: same contract.
        let opts3 = {
            let mut o = parse(&["p.c", "--profile-out", "/nonexistent-dir/p.json"]).unwrap();
            o.quiet = true;
            o
        };
        let machine3 = build_machine(&opts3, "int main() { return 0; }").unwrap();
        let (report3, code3) = run_machine(&opts3, &machine3);
        assert_eq!(code3, EXIT_ARTIFACT, "{report3}");
        assert!(report3.contains("cannot write"), "{report3}");
    }

    #[test]
    fn replay_subcommand_parses_and_validates() {
        let opts = parse(&["replay", "p.c", "--journal", "j.txt"]).unwrap();
        assert!(opts.replay);
        assert_eq!(opts.program, "p.c");
        assert_eq!(opts.journal_in.as_deref(), Some("j.txt"));

        // `replay` without a journal, and `--journal` outside `replay`,
        // are usage errors.
        assert!(parse(&["replay", "p.c"])
            .unwrap_err()
            .0
            .contains("--journal"));
        assert!(parse(&["p.c", "--journal", "j.txt"]).is_err());
        // Positional-only, like the other subcommands.
        let opts = parse(&["--asm", "replay"]).unwrap();
        assert!(!opts.replay);
        assert_eq!(opts.program, "replay");
    }

    #[test]
    fn single_run_flags_are_rejected_where_no_single_run_happens() {
        assert!(parse(&["inject", "p.c", "--journal-out", "j.txt"]).is_err());
        assert!(parse(&["analyze", "p.c", "--journal-out", "j.txt"]).is_err());
        let err = parse(&["inject", "p.c", "--trace-out", "x.jsonl"]).unwrap_err();
        assert!(
            err.0.contains("`--trace-out`") && err.0.contains("`inject`"),
            "{err}"
        );
        assert!(parse(&["analyze", "p.c", "--trace-out", "y.jsonl"]).is_err());
        assert!(parse(&["replay", "p.c", "--journal", "j", "--metrics-out", "m"]).is_err());
        assert!(parse(&[
            "inject",
            "p.c",
            "--trace-out",
            "t",
            "--metrics-interval",
            "9"
        ])
        .is_err());
        assert!(parse(&["analyze", "p.c", "--profile-out", "p.json"]).is_err());
        assert!(parse(&["replay", "p.c", "--journal", "j", "--journal-out", "k"]).is_err());
        assert!(parse(&["p.c", "--disasm", "--journal-out", "j.txt"]).is_err());
        assert!(parse(&["inject", "p.c", "--provenance"]).is_err());
        assert!(parse(&["analyze", "p.c", "--pipeline"]).is_err());
        assert!(parse(&["p.c", "--disasm", "--trace"]).is_err());
        let err = parse(&["profile", "p.c", "--disasm"]).unwrap_err();
        assert!(
            err.0.contains("`profile`") && err.0.contains("`--disasm`"),
            "{err}"
        );
        // A single run composes every one of them.
        let opts = parse(&[
            "p.c",
            "--journal-out",
            "j.txt",
            "--pipeline",
            "--trace-out",
            "t",
        ]);
        assert_eq!(opts.unwrap().journal_out.as_deref(), Some("j.txt"));
        assert!(parse(&["profile", "p.c", "--pipeline", "--profile-out", "f"]).is_ok());
    }

    #[test]
    fn composed_run_writes_every_artifact() {
        let dir = std::env::temp_dir().join("ptaint-cli-composed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let source = "void f() { char b[10]; scanf(\"%s\", b); } int main() { f(); return 0; }";
        let (t, m, p, j) = (
            file("t.jsonl"),
            file("m.json"),
            file("p.json"),
            file("j.txt"),
        );
        let args = [
            "smash.c",
            "--pipeline",
            "--provenance",
            "--trace",
            "--trace-out",
            &t,
            "--metrics-out",
            &m,
            "--profile-out",
            &p,
            "--journal-out",
            &j,
        ];
        let mut opts = parse(&args).unwrap();
        opts.stdin = vec![b'a'; 24];
        let (report, code) = run_machine(&opts, &build_machine(&opts, source).unwrap());
        assert_eq!(code, 42, "{report}");
        assert!(report.contains("--- provenance ---\n"), "{report}");
        assert!(report.contains("--- last 64 instructions ---"), "{report}");
        assert!(report.contains("--- pipeline:"), "{report}");
        for path in [&t, &m, &p, &j] {
            assert!(
                std::fs::metadata(path).unwrap().len() > 0,
                "{path} is empty"
            );
        }
        let piped = std::fs::read(&t).unwrap();

        // The pipeline changes the timing model, never the event stream.
        opts.pipeline = false;
        let (report, code) = run_machine(&opts, &build_machine(&opts, source).unwrap());
        assert_eq!(code, 42, "{report}");
        assert_eq!(std::fs::read(&t).unwrap(), piped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_then_replay_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join("ptaint-cli-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let source = r#"int main() {
            char b[16];
            int n = read(0, b, 15);
            write(1, b, n);
            return 6;
        }"#;

        let mut rec = parse(&["p.c", "--quiet"]).unwrap();
        rec.journal_out = Some(path.to_string_lossy().into_owned());
        rec.stdin = b"replay me".to_vec();
        let (report, code) = run_machine(&rec, &build_machine(&rec, source).unwrap());
        assert_eq!(code, 6, "{report}");
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("ptaint-journal v1"));

        // Replay with no stdin attached: the journal re-serves the input.
        let rep = {
            let mut o = parse(&["replay", "p.c", "--journal", "x"]).unwrap();
            o.journal_in = Some(path.to_string_lossy().into_owned());
            o
        };
        let (report, code) = run_machine(&rep, &build_machine(&rep, source).unwrap());
        assert_eq!(code, 6, "{report}");
        assert!(report.contains("--- replay:"), "{report}");

        // A different program diverges from the journal: abnormal stop.
        let other = "int main() { printf(\"hi\\n\"); return 0; }";
        let (report, code) = run_machine(&rep, &build_machine(&rep, other).unwrap());
        assert_eq!(code, 1, "{report}");
        assert!(report.contains("replay diverged"), "{report}");

        // Unreadable and malformed journals are read errors (exit 2).
        let missing = {
            let mut o = rep.clone();
            o.journal_in = Some("/nonexistent-dir/j.txt".into());
            o
        };
        let (report, code) = run_machine(&missing, &build_machine(&missing, source).unwrap());
        assert_eq!(code, 2, "{report}");
        let garbled = dir.join("garbled.journal");
        std::fs::write(&garbled, "not a journal\n").unwrap();
        let bad = {
            let mut o = rep.clone();
            o.journal_in = Some(garbled.to_string_lossy().into_owned());
            o
        };
        let (report, code) = run_machine(&bad, &build_machine(&bad, source).unwrap());
        assert_eq!(code, 2, "{report}");
        assert!(report.contains("bad journal"), "{report}");
        // So is a complete record with a trailing field.
        let recorded = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&garbled, format!("{} junk\n", recorded.trim_end())).unwrap();
        let (report, code) = run_machine(&bad, &build_machine(&bad, source).unwrap());
        assert_eq!(code, 2, "{report}");
        assert!(report.contains("trailing field `junk`"), "{report}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&garbled);
    }

    #[test]
    fn journal_write_failures_exit_4() {
        let mut opts = parse(&["p.c", "--quiet"]).unwrap();
        opts.journal_out = Some("/nonexistent-dir/j.txt".into());
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, EXIT_ARTIFACT, "{report}");
        assert!(report.contains("cannot write"), "{report}");
    }

    #[test]
    fn watchdog_flag_reaches_the_run() {
        let mut opts = parse(&["p.s", "--asm", "--watchdog-ms", "10"]).unwrap();
        opts.quiet = true;
        let machine = build_machine(&opts, "main: b main").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 1, "{report}");
    }
}
