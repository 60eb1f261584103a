//! `sessions`: one op is one `ptaint-run <daemon.c> --session FILE
//! --provenance` invocation, made in process through
//! `ptaint_cli::{parse_args, build_machine, run_machine}` exactly as the
//! binary's `main` makes it. Six cases: an attack and a benign session
//! against each CVE daemon (wu_ftpd, null_httpd, ghttpd). Every invocation
//! rebuilds the daemon from source, so the toolchain outweighs the run;
//! the observer/provenance hooks and the report rendering are on here and
//! off in `table3`, and every run starts with a cold decode cache.

use std::path::Path;

use ptaint::{
    DetectionPolicy, HierarchyConfig, Machine, NetSession, RunLimits, SplitMix64, TraceConfig,
    WorldConfig,
};
use ptaint_cli::Options;
use ptaint_guest::apps::{calibrate_format_pad, ghttpd, null_httpd, wu_ftpd};
use ptaint_guest::{CRT0_ASM, LIBC_C, SYSCALL_STUBS_ASM};

use crate::{self_time, timed, Op, Spans, Workload};

/// Highest `%x` pad count the wu_ftpd calibration tries.
const MAX_PAD: usize = 48;

/// One `ptaint-run` invocation and what it must produce.
struct Case {
    /// The command line, without the program name.
    args: Vec<String>,
    /// Expected exit code: 42 for a detected attack, 0 for a benign run.
    code: i32,
    /// The tainted pointer the alert must name, where the attack has one
    /// fixed target.
    alert_pointer: Option<u32>,
    /// Exact guest instructions of the run.
    guest_insn: u64,
}

/// The sessions workload.
pub struct Sessions {
    cases: Vec<Case>,
    /// Case visited by op `i` is `order[i % 6]`, shuffled by the seed.
    order: Vec<usize>,
}

/// Session-file text for `session`: one message per line, raw bytes as
/// `\xNN` and backslashes doubled, the escapes `ptaint-run` reads.
fn session_file(session: &NetSession) -> String {
    let mut text = String::new();
    for message in &session.messages {
        for &b in message {
            match b {
                b'\\' => text.push_str("\\\\"),
                0x20..=0x7e => text.push(char::from(b)),
                _ => text.push_str(&format!("\\x{b:02x}")),
            }
        }
        text.push('\n');
    }
    text
}

/// The world `ptaint_cli::build_machine` gives the guest for `opts`.
fn cli_world(opts: &Options) -> WorldConfig {
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
    world
}

/// The trace sinks `run_machine` turns on for `--provenance` alone.
fn provenance_config() -> TraceConfig {
    TraceConfig {
        provenance: true,
        ..TraceConfig::default()
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

impl Sessions {
    /// Writes each daemon's source and its attack and benign session files
    /// under `dir`, calibrates the wu_ftpd format-string pad against the
    /// image the CLI will build, and runs each invocation's machine once
    /// to learn its exact instruction count.
    ///
    /// # Errors
    ///
    /// Fails when a file cannot be written, a daemon does not build, or
    /// the calibration finds no working pad.
    pub fn setup(dir: &Path, seed: u64) -> Result<Sessions, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut cases = Vec::new();
        for (name, source) in [
            ("wu_ftpd", wu_ftpd::SOURCE),
            ("null_httpd", null_httpd::SOURCE),
            ("ghttpd", ghttpd::SOURCE),
        ] {
            let program = dir.join(format!("{name}.c"));
            write(&program, source)?;
            let program = program.to_string_lossy().into_owned();
            let image = ptaint_guest::build(source).map_err(|e| format!("{name}: {e}"))?;
            let (attack, alert_pointer) = match name {
                "wu_ftpd" => {
                    let uid = wu_ftpd::uid_address(&image);
                    let pad = calibrate_format_pad(
                        &image,
                        |p| wu_ftpd::attack_world(&image, p).args([&program]),
                        uid,
                        MAX_PAD,
                    )
                    .ok_or("wu_ftpd: no format-string pad reaches session_uid")?;
                    (wu_ftpd::attack_world(&image, pad), Some(uid))
                }
                "null_httpd" => (
                    null_httpd::attack_world(&image),
                    Some(image.symbol("conf").ok_or("null_httpd defines no conf")?),
                ),
                _ => (ghttpd::attack_world(&image), None),
            };
            let benign = match name {
                "wu_ftpd" => wu_ftpd::benign_world(),
                "null_httpd" => null_httpd::benign_world(),
                _ => ghttpd::benign_world(),
            };
            for (kind, world, code, pointer) in [
                ("attack", attack, 42, alert_pointer),
                ("benign", benign, 0, None),
            ] {
                let session = dir.join(format!("{name}-{kind}.session"));
                write(&session, &session_file(&world.sessions[0]))?;
                let args = vec![
                    program.clone(),
                    "--session".to_owned(),
                    session.to_string_lossy().into_owned(),
                    "--provenance".to_owned(),
                ];
                let opts = ptaint_cli::parse_args(&args).map_err(|e| e.to_string())?;
                let machine =
                    ptaint_cli::build_machine(&opts, source).map_err(|e| e.to_string())?;
                cases.push(Case {
                    args,
                    code,
                    alert_pointer: pointer,
                    guest_insn: machine.run().stats.instructions,
                });
            }
        }
        let mut order: Vec<usize> = (0..cases.len()).collect();
        let mut rng = SplitMix64::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Ok(Sessions { cases, order })
    }

    fn case(&self, i: usize) -> &Case {
        &self.cases[self.order[i % self.order.len()]]
    }
}

/// The correctness check on one invocation's exit code and report.
fn check(case: &Case, report: &str, code: i32) -> Option<String> {
    if code != case.code {
        return Some(format!(
            "{:?} exited {code}, expected {}",
            case.args, case.code
        ));
    }
    if case.code == 42 && !report.contains("--- provenance ---\n") {
        return Some(format!("{:?} printed no provenance chain", case.args));
    }
    let pointer = case.alert_pointer?;
    let outcome = report
        .lines()
        .find(|l| l.starts_with("--- outcome: SECURITY ALERT"))
        .unwrap_or_default();
    (!outcome.contains(&format!("={pointer:#010x} ["))).then(|| {
        format!(
            "{:?}: alert does not name {pointer:#010x}: {outcome}",
            case.args
        )
    })
}

fn op_of(case: &Case, report: &str, code: i32) -> Op {
    Op {
        output: format!("exit {code}\n{report}"),
        failure: check(case, report, code),
        guest_insn: case.guest_insn,
        guest_runs: 1,
    }
}

impl Workload for Sessions {
    fn round(&self) -> usize {
        self.cases.len()
    }

    /// What `ptaint-run`'s `main` does, minus printing.
    fn op(&self, i: usize) -> Op {
        let case = self.case(i);
        let opts = ptaint_cli::parse_args(&case.args).expect("arguments parsed in setup");
        let source = std::fs::read_to_string(&opts.program).expect("source written in setup");
        let machine = ptaint_cli::build_machine(&opts, &source).expect("daemon built in setup");
        let (report, code) = ptaint_cli::run_machine(&opts, &machine);
        op_of(case, &report, code)
    }

    /// The invocation with `build_machine`'s `ptaint_guest::build` taken
    /// apart into its compile and assemble calls. Then three probes outside
    /// the composed path: `ptaint_os::load` plus `run_to_exit_with` (the
    /// plain run), and `Machine::run_with_trace` with provenance, so the
    /// provenance hooks and the report rendering get their own rows.
    fn traced_op(&self, i: usize, spans: &mut Spans) -> Op {
        let case = self.case(i);
        let start = std::time::Instant::now();
        let opts = ptaint_cli::parse_args(&case.args).expect("arguments parsed in setup");
        let source = std::fs::read_to_string(&opts.program).expect("source written in setup");
        let unit = format!("{LIBC_C}\n{source}\n");
        let compiled = spans
            .time("cc.compile_ms", || ptaint_cc::compile(&unit))
            .expect("daemon compiled in setup");
        let full = format!("{compiled}\n{CRT0_ASM}\n{SYSCALL_STUBS_ASM}\n");
        let image = spans
            .time("asm.assemble_ms", || ptaint_asm::assemble(&full))
            .expect("daemon assembled in setup");
        let machine = Machine::from_image(image).world(cli_world(&opts));
        let ((report, code), run_machine_ms) = timed(|| ptaint_cli::run_machine(&opts, &machine));
        spans.main_ms = start.elapsed().as_secs_f64() * 1e3;

        let ((mut cpu, mut os), load_ms) = timed(|| {
            ptaint_os::load(
                machine.image(),
                cli_world(&opts),
                DetectionPolicy::PointerTaintedness,
                HierarchyConfig::flat(),
            )
        });
        let (plain, run_ms) = timed(|| {
            ptaint_os::run_to_exit_with(
                &mut cpu,
                &mut os,
                RunLimits::steps(Machine::DEFAULT_STEP_LIMIT),
                &mut (),
            )
        });
        let ((provenance, _, _), with_trace_ms) =
            timed(|| machine.run_with_trace(&provenance_config()));
        spans.add("os.load_ms", load_ms);
        spans.add("cpu.run_ms", run_ms);
        spans.add(
            "trace.provenance_ms",
            self_time(with_trace_ms, &[load_ms, run_ms]),
        );
        spans.add("cli.report_ms", self_time(run_machine_ms, &[with_trace_ms]));
        spans.run_stats(&plain.stats, plain.tainted_input_bytes);

        let mut op = op_of(case, &report, code);
        if plain != provenance {
            op.failure = op.failure.or(Some(format!(
                "{:?}: plain run and provenance run disagree",
                case.args
            )));
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_invocations_reproduce_the_cli_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-sessions");
        let sessions = Sessions::setup(&dir, 3).expect("setup");
        for i in 0..sessions.round() {
            let plain = sessions.op(i);
            let mut spans = Spans::default();
            let traced = sessions.traced_op(i, &mut spans);
            assert_eq!(plain.failure, None);
            assert_eq!(traced.failure, None);
            assert_eq!(
                crate::check_identical(&plain.output, &traced.output),
                Ok(())
            );
            assert!(spans.main_ms > 0.0 && spans.ms["cc.compile_ms"] > 0.0);
        }
    }

    #[test]
    fn session_files_escape_raw_bytes() {
        let session = NetSession::new(vec![b"GET \\ \x00\n".to_vec(), b"ok".to_vec()]);
        assert_eq!(session_file(&session), "GET \\\\ \\x00\\x0a\nok\n");
    }
}
