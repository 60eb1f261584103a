//! `table3`: one op is `run_false_positive_suite(10)`, the six SPEC-like
//! guests under full detection (about 30 M guest instructions). The step
//! loop does almost all the work; the toolchain is a few percent and
//! there is no analysis.

use ptaint::experiments::table3::{run_false_positive_suite, Table3Report, WorkloadRow};
use ptaint::{DetectionPolicy, ExitReason, HierarchyConfig, RunLimits};
use ptaint_guest::{apps, workloads, CRT0_ASM, LIBC_C, SYSCALL_STUBS_ASM};

use crate::{Op, Spans, Workload};

/// Input scale of the suite.
pub const SCALE: u32 = 10;

/// Exact instructions per guest at [`SCALE`], in suite order.
pub const PINNED_INSTRUCTIONS: [(&str, u64); 6] = [
    ("bzip2", 7_596_628),
    ("gcc", 1_561_474),
    ("gzip", 13_938_582),
    ("mcf", 62_695),
    ("parser", 1_298_675),
    ("vpr", 5_497_464),
];

/// The Table 3 workload. Ops take no input besides the guests' own
/// deterministic generators, so the seed does not change them.
pub struct Table3;

impl Table3 {
    /// Builds each guest image and generates its input once, failing on
    /// the first guest that does not build.
    ///
    /// # Errors
    ///
    /// Returns the build error of the first failing guest.
    pub fn setup() -> Result<Table3, String> {
        for w in workloads::all() {
            ptaint_guest::build(w.source).map_err(|e| format!("{}: {e}", w.name))?;
            std::hint::black_box(w.world(SCALE));
        }
        Ok(Table3)
    }
}

/// The correctness check: zero alerts and every instruction count pinned.
fn check(report: &Table3Report) -> Option<String> {
    if report.total_alerts() != 0 {
        return Some(format!(
            "{} alerts on the Table 3 suite",
            report.total_alerts()
        ));
    }
    let got: Vec<(&str, u64)> = report
        .rows
        .iter()
        .map(|r| (r.name, r.instructions))
        .collect();
    (got != PINNED_INSTRUCTIONS).then(|| format!("instruction counts {got:?}"))
}

fn op_of(report: &Table3Report) -> Op {
    Op {
        output: format!("{report}\n{report:?}"),
        failure: check(report),
        guest_insn: report.total_instructions(),
        guest_runs: report.rows.len() as u64,
    }
}

impl Workload for Table3 {
    fn round(&self) -> usize {
        1
    }

    fn op(&self, _i: usize) -> Op {
        op_of(&run_false_positive_suite(SCALE))
    }

    /// `run_false_positive_suite` taken apart: `ptaint_guest::build`'s two
    /// calls, then `run_app`'s load and step loop, per guest.
    fn traced_op(&self, _i: usize, spans: &mut Spans) -> Op {
        let start = std::time::Instant::now();
        let mut rows = Vec::new();
        let mut failure = None;
        for w in workloads::all() {
            let unit = format!("{LIBC_C}\n{}\n", w.source);
            let compiled = spans
                .time("cc.compile_ms", || ptaint_cc::compile(&unit))
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
            let full = format!("{compiled}\n{CRT0_ASM}\n{SYSCALL_STUBS_ASM}\n");
            let image = spans
                .time("asm.assemble_ms", || ptaint_asm::assemble(&full))
                .unwrap_or_else(|e| panic!("{} failed to assemble: {e}", w.name));
            let world = w.world(SCALE);
            let (mut cpu, mut os) = spans.time("os.load_ms", || {
                ptaint_os::load(
                    &image,
                    world,
                    DetectionPolicy::PointerTaintedness,
                    HierarchyConfig::flat(),
                )
            });
            let out = spans.time("cpu.run_ms", || {
                ptaint_os::run_to_exit_with(
                    &mut cpu,
                    &mut os,
                    RunLimits::steps(apps::STEP_LIMIT),
                    &mut (),
                )
            });
            spans.run_stats(&out.stats, out.tainted_input_bytes);
            let alerts = u32::from(out.reason.is_detected());
            if !matches!(out.reason, ExitReason::Exited(0)) && alerts == 0 {
                failure = Some(format!("{} ended with {}", w.name, out.reason));
            }
            rows.push(WorkloadRow {
                name: w.name,
                spec_name: w.spec_name,
                program_bytes: image.text.len() as u32 * 4 + image.data.len() as u32,
                input_bytes: out.tainted_input_bytes,
                instructions: out.stats.instructions,
                tainted_instructions: out.stats.tainted_operand_instructions,
                alerts,
                output: out.stdout_text().trim().to_owned(),
            });
        }
        let report = Table3Report { rows, scale: SCALE };
        spans.main_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut op = op_of(&report);
        op.failure = op.failure.or(failure);
        op
    }
}
