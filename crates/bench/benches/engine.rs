//! Execution-engine benchmark: steps/sec for the legacy interpreter vs.
//! the predecoded/cached engine on a tight counted loop — the workload
//! where decode cost dominates and the decode cache pays off most — plus
//! the cached engine on the six Table 3 guests under full detection, where
//! taint memory traffic, syscalls and real control flow weigh in too. Two
//! toolchain series time what every `ptaint-run` invocation pays before
//! the guest starts: assembling the three CVE daemons' compiled units, and
//! the whole `ptaint_guest::build` (compile plus assemble).
//!
//! The machine-readable summary is written to `BENCH_engine.json` at the
//! repository root (guest steps, steps/sec per engine, speedup, Table 3
//! steps/sec, CVE assembles/sec and builds/sec). Set `BENCH_QUICK=1` to
//! shrink the loop, run the guests at input scale 1 and take fewer
//! toolchain rounds for CI smoke runs.

use ptaint::{Engine, ExitReason, Machine};
use ptaint_bench::{best_per_sec, quick};
use ptaint_guest::apps::{ghttpd, null_httpd, wu_ftpd};
use ptaint_guest::{workloads, CRT0_ASM, LIBC_C, SYSCALL_STUBS_ASM};

/// Loop iterations: full runs measure a stable hot loop; quick mode keeps
/// CI smoke runs under a second.
fn iterations() -> u32 {
    if quick() {
        2_000
    } else {
        500_000
    }
}

/// A counted loop of `iters` iterations that exits with status 0.
fn tight_loop(iters: u32) -> Machine {
    Machine::from_asm(&format!(
        "main:  li $t0, 0
                li $t1, {iters}
        loop:   addiu $t0, $t0, 1
                bne $t0, $t1, loop
                li $v0, 1
                li $a0, 0
                syscall"
    ))
    .expect("assembles")
}

/// Guest steps of one whole-program run and the best-of-5 steps/sec.
fn steps_per_sec(machine: &Machine) -> (u64, f64) {
    best_per_sec(5, || {
        let out = machine.run();
        assert_eq!(out.reason, ExitReason::Exited(0));
        out.stats.instructions
    })
}

/// Input scale of the Table 3 series: the suite's scale 10 for full runs,
/// scale 1 in quick mode.
fn table3_scale() -> u32 {
    if quick() {
        1
    } else {
        10
    }
}

/// The six Table 3 guests on the cached engine under full detection
/// (the [`Machine`] defaults), each with its generated input.
fn table3_machines() -> Vec<Machine> {
    workloads::all()
        .iter()
        .map(|w| {
            let image = ptaint_guest::build(w.source).expect("guest builds");
            Machine::from_image(image)
                .world(w.world(table3_scale()))
                .engine(Engine::Cached)
        })
        .collect()
}

/// Guest steps and best-of-5 steps/sec for one pass over all six guests;
/// every guest must exit 0 without an alert.
fn table3_steps_per_sec(machines: &[Machine]) -> (u64, f64) {
    best_per_sec(5, || {
        machines
            .iter()
            .map(|m| {
                let out = m.run();
                assert_eq!(out.reason, ExitReason::Exited(0));
                out.stats.instructions
            })
            .sum()
    })
}

/// The three CVE daemons' sources, as `ptaint-run` rebuilds them.
const CVE_SOURCES: [&str; 3] = [ghttpd::SOURCE, null_httpd::SOURCE, wu_ftpd::SOURCE];

/// Timed rounds of each toolchain series; the best round is reported.
fn toolchain_rounds() -> u32 {
    if quick() {
        3
    } else {
        30
    }
}

/// Items per second over the best of [`toolchain_rounds`] rounds, where
/// one round runs `f` once per item.
fn items_per_sec<T>(items: &[T], f: impl Fn(&T)) -> f64 {
    best_per_sec(toolchain_rounds(), || {
        items.iter().for_each(&f);
        items.len() as u64
    })
    .1
}

/// Assemblies/sec of the CVE daemons' compiled units (libc, daemon, crt0
/// and syscall stubs: what `ptaint_guest::build` hands the assembler).
fn cve_assembles_per_sec() -> f64 {
    let units: Vec<String> = CVE_SOURCES
        .iter()
        .map(|source| {
            let compiled = ptaint::compile(&format!("{LIBC_C}\n{source}\n")).expect("compiles");
            format!("{compiled}\n{CRT0_ASM}\n{SYSCALL_STUBS_ASM}\n")
        })
        .collect();
    items_per_sec(&units, |unit| {
        ptaint::assemble(unit).expect("assembles");
    })
}

/// Whole `ptaint_guest::build`s/sec of the CVE daemons.
fn cve_builds_per_sec() -> f64 {
    items_per_sec(&CVE_SOURCES, |source| {
        ptaint_guest::build(source).expect("builds");
    })
}

fn main() {
    let machine = tight_loop(iterations());
    let (steps, interp) = steps_per_sec(&machine.clone().engine(Engine::Interp));
    let (_, cached) = steps_per_sec(&machine.engine(Engine::Cached));
    let (table3_steps, table3) = table3_steps_per_sec(&table3_machines());
    let assembles = cve_assembles_per_sec();
    let builds = cve_builds_per_sec();
    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"guest_steps\":{},",
            "\"interp_steps_per_sec\":{:.0},\"cached_steps_per_sec\":{:.0},",
            "\"speedup\":{:.3},\"table3_scale\":{},\"table3_guest_steps\":{},",
            "\"table3_steps_per_sec\":{:.0},\"cve_assembles_per_sec\":{:.1},",
            "\"cve_builds_per_sec\":{:.1},\"quick\":{}}}\n"
        ),
        steps,
        interp,
        cached,
        cached / interp,
        table3_scale(),
        table3_steps,
        table3,
        assembles,
        builds,
        quick()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("writes BENCH_engine.json");
    println!(
        "engine: {steps} guest steps; interp {interp:.0} steps/s, \
         cached {cached:.0} steps/s, speedup {:.2}x; Table 3 (scale {}) \
         {table3_steps} guest steps, {table3:.0} steps/s; CVE daemons \
         {assembles:.1} assembles/s, {builds:.1} builds/s -> {path}",
        cached / interp,
        table3_scale()
    );
}
