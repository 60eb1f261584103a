//! Execution-engine benchmark: steps/sec for the legacy interpreter vs.
//! the predecoded/cached engine on a tight counted loop — the workload
//! where decode cost dominates and the decode cache pays off most — plus
//! the cached engine on the six Table 3 guests under full detection, where
//! taint memory traffic, syscalls and real control flow weigh in too.
//! Interp and cached runs of the loop alternate, so drift of a shared host
//! hits both sides of each pair; `speedup` is the median of the per-pair
//! ratios, and each engine's steps/sec its best run.
//!
//! Two toolchain series follow. `cve_builds_per_sec` times what every
//! `ptaint-run` invocation pays before the guest starts: the whole
//! `ptaint_guest::build` of the three CVE daemons, which compiles and
//! assembles only the daemon, crt0 and the stubs after the prebuilt libc.
//! `cve_assembles_per_sec` is the assembler's throughput on the daemons'
//! whole compiled units, libc included: a full-unit assembly that
//! `ptaint-run` no longer pays.
//!
//! The machine-readable summary is written to `BENCH_engine.json` at the
//! repository root (guest steps, steps/sec per engine, speedup, Table 3
//! steps/sec, CVE assembles/sec and builds/sec). Set `BENCH_QUICK=1` to
//! shrink the loop, run the guests at input scale 1 and take fewer
//! toolchain rounds for CI smoke runs.

use std::time::Instant;

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

/// Timed interp/cached pairs of the tight loop, after one untimed run
/// of each.
const LOOP_PAIRS: usize = 9;

/// The tight loop under both engines, run alternately: guest steps, the
/// best interp and cached steps/sec, and the median of the per-pair
/// cached/interp ratios.
fn tight_loop_series(machine: &Machine) -> (u64, f64, f64, f64) {
    let interp = machine.clone().engine(Engine::Interp);
    let cached = machine.clone().engine(Engine::Cached);
    let run = |m: &Machine| {
        let start = Instant::now();
        let out = m.run();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(out.reason, ExitReason::Exited(0));
        (out.stats.instructions, out.stats.instructions as f64 / secs)
    };
    let (steps, _) = run(&interp);
    assert_eq!(run(&cached).0, steps, "engines retire the same steps");
    let pairs: Vec<(f64, f64)> = (0..LOOP_PAIRS)
        .map(|_| (run(&interp).1, run(&cached).1))
        .collect();
    let best = |side: fn(&(f64, f64)) -> f64| pairs.iter().map(side).fold(f64::MIN, f64::max);
    let mut ratios: Vec<f64> = pairs.iter().map(|(i, c)| c / i).collect();
    ratios.sort_by(f64::total_cmp);
    (steps, best(|p| p.0), best(|p| p.1), ratios[LOOP_PAIRS / 2])
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

/// Assemblies/sec of the CVE daemons' whole compiled units (libc, daemon,
/// crt0 and syscall stubs): the assembler's throughput. `ptaint_guest::build`
/// assembles only the part after the prebuilt libc.
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
    let (steps, interp, cached, speedup) = tight_loop_series(&tight_loop(iterations()));
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
        speedup,
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
        speedup,
        table3_scale()
    );
}
