//! Execution-engine benchmark: steps/sec for the legacy interpreter vs.
//! the predecoded/cached engine on a tight counted loop — the workload
//! where decode cost dominates and the decode cache pays off most — plus
//! the cached engine on the six Table 3 guests under full detection, where
//! taint memory traffic, syscalls and real control flow weigh in too. Two
//! toolchain series time what every `ptaint-run` invocation pays before
//! the guest starts: assembling the three CVE daemons' compiled units, and
//! the whole `ptaint_guest::build` (compile plus assemble).
//!
//! Besides the criterion groups, a machine-readable summary is written to
//! `BENCH_engine.json` at the repository root (guest steps, steps/sec per
//! engine, speedup, Table 3 steps/sec, CVE assembles/sec and builds/sec).
//! Set `BENCH_QUICK=1` to shrink the loop, run the guests at input scale 1
//! and take fewer toolchain rounds for CI smoke runs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ptaint::{Engine, ExitReason, Machine};
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

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
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

/// Steps/sec over several whole-program runs, reporting the best (least
/// noise-disturbed) run after one warmup.
fn steps_per_sec(machine: &Machine) -> f64 {
    let warmup = machine.run();
    assert_eq!(warmup.reason, ExitReason::Exited(0));
    let mut best = f64::MIN;
    for _ in 0..5 {
        let start = Instant::now();
        let out = machine.run();
        let elapsed = start.elapsed();
        assert_eq!(out.reason, ExitReason::Exited(0));
        best = best.max(out.stats.instructions as f64 / elapsed.as_secs_f64());
    }
    best
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

/// Guest steps and best-of-5 steps/sec for one pass over all six guests
/// (after one warmup pass); every guest must exit 0 without an alert.
fn table3_steps_per_sec(machines: &[Machine]) -> (u64, f64) {
    let pass = || -> u64 {
        machines
            .iter()
            .map(|m| {
                let out = m.run();
                assert_eq!(out.reason, ExitReason::Exited(0));
                out.stats.instructions
            })
            .sum()
    };
    let steps = pass();
    let mut best = f64::MIN;
    for _ in 0..5 {
        let start = Instant::now();
        assert_eq!(pass(), steps, "guest runs are deterministic");
        best = best.max(steps as f64 / start.elapsed().as_secs_f64());
    }
    (steps, best)
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

/// Per second over the best of [`toolchain_rounds`] rounds (after one
/// warmup), where one round runs `f` once per item.
fn best_per_sec<T>(items: &[T], f: impl Fn(&T)) -> f64 {
    let round = || items.iter().for_each(&f);
    round();
    let mut best = f64::MIN;
    for _ in 0..toolchain_rounds() {
        let start = Instant::now();
        round();
        best = best.max(items.len() as f64 / start.elapsed().as_secs_f64());
    }
    best
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
    best_per_sec(&units, |unit| {
        ptaint::assemble(unit).expect("assembles");
    })
}

/// Whole `ptaint_guest::build`s/sec of the CVE daemons.
fn cve_builds_per_sec() -> f64 {
    best_per_sec(&CVE_SOURCES, |source| {
        ptaint_guest::build(source).expect("builds");
    })
}

/// Quick-mode micro-assert: the chunked `write_bytes`/`set_taint_range`
/// fast paths (one page lookup per crossed page) must agree byte-for-byte
/// with a per-byte reference on a page-straddling range. Runs in CI smoke
/// mode so a fast-path regression fails the bench before it can skew any
/// throughput number.
fn assert_chunked_write_parity() {
    use ptaint::TaintedMemory;
    let base = 0x1000_0ff0; // straddles a page boundary
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();

    let mut chunked = TaintedMemory::new();
    chunked.write_bytes(base, &data, true).expect("writes");
    chunked
        .set_taint_range(base + 8, 48, false)
        .expect("clears taint");

    let mut reference = TaintedMemory::new();
    for (i, &b) in data.iter().enumerate() {
        reference
            .write_u8(base + i as u32, b, true)
            .expect("writes");
    }
    for i in 0..48u32 {
        let addr = base + 8 + i;
        let (value, _) = reference.read_u8(addr).expect("reads");
        reference.write_u8(addr, value, false).expect("clears");
    }

    for i in 0..64u32 {
        let addr = base + i;
        assert_eq!(
            chunked.read_u8(addr).expect("reads"),
            reference.read_u8(addr).expect("reads"),
            "chunked write paths diverged from the per-byte reference at {addr:#x}"
        );
    }
}

fn bench_engines(c: &mut Criterion) {
    if quick() {
        assert_chunked_write_parity();
    }
    let machine = tight_loop(iterations());
    let steps = machine.run().stats.instructions;

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(steps));
    group.sample_size(10);
    for (name, engine) in [("interp", Engine::Interp), ("cached", Engine::Cached)] {
        let m = machine.clone().engine(engine);
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = m.run();
                assert_eq!(out.reason, ExitReason::Exited(0));
                out.stats.instructions
            })
        });
    }
    group.finish();

    // Machine-readable summary for the roadmap's before/after record.
    let interp = steps_per_sec(&machine.clone().engine(Engine::Interp));
    let cached = steps_per_sec(&machine.clone().engine(Engine::Cached));
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

criterion_group!(benches, bench_engines);
criterion_main!(benches);
