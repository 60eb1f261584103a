#![warn(missing_docs)]

//! # ptaint-analyze — static taint dataflow over guest images
//!
//! The paper's detector is purely dynamic: every load, store and register
//! jump pays a taint check at runtime. This crate runs the same Table-1
//! propagation rules *statically* — an interprocedural abstract
//! interpretation over the recovered control-flow graph, seeding taint at
//! exactly the sources the kernel taints dynamically (`read`/`recv`
//! buffers, argv/envp strings) — and emits two artifacts:
//!
//! * a **lint report** ([`render_report`]): every load/store/`jr` whose
//!   address register may be tainted on some path, with disassembly and a
//!   call-chain from the entry point — the ghttpd-style bugs of §5.1.2,
//!   surfaced before execution;
//! * a **proven-clean set** ([`Analysis::proven`]): instruction addresses
//!   whose pointer check can never fire, which the cached execution engine
//!   uses to elide taint checks (see `ptaint-cpu`); soundness is a
//!   `Clean`-means-never-tainted claim, argued in docs/ANALYSIS.md and
//!   enforced by a machine-level differential test.
//!
//! The analysis is **summary-based** ([`summary`]): each function is
//! analyzed in its canonical frame, call sites apply the callee's exit
//! summary instead of havocking, and the per-function fixpoints run on a
//! deterministic parallel driver ([`parallel`]) scheduled bottom-up over
//! the static call graph's SCCs ([`callgraph`]).
//!
//! ```
//! use ptaint_asm::assemble;
//!
//! let image = assemble("main: lw $2, 0($29)\n jr $31").unwrap();
//! let analysis = ptaint_analyze::analyze(&image);
//! // Stack load through $sp and the return jump are both provably clean.
//! assert_eq!(analysis.stats.proven_sites, 2);
//! assert!(analysis.findings.is_empty());
//! ```

pub mod callgraph;
pub mod domain;
pub mod interp;
pub mod parallel;
mod report;
pub mod state;
pub mod summary;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ptaint_asm::Image;
use ptaint_isa::{DecodedInsn, Instr, PAGE_SIZE};

pub use domain::{Region, Taint};
pub use report::render_report;

/// What kind of pointer-checked instruction a finding points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A memory load (`l{b,h,w}[u]`).
    Load,
    /// A memory store (`s{b,h,w}`).
    Store,
    /// A register-indirect jump (`jr`/`jalr`).
    RegisterJump,
}

/// One lint finding: a pointer-checked instruction whose address register
/// may be tainted on some feasible abstract path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Instruction address.
    pub pc: u32,
    /// The flagged instruction.
    pub instr: Instr,
    /// Load, store, or register jump.
    pub kind: SiteKind,
    /// Name of the containing function (symbol, or hex address).
    pub function: String,
    /// Byte offset of `pc` within the containing function.
    pub offset: u32,
    /// Call chain from the entry function to the containing function
    /// (definite `jal`/resolved-`jalr` edges only; starts at the entry).
    /// A function that calls itself contributes one repeated frame, which
    /// the report collapses to `(×N)`.
    pub chain: Vec<String>,
}

/// Aggregate counters describing the analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Functions owning at least one reachable block.
    pub functions: usize,
    /// Reachable basic blocks.
    pub blocks: usize,
    /// Reachable instructions.
    pub instructions: usize,
    /// Loads and stores among the checked sites.
    pub load_store_sites: usize,
    /// Register jumps among the checked sites.
    pub register_jump_sites: usize,
    /// Sites whose address register is provably clean on every path
    /// (including the vacuously proven ones).
    pub proven_sites: usize,
    /// Sites flagged tainted on some path.
    pub flagged_sites: usize,
    /// Sites the analysis could not decide either way.
    pub unresolved_sites: usize,
    /// Subset of `proven_sites` lying in functions the interprocedural
    /// analysis proved unreachable: their checks can never execute, so
    /// they are proven vacuously.
    pub vacuous_sites: usize,
}

/// The full result of analyzing one image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Aggregate counters.
    pub stats: AnalyzeStats,
    /// Tainted-pointer findings, sorted by address.
    pub findings: Vec<Finding>,
    /// Addresses of pointer-checked instructions proven clean — the
    /// elision candidates handed to the decode cache. Empty when the
    /// analysis is degraded.
    pub proven: BTreeSet<u32>,
    /// Text page indexes targeted by statically visible stores
    /// (self-modifying code); their sites are never proven.
    pub smc_pages: BTreeSet<u32>,
    /// `Some(reason)` when the analysis gave up proving anything.
    pub degraded: Option<String>,
}

/// Default analysis worker count: the machine's available parallelism,
/// clamped to `[1, 4]` (the fixpoint saturates quickly on testbed-sized
/// images).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 4))
}

/// Statically analyzes a loaded image with the default worker count.
#[must_use]
pub fn analyze(image: &Image) -> Analysis {
    analyze_with(image, default_jobs())
}

/// Statically analyzes a loaded image: recovers the CFG and call graph,
/// runs the interprocedural summary fixpoint on `jobs` workers, and grades
/// every pointer-checked site. The result is byte-identical for any
/// `jobs` value (see [`parallel`]).
#[must_use]
pub fn analyze_with(image: &Image, jobs: usize) -> Analysis {
    let ctx = state::Ctx::new(image);
    let cv = parallel::converge(&ctx, jobs.max(1));

    // Extraction: replay every analyzed function's blocks against their
    // converged in-states, grading each pointer-checked site from its
    // pre-state. Effects are already converged; replaying must not
    // perturb them.
    let mut sites: BTreeMap<u32, interp::Site> = BTreeMap::new();
    let mut instructions = 0usize;
    let mut scratch = interp::Effects::default();
    for run in cv.runs.values() {
        for (&leader, st) in &run.in_states {
            let mut rec = |pc: u32, d: &DecodedInsn, pre: &state::State| {
                interp::grade_site(&mut sites, pc, d, pre);
            };
            let walk = interp::walk_block(
                &ctx,
                &run.leaders,
                run.view,
                leader,
                st.clone(),
                &mut scratch,
                Some(&mut rec),
            );
            instructions += walk.steps;
        }
    }

    // Function partitioning over the final entry set.
    let entries: Vec<u32> = cv.entries.iter().copied().collect();
    let owner = |pc: u32| -> Option<u32> {
        match entries.binary_search(&pc) {
            Ok(_) => Some(pc),
            Err(0) => None,
            Err(i) => Some(entries[i - 1]),
        }
    };
    let fn_name = |addr: u32| -> String {
        image
            .symbol_at(addr)
            .map_or_else(|| format!("{addr:#010x}"), str::to_owned)
    };

    // Definite call graph at function granularity, then a BFS from the
    // entry function to derive reachability chains.
    let mut graph: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for (&e, run) in &cv.runs {
        for &(_, callee) in &run.calls {
            if let Some(to) = owner(callee) {
                graph.entry(e).or_default().insert(to);
            }
        }
    }
    let root = owner(ctx.entry).unwrap_or(ctx.entry);
    let mut parent: BTreeMap<u32, u32> = BTreeMap::new();
    let mut queue = VecDeque::from([root]);
    let mut seen = BTreeSet::from([root]);
    while let Some(f) = queue.pop_front() {
        if let Some(callees) = graph.get(&f) {
            for &c in callees {
                if seen.insert(c) {
                    parent.insert(c, f);
                    queue.push_back(c);
                }
            }
        }
    }
    let chain_of = |f: u32| -> Vec<String> {
        if !seen.contains(&f) {
            return vec![fn_name(f)];
        }
        let mut path = vec![f];
        let mut cur = f;
        while let Some(&p) = parent.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        let mut names: Vec<String> = path.into_iter().map(fn_name).collect();
        // A self-recursive containing function genuinely re-enters itself:
        // surface the `f > f` edge (the report collapses it to `(×2)`).
        if graph.get(&f).is_some_and(|cs| cs.contains(&f)) {
            names.push(fn_name(f));
        }
        names
    };

    let mut stats = AnalyzeStats {
        functions: cv.runs.len(),
        blocks: cv.runs.values().map(|r| r.in_states.len()).sum(),
        instructions,
        ..AnalyzeStats::default()
    };

    let mut findings = Vec::new();
    let mut proven = BTreeSet::new();
    for site in sites.values() {
        if site.is_jump {
            stats.register_jump_sites += 1;
        } else {
            stats.load_store_sites += 1;
        }
        match site.taint {
            Taint::Clean => {
                let on_smc_page = cv.fx.smc_pages.contains(&(site.pc / PAGE_SIZE));
                if cv.degraded.is_none() && !on_smc_page {
                    proven.insert(site.pc);
                    stats.proven_sites += 1;
                } else {
                    stats.unresolved_sites += 1;
                }
            }
            Taint::Unknown => stats.unresolved_sites += 1,
            Taint::Tainted => {
                stats.flagged_sites += 1;
                let function = owner(site.pc).unwrap_or(ctx.entry);
                findings.push(Finding {
                    pc: site.pc,
                    instr: site.instr,
                    kind: match site.instr {
                        Instr::Load { .. } => SiteKind::Load,
                        Instr::Store { .. } => SiteKind::Store,
                        _ => SiteKind::RegisterJump,
                    },
                    function: fn_name(function),
                    offset: site.pc - function,
                    chain: chain_of(function),
                });
            }
        }
    }

    // Functions that never received a context are unreachable under the
    // analysis' over-approximate control flow (the Anywhere accumulator,
    // when present, makes *every* function analyzable, so absence here is
    // a sound unreachability proof): their checks can never execute and
    // are proven vacuously. Skipped when degraded — reachability can't be
    // trusted after a budget blowout.
    if cv.degraded.is_none() {
        let text_end = ctx.text_base + 4 * u32::try_from(ctx.words.len()).unwrap_or(u32::MAX);
        for (i, &e) in entries.iter().enumerate() {
            if cv.runs.contains_key(&e) {
                continue;
            }
            let hi = entries
                .get(i + 1)
                .copied()
                .unwrap_or(text_end)
                .min(text_end);
            let mut pc = e;
            while pc < hi {
                if let Some(word) = ctx.word_at(pc) {
                    if let Ok(d) = DecodedInsn::predecode(pc, word) {
                        let kind = match d.instr {
                            Instr::Load { .. } | Instr::Store { .. } => Some(false),
                            Instr::JumpReg { .. } | Instr::JumpAndLinkReg { .. } => Some(true),
                            _ => None,
                        };
                        if let Some(is_jump) = kind {
                            if is_jump {
                                stats.register_jump_sites += 1;
                            } else {
                                stats.load_store_sites += 1;
                            }
                            if cv.fx.smc_pages.contains(&(pc / PAGE_SIZE)) {
                                stats.unresolved_sites += 1;
                            } else {
                                proven.insert(pc);
                                stats.proven_sites += 1;
                                stats.vacuous_sites += 1;
                            }
                        }
                    }
                }
                pc += 4;
            }
        }
    }

    Analysis {
        stats,
        findings,
        proven,
        smc_pages: cv.fx.smc_pages.clone(),
        degraded: cv.degraded.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_asm::assemble;

    #[test]
    fn straight_line_stack_code_is_fully_proven() {
        let image = assemble(
            "main: addiu $sp, $sp, -16
                   sw $ra, 12($sp)
                   lw $2, 8($sp)
                   lw $ra, 12($sp)
                   addiu $sp, $sp, 16
                   jr $ra",
        )
        .unwrap();
        let a = analyze(&image);
        assert!(a.degraded.is_none());
        assert_eq!(a.findings, vec![]);
        // sw, lw, lw, jr all proven; the exit stub adds none.
        assert_eq!(a.stats.proven_sites, 4);
        assert_eq!(a.stats.load_store_sites, 3);
        assert_eq!(a.stats.register_jump_sites, 1);
    }

    #[test]
    fn loading_an_argv_string_pointer_is_not_proven_but_not_flagged() {
        // lw $t0, 0($a1) loads argv[0] through the (clean) array pointer —
        // provably safe. lb $t1, 0($t0) dereferences the loaded pointer:
        // concretely clean, but it lives in the band shared with the
        // tainted string bytes, so it stays unresolved (checked at
        // runtime) without becoming a false lint finding.
        let image = assemble(
            "main: lw $8, 0($5)
                   lb $9, 0($8)
                   jr $31",
        )
        .unwrap();
        let a = analyze(&image);
        assert_eq!(a.findings, vec![]);
        assert_eq!(a.stats.unresolved_sites, 1);
        assert_eq!(a.stats.proven_sites, 2);
    }

    #[test]
    fn dereferencing_read_data_is_flagged() {
        // read(0, buf, 4) then use the read word as a load address:
        // a classic tainted-pointer dereference the lint must flag.
        let image = assemble(
            "       .data
buf:    .word 0
        .text
main:   addiu $4, $0, 0
        lui $5, %hi(buf)
        ori $5, $5, %lo(buf)
        addiu $6, $0, 4
        addiu $2, $0, 3
        syscall
        lui $8, %hi(buf)
        ori $8, $8, %lo(buf)
        lw $9, 0($8)
        lw $10, 0($9)
        jr $31",
        )
        .unwrap();
        let a = analyze(&image);
        assert_eq!(a.stats.flagged_sites, 1, "findings: {:?}", a.findings);
        let f = &a.findings[0];
        assert_eq!(f.kind, SiteKind::Load);
        assert_eq!(f.instr.to_string(), "lw $10,0($9)");
        assert!(!a.proven.contains(&f.pc));
        // The load *of* the tainted word through a clean constant pointer
        // is itself proven.
        assert!(a.stats.proven_sites >= 1);
    }

    #[test]
    fn compare_untaints_the_validated_register() {
        // Same tainted pointer, but validated by a compare first: Table 1
        // untaints the operand, so the dereference is no longer flagged.
        let image = assemble(
            "       .data
buf:    .word 0
        .text
main:   addiu $4, $0, 0
        lui $5, %hi(buf)
        ori $5, $5, %lo(buf)
        addiu $6, $0, 4
        addiu $2, $0, 3
        syscall
        lui $8, %hi(buf)
        ori $8, $8, %lo(buf)
        lw $9, 0($8)
        sltiu $10, $9, 256
        lw $10, 0($9)
        jr $31",
        )
        .unwrap();
        let a = analyze(&image);
        assert_eq!(a.findings, vec![], "compare should untaint $9");
    }

    #[test]
    fn jobs_do_not_change_the_result() {
        let image = assemble(
            "main:  addiu $sp, $sp, -8
                    sw $ra, 4($sp)
                    jal f
                    lw $ra, 4($sp)
                    addiu $sp, $sp, 8
                    jr $ra
f:      lw $2, 0($sp)
        jr $31",
        )
        .unwrap();
        let a1 = analyze_with(&image, 1);
        let a4 = analyze_with(&image, 4);
        assert_eq!(a1, a4);
    }

    #[test]
    fn callee_summary_flows_back_to_the_caller() {
        // f returns its stack argument; the caller then dereferences the
        // returned data pointer. With summaries the call no longer havocs:
        // every site stays proven or unresolved, none flagged.
        let image = assemble(
            "       .data
tbl:    .word 7
        .text
main:   addiu $sp, $sp, -8
        sw $ra, 4($sp)
        lui $8, %hi(tbl)
        ori $8, $8, %lo(tbl)
        addiu $sp, $sp, -4
        sw $8, 0($sp)
        jal f
        addiu $sp, $sp, 4
        lw $9, 0($2)
        lw $ra, 4($sp)
        addiu $sp, $sp, 8
        jr $ra
f:      lw $2, 0($sp)
        jr $31",
        )
        .unwrap();
        let a = analyze(&image);
        assert!(a.degraded.is_none());
        assert_eq!(a.findings, vec![], "summaries should keep this clean");
        // The deref of the returned table pointer is proven: the summary
        // carried the constant pointer through the call.
        assert_eq!(a.stats.unresolved_sites, 0, "stats: {:?}", a.stats);
    }
}
