//! Property tests for the interprocedural analyzer.
//!
//! **Summary soundness**, exercised over generated programs: grading a
//! site after a `jal f` (callee consumed via its exit summary) is never
//! *less* tainted than grading the same site with `f`'s body inlined at
//! the call site. The summary path may lose precision (rank higher), never
//! findings.

use proptest::prelude::*;
use ptaint_analyze::{analyze, Analysis};
use ptaint_asm::{assemble, Image};

/// Site classification rank at a pc: `Clean`(proven) < `Unknown` <
/// `Tainted`(flagged). Vacuous/unreachable sites grade proven.
fn rank(a: &Analysis, pc: u32) -> u8 {
    if a.findings.iter().any(|f| f.pc == pc) {
        2
    } else if a.proven.contains(&pc) {
        0
    } else {
        1
    }
}

/// One straight-line statement of a generated function body. Each snippet
/// keeps `$8` as the "result" register the probe site dereferences, uses
/// `$10` as scratch, and leaves the machine in a state any successor
/// snippet accepts.
fn snippet(op: u8) -> &'static str {
    match op {
        // A clean integer constant.
        0 => "addiu $8, $0, 64\n",
        // A (clean) pointer to the data word.
        1 => "lui $8, %hi(buf)\nori $8, $8, %lo(buf)\n",
        // read(0, buf, 4): taints the data word.
        2 => {
            "addiu $4, $0, 0\nlui $5, %hi(buf)\nori $5, $5, %lo(buf)\n\
              addiu $6, $0, 4\naddiu $2, $0, 3\nsyscall\n"
        }
        // Load the data word: tainted iff a read ran before.
        3 => "lui $10, %hi(buf)\nori $10, $10, %lo(buf)\nlw $8, 0($10)\n",
        // Store the result back into the data word.
        4 => "lui $10, %hi(buf)\nori $10, $10, %lo(buf)\nsw $8, 0($10)\n",
        // Pointer/integer arithmetic on the result.
        _ => "addiu $8, $8, 4\n",
    }
}

fn body(ops: &[u8]) -> String {
    ops.iter().map(|&op| snippet(op)).collect()
}

/// The callee-as-summary variant: `main` calls `f` and then dereferences
/// whatever `f` left in `$8`.
fn call_program(ops: &[u8]) -> Image {
    assemble(&format!(
        "        .data
buf:    .word 0
        .text
main:   addiu $29, $29, -8
        sw $31, 4($29)
        jal f
        lw $31, 4($29)
        addiu $29, $29, 8
probe:  lw $11, 0($8)
        jr $31
f:      {}        jr $31",
        body(ops)
    ))
    .expect("call variant assembles")
}

/// The inlined variant: `f`'s body spliced directly before the probe.
fn inline_program(ops: &[u8]) -> Image {
    assemble(&format!(
        "        .data
buf:    .word 0
        .text
main:   {}probe:  lw $11, 0($8)
        jr $31",
        body(ops)
    ))
    .expect("inline variant assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Applying `f`'s exit summary at the call site never grades the
    /// post-call probe *cleaner* than inlining `f`'s body: summaries may
    /// widen (rank higher), never hide taint an inline analysis sees.
    #[test]
    fn summary_application_is_never_cleaner_than_inlining(
        ops in proptest::collection::vec(0u8..6, 1..12)
    ) {
        let called = call_program(&ops);
        let inlined = inline_program(&ops);
        let a = analyze(&called);
        let b = analyze(&inlined);
        prop_assert!(a.degraded.is_none(), "call variant degraded: {:?}", a.degraded);
        prop_assert!(b.degraded.is_none(), "inline variant degraded: {:?}", b.degraded);
        let pa = called.symbol("probe").expect("probe symbol");
        let pb = inlined.symbol("probe").expect("probe symbol");
        prop_assert!(
            rank(&a, pa) >= rank(&b, pb),
            "summary at probe ranked {} but inline ranked {} (ops {:?})",
            rank(&a, pa),
            rank(&b, pb),
            ops
        );
    }
}
