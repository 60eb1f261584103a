//! The taintedness-tracking ALU — a direct implementation of the paper's
//! **Table 1: Taintedness Propagation by ALU Instructions**.
//!
//! | ALU instruction type | Taintedness propagation |
//! |---|---|
//! | generic `op r1,r2,r3` | `taint(r1) = taint(r2) OR taint(r3)` (bytewise) |
//! | shift | a tainted byte also taints its neighbour along the shift direction |
//! | `and` | untaint each result byte AND-ed with an *untainted zero* byte |
//! | `xor r1,r2,r2` | `taint(r1) = 0000` (compiler zeroing idiom) |
//! | compare | untaint every byte of *the operands* |
//!
//! The compare rule trusts data that the program has validated (paper §4.2);
//! it is also the deliberate false-negative window analysed in §5.3. In this
//! ISA the compare instructions are `slt`/`sltu`/`slti`/`sltiu` and the
//! conditional branches.
//!
//! Every function here is pure; the [`Cpu`](crate::Cpu) applies the
//! compare-untaint side effect to the register file itself.

use ptaint_isa::{IAluOp, RAluOp, ShiftOp};
use ptaint_mem::WordTaint;

use crate::TaintRules;

/// Generic two-source propagation: bytewise OR (Table 1, row 1).
#[must_use]
#[inline]
pub fn generic(a: WordTaint, b: WordTaint) -> WordTaint {
    a | b
}

/// Result taint of a register-register ALU operation.
///
/// Implements all Table 1 rows relevant to R-type arithmetic:
///
/// * `xor rd, rs, rs` (same source register twice) produces constant zero and
///   is therefore untainted;
/// * `and` clears every result byte whose corresponding byte in either
///   operand is an untainted zero (the result byte is the constant 0
///   regardless of the other operand);
/// * compare instructions produce an untainted boolean (their operand
///   untainting is applied separately, see [`compare_operand_taint`]);
/// * everything else is the generic bytewise OR.
#[must_use]
#[inline]
pub fn ralu_result(
    op: RAluOp,
    a_val: u32,
    a_taint: WordTaint,
    b_val: u32,
    b_taint: WordTaint,
    same_source_reg: bool,
) -> WordTaint {
    ralu_result_with(
        TaintRules::PAPER,
        op,
        a_val,
        a_taint,
        b_val,
        b_taint,
        same_source_reg,
    )
}

/// [`ralu_result`] under an explicit (possibly ablated) rule set.
#[must_use]
#[inline]
pub fn ralu_result_with(
    rules: TaintRules,
    op: RAluOp,
    a_val: u32,
    a_taint: WordTaint,
    b_val: u32,
    b_taint: WordTaint,
    same_source_reg: bool,
) -> WordTaint {
    match op {
        RAluOp::Xor if same_source_reg && rules.xor_idiom_untaints => WordTaint::CLEAN,
        RAluOp::And if rules.and_untaints => and_result(a_val, a_taint, b_val, b_taint),
        _ if op.is_compare() && rules.compare_untaints => WordTaint::CLEAN,
        _ => generic(a_taint, b_taint),
    }
}

/// Result taint of an AND: start from the generic OR, then untaint each byte
/// AND-ed with an untainted zero (Table 1, row 3).
#[must_use]
#[inline]
pub fn and_result(a_val: u32, a_taint: WordTaint, b_val: u32, b_taint: WordTaint) -> WordTaint {
    let mut taint = generic(a_taint, b_taint);
    let (a, b) = (a_val.to_le_bytes(), b_val.to_le_bytes());
    for i in 0..4 {
        let a_untainted_zero = a[i] == 0 && !a_taint.byte(i);
        let b_untainted_zero = b[i] == 0 && !b_taint.byte(i);
        if a_untainted_zero || b_untainted_zero {
            taint = taint.with_byte(i, false);
        }
    }
    taint
}

/// Result taint of an immediate ALU operation. The immediate is a program
/// constant and contributes no taint; `andi` additionally applies the
/// untainted-zero rule against the extended immediate (its zero-extension
/// bytes are constant zeroes, so result bytes 2 and 3 are always untainted).
#[must_use]
#[inline]
pub fn ialu_result(op: IAluOp, src_val: u32, src_taint: WordTaint, imm_ext: u32) -> WordTaint {
    ialu_result_with(TaintRules::PAPER, op, src_val, src_taint, imm_ext)
}

/// [`ialu_result`] under an explicit (possibly ablated) rule set.
#[must_use]
#[inline]
pub fn ialu_result_with(
    rules: TaintRules,
    op: IAluOp,
    src_val: u32,
    src_taint: WordTaint,
    imm_ext: u32,
) -> WordTaint {
    match op {
        IAluOp::Andi if rules.and_untaints => {
            and_result(src_val, src_taint, imm_ext, WordTaint::CLEAN)
        }
        _ if op.is_compare() && rules.compare_untaints => WordTaint::CLEAN,
        _ => src_taint,
    }
}

/// Result taint of a shift (Table 1, row 2): the operand's taint, smeared one
/// byte along the shift direction. For register-variable shifts the amount
/// register's taint is OR-ed in first (the result depends on it).
#[must_use]
#[inline]
pub fn shift_result(op: ShiftOp, operand_taint: WordTaint, amount_taint: WordTaint) -> WordTaint {
    shift_result_with(TaintRules::PAPER, op, operand_taint, amount_taint)
}

/// [`shift_result`] under an explicit (possibly ablated) rule set.
#[must_use]
#[inline]
pub fn shift_result_with(
    rules: TaintRules,
    op: ShiftOp,
    operand_taint: WordTaint,
    amount_taint: WordTaint,
) -> WordTaint {
    let base = generic(operand_taint, amount_taint);
    if !rules.shift_smear {
        return base;
    }
    if op.is_left() {
        base.smear_left()
    } else {
        base.smear_right()
    }
}

/// Operand taint after a compare instruction (Table 1, row 5): cleared.
/// Compare instructions model input-validation code, so validated data is
/// trusted afterwards.
#[must_use]
#[inline]
pub fn compare_operand_taint() -> WordTaint {
    WordTaint::CLEAN
}

/// Name of the Table 1 rule [`ralu_result_with`] applies for this operation,
/// for labeling trace events. Mirrors that function's dispatch exactly.
#[must_use]
#[inline]
pub fn ralu_rule(rules: TaintRules, op: RAluOp, same_source_reg: bool) -> &'static str {
    match op {
        RAluOp::Xor if same_source_reg && rules.xor_idiom_untaints => "xor-idiom",
        RAluOp::And if rules.and_untaints => "and-mask",
        _ if op.is_compare() && rules.compare_untaints => "compare",
        _ => "generic",
    }
}

/// Name of the rule [`ialu_result_with`] applies, for labeling trace events.
#[must_use]
#[inline]
pub fn ialu_rule(rules: TaintRules, op: IAluOp) -> &'static str {
    match op {
        IAluOp::Andi if rules.and_untaints => "and-mask",
        _ if op.is_compare() && rules.compare_untaints => "compare",
        _ => "generic",
    }
}

/// Name of the rule [`shift_result_with`] applies, for labeling trace events.
#[must_use]
#[inline]
pub fn shift_rule(rules: TaintRules, op: ShiftOp) -> &'static str {
    if !rules.shift_smear {
        "generic"
    } else if op.is_left() {
        "shift-smear-left"
    } else {
        "shift-smear-right"
    }
}

/// Result taint of a load, given the taint bits read from memory.
///
/// * word loads copy all four bits;
/// * halfword/byte loads copy the low bits; **sign-extension** bytes inherit
///   the taint of the byte they were derived from, while **zero-extension**
///   bytes are untainted constants.
#[must_use]
#[inline]
pub fn load_result(width: ptaint_isa::MemWidth, signed: bool, mem_taint: WordTaint) -> WordTaint {
    use ptaint_isa::MemWidth;
    match width {
        MemWidth::Word => mem_taint,
        MemWidth::Half => {
            let low = mem_taint.low_half();
            if signed {
                let ext = low.byte(1);
                low.with_byte(2, ext).with_byte(3, ext)
            } else {
                low
            }
        }
        MemWidth::Byte => {
            let b0 = mem_taint.byte(0);
            let t = WordTaint::CLEAN.with_byte(0, b0);
            if signed {
                t.with_byte(1, b0).with_byte(2, b0).with_byte(3, b0)
            } else {
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::MemWidth;

    const T0: WordTaint = WordTaint::CLEAN;
    fn t(bits: u8) -> WordTaint {
        WordTaint::from_bits(bits)
    }

    // ---- Table 1 row 1: generic OR ----

    #[test]
    fn generic_is_bytewise_or() {
        assert_eq!(generic(t(0b0101), t(0b0011)), t(0b0111));
        assert_eq!(generic(T0, T0), T0);
        assert_eq!(generic(WordTaint::ALL, T0), WordTaint::ALL);
    }

    #[test]
    fn add_like_ops_use_generic_rule() {
        for op in [
            RAluOp::Add,
            RAluOp::Addu,
            RAluOp::Sub,
            RAluOp::Subu,
            RAluOp::Or,
            RAluOp::Nor,
        ] {
            assert_eq!(
                ralu_result(op, 5, t(0b0001), 6, t(0b1000), false),
                t(0b1001),
                "{op:?}"
            );
        }
    }

    #[test]
    fn no_taint_from_untainted_operands() {
        // Soundness: untainted inputs can never produce tainted outputs.
        for op in RAluOp::ALL {
            assert_eq!(ralu_result(op, 0xdead, T0, 0xbeef, T0, false), T0, "{op:?}");
        }
    }

    // ---- Table 1 row 2: shift smear ----

    #[test]
    fn left_shift_smears_toward_msb() {
        assert_eq!(shift_result(ShiftOp::Sll, t(0b0001), T0), t(0b0011));
        assert_eq!(shift_result(ShiftOp::Sll, t(0b1000), T0), t(0b1000));
    }

    #[test]
    fn right_shifts_smear_toward_lsb() {
        assert_eq!(shift_result(ShiftOp::Srl, t(0b1000), T0), t(0b1100));
        assert_eq!(shift_result(ShiftOp::Sra, t(0b0100), T0), t(0b0110));
        assert_eq!(shift_result(ShiftOp::Srl, t(0b0001), T0), t(0b0001));
    }

    #[test]
    fn variable_shift_amount_taint_propagates() {
        // Tainted shift amount taints the result even if the operand is clean.
        assert_eq!(shift_result(ShiftOp::Sll, T0, t(0b0001)), t(0b0011));
        assert_eq!(shift_result(ShiftOp::Srl, T0, T0), T0);
    }

    // ---- Table 1 row 3: AND with untainted zero ----

    #[test]
    fn and_with_untainted_zero_untaints() {
        // Masking a fully tainted word with untainted 0x000000ff keeps only byte 0 tainted.
        assert_eq!(
            and_result(0xaabb_ccdd, WordTaint::ALL, 0x0000_00ff, T0),
            t(0b0001)
        );
        // Masking with untainted zero untaints everything.
        assert_eq!(and_result(0xffff_ffff, WordTaint::ALL, 0, T0), T0);
    }

    #[test]
    fn and_with_tainted_zero_stays_tainted() {
        // A zero byte that is itself tainted does not untaint: the attacker
        // controls it, so the result is still attacker-derived.
        assert_eq!(
            and_result(0xffff_ffff, T0, 0, WordTaint::ALL),
            WordTaint::ALL
        );
    }

    #[test]
    fn and_nonzero_bytes_use_generic_or() {
        assert_eq!(
            and_result(0x0101_0101, t(0b0001), 0x01ff_ff01, t(0b1000)),
            t(0b1001)
        );
        assert_eq!(
            ralu_result(RAluOp::And, 0xff, WordTaint::ALL, 0xff, T0, false),
            t(0b0001)
        );
    }

    // ---- Table 1 row 4: xor r,s,s idiom ----

    #[test]
    fn xor_same_register_untaints() {
        assert_eq!(
            ralu_result(
                RAluOp::Xor,
                0x41414141,
                WordTaint::ALL,
                0x41414141,
                WordTaint::ALL,
                true
            ),
            T0
        );
        // Different registers holding tainted data still propagate.
        assert_eq!(
            ralu_result(RAluOp::Xor, 1, WordTaint::ALL, 2, T0, false),
            WordTaint::ALL
        );
    }

    // ---- Table 1 row 5: compare untaints ----

    #[test]
    fn compare_results_and_operands_are_untainted() {
        assert_eq!(
            ralu_result(RAluOp::Slt, 1, WordTaint::ALL, 2, WordTaint::ALL, false),
            T0
        );
        assert_eq!(
            ralu_result(RAluOp::Sltu, 1, WordTaint::ALL, 2, WordTaint::ALL, false),
            T0
        );
        assert_eq!(compare_operand_taint(), T0);
    }

    // ---- immediate forms ----

    #[test]
    fn immediate_ops_propagate_source_taint_only() {
        assert_eq!(
            ialu_result(IAluOp::Addiu, 5, t(0b0110), 0xffff_fff0),
            t(0b0110)
        );
        assert_eq!(ialu_result(IAluOp::Ori, 5, t(0b0001), 0x00ff), t(0b0001));
        assert_eq!(
            ialu_result(IAluOp::Xori, 5, WordTaint::ALL, 0x00ff),
            WordTaint::ALL
        );
    }

    #[test]
    fn andi_untaints_via_zero_extension() {
        // andi $r, $tainted, 0xff: bytes 1..3 of the extended immediate are
        // untainted zeroes, so only byte 0 can stay tainted.
        assert_eq!(
            ialu_result(IAluOp::Andi, 0xffff_ffff, WordTaint::ALL, 0x0000_00ff),
            t(0b0001)
        );
    }

    #[test]
    fn slti_untaints_result() {
        assert_eq!(ialu_result(IAluOp::Slti, 9, WordTaint::ALL, 10), T0);
        assert_eq!(ialu_result(IAluOp::Sltiu, 9, WordTaint::ALL, 10), T0);
    }

    // ---- loads ----

    #[test]
    fn word_load_copies_all_bits() {
        assert_eq!(load_result(MemWidth::Word, true, t(0b1010)), t(0b1010));
    }

    #[test]
    fn signed_byte_load_extends_taint() {
        assert_eq!(load_result(MemWidth::Byte, true, t(0b0001)), WordTaint::ALL);
        assert_eq!(load_result(MemWidth::Byte, true, T0), T0);
        // Only byte 0 of the memory taint matters for a byte load.
        assert_eq!(load_result(MemWidth::Byte, true, t(0b1110)), T0);
    }

    #[test]
    fn unsigned_byte_load_zero_extension_is_untainted() {
        assert_eq!(load_result(MemWidth::Byte, false, t(0b0001)), t(0b0001));
        assert_eq!(
            load_result(MemWidth::Byte, false, WordTaint::ALL),
            t(0b0001)
        );
    }

    #[test]
    fn half_loads() {
        assert_eq!(
            load_result(MemWidth::Half, false, WordTaint::ALL),
            t(0b0011)
        );
        // Sign extension inherits the high byte's taint.
        assert_eq!(load_result(MemWidth::Half, true, t(0b0010)), t(0b1110));
        assert_eq!(load_result(MemWidth::Half, true, t(0b0001)), t(0b0001));
    }
}
