//! General-purpose register names and ABI conventions.

use std::fmt;

/// One of the 32 general-purpose registers.
///
/// Register `$0` ([`Reg::ZERO`]) is hardwired to zero: writes to it are
/// discarded and its taintedness bits are always clear. The remaining
/// registers follow the classic MIPS o32 ABI role assignment, which the
/// mini-C compiler in `ptaint-cc` and the guest runtime adhere to.
///
/// ```
/// use ptaint_isa::Reg;
/// assert_eq!(Reg::SP.number(), 29);
/// assert_eq!(Reg::new(31), Reg::RA);
/// assert_eq!(Reg::RA.abi_name(), "ra");
/// assert_eq!(Reg::RA.to_string(), "$31");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Hardwired zero.
    pub const ZERO: Reg = Reg(0);
    /// Assembler temporary.
    pub const AT: Reg = Reg(1);
    /// First function result register.
    pub const V0: Reg = Reg(2);
    /// Second function result register.
    pub const V1: Reg = Reg(3);
    /// First argument register (syscall argument 0).
    pub const A0: Reg = Reg(4);
    /// Second argument register (syscall argument 1).
    pub const A1: Reg = Reg(5);
    /// Third argument register (syscall argument 2).
    pub const A2: Reg = Reg(6);
    /// Fourth argument register (syscall argument 3).
    pub const A3: Reg = Reg(7);
    /// Caller-saved temporary 0.
    pub const T0: Reg = Reg(8);
    /// Caller-saved temporary 1.
    pub const T1: Reg = Reg(9);
    /// Caller-saved temporary 2.
    pub const T2: Reg = Reg(10);
    /// Caller-saved temporary 3.
    pub const T3: Reg = Reg(11);
    /// Caller-saved temporary 4.
    pub const T4: Reg = Reg(12);
    /// Caller-saved temporary 5.
    pub const T5: Reg = Reg(13);
    /// Caller-saved temporary 6.
    pub const T6: Reg = Reg(14);
    /// Caller-saved temporary 7.
    pub const T7: Reg = Reg(15);
    /// Callee-saved register 0.
    pub const S0: Reg = Reg(16);
    /// Callee-saved register 1.
    pub const S1: Reg = Reg(17);
    /// Callee-saved register 2.
    pub const S2: Reg = Reg(18);
    /// Callee-saved register 3.
    pub const S3: Reg = Reg(19);
    /// Callee-saved register 4.
    pub const S4: Reg = Reg(20);
    /// Callee-saved register 5.
    pub const S5: Reg = Reg(21);
    /// Callee-saved register 6.
    pub const S6: Reg = Reg(22);
    /// Callee-saved register 7.
    pub const S7: Reg = Reg(23);
    /// Caller-saved temporary 8.
    pub const T8: Reg = Reg(24);
    /// Caller-saved temporary 9.
    pub const T9: Reg = Reg(25);
    /// Reserved for kernel 0.
    pub const K0: Reg = Reg(26);
    /// Reserved for kernel 1.
    pub const K1: Reg = Reg(27);
    /// Global pointer.
    pub const GP: Reg = Reg(28);
    /// Stack pointer.
    pub const SP: Reg = Reg(29);
    /// Frame pointer.
    pub const FP: Reg = Reg(30);
    /// Return address, written by `jal`/`jalr`.
    pub const RA: Reg = Reg(31);

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub const fn new(n: u8) -> Reg {
        assert!(n < 32, "register number out of range");
        Reg(n)
    }

    /// Creates a register from the low five bits of an encoded field.
    #[must_use]
    pub const fn from_field(bits: u32) -> Reg {
        Reg((bits & 0x1f) as u8)
    }

    /// The register number in `0..32`.
    #[must_use]
    pub const fn number(self) -> u8 {
        self.0
    }

    /// The register number as a `usize` index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired zero register.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The conventional o32 ABI name (without the `$` sigil).
    #[must_use]
    pub const fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5",
            "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1",
            "gp", "sp", "fp", "ra",
        ];
        NAMES[self.0 as usize]
    }

    /// Parses a register from assembler syntax: `$3`, `$sp`, `sp`, `$fp`, …
    ///
    /// Returns `None` when the name is not a register.
    #[must_use]
    pub fn parse(name: &str) -> Option<Reg> {
        let name = name.strip_prefix('$').unwrap_or(name);
        Some(Reg(match name {
            "zero" => 0,
            "at" => 1,
            "v0" => 2,
            "v1" => 3,
            "a0" => 4,
            "a1" => 5,
            "a2" => 6,
            "a3" => 7,
            "t0" => 8,
            "t1" => 9,
            "t2" => 10,
            "t3" => 11,
            "t4" => 12,
            "t5" => 13,
            "t6" => 14,
            "t7" => 15,
            "s0" => 16,
            "s1" => 17,
            "s2" => 18,
            "s3" => 19,
            "s4" => 20,
            "s5" => 21,
            "s6" => 22,
            "s7" => 23,
            "t8" => 24,
            "t9" => 25,
            "k0" => 26,
            "k1" => 27,
            "gp" => 28,
            "sp" => 29,
            "fp" => 30,
            "ra" => 31,
            _ => return name.parse::<u8>().ok().filter(|&n| n < 32).map(Reg),
        }))
    }

    /// Iterates over all 32 registers in numeric order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32u8).map(Reg)
    }
}

impl fmt::Display for Reg {
    /// Formats in the paper's numeric style: `$3`, `$21`, `$31`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_abi_positions() {
        assert_eq!(Reg::ZERO.number(), 0);
        assert_eq!(Reg::V0.number(), 2);
        assert_eq!(Reg::A0.number(), 4);
        assert_eq!(Reg::T0.number(), 8);
        assert_eq!(Reg::S0.number(), 16);
        assert_eq!(Reg::T8.number(), 24);
        assert_eq!(Reg::GP.number(), 28);
        assert_eq!(Reg::SP.number(), 29);
        assert_eq!(Reg::FP.number(), 30);
        assert_eq!(Reg::RA.number(), 31);
    }

    #[test]
    fn parse_accepts_numeric_and_abi_names() {
        assert_eq!(Reg::parse("$31"), Some(Reg::RA));
        assert_eq!(Reg::parse("$ra"), Some(Reg::RA));
        assert_eq!(Reg::parse("ra"), Some(Reg::RA));
        assert_eq!(Reg::parse("$sp"), Some(Reg::SP));
        assert_eq!(Reg::parse("$0"), Some(Reg::ZERO));
        assert_eq!(Reg::parse("zero"), Some(Reg::ZERO));
        assert_eq!(Reg::parse("$32"), None);
        assert_eq!(Reg::parse("bogus"), None);
        assert_eq!(Reg::parse(""), None);
    }

    #[test]
    fn parse_round_trips_every_register() {
        for r in Reg::all() {
            assert_eq!(Reg::parse(&r.to_string()), Some(r));
            assert_eq!(Reg::parse(r.abi_name()), Some(r));
        }
    }

    #[test]
    fn display_is_numeric_like_the_paper() {
        assert_eq!(Reg::new(3).to_string(), "$3");
        assert_eq!(Reg::S5.to_string(), "$21");
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn new_rejects_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn from_field_masks_to_five_bits() {
        assert_eq!(Reg::from_field(0xffff_ffe3), Reg::new(3));
    }
}
