//! Per-word taintedness bits.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// The four taintedness bits of a 32-bit word — one bit per byte.
///
/// Bit *i* corresponds to byte *i* of the word in little-endian order, i.e.
/// bit 0 is the least-significant byte, which lives at the lowest address.
/// The paper's detector ORs these four bits ([`WordTaint::any`]) to decide
/// whether a word used as a pointer is tainted.
///
/// ```
/// use ptaint_mem::WordTaint;
///
/// let t = WordTaint::from_bits(0b0101);
/// assert!(t.byte(0) && !t.byte(1) && t.byte(2) && !t.byte(3));
/// assert!(t.any());
/// assert_eq!(t | WordTaint::from_bits(0b1010), WordTaint::ALL);
/// assert_eq!(WordTaint::CLEAN.to_string(), "----");
/// assert_eq!(t.to_string(), "-T-T"); // rendered most-significant byte first
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct WordTaint(u8);

impl WordTaint {
    /// All four bytes untainted.
    pub const CLEAN: WordTaint = WordTaint(0);
    /// All four bytes tainted.
    pub const ALL: WordTaint = WordTaint(0b1111);

    /// Builds from the low four bits of `bits` (bit *i* = byte *i*).
    #[must_use]
    #[inline]
    pub const fn from_bits(bits: u8) -> WordTaint {
        WordTaint(bits & 0b1111)
    }

    /// Uniform taint: every byte tainted when `tainted` is true.
    #[must_use]
    #[inline]
    pub const fn splat(tainted: bool) -> WordTaint {
        if tainted {
            WordTaint::ALL
        } else {
            WordTaint::CLEAN
        }
    }

    /// The raw four-bit mask.
    #[must_use]
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Taintedness of byte `i` (0 = least significant / lowest address).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[must_use]
    #[inline]
    pub const fn byte(self, i: usize) -> bool {
        assert!(i < 4, "word byte index out of range");
        self.0 & (1 << i) != 0
    }

    /// Returns a copy with byte `i` set to `tainted`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[must_use]
    #[inline]
    pub const fn with_byte(self, i: usize, tainted: bool) -> WordTaint {
        assert!(i < 4, "word byte index out of range");
        if tainted {
            WordTaint(self.0 | (1 << i))
        } else {
            WordTaint(self.0 & !(1 << i))
        }
    }

    /// The detector's OR-gate: is *any* byte of the word tainted?
    ///
    /// This is exactly the check the paper performs on an address word before
    /// a load/store and on the target register of `jr`/`jalr`.
    #[must_use]
    #[inline]
    pub const fn any(self) -> bool {
        self.0 != 0
    }

    /// Number of tainted bytes in the word.
    #[must_use]
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Taint of the low halfword (bytes 0..2) splatted into a fresh word
    /// taint, used by halfword loads.
    #[must_use]
    #[inline]
    pub const fn low_half(self) -> WordTaint {
        WordTaint(self.0 & 0b0011)
    }

    /// Shift-left smear (Table 1): a tainted byte also taints its
    /// more-significant neighbour.
    #[must_use]
    #[inline]
    pub const fn smear_left(self) -> WordTaint {
        WordTaint((self.0 | (self.0 << 1)) & 0b1111)
    }

    /// Shift-right smear (Table 1): a tainted byte also taints its
    /// less-significant neighbour.
    #[must_use]
    #[inline]
    pub const fn smear_right(self) -> WordTaint {
        WordTaint(self.0 | (self.0 >> 1))
    }

    /// Returns a copy with byte `i`'s taint bit inverted — the
    /// fault-injection harness's single-event-upset model for the register
    /// file's shadow bits (a flip is a taint *loss* as often as a gain).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[must_use]
    #[inline]
    pub const fn toggle_byte(self, i: usize) -> WordTaint {
        assert!(i < 4, "word byte index out of range");
        WordTaint(self.0 ^ (1 << i))
    }

    /// Index of the least-significant tainted byte, or `None` when clean.
    /// Forensic output uses this to name the first attacker-controlled byte
    /// of a flagged pointer.
    #[must_use]
    #[inline]
    pub const fn first_tainted_byte(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Iterates over the four per-byte taint flags, least significant first.
    pub fn iter(self) -> impl Iterator<Item = bool> {
        (0..4).map(move |i| self.byte(i))
    }
}

impl BitOr for WordTaint {
    type Output = WordTaint;

    /// Bytewise OR — the generic ALU propagation rule of Table 1.
    #[inline]
    fn bitor(self, rhs: WordTaint) -> WordTaint {
        WordTaint(self.0 | rhs.0)
    }
}

impl BitOrAssign for WordTaint {
    #[inline]
    fn bitor_assign(&mut self, rhs: WordTaint) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for WordTaint {
    type Output = WordTaint;

    #[inline]
    fn bitand(self, rhs: WordTaint) -> WordTaint {
        WordTaint(self.0 & rhs.0)
    }
}

impl fmt::Display for WordTaint {
    /// Renders most-significant byte first: `T--T` means bytes 3 and 0 are
    /// tainted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..4).rev() {
            f.write_str(if self.byte(i) { "T" } else { "-" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(WordTaint::CLEAN.bits(), 0);
        assert_eq!(WordTaint::ALL.bits(), 0b1111);
        assert_eq!(WordTaint::splat(true), WordTaint::ALL);
        assert_eq!(WordTaint::splat(false), WordTaint::CLEAN);
        assert_eq!(WordTaint::from_bits(0xff), WordTaint::ALL);
        assert_eq!(WordTaint::default(), WordTaint::CLEAN);
    }

    #[test]
    fn any_is_the_or_gate() {
        assert!(!WordTaint::CLEAN.any());
        for i in 0..4 {
            assert!(WordTaint::CLEAN.with_byte(i, true).any());
        }
    }

    #[test]
    fn with_byte_sets_and_clears() {
        let t = WordTaint::CLEAN.with_byte(2, true);
        assert!(t.byte(2));
        assert!(!t.byte(0) && !t.byte(1) && !t.byte(3));
        assert_eq!(t.with_byte(2, false), WordTaint::CLEAN);
        assert_eq!(t.count(), 1);
        assert_eq!(WordTaint::ALL.count(), 4);
    }

    #[test]
    fn smear_left_taints_more_significant_neighbour() {
        // byte 0 tainted -> bytes 0 and 1 tainted.
        assert_eq!(WordTaint::from_bits(0b0001).smear_left().bits(), 0b0011);
        // byte 3 tainted -> no byte 4 to smear into.
        assert_eq!(WordTaint::from_bits(0b1000).smear_left().bits(), 0b1000);
        assert_eq!(WordTaint::CLEAN.smear_left(), WordTaint::CLEAN);
        assert_eq!(WordTaint::ALL.smear_left(), WordTaint::ALL);
    }

    #[test]
    fn smear_right_taints_less_significant_neighbour() {
        assert_eq!(WordTaint::from_bits(0b1000).smear_right().bits(), 0b1100);
        assert_eq!(WordTaint::from_bits(0b0001).smear_right().bits(), 0b0001);
        assert_eq!(WordTaint::CLEAN.smear_right(), WordTaint::CLEAN);
    }

    #[test]
    fn bitops_are_bytewise() {
        let a = WordTaint::from_bits(0b0101);
        let b = WordTaint::from_bits(0b0011);
        assert_eq!((a | b).bits(), 0b0111);
        assert_eq!((a & b).bits(), 0b0001);
        let mut c = a;
        c |= b;
        assert_eq!(c.bits(), 0b0111);
    }

    #[test]
    fn toggle_byte_inverts_one_shadow_bit() {
        let t = WordTaint::from_bits(0b0101);
        assert_eq!(t.toggle_byte(0).bits(), 0b0100); // loss
        assert_eq!(t.toggle_byte(1).bits(), 0b0111); // gain
        assert_eq!(t.toggle_byte(2).toggle_byte(2), t); // involution
    }

    #[test]
    fn low_half_masks_upper_bytes() {
        assert_eq!(WordTaint::ALL.low_half().bits(), 0b0011);
        assert_eq!(WordTaint::from_bits(0b1100).low_half(), WordTaint::CLEAN);
    }

    #[test]
    fn display_renders_msb_first() {
        assert_eq!(WordTaint::from_bits(0b1001).to_string(), "T--T");
        assert_eq!(WordTaint::ALL.to_string(), "TTTT");
    }

    #[test]
    fn iter_yields_lsb_first() {
        let flags: Vec<bool> = WordTaint::from_bits(0b0110).iter().collect();
        assert_eq!(flags, vec![false, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "word byte index out of range")]
    fn byte_index_bounds_checked() {
        let _ = WordTaint::CLEAN.byte(4);
    }
}
