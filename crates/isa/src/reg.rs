//! Architectural registers.
//!
//! Three register files exist: 32 integer registers (`x0`..`x31`, with
//! `x0` hardwired to zero and `x30` used as the link register by
//! convention), 32 scalar floating-point registers (`f0`..`f31`), and 16
//! 128-bit SIMD registers (`v0`..`v15`, four `f32` lanes each).

/// The register file a [`Reg`] belongs to.
///
/// The numeric discriminants are stable: feature extraction encodes a
/// register operand's *category* as this discriminant (with `0` reserved
/// for "no operand in this slot").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RegClass {
    /// 64-bit integer register.
    Int = 1,
    /// 64-bit scalar floating-point register.
    Fp = 2,
    /// 128-bit SIMD register (4 × f32 lanes).
    Vec = 3,
}

impl RegClass {
    /// Number of registers in this file.
    pub const fn count(self) -> u8 {
        match self {
            RegClass::Int | RegClass::Fp => 32,
            RegClass::Vec => 16,
        }
    }
}

/// An architectural register operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    class: RegClass,
    index: u8,
}

impl Reg {
    /// The always-zero integer register `x0`.
    pub const ZERO: Reg = Reg {
        class: RegClass::Int,
        index: 0,
    };
    /// Conventional link register (`x30`), written by calls.
    pub const LINK: Reg = Reg {
        class: RegClass::Int,
        index: 30,
    };
    /// Conventional stack pointer (`x29`).
    pub const SP: Reg = Reg {
        class: RegClass::Int,
        index: 29,
    };

    /// Integer register `x<i>`. Panics if `i >= 32`.
    #[inline]
    pub const fn x(i: u8) -> Reg {
        assert!(i < 32, "integer register index out of range");
        Reg {
            class: RegClass::Int,
            index: i,
        }
    }

    /// Floating-point register `f<i>`. Panics if `i >= 32`.
    #[inline]
    pub const fn f(i: u8) -> Reg {
        assert!(i < 32, "fp register index out of range");
        Reg {
            class: RegClass::Fp,
            index: i,
        }
    }

    /// SIMD register `v<i>`. Panics if `i >= 16`.
    #[inline]
    pub const fn v(i: u8) -> Reg {
        assert!(i < 16, "vector register index out of range");
        Reg {
            class: RegClass::Vec,
            index: i,
        }
    }

    /// The register file this register belongs to.
    #[inline]
    pub const fn class(self) -> RegClass {
        self.class
    }

    /// Index within its register file.
    #[inline]
    pub const fn index(self) -> u8 {
        self.index
    }

    /// True for the hardwired zero register `x0`.
    #[inline]
    pub const fn is_zero(self) -> bool {
        matches!(self.class, RegClass::Int) && self.index == 0
    }

    /// A dense identifier unique across all register files, usable as a
    /// scoreboard index: integers occupy 0..32, fp 32..64, vectors 64..80.
    #[inline]
    pub const fn flat_id(self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => 32 + self.index as usize,
            RegClass::Vec => 64 + self.index as usize,
        }
    }

    /// Total number of distinct [`Reg::flat_id`] values.
    pub const NUM_FLAT: usize = 80;
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prefix = match self.class {
            RegClass::Int => 'x',
            RegClass::Fp => 'f',
            RegClass::Vec => 'v',
        };
        write!(f, "{}{}", prefix, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_identity() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::x(1).is_zero());
        assert!(!Reg::f(0).is_zero());
        assert_eq!(Reg::ZERO, Reg::x(0));
    }

    #[test]
    fn flat_ids_are_dense_and_unique() {
        let mut seen = [false; Reg::NUM_FLAT];
        for i in 0..32 {
            for r in [Reg::x(i), Reg::f(i)] {
                assert!(!seen[r.flat_id()], "duplicate flat id for {r}");
                seen[r.flat_id()] = true;
            }
        }
        for i in 0..16 {
            let r = Reg::v(i);
            assert!(!seen[r.flat_id()]);
            seen[r.flat_id()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 80);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Reg::v(16);
    }

    #[test]
    fn display_format() {
        assert_eq!(Reg::x(3).to_string(), "x3");
        assert_eq!(Reg::f(31).to_string(), "f31");
        assert_eq!(Reg::v(0).to_string(), "v0");
    }

    #[test]
    fn class_counts() {
        assert_eq!(RegClass::Int.count(), 32);
        assert_eq!(RegClass::Fp.count(), 32);
        assert_eq!(RegClass::Vec.count(), 16);
    }
}
