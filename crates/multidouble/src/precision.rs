//! Runtime description of the multiple-double precisions used in the paper.
//!
//! The type-level precision (`Md<N>`) is what the arithmetic uses; the
//! benchmark harness, the performance model and the capacity model also need
//! a runtime value to iterate over "all precisions of the paper", which is
//! what [`Precision`] provides.  [`with_precision!`](crate::with_precision)
//! turns such a value back into its `Md<N>` type.

use crate::flops::CostModel;

/// One of the seven precisions evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// IEEE double precision (1 limb), "1d" in the paper's figures.
    D1,
    /// Double-double (2 limbs), "2d".
    D2,
    /// Triple-double (3 limbs), "3d".
    D3,
    /// Quad-double (4 limbs), "4d".
    D4,
    /// Penta-double (5 limbs), "5d".
    D5,
    /// Octo-double (8 limbs), "8d".
    D8,
    /// Deca-double (10 limbs), "10d".
    D10,
}

impl Precision {
    /// All precisions, in the order used by the paper's tables and figures.
    pub const ALL: [Precision; 7] = [
        Precision::D1,
        Precision::D2,
        Precision::D3,
        Precision::D4,
        Precision::D5,
        Precision::D8,
        Precision::D10,
    ];

    /// Number of limbs (doubles) per real number.
    pub fn limbs(&self) -> usize {
        match self {
            Precision::D1 => 1,
            Precision::D2 => 2,
            Precision::D3 => 3,
            Precision::D4 => 4,
            Precision::D5 => 5,
            Precision::D8 => 8,
            Precision::D10 => 10,
        }
    }

    /// The label used in the paper's figures ("1d", "2d", ..., "10d").
    pub fn label(&self) -> &'static str {
        match self {
            Precision::D1 => "1d",
            Precision::D2 => "2d",
            Precision::D3 => "3d",
            Precision::D4 => "4d",
            Precision::D5 => "5d",
            Precision::D8 => "8d",
            Precision::D10 => "10d",
        }
    }

    /// Long, human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Precision::D1 => "double",
            Precision::D2 => "double double",
            Precision::D3 => "triple double",
            Precision::D4 => "quad double",
            Precision::D5 => "penta double",
            Precision::D8 => "octo double",
            Precision::D10 => "deca double",
        }
    }

    /// The precision with the given number of limbs, if it is one of the
    /// seven the paper evaluates.
    pub fn from_limbs(limbs: usize) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.limbs() == limbs)
    }

    /// Parses a label of the form "1d", "2d", ..., "10d" (or "dd", "qd").
    pub fn parse_label(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "1d" | "d" | "double" => Some(Precision::D1),
            "2d" | "dd" => Some(Precision::D2),
            "3d" | "td" => Some(Precision::D3),
            "4d" | "qd" => Some(Precision::D4),
            "5d" | "pd" => Some(Precision::D5),
            "8d" | "od" => Some(Precision::D8),
            "10d" | "da" | "deca" => Some(Precision::D10),
            _ => None,
        }
    }

    /// Double operations of one addition at this precision.
    pub fn add_ops(&self, model: CostModel) -> usize {
        model.add_ops(self.limbs())
    }

    /// Double operations of one multiplication at this precision.
    pub fn mul_ops(&self, model: CostModel) -> usize {
        model.mul_ops(self.limbs())
    }

    /// Relative rounding unit at this precision.
    pub fn unit_roundoff(&self) -> f64 {
        2f64.powi(1 - 52 * self.limbs() as i32)
    }
}

/// Turns a runtime [`Precision`] into its `Md<N>` type: binds the limb count
/// as a `const` named by the caller and evaluates the body once, in the arm
/// of the matching precision.  The body can name `Md<N>` as well as
/// const-generic items such as `f::<N>()`, so a caller that only needs to
/// pick a type uses this instead of a `match` of its own.
///
/// ```
/// use psmd_multidouble::{with_precision, Md, Precision};
///
/// let third = |p: Precision| with_precision!(p, N => {
///     (Md::<N>::one() / Md::<N>::from_f64(3.0)).limbs().len()
/// });
/// assert_eq!(third(Precision::D8), 8);
/// ```
#[macro_export]
macro_rules! with_precision {
    ($precision:expr, $n:ident => $body:expr) => {
        match $precision {
            $crate::Precision::D1 => {
                const $n: usize = 1;
                $body
            }
            $crate::Precision::D2 => {
                const $n: usize = 2;
                $body
            }
            $crate::Precision::D3 => {
                const $n: usize = 3;
                $body
            }
            $crate::Precision::D4 => {
                const $n: usize = 4;
                $body
            }
            $crate::Precision::D5 => {
                const $n: usize = 5;
                $body
            }
            $crate::Precision::D8 => {
                const $n: usize = 8;
                $body
            }
            $crate::Precision::D10 => {
                const $n: usize = 10;
                $body
            }
        }
    };
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limbs_and_labels_are_consistent() {
        for p in Precision::ALL {
            assert_eq!(Precision::from_limbs(p.limbs()), Some(p));
            assert_eq!(Precision::parse_label(p.label()), Some(p));
            assert!(p.name().contains("double"));
        }
        assert_eq!(Precision::ALL.len(), 7);
    }

    #[test]
    fn from_limbs_rejects_unsupported() {
        assert_eq!(Precision::from_limbs(6), None);
        assert_eq!(Precision::from_limbs(0), None);
    }

    #[test]
    fn parse_label_aliases() {
        assert_eq!(Precision::parse_label("dd"), Some(Precision::D2));
        assert_eq!(Precision::parse_label("QD"), Some(Precision::D4));
        assert_eq!(Precision::parse_label("deca"), Some(Precision::D10));
        assert_eq!(Precision::parse_label("7d"), None);
    }

    #[test]
    fn with_precision_binds_the_limb_count() {
        fn limbs_of<const N: usize>() -> usize {
            crate::Md::<N>::zero().limbs().len()
        }
        for p in Precision::ALL {
            assert_eq!(crate::with_precision!(p, N => N), p.limbs());
            assert_eq!(crate::with_precision!(p, N => limbs_of::<N>()), p.limbs());
        }
    }

    #[test]
    fn unit_roundoff_decreases_with_precision() {
        let mut prev = f64::INFINITY;
        for p in Precision::ALL {
            let u = p.unit_roundoff();
            assert!(u < prev);
            prev = u;
        }
    }
}
