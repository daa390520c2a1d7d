//! # psmd-multidouble
//!
//! Multiple-double (floating-point expansion) arithmetic: the scalar
//! substrate of the paper *"Accelerated Polynomial Evaluation and
//! Differentiation at Power Series in Multiple Double Precision"*
//! (J. Verschelde, 2021).
//!
//! A multiple-double number extends IEEE double precision by representing a
//! value as the unevaluated sum of `N` doubles.  The paper runs its kernels
//! in double (`N = 1`), double-double, triple-, quad-, penta-, octo- and
//! deca-double precision; all of those are provided here by the single
//! generic type [`Md<N>`] together with convenient aliases ([`Dd`], [`Td`],
//! [`Qd`], [`Pd`], [`Od`], [`Deca`]).
//!
//! ## Quick example
//!
//! ```
//! use psmd_multidouble::{Deca, Md};
//!
//! // 1/3 carries ~160 correct decimal digits in deca-double precision.
//! let third = Deca::one() / Deca::from_f64(3.0);
//! let one = third * Deca::from_f64(3.0);
//! assert!((one - Deca::one()).abs().to_f64() < 1e-150);
//! ```
//!
//! The crate also provides complex numbers over any real precision
//! ([`Complex`]), the coefficient traits used by the power-series layer
//! ([`Coeff`], [`RealCoeff`]), runtime precision descriptors ([`Precision`],
//! turned into `Md<N>` by [`with_precision!`]) and the double-operation cost
//! models used by the paper's throughput analysis ([`flops`]).

#![warn(missing_docs)]

pub mod coeff;
pub mod complex;
pub mod convert;
pub mod eft;
pub mod flops;
pub mod lanes;
pub mod md;
pub mod ops;
pub mod precision;
#[cfg(feature = "rand")]
pub mod random;
pub mod renorm;
pub mod ulp;

pub use coeff::{Coeff, RealCoeff};
pub use complex::{Complex, ComplexDd, ComplexDeca, ComplexQd};
pub use convert::{decimal_digits, ParseMdError};
pub use flops::CostModel;
pub use lanes::{detect_isa, detected_lane_width, CxLanes, LaneVec, MdLanes, ScalarLanes, SimdIsa};
pub use md::{Dd, Deca, Md, Md1, Od, Pd, Qd, Td, MAX_LIMBS};
pub use precision::Precision;
#[cfg(feature = "rand")]
pub use random::RandomCoeff;
pub use ulp::{max_scaled_error, max_ulp_error, ulp_distance};
