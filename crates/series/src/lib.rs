//! # psmd-series
//!
//! Truncated power series arithmetic: the data the paper's kernels operate
//! on.  A power series truncated at degree `d` is a vector of `d + 1`
//! coefficients; the two operations the paper parallelizes are the
//! *convolution* (series product) and the coefficient-wise *addition*.
//!
//! The crate provides both an owned, ergonomic [`Series`] type and the
//! slice-level kernels ([`convolution`]) that the evaluation engine of
//! `psmd-core` runs on ranges of its flat data array: the direct schoolbook
//! loop, the Karatsuba short product and the compensated digit-FFT.

#![warn(missing_docs)]

pub mod convolution;
pub mod fft;
pub mod karatsuba;
pub mod lanes;
pub mod series;

pub use convolution::{
    add_assign_slices, addition_adds, convolution_adds, convolution_mults, convolve_seq, ConvAlgo,
};
pub use fft::{
    convolve_fft, fft_digit_bits, fft_digit_planes, fft_points, fft_scratch_f64_len, fft_ulp_budget,
};
pub use karatsuba::{
    convolve_karatsuba, karatsuba_adds, karatsuba_depth, karatsuba_mults, karatsuba_scratch_len,
    karatsuba_ulp_budget, KARATSUBA_THRESHOLD,
};
pub use lanes::{
    convolve_panels, convolve_panels_dyn, gather_into_panel, panel_f64s, scatter_from_panel,
};
pub use series::Series;
