//! Measured crossover table for the convolution kernel ladder.
//!
//! The ladder offers three ways to run one convolution job: the direct
//! schoolbook loop (`O(d^2)` coefficient multiplications),
//! the Karatsuba short product (`O(d^1.58)`) and the compensated digit-FFT
//! (`O(d log d)` double operations).  Which one is fastest depends on the
//! truncation degree *and* on the working precision: a multiple-double
//! multiplication costs `O(N^2)` double operations in the number of limbs
//! `N`, so the sub-quadratic kernels — which trade coefficient
//! multiplications for coefficient additions (Karatsuba) or for plain `f64`
//! work (FFT) — pay off earlier at higher precision.
//!
//! This module ships the table measured by `table_harness kernels` on the
//! reference container (the same measurement that produces
//! `bench/baselines/BENCH_kernels.json`).  [`Plan`](crate::Plan) resolves
//! [`ConvolutionKernel::Auto`] against the table once, at compile time, so
//! evaluation never re-decides per job.
//!
//! The table was measured against the paper's zero-insertion kernel, which
//! does about twice the work of the direct loop that runs below the
//! crossover.  Re-measuring it would change which rung `Auto` picks, and so
//! its bits; EXPERIMENTS.md §15 has the direct-vs-Karatsuba numbers.

use crate::evaluate::ConvolutionKernel;

/// The measured crossover degrees of one precision (identified by the
/// number of `f64` limbs per *component*, so a complex coefficient uses the
/// entry of its real part).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossover {
    /// Limbs per component of the coefficient type ([`psmd_multidouble::Coeff::component_limbs`]).
    pub component_limbs: usize,
    /// Smallest truncation degree at which the Karatsuba short product beat
    /// the schoolbook kernel when the table was measured ([`usize::MAX`] if
    /// it never did).
    pub karatsuba_from: usize,
    /// Smallest truncation degree at which the digit-FFT beats the Karatsuba
    /// short product ([`usize::MAX`] if it never does).
    pub fft_from: usize,
}

/// Crossover degrees per precision, measured by `table_harness kernels` on
/// the reference container (see `bench/baselines/BENCH_kernels.json` and
/// EXPERIMENTS.md §10).  Entries are sorted by `component_limbs`.
///
/// The shape follows the cost argument above: plain `f64` coefficients
/// multiply as fast as they add, so the schoolbook kernel (with its
/// perfectly regular inner loop) holds out to degree 96 and the digit
/// decomposition of the FFT never pays for itself; from double-double
/// upward the `O(N^2)`-per-multiplication cost makes Karatsuba win as soon
/// as its recursion engages (degree 16, one level above
/// [`psmd_series::KARATSUBA_THRESHOLD`]), and the digit-FFT — whose double
/// operations grow only linearly in the limb count — takes over from
/// degree 48 at every multiple-double precision (measured 2.2x over
/// schoolbook at double-double and up to ~10x at deca-double, degree 160).
pub const CROSSOVER_TABLE: &[Crossover] = &[
    Crossover {
        component_limbs: 1,
        karatsuba_from: 96,
        fft_from: usize::MAX,
    },
    Crossover {
        component_limbs: 2,
        karatsuba_from: 16,
        fft_from: 48,
    },
    Crossover {
        component_limbs: 3,
        karatsuba_from: 16,
        fft_from: 48,
    },
    Crossover {
        component_limbs: 4,
        karatsuba_from: 16,
        fft_from: 48,
    },
    Crossover {
        component_limbs: 5,
        karatsuba_from: 16,
        fft_from: 48,
    },
    Crossover {
        component_limbs: 8,
        karatsuba_from: 16,
        fft_from: 48,
    },
    Crossover {
        component_limbs: 10,
        karatsuba_from: 16,
        fft_from: 48,
    },
];

/// The crossover entry governing a coefficient type with `component_limbs`
/// limbs per component: the exact row when present, otherwise the nearest
/// row below (an unknown wide precision behaves at least as well as the
/// widest measured one).
pub fn crossover_for(component_limbs: usize) -> &'static Crossover {
    let mut best = &CROSSOVER_TABLE[0];
    for entry in CROSSOVER_TABLE {
        if entry.component_limbs <= component_limbs {
            best = entry;
        }
    }
    best
}

/// Resolves [`ConvolutionKernel::Auto`] for a coefficient type with
/// `component_limbs` limbs per component at truncation degree `degree`.
/// Never returns `Auto`.
pub fn auto_kernel(component_limbs: usize, degree: usize) -> ConvolutionKernel {
    let c = crossover_for(component_limbs);
    if degree >= c.fft_from {
        ConvolutionKernel::Fft
    } else if degree >= c.karatsuba_from {
        ConvolutionKernel::Karatsuba
    } else {
        ConvolutionKernel::Direct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_monotone_per_row() {
        for w in CROSSOVER_TABLE.windows(2) {
            assert!(w[0].component_limbs < w[1].component_limbs);
        }
        for c in CROSSOVER_TABLE {
            assert!(
                c.karatsuba_from <= c.fft_from,
                "limbs {}: the ladder must be schoolbook -> karatsuba -> fft",
                c.component_limbs
            );
        }
    }

    #[test]
    fn lookup_snaps_to_the_nearest_measured_precision_below() {
        assert_eq!(crossover_for(1).component_limbs, 1);
        assert_eq!(crossover_for(4).component_limbs, 4);
        // Unmeasured widths snap down.
        assert_eq!(crossover_for(6).component_limbs, 5);
        assert_eq!(crossover_for(9).component_limbs, 8);
        assert_eq!(crossover_for(64).component_limbs, 10);
        // Narrower than anything measured: first row.
        assert_eq!(crossover_for(0).component_limbs, 1);
    }

    #[test]
    fn auto_kernel_walks_the_ladder() {
        for c in CROSSOVER_TABLE {
            let l = c.component_limbs;
            assert_eq!(auto_kernel(l, 1), ConvolutionKernel::Direct);
            if c.karatsuba_from < c.fft_from {
                assert_eq!(
                    auto_kernel(l, c.karatsuba_from),
                    ConvolutionKernel::Karatsuba
                );
                assert_eq!(
                    auto_kernel(l, c.karatsuba_from - 1),
                    ConvolutionKernel::Direct
                );
            }
            if c.fft_from != usize::MAX {
                assert_eq!(auto_kernel(l, c.fft_from), ConvolutionKernel::Fft);
                assert_eq!(auto_kernel(l, c.fft_from - 1), ConvolutionKernel::Karatsuba);
                assert_eq!(auto_kernel(l, 10_000), ConvolutionKernel::Fft);
            }
        }
    }

    #[test]
    fn auto_never_returns_auto() {
        for limbs in [1, 2, 3, 4, 5, 8, 10, 16] {
            for degree in 0..200 {
                assert_ne!(auto_kernel(limbs, degree), ConvolutionKernel::Auto);
            }
        }
    }
}
