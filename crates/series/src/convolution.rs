//! Slice-level convolution and addition kernels for truncated power series.
//!
//! These functions are the CPU equivalents of the paper's device kernels
//! (Section 2): one *convolution job* multiplies two series truncated at
//! degree `d` and one *addition job* updates one series with another.  The
//! evaluation engine of `psmd-core` calls them on ranges of the flat data
//! array; they are also usable directly on standalone coefficient slices.
//!
//! The paper's device kernel stages `y` behind `d + 1` zeros so that every
//! GPU thread performs exactly `d + 1` products and no warp diverges.  A CPU
//! core has no warps, so the schoolbook kernel here is the direct loop
//! [`convolve_seq`], which skips those zero products; the paper's operation
//! counts are [`ConvAlgo::ZeroInsertion`].

use psmd_multidouble::Coeff;

/// Sequential convolution, the direct application of the coefficient formula
/// `z_k = sum_{i=0..k} x_i * y_{k-i}` (Equation (1) of the paper).
///
/// Output coefficient `k` reads only `x_0..=x_k` and `y_0..=y_k`, so a change
/// to an input coefficient `j` — even to `inf` or NaN — leaves `z_0..z_j`
/// bitwise unchanged.
///
/// All three slices must have the same length `d + 1`.
pub fn convolve_seq<C: Coeff>(x: &[C], y: &[C], z: &mut [C]) {
    let n = z.len();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), n);
    for k in 0..n {
        let mut acc = C::zero();
        for i in 0..=k {
            acc.mul_add_assign(&x[i], &y[k - i]);
        }
        z[k] = acc;
    }
}

/// In-place addition job: `acc_k += inc_k` for every coefficient.
///
/// In the paper one block with `d + 1` threads performs this update in a
/// single step; here it is a plain vectorizable loop.
pub fn add_assign_slices<C: Coeff>(acc: &mut [C], inc: &[C]) {
    debug_assert_eq!(acc.len(), inc.len());
    for (a, b) in acc.iter_mut().zip(inc.iter()) {
        *a = a.add(b);
    }
}

/// The convolution algorithm whose operation counts are being asked for.
///
/// The paper's Section 6.2 cost model counts the zero-insertion kernel; the
/// sub-quadratic ladder reports its own honest counts, so the counting
/// functions take the algorithm as a parameter instead of silently assuming
/// schoolbook.  The FFT kernel is deliberately absent: its cost is not a
/// coefficient-multiplication count (it runs on `f64` digit planes), so the
/// bench harness reports its transform length and plane count instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvAlgo {
    /// The paper's data-parallel zero-insertion kernel: every thread
    /// performs `d + 1` products, divergence-free.  Counted for the paper's
    /// cost model only; the CPU runs [`convolve_seq`] instead.
    ZeroInsertion,
    /// The truncated schoolbook loop of [`convolve_seq`]: only the products
    /// that contribute below the truncation degree.
    Direct,
    /// The Karatsuba short product of
    /// [`convolve_karatsuba`](crate::karatsuba::convolve_karatsuba).
    Karatsuba,
}

/// Number of coefficient multiplications performed by one convolution job at
/// degree `d` under `algo` (the paper counts `(d+1)^2` with zero insertion).
pub fn convolution_mults(algo: ConvAlgo, degree: usize) -> usize {
    match algo {
        ConvAlgo::ZeroInsertion => (degree + 1) * (degree + 1),
        ConvAlgo::Direct => (degree + 1) * (degree + 2) / 2,
        ConvAlgo::Karatsuba => crate::karatsuba::karatsuba_mults(degree),
    }
}

/// Number of coefficient additions performed by one convolution job at
/// degree `d` under `algo` (the paper counts `d (d+1)`; accumulating into a
/// fresh accumulator skips the first addition of every output).
pub fn convolution_adds(algo: ConvAlgo, degree: usize) -> usize {
    match algo {
        ConvAlgo::ZeroInsertion => degree * (degree + 1),
        ConvAlgo::Direct => degree * (degree + 1) / 2,
        ConvAlgo::Karatsuba => crate::karatsuba::karatsuba_adds(degree),
    }
}

/// Number of coefficient additions performed by one addition job at degree
/// `d` (`d + 1`).
pub fn addition_adds(degree: usize) -> usize {
    degree + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use psmd_multidouble::{Dd, Md, Qd};

    fn qd(x: f64) -> Qd {
        Qd::from_f64(x)
    }

    #[test]
    fn sequential_convolution_of_known_series() {
        // (1 + t)^2 = 1 + 2t + t^2
        let x = vec![qd(1.0), qd(1.0), qd(0.0)];
        let y = x.clone();
        let mut z = vec![Qd::ZERO; 3];
        convolve_seq(&x, &y, &mut z);
        assert_eq!(z[0].to_f64(), 1.0);
        assert_eq!(z[1].to_f64(), 2.0);
        assert_eq!(z[2].to_f64(), 1.0);
    }

    #[test]
    fn addition_job_updates_in_place() {
        let mut acc = vec![qd(1.0), qd(2.0), qd(3.0)];
        let inc = vec![qd(0.5), qd(-2.0), qd(10.0)];
        add_assign_slices(&mut acc, &inc);
        assert_eq!(acc[0].to_f64(), 1.5);
        assert_eq!(acc[1].to_f64(), 0.0);
        assert_eq!(acc[2].to_f64(), 13.0);
    }

    #[test]
    fn operation_counts_match_paper_formulas() {
        // Degree 152: the paper's Section 6.2 counts (d+1)^2 = 23409
        // multiplications and d(d+1) = 23256 additions per convolution.
        assert_eq!(convolution_mults(ConvAlgo::ZeroInsertion, 152), 23_409);
        assert_eq!(convolution_adds(ConvAlgo::ZeroInsertion, 152), 23_256);
        assert_eq!(addition_adds(152), 153);
        assert_eq!(convolution_mults(ConvAlgo::ZeroInsertion, 0), 1);
        assert_eq!(convolution_adds(ConvAlgo::ZeroInsertion, 0), 0);
    }

    #[test]
    fn direct_counts_are_the_triangular_numbers() {
        // convolve_seq computes only the products below the truncation:
        // (d+1)(d+2)/2 multiplications, d(d+1)/2 additions.
        assert_eq!(convolution_mults(ConvAlgo::Direct, 0), 1);
        assert_eq!(convolution_adds(ConvAlgo::Direct, 0), 0);
        assert_eq!(convolution_mults(ConvAlgo::Direct, 152), 11_781);
        assert_eq!(convolution_adds(ConvAlgo::Direct, 152), 11_628);
        // Karatsuba degenerates to the Direct counts at or below the
        // recursion threshold (it *is* the schoolbook loop there).
        for d in 0..crate::karatsuba::KARATSUBA_THRESHOLD {
            assert_eq!(
                convolution_mults(ConvAlgo::Karatsuba, d),
                convolution_mults(ConvAlgo::Direct, d),
            );
            assert_eq!(
                convolution_adds(ConvAlgo::Karatsuba, d),
                convolution_adds(ConvAlgo::Direct, d),
            );
        }
    }

    #[test]
    fn degree_zero_convolution_is_scalar_product() {
        let x = [Md::<3>::from_f64(4.0)];
        let y = [Md::<3>::from_f64(2.5)];
        let mut z = [Md::<3>::ZERO];
        convolve_seq(&x, &y, &mut z);
        assert_eq!(z[0].to_f64(), 10.0);
    }

    #[test]
    fn lower_coefficients_ignore_higher_inputs() {
        // The direct loop and the Karatsuba short product (40 coefficients
        // is past its threshold) never read a coefficient above the one
        // they compute, so not even inf or NaN there reaches lower outputs.
        use crate::karatsuba::{convolve_karatsuba, karatsuba_scratch_len};
        let n = 40;
        let x: Vec<Dd> = (1..=n).map(|i| Dd::from_f64(i as f64 / 7.0)).collect();
        let y: Vec<Dd> = (1..=n).map(|i| Dd::from_f64(1.0 / i as f64)).collect();
        let mut scratch = vec![Dd::ZERO; karatsuba_scratch_len(n)];
        let mut run = |x: &[Dd], karatsuba: bool| {
            let mut z = vec![Dd::ZERO; n];
            if karatsuba {
                convolve_karatsuba(x, &y, &mut z, &mut scratch);
            } else {
                convolve_seq(x, &y, &mut z);
            }
            z
        };
        for karatsuba in [false, true] {
            let want = run(&x, karatsuba);
            for j in [1, 17, 33] {
                for bad in [f64::INFINITY, f64::NAN, -3.5] {
                    let mut xb = x.clone();
                    xb[j] = Dd::from_f64(bad);
                    let got = run(&xb, karatsuba);
                    for k in 0..j {
                        assert_eq!(
                            got[k].limbs().map(f64::to_bits),
                            want[k].limbs().map(f64::to_bits),
                            "karatsuba={karatsuba} j={j} bad={bad} k={k}"
                        );
                    }
                }
            }
        }
    }
}
