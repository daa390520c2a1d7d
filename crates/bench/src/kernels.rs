//! Measured comparison of the convolution kernel ladder: the direct
//! schoolbook loop against the Karatsuba short product and the compensated
//! digit-FFT, per (precision, degree) pair.
//!
//! This is the measurement behind `crates/core/src/crossover.rs` and
//! `bench/baselines/BENCH_kernels.json`: each row times the three raw
//! kernels on the same seeded random operands and records which one the
//! `Auto` crossover table picks, together with the deterministic structure
//! numbers of the sub-quadratic kernels (operation counts, FFT transform
//! geometry).

use psmd_core::{auto_kernel, ConvolutionKernel};
use psmd_multidouble::{with_precision, Coeff, Md, Precision, RandomCoeff};
use psmd_series::{
    convolution_mults, convolve_fft, convolve_karatsuba, convolve_seq, fft_digit_bits,
    fft_digit_planes, fft_points, fft_scratch_f64_len, karatsuba_scratch_len, ConvAlgo,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One measured row of the kernel-ladder report.
#[derive(Debug, Clone)]
pub struct KernelLadderRow {
    /// Precision label ("dd", "qd", ...).
    pub precision: &'static str,
    /// Limbs per (real) component of the coefficient type.
    pub limbs: usize,
    /// Truncation degree of the convolution.
    pub degree: usize,
    /// Mean time of one direct (schoolbook) convolution.
    pub schoolbook_ms: f64,
    /// Mean time of one Karatsuba short-product convolution.
    pub karatsuba_ms: f64,
    /// Mean time of one digit-FFT convolution.
    pub fft_ms: f64,
    /// Mean time of one convolution through the kernel `Auto` resolves to.
    pub auto_ms: f64,
    /// The kernel `Auto` resolves to for this row.
    pub auto_kernel: ConvolutionKernel,
    /// Coefficient multiplications of the schoolbook kernel.
    pub schoolbook_mults: usize,
    /// Coefficient multiplications of the Karatsuba short product.
    pub karatsuba_mults: usize,
    /// Complex transform length of the digit-FFT.
    pub fft_points: usize,
    /// Digit planes per operand of the digit-FFT.
    pub fft_planes: usize,
    /// Bits per digit of the digit-FFT.
    pub fft_digit_bits: usize,
}

impl KernelLadderRow {
    /// Wall-clock speedup of the `Auto` choice over the schoolbook kernel.
    pub fn auto_speedup(&self) -> f64 {
        self.schoolbook_ms / self.auto_ms.max(1e-9)
    }

    /// Label of the kernel `Auto` resolves to.
    pub fn auto_label(&self) -> &'static str {
        kernel_label(self.auto_kernel)
    }
}

/// Short label of a kernel variant (for reports).
pub fn kernel_label(kernel: ConvolutionKernel) -> &'static str {
    match kernel {
        ConvolutionKernel::Direct => "direct",
        ConvolutionKernel::Karatsuba => "karatsuba",
        ConvolutionKernel::Fft => "fft",
        ConvolutionKernel::Auto => "auto",
    }
}

/// Times `f` adaptively: repeats until at least ~20 ms of total work (or a
/// rep ceiling) and returns the mean milliseconds per call.
fn time_ms(mut f: impl FnMut()) -> f64 {
    // Warm the caches and scratch once, untimed.
    f();
    let mut reps = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if elapsed >= 20.0 || reps >= 1 << 20 {
            return elapsed / reps as f64;
        }
        // Aim past the threshold next round instead of creeping up on it.
        let scale = (25.0 / elapsed.max(1e-3)).ceil() as usize;
        reps = (reps * scale.clamp(2, 1024)).min(1 << 20);
    }
}

fn ladder_row<const N: usize>(precision: Precision, degree: usize, seed: u64) -> KernelLadderRow {
    let n = degree + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Md<N>> = (0..n)
        .map(|_| RandomCoeff::random_uniform(&mut rng))
        .collect();
    let y: Vec<Md<N>> = (0..n)
        .map(|_| RandomCoeff::random_uniform(&mut rng))
        .collect();
    let mut z = vec![Md::<N>::zero(); n];
    let mut k_scratch = vec![Md::<N>::zero(); karatsuba_scratch_len(n)];
    let mut f_scratch = vec![0.0f64; fft_scratch_f64_len::<Md<N>>(n)];

    let schoolbook_ms = time_ms(|| convolve_seq(&x, &y, &mut z));
    let karatsuba_ms = time_ms(|| convolve_karatsuba(&x, &y, &mut z, &mut k_scratch));
    let fft_ms = time_ms(|| convolve_fft(&x, &y, &mut z, &mut f_scratch));
    let resolved = auto_kernel(Md::<N>::component_limbs(), degree);
    let auto_ms = match resolved {
        ConvolutionKernel::Karatsuba => karatsuba_ms,
        ConvolutionKernel::Fft => fft_ms,
        _ => schoolbook_ms,
    };
    KernelLadderRow {
        precision: precision.label(),
        limbs: N,
        degree,
        schoolbook_ms,
        karatsuba_ms,
        fft_ms,
        auto_ms,
        auto_kernel: resolved,
        schoolbook_mults: convolution_mults(ConvAlgo::Direct, degree),
        karatsuba_mults: convolution_mults(ConvAlgo::Karatsuba, degree),
        fft_points: fft_points(n),
        fft_planes: fft_digit_planes::<Md<N>>(n),
        fft_digit_bits: fft_digit_bits::<Md<N>>(n),
    }
}

/// Measures one kernel-ladder row: the three raw kernels on the same seeded
/// operands at `(precision, degree)`, plus the `Auto` resolution and the
/// deterministic structure numbers.
pub fn kernel_ladder_row(precision: Precision, degree: usize, seed: u64) -> KernelLadderRow {
    with_precision!(precision, N => ladder_row::<N>(precision, degree, seed))
}

/// The degrees the kernel-ladder report sweeps: the paper's degrees of
/// interest plus a fine grid around the measured crossovers (and the small
/// end, where schoolbook must win).
pub const KERNEL_LADDER_DEGREES: [usize; 9] = [8, 16, 24, 32, 48, 64, 96, 128, 160];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_row_structure_numbers_are_deterministic() {
        let a = kernel_ladder_row(Precision::D2, 32, 1);
        assert_eq!(a.limbs, 2);
        assert_eq!(a.degree, 32);
        assert_eq!(a.schoolbook_mults, 33 * 34 / 2);
        assert_eq!(
            a.karatsuba_mults,
            convolution_mults(ConvAlgo::Karatsuba, 32)
        );
        // n = 33 coefficients => 65-point linear convolution => 128-point FFT.
        assert_eq!(a.fft_points, 128);
        assert!(a.schoolbook_ms > 0.0 && a.karatsuba_ms > 0.0 && a.fft_ms > 0.0);
        assert_ne!(a.auto_kernel, ConvolutionKernel::Auto);
    }

    #[test]
    fn kernel_labels_cover_the_ladder() {
        assert_eq!(kernel_label(ConvolutionKernel::Direct), "direct");
        assert_eq!(kernel_label(ConvolutionKernel::Karatsuba), "karatsuba");
        assert_eq!(kernel_label(ConvolutionKernel::Fft), "fft");
    }
}
