//! SIMD-lane convolution kernels over structure-of-arrays coefficient
//! panels.
//!
//! A *panel* packs `W` independent series (one per convolution job of a
//! layer, from any input vector) into one flat `f64` buffer in lane-major
//! order: coefficient `k` of lane `l`
//! occupies doubles `k * D * W + d * W + l` for `d < D =
//! C::doubles_per_value()`.  The kernels below run the exact scalar
//! convolution recurrence of [`crate::convolution::convolve_seq`] with
//! every scalar coefficient operation replaced by its [`LaneVec`]
//! counterpart — which is bitwise identical per lane — so lane `l` of the
//! output panel carries exactly the bits the scalar kernel produces for
//! the job in lane `l`.
//!
//! ## Runtime multiversioning
//!
//! The generic kernel body is monomorphized once per coefficient type and
//! lane width, then compiled several times under different
//! `#[target_feature]` roots (AVX2+FMA and AVX-512 on x86-64, NEON on
//! AArch64).  Inside a feature-enabled root, LLVM inlines the
//! `#[inline(always)]` lane primitives and lowers the `[f64; W]` loops to
//! `vaddpd`/`vmulpd`/`vfmadd*pd` over full vector registers; the portable
//! root compiles the same body against the baseline ISA.  [`convolve_panels`]
//! picks the widest root supported by the running machine (via
//! [`psmd_multidouble::lanes::detect_isa`]).  Because every root executes
//! the identical operation sequence, the choice changes only speed, never
//! bits.

use psmd_multidouble::lanes::{detect_isa, LaneVec, SimdIsa};
use psmd_multidouble::Coeff;

/// Number of `f64` slots a panel of `n` coefficients occupies at width `W`.
pub fn panel_f64s<C: Coeff>(n: usize, width: usize) -> usize {
    n * C::doubles_per_value() * width
}

/// The shared kernel body: the direct convolution recurrence
/// (`z[k] = Σ_{i<=k} x[i] · y[k-i]`, accumulated with `mul_add_assign`)
/// of [`crate::convolution::convolve_seq`] over `W`-lane panels.
#[inline(always)]
fn conv_panels_body<C: Coeff, const W: usize>(x: &[f64], y: &[f64], z: &mut [f64], n: usize) {
    let stride = C::doubles_per_value() * W;
    debug_assert!(x.len() >= n * stride);
    debug_assert!(y.len() >= n * stride);
    debug_assert!(z.len() >= n * stride);
    for k in 0..n {
        let mut acc = <C::Lanes<W> as LaneVec<C, W>>::zero();
        for i in 0..=k {
            let xi = C::Lanes::<W>::load_from(x, i * stride);
            let yi = C::Lanes::<W>::load_from(y, (k - i) * stride);
            acc.mul_add_assign(&xi, &yi);
        }
        acc.store_to(z, k * stride);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn conv_panels_avx2<C: Coeff, const W: usize>(
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    conv_panels_body::<C, W>(x, y, z, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
unsafe fn conv_panels_avx512<C: Coeff, const W: usize>(
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    conv_panels_body::<C, W>(x, y, z, n);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn conv_panels_neon<C: Coeff, const W: usize>(
    x: &[f64],
    y: &[f64],
    z: &mut [f64],
    n: usize,
) {
    conv_panels_body::<C, W>(x, y, z, n);
}

/// Convolves `W`-lane panels `x` and `y` of `n` coefficients each into `z`,
/// dispatching to the widest instruction set the machine supports.
///
/// Each lane carries the bits of [`crate::convolution::convolve_seq`] for
/// its job.  The panels must not overlap; the engine always convolves
/// arena-gathered operand panels into a separate output panel, which also
/// makes in-place arena updates (`out == in1` or `out == in2`) safe without
/// extra staging.
pub fn convolve_panels<C: Coeff, const W: usize>(x: &[f64], y: &[f64], z: &mut [f64], n: usize) {
    match detect_isa() {
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { conv_panels_avx512::<C, W>(x, y, z, n) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { conv_panels_avx2::<C, W>(x, y, z, n) },
        #[cfg(target_arch = "aarch64")]
        SimdIsa::Neon => unsafe { conv_panels_neon::<C, W>(x, y, z, n) },
        _ => conv_panels_body::<C, W>(x, y, z, n),
    }
}

/// Width-dynamic front end over [`convolve_panels`]: monomorphizes the
/// supported lane widths (2, 4, 8) behind one `usize` parameter.
///
/// # Panics
///
/// Panics on an unsupported width — the engine validates widths when it
/// resolves `SimdMode`, so reaching this with anything else is a bug.
pub fn convolve_panels_dyn<C: Coeff>(width: usize, x: &[f64], y: &[f64], z: &mut [f64], n: usize) {
    match width {
        2 => convolve_panels::<C, 2>(x, y, z, n),
        4 => convolve_panels::<C, 4>(x, y, z, n),
        8 => convolve_panels::<C, 8>(x, y, z, n),
        w => panic!("unsupported SIMD lane width {w}: expected 2, 4 or 8"),
    }
}

/// Transposes one series' coefficient slice into lane `lane` of a panel.
///
/// Every [`LaneVec`] lays double `j` of lane `l` at `base + j * width + l`
/// (for complex values the imaginary component simply continues the double
/// index), so the transpose is a strided copy of the exact-bit
/// [`Coeff::write_limbs`] representation.
pub fn gather_into_panel<C: Coeff>(src: &[C], panel: &mut [f64], lane: usize, width: usize) {
    let d = C::doubles_per_value();
    let stride = d * width;
    let mut limbs = [0.0; 2 * psmd_multidouble::MAX_LIMBS];
    debug_assert!(d <= limbs.len());
    for (k, v) in src.iter().enumerate() {
        v.write_limbs(&mut limbs[..d]);
        let base = k * stride;
        for (j, limb) in limbs[..d].iter().enumerate() {
            panel[base + j * width + lane] = *limb;
        }
    }
}

/// Transposes lane `lane` of a panel back into a series' coefficient
/// slice (the inverse of [`gather_into_panel`], via [`Coeff::from_limbs`]).
pub fn scatter_from_panel<C: Coeff>(panel: &[f64], dst: &mut [C], lane: usize, width: usize) {
    let d = C::doubles_per_value();
    let stride = d * width;
    let mut limbs = [0.0; 2 * psmd_multidouble::MAX_LIMBS];
    debug_assert!(d <= limbs.len());
    for (k, v) in dst.iter_mut().enumerate() {
        let base = k * stride;
        for (j, limb) in limbs[..d].iter_mut().enumerate() {
            *limb = panel[base + j * width + lane];
        }
        *v = C::from_limbs(&limbs[..d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::convolve_seq;
    use psmd_multidouble::{Complex, Dd, Deca, Md, Od, Pd, Qd, Td};

    fn mill(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    fn series<C: Coeff>(n: usize, next: &mut impl FnMut() -> f64) -> Vec<C> {
        (0..n).map(|_| C::from_f64(next())).collect()
    }

    fn check_panels<C: Coeff, const W: usize>(n: usize) {
        let mut next = mill(n as u64 * 31 + W as u64);
        let xs: Vec<Vec<C>> = (0..W).map(|_| series(n, &mut next)).collect();
        let ys: Vec<Vec<C>> = (0..W).map(|_| series(n, &mut next)).collect();
        let len = panel_f64s::<C>(n, W);
        let (mut xp, mut yp, mut zp) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
        for l in 0..W {
            gather_into_panel(&xs[l], &mut xp, l, W);
            gather_into_panel(&ys[l], &mut yp, l, W);
        }
        convolve_panels::<C, W>(&xp, &yp, &mut zp, n);
        for l in 0..W {
            let mut got = vec![C::zero(); n];
            scatter_from_panel(&zp, &mut got, l, W);
            let mut want = vec![C::zero(); n];
            convolve_seq(&xs[l], &ys[l], &mut want);
            assert_eq!(got, want, "lane {l} W={W} n={n}");
        }
    }

    #[test]
    fn panel_kernels_match_scalar_bitwise_all_precisions() {
        check_panels::<Md<1>, 4>(9);
        check_panels::<Dd, 4>(8);
        check_panels::<Td, 2>(7);
        check_panels::<Qd, 8>(6);
        check_panels::<Pd, 4>(5);
        check_panels::<Od, 2>(4);
        check_panels::<Deca, 4>(4);
        check_panels::<Md<1>, 8>(10);
        check_panels::<Complex<Dd>, 4>(6);
        check_panels::<Complex<Qd>, 2>(5);
    }

    #[test]
    fn dyn_dispatch_covers_supported_widths() {
        for w in [2usize, 4, 8] {
            let n = 5;
            let mut next = mill(w as u64);
            let xs: Vec<Vec<Dd>> = (0..w).map(|_| series(n, &mut next)).collect();
            let ys: Vec<Vec<Dd>> = (0..w).map(|_| series(n, &mut next)).collect();
            let len = panel_f64s::<Dd>(n, w);
            let (mut xp, mut yp, mut zp) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
            for l in 0..w {
                gather_into_panel(&xs[l], &mut xp, l, w);
                gather_into_panel(&ys[l], &mut yp, l, w);
            }
            convolve_panels_dyn::<Dd>(w, &xp, &yp, &mut zp, n);
            for l in 0..w {
                let mut got = vec![Dd::zero(); n];
                scatter_from_panel(&zp, &mut got, l, w);
                let mut want = vec![Dd::zero(); n];
                convolve_seq(&xs[l], &ys[l], &mut want);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported SIMD lane width")]
    fn dyn_dispatch_rejects_bad_width() {
        let (x, y, mut z) = (vec![0.0; 6], vec![0.0; 6], vec![0.0; 6]);
        convolve_panels_dyn::<Dd>(3, &x, &y, &mut z, 1);
    }
}
