//! Compensated FFT convolution for multiple-double power series.
//!
//! A direct floating-point FFT cannot multiply multi-double series: a single
//! `f64` FFT carries ~16 decimal digits, while a deca-double coefficient
//! carries ~160.  This kernel instead splits every coefficient into a
//! *fixed-point digit representation* — small integers on a common
//! power-of-two grid — convolves the digit planes with plain `f64` FFTs, and
//! recombines the digit convolution through the CAMPARY renormalization
//! pipeline of `psmd-multidouble`.
//!
//! ## The digit representation
//!
//! For an operand with largest limb magnitude below `2^{E-1}`, each
//! coefficient component (real or imaginary part) is written as
//!
//! ```text
//! v  =  sum_{p=0..P-1}  d_p * 2^{E - b (p+1)},      d_p integers
//! ```
//!
//! with `b = `[`fft_digit_bits`] bits per digit and `P = `[`fft_digit_planes`]
//! planes covering `52 N + 32` bits below the operand's leading bit (`N`
//! limbs of 52 mantissa bits plus a guard band).  Extraction is *exact*:
//! each `f64` limb is peeled into round-to-nearest digits by exact
//! subtractions, so at most two limbs contribute to a grid slot and every
//! digit satisfies `|d_p| < 2^{b+1}`.  Mass below the covered depth is
//! dropped; it sits at least 32 bits under the last limb of the result and
//! is invisible at the working precision.
//!
//! ## The certified transform
//!
//! The linear convolution of the digit planes is computed with `f64`
//! complex FFTs of length `L = `[`fft_points`]` >= 2n - 1` (complex
//! coefficients travel natively as complex digits; real series use zero
//! imaginary slots).  The exact digit-convolution values are integers
//! bounded by `n P 2^{2b+3}`, and `b` is chosen (per precision and length —
//! see [`fft_digit_bits`]) so that this bound *plus* the worst-case FFT
//! rounding error stays below `2^{51}`: the inverse transform then lands
//! within `1/4` of the exact integers, and rounding recovers the digit
//! convolution **exactly**.  The only inexact steps are the dropped
//! sub-depth tails and the final renormalization — which is why the kernel
//! is gated in ulps ([`fft_ulp_budget`]) rather than bitwise: the sums are
//! reassociated, but the error is a provably bounded number of ulps of the
//! operand scale, not a heuristic.
//!
//! Everything is allocation-free given a scratch slice of
//! [`fft_scratch_f64_len`] doubles (pre-sized into the engine's per-worker
//! `ConvScratch`).

use psmd_multidouble::renorm::renormalize_into;
use psmd_multidouble::{Coeff, MAX_LIMBS};

/// Guard bits covered below the last limb of the working precision, so that
/// dropped digit tails stay far under one ulp of the result.
const GUARD_BITS: usize = 32;

/// Upper bound on recombination terms (`2 P - 1` digit planes of the
/// product); sized for deca-double at the smallest digit width.
const MAX_TERMS: usize = 160;

/// FFT length used for series of `n` coefficients: the smallest power of two
/// holding the full linear convolution (`2n - 1` points).
pub fn fft_points(n: usize) -> usize {
    (2 * n.max(1) - 1).next_power_of_two()
}

/// Digit width `b` (bits per digit plane) used by [`convolve_fft`] for
/// series of `n` coefficients with `C`'s precision.
///
/// The width is the largest `b <= 24` such that the exact digit-convolution
/// bound `n P 2^{2b+3}` (times 2 for complex coefficients) plus the
/// worst-case FFT rounding error keeps the inverse transform within `1/4`
/// of the exact integers — the certification that makes digit rounding
/// exact.  Wider digits mean fewer planes (fewer transforms); narrower
/// digits raise the certified length ceiling.
pub fn fft_digit_bits<C: Coeff>(n: usize) -> usize {
    let limbs = C::component_limbs();
    let complex = C::components() == 2;
    for b in (8..=24).rev() {
        if certified(b, n, limbs, complex) {
            return b;
        }
    }
    // Unreachable for any practically compilable degree (b = 8 certifies
    // beyond n = 2^19 even at deca-double); kept total for safety.
    8
}

/// Number of digit planes per operand at `n` coefficients with `C`'s
/// precision: enough to cover `52 N + 32` bits below the leading limb.
pub fn fft_digit_planes<C: Coeff>(n: usize) -> usize {
    planes_for(fft_digit_bits::<C>(n), C::component_limbs())
}

fn planes_for(b: usize, limbs: usize) -> usize {
    (52 * limbs + GUARD_BITS).div_ceil(b) + 1
}

/// True when digit width `b` certifies exact digit rounding for length `n`.
fn certified(b: usize, n: usize, limbs: usize, complex: bool) -> bool {
    let p = planes_for(b, limbs);
    if 2 * p - 1 > MAX_TERMS {
        return false;
    }
    let l = fft_points(n);
    // log2 of the exact digit-convolution bound: n P pairs of digits below
    // 2^{b+1} each, times 2 for the complex cross terms.
    let mut bits = 2.0 * (b as f64 + 1.0) + 1.0 + ((n.max(1) * p) as f64).log2();
    if complex {
        bits += 1.0;
    }
    // FFT rounding error relative to the value bound: ~ 8 log2(L) eps.
    bits += (8.0 * (l.max(2) as f64).log2()).log2();
    // Exact integers plus error < 1/4 requires the bound under 2^51.
    bits <= 51.0
}

/// Scratch (in `f64`s) required by [`convolve_fft`] for series of `n`
/// coefficients of type `C`: the digit planes of both operands, one
/// accumulator plane, the product digit store and the twiddle table.
pub fn fft_scratch_f64_len<C: Coeff>(n: usize) -> usize {
    let l = fft_points(n);
    let p = fft_digit_planes::<C>(n);
    // x planes + y planes (complex, interleaved) + accumulator + product
    // digits (2P - 1 planes, n complex values each) + twiddles (L/2 pairs).
    2 * l * p * 2 + 2 * l + (2 * p - 1) * 2 * n + l
}

/// Per-element ulp budget of [`convolve_fft`] against schoolbook ground
/// truth, for well-scaled operands (coefficient magnitudes within a few
/// orders of the operand maximum, as in the accuracy suites).
///
/// The digit convolution itself is exact (see the module docs); the error
/// consists of the dropped sub-depth tails (32 bits under the last limb,
/// i.e. `2^{-32}` ulp of the operand-scale product) and one renormalization
/// per output, a few ulps of the *scale* `max|x| max|y|`.  For outputs much
/// smaller than the scale the per-element distance grows accordingly; the
/// adversarial suites gate with `max_scaled_error` instead (see
/// `EXPERIMENTS.md` section 10).
pub fn fft_ulp_budget(_limbs: usize) -> f64 {
    256.0
}

/// FFT convolution: `z_k = sum_{i=0..k} x_i * y_{k-i}` for `k < z.len()`,
/// computed through the certified digit transform described in the module
/// docs.
///
/// All three slices must have the same length `n`; `scratch` must hold at
/// least [`fft_scratch_f64_len`]`::<C>(n)` doubles.
pub fn convolve_fft<C: Coeff>(x: &[C], y: &[C], z: &mut [C], scratch: &mut [f64]) {
    let n = z.len();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), n);
    if n == 0 {
        return;
    }
    // Exact early-out: a zero operand has no digits and an exactly zero
    // product (this also keeps the scale computation total).
    let ex = match max_exponent(x) {
        Some(e) => e + 1,
        None => {
            z.fill(C::zero());
            return;
        }
    };
    let ey = match max_exponent(y) {
        Some(e) => e + 1,
        None => {
            z.fill(C::zero());
            return;
        }
    };
    let b = fft_digit_bits::<C>(n);
    let p = planes_for(b, C::component_limbs());
    let l = fft_points(n);
    debug_assert!(
        scratch.len() >= fft_scratch_f64_len::<C>(n),
        "fft scratch too small: {} < {}",
        scratch.len(),
        fft_scratch_f64_len::<C>(n)
    );
    let (xd, rest) = scratch.split_at_mut(2 * l * p);
    let (yd, rest) = rest.split_at_mut(2 * l * p);
    let (acc, rest) = rest.split_at_mut(2 * l);
    let (prod, rest) = rest.split_at_mut((2 * p - 1) * 2 * n);
    let tw = &mut rest[..l];
    fill_twiddles(tw, l);

    let x_used = extract_planes(x, xd, ex, b, p, l);
    let y_used = extract_planes(y, yd, ey, b, p, l);
    for pl in 0..p {
        if x_used & (1u128 << pl) != 0 {
            fft_inplace(&mut xd[pl * 2 * l..(pl + 1) * 2 * l], tw, false);
        }
        if y_used & (1u128 << pl) != 0 {
            fft_inplace(&mut yd[pl * 2 * l..(pl + 1) * 2 * l], tw, false);
        }
    }

    // Product digit planes: for each depth s, sum the pointwise spectra of
    // all (p, q) splits with p + q = s, inverse-transform, and round to the
    // (certified exact) integer digit convolution.
    for s in 0..2 * p - 1 {
        acc.fill(0.0);
        let lo = (s + 1).saturating_sub(p);
        let hi = s.min(p - 1);
        let mut any = false;
        for pp in lo..=hi {
            let q = s - pp;
            if x_used & (1u128 << pp) == 0 || y_used & (1u128 << q) == 0 {
                continue;
            }
            any = true;
            let xp = &xd[pp * 2 * l..(pp + 1) * 2 * l];
            let yq = &yd[q * 2 * l..(q + 1) * 2 * l];
            for j in 0..l {
                let (ar, ai) = (xp[2 * j], xp[2 * j + 1]);
                let (br, bi) = (yq[2 * j], yq[2 * j + 1]);
                acc[2 * j] += ar * br - ai * bi;
                acc[2 * j + 1] += ar * bi + ai * br;
            }
        }
        let row = &mut prod[s * 2 * n..(s + 1) * 2 * n];
        if !any {
            row.fill(0.0);
            continue;
        }
        fft_inplace(acc, tw, true);
        for k in 0..n {
            row[2 * k] = acc[2 * k].round();
            row[2 * k + 1] = acc[2 * k + 1].round();
        }
    }

    // Recombination: coefficient k of the product is the sum of its digit
    // planes at decreasing scales 2^{EX + EY - b (s + 2)}; the CAMPARY
    // renormalization (at lane width 1) compresses that term list back into
    // C's limbs.
    let ncomp = C::components();
    let limbs = C::component_limbs();
    let mut terms = [[0.0f64]; MAX_TERMS];
    let mut limb_buf = [[0.0f64]; 2 * MAX_LIMBS];
    let nterms = 2 * p - 1;
    for (k, zk) in z.iter_mut().enumerate() {
        for comp in 0..ncomp {
            for (s, [term]) in terms[..nterms].iter_mut().enumerate() {
                let digit = prod[s * 2 * n + 2 * k + comp];
                *term = mul_pow2(digit, ex + ey - (b as i32) * (s as i32 + 2));
            }
            renormalize_into(
                &mut terms[..nterms],
                &mut limb_buf[comp * limbs..(comp + 1) * limbs],
                2,
            );
        }
        *zk = C::from_limbs(limb_buf[..ncomp * limbs].as_flattened());
    }
}

/// Largest binary exponent over all limbs of all components of `values`, or
/// `None` when every value is exactly zero.
fn max_exponent<C: Coeff>(values: &[C]) -> Option<i32> {
    let mut limbs = [0.0f64; 2 * MAX_LIMBS];
    let per = C::doubles_per_value();
    let mut best: Option<i32> = None;
    for v in values {
        v.write_limbs(&mut limbs[..per]);
        for &w in &limbs[..per] {
            if w != 0.0 {
                let e = exponent_of(w);
                best = Some(best.map_or(e, |m| m.max(e)));
            }
        }
    }
    best
}

/// Binary exponent of a nonzero finite double: `2^e <= |v| < 2^{e+1}`.
fn exponent_of(v: f64) -> i32 {
    let biased = ((v.abs().to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: rare, off the hot path.
        v.abs().log2().floor() as i32
    } else {
        biased - 1023
    }
}

/// `v * 2^e` without overflow of the intermediate scale factor, in two steps
/// when `|e|` exceeds the exponent range of a single power of two.  Results
/// below the subnormal range flush to zero (they are dropped digit tails).
fn mul_pow2(v: f64, e: i32) -> f64 {
    if v == 0.0 {
        return 0.0;
    }
    if (-969..=969).contains(&e) {
        v * 2f64.powi(e)
    } else {
        let h = e / 2;
        (v * 2f64.powi(h)) * 2f64.powi(e - h)
    }
}

/// Peels every limb of every component of `values` into integer digits on
/// the grid `2^{E - b (p + 1)}` (stored pre-scaled by `2^{-E}`), writing
/// plane `p` as interleaved complex slots `planes[p * 2L + 2k + comp]`.
/// Returns a bitmask of the planes that received any nonzero digit.
fn extract_planes<C: Coeff>(
    values: &[C],
    planes: &mut [f64],
    e_scale: i32,
    b: usize,
    p: usize,
    l: usize,
) -> u128 {
    planes.fill(0.0);
    let mut used = 0u128;
    let mut limbs = [0.0f64; 2 * MAX_LIMBS];
    let per = C::doubles_per_value();
    let comp_limbs = C::component_limbs();
    let step_down = 2f64.powi(-(b as i32));
    for (k, v) in values.iter().enumerate() {
        v.write_limbs(&mut limbs[..per]);
        for (idx, &limb) in limbs[..per].iter().enumerate() {
            if limb == 0.0 {
                continue;
            }
            let comp = idx / comp_limbs;
            // Pre-scale into (-1, 1): all digit scales are then normal
            // powers of two regardless of the operand's magnitude.
            let mut w = mul_pow2(limb, -e_scale);
            if w == 0.0 {
                continue; // more than the covered depth below the maximum
            }
            let ev = exponent_of(w); // ev <= -1
            let mut plane = if ev >= -2 {
                0
            } else {
                ((-ev - 2) as usize) / b
            };
            if plane >= p {
                continue;
            }
            // 2^{-s_plane} with s_plane = -b (plane + 1).
            let mut inv = 2f64.powi((b * (plane + 1)) as i32);
            while plane < p && w != 0.0 {
                let d = (w * inv).round();
                if d != 0.0 {
                    planes[plane * 2 * l + 2 * k + comp] += d;
                    used |= 1u128 << plane;
                    w -= d / inv; // exact: d / inv is an exact power-of-two multiple
                }
                plane += 1;
                inv *= 2f64.powi(b as i32);
            }
            let _ = step_down;
        }
    }
    used
}

/// Fills `tw` with the `L/2` forward twiddle factors `e^{-2 pi i j / L}`,
/// interleaved (re, im).
fn fill_twiddles(tw: &mut [f64], l: usize) {
    let half = l / 2;
    for j in 0..half {
        let theta = -2.0 * std::f64::consts::PI * (j as f64) / (l as f64);
        tw[2 * j] = theta.cos();
        tw[2 * j + 1] = theta.sin();
    }
}

/// Iterative radix-2 complex FFT over interleaved (re, im) data of `L`
/// points; `inverse` conjugates the twiddles and applies the exact `1/L`
/// power-of-two scaling.
fn fft_inplace(data: &mut [f64], tw: &[f64], inverse: bool) {
    let l = data.len() / 2;
    if l <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = l.trailing_zeros();
    for i in 0..l {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
    }
    let mut len = 2;
    while len <= l {
        let half = len / 2;
        let stride = l / len;
        for base in (0..l).step_by(len) {
            for j in 0..half {
                let t = j * stride;
                let wr = tw[2 * t];
                let wi = if inverse {
                    -tw[2 * t + 1]
                } else {
                    tw[2 * t + 1]
                };
                let a = 2 * (base + j);
                let bidx = 2 * (base + j + half);
                let (br, bi) = (data[bidx], data[bidx + 1]);
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                data[bidx] = data[a] - tr;
                data[bidx + 1] = data[a + 1] - ti;
                data[a] += tr;
                data[a + 1] += ti;
            }
        }
        len *= 2;
    }
    if inverse {
        let scale = 1.0 / (l as f64); // exact: L is a power of two
        for v in data.iter_mut() {
            *v *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::convolve_seq;
    use psmd_multidouble::{
        max_scaled_error, max_ulp_error, Complex, Dd, Deca, Md, Qd, RandomCoeff,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fft_conv<C: Coeff>(x: &[C], y: &[C]) -> Vec<C> {
        let n = x.len();
        let mut z = vec![C::zero(); n];
        let mut scratch = vec![0.0f64; fft_scratch_f64_len::<C>(n)];
        convolve_fft(x, y, &mut z, &mut scratch);
        z
    }

    fn reference<C: Coeff>(x: &[C], y: &[C]) -> Vec<C> {
        let mut z = vec![C::zero(); x.len()];
        convolve_seq(x, y, &mut z);
        z
    }

    #[test]
    fn matches_schoolbook_within_budget_at_every_small_size() {
        let mut rng = StdRng::seed_from_u64(71);
        // Every size 1..=40 exercises the non-power-of-two transform
        // lengths (L jumps 1, 2, 4, 8, ... while n walks linearly).
        for n in 1..=40 {
            let x: Vec<Qd> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
            let y: Vec<Qd> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
            let err = max_ulp_error(&fft_conv(&x, &y), &reference(&x, &y));
            assert!(err <= fft_ulp_budget(4), "n={n} err={err}");
        }
    }

    #[test]
    fn all_seven_precisions_stay_in_budget() {
        fn check<const N: usize>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            for n in [17usize, 96, 161] {
                let x: Vec<Md<N>> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
                let y: Vec<Md<N>> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
                let err = max_ulp_error(&fft_conv(&x, &y), &reference(&x, &y));
                assert!(err <= fft_ulp_budget(N), "N={N} n={n} err={err}");
            }
        }
        check::<1>(72);
        check::<2>(73);
        check::<3>(74);
        check::<4>(75);
        check::<5>(76);
        check::<8>(77);
        check::<10>(78);
    }

    #[test]
    fn complex_deca_double_stays_in_budget() {
        let mut rng = StdRng::seed_from_u64(79);
        let n = 128;
        let x: Vec<Complex<Deca>> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        let y: Vec<Complex<Deca>> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        let err = max_ulp_error(&fft_conv(&x, &y), &reference(&x, &y));
        assert!(err <= fft_ulp_budget(10), "err={err}");
    }

    #[test]
    fn zero_and_single_term_operands_are_exact() {
        let mut rng = StdRng::seed_from_u64(80);
        let n = 33;
        let y: Vec<Dd> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        // All-zero operand: exactly zero output.
        let zero = vec![Dd::ZERO; n];
        assert!(fft_conv(&zero, &y).iter().all(|c| c.is_zero()));
        assert!(fft_conv(&y, &zero).iter().all(|c| c.is_zero()));
        // Single-term operand x = c t^j: the product is an exact shift-scale.
        let mut x = vec![Dd::ZERO; n];
        x[7] = Dd::from_f64(3.0);
        let z = fft_conv(&x, &y);
        let r = reference(&x, &y);
        let err = max_ulp_error(&z, &r);
        assert!(err <= fft_ulp_budget(2), "err={err}");
        for (k, zk) in z.iter().take(7).enumerate() {
            assert!(zk.is_zero(), "k={k}");
        }
    }

    #[test]
    fn huge_tiny_magnitude_mixes_hold_the_scaled_bound() {
        let mut rng = StdRng::seed_from_u64(81);
        let n = 64;
        let mut x: Vec<Dd> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        let mut y: Vec<Dd> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        for k in 0..n {
            // Magnitudes spread over ~180 binary orders in both operands.
            x[k] = x[k].mul(&Dd::from_f64(2f64.powi(((k as i32) % 7) * 30 - 90)));
            y[k] = y[k].mul(&Dd::from_f64(2f64.powi(((k as i32) % 5) * 45 - 90)));
        }
        let z = fft_conv(&x, &y);
        let r = reference(&x, &y);
        let mx = x.iter().map(|c| c.magnitude()).fold(0.0, f64::max);
        let my = y.iter().map(|c| c.magnitude()).fold(0.0, f64::max);
        let err = max_scaled_error(&z, &r, mx * my);
        assert!(err <= fft_ulp_budget(2), "err={err}");
    }

    #[test]
    fn cancellation_heavy_series_hold_the_scaled_bound() {
        // x = (1 - t)^k-ish alternating series: outputs cancel massively.
        let mut rng = StdRng::seed_from_u64(82);
        let n = 96;
        let x: Vec<Qd> = (0..n)
            .map(|k| {
                let v: Qd = RandomCoeff::random_unit(&mut rng);
                if k % 2 == 0 {
                    v
                } else {
                    v.neg()
                }
            })
            .collect();
        let y: Vec<Qd> = (0..n)
            .map(|k| {
                let v: Qd = RandomCoeff::random_unit(&mut rng);
                if k % 2 == 1 {
                    v
                } else {
                    v.neg()
                }
            })
            .collect();
        let err = max_scaled_error(&fft_conv(&x, &y), &reference(&x, &y), 1.0);
        assert!(err <= fft_ulp_budget(4), "err={err}");
    }

    #[test]
    fn degree_zero_and_one_are_exact_products() {
        let x = [Qd::from_f64(4.0)];
        let y = [Qd::from_f64(2.5)];
        assert_eq!(fft_conv(&x, &y)[0].to_f64(), 10.0);
        let x = [Dd::from_f64(2.0), Dd::from_f64(1.0)];
        let y = [Dd::from_f64(3.0), Dd::from_f64(-1.0)];
        let z = fft_conv(&x, &y);
        assert_eq!(z[0].to_f64(), 6.0);
        assert_eq!(z[1].to_f64(), 1.0);
    }

    #[test]
    fn plain_f64_series_are_more_accurate_than_schoolbook() {
        // At N = 1 the digit transform is certified exact up to the final
        // rounding, so it cannot drift more than an ulp per coefficient.
        let mut rng = StdRng::seed_from_u64(83);
        let n = 100;
        let x: Vec<f64> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        let y: Vec<f64> = (0..n).map(|_| RandomCoeff::random_unit(&mut rng)).collect();
        let err = max_ulp_error(&fft_conv(&x, &y), &reference(&x, &y));
        assert!(err <= fft_ulp_budget(1), "err={err}");
    }

    #[test]
    fn transform_geometry_is_deterministic() {
        assert_eq!(fft_points(1), 1);
        assert_eq!(fft_points(2), 4);
        assert_eq!(fft_points(33), 128);
        assert_eq!(fft_points(161), 512);
        // Planes cover 52 N + 32 bits below the top at the chosen width.
        let b = fft_digit_bits::<Dd>(161);
        let p = fft_digit_planes::<Dd>(161);
        assert!(b * (p - 1) >= 52 * 2 + GUARD_BITS, "b={b} p={p}");
        assert!(2 * p - 1 <= MAX_TERMS);
        let b10 = fft_digit_bits::<Deca>(161);
        let p10 = fft_digit_planes::<Deca>(161);
        assert!(b10 * (p10 - 1) >= 52 * 10 + GUARD_BITS, "b={b10} p={p10}");
        assert!(2 * p10 - 1 <= MAX_TERMS);
    }
}
