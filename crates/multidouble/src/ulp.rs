//! Ulp-scaled error measurement for multiple-double values.
//!
//! The consistency suites of this workspace historically compared evaluators
//! with *absolute* coefficient-wise differences (`Series::distance`), which
//! conflates the magnitude of the data with the accuracy of the arithmetic.
//! The sub-quadratic convolution kernels (Karatsuba, compensated FFT)
//! reassociate sums, so their results are not bitwise equal to the
//! schoolbook reference; the honest way to gate them is in *units in the
//! last place* of the working precision, which is what this module measures.
//!
//! One ulp of a value `v` at a precision with unit roundoff `u` is `u * |v|`
//! (the relative spacing of representable values near `v`); the distance
//! between two values in ulps is therefore `|a - b| / (u * max(|a|, |b|))`.
//! Complex values measure magnitudes with the complex modulus, so the same
//! functions serve the real and complex coefficient types.
//!
//! For cancellation-heavy data the per-value ulp distance is the wrong
//! yardstick — *every* fixed-precision algorithm, schoolbook included,
//! carries errors relative to the largest intermediate term, not the final
//! value.  [`max_scaled_error`] measures against a caller-provided scale
//! (typically `max|x| * max|y|` for a convolution) for exactly those cases;
//! see `EXPERIMENTS.md` section 10 for the derivation.

use crate::coeff::Coeff;

/// Distance between `a` and `b` in units in the last place of `C`'s
/// precision: `|a - b| / (u * max(|a|, |b|))` with `u` the unit roundoff.
///
/// Returns `0.0` for (bitwise) equal values, [`f64::INFINITY`] when the
/// difference is not finite or when exactly one of the values is zero (a
/// zero has no ulp to measure against; the caller should fall back to
/// [`max_scaled_error`] for data where that matters).
pub fn ulp_distance<C: Coeff>(a: &C, b: &C) -> f64 {
    let diff = a.sub(b).magnitude();
    if diff == 0.0 {
        return 0.0;
    }
    let scale = a.magnitude().max(b.magnitude());
    if !diff.is_finite() || scale == 0.0 || a.is_zero() != b.is_zero() {
        return f64::INFINITY;
    }
    diff / (C::unit_roundoff() * scale)
}

/// Largest element-wise [`ulp_distance`] between two slices.
///
/// Returns [`f64::INFINITY`] on a length mismatch: slices of different
/// shapes are never "close", and silently comparing the common prefix would
/// hide exactly the bugs this helper exists to catch.
pub fn max_ulp_error<C: Coeff>(a: &[C], b: &[C]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| ulp_distance(x, y))
        .fold(0.0, f64::max)
}

/// Largest element-wise difference between two slices, in ulps of a
/// caller-provided `scale`: `max_i |a_i - b_i| / (u * scale)`.
///
/// This is the right gate for cancellation-heavy or mixed-magnitude data,
/// where the forward error of any summation-reassociating algorithm is
/// bounded relative to the size of the *inputs* (for a convolution:
/// `max|x| * max|y|`), not of each output coefficient.  Returns
/// [`f64::INFINITY`] on a length mismatch or a non-positive scale.
pub fn max_scaled_error<C: Coeff>(a: &[C], b: &[C], scale: f64) -> f64 {
    if a.len() != b.len() || scale.is_nan() || scale <= 0.0 {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| x.sub(y).magnitude())
        .fold(0.0, f64::max)
        / (C::unit_roundoff() * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::md::{Dd, Md, Qd};

    #[test]
    fn equal_values_are_zero_ulps_apart() {
        let a = Qd::from_f64(1.5);
        assert_eq!(ulp_distance(&a, &a), 0.0);
        let c = Complex::new(Dd::from_f64(0.1), Dd::from_f64(-2.0));
        assert_eq!(ulp_distance(&c, &c), 0.0);
        assert_eq!(ulp_distance(&Md::<1>::ZERO, &Md::<1>::ZERO), 0.0);
    }

    #[test]
    fn one_ulp_at_each_precision_measures_as_one() {
        // b = 1 + u: exactly one ulp above 1 at the working precision.
        fn check<const N: usize>() {
            let a = Md::<N>::one();
            let b = a.add_f64(Md::<N>::epsilon());
            let d = ulp_distance(&a, &b);
            assert!((d - 1.0).abs() < 1e-9, "N={N}: {d}");
        }
        check::<1>();
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
        check::<8>();
        check::<10>();
    }

    #[test]
    fn distance_is_symmetric_and_scale_free() {
        let a = Dd::from_f64(3.0).mul(&Dd::from_f64(2f64.powi(200)));
        let b = a.add(&a.mul_f64(Dd::epsilon() * 7.0));
        let ab = ulp_distance(&a, &b);
        let ba = ulp_distance(&b, &a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab > 6.0 && ab < 8.0, "{ab}");
        // Same relative perturbation at a tiny magnitude: same ulp count.
        let c = Dd::from_f64(3.0).mul(&Dd::from_f64(2f64.powi(-200)));
        let d = c.add(&c.mul_f64(Dd::epsilon() * 7.0));
        let cd = ulp_distance(&c, &d);
        assert!((ab - cd).abs() < 1e-6, "{ab} vs {cd}");
    }

    #[test]
    fn zero_versus_nonzero_is_infinite() {
        assert_eq!(ulp_distance(&Qd::ZERO, &Qd::one()), f64::INFINITY);
        assert_eq!(ulp_distance(&Qd::one(), &Qd::ZERO), f64::INFINITY);
    }

    #[test]
    fn max_ulp_error_over_slices() {
        let a = [Dd::from_f64(1.0), Dd::from_f64(2.0)];
        let mut b = a;
        assert_eq!(max_ulp_error(&a, &b), 0.0);
        b[1] = b[1].add_f64(2.0 * Dd::epsilon() * 3.0);
        let e = max_ulp_error(&a, &b);
        assert!(e > 2.0 && e < 4.0, "{e}");
        // Shape mismatch is infinite, not silently truncated.
        assert_eq!(max_ulp_error(&a, &b[..1]), f64::INFINITY);
    }

    #[test]
    fn scaled_error_measures_against_the_given_scale() {
        // a and b differ by 4 ulps of the scale 8.0.
        let a = [Dd::ZERO];
        let b = [Dd::from_f64(8.0 * Dd::epsilon() * 4.0)];
        let e = max_scaled_error(&a, &b, 8.0);
        assert!((e - 4.0).abs() < 1e-9, "{e}");
        assert_eq!(max_scaled_error(&a, &b, 0.0), f64::INFINITY);
        assert_eq!(max_scaled_error(&a, &b[..0], 1.0), f64::INFINITY);
        // Per-value ulp distance is infinite here (zero vs nonzero); the
        // scaled measure is the usable gate.
        assert_eq!(max_ulp_error(&a, &b), f64::INFINITY);
    }

    #[test]
    fn complex_distance_uses_the_modulus() {
        let a = Complex::new(Qd::from_f64(3.0), Qd::from_f64(4.0));
        let b = Complex::new(
            Qd::from_f64(3.0).add_f64(5.0 * Qd::epsilon() * 10.0),
            Qd::from_f64(4.0),
        );
        let d = ulp_distance(&a, &b);
        // |a| = 5, |a - b| = 10 u * 5: ten ulps.
        assert!(d > 9.0 && d < 11.0, "{d}");
    }
}
