//! Random generation of multiple-double and complex test data.
//!
//! The paper evaluates its kernels at random power series with coefficients
//! derived from random complex numbers on the unit circle (the standard
//! well-conditioned choice in PHCpack).  This module provides the scalar
//! generators; the series crate builds random truncated series on top.

#![cfg(feature = "rand")]

use crate::coeff::RealCoeff;
use crate::complex::Complex;
use crate::md::Md;
use rand::Rng;

/// Types that can be sampled for test and benchmark data.
pub trait RandomCoeff: Sized {
    /// A uniform random value in `[-1, 1)` with full precision: every limb
    /// carries random bits.
    fn random_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self;
    /// A random value suitable as a "well conditioned" series coefficient;
    /// for complex types this is a point on the unit circle, for real types
    /// a value in `[-1, 1)` bounded away from zero.
    fn random_unit<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl<const N: usize> RandomCoeff for Md<N> {
    fn random_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Fill every limb with fresh random bits at the appropriate scale so
        // the value genuinely exercises all N limbs.
        let mut acc = Md::<N>::from_f64(rng.gen_range(-1.0..1.0));
        for k in 1..N {
            let scale = 2f64.powi(-(53 * k as i32));
            acc = acc.add_f64(rng.gen_range(-1.0..1.0) * scale);
        }
        acc
    }
    fn random_unit<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut x = Self::random_uniform(rng);
        if x.abs().to_f64() < 0.25 {
            x = x.add_f64(if x.signum_i32() >= 0 { 0.5 } else { -0.5 });
        }
        x
    }
}

impl<T: RealCoeff + RandomCoeff> RandomCoeff for Complex<T> {
    fn random_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Complex::new(T::random_uniform(rng), T::random_uniform(rng))
    }
    fn random_unit<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // A random angle in double precision seeds the point; one Newton-like
        // normalization in full precision pulls it onto the unit circle.
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let raw = Complex::new(T::from_f64(theta.cos()), T::from_f64(theta.sin()));
        let norm = raw.modulus();
        Complex::new(raw.re.div(&norm), raw.im.div(&norm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::Coeff;
    use crate::md::{Deca, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_values_lie_in_range_and_use_low_limbs() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut low_limb_used = false;
        for _ in 0..50 {
            let x: Qd = RandomCoeff::random_uniform(&mut rng);
            assert!(x.abs().to_f64() <= 1.0 + 1e-15);
            if x.limbs()[3] != 0.0 {
                low_limb_used = true;
            }
        }
        assert!(low_limb_used, "lowest limb never populated");
    }

    #[test]
    fn unit_complex_has_unit_modulus_to_full_precision() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let z: Complex<Deca> = RandomCoeff::random_unit(&mut rng);
            let err = z.norm_sqr().sub(&Deca::one()).abs().to_f64();
            assert!(err < 1e-100, "norm error {err}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        let x: Qd = RandomCoeff::random_uniform(&mut a);
        let y: Qd = RandomCoeff::random_uniform(&mut b);
        assert_eq!(x, y);
        let mut c = StdRng::seed_from_u64(124);
        let z: Qd = RandomCoeff::random_uniform(&mut c);
        assert!(x != z);
    }

    #[test]
    fn real_random_unit_avoids_tiny_values() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let x: Qd = RandomCoeff::random_unit(&mut rng);
            assert!(x.abs().to_f64() >= 0.2, "value too small: {x:?}");
            assert!(!Coeff::is_zero(&x));
        }
    }
}
