//! The coefficient abstraction used throughout the workspace.
//!
//! Power series, polynomials and the evaluation kernels are generic over the
//! coefficient type: any multiple-double [`Md<N>`] (the one-limb
//! [`Md1`](crate::Md1) is a plain double) or complex numbers over one.  [`Coeff`] captures exactly the ring operations the
//! kernels need (the paper's convolutions only add and multiply), plus a few
//! conveniences for building test data and measuring errors.

use crate::complex::Complex;
use crate::lanes::{CxLanes, LaneVec, MdLanes};
use crate::md::Md;

/// Ring operations required of a power-series coefficient.
pub trait Coeff: Copy + Clone + PartialEq + core::fmt::Debug + Send + Sync + 'static {
    /// The structure-of-arrays lane vector carrying `W` independent values
    /// of this type through one vectorized operation sequence (see
    /// [`crate::lanes`]); its arithmetic is bitwise identical per lane to
    /// the scalar operations of this trait.
    type Lanes<const W: usize>: LaneVec<Self, W>;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embedding of a double.
    fn from_f64(x: f64) -> Self;
    /// Sum.
    fn add(&self, other: &Self) -> Self;
    /// Difference.
    fn sub(&self, other: &Self) -> Self;
    /// Product.
    fn mul(&self, other: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// True when the value is exactly zero.
    fn is_zero(&self) -> bool;
    /// An `f64` estimate of the magnitude, used for error reporting only.
    fn magnitude(&self) -> f64;
    /// The relative rounding unit of the underlying precision.
    fn unit_roundoff() -> f64;
    /// Number of doubles stored per coefficient (`N` for `Md<N>`, `2 N` for
    /// complex); this drives the shared-memory capacity model of the device
    /// crate.
    fn doubles_per_value() -> usize;
    /// In-place fused accumulate: `self += a * b`.  A default implementation
    /// is provided; types may override it with a cheaper scheme.
    #[inline]
    fn mul_add_assign(&mut self, a: &Self, b: &Self) {
        *self = self.add(&a.mul(b));
    }
    /// Feeds the exact bit pattern of the value into a hasher.
    ///
    /// Used for structural hashing of polynomials (the engine's plan cache):
    /// two coefficients hash equally exactly when they are bitwise equal, so
    /// a hash hit can be confirmed with `PartialEq` afterwards.
    fn hash_bits<H: core::hash::Hasher>(&self, state: &mut H);
    /// Number of `f64` limbs per *real component* of the value: `N` for
    /// `Md<N>` and for each of the two components of `Complex<Md<N>>`.  The
    /// compensated FFT convolution kernel uses this to choose its digit
    /// depth per precision.
    fn component_limbs() -> usize;
    /// Number of real components: `1` for real coefficients, `2` (real
    /// part, then imaginary part) for complex ones.
    #[inline]
    fn components() -> usize {
        Self::doubles_per_value() / Self::component_limbs()
    }
    /// Writes the raw limb representation into `out`, component-major (the
    /// real part's limbs, then — for complex values — the imaginary part's),
    /// each component's limbs in decreasing-magnitude expansion order.
    /// `out.len()` must equal [`Coeff::doubles_per_value`].
    fn write_limbs(&self, out: &mut [f64]);
    /// Rebuilds a value from the layout produced by [`Coeff::write_limbs`].
    /// Each component's limbs must already form a renormalized expansion
    /// (the FFT kernel guarantees this by recombining its digit planes
    /// through the renormalization pipeline before calling this).
    fn from_limbs(src: &[f64]) -> Self;
}

/// Additional operations available on real (totally ordered) coefficients.
pub trait RealCoeff: Coeff + PartialOrd {
    /// Division.
    fn div(&self, other: &Self) -> Self;
    /// Square root.
    fn sqrt(&self) -> Self;
    /// Absolute value.
    fn abs(&self) -> Self;
    /// Nearest double.
    fn to_f64(&self) -> f64;
}

impl<const N: usize> Coeff for Md<N> {
    type Lanes<const W: usize> = MdLanes<N, W>;
    #[inline]
    fn zero() -> Self {
        Md::ZERO
    }
    #[inline]
    fn one() -> Self {
        Md::one()
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Md::from_f64(x)
    }
    #[inline]
    fn add(&self, other: &Self) -> Self {
        Md::add(self, other)
    }
    #[inline]
    fn sub(&self, other: &Self) -> Self {
        Md::sub(self, other)
    }
    #[inline]
    fn mul(&self, other: &Self) -> Self {
        Md::mul(self, other)
    }
    #[inline]
    fn neg(&self) -> Self {
        Md::neg(self)
    }
    #[inline]
    fn is_zero(&self) -> bool {
        Md::is_zero(self)
    }
    #[inline]
    fn magnitude(&self) -> f64 {
        Md::to_f64(&Md::abs(self))
    }
    #[inline]
    fn unit_roundoff() -> f64 {
        Md::<N>::epsilon()
    }
    #[inline]
    fn doubles_per_value() -> usize {
        N
    }
    #[inline]
    fn hash_bits<H: core::hash::Hasher>(&self, state: &mut H) {
        for limb in self.limbs() {
            state.write_u64(limb.to_bits());
        }
    }
    #[inline]
    fn component_limbs() -> usize {
        N
    }
    #[inline]
    fn write_limbs(&self, out: &mut [f64]) {
        out[..N].copy_from_slice(self.limbs());
    }
    #[inline]
    fn from_limbs(src: &[f64]) -> Self {
        let mut limbs = [0.0; N];
        limbs.copy_from_slice(&src[..N]);
        Md::from_limbs_raw(limbs)
    }
}

impl<const N: usize> RealCoeff for Md<N> {
    #[inline]
    fn div(&self, other: &Self) -> Self {
        Md::div(self, other)
    }
    #[inline]
    fn sqrt(&self) -> Self {
        Md::sqrt(self)
    }
    #[inline]
    fn abs(&self) -> Self {
        Md::abs(self)
    }
    #[inline]
    fn to_f64(&self) -> f64 {
        Md::to_f64(self)
    }
}

impl<T: RealCoeff> Coeff for Complex<T> {
    type Lanes<const W: usize> = CxLanes<T::Lanes<W>>;
    #[inline]
    fn zero() -> Self {
        Complex::new(T::zero(), T::zero())
    }
    #[inline]
    fn one() -> Self {
        Complex::new(T::one(), T::zero())
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex::new(T::from_f64(x), T::zero())
    }
    #[inline]
    fn add(&self, other: &Self) -> Self {
        Complex::add(self, other)
    }
    #[inline]
    fn sub(&self, other: &Self) -> Self {
        Complex::sub(self, other)
    }
    #[inline]
    fn mul(&self, other: &Self) -> Self {
        Complex::mul(self, other)
    }
    #[inline]
    fn neg(&self) -> Self {
        Complex::neg(self)
    }
    #[inline]
    fn is_zero(&self) -> bool {
        self.re.is_zero() && self.im.is_zero()
    }
    #[inline]
    fn magnitude(&self) -> f64 {
        let re = self.re.magnitude();
        let im = self.im.magnitude();
        (re * re + im * im).sqrt()
    }
    #[inline]
    fn unit_roundoff() -> f64 {
        T::unit_roundoff()
    }
    #[inline]
    fn doubles_per_value() -> usize {
        2 * T::doubles_per_value()
    }
    #[inline]
    fn hash_bits<H: core::hash::Hasher>(&self, state: &mut H) {
        self.re.hash_bits(state);
        self.im.hash_bits(state);
    }
    #[inline]
    fn component_limbs() -> usize {
        T::component_limbs()
    }
    #[inline]
    fn write_limbs(&self, out: &mut [f64]) {
        let half = T::doubles_per_value();
        self.re.write_limbs(&mut out[..half]);
        self.im.write_limbs(&mut out[half..2 * half]);
    }
    #[inline]
    fn from_limbs(src: &[f64]) -> Self {
        let half = T::doubles_per_value();
        Complex::new(
            T::from_limbs(&src[..half]),
            T::from_limbs(&src[half..2 * half]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::{Dd, Qd};

    fn ring_axioms<C: Coeff>(a: C, b: C, c: C, tol: f64) {
        let close = |x: &C, y: &C| x.sub(y).magnitude() <= tol * (1.0 + x.magnitude());
        // commutativity
        assert!(close(&a.add(&b), &b.add(&a)));
        assert!(close(&a.mul(&b), &b.mul(&a)));
        // associativity (approximate for floating point)
        assert!(close(&a.add(&b).add(&c), &a.add(&b.add(&c))));
        assert!(close(&a.mul(&b).mul(&c), &a.mul(&b.mul(&c))));
        // distributivity
        assert!(close(&a.mul(&b.add(&c)), &a.mul(&b).add(&a.mul(&c))));
        // identities
        assert!(close(&a.add(&C::zero()), &a));
        assert!(close(&a.mul(&C::one()), &a));
        assert!(a.sub(&a).is_zero() || a.sub(&a).magnitude() <= tol);
        assert!(close(&a.add(&a.neg()), &C::zero()));
    }

    #[test]
    fn md_satisfies_ring_axioms() {
        ring_axioms(
            Qd::from_f64(1.5).add_f64(2f64.powi(-90)),
            Qd::from_f64(-2.25),
            Qd::one().div(&Qd::from_f64(3.0)),
            1e-60,
        );
        ring_axioms(
            Dd::from_f64(0.1),
            Dd::from_f64(7.0),
            Dd::from_f64(-0.3),
            1e-30,
        );
    }

    #[test]
    fn complex_satisfies_ring_axioms() {
        ring_axioms(
            Complex::new(Qd::from_f64(1.5), Qd::from_f64(-0.5)),
            Complex::new(Qd::from_f64(0.25), Qd::from_f64(2.0)),
            Complex::new(Qd::from_f64(-1.0), Qd::from_f64(1.0 / 3.0)),
            1e-60,
        );
    }

    #[test]
    fn doubles_per_value_reports_storage() {
        assert_eq!(<Qd as Coeff>::doubles_per_value(), 4);
        assert_eq!(<Complex<Dd> as Coeff>::doubles_per_value(), 4);
        assert_eq!(<Complex<Qd> as Coeff>::doubles_per_value(), 8);
    }

    #[test]
    fn hash_bits_separates_unequal_values_and_matches_equal_ones() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        fn digest<C: Coeff>(value: &C) -> u64 {
            let mut h = DefaultHasher::new();
            value.hash_bits(&mut h);
            h.finish()
        }
        let tiny = Qd::one().div(&Qd::from_f64(3.0));
        assert_eq!(digest(&tiny), digest(&tiny));
        // Values equal in the leading limb but different below must hash
        // differently: the plan cache distinguishes full-precision inputs.
        let a = Qd::from_f64(1.0);
        let b = Qd::from_f64(1.0).add_f64(2f64.powi(-200));
        assert_ne!(digest(&a), digest(&b));
        let c = Complex::new(Dd::from_f64(1.0), Dd::from_f64(2.0));
        let d = Complex::new(Dd::from_f64(2.0), Dd::from_f64(1.0));
        assert_ne!(digest(&c), digest(&d));
    }

    #[test]
    fn limb_roundtrip_is_bitwise_exact() {
        fn roundtrip<C: Coeff>(v: C) {
            let mut buf = vec![0.0f64; C::doubles_per_value()];
            v.write_limbs(&mut buf);
            assert_eq!(C::from_limbs(&buf), v);
        }
        roundtrip(Qd::one().div(&Qd::from_f64(3.0)));
        roundtrip(Dd::from_f64(0.1).mul(&Dd::from_f64(2f64.powi(300))));
        roundtrip(Complex::new(
            Qd::from_f64(1.0).add_f64(2f64.powi(-200)),
            Qd::from_f64(-7.0),
        ));
        assert_eq!(<Qd as Coeff>::components(), 1);
        assert_eq!(<Complex<Dd> as Coeff>::components(), 2);
        assert_eq!(<Complex<Dd> as Coeff>::component_limbs(), 2);
    }

    #[test]
    fn mul_add_assign_default_and_override() {
        let mut y = Qd::from_f64(1.0);
        y.mul_add_assign(&Qd::from_f64(2.0), &Qd::from_f64(3.0));
        assert_eq!(y.to_f64(), 7.0);
    }
}
