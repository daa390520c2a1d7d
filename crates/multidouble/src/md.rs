//! The generic multiple-double number type [`Md<N>`].
//!
//! An `Md<N>` stores an unevaluated sum of `N` doubles (its *limbs*), kept in
//! renormalized form: limbs decrease rapidly in magnitude and do not overlap,
//! so the value carries roughly `53 * N` bits of significand.  `N = 2` is the
//! classical double-double, `N = 4` the quad-double of the QD library, and
//! the paper additionally uses `N = 3, 5, 8, 10` (triple-, penta-, octo- and
//! deca-double) as generated by CAMPARY.
//!
//! All arithmetic is implemented generically over `N` with fixed-size stack
//! buffers (no heap allocation on any arithmetic path).  Addition and
//! multiplication are the width-1 instance of the lane arithmetic
//! ([`MdLanes<N, 1>`]), and every operation renormalizes through the one
//! definition of each stage in [`crate::renorm`], so a scalar operation and
//! one lane of a lane operation run the same code.

use crate::eft::two_prod;
use crate::lanes::MdLanes;
use crate::renorm::{merge_decreasing, renormalize_into};

/// Largest number of limbs supported by the fixed-size scratch buffers.
///
/// The paper uses up to deca-double (`N = 10`); a little headroom is left for
/// experimentation.
pub const MAX_LIMBS: usize = 12;

/// A multiple-double number with `N` limbs (an `N`-fold double).
#[derive(Clone, Copy, PartialEq)]
pub struct Md<const N: usize> {
    /// Limbs in decreasing order of magnitude; their exact sum is the value.
    pub(crate) limbs: [f64; N],
}

/// Double precision viewed through the multiple-double interface.
pub type Md1 = Md<1>;
/// Double-double precision (roughly 106 significand bits).
pub type Dd = Md<2>;
/// Triple-double precision.
pub type Td = Md<3>;
/// Quad-double precision (roughly 212 significand bits).
pub type Qd = Md<4>;
/// Penta-double precision.
pub type Pd = Md<5>;
/// Octo-double precision.
pub type Od = Md<8>;
/// Deca-double precision (roughly 530 significand bits).
pub type Deca = Md<10>;

impl<const N: usize> Md<N> {
    /// The number of limbs of this precision.
    pub const LIMBS: usize = N;

    /// Additive identity.
    pub const ZERO: Self = Self { limbs: [0.0; N] };

    /// Builds a value from raw limbs **without** renormalizing.
    ///
    /// The caller must guarantee the limbs are already normalized (decreasing
    /// magnitude, non-overlapping); use [`Md::renormalized`] otherwise.
    #[inline]
    pub const fn from_limbs_raw(limbs: [f64; N]) -> Self {
        Self { limbs }
    }

    /// Builds a value from arbitrary limbs, renormalizing them.
    pub fn renormalized(limbs: [f64; N]) -> Self {
        Self::renormalize(&mut limbs.map(|l| [l]), 2)
    }

    /// Renormalizes a width-1 term list into `N` limbs.
    #[inline(always)]
    fn renormalize(terms: &mut [[f64; 1]], passes: usize) -> Self {
        let mut out = [[0.0]; N];
        renormalize_into(terms, &mut out, passes);
        Self {
            limbs: out.map(|[l]| l),
        }
    }

    /// Multiplicative identity.
    #[inline]
    pub fn one() -> Self {
        Self::from_f64(1.0)
    }

    /// Additive identity (non-const convenience mirroring [`Md::one`]).
    #[inline]
    pub fn zero() -> Self {
        Self::ZERO
    }

    /// Embeds a double into the multiple-double format.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        let mut limbs = [0.0; N];
        limbs[0] = x;
        Self { limbs }
    }

    /// Embeds an integer exactly (integers up to 2^53 fit in the first limb).
    #[inline]
    pub fn from_i64(x: i64) -> Self {
        // Large integers may need two limbs to be exact.
        let hi = x as f64;
        let lo = (x - hi as i64) as f64;
        let mut s = Self::from_f64(hi);
        if lo != 0.0 && N > 1 {
            s = s.add_f64(lo);
        }
        s
    }

    /// Read-only view of the limbs.
    #[inline]
    pub fn limbs(&self) -> &[f64; N] {
        &self.limbs
    }

    /// Nearest double to the value.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        // For a renormalized expansion the first limb is already the value
        // correctly rounded to double precision up to one ulp; adding the
        // second limb recovers the correctly rounded result.
        if N >= 2 {
            self.limbs[0] + self.limbs[1]
        } else {
            self.limbs[0]
        }
    }

    /// Most significant limb.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.limbs[0]
    }

    /// True if the value is exactly zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&x| x == 0.0)
    }

    /// True if any limb is NaN.
    #[inline]
    pub fn is_nan(&self) -> bool {
        self.limbs.iter().any(|x| x.is_nan())
    }

    /// True if the leading limb is infinite.
    #[inline]
    pub fn is_infinite(&self) -> bool {
        self.limbs[0].is_infinite()
    }

    /// True if every limb is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.limbs.iter().all(|x| x.is_finite())
    }

    /// Sign of the value: -1, 0 or 1.
    #[inline]
    pub fn signum_i32(&self) -> i32 {
        for &l in &self.limbs {
            if l > 0.0 {
                return 1;
            }
            if l < 0.0 {
                return -1;
            }
        }
        0
    }

    /// A NaN value of this precision.
    pub fn nan() -> Self {
        let mut limbs = [0.0; N];
        limbs[0] = f64::NAN;
        Self { limbs }
    }

    /// Negation (exact).
    #[inline]
    pub fn neg(&self) -> Self {
        let mut limbs = self.limbs;
        for l in &mut limbs {
            *l = -*l;
        }
        Self { limbs }
    }

    /// Absolute value (exact).
    #[inline]
    pub fn abs(&self) -> Self {
        if self.signum_i32() < 0 {
            self.neg()
        } else {
            *self
        }
    }

    /// Multiplication by a power of two (exact, limb-wise).
    #[inline]
    pub fn scale_pow2(&self, exp: i32) -> Self {
        let f = 2f64.powi(exp);
        let mut limbs = self.limbs;
        for l in &mut limbs {
            *l *= f;
        }
        Self { limbs }
    }

    /// Sum of two multiple-doubles by the CAMPARY "certified" addition
    /// scheme: [`MdLanes::add`] at width 1.
    #[inline]
    pub fn add(&self, other: &Self) -> Self {
        MdLanes::<N, 1>::gather(|_| *self)
            .add(&MdLanes::gather(|_| *other))
            .extract(0)
    }

    /// Sum of a multiple-double and a double.
    pub fn add_f64(&self, other: f64) -> Self {
        debug_assert!(N <= MAX_LIMBS);
        if N == 1 {
            return Self::from_f64(self.limbs[0] + other);
        }
        let mut terms = [[0.0]; MAX_LIMBS + 1];
        merge_decreasing(&self.limbs.map(|l| [l]), &[[other]], &mut terms[..N + 1]);
        Self::renormalize(&mut terms[..N + 1], 1)
    }

    /// Difference of two multiple-doubles.
    #[inline]
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Difference of a multiple-double and a double.
    #[inline]
    pub fn sub_f64(&self, other: f64) -> Self {
        self.add_f64(-other)
    }

    /// Product of two multiple-doubles by the truncated paper-and-pencil
    /// scheme: [`MdLanes::mul`] at width 1.
    #[inline]
    pub fn mul(&self, other: &Self) -> Self {
        MdLanes::<N, 1>::gather(|_| *self)
            .mul(&MdLanes::gather(|_| *other))
            .extract(0)
    }

    /// Product of a multiple-double and a double.
    pub fn mul_f64(&self, other: f64) -> Self {
        debug_assert!(N <= MAX_LIMBS);
        if N == 1 {
            return Self::from_f64(self.limbs[0] * other);
        }
        let mut terms = [[0.0]; 2 * MAX_LIMBS + 1];
        let mut len = 0usize;
        let mut carry_err = [0.0; MAX_LIMBS + 1];
        for i in 0..N {
            let (p, e) = two_prod(self.limbs[i], other);
            terms[len] = [p];
            len += 1;
            carry_err[i + 1] = e;
            if i >= 1 && carry_err[i] != 0.0 {
                terms[len] = [carry_err[i]];
                len += 1;
            }
        }
        if carry_err[N] != 0.0 {
            terms[len] = [carry_err[N]];
            len += 1;
        }
        Self::renormalize(&mut terms[..len], 2)
    }

    /// Square of the value.
    #[inline]
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Quotient of two multiple-doubles (long-division scheme).
    ///
    /// Produces `N + 1` quotient corrections `q_i = r_i[0] / b[0]` with the
    /// remainder updated in full precision at each step, then renormalizes.
    pub fn div(&self, other: &Self) -> Self {
        if other.is_zero() {
            let mut limbs = [0.0; N];
            limbs[0] = self.limbs[0] / 0.0;
            return Self { limbs };
        }
        if N == 1 {
            return Self::from_f64(self.limbs[0] / other.limbs[0]);
        }
        let b0 = other.limbs[0];
        let mut q = [[0.0]; MAX_LIMBS + 1];
        let mut r = *self;
        for [qi] in q.iter_mut().take(N + 1) {
            *qi = r.limbs[0] / b0;
            if !qi.is_finite() || *qi == 0.0 {
                break;
            }
            r = r.sub(&other.mul_f64(*qi));
        }
        Self::renormalize(&mut q[..N + 1], 2)
    }

    /// Quotient of a multiple-double and a double.
    #[inline]
    pub fn div_f64(&self, other: f64) -> Self {
        self.div(&Self::from_f64(other))
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn recip(&self) -> Self {
        Self::one().div(self)
    }

    /// Number of Newton iterations needed to refine a double-precision seed
    /// to the full `N`-limb precision (each iteration doubles the accuracy).
    fn newton_iterations() -> usize {
        let mut bits = 53usize;
        let target = 53 * N;
        let mut iters = 0usize;
        while bits < target {
            bits *= 2;
            iters += 1;
        }
        iters + 1
    }

    /// Square root (NaN for negative input, zero for zero).
    ///
    /// Newton iteration on the reciprocal square root, avoiding divisions,
    /// followed by one Heron correction step.
    pub fn sqrt(&self) -> Self {
        let sign = self.signum_i32();
        if sign == 0 {
            return Self::ZERO;
        }
        if sign < 0 || self.is_nan() {
            return Self::nan();
        }
        let half = Self::from_f64(0.5);
        let mut y = Self::from_f64(1.0 / self.limbs[0].sqrt());
        for _ in 0..Self::newton_iterations() {
            // y <- y + y * (1 - a*y*y) / 2
            let ayy = self.mul(&y).mul(&y);
            let corr = Self::one().sub(&ayy).mul(&y).mul(&half);
            y = y.add(&corr);
        }
        let mut s = self.mul(&y);
        // One Heron correction: s <- s + (a - s*s) * y / 2.
        let resid = self.sub(&s.square());
        s = s.add(&resid.mul(&y).mul(&half));
        s
    }

    /// Integer power by binary exponentiation.
    pub fn powi(&self, mut e: i64) -> Self {
        if e == 0 {
            return Self::one();
        }
        let invert = e < 0;
        if invert {
            e = -e;
        }
        let mut base = *self;
        let mut acc = Self::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.square();
            e >>= 1;
        }
        if invert {
            acc.recip()
        } else {
            acc
        }
    }

    /// Largest integer not greater than the value.
    pub fn floor(&self) -> Self {
        let mut terms = [[0.0]; MAX_LIMBS];
        let mut len = 0usize;
        for i in 0..N {
            let f = self.limbs[i].floor();
            terms[len] = [f];
            len += 1;
            if f != self.limbs[i] {
                break;
            }
        }
        Self::renormalize(&mut terms[..len], 1)
    }

    /// Truncation towards zero.
    pub fn trunc(&self) -> Self {
        if self.signum_i32() >= 0 {
            self.floor()
        } else {
            self.neg().floor().neg()
        }
    }

    /// Comparison by sign of the exact difference.
    pub fn cmp_md(&self, other: &Self) -> core::cmp::Ordering {
        use core::cmp::Ordering;
        match self.sub(other).signum_i32() {
            1 => Ordering::Greater,
            -1 => Ordering::Less,
            _ => Ordering::Equal,
        }
    }

    /// Relative difference with respect to `other` as an `f64` estimate, used
    /// by tests and accuracy reports.
    pub fn rel_diff(&self, other: &Self) -> f64 {
        let d = self.sub(other).abs();
        let scale = other.abs();
        if scale.is_zero() {
            d.to_f64()
        } else {
            d.div(&scale).to_f64()
        }
    }

    /// An upper bound on the relative rounding unit of this precision,
    /// `2^(1 - 52 N)`: one ulp of the last limb relative to the first.
    pub fn epsilon() -> f64 {
        2f64.powi(1 - (52 * N as i32))
    }

    /// Converts into a different number of limbs, truncating or
    /// zero-extending.
    pub fn resize<const M: usize>(&self) -> Md<M> {
        let mut limbs = [0.0; M];
        let keep = M.min(N);
        limbs[..keep].copy_from_slice(&self.limbs[..keep]);
        Md { limbs }
    }
}

impl<const N: usize> Default for Md<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> core::fmt::Debug for Md<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Md{}[", N)?;
        for (i, l) in self.limbs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:e}", l)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::Coeff;
    use crate::complex::Complex;

    fn assert_close<const N: usize>(a: &Md<N>, b: &Md<N>, tol: f64, msg: &str) {
        let rd = a.rel_diff(b);
        assert!(
            rd <= tol,
            "{msg}: relative difference {rd:e} exceeds tolerance {tol:e}\n a={a:?}\n b={b:?}"
        );
    }

    #[test]
    fn from_f64_roundtrip() {
        let x = Qd::from_f64(3.5);
        assert_eq!(x.to_f64(), 3.5);
        assert_eq!(x.limbs()[0], 3.5);
        assert!(x.limbs()[1..].iter().all(|&l| l == 0.0));
    }

    #[test]
    fn from_i64_is_exact_for_large_integers() {
        let v: i64 = (1 << 60) + 12345;
        let x = Dd::from_i64(v);
        // The value needs more than 53 bits: both limbs participate.
        assert_eq!(x.limbs()[0] as i64 + x.limbs()[1] as i64, v);
    }

    #[test]
    fn add_associates_small_terms_beyond_double_precision() {
        // (1 + 2^-80) - 1 == 2^-80 requires more than double precision.
        let one = Qd::one();
        let tiny = Qd::from_f64(2f64.powi(-80));
        let s = one.add(&tiny).sub(&one);
        assert_eq!(s.to_f64(), 2f64.powi(-80));
    }

    #[test]
    fn deca_keeps_ten_limbs_of_information() {
        // Sum of 10 well separated powers of two survives a round trip
        // through addition and subtraction.
        let mut x = Deca::ZERO;
        for k in 0..10 {
            x = x.add_f64(2f64.powi(-(60 * k)));
        }
        for k in (1..10).rev() {
            x = x.sub(&Deca::from_f64(2f64.powi(-(60 * k))));
        }
        assert_eq!(x.to_f64(), 1.0);
        assert!(x.sub(&Deca::one()).abs().to_f64() < 1e-300);
    }

    #[test]
    fn mul_matches_exact_integer_product() {
        let a = Qd::from_i64(94_906_265); // ~ 2^26.5
        let b = Qd::from_i64(94_906_267);
        let p = a.mul(&b);
        let exact = 94_906_265i128 * 94_906_267i128;
        // The product fits in well under 4*53 bits, so it must be exact.
        let got = p.limbs()[0] as i128 + p.limbs()[1] as i128;
        assert_eq!(got, exact);
    }

    #[test]
    fn mul_one_third_times_three_is_one() {
        fn check<const N: usize>() {
            let third = Md::<N>::one().div(&Md::<N>::from_f64(3.0));
            let prod = third.mul(&Md::<N>::from_f64(3.0));
            let err = prod.sub(&Md::<N>::one()).abs().to_f64();
            assert!(
                err <= 4.0 * Md::<N>::epsilon(),
                "N={N}: |1/3*3 - 1| = {err:e} vs eps {:e}",
                Md::<N>::epsilon()
            );
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
    fn div_then_mul_recovers_numerator() {
        fn check<const N: usize>() {
            let a = Md::<N>::from_f64(7.25).add(&Md::<N>::from_f64(2f64.powi(-70)));
            let b = Md::<N>::from_f64(1.0 / 3.0).add_f64(2f64.powi(-60));
            let q = a.div(&b);
            let back = q.mul(&b);
            assert_close(&back, &a, 16.0 * Md::<N>::epsilon(), "div/mul roundtrip");
        }
        check::<2>();
        check::<3>();
        check::<4>();
        check::<5>();
        check::<8>();
        check::<10>();
    }

    #[test]
    fn sqrt_of_two_squares_back() {
        fn check<const N: usize>() {
            let two = Md::<N>::from_f64(2.0);
            let r = two.sqrt();
            let back = r.square();
            assert_close(&back, &two, 32.0 * Md::<N>::epsilon(), "sqrt(2)^2");
        }
        check::<1>();
        check::<2>();
        check::<4>();
        check::<5>();
        check::<8>();
        check::<10>();
    }

    #[test]
    fn sqrt_special_cases() {
        assert!(Qd::from_f64(-1.0).sqrt().is_nan());
        assert!(Qd::ZERO.sqrt().is_zero());
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let x = Qd::from_f64(1.5).add_f64(2f64.powi(-70));
        let mut expect = Qd::one();
        for _ in 0..7 {
            expect = expect.mul(&x);
        }
        assert_close(&x.powi(7), &expect, 64.0 * Qd::epsilon(), "powi(7)");
        assert_close(
            &x.powi(-3),
            &Qd::one().div(&x.powi(3)),
            64.0 * Qd::epsilon(),
            "powi(-3)",
        );
        assert_eq!(x.powi(0).to_f64(), 1.0);
    }

    #[test]
    fn floor_and_trunc() {
        let x = Dd::from_f64(3.0).add_f64(2f64.powi(-60));
        assert_eq!(x.floor().to_f64(), 3.0);
        let y = Dd::from_f64(3.0).sub_f64(2f64.powi(-60));
        assert_eq!(y.floor().to_f64(), 2.0);
        let z = Dd::from_f64(-3.0).sub_f64(2f64.powi(-60));
        assert_eq!(z.floor().to_f64(), -4.0);
        assert_eq!(z.trunc().to_f64(), -3.0);
        assert_eq!(Dd::from_f64(7.0).floor().to_f64(), 7.0);
    }

    #[test]
    fn comparisons_resolve_sub_ulp_differences() {
        let a = Qd::one();
        let b = Qd::one().add_f64(2f64.powi(-150));
        assert_eq!(a.cmp_md(&b), core::cmp::Ordering::Less);
        assert_eq!(b.cmp_md(&a), core::cmp::Ordering::Greater);
        assert_eq!(a.cmp_md(&a), core::cmp::Ordering::Equal);
    }

    #[test]
    fn signum_and_abs() {
        let neg = Qd::from_f64(-0.0).sub(&Qd::from_f64(2f64.powi(-200)));
        assert_eq!(neg.signum_i32(), -1);
        assert_eq!(neg.abs().signum_i32(), 1);
        assert_eq!(Qd::ZERO.signum_i32(), 0);
    }

    #[test]
    fn scale_pow2_is_exact() {
        let x = Qd::from_f64(1.0).add_f64(2f64.powi(-100));
        let y = x.scale_pow2(10).scale_pow2(-10);
        assert_eq!(x, y);
    }

    #[test]
    fn resize_preserves_leading_limbs() {
        let x = Deca::one().div(&Deca::from_f64(7.0));
        let q: Qd = x.resize();
        let back: Deca = q.resize();
        // The first four limbs agree; lower limbs of the original differ.
        assert!(back.sub(&x).abs().to_f64() < 2f64.powi(-200));
    }

    #[test]
    fn div_by_zero_is_infinite_or_nan() {
        let x = Qd::from_f64(3.0);
        let q = x.div(&Qd::ZERO);
        assert!(q.limbs()[0].is_infinite() || q.limbs()[0].is_nan());
    }

    #[test]
    fn division_accuracy_against_scaled_integers() {
        // 1e30 / 7 computed in deca-double times 7 recovers 1e30 exactly to
        // within a few ulps of the last limb.
        let a = Deca::from_f64(1e30);
        let b = Deca::from_f64(7.0);
        let q = a.div(&b);
        let back = q.mul(&b);
        assert!(back.sub(&a).abs().div(&a).to_f64() < 8.0 * Deca::epsilon());
    }

    /// FNV-1a over output bits.  Every NaN hashes as one quiet NaN, so the
    /// platform's NaN payload and sign do not move the hash.
    struct BitHash(u64);

    impl BitHash {
        fn new() -> Self {
            Self(0xcbf2_9ce4_8422_2325)
        }

        fn f64(&mut self, x: f64) {
            let bits = if x.is_nan() {
                0x7ff8_0000_0000_0000
            } else {
                x.to_bits()
            };
            for byte in bits.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn md<const N: usize>(&mut self, x: &Md<N>) {
            for &l in x.limbs() {
                self.f64(l);
            }
        }
    }

    /// The operand sweep of the golden test: normalized values assembled
    /// from raw bits (so no operation under test builds them), an exact and
    /// a near cancellation partner, zeros of both signs, small integers,
    /// values near overflow and underflow, infinities and NaN.
    fn golden_operands<const N: usize>(seed: u64) -> Vec<Md<N>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let mut ops = Vec::new();
        for _ in 0..12 {
            let lead = (next() % 61) as i64 - 30;
            let mut limbs = [0.0; N];
            for (i, limb) in limbs.iter_mut().enumerate() {
                // Limb i sits 54 binades below limb i - 1: below half its ulp.
                let biased = (1023 + lead - 54 * i as i64) as u64;
                let r = next();
                *limb = f64::from_bits((r & (1 << 63)) | (biased << 52) | (r >> 12));
            }
            ops.push(Md::from_limbs_raw(limbs));
        }
        let mut near = ops[0].limbs;
        near[N - 1] = -near[N - 1];
        ops.push(ops[0].neg());
        ops.push(Md::from_limbs_raw(near));
        ops.push(Md::ZERO);
        ops.push(Md::ZERO.neg());
        ops.push(Md::one());
        ops.push(Md::from_f64(-3.0));
        ops.push(Md::from_f64(f64::from_bits(0x7EB8_0000_0000_0000))); // 1.5 * 2^1004
        ops.push(Md::from_f64(f64::from_bits(0x0148_0000_0000_0000))); // 1.5 * 2^-1002
        ops.push(Md::from_f64(f64::INFINITY));
        ops.push(Md::from_f64(f64::NEG_INFINITY));
        ops.push(Md::nan());
        ops
    }

    fn golden_hash<const N: usize>(seed: u64) -> u64 {
        let ops = golden_operands::<N>(seed);
        let mut h = BitHash::new();
        for a in &ops {
            h.md(&a.sqrt());
            for b in &ops {
                h.md(&a.add(b));
                h.md(&a.sub(b));
                h.md(&a.mul(b));
                let mut acc = *a;
                Coeff::mul_add_assign(&mut acc, b, a);
                h.md(&acc);
                h.md(&a.add_f64(b.hi()));
                h.md(&a.mul_f64(b.hi()));
                h.md(&a.div(b));
                // Overlapping, unordered limbs for the renormalizer.
                let mut mixed = [0.0; N];
                for (i, m) in mixed.iter_mut().enumerate() {
                    *m = a.limbs()[i] + b.limbs()[N - 1 - i];
                }
                h.md(&Md::renormalized(mixed));
            }
        }
        h.0
    }

    fn golden_complex_hash(seed: u64) -> u64 {
        let parts = golden_operands::<2>(seed);
        let ops: Vec<Complex<Dd>> = (0..parts.len())
            .map(|i| Complex::new(parts[i], parts[(5 * i + 3) % parts.len()]))
            .collect();
        let mut h = BitHash::new();
        for a in &ops {
            for b in &ops {
                for c in [a.add(b), a.sub(b), a.mul(b), a.div(b)] {
                    h.md(&c.re);
                    h.md(&c.im);
                }
                let mut acc = *a;
                Coeff::mul_add_assign(&mut acc, b, a);
                h.md(&acc.re);
                h.md(&acc.im);
            }
        }
        h.0
    }

    /// The scalar arithmetic keeps its historical output bits.  The lane
    /// tests compare width `W` with width 1; these hashes, recorded on the
    /// separate scalar implementation that width 1 replaced, tie width 1 to
    /// the bits it has always produced.  Only a deliberate numerics change
    /// regenerates them, and says so.
    #[test]
    fn scalar_arithmetic_bits_are_pinned() {
        let got = [
            ("1d", golden_hash::<1>(1)),
            ("2d", golden_hash::<2>(2)),
            ("3d", golden_hash::<3>(3)),
            ("4d", golden_hash::<4>(4)),
            ("5d", golden_hash::<5>(5)),
            ("8d", golden_hash::<8>(8)),
            ("10d", golden_hash::<10>(10)),
            ("complex 2d", golden_complex_hash(11)),
        ];
        let want = [
            ("1d", 0x868b_c196_a9b2_d0e4),
            ("2d", 0x230a_9b16_137a_8708),
            ("3d", 0xeade_eeea_5f21_7acd),
            ("4d", 0x87cc_aed3_4cb1_d308),
            ("5d", 0xccfa_2c5c_eb1d_61b4),
            ("8d", 0x0836_cb99_a7aa_ec01),
            ("10d", 0x1f9a_299d_166a_a77e),
            ("complex 2d", 0x6e7a_755a_21a4_3eb9),
        ];
        assert_eq!(got, want);
    }
}
