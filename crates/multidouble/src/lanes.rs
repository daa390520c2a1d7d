//! Structure-of-arrays lane vectors: `W` independent multi-double values
//! advancing in lock step — the CPU analogue of the paper's GPU warps.
//!
//! The batched evaluator runs the *same* convolution schedule over many
//! independent instances; this module provides the data types that let one
//! vector instruction carry one limb of `W` instances at once.  A
//! [`MdLanes<N, W>`] stores `W` values of [`Md<N>`] limb-major
//! (`[[f64; W]; N]`), so the error-free transformations (`two_sum`,
//! `two_prod`) and the branch-free renormalization passes become elementwise
//! operations over `[f64; W]` — exactly the shape the auto-vectorizer maps
//! onto AVX2 (`f64x4`), AVX-512 (`f64x8`) and NEON (`f64x2`) registers when
//! the surrounding kernel is compiled with the matching target features (see
//! `psmd_series::lanes` for the multiversioned kernel roots and
//! [`detect_isa`] for the runtime dispatch).
//!
//! ## The per-lane bitwise-identity invariant
//!
//! EFT arithmetic is exact, and the multi-double algorithms are sensitive to
//! association order, so the lane mapping must not reassociate anything:
//! **lane `l` of every lane operation produces exactly the bits the scalar
//! operation produces for instance `l`.**  This holds by construction: the
//! scalar [`Md::add`] and [`Md::mul`] are [`MdLanes::add`] and
//! [`MdLanes::mul`] at `W = 1`, and every width runs the one definition of
//! each renormalization stage in [`crate::renorm`].  The branch-free parts
//! (`two_sum`/`two_prod` chains, `vec_sum` passes, the strictening sweeps)
//! are elementwise over a limb plane and vectorize; the data-dependent parts
//! (the `VecSumErrBranch` limb extraction, the magnitude-ordered merge of
//! addition) branch per value and loop over the lanes; they are a small
//! fraction of the work.  `tests/simd_consistency.rs` in `psmd-core` gates
//! the invariant end to end across every precision.

use crate::coeff::{Coeff, RealCoeff};
use crate::complex::Complex;
use crate::eft::{lane_two_prod, vadd, vfma, vmul, vneg, vsub};
use crate::md::{Md, MAX_LIMBS};
use crate::renorm::{merge_decreasing, renormalize_into};
use std::sync::OnceLock;

/// Term capacity of the addition scratch: two expansions of up to
/// [`MAX_LIMBS`] limbs.
const LANE_ADD_TERMS: usize = 2 * MAX_LIMBS;
/// Term capacity of the multiplication scratch: all partial products of the
/// first `N` diagonals, their error terms, and the plain products of
/// diagonal `N`.
const LANE_MUL_TERMS: usize = MAX_LIMBS * (MAX_LIMBS + 1) + MAX_LIMBS;

// ---------------------------------------------------------------------------
// The lane-vector trait and its implementations.
// ---------------------------------------------------------------------------

/// `W` independent values of coefficient type `C` in structure-of-arrays
/// form, with arithmetic that is **bitwise identical per lane** to the
/// scalar [`Coeff`] operations (see the [module documentation](self)).
///
/// Panels are flat `f64` buffers laid out value-major, `doubles_per_value()
/// * W` doubles per value: `panel[base + d * W + l]` holds double `d` of
/// lane `l`.  [`LaneVec::write_lane`] / [`LaneVec::read_lane`] transpose one
/// scalar value in and out of that layout through the exact-bit
/// [`Coeff::write_limbs`] / [`Coeff::from_limbs`] round trip.
pub trait LaneVec<C: Coeff, const W: usize>: Copy + Send + Sync {
    /// All lanes exactly zero (the bits of `C::zero()`).
    fn zero() -> Self;
    /// Loads the lane vector stored at `panel[base..]`.
    fn load_from(panel: &[f64], base: usize) -> Self;
    /// Stores the lane vector at `panel[base..]`.
    fn store_to(&self, panel: &mut [f64], base: usize);
    /// Writes one scalar value into lane `lane` of the vector at
    /// `panel[base..]` (the gather transpose).
    fn write_lane(panel: &mut [f64], base: usize, lane: usize, value: &C);
    /// Reads lane `lane` of the vector at `panel[base..]` back into a scalar
    /// value (the scatter transpose).
    fn read_lane(panel: &[f64], base: usize, lane: usize) -> C;
    /// Lane-wise sum, bitwise identical per lane to `C::add`.
    fn add(&self, other: &Self) -> Self;
    /// Lane-wise difference, bitwise identical per lane to `C::sub`.
    fn sub(&self, other: &Self) -> Self;
    /// Lane-wise product, bitwise identical per lane to `C::mul`.
    fn mul(&self, other: &Self) -> Self;
    /// Lane-wise fused accumulate, bitwise identical per lane to
    /// `C::mul_add_assign` (which each coefficient type may override — the
    /// lane implementation must mirror the override).
    fn mul_add_assign(&mut self, a: &Self, b: &Self);
}

/// `W` lanes of [`Md<N>`], limb-major: `limbs[d][l]` is limb `d` of lane
/// `l`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MdLanes<const N: usize, const W: usize> {
    /// The lane-major limb planes.
    pub limbs: [[f64; W]; N],
}

impl<const N: usize, const W: usize> MdLanes<N, W> {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self {
            limbs: [[0.0; W]; N],
        }
    }

    /// Gathers `W` scalar values into lane form (lane `l` takes `get(l)`).
    #[inline]
    pub fn gather(mut get: impl FnMut(usize) -> Md<N>) -> Self {
        let mut s = Self::zero();
        for l in 0..W {
            let v = get(l);
            for d in 0..N {
                s.limbs[d][l] = v.limbs()[d];
            }
        }
        s
    }

    /// Extracts lane `l` as a scalar value.
    #[inline]
    pub fn extract(&self, l: usize) -> Md<N> {
        let mut limbs = [0.0; N];
        for (limb, plane) in limbs.iter_mut().zip(self.limbs.iter()) {
            *limb = plane[l];
        }
        Md::from_limbs_raw(limbs)
    }

    /// Lane-wise negation (exact, like [`Md::neg`]).
    #[inline(always)]
    pub fn neg(&self) -> Self {
        let mut out = Self::zero();
        for d in 0..N {
            out.limbs[d] = vneg(&self.limbs[d]);
        }
        out
    }

    /// Lane-wise sum (the CAMPARY "certified" addition scheme): per-lane
    /// merge of the two expansions by decreasing magnitude, one vectorized
    /// accumulation pass, extraction of `N` limbs and strictening.
    /// [`Md::add`] is this operation at `W = 1`.
    #[inline(always)]
    pub fn add(&self, other: &Self) -> Self {
        debug_assert!(N <= MAX_LIMBS);
        let mut out = Self::zero();
        if N == 1 {
            out.limbs[0] = vadd(&self.limbs[0], &other.limbs[0]);
            return out;
        }
        let mut terms = [[0.0; W]; LANE_ADD_TERMS];
        merge_decreasing(&self.limbs, &other.limbs, &mut terms[..2 * N]);
        renormalize_into(&mut terms[..2 * N], &mut out.limbs, 1);
        out
    }

    /// Lane-wise product by the truncated paper-and-pencil scheme: all
    /// partial products of limb pairs `(i, j)` with `i + j < N` are computed
    /// with an error-free product; their rounding errors feed the next
    /// diagonal; the plain products of diagonal `N` provide the final
    /// correction.  The resulting term list is renormalized into `N` limbs.
    /// [`Md::mul`] is this operation at `W = 1`.
    #[inline(always)]
    pub fn mul(&self, other: &Self) -> Self {
        debug_assert!(N <= MAX_LIMBS);
        let mut out = Self::zero();
        if N == 1 {
            out.limbs[0] = vmul(&self.limbs[0], &other.limbs[0]);
            return out;
        }
        let mut terms = [[0.0; W]; LANE_MUL_TERMS];
        let mut len = 0usize;
        // Diagonals 0 .. N-1: exact products; the rounding error of a product
        // on diagonal `k` is one diagonal lower in magnitude and is therefore
        // appended together with the products of diagonal `k + 1`.  Walking
        // diagonal by diagonal keeps the term list roughly ordered by
        // decreasing magnitude, which the renormalization expects.
        let mut err_len = [0usize; MAX_LIMBS + 1];
        let mut err_store = [[[0.0; W]; MAX_LIMBS]; MAX_LIMBS + 1];
        for k in 0..N {
            for i in 0..=k {
                let j = k - i;
                if i < N && j < N {
                    let (p, e) = lane_two_prod(&self.limbs[i], &other.limbs[j]);
                    terms[len] = p;
                    len += 1;
                    debug_assert!(err_len[k + 1] < MAX_LIMBS);
                    err_store[k + 1][err_len[k + 1]] = e;
                    err_len[k + 1] += 1;
                }
            }
            // Errors generated by the previous diagonal belong here.
            for e in &err_store[k][..err_len[k]] {
                terms[len] = *e;
                len += 1;
            }
        }
        // Diagonal N: plain products (their own errors are below the target
        // precision) plus the errors deferred from diagonal N-1.
        for i in 1..N {
            let j = N - i;
            terms[len] = vmul(&self.limbs[i], &other.limbs[j]);
            len += 1;
        }
        for e in &err_store[N][..err_len[N]] {
            terms[len] = *e;
            len += 1;
        }
        renormalize_into(&mut terms[..len], &mut out.limbs, 2);
        out
    }
}

impl<const N: usize, const W: usize> LaneVec<Md<N>, W> for MdLanes<N, W> {
    #[inline(always)]
    fn zero() -> Self {
        MdLanes::zero()
    }

    #[inline(always)]
    fn load_from(panel: &[f64], base: usize) -> Self {
        let mut s = Self::zero();
        for d in 0..N {
            s.limbs[d].copy_from_slice(&panel[base + d * W..base + (d + 1) * W]);
        }
        s
    }

    #[inline(always)]
    fn store_to(&self, panel: &mut [f64], base: usize) {
        for d in 0..N {
            panel[base + d * W..base + (d + 1) * W].copy_from_slice(&self.limbs[d]);
        }
    }

    #[inline]
    fn write_lane(panel: &mut [f64], base: usize, lane: usize, value: &Md<N>) {
        for d in 0..N {
            panel[base + d * W + lane] = value.limbs()[d];
        }
    }

    #[inline]
    fn read_lane(panel: &[f64], base: usize, lane: usize) -> Md<N> {
        let mut limbs = [0.0; N];
        for (d, limb) in limbs.iter_mut().enumerate() {
            *limb = panel[base + d * W + lane];
        }
        Md::from_limbs_raw(limbs)
    }

    #[inline(always)]
    fn add(&self, other: &Self) -> Self {
        MdLanes::add(self, other)
    }

    #[inline(always)]
    fn sub(&self, other: &Self) -> Self {
        // Mirrors `Md::sub`: negate (exact) and add.
        MdLanes::add(self, &other.neg())
    }

    #[inline(always)]
    fn mul(&self, other: &Self) -> Self {
        MdLanes::mul(self, other)
    }

    #[inline(always)]
    fn mul_add_assign(&mut self, a: &Self, b: &Self) {
        // Mirrors the default `Coeff::mul_add_assign` used by `Md<N>`.
        *self = MdLanes::add(self, &MdLanes::mul(a, b));
    }
}

/// `W` lanes of plain `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct F64Lanes<const W: usize>(pub [f64; W]);

impl<const W: usize> LaneVec<f64, W> for F64Lanes<W> {
    #[inline(always)]
    fn zero() -> Self {
        Self([0.0; W])
    }

    #[inline(always)]
    fn load_from(panel: &[f64], base: usize) -> Self {
        let mut s = [0.0; W];
        s.copy_from_slice(&panel[base..base + W]);
        Self(s)
    }

    #[inline(always)]
    fn store_to(&self, panel: &mut [f64], base: usize) {
        panel[base..base + W].copy_from_slice(&self.0);
    }

    #[inline]
    fn write_lane(panel: &mut [f64], base: usize, lane: usize, value: &f64) {
        panel[base + lane] = *value;
    }

    #[inline]
    fn read_lane(panel: &[f64], base: usize, lane: usize) -> f64 {
        panel[base + lane]
    }

    #[inline(always)]
    fn add(&self, other: &Self) -> Self {
        Self(vadd(&self.0, &other.0))
    }

    #[inline(always)]
    fn sub(&self, other: &Self) -> Self {
        Self(vsub(&self.0, &other.0))
    }

    #[inline(always)]
    fn mul(&self, other: &Self) -> Self {
        Self(vmul(&self.0, &other.0))
    }

    #[inline(always)]
    fn mul_add_assign(&mut self, a: &Self, b: &Self) {
        // Mirrors the `f64` override of `Coeff::mul_add_assign` (an FMA).
        self.0 = vfma(&a.0, &b.0, &self.0);
    }
}

/// `W` lanes of [`Complex<T>`]: a pair of real lane vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CxLanes<R> {
    /// Real-part lanes.
    pub re: R,
    /// Imaginary-part lanes.
    pub im: R,
}

impl<T, R, const W: usize> LaneVec<Complex<T>, W> for CxLanes<R>
where
    T: RealCoeff,
    R: LaneVec<T, W>,
{
    #[inline(always)]
    fn zero() -> Self {
        Self {
            re: R::zero(),
            im: R::zero(),
        }
    }

    #[inline(always)]
    fn load_from(panel: &[f64], base: usize) -> Self {
        let half = T::doubles_per_value() * W;
        Self {
            re: R::load_from(panel, base),
            im: R::load_from(panel, base + half),
        }
    }

    #[inline(always)]
    fn store_to(&self, panel: &mut [f64], base: usize) {
        let half = T::doubles_per_value() * W;
        self.re.store_to(panel, base);
        self.im.store_to(panel, base + half);
    }

    #[inline]
    fn write_lane(panel: &mut [f64], base: usize, lane: usize, value: &Complex<T>) {
        let half = T::doubles_per_value() * W;
        R::write_lane(panel, base, lane, &value.re);
        R::write_lane(panel, base + half, lane, &value.im);
    }

    #[inline]
    fn read_lane(panel: &[f64], base: usize, lane: usize) -> Complex<T> {
        let half = T::doubles_per_value() * W;
        Complex::new(
            R::read_lane(panel, base, lane),
            R::read_lane(panel, base + half, lane),
        )
    }

    #[inline(always)]
    fn add(&self, other: &Self) -> Self {
        // Mirrors `Complex::add`: componentwise.
        Self {
            re: self.re.add(&other.re),
            im: self.im.add(&other.im),
        }
    }

    #[inline(always)]
    fn sub(&self, other: &Self) -> Self {
        Self {
            re: self.re.sub(&other.re),
            im: self.im.sub(&other.im),
        }
    }

    #[inline(always)]
    fn mul(&self, other: &Self) -> Self {
        // Mirrors `Complex::mul` operation for operation:
        // (re·re' − im·im', re·im' + im·re').
        Self {
            re: self.re.mul(&other.re).sub(&self.im.mul(&other.im)),
            im: self.re.mul(&other.im).add(&self.im.mul(&other.re)),
        }
    }

    #[inline(always)]
    fn mul_add_assign(&mut self, a: &Self, b: &Self) {
        // Mirrors the default `Coeff::mul_add_assign` used by `Complex<T>`.
        *self = self.add(&a.mul(b));
    }
}

/// Per-lane scalar fallback lane vector, available for *any* coefficient
/// type: an array of `W` scalars operated on one at a time with the scalar
/// [`Coeff`] methods.  It vectorizes nothing, but it satisfies the per-lane
/// bitwise-identity contract trivially and lets custom coefficient types
/// implement [`Coeff`] without writing lane kernels
/// (`type Lanes<const W: usize> = ScalarLanes<Self, W>;`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalarLanes<C, const W: usize>(pub [C; W]);

impl<C: Coeff, const W: usize> LaneVec<C, W> for ScalarLanes<C, W> {
    #[inline]
    fn zero() -> Self {
        Self([C::zero(); W])
    }

    #[inline]
    fn load_from(panel: &[f64], base: usize) -> Self {
        let mut s = Self::zero();
        for l in 0..W {
            s.0[l] = Self::read_lane(panel, base, l);
        }
        s
    }

    #[inline]
    fn store_to(&self, panel: &mut [f64], base: usize) {
        for l in 0..W {
            Self::write_lane(panel, base, l, &self.0[l]);
        }
    }

    #[inline]
    fn write_lane(panel: &mut [f64], base: usize, lane: usize, value: &C) {
        let d = C::doubles_per_value();
        debug_assert!(d <= 2 * MAX_LIMBS);
        let mut limbs = [0.0; 2 * MAX_LIMBS];
        value.write_limbs(&mut limbs[..d]);
        for (j, limb) in limbs[..d].iter().enumerate() {
            panel[base + j * W + lane] = *limb;
        }
    }

    #[inline]
    fn read_lane(panel: &[f64], base: usize, lane: usize) -> C {
        let d = C::doubles_per_value();
        debug_assert!(d <= 2 * MAX_LIMBS);
        let mut limbs = [0.0; 2 * MAX_LIMBS];
        for (j, limb) in limbs[..d].iter_mut().enumerate() {
            *limb = panel[base + j * W + lane];
        }
        C::from_limbs(&limbs[..d])
    }

    #[inline]
    fn add(&self, other: &Self) -> Self {
        let mut out = *self;
        for l in 0..W {
            out.0[l] = self.0[l].add(&other.0[l]);
        }
        out
    }

    #[inline]
    fn sub(&self, other: &Self) -> Self {
        let mut out = *self;
        for l in 0..W {
            out.0[l] = self.0[l].sub(&other.0[l]);
        }
        out
    }

    #[inline]
    fn mul(&self, other: &Self) -> Self {
        let mut out = *self;
        for l in 0..W {
            out.0[l] = self.0[l].mul(&other.0[l]);
        }
        out
    }

    #[inline]
    fn mul_add_assign(&mut self, a: &Self, b: &Self) {
        for l in 0..W {
            self.0[l].mul_add_assign(&a.0[l], &b.0[l]);
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime instruction-set detection.
// ---------------------------------------------------------------------------

/// The vector instruction set the lane kernels dispatch to at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdIsa {
    /// No vector extension beyond the compile-time baseline: the lane
    /// kernels still run (any width), as portable scalar-lane code.
    Portable,
    /// x86-64 AVX2 + FMA: four f64 lanes per register.
    Avx2,
    /// x86-64 AVX-512 (F + DQ): eight f64 lanes per register.
    Avx512,
    /// AArch64 NEON: two f64 lanes per register.
    Neon,
}

impl SimdIsa {
    /// The natural lane width of the instruction set (doubles per vector
    /// register; 1 for [`SimdIsa::Portable`]).
    pub fn natural_width(self) -> usize {
        match self {
            SimdIsa::Portable => 1,
            SimdIsa::Neon => 2,
            SimdIsa::Avx2 => 4,
            SimdIsa::Avx512 => 8,
        }
    }

    /// A short human-readable name (`"avx512"`, `"avx2"`, `"neon"`,
    /// `"portable"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Portable => "portable",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Avx512 => "avx512",
            SimdIsa::Neon => "neon",
        }
    }
}

/// Detects the best vector instruction set of the running machine, once;
/// subsequent calls return the cached answer.
///
/// On x86-64 this uses `std::is_x86_feature_detected!` at runtime: AVX-512
/// needs `avx512f` + `avx512dq`, AVX2 needs `avx2` + `fma`.  On AArch64,
/// NEON is architecturally guaranteed.  Everywhere else the portable
/// fallback is reported.
pub fn detect_isa() -> SimdIsa {
    static DETECTED: OnceLock<SimdIsa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
            {
                return SimdIsa::Avx512;
            }
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                return SimdIsa::Avx2;
            }
            SimdIsa::Portable
        }
        #[cfg(target_arch = "aarch64")]
        {
            SimdIsa::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            SimdIsa::Portable
        }
    })
}

/// The lane width [`detect_isa`] recommends for this machine (8, 4, 2 — or
/// 1 when no vector extension is available, meaning the scalar path wins).
pub fn detected_lane_width() -> usize {
    detect_isa().natural_width()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::{Dd, Deca, Qd};

    /// Deterministic value mill (no `rand` dependency): full-precision
    /// values with spread exponents, exercising every renormalization
    /// branch.
    fn mill(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mantissa = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            let exp = ((state >> 3) % 41) as i32 - 20;
            mantissa * 2f64.powi(exp)
        }
    }

    fn random_md<const N: usize>(next: &mut impl FnMut() -> f64) -> Md<N> {
        let mut v = Md::<N>::from_f64(next());
        for i in 1..N {
            v = v.add_f64(next() * 2f64.powi(-50 * i as i32));
        }
        v
    }

    fn lanes_match_scalar<const N: usize, const W: usize>(seed: u64) {
        let mut next = mill(seed);
        let a: Vec<Md<N>> = (0..W).map(|_| random_md::<N>(&mut next)).collect();
        let b: Vec<Md<N>> = (0..W).map(|_| random_md::<N>(&mut next)).collect();
        let la = MdLanes::<N, W>::gather(|l| a[l]);
        let lb = MdLanes::<N, W>::gather(|l| b[l]);
        let sum = MdLanes::add(&la, &lb);
        let prod = MdLanes::mul(&la, &lb);
        let mut fused = prod;
        LaneVec::<Md<N>, W>::mul_add_assign(&mut fused, &la, &lb);
        for l in 0..W {
            assert_eq!(sum.extract(l), a[l].add(&b[l]), "add lane {l} N={N} W={W}");
            assert_eq!(prod.extract(l), a[l].mul(&b[l]), "mul lane {l} N={N} W={W}");
            let mut want = a[l].mul(&b[l]);
            let (x, y) = (a[l], b[l]);
            Coeff::mul_add_assign(&mut want, &x, &y);
            assert_eq!(fused.extract(l), want, "fma lane {l} N={N} W={W}");
        }
    }

    #[test]
    fn lane_arithmetic_is_bitwise_identical_per_lane() {
        for seed in 0..8u64 {
            lanes_match_scalar::<1, 4>(seed);
            lanes_match_scalar::<2, 2>(seed);
            lanes_match_scalar::<2, 4>(seed);
            lanes_match_scalar::<2, 8>(seed);
            lanes_match_scalar::<3, 4>(seed);
            lanes_match_scalar::<4, 4>(seed);
            lanes_match_scalar::<4, 8>(seed);
            lanes_match_scalar::<5, 2>(seed);
            lanes_match_scalar::<8, 4>(seed);
            lanes_match_scalar::<10, 4>(seed);
        }
    }

    #[test]
    fn complex_lanes_replicate_the_scalar_formula() {
        type Cx = Complex<Dd>;
        const W: usize = 4;
        let mut next = mill(7);
        let a: Vec<Cx> = (0..W)
            .map(|_| Complex::new(random_md::<2>(&mut next), random_md::<2>(&mut next)))
            .collect();
        let b: Vec<Cx> = (0..W)
            .map(|_| Complex::new(random_md::<2>(&mut next), random_md::<2>(&mut next)))
            .collect();
        let d = <Cx as Coeff>::doubles_per_value();
        let mut pa = vec![0.0; d * W];
        let mut pb = vec![0.0; d * W];
        for l in 0..W {
            <Cx as Coeff>::Lanes::<W>::write_lane(&mut pa, 0, l, &a[l]);
            <Cx as Coeff>::Lanes::<W>::write_lane(&mut pb, 0, l, &b[l]);
        }
        let la = <Cx as Coeff>::Lanes::<W>::load_from(&pa, 0);
        let lb = <Cx as Coeff>::Lanes::<W>::load_from(&pb, 0);
        let mut acc = <<Cx as Coeff>::Lanes<W> as LaneVec<Cx, W>>::zero();
        acc.mul_add_assign(&la, &lb);
        let sum = la.add(&lb);
        let mut out = vec![0.0; d * W];
        acc.store_to(&mut out, 0);
        for l in 0..W {
            let mut want = Cx::zero();
            want.mul_add_assign(&a[l], &b[l]);
            assert_eq!(<Cx as Coeff>::Lanes::<W>::read_lane(&out, 0, l), want);
            sum.store_to(&mut out, 0);
            assert_eq!(
                <Cx as Coeff>::Lanes::<W>::read_lane(&out, 0, l),
                a[l].add(&b[l])
            );
            acc.store_to(&mut out, 0);
        }
    }

    #[test]
    fn f64_lanes_use_the_fma_override() {
        const W: usize = 4;
        let a = F64Lanes::<W>([0.1, -2.5, 3.0, 1e-17]);
        let b = F64Lanes::<W>([7.0, 0.3, -1.25, 1e17]);
        let mut acc = F64Lanes::<W>([1.0; W]);
        acc.mul_add_assign(&a, &b);
        for l in 0..W {
            let mut want = 1.0f64;
            Coeff::mul_add_assign(&mut want, &a.0[l], &b.0[l]);
            assert_eq!(acc.0[l], want);
        }
    }

    #[test]
    fn panel_roundtrip_is_bitwise_exact() {
        const W: usize = 8;
        let mut next = mill(3);
        let vals: Vec<Deca> = (0..W).map(|_| random_md::<10>(&mut next)).collect();
        let d = <Deca as Coeff>::doubles_per_value();
        let mut panel = vec![0.0; 2 * d * W];
        for (l, v) in vals.iter().enumerate() {
            MdLanes::<10, W>::write_lane(&mut panel, d * W, l, v);
        }
        let lanes = <MdLanes<10, W> as LaneVec<Deca, W>>::load_from(&panel, d * W);
        for (l, v) in vals.iter().enumerate() {
            assert_eq!(lanes.extract(l), *v);
            assert_eq!(MdLanes::<10, W>::read_lane(&panel, d * W, l), *v);
        }
    }

    #[test]
    fn detection_is_stable_and_consistent() {
        let isa = detect_isa();
        assert_eq!(isa, detect_isa());
        assert_eq!(detected_lane_width(), isa.natural_width());
        assert!(matches!(isa.natural_width(), 1 | 2 | 4 | 8));
        assert!(!isa.name().is_empty());
    }

    #[test]
    fn sub_and_neg_match_scalar() {
        const W: usize = 4;
        let mut next = mill(11);
        let a: Vec<Qd> = (0..W).map(|_| random_md::<4>(&mut next)).collect();
        let b: Vec<Qd> = (0..W).map(|_| random_md::<4>(&mut next)).collect();
        let la = MdLanes::<4, W>::gather(|l| a[l]);
        let lb = MdLanes::<4, W>::gather(|l| b[l]);
        let diff = LaneVec::<Qd, W>::sub(&la, &lb);
        for l in 0..W {
            assert_eq!(diff.extract(l), a[l].sub(&b[l]));
            assert_eq!(la.neg().extract(l), a[l].neg());
        }
    }
}
