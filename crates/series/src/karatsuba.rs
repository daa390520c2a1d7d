//! Karatsuba convolution for truncated power series.
//!
//! The schoolbook convolution of two series truncated at degree `d` costs
//! `O(d^2)` coefficient multiplications.  Karatsuba's identity
//!
//! ```text
//! (x0 + x1 t^h)(y0 + y1 t^h)
//!   = x0 y0 + ((x0 + x1)(y0 + y1) - x0 y0 - x1 y1) t^h + x1 y1 t^{2h}
//! ```
//!
//! computes the product of two half-length blocks with *three* half-size
//! multiplications instead of four, for `O(d^{log2 3})` total work.  For a
//! *truncated* product (only the first `n` coefficients are wanted) we use
//! the classical "short product" decomposition: one *full* Karatsuba product
//! of the low halves plus two recursive *short* products for the cross
//! terms — the high*high block never contributes below degree `n` and is
//! skipped entirely.
//!
//! Below [`KARATSUBA_THRESHOLD`] coefficients the recursion lands in a base
//! case that is *literally* the loop of [`convolve_seq`], so results at
//! small sizes are bitwise identical to the schoolbook kernel — the accuracy
//! suites gate on that.  Above the threshold the recursion reassociates
//! sums (and the middle term subtracts two products from a third, which
//! cancels), so results are gated in ulps instead; see
//! [`karatsuba_ulp_budget`] and `EXPERIMENTS.md` section 10.
//!
//! Everything here is allocation-free: callers pass a scratch slice of at
//! least [`karatsuba_scratch_len`] coefficients, which the per-worker
//! convolution scratch of psmd-core's workspaces pre-sizes so the steady
//! state stays at zero allocations.
//!
//! [`convolve_seq`]: crate::convolution::convolve_seq

use psmd_multidouble::Coeff;

/// Block sizes at or below this many coefficients use the schoolbook base
/// case (the exact loop of [`convolve_seq`](crate::convolution::convolve_seq)).
///
/// The value balances recursion overhead against the saved multiplications;
/// it also defines the boundary of the bitwise-identity guarantee: short
/// products of `n <= KARATSUBA_THRESHOLD` coefficients are bitwise equal to
/// `convolve_seq`.
pub const KARATSUBA_THRESHOLD: usize = 16;

/// Scratch (in coefficients) required by [`convolve_karatsuba`] for series
/// of `n` coefficients.
pub fn karatsuba_scratch_len(n: usize) -> usize {
    if n <= KARATSUBA_THRESHOLD {
        return 0;
    }
    let h = n.div_ceil(2);
    let m = n - h;
    (2 * h - 1) + full_scratch_len(h).max(m + karatsuba_scratch_len(m))
}

/// Scratch required by the internal full (non-truncated) Karatsuba product
/// of two blocks of `m` coefficients.
fn full_scratch_len(m: usize) -> usize {
    if m <= KARATSUBA_THRESHOLD {
        return 0;
    }
    let h = m.div_ceil(2);
    // sum buffers (2h) + middle product (2h - 1) + recursion.
    4 * h - 1 + full_scratch_len(h)
}

/// Truncated (short-product) Karatsuba convolution:
/// `z_k = sum_{i=0..k} x_i * y_{k-i}` for `k < z.len()`.
///
/// All three slices must have the same length `n = d + 1`; `scratch` must
/// hold at least [`karatsuba_scratch_len`]`(n)` coefficients.  For
/// `n <= `[`KARATSUBA_THRESHOLD`] the result is bitwise equal to
/// [`convolve_seq`](crate::convolution::convolve_seq).
pub fn convolve_karatsuba<C: Coeff>(x: &[C], y: &[C], z: &mut [C], scratch: &mut [C]) {
    let n = z.len();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), n);
    debug_assert!(
        scratch.len() >= karatsuba_scratch_len(n),
        "karatsuba scratch too small: {} < {}",
        scratch.len(),
        karatsuba_scratch_len(n)
    );
    short_product(x, y, z, scratch);
}

/// Short product: the first `z.len()` coefficients of `x * y`.
fn short_product<C: Coeff>(x: &[C], y: &[C], z: &mut [C], scratch: &mut [C]) {
    let n = z.len();
    if n <= KARATSUBA_THRESHOLD {
        // Base case: the exact loop of `convolve_seq`, for bitwise identity.
        for k in 0..n {
            let mut acc = C::zero();
            for i in 0..=k {
                acc.mul_add_assign(&x[i], &y[k - i]);
            }
            z[k] = acc;
        }
        return;
    }
    let h = n.div_ceil(2);
    let m = n - h;
    // Full product of the low halves covers coefficients 0 .. 2h - 2.
    let (fbuf, rest) = scratch.split_at_mut(2 * h - 1);
    full_product(&x[..h], &y[..h], fbuf, rest);
    let take = n.min(2 * h - 1);
    z[..take].copy_from_slice(&fbuf[..take]);
    for zk in z[take..n].iter_mut() {
        // Even n: coefficient n - 1 gets no low*low contribution.
        *zk = C::zero();
    }
    // Cross terms x_low * y_high and y_low * x_high land on z[h..n]; the
    // high*high block starts at t^{2h} >= t^n and is skipped (this is what
    // makes the short product cheaper than a full one).
    let (cbuf, rest) = rest.split_at_mut(m);
    short_product(&x[..m], &y[h..], cbuf, rest);
    for (zk, c) in z[h..n].iter_mut().zip(cbuf.iter()) {
        *zk = zk.add(c);
    }
    short_product(&y[..m], &x[h..], cbuf, rest);
    for (zk, c) in z[h..n].iter_mut().zip(cbuf.iter()) {
        *zk = zk.add(c);
    }
}

/// Full product of two blocks of `m` coefficients into `2m - 1` outputs.
fn full_product<C: Coeff>(x: &[C], y: &[C], z: &mut [C], scratch: &mut [C]) {
    let m = x.len();
    debug_assert_eq!(y.len(), m);
    debug_assert_eq!(z.len(), 2 * m - 1);
    if m <= KARATSUBA_THRESHOLD {
        for (k, zk) in z.iter_mut().enumerate() {
            let lo = (k + 1).saturating_sub(m);
            let hi = k.min(m - 1);
            let mut acc = C::zero();
            for i in lo..=hi {
                acc.mul_add_assign(&x[i], &y[k - i]);
            }
            *zk = acc;
        }
        return;
    }
    let h = m.div_ceil(2);
    // P0 = x0 * y0 occupies z[0 .. 2h - 2]; P2 = x1 * y1 occupies
    // z[2h .. 2m - 2].  Index 2h - 1 sits between them and is zeroed.
    full_product(&x[..h], &y[..h], &mut z[..2 * h - 1], scratch);
    z[2 * h - 1] = C::zero();
    full_product(&x[h..], &y[h..], &mut z[2 * h..], scratch);
    // Middle term: (x0 + x1)(y0 + y1) - P0 - P2, added at offset h.  The
    // high halves may be one shorter than the low halves (odd m); the sums
    // then just keep the top low-half coefficient.
    let (sx, rest) = scratch.split_at_mut(h);
    let (sy, rest) = rest.split_at_mut(h);
    let (p1, rest) = rest.split_at_mut(2 * h - 1);
    sx.copy_from_slice(&x[..h]);
    for (s, hi) in sx.iter_mut().zip(x[h..].iter()) {
        *s = s.add(hi);
    }
    sy.copy_from_slice(&y[..h]);
    for (s, hi) in sy.iter_mut().zip(y[h..].iter()) {
        *s = s.add(hi);
    }
    full_product(sx, sy, p1, rest);
    for (p, z0) in p1.iter_mut().zip(z[..2 * h - 1].iter()) {
        *p = p.sub(z0);
    }
    for (p, z2) in p1.iter_mut().zip(z[2 * h..].iter()) {
        *p = p.sub(z2);
    }
    for (zk, p) in z[h..h + 2 * h - 1].iter_mut().zip(p1.iter()) {
        *zk = zk.add(p);
    }
}

/// Coefficient multiplications performed by [`convolve_karatsuba`] at degree
/// `d` (series of `d + 1` coefficients), mirroring the recursion exactly.
pub fn karatsuba_mults(degree: usize) -> usize {
    short_counts(degree + 1).0
}

/// Coefficient additions performed by [`convolve_karatsuba`] at degree `d`,
/// in the paper's counting convention (accumulating `k` products into a
/// fresh accumulator costs `k - 1` additions; explicit add/sub loops count
/// one each).
pub fn karatsuba_adds(degree: usize) -> usize {
    short_counts(degree + 1).1
}

/// (mults, adds) of the short product over `n` coefficients.
fn short_counts(n: usize) -> (usize, usize) {
    if n <= KARATSUBA_THRESHOLD {
        // z_k accumulates k + 1 products with k additions.
        return (n * (n + 1) / 2, n * (n - 1) / 2);
    }
    let h = n.div_ceil(2);
    let m = n - h;
    let (fm, fa) = full_counts(h);
    let (sm, sa) = short_counts(m);
    // Two cross products of m coefficients are added onto z.
    (fm + 2 * sm, fa + 2 * sa + 2 * m)
}

/// (mults, adds) of the full product over `m`-coefficient blocks.
fn full_counts(m: usize) -> (usize, usize) {
    if m <= KARATSUBA_THRESHOLD {
        // m^2 products over 2m - 1 accumulators.
        return (m * m, m * m - (2 * m - 1));
    }
    let h = m.div_ceil(2);
    let m1 = m - h;
    let (m0, a0) = full_counts(h);
    // Three recursive full products: low, high (padded view has the same
    // shape only for the middle one; low and high differ in size).
    let (m2, a2) = full_counts(m1);
    let (mm, am) = full_counts(h);
    let mults = m0 + m2 + mm;
    // 2 m1 operand-sum adds, (2h - 1) + (2 m1 - 1) subtractions, 2h - 1
    // final additions.
    let adds = a0 + a2 + am + 2 * m1 + (2 * h - 1) + (2 * m1 - 1) + (2 * h - 1);
    (mults, adds)
}

/// Recursion depth of the short product over `n` coefficients (0 when the
/// base case applies directly).
pub fn karatsuba_depth(n: usize) -> usize {
    let mut depth = 0;
    let mut n = n;
    while n > KARATSUBA_THRESHOLD {
        n = n.div_ceil(2);
        depth += 1;
    }
    depth
}

/// Ulp budget for [`convolve_karatsuba`] against the schoolbook reference,
/// in ulps of the *convolution scale* `n * max|x| * max|y|` (measure with
/// `max_scaled_error`, not per-element ulps).
///
/// Reassociating a coefficient sum perturbs it by a bounded multiple of the
/// unit roundoff times the *largest intermediate magnitude*, and the
/// Karatsuba middle term `(x0+x1)(y0+y1) - P0 - P2` cancels quantities of
/// roughly four times the block magnitude — so the provable distance to
/// schoolbook is a few ulps of `n * max|x| * max|y|`, independent of how
/// small an individual output coefficient happens to be.  Measured worst
/// cases across all precisions, signs and depths up to 5 stay below 0.25
/// ulps of that scale; the budget keeps a 16x margin.  Per-element ulp
/// distances are only meaningful when outputs do not cancel — see
/// `EXPERIMENTS.md` section 10 for the derivation and measured table.
pub fn karatsuba_ulp_budget(_n: usize) -> f64 {
    4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::convolve_seq;
    use psmd_multidouble::{max_scaled_error, Complex, Dd, Md, Qd, RandomCoeff};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_series<C: Coeff + RandomCoeff>(rng: &mut StdRng, n: usize) -> Vec<C> {
        (0..n).map(|_| C::random_uniform(rng)).collect()
    }

    fn karatsuba<C: Coeff>(x: &[C], y: &[C]) -> Vec<C> {
        let n = x.len();
        let mut z = vec![C::zero(); n];
        let mut scratch = vec![C::zero(); karatsuba_scratch_len(n)];
        convolve_karatsuba(x, y, &mut z, &mut scratch);
        z
    }

    #[test]
    fn bitwise_equal_to_schoolbook_below_threshold() {
        let mut rng = StdRng::seed_from_u64(61);
        for n in 1..=KARATSUBA_THRESHOLD {
            let x: Vec<Qd> = random_series(&mut rng, n);
            let y: Vec<Qd> = random_series(&mut rng, n);
            let mut reference = vec![Qd::ZERO; n];
            convolve_seq(&x, &y, &mut reference);
            assert_eq!(karatsuba(&x, &y), reference, "n={n}");
        }
    }

    fn scale_of<C: Coeff>(x: &[C], y: &[C]) -> f64 {
        let mx = x.iter().map(|c| c.magnitude()).fold(0.0, f64::max);
        let my = y.iter().map(|c| c.magnitude()).fold(0.0, f64::max);
        x.len() as f64 * mx * my
    }

    #[test]
    fn ulp_bounded_above_threshold_all_sizes() {
        let mut rng = StdRng::seed_from_u64(62);
        // Every size up to 80 exercises all split parities (odd h, odd m,
        // even/odd alternations down the recursion).
        for n in (KARATSUBA_THRESHOLD + 1)..=80 {
            let x: Vec<Dd> = random_series(&mut rng, n);
            let y: Vec<Dd> = random_series(&mut rng, n);
            let mut reference = vec![Dd::ZERO; n];
            convolve_seq(&x, &y, &mut reference);
            let z = karatsuba(&x, &y);
            let err = max_scaled_error(&z, &reference, scale_of(&x, &y));
            assert!(err <= karatsuba_ulp_budget(n), "n={n} err={err}");
        }
    }

    #[test]
    fn degree_zero_and_one_are_exact() {
        let x = [Md::<3>::from_f64(4.0)];
        let y = [Md::<3>::from_f64(2.5)];
        assert_eq!(karatsuba(&x, &y)[0].to_f64(), 10.0);
        let x = [Dd::from_f64(2.0), Dd::from_f64(1.0)];
        let y = [Dd::from_f64(3.0), Dd::from_f64(-1.0)];
        let z = karatsuba(&x, &y);
        // (2 + t)(3 - t) truncated at degree 1: [6, 1]
        assert_eq!(z[0].to_f64(), 6.0);
        assert_eq!(z[1].to_f64(), 1.0);
    }

    #[test]
    fn complex_coefficients_stay_in_budget() {
        let mut rng = StdRng::seed_from_u64(63);
        for n in [17usize, 33, 96, 161] {
            let x: Vec<Complex<Qd>> = random_series(&mut rng, n);
            let y: Vec<Complex<Qd>> = random_series(&mut rng, n);
            let mut reference = vec![Complex::<Qd>::zero(); n];
            convolve_seq(&x, &y, &mut reference);
            let err = max_scaled_error(&karatsuba(&x, &y), &reference, scale_of(&x, &y));
            assert!(err <= karatsuba_ulp_budget(n), "n={n} err={err}");
        }
    }

    #[test]
    fn scratch_length_bounds_actual_usage() {
        // The recursion debug-asserts its scratch splits; running every size
        // through the kernel proves `karatsuba_scratch_len` is sufficient
        // (an under-estimate would panic on the `split_at_mut`).
        let mut rng = StdRng::seed_from_u64(64);
        for n in 1..=200 {
            let x: Vec<Md<1>> = random_series(&mut rng, n);
            let y: Vec<Md<1>> = random_series(&mut rng, n);
            let _ = karatsuba(&x, &y);
        }
    }

    /// A coefficient that counts ring operations in the paper's convention:
    /// multiplications count one each; additions count one each except when
    /// accumulating into an exact-zero accumulator (the paper's `d (d+1)`
    /// schoolbook count skips the first product of every output).
    #[derive(Copy, Clone, PartialEq, Debug)]
    struct Counted(f64);

    use std::cell::Cell;
    thread_local! {
        static MULTS: Cell<usize> = const { Cell::new(0) };
        static ADDS: Cell<usize> = const { Cell::new(0) };
    }

    impl Coeff for Counted {
        type Lanes<const W: usize> = psmd_multidouble::lanes::ScalarLanes<Self, W>;
        fn zero() -> Self {
            Counted(0.0)
        }
        fn one() -> Self {
            Counted(1.0)
        }
        fn from_f64(x: f64) -> Self {
            Counted(x)
        }
        fn add(&self, other: &Self) -> Self {
            ADDS.with(|a| a.set(a.get() + 1));
            Counted(self.0 + other.0)
        }
        fn sub(&self, other: &Self) -> Self {
            ADDS.with(|a| a.set(a.get() + 1));
            Counted(self.0 - other.0)
        }
        fn mul(&self, other: &Self) -> Self {
            MULTS.with(|m| m.set(m.get() + 1));
            Counted(self.0 * other.0)
        }
        fn neg(&self) -> Self {
            Counted(-self.0)
        }
        fn is_zero(&self) -> bool {
            self.0 == 0.0
        }
        fn magnitude(&self) -> f64 {
            self.0.abs()
        }
        fn unit_roundoff() -> f64 {
            f64::EPSILON * 0.5
        }
        fn doubles_per_value() -> usize {
            1
        }
        fn mul_add_assign(&mut self, a: &Self, b: &Self) {
            MULTS.with(|m| m.set(m.get() + 1));
            if self.0 != 0.0 {
                ADDS.with(|x| x.set(x.get() + 1));
            }
            self.0 += a.0 * b.0;
        }
        fn hash_bits<H: core::hash::Hasher>(&self, state: &mut H) {
            state.write_u64(self.0.to_bits());
        }
        fn component_limbs() -> usize {
            1
        }
        fn write_limbs(&self, out: &mut [f64]) {
            out[0] = self.0;
        }
        fn from_limbs(src: &[f64]) -> Self {
            Counted(src[0])
        }
    }

    #[test]
    fn count_formulas_match_an_instrumented_run() {
        let mut rng = StdRng::seed_from_u64(65);
        for n in [1usize, 5, 16, 17, 24, 31, 32, 33, 64, 96, 128, 160, 161] {
            // Strictly positive data: no accidental exact zeros, so the
            // instrumented convention matches the formulas exactly.
            let mut positive = || Counted(1.0 + Md::<1>::random_unit(&mut rng).to_f64().abs());
            let x: Vec<Counted> = (0..n).map(|_| positive()).collect();
            let y: Vec<Counted> = (0..n).map(|_| positive()).collect();
            MULTS.with(|m| m.set(0));
            ADDS.with(|a| a.set(0));
            let _ = karatsuba(&x, &y);
            let mults = MULTS.with(|m| m.get());
            let adds = ADDS.with(|a| a.get());
            assert_eq!(mults, karatsuba_mults(n - 1), "mults at n={n}");
            assert_eq!(adds, karatsuba_adds(n - 1), "adds at n={n}");
        }
    }

    #[test]
    fn karatsuba_saves_multiplications_at_paper_degrees() {
        use crate::convolution::convolution_mults;
        for d in [64usize, 96, 128, 152, 160] {
            let school = convolution_mults(crate::convolution::ConvAlgo::ZeroInsertion, d);
            let kara = karatsuba_mults(d);
            assert!(
                (kara as f64) < 0.5 * school as f64,
                "d={d}: karatsuba {kara} vs schoolbook {school}"
            );
        }
    }
}
