//! Error-free transformations (EFTs) on IEEE-754 binary64 numbers.
//!
//! These are the building blocks of every multiple-double operation: each
//! transform returns the floating-point result of an operation *and* the
//! exact rounding error, so no information is lost.  The algorithms are the
//! classical ones of Dekker, Knuth and Shewchuk, with the product split
//! replaced by a fused multiply-add (`f64::mul_add`), as done by the CAMPARY
//! library the paper builds on.

/// Sum of `a` and `b` with the exact rounding error (Knuth's TwoSum).
///
/// Returns `(s, e)` with `s = fl(a + b)` and `s + e == a + b` exactly,
/// for any ordering of the magnitudes of `a` and `b`.
///
/// Costs 6 double operations.
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Sum of `a` and `b` with the exact rounding error, assuming `|a| >= |b|`
/// (Dekker's FastTwoSum / QuickTwoSum).
///
/// Returns `(s, e)` with `s = fl(a + b)` and `s + e == a + b` exactly.
/// The precondition `|a| >= |b|` (or `a == 0`) is required for exactness.
///
/// Costs 3 double operations.
#[inline(always)]
pub fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Difference of `a` and `b` with the exact rounding error (TwoDiff).
///
/// Returns `(d, e)` with `d = fl(a - b)` and `d + e == a - b` exactly.
#[inline(always)]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let d = a - b;
    let bb = d - a;
    let e = (a - (d - bb)) - (b + bb);
    (d, e)
}

/// Product of `a` and `b` with the exact rounding error, using a fused
/// multiply-add (TwoProdFMA).
///
/// Returns `(p, e)` with `p = fl(a * b)` and `p + e == a * b` exactly
/// (barring overflow/underflow of the product).
///
/// Costs 2 double operations when an FMA unit is available.
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = f64::mul_add(a, b, -p);
    (p, e)
}

/// Square of `a` with the exact rounding error (TwoSquareFMA).
#[inline(always)]
pub fn two_square(a: f64) -> (f64, f64) {
    let p = a * a;
    let e = f64::mul_add(a, a, -p);
    (p, e)
}

/// Dekker-style split of a double into high and low parts, each with at
/// most 26 significant bits, such that `a == hi + lo`.
///
/// Not used on the hot path (the FMA-based [`two_prod`] is preferred), but
/// exposed because it is the classical alternative and is exercised by the
/// test-suite as a cross-check of [`two_prod`].
#[inline]
pub fn split(a: f64) -> (f64, f64) {
    const SPLITTER: f64 = 134_217_729.0; // 2^27 + 1
    let t = SPLITTER * a;
    let hi = t - (t - a);
    let lo = a - hi;
    (hi, lo)
}

/// Product with exact error computed via Dekker's split (no FMA).
///
/// Exists as an independent cross-check of [`two_prod`]; both must agree
/// bit-for-bit whenever no intermediate overflow occurs.
#[inline]
pub fn two_prod_split(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo;
    (p, e)
}

// ---------------------------------------------------------------------------
// Lane-wise forms over `[f64; W]` planes (`W` independent operands).
//
// Plain `W`-element loops of the formulas above: each lane runs the
// identical operation sequence, `W = 1` is the scalar formula, and inside a
// kernel compiled with AVX2/AVX-512/NEON features enabled they compile to
// single vector instructions (`vaddpd`, `vmulpd`, `vfmadd*pd`).
// ---------------------------------------------------------------------------

#[inline(always)]
pub(crate) fn vadd<const W: usize>(a: &[f64; W], b: &[f64; W]) -> [f64; W] {
    let mut out = [0.0; W];
    for i in 0..W {
        out[i] = a[i] + b[i];
    }
    out
}

#[inline(always)]
pub(crate) fn vsub<const W: usize>(a: &[f64; W], b: &[f64; W]) -> [f64; W] {
    let mut out = [0.0; W];
    for i in 0..W {
        out[i] = a[i] - b[i];
    }
    out
}

#[inline(always)]
pub(crate) fn vmul<const W: usize>(a: &[f64; W], b: &[f64; W]) -> [f64; W] {
    let mut out = [0.0; W];
    for i in 0..W {
        out[i] = a[i] * b[i];
    }
    out
}

#[inline(always)]
pub(crate) fn vneg<const W: usize>(a: &[f64; W]) -> [f64; W] {
    let mut out = [0.0; W];
    for i in 0..W {
        out[i] = -a[i];
    }
    out
}

/// Elementwise fused multiply-add `a * b + c`.
#[inline(always)]
pub(crate) fn vfma<const W: usize>(a: &[f64; W], b: &[f64; W], c: &[f64; W]) -> [f64; W] {
    let mut out = [0.0; W];
    for i in 0..W {
        out[i] = a[i].mul_add(b[i], c[i]);
    }
    out
}

/// Lane-wise [`two_sum`].
#[inline(always)]
pub(crate) fn lane_two_sum<const W: usize>(a: &[f64; W], b: &[f64; W]) -> ([f64; W], [f64; W]) {
    let s = vadd(a, b);
    let bb = vsub(&s, a);
    let e = vadd(&vsub(a, &vsub(&s, &bb)), &vsub(b, &bb));
    (s, e)
}

/// Lane-wise [`quick_two_sum`].
#[inline(always)]
pub(crate) fn lane_quick_two_sum<const W: usize>(
    a: &[f64; W],
    b: &[f64; W],
) -> ([f64; W], [f64; W]) {
    let s = vadd(a, b);
    let e = vsub(b, &vsub(&s, a));
    (s, e)
}

/// Lane-wise [`two_prod`].
#[inline(always)]
pub(crate) fn lane_two_prod<const W: usize>(a: &[f64; W], b: &[f64; W]) -> ([f64; W], [f64; W]) {
    let p = vmul(a, b);
    let e = vfma(a, b, &vneg(&p));
    (p, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_exact_for_representable_case() {
        let a = 1.0;
        let b = 2f64.powi(-60);
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 1.0);
        assert_eq!(e, b);
        // Reconstruction is exact.
        assert_eq!(s + e, a + b);
    }

    #[test]
    fn two_sum_handles_cancellation() {
        let a = 1.0 + 2f64.powi(-52);
        let b = -1.0;
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 2f64.powi(-52));
        assert_eq!(e, 0.0);
    }

    #[test]
    fn quick_two_sum_matches_two_sum_when_ordered() {
        let pairs = [
            (1.0e10, 3.25),
            (-7.5, 1.0e-3),
            (2f64.powi(100), -2f64.powi(40)),
            (0.1, 0.1 * 2f64.powi(-53)),
        ];
        for &(a, b) in &pairs {
            assert!(a.abs() >= b.abs());
            let (s1, e1) = two_sum(a, b);
            let (s2, e2) = quick_two_sum(a, b);
            assert_eq!(s1, s2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn two_diff_is_exact() {
        let a = 1.0e16;
        let b = 1.0;
        let (d, e) = two_diff(a, b);
        // a - b is not representable; d + e must recover it exactly:
        // 1e16 - 1 = 9999999999999999, which needs 54 bits.
        assert_eq!(d, 1.0e16);
        assert_eq!(e, -1.0);
    }

    #[test]
    fn two_prod_error_term() {
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-30);
        let (p, e) = two_prod(a, b);
        // Exact product = 1 + 2^-29 + 2^-60; the 2^-60 term is the error.
        assert_eq!(p, 1.0 + 2f64.powi(-29));
        assert_eq!(e, 2f64.powi(-60));
    }

    #[test]
    fn two_prod_fma_agrees_with_split_version() {
        let values = [
            0.1,
            -0.3,
            1.0e8,
            3.5e-7,
            123456.789,
            -9.87654321e3,
            1.0 / 3.0,
        ];
        for &a in &values {
            for &b in &values {
                let (p1, e1) = two_prod(a, b);
                let (p2, e2) = two_prod_split(a, b);
                assert_eq!(p1, p2);
                assert_eq!(e1, e2, "error mismatch for {a} * {b}");
            }
        }
    }

    #[test]
    fn two_square_agrees_with_two_prod() {
        for &a in &[0.1, -7.25, 1.0e9, 3.0e-11] {
            assert_eq!(two_square(a), two_prod(a, a));
        }
    }

    #[test]
    fn split_reconstructs() {
        for &a in &[0.1, 123456.789, -9.5e18, 2f64.powi(-500)] {
            let (hi, lo) = split(a);
            assert_eq!(hi + lo, a);
            // hi has at most 26 significant bits: multiplying by 2^27 and
            // adding lo*0 keeps exactness of hi*hi.
            assert_eq!(f64::mul_add(hi, hi, -(hi * hi)), 0.0);
        }
    }
}
