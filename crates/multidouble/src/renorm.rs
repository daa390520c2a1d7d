//! Renormalization of floating-point expansions, at any lane width.
//!
//! A multiple-double number is represented by an *expansion*: a short vector
//! of doubles whose exact sum is the represented value and whose components
//! rapidly decrease in magnitude (each component is at most a fraction of an
//! ulp of its predecessor).  Every multiple-double operation first produces
//! an unnormalized list of terms (partial sums, partial products and their
//! error terms) and then calls into this module to compress that list back
//! into a fixed number of non-overlapping limbs.
//!
//! The algorithms follow the `VecSum` / `VecSumErrBranch` scheme used by
//! CAMPARY (Joldes, Muller, Popescu, Tucker) and the renormalization of the
//! QD library (Hida, Li, Bailey), generalized to an arbitrary number of
//! limbs.
//!
//! Each stage is defined once, over *limb planes* `[[f64; W]]`: plane `i`
//! holds term `i` of `W` independent expansions (lanes).  The scalar
//! [`crate::Md`] arithmetic runs every stage at `W = 1` and
//! [`crate::MdLanes`] runs the same code at its lane width, so lane `l` of a
//! lane operation produces the scalar bits by construction.  The branch-free
//! stages (the accumulation pass and the strictening sweeps) are elementwise
//! over a plane and vectorize; the data-dependent ones (limb extraction and
//! the magnitude-ordered merge) branch per value and loop over the lanes.

use crate::eft::{lane_quick_two_sum, lane_two_sum, quick_two_sum, two_sum};

/// One backward error-free accumulation pass (CAMPARY's `VecSum`), on every
/// lane at once.
///
/// Walks the term list from the last (smallest expected magnitude) element to
/// the first, replacing each element by the running floating-point sum and
/// storing the rounding errors in place.  The *exact* sum of each lane is
/// preserved.  After the pass, `terms[0]` holds the floating-point sum of a
/// right-to-left sequential summation and `terms[1..]` hold the accumulated
/// rounding errors in roughly decreasing order of magnitude.
#[inline(always)]
pub fn vec_sum_pass<const W: usize>(terms: &mut [[f64; W]]) {
    let n = terms.len();
    if n < 2 {
        return;
    }
    let mut s = terms[n - 1];
    for i in (0..n - 1).rev() {
        let (hi, lo) = lane_two_sum(&terms[i], &s);
        s = hi;
        terms[i + 1] = lo;
    }
    terms[0] = s;
}

/// Extraction of at most `out.len()` normalized limbs from a term list whose
/// head already approximates the total (CAMPARY's `VecSumErrBranch`).
///
/// `terms` must have been prepared by one or more [`vec_sum_pass`] calls (or
/// must already be a decreasing non-overlapping expansion).  Limbs beyond the
/// capacity of `out` are discarded, which merely rounds the value to the
/// target precision.  The extraction branches on every rounding error
/// (`lo != 0.0`), so each lane walks its own term column.
#[inline(always)]
pub fn extract_limbs<const W: usize>(terms: &[[f64; W]], out: &mut [[f64; W]]) {
    for limb in out.iter_mut() {
        *limb = [0.0; W];
    }
    let n_out = out.len();
    if terms.is_empty() || n_out == 0 {
        return;
    }
    for l in 0..W {
        let mut k = 0usize;
        let mut carry = terms[0][l];
        for t in &terms[1..] {
            let (hi, lo) = quick_two_sum(carry, t[l]);
            if lo != 0.0 {
                // `hi` is settled: later terms are too small to change it.
                out[k][l] = hi;
                k += 1;
                if k == n_out {
                    break;
                }
                carry = lo;
            } else {
                carry = hi;
            }
        }
        if k < n_out {
            out[k][l] = carry;
        }
    }
}

/// Renormalize an arbitrary term list into `out.len()` limbs.
///
/// `passes` backward accumulation passes are applied before the extraction.
/// One pass suffices when the terms are already ordered by decreasing
/// magnitude (as after a merge of two expansions); two passes are used for
/// the roughly-ordered term lists produced by multiplication.
#[inline(always)]
pub fn renormalize_into<const W: usize>(
    terms: &mut [[f64; W]],
    out: &mut [[f64; W]],
    passes: usize,
) {
    for _ in 0..passes.max(1) {
        vec_sum_pass(terms);
    }
    extract_limbs(terms, out);
    // Final strictening sweeps: the extraction can leave adjacent limbs
    // overlapping by a few bits when later terms accumulate; two top-down
    // FastTwoSum sweeps restore the non-overlapping invariant.
    for _ in 0..2 {
        for i in 0..out.len().saturating_sub(1) {
            let (hi, lo) = lane_quick_two_sum(&out[i], &out[i + 1]);
            out[i] = hi;
            out[i + 1] = lo;
        }
    }
}

/// Merge two expansions (each sorted by decreasing magnitude) into `dst` so
/// that the result is sorted by decreasing magnitude, lane by lane.
///
/// Zero components are kept; ties keep the component of `a` first, which
/// makes the merge deterministic.
#[inline(always)]
pub fn merge_decreasing<const W: usize>(a: &[[f64; W]], b: &[[f64; W]], dst: &mut [[f64; W]]) {
    debug_assert_eq!(dst.len(), a.len() + b.len());
    for l in 0..W {
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            if a[i][l].abs() >= b[j][l].abs() {
                dst[k][l] = a[i][l];
                i += 1;
            } else {
                dst[k][l] = b[j][l];
                j += 1;
            }
            k += 1;
        }
        for rest in a[i..].iter().chain(&b[j..]) {
            dst[k][l] = rest[l];
            k += 1;
        }
    }
}

/// Grow a non-overlapping expansion by one double (Shewchuk's
/// `GROW-EXPANSION`), producing an expansion with one more component.
///
/// `e` is given in *increasing* order of magnitude (Shewchuk's convention);
/// `h` receives `e.len() + 1` components, also in increasing order.  The sum
/// is exact.  This is the exactness oracle of the tests; the arithmetic
/// uses the cheaper [`renormalize_into`] instead.
pub fn grow_expansion(e: &[f64], b: f64, h: &mut [f64]) {
    debug_assert_eq!(h.len(), e.len() + 1);
    let mut q = b;
    for (i, &ei) in e.iter().enumerate() {
        let (s, err) = two_sum(q, ei);
        h[i] = err;
        q = s;
    }
    h[e.len()] = q;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Width-1 limb planes holding `values`.
    fn planes(values: &[f64]) -> Vec<[f64; 1]> {
        values.iter().map(|&v| [v]).collect()
    }

    fn exact_sum(terms: &[f64]) -> f64 {
        // Terms in these tests are chosen so that their sum is exactly
        // representable; plain summation in decreasing order is then exact.
        let mut sorted = terms.to_vec();
        sorted.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        sorted.iter().sum()
    }

    #[test]
    fn vec_sum_preserves_exact_sum() {
        let mut terms = planes(&[1.0, 2f64.powi(-53), 2f64.powi(-54), 2f64.powi(-105)]);
        let before = exact_sum(terms.as_flattened());
        vec_sum_pass(&mut terms);
        // The transformation is error free: the exact sum of the slice does
        // not change (here every partial sum is representable).
        let after: f64 = terms.as_flattened().iter().sum::<f64>();
        assert_eq!(
            before,
            1.0 + 2f64.powi(-53) + 2f64.powi(-54) + 2f64.powi(-105)
        );
        assert!((after - before).abs() <= f64::EPSILON * before.abs());
        // Head approximates the total: the sub-ulp tail rounds up to one ulp.
        assert_eq!(terms[0], [1.0 + f64::EPSILON]);
    }

    #[test]
    fn extract_limbs_produces_nonoverlapping_output() {
        let mut terms = planes(&[1.0, 2f64.powi(-60), 2f64.powi(-120), 2f64.powi(-180)]);
        vec_sum_pass(&mut terms);
        let mut out = [[0.0]; 4];
        extract_limbs(&terms, &mut out);
        assert_eq!(
            out.as_flattened(),
            [1.0, 2f64.powi(-60), 2f64.powi(-120), 2f64.powi(-180)]
        );
        for w in out.as_flattened().windows(2) {
            if w[1] != 0.0 {
                assert!(w[1].abs() < w[0].abs() * 2f64.powi(-52));
            }
        }
    }

    #[test]
    fn renormalize_compresses_overlapping_terms() {
        // 1 + 1 + 2^-53 + 2^-53: terms overlap pairwise.
        let mut terms = planes(&[1.0, 1.0, 2f64.powi(-53), 2f64.powi(-53)]);
        let mut out = [[0.0]; 2];
        renormalize_into(&mut terms, &mut out, 2);
        assert_eq!(out.as_flattened(), [2.0, 2f64.powi(-52)]);
    }

    #[test]
    fn renormalize_handles_cancellation() {
        let mut terms = planes(&[1.0e30, 3.5, -1.0e30, -1.25]);
        let mut out = [[0.0]; 3];
        renormalize_into(&mut terms, &mut out, 2);
        assert_eq!(out.as_flattened(), [2.25, 0.0, 0.0]);
    }

    #[test]
    fn renormalize_all_zeros() {
        let mut terms = [[0.0]; 5];
        let mut out = [[0.0]; 4];
        renormalize_into(&mut terms, &mut out, 1);
        assert!(out.as_flattened().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn merge_decreasing_orders_by_magnitude() {
        let a = planes(&[8.0, -0.5, 0.001]);
        let b = planes(&[100.0, 0.25]);
        let mut dst = [[0.0]; 5];
        merge_decreasing(&a, &b, &mut dst);
        assert_eq!(dst.as_flattened(), [100.0, 8.0, -0.5, 0.25, 0.001]);
    }

    #[test]
    fn grow_expansion_is_exact() {
        // Expansion in increasing magnitude order.
        let e = [2f64.powi(-80), 1.0];
        let mut h = [0.0; 3];
        grow_expansion(&e, 2f64.powi(-40), &mut h);
        let total: f64 = h.iter().sum();
        // Sum preserved (components chosen so the final sum is representable
        // as the sum of the output components exactly).
        assert_eq!(total, 1.0 + 2f64.powi(-40) + 2f64.powi(-80));
        assert_eq!(h[2], 1.0 + 2f64.powi(-40));
    }
}
