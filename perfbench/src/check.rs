//! Output checks: bitwise identity with a reference, and accuracy against
//! the same evaluation at twice the limbs.

use psmd_core::Evaluation;
use psmd_multidouble::Md;
use psmd_series::Series;

fn series_bits_eq<const N: usize>(a: &Series<Md<N>>, b: &Series<Md<N>>) -> bool {
    a.degree() == b.degree()
        && a.coeffs()
            .iter()
            .zip(b.coeffs())
            .all(|(x, y)| x.limbs().map(f64::to_bits) == y.limbs().map(f64::to_bits))
}

/// True when value and gradient are bit-for-bit identical.
pub fn eval_bits_eq<const N: usize>(a: &Evaluation<Md<N>>, b: &Evaluation<Md<N>>) -> bool {
    series_bits_eq(&a.value, &b.value)
        && a.gradient.len() == b.gradient.len()
        && a.gradient
            .iter()
            .zip(&b.gradient)
            .all(|(x, y)| series_bits_eq(x, y))
}

/// Normwise relative distance of `a` from the wider `wide`, per output
/// series (value and every gradient entry), maximized:
/// `max_k |a_k − w_k| / max_k |w_k|`, computed exactly enough in `Md<M>`.
pub fn wide_rel_error<const N: usize, const M: usize>(
    a: &Evaluation<Md<N>>,
    wide: &Evaluation<Md<M>>,
) -> f64 {
    let one = |x: &Series<Md<N>>, w: &Series<Md<M>>| {
        let scale = w
            .coeffs()
            .iter()
            .map(|c| c.abs().to_f64())
            .fold(0.0, f64::max);
        let diff = x
            .coeffs()
            .iter()
            .zip(w.coeffs())
            .map(|(c, wc)| c.resize::<M>().sub(wc).abs().to_f64())
            .fold(0.0, f64::max);
        if scale == 0.0 {
            diff
        } else {
            diff / scale
        }
    };
    a.gradient
        .iter()
        .zip(&wide.gradient)
        .map(|(x, w)| one(x, w))
        .fold(one(&a.value, &wide.value), f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{widen, TestPoly};
    use psmd_core::Engine;
    use psmd_multidouble::Coeff;

    #[test]
    fn a_corrupted_output_fails_both_checks() {
        let engine = Engine::builder().threads(0).build();
        let poly = TestPoly::P1.build::<2>(3, 5);
        let point = TestPoly::P1.points::<2>(3, 1, 5).remove(0);
        let plan = engine.compile(poly.clone());
        let reference = plan.request(&point).sequential().run().into_single();
        let wide_plan = engine.compile(crate::gen::widen_poly::<2, 4>(&poly));
        let wide_point: Vec<Series<Md<4>>> = point.iter().map(widen).collect();
        let wide = wide_plan.request(&wide_point).run().into_single();

        let good = plan.request(&point).run().into_single();
        assert!(eval_bits_eq(&good, &reference));
        assert!(wide_rel_error(&good, &wide) < 1e-28);

        // Flip the lowest bit of one low-order limb of one gradient entry:
        // the bitwise check catches it.
        let mut bad = good.clone();
        let c = bad.gradient[3].coeff(2);
        let mut limbs = *c.limbs();
        limbs[1] = f64::from_bits(limbs[1].to_bits() ^ 1);
        bad.gradient[3].set_coeff(2, <Md<2> as Coeff>::from_limbs(&limbs));
        assert!(!eval_bits_eq(&bad, &reference));

        // A visible error in a leading limb also fails the accuracy bound.
        let mut worse = good.clone();
        let c = worse.value.coeff(1);
        worse
            .value
            .set_coeff(1, c.add_f64(1e-20 * c.abs().to_f64().max(1.0)));
        assert!(!eval_bits_eq(&worse, &reference));
        assert!(wide_rel_error(&worse, &wide) > 1e-24);
    }
}
