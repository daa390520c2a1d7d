//! A [`HomotopySpec`] compiled at one concrete precision.
//!
//! The start and target systems are stacked into a single `2n`-equation
//! fused plan, so one evaluation (or one **batched** evaluation over all
//! concurrently-live paths) produces `G(x)`, `F(x)` and both Jacobians in a
//! single coalesced launch sequence.  Because neither system depends on
//! `t`, the affine combination
//!
//! ```text
//! H(x, t)      = (1−t)·G(x) + γ·t·F(x)
//! ∂H/∂x (x, t) = (1−t)·J_G(x) + γ·t·J_F(x)
//! ∂H/∂t (x)    = γ·F(x) − G(x)
//! ```
//!
//! is a cheap per-coefficient host-side fold over an already-computed raw
//! evaluation — re-combining the same evaluation at a different `t` costs
//! no new launch.

use std::sync::Arc;

use psmd_core::{Engine, Error, Plan, PolySource, SystemEvaluation};
use psmd_multidouble::{Coeff, Md1, RealCoeff};
use psmd_series::Series;

use crate::spec::HomotopySpec;
use crate::TrackOptions;

/// A homotopy family compiled at the coefficient type `C`: the stacked
/// `[G; F]` plan plus the scaling constant `γ` embedded at this precision.
#[derive(Clone)]
pub struct Homotopy<C: Coeff> {
    plan: Arc<Plan<C>>,
    gamma: C,
    num_variables: usize,
    degree: usize,
}

impl<C: Coeff> Homotopy<C> {
    /// Compiles the family through the engine (a structural plan-cache hit
    /// when this precision was compiled before).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the spec fails [`HomotopySpec::validate`] or
    /// the engine rejects the stacked source.
    pub fn compile(
        spec: &HomotopySpec,
        engine: &Engine,
        options: &TrackOptions,
    ) -> Result<Self, Error> {
        spec.validate()?;
        let polys = spec.stacked_polynomials::<C>();
        let eval = options.eval.unwrap_or_else(|| engine.options());
        let plan = engine.try_compile_with_options(PolySource::System(polys), eval)?;
        Ok(Self {
            plan,
            gamma: C::from_f64(spec.gamma),
            num_variables: spec.num_variables,
            degree: spec.degree,
        })
    }

    /// The compiled stacked plan (`2n` equations: `G` rows then `F` rows).
    pub fn plan(&self) -> &Arc<Plan<C>> {
        &self.plan
    }

    /// `γ` at this precision.
    pub fn gamma(&self) -> &C {
        &self.gamma
    }

    /// Number of variables `n`.
    pub fn num_variables(&self) -> usize {
        self.num_variables
    }

    /// Truncation degree of the series arithmetic.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The combination weights at `t`: `(1−t, γ·t)`.
    fn weights(&self, t: f64) -> (C, C) {
        (C::from_f64(1.0 - t), self.gamma.mul(&C::from_f64(t)))
    }

    /// Folds a raw stacked evaluation into `H(x, t)`, writing the `n`
    /// residual series into `h` (which must hold `n` series of the plan's
    /// degree).  Allocation-free.
    pub fn combine_value_into(&self, eval: &SystemEvaluation<C>, t: f64, h: &mut [Series<C>]) {
        let n = self.num_variables;
        let (a, b) = self.weights(t);
        for (i, out) in h.iter_mut().enumerate().take(n) {
            let g = &eval.values[i];
            let f = &eval.values[n + i];
            for k in 0..=self.degree {
                out.set_coeff(k, a.mul(&g.coeff(k)).add(&b.mul(&f.coeff(k))));
            }
        }
    }

    /// Folds a raw stacked evaluation into `∂H/∂x (x, t)`, writing the
    /// `n × n` Jacobian into `jac`.  Allocation-free.
    pub fn combine_jacobian_into(
        &self,
        eval: &SystemEvaluation<C>,
        t: f64,
        jac: &mut [Vec<Series<C>>],
    ) {
        let n = self.num_variables;
        let (a, b) = self.weights(t);
        for (i, row) in jac.iter_mut().enumerate().take(n) {
            for (j, out) in row.iter_mut().enumerate().take(n) {
                let g = &eval.jacobian[i][j];
                let f = &eval.jacobian[n + i][j];
                for k in 0..=self.degree {
                    out.set_coeff(k, a.mul(&g.coeff(k)).add(&b.mul(&f.coeff(k))));
                }
            }
        }
    }

    /// Folds the constant terms of a raw stacked evaluation into
    /// `∂H/∂x (x, t)` in `f64`: `(1−t)·g + (γ·t)·f` on the nearest double
    /// of each entry, written into the `n × n` degree-0 `jac`.  At
    /// [`Md1`] these are the operations of
    /// [`combine_jacobian_into`](Self::combine_jacobian_into), in the same
    /// order.  Allocation-free.
    pub(crate) fn combine_jacobian_f64_into(
        &self,
        eval: &SystemEvaluation<C>,
        t: f64,
        jac: &mut [Vec<Series<Md1>>],
    ) where
        C: RealCoeff,
    {
        let n = self.num_variables;
        let (a, b) = (1.0 - t, self.gamma.to_f64() * t);
        for (i, row) in jac.iter_mut().enumerate().take(n) {
            for (j, out) in row.iter_mut().enumerate().take(n) {
                let g = eval.jacobian[i][j].coeff(0).to_f64();
                let f = eval.jacobian[n + i][j].coeff(0).to_f64();
                out.set_coeff(0, Md1::from_f64(a * g + b * f));
            }
        }
    }

    /// Writes `−∂H/∂t = G(x) − γ·F(x)` into `rhs` — the right-hand side of
    /// the tangent system `∂H/∂x · dx/dt = −∂H/∂t` used by the predictor.
    /// Independent of `t`, so one accepted evaluation serves the tangent at
    /// any step.  Allocation-free.
    pub fn minus_dt_into(&self, eval: &SystemEvaluation<C>, rhs: &mut [Series<C>]) {
        let n = self.num_variables;
        for (i, out) in rhs.iter_mut().enumerate().take(n) {
            let g = &eval.values[i];
            let f = &eval.values[n + i];
            for k in 0..=self.degree {
                out.set_coeff(k, g.coeff(k).sub(&self.gamma.mul(&f.coeff(k))));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MonomialSpec, PolySpec};
    use psmd_core::Inputs;
    use psmd_multidouble::Dd;

    fn family() -> HomotopySpec {
        // G: { x + y, x·y + 1 }  →  F: { x + y − 1, x·y + 6 }.
        let sum = |s: f64| PolySpec {
            constant: vec![-s],
            monomials: vec![
                MonomialSpec::constant_coeff(1.0, vec![0]),
                MonomialSpec::constant_coeff(1.0, vec![1]),
            ],
        };
        let product = |p: f64| PolySpec {
            constant: vec![-p],
            monomials: vec![MonomialSpec::constant_coeff(1.0, vec![0, 1])],
        };
        HomotopySpec::new(
            2,
            0,
            vec![sum(0.0), product(-1.0)],
            vec![sum(1.0), product(-6.0)],
        )
        .with_gamma(0.75)
    }

    #[test]
    fn combine_matches_the_hand_computed_homotopy() {
        let engine = Engine::builder().build();
        let h = Homotopy::<Dd>::compile(&family(), &engine, &TrackOptions::default()).unwrap();
        let x = vec![
            Series::constant(Dd::from_f64(2.0), 0),
            Series::constant(Dd::from_f64(3.0), 0),
        ];
        let eval = h
            .plan()
            .request(Inputs::Single(&x))
            .sequential()
            .run()
            .into_system();

        // Raw stacked rows: G then F.
        assert_eq!(eval.values[0].coeff(0).to_f64(), 5.0); // 2 + 3
        assert_eq!(eval.values[1].coeff(0).to_f64(), 7.0); // 6 + 1
        assert_eq!(eval.values[2].coeff(0).to_f64(), 4.0); // 5 - 1
        assert_eq!(eval.values[3].coeff(0).to_f64(), 12.0); // 6 + 6

        let t = 0.5;
        let mut out = vec![Series::zero(0); 2];
        h.combine_value_into(&eval, t, &mut out);
        // H_0 = 0.5·5 + 0.375·4 = 4.0
        assert!((out[0].coeff(0).to_f64() - 4.0).abs() < 1e-28);
        // H_1 = 0.5·7 + 0.375·12 = 8.0
        assert!((out[1].coeff(0).to_f64() - 8.0).abs() < 1e-28);

        let mut jac = vec![vec![Series::zero(0); 2]; 2];
        h.combine_jacobian_into(&eval, t, &mut jac);
        // dH_0/dx = 0.5·1 + 0.375·1 = 0.875
        assert!((jac[0][0].coeff(0).to_f64() - 0.875).abs() < 1e-28);
        // dH_1/dx = 0.5·y + 0.375·y = 2.625 at y = 3
        assert!((jac[1][0].coeff(0).to_f64() - 2.625).abs() < 1e-28);

        let mut rhs = vec![Series::zero(0); 2];
        h.minus_dt_into(&eval, &mut rhs);
        // G_0 - γ·F_0 = 5 - 3 = 2
        assert!((rhs[0].coeff(0).to_f64() - 2.0).abs() < 1e-28);
        // G_1 - γ·F_1 = 7 - 9 = -2
        assert!((rhs[1].coeff(0).to_f64() + 2.0).abs() < 1e-28);
    }

    #[test]
    fn endpoint_combination_is_exactly_gamma_f() {
        let engine = Engine::builder().build();
        let h = Homotopy::<Dd>::compile(&family(), &engine, &TrackOptions::default()).unwrap();
        let x = vec![
            Series::constant(Dd::from_f64(1.0), 0),
            Series::constant(Dd::from_f64(-1.0), 0),
        ];
        let eval = h
            .plan()
            .request(Inputs::Single(&x))
            .sequential()
            .run()
            .into_system();
        let mut out = vec![Series::zero(0); 2];
        h.combine_value_into(&eval, 1.0, &mut out);
        let expected = h.gamma().mul(&eval.values[2].coeff(0));
        assert_eq!(out[0].coeff(0), expected);
    }

    /// Evaluates the test family at an irrational-looking point.
    fn raw_eval<C: RealCoeff>(h: &Homotopy<C>) -> SystemEvaluation<C> {
        let x = vec![
            Series::constant(C::from_f64(0.1).div(&C::from_f64(3.0)), 0),
            Series::constant(C::from_f64(-7.0).div(&C::from_f64(11.0)), 0),
        ];
        h.plan()
            .request(Inputs::Single(&x))
            .sequential()
            .run()
            .into_system()
    }

    #[test]
    fn the_f64_jacobian_fold_is_the_md1_fold_and_rounds_wider_ones() {
        let engine = Engine::builder().build();
        let spec = family().with_gamma(0.6180339887498949);
        let t = 0.3;
        let mut jac64 = vec![vec![Series::<Md1>::zero(0); 2]; 2];

        // At Md1 the f64 fold is the working-precision fold, bit for bit.
        let h = Homotopy::<Md1>::compile(&spec, &engine, &TrackOptions::default()).unwrap();
        let eval = raw_eval(&h);
        let mut jac = vec![vec![Series::zero(0); 2]; 2];
        h.combine_jacobian_into(&eval, t, &mut jac);
        h.combine_jacobian_f64_into(&eval, t, &mut jac64);
        assert_eq!(jac64, jac);

        // At Dd it agrees with the rounded dd fold to a few ulps.
        let h = Homotopy::<Dd>::compile(&spec, &engine, &TrackOptions::default()).unwrap();
        let eval = raw_eval(&h);
        let mut jac = vec![vec![Series::zero(0); 2]; 2];
        h.combine_jacobian_into(&eval, t, &mut jac);
        h.combine_jacobian_f64_into(&eval, t, &mut jac64);
        for (row, row64) in jac.iter().zip(&jac64) {
            for (e, e64) in row.iter().zip(row64) {
                let (wide, narrow) = (e.coeff(0).to_f64(), e64.coeff(0).to_f64());
                assert!((wide - narrow).abs() <= 4.0 * f64::EPSILON * wide.abs());
            }
        }
    }
}
