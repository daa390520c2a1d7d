//! Fused evaluation of polynomial *systems* with a shared Jacobian schedule.
//!
//! The paper's motivating application (Newton's method on systems of
//! polynomials at power series, Section 1) needs, at every iteration, the
//! values of all `m` equations **and** the full `m × n` Jacobian.  Evaluating
//! the system one polynomial at a time costs `m` schedules, `m` data arenas
//! and `m` pool launches per job layer — exactly the launch-starvation
//! pattern the batched engine (see [`crate::batch`]) was built to kill,
//! only across equations instead of across evaluation points.
//!
//! A system compiles into the one merged [`Schedule`](crate::Schedule),
//! which amortizes the shared structure once:
//!
//! * the monomial sets of all equations are **merged and deduplicated**: a
//!   monomial appearing (with the same variables and the same coefficient
//!   series) in several equations gets its forward/backward/cross products
//!   scheduled and computed **once**;
//! * all constants, coefficients, inputs and products live in **one flat
//!   coefficient arena** described by a single
//!   [`DataLayout`](crate::DataLayout);
//! * each job layer runs as **one** pool launch covering every equation, so
//!   the launch count is the layer count of the merged schedule,
//!   independent of `m`;
//! * one pass produces all `m` values plus the full `m × n` Jacobian of
//!   power series.
//!
//! A single polynomial is the case `m = 1`: its plan runs this same schedule
//! and reads equation 0.  An equation that shares no monomials with the
//! others therefore gets exactly the jobs of its own one-equation schedule,
//! and its value and gradient row are bitwise identical to its
//! single-polynomial plan's output.
//!
//! ```
//! use psmd_core::{Engine, Monomial, Polynomial};
//! use psmd_multidouble::Dd;
//! use psmd_series::Series;
//!
//! // f1 = 1 + 3 x0 x1,  f2 = x0 + x1, at z0 = 1 + t, z1 = 1 - t.
//! let d = 2;
//! let c = |x: f64| Series::constant(Dd::from_f64(x), d);
//! let f1 = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
//! let f2 = Polynomial::new(
//!     2,
//!     c(0.0),
//!     vec![Monomial::new(c(1.0), vec![0]), Monomial::new(c(1.0), vec![1])],
//! );
//! let z = vec![
//!     Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
//!     Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
//! ];
//! let engine = Engine::builder().threads(0).build();
//! let plan = engine.compile(vec![f1, f2]);
//! let eval = plan.request(&z).sequential().run().into_system();
//! assert_eq!(eval.values[0].coeff(0).to_f64(), 4.0);       // 1 + 3
//! assert_eq!(eval.values[0].coeff(2).to_f64(), -3.0);      // -3 t^2
//! assert_eq!(eval.values[1].coeff(0).to_f64(), 2.0);       // (1+t) + (1-t)
//! assert_eq!(eval.jacobian[0][0].coeff(1).to_f64(), -3.0); // d f1/dx0 = 3 z1
//! assert_eq!(eval.jacobian[1][1].coeff(0).to_f64(), 1.0);  // d f2/dx1 = 1
//! ```

use crate::evaluate::{evaluate_naive, Evaluation};
use crate::polynomial::Polynomial;
use psmd_multidouble::Coeff;
use psmd_runtime::{KernelTimings, Stopwatch};
use psmd_series::Series;

/// The result of one fused system evaluation: all equation values, the full
/// Jacobian of power series, and the aggregate kernel timings of the shared
/// launches.
#[derive(Debug, Clone)]
pub struct SystemEvaluation<C> {
    /// `f_i(z)` for every equation `i`, truncated at the common degree.
    pub values: Vec<Series<C>>,
    /// `d f_i / d x_j (z)` for every equation `i` and variable `j`
    /// (`jacobian[i][j]`).
    pub jacobian: Vec<Vec<Series<C>>>,
    /// Aggregate timings: one convolution/addition launch per merged layer
    /// for the whole system.
    pub timings: KernelTimings,
}

impl<C: Coeff> SystemEvaluation<C> {
    /// An empty system evaluation to be filled by an `*_into` run; its
    /// buffers are grown on first use and reused afterwards.
    pub fn empty() -> Self {
        Self {
            values: Vec::new(),
            jacobian: Vec::new(),
            timings: KernelTimings::new(),
        }
    }

    /// Number of equations.
    pub fn num_equations(&self) -> usize {
        self.values.len()
    }

    /// Largest coefficient-wise difference between two system evaluations
    /// (values and Jacobian), as a double estimate.  Returns
    /// [`f64::INFINITY`] when the shapes differ.
    pub fn max_difference(&self, other: &SystemEvaluation<C>) -> f64 {
        if self.values.len() != other.values.len() || self.jacobian.len() != other.jacobian.len() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for (a, b) in self.values.iter().zip(other.values.iter()) {
            if a.degree() != b.degree() {
                return f64::INFINITY;
            }
            worst = worst.max(a.distance(b));
        }
        for (ra, rb) in self.jacobian.iter().zip(other.jacobian.iter()) {
            if ra.len() != rb.len() {
                return f64::INFINITY;
            }
            for (a, b) in ra.iter().zip(rb.iter()) {
                if a.degree() != b.degree() {
                    return f64::INFINITY;
                }
                worst = worst.max(a.distance(b));
            }
        }
        worst
    }

    /// The evaluation of one equation (its value and Jacobian row), for
    /// comparisons against single-polynomial evaluators.
    pub fn equation(&self, i: usize) -> Evaluation<C> {
        Evaluation {
            value: self.values[i].clone(),
            gradient: self.jacobian[i].clone(),
            timings: KernelTimings::new(),
        }
    }
}

/// The fused system evaluations of one batch, plus the aggregate kernel
/// timings of the shared launches.
///
/// A batched system run is the tracker's workhorse: the same merged
/// [`Schedule`](crate::Schedule) serves every instance (same equations, different
/// evaluation points), so one kernel launch per merged layer covers
/// `batch × jobs_per_layer` blocks.  The per-instance
/// [`SystemEvaluation::timings`] are empty for the same reason as in
/// [`BatchEvaluation`](crate::BatchEvaluation): launches are shared, so
/// counts and times are only meaningful for the batch as a whole.
#[derive(Debug, Clone)]
pub struct SystemBatchEvaluation<C> {
    /// All values and the full Jacobian of every batch instance, in input
    /// order.
    pub instances: Vec<SystemEvaluation<C>>,
    /// Aggregate timings: one convolution/addition launch per merged layer
    /// for the whole batch.
    pub timings: KernelTimings,
}

impl<C> SystemBatchEvaluation<C> {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl<C: Coeff> SystemBatchEvaluation<C> {
    /// An empty batched system evaluation to be filled by an `*_into` run;
    /// its buffers are grown on first use and reused afterwards.
    pub fn empty() -> Self {
        Self {
            instances: Vec::new(),
            timings: KernelTimings::new(),
        }
    }
}

impl<C: Coeff> Default for SystemBatchEvaluation<C> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Evaluates a system equation by equation with the naive baseline
/// ([`evaluate_naive`]): the correctness oracle for the fused system plan.
pub fn evaluate_naive_system<C: Coeff>(
    polys: &[Polynomial<C>],
    inputs: &[Series<C>],
) -> SystemEvaluation<C> {
    let wall = Stopwatch::start();
    let mut values = Vec::with_capacity(polys.len());
    let mut jacobian = Vec::with_capacity(polys.len());
    for p in polys {
        let e = evaluate_naive(p, inputs);
        values.push(e.value);
        jacobian.push(e.gradient);
    }
    let mut timings = KernelTimings::new();
    timings.wall_clock = wall.elapsed();
    SystemEvaluation {
        values,
        jacobian,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Plan};
    use crate::generators::{random_inputs, random_polynomial};
    use crate::monomial::Monomial;
    use crate::schedule::Schedule;
    use psmd_multidouble::{Dd, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn coeff(c: f64, d: usize) -> Series<Qd> {
        Series::constant(Qd::from_f64(c), d)
    }

    /// The example polynomial of Equation (4) plus two companions over the
    /// same six variables.
    fn paper_system(d: usize) -> Vec<Polynomial<Qd>> {
        let f1 = Polynomial::new(
            6,
            coeff(0.5, d),
            vec![
                Monomial::new(coeff(1.0, d), vec![0, 2, 5]),
                Monomial::new(coeff(2.0, d), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0, d), vec![1, 2, 3]),
            ],
        );
        let f2 = Polynomial::new(
            6,
            coeff(-1.0, d),
            vec![
                Monomial::new(coeff(4.0, d), vec![1, 3, 5]),
                Monomial::new(coeff(0.5, d), vec![0, 4]),
            ],
        );
        let f3 = Polynomial::new(
            6,
            coeff(2.0, d),
            vec![
                Monomial::new(coeff(-1.0, d), vec![2]),
                Monomial::new(coeff(1.5, d), vec![0, 1, 2, 3]),
            ],
        );
        vec![f1, f2, f3]
    }

    fn random_z(n: usize, d: usize, seed: u64) -> Vec<Series<Qd>> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_inputs::<Qd, _>(n, d, &mut rng)
    }

    fn compile_system(system: &[Polynomial<Qd>], threads: usize) -> (Engine, Arc<Plan<Qd>>) {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(system.to_vec());
        (engine, plan)
    }

    #[test]
    fn system_matches_per_equation_scheduled_bitwise_without_sharing() {
        let d = 5;
        let system = paper_system(d);
        let z = random_z(6, d, 7);
        let engine = Engine::builder().threads(0).build();
        let fused = engine
            .compile(system.clone())
            .request(&z)
            .sequential()
            .run()
            .into_system();
        for (i, p) in system.iter().enumerate() {
            let single = engine
                .compile(p.clone())
                .request(&z)
                .sequential()
                .run()
                .into_single();
            // No monomial is shared between equations, so the merged schedule
            // reproduces each equation's own schedule job-for-job: results
            // are bitwise identical.
            assert_eq!(fused.values[i], single.value, "value of equation {i}");
            assert_eq!(fused.jacobian[i], single.gradient, "row {i}");
        }
    }

    #[test]
    fn system_matches_naive_oracle() {
        let d = 4;
        let system = paper_system(d);
        let z = random_z(6, d, 11);
        let (_engine, plan) = compile_system(&system, 0);
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        let diff = fused.max_difference(&naive);
        assert!(diff < 1e-55, "difference {diff}");
    }

    #[test]
    fn parallel_system_matches_sequential_bitwise() {
        let d = 6;
        let system = paper_system(d);
        let z = random_z(6, d, 3);
        let (_engine, plan) = compile_system(&system, 3);
        let seq = plan.request(&z).sequential().run().into_system();
        let par = plan.request(&z).run().into_system();
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.jacobian, par.jacobian);
    }

    #[test]
    fn one_launch_per_layer_for_the_whole_system() {
        let d = 3;
        let system = paper_system(d);
        let z = random_z(6, d, 5);
        let (_engine, plan) = compile_system(&system, 2);
        let result = plan.request(&z).run().into_system();
        let schedule = plan.schedule().expect("compiled schedule");
        // Exactly one pool launch per shared layer — independent of the
        // number of equations.
        assert_eq!(
            result.timings.convolution_launches,
            schedule.convolution_layers.len()
        );
        assert_eq!(
            result.timings.addition_launches,
            schedule.addition_layers.len()
        );
        assert_eq!(
            result.timings.convolution_blocks,
            schedule.convolution_jobs()
        );
        assert_eq!(result.timings.addition_blocks, schedule.addition_jobs());
        // The merged convolution layer count is the max over the equations,
        // not the sum: layers of different equations fuse.
        let max_layers = system
            .iter()
            .map(|p| {
                Schedule::build(std::slice::from_ref(p))
                    .convolution_layers
                    .len()
            })
            .max()
            .unwrap();
        assert_eq!(schedule.convolution_layers.len(), max_layers);
    }

    #[test]
    fn shared_monomials_are_scheduled_once() {
        let d = 2;
        // f1 and f2 share the monomial 2 x0 x1 x2 (same coefficient); f2
        // additionally scales x1 differently so the equations differ.
        let shared = |dd| Monomial::new(coeff(2.0, dd), vec![0, 1, 2]);
        let f1 = Polynomial::new(3, coeff(1.0, d), vec![shared(d)]);
        let f2 = Polynomial::new(
            3,
            coeff(0.0, d),
            vec![shared(d), Monomial::new(coeff(5.0, d), vec![1])],
        );
        let system = vec![f1.clone(), f2.clone()];
        let (_engine, plan) = compile_system(&system, 0);
        let schedule = plan.schedule().expect("compiled schedule");
        assert_eq!(schedule.total_monomials(), 3);
        assert_eq!(schedule.unique_monomials(), 2);
        assert_eq!(schedule.deduplicated_monomials(), 1);
        // The shared 3-variable monomial costs 6 convolutions once (not
        // twice) plus 1 for the single-variable monomial.
        assert_eq!(schedule.convolution_jobs(), 6 + 1);
        // Results still match the naive per-equation oracle.
        let z = random_z(3, d, 23);
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        assert!(fused.max_difference(&naive) < 1e-58);
    }

    #[test]
    fn duplicate_monomials_within_one_equation_are_summed_twice() {
        let d = 2;
        // f = 2 x0 x1 + 2 x0 x1: the two instances dedup to one unique
        // monomial whose product must be counted twice in the value.
        let m = || Monomial::new(coeff(2.0, d), vec![0, 1]);
        let f = Polynomial::new(2, coeff(0.0, d), vec![m(), m()]);
        let system = vec![f.clone()];
        let (_engine, plan) = compile_system(&system, 0);
        assert_eq!(
            plan.schedule()
                .expect("compiled schedule")
                .unique_monomials(),
            1
        );
        let z = random_z(2, d, 31);
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        assert!(fused.max_difference(&naive) < 1e-58);
    }

    #[test]
    fn single_equation_system_matches_single_plan_bitwise() {
        let d = 4;
        let system = paper_system(d);
        let one = vec![system[0].clone()];
        let z = random_z(6, d, 13);
        let engine = Engine::builder().threads(0).build();
        let fused = engine
            .compile(one.clone())
            .request(&z)
            .sequential()
            .run()
            .into_system();
        let single = engine
            .compile(one[0].clone())
            .request(&z)
            .sequential()
            .run()
            .into_single();
        assert_eq!(fused.values[0], single.value);
        assert_eq!(fused.jacobian[0], single.gradient);
    }

    #[test]
    fn random_systems_validate_and_match_naive() {
        let mut rng = StdRng::seed_from_u64(91);
        let engine = Engine::builder().threads(0).build();
        for _ in 0..6 {
            let system: Vec<Polynomial<Dd>> = (0..3)
                .map(|_| random_polynomial(5, 8, 4, 3, &mut rng))
                .collect();
            let z = random_inputs::<Dd, _>(5, 3, &mut rng);
            let plan = engine.compile(system.clone());
            plan.schedule()
                .expect("compiled schedule")
                .validate_layers()
                .unwrap();
            let fused = plan.request(&z).sequential().run().into_system();
            let naive = evaluate_naive_system(&system, &z);
            assert!(fused.max_difference(&naive) < 1e-24);
        }
    }

    #[test]
    #[should_panic(expected = "share the variable count")]
    fn mismatched_variable_counts_are_rejected() {
        let d = 1;
        let f1 = Polynomial::new(
            2,
            coeff(0.0, d),
            vec![Monomial::new(coeff(1.0, d), vec![0])],
        );
        let f2 = Polynomial::new(
            3,
            coeff(0.0, d),
            vec![Monomial::new(coeff(1.0, d), vec![2])],
        );
        let _ = Schedule::build(&[f1, f2]);
    }

    #[test]
    #[should_panic(expected = "at least one equation")]
    fn empty_systems_are_rejected() {
        let _ = Schedule::build::<Qd>(&[]);
    }

    #[test]
    fn constant_only_equation_evaluates_to_its_constant() {
        let d = 2;
        let f1 = Polynomial::new(2, coeff(7.0, d), vec![]);
        let f2 = Polynomial::new(
            2,
            coeff(0.0, d),
            vec![Monomial::new(coeff(1.0, d), vec![0, 1])],
        );
        let system = vec![f1, f2];
        let z = random_z(2, d, 41);
        let (_engine, plan) = compile_system(&system, 0);
        let fused = plan.request(&z).sequential().run().into_system();
        assert_eq!(fused.values[0].coeff(0).to_f64(), 7.0);
        assert!(fused.jacobian[0][0].is_zero());
        assert!(fused.jacobian[0][1].is_zero());
    }

    #[test]
    fn max_difference_reports_shape_mismatches_as_infinite() {
        let d = 2;
        let system = paper_system(d);
        let z = random_z(6, d, 2);
        let (_engine, plan) = compile_system(&system, 0);
        let a = plan.request(&z).sequential().run().into_system();
        let mut b = a.clone();
        b.values.pop();
        b.jacobian.pop();
        assert_eq!(a.max_difference(&b), f64::INFINITY);
    }
}
