//! Batched multi-series evaluation: one schedule, many input-series vectors,
//! one kernel launch per layer for the whole batch.
//!
//! The paper amortizes the cost of accelerated evaluation by launching many
//! independent jobs at once; the schedule "depends only on the structure of
//! the monomials" (Section 5), so it can be reused across any number of
//! evaluation points.  The engine's batched path exploits both observations:
//!
//! * the [`Schedule`](crate::Schedule) is built **once** per plan and
//!   shared by every instance of the batch, amortizing schedule
//!   construction over the whole batch (single-polynomial and system plans
//!   alike: a polynomial is the one-equation system);
//! * all batch instances live in **one flat coefficient arena** (instance
//!   `i` occupies the slot range `i * num_slots .. (i + 1) * num_slots`, see
//!   [`DataLayout::batch_slot`](crate::DataLayout::batch_slot)), so one grid
//!   launch per layer executes `batch × jobs_per_layer` blocks.
//!
//! The second point matters at small truncation degrees: a single
//! polynomial's layer may hold fewer jobs than the machine has cores, so
//! per-polynomial launches starve the worker pool.  Batching multiplies the
//! blocks per launch by the batch size and fills the pool, exactly like the
//! paper fills the GPU's multiprocessors with wide grids.
//!
//! The arena lives in a workspace the plan parks between runs (see
//! [`crate::workspace`]), so a steady stream of equal-sized batches through
//! one plan allocates nothing after warm-up.
//!
//! ```
//! use psmd_core::{Engine, Monomial, Polynomial};
//! use psmd_multidouble::Dd;
//! use psmd_series::Series;
//!
//! let d = 2;
//! let coeff = |c: f64| Series::constant(Dd::from_f64(c), d);
//! let p = Polynomial::new(2, coeff(1.0), vec![Monomial::new(coeff(3.0), vec![0, 1])]);
//! let batch = vec![
//!     vec![
//!         Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
//!         Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
//!     ],
//!     vec![
//!         Series::<Dd>::from_f64_coeffs(&[2.0, 0.0, 0.0]),
//!         Series::<Dd>::from_f64_coeffs(&[1.0, 0.0, 1.0]),
//!     ],
//! ];
//! let engine = Engine::builder().threads(0).build();
//! let plan = engine.compile(p);
//! let result = plan.request(&batch).run().into_batch();
//! assert_eq!(result.len(), 2);
//! assert_eq!(result.instances[0].value.coeff(0).to_f64(), 4.0); // 1 + 3
//! assert_eq!(result.instances[1].value.coeff(0).to_f64(), 7.0); // 1 + 3*2
//! ```

use crate::evaluate::Evaluation;
use psmd_multidouble::Coeff;
use psmd_runtime::KernelTimings;

/// The evaluations of one batch, plus the aggregate kernel timings of the
/// shared launches.
///
/// The per-instance [`Evaluation::timings`] are empty: in a batched run a
/// kernel launch serves every instance at once, so launch counts and elapsed
/// times are only meaningful for the batch as a whole.
#[derive(Debug, Clone)]
pub struct BatchEvaluation<C> {
    /// The value and gradient of every batch instance, in input order.
    pub instances: Vec<Evaluation<C>>,
    /// Aggregate timings: one convolution/addition launch per layer for the
    /// whole batch, with `batch × jobs_per_layer` blocks each.
    pub timings: KernelTimings,
}

impl<C> BatchEvaluation<C> {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl<C: Coeff> BatchEvaluation<C> {
    /// An empty batch evaluation to be filled by an `*_into` run; its
    /// buffers are grown on first use and reused afterwards.
    pub fn empty() -> Self {
        Self {
            instances: Vec::new(),
            timings: KernelTimings::new(),
        }
    }
}

impl<C: Coeff> Default for BatchEvaluation<C> {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, Plan};
    use crate::generators::{random_inputs, random_polynomial};
    use crate::monomial::Monomial;
    use crate::polynomial::Polynomial;
    use crate::{ConvolutionKernel, EvalOptions};
    use psmd_multidouble::{Complex, Dd, Qd};
    use psmd_series::Series;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn coeff(c: f64, d: usize) -> Series<Qd> {
        Series::constant(Qd::from_f64(c), d)
    }

    fn paper_example(d: usize) -> Polynomial<Qd> {
        Polynomial::new(
            6,
            coeff(0.5, d),
            vec![
                Monomial::new(coeff(1.0, d), vec![0, 2, 5]),
                Monomial::new(coeff(2.0, d), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0, d), vec![1, 2, 3]),
            ],
        )
    }

    fn random_batch(n: usize, degree: usize, size: usize, seed: u64) -> Vec<Vec<Series<Qd>>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..size)
            .map(|_| random_inputs::<Qd, _>(n, degree, &mut rng))
            .collect()
    }

    fn compile(p: &Polynomial<Qd>, threads: usize) -> (Engine, Arc<Plan<Qd>>) {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(p.clone());
        (engine, plan)
    }

    #[test]
    fn batch_matches_per_instance_sequential_bitwise() {
        let d = 6;
        let p = paper_example(d);
        let batch = random_batch(6, d, 7, 17);
        let (_engine, plan) = compile(&p, 0);
        let batched = plan.request(&batch).sequential().run().into_batch();
        assert_eq!(batched.len(), batch.len());
        for (inputs, got) in batch.iter().zip(batched.instances.iter()) {
            let want = plan.request(inputs).sequential().run().into_single();
            // Same schedule, same arithmetic, same order: bitwise identical.
            assert_eq!(got.value, want.value);
            assert_eq!(got.gradient, want.gradient);
        }
    }

    #[test]
    fn parallel_batch_matches_sequential_batch() {
        let d = 5;
        let p = paper_example(d);
        let batch = random_batch(6, d, 9, 3);
        let (_engine, plan) = compile(&p, 3);
        let seq = plan.request(&batch).sequential().run().into_batch();
        let par = plan.request(&batch).run().into_batch();
        for (a, b) in seq.instances.iter().zip(par.instances.iter()) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.gradient, b.gradient);
        }
    }

    #[test]
    fn one_launch_per_layer_for_the_whole_batch() {
        let d = 3;
        let p = paper_example(d);
        let batch = random_batch(6, d, 11, 5);
        let (_engine, plan) = compile(&p, 2);
        let result = plan.request(&batch).run().into_batch();
        let schedule = plan.schedule().expect("single plan");
        // Launch counts equal the layer counts — independent of batch size.
        assert_eq!(
            result.timings.convolution_launches,
            schedule.convolution_layers.len()
        );
        assert_eq!(
            result.timings.addition_launches,
            schedule.addition_layers.len()
        );
        // Every launch carries the whole batch: batch × jobs blocks.
        assert_eq!(
            result.timings.convolution_blocks,
            batch.len() * schedule.convolution_jobs()
        );
        assert_eq!(
            result.timings.addition_blocks,
            batch.len() * schedule.addition_jobs()
        );
    }

    #[test]
    fn empty_batch_returns_no_instances_and_no_launches() {
        let p = paper_example(2);
        let (_engine, plan) = compile(&p, 0);
        let result = plan
            .request(&Vec::<Vec<Series<Qd>>>::new())
            .sequential()
            .run()
            .into_batch();
        assert!(result.is_empty());
        assert_eq!(result.timings.convolution_launches, 0);
        assert_eq!(result.timings.addition_launches, 0);
    }

    #[test]
    fn batch_of_one_equals_single_evaluation() {
        let d = 4;
        let p = paper_example(d);
        let batch = random_batch(6, d, 1, 9);
        let (_engine, plan) = compile(&p, 0);
        let batched = plan.request(&batch).sequential().run().into_batch();
        let single = plan.request(&batch[0]).sequential().run().into_single();
        assert_eq!(batched.instances[0].value, single.value);
        assert_eq!(batched.instances[0].gradient, single.gradient);
    }

    #[test]
    fn fft_kernel_ablation_matches_direct() {
        let d = 4;
        let p = paper_example(d);
        let batch = random_batch(6, d, 4, 23);
        let engine = Engine::builder().threads(0).build();
        let direct = engine
            .compile(p.clone())
            .request(&batch)
            .sequential()
            .run()
            .into_batch();
        let fft = engine
            .compile_with_options(p, EvalOptions::new().with_kernel(ConvolutionKernel::Fft))
            .request(&batch)
            .sequential()
            .run()
            .into_batch();
        for (a, b) in direct.instances.iter().zip(fft.instances.iter()) {
            assert!(a.max_difference(b) < 1e-55);
        }
    }

    #[test]
    fn complex_coefficients_evaluate_in_batch() {
        type Cx = Complex<Dd>;
        let d = 3;
        let c = |re: f64, im: f64| Series::constant(Cx::new(Dd::from_f64(re), Dd::from_f64(im)), d);
        let p = Polynomial::new(
            3,
            c(0.5, -0.5),
            vec![
                Monomial::new(c(1.0, 1.0), vec![0, 1]),
                Monomial::new(c(0.0, 2.0), vec![1, 2]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(31);
        let batch: Vec<Vec<Series<Cx>>> = (0..5)
            .map(|_| (0..3).map(|_| Series::random(&mut rng, d)).collect())
            .collect();
        let engine = Engine::builder().threads(0).build();
        let plan = engine.compile(p);
        let batched = plan.request(&batch).sequential().run().into_batch();
        for (inputs, got) in batch.iter().zip(batched.instances.iter()) {
            let want = plan.request(inputs).sequential().run().into_single();
            assert_eq!(got.value, want.value);
            assert_eq!(got.gradient, want.gradient);
        }
    }

    #[test]
    fn degenerate_scratch_slots_are_batched_correctly() {
        // Duplicate single-variable monomials force a scratch accumulator;
        // its slot must be shifted per instance like every other slot.
        let d = 2;
        let p = Polynomial::new(
            1,
            coeff(0.0, d),
            vec![
                Monomial::new(coeff(2.0, d), vec![0]),
                Monomial::new(coeff(5.0, d), vec![0]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(41);
        let batch: Vec<Vec<Series<Qd>>> =
            (0..6).map(|_| vec![Series::random(&mut rng, d)]).collect();
        let (_engine, plan) = compile(&p, 0);
        let batched = plan.request(&batch).sequential().run().into_batch();
        for got in &batched.instances {
            assert_eq!(got.gradient[0].coeff(0).to_f64(), 7.0);
        }
    }

    #[test]
    #[should_panic(expected = "wrong number of inputs")]
    fn mismatched_input_count_panics() {
        let p = paper_example(2);
        let bad = vec![random_batch(5, 2, 1, 1)[0].clone()];
        let (_engine, plan) = compile(&p, 0);
        let _ = plan.request(&bad).sequential().run();
    }

    #[test]
    fn random_structures_batch_consistently() {
        let mut rng = StdRng::seed_from_u64(77);
        let engine = Engine::builder().threads(0).build();
        for _ in 0..8 {
            let p: Polynomial<Dd> = random_polynomial(6, 10, 5, 4, &mut rng);
            let batch: Vec<Vec<Series<Dd>>> = (0..5)
                .map(|_| random_inputs::<Dd, _>(6, 4, &mut rng))
                .collect();
            let plan = engine.compile(p);
            let batched = plan.request(&batch).sequential().run().into_batch();
            for (inputs, got) in batch.iter().zip(batched.instances.iter()) {
                let want = plan.request(inputs).sequential().run().into_single();
                assert_eq!(got.value, want.value);
                assert_eq!(got.gradient, want.gradient);
            }
        }
    }

    #[test]
    fn shrinking_batches_reuse_the_output_without_stale_instances() {
        // A warm output filled by a 6-instance batch must come back with
        // exactly 2 instances when reused for a 2-instance batch.
        let d = 3;
        let p = paper_example(d);
        let (_engine, plan) = compile(&p, 0);
        let big = random_batch(6, d, 6, 51);
        let small = random_batch(6, d, 2, 52);
        let mut out = plan.request(&big).run();
        plan.request(&small).into(&mut out).run();
        let batched = out.into_batch();
        assert_eq!(batched.len(), 2);
        for (inputs, got) in small.iter().zip(batched.instances.iter()) {
            let want = plan.request(inputs).sequential().run().into_single();
            assert_eq!(got.value, want.value);
            assert_eq!(got.gradient, want.gradient);
        }
    }
}
