//! Cross-evaluator consistency: the naive baseline, the engine's sequential
//! path and its block-parallel path must agree on random polynomials, random
//! inputs, every precision and both real and complex coefficients.  This is
//! the end-to-end correctness argument for the reproduction: the accelerated
//! algorithm computes the same values and gradients as the direct
//! definition.

use proptest::prelude::*;
use psmd_core::{
    evaluate_naive, random_inputs, random_polynomial, Engine, EvalOptions, Evaluation, Polynomial,
    SimdMode,
};
use psmd_multidouble::{Coeff, Complex, Dd, Deca, Md, Qd, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tolerance scaled by the precision's unit roundoff and the workload size.
fn tolerance<C: Coeff>(degree: usize, monomials: usize) -> f64 {
    let ops = ((degree + 1) * (monomials + 4)) as f64;
    // The two evaluators associate the products differently, so allow a
    // modest multiple of the unit roundoff times the workload size.
    C::unit_roundoff() * ops * 64.0
}

fn check_consistency<C: Coeff + RandomCoeff>(seed: u64, n: usize, monomials: usize, degree: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let z = random_inputs::<C, _>(n, degree, &mut rng);
    let naive = evaluate_naive(&p, &z);
    let engine = Engine::builder().threads(3).build();
    let plan = engine.compile(p);
    let seq = plan.request(&z).sequential().run().into_single();
    let diff = naive.max_difference(&seq);
    let ulps = naive.max_ulp_difference(&seq);
    let tol = tolerance::<C>(degree, monomials);
    assert!(
        diff <= tol,
        "naive vs scheduled differ by {diff:e} ({ulps:.1} ulps; tolerance {tol:e}) \
         for seed {seed}"
    );
    let par = plan.request(&z).run().into_single();
    assert_eq!(seq.value, par.value, "parallel must be bitwise identical");
    assert_eq!(seq.gradient, par.gradient);
}

#[test]
fn consistency_across_precisions() {
    check_consistency::<Md<1>>(1, 6, 12, 5);
    check_consistency::<Dd>(2, 6, 12, 5);
    check_consistency::<Md<3>>(3, 5, 10, 4);
    check_consistency::<Qd>(4, 5, 10, 4);
    check_consistency::<Md<5>>(5, 5, 8, 4);
    check_consistency::<Md<8>>(6, 4, 8, 3);
    check_consistency::<Deca>(7, 4, 8, 3);
}

#[test]
fn consistency_for_complex_coefficients() {
    check_consistency::<Complex<Dd>>(11, 5, 10, 4);
    check_consistency::<Complex<Qd>>(12, 4, 8, 3);
}

#[test]
fn consistency_for_large_supports() {
    // Monomials with many variables exercise the deep forward/backward/cross
    // chains (the p2 structure).
    let mut rng = StdRng::seed_from_u64(21);
    let supports = psmd_core::banded_supports(20, 12, 10);
    let p: Polynomial<Dd> = psmd_core::polynomial_with_supports(supports, 20, 6, &mut rng);
    let z = random_inputs::<Dd, _>(20, 6, &mut rng);
    let naive = evaluate_naive(&p, &z);
    let engine = Engine::builder().threads(0).build();
    let scheduled = engine
        .compile(p)
        .request(&z)
        .sequential()
        .run()
        .into_single();
    let diff = naive.max_difference(&scheduled);
    assert!(diff < 1e-22, "difference {diff}");
}

/// Batched evaluation must agree with the sequential evaluator on every
/// instance of the batch, within the same precision-scaled tolerance the
/// naive/scheduled comparison uses.
fn check_batch_consistency<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
    batch_size: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let batch: Vec<Vec<Series<C>>> = (0..batch_size)
        .map(|_| random_inputs::<C, _>(n, degree, &mut rng))
        .collect();
    let engine = Engine::builder().threads(3).build();
    let plan = engine.compile(p);
    let tol = tolerance::<C>(degree, monomials);
    let batched = plan.request(&batch).sequential().run().into_batch();
    assert_eq!(batched.len(), batch_size);
    for (i, (inputs, got)) in batch.iter().zip(batched.instances.iter()).enumerate() {
        let want = plan.request(inputs).sequential().run().into_single();
        let diff = got.max_difference(&want);
        let ulps = got.max_ulp_difference(&want);
        assert!(
            diff <= tol,
            "batched vs sequential differ by {diff:e} ({ulps:.1} ulps; \
             tolerance {tol:e}) for seed {seed}, instance {i}"
        );
    }
    // The pool-parallel batch must match the sequential batch bitwise.
    let parallel = plan.request(&batch).run().into_batch();
    for (seq, par) in batched.instances.iter().zip(parallel.instances.iter()) {
        assert_eq!(
            seq.value, par.value,
            "parallel batch must be bitwise identical"
        );
        assert_eq!(seq.gradient, par.gradient);
    }
    // One launch per layer for the whole batch, never per instance.
    let schedule = plan.schedule().expect("single plan");
    assert_eq!(
        parallel.timings.convolution_launches,
        schedule.convolution_layers.len()
    );
    assert_eq!(
        parallel.timings.convolution_blocks,
        batch_size * schedule.convolution_jobs()
    );
}

#[test]
fn batch_consistency_across_precisions() {
    check_batch_consistency::<Md<1>>(101, 6, 12, 5, 5);
    check_batch_consistency::<Dd>(102, 6, 12, 5, 5);
    check_batch_consistency::<Md<3>>(103, 5, 10, 4, 4);
    check_batch_consistency::<Qd>(104, 5, 10, 4, 4);
    check_batch_consistency::<Md<5>>(105, 5, 8, 4, 3);
    check_batch_consistency::<Md<8>>(106, 4, 8, 3, 3);
    check_batch_consistency::<Deca>(107, 4, 8, 3, 3);
}

#[test]
fn batch_consistency_for_complex_coefficients() {
    check_batch_consistency::<Complex<Dd>>(111, 5, 10, 4, 4);
    check_batch_consistency::<Complex<Qd>>(112, 4, 8, 3, 3);
    check_batch_consistency::<Complex<Deca>>(113, 4, 6, 2, 3);
}

#[test]
fn batch_handles_empty_and_singleton_batches() {
    let mut rng = StdRng::seed_from_u64(121);
    let p: Polynomial<Dd> = random_polynomial(5, 8, 4, 3, &mut rng);
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(p);
    let empty: Vec<Vec<Series<Dd>>> = Vec::new();
    assert!(plan
        .request(&empty)
        .sequential()
        .run()
        .into_batch()
        .is_empty());
    let z = random_inputs::<Dd, _>(5, 3, &mut rng);
    let one = plan
        .request(std::slice::from_ref(&z))
        .sequential()
        .run()
        .into_batch();
    let single = plan.request(&z).sequential().run().into_single();
    assert_eq!(one.instances[0].value, single.value);
    assert_eq!(one.instances[0].gradient, single.gradient);
}

/// The limb bits of the first `j` coefficients of every output series
/// (value, then each gradient component).
fn bits_below<C: Coeff>(e: &Evaluation<C>, j: usize) -> Vec<u64> {
    let mut limbs = vec![0.0; C::doubles_per_value()];
    let mut bits = Vec::new();
    for series in std::iter::once(&e.value).chain(&e.gradient) {
        for c in &series.coeffs()[..j] {
            c.write_limbs(&mut limbs);
            bits.extend(limbs.iter().map(|l| l.to_bits()));
        }
    }
    bits
}

/// Truncation causality of default-option plans: perturbing input
/// coefficient `j` — to a finite value, `inf` or NaN — leaves every value
/// and gradient coefficient below `j` bitwise unchanged, on the single
/// (pooled and sequential) and the batched lane paths.
fn check_truncation_causality<C: Coeff + RandomCoeff>(seed: u64) {
    let (n, degree, batch_size) = (4, 6, 6);
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, 8, 3, degree, &mut rng);
    let batch: Vec<Vec<Series<C>>> = (0..batch_size)
        .map(|_| random_inputs::<C, _>(n, degree, &mut rng))
        .collect();
    let engine = Engine::builder().threads(2).build();
    // Four lanes over six instances: one lane group plus two scalar
    // remainder instances.
    let options = EvalOptions::new().with_simd(SimdMode::ForceWidth(4));
    let plan = engine.compile_with_options(p, options);
    let base = plan.request(&batch).run().into_batch();
    assert_eq!(base.timings.simd_width, 4);
    for j in [1, 4, degree] {
        for bad in [0.75, f64::INFINITY, f64::NAN] {
            let what = format!("coefficient {j} := {bad}");
            let mut perturbed = batch.clone();
            for z in &mut perturbed {
                z[j % n].set_coeff(j, C::from_f64(bad));
            }
            let single = plan.request(&batch[0]).run().into_single();
            for run in [
                plan.request(&perturbed[0]).run().into_single(),
                plan.request(&perturbed[0]).sequential().run().into_single(),
            ] {
                assert_eq!(bits_below(&run, j), bits_below(&single, j), "{what}");
                assert_ne!(
                    bits_below(&run, j + 1),
                    bits_below(&single, j + 1),
                    "{what}: the perturbation must reach coefficient {j}"
                );
            }
            let lanes = plan.request(&perturbed).run().into_batch();
            for (i, (got, want)) in lanes.instances.iter().zip(&base.instances).enumerate() {
                assert_eq!(
                    bits_below(got, j),
                    bits_below(want, j),
                    "{what}: instance {i}"
                );
            }
        }
    }
}

#[test]
fn lower_coefficients_ignore_higher_input_coefficients() {
    check_truncation_causality::<Dd>(131);
    check_truncation_causality::<Complex<Qd>>(132);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random structure, random batch size, double-double: every batched
    /// instance matches the sequential evaluator.
    #[test]
    fn random_batches_evaluate_consistently(
        seed in 0u64..10_000,
        n in 2usize..8,
        monomials in 1usize..16,
        degree in 0usize..6,
        batch in 1usize..9,
    ) {
        check_batch_consistency::<Dd>(seed, n, monomials, degree, batch);
    }

    /// Quad-double and complex double-double batched consistency on random
    /// structures (smaller sizes, higher-cost arithmetic).
    #[test]
    fn random_batches_evaluate_consistently_qd_and_complex(
        seed in 0u64..10_000,
        n in 2usize..6,
        monomials in 1usize..10,
        degree in 0usize..5,
        batch in 1usize..6,
    ) {
        check_batch_consistency::<Qd>(seed, n, monomials, degree, batch);
        check_batch_consistency::<Complex<Dd>>(seed, n, monomials, degree, batch);
    }

    /// Random structure, double-double precision: the three evaluators agree.
    #[test]
    fn random_polynomials_evaluate_consistently(
        seed in 0u64..10_000,
        n in 2usize..8,
        monomials in 1usize..16,
        degree in 0usize..8,
    ) {
        check_consistency::<Dd>(seed, n, monomials, degree);
    }

    /// The gradient of a sum of polynomials is the sum of the gradients
    /// (linearity), checked through the public API.
    #[test]
    fn evaluation_is_linear_in_the_polynomial(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let degree = 4;
        let n = 5;
        let p1: Polynomial<Dd> = random_polynomial(n, 6, 4, degree, &mut rng);
        let p2: Polynomial<Dd> = random_polynomial(n, 5, 4, degree, &mut rng);
        let z = random_inputs::<Dd, _>(n, degree, &mut rng);
        // Concatenating the monomials (and adding the constants) evaluates to
        // the sum of the separate evaluations.
        let mut monomials = p1.monomials().to_vec();
        monomials.extend_from_slice(p2.monomials());
        let sum_poly = Polynomial::new(
            n,
            p1.constant().add(p2.constant()),
            monomials,
        );
        let engine = Engine::builder().threads(0).build();
        let e1 = engine.compile(p1).request(&z).sequential().run().into_single();
        let e2 = engine.compile(p2).request(&z).sequential().run().into_single();
        let es = engine.compile(sum_poly).request(&z).sequential().run().into_single();
        let tol = 1e-24;
        prop_assert!(es.value.distance(&e1.value.add(&e2.value)) < tol);
        for v in 0..n {
            prop_assert!(
                es.gradient[v]
                    .distance(&e1.gradient[v].add(&e2.gradient[v]))
                    < tol
            );
        }
    }
}
