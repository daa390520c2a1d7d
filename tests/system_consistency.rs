//! System-vs-naive consistency: the engine's fused system plan must produce
//! the same values and the same `m × n` Jacobian as evaluating every
//! equation independently with the naive baseline, across random systems,
//! every precision, and both real and complex coefficients.  This is the
//! end-to-end correctness argument for the shared-Jacobian schedule: merging
//! and deduplicating the equations' monomial sets changes the work sharing,
//! not the results.

use proptest::prelude::*;
use psmd_core::{
    evaluate_naive, evaluate_naive_system, random_inputs, random_polynomial, Engine, Monomial,
    Polynomial,
};
use psmd_multidouble::{Coeff, Complex, Dd, Deca, Md, Qd, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tolerance scaled by the precision's unit roundoff and the workload size
/// (the same scaling the single-polynomial consistency tests use).
fn tolerance<C: Coeff>(degree: usize, monomials: usize) -> f64 {
    let ops = ((degree + 1) * (monomials + 4)) as f64;
    C::unit_roundoff() * ops * 64.0
}

fn check_system_consistency<C: Coeff + RandomCoeff>(
    seed: u64,
    equations: usize,
    n: usize,
    monomials: usize,
    degree: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let system: Vec<Polynomial<C>> = (0..equations)
        .map(|_| random_polynomial(n, monomials, n.min(6), degree, &mut rng))
        .collect();
    let z = random_inputs::<C, _>(n, degree, &mut rng);
    let engine = Engine::builder().threads(3).build();
    let plan = engine.compile(system.clone());
    let schedule = plan.schedule().expect("compiled schedule");
    schedule.validate_layers().unwrap();
    let fused = plan.request(&z).sequential().run().into_system();
    let tol = tolerance::<C>(degree, equations * monomials);
    // Every equation's value and Jacobian row match the naive per-equation
    // oracle within the precision-scaled tolerance.
    for (i, p) in system.iter().enumerate() {
        let naive = evaluate_naive(p, &z);
        let got = fused.equation(i);
        let diff = got.max_difference(&naive);
        let ulps = got.max_ulp_difference(&naive);
        assert!(
            diff <= tol,
            "system vs naive differ by {diff:e} ({ulps:.1} ulps; tolerance {tol:e}) \
             for seed {seed}, equation {i}"
        );
    }
    // The convenience oracle agrees with the per-equation loop.
    let naive_sys = evaluate_naive_system(&system, &z);
    assert!(fused.max_difference(&naive_sys) <= tol);
    // The pool-parallel run must match the sequential run bitwise, with
    // exactly one launch per merged layer for the whole system.
    let parallel = plan.request(&z).run().into_system();
    assert_eq!(
        fused.values, parallel.values,
        "parallel must be bitwise identical"
    );
    assert_eq!(fused.jacobian, parallel.jacobian);
    assert_eq!(
        parallel.timings.convolution_launches,
        schedule.convolution_layers.len()
    );
    assert_eq!(
        parallel.timings.addition_launches,
        schedule.addition_layers.len()
    );
    assert_eq!(
        parallel.timings.convolution_blocks,
        schedule.convolution_jobs()
    );
}

#[test]
fn system_consistency_across_precisions() {
    check_system_consistency::<Md<1>>(201, 3, 6, 10, 5);
    check_system_consistency::<Dd>(202, 3, 6, 10, 5);
    check_system_consistency::<Md<3>>(203, 3, 5, 8, 4);
    check_system_consistency::<Qd>(204, 3, 5, 8, 4);
    check_system_consistency::<Md<5>>(205, 2, 5, 8, 4);
    check_system_consistency::<Md<8>>(206, 2, 4, 6, 3);
    check_system_consistency::<Deca>(207, 2, 4, 6, 3);
}

#[test]
fn system_consistency_for_complex_coefficients() {
    check_system_consistency::<Complex<Dd>>(211, 3, 5, 8, 4);
    check_system_consistency::<Complex<Qd>>(212, 2, 4, 6, 3);
    check_system_consistency::<Complex<Deca>>(213, 2, 4, 5, 2);
}

/// Equations that share no monomials reproduce their own single-polynomial
/// schedules inside the merged one: results are bitwise identical to the
/// per-equation single-polynomial plan.
#[test]
fn fused_system_is_bitwise_identical_without_sharing() {
    let mut rng = StdRng::seed_from_u64(227);
    let system: Vec<Polynomial<Qd>> = (0..4)
        .map(|_| random_polynomial(6, 9, 4, 4, &mut rng))
        .collect();
    let z = random_inputs::<Qd, _>(6, 4, &mut rng);
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(system.clone());
    if plan
        .schedule()
        .expect("compiled schedule")
        .deduplicated_monomials()
        != 0
    {
        // Random coefficients virtually never collide; if they do, the
        // bitwise guarantee does not apply.
        return;
    }
    let fused = plan.request(&z).sequential().run().into_system();
    for (i, p) in system.iter().enumerate() {
        let single = engine
            .compile(p.clone())
            .request(&z)
            .sequential()
            .run()
            .into_single();
        assert_eq!(fused.values[i], single.value, "value of equation {i}");
        assert_eq!(fused.jacobian[i], single.gradient, "Jacobian row {i}");
    }
}

/// A monomial repeated across equations (same variables, same coefficient)
/// is scheduled and computed once; the results still match the oracle.
#[test]
fn shared_monomials_across_equations_dedup_and_stay_correct() {
    let d = 3;
    let c = |x: f64| Series::<Dd>::constant(Dd::from_f64(x), d);
    let shared = || Monomial::new(c(2.5), vec![0, 2, 3]);
    let f1 = Polynomial::new(4, c(1.0), vec![shared(), Monomial::new(c(1.0), vec![1, 2])]);
    let f2 = Polynomial::new(4, c(-1.0), vec![shared(), Monomial::new(c(3.0), vec![0])]);
    let f3 = Polynomial::new(4, c(0.0), vec![shared()]);
    let system = vec![f1, f2, f3];
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(system.clone());
    let schedule = plan.schedule().expect("compiled schedule");
    assert_eq!(schedule.total_monomials(), 5);
    assert_eq!(schedule.unique_monomials(), 3);
    assert_eq!(schedule.deduplicated_monomials(), 2);
    let mut rng = StdRng::seed_from_u64(229);
    let z = random_inputs::<Dd, _>(4, d, &mut rng);
    let fused = plan.request(&z).sequential().run().into_system();
    let naive = evaluate_naive_system(&system, &z);
    let diff = fused.max_difference(&naive);
    assert!(diff < 1e-26, "difference {diff}");
}

/// A single polynomial compiles as the one-equation system, so a monomial
/// it repeats (same variables, same coefficient) is computed once, exactly
/// like a monomial shared across equations — and the results stay correct
/// and bitwise reproducible.
#[test]
fn repeated_monomial_of_a_single_polynomial_is_computed_once() {
    let d = 4;
    let c = |x: f64| Series::<Qd>::constant(Qd::from_f64(x), d);
    let repeated = || Monomial::new(c(1.5), vec![0, 2, 3]);
    let p = Polynomial::new(
        4,
        c(0.5),
        vec![
            repeated(),
            Monomial::new(c(2.0), vec![1, 2]),
            repeated(),
            Monomial::new(c(-1.0), vec![0]),
        ],
    );
    let engine = Engine::builder().threads(2).build();
    let plan = engine.compile(p.clone());
    let stats = plan.stats();
    assert_eq!(stats.total_monomials, 4);
    assert_eq!(stats.unique_monomials, 3);
    assert!(stats.unique_monomials < stats.total_monomials);
    let mut rng = StdRng::seed_from_u64(233);
    let z = random_inputs::<Qd, _>(4, d, &mut rng);
    let sequential = plan.request(&z).sequential().run();
    let got = sequential.as_single().expect("a single output");
    let naive = evaluate_naive(&p, &z);
    let tol = tolerance::<Qd>(d, p.num_monomials());
    let diff = got.max_difference(&naive);
    assert!(diff <= tol, "difference {diff:e} (tolerance {tol:e})");
    let pooled = plan.request(&z).run();
    assert!(
        sequential.bitwise_eq(&pooled),
        "the pooled run must be bitwise identical to the sequential one"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random system shape, double-double: fused values and Jacobian match
    /// the per-equation naive oracle, and the parallel path is bitwise
    /// identical with one launch per merged layer.
    #[test]
    fn random_systems_evaluate_consistently(
        seed in 0u64..10_000,
        equations in 1usize..5,
        n in 2usize..7,
        monomials in 1usize..12,
        degree in 0usize..6,
    ) {
        check_system_consistency::<Dd>(seed, equations, n, monomials, degree);
    }

    /// Quad-double and complex double-double system consistency on random
    /// structures (smaller sizes, higher-cost arithmetic).
    #[test]
    fn random_systems_evaluate_consistently_qd_and_complex(
        seed in 0u64..10_000,
        equations in 1usize..4,
        n in 2usize..6,
        monomials in 1usize..8,
        degree in 0usize..5,
    ) {
        check_system_consistency::<Qd>(seed, equations, n, monomials, degree);
        check_system_consistency::<Complex<Dd>>(seed, equations, n, monomials, degree);
    }

    /// Duplicating one equation's monomial into another equation never
    /// changes the results, only the amount of shared work.
    #[test]
    fn injected_sharing_preserves_results(
        seed in 0u64..10_000,
        n in 2usize..6,
        monomials in 2usize..8,
        degree in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f1: Polynomial<Dd> = random_polynomial(n, monomials, n.min(4), degree, &mut rng);
        let f2: Polynomial<Dd> = random_polynomial(n, monomials, n.min(4), degree, &mut rng);
        // Copy f1's first monomial into f2: the merged schedule dedups it.
        let mut monos = f2.monomials().to_vec();
        monos.push(f1.monomials()[0].clone());
        let f2_shared = Polynomial::new(n, f2.constant().clone(), monos);
        let system = vec![f1, f2_shared];
        let z = random_inputs::<Dd, _>(n, degree, &mut rng);
        let engine = Engine::builder().threads(0).build();
        let plan = engine.compile(system.clone());
        let schedule = plan.schedule().expect("compiled schedule");
        prop_assert_eq!(schedule.deduplicated_monomials(), 1);
        schedule.validate_layers().unwrap();
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        let tol = tolerance::<Dd>(degree, 2 * monomials + 1);
        let diff = fused.max_difference(&naive);
        prop_assert!(diff <= tol, "difference {} (tolerance {})", diff, tol);
    }
}
