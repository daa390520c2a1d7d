//! Evaluation-path identity: every configuration of the `Plan::request`
//! builder — fresh output, reused output (`.into`) and the sequential
//! reference (`.sequential`) — runs the exact same kernels over the exact
//! same schedule, whether its workspace is fresh or parked by an earlier
//! run of the plan, so their results must be **bitwise** identical —
//! across every precision, real and complex coefficients and
//! single/batch/system sources.  Every run of one plan shares its parked
//! workspaces, so the reference is a fresh plan's first run on another
//! engine.  This is the contract that makes the zero-allocation reuse
//! paths a pure memory optimization with no numerical footprint.

use proptest::prelude::*;
use psmd_core::{
    random_inputs, random_polynomial, Engine, EvalOutput, Inputs, PolySource, Polynomial,
};
use psmd_multidouble::{Coeff, Complex, Dd, Deca, Md, Qd, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_engine() -> Engine {
    Engine::builder().threads(3).build()
}

/// The first run of a fresh plan on a fresh engine: a workspace no earlier
/// run has touched.
fn fresh_run<C: Coeff>(source: PolySource<C>, inputs: Inputs<'_, C>) -> EvalOutput<C> {
    test_engine().compile(source).request(inputs).run()
}

/// Runs one input shape through every evaluation path of a plan compiled
/// from `source` and asserts they are all bitwise identical to a fresh
/// plan's first run on another engine.
fn check_all_paths<C: Coeff>(source: impl Into<PolySource<C>>, inputs: Inputs<'_, C>) {
    let source = source.into();
    let reference = fresh_run(source.clone(), inputs);
    let engine = test_engine();
    let plan = engine.compile(source);
    // Two runs in a row through the plan's parked workspace: stale state
    // from the first run must not leak into the second.
    let a = plan.request(inputs).run();
    assert!(reference.bitwise_eq(&a), "first run differs");
    let b = plan.request(inputs).run();
    assert!(
        reference.bitwise_eq(&b),
        "second run (parked workspace) differs"
    );
    // Reused output — warm it with a first call, then overwrite in place.
    let mut out = plan.request(inputs).run();
    plan.request(inputs).into(&mut out).run();
    assert!(reference.bitwise_eq(&out), "reused-output path differs");
    // The sequential reference agrees (pooled execution runs the same jobs
    // in the same per-slot order, layer by layer).
    let seq = plan.request(inputs).sequential().run();
    assert!(reference.bitwise_eq(&seq), "sequential differs");
}

/// Single-polynomial identity across all paths.
fn check_single_identity<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let z = random_inputs::<C, _>(n, degree, &mut rng);
    check_all_paths(p, Inputs::Single(&z));
}

/// Batch identity across all paths.
fn check_batch_identity<C: Coeff + RandomCoeff>(
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
    check_all_paths(p.clone(), Inputs::Batch(&batch));
    let engine = test_engine();
    let plan = engine.compile(p);
    // A batch result must also agree instance-by-instance with single
    // evaluations of the same plan.
    let batched = plan.request(&batch).run().into_batch();
    for (inputs, got) in batch.iter().zip(batched.instances.iter()) {
        let want = plan.request(inputs).run().into_single();
        assert_eq!(got.value, want.value, "batch vs single, seed {seed}");
        assert_eq!(got.gradient, want.gradient);
    }
}

/// System identity across all paths.
fn check_system_identity<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    equations: usize,
    monomials: usize,
    degree: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let system: Vec<Polynomial<C>> = (0..equations)
        .map(|_| random_polynomial(n, monomials, n.min(5), degree, &mut rng))
        .collect();
    let z = random_inputs::<C, _>(n, degree, &mut rng);
    check_all_paths(system, Inputs::Single(&z));
}

#[test]
fn single_identity_across_precisions_and_modes() {
    check_single_identity::<Md<1>>(201, 6, 12, 5);
    check_single_identity::<Dd>(202, 6, 12, 5);
    check_single_identity::<Md<3>>(203, 5, 10, 4);
    check_single_identity::<Qd>(204, 5, 10, 4);
    check_single_identity::<Md<5>>(205, 5, 8, 4);
    check_single_identity::<Md<8>>(206, 4, 8, 3);
    check_single_identity::<Deca>(207, 4, 8, 3);
}

#[test]
fn single_identity_for_complex_coefficients() {
    check_single_identity::<Complex<Dd>>(211, 5, 10, 4);
    check_single_identity::<Complex<Qd>>(212, 4, 8, 3);
    check_single_identity::<Complex<Deca>>(213, 4, 6, 2);
}

#[test]
fn batch_identity_across_precisions_and_modes() {
    check_batch_identity::<Md<1>>(301, 6, 10, 4, 5);
    check_batch_identity::<Dd>(302, 6, 10, 4, 5);
    check_batch_identity::<Qd>(304, 5, 8, 3, 4);
    check_batch_identity::<Md<5>>(305, 5, 8, 3, 3);
    check_batch_identity::<Deca>(307, 4, 6, 2, 3);
}

#[test]
fn batch_identity_for_complex_coefficients() {
    check_batch_identity::<Complex<Dd>>(311, 5, 8, 3, 4);
    check_batch_identity::<Complex<Qd>>(312, 4, 6, 2, 3);
}

#[test]
fn system_identity_across_precisions_and_modes() {
    check_system_identity::<Md<1>>(401, 5, 3, 8, 3);
    check_system_identity::<Dd>(402, 5, 3, 8, 3);
    check_system_identity::<Qd>(404, 4, 3, 6, 3);
    check_system_identity::<Md<8>>(406, 4, 2, 6, 2);
    check_system_identity::<Deca>(407, 4, 2, 6, 2);
}

#[test]
fn system_identity_for_complex_coefficients() {
    check_system_identity::<Complex<Dd>>(411, 4, 3, 6, 3);
    check_system_identity::<Complex<Qd>>(412, 4, 2, 5, 2);
}

/// One plan, alternating single and batch shapes through one reused output
/// and the plan's parked workspace: every reshape must produce exactly the
/// same results as a fresh plan's first run (stale buffers from the other
/// shape must never leak).
#[test]
fn shape_changes_through_one_workspace_and_output_stay_identical() {
    let mut rng = StdRng::seed_from_u64(991);
    let p: Polynomial<Dd> = random_polynomial(5, 8, 4, 4, &mut rng);
    let z = random_inputs::<Dd, _>(5, 4, &mut rng);
    let batch: Vec<Vec<Series<Dd>>> = (0..4)
        .map(|_| random_inputs::<Dd, _>(5, 4, &mut rng))
        .collect();
    let fresh_single = fresh_run(p.clone().into(), Inputs::Single(&z));
    let fresh_batch = fresh_run(p.clone().into(), Inputs::Batch(&batch));
    let engine = test_engine();
    let plan = engine.compile(p);
    let mut out = EvalOutput::Single(psmd_core::Evaluation::empty());
    for round in 0..3 {
        plan.request(&z).into(&mut out).run();
        assert!(fresh_single.bitwise_eq(&out), "single round {round}");
        plan.request(&batch).into(&mut out).run();
        assert!(fresh_batch.bitwise_eq(&out), "batch round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random structures, double-double: every evaluation path is bitwise
    /// interchangeable.
    #[test]
    fn random_single_plans_agree_across_paths(
        seed in 0u64..10_000,
        n in 2usize..8,
        monomials in 1usize..16,
        degree in 0usize..6,
    ) {
        check_single_identity::<Dd>(seed, n, monomials, degree);
    }

    /// Random batches through the unified inputs (quad-double and complex).
    #[test]
    fn random_batch_plans_agree_across_paths(
        seed in 0u64..10_000,
        n in 2usize..6,
        monomials in 1usize..10,
        degree in 0usize..5,
        batch in 1usize..6,
    ) {
        check_batch_identity::<Qd>(seed, n, monomials, degree, batch);
        check_batch_identity::<Complex<Dd>>(seed, n, monomials, degree, batch);
    }

    /// Random systems (shared monomials arise naturally from small variable
    /// counts) through the unified source.
    #[test]
    fn random_system_plans_agree_across_paths(
        seed in 0u64..10_000,
        n in 2usize..6,
        equations in 1usize..5,
        monomials in 1usize..8,
        degree in 0usize..4,
    ) {
        check_system_identity::<Dd>(seed, n, equations, monomials, degree);
    }
}
