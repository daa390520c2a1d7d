//! Edge cases of the convolution kernel ladder: degenerate degrees, odd
//! Karatsuba splits, non-power-of-two FFT sizes, aliased in-place staging
//! through deep monomial chains, the `Auto`-resolution plan-cache contract,
//! and the zero-allocation steady state of the sub-quadratic kernels.

use psmd_core::{
    auto_kernel, evaluate_naive, random_inputs, random_polynomial, ConvolutionKernel, Engine,
    EvalOptions, Monomial, Polynomial,
};
use psmd_multidouble::{Coeff, Dd, Qd, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Per-thread counting allocator, as in `workspace_alloc.rs`: the zero-worker
// engines under test run every kernel inline on the measuring thread.
#[global_allocator]
static ALLOCATOR: psmd_bench::CountingAllocator = psmd_bench::CountingAllocator;

const LADDER: [ConvolutionKernel; 3] = [
    ConvolutionKernel::Direct,
    ConvolutionKernel::Karatsuba,
    ConvolutionKernel::Fft,
];

fn options(kernel: ConvolutionKernel) -> EvalOptions {
    EvalOptions::new().with_kernel(kernel)
}

fn tolerance<C: Coeff>(degree: usize, monomials: usize) -> f64 {
    C::unit_roundoff() * ((degree + 1) * (monomials + 4)) as f64 * 4096.0
}

/// Compares every kernel against the naive oracle on one random structure.
fn check_all_kernels_at(seed: u64, n: usize, monomials: usize, degree: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<Dd> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let z = random_inputs::<Dd, _>(n, degree, &mut rng);
    let naive = evaluate_naive(&p, &z);
    let engine = Engine::builder().threads(0).build();
    let tol = tolerance::<Dd>(degree, monomials);
    for kernel in LADDER {
        let got = engine
            .compile_with_options(p.clone(), options(kernel))
            .request(&z)
            .run()
            .into_single();
        let diff = got.max_difference(&naive);
        assert!(
            diff <= tol,
            "{kernel:?} vs naive: {diff:e} > {tol:e} at degree {degree}, seed {seed}"
        );
    }
}

/// Degree 0 (pure constants) and degree 1 (linear series) are the smallest
/// convolutions; every kernel must take them, including the FFT whose
/// transform length is then 1 or 2.
#[test]
fn degenerate_degrees_work_on_every_kernel() {
    check_all_kernels_at(401, 5, 8, 0);
    check_all_kernels_at(402, 5, 8, 1);
}

/// Odd split sizes around the Karatsuba threshold: every degree in
/// `16..24` exercises a different (uneven) recursion tree, where the
/// low/high halves differ in length by one.
#[test]
fn odd_karatsuba_splits_are_correct() {
    for degree in 16..24 {
        check_all_kernels_at(410 + degree as u64, 4, 6, degree);
    }
}

/// Non-power-of-two convolution lengths force the FFT to round its
/// transform length up and zero-pad; the tail must stay clean.
#[test]
fn non_power_of_two_fft_sizes_are_correct() {
    for degree in [29usize, 47, 50, 63, 65, 97] {
        check_all_kernels_at(430 + degree as u64, 3, 4, degree);
    }
}

/// One deep monomial chains its forward products in place (`b := b * a`
/// through the arena), which is the aliased-staging path of
/// `run_convolution_job`: the stage buffers must fully decouple the
/// operands from the output before any kernel writes.
#[test]
fn aliased_inplace_staging_survives_every_kernel() {
    let degree = 48;
    let n = 8;
    let mut rng = StdRng::seed_from_u64(451);
    let coeff = Series::<Dd>::constant(Dd::from_f64(1.25), degree);
    // A single 8-variable monomial: 3*8 - 3 = 21 convolutions, most of
    // which write into one of their own operands' neighbourhood.
    let p = Polynomial::new(
        n,
        coeff.clone(),
        vec![Monomial::new(coeff, (0..n).collect())],
    );
    let z: Vec<Series<Dd>> = (0..n)
        .map(|_| Series::from_coeffs((0..=degree).map(|_| Dd::random_unit(&mut rng)).collect()))
        .collect();
    let naive = evaluate_naive(&p, &z);
    let tol = tolerance::<Dd>(degree, 1);
    let engine = Engine::builder().threads(3).build();
    for kernel in LADDER {
        let got = engine
            .compile_with_options(p.clone(), options(kernel))
            .request(&z)
            .run()
            .into_single();
        let diff = got.max_difference(&naive);
        assert!(diff <= tol, "{kernel:?}: {diff:e} > {tol:e}");
    }
}

/// The `Auto` plan-cache contract: the requested options key the cache (so
/// an `Auto` compile hits its own entry), the stored plan carries the
/// *resolved* kernel, and two `Auto` plans whose degrees resolve
/// differently never collide (the structural hash covers the degree).
#[test]
fn auto_resolution_is_part_of_the_plan_cache_key() {
    let mut rng = StdRng::seed_from_u64(461);
    let engine = Engine::builder().threads(0).build();
    let before = engine.cache_stats();

    // Dd has 2 limbs per component: degree 8 resolves to the direct loop,
    // degree 64 (past fft_from = 48) to the digit-FFT.
    let p_small: Polynomial<Dd> = random_polynomial(4, 6, 3, 8, &mut rng);
    let p_large: Polynomial<Dd> = random_polynomial(4, 6, 3, 64, &mut rng);
    let small = engine.compile_with_options(p_small.clone(), options(ConvolutionKernel::Auto));
    let large = engine.compile_with_options(p_large, options(ConvolutionKernel::Auto));
    assert_eq!(small.options().kernel, auto_kernel(2, 8));
    assert_eq!(large.options().kernel, auto_kernel(2, 64));
    assert_eq!(small.options().kernel, ConvolutionKernel::Direct);
    assert_eq!(large.options().kernel, ConvolutionKernel::Fft);
    assert!(
        !std::sync::Arc::ptr_eq(&small, &large),
        "plans of different degrees must be distinct cache entries"
    );

    // Recompiling the same source with Auto hits the cache and returns the
    // very same plan (requested options key the entry, not resolved ones).
    let again = engine.compile_with_options(p_small.clone(), options(ConvolutionKernel::Auto));
    assert!(std::sync::Arc::ptr_eq(&small, &again));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses - before.misses, 2, "two distinct compiles");
    assert_eq!(stats.hits - before.hits, 1, "one cache hit");

    // An explicit direct compile of the small source is a separate entry
    // from the Auto compile, even though both resolve to the same kernel:
    // the cache keys on what the caller asked for.
    let explicit = engine.compile_with_options(p_small, options(ConvolutionKernel::Direct));
    assert!(!std::sync::Arc::ptr_eq(&small, &explicit));
    assert_eq!(explicit.options().kernel, ConvolutionKernel::Direct);
    assert_eq!(engine.cache_stats().misses - before.misses, 3);
}

/// The sub-quadratic kernels keep the zero-allocation steady state: after
/// one warm-up call, the reused-output request path performs zero heap traffic on a
/// zero-worker engine — the kernel-aware scratch (including the FFT's
/// separate `f64` buffer) is sized once at warm-up.
#[test]
fn subquadratic_kernels_keep_the_zero_alloc_steady_state() {
    // Degree 48 puts Qd past the FFT crossover, so the Auto plan runs the
    // digit-FFT with real transform scratch in play.
    let d = 48;
    let p: Polynomial<Qd> = {
        let coeff = |x: f64| Series::constant(Qd::from_f64(x), d);
        Polynomial::new(
            6,
            coeff(0.5),
            vec![
                Monomial::new(coeff(1.0), vec![0, 2, 5]),
                Monomial::new(coeff(2.0), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0), vec![1, 2, 3]),
            ],
        )
    };
    let mut rng = StdRng::seed_from_u64(471);
    let z = random_inputs::<Qd, _>(6, d, &mut rng);
    for (kernel, label) in [
        (ConvolutionKernel::Karatsuba, "karatsuba"),
        (ConvolutionKernel::Fft, "fft"),
        (ConvolutionKernel::Auto, "auto"),
    ] {
        let engine = Engine::builder().threads(0).build();
        let plan = engine.compile_with_options(p.clone(), options(kernel));
        let mut out = plan.request(&z).run();
        plan.request(&z).into(&mut out).run();
        let reference = plan.request(&z).run();
        let counts = psmd_bench::measure_allocs(|| {
            for _ in 0..10 {
                plan.request(&z).into(&mut out).run();
            }
        });
        assert_eq!(
            counts.allocs, 0,
            "{label}: steady-state allocations ({} B)",
            counts.bytes
        );
        assert_eq!(counts.deallocs, 0, "{label}: deallocations");
        assert!(reference.bitwise_eq(&out), "{label}: results drifted");
    }
}
