//! The ulp-bounded accuracy layer of the convolution kernel ladder.
//!
//! The ladder trades exactness classes for speed, and this suite pins each
//! class down end to end through the engine:
//!
//! * **Direct** (the schoolbook loop, the default): the reference results.
//! * **Karatsuba**: bitwise identical to the direct kernel below the
//!   recursion threshold (the base case *is* the direct loop); above it,
//!   bounded in ulps of the working precision against the direct reference.
//! * **Digit-FFT**: never bitwise (the digit transform re-associates every
//!   sum), but bounded by its documented per-element ulp budget on
//!   well-scaled data and by a convolution-scale bound on adversarial data.
//!
//! Every gate runs across all seven `Md<N>` precisions, real and complex
//! coefficients, single/batch/system evaluation and both execution modes.

use proptest::prelude::*;
use psmd_core::{
    evaluate_naive, random_inputs, random_polynomial, ConvolutionKernel, Engine, EvalOptions,
    ExecMode, Monomial, Polynomial,
};
use psmd_multidouble::{Coeff, Complex, Dd, Deca, Md, Qd, RandomCoeff};
use psmd_series::{Series, KARATSUBA_THRESHOLD};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Absolute tolerance scaled by the precision's unit roundoff, the workload
/// size and the kernel's documented ulp budget class.
fn kernel_tolerance<C: Coeff>(kernel: ConvolutionKernel, degree: usize, monomials: usize) -> f64 {
    let ops = ((degree + 1) * (monomials + 4)) as f64;
    let budget = match kernel {
        // The same re-association allowance the cross-evaluator
        // consistency suites use.
        ConvolutionKernel::Karatsuba => 64.0,
        // The digit-FFT budget: psmd_series::fft_ulp_budget (256) per
        // element, times a margin for accumulation across the schedule.
        ConvolutionKernel::Fft => 4096.0,
        _ => 64.0,
    };
    C::unit_roundoff() * ops * budget
}

fn options(kernel: ConvolutionKernel) -> EvalOptions {
    EvalOptions::new().with_kernel(kernel)
}

/// One accuracy check: random polynomial, random inputs, `kernel` vs the
/// direct reference plan, absolute and ulp reporting.
fn check_kernel<C: Coeff + RandomCoeff>(
    kernel: ConvolutionKernel,
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let z = random_inputs::<C, _>(n, degree, &mut rng);
    let engine = Engine::builder().threads(3).build();
    let reference = engine.compile(p.clone());
    let plan = engine.compile_with_options(p, options(kernel));
    assert_eq!(plan.options().kernel, kernel);
    let want = reference.request(&z).run().into_single();
    let got = plan.request(&z).run().into_single();
    let tol = kernel_tolerance::<C>(kernel, degree, monomials);
    let diff = got.max_difference(&want);
    let ulps = got.max_ulp_difference(&want);
    assert!(
        diff <= tol,
        "{kernel:?} vs direct differ by {diff:e} ({ulps:.1} ulps; \
         tolerance {tol:e}) for seed {seed}, degree {degree}"
    );
    // The parallel run of the same plan stays bitwise identical to its own
    // sequential run — kernel choice never breaks determinism.
    let seq = plan.request(&z).sequential().run().into_single();
    assert_eq!(seq.value, got.value, "parallel must be bitwise identical");
    assert_eq!(seq.gradient, got.gradient);
}

#[test]
fn karatsuba_accuracy_across_precisions() {
    let k = ConvolutionKernel::Karatsuba;
    check_kernel::<Md<1>>(k, 301, 6, 12, 24);
    check_kernel::<Dd>(k, 302, 6, 12, 24);
    check_kernel::<Md<3>>(k, 303, 5, 10, 22);
    check_kernel::<Qd>(k, 304, 5, 10, 22);
    check_kernel::<Md<5>>(k, 305, 5, 8, 20);
    check_kernel::<Md<8>>(k, 306, 4, 8, 18);
    check_kernel::<Deca>(k, 307, 4, 8, 18);
}

#[test]
fn fft_accuracy_across_precisions() {
    let k = ConvolutionKernel::Fft;
    check_kernel::<Md<1>>(k, 311, 6, 12, 24);
    check_kernel::<Dd>(k, 312, 6, 12, 24);
    check_kernel::<Md<3>>(k, 313, 5, 10, 22);
    check_kernel::<Qd>(k, 314, 5, 10, 22);
    check_kernel::<Md<5>>(k, 315, 5, 8, 20);
    check_kernel::<Md<8>>(k, 316, 4, 8, 18);
    check_kernel::<Deca>(k, 317, 4, 8, 18);
}

#[test]
fn kernel_accuracy_for_complex_coefficients() {
    for k in [ConvolutionKernel::Karatsuba, ConvolutionKernel::Fft] {
        check_kernel::<Complex<Dd>>(k, 321, 5, 10, 22);
        check_kernel::<Complex<Qd>>(k, 322, 4, 8, 20);
        check_kernel::<Complex<Deca>>(k, 323, 4, 6, 18);
    }
}

#[test]
fn auto_matches_its_resolved_kernel_bitwise() {
    // An Auto plan and a plan compiled with the kernel Auto resolves to
    // must produce bitwise identical results: Auto is resolution, not a
    // fourth algorithm.
    for degree in [8usize, 20, 64] {
        let mut rng = StdRng::seed_from_u64(331 + degree as u64);
        let p: Polynomial<Dd> = random_polynomial(5, 8, 4, degree, &mut rng);
        let z = random_inputs::<Dd, _>(5, degree, &mut rng);
        let engine = Engine::builder().threads(0).build();
        let auto = engine.compile_with_options(p.clone(), options(ConvolutionKernel::Auto));
        let resolved = auto.options().kernel;
        assert_ne!(resolved, ConvolutionKernel::Auto, "Auto must resolve");
        assert_eq!(resolved, psmd_core::auto_kernel(2, degree));
        let explicit = engine.compile_with_options(p, options(resolved));
        let a = auto.request(&z).run().into_single();
        let b = explicit.request(&z).run().into_single();
        assert_eq!(a.value, b.value);
        assert_eq!(a.gradient, b.gradient);
    }
}

/// Karatsuba's base case is the direct convolution loop, so below the
/// recursion threshold the two kernels are bit-for-bit the same through the
/// whole engine.
#[test]
fn karatsuba_is_bitwise_direct_below_threshold() {
    for degree in [0usize, 1, 7, KARATSUBA_THRESHOLD - 1] {
        let mut rng = StdRng::seed_from_u64(341 + degree as u64);
        let p: Polynomial<Qd> = random_polynomial(5, 10, 4, degree, &mut rng);
        let z = random_inputs::<Qd, _>(5, degree, &mut rng);
        let engine = Engine::builder().threads(0).build();
        let kara = engine.compile_with_options(p.clone(), options(ConvolutionKernel::Karatsuba));
        let direct = engine.compile_with_options(p, options(ConvolutionKernel::Direct));
        let a = kara.request(&z).run().into_single();
        let b = direct.request(&z).run().into_single();
        assert_eq!(a.value, b.value, "degree {degree}: value must be bitwise");
        assert_eq!(a.gradient, b.gradient, "degree {degree}: gradient");
    }
}

/// Batch and system evaluation agree with the per-instance/per-equation
/// runs under both sub-quadratic kernels and both execution modes.
#[test]
fn kernels_agree_across_batch_system_and_exec_modes() {
    let degree = 20;
    for kernel in [ConvolutionKernel::Karatsuba, ConvolutionKernel::Fft] {
        for exec in [ExecMode::Layered, ExecMode::Graph] {
            let opts = options(kernel).with_exec_mode(exec);
            let mut rng = StdRng::seed_from_u64(351);
            let engine = Engine::builder().threads(3).build();
            // Batch: every instance matches its own single evaluation
            // bitwise (same kernel, same plan, same job order).
            let p: Polynomial<Dd> = random_polynomial(5, 8, 4, degree, &mut rng);
            let batch: Vec<Vec<Series<Dd>>> = (0..4)
                .map(|_| random_inputs::<Dd, _>(5, degree, &mut rng))
                .collect();
            let plan = engine.compile_with_options(p, opts);
            let batched = plan.request(&batch).run().into_batch();
            for (inputs, got) in batch.iter().zip(batched.instances.iter()) {
                let want = plan.request(inputs).run().into_single();
                assert_eq!(got.value, want.value, "{kernel:?}/{exec:?} batch value");
                assert_eq!(got.gradient, want.gradient);
            }
            // System: the fused plan matches the naive per-equation oracle
            // within the kernel's tolerance.
            let system: Vec<Polynomial<Dd>> = (0..3)
                .map(|_| random_polynomial(5, 6, 4, degree, &mut rng))
                .collect();
            let z = random_inputs::<Dd, _>(5, degree, &mut rng);
            let sys_plan = engine.compile_with_options(system.clone(), opts);
            let fused = sys_plan.request(&z).run().into_system();
            let tol = kernel_tolerance::<Dd>(kernel, degree, 3 * 6);
            for (i, p) in system.iter().enumerate() {
                let naive = evaluate_naive(p, &z);
                let diff = fused.equation(i).max_difference(&naive);
                assert!(
                    diff <= tol,
                    "{kernel:?}/{exec:?} system eq {i}: {diff:e} > {tol:e}"
                );
            }
        }
    }
}

/// Builds a series whose coefficients mix huge and tiny magnitudes (~300
/// binary orders apart) with alternating signs — the adversarial case for
/// any kernel that re-associates sums.
fn adversarial_series(degree: usize, seed: u64, spread: bool) -> Series<Dd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let coeffs: Vec<Dd> = (0..=degree)
        .map(|k| {
            let base = Dd::random_unit(&mut rng);
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            let exp = if spread {
                ((k as i32 * 37) % 301) - 150
            } else {
                0
            };
            base.mul(&Dd::from_f64(sign * 2f64.powi(exp)))
        })
        .collect();
    Series::from_coeffs(coeffs)
}

/// Adversarial inputs through the engine: huge/tiny magnitude mixes and
/// cancellation-heavy alternating signs.  The gate is in ulps of the
/// result scale (`max_difference` against the direct reference,
/// relative to its largest coefficient), because element-relative ulps are
/// unbounded under catastrophic cancellation for *any* kernel.
#[test]
fn kernels_survive_adversarial_inputs() {
    let degree = 40;
    let n = 3;
    let mut rng = StdRng::seed_from_u64(361);
    let p: Polynomial<Dd> = random_polynomial(n, 6, 3, degree, &mut rng);
    for (case, spread) in [("cancellation", false), ("huge-tiny", true)] {
        let z: Vec<Series<Dd>> = (0..n)
            .map(|v| adversarial_series(degree, 362 + v as u64, spread))
            .collect();
        let engine = Engine::builder().threads(0).build();
        let reference = engine.compile(p.clone()).request(&z).run().into_single();
        let scale = reference
            .value
            .max_magnitude()
            .max(
                reference
                    .gradient
                    .iter()
                    .map(|g| g.max_magnitude())
                    .fold(0.0, f64::max),
            )
            .max(1.0);
        for kernel in [ConvolutionKernel::Karatsuba, ConvolutionKernel::Fft] {
            let got = engine
                .compile_with_options(p.clone(), options(kernel))
                .request(&z)
                .run()
                .into_single();
            let diff = got.max_difference(&reference);
            let tol = Dd::unit_roundoff() * scale * ((degree + 1) as f64) * 4096.0;
            assert!(
                diff <= tol,
                "{kernel:?} on {case}: {diff:e} > {tol:e} (scale {scale:e})"
            );
        }
    }
}

/// All-zero and single-term inputs are computed exactly by every kernel
/// (the FFT takes its all-zero early-out; a single term never cancels).
#[test]
fn kernels_are_exact_on_zero_and_single_term_inputs() {
    let degree = 24;
    let p = Polynomial::new(
        3,
        Series::constant(Qd::from_f64(0.5), degree),
        vec![Monomial::new(
            Series::constant(Qd::from_f64(2.0), degree),
            vec![0, 1, 2],
        )],
    );
    let engine = Engine::builder().threads(0).build();
    for kernel in [
        ConvolutionKernel::Direct,
        ConvolutionKernel::Karatsuba,
        ConvolutionKernel::Fft,
    ] {
        let plan = engine.compile_with_options(p.clone(), options(kernel));
        // All-zero inputs: p(0) = 1/2, gradient identically zero.
        let zero = vec![Series::<Qd>::zero(degree); 3];
        let eval = plan.request(&zero).run().into_single();
        assert_eq!(eval.value.coeff(0).to_f64(), 0.5, "{kernel:?}");
        assert!(eval.value.coeffs()[1..].iter().all(|c| c.is_zero()));
        for g in &eval.gradient {
            assert!(g.coeffs().iter().all(|c| c.is_zero()), "{kernel:?}");
        }
        // Single-term inputs z_v = t: p = 1/2 + 2 t^3 exactly.
        let t: Vec<Series<Qd>> = (0..3)
            .map(|_| {
                let mut s = Series::<Qd>::zero(degree);
                s.set_coeff(1, Qd::from_f64(1.0));
                s
            })
            .collect();
        let eval = plan.request(&t).run().into_single();
        assert_eq!(eval.value.coeff(0).to_f64(), 0.5, "{kernel:?}");
        assert_eq!(eval.value.coeff(3).to_f64(), 2.0, "{kernel:?}");
        for (k, c) in eval.value.coeffs().iter().enumerate() {
            if k != 0 && k != 3 {
                assert!(c.is_zero(), "{kernel:?}: spurious coeff at {k}");
            }
        }
        // d/dz_0 = 2 z1 z2 = 2 t^2 exactly.
        assert_eq!(eval.gradient[0].coeff(2).to_f64(), 2.0, "{kernel:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random structures, random degrees spanning the crossover ladder:
    /// both sub-quadratic kernels stay within their documented budget of
    /// the direct reference (double-double).
    #[test]
    fn random_structures_stay_within_kernel_budgets(
        seed in 0u64..10_000,
        n in 2usize..6,
        monomials in 1usize..10,
        degree in 0usize..64,
    ) {
        check_kernel::<Dd>(ConvolutionKernel::Karatsuba, seed, n, monomials, degree);
        check_kernel::<Dd>(ConvolutionKernel::Fft, seed, n, monomials, degree);
    }

    /// Same property at quad-double with complex coefficients (smaller
    /// sizes, higher-cost arithmetic).
    #[test]
    fn random_complex_structures_stay_within_kernel_budgets(
        seed in 0u64..10_000,
        n in 2usize..5,
        monomials in 1usize..8,
        degree in 0usize..40,
    ) {
        check_kernel::<Complex<Qd>>(ConvolutionKernel::Karatsuba, seed, n, monomials, degree);
        check_kernel::<Complex<Qd>>(ConvolutionKernel::Fft, seed, n, monomials, degree);
    }
}
