//! Seeded stress loop for the convolution kernel ladder.
//!
//! The sub-quadratic kernels change the scratch layout per plan (Karatsuba
//! recursion buffers, the FFT's separate `f64` transform buffer) while each
//! plan recycles its parked workspaces across its pooled and sequential
//! runs — exactly the kind of state reuse where a stale size check or a
//! missed re-warm only surfaces after many mixed evaluations.  This loop cycles random
//! structures, degrees that span the whole crossover ladder and every
//! kernel on ONE shared engine, and checks every pooled run bitwise against
//! the same plan's `.sequential()` run — the contention check of the worker
//! pool's claim loop.  CI runs it with `PSMD_STRESS_ITERS=200` under the
//! thread-count matrix, while the default (25) keeps `cargo test`
//! affordable.

use psmd_core::{
    random_inputs, random_polynomial, ConvolutionKernel, Engine, EvalOptions, Polynomial,
};
use psmd_multidouble::{Coeff, Dd};
use psmd_runtime::WorkerPool;
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn iterations() -> usize {
    std::env::var("PSMD_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

fn stress_engine() -> Engine {
    let threads = WorkerPool::threads_from_env().unwrap_or(4);
    Engine::builder().threads(threads).build()
}

/// The kernel cycled at iteration `iter` (never `Direct`, the default
/// kernel, which is the reference side of every comparison).
fn kernel_for(iter: usize) -> ConvolutionKernel {
    match iter % 3 {
        0 => ConvolutionKernel::Karatsuba,
        1 => ConvolutionKernel::Fft,
        _ => ConvolutionKernel::Auto,
    }
}

#[test]
fn kernel_ladder_stress_loop() {
    let iters = iterations();
    let engine = stress_engine();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for iter in 0..iters {
        let n = rng.gen_range(2..7);
        let monomials = rng.gen_range(1..10);
        // Span the whole ladder: below the Karatsuba crossover, between the
        // two, and past the FFT crossover.
        let degree = rng.gen_range(0..72);
        let kernel = kernel_for(iter);
        let opts = EvalOptions::new().with_kernel(kernel);
        let p: Polynomial<Dd> = random_polynomial(n, monomials, n.min(5), degree, &mut rng);
        let tol = Dd::unit_roundoff() * ((degree + 1) * (monomials + 4)) as f64 * 4096.0;
        match iter % 2 {
            // Single evaluation: kernel vs direct reference within
            // tolerance; pooled vs sequential bitwise for the same kernel.
            0 => {
                let z = random_inputs::<Dd, _>(n, degree, &mut rng);
                let reference = engine.compile(p.clone()).request(&z).run().into_single();
                let plan = engine.compile_with_options(p, opts);
                let a = plan.request(&z).run().into_single();
                let b = plan.request(&z).sequential().run().into_single();
                assert_eq!(a.value, b.value, "iteration {iter}: {kernel:?} value");
                assert_eq!(a.gradient, b.gradient, "iteration {iter}: gradient");
                let diff = a.max_difference(&reference);
                assert!(
                    diff <= tol,
                    "iteration {iter}: {kernel:?} vs reference {diff:e} > {tol:e}"
                );
            }
            // Fused system evaluation, same two comparisons.
            _ => {
                let m = rng.gen_range(1..4);
                let system: Vec<Polynomial<Dd>> = std::iter::once(p)
                    .chain(
                        (1..m).map(|_| random_polynomial(n, monomials, n.min(5), degree, &mut rng)),
                    )
                    .collect();
                let z = random_inputs::<Dd, _>(n, degree, &mut rng);
                let reference = engine
                    .compile(system.clone())
                    .request(&z)
                    .run()
                    .into_system();
                let plan = engine.compile_with_options(system, opts);
                let a = plan.request(&z).run().into_system();
                let b = plan.request(&z).sequential().run().into_system();
                assert_eq!(a.values, b.values, "iteration {iter}: system values");
                assert_eq!(a.jacobian, b.jacobian, "iteration {iter}: jacobian");
                let diff = a.max_difference(&reference);
                assert!(
                    diff <= tol,
                    "iteration {iter}: {kernel:?} system vs reference {diff:e} > {tol:e}"
                );
            }
        }
        // Batched evaluation rides along every few iterations: the pooled
        // workspaces just used for the reference kernel are recycled for a
        // sub-quadratic plan of a different scratch footprint.
        if iter % 5 == 0 {
            let bn = 3;
            let bdeg = rng.gen_range(0..56);
            let bp: Polynomial<Dd> = random_polynomial(bn, 4, 3, bdeg, &mut rng);
            let batch: Vec<Vec<Series<Dd>>> = (0..rng.gen_range(1..5))
                .map(|_| random_inputs::<Dd, _>(bn, bdeg, &mut rng))
                .collect();
            let plan = engine.compile_with_options(bp, opts);
            let batched = plan.request(&batch).run().into_batch();
            for (i, (inputs, got)) in batch.iter().zip(batched.instances.iter()).enumerate() {
                let want = plan.request(inputs).run().into_single();
                assert_eq!(got.value, want.value, "iteration {iter}: batch value {i}");
                assert_eq!(got.gradient, want.gradient, "iteration {iter}: batch {i}");
            }
        }
    }
}
