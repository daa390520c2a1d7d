//! Seeded stress loop for the SIMD lane tier.
//!
//! Lane-panel evaluation shares each plan's parked workspaces between its
//! pooled and sequential runs and across batch sizes, and its gather /
//! convolve / scatter path re-partitions every layer's `(job, instance)`
//! pairs into panels plus a scalar remainder — exactly the kind of layout
//! churn where a stale panel size, a missed re-warm or an off-by-one in the
//! lane partition only surfaces after many mixed evaluations.  This loop cycles random
//! structures, degrees, batch sizes, lane widths and precisions over
//! long-lived engines, asserting the lane tier's hard invariant every
//! iteration, for one input vector and for a batch: **bitwise identity with
//! the scalar path, per instance** — pooled and `.sequential()` alike.  CI
//! runs it with `PSMD_STRESS_ITERS=200` under the `PSMD_SIMD` matrix, while
//! the default (25) keeps `cargo test` affordable.

use psmd_core::{random_inputs, random_polynomial, Engine, Polynomial, SimdMode};
use psmd_multidouble::{Coeff, Complex, Dd, Md, Qd, RandomCoeff};
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

fn engine_with(simd: SimdMode) -> Engine {
    let threads = WorkerPool::threads_from_env().unwrap_or(2);
    Engine::builder().threads(threads).simd(simd).build()
}

/// One iteration at one coefficient type: a random plan, one input vector
/// and a batch evaluated under a forced lane width (pooled and sequential)
/// and under the scalar mode, on engines that live across the whole loop
/// (workspace recycling included).
fn stress_iteration<C: Coeff + RandomCoeff>(
    scalar_engine: &Engine,
    lane_engine: &Engine,
    iter: usize,
    width: usize,
    rng: &mut StdRng,
) {
    let n = rng.gen_range(2..6);
    let monomials = rng.gen_range(1..9);
    let degree = rng.gen_range(0..12);
    // Batch sizes on both sides of the lane width and its multiples.
    let batch_size = rng.gen_range(1..(2 * width + 4));
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(5), degree, rng);
    let batch: Vec<Vec<Series<C>>> = (0..batch_size)
        .map(|_| random_inputs::<C, _>(n, degree, rng))
        .collect();
    let scalar_plan = scalar_engine.compile(p.clone());
    let scalar = scalar_plan.request(&batch).run().into_batch();
    let lane_plan = lane_engine.compile(p);
    let lanes = lane_plan.request(&batch).run().into_batch();
    let sequential = lane_plan.request(&batch).sequential().run().into_batch();
    // At least one panel runs when some layer holds `width` pairs.
    let sizes = lane_plan
        .schedule()
        .expect("compiled schedule")
        .convolution_layer_sizes();
    let reported = |instances: usize| {
        if sizes.iter().any(|&jobs| jobs * instances >= width) {
            width
        } else {
            1
        }
    };
    assert_eq!(
        lanes.timings.simd_width,
        reported(batch_size),
        "iteration {iter}: lane run must report the width its panels ran at"
    );
    let single = scalar_plan.request(&batch[0]).run();
    for (run, how) in [
        (lane_plan.request(&batch[0]).run(), "pooled"),
        (
            lane_plan.request(&batch[0]).sequential().run(),
            "sequential",
        ),
    ] {
        assert!(
            single.bitwise_eq(&run),
            "iteration {iter}: width {width}, single input {how}"
        );
        assert_eq!(run.timings().simd_width, reported(1), "iteration {iter}");
    }
    for (i, ((s, l), q)) in scalar
        .instances
        .iter()
        .zip(lanes.instances.iter())
        .zip(sequential.instances.iter())
        .enumerate()
    {
        for (other, run) in [(l, "pooled"), (q, "sequential")] {
            assert_eq!(
                s.value, other.value,
                "iteration {iter}: width {width}, batch {batch_size}, instance {i} {run} value"
            );
            assert_eq!(
                s.gradient, other.gradient,
                "iteration {iter}: width {width}, batch {batch_size}, instance {i} {run} gradient"
            );
        }
    }
}

#[test]
fn simd_vs_scalar_stress_loop() {
    let iters = iterations();
    let mut rng = StdRng::seed_from_u64(0x51D_CAFE);
    // One engine pair per width, reused across the whole loop so pooled
    // workspaces see plans of many shapes and precisions.
    for &width in &SimdMode::SUPPORTED_WIDTHS {
        let scalar_engine = engine_with(SimdMode::Scalar);
        let lane_engine = engine_with(SimdMode::ForceWidth(width));
        for iter in 0..iters {
            match iter % 4 {
                0 => stress_iteration::<Dd>(&scalar_engine, &lane_engine, iter, width, &mut rng),
                1 => stress_iteration::<Qd>(&scalar_engine, &lane_engine, iter, width, &mut rng),
                2 => stress_iteration::<Md<8>>(&scalar_engine, &lane_engine, iter, width, &mut rng),
                _ => stress_iteration::<Complex<Dd>>(
                    &scalar_engine,
                    &lane_engine,
                    iter,
                    width,
                    &mut rng,
                ),
            }
        }
    }
}
