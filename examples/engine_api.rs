//! The Engine/Plan API end to end: compile once, share everywhere,
//! evaluate many times, pick the precision with a value.
//!
//! Four scenes:
//!
//! 1. a caller holding a runtime `Precision` (think: a server handling
//!    requests) turns it into its `Md<N>` type once, with
//!    `with_precision!`, and compiles a typed plan;
//! 2. the plan cache makes recompiling a known polynomial free;
//! 3. one `Arc<Plan>` is hammered from several threads concurrently — plans
//!    are owned (`'static`) and `Send + Sync`, which the old borrowing
//!    evaluators could not offer;
//! 4. the compile-once/evaluate-many amortization that motivates the whole
//!    design, measured.
//!
//! Run with `cargo run --release --example engine_api`.

use psmd_bench::TestPolynomial;
use psmd_core::{Engine, Monomial, Polynomial};
use psmd_multidouble::{with_precision, Dd, Md, Precision};
use psmd_series::Series;
use std::sync::Arc;
use std::time::Instant;

/// p = 1 + 3 x0 x1 at truncation degree 2, in `Md<N>`.
fn example_polynomial<const N: usize>() -> Polynomial<Md<N>> {
    let c = |x: f64| Series::constant(Md::<N>::from_f64(x), 2);
    Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])])
}

/// Scenes 1 and 2 at the precision `with_precision!` picked.
fn runtime_precision<const N: usize>(engine: &Engine, precision: Precision) {
    let plan = engine.compile(example_polynomial::<N>());
    let stats = plan.stats();
    println!(
        "compiled a {precision} plan with {} convolution jobs in {} launches",
        stats.convolution_jobs,
        stats.convolution_layers + stats.addition_layers,
    );
    // z0 = 1 + t, z1 = 1 - t
    let z = [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]].map(|c| Series::<Md<N>>::from_f64_coeffs(&c));
    let out = plan.request(&z[..]).run();
    let rendezvous = out.timings().pool_rendezvous;
    let value = out.into_single().value;
    let value: Vec<f64> = (0..=2).map(|i| value.coeff(i).to_f64()).collect();
    println!("p(z) = {value:?} ({rendezvous} pool rendezvous)\n");

    // ---- Scene 2: the plan cache ---------------------------------------
    let t0 = Instant::now();
    let _same = engine.compile(example_polynomial::<N>());
    let hit_us = t0.elapsed().as_secs_f64() * 1e6;
    let stats = engine.cache_stats();
    println!(
        "recompiling the same polynomial: {hit_us:.1} us ({} hits / {} misses in the cache)\n",
        stats.hits, stats.misses
    );
}

fn main() {
    // ---- Scene 1: a runtime precision picks the coefficient type -------
    // A caller that receives "evaluate 1 + 3 x0 x1 in octo-double" as data
    // holds a `Precision` value.  `with_precision!` turns it into `Md<N>`
    // once; everything after that point is typed.
    let engine = Engine::builder().build();
    let precision = Precision::parse_label("8d").expect("one of the paper's precisions");
    with_precision!(precision, N => runtime_precision::<N>(&engine, precision));

    // ---- Scene 3: one Arc<Plan> across threads -------------------------
    let shared_engine = Engine::builder().build();
    let p: Polynomial<Dd> = TestPolynomial::P1.build_reduced(6, 1);
    let z: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(6, 1);
    let shared: Arc<_> = shared_engine.compile(p);
    let reference = shared.request(&z).sequential().run().into_single();
    let threads = 4;
    let evals_per_thread = 25;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let plan = Arc::clone(&shared);
            let z = z.clone();
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..evals_per_thread {
                    let e = plan.request(&z).run().into_single();
                    assert_eq!(e.value, reference.value, "plans are deterministic");
                }
            });
        }
    });
    println!(
        "{} threads x {} evaluations through one Arc<Plan>: all bitwise identical\n",
        threads, evals_per_thread
    );

    // ---- Scene 4: compile-once / evaluate-many -------------------------
    // At small truncation degrees (the serving sweet spot) schedule
    // construction dominates a single evaluation, so a server that
    // recompiled per request would spend most of its time compiling.
    let requests = 50;
    let degree = 0;
    let p0: Polynomial<Dd> = TestPolynomial::P1.build_reduced(degree, 2);
    let z0: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(degree, 2);
    let cold = Engine::builder().plan_cache_capacity(0).build();
    let t0 = Instant::now();
    for _ in 0..requests {
        let _ = cold.compile(p0.clone()).request(&z0).run();
    }
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3 / requests as f64;
    let warm = shared_engine.compile(p0.clone());
    let t0 = Instant::now();
    for _ in 0..requests {
        let _ = warm.request(&z0).run();
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3 / requests as f64;
    println!(
        "degree {degree}, {requests} requests: recompile-per-request {cold_ms:.3} ms/req, \
         compile-once {warm_ms:.3} ms/req ({:.1}x)",
        cold_ms / warm_ms.max(1e-9)
    );
    println!(
        "(the schedule depends only on the monomial structure — compile it once, serve \
         millions of inputs)"
    );
}
