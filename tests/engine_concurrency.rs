//! Concurrency and lifecycle tests of the Engine/Plan API: one `Arc<Plan>`
//! hammered from many threads, plan-cache behavior under concurrent
//! compiles, plans outliving their engine, and per-run rendezvous counts
//! surfaced through `EvalOutput` timings while other threads share the
//! pool.

use psmd_core::{random_inputs, random_polynomial, Engine, Polynomial};
use psmd_multidouble::{Dd, Qd};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn random_case(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
) -> (Polynomial<Dd>, Vec<Series<Dd>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let z = random_inputs::<Dd, _>(n, degree, &mut rng);
    (p, z)
}

/// Many threads, one shared plan, hundreds of evaluations: every result is
/// bitwise identical to the sequential reference.
#[test]
fn one_plan_hammered_from_many_threads() {
    let (p, z) = random_case(71, 6, 14, 5);
    let engine = Engine::builder().threads(3).build();
    let plan = engine.compile(p);
    let reference = plan.request(&z).sequential().run().into_single();
    std::thread::scope(|scope| {
        for t in 0..6 {
            let plan: &Arc<_> = &plan;
            let z = &z;
            let reference = &reference;
            scope.spawn(move || {
                for i in 0..20 {
                    let e = plan.request(z).run().into_single();
                    assert_eq!(e.value, reference.value, "thread {t}, eval {i}");
                    assert_eq!(e.gradient, reference.gradient);
                }
            });
        }
    });
}

/// Concurrent mixed workloads (single, batch, system) on one engine share
/// the pool without interference.
#[test]
fn mixed_workloads_share_one_engine() {
    let (p, z) = random_case(72, 5, 10, 4);
    let mut rng = StdRng::seed_from_u64(73);
    let system: Vec<Polynomial<Dd>> = (0..3)
        .map(|_| random_polynomial(5, 8, 4, 4, &mut rng))
        .collect();
    let batch: Vec<Vec<Series<Dd>>> = (0..4)
        .map(|_| random_inputs::<Dd, _>(5, 4, &mut rng))
        .collect();
    let engine = Engine::builder().threads(2).build();
    let single_plan = engine.compile(p);
    let system_plan = engine.compile(system);
    let single_ref = single_plan.request(&z).sequential().run().into_single();
    let batch_ref = single_plan.request(&batch).sequential().run().into_batch();
    let system_ref = system_plan.request(&z).sequential().run().into_system();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (sp, yp) = (&single_plan, &system_plan);
            let (z, batch) = (&z, &batch);
            let (sr, br, yr) = (&single_ref, &batch_ref, &system_ref);
            scope.spawn(move || {
                for _ in 0..10 {
                    assert_eq!(sp.request(z).run().into_single().value, sr.value);
                    let got = sp.request(batch).run().into_batch();
                    for (a, b) in got.instances.iter().zip(br.instances.iter()) {
                        assert_eq!(a.value, b.value);
                    }
                    assert_eq!(yp.request(z).run().into_system().values, yr.values);
                }
            });
        }
    });
}

/// A compile storm of the same polynomial from many threads lands on one
/// cached plan: at most one compile misses per (source, options) pair.
#[test]
fn concurrent_compiles_share_the_cache() {
    let (p, z) = random_case(74, 5, 12, 4);
    let engine = Engine::builder().threads(2).build();
    let reference = engine
        .compile(p.clone())
        .request(&z)
        .sequential()
        .run()
        .into_single();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let engine = &engine;
            let p = p.clone();
            let z = &z;
            let reference = &reference;
            scope.spawn(move || {
                let plan = engine.compile(p);
                assert_eq!(plan.request(z).run().into_single().value, reference.value);
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 1, "one structural identity, one cache entry");
    assert!(stats.hits >= 1);
    // Compiles racing past the first miss may each build the plan once, but
    // the steady state is a single cached entry serving every hit.
    assert!(stats.misses <= 9);
}

/// Plans are owned ('static): they keep evaluating after the engine that
/// compiled them is dropped.
#[test]
fn plans_outlive_their_engine() {
    let (p, z) = random_case(75, 5, 10, 4);
    let (plan, reference) = {
        let engine = Engine::builder().threads(2).build();
        let plan = engine.compile(p);
        let reference = plan.request(&z).sequential().run().into_single();
        (plan, reference)
        // engine (and its cache) dropped here; the plan holds the pool alive.
    };
    let e = plan.request(&z).run().into_single();
    assert_eq!(e.value, reference.value);
    assert_eq!(e.gradient, reference.gradient);
}

/// Every run reports exactly the rendezvous its own launches paid — one
/// per layer with at least two blocks — even while another thread
/// evaluates on the same pool; sequential runs report none.
#[test]
fn rendezvous_counts_surface_through_eval_output() {
    let (p, z) = random_case(76, 6, 14, 6);
    // One worker: every multi-block layer wakes the pool, and two threads
    // launching at once share it.
    let engine = Engine::builder().threads(1).build();
    let plan = engine.compile(p);
    let schedule = plan.schedule().expect("compiled schedule");
    let multi_block_layers = schedule
        .convolution_layer_sizes()
        .into_iter()
        .chain(schedule.addition_layer_sizes())
        .filter(|&jobs| jobs >= 2)
        .count();
    assert!(
        multi_block_layers > 1,
        "deep schedule pays per-layer barriers"
    );
    std::thread::scope(|scope| {
        for t in 0..2 {
            let plan: &Arc<_> = &plan;
            let z = &z;
            scope.spawn(move || {
                for i in 0..200 {
                    let rendezvous = plan.request(z).run().timings().pool_rendezvous;
                    assert_eq!(rendezvous, multi_block_layers, "thread {t}, run {i}");
                }
            });
        }
    });
    // Sequential evaluation never wakes the pool.
    let sequential = plan.request(&z).sequential().run();
    assert_eq!(sequential.timings().pool_rendezvous, 0);
}

/// Cache eviction under a capacity bound, observed through the public
/// stats; evicted plans held by callers stay usable.
#[test]
fn evicted_plans_stay_usable() {
    let engine = Engine::builder().threads(0).plan_cache_capacity(1).build();
    let (p1, z1) = random_case(77, 4, 6, 3);
    let (p2, z2) = random_case(78, 4, 6, 3);
    let plan1 = engine.compile(p1);
    let ref1 = plan1.request(&z1).sequential().run().into_single();
    let plan2 = engine.compile(p2); // evicts plan1 from the cache
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.evictions, 1);
    // The caller's Arc keeps the evicted plan fully functional.
    assert_eq!(plan1.request(&z1).run().into_single().value, ref1.value);
    let _ = plan2.request(&z2).run();
}

/// The typed cache keys include the coefficient type: structurally similar
/// polynomials at different precisions never alias.
#[test]
fn cache_keys_are_precision_specific() {
    let engine = Engine::builder().threads(0).build();
    let d = 2;
    let c_dd = |x: f64| Series::constant(Dd::from_f64(x), d);
    let c_qd = |x: f64| Series::constant(Qd::from_f64(x), d);
    let p_dd = Polynomial::new(
        2,
        c_dd(1.0),
        vec![psmd_core::Monomial::new(c_dd(3.0), vec![0, 1])],
    );
    let p_qd = Polynomial::new(
        2,
        c_qd(1.0),
        vec![psmd_core::Monomial::new(c_qd(3.0), vec![0, 1])],
    );
    let _a = engine.compile(p_dd);
    let _b = engine.compile(p_qd);
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.hits, 0);
}
