//! Evaluator benchmarks: naive baseline vs the paper's scheduled algorithm,
//! sequential vs block-parallel execution (the speedups behind Table 3).

use criterion::{criterion_group, criterion_main, Criterion};
use psmd_bench::TestPolynomial;
use psmd_core::{evaluate_naive, Engine, Polynomial};
use psmd_multidouble::Dd;
use psmd_series::Series;
use std::hint::black_box;
use std::time::Duration;

fn evaluator_comparison(c: &mut Criterion) {
    let degree = 15;
    let p: Polynomial<Dd> = TestPolynomial::P1.build_reduced(degree, 1);
    let z: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(degree, 1);
    let engine = Engine::new();
    let plan = engine.compile(p.clone());
    let mut group = c.benchmark_group("evaluators_reduced_p1_d15_2d");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("naive_baseline", |b| {
        b.iter(|| black_box(evaluate_naive(&p, &z).value.coeff(0)))
    });
    group.bench_function("scheduled_sequential", |b| {
        b.iter(|| {
            black_box(
                plan.request(&z)
                    .sequential()
                    .run()
                    .into_single()
                    .value
                    .coeff(0),
            )
        })
    });
    group.bench_function("scheduled_parallel", |b| {
        b.iter(|| black_box(plan.request(&z).run().into_single().value.coeff(0)))
    });
    group.finish();
}

fn schedule_construction(c: &mut Criterion) {
    let p: Polynomial<Dd> = TestPolynomial::P1.build_reduced(0, 1);
    let mut group = c.benchmark_group("schedule_construction");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("reduced_p1", |b| {
        b.iter(|| {
            black_box(psmd_core::Schedule::build(std::slice::from_ref(&p)).convolution_jobs())
        })
    });
    // The same construction through the engine with the plan cache hitting:
    // the steady-state cost of `Engine::compile` for a known polynomial.
    let engine = Engine::new();
    let _warm = engine.compile(p.clone());
    group.bench_function("reduced_p1_engine_cache_hit", |b| {
        b.iter(|| {
            let plan = engine.compile(p.clone());
            black_box(plan.schedule().unwrap().convolution_jobs())
        })
    });
    group.finish();
}

criterion_group!(evaluators, evaluator_comparison, schedule_construction);
criterion_main!(evaluators);
