//! Fused polynomial-system evaluation benchmarks.
//!
//! A system plan merges the monomial sets of all `m` equations into one
//! deduplicated schedule and runs each job layer as a single pool launch
//! covering every equation, producing all values plus the full `m × n`
//! Jacobian in one pass.  The alternative — one single-polynomial plan per
//! equation — issues `m` times the launches and rebuilds per-equation
//! schedules.  This bench measures both effects on a reduced p1 system.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psmd_bench::TestPolynomial;
use psmd_core::{Engine, Polynomial};
use psmd_multidouble::Dd;
use psmd_series::Series;
use std::hint::black_box;
use std::time::Duration;

/// Fused system launch vs a loop of per-equation launches for growing
/// system sizes, reduced p1 at a small degree (where per-equation layers
/// are too small to fill the pool).
fn fused_vs_looped(c: &mut Criterion) {
    let degree = 8;
    let engine = Engine::new();
    let inputs: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(degree, 1);
    let mut group = c.benchmark_group("system_reduced_p1_d8_2d");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &m in &[2usize, 4, 8] {
        let system: Vec<Polynomial<Dd>> = TestPolynomial::P1.build_reduced_system(m, degree, 1);
        let fused = engine.compile(system.clone());
        // One launch per merged layer for the whole system, not per equation.
        let probe = fused.request(&inputs).run().into_system();
        assert_eq!(
            probe.timings.convolution_launches,
            fused.schedule().unwrap().convolution_layers.len()
        );
        let singles: Vec<_> = system.iter().map(|p| engine.compile(p.clone())).collect();
        group.bench_function(BenchmarkId::new("fused_one_launch_per_layer", m), |b| {
            b.iter(|| {
                let r = fused.request(black_box(&inputs)).run().into_system();
                black_box(r.values.len())
            })
        });
        group.bench_function(BenchmarkId::new("looped_per_equation_launches", m), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for single in &singles {
                    let r = single.request(black_box(&inputs)).run().into_single();
                    n += r.gradient.len();
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

/// Schedule amortization across Newton-style repeated evaluations: compile
/// the merged plan once and reuse it, vs recompiling per-equation plans at
/// every evaluation (plan cache disabled to model the cold path).
fn schedule_reuse(c: &mut Criterion) {
    let degree = 4;
    let m = 4;
    let system: Vec<Polynomial<Dd>> = TestPolynomial::P1.build_reduced_system(m, degree, 1);
    let inputs: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(degree, 1);
    let cold = Engine::builder().plan_cache_capacity(0).build();
    let warm = Engine::new();
    let merged = warm.compile(system.clone());
    let mut group = c.benchmark_group("merged_schedule_reuse_reduced_p1_d4");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("recompile_plans_per_evaluation", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for p in &system {
                let plan = cold.compile(black_box(p.clone()));
                acc += plan
                    .request(&inputs)
                    .sequential()
                    .run()
                    .into_single()
                    .gradient
                    .len();
            }
            black_box(acc)
        })
    });
    group.bench_function("compile_merged_plan_once", |b| {
        b.iter(|| {
            black_box(
                merged
                    .request(&inputs)
                    .sequential()
                    .run()
                    .into_system()
                    .values
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, fused_vs_looped, schedule_reuse);
criterion_main!(benches);
