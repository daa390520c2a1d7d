//! Convolution kernel benchmarks (Section 2 of the paper): scaling of one
//! direct schoolbook convolution with the truncation degree (the O(d^2)
//! growth underlying Figure 6) and with the precision (Figure 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psmd_multidouble::{Deca, Md, RandomCoeff};
use psmd_series::convolve_seq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn random_series<const N: usize>(rng: &mut StdRng, d: usize) -> Vec<Md<N>> {
    (0..=d).map(|_| RandomCoeff::random_uniform(rng)).collect()
}

/// One convolution as a function of the truncation degree (deca-double), the
/// quadratic scaling of Figure 6.
fn degree_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("convolution_degree_scaling_10d");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600));
    for d in [15usize, 31, 63] {
        let x: Vec<Deca> = random_series(&mut rng, d);
        let y: Vec<Deca> = random_series(&mut rng, d);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let mut z = vec![Deca::ZERO; d + 1];
            b.iter(|| {
                convolve_seq(black_box(&x), black_box(&y), &mut z);
                black_box(z[d])
            })
        });
    }
    group.finish();
}

/// One convolution at a fixed degree for increasing precision (Figure 5's
/// precision axis).
fn precision_scaling(c: &mut Criterion) {
    fn bench_one<const N: usize>(
        group: &mut criterion::BenchmarkGroup<criterion::measurement::WallTime>,
        label: &str,
    ) {
        let mut rng = StdRng::seed_from_u64(9);
        let d = 31;
        let x: Vec<Md<N>> = random_series(&mut rng, d);
        let y: Vec<Md<N>> = random_series(&mut rng, d);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut z = vec![Md::<N>::ZERO; d + 1];
            b.iter(|| {
                convolve_seq(black_box(&x), black_box(&y), &mut z);
                black_box(z[d])
            })
        });
    }
    let mut group = c.benchmark_group("convolution_precision_scaling_d31");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600));
    bench_one::<1>(&mut group, "1d");
    bench_one::<2>(&mut group, "2d");
    bench_one::<4>(&mut group, "4d");
    bench_one::<8>(&mut group, "8d");
    bench_one::<10>(&mut group, "10d");
    group.finish();
}

criterion_group!(convolution_kernels, degree_scaling, precision_scaling);
criterion_main!(convolution_kernels);
