//! Integration tests asserting the paper's structural claims end-to-end:
//! job counts of the test polynomials (Table 2), the launch structure of
//! Section 6.1, the layer bounds of Corollaries 3.2 and 4.1, the shared
//! memory limit of Section 6.2 and the operation counts of the throughput
//! analysis.

use psmd_bench::TestPolynomial;
use psmd_core::{workload_shape, Polynomial, Schedule};
use psmd_device::{gpu_by_key, max_degree, model_evaluation};
use psmd_multidouble::{CostModel, Dd, Precision};

#[test]
fn table2_job_counts() {
    let expectations = [
        (TestPolynomial::P1, 16, 4, 1_820, 16_380, 9_084),
        (TestPolynomial::P2, 128, 64, 128, 24_192, 8_192),
        // p3: our convolution count is 24,384 (see EXPERIMENTS.md); the
        // addition count matches the paper exactly.
        (TestPolynomial::P3, 128, 2, 8_128, 24_384, 24_256),
    ];
    for (poly, n, m, monomials, convolutions, additions) in expectations {
        let p: Polynomial<Dd> = poly.build(0, 1);
        assert_eq!(p.num_variables(), n, "{}", poly.label());
        assert_eq!(p.max_variables_per_monomial(), m, "{}", poly.label());
        assert_eq!(p.num_monomials(), monomials, "{}", poly.label());
        let s = Schedule::build(std::slice::from_ref(&p));
        assert_eq!(s.convolution_jobs(), convolutions, "{}", poly.label());
        assert_eq!(s.addition_jobs(), additions, "{}", poly.label());
        s.validate_layers()
            .expect("schedule layers must be conflict free");
    }
}

#[test]
fn section_6_1_launch_structure_of_p1() {
    let p: Polynomial<Dd> = TestPolynomial::P1.build(0, 1);
    let s = Schedule::build(std::slice::from_ref(&p));
    // "the 16,380 convolutions are performed in four kernel launches of
    // respectively 3,640, 5,460, 5,460, and 1,820 blocks"
    assert_eq!(
        s.convolution_layer_sizes(),
        vec![3_640, 5_460, 5_460, 1_820]
    );
    // The additions happen with a handful of launches whose blocks sum to
    // 9,084 (the paper reports 11 launches; our tree needs 12 because the
    // constant term is folded in a dedicated first launch).
    let add_sizes = s.addition_layer_sizes();
    assert_eq!(add_sizes.iter().sum::<usize>(), 9_084);
    assert!(add_sizes.len() <= 13);
    // The first merged addition launch is by far the largest (the paper's
    // first launch has 4,542 blocks; ours folds the constant term separately
    // and starts the gradient trees one level earlier, giving ~3,600).
    assert!(*add_sizes.iter().max().unwrap() >= 3_000);
}

#[test]
fn corollary_3_2_and_4_1_layer_bounds() {
    // Corollary 3.2: a monomial in n variables needs n steps.
    // Corollary 4.1: a polynomial needs m + ceil(log2 N) steps, with m the
    // largest number of variables per monomial.
    for poly in TestPolynomial::ALL {
        let p: Polynomial<Dd> = poly.build(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        let m = p.max_variables_per_monomial();
        let n_mono = p.num_monomials();
        assert_eq!(
            s.convolution_layers.len(),
            m,
            "{}: convolution layers should equal the largest monomial size",
            poly.label()
        );
        let log2n = (n_mono as f64).log2().ceil() as usize;
        assert!(
            s.addition_layers.len() <= log2n + 2,
            "{}: {} addition layers exceeds log2(N) + 2 = {}",
            poly.label(),
            s.addition_layers.len(),
            log2n + 2
        );
    }
}

#[test]
fn section_6_2_shared_memory_limit_and_flop_count() {
    let v100 = gpu_by_key("v100").unwrap();
    // Degree 152 is the largest degree one block can manage in deca-double.
    assert_eq!(max_degree(&v100, Precision::D10), 152);
    // The total double-operation count of p1 at degree 152 in deca-double.
    let p: Polynomial<Dd> = TestPolynomial::P1.build(0, 1);
    let s = Schedule::build(std::slice::from_ref(&p));
    let mut shape = workload_shape(&s);
    shape.degree = 152;
    let total = shape.total_double_ops(Precision::D10, CostModel::Paper);
    assert_eq!(total, 1_336_226_651_784.0);
    // Modeled on the P100 this yields about 1.25 TFLOPS, as in the paper.
    let p100 = gpu_by_key("p100").unwrap();
    let m = model_evaluation(&p100, &shape, Precision::D10, CostModel::Paper);
    let tflops = total / (m.wall_clock_ms * 1e-3) / 1e12;
    assert!((tflops - 1.25).abs() < 0.2, "modeled {tflops} TFLOPS");
}

#[test]
fn table3_and_table4_modeled_shapes() {
    let p100 = gpu_by_key("p100").unwrap();
    let v100 = gpu_by_key("v100").unwrap();
    let c2050 = gpu_by_key("c2050").unwrap();
    let mk = |poly: TestPolynomial| {
        let p: Polynomial<Dd> = poly.build(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        let mut shape = workload_shape(&s);
        shape.degree = 152;
        shape
    };
    let p1 = mk(TestPolynomial::P1);
    // Who wins and by roughly what factor: V100 beats P100 by ~1.67x, and
    // beats the C2050 by roughly 20x.
    let t_v = model_evaluation(&v100, &p1, Precision::D10, CostModel::Paper).wall_clock_ms;
    let t_p = model_evaluation(&p100, &p1, Precision::D10, CostModel::Paper).wall_clock_ms;
    let t_c = model_evaluation(&c2050, &p1, Precision::D10, CostModel::Paper).wall_clock_ms;
    assert!(t_v < t_p && t_p < t_c);
    assert!(
        (t_p / t_v - 1.67).abs() < 0.25,
        "P100/V100 ratio {}",
        t_p / t_v
    );
    assert!(
        (t_c / t_v - 20.26).abs() < 4.0,
        "C2050/V100 ratio {}",
        t_c / t_v
    );
    // Table 4: the p2 ratio between P100 and V100 is lower than the p3 ratio
    // because 256-block launches underutilize the V100's 80 SMs.
    let p2 = mk(TestPolynomial::P2);
    let p3 = mk(TestPolynomial::P3);
    let r2 = model_evaluation(&p100, &p2, Precision::D10, CostModel::Paper).wall_clock_ms
        / model_evaluation(&v100, &p2, Precision::D10, CostModel::Paper).wall_clock_ms;
    let r3 = model_evaluation(&p100, &p3, Precision::D10, CostModel::Paper).wall_clock_ms
        / model_evaluation(&v100, &p3, Precision::D10, CostModel::Paper).wall_clock_ms;
    assert!(r2 < r3, "p2 ratio {r2} should be below p3 ratio {r3}");
}

#[test]
fn addition_kernels_are_negligible_at_high_precision() {
    // The observation behind Figure 2/3 and Table 3: addition kernels cost a
    // tiny fraction of the convolution kernels because additions are linear
    // in the degree while convolutions are quadratic.
    let v100 = gpu_by_key("v100").unwrap();
    let p: Polynomial<Dd> = TestPolynomial::P1.build(0, 1);
    let s = Schedule::build(std::slice::from_ref(&p));
    let mut shape = workload_shape(&s);
    for degree in [63usize, 152] {
        shape.degree = degree;
        let m = model_evaluation(&v100, &shape, Precision::D10, CostModel::Paper);
        assert!(m.addition_ms < 0.01 * m.convolution_ms);
    }
}
