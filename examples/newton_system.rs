//! Newton's method on a polynomial *system* with the fused evaluator — the
//! paper's motivating application, end to end through the library.
//!
//! Unlike `newton_power_series.rs` (which drives a hand-rolled 2x2 staged
//! solve), this example uses the fallible `psmd_core::try_newton_system`
//! solver on a compiled system plan: its merged schedule is built once and
//! reused by every iteration, each step evaluates all values and the full
//! Jacobian in one fused request, and the linearized series system is
//! solved degree by degree from a single LU factorization of the
//! constant-term Jacobian.
//!
//! The system is 3x3 and multilinear:
//!
//! ```text
//! f1 = x y   - c1(t) = 0
//! f2 = y z   - c2(t) = 0
//! f3 = x + z - c3(t) = 0
//! ```
//!
//! with c1, c2, c3 chosen so that the exact solution is x = 1 + t,
//! y = 2 - t, z = 3 + 2 t.  Starting from the constant solution (1, 2, 3),
//! the number of correct series coefficients doubles per iteration.
//!
//! Run with `cargo run --release --example newton_system`.

use psmd_core::{try_newton_system, Engine, Monomial, NewtonOptions, Polynomial};
use psmd_multidouble::Deca;
use psmd_series::Series;

type C = Deca;

fn pad(prefix: &[f64], degree: usize) -> Vec<f64> {
    let mut v = prefix.to_vec();
    v.resize(degree + 1, 0.0);
    v
}

fn build_system(degree: usize) -> (Vec<Polynomial<C>>, Vec<Series<C>>) {
    let x = Series::<C>::from_f64_coeffs(&pad(&[1.0, 1.0], degree));
    let y = Series::<C>::from_f64_coeffs(&pad(&[2.0, -1.0], degree));
    let z = Series::<C>::from_f64_coeffs(&pad(&[3.0, 2.0], degree));
    let one = || Series::<C>::one(degree);
    let f1 = Polynomial::new(3, x.mul(&y).neg(), vec![Monomial::new(one(), vec![0, 1])]);
    let f2 = Polynomial::new(3, y.mul(&z).neg(), vec![Monomial::new(one(), vec![1, 2])]);
    let f3 = Polynomial::new(
        3,
        x.add(&z).neg(),
        vec![Monomial::new(one(), vec![0]), Monomial::new(one(), vec![2])],
    );
    (vec![f1, f2, f3], vec![x, y, z])
}

fn main() {
    let degree = 16;
    let (system, exact) = build_system(degree);

    // The system plan's merged schedule: one launch per layer for the
    // whole system.
    let engine = Engine::new();
    let plan = engine.compile(system);
    let stats = plan.stats();
    println!("Newton on a 3x3 system at power series, degree {degree}, deca-double");
    println!(
        "merged schedule: {} convolution layers ({} jobs), {} addition layers ({} jobs)",
        stats.convolution_layers,
        stats.convolution_jobs,
        stats.addition_layers,
        stats.addition_jobs,
    );
    println!(
        "one fused pass produces {} values + {}x{} Jacobian entries per iteration\n",
        stats.equations, stats.equations, stats.num_variables,
    );

    // Start from the constant solution (correct at t = 0).
    let initial = vec![
        Series::constant(C::from_f64(1.0), degree),
        Series::constant(C::from_f64(2.0), degree),
        Series::constant(C::from_f64(3.0), degree),
    ];
    let result = try_newton_system(
        &plan,
        &initial,
        &NewtonOptions {
            max_iterations: 8,
            tolerance: 1e-120,
        },
    )
    .expect("a square, nonsingular system");

    println!("iter   residual |F(z)|");
    for (i, r) in result.trace.residuals.iter().enumerate() {
        println!("{i:>4}   {r:.3e}");
    }
    let err = result
        .solution
        .iter()
        .zip(exact.iter())
        .map(|(a, b)| a.distance(b))
        .fold(0.0f64, f64::max);
    println!(
        "\nconverged: {} after {} steps (pivot-ratio conditioning estimate {:.2e})",
        result.trace.converged, result.trace.iterations, result.trace.conditioning,
    );
    println!("final coefficientwise error vs the exact solution: {err:.3e}");
    assert!(result.trace.converged, "Newton did not converge");
    assert!(err < 1e-120, "solution error {err:.3e}");
    println!(
        "all {} series coefficients recovered to deca-double accuracy.",
        degree + 1
    );
}
