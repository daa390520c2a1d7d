//! Newton's method at power series — the paper's motivating application.
//!
//! The robust path tracker of PHCpack (the system this paper accelerates)
//! repeatedly evaluates a polynomial system and its Jacobian at truncated
//! power series and applies Newton corrections to the series coefficients.
//! This example runs that loop for a small 2x2 system in deca-double
//! precision, using the scheduled evaluator for the values and the gradients
//! and the fallible staged linear solver (`try_solve_linearized`) for the
//! series correction:
//!
//! ```text
//! f1(x, y) = x^2 + y^2 - c1(t) = 0
//! f2(x, y) = x y - c2(t)       = 0
//! ```
//!
//! with c1, c2 chosen so that the exact solution is x(t) = 1 + t,
//! y(t) = 2 - t.  Starting from the constant initial guess (x, y) = (1, 2),
//! Newton's method doubles the number of correct series coefficients per
//! iteration.
//!
//! Run with `cargo run --release --example newton_power_series`.

use psmd_core::{try_solve_linearized, Engine, Monomial, Polynomial};
use psmd_multidouble::Deca;
use psmd_series::Series;

type C = Deca;

/// Builds the two polynomials of the system.  The `-c(t)` terms are carried
/// in the constant term of each polynomial.
fn build_system(degree: usize) -> (Polynomial<C>, Polynomial<C>) {
    // Exact solution series.
    let x_exact = Series::<C>::from_f64_coeffs(&pad(&[1.0, 1.0], degree));
    let y_exact = Series::<C>::from_f64_coeffs(&pad(&[2.0, -1.0], degree));
    // c1 = x^2 + y^2, c2 = x y evaluated at the exact solution.
    let c1 = x_exact.mul(&x_exact).add(&y_exact.mul(&y_exact));
    let c2 = x_exact.mul(&y_exact);
    let one = Series::constant(C::from_f64(1.0), degree);
    // f1 keeps only its constant; the Newton loop refolds x^2 and y^2 with
    // `Monomial::from_exponents` each iteration.
    let f1 = Polynomial::new(2, c1.neg(), vec![]);
    let f2 = Polynomial::new(2, c2.neg(), vec![Monomial::new(one, vec![0, 1])]);
    (f1, f2)
}

fn pad(prefix: &[f64], degree: usize) -> Vec<f64> {
    let mut v = prefix.to_vec();
    v.resize(degree + 1, 0.0);
    v
}

fn main() {
    let degree = 16;
    let (f1_base, f2) = build_system(degree);

    // Initial guess: the constant series x = 1, y = 2 (correct at t = 0).
    let mut x = Series::constant(C::from_f64(1.0), degree);
    let mut y = Series::constant(C::from_f64(2.0), degree);

    let x_exact = Series::<C>::from_f64_coeffs(&pad(&[1.0, 1.0], degree));
    let y_exact = Series::<C>::from_f64_coeffs(&pad(&[2.0, -1.0], degree));

    // One engine for the whole run: f2 never changes, so its plan compiles
    // once and every later iteration is a cache hit; f1 folds the current
    // point into its coefficients, so it recompiles each iteration.
    let engine = Engine::builder().build();

    println!("Newton at power series, degree {degree}, deca-double precision");
    println!("iter   |x - x*|        |y - y*|        |f1|            |f2|");
    for iter in 0..6 {
        let z = vec![x.clone(), y.clone()];
        // f1 = x^2 + y^2 - c1: build with the exponent-folding constructor at
        // the current point (x^2 -> coefficient x times variable x).
        let f1 = Polynomial::new(
            2,
            f1_base.constant().clone(),
            vec![
                Monomial::from_exponents(Series::one(degree), &[2, 0], &z),
                Monomial::from_exponents(Series::one(degree), &[0, 2], &z),
            ],
        );
        let e1 = engine
            .compile(f1)
            .request(&z)
            .sequential()
            .run()
            .into_single();
        let e2 = engine
            .compile(f2.clone())
            .request(&z)
            .sequential()
            .run()
            .into_single();
        // Jacobian (as series): note d(x^2)/dx = coefficient * 1 from the
        // folded monomial, which equals x, so multiply by 2 explicitly.
        let two = Series::constant(C::from_f64(2.0), degree);
        let j11 = e1.gradient[0].mul(&two); // d f1 / dx = 2x
        let j12 = e1.gradient[1].mul(&two); // d f1 / dy = 2y
        let j21 = e2.gradient[0].clone(); // d f2 / dx = y
        let j22 = e2.gradient[1].clone(); // d f2 / dy = x

        // Solve J * (dx, dy) = -(f1, f2) with the staged linearized
        // solver: one LU of the constant-term Jacobian, then one triangular
        // solve per series degree.  Shape or singularity problems surface
        // as errors instead of garbage.
        let jacobian = vec![vec![j11, j12], vec![j21, j22]];
        let rhs = vec![e1.value.neg(), e2.value.neg()];
        let update = try_solve_linearized(&jacobian, &rhs)
            .expect("the constant-term Jacobian stays regular along this run");
        x.add_assign(&update[0]);
        y.add_assign(&update[1]);
        println!(
            "{iter:>4}   {:.3e}      {:.3e}      {:.3e}      {:.3e}",
            x.distance(&x_exact),
            y.distance(&y_exact),
            e1.value.max_magnitude(),
            e2.value.max_magnitude()
        );
    }
    let final_err = x.distance(&x_exact).max(y.distance(&y_exact));
    println!("\nfinal coefficientwise error: {final_err:.3e}");
    assert!(
        final_err < 1e-100,
        "Newton did not converge to deca-double accuracy"
    );
    println!("converged to deca-double accuracy.");
}
