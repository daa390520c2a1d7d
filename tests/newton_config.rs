//! Newton resolves its SIMD lane mode once, before the first step, so a
//! malformed `PSMD_SIMD` override surfaces as [`Error::Config`] — the
//! contract of `Engine::try_build` — instead of a panic in the middle of a
//! solve.  The test sets the process environment, so it lives alone in
//! this test binary.

use psmd_core::{try_newton_system, Error, Monomial, NewtonOptions, Polynomial};
use psmd_multidouble::Dd;
use psmd_series::Series;

#[test]
fn newton_reports_a_malformed_simd_override_as_a_config_error() {
    std::env::set_var("PSMD_SIMD", "bogus");
    // x0 - 2 = 0 at degree 2, from x0 = 1.
    let d = 2;
    let c = |x: f64| Series::constant(Dd::from_f64(x), d);
    let f = Polynomial::new(1, c(-2.0), vec![Monomial::new(c(1.0), vec![0])]);
    let options = NewtonOptions {
        max_iterations: 3,
        tolerance: 0.0,
    };
    match try_newton_system(&[f], &[c(1.0)], &options) {
        Err(Error::Config(message)) => assert!(message.contains("PSMD_SIMD"), "{message}"),
        other => panic!("expected a configuration error, got {other:?}"),
    }
}
