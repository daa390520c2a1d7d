//! Newton runs on a compiled plan, whose SIMD lane mode was resolved when
//! the plan compiled, so a malformed `PSMD_SIMD` override never reaches a
//! solve: it surfaces as [`Error::Config`] from `Engine::try_build` (and
//! from `Engine::try_compile` on an engine built before the override was
//! set) instead of a panic in the middle of one.  The test sets the
//! process environment, so it lives alone in this test binary.

use psmd_core::{try_newton_system, Engine, Error, Monomial, NewtonOptions, Polynomial};
use psmd_multidouble::Dd;
use psmd_series::Series;

#[test]
fn newton_reports_a_malformed_simd_override_as_a_config_error() {
    // x0 - 2 = 0 at degree 2, from x0 = 1.
    let d = 2;
    let c = |x: f64| Series::constant(Dd::from_f64(x), d);
    let f = Polynomial::new(1, c(-2.0), vec![Monomial::new(c(1.0), vec![0])]);
    let options = NewtonOptions {
        max_iterations: 3,
        tolerance: 0.0,
    };
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(vec![f.clone()]);
    std::env::set_var("PSMD_SIMD", "bogus");
    let expect_config = |result: Result<_, Error>, stage: &str| match result {
        Err(Error::Config(message)) => assert!(message.contains("PSMD_SIMD"), "{message}"),
        Err(other) => panic!("{stage}: expected a configuration error, got {other:?}"),
        Ok(_) => panic!("{stage}: expected a configuration error"),
    };
    expect_config(
        Engine::builder().threads(0).try_build().map(drop),
        "try_build",
    );
    expect_config(engine.try_compile(vec![f]).map(drop), "try_compile");
    // A plan compiled before the override keeps its resolved lane width.
    let result = try_newton_system(&plan, &[c(1.0)], &options).unwrap();
    assert!(result.solution[0].distance(&c(2.0)) < 1e-30);
}
