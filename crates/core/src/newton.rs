//! Newton's method on polynomial systems at power series — the paper's
//! motivating application (Section 1), run on a compiled system
//! [`Plan`]: every step is one request through the same runner every plan
//! evaluates through.
//!
//! One Newton step at the current series vector `z(t)` solves the linearized
//! system
//!
//! ```text
//! J(z(t)) · Δ(t) = -F(z(t))
//! ```
//!
//! where `F` collects the equation values and `J` is the `n × n` Jacobian of
//! power series, both produced by a **single** fused evaluation pass.  The
//! linear solve is *staged* degree by degree (the standard linearization of
//! power-series solving): writing `J(t) = J_0 + J_1 t + …` and
//! `Δ(t) = Δ_0 + Δ_1 t + …`, the constant matrix `J_0` is LU-factored once
//! per step and every coefficient vector follows by back-substitution from
//!
//! ```text
//! J_0 · Δ_k = -F_k - Σ_{j=1..k} J_j · Δ_{k-j}
//! ```
//!
//! so one step costs one fused evaluation, one `O(n^3)` factorization of the
//! constant coefficients and `d + 1` cheap triangular solves.  With an exact
//! constant-term solution as the starting point, the number of correct
//! series coefficients doubles every iteration.
//!
//! The whole iteration is **allocation-stable**: every step evaluates
//! through a workspace parked in the plan, and one system evaluation output
//! and one [`LinearSolveWorkspace`] are created up front and reused by every
//! step, so steps after the first neither re-stage the arena nor
//! re-allocate the LU / staging buffers of the degree-by-degree solves.
//! The plan fixes the precision, the kernel, the lane width and the worker
//! pool: a plan compiled by `Engine::builder().threads(0)` runs Newton
//! sequentially, bitwise identical to a plan of a threaded engine.
//!
//! The fallible entry points ([`try_newton_system`],
//! [`try_solve_linearized_into`]) follow the `try_build`/`try_compile`
//! convention: a non-square system or a single-polynomial plan is an
//! [`Error::Config`] and a singular
//! constant-term Jacobian an [`Error::Numerical`], so iterative callers —
//! the path tracker above all — can react (shrink the step, escalate the
//! precision) instead of aborting.  Each run reports a [`NewtonTrace`]: the
//! per-iteration residual norms, the convergence verdict and a pivot-ratio
//! conditioning estimate of the last factorization, which is exactly the
//! trajectory the tracker's escalation policy inspects.

use crate::engine::{EvalOutput, Plan, PolySource};
use crate::error::Error;
use crate::system::SystemEvaluation;
use psmd_multidouble::RealCoeff;
use psmd_series::Series;

/// Options of the Newton iteration.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum number of Newton steps.
    pub max_iterations: usize,
    /// Stop early once the residual magnitude (the largest coefficient of
    /// any equation value) falls below this threshold.
    pub tolerance: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iterations: 8,
            tolerance: 0.0,
        }
    }
}

/// The per-iteration trajectory of a Newton run: what the convergence
/// verdict was decided on, exposed so that callers (the path tracker's
/// escalation policy, the examples, the tests) all read the same numbers.
#[derive(Debug, Clone, Default)]
pub struct NewtonTrace {
    /// The residual magnitude `max_i |f_i(z)|` *before* each executed step,
    /// plus — when the iteration stopped without meeting the tolerance — the
    /// residual of the final iterate.
    pub residuals: Vec<f64>,
    /// Number of steps executed.
    pub iterations: usize,
    /// True when the final residual fell below the tolerance.
    pub converged: bool,
    /// Pivot-ratio conditioning estimate of the last constant-term
    /// factorization (see [`LinearSolveWorkspace::conditioning`]); `0.0`
    /// when no step executed.
    pub conditioning: f64,
}

impl NewtonTrace {
    /// The residual of the final iterate ([`f64::INFINITY`] when the run
    /// never evaluated).
    pub fn final_residual(&self) -> f64 {
        self.residuals.last().copied().unwrap_or(f64::INFINITY)
    }

    /// How much the last executed step improved the residual:
    /// `residuals[n-2] / residuals[n-1]`.  Returns [`f64::INFINITY`] when
    /// fewer than two residuals were recorded or the last residual is zero —
    /// both mean "no evidence of stagnation".  An escalation policy treats a
    /// ratio near 1 as stalling at the working precision's roundoff floor.
    pub fn last_improvement(&self) -> f64 {
        let n = self.residuals.len();
        if n < 2 {
            return f64::INFINITY;
        }
        let last = self.residuals[n - 1];
        if last == 0.0 {
            return f64::INFINITY;
        }
        self.residuals[n - 2] / last
    }
}

/// The outcome of a Newton run: the final iterate plus the
/// [`NewtonTrace`] it was accepted (or rejected) on.
#[derive(Debug, Clone)]
pub struct NewtonResult<C> {
    /// The series vector after the last step.
    pub solution: Vec<Series<C>>,
    /// The per-iteration residual trajectory and convergence verdict.
    pub trace: NewtonTrace,
}

impl<C> NewtonResult<C> {
    /// True when the final residual fell below the tolerance.
    pub fn converged(&self) -> bool {
        self.trace.converged
    }

    /// Number of steps executed.
    pub fn iterations(&self) -> usize {
        self.trace.iterations
    }

    /// The residual magnitude before each executed step (see
    /// [`NewtonTrace::residuals`]).
    pub fn residuals(&self) -> &[f64] {
        &self.trace.residuals
    }
}

/// Runs Newton's method on the square polynomial system `plan` was
/// compiled from, evaluating values and Jacobian with one fused request
/// per step on the plan's worker pool.
///
/// # Errors
///
/// [`Error::Config`] when the plan was compiled from a single polynomial
/// rather than a system, the system is not square (`m != n`), or the
/// initial guess has the wrong length or degree; [`Error::Numerical`] when
/// the constant-term Jacobian turns (numerically) singular at some iterate.
pub fn try_newton_system<C: RealCoeff>(
    plan: &Plan<C>,
    initial: &[Series<C>],
    options: &NewtonOptions,
) -> Result<NewtonResult<C>, Error> {
    let PolySource::System(polys) = plan.source() else {
        return Err(Error::config(
            "newton_system needs a plan compiled from a system (a Vec of polynomials)",
        ));
    };
    // A compiled system has at least one equation.
    let n = polys.len();
    if polys[0].num_variables() != n {
        return Err(Error::config(format!(
            "newton_system needs a square system (m equations in m variables), \
             got {} equations in {} variables",
            n,
            polys[0].num_variables()
        )));
    }
    if initial.len() != n {
        return Err(Error::config(format!(
            "initial guess has the wrong length: {} for {n} variables",
            initial.len()
        )));
    }
    let degree = polys[0].degree();
    for z in initial {
        if z.degree() != degree {
            return Err(Error::config(format!(
                "initial guess degree mismatch: {} for truncation degree {degree}",
                z.degree()
            )));
        }
    }
    // Every buffer is reused by every step: the workspace parked in the
    // plan (arena, per-worker scratch), the evaluation output, the negated
    // right-hand side, the update, and the staged-solve workspace.  Steps
    // after the first allocate nothing.
    let mut out = EvalOutput::System(SystemEvaluation::empty());
    let mut rhs: Vec<Series<C>> = Vec::new();
    let mut delta: Vec<Series<C>> = Vec::new();
    let mut solver = LinearSolveWorkspace::new();
    let mut z: Vec<Series<C>> = initial.to_vec();
    let mut trace = NewtonTrace::default();
    // One fused evaluation of all values and the Jacobian at `z`, returning
    // the residual magnitude `max_i |f_i(z)|`.
    let evaluate = |z: &[Series<C>], out: &mut EvalOutput<C>| {
        plan.request(z).into(out).run();
        out.as_system()
            .expect("a system output")
            .values
            .iter()
            .map(Series::max_magnitude)
            .fold(0.0, f64::max)
    };
    for _ in 0..options.max_iterations {
        let residual = evaluate(&z, &mut out);
        trace.residuals.push(residual);
        if residual <= options.tolerance {
            trace.converged = true;
            break;
        }
        let eval = out.as_system().expect("a system output");
        rhs.resize_with(n, || Series::zero(0));
        for (r, v) in rhs.iter_mut().zip(eval.values.iter()) {
            v.neg_into(r);
        }
        try_solve_linearized_into(&eval.jacobian, &rhs, &mut solver, &mut delta)?;
        trace.conditioning = solver.conditioning();
        for (zi, di) in z.iter_mut().zip(delta.iter()) {
            zi.add_assign(di);
        }
        trace.iterations += 1;
    }
    if !trace.converged {
        // Report the residual of the final iterate.
        let residual = evaluate(&z, &mut out);
        trace.residuals.push(residual);
        trace.converged = residual <= options.tolerance;
    }
    Ok(NewtonResult { solution: z, trace })
}

/// Reusable buffers of the staged linearized solve: the flat `n × n` LU
/// factorization of `J_0`, the pivot permutation, and the per-degree
/// right-hand-side staging.  Create it once and hand it to
/// [`try_solve_linearized_into`] for every Newton step — after the first
/// call the solve allocates nothing.
#[derive(Debug, Default)]
pub struct LinearSolveWorkspace<C> {
    /// Row-major `n × n` LU factors of the constant-term Jacobian.
    lu: Vec<C>,
    /// Row permutation of the partial pivoting.
    perm: Vec<usize>,
    /// The right-hand side of the current degree.
    rhs_k: Vec<C>,
    /// The permuted/solved coefficient vector of the current degree.
    y: Vec<C>,
    /// Magnitude of the smallest surviving pivot of the last factorization.
    pivot_min: f64,
    /// Magnitude of the largest surviving pivot of the last factorization.
    pivot_max: f64,
}

impl<C: RealCoeff> LinearSolveWorkspace<C> {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            lu: Vec::new(),
            perm: Vec::new(),
            rhs_k: Vec::new(),
            y: Vec::new(),
            pivot_min: 0.0,
            pivot_max: 0.0,
        }
    }

    /// Pivot-ratio conditioning estimate of the last factorization:
    /// `max |pivot| / min |pivot|` of the partially-pivoted LU of `J_0`.
    /// A cheap lower-bound proxy for the condition number — it costs
    /// nothing beyond the factorization itself — that grows as the iterate
    /// approaches a singular Jacobian, which is exactly the signal the path
    /// tracker's precision-escalation policy watches.  Returns `0.0` before
    /// the first solve and [`f64::INFINITY`] when the last factorization
    /// failed on a zero, NaN or infinite pivot.
    pub fn conditioning(&self) -> f64 {
        if self.pivot_max == 0.0 {
            0.0
        } else if self.pivot_min == 0.0 {
            f64::INFINITY
        } else {
            self.pivot_max / self.pivot_min
        }
    }
}

/// Solves the linear system `J(t) · x(t) = b(t)` over truncated power
/// series with the staged (linearized) scheme: LU-factor the constant
/// matrix `J_0` once with partial pivoting, then obtain every coefficient
/// vector `x_k` by back-substitution from
/// `J_0 x_k = b_k - Σ_{j=1..k} J_j x_{k-j}`.
///
/// `jacobian[i][j]` is the series entry in row `i`, column `j`; `rhs[i]` the
/// series right-hand side of row `i`.  All entries must share one truncation
/// degree.
///
/// # Errors
///
/// [`Error::Config`] when the matrix is not square or the shapes disagree;
/// [`Error::Numerical`] when `J_0` is numerically singular (a zero pivot
/// survives partial pivoting) or a NaN or infinite entry reaches a pivot.
pub fn try_solve_linearized<C: RealCoeff>(
    jacobian: &[Vec<Series<C>>],
    rhs: &[Series<C>],
) -> Result<Vec<Series<C>>, Error> {
    let mut ws = LinearSolveWorkspace::new();
    let mut solution = Vec::new();
    try_solve_linearized_into(jacobian, rhs, &mut ws, &mut solution)?;
    Ok(solution)
}

/// Like [`try_solve_linearized`], but all staging lives in the reusable
/// [`LinearSolveWorkspace`] and the solution is written into `solution`
/// (resized in place) — the allocation-free form the Newton iteration and
/// the path tracker's corrector run every step.
///
/// # Errors
///
/// See [`try_solve_linearized`].  On error the workspace and `solution`
/// hold unspecified intermediate values; both are reusable for the next
/// solve.
pub fn try_solve_linearized_into<C: RealCoeff>(
    jacobian: &[Vec<Series<C>>],
    rhs: &[Series<C>],
    ws: &mut LinearSolveWorkspace<C>,
    solution: &mut Vec<Series<C>>,
) -> Result<(), Error> {
    let n = jacobian.len();
    if n == 0 {
        return Err(Error::config("empty linear system"));
    }
    if rhs.len() != n {
        return Err(Error::config(format!(
            "right-hand side length mismatch: {} rows for {n} equations",
            rhs.len()
        )));
    }
    let degree = rhs[0].degree();
    for row in jacobian {
        if row.len() != n {
            return Err(Error::config(format!(
                "the matrix must be square: a row holds {} entries for {n} rows",
                row.len()
            )));
        }
        for entry in row {
            if entry.degree() != degree {
                return Err(Error::config("degree mismatch in the matrix"));
            }
        }
    }
    for b in rhs {
        if b.degree() != degree {
            return Err(Error::config("degree mismatch in the right-hand side"));
        }
    }
    // LU factorization of J_0 with partial pivoting, kept in place in the
    // reusable flat row-major buffer.
    let lu = &mut ws.lu;
    lu.clear();
    lu.reserve(n * n);
    for row in jacobian {
        lu.extend(row.iter().map(|s| s.coeff(0)));
    }
    ws.perm.clear();
    ws.perm.extend(0..n);
    ws.pivot_min = f64::INFINITY;
    ws.pivot_max = 0.0;
    for col in 0..n {
        let mut pivot_row = col;
        let mut best = lu[col * n + col].magnitude();
        // `>=` keeps the historical tie-break of `Iterator::max_by`, which
        // returned the last of several equal pivots.
        for row in col + 1..n {
            let m = lu[row * n + col].magnitude();
            if m >= best {
                best = m;
                pivot_row = row;
            }
        }
        if !(best > 0.0 && best.is_finite()) {
            // A zero pivot survived partial pivoting, or a NaN or infinite
            // entry reached the pivot: either way there is no usable
            // factorization, so the conditioning signal reads infinite.
            ws.pivot_min = 0.0;
            ws.pivot_max = f64::INFINITY;
            return Err(Error::numerical(if best == 0.0 {
                format!("the constant-term Jacobian is singular (column {col})")
            } else {
                format!("the constant-term Jacobian has a non-finite pivot (column {col})")
            }));
        }
        ws.pivot_min = ws.pivot_min.min(best);
        ws.pivot_max = ws.pivot_max.max(best);
        if pivot_row != col {
            for c in 0..n {
                lu.swap(col * n + c, pivot_row * n + c);
            }
            ws.perm.swap(col, pivot_row);
        }
        let pivot = lu[col * n + col];
        for row in col + 1..n {
            let factor = lu[row * n + col].div(&pivot);
            lu[row * n + col] = factor;
            for c in col + 1..n {
                let sub = factor.mul(&lu[col * n + c]);
                lu[row * n + c] = lu[row * n + c].sub(&sub);
            }
        }
    }
    // Stage the solution degree by degree.
    solution.resize_with(n, || Series::zero(0));
    for s in solution.iter_mut() {
        s.fill_zero(degree);
    }
    for k in 0..=degree {
        ws.rhs_k.clear();
        ws.rhs_k.extend(rhs.iter().map(|r| r.coeff(k)));
        // b_k -= Σ_{j=1..k} J_j x_{k-j}
        for j in 1..=k {
            for (i, row) in jacobian.iter().enumerate() {
                for (c, entry) in row.iter().enumerate() {
                    let sub = entry.coeff(j).mul(&solution[c].coeff(k - j));
                    ws.rhs_k[i] = ws.rhs_k[i].sub(&sub);
                }
            }
        }
        // One triangular solve with the factored J_0.
        ws.y.clear();
        ws.y.extend(ws.perm.iter().map(|&p| ws.rhs_k[p]));
        for row in 1..n {
            for col in 0..row {
                let sub = lu[row * n + col].mul(&ws.y[col]);
                ws.y[row] = ws.y[row].sub(&sub);
            }
        }
        for row in (0..n).rev() {
            for col in row + 1..n {
                let sub = lu[row * n + col].mul(&ws.y[col]);
                ws.y[row] = ws.y[row].sub(&sub);
            }
            ws.y[row] = ws.y[row].div(&lu[row * n + row]);
        }
        for (c, &x) in ws.y.iter().enumerate() {
            solution[c].set_coeff(k, x);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::monomial::Monomial;
    use crate::polynomial::Polynomial;
    use psmd_multidouble::{Deca, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pad(prefix: &[f64], degree: usize) -> Vec<f64> {
        let mut v = prefix.to_vec();
        v.resize(degree + 1, 0.0);
        v
    }

    #[test]
    fn solve_linearized_recovers_a_known_solution() {
        let d = 8;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3;
        // Random well-conditioned J: random series entries plus a dominant
        // constant diagonal.
        let mut jacobian: Vec<Vec<Series<Qd>>> = (0..n)
            .map(|_| (0..n).map(|_| Series::random(&mut rng, d)).collect())
            .collect();
        for (i, row) in jacobian.iter_mut().enumerate() {
            let bump = Series::constant(Qd::from_f64(4.0 + i as f64), d);
            row[i] = row[i].add(&bump);
        }
        let x: Vec<Series<Qd>> = (0..n).map(|_| Series::random(&mut rng, d)).collect();
        // b = J x in series arithmetic.
        let b: Vec<Series<Qd>> = (0..n)
            .map(|i| {
                let mut acc = Series::zero(d);
                for (j, xj) in x.iter().enumerate() {
                    acc.add_assign(&jacobian[i][j].mul(xj));
                }
                acc
            })
            .collect();
        let got = try_solve_linearized(&jacobian, &b).unwrap();
        for (a, e) in got.iter().zip(x.iter()) {
            assert!(a.distance(e) < 1e-55, "distance {}", a.distance(e));
        }
    }

    #[test]
    fn solve_linearized_into_reuses_its_workspace_across_solves() {
        // Two solves of different systems through one workspace must both be
        // correct (stale LU/permutation state would corrupt the second).
        let s = |v: &[f64]| Series::<Qd>::from_f64_coeffs(v);
        let mut ws = LinearSolveWorkspace::new();
        let mut sol = Vec::new();
        let j1 = vec![
            vec![s(&[2.0, 0.0]), s(&[0.0, 0.0])],
            vec![s(&[0.0, 0.0]), s(&[4.0, 0.0])],
        ];
        let b1 = vec![s(&[2.0, 4.0]), s(&[8.0, -4.0])];
        try_solve_linearized_into(&j1, &b1, &mut ws, &mut sol).unwrap();
        assert!(sol[0].distance(&s(&[1.0, 2.0])) < 1e-60);
        assert!(sol[1].distance(&s(&[2.0, -1.0])) < 1e-60);
        // The diagonal factorization's pivot ratio is exactly 4/2.
        assert_eq!(ws.conditioning(), 2.0);
        // A different (permuted, 3x3) system through the same buffers.
        let j2 = vec![
            vec![s(&[0.0, 0.0]), s(&[1.0, 0.0]), s(&[0.0, 0.0])],
            vec![s(&[1.0, 0.0]), s(&[0.0, 0.0]), s(&[0.0, 0.0])],
            vec![s(&[0.0, 0.0]), s(&[0.0, 0.0]), s(&[2.0, 0.0])],
        ];
        let x = [s(&[1.0, 1.0]), s(&[-1.0, 0.5]), s(&[3.0, 0.0])];
        let b2 = vec![x[1].clone(), x[0].clone(), x[2].scale(&Qd::from_f64(2.0))];
        try_solve_linearized_into(&j2, &b2, &mut ws, &mut sol).unwrap();
        for (a, e) in sol.iter().zip(x.iter()) {
            assert!(a.distance(e) < 1e-60, "distance {}", a.distance(e));
        }
    }

    #[test]
    fn solve_linearized_pivots_on_a_zero_leading_entry() {
        // J_0 = [[0, 1], [1, 0]] requires a row swap.
        let s = |v: &[f64]| Series::<Qd>::from_f64_coeffs(v);
        let jacobian = vec![
            vec![s(&[0.0, 1.0, 0.0]), s(&[1.0, 0.0, 0.0])],
            vec![s(&[1.0, 0.0, 0.0]), s(&[0.0, 0.0, 1.0])],
        ];
        let x = [s(&[1.0, 2.0, 3.0]), s(&[-1.0, 0.5, 0.0])];
        let b: Vec<Series<Qd>> = (0..2)
            .map(|i| jacobian[i][0].mul(&x[0]).add(&jacobian[i][1].mul(&x[1])))
            .collect();
        let got = try_solve_linearized(&jacobian, &b).unwrap();
        assert!(got[0].distance(&x[0]) < 1e-60);
        assert!(got[1].distance(&x[1]) < 1e-60);
    }

    #[test]
    fn singular_constant_jacobian_is_a_numerical_error() {
        let s = |v: &[f64]| Series::<Qd>::from_f64_coeffs(v);
        let jacobian = vec![
            vec![s(&[1.0, 0.0]), s(&[2.0, 0.0])],
            vec![s(&[2.0, 0.0]), s(&[4.0, 0.0])],
        ];
        let b = vec![s(&[1.0, 0.0]), s(&[1.0, 0.0])];
        let err = try_solve_linearized(&jacobian, &b).unwrap_err();
        assert!(matches!(err, Error::Numerical(_)), "got {err:?}");
        assert!(err.message().contains("singular"));
        // The workspace flags the failed factorization as unconditioned.
        let mut ws = LinearSolveWorkspace::<Qd>::new();
        let mut sol = Vec::new();
        assert!(try_solve_linearized_into(&jacobian, &b, &mut ws, &mut sol).is_err());
        assert_eq!(ws.conditioning(), f64::INFINITY);
    }

    /// A NaN or infinite entry anywhere in `J_0` reaches a pivot, so the
    /// solve fails as numerical rather than handing back a NaN solution
    /// with a finite pivot ratio.
    fn non_finite_entries_fail_at<C: RealCoeff>() {
        let s = |v: f64| Series::constant(C::from_f64(v), 0);
        let matrix = |entries: [[f64; 2]; 2]| -> Vec<Vec<Series<C>>> {
            entries.iter().map(|row| row.map(s).to_vec()).collect()
        };
        let clean = [[2.0, 1.0], [1.0, 3.0]];
        let b = vec![s(1.0), s(1.0)];
        let mut ws = LinearSolveWorkspace::<C>::new();
        let mut sol = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let mut entries = clean;
                entries[r][c] = bad;
                let err =
                    try_solve_linearized_into(&matrix(entries), &b, &mut ws, &mut sol).unwrap_err();
                assert!(
                    matches!(err, Error::Numerical(_)),
                    "{bad} at [{r}][{c}]: {err:?}"
                );
                assert_eq!(ws.conditioning(), f64::INFINITY, "{bad} at [{r}][{c}]");
                // The workspace stays usable for the next, finite system.
                try_solve_linearized_into(&matrix(clean), &b, &mut ws, &mut sol).unwrap();
                assert_eq!(ws.conditioning(), 1.25);
            }
        }
    }

    #[test]
    fn non_finite_pivots_are_numerical_errors() {
        non_finite_entries_fail_at::<psmd_multidouble::Md1>();
        non_finite_entries_fail_at::<psmd_multidouble::Dd>();
    }

    #[test]
    fn shape_mismatches_are_config_errors() {
        let s = |v: &[f64]| Series::<Qd>::from_f64_coeffs(v);
        let jacobian = vec![vec![s(&[1.0, 0.0])], vec![s(&[2.0, 0.0])]];
        let b = vec![s(&[1.0, 0.0]), s(&[1.0, 0.0])];
        let err = try_solve_linearized(&jacobian, &b).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "got {err:?}");
        assert!(err.message().contains("square"));
    }

    /// A 2x2 multilinear system with the exact solution x = 1 + t,
    /// y = 2 - t:  f1 = x y - c1(t),  f2 = x + y - 3.
    fn multilinear_system(degree: usize) -> (Vec<Polynomial<Deca>>, Vec<Series<Deca>>) {
        type C = Deca;
        let x_exact = Series::<C>::from_f64_coeffs(&pad(&[1.0, 1.0], degree));
        let y_exact = Series::<C>::from_f64_coeffs(&pad(&[2.0, -1.0], degree));
        let c1 = x_exact.mul(&y_exact);
        let one = Series::constant(C::from_f64(1.0), degree);
        let f1 = Polynomial::new(2, c1.neg(), vec![Monomial::new(one.clone(), vec![0, 1])]);
        let f2 = Polynomial::new(
            2,
            Series::constant(C::from_f64(-3.0), degree),
            vec![
                Monomial::new(one.clone(), vec![0]),
                Monomial::new(one, vec![1]),
            ],
        );
        (vec![f1, f2], vec![x_exact, y_exact])
    }

    #[test]
    fn newton_converges_quadratically_on_the_multilinear_system() {
        type C = Deca;
        let degree = 16;
        let (system, exact) = multilinear_system(degree);
        // Start from the constant solution (correct at t = 0).
        let initial = vec![
            Series::constant(C::from_f64(1.0), degree),
            Series::constant(C::from_f64(2.0), degree),
        ];
        let plan = Engine::builder().threads(0).build().compile(system);
        let result = try_newton_system(
            &plan,
            &initial,
            &NewtonOptions {
                max_iterations: 8,
                tolerance: 1e-100,
            },
        )
        .unwrap();
        assert!(result.converged(), "residuals: {:?}", result.residuals());
        for (got, want) in result.solution.iter().zip(exact.iter()) {
            assert!(
                got.distance(want) < 1e-100,
                "distance {}",
                got.distance(want)
            );
        }
        // Quadratic convergence doubles the number of correct series
        // coefficients per step: 16 coefficients need at most ~5 steps (the
        // residual max-magnitude is NOT monotone — higher-order coefficients
        // transiently grow while the correct prefix extends).
        assert!(
            result.iterations() <= 6,
            "took {} iterations, residuals: {:?}",
            result.iterations(),
            result.residuals()
        );
        assert!(result.trace.final_residual() <= 1e-100);
        // The trace carries a conditioning estimate of the last step.
        assert!(result.trace.conditioning >= 1.0);
    }

    #[test]
    fn newton_parallel_matches_sequential_bitwise() {
        let degree = 8;
        let (system, _) = multilinear_system(degree);
        let initial = vec![
            Series::constant(Deca::from_f64(1.0), degree),
            Series::constant(Deca::from_f64(2.0), degree),
        ];
        let opts = NewtonOptions {
            max_iterations: 4,
            tolerance: 0.0,
        };
        // A zero-worker engine runs every launch inline; a three-worker one
        // spreads each layer over four lanes.
        let newton = |threads| {
            let engine = Engine::builder().threads(threads).build();
            try_newton_system(&engine.compile(system.clone()), &initial, &opts).unwrap()
        };
        let (seq, par) = (newton(0), newton(3));
        assert_eq!(seq.solution.len(), par.solution.len());
        for (a, b) in seq.solution.iter().zip(&par.solution) {
            let bits = |s: &Series<Deca>| -> Vec<[u64; 10]> {
                s.coeffs()
                    .iter()
                    .map(|c| c.limbs().map(f64::to_bits))
                    .collect()
            };
            assert_eq!(bits(a), bits(b));
        }
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seq.trace.residuals), bits(&par.trace.residuals));
        assert_eq!(seq.trace.conditioning, par.trace.conditioning);
    }

    #[test]
    fn non_square_systems_are_config_errors() {
        let d = 2;
        let one = Series::<Qd>::one(d);
        let f1 = Polynomial::new(3, Series::zero(d), vec![Monomial::new(one, vec![0, 1])]);
        let initial = vec![Series::zero(d)];
        let plan = Engine::builder().threads(0).build().compile(vec![f1]);
        let err = try_newton_system(&plan, &initial, &NewtonOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "got {err:?}");
        assert!(err.message().contains("square system"));
    }

    #[test]
    fn single_polynomial_plans_are_config_errors() {
        // x0 - 2 is square as a one-equation system, but a plan compiled
        // from the bare polynomial produces a value and gradient, not the
        // values and Jacobian Newton solves with.
        let d = 2;
        let c = |x: f64| Series::constant(Qd::from_f64(x), d);
        let f = Polynomial::new(1, c(-2.0), vec![Monomial::new(c(1.0), vec![0])]);
        let engine = Engine::builder().threads(0).build();
        let opts = NewtonOptions::default();
        let err = try_newton_system(&engine.compile(f.clone()), &[c(1.0)], &opts).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "got {err:?}");
        assert!(err.message().contains("compiled from a system"), "{err}");
        let solved = try_newton_system(&engine.compile(vec![f]), &[c(1.0)], &opts).unwrap();
        assert!(solved.converged());
    }

    #[test]
    fn trace_improvement_reads_the_last_step() {
        let trace = NewtonTrace {
            residuals: vec![1e-2, 1e-6, 5e-7],
            iterations: 2,
            converged: false,
            conditioning: 3.0,
        };
        assert_eq!(trace.final_residual(), 5e-7);
        assert_eq!(trace.last_improvement(), 2.0);
        assert_eq!(NewtonTrace::default().last_improvement(), f64::INFINITY);
        assert_eq!(NewtonTrace::default().final_residual(), f64::INFINITY);
    }
}
