//! A cohort: every path currently tracked at one precision, corrected by
//! **one** coalesced batched launch per sweep.
//!
//! Each live path owns a lane (its iterate and tangent).  A
//! [`Cohort::round`] stages every live lane's trial iterate into one
//! [`Inputs::Batch`] request against the stacked `[G; F]` plan, runs it as
//! a single fused launch sequence, then advances every lane's state machine
//! — predict, correct, accept, reject or escalate — from its slice of the
//! batched result.  A lane's linear solve starts and finishes inside its
//! own step, so the solve scratch (residual, Jacobian, right-hand side,
//! update and factorization) is one set per cohort, not one per lane.
//!
//! At degree 0 each solve — the tangent and every Newton update — factors
//! `∂H/∂x` in `f64` and lifts the update to the working precision.  Newton
//! accepts on the working-precision residual `H(x, t)`, so a correction
//! with relative error η only slows convergence to a linear rate of about
//! η while the residual still sets the attainable accuracy.  The solve
//! falls back to the working precision when the `f64` factorization fails
//! or its pivot ratio leaves fewer than 30 bits of the correction (see
//! [`F64_SOLVE_MARGIN`]), and above degree 0.
//!
//! All round-to-round buffers are reused, so the steady-state corrector
//! sweep allocates nothing; only construction and escalation (which
//! rebuilds lanes at a wider precision) allocate.

use psmd_core::{
    try_solve_linearized_into, Engine, Error, EvalOutput, Inputs, LinearSolveWorkspace,
    SystemBatchEvaluation, SystemEvaluation,
};
use psmd_multidouble::{Md1, Precision, RealCoeff};
use psmd_series::Series;

use crate::control::{next_precision, roundoff, stall_floor};
use crate::homotopy::Homotopy;
use crate::report::{PathStatus, TrackReport};
use crate::spec::HomotopySpec;
use crate::TrackOptions;

/// A path frozen between precisions: everything needed to resume tracking
/// at a wider coefficient type, with the iterate stored as raw limb vectors
/// (`x_limbs[var][coeff][limb]`) so the transfer is exact — zero-extending
/// a renormalized expansion widens it without rounding.
#[derive(Debug, Clone)]
pub(crate) struct RawPath {
    pub path: usize,
    pub t: f64,
    pub step: f64,
    pub x_limbs: Vec<Vec<Vec<f64>>>,
    pub steps: usize,
    pub rejected_steps: usize,
    pub corrector_iterations: usize,
    pub residuals: Vec<f64>,
    pub last_residual: f64,
    pub start_precision: Precision,
    pub escalations: Vec<Precision>,
}

impl RawPath {
    /// A fresh path at `t = 0` from a start solution (one `f64` per
    /// variable; higher series coefficients start at zero).
    pub fn fresh(path: usize, start: &[f64], options: &TrackOptions) -> Self {
        Self {
            path,
            t: 0.0,
            step: options.initial_step,
            x_limbs: start.iter().map(|&c| vec![vec![c]]).collect(),
            steps: 0,
            rejected_steps: 0,
            corrector_iterations: 0,
            residuals: Vec::new(),
            last_residual: f64::INFINITY,
            start_precision: options.start_precision,
            escalations: Vec::new(),
        }
    }
}

/// What ended a lane's life in this cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Converged,
    Failed,
    Escalate,
}

/// Which evaluation the lane is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Evaluating at the accepted point to (re)build the tangent and issue
    /// the first prediction — a lane's state right after construction.
    Priming,
    /// Evaluating at the trial iterate of a predictor step.
    Correcting,
}

/// One path's state at this cohort's precision.
struct Lane<C> {
    path: usize,
    /// Accepted point and parameter.
    x: Vec<Series<C>>,
    t: f64,
    /// Trial iterate and parameter the next evaluation targets.
    x_trial: Vec<Series<C>>,
    t_trial: f64,
    /// Tangent `dx/dt` at the accepted point (valid once primed).
    dxdt: Vec<Series<C>>,
    step: f64,
    iters_this_step: usize,
    steps: usize,
    rejected_steps: usize,
    corrector_iterations: usize,
    residuals: Vec<f64>,
    last_residual: f64,
    start_precision: Precision,
    escalations: Vec<Precision>,
    phase: Phase,
    fate: Option<Fate>,
}

impl<C: RealCoeff> Lane<C> {
    fn absorb(raw: RawPath, n: usize, degree: usize, options: &TrackOptions) -> Self {
        let dpv = C::doubles_per_value();
        let mut pad = vec![0.0; dpv];
        let x: Vec<Series<C>> = raw
            .x_limbs
            .iter()
            .map(|coeffs| {
                let mut s = Series::zero(degree);
                for (k, limbs) in coeffs.iter().enumerate() {
                    let take = limbs.len().min(dpv);
                    pad[..take].copy_from_slice(&limbs[..take]);
                    pad[take..].fill(0.0);
                    s.set_coeff(k, C::from_limbs(&pad));
                }
                s
            })
            .collect();
        let mut residuals = raw.residuals;
        residuals.truncate(options.residual_log);
        residuals.reserve(options.residual_log - residuals.len());
        Self {
            path: raw.path,
            x_trial: x.clone(),
            x,
            t: raw.t,
            t_trial: raw.t,
            dxdt: vec![Series::zero(degree); n],
            step: raw.step.clamp(options.min_step, options.max_step),
            iters_this_step: 0,
            steps: raw.steps,
            rejected_steps: raw.rejected_steps,
            corrector_iterations: raw.corrector_iterations,
            residuals,
            last_residual: raw.last_residual,
            start_precision: raw.start_precision,
            escalations: raw.escalations,
            phase: Phase::Priming,
            fate: None,
        }
    }

    fn export(&self) -> RawPath {
        let dpv = C::doubles_per_value();
        RawPath {
            path: self.path,
            t: self.t,
            step: self.step,
            x_limbs: self
                .x
                .iter()
                .map(|s| {
                    s.coeffs()
                        .iter()
                        .map(|c| {
                            let mut limbs = vec![0.0; dpv];
                            c.write_limbs(&mut limbs);
                            limbs
                        })
                        .collect()
                })
                .collect(),
            steps: self.steps,
            rejected_steps: self.rejected_steps,
            corrector_iterations: self.corrector_iterations,
            residuals: self.residuals.clone(),
            last_residual: self.last_residual,
            start_precision: self.start_precision,
            escalations: self.escalations.clone(),
        }
    }

    fn report(&self, precision: Precision) -> TrackReport {
        let raw = self.export();
        TrackReport {
            path: raw.path,
            status: match self.fate {
                Some(Fate::Converged) => PathStatus::Converged,
                Some(Fate::Failed) | Some(Fate::Escalate) | None => PathStatus::Failed,
            },
            t: raw.t,
            steps: raw.steps,
            rejected_steps: raw.rejected_steps,
            corrector_iterations: raw.corrector_iterations,
            final_residual: raw.last_residual,
            residual_trajectory: raw.residuals,
            start_precision: raw.start_precision,
            final_precision: precision,
            escalations: raw.escalations,
            solution: self
                .x
                .iter()
                .map(|s| s.coeffs().iter().map(RealCoeff::to_f64).collect())
                .collect(),
            solution_limbs: raw.x_limbs,
        }
    }

    fn record(&mut self, residual: f64) {
        self.last_residual = residual;
        if self.residuals.len() < self.residuals.capacity() {
            self.residuals.push(residual);
        }
    }

    /// Escalates to the next rung if the ladder allows, else fails.
    fn escalate_or_fail(&mut self, precision: Precision, options: &TrackOptions) {
        self.fate = match next_precision(precision) {
            Some(next) if next <= options.max_precision => Some(Fate::Escalate),
            _ => Some(Fate::Failed),
        };
    }

    /// Euler prediction from the accepted point along the cached tangent.
    fn predict(&mut self) {
        let t_next = (self.t + self.step).min(1.0);
        let dt = C::from_f64(t_next - self.t);
        for (xt, (x, dx)) in self
            .x_trial
            .iter_mut()
            .zip(self.x.iter().zip(self.dxdt.iter()))
        {
            for k in 0..x.coeffs().len() {
                xt.set_coeff(k, x.coeff(k).add(&dt.mul(&dx.coeff(k))));
            }
        }
        self.t_trial = t_next;
        self.iters_this_step = 0;
        self.phase = Phase::Correcting;
    }

    /// Rejects the trial step: shrink and re-predict from the accepted
    /// point (the cached tangent makes this launch-free), escalating when
    /// the step underflows.
    fn reject(&mut self, precision: Precision, options: &TrackOptions) {
        self.rejected_steps += 1;
        self.step *= options.shrink;
        if self.step < options.min_step {
            self.escalate_or_fail(precision, options);
        } else {
            self.predict();
        }
    }

    /// From a raw evaluation at the accepted point: build the tangent
    /// system, solve it, check the conditioning signal and issue the next
    /// prediction.
    fn prime_and_predict(
        &mut self,
        hom: &Homotopy<C>,
        eval: &SystemEvaluation<C>,
        scratch: &mut Scratch<C>,
        precision: Precision,
        options: &TrackOptions,
    ) -> Result<(), Error> {
        hom.minus_dt_into(eval, &mut scratch.rhs);
        match scratch.solve(hom, eval, self.t) {
            Ok(pivot_ratio) => {
                for (dx, d) in self.dxdt.iter_mut().zip(scratch.delta.iter()) {
                    dx.copy_from_coeffs(d.coeffs());
                }
                let t_next = (self.t + self.step).min(1.0);
                // The conditioning signal: when the pivot-ratio estimate
                // says this precision cannot express the demanded
                // tolerance, escalate before burning corrector sweeps.
                if pivot_ratio * roundoff(precision) > options.tolerance_at(t_next) {
                    self.escalate_or_fail(precision, options);
                } else {
                    self.predict();
                }
                Ok(())
            }
            Err(Error::Numerical(_)) => {
                // Singular at this precision: a wider mantissa may separate
                // the pivots.
                self.escalate_or_fail(precision, options);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Advances the state machine from this round's evaluation of
    /// `x_trial`.
    fn process(
        &mut self,
        hom: &Homotopy<C>,
        eval: &SystemEvaluation<C>,
        scratch: &mut Scratch<C>,
        precision: Precision,
        options: &TrackOptions,
    ) -> Result<(), Error> {
        if self.phase == Phase::Priming {
            // The evaluation is at the accepted point; record where it
            // stands and issue the first prediction of this cohort.
            hom.combine_value_into(eval, self.t, &mut scratch.h);
            self.record(residual_norm(&scratch.h));
            return self.prime_and_predict(hom, eval, scratch, precision, options);
        }

        hom.combine_value_into(eval, self.t_trial, &mut scratch.h);
        let residual = residual_norm(&scratch.h);
        self.record(residual);
        let tol = options.tolerance_at(self.t_trial);

        if residual <= tol {
            // Accept: the evaluation at hand is exactly at the new accepted
            // point, so it primes the next prediction for free.
            for (x, xt) in self.x.iter_mut().zip(self.x_trial.iter()) {
                x.copy_from_coeffs(xt.coeffs());
            }
            self.t = self.t_trial;
            self.steps += 1;
            if self.t >= 1.0 {
                self.fate = Some(Fate::Converged);
                return Ok(());
            }
            if self.steps >= options.max_steps {
                self.fate = Some(Fate::Failed);
                return Ok(());
            }
            if self.iters_this_step <= options.fast_iterations {
                self.step = (self.step * options.grow).min(options.max_step);
            }
            return self.prime_and_predict(hom, eval, scratch, precision, options);
        }

        if !residual.is_finite() || residual > options.divergence_threshold {
            self.reject(precision, options);
            return Ok(());
        }

        if self.iters_this_step >= options.max_corrector_iterations {
            // Exhausted.  Stuck at this precision's roundoff floor means
            // the iterate is as converged as the mantissa can express —
            // escalate; a genuinely bad step is shrunk instead.
            if residual <= stall_floor(precision) {
                self.escalate_or_fail(precision, options);
            } else {
                self.reject(precision, options);
            }
            return Ok(());
        }

        // One Newton update: J(x, t)·δ = −H(x, t), x += δ.
        for (h, r) in scratch.h.iter().zip(scratch.rhs.iter_mut()) {
            h.neg_into(r);
        }
        match scratch.solve(hom, eval, self.t_trial) {
            Ok(pivot_ratio) => {
                if pivot_ratio * roundoff(precision) > tol {
                    self.escalate_or_fail(precision, options);
                    return Ok(());
                }
                for (xt, d) in self.x_trial.iter_mut().zip(scratch.delta.iter()) {
                    xt.add_assign(d);
                }
                self.iters_this_step += 1;
                self.corrector_iterations += 1;
                scratch.iterations += 1;
                Ok(())
            }
            Err(Error::Numerical(_)) => {
                self.escalate_or_fail(precision, options);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

/// The largest pivot ratio times `f64`'s unit roundoff `2⁻⁵²` at which a
/// correction is still solved in `f64`: the lifted update then carries at
/// least 30 correct bits, so Newton gains at least 30 bits per iteration
/// and the working-precision residual, not the solve, sets the attainable
/// accuracy.  A margin of 1e-6 lost a path of a near-double-root family
/// that working-precision solves converge.
const F64_SOLVE_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// The solve scratch of a cohort.  A lane's solve starts and finishes
/// inside its own [`Lane::process`] call, so one set of buffers serves
/// every lane.
struct Scratch<C> {
    /// Combined residual `H` of the lane being processed.
    h: Vec<Series<C>>,
    /// Right-hand side (`−H` or `−∂H/∂t`) and solution of the solve at
    /// hand, at the working precision.
    rhs: Vec<Series<C>>,
    delta: Vec<Series<C>>,
    /// The working-precision Jacobian and factorization (the fallback).
    jac: Vec<Vec<Series<C>>>,
    solver: LinearSolveWorkspace<C>,
    /// The degree-0 `f64` Jacobian, right-hand side, solution and
    /// factorization.
    jac_f64: Vec<Vec<Series<Md1>>>,
    rhs_f64: Vec<Series<Md1>>,
    delta_f64: Vec<Series<Md1>>,
    solver_f64: LinearSolveWorkspace<Md1>,
    /// Corrector iterations this cohort's lanes took.
    iterations: usize,
    /// Solves that ran at the working precision.
    working_precision_solves: usize,
}

impl<C: RealCoeff> Scratch<C> {
    fn new(n: usize, degree: usize) -> Self {
        Self {
            h: vec![Series::zero(degree); n],
            rhs: vec![Series::zero(degree); n],
            delta: vec![Series::zero(degree); n],
            jac: vec![vec![Series::zero(degree); n]; n],
            solver: LinearSolveWorkspace::new(),
            jac_f64: vec![vec![Series::zero(0); n]; n],
            rhs_f64: vec![Series::zero(0); n],
            delta_f64: vec![Series::zero(0); n],
            solver_f64: LinearSolveWorkspace::new(),
            iterations: 0,
            working_precision_solves: 0,
        }
    }

    /// Solves `∂H/∂x (x, t) · delta = rhs` from the raw evaluation at `x`
    /// and returns the pivot ratio of the factorization that ran.  At
    /// degree 0 it factors in `f64` and lifts the solution; it falls back
    /// to the working precision when that factorization fails or its pivot
    /// ratio exceeds [`F64_SOLVE_MARGIN`], and above degree 0.
    fn solve(
        &mut self,
        hom: &Homotopy<C>,
        eval: &SystemEvaluation<C>,
        t: f64,
    ) -> Result<f64, Error> {
        if hom.degree() == 0 {
            hom.combine_jacobian_f64_into(eval, t, &mut self.jac_f64);
            for (r64, r) in self.rhs_f64.iter_mut().zip(self.rhs.iter()) {
                r64.set_coeff(0, Md1::from_f64(r.coeff(0).to_f64()));
            }
            let solved = try_solve_linearized_into(
                &self.jac_f64,
                &self.rhs_f64,
                &mut self.solver_f64,
                &mut self.delta_f64,
            );
            let pivot_ratio = self.solver_f64.conditioning();
            if solved.is_ok() && pivot_ratio * f64::EPSILON <= F64_SOLVE_MARGIN {
                for (d, d64) in self.delta.iter_mut().zip(self.delta_f64.iter()) {
                    d.set_coeff(0, C::from_f64(d64.coeff(0).to_f64()));
                }
                return Ok(pivot_ratio);
            }
        }
        self.working_precision_solves += 1;
        hom.combine_jacobian_into(eval, t, &mut self.jac);
        try_solve_linearized_into(&self.jac, &self.rhs, &mut self.solver, &mut self.delta)?;
        Ok(self.solver.conditioning())
    }
}

/// Max-magnitude residual norm over all equations of a combined `H`.
fn residual_norm<C: RealCoeff>(h: &[Series<C>]) -> f64 {
    h.iter().map(Series::max_magnitude).fold(0.0, f64::max)
}

/// Everything a cohort hands back when its last lane goes terminal.
pub(crate) struct CohortOutcome {
    /// Reports of the lanes that converged or failed here.
    pub reports: Vec<TrackReport>,
    /// Lanes that want a wider precision, frozen as raw paths.
    pub escalated: Vec<RawPath>,
    /// Coalesced batched launches this cohort issued.
    pub corrector_launches: usize,
    /// Corrector iterations taken at this cohort's precision.
    pub iterations: usize,
    /// Solves that ran at the working precision instead of `f64`.
    pub working_precision_solves: usize,
}

/// All paths live at one precision, plus the shared batched-evaluation
/// plumbing: the staged input batch, the reused output and the one solve
/// scratch every lane borrows in turn.  Every sweep evaluates through a
/// workspace parked in the precision's plan.
pub(crate) struct Cohort<C: RealCoeff> {
    homotopy: Homotopy<C>,
    precision: Precision,
    lanes: Vec<Lane<C>>,
    scratch: Scratch<C>,
    /// Lane indices staged this round, in batch-slot order.
    live: Vec<usize>,
    batch: Vec<Vec<Series<C>>>,
    out: EvalOutput<C>,
    corrector_launches: usize,
}

impl<C: RealCoeff> Cohort<C> {
    pub fn new(
        spec: &HomotopySpec,
        engine: &Engine,
        options: &TrackOptions,
        precision: Precision,
        raws: Vec<RawPath>,
    ) -> Result<Self, Error> {
        let homotopy = Homotopy::<C>::compile(spec, engine, options)?;
        let n = homotopy.num_variables();
        let degree = homotopy.degree();
        let lanes: Vec<Lane<C>> = raws
            .into_iter()
            .map(|raw| Lane::absorb(raw, n, degree, options))
            .collect();
        let batch = vec![vec![Series::zero(degree); n]; lanes.len()];
        Ok(Self {
            homotopy,
            precision,
            scratch: Scratch::new(n, degree),
            live: Vec::with_capacity(lanes.len()),
            batch,
            lanes,
            out: EvalOutput::SystemBatch(SystemBatchEvaluation::empty()),
            corrector_launches: 0,
        })
    }

    /// Runs one coalesced corrector sweep over every live lane: stage all
    /// trial iterates, evaluate them in **one** batched launch, advance
    /// every state machine.  Returns `false` when no lane is live anymore.
    pub fn round(&mut self, options: &TrackOptions) -> Result<bool, Error> {
        self.live.clear();
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.fate.is_none() {
                self.live.push(i);
            }
        }
        if self.live.is_empty() {
            return Ok(false);
        }
        for (slot, &i) in self.live.iter().enumerate() {
            for (staged, xt) in self.batch[slot]
                .iter_mut()
                .zip(self.lanes[i].x_trial.iter())
            {
                staged.copy_from_coeffs(xt.coeffs());
            }
        }
        self.homotopy
            .plan()
            .request(Inputs::Batch(&self.batch[..self.live.len()]))
            .into(&mut self.out)
            .run();
        self.corrector_launches += 1;
        let evals = self
            .out
            .as_system_batch()
            .expect("a batched system request fills a SystemBatch output");
        for (slot, &i) in self.live.iter().enumerate() {
            self.lanes[i].process(
                &self.homotopy,
                &evals.instances[slot],
                &mut self.scratch,
                self.precision,
                options,
            )?;
        }
        Ok(true)
    }

    /// Tears the cohort down into reports and escalation requests.
    pub fn finish(self) -> CohortOutcome {
        let mut reports = Vec::new();
        let mut escalated = Vec::new();
        for lane in &self.lanes {
            match lane.fate {
                Some(Fate::Escalate) => escalated.push(lane.export()),
                _ => reports.push(lane.report(self.precision)),
            }
        }
        CohortOutcome {
            reports,
            escalated,
            corrector_launches: self.corrector_launches,
            iterations: self.scratch.iterations,
            working_precision_solves: self.scratch.working_precision_solves,
        }
    }
}
