//! Per-path reports and aggregate statistics of a tracking run.

use psmd_multidouble::Precision;

/// Terminal (or in-flight) status of one tracked path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStatus {
    /// The path is still being continued toward `t = 1`.
    Tracking,
    /// The path reached `t = 1` and its corrector converged below the
    /// final tolerance.
    Converged,
    /// The path was abandoned: the step size underflowed or the iterate
    /// diverged at the highest allowed precision, or the step budget ran
    /// out.
    Failed,
}

/// What happened to one path, from its start solution to its endpoint.
#[derive(Debug, Clone)]
pub struct TrackReport {
    /// Index of the path (position of its start solution in the input).
    pub path: usize,
    /// Terminal status.
    pub status: PathStatus,
    /// The continuation parameter reached (`1.0` exactly on convergence).
    pub t: f64,
    /// Accepted predictor–corrector steps.
    pub steps: usize,
    /// Rejected (shrunk-and-retried) steps.
    pub rejected_steps: usize,
    /// Total corrector (Newton) iterations spent on this path.
    pub corrector_iterations: usize,
    /// Residual of the last accepted corrector iterate.
    pub final_residual: f64,
    /// Residual norms in iteration order, bounded by
    /// [`TrackOptions::residual_log`](crate::TrackOptions::residual_log).
    pub residual_trajectory: Vec<f64>,
    /// Precision the path started tracking at.
    pub start_precision: Precision,
    /// Precision the path finished at.
    pub final_precision: Precision,
    /// Every precision the path escalated **to**, in order.
    pub escalations: Vec<Precision>,
    /// The endpoint, one `f64` approximation per series coefficient per
    /// variable (`solution[var][coeff]`).
    pub solution: Vec<Vec<f64>>,
    /// The endpoint at full working precision: limbs of every series
    /// coefficient of every variable (`solution_limbs[var][coeff][limb]`),
    /// exactly as wide as [`final_precision`](Self::final_precision).
    pub solution_limbs: Vec<Vec<Vec<f64>>>,
}

impl TrackReport {
    /// Whether the path converged.
    pub fn converged(&self) -> bool {
        self.status == PathStatus::Converged
    }

    /// Whether the path escalated past its starting precision.
    pub fn escalated(&self) -> bool {
        !self.escalations.is_empty()
    }
}

/// Aggregate statistics of one tracking run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackStats {
    /// Number of paths tracked.
    pub paths: usize,
    /// Paths that converged at `t = 1`.
    pub converged: usize,
    /// Paths that failed.
    pub diverged: usize,
    /// Paths that escalated precision at least once.
    pub escalated_paths: usize,
    /// `(precision, count)` pairs: how many escalations landed **on** each
    /// precision, ordered along the ladder.  Deterministic for the JSON
    /// snapshot gate.
    pub escalations_by_precision: Vec<(Precision, usize)>,
    /// Coalesced corrector launches issued (one per corrector sweep over
    /// all live paths of a cohort — the batching win the tracker exists
    /// for).
    pub corrector_launches: usize,
    /// Accepted steps summed over all paths.
    pub steps: usize,
    /// Corrector iterations summed over all paths.
    pub newton_iterations: usize,
    /// `(precision, count)` pairs: corrector iterations taken at each
    /// precision a cohort ran at, ordered along the ladder.  The counts sum
    /// to [`newton_iterations`](Self::newton_iterations).
    pub iterations_by_precision: Vec<(Precision, usize)>,
    /// Linear solves (tangents and Newton updates) that ran at the working
    /// precision rather than in `f64`: every solve above degree 0, and at
    /// degree 0 those whose `f64` factorization failed or was too badly
    /// conditioned to gain 30 bits per correction.
    pub working_precision_solves: usize,
}

impl TrackStats {
    /// Total escalations over all paths.
    pub fn escalations(&self) -> usize {
        self.escalations_by_precision.iter().map(|(_, c)| c).sum()
    }
}

/// The result of tracking a family of start solutions: one report per path
/// plus run-wide statistics.
#[derive(Debug, Clone)]
pub struct TrackOutcome {
    /// Per-path reports, in start-solution order.
    pub reports: Vec<TrackReport>,
    /// Aggregate statistics.
    pub stats: TrackStats,
}

impl TrackOutcome {
    /// The report of path `i`.
    pub fn report(&self, i: usize) -> &TrackReport {
        &self.reports[i]
    }

    /// Iterator over the converged reports.
    pub fn converged(&self) -> impl Iterator<Item = &TrackReport> {
        self.reports.iter().filter(|r| r.converged())
    }
}
