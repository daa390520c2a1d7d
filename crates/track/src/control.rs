//! Step-size and precision control knobs of the tracker.

use psmd_core::{Error, EvalOptions};
use psmd_multidouble::Precision;

/// Tuning knobs of the predictor–corrector loop.
///
/// The defaults track well-conditioned square systems at double precision
/// and escalate through the multiple-double ladder only when the corrector
/// demands it.
#[derive(Debug, Clone)]
pub struct TrackOptions {
    /// Precision every path starts tracking at.
    pub start_precision: Precision,
    /// Highest precision a path may escalate to before it is failed.
    pub max_precision: Precision,
    /// Corrector tolerance while `t < 1`: a corrector sweep succeeds when
    /// the residual norm drops below this.
    pub corrector_tolerance: f64,
    /// Tolerance demanded of the endpoint at `t = 1`.  Setting this below
    /// the roundoff floor of the current precision is what forces
    /// escalation at the endgame.
    pub final_tolerance: f64,
    /// Corrector iterations allowed per step before the step is rejected.
    pub max_corrector_iterations: usize,
    /// Initial step size in `t`.
    pub initial_step: f64,
    /// Smallest allowed step size; a path whose step underflows this
    /// escalates (or fails at [`max_precision`](Self::max_precision)).
    pub min_step: f64,
    /// Largest allowed step size.
    pub max_step: f64,
    /// Multiplier applied to the step on rejection (`< 1`).
    pub shrink: f64,
    /// Multiplier applied to the step after a fast convergence (`> 1`).
    pub grow: f64,
    /// A correction counts as "fast" (and grows the step) when it needs at
    /// most this many iterations.
    pub fast_iterations: usize,
    /// Accepted-step budget per path.
    pub max_steps: usize,
    /// A corrector iterate whose residual exceeds this is declared
    /// divergent immediately.
    pub divergence_threshold: f64,
    /// Per-path cap on recorded residual norms (recording stops when full,
    /// keeping the steady-state corrector sweep allocation-free).
    pub residual_log: usize,
    /// Per-plan evaluation options (kernel, SIMD lane mode) for the
    /// stacked homotopy plan; `None` inherits the engine's own options.
    pub eval: Option<EvalOptions>,
}

impl Default for TrackOptions {
    fn default() -> Self {
        Self {
            start_precision: Precision::D1,
            max_precision: Precision::D10,
            corrector_tolerance: 1e-10,
            final_tolerance: 1e-10,
            max_corrector_iterations: 4,
            initial_step: 0.1,
            min_step: 1e-6,
            max_step: 0.25,
            shrink: 0.5,
            grow: 1.5,
            fast_iterations: 2,
            max_steps: 500,
            divergence_threshold: 1e8,
            residual_log: 256,
            eval: None,
        }
    }
}

impl TrackOptions {
    /// Checks the knobs for consistency.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] describing the first inconsistent knob.
    pub fn validate(&self) -> Result<(), Error> {
        if self.start_precision > self.max_precision {
            return Err(Error::config(format!(
                "start precision {} exceeds max precision {}",
                self.start_precision.label(),
                self.max_precision.label()
            )));
        }
        if !(self.corrector_tolerance > 0.0 && self.final_tolerance > 0.0) {
            return Err(Error::config("tolerances must be positive"));
        }
        if self.max_corrector_iterations == 0 {
            return Err(Error::config("need at least one corrector iteration"));
        }
        if !(self.initial_step > 0.0 && self.initial_step <= 1.0) {
            return Err(Error::config(format!(
                "initial step must be in (0, 1], got {}",
                self.initial_step
            )));
        }
        if !(self.min_step > 0.0 && self.min_step <= self.initial_step) {
            return Err(Error::config("min step must be in (0, initial step]"));
        }
        if self.max_step < self.initial_step {
            return Err(Error::config("max step must be at least the initial step"));
        }
        if !(self.shrink > 0.0 && self.shrink < 1.0) {
            return Err(Error::config(format!(
                "shrink factor must be in (0, 1), got {}",
                self.shrink
            )));
        }
        if self.grow < 1.0 {
            return Err(Error::config(format!(
                "grow factor must be at least 1, got {}",
                self.grow
            )));
        }
        if self.max_steps == 0 {
            return Err(Error::config("need a nonzero step budget"));
        }
        Ok(())
    }

    /// The tolerance a trial step at `t_trial` must meet: the final
    /// tolerance at the endpoint, the corrector tolerance before it.
    pub(crate) fn tolerance_at(&self, t_trial: f64) -> f64 {
        if t_trial >= 1.0 {
            self.final_tolerance
        } else {
            self.corrector_tolerance
        }
    }
}

/// Unit roundoff of a precision: `2^(1 − 52·limbs)`, the relative spacing
/// of a multiple-double with that many limbs.  Residuals cannot be expected
/// to drop much below a small multiple of this.
pub(crate) fn roundoff(p: Precision) -> f64 {
    2f64.powi(1 - 52 * p.limbs() as i32)
}

/// The stall floor of a precision: a residual at or below
/// `roundoff · 1e4` is "as converged as this precision can express", so a
/// corrector stuck there should escalate rather than shrink the step.
pub(crate) fn stall_floor(p: Precision) -> f64 {
    roundoff(p) * 1e4
}

/// The next rung of the precision ladder, if any.
pub(crate) fn next_precision(p: Precision) -> Option<Precision> {
    let i = Precision::ALL.iter().position(|&q| q == p)?;
    Precision::ALL.get(i + 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        TrackOptions::default().validate().unwrap();
    }

    #[test]
    fn inverted_precision_ladder_is_rejected() {
        let opts = TrackOptions {
            start_precision: Precision::D4,
            max_precision: Precision::D2,
            ..TrackOptions::default()
        };
        assert!(opts.validate().is_err());
    }

    #[test]
    fn endpoint_gets_the_final_tolerance() {
        let opts = TrackOptions {
            final_tolerance: 1e-40,
            ..TrackOptions::default()
        };
        assert_eq!(opts.tolerance_at(0.5), 1e-10);
        assert_eq!(opts.tolerance_at(1.0), 1e-40);
    }

    #[test]
    fn the_ladder_walks_d1_to_d10() {
        assert_eq!(next_precision(Precision::D1), Some(Precision::D2));
        assert_eq!(next_precision(Precision::D5), Some(Precision::D8));
        assert_eq!(next_precision(Precision::D10), None);
    }

    #[test]
    fn roundoff_matches_the_limb_count() {
        assert_eq!(roundoff(Precision::D1), 2f64.powi(-51));
        assert_eq!(roundoff(Precision::D2), 2f64.powi(-103));
        assert!(stall_floor(Precision::D2) > roundoff(Precision::D2));
    }
}
