//! The tracker front-end: runtime precision dispatch over the `Md<N>`
//! ladder and the escalation loop.
//!
//! A [`Tracker`] owns a validated [`HomotopySpec`] and [`TrackOptions`];
//! [`Tracker::track`] walks the precision ladder lazily: every path starts
//! in a cohort at the start precision, and a cohort at the next rung is
//! built **only** when some path demanded it — through
//! [`Engine::try_compile`]'s structurally-keyed plan cache, so tracking the
//! same family twice (or escalating twice to the same rung) recompiles
//! nothing.

use psmd_core::{Engine, Error};
use psmd_multidouble::{with_precision, Md};

use crate::cohort::{Cohort, RawPath};
use crate::control::next_precision;
use crate::report::{PathStatus, TrackOutcome, TrackReport, TrackStats};
use crate::spec::HomotopySpec;
use crate::TrackOptions;

/// An adaptive-precision homotopy continuation tracker for one family.
#[derive(Debug, Clone)]
pub struct Tracker {
    spec: HomotopySpec,
    options: TrackOptions,
}

impl Tracker {
    /// Builds a tracker after validating the family and the knobs.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when either fails validation.
    pub fn new(spec: HomotopySpec, options: TrackOptions) -> Result<Self, Error> {
        spec.validate()?;
        options.validate()?;
        Ok(Self { spec, options })
    }

    /// The family being tracked.
    pub fn spec(&self) -> &HomotopySpec {
        &self.spec
    }

    /// The control knobs.
    pub fn options(&self) -> &TrackOptions {
        &self.options
    }

    /// Tracks one path per start solution (one `f64` per variable; series
    /// coefficients above the constant term start at zero) from `t = 0` to
    /// `t = 1`, correcting all concurrently-live paths of a precision with
    /// one coalesced batched launch per sweep and escalating individual
    /// paths up the precision ladder on demand.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when a start solution has the wrong arity or the
    /// start list is empty.  Numerical trouble is **not** an error: it is
    /// reported per path in the [`TrackOutcome`].
    pub fn track(&self, engine: &Engine, starts: &[Vec<f64>]) -> Result<TrackOutcome, Error> {
        let n = self.spec.num_variables;
        if starts.is_empty() {
            return Err(Error::config("no start solutions to track"));
        }
        if let Some((i, bad)) = starts.iter().enumerate().find(|(_, s)| s.len() != n) {
            return Err(Error::config(format!(
                "start solution {i} has {} coordinates for {n} variables",
                bad.len()
            )));
        }

        let mut pending: Vec<RawPath> = starts
            .iter()
            .enumerate()
            .map(|(i, s)| RawPath::fresh(i, s, &self.options))
            .collect();
        let mut reports: Vec<Option<TrackReport>> = (0..starts.len()).map(|_| None).collect();
        let mut stats = TrackStats {
            paths: starts.len(),
            ..TrackStats::default()
        };

        let mut precision = self.options.start_precision;
        loop {
            let outcome = with_precision!(precision, N => {
                let mut cohort =
                    Cohort::<Md<N>>::new(&self.spec, engine, &self.options, precision, pending)?;
                while cohort.round(engine, &self.options)? {}
                cohort.finish()
            });
            stats.corrector_launches += outcome.corrector_launches;
            stats
                .iterations_by_precision
                .push((precision, outcome.iterations));
            stats.working_precision_solves += outcome.working_precision_solves;
            for report in outcome.reports {
                let path = report.path;
                reports[path] = Some(report);
            }
            pending = outcome.escalated;
            if pending.is_empty() {
                break;
            }
            // Escalation implies a next rung exists: lanes at the ceiling
            // fail instead of escalating.
            precision =
                next_precision(precision).expect("escalated lanes always have a next precision");
            stats
                .escalations_by_precision
                .push((precision, pending.len()));
            for raw in &mut pending {
                raw.escalations.push(precision);
            }
        }

        let reports: Vec<TrackReport> = reports
            .into_iter()
            .map(|r| r.expect("every path ends in exactly one cohort"))
            .collect();
        for r in &reports {
            match r.status {
                PathStatus::Converged => stats.converged += 1,
                _ => stats.diverged += 1,
            }
            if r.escalated() {
                stats.escalated_paths += 1;
            }
            stats.steps += r.steps;
            stats.newton_iterations += r.corrector_iterations;
        }
        Ok(TrackOutcome { reports, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MonomialSpec, PolySpec};
    use psmd_multidouble::Precision;

    /// One two-variable block `{x + y − s, x·y − p}`; `p < 0` keeps the two
    /// real roots of opposite sign, so they never collide along the path.
    fn block(x: usize, s: f64, p: f64) -> Vec<PolySpec> {
        vec![
            PolySpec {
                constant: vec![-s],
                monomials: vec![
                    MonomialSpec::constant_coeff(1.0, vec![x]),
                    MonomialSpec::constant_coeff(1.0, vec![x + 1]),
                ],
            },
            PolySpec {
                constant: vec![-p],
                monomials: vec![MonomialSpec::constant_coeff(1.0, vec![x, x + 1])],
            },
        ]
    }

    fn family() -> HomotopySpec {
        // Target roots of z² − 0.3 z − 2: irrational, opposite signs.
        HomotopySpec::new(2, 0, block(0, 0.0, -1.0), block(0, 0.3, -2.0))
    }

    #[test]
    fn wrong_start_arity_is_a_config_error() {
        let tracker = Tracker::new(family(), TrackOptions::default()).unwrap();
        let engine = Engine::builder().build();
        assert!(tracker.track(&engine, &[]).is_err());
        assert!(tracker.track(&engine, &[vec![1.0]]).is_err());
    }

    #[test]
    fn an_unreachable_tolerance_forces_escalation_past_dd() {
        let options = TrackOptions {
            // Below the roundoff floor of both 1d and 2d: the endgame must
            // climb to triple-double to express it.
            final_tolerance: 1e-40,
            ..TrackOptions::default()
        };
        let tracker = Tracker::new(family(), options).unwrap();
        let engine = Engine::builder().build();
        let outcome = tracker
            .track(&engine, &[vec![1.0, -1.0], vec![-1.0, 1.0]])
            .unwrap();
        assert_eq!(outcome.stats.converged, 2);
        assert_eq!(outcome.stats.escalated_paths, 2);
        for r in &outcome.reports {
            assert_eq!(r.start_precision, Precision::D1);
            assert!(r.final_precision >= Precision::D3, "stopped at dd or below");
            assert!(r.escalations.contains(&Precision::D3));
            assert!(r.final_residual <= 1e-40);
            // x·y = 2 exactly at the endpoint (to f64 accuracy).
            let xy = r.solution[0][0] * r.solution[1][0];
            assert!((xy + 2.0).abs() < 1e-9, "endpoint off: x·y = {xy}");
        }
        // Escalations land on 2d then 3d, every path both times.
        assert_eq!(
            outcome.stats.escalations_by_precision,
            vec![(Precision::D2, 2), (Precision::D3, 2)]
        );
    }

    #[test]
    fn a_capped_ladder_fails_instead_of_escalating() {
        let options = TrackOptions {
            final_tolerance: 1e-40,
            max_precision: Precision::D2,
            ..TrackOptions::default()
        };
        let tracker = Tracker::new(family(), options).unwrap();
        let engine = Engine::builder().build();
        let outcome = tracker.track(&engine, &[vec![1.0, -1.0]]).unwrap();
        assert_eq!(outcome.stats.converged, 0);
        assert_eq!(outcome.stats.diverged, 1);
        assert_eq!(outcome.reports[0].status, PathStatus::Failed);
        assert!(outcome.reports[0].final_precision <= Precision::D2);
    }

    #[test]
    fn batched_tracking_issues_fewer_launches_than_serial() {
        let tracker = Tracker::new(family(), TrackOptions::default()).unwrap();
        let engine = Engine::builder().build();
        let starts = [vec![1.0, -1.0], vec![-1.0, 1.0]];
        let batched = tracker.track(&engine, &starts).unwrap();
        let serial: usize = starts
            .iter()
            .map(|s| {
                tracker
                    .track(&engine, std::slice::from_ref(s))
                    .unwrap()
                    .stats
                    .corrector_launches
            })
            .sum();
        assert!(
            batched.stats.corrector_launches < serial,
            "batched {} vs serial {serial}",
            batched.stats.corrector_launches
        );
        // Same endpoints, bitwise: the batched arena stages each instance
        // exactly like a lone evaluation.
        for (i, s) in starts.iter().enumerate() {
            let lone = tracker.track(&engine, std::slice::from_ref(s)).unwrap();
            assert_eq!(
                lone.reports[0].solution_limbs,
                batched.reports[i].solution_limbs
            );
        }
    }
}
