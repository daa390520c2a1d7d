//! The service object: named plans, admission control and the value-level
//! (`f64`) entry points the wire protocol builds on.
//!
//! A [`Service`] wraps one [`Engine`] and a registry of compiled plans,
//! each fronted by its own coalescing [`PlanQueue`].  Registration goes
//! through the engine's *fallible* compile path ([`Engine::try_compile`]),
//! so a malformed source arriving over a wire degrades into an error reply
//! instead of aborting the process.

use crate::coalesce::{PlanQueue, Ticket};
use crate::metrics::MetricsSnapshot;
use psmd_core::{Engine, Evaluation, Plan, PolySource};
use psmd_multidouble::{with_precision, Coeff, Md, Precision};
use psmd_series::Series;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why the service rejected a request or registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: too many requests in flight for this plan.
    Busy {
        /// In-flight requests at rejection time.
        inflight: usize,
        /// The plan's admission limit.
        limit: usize,
    },
    /// The request's deadline expired before its result could be
    /// delivered: either it was still queued at staging time (rejected
    /// without a launch), or its coalesced window was already in flight —
    /// the waiter detached and the launch's result for this slot was
    /// discarded (see the protocol notes on [`crate::PlanQueue`]).
    DeadlineExceeded,
    /// No plan is registered under the given id.
    UnknownPlan(String),
    /// The operation is structurally unsupported (system sources, precision
    /// mismatches, malformed inputs).
    Rejected(String),
    /// The source failed the engine's structural validation.
    Invalid(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy { inflight, limit } => {
                write!(f, "busy: {inflight} requests in flight (limit {limit})")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::UnknownPlan(id) => write!(f, "unknown plan '{id}'"),
            ServeError::Rejected(m) => write!(f, "rejected: {m}"),
            ServeError::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<psmd_core::Error> for ServeError {
    fn from(e: psmd_core::Error) -> Self {
        ServeError::Invalid(e.to_string())
    }
}

/// Service configuration: the coalescing window and the admission limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest number of requests one coalesced launch may serve.
    pub max_batch: usize,
    /// Admission limit per plan; 0 derives it from the engine's worker
    /// pool: `(parallelism + 2) * max_batch`, i.e. as many requests as the
    /// plan's parked workspaces absorb in full windows.
    pub max_inflight: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_inflight: 0,
            default_deadline: None,
        }
    }
}

impl ServeConfig {
    fn resolve_inflight(&self, parallelism: usize) -> usize {
        if self.max_inflight > 0 {
            self.max_inflight
        } else {
            (parallelism + 2) * self.max_batch.max(1)
        }
    }
}

/// The most series coefficients a value-level source may span:
/// `(num_variables + monomials + 1) × (degree + 1)` counts one series per
/// input variable, per monomial coefficient and for the constant.  The
/// largest paper polynomial, p3 at degree 191, spans (128 + 8,128 + 1) ×
/// 192 ≈ 1.59M; the limit leaves headroom above that, and stops a
/// `compile` line with an absurd degree or variable count before it asks
/// for hundreds of gigabytes.
const MAX_SOURCE_COEFFICIENTS: usize = 1 << 21;

/// Rejects a value-level source spanning more than
/// [`MAX_SOURCE_COEFFICIENTS`], naming the field that dominates the size.
fn check_source_size(
    num_variables: usize,
    monomials: usize,
    degree: usize,
) -> Result<(), ServeError> {
    let total = num_variables
        .checked_add(monomials)
        .and_then(|series| series.checked_add(1))
        .zip(degree.checked_add(1))
        .and_then(|(series, per)| series.checked_mul(per));
    if total.is_some_and(|total| total <= MAX_SOURCE_COEFFICIENTS) {
        return Ok(());
    }
    let (field, value) = if degree >= num_variables.saturating_add(monomials) {
        ("degree", degree)
    } else if num_variables >= monomials {
        ("num_variables", num_variables)
    } else {
        ("monomials", monomials)
    };
    Err(ServeError::Invalid(format!(
        "'{field}' {value} is too large: (num_variables + monomials + 1) × (degree + 1) = \
         ({num_variables} + {monomials} + 1) × ({degree} + 1) series coefficients exceeds \
         the limit of {MAX_SOURCE_COEFFICIENTS}"
    )))
}

/// One evaluation request: the input series, reusable result buffers and an
/// optional deadline.
///
/// The `reuse` evaluation's buffers receive the result; passing the
/// previous response's buffers back (see [`Response::into_request`]) makes
/// a closed-loop client allocation-free in the steady state.
pub struct Request<C: Coeff> {
    /// One input series per variable.
    pub inputs: Vec<Series<C>>,
    /// Buffers for the result (grown on first use, reused afterwards).
    pub reuse: Evaluation<C>,
    /// Reject the request without launching if it is still queued at this
    /// instant.
    pub deadline: Option<Instant>,
}

impl<C: Coeff> Request<C> {
    /// A request evaluating at `inputs`, with fresh result buffers and no
    /// deadline.
    pub fn new(inputs: Vec<Series<C>>) -> Self {
        Self {
            inputs,
            reuse: Evaluation::empty(),
            deadline: None,
        }
    }

    /// Sets the deadline.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Provides result buffers to reuse.
    pub fn reusing(mut self, reuse: Evaluation<C>) -> Self {
        self.reuse = reuse;
        self
    }
}

/// A served evaluation: the result, the input buffers handed back for
/// reuse, and how many requests shared the launch.
pub struct Response<C: Coeff> {
    /// Value and gradient at the request's inputs.
    pub evaluation: Evaluation<C>,
    /// The request's input vectors, returned to the caller.
    pub inputs: Vec<Series<C>>,
    /// Size of the coalesced batch this request rode in (1 = it had the
    /// launch to itself).
    pub coalesced: usize,
}

impl<C: Coeff> fmt::Debug for Response<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Response")
            .field("coalesced", &self.coalesced)
            .field("num_inputs", &self.inputs.len())
            .finish_non_exhaustive()
    }
}

impl<C: Coeff> Response<C> {
    /// Turns the response back into a request reusing both the input and
    /// the result buffers — the closed-loop steady state.  Overwrite
    /// `inputs` with the next evaluation point before submitting.
    pub fn into_request(self) -> Request<C> {
        Request {
            inputs: self.inputs,
            reuse: self.evaluation,
            deadline: None,
        }
    }
}

/// A value-level evaluation result for callers (wire clients, FFI) that
/// never see a coefficient type: every multi-double coefficient is rounded
/// to its leading double.
#[derive(Debug, Clone, PartialEq)]
pub struct F64Evaluation {
    /// `p(z)` coefficients, constant term first.
    pub value: Vec<f64>,
    /// `dp/dx_i (z)` coefficients per variable.
    pub gradient: Vec<Vec<f64>>,
    /// Size of the coalesced batch the request rode in.
    pub coalesced: usize,
}

/// Precision-erased handle to a plan's queue: what the registry stores
/// alongside the typed `Arc<PlanQueue<C>>`.
trait QueueHandle: Send + Sync {
    fn snapshot(&self) -> MetricsSnapshot;
    fn drain_now(&self);
}

impl<C: Coeff> QueueHandle for PlanQueue<C> {
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics().snapshot()
    }
    fn drain_now(&self) {
        PlanQueue::drain_now(self)
    }
}

struct PlanEntry {
    handle: Arc<dyn QueueHandle>,
    typed: Arc<dyn Any + Send + Sync>,
    precision: Option<Precision>,
}

/// A long-lived evaluation service: one engine, a registry of named plans,
/// and a coalescing queue per plan.
///
/// ```
/// use psmd_core::{Engine, Monomial, Polynomial};
/// use psmd_multidouble::Dd;
/// use psmd_serve::{Request, ServeConfig, Service};
/// use psmd_series::Series;
///
/// let engine = Engine::builder().threads(0).try_build().unwrap();
/// let service = Service::new(engine, ServeConfig::default());
/// let d = 2;
/// let c = |x: f64| Series::constant(Dd::from_f64(x), d);
/// let p = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
/// service.register("p", p).unwrap();
///
/// let z = vec![
///     Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
///     Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
/// ];
/// let response = service.submit("p", Request::new(z)).unwrap();
/// assert_eq!(response.evaluation.value.coeff(0).to_f64(), 4.0);
/// ```
pub struct Service {
    engine: Engine,
    config: ServeConfig,
    plans: Mutex<HashMap<String, PlanEntry>>,
}

impl Service {
    /// A service over the given engine.
    pub fn new(engine: Engine, config: ServeConfig) -> Self {
        Self {
            engine,
            config,
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// The engine behind the service.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The service configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Ids of every registered plan, sorted.
    pub fn plan_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// Compiles and registers a plan under `id`, replacing any previous
    /// registration.  Goes through [`Engine::try_compile`].  System sources
    /// are rejected: a [`Response`] carries one [`Evaluation`] (a value and
    /// a gradient), which cannot hold a system's values and Jacobian.
    pub fn register<C: Coeff>(
        &self,
        id: &str,
        source: impl Into<PolySource<C>>,
    ) -> Result<Arc<PlanQueue<C>>, ServeError> {
        self.register_tagged(id, source, None)
    }

    fn register_tagged<C: Coeff>(
        &self,
        id: &str,
        source: impl Into<PolySource<C>>,
        precision: Option<Precision>,
    ) -> Result<Arc<PlanQueue<C>>, ServeError> {
        let source = source.into();
        if matches!(source, PolySource::System(_)) {
            return Err(ServeError::Rejected(
                "system sources cannot be served: a response carries one polynomial's value \
                 and gradient, not a system's values and Jacobian"
                    .to_string(),
            ));
        }
        let plan = self.engine.try_compile(source)?;
        let max_inflight = self
            .config
            .resolve_inflight(self.engine.pool().parallelism());
        let queue = Arc::new(PlanQueue::new(plan, self.config.max_batch, max_inflight));
        let entry = PlanEntry {
            handle: Arc::clone(&queue) as Arc<dyn QueueHandle>,
            typed: Arc::clone(&queue) as Arc<dyn Any + Send + Sync>,
            precision,
        };
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.to_string(), entry);
        Ok(queue)
    }

    /// The coalescing queue of a registered plan, typed at `C`.
    pub fn queue<C: Coeff>(&self, id: &str) -> Result<Arc<PlanQueue<C>>, ServeError> {
        let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = plans
            .get(id)
            .ok_or_else(|| ServeError::UnknownPlan(id.to_string()))?;
        Arc::clone(&entry.typed)
            .downcast::<PlanQueue<C>>()
            .map_err(|_| {
                ServeError::Rejected(format!(
                    "plan '{id}' is registered at a different coefficient type"
                ))
            })
    }

    /// The compiled plan behind a registration, typed at `C`.
    pub fn plan<C: Coeff>(&self, id: &str) -> Result<Arc<Plan<C>>, ServeError> {
        Ok(Arc::clone(self.queue::<C>(id)?.plan()))
    }

    /// Submits a request against a registered plan and blocks for the
    /// response; see [`PlanQueue::submit`] for the coalescing protocol.
    pub fn submit<C: Coeff>(
        &self,
        id: &str,
        request: Request<C>,
    ) -> Result<Response<C>, ServeError> {
        let queue = self.queue::<C>(id)?;
        self.validate_shape(queue.plan(), &request)?;
        queue.submit(self.apply_default_deadline(request))
    }

    /// Submits without blocking; the returned [`Ticket`] resolves the
    /// response on [`Ticket::wait`].
    pub fn submit_async<C: Coeff>(
        &self,
        id: &str,
        request: Request<C>,
    ) -> Result<Ticket<C>, ServeError> {
        let queue = self.queue::<C>(id)?;
        self.validate_shape(queue.plan(), &request)?;
        queue.submit_async(self.apply_default_deadline(request))
    }

    fn apply_default_deadline<C: Coeff>(&self, mut request: Request<C>) -> Request<C> {
        if request.deadline.is_none() {
            if let Some(budget) = self.config.default_deadline {
                request.deadline = Some(Instant::now() + budget);
            }
        }
        request
    }

    /// Rejects malformed inputs at admission, before they can reach (and
    /// panic) a coalesced launch that other callers share.
    fn validate_shape<C: Coeff>(
        &self,
        plan: &Arc<Plan<C>>,
        request: &Request<C>,
    ) -> Result<(), ServeError> {
        let want_vars = plan.source().num_variables();
        if request.inputs.len() != want_vars {
            return Err(ServeError::Rejected(format!(
                "expected {want_vars} input series, got {}",
                request.inputs.len()
            )));
        }
        let want_degree = plan.source().degree();
        for (v, series) in request.inputs.iter().enumerate() {
            if series.degree() != want_degree {
                return Err(ServeError::Rejected(format!(
                    "input series {v} has degree {} but the plan expects {want_degree}",
                    series.degree()
                )));
            }
        }
        Ok(())
    }

    /// Drains a plan's queue on the calling thread (a no-op when empty).
    pub fn flush(&self, id: &str) -> Result<(), ServeError> {
        let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = plans
            .get(id)
            .ok_or_else(|| ServeError::UnknownPlan(id.to_string()))?;
        let handle = Arc::clone(&entry.handle);
        drop(plans);
        handle.drain_now();
        Ok(())
    }

    /// A plan's metrics snapshot, completed with the engine-level fields
    /// (plan-cache statistics and the worker pool's rendezvous counter).
    pub fn metrics(&self, id: &str) -> Result<MetricsSnapshot, ServeError> {
        let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = plans
            .get(id)
            .ok_or_else(|| ServeError::UnknownPlan(id.to_string()))?;
        let handle = Arc::clone(&entry.handle);
        drop(plans);
        let mut snapshot = handle.snapshot();
        snapshot.plan_cache = Some(self.engine.cache_stats());
        snapshot.pool_rendezvous = Some(self.engine.rendezvous_count() as u64);
        Ok(snapshot)
    }

    /// The runtime precision a plan was registered at through the
    /// value-level API (`None` for plans registered through the typed
    /// [`Service::register`]).
    pub fn precision_of(&self, id: &str) -> Result<Option<Precision>, ServeError> {
        let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        plans
            .get(id)
            .map(|e| e.precision)
            .ok_or_else(|| ServeError::UnknownPlan(id.to_string()))
    }

    /// Registers a single polynomial given as plain doubles at a runtime
    /// precision — the wire protocol's `compile` operation.  Each monomial
    /// is a `(coefficient, variables)` pair.  A source of more than
    /// 2,097,152 series coefficients — `(num_variables + monomials + 1) ×
    /// (degree + 1)` — is [`ServeError::Invalid`] before anything is
    /// built.
    pub fn register_f64(
        &self,
        id: &str,
        precision: Precision,
        num_variables: usize,
        degree: usize,
        constant: f64,
        monomials: &[(f64, Vec<usize>)],
    ) -> Result<(), ServeError> {
        check_source_size(num_variables, monomials.len(), degree)?;
        // Validate the monomials by hand first: the typed constructors
        // panic on malformed variable tuples, and a wire request must get
        // an error reply instead.
        for (i, (_, variables)) in monomials.iter().enumerate() {
            if variables.is_empty() {
                return Err(ServeError::Invalid(format!(
                    "monomial {i} has no variables; fold constants into the constant term"
                )));
            }
            if !variables.windows(2).all(|w| w[0] < w[1]) {
                return Err(ServeError::Invalid(format!(
                    "monomial {i}: variable indices must be strictly increasing, got {variables:?}"
                )));
            }
            if let Some(&v) = variables.iter().find(|&&v| v >= num_variables) {
                return Err(ServeError::Invalid(format!(
                    "monomial {i} references variable {v} but the polynomial has {num_variables}"
                )));
            }
        }
        with_precision!(precision, N => {
            let constant = Series::constant(Md::<N>::from_f64(constant), degree);
            let monomials = monomials
                .iter()
                .map(|(coefficient, variables)| {
                    psmd_core::Monomial::new(
                        Series::constant(Md::<N>::from_f64(*coefficient), degree),
                        variables.clone(),
                    )
                })
                .collect();
            let poly = psmd_core::Polynomial::new(num_variables, constant, monomials);
            self.register_tagged::<Md<N>>(id, poly, Some(precision))?;
        });
        Ok(())
    }

    /// Evaluates a plan registered through [`Service::register_f64`] at
    /// inputs given as plain doubles (`inputs[v]` holds the coefficients of
    /// variable `v`, constant term first) — the wire protocol's `eval`
    /// operation.  Blocks for the (possibly coalesced) response.
    pub fn submit_f64(&self, id: &str, inputs: &[Vec<f64>]) -> Result<F64Evaluation, ServeError> {
        let Some(precision) = self.precision_of(id)? else {
            return Err(ServeError::Rejected(format!(
                "plan '{id}' was not registered through the value-level API; submit typed \
                 requests through `Service::submit`"
            )));
        };
        // A series needs at least one coefficient, and building one from an
        // empty array would panic: reject it first.
        if let Some(v) = inputs.iter().position(Vec::is_empty) {
            return Err(ServeError::Invalid(format!(
                "input series {v} has no coefficients"
            )));
        }
        with_precision!(precision, N => {
            let series: Vec<Series<Md<N>>> = inputs
                .iter()
                .map(|coeffs| Series::from_f64_coeffs(coeffs))
                .collect();
            let response = self.submit::<Md<N>>(id, Request::new(series))?;
            let to_f64 = |s: &Series<Md<N>>| -> Vec<f64> {
                (0..=s.degree()).map(|i| s.coeff(i).to_f64()).collect()
            };
            Ok(F64Evaluation {
                value: to_f64(&response.evaluation.value),
                gradient: response.evaluation.gradient.iter().map(to_f64).collect(),
                coalesced: response.coalesced,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_polynomials_fit_the_source_size_limit() {
        // p1, p2 and p3 of the paper (variables, monomials) at its largest
        // degree, 191; a degree or variable count beyond the limit names
        // the field, and overflowing products are rejected, not wrapped.
        for (n, m) in [(16, 1820), (128, 128), (128, 8128)] {
            assert!(check_source_size(n, m, 191).is_ok(), "({n}, {m})");
        }
        let message = |e: ServeError| e.to_string();
        let err = check_source_size(2, 1, 4_000_000_000).unwrap_err();
        assert!(message(err).contains("'degree'"));
        let err = check_source_size(4_000_000_000, 1, 2).unwrap_err();
        assert!(message(err).contains("'num_variables'"));
        let err = check_source_size(2, 1, usize::MAX).unwrap_err();
        assert!(message(err).contains("'degree'"));
        let err = check_source_size(usize::MAX, usize::MAX, 0).unwrap_err();
        assert!(message(err).contains("'num_variables'"));
    }
}
