//! The admission controller: a live ROTA state plus a policy, with
//! deadline-miss accounting.

use core::fmt;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use rota_actor::ActorName;
use rota_interval::TimePoint;
use rota_logic::{State, TransitionError};
use rota_obs::DecisionEvent;
use rota_resource::ResourceSet;

use rota_logic::Commitment;

use crate::obs::AdmissionObs;
use crate::policy::{edf_assignments, AdmissionPolicy, Decision, RejectReason};
use crate::request::AdmissionRequest;

/// How the controller assigns available resources to commitments each
/// tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// First entitled commitment in admission order. Correct and
    /// conflict-free when commitments carry reservations (ROTA).
    #[default]
    FirstEntitled,
    /// Entitled commitment with the earliest deadline. The natural
    /// runtime for opportunistic (unreserved) commitments.
    EarliestDeadline,
}

/// Counters the controller maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Admitted computations that completed every segment.
    pub completed: u64,
    /// Admitted computations whose deadline passed with demand pending.
    pub missed: u64,
    /// Admitted computations withdrawn (the leave rule) before starting.
    pub withdrawn: u64,
}

impl ControllerStats {
    /// Acceptance rate over all requests (0 when none seen).
    pub fn acceptance_rate(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.accepted as f64 / total as f64
        }
    }

    /// Deadline-miss rate over admitted computations that have resolved
    /// (completed or missed).
    pub fn miss_rate(&self) -> f64 {
        let resolved = self.completed + self.missed;
        if resolved == 0 {
            0.0
        } else {
            self.missed as f64 / resolved as f64
        }
    }
}

/// Packages the verdict `policy` reached on `request` at `time` as a
/// decision event, for callers that keep a record of verdicts: an accept
/// records how many commitments were installed; a rejection records the
/// failing clause and (when attributable) the violated resource term.
pub fn decision_event(
    policy: &str,
    time: TimePoint,
    request: &AdmissionRequest,
    decision: &Decision,
) -> DecisionEvent {
    let (accepted, reason, violated_term, clause) = match decision {
        Decision::Accept(commitments) => (
            true,
            format!("{} commitment(s) scheduled", commitments.len()),
            None,
            None,
        ),
        Decision::Reject(reject) => (
            false,
            reject.to_string(),
            reject.violated_term().map(str::to_string),
            Some(reject.clause().to_string()),
        ),
    };
    DecisionEvent::Admission {
        time: time.ticks(),
        policy: policy.to_string(),
        computation: request.name().to_string(),
        accepted,
        reason,
        violated_term,
        clause,
    }
}

/// A live admission controller: wraps a [`State`], consults its policy on
/// each request, executes admitted work tick by tick, and accounts for
/// completions and deadline misses.
///
/// # Examples
///
/// ```
/// use rota_admission::{AdmissionController, AdmissionRequest, RotaPolicy};
/// use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel};
/// use rota_interval::{TimeInterval, TimePoint};
/// use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
///
/// let theta = ResourceSet::from_terms([ResourceTerm::new(
///     Rate::new(4),
///     TimeInterval::from_ticks(0, 10)?,
///     LocatedType::cpu(Location::new("l1")),
/// )])?;
/// let mut ctl = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
/// let request = AdmissionRequest::price(
///     DistributedComputation::single(
///         "job",
///         ActorComputation::new("a1", "l1").then(ActionKind::evaluate()),
///         TimePoint::ZERO,
///         TimePoint::new(10),
///     )?,
///     &TableCostModel::paper(),
///     Granularity::MaximalRun,
/// );
/// assert!(ctl.submit(&request).is_accept());
/// ctl.run_until(TimePoint::new(10));
/// assert_eq!(ctl.stats().completed, 1);
/// assert_eq!(ctl.stats().missed, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionController<P> {
    state: State,
    policy: P,
    strategy: ExecutionStrategy,
    stats: ControllerStats,
    // Per admitted *request*, keyed by its actors, for completion and
    // miss accounting (the State reaps completed commitments silently; a
    // request completes when all of its actors have).
    in_flight: HashMap<Vec<ActorName>, InFlight>,
    obs: Option<AdmissionObs>,
}

/// One `in_flight` entry.
#[derive(Debug, Clone)]
struct InFlight {
    deadline: TimePoint,
    /// How many accepts this entry carries: one per request with
    /// exactly these actors (ρ keeps actor names unique, so more than
    /// one only for requests without actors), and zero for a share
    /// whose accept another share carries.
    counted: usize,
    /// For a share ([`AdmissionController::install_share`]), what it
    /// counts in common with the computation's other shares.
    tally: Option<Arc<Tally>>,
}

impl InFlight {
    /// What this entry's completion or miss adds to its counter: its own
    /// accepts, or for a share whatever `shared` says its tally counts.
    fn resolves(&self, shared: fn(&Tally) -> bool) -> u64 {
        match &self.tally {
            Some(tally) => u64::from(shared(tally)),
            None => self.counted as u64,
        }
    }
}

/// What the shares of one computation, installed on several
/// controllers ([`AdmissionController::install_share`]), count in
/// common, so that the computation is counted once between them: the
/// first share installed counts it `accepted`; it has `completed` when
/// every share has, counted by the last; it has `missed` when any
/// share misses, counted by the first to miss. Withdrawing a share ends
/// the count, and the withdrawal of the share that counted the accept
/// rolls it back unless the computation already completed or missed.
///
/// Every share is installed before any of them is run.
#[derive(Debug, Default)]
pub struct Tally(Mutex<TallyState>);

#[derive(Debug, Default)]
struct TallyState {
    /// Whether a share was installed.
    joined: bool,
    /// Shares installed and not yet resolved.
    open: usize,
    /// Whether a completion or a miss was counted.
    resolved: bool,
    /// Whether a share was withdrawn.
    left: bool,
}

impl Tally {
    fn state(&self) -> std::sync::MutexGuard<'_, TallyState> {
        // Every update below is one step that cannot panic halfway.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A share was installed: `true` for the first, which counts the
    /// accept.
    fn join(&self) -> bool {
        let mut state = self.state();
        state.open += 1;
        !std::mem::replace(&mut state.joined, true)
    }

    /// A share completed: `true` for the last, when no share missed or
    /// was withdrawn.
    fn complete(&self) -> bool {
        let mut state = self.state();
        state.open -= 1;
        let counts = state.open == 0 && !state.resolved && !state.left;
        state.resolved |= counts;
        counts
    }

    /// A share missed: `true` for the first to miss, when no share was
    /// withdrawn.
    fn miss(&self) -> bool {
        let mut state = self.state();
        state.open -= 1;
        let counts = !state.resolved && !state.left;
        state.resolved |= counts;
        counts
    }

    /// A share was withdrawn: `true` unless the computation already
    /// completed or missed.
    fn leave(&self) -> bool {
        let mut state = self.state();
        state.open -= 1;
        state.left = true;
        !state.resolved
    }
}

impl<P: AdmissionPolicy> AdmissionController<P> {
    /// Creates a controller over initial availability `theta` at `t0`,
    /// with the default execution strategy.
    pub fn new(policy: P, theta: ResourceSet, t0: TimePoint) -> Self {
        AdmissionController {
            state: State::new(theta, t0),
            policy,
            strategy: ExecutionStrategy::default(),
            stats: ControllerStats::default(),
            in_flight: HashMap::new(),
            obs: None,
        }
    }

    /// Overrides the execution strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches an observability bundle: every submit updates the
    /// per-policy counters and decide-latency histogram, and every tick
    /// counts the realized LTS rule.
    #[must_use]
    pub fn with_obs(mut self, obs: AdmissionObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The controller's current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Current time.
    pub fn now(&self) -> TimePoint {
        self.state.now()
    }

    /// The accounting counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The policy in use.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Offers new resources to the system (the acquisition rule).
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError::Resource`] on rate overflow.
    pub fn offer_resources(&mut self, theta_join: ResourceSet) -> Result<(), TransitionError> {
        self.state.acquire(theta_join).map(|_| ())
    }

    /// Submits a request: [`decide`](Self::decide) it, then
    /// [`enact`](Self::enact) the verdict, returned with a copy of an
    /// accept's commitments.
    pub fn submit(&mut self, request: &AdmissionRequest) -> Decision {
        let decision = self.decide(request);
        let commitments = match &decision {
            Decision::Accept(commitments) => commitments.clone(),
            Decision::Reject(_) => Vec::new(),
        };
        match self.enact(request, decision) {
            Ok(_) => Decision::Accept(commitments),
            Err(reason) => Decision::Reject(reason),
        }
    }

    /// The policy's verdict on `request` against the current state. It
    /// only reads the controller, so a panic inside it leaves the
    /// controller as it was.
    pub fn decide(&self, request: &AdmissionRequest) -> Decision {
        self.policy.decide(&self.state, request)
    }

    /// Acts on a verdict [`decide`](Self::decide) returned for
    /// `request`: moves an accept's commitments into the state and
    /// counts the verdict. Returns how many commitments were installed,
    /// or the reason the request stands rejected.
    ///
    /// An accept whose commitments the state refuses to install (e.g.
    /// an actor name already committed by an earlier request) is
    /// downgraded to a rejection after rolling back any partial
    /// install — the state never ends up holding a half-admitted
    /// computation, and the caller never observes a panic.
    ///
    /// # Errors
    ///
    /// The policy's [`RejectReason`], or
    /// [`RejectReason::PolicyCheckFailed`] for a downgraded accept.
    pub fn enact(
        &mut self,
        request: &AdmissionRequest,
        decision: Decision,
    ) -> Result<usize, RejectReason> {
        let enacted = match decision {
            Decision::Accept(commitments) => {
                let count = commitments.len();
                self.install(commitments, request.deadline())
                    .map(|()| count)
                    .map_err(|err| RejectReason::PolicyCheckFailed {
                        detail: format!("commitments not installable: {err}"),
                    })
            }
            Decision::Reject(reason) => Err(reason),
        };
        if enacted.is_err() {
            self.stats.rejected += 1;
        }
        // (`install` already updated the in-flight gauge on accept.)
        if let Some(obs) = &self.obs {
            obs.count_decision(enacted.is_ok());
        }
        enacted
    }

    /// Installs already-decided commitments directly (the mechanism
    /// under [`AdmissionController::enact`], and the *prepare* half of
    /// a distributed two-phase commit): every commitment is
    /// accommodated, the request joins the in-flight accounting, and
    /// `accepted` is counted.
    ///
    /// All-or-nothing: on any install failure the commitments already
    /// accommodated are evicted again and the state is unchanged.
    ///
    /// # Errors
    ///
    /// The underlying [`TransitionError`] (deadline passed, or an actor
    /// name already committed).
    pub fn install(
        &mut self,
        commitments: Vec<Commitment>,
        deadline: TimePoint,
    ) -> Result<(), TransitionError> {
        self.install_as(commitments, deadline, None)
    }

    /// Installs one owner's share of a computation whose commitments are
    /// split over several controllers: like [`install`](Self::install),
    /// but `accepted`, `completed`, `missed` and the in-flight gauge
    /// count the computation once between the shares that hold `tally`
    /// (see [`Tally`]).
    ///
    /// # Errors
    ///
    /// As [`install`](Self::install).
    pub fn install_share(
        &mut self,
        commitments: Vec<Commitment>,
        deadline: TimePoint,
        tally: &Arc<Tally>,
    ) -> Result<(), TransitionError> {
        self.install_as(commitments, deadline, Some(tally))
    }

    fn install_as(
        &mut self,
        commitments: Vec<Commitment>,
        deadline: TimePoint,
        tally: Option<&Arc<Tally>>,
    ) -> Result<(), TransitionError> {
        let mut installed: Vec<ActorName> = Vec::with_capacity(commitments.len());
        for c in commitments {
            let actor = c.actor().clone();
            match self.state.accommodate(c) {
                Ok(_) => installed.push(actor),
                Err(err) => {
                    for actor in &installed {
                        self.state.evict(actor);
                    }
                    return Err(err);
                }
            }
        }
        let counted = tally.is_none_or(|tally| tally.join());
        let entry = self.in_flight.entry(installed).or_insert(InFlight {
            deadline,
            counted: 0,
            tally: tally.cloned(),
        });
        if counted {
            entry.counted += 1;
            self.stats.accepted += 1;
            if let Some(obs) = &self.obs {
                obs.add_in_flight(1);
            }
        }
        Ok(())
    }

    /// Administratively withdraws an installed computation regardless of
    /// whether it has started (the *abort* half of a distributed
    /// two-phase commit; contrast [`AdmissionController::cancel`], which
    /// enforces the paper's leave-rule guard). Returns `true` when the
    /// computation was known and its commitments were evicted; the
    /// `accepted` counter is rolled back so an aborted prepare leaves no
    /// accounting trace. Finding it costs O(actors), not a scan of the
    /// in-flight requests.
    pub fn withdraw(&mut self, actors: &[ActorName]) -> bool {
        let Some(open_accept) = self.release_in_flight(actors) else {
            return false;
        };
        for actor in actors {
            self.state.evict(actor);
        }
        if open_accept {
            self.stats.accepted = self.stats.accepted.saturating_sub(1);
        }
        true
    }

    /// Drops one in-flight request with exactly `actors`, if there is
    /// one, and says whether it carried an accept that is still open:
    /// a plain entry's always is, a share's is unless its computation
    /// already completed or missed ([`Tally`]).
    fn release_in_flight(&mut self, actors: &[ActorName]) -> Option<bool> {
        let entry = self.in_flight.remove(actors)?;
        let open = entry.tally.as_ref().is_none_or(|tally| tally.leave());
        if entry.counted > 1 {
            self.in_flight.insert(
                actors.to_vec(),
                InFlight {
                    counted: entry.counted - 1,
                    ..entry
                },
            );
        }
        let counted = entry.counted > 0;
        if let (true, Some(obs)) = (counted, &self.obs) {
            obs.add_in_flight(-1);
        }
        Some(counted && open)
    }

    /// Advances one tick, delivering resources per the execution strategy
    /// and accounting completions/misses.
    pub fn tick(&mut self) {
        let assignments = match self.strategy {
            ExecutionStrategy::FirstEntitled => self.state.greedy_assignments(),
            ExecutionStrategy::EarliestDeadline => edf_assignments(&self.state),
        };
        let label = self
            .state
            .step(&assignments)
            .expect("entitled assignments are valid");
        if let Some(obs) = &self.obs {
            obs.count_transition(&label);
        }
        self.settle();
    }

    /// Advances to `horizon` (inclusive of all ticks strictly before it).
    pub fn run_until(&mut self, horizon: TimePoint) {
        while self.now() < horizon {
            self.tick();
        }
    }

    /// Resolves in-flight accounting: completions (actor no longer in ρ)
    /// and misses (deadline reached with the commitment still pending;
    /// the dead commitment is evicted so it stops consuming resources).
    /// A share's completion and miss count as its [`Tally`] says.
    fn settle(&mut self) {
        let now = self.state.now();
        let (state, stats) = (&mut self.state, &mut self.stats);
        let mut resolved = 0;
        self.in_flight.retain(|actors, entry| {
            if actors.iter().all(|a| state.rho().get(a).is_none()) {
                stats.completed += entry.resolves(Tally::complete);
            } else if now >= entry.deadline {
                for a in actors {
                    state.evict(a);
                }
                stats.missed += entry.resolves(Tally::miss);
            } else {
                return true;
            }
            resolved += entry.counted;
            false
        });
        if let Some(obs) = &self.obs {
            obs.add_in_flight(-(resolved as i64));
        }
    }

    /// Number of admitted computations still executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.values().map(|entry| entry.counted).sum()
    }

    /// Total resource units actually delivered to admitted work — the
    /// numerator for utilization against a scenario's offered units.
    pub fn delivered_units(&self) -> u64 {
        self.state.delivered_units()
    }

    /// Withdraws an admitted computation via the paper's leave rule
    /// (guard: `t < s` for every one of its actors). Returns `true` and
    /// counts the withdrawal if every actor could leave; returns `false`
    /// and changes nothing if the computation is unknown or any actor has
    /// already started.
    pub fn cancel(&mut self, actors: &[ActorName]) -> bool {
        if !self.in_flight.contains_key(actors) {
            return false;
        }
        // All-or-nothing: check every guard before removing anyone.
        let can_leave = actors.iter().all(|a| {
            self.state
                .rho()
                .get(a)
                .map(|c| self.state.now() < c.start())
                .unwrap_or(false)
        });
        if !can_leave {
            return false;
        }
        for a in actors {
            self.state.leave(a).expect("guards checked above");
        }
        self.release_in_flight(actors);
        self.stats.withdrawn += 1;
        true
    }
}

impl<P: AdmissionPolicy> fmt::Display for AdmissionController<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "controller[{} @ {}: {}+ {}− {}✓ {}✗]",
            self.policy.name(),
            self.now(),
            self.stats.accepted,
            self.stats.rejected,
            self.stats.completed,
            self.stats.missed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NaiveTotalPolicy, OptimisticPolicy, RotaPolicy};
    use rota_actor::{
        ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
    };
    use rota_interval::TimeInterval;
    use rota_resource::{LocatedType, Location, Rate, ResourceTerm};

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn cpu_theta(rate: u64, s: u64, e: u64) -> ResourceSet {
        [ResourceTerm::new(
            Rate::new(rate),
            iv(s, e),
            LocatedType::cpu(Location::new("l1")),
        )]
        .into_iter()
        .collect()
    }

    fn request(name: &str, evals: usize, s: u64, d: u64) -> AdmissionRequest {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::new(s), TimePoint::new(d))
                .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }

    #[test]
    fn rota_controller_never_misses() {
        let mut ctl = AdmissionController::new(RotaPolicy, cpu_theta(4, 0, 32), TimePoint::ZERO);
        for i in 0..8 {
            let _ = ctl.submit(&request(&format!("job{i}"), 2, 0, 32));
        }
        ctl.run_until(TimePoint::new(32));
        let stats = ctl.stats();
        assert!(stats.accepted >= 1);
        assert_eq!(stats.missed, 0, "ROTA assurance");
        assert_eq!(stats.completed, stats.accepted);
        assert_eq!(ctl.in_flight(), 0);
        // capacity: 128 units; each job needs 16 → exactly 8 fit
        assert_eq!(stats.accepted, 8);
    }

    #[test]
    fn rota_rejects_overload_instead_of_missing() {
        let mut ctl = AdmissionController::new(RotaPolicy, cpu_theta(4, 0, 8), TimePoint::ZERO);
        for i in 0..8 {
            let _ = ctl.submit(&request(&format!("job{i}"), 2, 0, 8));
        }
        ctl.run_until(TimePoint::new(8));
        let stats = ctl.stats();
        // 32 units capacity / 16 per job → 2 admitted, 6 rejected
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 6);
        assert_eq!(stats.missed, 0);
        assert!((stats.acceptance_rate() - 0.25).abs() < 1e-9);
        assert!(stats.miss_rate() < 1e-9);
    }

    #[test]
    fn optimistic_controller_misses_under_overload() {
        let mut ctl =
            AdmissionController::new(OptimisticPolicy, cpu_theta(4, 0, 8), TimePoint::ZERO)
                .with_strategy(ExecutionStrategy::EarliestDeadline);
        for i in 0..8 {
            let _ = ctl.submit(&request(&format!("job{i}"), 2, 0, 8));
        }
        ctl.run_until(TimePoint::new(8));
        let stats = ctl.stats();
        assert_eq!(stats.accepted, 8);
        assert!(stats.missed >= 6, "only 2 jobs' worth of capacity exists");
        assert!(stats.miss_rate() > 0.5);
    }

    #[test]
    fn naive_between_rota_and_optimistic() {
        let mut naive =
            AdmissionController::new(NaiveTotalPolicy, cpu_theta(4, 0, 8), TimePoint::ZERO)
                .with_strategy(ExecutionStrategy::EarliestDeadline);
        for i in 0..8 {
            let _ = naive.submit(&request(&format!("job{i}"), 2, 0, 8));
        }
        naive.run_until(TimePoint::new(8));
        let stats = naive.stats();
        // quantity check bounds acceptance at capacity here
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.missed, 0);
    }

    #[test]
    fn late_resources_enable_later_admissions() {
        let mut ctl = AdmissionController::new(RotaPolicy, ResourceSet::new(), TimePoint::ZERO);
        let r = request("job", 1, 0, 10);
        assert!(!ctl.submit(&r).is_accept(), "no resources yet");
        ctl.offer_resources(cpu_theta(4, 0, 10)).unwrap();
        assert!(ctl.submit(&r).is_accept());
        ctl.run_until(TimePoint::new(10));
        assert_eq!(ctl.stats().completed, 1);
    }

    #[test]
    fn display_summarizes() {
        let ctl = AdmissionController::new(RotaPolicy, ResourceSet::new(), TimePoint::ZERO);
        assert!(ctl.to_string().starts_with("controller[rota"));
        assert_eq!(ctl.policy().name(), "rota");
        assert_eq!(ctl.state().now(), TimePoint::ZERO);
    }

    #[test]
    fn obs_counts_decisions_and_journals_rejections() {
        let registry = rota_obs::Registry::new();
        let mut ctl = AdmissionController::new(RotaPolicy, cpu_theta(4, 0, 8), TimePoint::ZERO)
            .with_obs(AdmissionObs::new(&registry, "rota"));
        let mut events = Vec::new();
        for i in 0..8 {
            let r = request(&format!("job{i}"), 2, 0, 8);
            let decision = ctl.submit(&r);
            events.push(decision_event("rota", ctl.now(), &r, &decision));
        }
        ctl.run_until(TimePoint::new(8));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("admission.requests{policy=rota}"), Some(8));
        assert_eq!(snap.counter("admission.accepted{policy=rota}"), Some(2));
        assert_eq!(snap.counter("admission.rejected{policy=rota}"), Some(6));
        assert_eq!(snap.gauge("admission.in_flight{policy=rota}"), Some(0));
        // Every tick fires exactly one LTS rule.
        let fired: u64 = rota_logic::RuleKind::ALL
            .iter()
            .map(|k| {
                snap.counter(&format!("admission.rule.{}{{policy=rota}}", k.name()))
                    .unwrap()
            })
            .sum();
        assert_eq!(fired, 8, "8 ticks → 8 rule firings");
        // The events explain each rejection with clause + violated term.
        let rejects: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    rota_obs::DecisionEvent::Admission {
                        accepted: false,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(rejects.len(), 6);
        for event in rejects {
            let rota_obs::DecisionEvent::Admission {
                violated_term,
                clause,
                ..
            } = event
            else {
                unreachable!()
            };
            // The supply is spent, so the total bound refutes each.
            assert_eq!(
                clause.as_deref(),
                Some("Section III: total supply over (s, d) below demand")
            );
            assert!(violated_term.as_deref().unwrap().contains("short by"));
        }
    }

    #[test]
    fn withdraw_evicts_exactly_its_actors_and_rolls_back_once() {
        let mut ctl = AdmissionController::new(RotaPolicy, cpu_theta(4, 0, 64), TimePoint::ZERO);
        for i in 0..6 {
            assert!(ctl
                .submit(&request(&format!("job{i}"), 1, 0, 64))
                .is_accept());
        }
        let actors = |i: usize| vec![ActorName::new(format!("job{i}-actor"))];
        let expiring = ctl.state().expiring_resources();
        assert!(ctl.withdraw(&actors(3)));
        assert_eq!((ctl.stats().accepted, ctl.in_flight()), (5, 5));
        let rho: Vec<&ActorName> = ctl.state().rho().iter().map(|c| c.actor()).collect();
        let kept: Vec<ActorName> = [0, 1, 2, 4, 5]
            .iter()
            .map(|&i| actors(i).remove(0))
            .collect();
        assert_eq!(
            rho,
            kept.iter().collect::<Vec<_>>(),
            "the others keep their order"
        );
        assert!(ctl.state().expiring_resources().dominates(&expiring));
        // A second withdraw of the same computation finds nothing.
        assert!(!ctl.withdraw(&actors(3)));
        assert_eq!((ctl.stats().accepted, ctl.in_flight()), (5, 5));
        ctl.run_until(TimePoint::new(64));
        assert_eq!((ctl.stats().completed, ctl.stats().missed), (5, 0));
    }

    /// A share that no supply fuels: it misses its deadline at 8.
    fn starved(name: &str) -> Vec<Commitment> {
        vec![Commitment::opportunistic(
            ActorName::new(name),
            [rota_actor::SimpleRequirement::new(
                rota_actor::ResourceDemand::single(
                    LocatedType::cpu(Location::new("l9")),
                    rota_resource::Quantity::new(1),
                ),
                iv(0, 4),
            )],
            TimePoint::new(8),
        )]
    }

    #[test]
    fn shares_count_their_computation_once() {
        let registry = rota_obs::Registry::new();
        let gauge = || {
            registry
                .snapshot()
                .gauge("admission.in_flight{policy=rota}")
        };
        let deadline = TimePoint::new(8);
        // Two controllers each hold one share, which completes (`true`)
        // or misses; the computation completes only if both do, and
        // misses once however many shares miss.
        for (first, second, expected) in [
            (true, true, (1, 0)),
            (true, false, (0, 1)),
            (false, true, (0, 1)),
            (false, false, (0, 1)),
        ] {
            let mut ctls: Vec<_> = (0..2)
                .map(|_| {
                    AdmissionController::new(RotaPolicy, cpu_theta(4, 0, 8), TimePoint::ZERO)
                        .with_obs(AdmissionObs::new(&registry, "rota"))
                })
                .collect();
            let tally = Arc::new(Tally::default());
            for (i, (ctl, completes)) in ctls.iter_mut().zip([first, second]).enumerate() {
                let share = if completes {
                    let Decision::Accept(fits) = ctl.decide(&request(&format!("s{i}"), 2, 0, 8))
                    else {
                        panic!("the share fits");
                    };
                    fits
                } else {
                    starved(&format!("s{i}"))
                };
                ctl.install_share(share, deadline, &tally).unwrap();
            }
            let accepted: Vec<u64> = ctls.iter().map(|ctl| ctl.stats().accepted).collect();
            assert_eq!(accepted, vec![1, 0], "the first share counts the accept");
            assert_eq!(gauge(), Some(1));
            let mut total = (0, 0);
            for ctl in &mut ctls {
                ctl.run_until(deadline);
                total.0 += ctl.stats().completed;
                total.1 += ctl.stats().missed;
            }
            assert_eq!(total, expected, "shares complete {first} and {second}");
            assert_eq!(gauge(), Some(0));
        }
    }

    #[test]
    fn a_withdrawn_share_ends_its_computation() {
        let registry = rota_obs::Registry::new();
        let mut ctls: Vec<_> = (0..2)
            .map(|_| {
                AdmissionController::new(RotaPolicy, cpu_theta(4, 0, 8), TimePoint::ZERO)
                    .with_obs(AdmissionObs::new(&registry, "rota"))
            })
            .collect();
        let deadline = TimePoint::new(8);
        let accepted = |ctls: &[AdmissionController<RotaPolicy>]| -> u64 {
            ctls.iter().map(|ctl| ctl.stats().accepted).sum()
        };
        // Withdrawn before anything resolved, the later share first (an
        // expiry may reach it first): the accept is rolled back once.
        let tally = Arc::new(Tally::default());
        for (i, ctl) in ctls.iter_mut().enumerate() {
            ctl.install_share(starved(&format!("a{i}")), deadline, &tally)
                .unwrap();
        }
        assert!(ctls[1].withdraw(&[ActorName::new("a1")]));
        assert_eq!(accepted(&ctls), 1);
        assert!(ctls[0].withdraw(&[ActorName::new("a0")]));
        assert_eq!(accepted(&ctls), 0);
        assert_eq!(
            registry
                .snapshot()
                .gauge("admission.in_flight{policy=rota}"),
            Some(0)
        );
        // Withdrawn after another share missed: the miss stands, and so
        // does the accept.
        let tally = Arc::new(Tally::default());
        let Decision::Accept(fits) = ctls[0].decide(&request("b0", 2, 0, 8)) else {
            panic!("the share fits");
        };
        ctls[0].install_share(fits, deadline, &tally).unwrap();
        ctls[1]
            .install_share(starved("b1"), deadline, &tally)
            .unwrap();
        ctls[1].run_until(deadline);
        assert!(ctls[0].withdraw(&[ActorName::new("b0-actor")]));
        ctls[0].run_until(deadline);
        let stats: Vec<(u64, u64, u64)> = ctls
            .iter()
            .map(|ctl| {
                let s = ctl.stats();
                (s.accepted, s.completed, s.missed)
            })
            .collect();
        assert_eq!(stats, vec![(1, 0, 0), (0, 0, 1)]);
    }

    #[test]
    fn stats_rates_handle_zero_denominators() {
        let s = ControllerStats::default();
        assert_eq!(s.acceptance_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }
}
