//! System states `S = (Θ, ρ, t)` and the labeled transition rules.
//!
//! Section V-A of the paper defines the state of a ROTA system as a triple
//! of future available resources `Θ`, the resource requirements `ρ` of the
//! computations currently accommodated, and the current time `t`; and
//! eight transition rules that drive the system:
//!
//! | rule | kind | implemented by |
//! |---|---|---|
//! | sequential transition | `Δt`, one `ξ ↦ a` | [`State::step`] with one assignment |
//! | concurrent transition | `Δt`, many `ξᵢ ↦ aᵢ` | [`State::step`] |
//! | resource expiration | `Δt`, no assignment | [`State::step`] with none |
//! | concurrent expiration | `Δt`, none | [`State::step`] |
//! | general transition | `Δt`, some consumed, rest expire | [`State::step`] |
//! | resource acquisition | instantaneous | [`State::acquire`] |
//! | computation accommodation | instantaneous, guard `t < d` | [`State::accommodate`] |
//! | computation leave | instantaneous, guard `t < s` | [`State::leave`] |
//!
//! Every `Δt` step expires whatever availability in `(t, t+Δt)` was not
//! consumed — "resources specified in resource terms expire if there is no
//! computation which requires those resources during the time intervals".

use core::fmt;

use rota_actor::{ActorName, ResourceDemand};
use rota_interval::{TickDuration, TimeInterval, TimePoint};
use rota_resource::{LocatedType, Quantity, Rate, ResourceSet, ResourceSetError};

use crate::commitment::{Commitment, Commitments};

/// What one admission decision reads of the obtainable resources: the
/// located types a request `(Λ, s, d)` demands, over its window
/// `[s, d)`. Theorem 4 places the request only there, so a decision on
/// Θ_expire restricted to the scope ([`State::expiring_in`]) equals the
/// decision on the whole of it — a two-phase commit's snapshots and
/// basis carry only this slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scope {
    types: Vec<LocatedType>,
    window: TimeInterval,
}

impl Scope {
    /// The scope of `types` over `window`.
    pub fn new(types: impl IntoIterator<Item = LocatedType>, window: TimeInterval) -> Scope {
        Scope {
            types: types.into_iter().collect(),
            window,
        }
    }

    /// The scope of a request demanding `demand` over `window`.
    pub fn of(demand: &ResourceDemand, window: TimeInterval) -> Scope {
        Scope::new(demand.located_types().cloned(), window)
    }

    /// The located types.
    pub fn types(&self) -> &[LocatedType] {
        &self.types
    }

    /// The window `[s, d)`.
    pub fn window(&self) -> TimeInterval {
        self.window
    }
}

/// Error from applying a transition rule whose guard fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionError {
    /// An assignment named an actor with no commitment in `ρ`.
    UnknownActor(ActorName),
    /// The assigned actor's current segment does not demand the assigned
    /// located type now (wrong type, exhausted, or window not open).
    NotRunnable {
        /// The assigned actor.
        actor: ActorName,
        /// The located type that cannot fuel it.
        located: LocatedType,
    },
    /// A located type was assigned to two actors in the same step; each
    /// `ξᵢ` in the concurrent rule fuels exactly one `aᵢ`.
    DuplicateType(LocatedType),
    /// Accommodation guard `t < d` failed: the deadline has passed.
    DeadlinePassed {
        /// Current time.
        now: TimePoint,
        /// The violated deadline.
        deadline: TimePoint,
    },
    /// Accommodation would duplicate an actor name already committed —
    /// the paper's actors "have globally unique names", and commitment
    /// routing relies on it.
    ActorAlreadyCommitted(ActorName),
    /// Leave guard `t < s` failed: the computation has already started.
    AlreadyStarted {
        /// Current time.
        now: TimePoint,
        /// The computation's start.
        start: TimePoint,
    },
    /// Resource arithmetic overflowed while merging availability.
    Resource(ResourceSetError),
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionError::UnknownActor(a) => write!(f, "no commitment for actor {a}"),
            TransitionError::NotRunnable { actor, located } => {
                write!(f, "actor {actor} cannot consume {located} now")
            }
            TransitionError::DuplicateType(lt) => {
                write!(f, "located type {lt} assigned to more than one actor")
            }
            TransitionError::DeadlinePassed { now, deadline } => {
                write!(
                    f,
                    "cannot accommodate at {now}: deadline {deadline} has passed"
                )
            }
            TransitionError::ActorAlreadyCommitted(a) => {
                write!(f, "actor {a} already has a pending commitment")
            }
            TransitionError::AlreadyStarted { now, start } => {
                write!(f, "cannot leave at {now}: computation started at {start}")
            }
            TransitionError::Resource(e) => write!(f, "resource error: {e}"),
        }
    }
}

impl std::error::Error for TransitionError {}

impl From<ResourceSetError> for TransitionError {
    fn from(e: ResourceSetError) -> Self {
        TransitionError::Resource(e)
    }
}

/// The label on a transition — what happened between two states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionLabel {
    /// A `Δt` step: the listed `ξ ↦ a` assignments consumed resource, and
    /// the listed located types had availability expire unconsumed. With
    /// one assignment and nothing expiring this is the paper's sequential
    /// rule; with many, the concurrent rule; with only expirations, the
    /// expiration rules; mixed, the general rule.
    Step {
        /// Resource-to-actor assignments that made progress.
        assignments: Vec<(LocatedType, ActorName)>,
        /// Located types whose tick availability expired unconsumed.
        expired: Vec<LocatedType>,
    },
    /// Instantaneous resource acquisition `Θ_join`.
    Acquire {
        /// Terms that joined, in canonical form.
        joined: ResourceSet,
    },
    /// Instantaneous accommodation of a new computation's requirement.
    Accommodate {
        /// The actor whose commitment was added.
        actor: ActorName,
    },
    /// Instantaneous leave of a not-yet-started computation.
    Leave {
        /// The actor whose commitments were removed.
        actor: ActorName,
    },
}

/// A ROTA system state `S = (Θ, ρ, t)`.
///
/// # Examples
///
/// ```
/// use rota_logic::State;
/// use rota_resource::ResourceSet;
/// use rota_interval::TimePoint;
///
/// let s = State::new(ResourceSet::new(), TimePoint::ZERO);
/// assert!(s.theta().is_empty());
/// assert!(s.rho().is_empty());
/// assert_eq!(s.now(), TimePoint::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct State {
    theta: ResourceSet,
    rho: Commitments,
    now: TimePoint,
    // Cumulative units absorbed by commitments across all steps — the
    // numerator of utilization metrics. Not part of the paper's state
    // triple; bookkeeping only, and excluded from equality.
    delivered: u64,
    // The pointwise sum of every pending segment's reservation, kept in
    // step with `rho` by each rule that changes it, so Θ_expire never
    // folds over all commitments. Derived from `rho`; excluded from
    // equality.
    reserved: ResourceSet,
    // How many commitments have a pending segment without a reservation.
    // While any do, Θ_expire needs the greedy-path simulation.
    unreserved: usize,
}

impl PartialEq for State {
    /// States compare as the paper's triple `(Θ, ρ, t)`; the delivered
    /// -units counter and the reserved profile derived from `ρ` do not
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        self.theta == other.theta && self.rho == other.rho && self.now == other.now
    }
}

impl Eq for State {}

impl State {
    /// Creates a state with availability `theta`, no commitments, at time
    /// `now`. Availability strictly before `now` is dropped (it has, by
    /// definition, expired).
    pub fn new(theta: ResourceSet, now: TimePoint) -> Self {
        State::with_commitments(theta, Commitments::new(), now)
    }

    /// Creates a state with commitments already in place.
    ///
    /// # Panics
    ///
    /// Panics if the pending reservations' summed rate overflows `u64`.
    /// Reservations are carved from availability, so commitments taken
    /// from another state never do.
    pub fn with_commitments(mut theta: ResourceSet, rho: Commitments, now: TimePoint) -> Self {
        theta.truncate_before(now);
        let mut state = State {
            theta,
            rho: Commitments::new(),
            now,
            delivered: 0,
            reserved: ResourceSet::new(),
            unreserved: 0,
        };
        for commitment in rho.iter() {
            state
                .track(commitment)
                .expect("pending reservations' summed rate fits in u64");
        }
        state.rho = rho;
        state
    }

    /// Adds `commitment`'s pending reservations to the reserved profile.
    /// All or nothing: on overflow nothing changes.
    fn track(&mut self, commitment: &Commitment) -> Result<(), ResourceSetError> {
        let mut claim = ResourceSet::new();
        for seg in commitment.pending() {
            if let Some(res) = seg.reservation() {
                claim.add_set(res)?;
            }
        }
        self.reserved.add_set(&claim)?;
        if !commitment.is_reserved() {
            self.unreserved += 1;
        }
        Ok(())
    }

    /// Removes a departing commitment's pending reservations from the
    /// reserved profile.
    fn untrack(&mut self, commitment: &Commitment) {
        for seg in commitment.pending() {
            if let Some(res) = seg.reservation() {
                self.reserved
                    .subtract_set(res)
                    .expect("a pending reservation is part of the reserved profile");
            }
        }
        if !commitment.is_reserved() {
            self.unreserved -= 1;
        }
    }

    /// Total resource units absorbed by commitments since this state was
    /// created — the numerator of utilization metrics.
    pub fn delivered_units(&self) -> u64 {
        self.delivered
    }

    /// The future available resources `Θ`.
    pub fn theta(&self) -> &ResourceSet {
        &self.theta
    }

    /// The accommodated requirements `ρ`.
    pub fn rho(&self) -> &Commitments {
        &self.rho
    }

    /// Current time `t`.
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// The current tick window `(t, t + Δt)`.
    pub fn tick_window(&self) -> TimeInterval {
        TimeInterval::tick(self.now)
    }

    /// Applies a `Δt` transition with the given `ξᵢ ↦ aᵢ` assignments.
    ///
    /// Each assigned located type delivers its full current rate to its
    /// actor's head segment for one tick; all other availability in the
    /// tick expires. With an empty assignment list this is the (concurrent)
    /// resource expiration rule; with every available type assigned it is
    /// the pure sequential/concurrent transition rule; otherwise the
    /// general rule. Completed commitments are reaped.
    ///
    /// Returns the transition label actually realized (including which
    /// types expired).
    ///
    /// # Errors
    ///
    /// [`TransitionError::UnknownActor`] for an assignment to an actor
    /// without a commitment; [`TransitionError::NotRunnable`] if the
    /// actor's head segment does not currently demand that type (Axiom 1's
    /// possible-action discipline); [`TransitionError::DuplicateType`] if
    /// a type is assigned twice. On error the state is unchanged.
    pub fn step(
        &mut self,
        assignments: &[(LocatedType, ActorName)],
    ) -> Result<TransitionLabel, TransitionError> {
        // Validate guards before mutating anything.
        for (i, (lt, actor)) in assignments.iter().enumerate() {
            if assignments[..i].iter().any(|(prev, _)| prev == lt) {
                return Err(TransitionError::DuplicateType(lt.clone()));
            }
            let commitment = self
                .rho
                .get(actor)
                .ok_or_else(|| TransitionError::UnknownActor(actor.clone()))?;
            if !commitment.entitled(lt, self.now) {
                return Err(TransitionError::NotRunnable {
                    actor: actor.clone(),
                    located: lt.clone(),
                });
            }
        }
        let tick = self.tick_window();
        let mut consumed_types = Vec::with_capacity(assignments.len());
        for (lt, actor) in assignments {
            let rate = self.theta.rate_at(lt, self.now);
            if rate.is_zero() {
                continue; // nothing flows; the demand simply does not shrink
            }
            let delivered = rate
                .over(TickDuration::DELTA)
                .expect("rate × 1 tick cannot overflow");
            let commitment = self.rho.get_mut(actor).expect("validated above");
            let (absorbed, finished) = commitment.absorb(lt, delivered);
            if let Some(seg) = finished {
                match seg.reservation() {
                    Some(res) => self
                        .reserved
                        .subtract_set(res)
                        .expect("a pending reservation is part of the reserved profile"),
                    // The last unreserved segment is gone: the rest of the
                    // commitment's consumption is known tick by tick.
                    None if commitment.is_reserved() => self.unreserved -= 1,
                    None => {}
                }
            }
            // The whole tick of availability is spent or expires either
            // way; `absorbed` may be less than `delivered` when the
            // segment needed less than one tick's worth.
            self.delivered = self.delivered.saturating_add(absorbed.units());
            self.theta
                .consume(lt, tick, rate)
                .expect("consuming exactly the available rate");
            consumed_types.push(lt.clone());
        }
        // Whatever availability remains within this tick expires as time
        // advances past it.
        let expired: Vec<LocatedType> = self.theta.clamp(&tick).located_types().cloned().collect();
        self.now += TickDuration::DELTA;
        self.theta.truncate_before(self.now);
        self.rho.reap_complete();
        Ok(TransitionLabel::Step {
            assignments: assignments.to_vec(),
            expired,
        })
    }

    /// The resource acquisition rule: `(Θ, ρ, t) → (Θ ∪ Θ_join, ρ, t)`.
    ///
    /// Joining resource whose interval has already partly elapsed is
    /// clipped to the future. There is no leave rule for resources — "if a
    /// resource is going to leave the system in the future, the time of
    /// leaving must be explicitly specified at the time of joining" (the
    /// term's interval end).
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError::Resource`] on rate overflow.
    pub fn acquire(&mut self, theta_join: ResourceSet) -> Result<TransitionLabel, TransitionError> {
        let mut clipped = theta_join;
        clipped.truncate_before(self.now);
        self.theta.add_set(&clipped)?;
        Ok(TransitionLabel::Acquire { joined: clipped })
    }

    /// The computation accommodation rule:
    /// `(Θ, ρ, t) → (Θ, ρ ∪ ρ(Λ,s,d), t)`, guarded by `t < d`.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError::DeadlinePassed`] if `t ≥ d`,
    /// [`TransitionError::ActorAlreadyCommitted`] for a duplicate actor,
    /// and [`TransitionError::Resource`] if the reserved profile's rate
    /// would overflow `u64`. The state is unchanged on error.
    pub fn accommodate(
        &mut self,
        commitment: Commitment,
    ) -> Result<TransitionLabel, TransitionError> {
        if self.now >= commitment.deadline() {
            return Err(TransitionError::DeadlinePassed {
                now: self.now,
                deadline: commitment.deadline(),
            });
        }
        if self.rho.get(commitment.actor()).is_some() {
            return Err(TransitionError::ActorAlreadyCommitted(
                commitment.actor().clone(),
            ));
        }
        self.track(&commitment)?;
        let actor = commitment.actor().clone();
        self.rho.push(commitment);
        Ok(TransitionLabel::Accommodate { actor })
    }

    /// The computation leave rule:
    /// `(Θ, ρ, t) → (Θ, ρ \ ρ(Λ,s,d), t)`, guarded by `t < s` — "a
    /// computation which has already started in the system is not allowed
    /// to leave".
    ///
    /// # Errors
    ///
    /// [`TransitionError::UnknownActor`] if `actor` has no commitment;
    /// [`TransitionError::AlreadyStarted`] if its start has passed.
    pub fn leave(&mut self, actor: &ActorName) -> Result<TransitionLabel, TransitionError> {
        let commitment = self
            .rho
            .get(actor)
            .ok_or_else(|| TransitionError::UnknownActor(actor.clone()))?;
        if self.now >= commitment.start() {
            return Err(TransitionError::AlreadyStarted {
                now: self.now,
                start: commitment.start(),
            });
        }
        for removed in self.rho.remove_actor(actor) {
            self.untrack(&removed);
        }
        Ok(TransitionLabel::Leave {
            actor: actor.clone(),
        })
    }

    /// Delivered-resource bookkeeping for observers: total remaining
    /// demand across commitments.
    pub fn total_remaining_demand(&self) -> rota_actor::ResourceDemand {
        self.rho.total_remaining()
    }

    /// The greedy maximal assignment at this instant: every located type
    /// with availability now, assigned to the first entitled actor
    /// (admission order; reservations gate entitlement for scheduled
    /// commitments). This realizes the paper's intent that available
    /// resource fuels whichever computations require it, and is the
    /// default policy used to construct witness paths for Theorem 3.
    pub fn greedy_assignments(&self) -> Vec<(LocatedType, ActorName)> {
        let mut out = Vec::new();
        let types: Vec<LocatedType> = self.theta.located_types().cloned().collect();
        for lt in types {
            if self.theta.rate_at(&lt, self.now).is_zero() {
                continue;
            }
            if let Some(actor) = self.rho.entitled(&lt, self.now).first() {
                out.push((lt, (*actor).clone()));
            }
        }
        out
    }

    /// Θ_expire: the resources that will expire unused along the greedy
    /// path from this state — "unwanted resource which will expire unless
    /// new computations requiring them enter the system" (Figure 1's
    /// semantics). This is exactly what Theorem 4 offers a new computation.
    ///
    /// When every commitment carries explicit reservations the result is
    /// `Θ` minus every tick of the maintained reserved profile (fast path);
    /// otherwise the greedy path is simulated and per-tick leftovers
    /// collected.
    pub fn expiring_resources(&self) -> ResourceSet {
        if self.unreserved == 0 {
            // Tick-granular exclusion, not rate subtraction: a reserved
            // tick's *entire* availability goes to (or expires with) its
            // reserved consumer — the transition rules never split one
            // located type between actors within a tick. Rate left over
            // on a reserved tick (e.g. capacity that joined later) is
            // therefore not offered to new admissions. Reserved ticks
            // before `now` need no truncation: Θ holds none.
            return self.theta.exclude_support(&self.reserved);
        }
        self.expiring_by_simulation()
    }

    /// Θ_expire within a scope (see [`Scope`]): the located types
    /// `types`, clamped to `window` — all that a decision on a request
    /// demanding `types` over `window` reads. On the fast path each
    /// type's availability and reserved profile are read only where they
    /// overlap the window, in one pass that allocates only the result,
    /// so the cost follows the request and its window, not the number of
    /// live commitments or the length of the horizon.
    pub fn expiring_in<'a>(
        &self,
        types: impl IntoIterator<Item = &'a LocatedType>,
        window: TimeInterval,
    ) -> ResourceSet {
        if self.unreserved == 0 {
            return self
                .theta
                .exclude_support_within(&self.reserved, types, &window);
        }
        // Excluding nothing restricts the simulated set to the scope.
        self.expiring_by_simulation()
            .exclude_support_within(&ResourceSet::new(), types, &window)
    }

    /// Simulation fallback for [`State::expiring_resources`]: run the
    /// greedy path to the availability horizon and union every tick's
    /// unconsumed availability.
    pub fn expiring_by_simulation(&self) -> ResourceSet {
        let mut probe = self.clone();
        let horizon = probe.theta.horizon().unwrap_or(probe.now);
        let mut expired = ResourceSet::new();
        while probe.now < horizon {
            let assignments = probe.greedy_assignments();
            let tick = probe.tick_window();
            let mut leftover = probe.theta.clamp(&tick);
            for (lt, _) in &assignments {
                let rate = leftover.rate_at(lt, tick.start());
                if !rate.is_zero() {
                    leftover
                        .consume(lt, tick, rate)
                        .expect("consuming observed rate");
                }
            }
            expired
                .add_set(&leftover)
                .expect("leftover rates bounded by availability");
            probe
                .step(&assignments)
                .expect("greedy assignments are always valid");
        }
        expired
    }

    /// Convenience: repeatedly apply [`State::step`] with
    /// [`State::greedy_assignments`] until `deadline_horizon`, or until
    /// both availability and commitments are exhausted. Returns the labels
    /// of the realized transitions.
    pub fn run_greedy(&mut self, horizon: TimePoint) -> Vec<TransitionLabel> {
        let mut labels = Vec::new();
        while self.now < horizon && !(self.theta.is_empty() && self.rho.is_empty()) {
            let assignments = self.greedy_assignments();
            let label = self
                .step(&assignments)
                .expect("greedy assignments are always valid");
            labels.push(label);
        }
        labels
    }

    /// Whether some commitment has missed its schedule (head window closed
    /// with demand outstanding).
    pub fn any_late(&self) -> bool {
        self.rho.iter().any(|c| c.is_late(self.now))
    }

    /// Sequential-rule convenience: one `ξ ↦ a` assignment.
    ///
    /// # Errors
    ///
    /// As for [`State::step`].
    pub fn step_sequential(
        &mut self,
        located: LocatedType,
        actor: ActorName,
    ) -> Result<TransitionLabel, TransitionError> {
        self.step(&[(located, actor)])
    }

    /// Expiration-rule convenience: advance one tick consuming nothing.
    pub fn step_expire(&mut self) -> TransitionLabel {
        self.step(&[]).expect("empty assignment cannot fail")
    }

    /// Administratively evicts every commitment of `actor`, returning how
    /// many were removed.
    ///
    /// This is **not** one of the paper's transition rules (the leave rule
    /// only covers computations that have not started): it exists for
    /// runtime bookkeeping above the logic — an admission controller
    /// evicting a computation whose deadline has passed so it stops
    /// consuming resources. No guard applies.
    pub fn evict(&mut self, actor: &ActorName) -> usize {
        let removed = self.rho.remove_actor(actor);
        for commitment in &removed {
            self.untrack(commitment);
        }
        removed.len()
    }

    /// Dissolves the state into its components.
    pub fn into_parts(self) -> (ResourceSet, Commitments, TimePoint) {
        (self.theta, self.rho, self.now)
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S = ({} terms, {}, {})",
            self.theta.term_count(),
            self.rho,
            self.now
        )
    }
}

/// Computes the rate actually deliverable to a quantity demand within one
/// tick — exposed for tests and benches that inspect step behaviour.
pub fn tick_delivery(rate: Rate) -> Quantity {
    rate.over(TickDuration::DELTA)
        .expect("rate × 1 tick cannot overflow")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::{window, ScheduledSegment};
    use crate::schedule::schedule_complex;
    use rota_actor::{ComplexRequirement, SimpleRequirement};
    use rota_resource::{Location, Rate, ResourceTerm};

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn theta(terms: &[(LocatedType, u64, u64, u64)]) -> ResourceSet {
        terms
            .iter()
            .map(|(lt, r, s, e)| ResourceTerm::new(Rate::new(*r), window(*s, *e), lt.clone()))
            .collect()
    }

    fn simple(lt: LocatedType, q: u64, s: u64, e: u64) -> SimpleRequirement {
        SimpleRequirement::new(ResourceDemand::single(lt, Quantity::new(q)), window(s, e))
    }

    fn committed_state() -> State {
        let mut s = State::new(theta(&[(cpu("l1"), 4, 0, 6)]), TimePoint::ZERO);
        s.accommodate(Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 8, 0, 4)],
            TimePoint::new(4),
        ))
        .unwrap();
        s
    }

    #[test]
    fn sequential_rule_consumes_and_advances() {
        let mut s = committed_state();
        let label = s.step_sequential(cpu("l1"), ActorName::new("a1")).unwrap();
        match label {
            TransitionLabel::Step {
                assignments,
                expired,
            } => {
                assert_eq!(assignments.len(), 1);
                assert!(expired.is_empty(), "full rate consumed");
            }
            other => panic!("unexpected label {other:?}"),
        }
        assert_eq!(s.now(), TimePoint::new(1));
        // 4 units delivered, 4 remain of the 8-unit demand
        assert_eq!(
            s.total_remaining_demand().amount(&cpu("l1")),
            Quantity::new(4)
        );
        // one more tick completes it and the commitment is reaped
        s.step_sequential(cpu("l1"), ActorName::new("a1")).unwrap();
        assert!(s.rho().is_empty());
    }

    #[test]
    fn expiration_rule_wastes_the_tick() {
        let mut s = committed_state();
        let label = s.step_expire();
        match label {
            TransitionLabel::Step {
                assignments,
                expired,
            } => {
                assert!(assignments.is_empty());
                assert_eq!(expired, vec![cpu("l1")]);
            }
            other => panic!("unexpected label {other:?}"),
        }
        // demand unchanged, availability in (0,1) gone
        assert_eq!(
            s.total_remaining_demand().amount(&cpu("l1")),
            Quantity::new(8)
        );
        assert_eq!(
            s.theta().quantity_over(&cpu("l1"), &window(0, 6)).unwrap(),
            Quantity::new(20)
        );
    }

    #[test]
    fn concurrent_rule_fuels_multiple_actors() {
        let mut s = State::new(
            theta(&[(cpu("l1"), 4, 0, 4), (cpu("l2"), 2, 0, 4)]),
            TimePoint::ZERO,
        );
        s.accommodate(Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 4, 0, 4)],
            TimePoint::new(4),
        ))
        .unwrap();
        s.accommodate(Commitment::opportunistic(
            ActorName::new("a2"),
            [simple(cpu("l2"), 2, 0, 4)],
            TimePoint::new(4),
        ))
        .unwrap();
        s.step(&[
            (cpu("l1"), ActorName::new("a1")),
            (cpu("l2"), ActorName::new("a2")),
        ])
        .unwrap();
        assert!(s.rho().is_empty(), "both single-tick demands completed");
    }

    #[test]
    fn step_guards_reject_invalid_assignments() {
        let mut s = committed_state();
        let before = s.clone();
        // unknown actor
        let err = s.step(&[(cpu("l1"), ActorName::new("ghost"))]).unwrap_err();
        assert!(matches!(err, TransitionError::UnknownActor(_)));
        // wrong type
        let err = s.step(&[(cpu("l9"), ActorName::new("a1"))]).unwrap_err();
        assert!(matches!(err, TransitionError::NotRunnable { .. }));
        // duplicate type
        let err = s
            .step(&[
                (cpu("l1"), ActorName::new("a1")),
                (cpu("l1"), ActorName::new("a1")),
            ])
            .unwrap_err();
        assert!(matches!(err, TransitionError::DuplicateType(_)));
        assert_eq!(s, before, "state unchanged on every error");
    }

    #[test]
    fn window_not_open_is_not_runnable() {
        let mut s = State::new(theta(&[(cpu("l1"), 4, 0, 10)]), TimePoint::ZERO);
        s.accommodate(Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 4, 5, 10)], // scheduled later
            TimePoint::new(10),
        ))
        .unwrap();
        let err = s
            .step_sequential(cpu("l1"), ActorName::new("a1"))
            .unwrap_err();
        assert!(matches!(err, TransitionError::NotRunnable { .. }));
    }

    #[test]
    fn acquisition_clips_history() {
        let mut s = State::new(ResourceSet::new(), TimePoint::new(5));
        let label = s.acquire(theta(&[(cpu("l1"), 3, 0, 10)])).unwrap();
        match label {
            TransitionLabel::Acquire { joined } => {
                assert_eq!(
                    joined.to_terms(),
                    vec![ResourceTerm::new(Rate::new(3), window(5, 10), cpu("l1"))]
                );
            }
            other => panic!("unexpected label {other:?}"),
        }
        assert_eq!(
            s.theta().quantity_over(&cpu("l1"), &window(0, 10)).unwrap(),
            Quantity::new(15)
        );
    }

    #[test]
    fn accommodate_guard_rejects_past_deadline() {
        let mut s = State::new(ResourceSet::new(), TimePoint::new(10));
        let err = s
            .accommodate(Commitment::opportunistic(
                ActorName::new("a1"),
                [simple(cpu("l1"), 1, 0, 5)],
                TimePoint::new(5),
            ))
            .unwrap_err();
        assert!(matches!(err, TransitionError::DeadlinePassed { .. }));
    }

    #[test]
    fn leave_guard_rejects_started() {
        let mut s = State::new(theta(&[(cpu("l1"), 1, 0, 10)]), TimePoint::ZERO);
        s.accommodate(Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 4, 2, 8)],
            TimePoint::new(8),
        ))
        .unwrap();
        // t=0 < s=2: leaving is allowed
        let mut can_leave = s.clone();
        assert!(can_leave.leave(&ActorName::new("a1")).is_ok());
        assert!(can_leave.rho().is_empty());
        // advance to t=2: leave now fails
        s.step_expire();
        s.step_expire();
        let err = s.leave(&ActorName::new("a1")).unwrap_err();
        assert!(matches!(err, TransitionError::AlreadyStarted { .. }));
        // unknown actor
        assert!(matches!(
            s.leave(&ActorName::new("zz")),
            Err(TransitionError::UnknownActor(_))
        ));
    }

    #[test]
    fn greedy_run_completes_feasible_commitment() {
        let mut s = committed_state();
        let labels = s.run_greedy(TimePoint::new(10));
        assert!(s.rho().is_empty());
        assert!(!s.any_late());
        assert!(labels.len() >= 2);
    }

    #[test]
    fn lateness_observed_when_starved() {
        let mut s = State::new(ResourceSet::new(), TimePoint::ZERO);
        s.accommodate(Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 8, 0, 2)],
            TimePoint::new(2),
        ))
        .unwrap();
        s.step_expire();
        s.step_expire();
        assert!(s.any_late());
    }

    #[test]
    fn display_and_parts() {
        let s = committed_state();
        assert!(s.to_string().starts_with("S = ("));
        let (theta, rho, now) = s.into_parts();
        assert!(!theta.is_empty());
        assert_eq!(rho.len(), 1);
        assert_eq!(now, TimePoint::ZERO);
    }

    #[test]
    fn tick_delivery_is_rate() {
        assert_eq!(tick_delivery(Rate::new(7)), Quantity::new(7));
    }

    #[test]
    fn delivered_units_accumulate_only_absorbed() {
        let mut s = committed_state(); // rate 4, demand 8
        assert_eq!(s.delivered_units(), 0);
        s.step_sequential(cpu("l1"), ActorName::new("a1")).unwrap();
        assert_eq!(s.delivered_units(), 4);
        s.step_sequential(cpu("l1"), ActorName::new("a1")).unwrap();
        assert_eq!(s.delivered_units(), 8);
        // expiration delivers nothing
        s.step_expire();
        assert_eq!(s.delivered_units(), 8);
    }

    /// A reserved commitment scheduled against `s`'s Θ_expire.
    fn reserved(s: &State, actor: &str, lt: LocatedType, q: u64, d: u64) -> Commitment {
        let req = ComplexRequirement::new(
            vec![ResourceDemand::single(lt, Quantity::new(q))],
            window(0, d),
        );
        let demand = req.total_demand();
        schedule_complex(
            &s.expiring_in(demand.located_types(), req.window()),
            &req,
            s.now(),
        )
        .expect("feasible")
        .into_commitment(ActorName::new(actor), TimePoint::new(d))
    }

    #[test]
    fn finished_segment_frees_its_unused_reserved_ticks() {
        let mut s = State::new(theta(&[(cpu("l1"), 2, 0, 6)]), TimePoint::ZERO);
        let c = reserved(&s, "a1", cpu("l1"), 4, 6); // reserves ticks (0,2)
        s.accommodate(c).unwrap();
        assert_eq!(s.expiring_resources(), theta(&[(cpu("l1"), 2, 2, 6)]));
        // Capacity joining on the reserved ticks finishes the segment in
        // one tick; its second reserved tick is offered again.
        s.acquire(theta(&[(cpu("l1"), 2, 0, 6)])).unwrap();
        s.step(&s.greedy_assignments()).unwrap();
        assert!(s.rho().is_empty());
        assert_eq!(s.expiring_resources(), theta(&[(cpu("l1"), 4, 1, 6)]));
    }

    #[test]
    fn popping_the_last_opportunistic_segment_restores_the_fast_path() {
        let mut s = State::new(theta(&[(cpu("l1"), 4, 0, 8)]), TimePoint::ZERO);
        let later = reserved(&s, "probe", cpu("l1"), 4, 8);
        let head = ScheduledSegment::opportunistic(simple(cpu("l2"), 1, 0, 8));
        let segments: Vec<ScheduledSegment> = std::iter::once(head)
            .chain(later.pending().cloned())
            .collect();
        let actor = ActorName::new("a1");
        s.accommodate(Commitment::new(actor, segments, TimePoint::new(8)))
            .unwrap();
        assert_eq!(s.unreserved, 1);
        // No l2 supply yet: evicting and re-admitting keeps the count exact.
        let before = s.clone();
        s.evict(&ActorName::new("a1"));
        assert_eq!((s.unreserved, s.reserved.is_empty()), (0, true));
        s = before;
        s.acquire(theta(&[(cpu("l2"), 1, 0, 1)])).unwrap();
        s.step(&s.greedy_assignments()).unwrap();
        assert_eq!(s.unreserved, 0, "remaining segments are all reserved");
        assert_eq!(s.expiring_resources(), s.expiring_by_simulation());
    }

    #[test]
    fn duplicate_actor_commitment_rejected() {
        let mut s = committed_state();
        let before = s.clone();
        let err = s
            .accommodate(Commitment::opportunistic(
                ActorName::new("a1"),
                [simple(cpu("l1"), 1, 0, 4)],
                TimePoint::new(4),
            ))
            .unwrap_err();
        assert!(matches!(err, TransitionError::ActorAlreadyCommitted(_)));
        assert!(err.to_string().contains("already has a pending"));
        assert_eq!(s, before);
    }
}
