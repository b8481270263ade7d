//! Actor computations `Γ` and distributed computations `(Λ, s, d)`.
//!
//! "We abstract away what a distributed computation does and represent it
//! by the resource requirements for each step of its execution." An
//! [`ActorComputation`] is one actor's sequence of actions together with
//! its starting location (so Φ can resolve located types through
//! migrations); a [`DistributedComputation`] is the paper's triple
//! `(Λ, s, d)` — a set of (independent, possibly concurrent) actor
//! computations, an earliest start `s`, and a deadline `d`.

use core::fmt;
use std::sync::Arc;

use rota_interval::{TimeInterval, TimePoint};
use rota_resource::Location;

use crate::action::{ActionKind, ActorName};
use crate::cost::CostModel;
use crate::demand::ResourceDemand;

/// One actor's computation `Γ`: an ordered sequence of actions, executed
/// sequentially ("an individual actor's computation is sequential … an
/// action may not be available for execution unless all previous actions
/// have been completed").
///
/// # Examples
///
/// ```
/// use rota_actor::{ActionKind, ActorComputation, TableCostModel};
/// use rota_resource::Location;
///
/// let gamma = ActorComputation::new("a1", "l1")
///     .then(ActionKind::evaluate())
///     .then(ActionKind::send("a2", "l2"))
///     .then(ActionKind::Ready);
/// assert_eq!(gamma.len(), 3);
/// let demands = gamma.action_demands(&TableCostModel::paper());
/// assert_eq!(demands.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActorComputation {
    actor: ActorName,
    origin: Location,
    actions: Vec<ActionKind>,
}

impl ActorComputation {
    /// Creates an empty computation for `actor` starting at `origin`.
    pub fn new(actor: impl Into<ActorName>, origin: impl Into<Location>) -> Self {
        ActorComputation {
            actor: actor.into(),
            origin: origin.into(),
            actions: Vec::new(),
        }
    }

    /// Appends an action (builder style).
    #[must_use]
    pub fn then(mut self, action: ActionKind) -> Self {
        self.actions.push(action);
        self
    }

    /// Appends an action in place.
    pub fn push(&mut self, action: ActionKind) {
        self.actions.push(action);
    }

    /// The acting actor's name.
    pub fn actor(&self) -> &ActorName {
        &self.actor
    }

    /// Where the actor starts.
    pub fn origin(&self) -> &Location {
        &self.origin
    }

    /// The action sequence.
    pub fn actions(&self) -> &[ActionKind] {
        &self.actions
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether there are no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The actor's location *before* each action (index-aligned), derived
    /// by threading migrations through the sequence.
    pub fn locations(&self) -> Vec<Location> {
        let mut here = self.origin.clone();
        let mut out = Vec::with_capacity(self.actions.len());
        for action in &self.actions {
            out.push(here.clone());
            if let Some(dest) = action.migration_target() {
                here = dest.clone();
            }
        }
        out
    }

    /// The actor's location after all actions complete.
    pub fn final_location(&self) -> Location {
        self.actions
            .iter()
            .rev()
            .find_map(ActionKind::migration_target)
            .cloned()
            .unwrap_or_else(|| self.origin.clone())
    }

    /// Φ applied to each action in order: the per-step resource demands
    /// that *are* this computation, in ROTA's representation.
    pub fn action_demands<M: CostModel + ?Sized>(&self, model: &M) -> Vec<ResourceDemand> {
        let locations = self.locations();
        self.actions
            .iter()
            .zip(&locations)
            .map(|(action, here)| model.demand(&self.actor, here, action))
            .collect()
    }

    /// The aggregate demand of the whole computation (order forgotten) —
    /// what the paper warns is *insufficient* on its own for feasibility,
    /// but is exactly what the naive total-quantity baseline checks.
    pub fn total_demand<M: CostModel + ?Sized>(&self, model: &M) -> ResourceDemand {
        let mut total = ResourceDemand::new();
        for d in self.action_demands(model) {
            total.merge(&d);
        }
        total
    }

    /// Begins tracking execution progress (Definition 1 / Axiom 1).
    pub fn progress(&self) -> ActorProgress<'_> {
        ActorProgress {
            computation: self,
            next: 0,
        }
    }
}

impl fmt::Display for ActorComputation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Γ_{}@{} = ⟨", self.actor, self.origin)?;
        let mut first = true;
        for a in &self.actions {
            if !first {
                f.write_str("; ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        f.write_str("⟩")
    }
}

/// Execution progress through an [`ActorComputation`], enforcing the
/// paper's Definition 1: an action is **possible** iff it is the first
/// action or all its predecessors have completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorProgress<'a> {
    computation: &'a ActorComputation,
    next: usize,
}

impl<'a> ActorProgress<'a> {
    /// The unique possible action right now (Definition 1), or `None` when
    /// the computation has completed.
    pub fn possible_action(&self) -> Option<(usize, &'a ActionKind)> {
        self.computation
            .actions
            .get(self.next)
            .map(|a| (self.next, a))
    }

    /// Whether `index` is currently a possible action.
    pub fn is_possible(&self, index: usize) -> bool {
        index == self.next && index < self.computation.len()
    }

    /// Marks the possible action completed (Axiom 1's "can be completed"
    /// having been discharged by the caller providing its resources).
    ///
    /// Returns the completed action, or `None` if already finished.
    pub fn complete_next(&mut self) -> Option<&'a ActionKind> {
        let action = self.computation.actions.get(self.next)?;
        self.next += 1;
        Some(action)
    }

    /// Number of completed actions.
    pub fn completed(&self) -> usize {
        self.next
    }

    /// Number of actions still to run.
    pub fn remaining(&self) -> usize {
        self.computation.len() - self.next
    }

    /// Whether every action has completed.
    pub fn is_complete(&self) -> bool {
        self.next == self.computation.len()
    }
}

/// Error constructing a distributed computation whose deadline does not
/// follow its earliest start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidWindowError {
    start: TimePoint,
    deadline: TimePoint,
}

impl fmt::Display for InvalidWindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid computation window: deadline {} is not after start {}",
            self.deadline, self.start
        )
    }
}

impl std::error::Error for InvalidWindowError {}

/// The paper's triple `(Λ, s, d)`: a distributed computation `Λ` made of
/// independent actor computations, an earliest start time `s`, and a
/// deadline `d`. "The computation does not seek to begin before `s` and
/// seeks to be completed before `d`."
///
/// Actors in `Λ` are independent ("created en masse at the beginning …
/// and never have to wait for messages from other actors"), matching the
/// paper's Section IV-B3 model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistributedComputation {
    name: Arc<str>,
    actors: Vec<ActorComputation>,
    window: TimeInterval,
}

impl DistributedComputation {
    /// Creates `(Λ, s, d)` with the given actor computations.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWindowError`] unless `start < deadline`.
    pub fn new(
        name: impl AsRef<str>,
        actors: Vec<ActorComputation>,
        start: TimePoint,
        deadline: TimePoint,
    ) -> Result<Self, InvalidWindowError> {
        let window = TimeInterval::new(start, deadline)
            .map_err(|_| InvalidWindowError { start, deadline })?;
        Ok(DistributedComputation {
            name: Arc::from(name.as_ref()),
            actors,
            window,
        })
    }

    /// Single-actor convenience constructor.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWindowError`] unless `start < deadline`.
    pub fn single(
        name: impl AsRef<str>,
        actor: ActorComputation,
        start: TimePoint,
        deadline: TimePoint,
    ) -> Result<Self, InvalidWindowError> {
        DistributedComputation::new(name, vec![actor], start, deadline)
    }

    /// The computation's identifying name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The participating actor computations.
    pub fn actors(&self) -> &[ActorComputation] {
        &self.actors
    }

    /// Earliest start `s`.
    pub fn start(&self) -> TimePoint {
        self.window.start()
    }

    /// Deadline `d`.
    pub fn deadline(&self) -> TimePoint {
        self.window.end()
    }

    /// The window `(s, d)` as an interval.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// Total number of actions across all actors.
    pub fn action_count(&self) -> usize {
        self.actors.iter().map(ActorComputation::len).sum()
    }

    /// Aggregate demand over all actors (the naive baseline's view).
    pub fn total_demand<M: CostModel + ?Sized>(&self, model: &M) -> ResourceDemand {
        let mut total = ResourceDemand::new();
        for actor in &self.actors {
            total.merge(&actor.total_demand(model));
        }
        total
    }
}

impl fmt::Display for DistributedComputation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, s={}, d={}) [{} actors, {} actions]",
            self.name,
            self.start(),
            self.deadline(),
            self.actors.len(),
            self.action_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use rota_resource::{LocatedType, Quantity};

    fn gamma() -> ActorComputation {
        ActorComputation::new("a1", "l1")
            .then(ActionKind::evaluate())
            .then(ActionKind::migrate("l2"))
            .then(ActionKind::evaluate())
            .then(ActionKind::send("a2", "l3"))
    }

    #[test]
    fn locations_thread_through_migration() {
        let g = gamma();
        let locs = g.locations();
        assert_eq!(
            locs,
            vec![
                Location::new("l1"),
                Location::new("l1"),
                Location::new("l2"),
                Location::new("l2"),
            ]
        );
        assert_eq!(g.final_location(), Location::new("l2"));
        assert_eq!(
            ActorComputation::new("a", "l9").final_location(),
            Location::new("l9")
        );
    }

    #[test]
    fn action_demands_follow_location() {
        let g = gamma();
        let demands = g.action_demands(&TableCostModel::paper());
        // first evaluate is at l1, second at l2
        assert_eq!(
            demands[0].amount(&LocatedType::cpu(Location::new("l1"))),
            Quantity::new(8)
        );
        assert_eq!(
            demands[2].amount(&LocatedType::cpu(Location::new("l2"))),
            Quantity::new(8)
        );
        // the send goes out over l2 → l3
        assert_eq!(
            demands[3].amount(&LocatedType::network(
                Location::new("l2"),
                Location::new("l3")
            )),
            Quantity::new(4)
        );
    }

    #[test]
    fn total_demand_aggregates() {
        let g = gamma();
        let total = g.total_demand(&TableCostModel::paper());
        // evaluate(8)@l1 + migrate(3)@l1 = 11 CPU at l1
        assert_eq!(
            total.amount(&LocatedType::cpu(Location::new("l1"))),
            Quantity::new(11)
        );
        // migrate(3)@l2 + evaluate(8)@l2 = 11 CPU at l2
        assert_eq!(
            total.amount(&LocatedType::cpu(Location::new("l2"))),
            Quantity::new(11)
        );
    }

    #[test]
    fn progress_enforces_sequential_order() {
        let g = gamma();
        let mut p = g.progress();
        assert_eq!(p.possible_action().map(|(i, _)| i), Some(0));
        assert!(p.is_possible(0));
        assert!(!p.is_possible(1));
        assert_eq!(p.remaining(), 4);
        p.complete_next().unwrap();
        assert!(p.is_possible(1));
        assert_eq!(p.completed(), 1);
        p.complete_next().unwrap();
        p.complete_next().unwrap();
        p.complete_next().unwrap();
        assert!(p.is_complete());
        assert_eq!(p.possible_action(), None);
        assert_eq!(p.complete_next(), None);
    }

    #[test]
    fn empty_computation_is_immediately_complete() {
        let g = ActorComputation::new("a", "l1");
        assert!(g.is_empty());
        let p = g.progress();
        assert!(p.is_complete());
        assert!(!p.is_possible(0));
    }

    #[test]
    fn distributed_window_validation() {
        let err = DistributedComputation::new("bad", vec![], TimePoint::new(5), TimePoint::new(5))
            .unwrap_err();
        assert!(err.to_string().contains("not after"));
        let ok =
            DistributedComputation::single("ok", gamma(), TimePoint::new(0), TimePoint::new(10))
                .unwrap();
        assert_eq!(ok.start(), TimePoint::new(0));
        assert_eq!(ok.deadline(), TimePoint::new(10));
        assert_eq!(ok.window(), TimeInterval::from_ticks(0, 10).unwrap());
        assert_eq!(ok.action_count(), 4);
        assert_eq!(ok.name(), "ok");
    }

    #[test]
    fn display_forms() {
        let g = ActorComputation::new("a1", "l1").then(ActionKind::Ready);
        assert_eq!(g.to_string(), "Γ_a1@l1 = ⟨ready(b)⟩");
        let c =
            DistributedComputation::single("job", g, TimePoint::new(0), TimePoint::new(4)).unwrap();
        assert_eq!(c.to_string(), "(job, s=t0, d=t4) [1 actors, 1 actions]");
    }
}
