//! Computation paths `σ` — recorded traces of the transition system.
//!
//! Definition 2 of the paper: the transition relation on states produces a
//! tree of possible evolutions; a **computation path** is one branch. A
//! [`ComputationPath`] records the visited states and the labels of the
//! transitions between them, and is the structure the ROTA semantics
//! (Figure 1) is defined over.

use core::fmt;

use rota_actor::ActorName;
use rota_interval::TimePoint;
use rota_resource::{LocatedType, ResourceSet};

use crate::commitment::Commitment;
use crate::state::{State, TransitionError, TransitionLabel};

/// A recorded path through the ROTA transition system: states
/// `S₀, S₁, …, Sₙ` and the labels between them.
///
/// # Examples
///
/// ```
/// use rota_logic::{ComputationPath, State};
/// use rota_resource::ResourceSet;
/// use rota_interval::TimePoint;
///
/// let mut sigma = ComputationPath::new(State::new(ResourceSet::new(), TimePoint::ZERO));
/// sigma.step_expire();
/// assert_eq!(sigma.len(), 2);
/// assert_eq!(sigma.current().now(), TimePoint::new(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationPath {
    states: Vec<State>,
    labels: Vec<TransitionLabel>,
}

impl ComputationPath {
    /// Starts a path at `initial`.
    pub fn new(initial: State) -> Self {
        ComputationPath {
            states: vec![initial],
            labels: Vec::new(),
        }
    }

    /// The current (last) state.
    pub fn current(&self) -> &State {
        self.states.last().expect("paths are never empty")
    }

    /// All visited states, oldest first.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The transition labels, aligned between consecutive states.
    pub fn labels(&self) -> &[TransitionLabel] {
        &self.labels
    }

    /// Number of states on the path (transitions + 1).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the path holds just the initial state.
    pub fn is_empty(&self) -> bool {
        self.states.len() == 1
    }

    /// The last state whose time is ≤ `t` — "the system state that `σ, t`
    /// specifies". `None` if the path starts after `t`.
    pub fn state_at(&self, t: TimePoint) -> Option<&State> {
        self.states.iter().rev().find(|s| s.now() <= t)
    }

    fn apply<E>(
        &mut self,
        op: impl FnOnce(&mut State) -> Result<TransitionLabel, E>,
    ) -> Result<&State, E> {
        let mut next = self.current().clone();
        let label = op(&mut next)?;
        self.states.push(next);
        self.labels.push(label);
        Ok(self.current())
    }

    /// Applies a `Δt` step with explicit assignments and records it.
    ///
    /// # Errors
    ///
    /// As for [`State::step`]; the path is unchanged on error.
    pub fn step(
        &mut self,
        assignments: &[(LocatedType, ActorName)],
    ) -> Result<&State, TransitionError> {
        self.apply(|s| s.step(assignments))
    }

    /// Applies and records an expiration step (no assignments).
    pub fn step_expire(&mut self) -> &State {
        self.apply(|s| Ok::<_, TransitionError>(s.step_expire()))
            .expect("expiration cannot fail")
    }

    /// Applies and records a greedy step (maximal assignment).
    pub fn step_greedy(&mut self) -> &State {
        self.apply(|s| {
            let assignments = s.greedy_assignments();
            s.step(&assignments)
        })
        .expect("greedy assignments are always valid")
    }

    /// Runs greedy steps until `horizon` or quiescence (no availability,
    /// no commitments); records every transition.
    pub fn run_greedy(&mut self, horizon: TimePoint) {
        loop {
            let s = self.current();
            if s.now() >= horizon || (s.theta().is_empty() && s.rho().is_empty()) {
                break;
            }
            self.step_greedy();
        }
    }

    /// Applies and records a resource acquisition.
    ///
    /// # Errors
    ///
    /// As for [`State::acquire`].
    pub fn acquire(&mut self, theta_join: ResourceSet) -> Result<&State, TransitionError> {
        self.apply(|s| s.acquire(theta_join))
    }

    /// Applies and records a computation accommodation.
    ///
    /// # Errors
    ///
    /// As for [`State::accommodate`].
    pub fn accommodate(&mut self, commitment: Commitment) -> Result<&State, TransitionError> {
        self.apply(|s| s.accommodate(commitment))
    }

    /// Applies and records a computation leave.
    ///
    /// # Errors
    ///
    /// As for [`State::leave`].
    pub fn leave(&mut self, actor: &ActorName) -> Result<&State, TransitionError> {
        self.apply(|s| s.leave(actor))
    }

    /// The first time at which `actor` had no pending commitment left
    /// (i.e. completed), scanning the recorded states. `None` if it never
    /// completed on this path (or never appeared).
    pub fn completion_time(&self, actor: &ActorName) -> Option<TimePoint> {
        let mut seen = false;
        for s in &self.states {
            if s.rho().get(actor).is_some() {
                seen = true;
            } else if seen {
                return Some(s.now());
            }
        }
        None
    }

    /// Total quantity that expired unconsumed along the path, per the
    /// recorded step labels — the realized Θ_expire of this σ.
    pub fn expired_types(&self) -> Vec<LocatedType> {
        let mut out = Vec::new();
        for label in &self.labels {
            if let TransitionLabel::Step { expired, .. } = label {
                for lt in expired {
                    if !out.contains(lt) {
                        out.push(lt.clone());
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for ComputationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "σ: {} states, {} → {}",
            self.states.len(),
            self.states.first().expect("non-empty").now(),
            self.current().now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::{window, Commitment};
    use rota_actor::{ResourceDemand, SimpleRequirement};
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceTerm};

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

    #[test]
    fn records_states_and_labels() {
        let mut sigma =
            ComputationPath::new(State::new(theta(&[(cpu("l1"), 2, 0, 4)]), TimePoint::ZERO));
        sigma
            .accommodate(Commitment::opportunistic(
                ActorName::new("a1"),
                [simple(cpu("l1"), 4, 0, 4)],
                TimePoint::new(4),
            ))
            .unwrap();
        sigma.run_greedy(TimePoint::new(4));
        assert!(sigma.len() >= 3);
        assert_eq!(sigma.labels().len(), sigma.len() - 1);
        assert!(matches!(
            sigma.labels()[0],
            TransitionLabel::Accommodate { .. }
        ));
        assert_eq!(
            sigma.completion_time(&ActorName::new("a1")),
            Some(TimePoint::new(2))
        );
    }

    #[test]
    fn state_at_finds_latest_not_after() {
        let mut sigma =
            ComputationPath::new(State::new(theta(&[(cpu("l1"), 1, 0, 3)]), TimePoint::ZERO));
        sigma.step_expire();
        sigma.step_expire();
        assert_eq!(
            sigma.state_at(TimePoint::new(1)).unwrap().now(),
            TimePoint::new(1)
        );
        assert_eq!(
            sigma.state_at(TimePoint::new(9)).unwrap().now(),
            TimePoint::new(2)
        );
        assert_eq!(
            sigma.state_at(TimePoint::ZERO).unwrap().now(),
            TimePoint::ZERO
        );
    }

    #[test]
    fn error_leaves_path_unchanged() {
        let mut sigma = ComputationPath::new(State::new(ResourceSet::new(), TimePoint::ZERO));
        let before = sigma.clone();
        assert!(sigma.leave(&ActorName::new("nobody")).is_err());
        assert_eq!(sigma, before);
    }

    #[test]
    fn expired_types_collects_step_losses() {
        let mut sigma =
            ComputationPath::new(State::new(theta(&[(cpu("l1"), 1, 0, 2)]), TimePoint::ZERO));
        sigma.step_expire();
        assert_eq!(sigma.expired_types(), vec![cpu("l1")]);
    }

    #[test]
    fn completion_never_seen_is_none() {
        let sigma = ComputationPath::new(State::new(ResourceSet::new(), TimePoint::ZERO));
        assert_eq!(sigma.completion_time(&ActorName::new("a1")), None);
        assert!(sigma.is_empty());
        assert!(sigma.to_string().starts_with("σ:"));
    }
}
