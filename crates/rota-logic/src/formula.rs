//! ROTA well-formed formulas and their satisfaction semantics (Section
//! V-B, Figure 1 of the paper).
//!
//! ```text
//! ψ ::= true | false | satisfy(ρ(γ,s,d)) | satisfy(ρ(Γ,s,d)) |
//!       satisfy(ρ(Λ,s,d)) | ¬ψ | ◇ψ | □ψ
//! ```
//!
//! The satisfaction relation `M, σ, t ⊨ ψ` is defined on a computation
//! path at a time. The `satisfy` atoms are evaluated against
//! `⋃ Θ_expire` — the resources that will expire unused along the path
//! during `(max(s,t), d)`: "unwanted resource which will expire unless new
//! computations requiring them enter the system. This creates opportunity
//! for the system to accommodate new computations."
//!
//! The temporal operators quantify over path extensions (the tree of
//! Definition 2). Exploration is **bounded**: the checker unfolds the
//! transition tree up to a configurable number of `Δt` steps — ROTA's
//! general decision problem is unbounded, and the paper itself notes the
//! complexity is "obviously high"; a bounded horizon matches the
//! deadline-oriented formulas the logic exists to check (every `satisfy`
//! atom is indifferent to states past its deadline).

use core::fmt;

use rota_actor::{ComplexRequirement, ConcurrentRequirement, SimpleRequirement};
use rota_interval::{TimeInterval, TimePoint};

use crate::obs::{describe_label, CheckObs, RuleKind};
use crate::schedule::{schedule_complex, schedule_concurrent};
use crate::state::{State, TransitionLabel};

/// A ROTA well-formed formula.
///
/// Conjunction, disjunction and implication are provided as derived
/// constructors ([`Formula::and`], [`Formula::or`], [`Formula::implies`])
/// desugaring to `¬`/`◇`-free combinations, as usual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// `satisfy(ρ(γ, s, d))` — the expiring resources can absorb a simple
    /// requirement.
    SatisfySimple(SimpleRequirement),
    /// `satisfy(ρ(Γ, s, d))` — breakpoints exist within the expiring
    /// resources (Theorem 2 applied to `Θ_expire`).
    SatisfyComplex(ComplexRequirement),
    /// `satisfy(ρ(Λ, s, d))` — every actor of a concurrent requirement can
    /// be scheduled into the expiring resources.
    SatisfyConcurrent(ConcurrentRequirement),
    /// Negation `¬ψ`.
    Not(Box<Formula>),
    /// Disjunction `ψ₁ ∨ ψ₂`. The paper's grammar omits ∨ (and ∧), but
    /// they are standard derived connectives; ∨ is kept primitive here so
    /// `ψ₁ ∧ ψ₂ ≡ ¬(¬ψ₁ ∨ ¬ψ₂)` terminates structurally.
    Or(Box<Formula>, Box<Formula>),
    /// Eventually `◇ψ`: on some path extension, at some future state, ψ.
    Eventually(Box<Formula>),
    /// Always `□ψ`: on every path extension, at every reachable state, ψ.
    Always(Box<Formula>),
}

impl Formula {
    /// `ψ₁ ∧ ψ₂ ≡ ¬(¬ψ₁ ∨ ¬ψ₂)` — built structurally as nested `Not`/`Or`.
    pub fn and(self, other: Formula) -> Formula {
        Formula::Not(Box::new(Formula::or(
            Formula::Not(Box::new(self)),
            Formula::Not(Box::new(other)),
        )))
    }

    /// `ψ₁ ∨ ψ₂`.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// `ψ₁ → ψ₂ ≡ ¬ψ₁ ∨ ψ₂`.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::or(Formula::Not(Box::new(self)), other)
    }

    /// `◇ψ`.
    pub fn eventually(self) -> Formula {
        Formula::Eventually(Box::new(self))
    }

    /// `□ψ`.
    pub fn always(self) -> Formula {
        Formula::Always(Box::new(self))
    }

    /// `¬ψ`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
            Formula::SatisfySimple(r) => write!(f, "satisfy({r})"),
            Formula::SatisfyComplex(r) => write!(f, "satisfy({r})"),
            Formula::SatisfyConcurrent(r) => write!(f, "satisfy({r})"),
            Formula::Not(p) => write!(f, "¬{p}"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Eventually(p) => write!(f, "◇{p}"),
            Formula::Always(p) => write!(f, "□{p}"),
        }
    }
}

/// Generates the successor states a model checker explores from a state —
/// the branching of Definition 2's tree.
///
/// Implementations should return *at least* one successor for any state
/// that can still evolve, and an empty vector exactly when the state is
/// terminal for exploration purposes.
pub trait Unfolding {
    /// The states reachable in one transition, each with the label of
    /// the transition that produced it — the hook observability uses to
    /// attribute exploration to LTS rules.
    fn successors_labeled(&self, state: &State) -> Vec<(State, TransitionLabel)>;

    /// The states reachable in one transition (labels discarded).
    fn successors(&self, state: &State) -> Vec<State> {
        self.successors_labeled(state)
            .into_iter()
            .map(|(state, _)| state)
            .collect()
    }
}

/// Deterministic unfolding: the single greedy successor (maximal
/// assignment, first-entitled actor per type). Terminal when availability
/// and commitments are both exhausted.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyUnfolding;

impl Unfolding for GreedyUnfolding {
    fn successors_labeled(&self, state: &State) -> Vec<(State, TransitionLabel)> {
        if state.theta().is_empty() && state.rho().is_empty() {
            return Vec::new();
        }
        let mut next = state.clone();
        let assignments = next.greedy_assignments();
        let label = next
            .step(&assignments)
            .expect("greedy assignments are always valid");
        vec![(next, label)]
    }
}

/// Branching unfolding: for every located type available now, branch over
/// *which* entitled actor receives it (up to `max_branches` successor
/// states per node, truncating the cartesian product breadth-first).
/// Always includes the option of letting everything expire.
#[derive(Debug, Clone, Copy)]
pub struct ChoiceUnfolding {
    /// Cap on successors generated per state.
    pub max_branches: usize,
}

impl Default for ChoiceUnfolding {
    fn default() -> Self {
        ChoiceUnfolding { max_branches: 16 }
    }
}

impl Unfolding for ChoiceUnfolding {
    fn successors_labeled(&self, state: &State) -> Vec<(State, TransitionLabel)> {
        if state.theta().is_empty() && state.rho().is_empty() {
            return Vec::new();
        }
        // Build the per-type candidate lists.
        let now = state.now();
        let types: Vec<_> = state.theta().located_types().cloned().collect();
        let mut assignment_sets: Vec<Vec<(rota_resource::LocatedType, rota_actor::ActorName)>> =
            vec![Vec::new()]; // the all-expire branch
        for lt in types {
            if state.theta().rate_at(&lt, now).is_zero() {
                continue;
            }
            let candidates = state.rho().entitled(&lt, now);
            if candidates.is_empty() {
                continue;
            }
            let mut grown = Vec::new();
            for base in &assignment_sets {
                for actor in &candidates {
                    let mut next = base.clone();
                    next.push((lt.clone(), (*actor).clone()));
                    grown.push(next);
                    if assignment_sets.len() + grown.len() >= self.max_branches {
                        break;
                    }
                }
                if assignment_sets.len() + grown.len() >= self.max_branches {
                    break;
                }
            }
            assignment_sets.extend(grown);
            assignment_sets.truncate(self.max_branches);
        }
        assignment_sets
            .into_iter()
            .map(|assignments| {
                let mut next = state.clone();
                let label = next
                    .step(&assignments)
                    .expect("entitled assignments are valid");
                (next, label)
            })
            .collect()
    }
}

/// Bounded model checker for ROTA formulas over the transition tree.
#[derive(Debug, Clone)]
pub struct ModelChecker<U = GreedyUnfolding> {
    unfolding: U,
    max_depth: usize,
    obs: Option<CheckObs>,
}

impl ModelChecker<GreedyUnfolding> {
    /// A checker exploring the deterministic greedy path up to
    /// `max_depth` transitions.
    pub fn greedy(max_depth: usize) -> Self {
        ModelChecker {
            unfolding: GreedyUnfolding,
            max_depth,
            obs: None,
        }
    }
}

impl<U: Unfolding> ModelChecker<U> {
    /// A checker with a custom unfolding.
    pub fn with_unfolding(unfolding: U, max_depth: usize) -> Self {
        ModelChecker {
            unfolding,
            max_depth,
            obs: None,
        }
    }

    /// Attaches observability: states-visited and per-rule firing
    /// counters and the formula-depth histogram.
    pub fn with_obs(mut self, obs: CheckObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Evaluates `M, σ, t ⊨ ψ` with `σ, t` given by `state` (the path's
    /// current point); temporal operators explore up to the depth bound.
    pub fn holds(&self, state: &State, formula: &Formula) -> bool {
        let mut visited = 0;
        let verdict = self.eval(state, formula, &mut visited);
        self.observe(formula, visited);
        verdict
    }

    /// Like [`holds`](ModelChecker::holds), but returns the run's
    /// explanation with its verdict: the states this run visited and,
    /// for a falsified `□ψ`, the first falsifying path prefix.
    pub fn check(&self, state: &State, formula: &Formula) -> CheckOutcome {
        let (mut visited, mut falsifying_prefix) = (0, Vec::new());
        let holds = match formula {
            Formula::Always(p) => self.forall_traced(
                state,
                p,
                self.max_depth,
                &mut visited,
                &mut falsifying_prefix,
            ),
            _ => self.eval(state, formula, &mut visited),
        };
        self.observe(formula, visited);
        CheckOutcome {
            holds,
            states_visited: visited,
            falsifying_prefix,
        }
    }

    fn observe(&self, formula: &Formula, visited: u64) {
        if let Some(obs) = &self.obs {
            obs.observe_eval_depth(formula_depth(formula));
            obs.count_states(visited);
        }
    }

    fn eval(&self, state: &State, formula: &Formula, visited: &mut u64) -> bool {
        match formula {
            Formula::True => true,
            Formula::False => false,
            Formula::SatisfySimple(req) => satisfy_simple(state, req),
            Formula::SatisfyComplex(req) => satisfy_complex(state, req),
            Formula::SatisfyConcurrent(req) => satisfy_concurrent(state, req),
            Formula::Not(p) => !self.eval(state, p, visited),
            Formula::Or(a, b) => self.eval(state, a, visited) || self.eval(state, b, visited),
            Formula::Eventually(p) => self.exists(state, p, self.max_depth, visited),
            Formula::Always(p) => self.forall(state, p, self.max_depth, visited),
        }
    }

    /// One level of unfolding: counts the explored states into
    /// `visited` and attributes each realized transition to its LTS
    /// rule.
    fn explore(&self, state: &State, visited: &mut u64) -> Vec<(State, TransitionLabel)> {
        let successors = self.unfolding.successors_labeled(state);
        *visited += successors.len() as u64;
        if let Some(obs) = &self.obs {
            for (_, label) in &successors {
                obs.count_rule(RuleKind::of(label));
            }
        }
        successors
    }

    fn exists(&self, state: &State, p: &Formula, depth: usize, visited: &mut u64) -> bool {
        if self.eval(state, p, visited) {
            return true;
        }
        if depth == 0 {
            return false;
        }
        self.explore(state, visited)
            .iter()
            .any(|(next, _)| self.exists(next, p, depth - 1, visited))
    }

    fn forall(&self, state: &State, p: &Formula, depth: usize, visited: &mut u64) -> bool {
        if !self.eval(state, p, visited) {
            return false;
        }
        if depth == 0 {
            return true;
        }
        self.explore(state, visited)
            .iter()
            .all(|(next, _)| self.forall(next, p, depth - 1, visited))
    }

    /// `forall` threading the label trail from the root, so a failure
    /// leaves the falsifying path prefix in `trail` (empty = falsified
    /// at the initial state itself).
    fn forall_traced(
        &self,
        state: &State,
        p: &Formula,
        depth: usize,
        visited: &mut u64,
        trail: &mut Vec<String>,
    ) -> bool {
        if !self.eval(state, p, visited) {
            return false;
        }
        if depth == 0 {
            return true;
        }
        for (next, label) in self.explore(state, visited) {
            trail.push(describe_label(&label));
            if !self.forall_traced(&next, p, depth - 1, visited, trail) {
                return false;
            }
            trail.pop();
        }
        true
    }
}

/// What one [`ModelChecker::check`] run decided, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the formula held.
    pub holds: bool,
    /// States the run explored.
    pub states_visited: u64,
    /// For a falsified `□ψ`: the labels of the first falsifying path
    /// prefix, outermost transition first. Empty otherwise.
    pub falsifying_prefix: Vec<String>,
}

/// Syntactic nesting depth of a formula (atoms are depth 1).
fn formula_depth(formula: &Formula) -> u64 {
    match formula {
        Formula::True
        | Formula::False
        | Formula::SatisfySimple(_)
        | Formula::SatisfyComplex(_)
        | Formula::SatisfyConcurrent(_) => 1,
        Formula::Not(p) | Formula::Eventually(p) | Formula::Always(p) => 1 + formula_depth(p),
        Formula::Or(a, b) => 1 + formula_depth(a).max(formula_depth(b)),
    }
}

/// The `(max(s,t), d)` evaluation window of a requirement at a state, or
/// `None` when the deadline has passed (the atom is then false for
/// non-empty demands).
fn eval_window(window: TimeInterval, now: TimePoint) -> Option<TimeInterval> {
    TimeInterval::new(window.start().max(now), window.end()).ok()
}

fn satisfy_simple(state: &State, req: &SimpleRequirement) -> bool {
    let Some(window) = eval_window(req.window(), state.now()) else {
        return req.demand().is_empty();
    };
    let expiring = state.expiring_in(req.demand().located_types(), window);
    SimpleRequirement::new(req.demand().clone(), window).satisfied_by(&expiring)
}

fn satisfy_complex(state: &State, req: &ComplexRequirement) -> bool {
    let Some(window) = eval_window(req.window(), state.now()) else {
        return req.is_empty();
    };
    let demand = req.total_demand();
    let expiring = state.expiring_in(demand.located_types(), window);
    let clipped = ComplexRequirement::new(req.segments().to_vec(), window);
    schedule_complex(&expiring, &clipped, state.now()).is_ok()
}

fn satisfy_concurrent(state: &State, req: &ConcurrentRequirement) -> bool {
    let Some(window) = eval_window(req.window(), state.now()) else {
        return req.parts().iter().all(ComplexRequirement::is_empty);
    };
    let demand = req.total_demand();
    let expiring = state.expiring_in(demand.located_types(), window);
    let clipped = ConcurrentRequirement::new(
        req.parts()
            .iter()
            .map(|p| {
                let w = eval_window(p.window(), state.now()).unwrap_or(window);
                ComplexRequirement::new(p.segments().to_vec(), w)
            })
            .collect(),
        window,
    );
    schedule_concurrent(&expiring, &clipped, state.now()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::{window, Commitment};
    use rota_actor::{ActorName, ResourceDemand};
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

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

    fn checker() -> ModelChecker {
        ModelChecker::greedy(32)
    }

    #[test]
    fn constants_and_boolean_connectives() {
        let s = State::new(ResourceSet::new(), TimePoint::ZERO);
        let c = checker();
        assert!(c.holds(&s, &Formula::True));
        assert!(!c.holds(&s, &Formula::False));
        assert!(c.holds(&s, &Formula::False.not()));
        assert!(c.holds(&s, &Formula::or(Formula::False, Formula::True)));
        assert!(!c.holds(&s, &Formula::or(Formula::False, Formula::False)));
        assert!(c.holds(&s, &Formula::True.and(Formula::True)));
        assert!(!c.holds(&s, &Formula::True.and(Formula::False)));
        assert!(c.holds(&s, &Formula::False.implies(Formula::False)));
        assert!(!c.holds(&s, &Formula::True.implies(Formula::False)));
    }

    #[test]
    fn satisfy_simple_uses_expiring_resources() {
        // Free system: everything expires, so the atom sees all of Θ.
        let s = State::new(theta(&[(cpu("l1"), 2, 0, 4)]), TimePoint::ZERO);
        let c = checker();
        assert!(c.holds(&s, &Formula::SatisfySimple(simple(cpu("l1"), 8, 0, 4))));
        assert!(!c.holds(&s, &Formula::SatisfySimple(simple(cpu("l1"), 9, 0, 4))));
    }

    #[test]
    fn satisfy_respects_commitments() {
        // A committed consumer removes resources from Θ_expire.
        let mut s = State::new(theta(&[(cpu("l1"), 2, 0, 4)]), TimePoint::ZERO);
        let free = s.expiring_resources();
        let req = rota_actor::ComplexRequirement::new(
            vec![ResourceDemand::single(cpu("l1"), Quantity::new(6))],
            window(0, 4),
        );
        let schedule = crate::schedule::schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        s.accommodate(schedule.into_commitment(ActorName::new("a1"), TimePoint::new(4)))
            .unwrap();
        let c = checker();
        // 8 total − 6 reserved = 2 expiring
        assert!(c.holds(&s, &Formula::SatisfySimple(simple(cpu("l1"), 2, 0, 4))));
        assert!(!c.holds(&s, &Formula::SatisfySimple(simple(cpu("l1"), 3, 0, 4))));
    }

    #[test]
    fn deadline_passed_atoms_are_false() {
        let s = State::new(theta(&[(cpu("l1"), 2, 0, 10)]), TimePoint::new(6));
        let c = checker();
        assert!(!c.holds(&s, &Formula::SatisfySimple(simple(cpu("l1"), 1, 0, 5))));
        // empty demand over a passed window is vacuously satisfiable
        let empty = SimpleRequirement::new(ResourceDemand::new(), window(0, 5));
        assert!(c.holds(&s, &Formula::SatisfySimple(empty)));
    }

    #[test]
    fn eventually_finds_future_satisfaction() {
        // Demand must fit in (4,8); at t=0 resources for (0,8) exist but a
        // committed consumer blocks (0,4). After it completes, satisfy
        // holds — and ◇satisfy already holds at t=0 because Θ_expire
        // accounts for the commitment's completion.
        let mut s = State::new(theta(&[(cpu("l1"), 2, 0, 8)]), TimePoint::ZERO);
        let free = s.expiring_resources();
        let req = rota_actor::ComplexRequirement::new(
            vec![ResourceDemand::single(cpu("l1"), Quantity::new(8))],
            window(0, 4),
        );
        let schedule = crate::schedule::schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        s.accommodate(schedule.into_commitment(ActorName::new("a1"), TimePoint::new(4)))
            .unwrap();
        let c = checker();
        let atom = Formula::SatisfySimple(simple(cpu("l1"), 8, 4, 8));
        assert!(c.holds(&s, &atom), "expiring window (4,8) suffices now");
        assert!(c.holds(&s, &atom.clone().eventually()));
        // □ of the atom fails: once t passes 4 the window shrinks until
        // the integral cannot cover the demand.
        assert!(!c.holds(&s, &atom.always()));
    }

    #[test]
    fn check_returns_its_explanation() {
        let s = State::new(theta(&[(cpu("l1"), 4, 0, 8)]), TimePoint::ZERO);
        let registry = rota_obs::Registry::new();
        let c = ModelChecker::greedy(16).with_obs(CheckObs::new(&registry));
        let falsified = Formula::SatisfySimple(simple(cpu("l1"), 8, 0, 8)).always();
        let outcome = c.check(&s, &falsified);
        assert!(!outcome.holds);
        assert!(!outcome.falsifying_prefix.is_empty());
        assert!(outcome.states_visited > 0);
        let held = c.check(&s, &Formula::True.always());
        assert!(held.holds);
        assert!(held.falsifying_prefix.is_empty());
        let counted = registry.snapshot().counter("logic.states_visited");
        assert_eq!(
            counted,
            Some(outcome.states_visited + held.states_visited),
            "the counter sums what each run returned"
        );
    }

    #[test]
    fn always_true_holds_everywhere() {
        let s = State::new(theta(&[(cpu("l1"), 1, 0, 4)]), TimePoint::ZERO);
        let c = checker();
        assert!(c.holds(&s, &Formula::True.always()));
        assert!(!c.holds(&s, &Formula::False.eventually()));
    }

    #[test]
    fn satisfy_complex_and_concurrent_atoms() {
        let s = State::new(
            theta(&[(cpu("l1"), 2, 0, 8), (cpu("l2"), 2, 0, 8)]),
            TimePoint::ZERO,
        );
        let c = checker();
        let part = rota_actor::ComplexRequirement::new(
            vec![
                ResourceDemand::single(cpu("l1"), Quantity::new(4)),
                ResourceDemand::single(cpu("l2"), Quantity::new(4)),
            ],
            window(0, 8),
        );
        assert!(c.holds(&s, &Formula::SatisfyComplex(part.clone())));
        let conc = ConcurrentRequirement::new(vec![part.clone(), part.clone()], window(0, 8));
        assert!(c.holds(&s, &Formula::SatisfyConcurrent(conc)));
        // four copies exceed capacity
        let conc4 = ConcurrentRequirement::new(
            vec![part.clone(), part.clone(), part.clone(), part],
            window(0, 8),
        );
        assert!(!c.holds(&s, &Formula::SatisfyConcurrent(conc4)));
    }

    #[test]
    fn choice_unfolding_branches() {
        let mut s = State::new(theta(&[(cpu("l1"), 1, 0, 4)]), TimePoint::ZERO);
        for name in ["a1", "a2"] {
            s.accommodate(Commitment::opportunistic(
                ActorName::new(name),
                [simple(cpu("l1"), 2, 0, 4)],
                TimePoint::new(4),
            ))
            .unwrap();
        }
        let u = ChoiceUnfolding::default();
        let succ = u.successors(&s);
        // expire-all, serve a1, serve a2
        assert_eq!(succ.len(), 3);
        // terminal state yields nothing
        let dead = State::new(ResourceSet::new(), TimePoint::ZERO);
        assert!(u.successors(&dead).is_empty());
        assert!(GreedyUnfolding.successors(&dead).is_empty());
    }

    #[test]
    fn display_forms() {
        let f = Formula::True.and(Formula::False.not()).eventually();
        let txt = f.to_string();
        assert!(txt.contains('◇'));
        assert!(txt.contains('¬'));
        assert!(Formula::SatisfySimple(simple(cpu("l1"), 1, 0, 2))
            .to_string()
            .starts_with("satisfy(ρ("));
        assert!(Formula::True.always().to_string().starts_with('□'));
    }
}
