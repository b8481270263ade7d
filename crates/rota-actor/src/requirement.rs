//! Resource requirements `ρ` — simple, complex and concurrent.
//!
//! Section IV-B of the paper defines three levels of requirement:
//!
//! * **simple** `ρ(γ, s, d)`: a single action's demand over a window, with
//!   the satisfaction function `f(Θ, ρ(γ,s,d)) = ⋃ₛᵈ Θ ≥ Φ(γ)`;
//! * **complex** `ρ(Γ, s, d)`: a sequence of segment demands that must be
//!   satisfied over a sequence of sub-windows partitioning `(s, d)` — "the
//!   right resources are required at the right time";
//! * **concurrent** `ρ(Λ, s, d)`: the union of each actor's complex
//!   requirement over the same window.

use core::fmt;

use rota_interval::TimeInterval;
use rota_resource::ResourceSet;

use crate::computation::{ActorComputation, DistributedComputation};
use crate::cost::CostModel;
use crate::demand::ResourceDemand;
use crate::segment::{segment_demands, Granularity};

/// A simple resource requirement `ρ(γ, s, d)`: `demand` must be met within
/// `window`, with no internal ordering.
///
/// # Examples
///
/// ```
/// use rota_actor::{ActionKind, ActorName, CostModel, SimpleRequirement, TableCostModel};
/// use rota_interval::TimeInterval;
/// use rota_resource::{Location, Rate, ResourceSet, ResourceTerm, LocatedType};
///
/// let phi = TableCostModel::paper();
/// let demand = phi.demand(&ActorName::new("a1"), &Location::new("l1"), &ActionKind::evaluate());
/// let rho = SimpleRequirement::new(demand, TimeInterval::from_ticks(0, 4)?);
///
/// // [2]^(0,4)_⟨cpu,l1⟩ delivers 8 units over the window: satisfied.
/// let theta = ResourceSet::from_terms([ResourceTerm::new(
///     Rate::new(2), TimeInterval::from_ticks(0, 4)?, LocatedType::cpu(Location::new("l1")),
/// )])?;
/// assert!(rho.satisfied_by(&theta));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleRequirement {
    demand: ResourceDemand,
    window: TimeInterval,
}

impl SimpleRequirement {
    /// Creates `ρ(γ, s, d)` from an already-priced demand.
    pub fn new(demand: ResourceDemand, window: TimeInterval) -> Self {
        SimpleRequirement { demand, window }
    }

    /// The demanded amounts `Φ(γ)`.
    pub fn demand(&self) -> &ResourceDemand {
        &self.demand
    }

    /// The window `(s, d)`.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The paper's satisfaction function `f(Θ, ρ(γ,s,d))`: for every
    /// demanded `{q}_ξ`, the total quantity of `ξ` available in `Θ` within
    /// the window is at least `q`.
    ///
    /// Quantities that overflow `u64` during integration are treated as
    /// "more than enough" (the demand side is bounded by `u64`).
    pub fn satisfied_by(&self, theta: &ResourceSet) -> bool {
        self.demand.iter().all(|(lt, q)| {
            match theta.quantity_over(lt, &self.window) {
                Ok(available) => available >= q,
                Err(_) => true, // overflowed u64 ⇒ certainly ≥ any u64 demand
            }
        })
    }
}

impl fmt::Display for SimpleRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ({}, {})", self.demand, self.window)
    }
}

/// A complex resource requirement `ρ(Γ, s, d)`: ordered segment demands
/// that must be scheduled into consecutive sub-windows of `(s, d)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComplexRequirement {
    segments: Vec<ResourceDemand>,
    window: TimeInterval,
}

impl ComplexRequirement {
    /// Creates a complex requirement from explicit ordered segments.
    pub fn new(segments: Vec<ResourceDemand>, window: TimeInterval) -> Self {
        ComplexRequirement { segments, window }
    }

    /// Derives `ρ(Γ, s, d)` from an actor computation via Φ, splitting at
    /// the chosen [`Granularity`].
    pub fn of_actor<M: CostModel + ?Sized>(
        gamma: &ActorComputation,
        model: &M,
        window: TimeInterval,
        granularity: Granularity,
    ) -> Self {
        let segments = segment_demands(gamma.action_demands(model), granularity);
        ComplexRequirement { segments, window }
    }

    /// The ordered segment demands (the `m` subcomputations).
    pub fn segments(&self) -> &[ResourceDemand] {
        &self.segments
    }

    /// Number of segments `m`.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there is nothing to do.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The window `(s, d)`.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The order-forgetting aggregate of all segments.
    pub fn total_demand(&self) -> ResourceDemand {
        let mut total = ResourceDemand::new();
        for s in &self.segments {
            total.merge(s);
        }
        total
    }

    /// The induced simple requirement treating the whole computation as
    /// one unordered demand — a *necessary* condition for satisfiability
    /// (the paper stresses it is not sufficient).
    pub fn as_simple(&self) -> SimpleRequirement {
        SimpleRequirement::new(self.total_demand(), self.window)
    }
}

impl fmt::Display for ComplexRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ(Γ[{} segs], {})", self.segments.len(), self.window)
    }
}

/// A concurrent requirement `ρ(Λ, s, d)`: one complex requirement per
/// participating actor, all over the same window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConcurrentRequirement {
    parts: Vec<ComplexRequirement>,
    window: TimeInterval,
}

impl ConcurrentRequirement {
    /// Creates a concurrent requirement from per-actor parts.
    ///
    /// Parts whose window differs from `window` are still honored — each
    /// part carries its own window — but the usual construction is via
    /// [`of_computation`](ConcurrentRequirement::of_computation), which
    /// gives every actor the shared `(s, d)`.
    pub fn new(parts: Vec<ComplexRequirement>, window: TimeInterval) -> Self {
        ConcurrentRequirement { parts, window }
    }

    /// Derives `ρ(Λ, s, d)` from a distributed computation via Φ.
    pub fn of_computation<M: CostModel + ?Sized>(
        lambda: &DistributedComputation,
        model: &M,
        granularity: Granularity,
    ) -> Self {
        let window = lambda.window();
        let parts = lambda
            .actors()
            .iter()
            .map(|gamma| ComplexRequirement::of_actor(gamma, model, window, granularity))
            .collect();
        ConcurrentRequirement { parts, window }
    }

    /// The per-actor complex requirements.
    pub fn parts(&self) -> &[ComplexRequirement] {
        &self.parts
    }

    /// The shared window `(s, d)`.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// Total number of segments across all actors.
    pub fn segment_count(&self) -> usize {
        self.parts.iter().map(ComplexRequirement::len).sum()
    }

    /// The order-forgetting aggregate across all actors.
    pub fn total_demand(&self) -> ResourceDemand {
        let mut total = ResourceDemand::new();
        for p in &self.parts {
            total.merge(&p.total_demand());
        }
        total
    }

    /// The induced (necessary, not sufficient) simple requirement.
    pub fn as_simple(&self) -> SimpleRequirement {
        SimpleRequirement::new(self.total_demand(), self.window)
    }
}

impl fmt::Display for ConcurrentRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ρ(Λ[{} actors, {} segs], {})",
            self.parts.len(),
            self.segment_count(),
            self.window
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionKind;
    use crate::cost::TableCostModel;
    use rota_interval::TimePoint;
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceTerm};

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn theta(terms: &[(LocatedType, u64, u64, u64)]) -> ResourceSet {
        terms
            .iter()
            .map(|(lt, r, s, e)| ResourceTerm::new(Rate::new(*r), iv(*s, *e), lt.clone()))
            .collect()
    }

    #[test]
    fn simple_satisfaction_integrates_over_window() {
        let rho = SimpleRequirement::new(
            ResourceDemand::single(cpu("l1"), Quantity::new(10)),
            iv(0, 5),
        );
        assert!(rho.satisfied_by(&theta(&[(cpu("l1"), 2, 0, 5)])));
        assert!(!rho.satisfied_by(&theta(&[(cpu("l1"), 1, 0, 5)])));
        // availability outside the window does not count
        assert!(!rho.satisfied_by(&theta(&[(cpu("l1"), 100, 5, 10)])));
        // empty demand is always satisfied
        let empty = SimpleRequirement::new(ResourceDemand::new(), iv(0, 5));
        assert!(empty.satisfied_by(&ResourceSet::new()));
    }

    #[test]
    fn simple_requires_every_type() {
        let mut demand = ResourceDemand::new();
        demand.add(cpu("l1"), Quantity::new(4));
        demand.add(cpu("l2"), Quantity::new(4));
        let rho = SimpleRequirement::new(demand, iv(0, 4));
        assert!(!rho.satisfied_by(&theta(&[(cpu("l1"), 2, 0, 4)])));
        assert!(rho.satisfied_by(&theta(&[(cpu("l1"), 1, 0, 4), (cpu("l2"), 1, 0, 4)])));
    }

    #[test]
    fn complex_from_actor_segments_runs() {
        let gamma = ActorComputation::new("a1", "l1")
            .then(ActionKind::evaluate()) // 8 cpu@l1
            .then(ActionKind::create("b")) // 5 cpu@l1 — merges
            .then(ActionKind::send("a2", "l2")) // 4 net l1→l2
            .then(ActionKind::Ready); // 1 cpu@l1
        let phi = TableCostModel::paper();
        let complex =
            ComplexRequirement::of_actor(&gamma, &phi, iv(0, 10), Granularity::MaximalRun);
        assert_eq!(complex.len(), 3);
        assert_eq!(complex.segments()[0].amount(&cpu("l1")), Quantity::new(13));
        let fine = ComplexRequirement::of_actor(&gamma, &phi, iv(0, 10), Granularity::PerAction);
        assert_eq!(fine.len(), 4);
        // aggregates agree regardless of granularity
        assert_eq!(complex.total_demand(), fine.total_demand());
        assert_eq!(complex.as_simple().window(), iv(0, 10));
    }

    #[test]
    fn concurrent_from_distributed_computation() {
        let g1 = ActorComputation::new("a1", "l1").then(ActionKind::evaluate());
        let g2 = ActorComputation::new("a2", "l2").then(ActionKind::evaluate());
        let lambda =
            DistributedComputation::new("job", vec![g1, g2], TimePoint::new(0), TimePoint::new(6))
                .unwrap();
        let rho = ConcurrentRequirement::of_computation(
            &lambda,
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        );
        assert_eq!(rho.parts().len(), 2);
        assert_eq!(rho.segment_count(), 2);
        assert_eq!(rho.window(), iv(0, 6));
        let total = rho.total_demand();
        assert_eq!(total.amount(&cpu("l1")), Quantity::new(8));
        assert_eq!(total.amount(&cpu("l2")), Quantity::new(8));
    }

    #[test]
    fn display_forms() {
        let rho = SimpleRequirement::new(
            ResourceDemand::single(cpu("l1"), Quantity::new(8)),
            iv(0, 5),
        );
        assert_eq!(rho.to_string(), "ρ({{8}_⟨cpu, l1⟩}, (0,5))");
        let complex = ComplexRequirement::new(vec![rho.demand().clone()], iv(0, 5));
        assert_eq!(complex.to_string(), "ρ(Γ[1 segs], (0,5))");
        let conc = ConcurrentRequirement::new(vec![complex], iv(0, 5));
        assert_eq!(conc.to_string(), "ρ(Λ[1 actors, 1 segs], (0,5))");
    }
}
