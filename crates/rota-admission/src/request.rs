//! Admission requests — a deadline-constrained distributed computation
//! with its derived resource requirement.

use core::fmt;
use core::hash::{Hash, Hasher};

use rota_actor::{
    ActorName, ConcurrentRequirement, CostModel, DistributedComputation, Granularity,
    ResourceDemand,
};
use rota_interval::{TimeInterval, TimePoint};

/// A request to accommodate a distributed computation `(Λ, s, d)`.
///
/// Carries the computation together with its concurrent resource
/// requirement `ρ(Λ, s, d)` and that requirement's total demand (both
/// derived once, via Φ, at construction) so policies can decide without
/// re-pricing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionRequest {
    computation: DistributedComputation,
    requirement: ConcurrentRequirement,
    demand: ResourceDemand,
}

/// The demand is a function of the requirement, so it adds nothing to
/// the request's identity and is not hashed.
impl Hash for AdmissionRequest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.computation.hash(state);
        self.requirement.hash(state);
    }
}

impl AdmissionRequest {
    /// Prices `computation` with `phi` at `granularity` and packages it
    /// for admission.
    pub fn price<M: CostModel + ?Sized>(
        computation: DistributedComputation,
        phi: &M,
        granularity: Granularity,
    ) -> Self {
        let requirement = ConcurrentRequirement::of_computation(&computation, phi, granularity);
        let demand = requirement.total_demand();
        AdmissionRequest {
            computation,
            requirement,
            demand,
        }
    }

    /// The underlying computation.
    pub fn computation(&self) -> &DistributedComputation {
        &self.computation
    }

    /// The derived requirement `ρ(Λ, s, d)`.
    pub fn requirement(&self) -> &ConcurrentRequirement {
        &self.requirement
    }

    /// The requirement's total demand, `requirement().total_demand()`:
    /// what each located type must supply over the window, order
    /// forgotten.
    pub fn demand(&self) -> &ResourceDemand {
        &self.demand
    }

    /// The request's identifying name.
    pub fn name(&self) -> &str {
        self.computation.name()
    }

    /// Earliest start `s`.
    pub fn start(&self) -> TimePoint {
        self.computation.start()
    }

    /// Deadline `d`.
    pub fn deadline(&self) -> TimePoint {
        self.computation.deadline()
    }

    /// The window `(s, d)`.
    pub fn window(&self) -> TimeInterval {
        self.computation.window()
    }

    /// The participating actor names, aligned with
    /// `requirement().parts()`.
    pub fn actor_names(&self) -> Vec<ActorName> {
        self.computation
            .actors()
            .iter()
            .map(|g| g.actor().clone())
            .collect()
    }
}

impl fmt::Display for AdmissionRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request[{}]", self.computation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::{ActionKind, ActorComputation, TableCostModel};

    #[test]
    fn price_derives_requirement() {
        let lambda = DistributedComputation::new(
            "job",
            vec![
                ActorComputation::new("a1", "l1").then(ActionKind::evaluate()),
                ActorComputation::new("a2", "l2").then(ActionKind::Ready),
            ],
            TimePoint::ZERO,
            TimePoint::new(10),
        )
        .unwrap();
        let req =
            AdmissionRequest::price(lambda, &TableCostModel::paper(), Granularity::MaximalRun);
        assert_eq!(req.name(), "job");
        assert_eq!(req.requirement().parts().len(), 2);
        assert_eq!(req.demand(), &req.requirement().total_demand());
        assert_eq!(req.actor_names().len(), 2);
        assert_eq!(req.start(), TimePoint::ZERO);
        assert_eq!(req.deadline(), TimePoint::new(10));
        assert_eq!(req.window().duration().ticks(), 10);
        assert!(req.to_string().starts_with("request["));
    }
}
