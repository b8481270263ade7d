//! Interacting actors: precedence-constrained workflows.
//!
//! The paper's Section IV-B3 model restricts `Λ` to *independent* actors;
//! Section VI's first future-work item asks for actors that interact,
//! suggesting it "would be better to break down an actor's computation
//! into sequences of independent computations separated by states in
//! which it is waiting to hear back from a blocking operation."
//!
//! This module implements exactly that decomposition: a
//! [`WorkflowRequirement`] is a set of per-actor complex requirements
//! plus precedence edges "`b` cannot start before `a` completes" — the
//! waiting-for-a-message states. [`schedule_workflow`] extends the
//! Theorem-2/4 machinery: actors are scheduled in topological order, each
//! no earlier than its predecessors' completions, carving reservations
//! from the shared free set.
//!
//! Completeness caveat: with precedence constraints the greedy
//! topological sweep is **sound but not complete** — acceptance still
//! implies every deadline is met, but a feasible workflow could be
//! refused under adversarial resource shapes (the underlying problem is
//! NP-hard with dependencies). This is the standard admission-control
//! trade; the independent-actor case (no edges) remains complete.

use core::fmt;

use rota_actor::ComplexRequirement;
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::ResourceSet;

use crate::schedule::{schedule_complex, InfeasibleError, Schedule};

/// A precedence-constrained distributed computation requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkflowRequirement {
    parts: Vec<ComplexRequirement>,
    edges: Vec<(usize, usize)>,
    window: TimeInterval,
}

/// Error from workflow construction or scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// An edge referenced an actor index that does not exist.
    UnknownPart {
        /// The offending index.
        index: usize,
    },
    /// The precedence edges contain a cycle.
    CyclicDependencies,
    /// Actor `part` cannot be scheduled after its predecessors.
    Infeasible {
        /// Index of the failing actor.
        part: usize,
        /// Scheduler diagnostic.
        error: InfeasibleError,
    },
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::UnknownPart { index } => {
                write!(f, "precedence edge references unknown actor #{index}")
            }
            WorkflowError::CyclicDependencies => f.write_str("precedence edges contain a cycle"),
            WorkflowError::Infeasible { part, error } => {
                write!(f, "actor #{part} unschedulable: {error}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl WorkflowRequirement {
    /// Creates a workflow over `parts` with the given precedence `edges`
    /// (`(a, b)` meaning `b` waits for `a`).
    ///
    /// # Errors
    ///
    /// [`WorkflowError::UnknownPart`] for out-of-range edges;
    /// [`WorkflowError::CyclicDependencies`] if the graph has no
    /// topological order.
    pub fn new(
        parts: Vec<ComplexRequirement>,
        edges: Vec<(usize, usize)>,
        window: TimeInterval,
    ) -> Result<Self, WorkflowError> {
        for &(a, b) in &edges {
            for index in [a, b] {
                if index >= parts.len() {
                    return Err(WorkflowError::UnknownPart { index });
                }
            }
        }
        let wf = WorkflowRequirement {
            parts,
            edges,
            window,
        };
        wf.topo_order()?;
        Ok(wf)
    }

    /// The per-actor requirements.
    pub fn parts(&self) -> &[ComplexRequirement] {
        &self.parts
    }

    /// The precedence edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The shared window `(s, d)`.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// A topological order of the actors (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// [`WorkflowError::CyclicDependencies`] when none exists.
    pub fn topo_order(&self) -> Result<Vec<usize>, WorkflowError> {
        let n = self.parts.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            out[a].push(b);
            indeg[b] += 1;
        }
        // FIFO queue: lowest-index-first among ready nodes, so the order
        // is deterministic and edge-free workflows match the plain
        // concurrent scheduling order.
        let mut ready: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop_front() {
            order.push(i);
            for &j in &out[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push_back(j);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(WorkflowError::CyclicDependencies)
        }
    }
}

/// Schedules a workflow against `free` resources: each actor no earlier
/// than `earliest` and all its predecessors' completions, reservations
/// carved serially. Returns per-actor schedules indexed like
/// [`WorkflowRequirement::parts`].
///
/// # Errors
///
/// [`WorkflowError::Infeasible`] names the first actor that cannot be
/// placed. (Sound, not complete — see the module docs.)
pub fn schedule_workflow(
    free: &ResourceSet,
    workflow: &WorkflowRequirement,
    earliest: TimePoint,
) -> Result<Vec<Schedule>, WorkflowError> {
    let order = workflow.topo_order()?;
    let n = workflow.parts.len();
    let mut completions: Vec<Option<TimePoint>> = vec![None; n];
    let mut schedules: Vec<Option<Schedule>> = vec![None; n];
    let mut remaining = free.clone();
    for &i in &order {
        let mut start = earliest;
        for &(a, b) in &workflow.edges {
            if b == i {
                let pred = completions[a].expect("topological order visits predecessors first");
                start = start.max(pred);
            }
        }
        let schedule = schedule_complex(&remaining, &workflow.parts[i], start)
            .map_err(|error| WorkflowError::Infeasible { part: i, error })?;
        let reserved = schedule.total_reservation();
        remaining = remaining
            .relative_complement(&reserved)
            .expect("reservations are carved from the remaining set");
        completions[i] = Some(schedule.completion());
        schedules[i] = Some(schedule);
    }
    Ok(schedules
        .into_iter()
        .map(|s| s.expect("every index scheduled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::ResourceDemand;
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceTerm};

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn part(lt: LocatedType, q: u64, s: u64, d: u64) -> ComplexRequirement {
        ComplexRequirement::new(vec![ResourceDemand::single(lt, Quantity::new(q))], iv(s, d))
    }

    fn theta(rate: u64, s: u64, e: u64) -> ResourceSet {
        [ResourceTerm::new(Rate::new(rate), iv(s, e), cpu("l1"))]
            .into_iter()
            .collect()
    }

    #[test]
    fn construction_validates_edges_and_cycles() {
        let p = part(cpu("l1"), 4, 0, 10);
        assert!(matches!(
            WorkflowRequirement::new(vec![p.clone()], vec![(0, 3)], iv(0, 10)),
            Err(WorkflowError::UnknownPart { index: 3 })
        ));
        assert!(matches!(
            WorkflowRequirement::new(vec![p.clone(), p.clone()], vec![(0, 1), (1, 0)], iv(0, 10)),
            Err(WorkflowError::CyclicDependencies)
        ));
        let ok = WorkflowRequirement::new(vec![p.clone(), p], vec![(0, 1)], iv(0, 10)).unwrap();
        assert_eq!(ok.parts().len(), 2);
        assert_eq!(ok.edges(), &[(0, 1)]);
        assert_eq!(ok.window(), iv(0, 10));
    }

    #[test]
    fn dependent_actor_starts_after_predecessor() {
        let free = theta(2, 0, 20);
        let wf = WorkflowRequirement::new(
            vec![part(cpu("l1"), 8, 0, 20), part(cpu("l1"), 8, 0, 20)],
            vec![(0, 1)],
            iv(0, 20),
        )
        .unwrap();
        let schedules = schedule_workflow(&free, &wf, TimePoint::ZERO).unwrap();
        // first completes at t=4; second may only start then
        assert_eq!(schedules[0].completion(), TimePoint::new(4));
        assert_eq!(
            schedules[1].segments()[0].requirement().window().start(),
            TimePoint::new(4)
        );
        assert_eq!(schedules[1].completion(), TimePoint::new(8));
    }

    #[test]
    fn diamond_dependencies_respected() {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let free = theta(4, 0, 40);
        let p = |q| part(cpu("l1"), q, 0, 40);
        let wf = WorkflowRequirement::new(
            vec![p(4), p(4), p(4), p(4)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            iv(0, 40),
        )
        .unwrap();
        let schedules = schedule_workflow(&free, &wf, TimePoint::ZERO).unwrap();
        let start = |i: usize| schedules[i].segments()[0].requirement().window().start();
        assert!(start(1) >= schedules[0].completion());
        assert!(start(2) >= schedules[0].completion());
        assert!(start(3) >= schedules[1].completion());
        assert!(start(3) >= schedules[2].completion());
    }

    #[test]
    fn infeasible_names_the_blocked_actor() {
        // Capacity for the predecessor but not for the dependent within
        // the deadline.
        let free = theta(2, 0, 8);
        let wf = WorkflowRequirement::new(
            vec![part(cpu("l1"), 8, 0, 8), part(cpu("l1"), 10, 0, 8)],
            vec![(0, 1)],
            iv(0, 8),
        )
        .unwrap();
        match schedule_workflow(&free, &wf, TimePoint::ZERO) {
            Err(WorkflowError::Infeasible { part, .. }) => assert_eq!(part, 1),
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn no_edges_matches_concurrent_scheduling() {
        let free = theta(2, 0, 20);
        let parts = vec![part(cpu("l1"), 8, 0, 20), part(cpu("l1"), 8, 0, 20)];
        let wf = WorkflowRequirement::new(parts.clone(), vec![], iv(0, 20)).unwrap();
        let wf_schedules = schedule_workflow(&free, &wf, TimePoint::ZERO).unwrap();
        let conc = rota_actor::ConcurrentRequirement::new(parts, iv(0, 20));
        let conc_schedules =
            crate::schedule::schedule_concurrent(&free, &conc, TimePoint::ZERO).unwrap();
        assert_eq!(wf_schedules, conc_schedules);
    }

    #[test]
    fn error_display() {
        assert!(WorkflowError::CyclicDependencies
            .to_string()
            .contains("cycle"));
        assert!(WorkflowError::UnknownPart { index: 9 }
            .to_string()
            .contains("#9"));
    }
}
