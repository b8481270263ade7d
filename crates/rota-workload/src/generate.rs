//! Scenario generation from a [`WorkloadConfig`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rota_actor::{ActionKind, ActorComputation, DistributedComputation, TableCostModel};
use rota_admission::AdmissionRequest;
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_sim::Scenario;

use crate::config::{JobShape, WorkloadConfig};

/// The location name for node `i`.
pub fn node(i: usize) -> Location {
    Location::new(format!("l{i}"))
}

/// The base (always-on) resources of a `config`-sized system: per-node
/// CPU at `node_rate` for the whole horizon, plus a bidirectional ring of
/// network links at `link_rate`.
pub fn base_resources(config: &WorkloadConfig) -> ResourceSet {
    let horizon = TimeInterval::from_ticks(0, config.horizon.max(1)).expect("horizon ≥ 1");
    let mut theta = ResourceSet::new();
    for i in 0..config.nodes {
        if config.node_rate > 0 {
            theta
                .insert(ResourceTerm::new(
                    Rate::new(config.node_rate),
                    horizon,
                    LocatedType::cpu(node(i)),
                ))
                .expect("bounded rates");
        }
        if config.link_rate > 0 && config.nodes > 1 {
            let next = (i + 1) % config.nodes;
            for (from, to) in [(i, next), (next, i)] {
                theta
                    .insert(ResourceTerm::new(
                        Rate::new(config.link_rate),
                        horizon,
                        LocatedType::network(node(from), node(to)),
                    ))
                    .expect("bounded rates");
            }
        }
    }
    theta
}

/// Draws one job of the configured shape, rooted at a random node.
///
/// Returns the computation and the node index it starts at.
pub fn generate_job(
    config: &WorkloadConfig,
    rng: &mut StdRng,
    name: &str,
    arrival: u64,
) -> DistributedComputation {
    // Earliest start: arrival plus an optional uniform delay.
    let start = if config.start_delay_max > 0 {
        arrival + rng.gen_range(0..=config.start_delay_max)
    } else {
        arrival
    };
    let shape = match config.shape {
        JobShape::Mixed => match rng.gen_range(0u8..3) {
            0 => JobShape::Chain {
                evals: rng.gen_range(1..=4),
            },
            1 => JobShape::ForkJoin {
                actors: rng.gen_range(2..=3),
                evals_each: rng.gen_range(1..=3),
            },
            _ => JobShape::Pipeline {
                hops: rng.gen_range(1..=2),
            },
        },
        other => other,
    };
    let home = rng.gen_range(0..config.nodes.max(1));
    let actors: Vec<ActorComputation> = match shape {
        JobShape::Chain { evals } => {
            let mut gamma = ActorComputation::new(format!("{name}-a0"), node(home));
            for _ in 0..evals.max(1) {
                gamma.push(ActionKind::evaluate());
            }
            vec![gamma]
        }
        JobShape::ForkJoin { actors, evals_each } => (0..actors.max(1))
            .map(|k| {
                let loc = node((home + k) % config.nodes.max(1));
                let mut gamma = ActorComputation::new(format!("{name}-a{k}"), loc);
                for _ in 0..evals_each.max(1) {
                    gamma.push(ActionKind::evaluate());
                }
                gamma
            })
            .collect(),
        JobShape::Pipeline { hops } => {
            let mut gamma = ActorComputation::new(format!("{name}-a0"), node(home));
            let mut here = home;
            for _ in 0..hops.max(1) {
                gamma.push(ActionKind::evaluate());
                let next = (here + 1) % config.nodes.max(1);
                gamma.push(ActionKind::migrate(node(next)));
                here = next;
            }
            gamma.push(ActionKind::evaluate());
            vec![gamma]
        }
        JobShape::Mixed => unreachable!("resolved above"),
    };
    // Window: bare service time at full node rate, scaled by slack.
    let phi = TableCostModel::paper();
    let total: u64 = actors
        .iter()
        .map(|g| g.total_demand(&phi).total_units())
        .sum();
    let per_actor = total / actors.len().max(1) as u64;
    let bare = per_actor.div_ceil(config.node_rate.max(1)).max(1);
    let window = ((bare as f64 * config.slack).ceil() as u64).max(2);
    let deadline = (start + window).min(config.horizon.max(start + 2));
    DistributedComputation::new(
        name,
        actors,
        TimePoint::new(start),
        TimePoint::new(deadline.max(start + 1)),
    )
    .expect("deadline > start by construction")
}

/// Self-validation: runs the structural lint pass of `rota-analyze`
/// over a generated job against the system's base supply.
///
/// Overload experiments *depend* on capacity-infeasible jobs, so the
/// overcommitment and feasibility passes are deliberately not run —
/// but a generated job must never be structurally malformed (inverted
/// window, duplicate actor names, actor with no actions). The
/// generator asserts this in debug builds and the seed-sweep test
/// covers release behaviour.
pub fn validate_job(theta: &ResourceSet, job: &DistributedComputation) -> rota_analyze::Report {
    let model = rota_analyze::SpecModel::from_parts(&theta.to_terms(), job);
    rota_analyze::analyze_structural(&model)
}

/// Builds a full scenario: base resources, churned leases, and arrivals
/// calibrated so total demanded units ≈ `load ×` total base capacity.
pub fn build_scenario(config: &WorkloadConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let phi = TableCostModel::paper();
    let base = base_resources(config);
    let mut scenario = Scenario::new(TimePoint::new(config.horizon)).with_initial(base.clone());

    // Churned resource leases.
    if config.churn_join_prob > 0.0 && config.churn_rate > 0 {
        for t in 0..config.horizon {
            if rng.gen_bool(config.churn_join_prob.clamp(0.0, 1.0)) {
                let at = node(rng.gen_range(0..config.nodes.max(1)));
                let end = (t + config.churn_lease.max(1)).min(config.horizon);
                if t < end {
                    let lease: ResourceSet = [ResourceTerm::new(
                        Rate::new(config.churn_rate),
                        TimeInterval::from_ticks(t, end).expect("t < end"),
                        LocatedType::cpu(at),
                    )]
                    .into_iter()
                    .collect();
                    scenario.add_join(TimePoint::new(t), lease);
                }
            }
        }
    }

    // Arrivals calibrated to the requested load against CPU capacity.
    let capacity = (config.nodes as u64)
        .saturating_mul(config.node_rate)
        .saturating_mul(config.horizon);
    let target_demand = (capacity as f64 * config.load.max(0.0)) as u64;
    let mut demanded = 0u64;
    let mut k = 0usize;
    while demanded < target_demand && k < 100_000 {
        let arrival = rng.gen_range(0..config.horizon.max(1));
        let name = format!("job{k}");
        let job = generate_job(config, &mut rng, &name, arrival);
        debug_assert!(
            !validate_job(&base, &job).has_errors(),
            "generator emitted a structurally invalid job: {:?}",
            validate_job(&base, &job).diagnostics()
        );
        demanded = demanded.saturating_add(job.total_demand(&phi).total_units());
        let start = job.start();
        let request = AdmissionRequest::price(job, &phi, config.granularity);
        // A slice of delayed-start jobs withdraws before starting (the
        // computation-leave rule): schedule the leave strictly between
        // arrival and start.
        let leave = (config.cancel_prob > 0.0
            && start.ticks() > arrival
            && rng.gen_bool(config.cancel_prob.clamp(0.0, 1.0)))
        .then(|| (rng.gen_range(arrival..start.ticks()), request.actor_names()));
        // Arrival first so a same-instant leave sees the admitted job.
        scenario.add_arrival(TimePoint::new(arrival), request);
        if let Some((leave_at, actors)) = leave {
            scenario.add_leave(TimePoint::new(leave_at), actors);
        }
        k += 1;
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_resources_cover_nodes_and_links() {
        let config = WorkloadConfig::new(1).with_nodes(4);
        let theta = base_resources(&config);
        // 4 cpu types + 8 directed ring links
        assert_eq!(theta.located_types().count(), 12);
    }

    #[test]
    fn single_node_has_no_links() {
        let config = WorkloadConfig::new(1).with_nodes(1);
        let theta = base_resources(&config);
        assert_eq!(theta.located_types().count(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = WorkloadConfig::new(42).with_load(0.8).with_churn(0.1, 8, 2);
        let a = build_scenario(&config);
        let b = build_scenario(&config);
        assert_eq!(a.arrival_count(), b.arrival_count());
        assert_eq!(a.offered_units(), b.offered_units());
        // different seed → different workload (overwhelmingly likely)
        let c = build_scenario(&WorkloadConfig::new(43).with_load(0.8).with_churn(0.1, 8, 2));
        assert!(a.arrival_count() != c.arrival_count() || a.offered_units() != c.offered_units());
    }

    #[test]
    fn load_scales_arrivals() {
        let light = build_scenario(&WorkloadConfig::new(7).with_load(0.2));
        let heavy = build_scenario(&WorkloadConfig::new(7).with_load(1.5));
        assert!(heavy.arrival_count() > light.arrival_count());
    }

    #[test]
    fn shapes_produce_expected_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = WorkloadConfig::new(1).with_shape(JobShape::ForkJoin {
            actors: 3,
            evals_each: 2,
        });
        let job = generate_job(&config, &mut rng, "fj", 0);
        assert_eq!(job.actors().len(), 3);
        assert_eq!(job.action_count(), 6);

        let config = WorkloadConfig::new(1).with_shape(JobShape::Pipeline { hops: 2 });
        let job = generate_job(&config, &mut rng, "pl", 0);
        assert_eq!(job.actors().len(), 1);
        // evaluate+migrate per hop, plus the final evaluate
        assert_eq!(job.action_count(), 5);
        // window is valid
        assert!(job.deadline() > job.start());
    }

    #[test]
    fn mixed_shape_draws_all_kinds() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = WorkloadConfig::new(3).with_shape(JobShape::Mixed);
        let mut actor_counts = std::collections::BTreeSet::new();
        for i in 0..32 {
            let job = generate_job(&config, &mut rng, &format!("m{i}"), 0);
            actor_counts.insert(job.actors().len());
        }
        assert!(actor_counts.len() > 1, "mixed draws varied shapes");
    }

    #[test]
    fn cancellation_emits_leave_events() {
        let config = WorkloadConfig::new(9)
            .with_load(0.5)
            .with_cancellation(8, 0.5);
        let scenario = build_scenario(&config);
        let leaves = scenario
            .events()
            .iter()
            .filter(|e| matches!(e.event, rota_sim::Event::ComputationLeave { .. }))
            .count();
        assert!(leaves > 0, "half of delayed jobs should withdraw");
        assert!(leaves < scenario.arrival_count());
    }

    #[test]
    fn churn_adds_join_events() {
        let quiet = build_scenario(&WorkloadConfig::new(5).with_load(0.1));
        let churny = build_scenario(&WorkloadConfig::new(5).with_load(0.1).with_churn(0.5, 8, 2));
        assert!(churny.events().len() > quiet.events().len());
        assert!(churny.offered_units() > quiet.offered_units());
    }
}
