//! The federation soundness property: a 3-node cluster answers every
//! admission — local, forwarded, and cross-location two-phase — with
//! exactly the verdict a single node holding the merged resources
//! would return.
//!
//! Each case seeds a workload over three locations, launches the
//! cluster and a one-shard oracle server over the *full* supply, and
//! replays the same job stream into both, rotating which cluster node
//! receives each request. Accept/reject must match job for job (and a
//! reject's clause, reason and violated term must match the oracle's
//! word for word); afterwards the union of the cluster's
//! obtainable-resource snapshots must equal the oracle's — no supply
//! leaked, none invented.
//!
//! A second property runs random spanning jobs through a 3-node,
//! 2-shards-per-node cluster and checks that each node holds each
//! accepted job once: one ρ entry per actor and owning shard, and one
//! `accepted` per node the job touches.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{AdmissionRequest, RotaPolicy};
use rota_cluster::{Cluster, ClusterConfig, NodeSpec, Topology};
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::shard_of;
use rota_server::spec::{resource_set, resource_set_to_json, resources_from_json};
use rota_server::{Request, Response, Server, ServerConfig};
use rota_workload::{base_resources, generate_job, validate_job, JobShape, WorkloadConfig};

const NODES: usize = 3;
const JOBS: usize = 18;

fn shape(index: usize) -> JobShape {
    match index {
        0 => JobShape::Chain { evals: 3 },
        1 => JobShape::ForkJoin {
            actors: 3,
            evals_each: 2,
        },
        2 => JobShape::Pipeline { hops: 2 },
        _ => JobShape::Mixed,
    }
}

fn obtainable(client: &mut rota_client::Client) -> ResourceSet {
    match client.call(&Request::ClusterSnapshot).unwrap() {
        Response::ClusterState { resources, .. } => {
            let specs = resources_from_json(resources.as_array().unwrap()).unwrap();
            resource_set(&specs).unwrap()
        }
        other => panic!("unexpected snapshot response {other:?}"),
    }
}

/// A reject's clause, reason and violated term.
type Grounds = (Option<String>, String, Option<String>);

/// A decision's verdict, and for a reject its grounds (an accept's
/// reason names the route, so it is left out).
fn verdict(response: &Response) -> (bool, Option<Grounds>) {
    match response {
        Response::Decision {
            accepted,
            clause,
            reason,
            violated_term,
            ..
        } => (
            *accepted,
            (!accepted).then(|| (clause.clone(), reason.clone(), violated_term.clone())),
        ),
        other => panic!("expected a decision, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cluster_verdicts_match_the_merged_oracle(
        seed in 0u64..10_000,
        shape_index in 0usize..4,
        dense in any::<bool>(),
    ) {
        let config = WorkloadConfig::new(seed)
            .with_nodes(NODES)
            .with_shape(shape(shape_index))
            .with_load(if dense { 2.0 } else { 0.8 });
        let theta = base_resources(&config);
        let cluster = Cluster::launch(
            Topology::auto(NODES),
            &theta,
            RotaPolicy,
            ClusterConfig {
                gossip_interval: Duration::from_millis(15),
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        prop_assert!(cluster.await_converged(Duration::from_secs(10)));
        let oracle = Server::spawn(
            ServerConfig {
                addr: "127.0.0.1:0".parse().unwrap(),
                shards: 1,
                ..ServerConfig::default()
            },
            RotaPolicy,
            &theta,
        )
        .unwrap();
        let mut oracle_client =
            rota_client::Client::connect_timeout(oracle.local_addr(), Duration::from_secs(2))
                .unwrap();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3) ^ 0x5eed);
        for i in 0..JOBS {
            let arrival = (i as u64 * 3) % (config.horizon / 2);
            let job = generate_job(&config, &mut rng, &format!("job{i}"), arrival);
            if validate_job(&theta, &job).has_errors() {
                continue;
            }
            let mut node_client = rota_client::Client::connect_timeout(
                cluster.addrs()[i % NODES],
                Duration::from_secs(2),
            )
            .unwrap();
            let federated = node_client.admit(&job, config.granularity).unwrap();
            let single = oracle_client.admit(&job, config.granularity).unwrap();
            let (fed_accepted, fed_reject) = verdict(&federated);
            let (one_accepted, one_reject) = verdict(&single);
            prop_assert_eq!(
                fed_accepted, one_accepted,
                "job{} diverged: cluster {:?} vs oracle {:?}", i, federated, single
            );
            prop_assert_eq!(
                fed_reject, one_reject,
                "job{} rejected with a different clause, reason or term", i
            );
        }
        // The cluster's merged obtainable state equals the oracle's:
        // every accept installed the same commitments on the owning
        // nodes that the oracle installed on its single state.
        let mut merged = ResourceSet::default();
        for addr in cluster.addrs() {
            let mut client =
                rota_client::Client::connect_timeout(addr, Duration::from_secs(2)).unwrap();
            merged = merged.union(&obtainable(&mut client)).unwrap();
        }
        let oracle_state = obtainable(&mut oracle_client);
        prop_assert_eq!(
            resource_set_to_json(&merged).to_string(),
            resource_set_to_json(&oracle_state).to_string()
        );
        cluster.shutdown();
        oracle.shutdown();
    }
}

/// Nine locations, node `i` owning `l{i}`, `l{i+3}` and `l{i+6}`.
const LOCATIONS: usize = 9;
const SHARDS: usize = 2;

/// A job of one actor per `(origin, evaluations, migration target)`.
fn spanning_job(name: &str, actors: &[(usize, usize, Option<usize>)]) -> DistributedComputation {
    let actors = actors
        .iter()
        .enumerate()
        .map(|(i, &(origin, evals, target))| {
            let mut gamma = ActorComputation::new(format!("{name}-a{i}"), format!("l{origin}"));
            for _ in 0..evals {
                gamma.push(ActionKind::evaluate());
            }
            if let Some(target) = target {
                gamma.push(ActionKind::migrate(format!("l{target}")));
            }
            gamma
        })
        .collect();
    DistributedComputation::new(name, actors, TimePoint::ZERO, TimePoint::new(48)).unwrap()
}

fn arb_job() -> impl Strategy<Value = Vec<(usize, usize, Option<usize>)>> {
    let actor = (0..LOCATIONS, 1usize..3, 0..LOCATIONS * 2).prop_map(|(origin, evals, target)| {
        (origin, evals, (target < LOCATIONS).then_some(target))
    });
    proptest::collection::vec(actor, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn each_node_holds_its_share_of_each_accept_once(
        jobs in proptest::collection::vec(arb_job(), 12..20),
    ) {
        let topology = Topology::new(
            (0..NODES)
                .map(|i| NodeSpec {
                    id: format!("node{i}"),
                    addr: String::new(),
                    locations: (i..LOCATIONS).step_by(NODES).map(|l| format!("l{l}")).collect(),
                })
                .collect(),
        )
        .unwrap();
        let theta = ResourceSet::from_terms((0..LOCATIONS).map(|l| {
            ResourceTerm::new(
                Rate::new(2),
                TimeInterval::from_ticks(0, 48).unwrap(),
                LocatedType::cpu(Location::new(format!("l{l}"))),
            )
        }))
        .unwrap();
        let cluster = Cluster::launch(
            topology,
            &theta,
            RotaPolicy,
            ClusterConfig {
                shards: SHARDS,
                gossip_interval: Duration::from_millis(15),
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        prop_assert!(cluster.await_converged(Duration::from_secs(10)));
        let node_of = |location: &Location| {
            let l: usize = location.name()[1..].parse().unwrap();
            l % NODES
        };
        // Per node: ρ entries and accepts the accepted jobs account for.
        let mut entries = [0usize; NODES];
        let mut accepts = [0u64; NODES];
        let mut accepted_jobs = 0;
        for (i, actors) in jobs.iter().enumerate() {
            let job = spanning_job(&format!("job{i}"), actors);
            let mut client = rota_client::Client::connect_timeout(
                cluster.addrs()[i % NODES],
                Duration::from_secs(2),
            )
            .unwrap();
            let response = client.admit(&job, Granularity::MaximalRun).unwrap();
            let (accepted, _) = verdict(&response);
            if !accepted {
                continue;
            }
            accepted_jobs += 1;
            let priced =
                AdmissionRequest::price(job, &TableCostModel::paper(), Granularity::MaximalRun);
            let mut touched = [false; NODES];
            for part in priced.requirement().parts() {
                let mut owners: Vec<(usize, usize)> = part
                    .total_demand()
                    .located_types()
                    .map(|lt| {
                        let location = lt.locations()[0];
                        (node_of(location), shard_of(location, SHARDS))
                    })
                    .collect();
                owners.sort_unstable();
                owners.dedup();
                for (node, _) in owners {
                    entries[node] += 1;
                    touched[node] = true;
                }
            }
            for node in 0..NODES {
                accepts[node] += u64::from(touched[node]);
            }
        }
        prop_assert!(accepted_jobs > 0, "no job was accepted");
        for (node, addr) in cluster.addrs().into_iter().enumerate() {
            let mut client =
                rota_client::Client::connect_timeout(addr, Duration::from_secs(2)).unwrap();
            let (stats, _) = client.stats().unwrap();
            prop_assert_eq!(stats.accepted, accepts[node], "node{} accepts", node);
            let snapshot = cluster.nodes()[node].registry().snapshot();
            let live: i64 = (0..SHARDS)
                .map(|s| snapshot.gauge(&format!("server.shard.commitments{{shard={s}}}")).unwrap_or(0))
                .sum();
            prop_assert_eq!(live, entries[node] as i64, "node{} ρ entries", node);
        }
        cluster.shutdown();
    }
}
