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

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rota_admission::RotaPolicy;
use rota_cluster::{Cluster, ClusterConfig, Topology};
use rota_resource::ResourceSet;
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
