//! The benchmark's own checks: its inputs are a pure function of the
//! seed, job names never collide across phases, and the route
//! classifier agrees with the cluster routers' own counters.
//!
//! Run with `cargo test --release --manifest-path admbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::time::Duration;

use admbench::drive::Generator;
use admbench::run::{check_service, route_counts};
use admbench::service::Control;
use admbench::workload::{jobs, Phase, Route, Workload, CONNECTIONS};
use rota_admission::RotaPolicy;
use rota_cluster::{Cluster, ClusterConfig, Topology};
use rota_workload::base_resources;

fn frames(workload: &Workload, seed: u64, phase: Phase, round: usize) -> Vec<String> {
    jobs(workload, seed, phase, round, 200)
        .iter()
        .map(|job| job.request.to_json().to_string())
        .collect()
}

#[test]
fn same_seed_gives_the_same_frame_bytes() {
    for workload in Workload::all() {
        for phase in Phase::ALL {
            assert_eq!(
                frames(&workload, 7, phase, 1),
                frames(&workload, 7, phase, 1),
                "{} {phase:?}",
                workload.name
            );
        }
        assert_ne!(
            frames(&workload, 7, Phase::Timed, 0),
            frames(&workload, 8, Phase::Timed, 0),
            "{}: the seed must change the inputs",
            workload.name
        );
        assert_ne!(
            frames(&workload, 7, Phase::Timed, 0),
            frames(&workload, 7, Phase::Timed, 1),
            "{}: every round draws its own sequence",
            workload.name
        );
    }
}

#[test]
fn names_are_unique_across_phases() {
    for workload in Workload::all() {
        let mut names = BTreeSet::new();
        let mut total = 0;
        for phase in Phase::ALL {
            for job in jobs(&workload, 3, phase, 0, 500) {
                total += 1;
                names.insert(job.name);
            }
        }
        assert_eq!(names.len(), total, "{}", workload.name);
    }
}

#[test]
fn classifier_follows_the_router_rules() {
    let owners = |v: &[usize]| v.iter().copied().collect::<BTreeSet<usize>>();
    assert_eq!(Route::classify(&owners(&[]), 0), Route::Direct);
    assert_eq!(Route::classify(&owners(&[0]), 0), Route::Direct);
    assert_eq!(Route::classify(&owners(&[1]), 0), Route::Forward);
    assert_eq!(Route::classify(&owners(&[0, 1]), 0), Route::TwoPhase);
    assert_eq!(Route::classify(&owners(&[1, 2]), 0), Route::TwoPhase);
}

#[test]
fn route_classifier_matches_the_cluster_counters() {
    let workload = Workload::by_name("cluster-mixed").expect("workload exists");
    let seed = 5;
    let theta = base_resources(&workload.config(seed));
    let config = ClusterConfig {
        gossip_interval: Duration::from_millis(20),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::launch(Topology::auto(workload.nodes), &theta, RotaPolicy, config)
        .expect("cluster launches");
    assert!(cluster.await_converged(Duration::from_secs(10)));
    let addrs = cluster.addrs();
    let mut control = Control::connect(&addrs).expect("control connections");
    let mut generator = Generator::connect(&addrs, CONNECTIONS).expect("client connections");
    let sequence = jobs(&workload, seed, Phase::Timed, 0, 300);
    let samples = generator.run_serial(&sequence);
    let counters = control.counters().expect("counters");

    let routes = route_counts(&[(&sequence, &samples)], addrs.len());
    let count = |route| routes.get(&route).copied().unwrap_or(0);
    assert_eq!(count(Route::Forward), counters.forwards);
    assert_eq!(count(Route::TwoPhase), counters.twopc_started);
    assert_eq!(
        count(Route::Direct) + count(Route::Forward) + count(Route::TwoPhase),
        sequence.len() as u64
    );
    assert!(count(Route::Direct) > 0 && count(Route::Forward) > 0 && count(Route::TwoPhase) > 0);
    let problems = check_service(true, &[(&sequence, &samples)], &counters, addrs.len());
    assert!(problems.is_empty(), "{problems:?}");
    drop(control);
    drop(generator);
    cluster.shutdown();
}
