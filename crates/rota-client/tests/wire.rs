//! Request frames are byte-stable: `fixtures/frames.txt` holds recorded
//! frames for generated jobs of every `JobShape`, a computation using
//! every action kind, and a prepare and an offer carrying resource
//! specs. The spec encoders must keep writing exactly these bytes, so
//! the wire format (and `protocol.request_bytes`) cannot drift
//! unnoticed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity};
use rota_interval::TimePoint;
use rota_resource::{Location, Quantity};
use rota_server::protocol::Request;
use rota_server::spec::{ComputationSpec, ResourceSpec};
use rota_workload::{base_resources, generate_job, JobShape, WorkloadConfig};

fn frames() -> Vec<String> {
    let mut frames = Vec::new();
    let shapes = [
        JobShape::Chain { evals: 3 },
        JobShape::ForkJoin {
            actors: 2,
            evals_each: 2,
        },
        JobShape::Pipeline { hops: 2 },
        JobShape::Mixed,
    ];
    for shape in shapes {
        let config = WorkloadConfig::new(7)
            .with_nodes(4)
            .with_horizon(96)
            .with_shape(shape);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..6 {
            let arrival = rng.gen_range(0..48);
            let job = generate_job(&config, &mut rng, &format!("g{i}"), arrival);
            let granularity = if i % 2 == 0 {
                Granularity::MaximalRun
            } else {
                Granularity::PerAction
            };
            let request = Request::Admit {
                computation: ComputationSpec::from(&job),
                granularity,
                forwarded: i == 5,
            };
            frames.push(request.to_json().to_string());
        }
    }
    let gamma = ActorComputation::new("worker", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::Evaluate {
            work: Some(Quantity::new(12)),
        })
        .then(ActionKind::Send {
            to: "peer".into(),
            dest: Location::new("l2"),
            size: 2,
        })
        .then(ActionKind::create("helper"))
        .then(ActionKind::Ready)
        .then(ActionKind::migrate("l2"));
    let lambda =
        DistributedComputation::single("every-action", gamma, TimePoint::ZERO, TimePoint::new(20))
            .unwrap();
    let spec = ComputationSpec::from(&lambda);
    let theta = base_resources(&WorkloadConfig::new(7).with_nodes(2).with_horizon(16));
    let basis: Vec<ResourceSpec> = theta
        .to_terms()
        .iter()
        .map(|term| ResourceSpec::from_term(term).unwrap())
        .collect();
    frames.push(
        Request::Admit {
            computation: spec.clone(),
            granularity: Granularity::PerAction,
            forwarded: false,
        }
        .to_json()
        .to_string(),
    );
    frames.push(
        Request::Prepare {
            name: "every-action".into(),
            computation: spec,
            granularity: Granularity::MaximalRun,
            basis: basis.clone(),
            epochs: vec![3, 0],
            ttl_ms: 750,
        }
        .to_json()
        .to_string(),
    );
    frames.push(
        Request::Offer {
            resources: basis,
            forwarded: true,
        }
        .to_json()
        .to_string(),
    );
    frames
}

#[test]
fn request_frames_match_the_recorded_bytes() {
    let recorded: Vec<&str> = include_str!("fixtures/frames.txt").lines().collect();
    let encoded = frames();
    assert_eq!(encoded.len(), recorded.len());
    for (i, (got, want)) in encoded.iter().zip(&recorded).enumerate() {
        assert_eq!(got, want, "frame {i} differs");
    }
}

#[test]
fn decoded_frames_encode_back_to_the_same_bytes() {
    for line in include_str!("fixtures/frames.txt").lines() {
        let request = Request::from_line(line).unwrap();
        assert_eq!(request.to_json().to_string(), line);
    }
}
