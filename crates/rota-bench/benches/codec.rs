//! E17 — wire codec cost against frame size: decode (`from_line`) and
//! encode (`write_json`) of the frames a federation ships, with the
//! text codec the wire runs, against the tree forms it replaced.
//!
//! The 2PC frames carry the obtainable resources Θ_expire: a node's
//! whole profile in every `cluster-state` answer and the merged basis
//! in every `prepare`. Both are built here at 3, 27, 55 and 110 terms —
//! CPU and network terms at `l0`–`l2` over fragmented intervals, the
//! shape a warmed `cluster-mixed` node answers with — and the answer
//! also at 20 terms, about what one such node holds. Two small frames
//! ride along: the lint-reject decision a `mixed-small` client decodes
//! most often (taken from a live server, so it is the real R0006 frame)
//! and a small two-actor admit like the ones `rota loadtest` sends. The
//! last frame is the worst case the frame cap admits: an admit of
//! exactly `MAX_FRAME_BYTES` whose computation name is one string.
//!
//! Four rows per frame, the `tree` rows after all the others:
//! - `decode`: `from_line`, the text codec's reader;
//! - `encode`: `write_json` into a reused buffer, the text codec's
//!   writer;
//! - `frame`: `write_frame` into a reused sink, as a connection writes
//!   an answer, newline and flush included;
//! - `tree`: the reference forms' round, `Json::parse` plus the tree
//!   decoder of `rota-server/tests/support/tree.rs` and then
//!   the reference tree encoder's `to_string()`, which the wire no
//!   longer runs.
//!
//! `convert` is the step a 2PC coordinator takes after decoding each
//! answer: the `resources` array into spec terms (`resources_from_json`)
//! and those into a set (`spec::resource_set`), at 27 and 55 terms.
//!
//! Every bench id carries the frame's length in bytes and its
//! throughput is that length, so cost per byte reads straight off the
//! `B/s` column: a linear codec keeps it flat as frames grow.

// The tree forms, kept as the text codec's reference in rota-server's
// test support; this file uses part of it.
#[allow(dead_code)]
#[path = "../../rota-server/tests/support/tree.rs"]
mod tree;

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rota_actor::Granularity;
use rota_admission::RotaPolicy;
use rota_client::Client;
use rota_interval::TimeInterval;
use rota_obs::Json;
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::protocol::{write_frame, Encode};
use rota_server::spec::{
    self, resources_from_json, ActionSpec, ActorSpec, ComputationSpec, ResourceSpec,
};
use rota_server::{Request, Response, Server, ServerConfig, MAX_FRAME_BYTES};

const LOCATIONS: [&str; 3] = ["l0", "l1", "l2"];

/// `n` basis terms: CPU at each location and the three ring links,
/// each located type cut into short windows separated by gaps, as
/// Θ_expire fragments once commitments carve up the supply.
fn basis(n: usize) -> Vec<ResourceSpec> {
    (0..n as u64)
        .map(|k| {
            let start = 1_000 + (k / 6) * 37 + k % 5;
            let end = start + 11 + k % 7;
            let rate = 1 + k % 8;
            let here = Location::new(LOCATIONS[(k % 3) as usize]);
            let located = if k % 6 < 3 {
                LocatedType::cpu(here)
            } else {
                LocatedType::network(here, Location::new(LOCATIONS[((k + 1) % 3) as usize]))
            };
            ResourceSpec {
                located,
                rate,
                start,
                end,
            }
        })
        .collect()
}

/// A two-actor job spanning `l0` and `l1`: the shape that takes the
/// 2PC route in `cluster-mixed`.
fn computation(name: &str) -> ComputationSpec {
    let actor = |i: usize, origin: &str, peer: &str| ActorSpec {
        name: format!("{name}-a{i}"),
        origin: origin.into(),
        actions: vec![
            ActionSpec::Evaluate { work: None },
            ActionSpec::Send {
                to: format!("{name}-a{}", 1 - i),
                dest: peer.into(),
                size: 1,
            },
            ActionSpec::Evaluate { work: None },
        ],
    };
    ComputationSpec {
        name: name.into(),
        start: 1_040,
        deadline: 1_064,
        actors: vec![actor(0, "l0", "l1"), actor(1, "l1", "l0")],
    }
}

fn prepare(terms: usize) -> Request {
    Request::Prepare {
        name: "c4711".into(),
        computation: computation("c4711"),
        granularity: Granularity::MaximalRun,
        basis: basis(terms),
        epochs: vec![412, 398, 405, 417],
        ttl_ms: 2_000,
    }
}

fn cluster_state(terms: usize) -> Response {
    Response::ClusterState {
        epochs: vec![412, 398, 405, 417],
        resources: Json::Arr(basis(terms).iter().map(ResourceSpec::to_json).collect()),
    }
}

/// The decision a live server answers for a job whose actor sits at a
/// location with no supply: a pre-admission lint reject carrying the
/// analyzer's R0006 diagnostic.
fn lint_reject() -> Response {
    let window = TimeInterval::from_ticks(0, 4_096).expect("valid window");
    let theta = ResourceSet::from_terms(
        LOCATIONS
            .iter()
            .map(|l| ResourceTerm::new(Rate::new(4), window, LocatedType::cpu(Location::new(*l)))),
    )
    .expect("bounded rates");
    let server = Server::spawn(ServerConfig::default(), RotaPolicy, &theta).expect("spawn server");
    let mut client =
        Client::connect_timeout(server.local_addr(), Duration::from_secs(2)).expect("connect");
    let mut job = computation("c4711");
    job.actors.truncate(1);
    job.actors[0].origin = "l7".into();
    job.actors[0].actions.remove(1);
    let answer = client
        .call(&Request::Admit {
            computation: job,
            granularity: Granularity::MaximalRun,
            forwarded: false,
        })
        .expect("admit answered");
    server.shutdown();
    assert!(
        matches!(&answer, Response::Decision { diagnostics, .. }
            if diagnostics.parse().iter().any(|d| d.get("code").and_then(Json::as_str) == Some("R0006"))),
        "expected an R0006 lint reject, got {answer:?}"
    );
    answer
}

fn admit() -> Request {
    let actor = |i: usize, origin: &str, evaluations: usize| ActorSpec {
        name: format!("g7-a{i}"),
        origin: origin.into(),
        actions: vec![ActionSpec::Evaluate { work: None }; evaluations],
    };
    Request::Admit {
        computation: ComputationSpec {
            name: "g7".into(),
            start: 39,
            deadline: 47,
            actors: vec![actor(0, "l0", 2), actor(1, "l1", 1)],
        },
        granularity: Granularity::MaximalRun,
        forwarded: false,
    }
}

/// An admit exactly [`MAX_FRAME_BYTES`] long whose computation name is
/// one string: the worst frame the server agrees to decode.
fn cap_sized_admit() -> Request {
    let admit = |name: String| Request::Admit {
        computation: ComputationSpec {
            name,
            ..computation("c4711")
        },
        granularity: Granularity::MaximalRun,
        forwarded: false,
    };
    let overhead = tree::request_to_json(&admit(String::new()))
        .to_string()
        .len();
    admit("n".repeat(MAX_FRAME_BYTES - overhead))
}

/// A wire type's decoders and its reference tree encoder; its writer
/// is [`Encode::write_json`].
trait Codec: Sized {
    fn from_line(line: &str) -> Self;
    fn from_tree(line: &str) -> Self;
    fn to_json(&self) -> Json;
}

impl Codec for Request {
    fn from_line(line: &str) -> Self {
        Request::from_line(line).expect("the frame decodes")
    }
    fn from_tree(line: &str) -> Self {
        tree::request_from_json(&Json::parse(line).expect("the frame parses"))
            .expect("the frame decodes")
    }
    fn to_json(&self) -> Json {
        tree::request_to_json(self)
    }
}

impl Codec for Response {
    fn from_line(line: &str) -> Self {
        Response::from_line(line).expect("the frame decodes")
    }
    fn from_tree(line: &str) -> Self {
        tree::response_from_json(Json::parse(line).expect("the frame parses"))
            .expect("the frame decodes")
    }
    fn to_json(&self) -> Json {
        tree::response_to_json(self)
    }
}

/// Times the rows of one frame, labelled with its length: `decode`,
/// `encode` and `frame`, or with `tree` set the `tree` row alone.
fn bench_frame<T: Codec + Encode>(c: &mut Criterion, label: &str, value: &T, tree: bool) {
    let mut line = String::new();
    value.write_json(&mut line);
    assert_eq!(
        line,
        value.to_json().to_string(),
        "{label}: the codecs agree"
    );
    let bytes = line.len();
    let mut group = c.benchmark_group("e17");
    // The cap-sized frame takes seconds per decode at the quadratic
    // baseline; ten samples keep that run short.
    group.sample_size(if bytes > 64 * 1024 { 10 } else { 40 });
    group.throughput(Throughput::Bytes(bytes as u64));
    if tree {
        group.bench_function(format!("tree/{label}/{bytes}B"), |b| {
            b.iter(|| T::from_tree(black_box(&line)).to_json().to_string())
        });
        group.finish();
        return;
    }
    group.bench_function(format!("decode/{label}/{bytes}B"), |b| {
        b.iter(|| T::from_line(black_box(&line)))
    });
    let mut buffer = String::with_capacity(bytes);
    group.bench_function(format!("encode/{label}/{bytes}B"), |b| {
        b.iter(|| {
            buffer.clear();
            black_box(value).write_json(&mut buffer);
        })
    });
    let mut sink = Vec::with_capacity(bytes + 1);
    group.bench_function(format!("frame/{label}/{bytes}B"), |b| {
        b.iter(|| {
            sink.clear();
            write_frame(&mut sink, black_box(value)).expect("a Vec takes every write");
        })
    });
    group.finish();
}

/// Times converting a decoded `terms`-term `resources` array into the
/// set a coordinator decides on.
fn bench_convert(c: &mut Criterion, terms: usize) {
    let doc = Json::Arr(basis(terms).iter().map(ResourceSpec::to_json).collect());
    let values = doc.as_array().expect("an array");
    let mut group = c.benchmark_group("e17");
    group.sample_size(40);
    group.bench_function(format!("convert/basis-{terms}t"), |b| {
        b.iter(|| {
            let specs = resources_from_json(black_box(values)).expect("terms decode");
            spec::resource_set(&specs).expect("terms build")
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let reject = lint_reject();
    // The `tree` rows run last, so the heap their trees churn is not
    // the one the wire's rows start from.
    for tree in [false, true] {
        bench_frame(c, "cluster-state-20t", &cluster_state(20), tree);
        if !tree {
            for terms in [27, 55] {
                bench_convert(c, terms);
            }
        }
        for terms in [3, 27, 55, 110] {
            bench_frame(c, &format!("prepare-{terms}t"), &prepare(terms), tree);
            let label = format!("cluster-state-{terms}t");
            bench_frame(c, &label, &cluster_state(terms), tree);
        }
        bench_frame(c, "r0006-decision", &reject, tree);
        bench_frame(c, "admit", &admit(), tree);
        bench_frame(c, "cap-one-string", &cap_sized_admit(), tree);
    }
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
