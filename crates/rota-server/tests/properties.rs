//! Property-based tests for the wire protocol and spec codecs.
//!
//! Two families:
//!
//! 1. **Round-trips** — arbitrary computations, resource sets, requests
//!    and responses survive encode → decode unchanged, and so do raw
//!    spec values the library would refuse to build. The JSON encoder
//!    must escape whatever the generators throw at it (quotes,
//!    backslashes, control characters, non-ASCII) and the decoder must
//!    reconstruct the exact document.
//! 2. **Robustness** — arbitrary byte-level mutations (bit flips,
//!    truncations) of valid frames may be rejected with a protocol
//!    error but must never panic the parser or the framing layer. This
//!    is the guarantee the failure drills' proxy leans on when it
//!    truncates or flips a byte of a frame: a corrupted frame degrades
//!    to an `error` response, not a crashed connection thread.
//!
//! Beside them, the text codec is compared with the tree forms kept in
//! `support/tree.rs`: it writes their bytes, and edited frames and
//! edited spec files read to the same value or the same error text. So
//! are the tree bridges the benchmark harness compiles against.

// Shared with the decode corpus and the codec bench; this file uses
// part of it.
#[allow(dead_code)]
#[path = "support/tree.rs"]
mod tree;

use proptest::prelude::*;

use rota_actor::{ActionKind, ActorComputation, ActorName, DistributedComputation};
use rota_admission::ControllerStats;
use rota_analyze::{Diagnostic, Severity};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::Scope;
use rota_obs::Json;
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::protocol::{read_frame, Diagnostics, GossipDigest, PeerBeat, Request, Response};
use rota_server::spec::{
    computation_to_json, resource_set, resource_set_to_json, resources_from_json, ActionSpec,
    ActorSpec, ComputationSpec, ConstraintSpec, ResourceSpec, SpecModel,
};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

/// Strings that stress the JSON escaper: quotes, backslashes, control
/// characters, tabs/newlines, and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '7', ' ', '_', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'λ', 'Ω', '→',
    '🦀',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn arb_opt_string() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), arb_string().prop_map(Some),]
}

fn loc(i: u8) -> Location {
    Location::new(format!("l{i}"))
}

fn arb_action() -> impl Strategy<Value = ActionKind> {
    prop_oneof![
        Just(ActionKind::evaluate()),
        (1u64..9).prop_map(ActionKind::evaluate_units),
        ((0u8..4), (0u8..4), 1u64..5).prop_map(|(peer, node, size)| ActionKind::Send {
            to: ActorName::new(format!("peer{peer}")),
            dest: loc(node),
            size,
        }),
        (0u8..4).prop_map(|c| ActionKind::create(format!("child{c}"))),
        Just(ActionKind::Ready),
        (0u8..4).prop_map(|d| ActionKind::migrate(loc(d))),
    ]
}

/// A well-formed distributed computation: 1–3 actors, each with 0–5
/// actions, a window with `start < deadline`.
fn arb_computation() -> impl Strategy<Value = DistributedComputation> {
    (
        proptest::collection::vec(
            (proptest::collection::vec(arb_action(), 0..6), 0u8..4),
            1..4,
        ),
        0u64..16,
        1u64..32,
    )
        .prop_map(|(actor_specs, start, duration)| {
            let actors = actor_specs
                .into_iter()
                .enumerate()
                .map(|(i, (actions, origin))| {
                    let mut gamma = ActorComputation::new(format!("a{i}"), format!("l{origin}"));
                    for action in actions {
                        gamma = gamma.then(action);
                    }
                    gamma
                })
                .collect();
            DistributedComputation::new(
                "prop-job",
                actors,
                TimePoint::new(start),
                TimePoint::new(start + duration),
            )
            .expect("start < deadline by construction")
        })
}

/// A resource set whose terms can never collide: term `i` lives at its
/// own location `l{i}` (or link `l{i} → l{i+1}`), so insertion always
/// succeeds regardless of the drawn kinds and windows.
fn arb_resource_set() -> impl Strategy<Value = ResourceSet> {
    proptest::collection::vec((0u8..3, 1u64..9, 0u64..10, 1u64..24), 0..6).prop_map(|terms| {
        terms
            .into_iter()
            .enumerate()
            .map(|(i, (kind, rate, start, len))| {
                let i = i as u8;
                let located = match kind {
                    0 => LocatedType::cpu(loc(i)),
                    1 => LocatedType::memory(loc(i)),
                    _ => LocatedType::network(loc(i), loc(i + 1)),
                };
                let window =
                    TimeInterval::from_ticks(start, start + len).expect("len >= 1 by construction");
                ResourceTerm::new(Rate::new(rate), window, located)
            })
            .collect::<ResourceSet>()
    })
}

/// Ticks: mostly small, so empty intervals and inverted windows come
/// up often, sometimes at the top of the range the codec reads exactly.
fn arb_tick() -> impl Strategy<Value = u64> {
    const MAX_EXACT: u64 = (1 << 53) - 1;
    prop_oneof![0u64..8, (MAX_EXACT - 2)..=MAX_EXACT]
}

/// A raw resource declaration: any of the three kinds the spec names,
/// any rate including zero, any interval including empty ones.
fn arb_resource_spec() -> impl Strategy<Value = ResourceSpec> {
    (0u8..3, 0u8..4, 0u8..4, 0u64..4, arb_tick(), arb_tick()).prop_map(
        |(kind, here, there, rate, start, end)| ResourceSpec {
            located: match kind {
                0 => LocatedType::cpu(loc(here)),
                1 => LocatedType::memory(loc(here)),
                _ => LocatedType::network(loc(here), loc(there)),
            },
            rate,
            start,
            end,
        },
    )
}

fn arb_action_spec() -> impl Strategy<Value = ActionSpec> {
    prop_oneof![
        Just(ActionSpec::Evaluate { work: None }),
        (0u64..9).prop_map(|w| ActionSpec::Evaluate { work: Some(w) }),
        (arb_string(), arb_string(), 0u64..4).prop_map(|(to, dest, size)| ActionSpec::Send {
            to,
            dest,
            size
        }),
        arb_string().prop_map(|child| ActionSpec::Create { child }),
        Just(ActionSpec::Ready),
        arb_string().prop_map(|dest| ActionSpec::Migrate { dest }),
    ]
}

/// A raw computation: any window (the deadline may not follow the
/// start), actors with zero or more actions, names full of escapes.
fn arb_computation_spec() -> impl Strategy<Value = ComputationSpec> {
    (
        arb_string(),
        arb_tick(),
        arb_tick(),
        proptest::collection::vec(
            (
                arb_string(),
                arb_string(),
                proptest::collection::vec(arb_action_spec(), 0..4),
            ),
            0..3,
        ),
    )
        .prop_map(|(name, start, deadline, actors)| ComputationSpec {
            name,
            start,
            deadline,
            actors: actors
                .into_iter()
                .map(|(name, origin, actions)| ActorSpec {
                    name,
                    origin,
                    actions,
                })
                .collect(),
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        Just(Response::Bye),
        (0u64..10_000).prop_map(|terms| Response::Offered { terms }),
        (0usize..64).prop_map(|shard| Response::Overloaded { shard }),
        arb_string().prop_map(|message| Response::Error { message }),
        (
            arb_string(),
            0u8..2,
            0usize..16,
            arb_string(),
            arb_opt_string(),
            arb_opt_string(),
        )
            .prop_map(
                |(computation, accepted, shard, reason, violated_term, clause)| {
                    Response::Decision {
                        computation,
                        accepted: accepted == 1,
                        shard,
                        reason,
                        violated_term,
                        clause,
                        diagnostics: Default::default(),
                    }
                }
            ),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        Just(Request::Metrics),
        Just(Request::Shutdown),
        arb_resource_set().prop_map(|theta| {
            let doc = resource_set_to_json(&theta);
            let resources = resources_from_json(doc.as_array().expect("sets encode as arrays"))
                .expect("round-trip of a valid set");
            Request::Offer {
                resources,
                forwarded: false,
            }
        }),
        (arb_computation(), 0u8..2).prop_map(|(lambda, g)| Request::Admit {
            computation: ComputationSpec::from_json(&computation_to_json(&lambda))
                .expect("computation_to_json emits valid specs"),
            granularity: if g == 0 {
                rota_actor::Granularity::PerAction
            } else {
                rota_actor::Granularity::MaximalRun
            },
            forwarded: false,
        }),
    ]
}

// ---------------------------------------------------------------------
// round-trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `computation_to_json → ComputationSpec::from_json → build →
    /// computation_to_json` is the identity on the JSON document.
    #[test]
    fn computations_round_trip_through_spec_json(lambda in arb_computation()) {
        let doc = computation_to_json(&lambda);
        let spec = ComputationSpec::from_json(&doc).expect("encoder output parses");
        let rebuilt = spec.build().expect("parsed spec rebuilds");
        prop_assert_eq!(doc.to_string(), computation_to_json(&rebuilt).to_string());
    }

    /// Resource sets survive encode → parse → rebuild byte-identically.
    #[test]
    fn resource_sets_round_trip_through_spec_json(theta in arb_resource_set()) {
        let doc = resource_set_to_json(&theta);
        let specs = resources_from_json(doc.as_array().expect("array encoding"))
            .expect("encoder output parses");
        let rebuilt = resource_set(&specs).expect("parsed terms form a set");
        prop_assert_eq!(doc.to_string(), resource_set_to_json(&rebuilt).to_string());
    }

    /// Raw specs survive their own text encoding field for field,
    /// including content `build` and `resource_set` refuse: empty
    /// intervals, zero rates, inverted windows, idle actors, and sends
    /// of any size.
    #[test]
    fn raw_specs_round_trip_through_their_json(
        computation in arb_computation_spec(),
        resources in proptest::collection::vec(arb_resource_spec(), 0..4),
    ) {
        let mut text = String::new();
        computation.write_json(&mut text);
        let back = ComputationSpec::from_json(&Json::parse(&text).expect("encoder emits JSON"));
        prop_assert_eq!(back.expect("encoder output decodes"), computation);
        let text = Json::Arr(resources.iter().map(ResourceSpec::to_json).collect()).to_string();
        let doc = Json::parse(&text).expect("encoder emits JSON");
        let back = resources_from_json(doc.as_array().expect("array encoding"));
        prop_assert_eq!(back.expect("encoder output decodes"), resources);
    }

    /// Responses — including reasons full of quotes, control characters
    /// and non-ASCII — decode back to an equal value.
    #[test]
    fn responses_round_trip_through_frames(response in arb_response()) {
        let line = response.to_json().to_string();
        let decoded = Response::from_line(&line).expect("encoder output parses");
        prop_assert_eq!(response, decoded);
    }

    /// Requests re-encode to the identical frame after one decode.
    #[test]
    fn requests_round_trip_through_frames(request in arb_request()) {
        let line = request.to_json().to_string();
        let decoded = Request::from_line(&line).expect("encoder output parses");
        prop_assert_eq!(line, decoded.to_json().to_string());
    }
}

// ---------------------------------------------------------------------
// robustness: mutated frames never panic
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip up to four bytes of a valid frame and truncate it at an
    /// arbitrary point: both parsers must return (Ok or Err), never
    /// panic — exactly what the drills' proxy faults rely on.
    #[test]
    fn mutated_frames_never_panic_the_parsers(
        response in arb_response(),
        flips in proptest::collection::vec((0usize..4096, 0u16..256), 1..5),
        cut in 0usize..4096,
    ) {
        let mut bytes = response.to_json().to_string().into_bytes();
        for (position, value) in flips {
            if bytes.is_empty() {
                break;
            }
            let index = position % bytes.len();
            bytes[index] = value as u8;
        }
        if !bytes.is_empty() {
            bytes.truncate(1 + cut % bytes.len());
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Response::from_line(&text);
        let _ = Request::from_line(&text);
    }

    /// The framing layer itself survives mutated byte streams: it reads
    /// a line or reports a frame error, and it enforces the size cap
    /// without buffering past it.
    #[test]
    fn mutated_streams_never_panic_read_frame(
        request in arb_request(),
        flips in proptest::collection::vec((0usize..4096, 0u16..256), 1..5),
        cap in 8usize..128,
    ) {
        let mut bytes = request.to_json().to_string().into_bytes();
        for (position, value) in flips {
            let index = position % bytes.len();
            bytes[index] = value as u8;
        }
        bytes.push(b'\n');
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let _ = read_frame(&mut cursor, cap);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor, rota_server::MAX_FRAME_BYTES);
    }
}

// ---------------------------------------------------------------------
// the text codec against the tree forms
// ---------------------------------------------------------------------

fn arb_scope() -> impl Strategy<Value = Scope> {
    (
        proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 0..4),
        0u64..8,
        1u64..16,
    )
        .prop_map(|(types, start, len)| {
            let types = types.into_iter().map(|(kind, here, there)| match kind {
                0 => LocatedType::cpu(loc(here)),
                1 => LocatedType::memory(loc(here)),
                _ => LocatedType::network(loc(here), loc(there)),
            });
            Scope::new(
                types,
                TimeInterval::from_ticks(start, start + len).expect("len >= 1"),
            )
        })
}

fn arb_digest() -> impl Strategy<Value = GossipDigest> {
    (
        arb_string(),
        arb_tick(),
        proptest::collection::vec((arb_string(), arb_tick()), 0..3),
    )
        .prop_map(|(from, seq, beats)| GossipDigest {
            from,
            seq,
            beats: beats
                .into_iter()
                .map(|(node, seq)| PeerBeat { node, seq })
                .collect(),
        })
}

fn arb_granularity() -> impl Strategy<Value = rota_actor::Granularity> {
    prop_oneof![
        Just(rota_actor::Granularity::PerAction),
        Just(rota_actor::Granularity::MaximalRun),
    ]
}

/// A request of any op, with raw specs and strings full of escapes.
fn arb_any_request() -> impl Strategy<Value = Request> {
    let terms = || proptest::collection::vec(arb_resource_spec(), 0..3);
    prop_oneof![
        (arb_tick(), arb_opt_string()).prop_map(|(version, node)| Request::Hello { version, node }),
        Just(Request::Ping),
        (arb_computation_spec(), arb_granularity(), 0u8..2).prop_map(
            |(computation, granularity, forwarded)| Request::Admit {
                computation,
                granularity,
                forwarded: forwarded == 1,
            }
        ),
        (terms(), 0u8..2).prop_map(|(resources, forwarded)| Request::Offer {
            resources,
            forwarded: forwarded == 1,
        }),
        Just(Request::Stats),
        Just(Request::Metrics),
        Just(Request::Shutdown),
        arb_digest().prop_map(|digest| Request::Gossip { digest }),
        Just(Request::ClusterSnapshot),
        arb_scope().prop_map(|scope| Request::ScopedSnapshot { scope }),
        (
            arb_string(),
            arb_computation_spec(),
            arb_granularity(),
            terms(),
            proptest::collection::vec(arb_tick(), 0..4),
            arb_tick(),
        )
            .prop_map(|(name, computation, granularity, basis, epochs, ttl_ms)| {
                Request::Prepare {
                    name,
                    computation,
                    granularity,
                    basis,
                    epochs,
                    ttl_ms,
                }
            }),
        arb_string().prop_map(|name| Request::CommitReservation { name }),
        arb_string().prop_map(|name| Request::AbortReservation { name }),
    ]
}

fn arb_diagnostics() -> impl Strategy<Value = Diagnostics> {
    proptest::collection::vec(
        (
            0u8..3,
            arb_string(),
            arb_string(),
            proptest::collection::vec(arb_string(), 0..3),
        ),
        0..3,
    )
    .prop_map(|list| {
        let list: Vec<Diagnostic> = list
            .into_iter()
            .map(|(level, path, message, notes)| {
                let severity = [Severity::Note, Severity::Warning, Severity::Error];
                let mut diagnostic =
                    Diagnostic::new("R0006", severity[usize::from(level)], path, message);
                for note in notes {
                    diagnostic = diagnostic.with_note(note);
                }
                diagnostic
            })
            .collect();
        Diagnostics::of(&list)
    })
}

/// A response of any op.
fn arb_any_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_tick().prop_map(|version| Response::Welcome { version }),
        arb_response(),
        arb_digest().prop_map(|digest| Response::GossipAck { digest }),
        (
            proptest::collection::vec(arb_tick(), 0..4),
            proptest::collection::vec(arb_resource_spec(), 0..3),
        )
            .prop_map(|(epochs, terms)| Response::ClusterState {
                epochs,
                resources: Json::Arr(terms.iter().map(ResourceSpec::to_json).collect()),
            }),
        arb_string().prop_map(|name| Response::Prepared { name }),
        arb_string().prop_map(|name| Response::Committed { name }),
        (arb_string(), 0u8..2).prop_map(|(name, released)| Response::Aborted {
            name,
            released: released == 1,
        }),
        (0usize..8, arb_tick(), arb_tick()).prop_map(|(shard, epoch, expected)| {
            Response::StaleEpoch {
                shard,
                epoch,
                expected,
            }
        }),
        (arb_string(), 0usize..16, arb_diagnostics()).prop_map(|(reason, shard, diagnostics)| {
            Response::Decision {
                computation: "linted".into(),
                accepted: false,
                shard,
                reason,
                violated_term: None,
                clause: Some("static analysis (pre-admission)".into()),
                diagnostics,
            }
        }),
        proptest::collection::vec(arb_tick(), 6).prop_map(|n| Response::Stats {
            stats: ControllerStats {
                accepted: n[0],
                rejected: n[1],
                completed: n[2],
                missed: n[3],
                withdrawn: n[4],
            },
            shards: n[5] as usize,
        }),
        (arb_string(), arb_tick()).prop_map(|(name, count)| Response::Metrics {
            snapshot: Json::Obj(vec![(
                "counters".into(),
                Json::Obj(vec![(name.into(), Json::Num(count as f64))]),
            )]),
        }),
    ]
}

/// Edits `doc`: one member of its `nth` object, in the order objects
/// close, dropped, repeated, moved first, renamed or given another
/// value (edit `draws[1]`, member `draws[2]`, value `draws[3]`).
/// Returns how many objects were still to pass.
fn edit(doc: &mut Json, nth: u64, draws: &[u64]) -> u64 {
    let mut nth = nth;
    match doc {
        Json::Arr(items) => {
            for item in items.iter_mut() {
                nth = edit(item, nth, draws);
            }
            nth
        }
        Json::Obj(pairs) => {
            for (_, value) in pairs.iter_mut() {
                nth = edit(value, nth, draws);
            }
            if nth > 0 || pairs.is_empty() {
                return nth.saturating_sub(1);
            }
            let k = (draws[2] % pairs.len() as u64) as usize;
            let values = [
                Json::Null,
                Json::Bool(true),
                Json::Num(1.5),
                Json::Num(-0.0),
                Json::Num(9_007_199_254_740_993.0),
                Json::Str("x".into()),
                Json::Arr(vec![Json::Num(1.0)]),
                Json::Obj(Vec::new()),
            ];
            match draws[1] % 5 {
                0 => {
                    pairs.remove(k);
                }
                1 => {
                    let copy = pairs[k].clone();
                    pairs.push(copy);
                }
                2 => {
                    let member = pairs.remove(k);
                    pairs.insert(0, member);
                }
                3 => pairs[k].0 = format!("zz{}", pairs[k].0).into(),
                _ => pairs[k].1 = values[(draws[3] % values.len() as u64) as usize].clone(),
            }
            u64::MAX
        }
        _ => nth,
    }
}

/// How many objects `doc` holds, itself included.
fn objects(doc: &Json) -> u64 {
    let own = u64::from(matches!(doc, Json::Obj(_)));
    match doc {
        Json::Arr(items) => items.iter().map(objects).sum(),
        Json::Obj(pairs) => own + pairs.iter().map(|(_, value)| objects(value)).sum::<u64>(),
        _ => 0,
    }
}

/// `doc` with one edit (`draws[..4]`), or with two when `shape` ≥ 3
/// (`draws[4..]` the second), then written out: pretty-printed
/// (`shape` 0), cut at `cut` (1), with trailing bytes (2), or compact.
fn edited(mut doc: Json, draws: &[u64], cut: usize, shape: u8) -> String {
    let nth = draws[0] % objects(&doc);
    edit(&mut doc, nth, &draws[..4]);
    if shape >= 3 {
        let nth = draws[4] % objects(&doc).max(1);
        edit(&mut doc, nth, &draws[4..]);
    }
    let mut text = match shape {
        0 => doc.pretty(),
        _ => doc.to_string(),
    };
    match shape {
        1 => {
            let mut at = cut % text.len();
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.truncate(at);
        }
        2 => text.push_str(" x"),
        _ => {}
    }
    text
}

/// What the tree forms make of a frame: the value re-encoded, or the
/// error text.
fn reference(request: bool, frame: &str) -> Result<String, String> {
    let doc = Json::parse(frame).map_err(|err| format!("spec parse error: {err}"))?;
    if request {
        tree::request_from_json(&doc).map(|r| tree::request_to_json(&r).to_string())
    } else {
        tree::response_from_json(doc).map(|r| tree::response_into_json(r).to_string())
    }
    .map_err(|err| err.to_string())
}

/// What the text codec makes of a frame, re-encoded by the writer.
fn text_codec(request: bool, frame: &str) -> Result<String, String> {
    let mut line = String::new();
    if request {
        Request::from_line(frame).map(|r| r.write_json(&mut line))
    } else {
        Response::from_line(frame).map(|r| r.write_json(&mut line))
    }
    .map(|()| line)
    .map_err(|err| err.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The writer writes the tree encoder's bytes, and the reader reads
    /// them back to the value written. So does each resource term's
    /// writer, for terms at any location name.
    #[test]
    fn text_codec_writes_the_tree_bytes_and_reads_them_back(
        request in arb_any_request(),
        response in arb_any_response(),
        term in arb_resource_spec(),
        here in arb_string(),
        there in arb_string(),
    ) {
        let renamed = ResourceSpec {
            located: match term.located.clone() {
                LocatedType::Link { .. } => LocatedType::network(Location::new(&here), Location::new(&there)),
                LocatedType::Node { kind, .. } => LocatedType::Node { kind, location: Location::new(&here) },
            },
            ..term.clone()
        };
        for term in [term, renamed] {
            let mut line = String::new();
            term.write_json(&mut line);
            prop_assert_eq!(line, term.to_json().to_string());
        }
        let mut line = String::new();
        request.write_json(&mut line);
        prop_assert_eq!(&line, &tree::request_to_json(&request).to_string());
        prop_assert_eq!(Request::from_line(&line).expect("writer output decodes"), request);
        let mut line = String::new();
        response.write_json(&mut line);
        prop_assert_eq!(&line, &tree::response_to_json(&response).to_string());
        prop_assert_eq!(Response::from_line(&line).expect("writer output decodes"), response);
    }

    /// Edited, cut and padded frames decode to what the tree forms
    /// make of them: the same value, or the same error text. Half the
    /// frames take two edits, so the order in which a reader checks
    /// two faults is compared too.
    #[test]
    fn text_codec_decodes_edited_frames_as_the_tree_forms_do(
        request in arb_any_request(),
        response in arb_any_response(),
        draws in proptest::collection::vec(0u64..64, 8),
        cut in 0usize..4096,
        shape in 0u8..6,
    ) {
        let docs = [
            (true, tree::request_to_json(&request)),
            (false, tree::response_into_json(response)),
        ];
        for (is_request, doc) in docs {
            // An unknown member whose arrays reach 127, 128 and 129
            // levels from the root, the frame's object being level 1:
            // skipped or refused as `Json::parse` refuses, at its byte.
            let whole = doc.to_string();
            let open = &whole[..whole.len() - 1];
            let deep = [127, 128, 129].map(|levels| {
                let arrays = levels - 1;
                format!("{open},\"zz\":{}{}}}", "[".repeat(arrays), "]".repeat(arrays))
            });
            let frame = edited(doc, &draws, cut, shape);
            for frame in deep.iter().chain([&frame]) {
                prop_assert_eq!(
                    text_codec(is_request, frame),
                    reference(is_request, frame),
                    "{}",
                    frame
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The bridges the benchmark harness compiles against give what the
    /// reference forms give: `Request::to_json`, `Response::to_json` and
    /// `computation_to_json` the reference encoders' bytes, and
    /// `ComputationSpec::from_json` the reference decoder's value or
    /// exact error text on edited computation trees.
    #[test]
    fn bridges_give_what_the_reference_forms_give(
        request in arb_any_request(),
        response in arb_any_response(),
        lambda in arb_computation(),
        computation in arb_computation_spec(),
        draws in proptest::collection::vec(0u64..64, 4),
    ) {
        prop_assert_eq!(
            request.to_json().to_string(),
            tree::request_to_json(&request).to_string()
        );
        prop_assert_eq!(
            response.to_json().to_string(),
            tree::response_to_json(&response).to_string()
        );
        prop_assert_eq!(
            computation_to_json(&lambda).to_string(),
            tree::computation_to_json(&ComputationSpec::from(&lambda)).to_string()
        );
        let mut doc = tree::computation_to_json(&computation);
        prop_assert_eq!(ComputationSpec::from_json(&doc).ok(), Some(computation));
        let nth = draws[0] % objects(&doc);
        edit(&mut doc, nth, &draws);
        prop_assert_eq!(
            ComputationSpec::from_json(&doc).map_err(|err| err.to_string()),
            tree::computation_from_json(&doc).map_err(|err| err.to_string()),
            "{}",
            doc
        );
    }
}

fn arb_constraint_spec() -> impl Strategy<Value = ConstraintSpec> {
    (
        arb_string(),
        proptest::collection::vec(arb_string(), 0..3),
        arb_string(),
    )
        .prop_map(|(left, rel, right)| ConstraintSpec { left, rel, right })
}

/// A spec file's model: raw terms, a raw computation, and constraints,
/// written without the key when there are none.
fn arb_spec_model() -> impl Strategy<Value = SpecModel> {
    (
        proptest::collection::vec(arb_resource_spec(), 0..4),
        arb_computation_spec(),
        proptest::collection::vec(arb_constraint_spec(), 0..3),
    )
        .prop_map(|(resources, computation, constraints)| SpecModel {
            resources,
            computation,
            constraints,
        })
}

/// The document of a spec file holding `model`.
fn spec_doc(model: &SpecModel) -> Json {
    let text = |s: &str| Json::Str(s.into());
    let mut pairs = vec![
        (
            "resources".into(),
            Json::Arr(model.resources.iter().map(ResourceSpec::to_json).collect()),
        ),
        (
            "computation".into(),
            tree::computation_to_json(&model.computation),
        ),
    ];
    if !model.constraints.is_empty() {
        let constraints = model.constraints.iter().map(|c| {
            Json::Obj(vec![
                ("left".into(), text(&c.left)),
                (
                    "rel".into(),
                    Json::Arr(c.rel.iter().map(|r| text(r)).collect()),
                ),
                ("right".into(), text(&c.right)),
            ])
        });
        pairs.push(("constraints".into(), Json::Arr(constraints.collect())));
    }
    Json::Obj(pairs)
}

/// What a spec reader makes of a file: the model, or the error text.
fn spec_outcome(
    read: fn(&str) -> Result<SpecModel, rota_server::spec::SpecError>,
    text: &str,
) -> Result<SpecModel, String> {
    read(text).map_err(|err| err.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Spec files read to their model, and edited, cut and padded ones
    /// to what the tree decoder makes of them: the same model, or the
    /// same error text.
    #[test]
    fn spec_reader_reads_edited_files_as_the_tree_decoder_does(
        model in arb_spec_model(),
        draws in proptest::collection::vec(0u64..64, 8),
        cut in 0usize..4096,
        shape in 0u8..6,
    ) {
        let doc = spec_doc(&model);
        prop_assert_eq!(SpecModel::from_json(&doc.pretty()).expect("a written spec reads"), model);
        let text = edited(doc, &draws, cut, shape);
        prop_assert_eq!(
            spec_outcome(SpecModel::from_json, &text),
            spec_outcome(tree::spec_model_from_json, &text),
            "{}",
            text
        );
    }
}

/// The edited spec files reach read models and every kind of refusal,
/// the constraints' own among them, so the comparison above is not a
/// vacuous one.
#[test]
fn spec_edits_reach_models_and_every_refusal() {
    let mut rng = proptest::test_runner::TestRng::from_seed(34);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..2_000 {
        let draws: Vec<u64> = (0..4).map(|_| rng.below(64)).collect();
        let mut doc = spec_doc(&arb_spec_model().new_value(&mut rng));
        let nth = draws[0] % objects(&doc);
        edit(&mut doc, nth, &draws);
        let outcome = match spec_outcome(tree::spec_model_from_json, &doc.to_string()) {
            Ok(_) => "decoded",
            Err(err) if err.contains("`rel` entries") => "rel entry",
            Err(err) if err.contains("`constraints` must be") => "constraints",
            Err(err) if err.contains("duplicate field") => "duplicate",
            Err(err) if err.contains("unknown field") => "unknown",
            Err(err) if err.contains("missing field") => "missing",
            Err(err) if err.contains("must be") => "mistyped",
            Err(_) => "other",
        };
        seen.insert(outcome);
    }
    for outcome in [
        "decoded",
        "rel entry",
        "constraints",
        "duplicate",
        "unknown",
        "missing",
        "mistyped",
        "other",
    ] {
        assert!(seen.contains(outcome), "never {outcome}: {seen:?}");
    }
}

/// The raw generators reach every shape the library refuses, so the
/// round trip above covers them rather than only buildable specs.
#[test]
fn raw_generators_reach_unbuildable_specs() {
    let mut rng = proptest::test_runner::TestRng::from_seed(5);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..2_000 {
        let c = arb_computation_spec().new_value(&mut rng);
        if c.deadline <= c.start {
            seen.insert("deadline not after start");
        }
        if c.actors.iter().any(|a| a.actions.is_empty()) {
            seen.insert("idle actor");
        }
        let mut actions = c.actors.iter().flat_map(|a| &a.actions);
        if actions.any(|a| matches!(a, ActionSpec::Send { size, .. } if *size != 1)) {
            seen.insert("send of a non-default size");
        }
        let r = arb_resource_spec().new_value(&mut rng);
        if r.end <= r.start {
            seen.insert("empty interval");
        }
        if r.rate == 0 {
            seen.insert("zero rate");
        }
        if r.end >= 1 << 52 {
            seen.insert("tick near 2^53");
        }
    }
    assert_eq!(seen.len(), 6, "{seen:?}");
}

/// The edited frames reach decoded values and every kind of refusal,
/// in both directions, so the comparison above is not a vacuous one.
#[test]
fn frame_edits_reach_values_and_every_refusal() {
    let mut rng = proptest::test_runner::TestRng::from_seed(29);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..2_000 {
        let draws: Vec<u64> = (0..4).map(|_| rng.below(64)).collect();
        let requests = tree::request_to_json(&arb_any_request().new_value(&mut rng));
        let responses = tree::response_into_json(arb_any_response().new_value(&mut rng));
        for (is_request, mut doc) in [(true, requests), (false, responses)] {
            let nth = draws[0] % objects(&doc);
            edit(&mut doc, nth, &draws);
            let outcome = match reference(is_request, &doc.to_string()) {
                Ok(_) => "decoded",
                Err(err) if err.contains("duplicate field") => "duplicate",
                Err(err) if err.contains("unknown field") => "unknown",
                Err(err) if err.contains("missing field") => "missing",
                Err(err) if err.contains("must be") => "mistyped",
                Err(_) => "other",
            };
            seen.insert((is_request, outcome));
        }
    }
    for is_request in [true, false] {
        for outcome in ["decoded", "duplicate", "missing", "mistyped", "other"] {
            assert!(
                seen.contains(&(is_request, outcome)),
                "never {outcome} (request: {is_request}): {seen:?}"
            );
        }
    }
    assert!(seen.contains(&(true, "unknown")), "{seen:?}");
}
