//! A golden decode corpus: `fixtures/decode_corpus.txt` pins what the
//! wire decoders make of valid frames of every request and response op
//! and of mutations of them — each field dropped, repeated, retyped,
//! renamed to an unknown key or moved; objects reordered; keys and
//! strings escaped; numbers written as fractions, exponents, `-0` or
//! past 2^53; frames cut short or followed by more bytes.
//!
//! The file was generated with the tree decoders (`Json::parse`, then
//! the request or response decoder of `rota-server/tests/support/tree.rs`),
//! which were the wire decoders when it was recorded. Each entry is two lines: the direction
//! (`>` request, `<` response) and the frame, then `=` and the decoded
//! value re-encoded (`=` alone when that is the frame itself), or `!`
//! and the error text.
//! `cargo test -p rota-client --test decode_corpus -- --ignored`
//! rewrites it from the tree decoders.

// Shared with rota-server's properties and the codec bench; this file
// uses part of it.
#[allow(dead_code)]
#[path = "../../rota-server/tests/support/tree.rs"]
mod tree;

use rota_actor::Granularity;
use rota_interval::TimeInterval;
use rota_logic::Scope;
use rota_obs::Json;
use rota_resource::{LocatedType, Location};
use rota_server::protocol::{GossipDigest, PeerBeat, Request, Response, PROTOCOL_VERSION};
use rota_server::spec::{ActionSpec, ActorSpec, ComputationSpec, ResourceSpec};

const CORPUS: &str = "tests/fixtures/decode_corpus.txt";

/// A deterministic stream of small numbers.
struct Draws(u64);

impl Draws {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

fn computation(draws: &mut Draws, name: &str) -> ComputationSpec {
    let start = draws.below(40);
    let actors = (0..1 + draws.below(2))
        .map(|a| ActorSpec {
            name: format!("{name}-a{a}"),
            origin: format!("l{}", draws.below(4)),
            actions: (0..1 + draws.below(3))
                .map(|_| match draws.below(6) {
                    0 => ActionSpec::Evaluate { work: None },
                    1 => ActionSpec::Evaluate {
                        work: Some(1 + draws.below(9)),
                    },
                    2 => ActionSpec::Send {
                        to: "peer".into(),
                        dest: format!("l{}", draws.below(4)),
                        size: 1 + draws.below(3),
                    },
                    3 => ActionSpec::Create {
                        child: "helper".into(),
                    },
                    4 => ActionSpec::Ready,
                    _ => ActionSpec::Migrate {
                        dest: format!("l{}", draws.below(4)),
                    },
                })
                .collect(),
        })
        .collect();
    ComputationSpec {
        name: name.into(),
        start,
        deadline: start + 4 + draws.below(20),
        actors,
    }
}

fn terms() -> Vec<ResourceSpec> {
    vec![
        ResourceSpec {
            located: LocatedType::cpu(Location::new("l0")),
            rate: 4,
            start: 0,
            end: 16,
        },
        ResourceSpec {
            located: LocatedType::network(Location::new("l0"), Location::new("l1")),
            rate: 2,
            start: 3,
            end: 9,
        },
    ]
}

fn digest() -> GossipDigest {
    GossipDigest {
        from: "n0".into(),
        seq: 17,
        beats: vec![
            PeerBeat {
                node: "n1".into(),
                seq: 9,
            },
            PeerBeat {
                node: "n2".into(),
                seq: 0,
            },
        ],
    }
}

/// One valid request of every op (two admits and both snapshots).
fn requests() -> Vec<Request> {
    let mut draws = Draws(0x9e37_79b9_7f4a_7c15);
    let scope = Scope::new(
        [
            LocatedType::cpu(Location::new("l1")),
            LocatedType::network(Location::new("l1"), Location::new("l2")),
        ],
        TimeInterval::from_ticks(4, 20).expect("a window"),
    );
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
            node: Some("n1".into()),
        },
        Request::Ping,
        Request::Admit {
            computation: computation(&mut draws, "j0"),
            granularity: Granularity::MaximalRun,
            forwarded: false,
        },
        Request::Admit {
            computation: computation(&mut draws, "j1"),
            granularity: Granularity::PerAction,
            forwarded: true,
        },
        Request::Offer {
            resources: terms(),
            forwarded: false,
        },
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
        Request::Gossip { digest: digest() },
        Request::ClusterSnapshot,
        Request::ScopedSnapshot { scope },
        Request::Prepare {
            name: "j2".into(),
            computation: ComputationSpec {
                name: "j2".into(),
                start: 0,
                deadline: 8,
                actors: vec![ActorSpec {
                    name: "a".into(),
                    origin: "l0".into(),
                    actions: vec![ActionSpec::Ready],
                }],
            },
            granularity: Granularity::MaximalRun,
            basis: terms()[..1].to_vec(),
            epochs: vec![3, 0],
            ttl_ms: 750,
        },
        Request::CommitReservation { name: "j2".into() },
        Request::AbortReservation { name: "j2".into() },
    ]
}

/// One valid response of every op (three decisions), as the frames a
/// server writes.
const RESPONSES: &[&str] = &[
    r#"{"ok":true,"op":"welcome","version":6}"#,
    r#"{"ok":true,"op":"pong"}"#,
    r#"{"ok":true,"op":"gossip-ack","digest":{"from":"n0","seq":17,"beats":[{"node":"n1","seq":9},{"node":"n2","seq":0}]}}"#,
    r#"{"ok":true,"op":"cluster-state","epochs":[0,4,2],"resources":[{"kind":"cpu","location":"l0","rate":4,"start":0,"end":16},{"kind":"network","from":"l0","to":"l1","rate":2,"start":3,"end":9}]}"#,
    r#"{"ok":true,"op":"prepared","name":"j2"}"#,
    r#"{"ok":true,"op":"committed","name":"j2"}"#,
    r#"{"ok":true,"op":"aborted","name":"j2","released":false}"#,
    r#"{"ok":false,"op":"stale-epoch","shard":1,"epoch":7,"expected":5}"#,
    r#"{"ok":true,"op":"decision","computation":"j0","accepted":true,"shard":1,"reason":"1 commitment(s) scheduled","violated_term":null,"clause":null}"#,
    r#"{"ok":true,"op":"decision","computation":"j1","accepted":false,"shard":0,"reason":"actor #0 short","violated_term":"⟨cpu, l1⟩ short by 2u","clause":"Theorem 4"}"#,
    r#"{"ok":true,"op":"decision","computation":"j2","accepted":false,"shard":2,"reason":"1 lint error","violated_term":null,"clause":"lint","diagnostics":[{"code":"R0006","severity":"error","message":"no cpu","path":"","notes":["at l9"]}]}"#,
    r#"{"ok":true,"op":"offered","terms":4}"#,
    r#"{"ok":true,"op":"stats","accepted":10,"rejected":3,"completed":9,"missed":0,"withdrawn":1,"shards":4}"#,
    r#"{"ok":true,"op":"metrics","metrics":{"counters":{"server.requests":12},"gauges":{},"histograms":{"server.request_ns":{"count":2,"p50":1.5}}}}"#,
    r#"{"ok":true,"op":"bye"}"#,
    r#"{"ok":false,"op":"overloaded","shard":3}"#,
    r#"{"ok":false,"op":"error","error":"per-request timeout"}"#,
];

/// A frame as a tree of raw tokens, so a mutation can write any text
/// where a value or a key stood.
#[derive(Clone)]
enum Doc {
    Raw(String),
    Arr(Vec<Doc>),
    /// Members, each key as the JSON text of the key.
    Obj(Members),
}

type Members = Vec<(String, Doc)>;

impl Doc {
    fn of(value: &Json) -> Doc {
        match value {
            Json::Arr(items) => Doc::Arr(items.iter().map(Doc::of).collect()),
            Json::Obj(pairs) => Doc::Obj(
                pairs
                    .iter()
                    .map(|(key, value)| (Json::Str(key.to_string()).to_string(), Doc::of(value)))
                    .collect(),
            ),
            scalar => Doc::Raw(scalar.to_string()),
        }
    }

    fn write(&self, out: &mut String, space: bool) {
        let gap = if space { " " } else { "" };
        match self {
            Doc::Raw(text) => out.push_str(text),
            Doc::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        out.push_str(gap);
                    }
                    item.write(out, space);
                }
                out.push(']');
            }
            Doc::Obj(members) => {
                out.push('{');
                out.push_str(gap);
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        out.push_str(gap);
                    }
                    out.push_str(key);
                    out.push_str(gap);
                    out.push(':');
                    out.push_str(gap);
                    value.write(out, space);
                }
                out.push_str(gap);
                out.push('}');
            }
        }
    }

    fn text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false);
        out
    }

    /// The node at `path` (child indices from the root).
    fn at(&mut self, path: &[usize]) -> &mut Doc {
        match path.split_first() {
            None => self,
            Some((&i, rest)) => match self {
                Doc::Arr(items) => items[i].at(rest),
                Doc::Obj(members) => members[i].1.at(rest),
                Doc::Raw(_) => unreachable!("a path ends at a scalar"),
            },
        }
    }

    /// Every node's path, in document order.
    fn paths(&self, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(prefix.clone());
        let children = match self {
            Doc::Raw(_) => 0,
            Doc::Arr(items) => items.len(),
            Doc::Obj(members) => members.len(),
        };
        for i in 0..children {
            prefix.push(i);
            match self {
                Doc::Arr(items) => items[i].paths(prefix, out),
                Doc::Obj(members) => members[i].1.paths(prefix, out),
                Doc::Raw(_) => {}
            }
            prefix.pop();
        }
    }
}

/// `text` with its first character written as a `\u` escape.
fn escape_first(text: &str) -> String {
    let mut chars = text.chars();
    match chars.next() {
        Some(first) if (first as u32) < 0x10000 => {
            format!("\\u{:04x}{}", first as u32, chars.as_str())
        }
        _ => text.to_string(),
    }
}

/// The replacement values a member is retyped to, in turn.
const RETYPES: &[&str] = &["null", "true", "\"x\"", "[]", "{}", "-1", "1.5", "[1]"];

/// The number spellings a numeric value is rewritten to, in turn.
const NUMBERS: &[&str] = &[
    "1.0",
    "1e2",
    "-0",
    "2.5",
    "9007199254740991",
    "9007199254740993",
    "1e400",
    "0.0e1",
];

/// The valid frame `frame` and its mutations.
fn mutations(frame: &str) -> Vec<String> {
    let root = Doc::of(&Json::parse(frame).expect("a valid frame"));
    let mut out = vec![frame.to_string()];
    let mut paths = Vec::new();
    root.paths(&mut Vec::new(), &mut paths);
    let mut turn = 0;
    for path in &paths {
        let mut doc = root.clone();
        match doc.at(path).clone() {
            Doc::Obj(members) => {
                let n = members.len();
                for k in 0..n {
                    let mutate = |edit: &dyn Fn(&mut Members)| {
                        let mut doc = root.clone();
                        if let Doc::Obj(members) = doc.at(path) {
                            edit(members);
                        }
                        doc.text()
                    };
                    out.push(mutate(&|m| {
                        m.remove(k);
                    }));
                    out.push(mutate(&|m| {
                        let copy = m[k].clone();
                        m.insert(k + 1, copy);
                    }));
                    let retype = RETYPES[turn % RETYPES.len()];
                    turn += 1;
                    out.push(mutate(&|m| m[k].1 = Doc::Raw(retype.into())));
                    out.push(mutate(&|m| {
                        m[k].0 = format!("\"zz{}", &m[k].0[1..]);
                    }));
                    out.push(mutate(&|m| {
                        let key = &m[k].0[1..m[k].0.len() - 1];
                        m[k].0 = format!("\"{}\"", escape_first(key));
                    }));
                    if k > 0 {
                        out.push(mutate(&|m| {
                            let member = m.remove(k);
                            m.insert(0, member);
                        }));
                    }
                }
                if n > 1 {
                    let mut reversed = root.clone();
                    if let Doc::Obj(members) = reversed.at(path) {
                        members.reverse();
                    }
                    out.push(reversed.text());
                }
            }
            Doc::Raw(text) if text.starts_with('"') => {
                let inner = &text[1..text.len() - 1];
                *doc.at(path) = Doc::Raw(format!("\"{}\"", escape_first(inner)));
                out.push(doc.text());
                *doc.at(path) = Doc::Raw(format!("\"{inner}\\u00e9\\ud83d\\ude00\\/\\t\""));
                out.push(doc.text());
                *doc.at(path) = Doc::Raw(format!("\"{inner}\u{1}\""));
                out.push(doc.text());
            }
            Doc::Raw(text) if text.starts_with(|c: char| c.is_ascii_digit()) => {
                for _ in 0..2 {
                    let number = NUMBERS[turn % NUMBERS.len()];
                    turn += 1;
                    *doc.at(path) = Doc::Raw(number.into());
                    out.push(doc.text());
                }
                *doc.at(path) = Doc::Raw(format!("{text}.0"));
                out.push(doc.text());
            }
            _ => {}
        }
    }
    let mut spaced = String::new();
    root.write(&mut spaced, true);
    out.push(spaced);
    for cut in [1, frame.len() / 3, frame.len() / 2, frame.len() - 1] {
        let mut cut = cut;
        while !frame.is_char_boundary(cut) {
            cut -= 1;
        }
        out.push(frame[..cut].to_string());
    }
    for tail in [" ", " x", "}", "\t{}", ",1"] {
        out.push(format!("{frame}{tail}"));
    }
    out.push(format!(" \t{frame}"));
    out
}

/// The outcome the tree decoders give for `frame`.
fn reference_outcome(request: bool, frame: &str) -> String {
    let parsed = Json::parse(frame);
    let decoded = if request {
        parsed
            .map_err(|err| format!("spec parse error: {err}"))
            .and_then(|doc| tree::request_from_json(&doc).map_err(|err| err.to_string()))
            .map(|request| tree::request_to_json(&request).to_string())
    } else {
        parsed
            .map_err(|err| format!("spec parse error: {err}"))
            .and_then(|doc| tree::response_from_json(doc).map_err(|err| err.to_string()))
            .map(|response| tree::response_into_json(response).to_string())
    };
    outcome(frame, decoded)
}

/// An entry's second line: `=` alone when the decoded value re-encodes
/// to the frame itself.
fn outcome(frame: &str, decoded: Result<String, String>) -> String {
    match decoded {
        Ok(text) if text == frame => "=".to_string(),
        Ok(text) => format!("= {text}"),
        Err(text) => format!("! {text}"),
    }
}

/// Every corpus frame with its direction: `true` for a request.
fn frames() -> Vec<(bool, String)> {
    let mut frames = Vec::new();
    for request in requests() {
        let frame = tree::request_to_json(&request).to_string();
        frames.extend(mutations(&frame).into_iter().map(|m| (true, m)));
    }
    for frame in RESPONSES {
        frames.extend(mutations(frame).into_iter().map(|m| (false, m)));
    }
    frames
}

/// The outcome the wire's text codec gives for `frame`: `from_line`,
/// then the value written again by `write_json`, which must write what
/// the tree encoder writes.
fn wire_outcome(request: bool, frame: &str) -> String {
    let mut line = String::new();
    let decoded = if request {
        Request::from_line(frame).map(|request| {
            request.write_json(&mut line);
            assert_eq!(line, tree::request_to_json(&request).to_string(), "{frame}");
        })
    } else {
        Response::from_line(frame).map(|response| {
            response.write_json(&mut line);
            assert_eq!(
                line,
                tree::response_to_json(&response).to_string(),
                "{frame}"
            );
        })
    };
    outcome(frame, decoded.map(|()| line).map_err(|err| err.to_string()))
}

#[test]
fn every_corpus_frame_decodes_as_recorded() {
    let corpus = std::fs::read_to_string(CORPUS).expect("the corpus fixture");
    let lines: Vec<&str> = corpus.lines().collect();
    assert_eq!(lines.len() % 2, 0, "each entry is two lines");
    let mut requests = 0;
    for pair in lines.chunks(2) {
        let (direction, frame) = pair[0].split_at(2);
        let request = direction == "> ";
        requests += usize::from(request);
        assert_eq!(
            wire_outcome(request, frame),
            pair[1],
            "{direction}frame {frame}"
        );
    }
    assert!(
        requests > 0 && requests < lines.len() / 2,
        "both directions"
    );
}

#[test]
fn the_corpus_is_the_generated_one() {
    let corpus = std::fs::read_to_string(CORPUS).expect("the corpus fixture");
    let recorded: Vec<&str> = corpus.lines().step_by(2).collect();
    let generated: Vec<String> = frames()
        .into_iter()
        .map(|(request, frame)| format!("{} {frame}", if request { '>' } else { '<' }))
        .collect();
    assert_eq!(generated.len(), recorded.len());
    for (got, want) in generated.iter().zip(&recorded) {
        assert_eq!(got, want);
    }
}

/// Rewrites the corpus with the tree decoders' outcomes.
#[test]
#[ignore = "rewrites the fixture"]
fn regenerate() {
    let mut corpus = String::new();
    for (request, frame) in frames() {
        let outcome = reference_outcome(request, &frame);
        for line in [&frame, &outcome] {
            assert!(
                !line.contains(['\n', '\r']),
                "a corpus line holds no line break: {line:?}"
            );
        }
        corpus.push(if request { '>' } else { '<' });
        corpus.push(' ');
        corpus.push_str(&frame);
        corpus.push('\n');
        corpus.push_str(&outcome);
        corpus.push('\n');
    }
    std::fs::write(CORPUS, corpus).expect("write the corpus");
}
