//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! One request per line, one response line per request, in order. Every
//! document is a single JSON object with an `"op"` discriminator;
//! responses additionally carry `"ok"` so clients can branch without
//! matching every op. Frames are capped at
//! [`MAX_FRAME_BYTES`] (oversized frames are rejected *without* buffering
//! the rest of the line), and the encoder never emits raw newlines —
//! [`rota_obs::json::write_string`] escapes control characters inside
//! strings, which is what makes a line-delimited framing sound.
//!
//! Each frame type has one decoder and one writer, its text codec
//! (`read_json` behind [`Request::from_line`] and
//! [`Response::from_line`], `write_json` behind [`write_frame`]),
//! straight between the bytes and the type. The tree forms of the
//! frames (a per-field encoder and decoder over [`Json`]) live in the
//! test support, as the codec's reference. [`Request::to_json`] and
//! [`Response::to_json`] only bridge the text codec to a tree for the
//! benchmark harness. The one tree a frame still holds is a
//! `cluster-state` answer's `resources`, which the server builds and a
//! two-phase commit decodes with the spec's resource-list pair.
//!
//! Requests:
//!
//! | op | payload | response |
//! |---|---|---|
//! | `hello` | `version`, optional `node` | `welcome`, or `error` on a version mismatch |
//! | `ping` | — | `pong` |
//! | `admit` | `computation` (spec object), optional `granularity`, optional `forwarded` | `decision` or `overloaded` |
//! | `offer` | `resources` (spec array), optional `forwarded` | `offered` |
//! | `stats` | — | `stats` (aggregated over shards) |
//! | `metrics` | — | `metrics` (registry snapshot) |
//! | `shutdown` | — | `bye`, then the server drains and stops |
//! | `gossip` | `digest` | `gossip-ack` (cluster members only) |
//! | `cluster-snapshot` | optional `scope` (`types`, `start`, `end`) | `cluster-state` (Θ_expire, within the scope when one is given; `epochs` is one `0` per shard) |
//! | `prepare` | `name`, `computation`, `granularity`, `basis`, `epochs` (read and ignored), `ttl_ms` | `prepared`, a rejecting `decision`, `stale-epoch` (the basis no longer holds what a shard has), or `error` |
//! | `commit-reservation` | `name` | `committed` or `error` |
//! | `abort-reservation` | `name` | `aborted` |
//!
//! The `hello` handshake is optional for same-version peers — every
//! other op still answers without one — but lets a client or peer
//! detect a [`PROTOCOL_VERSION`] mismatch as a structured
//! `version-mismatch` error instead of a decode failure on some later
//! frame. The `gossip`/`cluster-*`/`prepare`/`commit`/`abort` ops are
//! the federation mechanism used by `rota-cluster`; a standalone server
//! answers `gossip` with an error and serves the reservation ops
//! against its own shards.
//!
//! `epochs` (in `cluster-state` and `prepare`) and `epoch` and
//! `expected` (in `stale-epoch`) stay in v6 for the benchmark harness:
//! no node reads them, and nodes write zeros.

/// Version of this wire protocol, carried by the `hello` handshake.
///
/// Bumped whenever a frame shape changes incompatibly; a server
/// answers a `hello` carrying any other version with a structured
/// `version-mismatch` error naming both versions.
pub const PROTOCOL_VERSION: u64 = 6;

use std::io::{BufRead, Write};
use std::sync::Arc;

use rota_actor::Granularity;
use rota_admission::ControllerStats;
use rota_analyze::Diagnostic;
use rota_logic::Scope;
use rota_obs::Json;

mod text;

use crate::spec::{read_document, ComputationSpec, ResourceSpec, SpecError};

/// Hard cap on one frame (request or response line), in bytes.
///
/// Large enough for thousand-action computations, small enough that a
/// client cannot make a connection thread buffer without bound.
pub const MAX_FRAME_BYTES: usize = 256 * 1024;

/// One peer's view of another in a gossip digest: the freshest
/// sequence number heard for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerBeat {
    /// The peer's node id.
    pub node: String,
    /// Freshest heartbeat sequence number heard for that node.
    pub seq: u64,
}

/// The payload of one gossip exchange: the sender's own heartbeat plus
/// everything it has heard about the rest of the cluster.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GossipDigest {
    /// The sending node's id.
    pub from: String,
    /// The sender's own heartbeat sequence number (monotonic).
    pub seq: u64,
    /// Freshest heartbeats the sender has heard, including indirect
    /// ones — how liveness propagates without all-to-all traffic.
    pub beats: Vec<PeerBeat>,
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake: name the protocol version (and optionally the
    /// calling node) before any other traffic.
    Hello {
        /// The caller's [`PROTOCOL_VERSION`].
        version: u64,
        /// Cluster node id of the caller, when the caller is a peer.
        node: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Admission question: can the system accommodate this computation?
    Admit {
        /// The computation, in spec form (see [`crate::spec`]).
        computation: ComputationSpec,
        /// Segmentation granularity for pricing; defaults to
        /// [`Granularity::MaximalRun`].
        granularity: Granularity,
        /// Set when a cluster peer already routed this request here —
        /// the receiver must decide it locally rather than forward it
        /// again (loop prevention; see `rota-cluster`).
        forwarded: bool,
    },
    /// Offer new resources to the system (the acquisition rule).
    Offer {
        /// Resource terms, in spec form.
        resources: Vec<ResourceSpec>,
        /// As for [`Request::Admit`]: suppresses cluster re-routing.
        forwarded: bool,
    },
    /// Ask for aggregated controller statistics.
    Stats,
    /// Ask for a metrics-registry snapshot.
    Metrics,
    /// Request a graceful shutdown: drain queues, then stop.
    Shutdown,
    /// One gossip exchange (cluster members only): absorb the digest,
    /// answer with your own.
    Gossip {
        /// The sender's digest.
        digest: GossipDigest,
    },
    /// Ask for the currently obtainable resources Θ_expire — the basis
    /// a 2PC coordinator merges.
    ClusterSnapshot,
    /// [`Request::ClusterSnapshot`] within `scope`: the same
    /// `cluster-snapshot` op carrying a `scope`, answered by the same
    /// handler with Θ_expire on the scope's located types, clamped to
    /// its window — all a decision on the request it was taken from
    /// reads.
    ScopedSnapshot {
        /// The demanded located types and the window `[s, d)` of the
        /// request a two-phase commit is deciding.
        scope: Scope,
    },
    /// Phase one of a cross-location admission: tentatively install the
    /// commitments this node's policy derives for `computation` against
    /// the merged `basis`, guarded by a TTL.
    Prepare {
        /// Reservation name (the computation's identifying name).
        name: String,
        /// The computation, in spec form.
        computation: ComputationSpec,
        /// Segmentation granularity for pricing.
        granularity: Granularity,
        /// The merged cross-node basis (Θ_expire union, within the
        /// request's scope when the snapshots were scoped) to decide
        /// against, in spec form.
        basis: Vec<ResourceSpec>,
        /// Read and ignored: a v6 member the benchmark harness still
        /// sends. Each shard checks `basis` itself: the prepare is
        /// answered `stale-epoch` when the basis no longer holds that
        /// shard's supply within the request's scope.
        epochs: Vec<u64>,
        /// How long the tentative reservation may sit uncommitted
        /// before it self-releases, in milliseconds.
        ttl_ms: u64,
    },
    /// Phase two: make the named tentative reservation permanent.
    CommitReservation {
        /// The reservation's name.
        name: String,
    },
    /// Release the named reservation (tentative or, for compensating
    /// aborts after a partial commit, already committed).
    AbortReservation {
        /// The reservation's name.
        name: String,
    },
}

impl Request {
    /// The request's frame as a [`Json`] tree: written with the text
    /// codec, then parsed; a frame that does not parse comes back as a
    /// string holding it. A bridge that exists for admbench until
    /// ROADMAP item 10; no shipped path calls it.
    pub fn to_json(&self) -> Json {
        tree_of(self)
    }

    /// Parses a request from one frame (no trailing newline) with the
    /// text codec, without building a tree: the first syntax error
    /// anywhere in the frame, then the first schema error.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed JSON or schema violations.
    pub fn from_line(line: &str) -> Result<Request, SpecError> {
        read_document(line, Request::read_json)
    }
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `hello`: the versions agree.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u64,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `gossip`: the receiver's own digest, so one exchange
    /// synchronizes both directions.
    GossipAck {
        /// The receiver's digest.
        digest: GossipDigest,
    },
    /// Reply to `cluster-snapshot`.
    ClusterState {
        /// One `0` per shard: a v6 member the benchmark harness still
        /// reads, which no node reads.
        epochs: Vec<u64>,
        /// The currently obtainable resources Θ_expire (supply minus
        /// installed reservations), as a spec-form array document.
        resources: Json,
    },
    /// Reply to `prepare`: the tentative reservation is installed.
    Prepared {
        /// The reservation's name.
        name: String,
    },
    /// Reply to `commit-reservation`.
    Committed {
        /// The reservation's name.
        name: String,
    },
    /// Reply to `abort-reservation`.
    Aborted {
        /// The reservation's name.
        name: String,
        /// Whether a reservation was actually released (false when the
        /// name was unknown or had already expired).
        released: bool,
    },
    /// Reply to `prepare`: a shard's supply within the request's scope
    /// is no longer what the prepare's basis holds, so the verdict read
    /// stale supply, and nothing was held. The coordinator should
    /// re-snapshot and retry.
    StaleEpoch {
        /// The shard whose supply moved.
        shard: usize,
        /// 0: a v6 member the benchmark harness still reads.
        epoch: u64,
        /// 0, as `epoch`.
        expected: u64,
    },
    /// An admission verdict.
    Decision {
        /// The computation's identifying name.
        computation: String,
        /// Whether the request was admitted.
        accepted: bool,
        /// Which shard decided.
        shard: usize,
        /// Human-readable ground for the verdict.
        reason: String,
        /// For rejections: the violated resource term, when attributable.
        violated_term: Option<String>,
        /// For rejections: the failing theorem clause.
        clause: Option<String>,
        /// For lint-stage rejections: structured analyzer diagnostics
        /// (see `rota-analyze`), each in `Diagnostic::to_json` form.
        /// Empty for policy verdicts; omitted from the wire when empty.
        diagnostics: Diagnostics,
    },
    /// Reply to `offer`: how many terms were installed.
    Offered {
        /// Terms accepted into shard states.
        terms: u64,
    },
    /// Aggregated controller statistics.
    Stats {
        /// Sum of every shard's counters.
        stats: ControllerStats,
        /// Number of shards serving.
        shards: usize,
    },
    /// A metrics-registry snapshot, as rendered by
    /// [`rota_obs::Snapshot::to_json`].
    Metrics {
        /// The snapshot object.
        snapshot: Json,
    },
    /// Acknowledges `shutdown`; the server drains and stops after this.
    Bye,
    /// Explicit backpressure: the target shard was deciding one admit
    /// with its full quota of admits already waiting, or its decision
    /// panicked. The request was **not** decided; retry later. This is
    /// the protocol's `503`.
    Overloaded {
        /// The shard that turned the request away.
        shard: usize,
    },
    /// The request failed (parse error, timeout, draining, …).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Whether this response signals success (`"ok": true` on the wire).
    pub fn is_ok(&self) -> bool {
        !matches!(
            self,
            Response::Overloaded { .. } | Response::StaleEpoch { .. } | Response::Error { .. }
        )
    }

    /// The response's frame as a [`Json`] tree: written with the text
    /// codec, then parsed; a frame that does not parse comes back as a
    /// string holding it. A bridge that exists for admbench until
    /// ROADMAP item 10; no shipped path calls it.
    pub fn to_json(&self) -> Json {
        tree_of(self)
    }

    /// Parses a response from one frame (no trailing newline) with the
    /// text codec, without building a tree: the first syntax error
    /// anywhere in the frame, then the first schema error.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed JSON or schema violations.
    pub fn from_line(line: &str) -> Result<Response, SpecError> {
        read_document(line, Response::read_json)
    }
}

/// A decision's analyzer diagnostics as the wire carries them: the
/// compact JSON text of their array, each one an object with the keys
/// `Diagnostic::to_json(None)` writes. A frame's diagnostics are read
/// as that text, checked to be JSON, and a router passes a peer's on as
/// they came. Empty when there are none.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics(String);

impl Diagnostics {
    /// The analyzer's `diagnostics`, each written as
    /// `Diagnostic::to_json(None)` writes it.
    pub fn of(diagnostics: &[Diagnostic]) -> Diagnostics {
        if diagnostics.is_empty() {
            return Diagnostics::default();
        }
        let mut text = String::with_capacity(FRAME_BUFFER_BYTES);
        text.push('[');
        for (i, diagnostic) in diagnostics.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            diagnostic.write_json(&mut text);
        }
        text.push(']');
        Diagnostics(text)
    }

    /// The compact text of a JSON array, as [`Json::write_compact`]
    /// writes it; `[]` holds none.
    pub fn from_text(text: String) -> Diagnostics {
        if text == "[]" {
            return Diagnostics::default();
        }
        Diagnostics(text)
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The array's compact text, empty when there are none.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The diagnostics as trees, one each: for tests and printing.
    pub fn parse(&self) -> Vec<Json> {
        match Json::parse(&self.0) {
            Ok(Json::Arr(trees)) => trees,
            _ => Vec::new(),
        }
    }
}

/// The structured error a server answers when a `hello` names a
/// different protocol version.
pub fn version_mismatch(theirs: u64) -> Response {
    Response::Error {
        message: format!(
            "version-mismatch: this server speaks protocol version {PROTOCOL_VERSION}, \
             peer offered {theirs}"
        ),
    }
}

/// `value`'s frame parsed into a tree. A frame `Json::parse` refuses
/// (only a hand-built metrics snapshot nested past
/// [`rota_obs::json::MAX_DEPTH`], or diagnostics text that is not JSON,
/// makes one) comes back as a string holding it.
fn tree_of(value: &impl Encode) -> Json {
    let mut line = String::with_capacity(FRAME_BUFFER_BYTES);
    value.write_json(&mut line);
    Json::parse(&line).unwrap_or(Json::Str(line))
}

/// Reading one frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection (clean EOF at a frame boundary).
    Closed,
    /// The frame exceeded [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Bytes seen before giving up.
        seen: usize,
    },
    /// An I/O error (including read timeouts, surfaced as
    /// [`std::io::ErrorKind::WouldBlock`] / `TimedOut`).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { seen } => {
                write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes (saw {seen})")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one newline-terminated frame, enforcing the size cap without
/// buffering past it.
///
/// Works over the reader's internal buffer (`fill_buf`) so a frame that
/// blows the cap is detected as soon as `max_bytes` bytes have arrived,
/// not after the attacker finishes the line.
///
/// # Errors
///
/// [`FrameError::Closed`] at clean EOF before any byte,
/// [`FrameError::TooLarge`] past `max_bytes`, [`FrameError::Io`]
/// otherwise.
pub fn read_frame<R: BufRead>(reader: &mut R, max_bytes: usize) -> Result<String, FrameError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok([]) if buf.is_empty() => return Err(FrameError::Closed),
            Ok([]) => return Err(FrameError::Io(std::io::Error::other("eof mid-frame"))),
            Ok(bytes) => bytes,
            // A read cut short by a signal (a stop and continue of the
            // process is one, even with no handler) is retried, as
            // `BufRead::read_until` does.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        };
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(idx) => (&available[..idx], true),
            None => (available, false),
        };
        if buf.len() + chunk.len() > max_bytes {
            let seen = buf.len() + chunk.len();
            let consumed = available.len().min(max_bytes + 1);
            reader.consume(consumed);
            return Err(FrameError::TooLarge { seen });
        }
        buf.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        reader.consume(consumed);
        if done {
            let line = String::from_utf8(buf)
                .map_err(|e| FrameError::Io(std::io::Error::other(e.to_string())))?;
            return Ok(line);
        }
    }
}

/// The buffer a frame is encoded into starts this large: admits and
/// decisions, the frames sent most, take 250–550 bytes and fit without
/// growing it, and a 4 KiB basis grows it twice.
const FRAME_BUFFER_BYTES: usize = 1024;

/// A value written as one frame: its compact JSON text.
pub trait Encode {
    /// Appends the value's compact JSON to `out`.
    fn write_json(&self, out: &mut String);
}

impl Encode for Json {
    fn write_json(&self, out: &mut String) {
        self.write_compact(out);
    }
}

impl Encode for Request {
    fn write_json(&self, out: &mut String) {
        Request::write_json(self, out);
    }
}

impl Encode for Response {
    fn write_json(&self, out: &mut String) {
        Response::write_json(self, out);
    }
}

/// Writes one value as a frame: compact JSON plus `\n`, encoded into
/// one buffer and flushed.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(writer: &mut W, value: &impl Encode) -> std::io::Result<()> {
    let mut line = String::with_capacity(FRAME_BUFFER_BYTES);
    value.write_json(&mut line);
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Encodes `response` once, into the frame the wire carries for it
/// (without the trailing newline), held at its exact length.
pub(crate) fn encode_frame(response: &Response) -> Arc<str> {
    let mut line = String::with_capacity(FRAME_BUFFER_BYTES);
    response.write_json(&mut line);
    Arc::from(line)
}

/// One answer on its way to a connection: a typed [`Response`], encoded
/// as it is written, or a frame already encoded — a shard's fresh or
/// kept verdict — written byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Encoded when written.
    Typed(Response),
    /// A response encoded once, by the shard that decided it: the
    /// bytes [`write_frame`] would send for it, without the newline.
    Frame(Arc<str>),
}

impl Reply {
    /// The typed answer; a frame is decoded, and one that does not
    /// decode becomes an [`Response::Error`] saying so.
    pub(crate) fn into_response(self) -> Response {
        match self {
            Reply::Typed(response) => response,
            Reply::Frame(frame) => {
                Response::from_line(&frame).unwrap_or_else(|err| Response::Error {
                    message: format!("undecodable frame: {err}"),
                })
            }
        }
    }

    /// Writes the answer as one frame and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub(crate) fn write<W: Write>(self, writer: &mut W) -> std::io::Result<()> {
        match self {
            Reply::Typed(response) => write_frame(writer, &response),
            Reply::Frame(frame) => {
                writer.write_all(frame.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()
            }
        }
    }
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Typed(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_resource::{LocatedType, Location};
    use std::io::BufReader;

    #[test]
    fn simple_ops_round_trip() {
        for request in [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ] {
            let line = request.to_json().to_string();
            let back = Request::from_line(&line).unwrap();
            assert_eq!(
                std::mem::discriminant(&request),
                std::mem::discriminant(&back)
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let samples = vec![
            Response::Pong,
            Response::Decision {
                computation: "job\nwith \"quotes\"".into(),
                accepted: false,
                shard: 3,
                reason: "segment 0 short".into(),
                violated_term: Some("cpu[0,8) short by 2".into()),
                clause: Some("Theorem 4: segment feasibility".into()),
                diagnostics: Diagnostics::default(),
            },
            Response::Decision {
                computation: "linted".into(),
                accepted: false,
                shard: 0,
                reason: "1 lint error".into(),
                violated_term: None,
                clause: Some("static analysis".into()),
                diagnostics: Diagnostics::from_text(
                    Json::Arr(vec![Json::Obj(vec![
                        ("code".into(), Json::Str("R0006".into())),
                        ("severity".into(), Json::Str("error".into())),
                        ("message".into(), Json::Str("no such resource".into())),
                        ("path".into(), Json::Str("computation.actors[0]".into())),
                    ])])
                    .to_string(),
                ),
            },
            Response::Offered { terms: 4 },
            Response::Stats {
                stats: ControllerStats {
                    accepted: 10,
                    rejected: 3,
                    completed: 9,
                    missed: 0,
                    withdrawn: 1,
                },
                shards: 4,
            },
            Response::Bye,
            Response::Overloaded { shard: 1 },
            Response::StaleEpoch {
                shard: 1,
                epoch: 7,
                expected: 5,
            },
            Response::Error {
                message: "per-request timeout".into(),
            },
        ];
        for response in samples {
            let line = response.to_json().to_string();
            assert!(!line.contains('\n'), "frames must be single lines: {line}");
            let back = Response::from_line(&line).unwrap();
            assert_eq!(response, back, "round-trip through {line}");
        }
    }

    #[test]
    fn ok_flag_matches_variant() {
        assert!(Response::Pong.is_ok());
        assert!(!Response::Overloaded { shard: 0 }.is_ok());
        assert!(!Response::StaleEpoch {
            shard: 0,
            epoch: 1,
            expected: 0
        }
        .is_ok());
        assert!(!Response::Error {
            message: "x".into()
        }
        .is_ok());
    }

    #[test]
    fn unknown_op_and_malformed_frames_are_rejected() {
        assert!(Request::from_line("{\"op\":\"fly\"}").is_err());
        assert!(Request::from_line("{\"op\":\"ping\",\"extra\":1}").is_err());
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line("").is_err());
        assert!(Response::from_line("{\"ok\":true}").is_err());
    }

    /// Each decode error names the element it is about, word for word:
    /// a resource term of an `offer` or of a `prepare` basis, an actor
    /// and one of its actions in an `admit`, and a repeated field.
    #[test]
    fn wire_decode_errors_name_the_failing_element() {
        let refused = |line: &str| Request::from_line(line).unwrap_err().to_string();
        let cpu = r#"{"kind":"cpu","location":"l1","rate":1,"start":0,"end":4}"#;
        assert_eq!(
            refused(&format!(
                r#"{{"op":"offer","resources":[{cpu},{{"kind":"gpu","location":"l1","rate":1,"start":0,"end":4}}]}}"#
            )),
            "spec parse error: resources[1]: unknown resource kind `gpu`, \
             expected `cpu`, `memory`, or `network`"
        );
        let job = r#"{"name":"j","start":0,"deadline":10,"actors":[]}"#;
        assert_eq!(
            refused(&format!(
                r#"{{"op":"prepare","name":"j","computation":{job},"granularity":"maximal-run","basis":[{cpu},{cpu},{{"kind":"cpu","location":"l1","rate":1,"start":0}}],"epochs":[0],"ttl_ms":5}}"#
            )),
            "spec parse error: resources[2]: missing field `end`"
        );
        let admit = |actors: &str| {
            format!(
                r#"{{"op":"admit","computation":{{"name":"j","start":0,"deadline":10,"actors":[{actors}]}}}}"#
            )
        };
        let worker = r#"{"name":"w","origin":"l1","actions":[{"do":"evaluate"}]}"#;
        assert_eq!(
            refused(&admit(&format!(
                r#"{worker},{{"name":"v","origin":"l2","actions":[{{"do":"ready"}},{{"do":"fly"}}]}}"#
            ))),
            "spec parse error: actor `v` actions[1]: unknown action `fly`, expected \
             `evaluate`, `send`, `create`, `ready`, or `migrate`"
        );
        assert_eq!(
            refused(&admit(&format!(r#"{worker},{{"name":"v","actions":[]}}"#))),
            "spec parse error: actors[1]: missing field `origin`"
        );
        assert_eq!(
            refused(r#"{"op":"ping","op":"ping"}"#),
            "spec parse error: request: duplicate field `op`"
        );
        assert_eq!(
            refused(&format!(
                r#"{{"op":"offer","resources":[{cpu},{{"kind":"cpu","rate":1,"location":"l1","rate":2,"start":0,"end":4}}]}}"#
            )),
            "spec parse error: resources[1]: duplicate field `rate`"
        );
    }

    /// A scoped `cluster-snapshot` carries its located types and window
    /// and decodes to the same scope; the bare frame stays bare.
    #[test]
    fn scoped_snapshot_round_trips() {
        let window = |start, end| rota_interval::TimeInterval::from_ticks(start, end).unwrap();
        let scope = Scope::new(
            [
                LocatedType::network(Location::new("l1"), Location::new("l2")),
                LocatedType::cpu(Location::new("l2")),
                LocatedType::memory(Location::new("l1")),
                LocatedType::cpu(Location::new("l1")),
            ],
            window(4, 20),
        );
        let line = Request::ScopedSnapshot {
            scope: scope.clone(),
        }
        .to_json()
        .to_string();
        assert_eq!(
            line,
            r#"{"op":"cluster-snapshot","scope":{"types":[{"kind":"network","from":"l1","to":"l2"},{"kind":"cpu","location":"l2"},{"kind":"memory","location":"l1"},{"kind":"cpu","location":"l1"}],"start":4,"end":20}}"#
        );
        match Request::from_line(&line).unwrap() {
            Request::ScopedSnapshot { scope: back } => assert_eq!(back, scope),
            other => panic!("wrong decode: {other:?}"),
        }
        let empty = Scope::new([], window(0, 1));
        let line = Request::ScopedSnapshot {
            scope: empty.clone(),
        }
        .to_json()
        .to_string();
        assert!(matches!(
            Request::from_line(&line).unwrap(),
            Request::ScopedSnapshot { scope } if scope == empty
        ));
        assert!(matches!(
            Request::from_line(r#"{"op":"cluster-snapshot"}"#).unwrap(),
            Request::ClusterSnapshot
        ));
    }

    /// The scope decoder is as strict as a term's: each refusal, word
    /// for word.
    #[test]
    fn scoped_snapshot_refusals_are_pinned() {
        let refused = |scope: &str| {
            Request::from_line(&format!(r#"{{"op":"cluster-snapshot","scope":{scope}}}"#))
                .unwrap_err()
                .to_string()
        };
        let cpu = r#"{"kind":"cpu","location":"l1"}"#;
        assert_eq!(
            refused(&format!(
                r#"{{"types":[{cpu}],"start":0,"end":4,"epoch":2}}"#
            )),
            "spec parse error: scope: unknown field `epoch`, expected one of \
             [\"types\", \"start\", \"end\"]"
        );
        assert_eq!(
            refused(&format!(
                r#"{{"types":[{cpu},{{"kind":"cpu","location":"l2","rate":1}}],"start":0,"end":4}}"#
            )),
            "spec parse error: scope types[1]: unknown field `rate`, expected one of \
             [\"kind\", \"location\"]"
        );
        assert_eq!(
            refused(&format!(
                r#"{{"types":[{cpu},{{"kind":"disk","location":"l1"}}],"start":0,"end":4}}"#
            )),
            "spec parse error: scope types[1]: unknown resource kind `disk`, \
             expected `cpu`, `memory`, or `network`"
        );
        assert_eq!(
            refused(&format!(r#"{{"types":[{cpu}],"start":5,"end":5}}"#)),
            "spec parse error: scope: `end` (5) must follow `start` (5)"
        );
        assert_eq!(
            refused(&format!(r#"{{"types":[{cpu}],"start":6,"end":2}}"#)),
            "spec parse error: scope: `end` (2) must follow `start` (6)"
        );
        assert_eq!(
            refused(&format!(r#"{{"types":[{cpu}],"start":1.5,"end":4}}"#)),
            "spec parse error: scope: field `start` must be a non-negative integer"
        );
        assert_eq!(
            refused(&format!(r#"{{"types":[{cpu}],"start":0,"end":"4"}}"#)),
            "spec parse error: scope: field `end` must be a non-negative integer"
        );
        assert_eq!(
            refused(r#"{"types":{},"start":0,"end":4}"#),
            "spec parse error: scope: field `types` must be an array"
        );
    }

    #[test]
    fn read_frame_splits_lines_and_detects_close() {
        let data = b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n";
        let mut reader = BufReader::new(&data[..]);
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), "{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), "{\"op\":\"stats\"}");
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Closed)
        ));
    }

    /// A reader whose first read is interrupted by a signal, as a
    /// socket read with a timeout is after a stop and continue.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        rest: &'a [u8],
    }

    impl std::io::Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            std::io::Read::read(&mut self.rest, buf)
        }
    }

    #[test]
    fn read_frame_retries_an_interrupted_read() {
        let mut reader = BufReader::new(InterruptedOnce {
            interrupted: false,
            rest: b"{\"op\":\"ping\"}\n",
        });
        assert_eq!(read_frame(&mut reader, 1024).unwrap(), "{\"op\":\"ping\"}");
        assert!(matches!(
            read_frame(&mut reader, 1024),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn read_frame_enforces_cap_before_line_end() {
        // A "line" far larger than the cap, never newline-terminated
        // within the first chunk: must fail fast, not buffer it all.
        let big = vec![b'x'; 4096];
        let mut reader = BufReader::new(&big[..]);
        assert!(matches!(
            read_frame(&mut reader, 64),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn admit_request_round_trips_with_granularity() {
        let computation = crate::spec::ComputationSpec {
            name: "j".into(),
            start: 0,
            deadline: 10,
            actors: vec![crate::spec::ActorSpec {
                name: "a".into(),
                origin: "l1".into(),
                actions: vec![
                    crate::spec::ActionSpec::Evaluate { work: Some(3) },
                    crate::spec::ActionSpec::Ready,
                ],
            }],
        };
        let request = Request::Admit {
            computation,
            granularity: Granularity::PerAction,
            forwarded: false,
        };
        let line = request.to_json().to_string();
        assert!(
            !line.contains("forwarded"),
            "unforwarded admits omit the flag: {line}"
        );
        match Request::from_line(&line).unwrap() {
            Request::Admit {
                computation,
                granularity,
                forwarded,
            } => {
                assert_eq!(computation.name, "j");
                assert_eq!(granularity, Granularity::PerAction);
                assert_eq!(computation.actors[0].actions.len(), 2);
                assert!(!forwarded);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let coarse = line.replace(r#""granularity":"per-action""#, r#""granularity":"coarse""#);
        let refused = Request::from_line(&coarse).unwrap_err().to_string();
        assert!(
            refused.contains(r#"request: unknown granularity Some("coarse")"#),
            "{refused}"
        );
    }

    #[test]
    fn unbuildable_admit_keeps_its_actions_on_the_wire() {
        // deadline ≤ start: no library computation exists, but the
        // server must still see (and lint) exactly what was sent.
        let computation = crate::spec::ComputationSpec {
            name: "late".into(),
            start: 9,
            deadline: 9,
            actors: vec![crate::spec::ActorSpec {
                name: "a".into(),
                origin: "l1".into(),
                actions: vec![
                    crate::spec::ActionSpec::Evaluate { work: Some(3) },
                    crate::spec::ActionSpec::Migrate { dest: "l2".into() },
                ],
            }],
        };
        assert!(computation.build().is_err());
        let written = |computation: &crate::spec::ComputationSpec| {
            let mut text = String::new();
            computation.write_json(&mut text);
            text
        };
        let sent = written(&computation);
        let request = Request::Admit {
            computation,
            granularity: Granularity::MaximalRun,
            forwarded: false,
        };
        let line = request.to_json().to_string();
        match Request::from_line(&line).unwrap() {
            Request::Admit { computation, .. } => {
                assert_eq!(computation.actors[0].actions.len(), 2);
                assert_eq!(written(&computation), sent);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn offer_request_round_trips() {
        let request = Request::Offer {
            resources: vec![
                ResourceSpec {
                    located: LocatedType::cpu(Location::new("l1")),
                    rate: 4,
                    start: 0,
                    end: 8,
                },
                ResourceSpec {
                    located: LocatedType::network(Location::new("l1"), Location::new("l2")),
                    rate: 2,
                    start: 0,
                    end: 8,
                },
            ],
            forwarded: true,
        };
        let line = request.to_json().to_string();
        match Request::from_line(&line).unwrap() {
            Request::Offer {
                resources,
                forwarded,
            } => {
                assert_eq!(resources.len(), 2);
                assert!(forwarded);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    fn sample_digest() -> GossipDigest {
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

    #[test]
    fn hello_round_trips_and_mismatch_is_structured() {
        let request = Request::Hello {
            version: PROTOCOL_VERSION,
            node: Some("n1".into()),
        };
        let line = request.to_json().to_string();
        match Request::from_line(&line).unwrap() {
            Request::Hello { version, node } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(node.as_deref(), Some("n1"));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // Anonymous hello omits the node field entirely.
        let anon = Request::Hello {
            version: 1,
            node: None,
        };
        assert!(!anon.to_json().to_string().contains("node"));
        // The mismatch error names both versions and survives the wire.
        let error = version_mismatch(1);
        let back = Response::from_line(&error.to_json().to_string()).unwrap();
        match back {
            Response::Error { message } => {
                assert!(message.starts_with("version-mismatch"), "{message}");
                assert!(message.contains(&PROTOCOL_VERSION.to_string()), "{message}");
                assert!(message.contains('1'), "{message}");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn gossip_and_cluster_ops_round_trip() {
        let digest = sample_digest();
        let line = Request::Gossip {
            digest: digest.clone(),
        }
        .to_json()
        .to_string();
        match Request::from_line(&line).unwrap() {
            Request::Gossip { digest: back } => assert_eq!(back, digest),
            other => panic!("wrong decode: {other:?}"),
        }
        // A beat carries a node and a sequence number, nothing else:
        // where a node serves is the topology's business.
        let stale = line.replace(r#""seq":9}"#, r#""seq":9,"addr":"127.0.0.1:7401"}"#);
        assert_ne!(stale, line);
        let err = Request::from_line(&stale).unwrap_err().to_string();
        assert!(err.contains("unknown field `addr`"), "{err}");
        let line = Request::ClusterSnapshot.to_json().to_string();
        assert!(matches!(
            Request::from_line(&line).unwrap(),
            Request::ClusterSnapshot
        ));
        let line = Request::Prepare {
            name: "job7".into(),
            computation: crate::spec::ComputationSpec {
                name: "job7".into(),
                start: 0,
                deadline: 10,
                actors: vec![crate::spec::ActorSpec {
                    name: "a".into(),
                    origin: "l1".into(),
                    actions: vec![crate::spec::ActionSpec::Evaluate { work: None }],
                }],
            },
            granularity: Granularity::MaximalRun,
            basis: vec![ResourceSpec {
                located: LocatedType::cpu(Location::new("l1")),
                rate: 4,
                start: 0,
                end: 10,
            }],
            epochs: vec![3, 0],
            ttl_ms: 750,
        }
        .to_json()
        .to_string();
        match Request::from_line(&line).unwrap() {
            Request::Prepare {
                name,
                basis,
                epochs,
                ttl_ms,
                ..
            } => {
                assert_eq!(name, "job7");
                assert_eq!(basis.len(), 1);
                assert_eq!(epochs, vec![3, 0]);
                assert_eq!(ttl_ms, 750);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        for request in [
            Request::CommitReservation {
                name: "job7".into(),
            },
            Request::AbortReservation {
                name: "job7".into(),
            },
        ] {
            let line = request.to_json().to_string();
            let back = Request::from_line(&line).unwrap();
            assert_eq!(
                std::mem::discriminant(&request),
                std::mem::discriminant(&back)
            );
        }
    }

    #[test]
    fn cluster_responses_round_trip() {
        let samples = vec![
            Response::Welcome {
                version: PROTOCOL_VERSION,
            },
            Response::GossipAck {
                digest: sample_digest(),
            },
            Response::ClusterState {
                epochs: vec![0, 4, 2],
                resources: Json::Arr(vec![Json::Obj(vec![
                    ("kind".into(), Json::Str("cpu".into())),
                    ("location".into(), Json::Str("l0".into())),
                    ("rate".into(), Json::Num(4.0)),
                    ("start".into(), Json::Num(0.0)),
                    ("end".into(), Json::Num(16.0)),
                ])]),
            },
            Response::Prepared { name: "job".into() },
            Response::Committed { name: "job".into() },
            Response::Aborted {
                name: "job".into(),
                released: true,
            },
        ];
        for response in samples {
            let line = response.to_json().to_string();
            assert!(!line.contains('\n'), "frames must be single lines: {line}");
            assert!(response.is_ok(), "{line}");
            let back = Response::from_line(&line).unwrap();
            assert_eq!(response, back, "round-trip through {line}");
        }
    }

    /// An admit frame exactly [`MAX_FRAME_BYTES`] long whose
    /// computation name is one long string: the costliest frame a
    /// connection thread can be asked to decode.
    fn cap_sized_admit() -> String {
        let admit = |name: String| Request::Admit {
            computation: crate::spec::ComputationSpec {
                name,
                start: 0,
                deadline: 10,
                actors: vec![crate::spec::ActorSpec {
                    name: "a".into(),
                    origin: "l0".into(),
                    actions: vec![crate::spec::ActionSpec::Evaluate { work: None }],
                }],
            },
            granularity: Granularity::MaximalRun,
            forwarded: false,
        };
        let overhead = admit(String::new()).to_json().to_string().len();
        let line = admit("n".repeat(MAX_FRAME_BYTES - overhead))
            .to_json()
            .to_string();
        assert_eq!(line.len(), MAX_FRAME_BYTES);
        line
    }

    /// Decoding is linear in frame length, so the frame cap bounds a
    /// connection's CPU as well as its memory. On a 2-vCPU VM this
    /// decode takes 2–3 ms in an unoptimized test build; the bound is
    /// about 100× that, so a loaded test run does not trip it. It is
    /// still far below the 1.15 s an optimized build of a scanner that
    /// re-validates the rest of the frame for each character takes
    /// here, so such a scanner fails this test in any build.
    #[test]
    fn cap_sized_frame_decodes_within_a_cpu_bound() {
        use std::time::{Duration, Instant};
        const BOUND: Duration = Duration::from_millis(250);
        let line = cap_sized_admit();
        let name_start = line.find(r#""name":""#).expect("computation name") + 8;
        let name_end = line.find(r#"","start""#).expect("name precedes start");

        let started = Instant::now();
        let decoded = Request::from_line(&line);
        let elapsed = started.elapsed();
        match decoded {
            Ok(Request::Admit { computation, .. }) => {
                assert_eq!(computation.name, line[name_start..name_end]);
            }
            other => panic!("cap-sized admit must decode: {other:?}"),
        }
        assert!(elapsed < BOUND, "decode took {elapsed:?}, bound {BOUND:?}");

        // A raw control byte near the end fails at that byte's offset,
        // within the same bound.
        let offset = name_end - 16;
        let mut hostile = line.into_bytes();
        hostile[offset] = 0x01;
        let hostile = String::from_utf8(hostile).expect("still utf-8");
        let started = Instant::now();
        let refused = Request::from_line(&hostile).unwrap_err().to_string();
        let elapsed = started.elapsed();
        assert!(
            refused.ends_with(&format!(
                "json error at byte {offset}: raw control character in string"
            )),
            "{refused}"
        );
        assert!(
            elapsed < BOUND,
            "rejection took {elapsed:?}, bound {BOUND:?}"
        );
    }

    /// The largest frame within [`MAX_FRAME_BYTES`] made of `head`,
    /// then distinct keys `,"k0":0,"k1":0,…` of one object, then `tail`.
    fn cap_sized_many_keys(head: &str, tail: &str) -> String {
        let mut line = head.to_string();
        for i in 0.. {
            let key = format!(r#","k{i}":0"#);
            if line.len() + key.len() + tail.len() > MAX_FRAME_BYTES {
                break;
            }
            line.push_str(&key);
        }
        line.push_str(tail);
        line
    }

    /// The duplicate-key check is O(k log k) in an object's `k` keys, so
    /// an object of ~25,000 distinct keys, as many as a frame holds, is
    /// refused or decoded within the bound whether it is the request,
    /// an action or a response. On a 2-vCPU VM an unoptimized test build
    /// takes 58–66 ms for each, mostly parsing. A check that compares
    /// every key with every earlier one took 4.5 s for the request in the
    /// same build.
    #[test]
    fn cap_sized_many_key_frames_decode_within_a_cpu_bound() {
        use std::time::{Duration, Instant};
        const BOUND: Duration = Duration::from_millis(250);
        let timed = |line: &str, decode: &dyn Fn(&str) -> String| {
            assert!(line.len() > MAX_FRAME_BYTES - 16, "short frame");
            let started = Instant::now();
            let outcome = decode(line);
            let elapsed = started.elapsed();
            assert!(
                elapsed < BOUND,
                "took {elapsed:?}, bound {BOUND:?}: {outcome}"
            );
            outcome
        };
        let request = |line: &str| match Request::from_line(line) {
            Ok(other) => format!("{other:?}"),
            Err(err) => err.to_string(),
        };
        assert_eq!(
            timed(&cap_sized_many_keys(r#"{"op":"ping""#, "}"), &request),
            r#"spec parse error: request: unknown field `k0`, expected one of ["op"]"#
        );
        let admit = r#"{"op":"admit","computation":{"name":"j","start":0,"deadline":9,"actors":[{"name":"w","origin":"l0","actions":[{"do":"ready""#;
        assert_eq!(
            timed(&cap_sized_many_keys(admit, "}]}]}}"), &request),
            r#"spec parse error: actor `w` actions[0]: unknown field `k0`, expected one of ["do"]"#
        );
        let response =
            |line: &str| format!("{:?}", Response::from_line(line).map_err(|e| e.to_string()));
        assert_eq!(
            timed(
                &cap_sized_many_keys(r#"{"ok":true,"op":"pong""#, "}"),
                &response
            ),
            "Ok(Pong)"
        );
    }

    /// Term `i` of `n`'s `(start, end)`.
    type Window = fn(u64, u64) -> (u64, u64);

    fn l0_cpu() -> rota_resource::LocatedType {
        rota_resource::LocatedType::cpu(rota_resource::Location::new("l0"))
    }

    /// The largest `offer` frame within [`MAX_FRAME_BYTES`] whose terms
    /// all sit on one located type, term `i` of `n` over `window(i, n)`.
    fn cap_sized_offer(window: Window) -> String {
        let offer = |n: u64| {
            let resources = (0..n)
                .map(|i| {
                    let (start, end) = window(i, n);
                    ResourceSpec {
                        located: l0_cpu(),
                        rate: 1 + i % 3,
                        start,
                        end,
                    }
                })
                .collect();
            Request::Offer {
                resources,
                forwarded: false,
            }
            .to_json()
            .to_string()
        };
        // Every term encodes to more than 50 bytes.
        let (mut fits, mut too_many) = (1, MAX_FRAME_BYTES as u64 / 50);
        while too_many - fits > 1 {
            let n = (fits + too_many) / 2;
            if offer(n).len() <= MAX_FRAME_BYTES {
                fits = n;
            } else {
                too_many = n;
            }
        }
        offer(fits)
    }

    /// Building a set is O(n log n) in its terms for any order, so a
    /// cap-sized offer (~4,100 terms on one located type) costs a
    /// connection about what decoding it does. On a 2-vCPU VM an
    /// unoptimized test build decodes and builds each order in 30–40 ms.
    /// A term-by-term build that sorts the whole profile on each insert
    /// took 14 s for the ascending order in the same build, and
    /// 385–852 ms per order in an optimized one.
    #[test]
    fn cap_sized_offer_builds_within_a_cpu_bound() {
        use std::time::{Duration, Instant};
        const BOUND: Duration = Duration::from_millis(250);
        let orders: [(&str, Window); 3] = [
            ("ascending", |i, _| (i, i + 2)),
            ("descending", |i, n| (n - i, n - i + 2)),
            ("nested", |i, n| (i, 2 * n - i)),
        ];
        for (order, window) in orders {
            let line = cap_sized_offer(window);
            assert!(line.len() > MAX_FRAME_BYTES - 100, "{order}: short frame");
            let started = Instant::now();
            let resources = match Request::from_line(&line) {
                Ok(Request::Offer { resources, .. }) => resources,
                other => panic!("{order}: cap-sized offer must decode: {other:?}"),
            };
            let theta = crate::spec::resource_set(&resources).expect("bounded rates");
            let elapsed = started.elapsed();
            let supplied: u64 = resources.iter().map(|r| r.rate * (r.end - r.start)).sum();
            let horizon = rota_interval::TimeInterval::from_ticks(0, u64::MAX).expect("non-empty");
            let held = theta
                .quantity_over(&l0_cpu(), &horizon)
                .expect("no overflow");
            assert_eq!(held.units(), supplied, "{order}: the set holds every term");
            assert!(
                elapsed < BOUND,
                "{order}: took {elapsed:?}, bound {BOUND:?}"
            );
        }
    }
}
