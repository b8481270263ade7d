//! The frames' text codec: [`Request`], [`Response`] and
//! [`GossipDigest`] read straight from a frame's bytes with a
//! [`Reader`] and written straight into a `String`. It is the one
//! decoder and the one writer each frame type has. The tree forms kept
//! in the test support as its reference encode every frame to the same
//! bytes and read every frame to the same value or the same error.
//!
//! Every member is read straight into its type, resource lists (an
//! offer's `resources`, a prepare's `basis`) with [`read_resources`],
//! except two, which are read as trees with [`Reader::tree`]: a
//! `cluster-state` answer's `resources`, a [`Json`] by type until
//! admbench reads it another way, and a metrics snapshot, which is a
//! [`Json`] by type and written as one. A resource list is written
//! straight, term by term ([`ResourceSpec::write_json`]). A decision's
//! diagnostics are kept as the compact text of their array
//! ([`Diagnostics`]), checked to be JSON as they are read.

use rota_actor::Granularity;
use rota_admission::ControllerStats;
use rota_obs::json::{write_number, write_string, JsonError, Kind, Reader, Scalar};
use rota_obs::Json;

use super::{Diagnostics, GossipDigest, PeerBeat, Request, Response};
use crate::spec::{
    error_at, read_list, read_resources, read_scope, write_scope, ComputationSpec, Members, Read,
    ResourceSpec, SpecError,
};

/// Reads a list of unsigned integers; an element that is not one fails
/// the list.
fn read_epochs(reader: &mut Reader<'_>) -> Result<Option<Result<Vec<u64>, ()>>, JsonError> {
    read_list(reader, |reader, _| Ok(reader.scalar()?.as_u64().ok_or(())))
}

fn write_terms(out: &mut String, terms: &[ResourceSpec]) {
    out.push('[');
    for (i, term) in terms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        term.write_json(out);
    }
    out.push(']');
}

fn write_epochs(out: &mut String, epochs: &[u64]) {
    out.push('[');
    for (i, epoch) in epochs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, *epoch as f64);
    }
    out.push(']');
}

/// A string or `null` under key `i`.
fn opt_str<const N: usize>(
    fields: &Members<'_, '_, N>,
    i: usize,
) -> Result<Option<String>, SpecError> {
    match fields.scalar(i) {
        None | Some(Scalar::Null) => Ok(None),
        Some(value) => value.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            SpecError::Parse(format!("`{}` must be a string or null", fields.key(i)))
        }),
    }
}

const DIGEST_KEYS: [&str; 3] = ["from", "seq", "beats"];
const BEAT_KEYS: [&str; 2] = ["node", "seq"];

impl GossipDigest {
    /// Reads a digest's object, as strictly as a request.
    ///
    /// # Errors
    ///
    /// Where the value is malformed JSON.
    pub fn read_json(reader: &mut Reader<'_>) -> Read<GossipDigest> {
        let mut beats = None;
        let object = reader.members(&DIGEST_KEYS, |reader, i| {
            if i != 2 {
                return Ok(false);
            }
            beats = Some(read_list(reader, |reader, _| read_beat(reader))?);
            Ok(true)
        })?;
        let own = error_at(&"gossip digest");
        let Some(object) = object else {
            return Ok(Err(own("expected an object".into())));
        };
        let fields = Members::new(&DIGEST_KEYS, &object);
        Ok((|| {
            fields.strict().map_err(&own)?;
            let beats = fields.list(2, beats).map_err(&own)??;
            Ok(GossipDigest {
                from: fields.string(0).map_err(&own)?,
                seq: fields.u64(1).map_err(&own)?,
                beats,
            })
        })())
    }

    /// Appends the digest's compact JSON: `from`, `seq`, then its
    /// `beats`, each a `node` and a `seq`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"from\":");
        write_string(out, &self.from);
        out.push_str(",\"seq\":");
        write_number(out, self.seq as f64);
        out.push_str(",\"beats\":[");
        for (i, beat) in self.beats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"node\":");
            write_string(out, &beat.node);
            out.push_str(",\"seq\":");
            write_number(out, beat.seq as f64);
            out.push('}');
        }
        out.push_str("]}");
    }
}

fn read_beat(reader: &mut Reader<'_>) -> Read<PeerBeat> {
    let object = reader.members(&BEAT_KEYS, |_, _| Ok(false))?;
    let own = error_at(&"gossip beat");
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&BEAT_KEYS, &object);
    Ok((|| {
        fields.strict()?;
        Ok(PeerBeat {
            node: fields.string(0)?,
            seq: fields.u64(1)?,
        })
    })()
    .map_err(own))
}

/// The index of `key` in `keys`, at compile time.
const fn index(keys: &[&str], key: &str) -> usize {
    let mut i = 0;
    while i < keys.len() {
        let (a, b) = (keys[i].as_bytes(), key.as_bytes());
        if a.len() == b.len() {
            let mut j = 0;
            while j < a.len() && a[j] == b[j] {
                j += 1;
            }
            if j == a.len() {
                return i;
            }
        }
        i += 1;
    }
    panic!("no such key")
}

/// Every key a request carries, under any op, the keys of an admit
/// first; each has one type.
const REQUEST_KEYS: [&str; 13] = [
    "op",
    "computation",
    "granularity",
    "forwarded",
    "name",
    "basis",
    "epochs",
    "ttl_ms",
    "scope",
    "resources",
    "digest",
    "version",
    "node",
];

const R_OP: usize = index(&REQUEST_KEYS, "op");
const R_COMPUTATION: usize = index(&REQUEST_KEYS, "computation");
const R_GRANULARITY: usize = index(&REQUEST_KEYS, "granularity");
const R_FORWARDED: usize = index(&REQUEST_KEYS, "forwarded");
const R_NAME: usize = index(&REQUEST_KEYS, "name");
const R_BASIS: usize = index(&REQUEST_KEYS, "basis");
const R_EPOCHS: usize = index(&REQUEST_KEYS, "epochs");
const R_TTL: usize = index(&REQUEST_KEYS, "ttl_ms");
const R_SCOPE: usize = index(&REQUEST_KEYS, "scope");
const R_RESOURCES: usize = index(&REQUEST_KEYS, "resources");
const R_DIGEST: usize = index(&REQUEST_KEYS, "digest");
const R_VERSION: usize = index(&REQUEST_KEYS, "version");
const R_NODE: usize = index(&REQUEST_KEYS, "node");

impl Request {
    /// Reads a request's document. Every member is read before the op
    /// is looked at, so the op may come anywhere.
    ///
    /// # Errors
    ///
    /// Where the value is malformed JSON.
    pub fn read_json(reader: &mut Reader<'_>) -> Read<Request> {
        let mut computation = None;
        let mut resources = None;
        let mut digest = None;
        let mut scope = None;
        let mut basis = None;
        let mut epochs = None;
        let object = reader.members(&REQUEST_KEYS, |reader, i| {
            match i {
                R_COMPUTATION => computation = Some(ComputationSpec::read_json(reader)?),
                R_RESOURCES => resources = Some(read_resources(reader)?),
                R_DIGEST => digest = Some(GossipDigest::read_json(reader)?),
                R_SCOPE => scope = Some(read_scope(reader)?),
                R_BASIS => basis = Some(read_resources(reader)?),
                R_EPOCHS => epochs = Some(read_epochs(reader)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let own = error_at(&"request");
        let Some(object) = object else {
            return Ok(Err(own("expected an object".into())));
        };
        let fields = Members::new(&REQUEST_KEYS, &object);
        let granularity = || {
            let Some(value) = fields.scalar(R_GRANULARITY) else {
                return Ok(Granularity::MaximalRun);
            };
            let name = value.as_str();
            name.and_then(Granularity::from_name)
                .ok_or_else(|| SpecError::Parse(format!("request: unknown granularity {name:?}")))
        };
        let forwarded = || match fields.scalar(R_FORWARDED) {
            None | Some(Scalar::Null) => Ok(false),
            Some(value) => value
                .as_bool()
                .ok_or_else(|| SpecError::Parse("request: `forwarded` must be a bool".into())),
        };
        let name = || fields.string(R_NAME).map_err(&own);
        Ok(
            (|| match fields.unrepeated().and_then(|()| fields.text(R_OP)) {
                Err(detail) => Err(own(detail)),
                Ok("hello") => {
                    fields.only(&["op", "version", "node"]).map_err(&own)?;
                    Ok(Request::Hello {
                        version: fields.u64(R_VERSION).map_err(&own)?,
                        node: opt_str(&fields, R_NODE)?,
                    })
                }
                Ok("ping") => fields.only(&["op"]).map_err(&own).map(|()| Request::Ping),
                Ok("admit") => {
                    fields
                        .only(&["op", "computation", "granularity", "forwarded"])
                        .map_err(&own)?;
                    let computation =
                        computation.ok_or_else(|| own(fields.missing(R_COMPUTATION)))??;
                    Ok(Request::Admit {
                        computation,
                        granularity: granularity()?,
                        forwarded: forwarded()?,
                    })
                }
                Ok("offer") => {
                    fields
                        .only(&["op", "resources", "forwarded"])
                        .map_err(&own)?;
                    Ok(Request::Offer {
                        resources: fields.list(R_RESOURCES, resources).map_err(&own)??,
                        forwarded: forwarded()?,
                    })
                }
                Ok("stats") => fields.only(&["op"]).map_err(&own).map(|()| Request::Stats),
                Ok("metrics") => fields
                    .only(&["op"])
                    .map_err(&own)
                    .map(|()| Request::Metrics),
                Ok("shutdown") => fields
                    .only(&["op"])
                    .map_err(&own)
                    .map(|()| Request::Shutdown),
                Ok("gossip") => {
                    fields.only(&["op", "digest"]).map_err(&own)?;
                    Ok(Request::Gossip {
                        digest: digest.ok_or_else(|| own(fields.missing(R_DIGEST)))??,
                    })
                }
                Ok("cluster-snapshot") => {
                    fields.only(&["op", "scope"]).map_err(&own)?;
                    Ok(match scope {
                        None => Request::ClusterSnapshot,
                        Some(scope) => Request::ScopedSnapshot { scope: scope? },
                    })
                }
                Ok("prepare") => {
                    fields
                        .only(&[
                            "op",
                            "name",
                            "computation",
                            "granularity",
                            "basis",
                            "epochs",
                            "ttl_ms",
                        ])
                        .map_err(&own)?;
                    let epochs = fields
                        .list(R_EPOCHS, epochs)
                        .map_err(&own)?
                        .map_err(|()| own("`epochs` must be unsigned integers".into()))?;
                    Ok(Request::Prepare {
                        name: name()?,
                        computation: computation
                            .ok_or_else(|| own(fields.missing(R_COMPUTATION)))??,
                        granularity: granularity()?,
                        basis: fields.list(R_BASIS, basis).map_err(&own)??,
                        epochs,
                        ttl_ms: fields.u64(R_TTL).map_err(&own)?,
                    })
                }
                Ok("commit-reservation") => {
                    fields.only(&["op", "name"]).map_err(&own)?;
                    Ok(Request::CommitReservation { name: name()? })
                }
                Ok("abort-reservation") => {
                    fields.only(&["op", "name"]).map_err(&own)?;
                    Ok(Request::AbortReservation { name: name()? })
                }
                Ok(other) => Err(own(format!("unknown op `{other}`"))),
            })(),
        )
    }

    /// Appends the request's compact JSON, `op` first: the frame
    /// without its newline.
    pub fn write_json(&self, out: &mut String) {
        let forwarded = |out: &mut String, forwarded: bool| {
            if forwarded {
                out.push_str(",\"forwarded\":true");
            }
        };
        match self {
            Request::Hello { version, node } => {
                out.push_str("{\"op\":\"hello\",\"version\":");
                write_number(out, *version as f64);
                if let Some(node) = node {
                    out.push_str(",\"node\":");
                    write_string(out, node);
                }
            }
            Request::Ping => out.push_str("{\"op\":\"ping\""),
            Request::Admit {
                computation,
                granularity,
                forwarded: flag,
            } => {
                out.push_str("{\"op\":\"admit\",\"computation\":");
                computation.write_json(out);
                out.push_str(",\"granularity\":");
                write_string(out, granularity.name());
                forwarded(out, *flag);
            }
            Request::Offer {
                resources,
                forwarded: flag,
            } => {
                out.push_str("{\"op\":\"offer\",\"resources\":");
                write_terms(out, resources);
                forwarded(out, *flag);
            }
            Request::Stats => out.push_str("{\"op\":\"stats\""),
            Request::Metrics => out.push_str("{\"op\":\"metrics\""),
            Request::Shutdown => out.push_str("{\"op\":\"shutdown\""),
            Request::Gossip { digest } => {
                out.push_str("{\"op\":\"gossip\",\"digest\":");
                digest.write_json(out);
            }
            Request::ClusterSnapshot => out.push_str("{\"op\":\"cluster-snapshot\""),
            Request::ScopedSnapshot { scope } => {
                out.push_str("{\"op\":\"cluster-snapshot\",\"scope\":");
                write_scope(scope, out);
            }
            Request::Prepare {
                name,
                computation,
                granularity,
                basis,
                epochs,
                ttl_ms,
            } => {
                out.push_str("{\"op\":\"prepare\",\"name\":");
                write_string(out, name);
                out.push_str(",\"computation\":");
                computation.write_json(out);
                out.push_str(",\"granularity\":");
                write_string(out, granularity.name());
                out.push_str(",\"basis\":");
                write_terms(out, basis);
                out.push_str(",\"epochs\":");
                write_epochs(out, epochs);
                out.push_str(",\"ttl_ms\":");
                write_number(out, *ttl_ms as f64);
            }
            Request::CommitReservation { name } => {
                out.push_str("{\"op\":\"commit-reservation\",\"name\":");
                write_string(out, name);
            }
            Request::AbortReservation { name } => {
                out.push_str("{\"op\":\"abort-reservation\",\"name\":");
                write_string(out, name);
            }
        }
        out.push('}');
    }
}

/// Every key a response carries, under any op, the keys of a decision
/// first. Only `accepted` has two types: a bool in a decision, a count
/// in stats.
const RESPONSE_KEYS: [&str; 25] = [
    "ok",
    "op",
    "computation",
    "accepted",
    "shard",
    "reason",
    "violated_term",
    "clause",
    "diagnostics",
    "name",
    "epochs",
    "resources",
    "released",
    "error",
    "version",
    "digest",
    "terms",
    "rejected",
    "completed",
    "missed",
    "withdrawn",
    "shards",
    "metrics",
    "epoch",
    "expected",
];

const OP: usize = index(&RESPONSE_KEYS, "op");
const COMPUTATION: usize = index(&RESPONSE_KEYS, "computation");
const ACCEPTED: usize = index(&RESPONSE_KEYS, "accepted");
const SHARD: usize = index(&RESPONSE_KEYS, "shard");
const REASON: usize = index(&RESPONSE_KEYS, "reason");
const VIOLATED_TERM: usize = index(&RESPONSE_KEYS, "violated_term");
const CLAUSE: usize = index(&RESPONSE_KEYS, "clause");
const DIAGNOSTICS: usize = index(&RESPONSE_KEYS, "diagnostics");
const NAME: usize = index(&RESPONSE_KEYS, "name");
const EPOCHS: usize = index(&RESPONSE_KEYS, "epochs");
const RESOURCES: usize = index(&RESPONSE_KEYS, "resources");
const RELEASED: usize = index(&RESPONSE_KEYS, "released");
const ERROR: usize = index(&RESPONSE_KEYS, "error");
const VERSION: usize = index(&RESPONSE_KEYS, "version");
const DIGEST: usize = index(&RESPONSE_KEYS, "digest");
const TERMS: usize = index(&RESPONSE_KEYS, "terms");
const REJECTED: usize = index(&RESPONSE_KEYS, "rejected");
const COMPLETED: usize = index(&RESPONSE_KEYS, "completed");
const MISSED: usize = index(&RESPONSE_KEYS, "missed");
const WITHDRAWN: usize = index(&RESPONSE_KEYS, "withdrawn");
const SHARDS: usize = index(&RESPONSE_KEYS, "shards");
const METRICS: usize = index(&RESPONSE_KEYS, "metrics");
const EPOCH: usize = index(&RESPONSE_KEYS, "epoch");
const EXPECTED: usize = index(&RESPONSE_KEYS, "expected");

/// Reads a decision's diagnostics: `null` or an array, kept as the
/// array's compact text.
fn read_diagnostics(reader: &mut Reader<'_>) -> Result<Result<Diagnostics, ()>, JsonError> {
    match reader.kind()? {
        Kind::Null => reader.null().map(|()| Ok(Diagnostics::default())),
        Kind::Arr => {
            let mut text = String::new();
            reader.compact(&mut text)?;
            Ok(Ok(Diagnostics::from_text(text)))
        }
        _ => reader.skip().map(|()| Err(())),
    }
}

impl Response {
    /// Reads a response's document.
    ///
    /// # Errors
    ///
    /// Where the value is malformed JSON.
    pub fn read_json(reader: &mut Reader<'_>) -> Read<Response> {
        let mut digest = None;
        let mut epochs = None;
        let mut resources = None;
        let mut diagnostics = None;
        let mut metrics = None;
        let object = reader.members(&RESPONSE_KEYS, |reader, i| {
            match i {
                DIAGNOSTICS => diagnostics = Some(read_diagnostics(reader)?),
                EPOCHS => epochs = Some(read_epochs(reader)?),
                RESOURCES => resources = Some(reader.tree()?),
                DIGEST => digest = Some(GossipDigest::read_json(reader)?),
                METRICS => metrics = Some(reader.tree()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let own = error_at(&"response");
        let Some(object) = object else {
            return Ok(Err(own("expected an object".into())));
        };
        let fields = Members::new(&RESPONSE_KEYS, &object);
        let count = |i: usize| fields.u64(i).map_err(&own);
        let string = |i: usize| fields.string(i).map_err(&own);
        let flag = |i: usize| {
            let value = fields.scalar(i).ok_or_else(|| own(fields.missing(i)))?;
            value
                .as_bool()
                .ok_or_else(|| own(format!("`{}` must be a bool", fields.key(i))))
        };
        let tree = |i: usize, tree: Option<Json>| tree.ok_or_else(|| own(fields.missing(i)));
        Ok(
            (|| match fields.unrepeated().and_then(|()| fields.text(OP)) {
                Err(detail) => Err(own(detail)),
                Ok("welcome") => Ok(Response::Welcome {
                    version: count(VERSION)?,
                }),
                Ok("pong") => Ok(Response::Pong),
                Ok("gossip-ack") => Ok(Response::GossipAck {
                    digest: digest.ok_or_else(|| own(fields.missing(DIGEST)))??,
                }),
                Ok("cluster-state") => Ok(Response::ClusterState {
                    epochs: fields
                        .list(EPOCHS, epochs)
                        .map_err(&own)?
                        .map_err(|()| own("`epochs` must be unsigned integers".into()))?,
                    resources: tree(RESOURCES, resources)?,
                }),
                Ok("prepared") => Ok(Response::Prepared {
                    name: string(NAME)?,
                }),
                Ok("committed") => Ok(Response::Committed {
                    name: string(NAME)?,
                }),
                Ok("aborted") => Ok(Response::Aborted {
                    name: string(NAME)?,
                    released: flag(RELEASED)?,
                }),
                Ok("decision") => Ok(Response::Decision {
                    computation: string(COMPUTATION)?,
                    accepted: flag(ACCEPTED)?,
                    shard: count(SHARD)? as usize,
                    reason: string(REASON)?,
                    violated_term: opt_str(&fields, VIOLATED_TERM)?,
                    clause: opt_str(&fields, CLAUSE)?,
                    diagnostics: diagnostics
                        .unwrap_or(Ok(Diagnostics::default()))
                        .map_err(|()| own("`diagnostics` must be an array".into()))?,
                }),
                Ok("offered") => Ok(Response::Offered {
                    terms: count(TERMS)?,
                }),
                Ok("stats") => Ok(Response::Stats {
                    stats: ControllerStats {
                        accepted: count(ACCEPTED)?,
                        rejected: count(REJECTED)?,
                        completed: count(COMPLETED)?,
                        missed: count(MISSED)?,
                        withdrawn: count(WITHDRAWN)?,
                    },
                    shards: count(SHARDS)? as usize,
                }),
                Ok("metrics") => Ok(Response::Metrics {
                    snapshot: tree(METRICS, metrics)?,
                }),
                Ok("bye") => Ok(Response::Bye),
                Ok("overloaded") => Ok(Response::Overloaded {
                    shard: count(SHARD)? as usize,
                }),
                Ok("stale-epoch") => Ok(Response::StaleEpoch {
                    shard: count(SHARD)? as usize,
                    epoch: count(EPOCH)?,
                    expected: count(EXPECTED)?,
                }),
                Ok("error") => Ok(Response::Error {
                    message: string(ERROR)?,
                }),
                Ok(other) => Err(own(format!("unknown op `{other}`"))),
            })(),
        )
    }

    /// Appends the response's compact JSON, `ok` and `op` first: the
    /// frame without its newline.
    pub fn write_json(&self, out: &mut String) {
        let named = |out: &mut String, head: &str, name: &str| {
            out.push_str(head);
            write_string(out, name);
        };
        match self {
            Response::Welcome { version } => {
                out.push_str("{\"ok\":true,\"op\":\"welcome\",\"version\":");
                write_number(out, *version as f64);
            }
            Response::Pong => out.push_str("{\"ok\":true,\"op\":\"pong\""),
            Response::GossipAck { digest } => {
                out.push_str("{\"ok\":true,\"op\":\"gossip-ack\",\"digest\":");
                digest.write_json(out);
            }
            Response::ClusterState { epochs, resources } => {
                out.push_str("{\"ok\":true,\"op\":\"cluster-state\",\"epochs\":");
                write_epochs(out, epochs);
                out.push_str(",\"resources\":");
                resources.write_compact(out);
            }
            Response::Prepared { name } => {
                named(out, "{\"ok\":true,\"op\":\"prepared\",\"name\":", name);
            }
            Response::Committed { name } => {
                named(out, "{\"ok\":true,\"op\":\"committed\",\"name\":", name);
            }
            Response::Aborted { name, released } => {
                named(out, "{\"ok\":true,\"op\":\"aborted\",\"name\":", name);
                out.push_str(if *released {
                    ",\"released\":true"
                } else {
                    ",\"released\":false"
                });
            }
            Response::Decision {
                computation,
                accepted,
                shard,
                reason,
                violated_term,
                clause,
                diagnostics,
            } => {
                named(
                    out,
                    "{\"ok\":true,\"op\":\"decision\",\"computation\":",
                    computation,
                );
                out.push_str(if *accepted {
                    ",\"accepted\":true,\"shard\":"
                } else {
                    ",\"accepted\":false,\"shard\":"
                });
                write_number(out, *shard as f64);
                named(out, ",\"reason\":", reason);
                for (head, text) in [
                    (",\"violated_term\":", violated_term),
                    (",\"clause\":", clause),
                ] {
                    out.push_str(head);
                    match text {
                        Some(text) => write_string(out, text),
                        None => out.push_str("null"),
                    }
                }
                if !diagnostics.is_empty() {
                    out.push_str(",\"diagnostics\":");
                    out.push_str(diagnostics.as_str());
                }
            }
            Response::Offered { terms } => {
                out.push_str("{\"ok\":true,\"op\":\"offered\",\"terms\":");
                write_number(out, *terms as f64);
            }
            Response::Stats { stats, shards } => {
                out.push_str("{\"ok\":true,\"op\":\"stats\"");
                for (head, count) in [
                    (",\"accepted\":", stats.accepted),
                    (",\"rejected\":", stats.rejected),
                    (",\"completed\":", stats.completed),
                    (",\"missed\":", stats.missed),
                    (",\"withdrawn\":", stats.withdrawn),
                    (",\"shards\":", *shards as u64),
                ] {
                    out.push_str(head);
                    write_number(out, count as f64);
                }
            }
            Response::Metrics { snapshot } => {
                out.push_str("{\"ok\":true,\"op\":\"metrics\",\"metrics\":");
                snapshot.write_compact(out);
            }
            Response::Bye => out.push_str("{\"ok\":true,\"op\":\"bye\""),
            Response::Overloaded { shard } => {
                out.push_str("{\"ok\":false,\"op\":\"overloaded\",\"shard\":");
                write_number(out, *shard as f64);
            }
            Response::StaleEpoch {
                shard,
                epoch,
                expected,
            } => {
                out.push_str("{\"ok\":false,\"op\":\"stale-epoch\",\"shard\":");
                write_number(out, *shard as f64);
                out.push_str(",\"epoch\":");
                write_number(out, *epoch as f64);
                out.push_str(",\"expected\":");
                write_number(out, *expected as f64);
            }
            Response::Error { message } => {
                named(out, "{\"ok\":false,\"op\":\"error\",\"error\":", message);
            }
        }
        out.push('}');
    }
}
