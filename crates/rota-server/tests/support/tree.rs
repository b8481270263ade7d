//! The tree decoders of the wire frames and of a spec file: the text
//! parsed whole into a [`Json`] tree, then decoded field by field with
//! [`Fields`]. They were the decoders before the text readers, and are
//! kept here, out of the shipped crates, as the readers' reference.
//! `rota-server/tests/properties.rs` (the differential properties),
//! `rota-client/tests/decode_corpus.rs` (the golden corpus and its
//! rewriter) and `rota-bench/benches/codec.rs` (E17's `tree` rows)
//! include this file with `#[path]`.

use rota_actor::Granularity;
use rota_admission::ControllerStats;
use rota_obs::Json;
use rota_server::protocol::{Diagnostics, GossipDigest, PeerBeat, Request, Response};
use rota_server::spec::{
    resources_from_json, scope_from_json, ComputationSpec, ConstraintSpec, Fields, SpecError,
    SpecModel,
};

/// Decodes a digest from its JSON object form.
///
/// # Errors
///
/// [`SpecError::Parse`] on schema violations.
pub fn digest_from_json(doc: &Json) -> Result<GossipDigest, SpecError> {
    let fields = Fields::of(doc, &"gossip digest")?;
    fields.deny_unknown(&["from", "seq", "beats"])?;
    let mut beats = Vec::new();
    for beat in fields.array("beats")? {
        let beat_fields = Fields::of(beat, &"gossip beat")?;
        beat_fields.deny_unknown(&["node", "seq"])?;
        beats.push(PeerBeat {
            node: beat_fields.str("node")?,
            seq: beat_fields.u64("seq")?,
        });
    }
    Ok(GossipDigest {
        from: fields.str("from")?,
        seq: fields.u64("seq")?,
        beats,
    })
}

/// Decodes a request from its JSON document form.
///
/// # Errors
///
/// [`SpecError::Parse`] on unknown ops or schema violations.
pub fn request_from_json(doc: &Json) -> Result<Request, SpecError> {
    let fields = Fields::of(doc, &"request")?;
    let op = fields.text("op")?;
    match op {
        "hello" => {
            fields.deny_unknown(&["op", "version", "node"])?;
            Ok(Request::Hello {
                version: fields.u64("version")?,
                node: opt_str(&fields, "node")?,
            })
        }
        "ping" => {
            fields.deny_unknown(&["op"])?;
            Ok(Request::Ping)
        }
        "admit" => {
            fields.deny_unknown(&["op", "computation", "granularity", "forwarded"])?;
            let computation = ComputationSpec::from_json(fields.required("computation")?)?;
            Ok(Request::Admit {
                computation,
                granularity: decode_granularity(&fields)?,
                forwarded: decode_forwarded(&fields)?,
            })
        }
        "offer" => {
            fields.deny_unknown(&["op", "resources", "forwarded"])?;
            Ok(Request::Offer {
                resources: resources_from_json(fields.array("resources")?)?,
                forwarded: decode_forwarded(&fields)?,
            })
        }
        "stats" => {
            fields.deny_unknown(&["op"])?;
            Ok(Request::Stats)
        }
        "metrics" => {
            fields.deny_unknown(&["op"])?;
            Ok(Request::Metrics)
        }
        "shutdown" => {
            fields.deny_unknown(&["op"])?;
            Ok(Request::Shutdown)
        }
        "gossip" => {
            fields.deny_unknown(&["op", "digest"])?;
            Ok(Request::Gossip {
                digest: digest_from_json(fields.required("digest")?)?,
            })
        }
        "cluster-snapshot" => {
            fields.deny_unknown(&["op", "scope"])?;
            Ok(match fields.optional("scope") {
                None => Request::ClusterSnapshot,
                Some(scope) => Request::ScopedSnapshot {
                    scope: scope_from_json(scope)?,
                },
            })
        }
        "prepare" => {
            fields.deny_unknown(&[
                "op",
                "name",
                "computation",
                "granularity",
                "basis",
                "epochs",
                "ttl_ms",
            ])?;
            let mut epochs = Vec::new();
            for epoch in fields.array("epochs")? {
                epochs.push(epoch.as_u64().ok_or_else(|| {
                    SpecError::Parse("request: `epochs` must be unsigned integers".into())
                })?);
            }
            Ok(Request::Prepare {
                name: fields.str("name")?,
                computation: ComputationSpec::from_json(fields.required("computation")?)?,
                granularity: decode_granularity(&fields)?,
                basis: resources_from_json(fields.array("basis")?)?,
                epochs,
                ttl_ms: fields.u64("ttl_ms")?,
            })
        }
        "commit-reservation" => {
            fields.deny_unknown(&["op", "name"])?;
            Ok(Request::CommitReservation {
                name: fields.str("name")?,
            })
        }
        "abort-reservation" => {
            fields.deny_unknown(&["op", "name"])?;
            Ok(Request::AbortReservation {
                name: fields.str("name")?,
            })
        }
        other => Err(SpecError::Parse(format!("request: unknown op `{other}`"))),
    }
}

/// Decodes a response from its JSON document form, moving a snapshot's
/// `resources`, a metrics snapshot and diagnostics out of it instead of
/// copying them.
///
/// # Errors
///
/// [`SpecError::Parse`] on unknown ops or schema violations.
pub fn response_from_json(mut doc: Json) -> Result<Response, SpecError> {
    let fields = Fields::of(&doc, &"response")?;
    let op = fields.text("op")?;
    match op {
        "welcome" => Ok(Response::Welcome {
            version: fields.u64("version")?,
        }),
        "pong" => Ok(Response::Pong),
        "gossip-ack" => Ok(Response::GossipAck {
            digest: digest_from_json(fields.required("digest")?)?,
        }),
        "cluster-state" => {
            let mut epochs = Vec::new();
            for epoch in fields.array("epochs")? {
                epochs.push(epoch.as_u64().ok_or_else(|| {
                    SpecError::Parse("response: `epochs` must be unsigned integers".into())
                })?);
            }
            fields.required("resources")?;
            Ok(Response::ClusterState {
                epochs,
                resources: take_field(&mut doc, "resources"),
            })
        }
        "prepared" => Ok(Response::Prepared {
            name: fields.str("name")?,
        }),
        "committed" => Ok(Response::Committed {
            name: fields.str("name")?,
        }),
        "aborted" => Ok(Response::Aborted {
            name: fields.str("name")?,
            released: fields
                .required("released")?
                .as_bool()
                .ok_or_else(|| SpecError::Parse("response: `released` must be a bool".into()))?,
        }),
        "decision" => Ok(Response::Decision {
            computation: fields.str("computation")?,
            accepted: fields
                .required("accepted")?
                .as_bool()
                .ok_or_else(|| SpecError::Parse("response: `accepted` must be a bool".into()))?,
            shard: fields.u64("shard")? as usize,
            reason: fields.str("reason")?,
            violated_term: opt_str(&fields, "violated_term")?,
            clause: opt_str(&fields, "clause")?,
            diagnostics: match take_field(&mut doc, "diagnostics") {
                Json::Null => Diagnostics::default(),
                Json::Arr(diagnostics) => diagnostics_from_trees(diagnostics),
                _ => {
                    return Err(SpecError::Parse(
                        "response: `diagnostics` must be an array".into(),
                    ))
                }
            },
        }),
        "offered" => Ok(Response::Offered {
            terms: fields.u64("terms")?,
        }),
        "stats" => Ok(Response::Stats {
            stats: ControllerStats {
                accepted: fields.u64("accepted")?,
                rejected: fields.u64("rejected")?,
                completed: fields.u64("completed")?,
                missed: fields.u64("missed")?,
                withdrawn: fields.u64("withdrawn")?,
            },
            shards: fields.u64("shards")? as usize,
        }),
        "metrics" => {
            fields.required("metrics")?;
            Ok(Response::Metrics {
                snapshot: take_field(&mut doc, "metrics"),
            })
        }
        "bye" => Ok(Response::Bye),
        "overloaded" => Ok(Response::Overloaded {
            shard: fields.u64("shard")? as usize,
        }),
        "stale-epoch" => Ok(Response::StaleEpoch {
            shard: fields.u64("shard")? as usize,
            epoch: fields.u64("epoch")?,
            expected: fields.u64("expected")?,
        }),
        "error" => Ok(Response::Error {
            message: fields.str("error")?,
        }),
        other => Err(SpecError::Parse(format!("response: unknown op `{other}`"))),
    }
}

/// Diagnostics given as trees, as the tree decoder reads them.
pub fn diagnostics_from_trees(trees: Vec<Json>) -> Diagnostics {
    if trees.is_empty() {
        return Diagnostics::default();
    }
    Diagnostics::from_text(Json::Arr(trees).to_string())
}

/// Moves field `key` out of the object `doc`, leaving `null` behind;
/// `null` when there is no such field.
fn take_field(doc: &mut Json, key: &str) -> Json {
    match doc {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(name, _)| name == key)
            .map_or(Json::Null, |(_, value)| {
                std::mem::replace(value, Json::Null)
            }),
        _ => Json::Null,
    }
}

fn opt_str(fields: &Fields<'_>, key: &str) -> Result<Option<String>, SpecError> {
    match fields.optional(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| SpecError::Parse(format!("`{key}` must be a string or null"))),
    }
}

fn decode_granularity(fields: &Fields<'_>) -> Result<Granularity, SpecError> {
    let Some(value) = fields.optional("granularity") else {
        return Ok(Granularity::MaximalRun);
    };
    let name = value.as_str();
    name.and_then(Granularity::from_name)
        .ok_or_else(|| SpecError::Parse(format!("request: unknown granularity {name:?}")))
}

fn decode_forwarded(fields: &Fields<'_>) -> Result<bool, SpecError> {
    match fields.optional("forwarded") {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| SpecError::Parse("request: `forwarded` must be a bool".into())),
    }
}

/// Parses a spec file from JSON text into a tree, then decodes it.
///
/// # Errors
///
/// [`SpecError::Parse`] on malformed JSON, unknown fields, missing
/// fields, or wrong value types.
pub fn spec_model_from_json(text: &str) -> Result<SpecModel, SpecError> {
    let doc = Json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?;
    let fields = Fields::of(&doc, &"spec")?;
    fields.deny_unknown(&["resources", "computation", "constraints"])?;
    let constraints = match fields.optional("constraints") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| SpecError::Parse("spec: `constraints` must be an array".into()))?
            .iter()
            .enumerate()
            .map(|(i, c)| decode_constraint(c, i))
            .collect::<Result<_, _>>()?,
    };
    Ok(SpecModel {
        resources: resources_from_json(fields.array("resources")?)?,
        computation: ComputationSpec::from_json(fields.required("computation")?)?,
        constraints,
    })
}

fn decode_constraint(value: &Json, index: usize) -> Result<ConstraintSpec, SpecError> {
    let ctx = format!("constraints[{index}]");
    let fields = Fields::of(value, &ctx)?;
    fields.deny_unknown(&["left", "rel", "right"])?;
    let rel = fields
        .array("rel")?
        .iter()
        .map(|r| {
            r.as_str().map(str::to_string).ok_or_else(|| {
                SpecError::Parse(format!(
                    "{ctx}: `rel` entries must be relation-name strings"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(ConstraintSpec {
        left: fields.str("left")?,
        rel,
        right: fields.str("right")?,
    })
}
