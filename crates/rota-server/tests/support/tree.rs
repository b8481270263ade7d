//! The tree forms of the wire frames and of a spec file: the text
//! parsed whole into a [`Json`] tree, then decoded field by field with
//! [`Fields`], and each value encoded field by field into a tree. They
//! were the codecs before the text readers and writers, and are kept
//! here, out of the shipped crates, as the text codec's reference: the
//! same values, the same bytes and the same error texts.
//! `rota-server/tests/properties.rs` (the differential properties),
//! `rota-client/tests/decode_corpus.rs` (the golden corpus and its
//! rewriter) and `rota-bench/benches/codec.rs` (E17's `tree` rows)
//! include this file with `#[path]`. The resource-list pair
//! (`ResourceSpec::to_json`, `resources_from_json`) stays shipped for
//! the `cluster-state` answer, so it is used from there.

use rota_actor::Granularity;
use rota_admission::ControllerStats;
use rota_interval::TimeInterval;
use rota_logic::Scope;
use rota_obs::json::Key;
use rota_obs::Json;
use rota_resource::LocatedType;
use rota_server::protocol::{Diagnostics, GossipDigest, PeerBeat, Request, Response};
use rota_server::spec::{
    decode_located, resources_from_json, ActionSpec, ActorSpec, ComputationSpec, ConstraintSpec,
    Fields, Locations, ResourceSpec, SpecError, SpecModel,
};

// ---------------------------------------------------------------------
// encoders
// ---------------------------------------------------------------------

/// The digest as a JSON object.
pub fn digest_to_json(digest: &GossipDigest) -> Json {
    Json::Obj(vec![
        ("from".into(), Json::Str(digest.from.clone())),
        ("seq".into(), Json::Num(digest.seq as f64)),
        (
            "beats".into(),
            Json::Arr(
                digest
                    .beats
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("node".into(), Json::Str(b.node.clone())),
                            ("seq".into(), Json::Num(b.seq as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The request as a single-line JSON document.
pub fn request_to_json(request: &Request) -> Json {
    match request {
        Request::Hello { version, node } => op_obj(
            "hello",
            [("version".into(), Json::Num(*version as f64))]
                .into_iter()
                .chain(
                    node.as_ref()
                        .map(|node| ("node".into(), Json::Str(node.clone()))),
                ),
        ),
        Request::Ping => op_obj("ping", []),
        Request::Admit {
            computation,
            granularity,
            forwarded,
        } => op_obj(
            "admit",
            [
                ("computation".into(), computation_to_json(computation)),
                ("granularity".into(), Json::Str(granularity.name().into())),
            ]
            .into_iter()
            .chain(forwarded_flag(*forwarded)),
        ),
        Request::Offer {
            resources,
            forwarded,
        } => op_obj(
            "offer",
            [(
                "resources".into(),
                Json::Arr(resources.iter().map(ResourceSpec::to_json).collect()),
            )]
            .into_iter()
            .chain(forwarded_flag(*forwarded)),
        ),
        Request::Stats => op_obj("stats", []),
        Request::Metrics => op_obj("metrics", []),
        Request::Shutdown => op_obj("shutdown", []),
        Request::Gossip { digest } => op_obj("gossip", [("digest".into(), digest_to_json(digest))]),
        Request::ClusterSnapshot => op_obj("cluster-snapshot", []),
        Request::ScopedSnapshot { scope } => {
            op_obj("cluster-snapshot", [("scope".into(), scope_to_json(scope))])
        }
        Request::Prepare {
            name,
            computation,
            granularity,
            basis,
            epochs,
            ttl_ms,
        } => op_obj(
            "prepare",
            [
                ("name".into(), Json::Str(name.clone())),
                ("computation".into(), computation_to_json(computation)),
                ("granularity".into(), Json::Str(granularity.name().into())),
                (
                    "basis".into(),
                    Json::Arr(basis.iter().map(ResourceSpec::to_json).collect()),
                ),
                (
                    "epochs".into(),
                    Json::Arr(epochs.iter().map(|e| Json::Num(*e as f64)).collect()),
                ),
                ("ttl_ms".into(), Json::Num(*ttl_ms as f64)),
            ],
        ),
        Request::CommitReservation { name } => op_obj(
            "commit-reservation",
            [("name".into(), Json::Str(name.clone()))],
        ),
        Request::AbortReservation { name } => op_obj(
            "abort-reservation",
            [("name".into(), Json::Str(name.clone()))],
        ),
    }
}

/// The response as a single-line JSON document; a copy of
/// [`response_into_json`].
pub fn response_to_json(response: &Response) -> Json {
    response_into_json(response.clone())
}

/// The response as a single-line JSON document, moving its strings and
/// documents (a snapshot's `resources`, a metrics snapshot,
/// diagnostics) into it instead of copying them.
pub fn response_into_json(response: Response) -> Json {
    match response {
        Response::Welcome { version } => answer(
            true,
            "welcome",
            [("version".into(), Json::Num(version as f64))],
        ),
        Response::Pong => answer(true, "pong", []),
        Response::GossipAck { digest } => answer(
            true,
            "gossip-ack",
            [("digest".into(), digest_to_json(&digest))],
        ),
        Response::ClusterState { epochs, resources } => answer(
            true,
            "cluster-state",
            [
                (
                    "epochs".into(),
                    Json::Arr(epochs.into_iter().map(|e| Json::Num(e as f64)).collect()),
                ),
                ("resources".into(), resources),
            ],
        ),
        Response::Prepared { name } => answer(true, "prepared", [("name".into(), Json::Str(name))]),
        Response::Committed { name } => {
            answer(true, "committed", [("name".into(), Json::Str(name))])
        }
        Response::Aborted { name, released } => answer(
            true,
            "aborted",
            [
                ("name".into(), Json::Str(name)),
                ("released".into(), Json::Bool(released)),
            ],
        ),
        Response::Decision {
            computation,
            accepted,
            shard,
            reason,
            violated_term,
            clause,
            diagnostics,
        } => answer(
            true,
            "decision",
            [
                ("computation".into(), Json::Str(computation)),
                ("accepted".into(), Json::Bool(accepted)),
                ("shard".into(), Json::Num(shard as f64)),
                ("reason".into(), Json::Str(reason)),
                (
                    "violated_term".into(),
                    violated_term.map_or(Json::Null, Json::Str),
                ),
                ("clause".into(), clause.map_or(Json::Null, Json::Str)),
            ]
            .into_iter()
            .chain(
                (!diagnostics.is_empty())
                    .then(|| ("diagnostics".into(), Json::Arr(diagnostics.parse()))),
            ),
        ),
        Response::Offered { terms } => {
            answer(true, "offered", [("terms".into(), Json::Num(terms as f64))])
        }
        Response::Stats { stats, shards } => answer(
            true,
            "stats",
            [
                ("accepted".into(), Json::Num(stats.accepted as f64)),
                ("rejected".into(), Json::Num(stats.rejected as f64)),
                ("completed".into(), Json::Num(stats.completed as f64)),
                ("missed".into(), Json::Num(stats.missed as f64)),
                ("withdrawn".into(), Json::Num(stats.withdrawn as f64)),
                ("shards".into(), Json::Num(shards as f64)),
            ],
        ),
        Response::Metrics { snapshot } => answer(true, "metrics", [("metrics".into(), snapshot)]),
        Response::Bye => answer(true, "bye", []),
        Response::Overloaded { shard } => answer(
            false,
            "overloaded",
            [("shard".into(), Json::Num(shard as f64))],
        ),
        Response::StaleEpoch {
            shard,
            epoch,
            expected,
        } => answer(
            false,
            "stale-epoch",
            [
                ("shard".into(), Json::Num(shard as f64)),
                ("epoch".into(), Json::Num(epoch as f64)),
                ("expected".into(), Json::Num(expected as f64)),
            ],
        ),
        Response::Error { message } => {
            answer(false, "error", [("error".into(), Json::Str(message))])
        }
    }
}

/// The `forwarded` flag's pair, present only when the flag is set.
fn forwarded_flag(forwarded: bool) -> Option<(Key, Json)> {
    forwarded.then(|| ("forwarded".into(), Json::Bool(true)))
}

/// A request: `op`, then `rest`, built in one allocation.
fn op_obj(op: &str, rest: impl IntoIterator<Item = (Key, Json)>) -> Json {
    tagged(None, op, rest.into_iter())
}

/// A response: `ok`, `op`, then `rest`, built in one allocation.
fn answer(ok: bool, op: &str, rest: impl IntoIterator<Item = (Key, Json)>) -> Json {
    tagged(Some(ok), op, rest.into_iter())
}

fn tagged(ok: Option<bool>, op: &str, rest: impl Iterator<Item = (Key, Json)>) -> Json {
    let (fewest, most) = rest.size_hint();
    let mut pairs = Vec::with_capacity(usize::from(ok.is_some()) + 1 + most.unwrap_or(fewest));
    if let Some(ok) = ok {
        pairs.push(("ok".into(), Json::Bool(ok)));
    }
    pairs.push(("op".into(), Json::Str(op.into())));
    pairs.extend(rest);
    Json::Obj(pairs)
}

/// The computation as the object [`computation_from_json`] decodes —
/// field for field, so even a spec that does not build (deadline not
/// after start) survives intact; a copy of [`computation_into_json`].
pub fn computation_to_json(computation: &ComputationSpec) -> Json {
    computation_into_json(computation.clone())
}

/// The computation as [`computation_to_json`] encodes it, moving its
/// strings into the document instead of copying them.
pub fn computation_into_json(computation: ComputationSpec) -> Json {
    let actors = computation
        .actors
        .into_iter()
        .map(|a| {
            Json::Obj(vec![
                ("name".into(), Json::Str(a.name)),
                ("origin".into(), Json::Str(a.origin)),
                (
                    "actions".into(),
                    Json::Arr(a.actions.into_iter().map(action_into_json).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(computation.name)),
        ("start".into(), Json::Num(computation.start as f64)),
        ("deadline".into(), Json::Num(computation.deadline as f64)),
        ("actors".into(), Json::Arr(actors)),
    ])
}

fn action_into_json(action: ActionSpec) -> Json {
    let verb = |name: &str| ("do".into(), Json::Str(name.into()));
    let text = |key: &'static str, value: String| (key.into(), Json::Str(value));
    Json::Obj(match action {
        ActionSpec::Evaluate { work: None } => vec![verb("evaluate")],
        ActionSpec::Evaluate { work: Some(work) } => {
            vec![verb("evaluate"), ("work".into(), Json::Num(work as f64))]
        }
        ActionSpec::Send { to, dest, size } => vec![
            verb("send"),
            text("to", to),
            text("dest", dest),
            ("size".into(), Json::Num(size as f64)),
        ],
        ActionSpec::Create { child } => vec![verb("create"), text("child", child)],
        ActionSpec::Ready => vec![verb("ready")],
        ActionSpec::Migrate { dest } => vec![verb("migrate"), text("dest", dest)],
    })
}

/// Writes `located`'s `kind` and location keys, as a term names them.
fn located_pairs(located: &LocatedType, pairs: &mut Vec<(Key, Json)>) {
    match located {
        LocatedType::Node { kind, location } => {
            pairs.push(("kind".into(), Json::Str(kind.label().into())));
            pairs.push(("location".into(), Json::Str(location.name().into())));
        }
        LocatedType::Link { from, to } => {
            pairs.push(("kind".into(), Json::Str("network".into())));
            pairs.push(("from".into(), Json::Str(from.name().into())));
            pairs.push(("to".into(), Json::Str(to.name().into())));
        }
    }
}

/// A [`Scope`] as the object [`scope_from_json`] decodes: its located
/// types, each written as a term names it without `rate`, `start` and
/// `end`, and its window as `start` and `end` ticks.
pub fn scope_to_json(scope: &Scope) -> Json {
    let types = scope
        .types()
        .iter()
        .map(|located| {
            let mut pairs = Vec::with_capacity(3);
            located_pairs(located, &mut pairs);
            Json::Obj(pairs)
        })
        .collect();
    Json::Obj(vec![
        ("types".into(), Json::Arr(types)),
        (
            "start".into(),
            Json::Num(scope.window().start().ticks() as f64),
        ),
        ("end".into(), Json::Num(scope.window().end().ticks() as f64)),
    ])
}

// ---------------------------------------------------------------------
// decoders
// ---------------------------------------------------------------------

/// Decodes the object [`scope_to_json`] writes, as strictly as a term:
/// an unknown key, an unknown kind, a tick that is not a non-negative
/// integer or an empty window is an error.
///
/// # Errors
///
/// [`SpecError::Parse`] naming the first violation.
pub fn scope_from_json(value: &Json) -> Result<Scope, SpecError> {
    let fields = Fields::of(value, &"scope")?;
    fields.deny_unknown(&["types", "start", "end"])?;
    let mut locations = Locations::default();
    let types = fields
        .array("types")?
        .iter()
        .enumerate()
        .map(|(index, value)| {
            let ctx = format!("scope types[{index}]");
            decode_located(
                &Fields::of(value, &ctx)?,
                &ctx,
                &mut locations,
                &["kind", "location"],
                &["kind", "from", "to"],
            )
        })
        .collect::<Result<Vec<_>, SpecError>>()?;
    let (start, end) = (fields.u64("start")?, fields.u64("end")?);
    let window = TimeInterval::from_ticks(start, end).map_err(|_| {
        SpecError::Parse(format!(
            "scope: `end` ({end}) must follow `start` ({start})"
        ))
    })?;
    Ok(Scope::new(types, window))
}

/// Decodes a computation spec from its JSON object form.
///
/// # Errors
///
/// [`SpecError::Parse`] on schema violations.
pub fn computation_from_json(value: &Json) -> Result<ComputationSpec, SpecError> {
    let fields = Fields::of(value, &"computation")?;
    fields.deny_unknown(&["name", "start", "deadline", "actors"])?;
    Ok(ComputationSpec {
        name: fields.str("name")?,
        start: fields.u64("start")?,
        deadline: fields.u64("deadline")?,
        actors: fields
            .array("actors")?
            .iter()
            .enumerate()
            .map(|(i, a)| decode_actor(a, i))
            .collect::<Result<_, _>>()?,
    })
}

fn decode_actor(value: &Json, index: usize) -> Result<ActorSpec, SpecError> {
    let ctx = format!("actors[{index}]");
    let fields = Fields::of(value, &ctx)?;
    fields.deny_unknown(&["name", "origin", "actions"])?;
    let name = fields.str("name")?;
    let actions = fields
        .array("actions")?
        .iter()
        .enumerate()
        .map(|(i, a)| decode_action(a, &name, i))
        .collect::<Result<_, _>>()?;
    Ok(ActorSpec {
        origin: fields.str("origin")?,
        actions,
        name,
    })
}

fn decode_action(value: &Json, actor: &str, index: usize) -> Result<ActionSpec, SpecError> {
    let ctx = format!("actor `{actor}` actions[{index}]");
    let fields = Fields::of(value, &ctx)?;
    let verb = fields.text("do")?;
    match verb {
        "evaluate" => {
            fields.deny_unknown(&["do", "work"])?;
            Ok(ActionSpec::Evaluate {
                work: fields.u64_opt("work")?,
            })
        }
        "send" => {
            fields.deny_unknown(&["do", "to", "dest", "size"])?;
            Ok(ActionSpec::Send {
                to: fields.str("to")?,
                dest: fields.str("dest")?,
                size: fields.u64_opt("size")?.unwrap_or(1),
            })
        }
        "create" => {
            fields.deny_unknown(&["do", "child"])?;
            Ok(ActionSpec::Create {
                child: fields.str("child")?,
            })
        }
        "ready" => {
            fields.deny_unknown(&["do"])?;
            Ok(ActionSpec::Ready)
        }
        "migrate" => {
            fields.deny_unknown(&["do", "dest"])?;
            Ok(ActionSpec::Migrate {
                dest: fields.str("dest")?,
            })
        }
        other => Err(SpecError::Parse(format!(
            "{ctx}: unknown action `{other}`, expected `evaluate`, `send`, `create`, `ready`, or `migrate`"
        ))),
    }
}

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
            let computation = computation_from_json(fields.required("computation")?)?;
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
                computation: computation_from_json(fields.required("computation")?)?,
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
        computation: computation_from_json(fields.required("computation")?)?,
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
