//! The spec model and its JSON codec: the one written form of the
//! paper's objects — a resource term `[r]^τ_ξ` and a computation
//! `(Λ, s, d)` — shared by spec files, the wire protocol and the lints.
//!
//! The types hold declarations as written, before any library type
//! swallows or rejects them. Lints need to see *invalid* content
//! (empty intervals, inverted windows, zero rates) that
//! `ResourceSet`/`DistributedComputation` refuse to represent, so the
//! model keeps raw numbers and converts on demand: strictly through
//! [`resource_set`] and [`ComputationSpec::build`], leniently through
//! [`SpecModel::theta`].
//!
//! Decoding is hand-rolled (the build is offline, so there is no
//! serde; see `shims/README.md`) and is strict like a
//! `deny_unknown_fields` serde derive: unknown or duplicate keys,
//! missing fields, and wrong types are all [`SpecError::Parse`] errors
//! naming the offending field. Spec files and frames are read straight
//! from their text ([`SpecModel::from_json`], [`read_resources`],
//! [`ComputationSpec::read_json`], [`read_scope`]) and written straight
//! into it (`write_json`, [`write_scope`]): one codec per shape.
//!
//! One per-field [`Json`] pair is left: [`resource_set_to_json`] and
//! [`ResourceSpec::to_json`] encode a resource list as a tree, and
//! [`resources_from_json`] decodes one over [`Fields`], because a
//! `cluster-state` answer carries its Θ_expire as a [`Json`] array that
//! a two-phase commit builds and decodes on every snapshot.
//! [`ComputationSpec::from_json`] and [`computation_to_json`] keep
//! their signatures as bridges over the text codec, for the benchmark
//! harness; the tree forms of computations and scopes are kept in the
//! test support as the codec's reference.
//!
//! A spec file describes a system's resource terms and one
//! deadline-constrained computation:
//!
//! ```json
//! {
//!   "resources": [
//!     { "kind": "cpu", "location": "l1", "rate": 4, "start": 0, "end": 20 },
//!     { "kind": "network", "from": "l1", "to": "l2", "rate": 4, "start": 0, "end": 20 }
//!   ],
//!   "computation": {
//!     "name": "report-job",
//!     "start": 0,
//!     "deadline": 20,
//!     "actors": [
//!       { "name": "worker", "origin": "l1", "actions": [
//!         { "do": "evaluate" },
//!         { "do": "evaluate", "work": 12 },
//!         { "do": "send", "to": "collector", "dest": "l2" },
//!         { "do": "create", "child": "helper" },
//!         { "do": "ready" },
//!         { "do": "migrate", "dest": "l2" }
//!       ] }
//!     ]
//!   }
//! }
//! ```

use std::fmt;

mod text;

pub use text::{
    error_at, read_document, read_list, read_resources, read_scope, write_scope, Listed, Members,
    Read,
};

use rota_actor::{ActionKind, ActorComputation, DistributedComputation};
use rota_interval::{TimeInterval, TimePoint};
use rota_obs::json::Key;
use rota_obs::Json;
use rota_resource::{
    LocatedType, Location, NodeResourceKind, Quantity, Rate, ResourceSet, ResourceTerm,
};

/// One declared resource term, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSpec {
    /// The located type `⟨kind, location⟩` the term supplies.
    pub located: LocatedType,
    /// Units per tick, as declared (may be zero).
    pub rate: u64,
    /// Inclusive start tick.
    pub start: u64,
    /// Exclusive end tick (may not follow `start`; that is lint R0001).
    pub end: u64,
}

/// One action of an actor, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionSpec {
    /// `evaluate(e)`; optional explicit `work` CPU units.
    Evaluate {
        /// Optional explicit CPU amount.
        work: Option<u64>,
    },
    /// `send(to, m)` where `to` resides at `dest`.
    Send {
        /// Recipient actor name.
        to: String,
        /// Recipient's location.
        dest: String,
        /// Message size factor (default 1).
        size: u64,
    },
    /// `create(child)`.
    Create {
        /// Child actor name.
        child: String,
    },
    /// `ready(b)`.
    Ready,
    /// `migrate(dest)`.
    Migrate {
        /// Destination location.
        dest: String,
    },
}

/// One actor, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorSpec {
    /// Actor name (globally unique).
    pub name: String,
    /// Starting location.
    pub origin: String,
    /// Action sequence.
    pub actions: Vec<ActionSpec>,
}

/// The computation `(Λ, s, d)`, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationSpec {
    /// Identifying name.
    pub name: String,
    /// Earliest start tick `s`.
    pub start: u64,
    /// Deadline tick `d` (may not follow `s`; that is lint R0003).
    pub deadline: u64,
    /// Participating actors.
    pub actors: Vec<ActorSpec>,
}

/// A declared Allen-interval constraint between two spec entities.
///
/// Entities are referenced by path: `"computation"` (the start/deadline
/// window) or `"resources[i]"` (the i-th term's interval). `rel` names
/// the allowed relations (`before`, `meets`, `during`, …); the
/// constraint pass checks satisfiability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintSpec {
    /// Left entity reference, e.g. `resources[0]`.
    pub left: String,
    /// Allowed Allen relation names, e.g. `["before", "meets"]`.
    pub rel: Vec<String>,
    /// Right entity reference, e.g. `computation`.
    pub right: String,
}

/// A whole spec file, as the analyzer sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecModel {
    /// Declared resource terms.
    pub resources: Vec<ResourceSpec>,
    /// The deadline-constrained computation.
    pub computation: ComputationSpec,
    /// Declared temporal constraints (optional; empty when absent).
    pub constraints: Vec<ConstraintSpec>,
}

/// Spec-level errors with user-facing messages.
#[derive(Debug)]
pub enum SpecError {
    /// JSON syntax or schema problem.
    Parse(String),
    /// Semantically invalid content (empty interval, bad window, …).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec parse error: {e}"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A decoded JSON object, checked field-by-field so unknown and
/// duplicate keys are rejected like serde's `deny_unknown_fields`.
/// Every error names `ctx`, the object's place in the document, which
/// is formatted only into an error.
pub struct Fields<'a> {
    ctx: &'a dyn fmt::Display,
    pairs: &'a [(Key, Json)],
}

/// Objects of up to this many keys are checked for a repeated key pair
/// by pair, which allocates nothing; larger ones by sorting.
const PAIRWISE_KEYS: usize = 16;

/// The key of the first pair whose key an earlier pair already has, in
/// O(k log k) for `k` pairs.
fn first_repeated_key(pairs: &[(Key, Json)]) -> Option<&Key> {
    let key = |i: usize| &pairs[i].0;
    if pairs.len() <= PAIRWISE_KEYS {
        return (0..pairs.len())
            .find(|&i| (0..i).any(|j| key(j) == key(i)))
            .map(key);
    }
    // Sorted by key, then position, every pair after the first of its
    // run of equal keys repeats one; the first repeat is the least.
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
    order
        .windows(2)
        .filter(|w| key(w[0]) == key(w[1]))
        .map(|w| w[1])
        .min()
        .map(key)
}

impl<'a> Fields<'a> {
    /// Views `value` as an object.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when it is not an object or repeats a key.
    pub fn of(value: &'a Json, ctx: &'a dyn fmt::Display) -> Result<Self, SpecError> {
        let pairs = value
            .as_object()
            .ok_or_else(|| SpecError::Parse(format!("{ctx}: expected an object")))?;
        if let Some(key) = first_repeated_key(pairs) {
            return Err(SpecError::Parse(format!("{ctx}: duplicate field `{key}`")));
        }
        Ok(Fields { ctx, pairs })
    }

    /// Refuses any key outside `allowed`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] naming the first unknown key.
    pub fn deny_unknown(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.pairs {
            if !allowed.iter().any(|name| key == name) {
                return Err(SpecError::Parse(format!(
                    "{}: unknown field `{key}`, expected one of {allowed:?}",
                    self.ctx
                )));
            }
        }
        Ok(())
    }

    /// The value under `key`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when the key is absent.
    pub fn required(&self, key: &str) -> Result<&'a Json, SpecError> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| SpecError::Parse(format!("{}: missing field `{key}`", self.ctx)))
    }

    /// The value under `key`, when present.
    pub fn optional(&self, key: &str) -> Option<&'a Json> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when absent or not a string.
    pub fn str(&self, key: &str) -> Result<String, SpecError> {
        self.text(key).map(str::to_string)
    }

    /// The string under `key`, borrowed from the document.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when absent or not a string.
    pub fn text(&self, key: &str) -> Result<&'a str, SpecError> {
        self.required(key)?.as_str().ok_or_else(|| {
            SpecError::Parse(format!("{}: field `{key}` must be a string", self.ctx))
        })
    }

    /// The non-negative integer under `key`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when absent or not an integer
    /// [`Json::as_u64`] reads exactly.
    pub fn u64(&self, key: &str) -> Result<u64, SpecError> {
        self.u64_opt(key)?
            .ok_or_else(|| SpecError::Parse(format!("{}: missing field `{key}`", self.ctx)))
    }

    /// The non-negative integer under `key`, when present.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when present but not an integer
    /// [`Json::as_u64`] reads exactly.
    pub fn u64_opt(&self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.optional(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                SpecError::Parse(format!(
                    "{}: field `{key}` must be a non-negative integer",
                    self.ctx
                ))
            }),
        }
    }

    /// The array under `key`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] when absent or not an array.
    pub fn array(&self, key: &str) -> Result<&'a [Json], SpecError> {
        self.required(key)?.as_array().ok_or_else(|| {
            SpecError::Parse(format!("{}: field `{key}` must be an array", self.ctx))
        })
    }
}

/// Where an element of a list sits in the document — `resources[2]`,
/// or ``actor `w` actions[1]`` for an actor's action.
struct At<'a> {
    actor: Option<&'a str>,
    list: &'static str,
    index: usize,
}

impl<'a> At<'a> {
    fn element(list: &'static str, index: usize) -> Self {
        At {
            actor: None,
            list,
            index,
        }
    }
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(actor) = self.actor {
            write!(f, "actor `{actor}` ")?;
        }
        write!(f, "{}[{}]", self.list, self.index)
    }
}

/// The locations a list of terms names, each allocated once: a basis
/// names a handful of locations across dozens of terms.
#[derive(Default)]
pub struct Locations(Vec<Location>);

impl Locations {
    /// How many distinct locations are kept for reuse.
    const KEPT: usize = 16;

    fn get(&mut self, name: &str) -> Location {
        if let Some(known) = self.0.iter().find(|l| l.name() == name) {
            return known.clone();
        }
        let location = Location::new(name);
        if self.0.len() < Self::KEPT {
            self.0.push(location.clone());
        }
        location
    }
}

fn decode_resource(
    value: &Json,
    index: usize,
    locations: &mut Locations,
) -> Result<ResourceSpec, SpecError> {
    let ctx = At::element("resources", index);
    let fields = Fields::of(value, &ctx)?;
    let located = decode_located(
        &fields,
        &ctx,
        locations,
        &["kind", "location", "rate", "start", "end"],
        &["kind", "from", "to", "rate", "start", "end"],
    )?;
    Ok(ResourceSpec {
        located,
        rate: fields.u64("rate")?,
        start: fields.u64("start")?,
        end: fields.u64("end")?,
    })
}

/// The located type of a term-shaped object: `kind` with `location`,
/// or `network` with `from` and `to`. A node kind's object may carry
/// only `node_keys`, a link's only `link_keys`. Public for the tree
/// decoder of a scope that the test support keeps as the reference of
/// [`read_scope`].
///
/// # Errors
///
/// [`SpecError::Parse`] naming `ctx` and the first violation.
pub fn decode_located(
    fields: &Fields<'_>,
    ctx: &dyn fmt::Display,
    locations: &mut Locations,
    node_keys: &[&str],
    link_keys: &[&str],
) -> Result<LocatedType, SpecError> {
    let kind = fields.text("kind")?;
    match kind {
        "cpu" | "memory" => {
            fields.deny_unknown(node_keys)?;
            let location = locations.get(fields.text("location")?);
            Ok(if kind == "cpu" {
                LocatedType::cpu(location)
            } else {
                LocatedType::memory(location)
            })
        }
        "network" => {
            fields.deny_unknown(link_keys)?;
            let from = locations.get(fields.text("from")?);
            Ok(LocatedType::network(
                from,
                locations.get(fields.text("to")?),
            ))
        }
        other => Err(SpecError::Parse(format!(
            "{ctx}: unknown resource kind `{other}`, expected `cpu`, `memory`, or `network`"
        ))),
    }
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

/// Decodes a list of resource specs from a JSON array.
///
/// # Errors
///
/// [`SpecError::Parse`] on schema violations.
pub fn resources_from_json(values: &[Json]) -> Result<Vec<ResourceSpec>, SpecError> {
    let mut locations = Locations::default();
    values
        .iter()
        .enumerate()
        .map(|(i, r)| decode_resource(r, i, &mut locations))
        .collect()
}

/// Converts decoded resource specs into a library [`ResourceSet`]:
/// every interval is checked in spec order first, then the set is built
/// in one pass ([`ResourceSet::from_terms`]).
///
/// # Errors
///
/// [`SpecError::Invalid`] for empty intervals or rate overflow.
pub fn resource_set(specs: &[ResourceSpec]) -> Result<ResourceSet, SpecError> {
    let terms = specs
        .iter()
        .map(|r| {
            let interval = TimeInterval::from_ticks(r.start, r.end)
                .map_err(|e| SpecError::Invalid(format!("resource {}: {e}", r.located)))?;
            Ok(ResourceTerm::new(
                Rate::new(r.rate),
                interval,
                r.located.clone(),
            ))
        })
        .collect::<Result<Vec<_>, SpecError>>()?;
    ResourceSet::from_terms(terms).map_err(|e| SpecError::Invalid(e.to_string()))
}

/// The spec form of a [`ResourceSet`], term by term through
/// [`ResourceSpec::from_term`]: what a `cluster-state` answer carries,
/// so every participant of a two-phase commit decides on the same
/// basis whether its slice crossed a socket or not.
///
/// Terms of node kinds the spec cannot name (`disk`, custom) have no
/// wire form and are left out; a basis missing supply can only make an
/// admission decision more conservative.
pub fn resource_specs(theta: &ResourceSet) -> Vec<ResourceSpec> {
    theta
        .to_terms()
        .iter()
        .filter_map(|term| ResourceSpec::from_term(term).ok())
        .collect()
}

/// Serializes a [`ResourceSet`] as the spec's `resources` array: the
/// [`resource_specs`] of the set, each through [`ResourceSpec::to_json`].
pub fn resource_set_to_json(theta: &ResourceSet) -> Json {
    Json::Arr(
        resource_specs(theta)
            .iter()
            .map(ResourceSpec::to_json)
            .collect(),
    )
}

/// Any library term as written, including node kinds with no JSON form
/// (see [`ResourceSpec::from_term`]).
impl From<&ResourceTerm> for ResourceSpec {
    fn from(term: &ResourceTerm) -> Self {
        ResourceSpec {
            located: term.located().clone(),
            rate: term.rate().units_per_tick(),
            start: term.interval().start().ticks(),
            end: term.interval().end().ticks(),
        }
    }
}

impl ResourceSpec {
    /// The spec form of a library term that the JSON format can name.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] for node kinds other than `cpu` and
    /// `memory`, which the spec cannot name.
    pub fn from_term(term: &ResourceTerm) -> Result<ResourceSpec, SpecError> {
        match term.located() {
            LocatedType::Node { kind, .. }
                if !matches!(kind, NodeResourceKind::Cpu | NodeResourceKind::Memory) =>
            {
                Err(SpecError::Invalid(format!(
                    "resource kind `{}` has no spec form",
                    kind.label()
                )))
            }
            _ => Ok(ResourceSpec::from(term)),
        }
    }

    /// The declared interval, when non-empty.
    pub fn interval(&self) -> Option<TimeInterval> {
        TimeInterval::from_ticks(self.start, self.end).ok()
    }

    /// The validated library term, when the interval is non-empty.
    pub fn to_term(&self) -> Option<ResourceTerm> {
        self.interval()
            .map(|iv| ResourceTerm::new(Rate::new(self.rate), iv, self.located.clone()))
    }

    /// Encodes the term as the object [`resources_from_json`] decodes.
    /// A node kind the spec cannot name is written under its label,
    /// which the decoder refuses.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::with_capacity(6);
        located_pairs(&self.located, &mut pairs);
        pairs.push(("rate".into(), Json::Num(self.rate as f64)));
        pairs.push(("start".into(), Json::Num(self.start as f64)));
        pairs.push(("end".into(), Json::Num(self.end as f64)));
        Json::Obj(pairs)
    }
}

impl ActionSpec {
    fn from_kind(kind: &ActionKind) -> Self {
        match kind {
            ActionKind::Evaluate { work } => ActionSpec::Evaluate {
                work: work.map(|q| q.units()),
            },
            ActionKind::Send { to, dest, size } => ActionSpec::Send {
                to: to.as_str().to_owned(),
                dest: dest.name().to_string(),
                size: *size,
            },
            ActionKind::Create { child } => ActionSpec::Create {
                child: child.as_str().to_owned(),
            },
            ActionKind::Ready => ActionSpec::Ready,
            ActionKind::Migrate { dest } => ActionSpec::Migrate {
                dest: dest.name().to_string(),
            },
        }
    }

    fn to_kind(&self) -> ActionKind {
        match self {
            ActionSpec::Evaluate { work } => ActionKind::Evaluate {
                work: work.map(Quantity::new),
            },
            ActionSpec::Send { to, dest, size } => ActionKind::Send {
                to: to.as_str().into(),
                dest: Location::new(dest),
                size: *size,
            },
            ActionSpec::Create { child } => ActionKind::create(child.as_str()),
            ActionSpec::Ready => ActionKind::Ready,
            ActionSpec::Migrate { dest } => ActionKind::migrate(dest.as_str()),
        }
    }
}

impl From<&DistributedComputation> for ComputationSpec {
    fn from(lambda: &DistributedComputation) -> Self {
        ComputationSpec {
            name: lambda.name().to_string(),
            start: lambda.start().ticks(),
            deadline: lambda.deadline().ticks(),
            actors: lambda
                .actors()
                .iter()
                .map(|gamma| ActorSpec {
                    name: gamma.actor().as_str().to_owned(),
                    origin: gamma.origin().name().to_string(),
                    actions: gamma.actions().iter().map(ActionSpec::from_kind).collect(),
                })
                .collect(),
        }
    }
}

impl ComputationSpec {
    /// Decodes a computation spec from its JSON object form: the
    /// tree's compact text read with [`ComputationSpec::read_json`], so
    /// the value and every error are the text codec's. A bridge that
    /// exists for admbench until ROADMAP item 10; no shipped path calls
    /// it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on schema violations.
    pub fn from_json(value: &Json) -> Result<Self, SpecError> {
        read_document(&value.to_string(), ComputationSpec::read_json)
    }

    /// Converts the spec into a library [`DistributedComputation`].
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when the deadline does not follow the
    /// start.
    pub fn build(&self) -> Result<DistributedComputation, SpecError> {
        let actors = self
            .actors
            .iter()
            .map(|a| {
                let mut gamma = ActorComputation::new(a.name.as_str(), a.origin.as_str());
                for action in &a.actions {
                    gamma.push(action.to_kind());
                }
                gamma
            })
            .collect();
        DistributedComputation::new(
            self.name.as_str(),
            actors,
            TimePoint::new(self.start),
            TimePoint::new(self.deadline),
        )
        .map_err(|e| SpecError::Invalid(e.to_string()))
    }
}

/// Serializes a [`DistributedComputation`] as the spec's `computation`
/// object: its [`ComputationSpec`] written with the text codec, then
/// parsed. A bridge that exists for admbench until ROADMAP item 10; no
/// shipped path calls it.
pub fn computation_to_json(lambda: &DistributedComputation) -> Json {
    let mut text = String::new();
    ComputationSpec::from(lambda).write_json(&mut text);
    // PANIC-OK: a computation is written four levels deep, as JSON.
    Json::parse(&text).expect("a written computation parses")
}

impl SpecModel {
    /// Builds a model from validated library types (no constraints) —
    /// the path `rota-workload` uses.
    pub fn from_parts(terms: &[ResourceTerm], lambda: &DistributedComputation) -> Self {
        SpecModel {
            resources: terms.iter().map(ResourceSpec::from).collect(),
            computation: ComputationSpec::from(lambda),
            constraints: Vec::new(),
        }
    }

    /// The declared supply as a [`ResourceSet`], skipping declarations
    /// whose interval is empty (those already carry lint R0001).
    pub fn theta(&self) -> ResourceSet {
        let mut theta = ResourceSet::new();
        for decl in &self.resources {
            if let Some(term) = decl.to_term() {
                // Insertion only fails on rate overflow; the overflowing
                // declaration is skipped and surfaces through capacity
                // lints instead of a panic.
                let _ = theta.insert(term);
            }
        }
        theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "resources": [
            { "kind": "cpu", "location": "l1", "rate": 4, "start": 0, "end": 20 },
            { "kind": "memory", "location": "l1", "rate": 2, "start": 0, "end": 20 },
            { "kind": "network", "from": "l1", "to": "l2", "rate": 4, "start": 0, "end": 20 }
        ],
        "computation": {
            "name": "job",
            "start": 0,
            "deadline": 20,
            "actors": [
                { "name": "worker", "origin": "l1", "actions": [
                    { "do": "evaluate" },
                    { "do": "evaluate", "work": 12 },
                    { "do": "send", "to": "peer", "dest": "l2", "size": 2 },
                    { "do": "create", "child": "helper" },
                    { "do": "ready" },
                    { "do": "migrate", "dest": "l2" }
                ] }
            ]
        }
    }"#;

    #[test]
    fn parses_and_converts_sample() {
        let spec = SpecModel::from_json(SAMPLE).unwrap();
        let theta = resource_set(&spec.resources).unwrap();
        assert_eq!(theta.located_types().count(), 3);
        let lambda = spec.computation.build().unwrap();
        assert_eq!(lambda.name(), "job");
        assert_eq!(lambda.action_count(), 6);
        assert_eq!(lambda.deadline(), TimePoint::new(20));
    }

    #[test]
    fn rejects_unknown_fields() {
        let bad = r#"{ "resources": [], "computation": {
            "name": "x", "start": 0, "deadline": 1, "actors": [], "bogus": true } }"#;
        assert!(matches!(
            SpecModel::from_json(bad),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn rejects_missing_and_mistyped_fields() {
        let missing = r#"{ "resources": [ { "kind": "cpu", "location": "l1", "rate": 1, "start": 0 } ],
             "computation": { "name": "x", "start": 0, "deadline": 1, "actors": [] } }"#;
        let err = SpecModel::from_json(missing).unwrap_err();
        assert!(err.to_string().contains("missing field `end`"), "{err}");

        let mistyped = r#"{ "resources": [],
             "computation": { "name": "x", "start": -1, "deadline": 1, "actors": [] } }"#;
        assert!(matches!(
            SpecModel::from_json(mistyped),
            Err(SpecError::Parse(_))
        ));

        let duplicate = r#"{ "resources": [], "resources": [],
             "computation": { "name": "x", "start": 0, "deadline": 1, "actors": [] } }"#;
        let err = SpecModel::from_json(duplicate).unwrap_err();
        assert!(err.to_string().contains("duplicate field"), "{err}");
    }

    /// The sorting check names the same key as comparing each key with
    /// every earlier one, on objects below and above the pairwise size,
    /// with and without repeats.
    #[test]
    fn repeated_key_check_matches_the_pairwise_one() {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for case in 0..2_000 {
            let len = case % 48;
            let alphabet = 1 + case % 97;
            let pairs: Vec<(Key, Json)> = (0..len)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (
                        Key::from(format!("k{}", seed % alphabet as u64)),
                        Json::Null,
                    )
                })
                .collect();
            let pairwise = (0..pairs.len())
                .find(|&i| pairs[..i].iter().any(|(k, _)| *k == pairs[i].0))
                .map(|i| &pairs[i].0);
            assert_eq!(first_repeated_key(&pairs), pairwise, "{pairs:?}");
        }
    }

    #[test]
    fn constraint_errors_name_the_constraint() {
        let spec = r#"{ "resources": [],
             "computation": { "name": "x", "start": 0, "deadline": 1, "actors": [] },
             "constraints": [
                 { "left": "computation", "rel": ["before"], "right": "computation" },
                 { "left": "computation", "rel": ["before", 3], "right": "computation" } ] }"#;
        assert_eq!(
            SpecModel::from_json(spec).unwrap_err().to_string(),
            "spec parse error: constraints[1]: `rel` entries must be relation-name strings"
        );
    }

    #[test]
    fn rejects_empty_interval_and_bad_window() {
        let spec = SpecModel::from_json(
            r#"{ "resources": [ { "kind": "cpu", "location": "l1", "rate": 1, "start": 5, "end": 5 } ],
                 "computation": { "name": "x", "start": 0, "deadline": 1, "actors": [] } }"#,
        )
        .unwrap();
        assert!(matches!(
            resource_set(&spec.resources),
            Err(SpecError::Invalid(_))
        ));

        let spec = SpecModel::from_json(
            r#"{ "resources": [],
                 "computation": { "name": "x", "start": 5, "deadline": 5, "actors": [] } }"#,
        )
        .unwrap();
        let err = spec.computation.build().unwrap_err();
        assert!(err.to_string().contains("invalid spec"));
    }

    #[test]
    fn default_send_size_is_one() {
        let spec = SpecModel::from_json(
            r#"{ "resources": [],
                 "computation": { "name": "x", "start": 0, "deadline": 5, "actors": [
                    { "name": "a", "origin": "l1", "actions": [
                        { "do": "send", "to": "b", "dest": "l2" } ] } ] } }"#,
        )
        .unwrap();
        let lambda = spec.computation.build().unwrap();
        match &lambda.actors()[0].actions()[0] {
            ActionKind::Send { size, .. } => assert_eq!(*size, 1),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn computation_encoder_round_trips() {
        let lambda = SpecModel::from_json(SAMPLE)
            .unwrap()
            .computation
            .build()
            .unwrap();
        let encoded = computation_to_json(&lambda);
        let decoded = ComputationSpec::from_json(&encoded)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(lambda, decoded);
        // And once more through the wire form: still identical.
        let again = ComputationSpec::from_json(&computation_to_json(&decoded))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(lambda, again);
    }

    #[test]
    fn resource_encoder_round_trips() {
        let theta = resource_set(&SpecModel::from_json(SAMPLE).unwrap().resources).unwrap();
        let encoded = resource_set_to_json(&theta);
        let decoded =
            resource_set(&resources_from_json(encoded.as_array().unwrap()).unwrap()).unwrap();
        assert!(theta.dominates(&decoded) && decoded.dominates(&theta));
    }

    #[test]
    fn kinds_without_a_spec_form_are_refused_or_left_out() {
        let disk = ResourceTerm::new(
            Rate::new(2),
            TimeInterval::from_ticks(0, 8).unwrap(),
            LocatedType::Node {
                kind: NodeResourceKind::Disk,
                location: Location::new("l1"),
            },
        );
        assert!(matches!(
            ResourceSpec::from_term(&disk),
            Err(SpecError::Invalid(_))
        ));
        let mut theta = resource_set(&SpecModel::from_json(SAMPLE).unwrap().resources).unwrap();
        let without_disk = resource_set_to_json(&theta).to_string();
        theta.insert(disk).unwrap();
        assert_eq!(resource_set_to_json(&theta).to_string(), without_disk);
    }

    /// Integers past 2^53 − 1 have neighbours with the same `f64`, so
    /// the codec refuses them instead of reading a rounded value.
    #[test]
    fn integers_past_the_exact_range_are_refused() {
        let resource = |end: &str| {
            format!(r#"{{ "kind": "cpu", "location": "l1", "rate": 1, "start": 0, "end": {end} }}"#)
        };
        let doc = Json::parse(&format!("[{}]", resource("9007199254740991"))).unwrap();
        let decoded = resources_from_json(doc.as_array().unwrap()).unwrap();
        assert_eq!(decoded[0].end, 9_007_199_254_740_991);
        for end in ["9007199254740993", "18446744073709551616"] {
            let doc = Json::parse(&format!("[{}]", resource(end))).unwrap();
            let err = resources_from_json(doc.as_array().unwrap()).unwrap_err();
            assert_eq!(
                err.to_string(),
                "spec parse error: resources[0]: field `end` must be a non-negative integer"
            );
        }
        let doc = Json::parse(
            r#"{ "name": "x", "start": 0, "deadline": 9007199254740995, "actors": [] }"#,
        )
        .unwrap();
        let err = ComputationSpec::from_json(&doc).unwrap_err();
        assert_eq!(
            err.to_string(),
            "spec parse error: computation: field `deadline` must be a non-negative integer"
        );
    }
}
