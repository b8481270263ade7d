//! The spec types' text codec: a spec file, a computation, a list of
//! resource terms and a scope read straight from a [`Reader`] into
//! their types, and written straight into a `String`, with no
//! [`rota_obs::Json`] tree between. It is the one codec spec files and
//! frames run.
//!
//! A reader reads every member of an object before it judges one, then
//! makes its checks in a fixed order, so fields may come in any order
//! and the error reported is the first a strict field-by-field decoder
//! meets: a repeated key, then an unknown one, then each field in the
//! order the type lists them. [`resources_from_json`] words every
//! error the same way; the test support keeps a tree decoder of the
//! whole spec file, of a computation, of a scope and of every frame as
//! the readers' reference.
//!
//! [`resources_from_json`]: super::resources_from_json

use std::fmt;

use rota_logic::Scope;
use rota_obs::json::{write_number, write_string, JsonError, Kind, Object, Reader, Scalar};
use rota_resource::LocatedType;

use super::{
    ActionSpec, ActorSpec, At, ComputationSpec, ConstraintSpec, Locations, ResourceSpec, SpecError,
    SpecModel,
};

/// What a typed reader makes of one value: a syntax error (outer) ends
/// the whole document, a schema error (inner) only this value. A frame
/// decoder reports a syntax error anywhere in the frame before any
/// schema error, as parsing the whole tree first does.
pub type Read<T> = Result<Result<T, SpecError>, JsonError>;

/// An object a typed reader has read, with the key table it was read
/// with. Its checks are [`Fields`](super::Fields)'s, and each error is
/// the text that follows the object's `ctx: ` prefix.
pub struct Members<'o, 'a, const N: usize> {
    keys: &'o [&'o str; N],
    object: &'o Object<'a, N>,
}

impl<'o, 'a, const N: usize> Members<'o, 'a, N> {
    /// `object`, read with `keys`.
    pub fn new(keys: &'o [&'o str; N], object: &'o Object<'a, N>) -> Self {
        Members { keys, object }
    }

    /// Refuses a repeated key, as [`Fields::of`](super::Fields::of)
    /// does.
    ///
    /// # Errors
    ///
    /// The first repeated key.
    pub fn unrepeated(&self) -> Result<(), String> {
        match self.object.repeated() {
            Some(key) => Err(format!("duplicate field `{key}`")),
            None => Ok(()),
        }
    }

    /// Refuses a key outside `allowed`, as
    /// [`Fields::deny_unknown`](super::Fields::deny_unknown) does.
    ///
    /// # Errors
    ///
    /// The first such key.
    pub fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.object.first_outside(self.keys, allowed) {
            Some(key) => Err(format!(
                "unknown field `{key}`, expected one of {allowed:?}"
            )),
            None => Ok(()),
        }
    }

    /// Both checks in their order: no repeated key, and none outside
    /// the table.
    ///
    /// # Errors
    ///
    /// The first violation.
    pub fn strict(&self) -> Result<(), String> {
        self.unrepeated()?;
        match self.object.unknown() {
            Some(key) => Err(format!(
                "unknown field `{key}`, expected one of {:?}",
                self.keys
            )),
            None => Ok(()),
        }
    }

    /// Key `i`.
    pub fn key(&self, i: usize) -> &'o str {
        self.keys[i]
    }

    /// The list under key `i`, which the caller read with
    /// [`read_list`]; the errors of its elements are left to the
    /// caller.
    ///
    /// # Errors
    ///
    /// When it is absent or not an array.
    pub fn list<T, E>(&self, i: usize, list: Listed<T, E>) -> Result<Result<Vec<T>, E>, String> {
        match list {
            None => Err(self.missing(i)),
            Some(None) => Err(format!("field `{}` must be an array", self.keys[i])),
            Some(Some(items)) => Ok(items),
        }
    }

    /// The error for key `i` being absent.
    pub fn missing(&self, i: usize) -> String {
        format!("missing field `{}`", self.keys[i])
    }

    /// The scalar under key `i`, when present and not read by the
    /// caller.
    pub fn scalar(&self, i: usize) -> Option<&'o Scalar<'a>> {
        self.object.scalar(i)
    }

    /// The string under key `i`, borrowed.
    ///
    /// # Errors
    ///
    /// When it is absent or not a string.
    pub fn text(&self, i: usize) -> Result<&'o str, String> {
        let value = self.scalar(i).ok_or_else(|| self.missing(i))?;
        value
            .as_str()
            .ok_or_else(|| format!("field `{}` must be a string", self.keys[i]))
    }

    /// The string under key `i`.
    ///
    /// # Errors
    ///
    /// When it is absent or not a string.
    pub fn string(&self, i: usize) -> Result<String, String> {
        self.text(i).map(str::to_owned)
    }

    /// The non-negative integer under key `i`, when present.
    ///
    /// # Errors
    ///
    /// When it is present but not an integer `Json::as_u64` reads.
    pub fn u64_opt(&self, i: usize) -> Result<Option<u64>, String> {
        self.scalar(i)
            .map(|value| {
                value.as_u64().ok_or_else(|| {
                    format!("field `{}` must be a non-negative integer", self.keys[i])
                })
            })
            .transpose()
    }

    /// The non-negative integer under key `i`.
    ///
    /// # Errors
    ///
    /// When it is absent or not an integer `Json::as_u64` reads.
    pub fn u64(&self, i: usize) -> Result<u64, String> {
        self.u64_opt(i)?.ok_or_else(|| self.missing(i))
    }
}

/// Reads one whole document with `read`: the first syntax error
/// anywhere in it, trailing bytes included, before any schema error, as
/// parsing the whole tree first reports it.
///
/// # Errors
///
/// [`SpecError::Parse`] on malformed JSON or schema violations.
pub fn read_document<T>(
    text: &str,
    read: impl FnOnce(&mut Reader<'_>) -> Read<T>,
) -> Result<T, SpecError> {
    let mut reader = Reader::new(text);
    let decoded = read(&mut reader).and_then(|value| reader.finish().map(|()| value));
    decoded.map_err(|err| SpecError::Parse(err.to_string()))?
}

/// The error of an object at `ctx`, from its text after the prefix.
pub fn error_at(ctx: &dyn fmt::Display) -> impl Fn(String) -> SpecError + '_ {
    move |detail| SpecError::Parse(format!("{ctx}: {detail}"))
}

/// Reads an array with `item`, handed each element's index, keeping
/// the elements up to the first error; the rest are only skipped.
/// `None`, with the value skipped, when the value is not an array.
///
/// # Errors
///
/// Where the array is malformed.
pub fn read_list<'a, T, E>(
    reader: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>, usize) -> Result<Result<T, E>, JsonError>,
) -> Result<Option<Result<Vec<T>, E>>, JsonError> {
    if reader.kind()? != Kind::Arr {
        reader.skip()?;
        return Ok(None);
    }
    let mut items = Vec::new();
    let mut failed = None;
    let mut more = reader.array()?;
    while more {
        if failed.is_none() {
            match item(reader, items.len())? {
                Ok(value) => items.push(value),
                Err(err) => failed = Some(err),
            }
        } else {
            reader.skip()?;
        }
        more = reader.next_item()?;
    }
    Ok(Some(failed.map_or(Ok(items), Err)))
}

/// The list under a key a reader read itself, with [`read_list`]:
/// absent, not an array, or the list read.
pub type Listed<T, E> = Option<Option<Result<Vec<T>, E>>>;

const COMPUTATION_KEYS: [&str; 4] = ["name", "start", "deadline", "actors"];
const ACTOR_KEYS: [&str; 3] = ["name", "origin", "actions"];
const ACTION_KEYS: [&str; 6] = ["do", "work", "to", "dest", "size", "child"];

impl ComputationSpec {
    /// Reads a computation's object, strictly: an unknown or repeated
    /// key, a missing field or a mistyped one is an error naming it.
    ///
    /// # Errors
    ///
    /// Where the value is malformed JSON.
    pub fn read_json(reader: &mut Reader<'_>) -> Read<ComputationSpec> {
        let mut actors = None;
        let object = reader.members(&COMPUTATION_KEYS, |reader, i| {
            if i != 3 {
                return Ok(false);
            }
            actors = Some(read_list(reader, read_actor)?);
            Ok(true)
        })?;
        let own = error_at(&"computation");
        let Some(object) = object else {
            return Ok(Err(own("expected an object".into())));
        };
        let fields = Members::new(&COMPUTATION_KEYS, &object);
        Ok((|| {
            fields.strict().map_err(&own)?;
            Ok(ComputationSpec {
                name: fields.string(0).map_err(&own)?,
                start: fields.u64(1).map_err(&own)?,
                deadline: fields.u64(2).map_err(&own)?,
                actors: fields.list(3, actors).map_err(&own)??,
            })
        })())
    }

    /// Appends the computation's compact JSON: its fields in the order
    /// the type lists them, and a send's `size` always.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_string(out, &self.name);
        out.push_str(",\"start\":");
        write_number(out, self.start as f64);
        out.push_str(",\"deadline\":");
        write_number(out, self.deadline as f64);
        out.push_str(",\"actors\":[");
        for (i, actor) in self.actors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(out, &actor.name);
            out.push_str(",\"origin\":");
            write_string(out, &actor.origin);
            out.push_str(",\"actions\":[");
            for (j, action) in actor.actions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                action.write_json(out);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
}

fn read_actor(reader: &mut Reader<'_>, index: usize) -> Read<ActorSpec> {
    let mut actions = None;
    let object = reader.members(&ACTOR_KEYS, |reader, i| {
        if i != 2 {
            return Ok(false);
        }
        actions = Some(read_list(reader, |reader, j| {
            Ok(read_action(reader)?.map_err(|detail| (j, detail)))
        })?);
        Ok(true)
    })?;
    let ctx = At::element("actors", index);
    let own = error_at(&ctx);
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&ACTOR_KEYS, &object);
    Ok((|| {
        fields.strict().map_err(&own)?;
        let name = fields.string(0).map_err(&own)?;
        // An action's errors name its actor, whose name may follow it.
        let actions = fields
            .list(2, actions)
            .map_err(&own)?
            .map_err(|(j, detail)| {
                let ctx = At {
                    actor: Some(&name),
                    list: "actions",
                    index: j,
                };
                SpecError::Parse(format!("{ctx}: {detail}"))
            })?;
        Ok(ActorSpec {
            origin: fields.string(1).map_err(&own)?,
            actions,
            name,
        })
    })())
}

/// An action, its errors as their text after the action's place.
fn read_action(reader: &mut Reader<'_>) -> Result<Result<ActionSpec, String>, JsonError> {
    let Some(object) = reader.members(&ACTION_KEYS, |_, _| Ok(false))? else {
        return Ok(Err("expected an object".into()));
    };
    let fields = Members::new(&ACTION_KEYS, &object);
    Ok((|| {
        fields.unrepeated()?;
        match fields.text(0)? {
            "evaluate" => {
                fields.only(&["do", "work"])?;
                Ok(ActionSpec::Evaluate {
                    work: fields.u64_opt(1)?,
                })
            }
            "send" => {
                fields.only(&["do", "to", "dest", "size"])?;
                Ok(ActionSpec::Send {
                    to: fields.string(2)?,
                    dest: fields.string(3)?,
                    size: fields.u64_opt(4)?.unwrap_or(1),
                })
            }
            "create" => {
                fields.only(&["do", "child"])?;
                Ok(ActionSpec::Create {
                    child: fields.string(5)?,
                })
            }
            "ready" => {
                fields.only(&["do"])?;
                Ok(ActionSpec::Ready)
            }
            "migrate" => {
                fields.only(&["do", "dest"])?;
                Ok(ActionSpec::Migrate {
                    dest: fields.string(3)?,
                })
            }
            other => Err(format!(
                "unknown action `{other}`, expected `evaluate`, `send`, `create`, `ready`, or `migrate`"
            )),
        }
    })())
}

impl ActionSpec {
    /// Appends the action's compact JSON: `do`, then its fields.
    fn write_json(&self, out: &mut String) {
        match self {
            ActionSpec::Evaluate { work: None } => out.push_str("{\"do\":\"evaluate\"}"),
            ActionSpec::Evaluate { work: Some(work) } => {
                out.push_str("{\"do\":\"evaluate\",\"work\":");
                write_number(out, *work as f64);
                out.push('}');
            }
            ActionSpec::Send { to, dest, size } => {
                out.push_str("{\"do\":\"send\",\"to\":");
                write_string(out, to);
                out.push_str(",\"dest\":");
                write_string(out, dest);
                out.push_str(",\"size\":");
                write_number(out, *size as f64);
                out.push('}');
            }
            ActionSpec::Create { child } => {
                out.push_str("{\"do\":\"create\",\"child\":");
                write_string(out, child);
                out.push('}');
            }
            ActionSpec::Ready => out.push_str("{\"do\":\"ready\"}"),
            ActionSpec::Migrate { dest } => {
                out.push_str("{\"do\":\"migrate\",\"dest\":");
                write_string(out, dest);
                out.push('}');
            }
        }
    }
}

const SCOPE_KEYS: [&str; 3] = ["types", "start", "end"];
const LOCATED_KEYS: [&str; 4] = ["kind", "location", "from", "to"];
/// A term's keys: [`LOCATED_KEYS`], then its rate and window.
const RESOURCE_KEYS: [&str; 7] = ["kind", "location", "from", "to", "rate", "start", "end"];

/// Reads the object [`write_scope`] writes, as strictly as a term: an
/// unknown key, an unknown kind, a tick that is not a non-negative
/// integer or an empty window is an error.
///
/// # Errors
///
/// Where the value is malformed JSON.
pub fn read_scope(reader: &mut Reader<'_>) -> Read<Scope> {
    let mut locations = Locations::default();
    let mut types = None;
    let object = reader.members(&SCOPE_KEYS, |reader, i| {
        if i != 0 {
            return Ok(false);
        }
        types = Some(read_list(reader, |reader, index| {
            read_located(reader, index, &mut locations)
        })?);
        Ok(true)
    })?;
    let own = error_at(&"scope");
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&SCOPE_KEYS, &object);
    Ok((|| {
        fields.strict().map_err(&own)?;
        let types = fields.list(0, types).map_err(&own)??;
        let (start, end) = (fields.u64(1).map_err(&own)?, fields.u64(2).map_err(&own)?);
        let window = rota_interval::TimeInterval::from_ticks(start, end)
            .map_err(|_| own(format!("`end` ({end}) must follow `start` ({start})")))?;
        Ok(Scope::new(types, window))
    })())
}

/// One of a scope's located types, as a term names it.
fn read_located(
    reader: &mut Reader<'_>,
    index: usize,
    locations: &mut Locations,
) -> Read<LocatedType> {
    let object = reader.members(&LOCATED_KEYS, |_, _| Ok(false))?;
    let ctx = At::element("scope types", index);
    let own = error_at(&ctx);
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&LOCATED_KEYS, &object);
    Ok((|| {
        fields.unrepeated()?;
        located(
            &fields,
            locations,
            &["kind", "location"],
            &["kind", "from", "to"],
        )
    })()
    .map_err(own))
}

/// The located type of a term-shaped object read with a table that
/// starts with [`LOCATED_KEYS`]: `kind` with `location`, or `network`
/// with `from` and `to`. A node kind's object may carry only
/// `node_keys`, a link's only `link_keys`.
fn located<const N: usize>(
    fields: &Members<'_, '_, N>,
    locations: &mut Locations,
    node_keys: &[&str],
    link_keys: &[&str],
) -> Result<LocatedType, String> {
    match fields.text(0)? {
        kind @ ("cpu" | "memory") => {
            fields.only(node_keys)?;
            let location = locations.get(fields.text(1)?);
            Ok(if kind == "cpu" {
                LocatedType::cpu(location)
            } else {
                LocatedType::memory(location)
            })
        }
        "network" => {
            fields.only(link_keys)?;
            let from = locations.get(fields.text(2)?);
            Ok(LocatedType::network(from, locations.get(fields.text(3)?)))
        }
        other => Err(format!(
            "unknown resource kind `{other}`, expected `cpu`, `memory`, or `network`"
        )),
    }
}

/// Reads a list of resource terms, as
/// [`resources_from_json`](super::resources_from_json) decodes one,
/// as strictly and with the same errors; the locations the terms name
/// are allocated once for the list. `None`, with the value skipped,
/// when the value is not an array.
///
/// # Errors
///
/// Where the value is malformed JSON.
pub fn read_resources(
    reader: &mut Reader<'_>,
) -> Result<Option<Result<Vec<ResourceSpec>, SpecError>>, JsonError> {
    let mut locations = Locations::default();
    read_list(reader, |reader, index| {
        read_resource(reader, index, &mut locations)
    })
}

fn read_resource(
    reader: &mut Reader<'_>,
    index: usize,
    locations: &mut Locations,
) -> Read<ResourceSpec> {
    let object = reader.members(&RESOURCE_KEYS, |_, _| Ok(false))?;
    let ctx = At::element("resources", index);
    let own = error_at(&ctx);
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&RESOURCE_KEYS, &object);
    Ok((|| {
        fields.unrepeated()?;
        let located = located(
            &fields,
            locations,
            &["kind", "location", "rate", "start", "end"],
            &["kind", "from", "to", "rate", "start", "end"],
        )?;
        Ok(ResourceSpec {
            located,
            rate: fields.u64(4)?,
            start: fields.u64(5)?,
            end: fields.u64(6)?,
        })
    })()
    .map_err(own))
}

const SPEC_KEYS: [&str; 3] = ["resources", "computation", "constraints"];
const CONSTRAINT_KEYS: [&str; 3] = ["left", "rel", "right"];

impl SpecModel {
    /// Parses a spec file from JSON text, reading it straight into the
    /// model. The constraints are checked first, then the resources,
    /// then the computation.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed JSON, unknown fields, missing
    /// fields, or wrong value types.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        read_document(text, read_spec)
    }
}

fn read_spec(reader: &mut Reader<'_>) -> Read<SpecModel> {
    let (mut resources, mut computation, mut constraints) = (None, None, None);
    let object = reader.members(&SPEC_KEYS, |reader, i| {
        match i {
            0 => resources = Some(read_resources(reader)?),
            1 => computation = Some(ComputationSpec::read_json(reader)?),
            _ => constraints = Some(read_list(reader, read_constraint)?),
        }
        Ok(true)
    })?;
    let own = error_at(&"spec");
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&SPEC_KEYS, &object);
    Ok((|| {
        fields.strict().map_err(&own)?;
        let constraints = match constraints {
            None => Vec::new(),
            Some(None) => return Err(own("`constraints` must be an array".into())),
            Some(Some(constraints)) => constraints?,
        };
        Ok(SpecModel {
            resources: fields.list(0, resources).map_err(&own)??,
            computation: computation.ok_or_else(|| own(fields.missing(1)))??,
            constraints,
        })
    })())
}

fn read_constraint(reader: &mut Reader<'_>, index: usize) -> Read<ConstraintSpec> {
    let mut rel = None;
    let object = reader.members(&CONSTRAINT_KEYS, |reader, i| {
        if i != 1 {
            return Ok(false);
        }
        rel = Some(read_list(reader, |reader, _| {
            Ok(reader.scalar()?.as_str().map(str::to_owned).ok_or(()))
        })?);
        Ok(true)
    })?;
    let ctx = At::element("constraints", index);
    let own = error_at(&ctx);
    let Some(object) = object else {
        return Ok(Err(own("expected an object".into())));
    };
    let fields = Members::new(&CONSTRAINT_KEYS, &object);
    Ok((|| {
        fields.strict()?;
        let rel = fields
            .list(1, rel)?
            .map_err(|()| "`rel` entries must be relation-name strings".to_string())?;
        Ok(ConstraintSpec {
            left: fields.string(0)?,
            rel,
            right: fields.string(2)?,
        })
    })()
    .map_err(own))
}

/// Appends the members that name `located`, as a term or a scope
/// writes them, after an object's `{`.
fn write_located(located: &LocatedType, out: &mut String) {
    match located {
        LocatedType::Node { kind, location } => {
            out.push_str("\"kind\":");
            write_string(out, kind.label());
            out.push_str(",\"location\":");
            write_string(out, location.name());
        }
        LocatedType::Link { from, to } => {
            out.push_str("\"kind\":\"network\",\"from\":");
            write_string(out, from.name());
            out.push_str(",\"to\":");
            write_string(out, to.name());
        }
    }
}

impl ResourceSpec {
    /// Appends the compact JSON [`ResourceSpec::to_json`] writes.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        write_located(&self.located, out);
        out.push_str(",\"rate\":");
        write_number(out, self.rate as f64);
        out.push_str(",\"start\":");
        write_number(out, self.start as f64);
        out.push_str(",\"end\":");
        write_number(out, self.end as f64);
        out.push('}');
    }
}

/// Appends `scope`'s compact JSON: its located types, each written as
/// a term names it without `rate`, `start` and `end`, and its window
/// as `start` and `end` ticks.
///
/// ```json
/// {"types":[{"kind":"cpu","location":"l1"},{"kind":"network","from":"l1","to":"l2"}],"start":4,"end":20}
/// ```
pub fn write_scope(scope: &Scope, out: &mut String) {
    out.push_str("{\"types\":[");
    for (i, located) in scope.types().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        write_located(located, out);
        out.push('}');
    }
    out.push_str("],\"start\":");
    write_number(out, scope.window().start().ticks() as f64);
    out.push_str(",\"end\":");
    write_number(out, scope.window().end().ticks() as f64);
    out.push('}');
}
