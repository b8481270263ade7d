//! Cluster topology: which node owns which locations.
//!
//! A topology is a static assignment of every location to exactly one
//! node. Ownership is the routing key for the whole federation: an
//! admission request lands wherever the client likes, and the
//! receiving node's router forwards or coordinates based on which
//! nodes own the locations the request's demand touches. Link terms
//! (`network(a → b)`) are owned by the *source* location's node, the
//! same convention `rota-server`'s shard router uses.
//!
//! Topologies come from a JSON file (`{"nodes": [{"id", "addr",
//! "locations": [...]}]}`, no other keys) or from [`Topology::auto`],
//! which assigns location `l{i}` to node `node{i}` — matching the
//! locations `rota-workload` generates. An address is a socket address
//! (`ip:port`), or empty or absent to mean "bind an ephemeral port";
//! `Cluster::launch` patches the real bound addresses back into the
//! shared topology before gossip starts. The topology is the only place
//! a node's address is kept: the router and the gossip runtime look it
//! up here each time they dial.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

use rota_obs::Json;
use rota_resource::ResourceSet;

/// One node in the cluster: an id, a serve address, and the locations
/// it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Unique node id (e.g. `node0`).
    pub id: String,
    /// Address the node serves on (`ip:port`), or empty for
    /// "ephemeral, patched after bind".
    pub addr: String,
    /// Names of the locations this node owns.
    pub locations: Vec<String>,
}

impl NodeSpec {
    /// The address the node binds: its own, or an ephemeral loopback
    /// port when it has none.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] naming the node when its address is not
    /// `ip:port`.
    pub(crate) fn bind_addr(&self) -> Result<SocketAddr, TopologyError> {
        if self.addr.is_empty() {
            return Ok(SocketAddr::from(([127, 0, 0, 1], 0)));
        }
        self.addr.parse().map_err(|_| {
            TopologyError(format!(
                "node `{}`: address `{}` is not `ip:port`",
                self.id, self.addr
            ))
        })
    }
}

/// Errors building or parsing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError(pub String);

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "topology: {}", self.0)
    }
}

impl std::error::Error for TopologyError {}

/// A validated location → node assignment.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    owners: BTreeMap<String, usize>,
}

/// A topology shared between a node's router, its gossip runtime, and
/// the launcher that patches in bound addresses.
pub type SharedTopology = Arc<RwLock<Topology>>;

impl Topology {
    /// Builds a topology, validating that node ids are unique, every
    /// address is empty or a socket address, every node owns at least
    /// one location, and no location has two owners.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] naming the offending node or location.
    pub fn new(nodes: Vec<NodeSpec>) -> Result<Topology, TopologyError> {
        if nodes.is_empty() {
            return Err(TopologyError("a cluster needs at least one node".into()));
        }
        let mut owners = BTreeMap::new();
        let mut ids = BTreeSet::new();
        for (index, node) in nodes.iter().enumerate() {
            if node.id.is_empty() {
                return Err(TopologyError(format!("node #{index} has an empty id")));
            }
            if !ids.insert(node.id.clone()) {
                return Err(TopologyError(format!("duplicate node id `{}`", node.id)));
            }
            node.bind_addr()?;
            if node.locations.is_empty() {
                return Err(TopologyError(format!(
                    "node `{}` owns no locations",
                    node.id
                )));
            }
            for location in &node.locations {
                if let Some(previous) = owners.insert(location.clone(), index) {
                    return Err(TopologyError(format!(
                        "location `{location}` is owned by both `{}` and `{}`",
                        nodes[previous].id, node.id
                    )));
                }
            }
        }
        Ok(Topology { nodes, owners })
    }

    /// The canonical `n`-node topology: node `node{i}` owns location
    /// `l{i}` (the naming `rota-workload` generates), with ephemeral
    /// addresses.
    ///
    /// # Panics
    ///
    /// If `n` is zero.
    pub fn auto(n: usize) -> Topology {
        assert!(n > 0, "a cluster needs at least one node");
        Topology::new(
            (0..n)
                .map(|i| NodeSpec {
                    id: format!("node{i}"),
                    addr: String::new(),
                    locations: vec![format!("l{i}")],
                })
                .collect(),
        )
        // PANIC-OK: node `i` owns exactly `l{i}` — ids and locations
        // cannot collide by construction.
        .expect("auto topologies are disjoint by construction")
    }

    /// Parses a topology from its JSON document form:
    /// `{"nodes": [{"id", "addr"?, "locations": [...]}]}`.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on schema violations (an unknown key, a
    /// non-string or unparsable `addr`) or ownership overlaps.
    pub fn from_json(doc: &Json) -> Result<Topology, TopologyError> {
        if let Some(key) = unknown_key(doc, &["nodes"]) {
            return Err(TopologyError(format!("unknown key `{key}`")));
        }
        let nodes_value = doc
            .get("nodes")
            .ok_or_else(|| TopologyError("missing `nodes` array".into()))?;
        let entries = nodes_value
            .as_array()
            .ok_or_else(|| TopologyError("`nodes` must be an array".into()))?;
        let mut nodes = Vec::new();
        for entry in entries {
            let id = entry
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| TopologyError("node entry missing string `id`".into()))?
                .to_string();
            if let Some(key) = unknown_key(entry, &["id", "addr", "locations"]) {
                return Err(TopologyError(format!("node `{id}`: unknown key `{key}`")));
            }
            let addr = match entry.get("addr") {
                None => String::new(),
                Some(addr) => addr
                    .as_str()
                    .ok_or_else(|| TopologyError(format!("node `{id}`: `addr` must be a string")))?
                    .to_string(),
            };
            let locations_value = entry
                .get("locations")
                .and_then(Json::as_array)
                .ok_or_else(|| TopologyError(format!("node `{id}` missing `locations` array")))?;
            let mut locations = Vec::new();
            for location in locations_value {
                locations.push(
                    location
                        .as_str()
                        .ok_or_else(|| {
                            TopologyError(format!("node `{id}`: locations must be strings"))
                        })?
                        .to_string(),
                );
            }
            nodes.push(NodeSpec {
                id,
                addr,
                locations,
            });
        }
        Topology::new(nodes)
    }

    /// Parses a topology from JSON text.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on malformed JSON or schema violations.
    pub fn parse(text: &str) -> Result<Topology, TopologyError> {
        let doc = Json::parse(text).map_err(|e| TopologyError(e.to_string()))?;
        Topology::from_json(&doc)
    }

    /// Serializes the topology as its JSON document form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "nodes".into(),
            Json::Arr(
                self.nodes
                    .iter()
                    .map(|node| {
                        Json::Obj(vec![
                            ("id".into(), Json::Str(node.id.clone())),
                            ("addr".into(), Json::Str(node.addr.clone())),
                            (
                                "locations".into(),
                                Json::Arr(
                                    node.locations
                                        .iter()
                                        .map(|l| Json::Str(l.clone()))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// All nodes, in declaration order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Looks a node up by id.
    pub fn node(&self, id: &str) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The node owning `location`, if any.
    pub fn owner_of(&self, location: &str) -> Option<&NodeSpec> {
        self.owners.get(location).map(|&i| &self.nodes[i])
    }

    /// Every location any node owns.
    pub fn locations(&self) -> BTreeSet<String> {
        self.owners.keys().cloned().collect()
    }

    /// Records the address `id` actually bound (ephemeral-port launch).
    ///
    /// # Panics
    ///
    /// If `addr` is not `ip:port`: like [`Topology::new`], this keeps
    /// every address empty or a socket address.
    pub fn set_addr(&mut self, id: &str, addr: &str) {
        if let Some(node) = self.nodes.iter_mut().find(|n| n.id == id) {
            let valid = addr.parse::<SocketAddr>().is_ok();
            assert!(valid, "node `{id}`: address `{addr}` is not `ip:port`");
            node.addr = addr.to_string();
        }
    }

    /// The slice of `theta` that `id` owns: every term whose located
    /// type's first location (the source, for links) belongs to `id`.
    /// Terms at locations no node owns are dropped from every slice.
    pub fn slice(&self, theta: &ResourceSet, id: &str) -> ResourceSet {
        let owned: BTreeSet<&str> = self
            .node(id)
            .map(|n| n.locations.iter().map(String::as_str).collect())
            .unwrap_or_default();
        ResourceSet::from_terms(theta.to_terms().into_iter().filter(|term| {
            term.located()
                .locations()
                .first()
                .is_some_and(|l| owned.contains(l.name()))
        }))
        // PANIC-OK: filtering terms out of a set that already passed
        // validation cannot introduce an unbounded rate.
        .expect("a filtered subset of a valid set is a valid set")
    }
}

/// The first key of the object `doc` outside `allowed`.
fn unknown_key<'a>(doc: &'a Json, allowed: &[&str]) -> Option<&'a str> {
    doc.as_object()?
        .iter()
        .map(|(key, _)| key.as_str())
        .find(|key| !allowed.contains(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_interval::TimeInterval;
    use rota_resource::{LocatedType, Location, Rate, ResourceTerm};

    fn theta(locations: &[&str]) -> ResourceSet {
        ResourceSet::from_terms(locations.iter().map(|l| {
            ResourceTerm::new(
                Rate::new(4),
                TimeInterval::from_ticks(0, 32).unwrap(),
                LocatedType::cpu(Location::new(*l)),
            )
        }))
        .unwrap()
    }

    #[test]
    fn auto_topology_round_trips_through_json() {
        let topology = Topology::auto(3);
        let text = topology.to_json().to_string();
        let parsed = Topology::parse(&text).unwrap();
        assert_eq!(parsed.nodes(), topology.nodes());
        assert_eq!(parsed.owner_of("l2").unwrap().id, "node2");
        assert!(parsed.owner_of("l9").is_none());
    }

    #[test]
    fn files_that_say_what_the_parser_does_not_understand_are_refused() {
        let cases = [
            (
                r#"{"nodes": [{"id": "a", "addr": "not-an-address", "locations": ["l0"]}]}"#,
                "node `a`: address `not-an-address` is not `ip:port`",
            ),
            (
                r#"{"nodes": [{"id": "a", "locations": ["l0"], "colour": "red"}]}"#,
                "node `a`: unknown key `colour`",
            ),
            (
                r#"{"nodes": [{"id": "b", "addr": 7, "locations": ["l1"]}]}"#,
                "node `b`: `addr` must be a string",
            ),
            (
                r#"{"nodes": [{"id": "a", "locations": ["l0"]}], "extra": 1}"#,
                "unknown key `extra`",
            ),
        ];
        for (text, expected) in cases {
            let err = Topology::parse(text).unwrap_err();
            assert_eq!(err.to_string(), format!("topology: {expected}"), "{text}");
        }
        // Empty and absent addresses still mean "ephemeral".
        let topology = Topology::parse(
            r#"{"nodes": [{"id": "a", "addr": "", "locations": ["l0"]},
                          {"id": "b", "locations": ["l1"]},
                          {"id": "c", "addr": "127.0.0.1:7400", "locations": ["l2"]}]}"#,
        )
        .unwrap();
        let addrs: Vec<&str> = topology.nodes().iter().map(|n| n.addr.as_str()).collect();
        assert_eq!(addrs, ["", "", "127.0.0.1:7400"]);
    }

    #[test]
    #[should_panic(expected = "node `node0`: address `not-an-address` is not `ip:port`")]
    fn set_addr_keeps_addresses_socket_addresses() {
        Topology::auto(1).set_addr("node0", "not-an-address");
    }

    #[test]
    fn overlapping_ownership_is_rejected() {
        let err = Topology::new(vec![
            NodeSpec {
                id: "a".into(),
                addr: String::new(),
                locations: vec!["l0".into()],
            },
            NodeSpec {
                id: "b".into(),
                addr: String::new(),
                locations: vec!["l0".into()],
            },
        ])
        .unwrap_err();
        assert!(err.to_string().contains("l0"), "{err}");
    }

    #[test]
    fn slices_partition_the_supply() {
        let topology = Topology::auto(3);
        let full = theta(&["l0", "l1", "l2"]);
        let union = topology
            .slice(&full, "node0")
            .union(&topology.slice(&full, "node1"))
            .unwrap()
            .union(&topology.slice(&full, "node2"))
            .unwrap();
        assert_eq!(union, full);
        // Each slice holds exactly its own location.
        let slice = topology.slice(&full, "node1");
        assert_eq!(slice.to_terms().len(), 1);
        assert_eq!(slice.to_terms()[0].located().locations()[0].name(), "l1");
    }

    #[test]
    fn link_terms_belong_to_the_source_node() {
        let full = ResourceSet::from_terms([ResourceTerm::new(
            Rate::new(2),
            TimeInterval::from_ticks(0, 8).unwrap(),
            LocatedType::network(Location::new("l0"), Location::new("l1")),
        )])
        .unwrap();
        let topology = Topology::auto(2);
        assert_eq!(topology.slice(&full, "node0").to_terms().len(), 1);
        assert!(topology.slice(&full, "node1").to_terms().is_empty());
    }
}
