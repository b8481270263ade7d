//! Located resource types — the `ξ` subscript of a resource term.
//!
//! The paper: "`ξ` denotes the located type of the specified resource,
//! which contains both the type of the resource and the location where the
//! resource is residing." Processor-like resources live at one node
//! (`⟨cpu, l₁⟩`); communication resources span a directed link
//! (`⟨network, l₁ → l₂⟩`).

use core::fmt;
use std::sync::Arc;

/// A node in the distributed system — the paper's `l₁`, `l₂`, ….
///
/// Locations are interned, cheaply cloneable name handles; equality and
/// ordering are by name.
///
/// # Examples
///
/// ```
/// use rota_resource::Location;
///
/// let l1 = Location::new("l1");
/// assert_eq!(l1.to_string(), "l1");
/// assert_eq!(l1, Location::new("l1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location(Arc<str>);

impl Location {
    /// Creates a location with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Location(Arc::from(name.as_ref()))
    }

    /// The location's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Location {
    fn from(name: &str) -> Self {
        Location::new(name)
    }
}

impl From<String> for Location {
    fn from(name: String) -> Self {
        Location(Arc::from(name))
    }
}

/// The kind of a node-local computational resource.
///
/// The paper's examples use CPU; memory and disk are other node-local
/// kinds a deployment may meter, and [`NodeResourceKind::Custom`] covers
/// anything else (GPU slices, software license seats, …).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeResourceKind {
    /// Processor cycles — the paper's `cpu`.
    Cpu,
    /// Memory bandwidth/occupancy.
    Memory,
    /// Persistent storage bandwidth.
    Disk,
    /// Any other metered node-local resource, identified by name.
    Custom(Arc<str>),
}

impl NodeResourceKind {
    /// A custom kind with the given name.
    pub fn custom(name: impl AsRef<str>) -> Self {
        NodeResourceKind::Custom(Arc::from(name.as_ref()))
    }

    /// Canonical lowercase label (`cpu`, `memory`, `disk`, or the custom
    /// name).
    pub fn label(&self) -> &str {
        match self {
            NodeResourceKind::Cpu => "cpu",
            NodeResourceKind::Memory => "memory",
            NodeResourceKind::Disk => "disk",
            NodeResourceKind::Custom(name) => name,
        }
    }
}

impl fmt::Display for NodeResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A located resource type `ξ`: what the resource is *and* where it is.
///
/// Two located types are interchangeable for a computation exactly when
/// they are equal — a CPU tick at `l₁` is useless to an action that needs
/// one at `l₂`, and a link `l₁ → l₂` is distinct from `l₂ → l₁`.
///
/// # Examples
///
/// ```
/// use rota_resource::{Location, LocatedType};
///
/// let cpu = LocatedType::cpu(Location::new("l1"));
/// assert_eq!(cpu.to_string(), "⟨cpu, l1⟩");
///
/// let link = LocatedType::network(Location::new("l1"), Location::new("l2"));
/// assert_eq!(link.to_string(), "⟨network, l1→l2⟩");
/// assert_ne!(link, LocatedType::network(Location::new("l2"), Location::new("l1")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocatedType {
    /// A node-local resource `⟨kind, location⟩`.
    Node {
        /// What is metered.
        kind: NodeResourceKind,
        /// Where it resides.
        location: Location,
    },
    /// A directed communication resource `⟨network, from → to⟩`.
    Link {
        /// Source node of the link.
        from: Location,
        /// Destination node of the link.
        to: Location,
    },
}

impl LocatedType {
    /// Convenience constructor for `⟨cpu, location⟩`.
    pub fn cpu(location: Location) -> Self {
        LocatedType::Node {
            kind: NodeResourceKind::Cpu,
            location,
        }
    }

    /// Convenience constructor for `⟨memory, location⟩`.
    pub fn memory(location: Location) -> Self {
        LocatedType::Node {
            kind: NodeResourceKind::Memory,
            location,
        }
    }

    /// Convenience constructor for `⟨network, from → to⟩`.
    pub fn network(from: Location, to: Location) -> Self {
        LocatedType::Link { from, to }
    }

    /// Whether this is a node-local (as opposed to link) type.
    pub fn is_node(&self) -> bool {
        matches!(self, LocatedType::Node { .. })
    }

    /// Whether this is a directed link type.
    pub fn is_link(&self) -> bool {
        matches!(self, LocatedType::Link { .. })
    }

    /// The locations this type touches: one for node types, two (source
    /// then destination) for links.
    pub fn locations(&self) -> Vec<&Location> {
        match self {
            LocatedType::Node { location, .. } => vec![location],
            LocatedType::Link { from, to } => vec![from, to],
        }
    }
}

impl fmt::Display for LocatedType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocatedType::Node { kind, location } => write!(f, "⟨{kind}, {location}⟩"),
            LocatedType::Link { from, to } => write!(f, "⟨network, {from}→{to}⟩"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_identity_is_by_name() {
        assert_eq!(Location::new("a"), Location::from("a"));
        assert_ne!(Location::new("a"), Location::new("b"));
        assert_eq!(Location::from(String::from("x")).name(), "x");
    }

    #[test]
    fn node_kinds_label() {
        assert_eq!(NodeResourceKind::Cpu.label(), "cpu");
        assert_eq!(NodeResourceKind::Memory.label(), "memory");
        assert_eq!(NodeResourceKind::Disk.label(), "disk");
        assert_eq!(NodeResourceKind::custom("gpu").label(), "gpu");
        assert_eq!(
            NodeResourceKind::custom("gpu"),
            NodeResourceKind::custom("gpu")
        );
    }

    #[test]
    fn link_direction_matters() {
        let ab = LocatedType::network("a".into(), "b".into());
        let ba = LocatedType::network("b".into(), "a".into());
        assert_ne!(ab, ba);
        assert!(ab.is_link());
        assert!(!ab.is_node());
    }

    #[test]
    fn display_matches_paper_notation() {
        let cpu = LocatedType::cpu(Location::new("l1"));
        assert_eq!(cpu.to_string(), "⟨cpu, l1⟩");
        let net = LocatedType::network(Location::new("l1"), Location::new("l2"));
        assert_eq!(net.to_string(), "⟨network, l1→l2⟩");
    }

    #[test]
    fn locations_listed() {
        let l1 = Location::new("l1");
        let l2 = Location::new("l2");
        assert_eq!(LocatedType::cpu(l1.clone()).locations(), vec![&l1]);
        let link = LocatedType::network(l1.clone(), l2.clone());
        assert_eq!(link.locations(), vec![&l1, &l2]);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![
            LocatedType::network("b".into(), "a".into()),
            LocatedType::cpu("z".into()),
            LocatedType::memory("a".into()),
        ];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 3);
    }
}
