//! Text parsing for located types and resource terms.
//!
//! A compact ASCII notation mirroring the paper's `[r]^τ_ξ`:
//!
//! ```text
//! [5]^(0,3)_cpu@l1            CPU at l1, rate 5 over (0,3)
//! [4]^(0,20)_network@l1->l2   directed link l1 → l2
//! [2]^(1,9)_memory@l3
//! [1]^(0,2)_gpu@l1            any other word is a custom node kind
//! ```
//!
//! [`LocatedType`] accepts the `kind@location[->location]` fragment on
//! its own.

use core::fmt;
use core::str::FromStr;

use rota_interval::TimeInterval;

use crate::located::{LocatedType, Location, NodeResourceKind};
use crate::rate::Rate;
use crate::term::ResourceTerm;

/// Error from parsing the term/type notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTermError {
    message: String,
}

impl ParseTermError {
    fn new(message: impl Into<String>) -> Self {
        ParseTermError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseTermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse resource notation: {}", self.message)
    }
}

impl std::error::Error for ParseTermError {}

impl FromStr for LocatedType {
    type Err = ParseTermError;

    /// Parses `kind@location` or `network@from->to`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTermError`] for missing separators, empty names, or
    /// a destination on a non-network kind.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (kind, rest) = s
            .split_once('@')
            .ok_or_else(|| ParseTermError::new(format!("missing `@` in `{s}`")))?;
        let kind = kind.trim();
        if kind.is_empty() {
            return Err(ParseTermError::new("empty resource kind"));
        }
        if let Some((from, to)) = rest.split_once("->") {
            if kind != "network" && kind != "net" {
                return Err(ParseTermError::new(format!(
                    "`{kind}` cannot have a destination; only network@a->b"
                )));
            }
            let (from, to) = (from.trim(), to.trim());
            if from.is_empty() || to.is_empty() {
                return Err(ParseTermError::new("empty link endpoint"));
            }
            return Ok(LocatedType::network(Location::new(from), Location::new(to)));
        }
        let location = rest.trim();
        if location.is_empty() {
            return Err(ParseTermError::new("empty location"));
        }
        let located = match kind {
            "cpu" => LocatedType::cpu(Location::new(location)),
            "memory" | "mem" => LocatedType::memory(Location::new(location)),
            "disk" => LocatedType::Node {
                kind: NodeResourceKind::Disk,
                location: Location::new(location),
            },
            "network" | "net" => {
                return Err(ParseTermError::new(
                    "network types need a destination: network@a->b",
                ))
            }
            custom => LocatedType::Node {
                kind: NodeResourceKind::custom(custom),
                location: Location::new(location),
            },
        };
        Ok(located)
    }
}

impl FromStr for ResourceTerm {
    type Err = ParseTermError;

    /// Parses `[rate]^(start,end)_kind@location[->location]`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTermError`] describing the malformed fragment.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let rest = s
            .strip_prefix('[')
            .ok_or_else(|| ParseTermError::new(format!("expected `[rate]…`, got `{s}`")))?;
        let (rate, rest) = rest
            .split_once(']')
            .ok_or_else(|| ParseTermError::new("unterminated `[rate]`"))?;
        let rate: u64 = rate
            .trim()
            .parse()
            .map_err(|_| ParseTermError::new(format!("`{rate}` is not a rate")))?;
        let rest = rest
            .strip_prefix("^(")
            .ok_or_else(|| ParseTermError::new("expected `^(start,end)` after the rate"))?;
        let (interval, rest) = rest
            .split_once(')')
            .ok_or_else(|| ParseTermError::new("unterminated `(start,end)`"))?;
        let (start, end) = interval
            .split_once(',')
            .ok_or_else(|| ParseTermError::new("expected `start,end`"))?;
        let start: u64 = start
            .trim()
            .parse()
            .map_err(|_| ParseTermError::new(format!("`{start}` is not a tick")))?;
        let end: u64 = end
            .trim()
            .parse()
            .map_err(|_| ParseTermError::new(format!("`{end}` is not a tick")))?;
        let interval =
            TimeInterval::from_ticks(start, end).map_err(|e| ParseTermError::new(e.to_string()))?;
        let located = rest
            .strip_prefix('_')
            .ok_or_else(|| ParseTermError::new("expected `_kind@location`"))?
            .parse::<LocatedType>()?;
        Ok(ResourceTerm::new(Rate::new(rate), interval, located))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_node_and_link_types() {
        let lt: LocatedType = "cpu@l1".parse().unwrap();
        assert_eq!(lt, LocatedType::cpu(Location::new("l1")));
        let lt: LocatedType = "memory@l3".parse().unwrap();
        assert_eq!(lt, LocatedType::memory(Location::new("l3")));
        let lt: LocatedType = "disk@l0".parse().unwrap();
        assert!(matches!(
            lt,
            LocatedType::Node {
                kind: NodeResourceKind::Disk,
                ..
            }
        ));
        let lt: LocatedType = "network@l1->l2".parse().unwrap();
        assert_eq!(
            lt,
            LocatedType::network(Location::new("l1"), Location::new("l2"))
        );
        let lt: LocatedType = "gpu@l1".parse().unwrap();
        assert_eq!(lt.to_string(), "⟨gpu, l1⟩");
        // whitespace tolerated
        let lt: LocatedType = "  net@a -> b ".parse().unwrap();
        assert_eq!(
            lt,
            LocatedType::network(Location::new("a"), Location::new("b"))
        );
    }

    #[test]
    fn parses_full_terms() {
        let t: ResourceTerm = "[5]^(0,3)_cpu@l1".parse().unwrap();
        assert_eq!(t.rate(), Rate::new(5));
        assert_eq!(t.interval(), TimeInterval::from_ticks(0, 3).unwrap());
        assert_eq!(t.located(), &LocatedType::cpu(Location::new("l1")));
        let t: ResourceTerm = "[4]^(0,20)_network@l1->l2".parse().unwrap();
        assert_eq!(
            t.located(),
            &LocatedType::network(Location::new("l1"), Location::new("l2"))
        );
        // whitespace tolerated
        let t: ResourceTerm = " [ 2 ]^( 1 , 9 )_mem@l3 ".parse().unwrap();
        assert_eq!(t.rate(), Rate::new(2));
    }

    #[test]
    fn rejects_malformed_terms() {
        for bad in [
            "",
            "5^(0,3)_cpu@l1",
            "[x]^(0,3)_cpu@l1",
            "[5](0,3)_cpu@l1",
            "[5]^(0 3)_cpu@l1",
            "[5]^(3,3)_cpu@l1",
            "[5]^(0,3)cpu@l1",
            "[5]^(0,3)_cpu",
            "[5]^(0,3)_@l1",
            "[5]^(0,3)_cpu@",
            "[5]^(0,3)_cpu@l1->l2",
            "[5]^(0,3)_network@l1",
            "[5]^(0,3",
        ] {
            assert!(
                bad.parse::<ResourceTerm>().is_err(),
                "`{bad}` should not parse"
            );
        }
        assert!("network@a->".parse::<LocatedType>().is_err());
    }

    /// Display → parse roundtrip for node types (link arrow differs from
    /// the pretty Unicode form, so links roundtrip via the ASCII input
    /// notation only).
    #[test]
    fn ascii_notation_roundtrips_semantically() {
        let t: ResourceTerm = "[7]^(2,9)_cpu@node-4".parse().unwrap();
        let reparsed: ResourceTerm = format!(
            "[{}]^({},{})_cpu@node-4",
            t.rate().units_per_tick(),
            t.interval().start().ticks(),
            t.interval().end().ticks()
        )
        .parse()
        .unwrap();
        assert_eq!(t, reparsed);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = "[5]^(0,3)_network@l1".parse::<ResourceTerm>().unwrap_err();
        assert!(e.to_string().contains("destination"));
        let e = "[q]^(0,3)_cpu@l1".parse::<ResourceTerm>().unwrap_err();
        assert!(e.to_string().contains("not a rate"));
    }
}
