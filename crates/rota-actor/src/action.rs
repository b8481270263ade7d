//! Actor names and the five actor primitives.
//!
//! The paper (Section IV-A): "An actor may evaluate expressions, send
//! messages to other actors, create a finite number of new actors …, or
//! change its own state and become ready to process the next message. In
//! addition, in a distributed execution environment, an actor may use a
//! fourth primitive migrate … In other words, an actor's behaviour is a
//! sequence of these five types of actions."

use core::fmt;
use std::sync::Arc;

use rota_resource::{Location, Quantity};

/// A globally unique actor name (the paper: "actors have globally unique
/// names").
///
/// # Examples
///
/// ```
/// use rota_actor::ActorName;
///
/// let a = ActorName::new("a1");
/// assert_eq!(a.to_string(), "a1");
/// assert_eq!(a, ActorName::new("a1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorName(Arc<str>);

impl ActorName {
    /// Creates an actor name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ActorName(Arc::from(name.as_ref()))
    }

    /// The name as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ActorName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ActorName {
    fn from(name: &str) -> Self {
        ActorName::new(name)
    }
}

impl From<String> for ActorName {
    fn from(name: String) -> Self {
        ActorName(Arc::from(name))
    }
}

/// One of the five actor primitives, carrying the parameters the cost
/// function Φ needs to derive located resource amounts.
///
/// Location information is explicit where the paper uses the location
/// function `l(·)`: a send must know where the recipient resides so Φ can
/// name the link `⟨network, l(a₁)→l(a₂)⟩`; a migrate must name its
/// destination. The acting actor's *own* current location is tracked by
/// [`ActorComputation`](crate::ActorComputation), since it changes as
/// migrations execute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// `send(to, m)` — transmit a message to `to`, which resides at
    /// `dest`. Consumes network resource on the link from the sender's
    /// current location to `dest`.
    Send {
        /// Recipient actor.
        to: ActorName,
        /// Recipient's location, `l(to)`.
        dest: Location,
        /// Message size factor scaling the cost model's per-send cost;
        /// 1 reproduces the paper's flat per-message cost.
        size: u64,
    },
    /// `evaluate(e)` — expression evaluation. Consumes CPU at the actor's
    /// current location; `work` overrides the cost model's default
    /// per-evaluate cost when set (footnote 3: estimates suffice and may
    /// be revised).
    Evaluate {
        /// Optional explicit CPU amount for this particular expression.
        work: Option<Quantity>,
    },
    /// `create(b)` — spawn a new actor with a predefined behaviour.
    /// Consumes CPU at the current location.
    Create {
        /// Name of the actor being created.
        child: ActorName,
    },
    /// `ready(b)` — finish processing the current message and become
    /// ready for the next. Consumes CPU at the current location.
    Ready,
    /// `migrate(l)` — move to `dest` and continue executing there. Per the
    /// paper, needs CPU at the origin (serialize), network from origin to
    /// destination (transfer), and CPU at the destination (unserialize).
    Migrate {
        /// Destination location.
        dest: Location,
    },
}

impl ActionKind {
    /// Convenience constructor for a unit-size send.
    pub fn send(to: impl Into<ActorName>, dest: impl Into<Location>) -> Self {
        ActionKind::Send {
            to: to.into(),
            dest: dest.into(),
            size: 1,
        }
    }

    /// Convenience constructor for a default-cost evaluate.
    pub fn evaluate() -> Self {
        ActionKind::Evaluate { work: None }
    }

    /// Convenience constructor for an evaluate with explicit CPU work.
    pub fn evaluate_units(units: u64) -> Self {
        ActionKind::Evaluate {
            work: Some(Quantity::new(units)),
        }
    }

    /// Convenience constructor for a create.
    pub fn create(child: impl Into<ActorName>) -> Self {
        ActionKind::Create {
            child: child.into(),
        }
    }

    /// Convenience constructor for a migrate.
    pub fn migrate(dest: impl Into<Location>) -> Self {
        ActionKind::Migrate { dest: dest.into() }
    }

    /// The primitive's name (`send`, `evaluate`, `create`, `ready`,
    /// `migrate`).
    pub fn primitive(&self) -> &'static str {
        match self {
            ActionKind::Send { .. } => "send",
            ActionKind::Evaluate { .. } => "evaluate",
            ActionKind::Create { .. } => "create",
            ActionKind::Ready => "ready",
            ActionKind::Migrate { .. } => "migrate",
        }
    }

    /// The destination this action moves the actor to, if any.
    pub fn migration_target(&self) -> Option<&Location> {
        match self {
            ActionKind::Migrate { dest } => Some(dest),
            _ => None,
        }
    }
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionKind::Send { to, dest, size } => write!(f, "send({to}@{dest}, ×{size})"),
            ActionKind::Evaluate { work: Some(q) } => write!(f, "evaluate({}u)", q.units()),
            ActionKind::Evaluate { work: None } => f.write_str("evaluate(e)"),
            ActionKind::Create { child } => write!(f, "create({child})"),
            ActionKind::Ready => f.write_str("ready(b)"),
            ActionKind::Migrate { dest } => write!(f, "migrate({dest})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_name_identity() {
        assert_eq!(ActorName::new("a"), ActorName::from("a"));
        assert_ne!(ActorName::new("a"), ActorName::new("b"));
        assert_eq!(ActorName::from(String::from("x")).as_str(), "x");
    }

    #[test]
    fn constructors_and_primitives() {
        assert_eq!(ActionKind::send("a2", "l2").primitive(), "send");
        assert_eq!(ActionKind::evaluate().primitive(), "evaluate");
        assert_eq!(ActionKind::evaluate_units(8).primitive(), "evaluate");
        assert_eq!(ActionKind::create("b").primitive(), "create");
        assert_eq!(ActionKind::Ready.primitive(), "ready");
        assert_eq!(ActionKind::migrate("l2").primitive(), "migrate");
    }

    #[test]
    fn migration_target_only_for_migrate() {
        assert_eq!(
            ActionKind::migrate("l2").migration_target(),
            Some(&Location::new("l2"))
        );
        assert_eq!(ActionKind::Ready.migration_target(), None);
        assert_eq!(ActionKind::send("x", "l9").migration_target(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ActionKind::send("a2", "l2").to_string(), "send(a2@l2, ×1)");
        assert_eq!(ActionKind::evaluate().to_string(), "evaluate(e)");
        assert_eq!(ActionKind::evaluate_units(8).to_string(), "evaluate(8u)");
        assert_eq!(ActionKind::create("b").to_string(), "create(b)");
        assert_eq!(ActionKind::Ready.to_string(), "ready(b)");
        assert_eq!(ActionKind::migrate("l2").to_string(), "migrate(l2)");
    }
}
