//! The analyzer's view of a spec: plain declarations, close to the
//! JSON the user wrote, before any library type swallows or rejects
//! them. Lints need access to *invalid* content (inverted intervals,
//! zero rates) that `ResourceSet`/`DistributedComputation` refuse to
//! represent, so the model keeps raw numbers and converts lazily.
//!
//! `rota-server` and `rota-cli` build a [`SpecModel`] from their spec
//! codec; `rota-workload` builds one from generated library types via
//! [`ResourceDecl::from_term`] and [`ComputationDecl::from_computation`].

use rota_actor::{ActionKind, ActorComputation, DistributedComputation};
use rota_interval::TimeInterval;
use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

/// One declared resource term, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceDecl {
    /// The located type `⟨kind, location⟩` the term supplies.
    pub located: LocatedType,
    /// Units per tick, as declared (may be zero).
    pub rate: u64,
    /// Inclusive start tick.
    pub start: u64,
    /// Exclusive end tick (may not follow `start`; that is lint R0001).
    pub end: u64,
}

impl ResourceDecl {
    /// Builds a declaration from a validated library term.
    pub fn from_term(term: &ResourceTerm) -> Self {
        ResourceDecl {
            located: term.located().clone(),
            rate: term.rate().units_per_tick(),
            start: term.interval().start().ticks(),
            end: term.interval().end().ticks(),
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
}

/// One action of an actor, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionDecl {
    /// `evaluate(e)` with optional explicit work.
    Evaluate {
        /// Explicit CPU units, when given.
        work: Option<u64>,
    },
    /// `send(to, m)` to an actor residing at `dest`.
    Send {
        /// Recipient actor name.
        to: String,
        /// Recipient's location.
        dest: String,
        /// Message size factor.
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

impl ActionDecl {
    fn from_kind(kind: &ActionKind) -> Self {
        match kind {
            ActionKind::Evaluate { work } => ActionDecl::Evaluate {
                work: work.map(|q| q.units()),
            },
            ActionKind::Send { to, dest, size } => ActionDecl::Send {
                to: to.as_str().to_owned(),
                dest: dest.name().to_string(),
                size: *size,
            },
            ActionKind::Create { child } => ActionDecl::Create {
                child: child.as_str().to_owned(),
            },
            ActionKind::Ready => ActionDecl::Ready,
            ActionKind::Migrate { dest } => ActionDecl::Migrate {
                dest: dest.name().to_string(),
            },
        }
    }

    fn to_kind(&self) -> ActionKind {
        match self {
            ActionDecl::Evaluate { work } => ActionKind::Evaluate {
                work: work.map(Quantity::new),
            },
            ActionDecl::Send { to, dest, size } => ActionKind::Send {
                to: to.as_str().into(),
                dest: Location::new(dest),
                size: *size,
            },
            ActionDecl::Create { child } => ActionKind::create(child.as_str()),
            ActionDecl::Ready => ActionKind::Ready,
            ActionDecl::Migrate { dest } => ActionKind::migrate(dest.as_str()),
        }
    }
}

/// One actor, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorDecl {
    /// Actor name.
    pub name: String,
    /// Starting location.
    pub origin: String,
    /// Action sequence.
    pub actions: Vec<ActionDecl>,
}

/// The computation `(Λ, s, d)`, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationDecl {
    /// Identifying name.
    pub name: String,
    /// Earliest start tick `s`.
    pub start: u64,
    /// Deadline tick `d` (may not follow `s`; that is lint R0003).
    pub deadline: u64,
    /// Participating actors.
    pub actors: Vec<ActorDecl>,
}

impl ComputationDecl {
    /// Builds a declaration from a validated library computation.
    pub fn from_computation(lambda: &DistributedComputation) -> Self {
        ComputationDecl {
            name: lambda.name().to_string(),
            start: lambda.start().ticks(),
            deadline: lambda.deadline().ticks(),
            actors: lambda
                .actors()
                .iter()
                .map(|gamma| ActorDecl {
                    name: gamma.actor().as_str().to_owned(),
                    origin: gamma.origin().name().to_string(),
                    actions: gamma.actions().iter().map(ActionDecl::from_kind).collect(),
                })
                .collect(),
        }
    }

    /// The validated library computation, when the window is non-empty.
    pub fn build(&self) -> Option<DistributedComputation> {
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
            rota_interval::TimePoint::new(self.start),
            rota_interval::TimePoint::new(self.deadline),
        )
        .ok()
    }
}

/// A declared interval-algebra constraint between two spec entities
/// (`resources[i]` or `computation`): the left interval must stand in
/// one of the named Allen relations to the right interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintDecl {
    /// Left entity reference, e.g. `resources[0]`.
    pub left: String,
    /// Allowed Allen relation names, e.g. `["before", "meets"]`.
    pub rel: Vec<String>,
    /// Right entity reference, e.g. `computation`.
    pub right: String,
}

/// A whole spec, as the analyzer sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecModel {
    /// Declared resource terms.
    pub resources: Vec<ResourceDecl>,
    /// The deadline-constrained computation.
    pub computation: ComputationDecl,
    /// Declared temporal constraints (optional; empty when absent).
    pub constraints: Vec<ConstraintDecl>,
}

impl SpecModel {
    /// Builds a model from validated library types (no constraints) —
    /// the path `rota-workload` uses.
    pub fn from_parts(terms: &[ResourceTerm], lambda: &DistributedComputation) -> Self {
        SpecModel {
            resources: terms.iter().map(ResourceDecl::from_term).collect(),
            computation: ComputationDecl::from_computation(lambda),
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
