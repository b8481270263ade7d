//! Segmentation of action sequences into subcomputations.
//!
//! The paper's complex resource requirement breaks an actor computation
//! `Γ` into `m` subcomputations, each with a simple requirement. It then
//! remarks: "a sequence of actions which require the same single type of
//! resource need not be broken down into multiple subcomputations" —
//! having enough of that one type over the whole sub-interval guarantees
//! completion (the single-action argument applies).
//!
//! [`Granularity`] selects between the naive per-action split and the
//! paper's maximal-run optimization; E10 in the experiment suite ablates
//! the difference.

use crate::demand::ResourceDemand;

/// How finely an action sequence is split into subcomputations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// One segment per action — always correct, maximally many segments.
    PerAction,
    /// Merge maximal runs of consecutive actions that demand the same
    /// *single* located type (the paper's optimization). Actions touching
    /// several types (e.g. migrate) are never merged.
    #[default]
    MaximalRun,
}

impl Granularity {
    /// The name specs, the wire protocol and `--granularity` use.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::PerAction => "per-action",
            Granularity::MaximalRun => "maximal-run",
        }
    }

    /// The granularity called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Granularity> {
        [Granularity::PerAction, Granularity::MaximalRun]
            .into_iter()
            .find(|g| g.name() == name)
    }
}

/// Splits per-action demands into segment demands according to
/// `granularity`, moving each demand into its segment or merging it into
/// the run before it. Empty demands are folded into the following segment (or
/// dropped at the tail) — an action with no cost needs no resources and
/// imposes no ordering constraint of its own.
///
/// # Examples
///
/// ```
/// use rota_actor::{segment_demands, Granularity, ResourceDemand};
/// use rota_resource::{LocatedType, Location, Quantity};
///
/// let cpu = LocatedType::cpu(Location::new("l1"));
/// let net = LocatedType::network(Location::new("l1"), Location::new("l2"));
/// let demands = vec![
///     ResourceDemand::single(cpu.clone(), Quantity::new(8)),
///     ResourceDemand::single(cpu.clone(), Quantity::new(5)),
///     ResourceDemand::single(net.clone(), Quantity::new(4)),
/// ];
/// let runs = segment_demands(demands.clone(), Granularity::MaximalRun);
/// assert_eq!(runs.len(), 2); // cpu run of 13, then the send
/// assert_eq!(runs[0].amount(&cpu), Quantity::new(13));
/// assert_eq!(runs[1].amount(&net), Quantity::new(4));
///
/// let per_action = segment_demands(demands, Granularity::PerAction);
/// assert_eq!(per_action.len(), 3);
/// ```
pub fn segment_demands(
    demands: Vec<ResourceDemand>,
    granularity: Granularity,
) -> Vec<ResourceDemand> {
    let mut segments: Vec<ResourceDemand> = Vec::with_capacity(demands.len());
    for demand in demands {
        if demand.is_empty() {
            continue;
        }
        match granularity {
            Granularity::PerAction => segments.push(demand),
            Granularity::MaximalRun => {
                let mergeable = match (
                    segments.last().and_then(ResourceDemand::sole_located_type),
                    demand.sole_located_type(),
                ) {
                    (Some(prev), Some(next)) => prev == next,
                    _ => false,
                };
                if mergeable {
                    segments
                        .last_mut()
                        .expect("mergeable implies a previous segment")
                        .merge(&demand);
                } else {
                    segments.push(demand);
                }
            }
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_resource::{LocatedType, Location, Quantity};

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn d(lt: LocatedType, q: u64) -> ResourceDemand {
        ResourceDemand::single(lt, Quantity::new(q))
    }

    #[test]
    fn per_action_keeps_every_nonempty_demand() {
        let demands = vec![d(cpu("l1"), 1), d(cpu("l1"), 2), d(cpu("l2"), 3)];
        let segs = segment_demands(demands.clone(), Granularity::PerAction);
        assert_eq!(segs, demands);
    }

    #[test]
    fn maximal_run_merges_same_single_type() {
        let demands = vec![
            d(cpu("l1"), 8),
            d(cpu("l1"), 5),
            d(cpu("l1"), 1),
            d(cpu("l2"), 3),
            d(cpu("l2"), 3),
        ];
        let segs = segment_demands(demands, Granularity::MaximalRun);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].amount(&cpu("l1")), Quantity::new(14));
        assert_eq!(segs[1].amount(&cpu("l2")), Quantity::new(6));
    }

    #[test]
    fn multi_type_actions_break_runs() {
        // migrate-like demand touching two types sits alone
        let mut migrate = ResourceDemand::new();
        migrate.add(cpu("l1"), Quantity::new(3));
        migrate.add(cpu("l2"), Quantity::new(3));
        let demands = vec![d(cpu("l1"), 8), migrate.clone(), d(cpu("l2"), 8)];
        let segs = segment_demands(demands, Granularity::MaximalRun);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[1], migrate);
    }

    #[test]
    fn alternating_types_never_merge() {
        let demands = vec![
            d(cpu("l1"), 1),
            d(cpu("l2"), 1),
            d(cpu("l1"), 1),
            d(cpu("l2"), 1),
        ];
        assert_eq!(segment_demands(demands, Granularity::MaximalRun).len(), 4);
    }

    #[test]
    fn empty_demands_are_skipped() {
        let demands = vec![
            ResourceDemand::new(),
            d(cpu("l1"), 1),
            ResourceDemand::new(),
            d(cpu("l1"), 2),
        ];
        let segs = segment_demands(demands, Granularity::MaximalRun);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].amount(&cpu("l1")), Quantity::new(3));
        assert!(segment_demands(Vec::new(), Granularity::PerAction).is_empty());
    }

    #[test]
    fn default_granularity_is_maximal_run() {
        assert_eq!(Granularity::default(), Granularity::MaximalRun);
    }
}
