//! Commitments — the `ρ` component of a ROTA state.
//!
//! A state `S = (Θ, ρ, t)` carries "the resource requirements of the
//! computations that are accommodated by the system at time `t`". Once a
//! computation has been admitted, each of its actors holds an ordered
//! queue of [`ScheduledSegment`]s — segment demand, scheduled window, and
//! (optionally) the exact resource slices reserved for it. The transition
//! rules drain the head segment as resources flow to the actor.
//!
//! Reservations are how Theorem 4's path combination stays conflict-free:
//! a newly admitted computation is scheduled against the resources that
//! would otherwise *expire* on the current path, so its reserved slices
//! are disjoint (per located type and tick) from every earlier
//! commitment's, and executing all of them concurrently can never
//! contend.

use core::fmt;
use std::collections::{HashMap, VecDeque};

use rota_actor::{ActorName, ResourceDemand, SimpleRequirement};
use rota_interval::TimePoint;
use rota_resource::{LocatedType, Quantity, ResourceSet};

/// One scheduled subcomputation: the simple requirement `ρ(γᵢ, tᵢ₋₁, tᵢ)`
/// plus, optionally, the exact availability slices reserved to fuel it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledSegment {
    requirement: SimpleRequirement,
    reservation: Option<ResourceSet>,
}

impl ScheduledSegment {
    /// A segment with an explicit reservation (the Theorem-2 scheduler's
    /// output shape).
    pub fn reserved(requirement: SimpleRequirement, reservation: ResourceSet) -> Self {
        ScheduledSegment {
            requirement,
            reservation: Some(reservation),
        }
    }

    /// An opportunistic segment: it may consume any available resource of
    /// the demanded types inside its window.
    pub fn opportunistic(requirement: SimpleRequirement) -> Self {
        ScheduledSegment {
            requirement,
            reservation: None,
        }
    }

    /// The segment's simple requirement (demand + window).
    pub fn requirement(&self) -> &SimpleRequirement {
        &self.requirement
    }

    /// The reserved slices, if the segment was scheduled with reservation.
    pub fn reservation(&self) -> Option<&ResourceSet> {
        self.reservation.as_ref()
    }

    /// Whether this segment is entitled to consume `located` at `now`:
    /// its window is open, it still demands the type, and (if reserved)
    /// the reservation covers this tick.
    pub fn entitled(&self, located: &LocatedType, now: TimePoint) -> bool {
        if !self.requirement.window().contains_tick(now) {
            return false;
        }
        if self.requirement.demand().amount(located).is_zero() {
            return false;
        }
        match &self.reservation {
            Some(res) => !res.rate_at(located, now).is_zero(),
            None => true,
        }
    }

    /// The segment cut down to the located types `owns` accepts: their
    /// demand and their reserved slices, in the same window. `None` when
    /// none of its demand is on them.
    fn project(&self, owns: &impl Fn(&LocatedType) -> bool) -> Option<ScheduledSegment> {
        let demand: ResourceDemand = self
            .requirement
            .demand()
            .iter()
            .filter(|(located, _)| owns(located))
            .map(|(located, amount)| (located.clone(), amount))
            .collect();
        if demand.is_empty() {
            return None;
        }
        Some(ScheduledSegment {
            requirement: SimpleRequirement::new(demand, self.requirement.window()),
            reservation: self.reservation.as_ref().map(|res| res.restrict(owns)),
        })
    }

    fn reduce(&mut self, located: &LocatedType, absorbed: Quantity) {
        let mut next = ResourceDemand::new();
        for (lt, q) in self.requirement.demand().iter() {
            let q = if lt == located { q - absorbed } else { q };
            next.add(lt.clone(), q);
        }
        self.requirement = SimpleRequirement::new(next, self.requirement.window());
    }
}

impl fmt::Display for ScheduledSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.requirement,
            if self.reservation.is_some() { "*" } else { "" }
        )
    }
}

/// One actor's admitted requirement: the queue of scheduled segments still
/// to be fueled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commitment {
    actor: ActorName,
    pending: VecDeque<ScheduledSegment>,
    start: TimePoint,
    deadline: TimePoint,
}

impl Commitment {
    /// Creates a commitment from scheduled segments. `start` is inferred
    /// from the first segment's window (the computation's earliest start
    /// `s`, used by the leave rule's `t < s` guard).
    pub fn new(
        actor: ActorName,
        segments: impl IntoIterator<Item = ScheduledSegment>,
        deadline: TimePoint,
    ) -> Self {
        let pending: VecDeque<ScheduledSegment> = segments.into_iter().collect();
        let start = pending
            .front()
            .map(|r| r.requirement().window().start())
            .unwrap_or(TimePoint::ZERO);
        Commitment {
            actor,
            pending,
            start,
            deadline,
        }
    }

    /// Convenience: an opportunistic commitment straight from simple
    /// requirements.
    pub fn opportunistic(
        actor: ActorName,
        segments: impl IntoIterator<Item = SimpleRequirement>,
        deadline: TimePoint,
    ) -> Self {
        Commitment::new(
            actor,
            segments.into_iter().map(ScheduledSegment::opportunistic),
            deadline,
        )
    }

    /// The part of this commitment held by the owner of the located
    /// types `owns` accepts: each pending segment cut down to those
    /// types' demand and reserved slices, in its window, and the
    /// segments left without demand dropped. `start` and `deadline` stay
    /// the computation's. `None` when no segment is left.
    ///
    /// The projections onto the parts of a partition of the located
    /// types hold every unit of demand and every reserved slice of the
    /// commitment exactly once between them.
    pub fn project(&self, owns: impl Fn(&LocatedType) -> bool) -> Option<Commitment> {
        let pending: VecDeque<ScheduledSegment> = self
            .pending
            .iter()
            .filter_map(|seg| seg.project(&owns))
            .collect();
        (!pending.is_empty()).then(|| Commitment {
            actor: self.actor.clone(),
            pending,
            start: self.start,
            deadline: self.deadline,
        })
    }

    /// The committed actor.
    pub fn actor(&self) -> &ActorName {
        &self.actor
    }

    /// The computation's earliest start `s`.
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// The admitted computation's deadline `d`.
    pub fn deadline(&self) -> TimePoint {
        self.deadline
    }

    /// The segment currently being fueled, if any.
    pub fn head(&self) -> Option<&ScheduledSegment> {
        self.pending.front()
    }

    /// All pending segments in order.
    pub fn pending(&self) -> impl Iterator<Item = &ScheduledSegment> {
        self.pending.iter()
    }

    /// Number of pending segments.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no segments are pending — alias of
    /// [`is_complete`](Commitment::is_complete), provided for collection
    ///-style symmetry with [`len`](Commitment::len).
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether everything has been fueled — the computation is complete.
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// Remaining total demand across all pending segments.
    pub fn remaining_demand(&self) -> ResourceDemand {
        let mut total = ResourceDemand::new();
        for r in &self.pending {
            total.merge(r.requirement().demand());
        }
        total
    }

    /// Union of all pending reservations, or `None` if any pending segment
    /// is opportunistic (no exact slices known).
    pub fn pending_reservation(&self) -> Option<ResourceSet> {
        let mut total = ResourceSet::new();
        for seg in &self.pending {
            let res = seg.reservation()?;
            total = total.union(res).ok()?;
        }
        Some(total)
    }

    /// Whether every pending segment carries a reservation (vacuously so
    /// once complete): only then is the commitment's future consumption
    /// known tick by tick.
    pub fn is_reserved(&self) -> bool {
        self.pending.iter().all(|seg| seg.reservation.is_some())
    }

    /// Whether this commitment is entitled to `located` at `now`.
    pub fn entitled(&self, located: &LocatedType, now: TimePoint) -> bool {
        self.head()
            .map(|h| h.entitled(located, now))
            .unwrap_or(false)
    }

    /// Applies delivered resource to the head segment: reduces its demand
    /// for `located` by up to `delivered`, popping the segment when every
    /// type in it empties. Returns the quantity actually absorbed and the
    /// popped segment, if this delivery completed it.
    pub fn absorb(
        &mut self,
        located: &LocatedType,
        delivered: Quantity,
    ) -> (Quantity, Option<ScheduledSegment>) {
        let Some(head) = self.pending.front_mut() else {
            return (Quantity::ZERO, None);
        };
        let need = head.requirement().demand().amount(located);
        let absorbed = need.min(delivered);
        if absorbed.is_zero() {
            return (Quantity::ZERO, None);
        }
        head.reduce(located, absorbed);
        let finished = if head.requirement().demand().is_empty() {
            self.pending.pop_front()
        } else {
            None
        };
        (absorbed, finished)
    }

    /// Whether the head segment's window has passed without completing —
    /// the commitment can no longer meet its schedule.
    pub fn is_late(&self, now: TimePoint) -> bool {
        self.head()
            .map(|h| now >= h.requirement().window().end())
            .unwrap_or(false)
    }
}

impl fmt::Display for Commitment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ρ[{}: {} pending, d={}]",
            self.actor,
            self.pending.len(),
            self.deadline
        )
    }
}

/// The full `ρ` of a state: every admitted actor's commitment, in
/// admission order, with each actor's slot in that order kept beside it
/// so that looking an actor up does not scan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Commitments {
    entries: Vec<Commitment>,
    // Each actor's first entry. Derived from `entries`: appending keeps
    // it, a removal re-indexes the entries from the first one removed.
    slots: HashMap<ActorName, usize>,
}

impl Commitments {
    /// No commitments.
    pub fn new() -> Self {
        Commitments::default()
    }

    /// Whether no actor is committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of commitments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Adds a commitment at the end of the admission order.
    pub fn push(&mut self, commitment: Commitment) {
        self.slots
            .entry(commitment.actor().clone())
            .or_insert(self.entries.len());
        self.entries.push(commitment);
    }

    /// Removes (and returns) every commitment for `actor`.
    pub fn remove_actor(&mut self, actor: &ActorName) -> Vec<Commitment> {
        let Some(&first) = self.slots.get(actor) else {
            return Vec::new();
        };
        self.unindex(first);
        let mut removed = Vec::new();
        for c in self.entries.split_off(first) {
            if c.actor() == actor {
                removed.push(c);
            } else {
                self.entries.push(c);
            }
        }
        self.index(first);
        removed
    }

    /// Drops completed commitments, returning how many finished.
    pub fn reap_complete(&mut self) -> usize {
        let Some(first) = self.entries.iter().position(Commitment::is_complete) else {
            return 0;
        };
        self.unindex(first);
        let before = self.entries.len();
        self.entries.retain(|c| !c.is_complete());
        self.index(first);
        before - self.entries.len()
    }

    /// Forgets the slots of the entries from `from` on, which are about
    /// to move.
    fn unindex(&mut self, from: usize) {
        for c in &self.entries[from..] {
            match self.slots.remove(c.actor()) {
                // An earlier entry of the same actor stays first.
                Some(slot) if slot < from => {
                    self.slots.insert(c.actor().clone(), slot);
                }
                _ => {}
            }
        }
    }

    /// Records the slot of each actor whose first entry lies from `from`
    /// on.
    fn index(&mut self, from: usize) {
        for (slot, c) in self.entries.iter().enumerate().skip(from) {
            if !self.slots.contains_key(c.actor()) {
                self.slots.insert(c.actor().clone(), slot);
            }
        }
    }

    /// Iterates over commitments in admission order.
    pub fn iter(&self) -> impl Iterator<Item = &Commitment> {
        self.entries.iter()
    }

    /// The first commitment for `actor`, if present.
    pub fn get(&self, actor: &ActorName) -> Option<&Commitment> {
        self.slots.get(actor).map(|&slot| &self.entries[slot])
    }

    /// Mutable lookup. The commitment must stay `actor`'s: replacing it
    /// with another actor's would leave the lookup pointing at the wrong
    /// entry.
    pub fn get_mut(&mut self, actor: &ActorName) -> Option<&mut Commitment> {
        let slot = *self.slots.get(actor)?;
        self.entries.get_mut(slot)
    }

    /// Aggregate remaining demand across all commitments.
    pub fn total_remaining(&self) -> ResourceDemand {
        let mut total = ResourceDemand::new();
        for c in &self.entries {
            total.merge(&c.remaining_demand());
        }
        total
    }

    /// Actors entitled to consume `located` at `now`, in admission order —
    /// candidates for a `ξ ↦ a` transition label.
    pub fn entitled(&self, located: &LocatedType, now: TimePoint) -> Vec<&ActorName> {
        self.entries
            .iter()
            .filter(|c| c.entitled(located, now))
            .map(Commitment::actor)
            .collect()
    }
}

impl FromIterator<Commitment> for Commitments {
    fn from_iter<I: IntoIterator<Item = Commitment>>(iter: I) -> Self {
        let mut rho = Commitments::new();
        for commitment in iter {
            rho.push(commitment);
        }
        rho
    }
}

impl fmt::Display for Commitments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("∅");
        }
        let mut first = true;
        for c in &self.entries {
            if !first {
                f.write_str(" ∪ ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Test helper constructing a window.
#[cfg(test)]
pub(crate) fn window(s: u64, e: u64) -> rota_interval::TimeInterval {
    rota_interval::TimeInterval::from_ticks(s, e).expect("valid test window")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_resource::{Location, Rate, ResourceTerm};

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn simple(lt: LocatedType, q: u64, s: u64, e: u64) -> SimpleRequirement {
        SimpleRequirement::new(ResourceDemand::single(lt, Quantity::new(q)), window(s, e))
    }

    fn commitment() -> Commitment {
        Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 8, 0, 4), simple(cpu("l2"), 6, 4, 8)],
            TimePoint::new(8),
        )
    }

    #[test]
    fn absorb_drains_head_then_pops() {
        let mut c = commitment();
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.absorb(&cpu("l1"), Quantity::new(5)),
            (Quantity::new(5), None)
        );
        assert_eq!(
            c.head().unwrap().requirement().demand().amount(&cpu("l1")),
            Quantity::new(3)
        );
        // over-delivery absorbs only what is needed, and pops the head
        let (absorbed, finished) = c.absorb(&cpu("l1"), Quantity::new(100));
        assert_eq!(absorbed, Quantity::new(3));
        assert_eq!(
            finished.map(|seg| seg.requirement().window()),
            Some(window(0, 4))
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn absorb_wrong_type_is_noop() {
        let mut c = commitment();
        assert_eq!(
            c.absorb(&cpu("l9"), Quantity::new(5)),
            (Quantity::ZERO, None)
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn multi_type_segment_pops_only_when_all_types_served() {
        let mut demand = ResourceDemand::new();
        demand.add(cpu("l1"), Quantity::new(3));
        demand.add(cpu("l2"), Quantity::new(3));
        let mut c = Commitment::opportunistic(
            ActorName::new("a"),
            [SimpleRequirement::new(demand, window(0, 5))],
            TimePoint::new(5),
        );
        c.absorb(&cpu("l1"), Quantity::new(3));
        assert_eq!(c.len(), 1, "other type still pending");
        c.absorb(&cpu("l2"), Quantity::new(3));
        assert!(c.is_complete());
    }

    #[test]
    fn entitlement_respects_window_demand_and_reservation() {
        // opportunistic: window + demand only
        let c = commitment();
        assert!(c.entitled(&cpu("l1"), TimePoint::new(0)));
        assert!(!c.entitled(&cpu("l2"), TimePoint::new(0))); // head demands l1
        assert!(!c.entitled(&cpu("l1"), TimePoint::new(4))); // window closed

        // reserved: tick must be covered by the reservation
        let res: ResourceSet = [ResourceTerm::new(Rate::new(4), window(2, 4), cpu("l1"))]
            .into_iter()
            .collect();
        let c = Commitment::new(
            ActorName::new("a1"),
            [ScheduledSegment::reserved(simple(cpu("l1"), 8, 0, 4), res)],
            TimePoint::new(4),
        );
        assert!(
            !c.entitled(&cpu("l1"), TimePoint::new(0)),
            "tick 0 not reserved"
        );
        assert!(c.entitled(&cpu("l1"), TimePoint::new(2)));
        assert!(c.entitled(&cpu("l1"), TimePoint::new(3)));
    }

    #[test]
    fn lateness_detection() {
        let c = commitment();
        assert!(!c.is_late(TimePoint::new(3)));
        assert!(c.is_late(TimePoint::new(4)));
        let mut done = commitment();
        done.absorb(&cpu("l1"), Quantity::new(8));
        done.absorb(&cpu("l2"), Quantity::new(6));
        assert!(!done.is_late(TimePoint::new(100)), "complete is never late");
    }

    #[test]
    fn start_inferred_from_first_window() {
        let c = Commitment::opportunistic(
            ActorName::new("a1"),
            [simple(cpu("l1"), 1, 3, 7)],
            TimePoint::new(7),
        );
        assert_eq!(c.start(), TimePoint::new(3));
        let empty = Commitment::opportunistic(
            ActorName::new("a1"),
            std::iter::empty::<SimpleRequirement>(),
            TimePoint::new(7),
        );
        assert_eq!(empty.start(), TimePoint::ZERO);
        assert!(empty.is_complete());
        assert!(empty.is_empty());
        assert!(!commitment().is_empty());
    }

    #[test]
    fn pending_reservation_union_and_opportunistic_none() {
        let res1: ResourceSet = [ResourceTerm::new(Rate::new(2), window(0, 2), cpu("l1"))]
            .into_iter()
            .collect();
        let res2: ResourceSet = [ResourceTerm::new(Rate::new(3), window(2, 4), cpu("l1"))]
            .into_iter()
            .collect();
        let c = Commitment::new(
            ActorName::new("a1"),
            [
                ScheduledSegment::reserved(simple(cpu("l1"), 4, 0, 2), res1.clone()),
                ScheduledSegment::reserved(simple(cpu("l1"), 6, 2, 4), res2.clone()),
            ],
            TimePoint::new(4),
        );
        let total = c.pending_reservation().unwrap();
        assert_eq!(total, res1.union(&res2).unwrap());
        assert!(c.is_reserved());
        assert!(commitment().pending_reservation().is_none());
        assert!(!commitment().is_reserved());
    }

    #[test]
    fn commitments_entitled_and_totals() {
        let mut rho = Commitments::new();
        rho.push(commitment());
        rho.push(Commitment::opportunistic(
            ActorName::new("a2"),
            [simple(cpu("l1"), 4, 2, 6)],
            TimePoint::new(6),
        ));
        assert_eq!(
            rho.entitled(&cpu("l1"), TimePoint::new(0)),
            vec![&ActorName::new("a1")]
        );
        assert_eq!(rho.entitled(&cpu("l1"), TimePoint::new(3)).len(), 2);
        assert!(rho.entitled(&cpu("l9"), TimePoint::new(3)).is_empty());
        assert_eq!(rho.total_remaining().amount(&cpu("l1")), Quantity::new(12));
    }

    #[test]
    fn commitments_reap_and_remove() {
        let mut rho = Commitments::new();
        rho.push(commitment());
        rho.push(Commitment::opportunistic(
            ActorName::new("a2"),
            std::iter::empty::<SimpleRequirement>(),
            TimePoint::new(6),
        ));
        assert_eq!(rho.reap_complete(), 1);
        assert_eq!(rho.len(), 1);
        assert_eq!(rho.remove_actor(&ActorName::new("a1")).len(), 1);
        assert!(rho.is_empty());
    }

    #[test]
    fn projections_onto_a_partition_hold_each_unit_once() {
        let mut both = ResourceDemand::new();
        both.add(cpu("l1"), Quantity::new(2));
        both.add(cpu("l2"), Quantity::new(3));
        let reserved = |terms: &[(&str, u64, u64, u64)]| -> ResourceSet {
            terms
                .iter()
                .map(|&(l, rate, s, e)| ResourceTerm::new(Rate::new(rate), window(s, e), cpu(l)))
                .collect()
        };
        let c = Commitment::new(
            ActorName::new("a1"),
            [
                ScheduledSegment::reserved(
                    SimpleRequirement::new(both, window(2, 4)),
                    reserved(&[("l1", 1, 2, 4), ("l2", 3, 2, 3)]),
                ),
                ScheduledSegment::reserved(
                    simple(cpu("l2"), 4, 4, 6),
                    reserved(&[("l2", 2, 4, 6)]),
                ),
            ],
            TimePoint::new(9),
        );
        let on_l1 = c.project(|lt| *lt == cpu("l1")).unwrap();
        let rest = c.project(|lt| *lt != cpu("l1")).unwrap();
        assert_eq!((on_l1.len(), rest.len()), (1, 2));
        for part in [&on_l1, &rest] {
            assert_eq!(part.actor(), c.actor());
            assert_eq!((part.start(), part.deadline()), (c.start(), c.deadline()));
        }
        assert_eq!(
            on_l1
                .pending_reservation()
                .unwrap()
                .union(&rest.pending_reservation().unwrap())
                .unwrap(),
            c.pending_reservation().unwrap()
        );
        let mut demand = on_l1.remaining_demand();
        demand.merge(&rest.remaining_demand());
        assert_eq!(demand, c.remaining_demand());
        assert_eq!(
            rest.head().unwrap().requirement().window(),
            window(2, 4),
            "a cut segment keeps its window"
        );
        assert!(c.project(|lt| *lt == cpu("l9")).is_none());
        assert_eq!(c.project(|_| true).unwrap(), c);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Commitments::new().to_string(), "∅");
        assert_eq!(commitment().to_string(), "ρ[a1: 2 pending, d=t8]");
        let seg = ScheduledSegment::opportunistic(simple(cpu("l1"), 8, 0, 4));
        assert!(!seg.to_string().ends_with('*'));
        let seg = ScheduledSegment::reserved(simple(cpu("l1"), 8, 0, 4), ResourceSet::new());
        assert!(seg.to_string().ends_with('*'));
    }
}
