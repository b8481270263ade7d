//! The constructive scheduler behind Theorem 2 (and, via Θ_expire,
//! Theorem 4).
//!
//! Theorem 2: a system can accommodate a sequential computation
//! `(Γ, s, d)` **iff** there exist breakpoints `t₁ < … < t_{m−1}` dividing
//! `(s, d)` so that each segment's simple requirement is satisfied in its
//! sub-window. [`schedule_complex`] searches for those breakpoints with an
//! earliest-feasible greedy sweep, which is *complete* for this model:
//!
//! * If any feasible breakpoint sequence exists, greedy's segment-`i`
//!   completion time is ≤ the feasible sequence's `tᵢ` (induction: an
//!   earlier cursor only enlarges every availability integral), so greedy
//!   also succeeds. [`exhaustive_schedule_exists`] cross-checks this on
//!   small instances in the test suite.
//!
//! The returned [`Schedule`] pins each segment to its window **and** to
//! the exact availability slices it will consume ([`ScheduledSegment`]
//! reservations), so concurrent commitments never contend (the Theorem-4
//! path-combination argument made executable).

use core::fmt;

use rota_actor::{ActorName, ComplexRequirement, ConcurrentRequirement, SimpleRequirement};
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{LocatedType, Quantity, ResourceSet};

use crate::commitment::{Commitment, ScheduledSegment};

/// Why a requirement could not be scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleError {
    segment: usize,
    located: Option<LocatedType>,
    shortfall: Quantity,
    deadline: TimePoint,
}

impl InfeasibleError {
    /// Index of the first segment that cannot complete by the deadline.
    pub fn segment(&self) -> usize {
        self.segment
    }

    /// The located type that falls short, when attributable to one.
    pub fn located(&self) -> Option<&LocatedType> {
        self.located.as_ref()
    }

    /// How many units remain uncovered at the deadline.
    pub fn shortfall(&self) -> Quantity {
        self.shortfall
    }
}

impl fmt::Display for InfeasibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment {} cannot complete by {}",
            self.segment, self.deadline
        )?;
        if let Some(lt) = &self.located {
            write!(f, ": {} short by {}", lt, self.shortfall)?;
        }
        Ok(())
    }
}

impl std::error::Error for InfeasibleError {}

/// A feasible placement of a complex requirement: scheduled segments with
/// reservations, and the overall completion time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    segments: Vec<ScheduledSegment>,
    completion: TimePoint,
}

impl Schedule {
    /// The scheduled segments in execution order.
    pub fn segments(&self) -> &[ScheduledSegment] {
        &self.segments
    }

    /// When the last segment completes (≤ the requirement's deadline).
    pub fn completion(&self) -> TimePoint {
        self.completion
    }

    /// Union of every reserved slice.
    pub fn total_reservation(&self) -> ResourceSet {
        let mut total = ResourceSet::new();
        for seg in &self.segments {
            if let Some(res) = seg.reservation() {
                total = total
                    .union(res)
                    .expect("reservations are bounded by availability");
            }
        }
        total
    }

    /// Packages the schedule as a commitment for `actor` with deadline
    /// `d`, ready for [`State::accommodate`](crate::State::accommodate).
    pub fn into_commitment(self, actor: ActorName, deadline: TimePoint) -> Commitment {
        Commitment::new(actor, self.segments, deadline)
    }
}

/// Schedules one actor's complex requirement `ρ(Γ, s, d)` against the
/// available (free/expiring) resources, starting no earlier than
/// `earliest`.
///
/// # Errors
///
/// Returns [`InfeasibleError`] naming the first segment (and located
/// type) that cannot be covered by the deadline. Per Theorem 2 this is
/// definitive: no breakpoint sequence exists.
pub fn schedule_complex(
    free: &ResourceSet,
    requirement: &ComplexRequirement,
    earliest: TimePoint,
) -> Result<Schedule, InfeasibleError> {
    let window = requirement.window();
    let deadline = window.end();
    let mut cursor = window.start().max(earliest);
    let mut segments = Vec::with_capacity(requirement.len());
    for (index, demand) in requirement.segments().iter().enumerate() {
        if cursor >= deadline {
            return Err(InfeasibleError {
                segment: index,
                located: None,
                shortfall: Quantity::ZERO,
                deadline,
            });
        }
        let remaining = TimeInterval::new(cursor, deadline).expect("cursor < deadline");
        let mut segment_end = cursor;
        let mut reservation = ResourceSet::new();
        for (lt, q) in demand.iter() {
            match earliest_cover(free, lt, q, &remaining) {
                Some(cover_end) => {
                    // Reserve the full availability of `lt` over the ticks
                    // used: execution delivers whole ticks, and the final
                    // tick's overshoot expires (cannot serve anyone else).
                    let span = TimeInterval::new(cursor, cover_end)
                        .expect("cover extends past the cursor");
                    let slice = free.profile(lt).clamp(&span);
                    for (iv, r) in slice.segments() {
                        reservation
                            .insert(rota_resource::ResourceTerm::new(*r, *iv, lt.clone()))
                            .expect("clamped slice cannot overflow");
                    }
                    segment_end = segment_end.max(cover_end);
                }
                None => {
                    let have = free
                        .quantity_over(lt, &remaining)
                        .unwrap_or(Quantity::new(u64::MAX));
                    return Err(InfeasibleError {
                        segment: index,
                        located: Some(lt.clone()),
                        shortfall: q.saturating_sub(have),
                        deadline,
                    });
                }
            }
        }
        if segment_end == cursor {
            // Zero-demand segment (empty demand): takes no time.
            continue;
        }
        let seg_window = TimeInterval::new(cursor, segment_end).expect("non-empty segment window");
        segments.push(ScheduledSegment::reserved(
            SimpleRequirement::new(demand.clone(), seg_window),
            reservation,
        ));
        cursor = segment_end;
    }
    Ok(Schedule {
        segments,
        completion: cursor,
    })
}

/// Schedules every actor of a concurrent requirement `ρ(Λ, s, d)`,
/// serially carving each actor's reservation out of the free set before
/// scheduling the next — the step-by-step accommodation the paper
/// motivates in Section IV-B3.
///
/// Returns per-actor schedules in the order of `requirement.parts()`.
/// Always sound. Exact, and monotone in `free`, when the parts demand
/// pairwise disjoint located types; when they share one, an accept can
/// depend on the parts' order, and added supply can turn it into a
/// reject (DESIGN.md §4).
///
/// # Errors
///
/// Returns the failing actor's index alongside the [`InfeasibleError`].
pub fn schedule_concurrent(
    free: &ResourceSet,
    requirement: &ConcurrentRequirement,
    earliest: TimePoint,
) -> Result<Vec<Schedule>, (usize, InfeasibleError)> {
    let mut remaining = free.clone();
    let mut out = Vec::with_capacity(requirement.parts().len());
    for (i, part) in requirement.parts().iter().enumerate() {
        let schedule = schedule_complex(&remaining, part, earliest).map_err(|e| (i, e))?;
        let reserved = schedule.total_reservation();
        remaining
            .subtract_set(&reserved)
            .expect("reservations are carved from the remaining set");
        out.push(schedule);
    }
    Ok(out)
}

/// Earliest `e ≤ window.end()` such that the availability integral of
/// `located` over `(window.start(), e)` reaches `quantity`; `None` if even
/// the whole window falls short.
fn earliest_cover(
    free: &ResourceSet,
    located: &LocatedType,
    quantity: Quantity,
    window: &TimeInterval,
) -> Option<TimePoint> {
    if quantity.is_zero() {
        return Some(window.start());
    }
    let profile = free.profile(located);
    let mut need = quantity;
    for (iv, rate) in profile.segments() {
        let Some(shared) = iv.intersect(window) else {
            continue;
        };
        let deliverable = rate.over(shared.duration()).ok()?;
        if deliverable >= need {
            let ticks = need
                .ticks_at(*rate)
                .expect("rate is non-zero on profile segments");
            return Some(shared.start() + ticks);
        }
        need = need - deliverable;
    }
    None
}

/// Brute-force reference for Theorem 2: does *any* breakpoint sequence
/// exist? Exponential in the number of segments — used to cross-validate
/// the greedy scheduler on small instances (tests, E10 ablation).
pub fn exhaustive_schedule_exists(
    free: &ResourceSet,
    requirement: &ComplexRequirement,
    earliest: TimePoint,
) -> bool {
    fn recurse(
        free: &ResourceSet,
        segments: &[rota_actor::ResourceDemand],
        cursor: TimePoint,
        deadline: TimePoint,
    ) -> bool {
        let Some(demand) = segments.first() else {
            return true;
        };
        if cursor >= deadline {
            return false;
        }
        // Try every breakpoint e in (cursor, deadline].
        let mut e = cursor + rota_interval::TickDuration::DELTA;
        loop {
            let window = TimeInterval::new(cursor, e).expect("e > cursor");
            let satisfied = demand.iter().all(|(lt, q)| {
                free.quantity_over(lt, &window)
                    .map(|have| have >= q)
                    .unwrap_or(true)
            });
            if satisfied && recurse(free, &segments[1..], e, deadline) {
                return true;
            }
            if e >= deadline {
                return false;
            }
            e += rota_interval::TickDuration::DELTA;
        }
    }
    let window = requirement.window();
    let cursor = window.start().max(earliest);
    recurse(free, requirement.segments(), cursor, window.end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::window;
    use rota_actor::ResourceDemand;
    use rota_resource::{Location, Rate, ResourceTerm};

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn theta(terms: &[(LocatedType, u64, u64, u64)]) -> ResourceSet {
        terms
            .iter()
            .map(|(lt, r, s, e)| ResourceTerm::new(Rate::new(*r), window(*s, *e), lt.clone()))
            .collect()
    }

    fn complex(segs: &[(LocatedType, u64)], s: u64, d: u64) -> ComplexRequirement {
        ComplexRequirement::new(
            segs.iter()
                .map(|(lt, q)| ResourceDemand::single(lt.clone(), Quantity::new(*q)))
                .collect(),
            window(s, d),
        )
    }

    #[test]
    fn single_segment_earliest_cover() {
        let free = theta(&[(cpu("l1"), 4, 0, 10)]);
        let req = complex(&[(cpu("l1"), 10)], 0, 10);
        let s = schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        // 10 units at rate 4: ceil(10/4) = 3 ticks
        assert_eq!(s.completion(), TimePoint::new(3));
        assert_eq!(s.segments().len(), 1);
        let seg = &s.segments()[0];
        assert_eq!(seg.requirement().window(), window(0, 3));
        // reserved the full rate over the three ticks
        assert_eq!(
            seg.reservation()
                .unwrap()
                .quantity_over(&cpu("l1"), &window(0, 3))
                .unwrap(),
            Quantity::new(12)
        );
    }

    #[test]
    fn sequential_segments_chain_windows() {
        let free = theta(&[(cpu("l1"), 2, 0, 20), (cpu("l2"), 2, 0, 20)]);
        let req = complex(&[(cpu("l1"), 4), (cpu("l2"), 6)], 0, 20);
        let s = schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        assert_eq!(s.segments()[0].requirement().window(), window(0, 2));
        assert_eq!(s.segments()[1].requirement().window(), window(2, 5));
        assert_eq!(s.completion(), TimePoint::new(5));
    }

    #[test]
    fn waits_out_gaps_in_availability() {
        // nothing until t=5, then plenty
        let free = theta(&[(cpu("l1"), 10, 5, 10)]);
        let req = complex(&[(cpu("l1"), 10)], 0, 10);
        let s = schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        assert_eq!(s.completion(), TimePoint::new(6));
    }

    #[test]
    fn multi_type_segment_completes_at_slowest_type() {
        let mut demand = ResourceDemand::new();
        demand.add(cpu("l1"), Quantity::new(2)); // 1 tick at rate 2
        demand.add(cpu("l2"), Quantity::new(6)); // 3 ticks at rate 2
        let req = ComplexRequirement::new(vec![demand], window(0, 10));
        let free = theta(&[(cpu("l1"), 2, 0, 10), (cpu("l2"), 2, 0, 10)]);
        let s = schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        assert_eq!(s.completion(), TimePoint::new(3));
        // l1 reserved only its first tick
        let res = s.segments()[0].reservation().unwrap();
        assert_eq!(
            res.quantity_over(&cpu("l1"), &window(0, 10)).unwrap(),
            Quantity::new(2)
        );
        assert_eq!(
            res.quantity_over(&cpu("l2"), &window(0, 10)).unwrap(),
            Quantity::new(6)
        );
    }

    #[test]
    fn infeasible_reports_segment_and_type() {
        let free = theta(&[(cpu("l1"), 1, 0, 4)]);
        let req = complex(&[(cpu("l1"), 2), (cpu("l1"), 10)], 0, 4);
        let err = schedule_complex(&free, &req, TimePoint::ZERO).unwrap_err();
        assert_eq!(err.segment(), 1);
        assert_eq!(err.located(), Some(&cpu("l1")));
        assert_eq!(err.shortfall(), Quantity::new(8));
        assert!(err.to_string().contains("segment 1"));
    }

    #[test]
    fn earliest_start_is_respected() {
        let free = theta(&[(cpu("l1"), 4, 0, 10)]);
        let req = complex(&[(cpu("l1"), 4)], 0, 10);
        let s = schedule_complex(&free, &req, TimePoint::new(6)).unwrap();
        assert_eq!(s.segments()[0].requirement().window(), window(6, 7));
    }

    #[test]
    fn total_quantity_spread_too_thin_is_infeasible() {
        // The paper's warning: enough total quantity, but confined
        // requirement window. Demand 10 cpu within (0,4); availability
        // rate 1 over (0,20) = total 20 but only 4 within the window.
        let free = theta(&[(cpu("l1"), 1, 0, 20)]);
        let req = complex(&[(cpu("l1"), 10)], 0, 4);
        assert!(schedule_complex(&free, &req, TimePoint::ZERO).is_err());
        assert!(!exhaustive_schedule_exists(&free, &req, TimePoint::ZERO));
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instances() {
        // systematic sweep over small availability shapes and 2-segment
        // requirements
        for r1 in 0..3u64 {
            for r2 in 0..3u64 {
                for q1 in 1..4u64 {
                    for q2 in 1..4u64 {
                        let free = theta(&[
                            (cpu("l1"), r1, 0, 3),
                            (cpu("l1"), r2, 3, 6),
                            (cpu("l2"), r2, 0, 6),
                        ]);
                        let req = complex(&[(cpu("l1"), q1), (cpu("l2"), q2)], 0, 6);
                        let greedy = schedule_complex(&free, &req, TimePoint::ZERO).is_ok();
                        let brute = exhaustive_schedule_exists(&free, &req, TimePoint::ZERO);
                        assert_eq!(greedy, brute, "r1={r1} r2={r2} q1={q1} q2={q2}");
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_scheduling_carves_reservations() {
        let free = theta(&[(cpu("l1"), 2, 0, 10)]);
        let part = complex(&[(cpu("l1"), 8)], 0, 10);
        let req = ConcurrentRequirement::new(vec![part.clone(), part.clone()], window(0, 10));
        let schedules = schedule_concurrent(&free, &req, TimePoint::ZERO).unwrap();
        assert_eq!(schedules.len(), 2);
        // first actor takes (0,4), second the next four ticks
        assert_eq!(schedules[0].completion(), TimePoint::new(4));
        assert_eq!(schedules[1].completion(), TimePoint::new(8));
        // reservations are disjoint
        let r0 = schedules[0].total_reservation();
        let r1 = schedules[1].total_reservation();
        let both = r0.union(&r1).unwrap();
        assert!(free.dominates(&both));
        // a third identical actor no longer fits... (only 2 rate-ticks left)
        let req3 =
            ConcurrentRequirement::new(vec![part.clone(), part.clone(), part], window(0, 10));
        let err = schedule_concurrent(&free, &req3, TimePoint::ZERO).unwrap_err();
        assert_eq!(err.0, 2);
    }

    /// Serial carving is sound but neither complete nor monotone when
    /// actors share a located type. Both actors need `b`, which is on
    /// offer only over (1,3). On Θ, `a1` spends (0,2) on `a` and takes
    /// `b` over (2,3), leaving (1,2) for `a2`, which then meets `c`'s
    /// only tick (2,3). Doubling `a`'s rate lets `a1` finish `a` at 1
    /// and take `b` over (1,2) instead, so `a2` cannot finish `b` before
    /// (2,3) and misses `c`: more supply, a reject. Scheduling `a2`
    /// first fits on the same Θ′. Disjoint actor types avoid this: each
    /// actor then gets Theorem 2's complete greedy on its own types.
    #[test]
    fn shared_types_make_the_concurrent_decision_order_dependent() {
        let (a, b, c) = (cpu("a"), cpu("b"), cpu("c"));
        let a1 = complex(&[(a.clone(), 2), (b.clone(), 1)], 0, 3);
        let a2 = complex(&[(b.clone(), 1), (c.clone(), 1)], 0, 3);
        let supply = |rate_a| {
            theta(&[
                (a.clone(), rate_a, 0, 10),
                (b.clone(), 1, 1, 3),
                (c.clone(), 1, 2, 3),
            ])
        };
        let decide = |free: &ResourceSet, parts: [&ComplexRequirement; 2]| {
            let req = ConcurrentRequirement::new(parts.map(Clone::clone).to_vec(), window(0, 3));
            schedule_concurrent(free, &req, TimePoint::ZERO)
        };
        let accepted = decide(&supply(1), [&a1, &a2]).expect("Θ accepts");
        assert_eq!(
            accepted[0].completion(),
            TimePoint::new(3),
            "a1 takes b over (2,3)"
        );
        assert_eq!(
            accepted[1].completion(),
            TimePoint::new(3),
            "a2 takes b over (1,2)"
        );
        let richer = supply(2);
        assert!(richer.dominates(&supply(1)));
        let (actor, _) = decide(&richer, [&a1, &a2]).expect_err("Θ′ rejects");
        assert_eq!(actor, 1, "a2 is the one left without a fit");
        assert!(
            decide(&richer, [&a2, &a1]).is_ok(),
            "the reversed order fits Θ′"
        );
    }

    #[test]
    fn into_commitment_carries_schedule() {
        let free = theta(&[(cpu("l1"), 4, 0, 10)]);
        let req = complex(&[(cpu("l1"), 8)], 0, 10);
        let s = schedule_complex(&free, &req, TimePoint::ZERO).unwrap();
        let c = s.into_commitment(ActorName::new("a1"), TimePoint::new(10));
        assert_eq!(c.actor(), &ActorName::new("a1"));
        assert_eq!(c.len(), 1);
        assert!(c.pending_reservation().is_some());
    }

    #[test]
    fn zero_demand_requirement_completes_instantly() {
        let req = ComplexRequirement::new(vec![], window(0, 10));
        let s = schedule_complex(&ResourceSet::new(), &req, TimePoint::ZERO).unwrap();
        assert!(s.segments().is_empty());
        assert_eq!(s.completion(), TimePoint::ZERO.max(TimePoint::new(0)));
    }
}
