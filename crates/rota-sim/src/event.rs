//! The simulator's event queue: resource churn and computation arrivals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rota_admission::AdmissionRequest;
use rota_interval::TimePoint;
use rota_resource::ResourceSet;

/// Something that happens to the open system at an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Resources join (for the intervals their terms carry — leaving is
    /// encoded in the terms' interval ends, per the paper's acquisition
    /// rule).
    ResourceJoin {
        /// The joining resource terms.
        theta: ResourceSet,
    },
    /// A deadline-constrained computation arrives and requests admission.
    Arrival {
        /// The priced admission request.
        request: AdmissionRequest,
    },
    /// An admitted computation withdraws before its start (the paper's
    /// computation-leave rule, guard `t < s`). Identified by its actors.
    ComputationLeave {
        /// The actors of the leaving computation, as admitted.
        actors: Vec<rota_actor::ActorName>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct QueuedEvent {
    at: TimePoint,
    seq: u64,
    event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (then lowest
        // sequence number) pops first. Resource joins before arrivals at
        // the same instant is guaranteed by insertion order (callers push
        // joins first), backed by the seq tiebreak.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use rota_interval::TimePoint;
/// use rota_resource::ResourceSet;
/// use rota_sim::{Event, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(TimePoint::new(5), Event::ResourceJoin { theta: ResourceSet::new() });
/// q.push(TimePoint::new(2), Event::ResourceJoin { theta: ResourceSet::new() });
/// assert_eq!(q.next_time(), Some(TimePoint::new(2)));
/// assert_eq!(q.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: TimePoint, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent { at, seq, event });
    }

    /// The time of the next event, if any.
    pub fn next_time(&self) -> Option<TimePoint> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: TimePoint) -> Option<(TimePoint, Event)> {
        if self.next_time()? <= now {
            let q = self.heap.pop().expect("peeked");
            Some((q.at, q.event))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join() -> Event {
        Event::ResourceJoin {
            theta: ResourceSet::new(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(TimePoint::new(9), join());
        q.push(TimePoint::new(1), join());
        q.push(TimePoint::new(5), join());
        let mut times = Vec::new();
        while let Some((t, _)) = q.pop_due(TimePoint::new(100)) {
            times.push(t.ticks());
        }
        assert_eq!(times, vec![1, 5, 9]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = TimePoint::new(3);
        q.push(t, join());
        q.push(
            t,
            Event::Arrival {
                request: dummy_request(),
            },
        );
        let (_, first) = q.pop_due(t).unwrap();
        assert!(matches!(first, Event::ResourceJoin { .. }));
        let (_, second) = q.pop_due(t).unwrap();
        assert!(matches!(second, Event::Arrival { .. }));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(TimePoint::new(5), join());
        assert!(q.pop_due(TimePoint::new(4)).is_none());
        assert!(q.pop_due(TimePoint::new(5)).is_some());
        assert!(q.is_empty());
    }

    fn dummy_request() -> AdmissionRequest {
        use rota_actor::{
            ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
        };
        AdmissionRequest::price(
            DistributedComputation::single(
                "dummy",
                ActorComputation::new("a", "l1").then(ActionKind::Ready),
                TimePoint::ZERO,
                TimePoint::new(10),
            )
            .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }
}
