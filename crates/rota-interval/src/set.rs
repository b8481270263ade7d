//! Sets of time ticks represented as disjoint, normalized interval unions.
//!
//! The paper uses ordinary set operations — union (∪), intersection (∩) and
//! relative complement (\) — on time intervals. A single
//! [`TimeInterval`] is not closed under those operations, so
//! [`IntervalSet`] provides the closure: a canonical sorted sequence of
//! pairwise-disjoint, non-adjacent intervals.

use core::fmt;

use crate::interval::TimeInterval;
use crate::time::{TickDuration, TimePoint};

/// A set of ticks stored as a normalized union of disjoint intervals.
///
/// Normal form invariants (maintained by every operation, checked in
/// tests): intervals are sorted by start, pairwise disjoint, and no two are
/// adjacent (an interval never *meets* its successor — such pairs are
/// coalesced).
///
/// # Examples
///
/// ```
/// use rota_interval::{IntervalSet, TimeInterval};
///
/// let mut s = IntervalSet::new();
/// s.insert(TimeInterval::from_ticks(0, 3)?);
/// s.insert(TimeInterval::from_ticks(3, 5)?); // meets: coalesces
/// assert_eq!(s.spans().len(), 1);
/// assert_eq!(s.total_duration().ticks(), 5);
/// # Ok::<(), rota_interval::EmptyIntervalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IntervalSet {
    spans: Vec<TimeInterval>,
}

impl IntervalSet {
    /// Creates the empty set.
    pub fn new() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// Creates a set covering exactly one interval.
    pub fn from_interval(interval: TimeInterval) -> Self {
        IntervalSet {
            spans: vec![interval],
        }
    }

    /// Whether the set contains no ticks.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The normalized disjoint spans, in ascending order.
    pub fn spans(&self) -> &[TimeInterval] {
        &self.spans
    }

    /// Total number of ticks covered.
    pub fn total_duration(&self) -> TickDuration {
        self.spans
            .iter()
            .fold(TickDuration::ZERO, |acc, iv| acc + iv.duration())
    }

    /// Whether tick `t` is covered.
    pub fn contains_tick(&self, t: TimePoint) -> bool {
        // Binary search by start; candidate is the last span starting <= t.
        match self.spans.binary_search_by(|iv| iv.start().cmp(&t)) {
            Ok(_) => true,
            Err(0) => false,
            Err(idx) => self.spans[idx - 1].contains_tick(t),
        }
    }

    /// Whether every tick of `interval` is covered.
    pub fn covers(&self, interval: &TimeInterval) -> bool {
        // A normalized set covers a contiguous interval iff a single span does.
        self.spans.iter().any(|iv| iv.contains_interval(interval))
    }

    /// Inserts an interval, merging with any overlapping or adjacent spans.
    ///
    /// An interval starting at or after the last span's start can touch
    /// only that span, so building a set from sorted input is linear.
    pub fn insert(&mut self, interval: TimeInterval) {
        if let Some(last) = self.spans.last_mut() {
            if interval.start() >= last.start() {
                match last.union_contiguous(&interval) {
                    Some(merged) => *last = merged,
                    None => self.spans.push(interval),
                }
                return;
            }
        }
        let mut merged = interval;
        let mut out = Vec::with_capacity(self.spans.len() + 1);
        let mut placed = false;
        for &span in &self.spans {
            if let Some(u) = merged.union_contiguous(&span) {
                merged = u;
            } else if span.end() < merged.start() {
                out.push(span);
            } else {
                if !placed {
                    out.push(merged);
                    placed = true;
                }
                out.push(span);
            }
        }
        if !placed {
            out.push(merged);
        }
        self.spans = out;
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = self.clone();
        for &iv in &other.spans {
            out.insert(iv);
        }
        out
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            if let Some(shared) = self.spans[i].intersect(&other.spans[j]) {
                out.push(shared);
            }
            if self.spans[i].end() <= other.spans[j].end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { spans: out }
    }

    /// Relative complement `self \ other`, in one sweep over both span
    /// lists.
    #[must_use]
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::with_capacity(self.spans.len());
        let cuts = &other.spans;
        let mut first = 0;
        for &span in &self.spans {
            // Cuts ending by this span's start miss it and every later span.
            while cuts.get(first).is_some_and(|cut| cut.end() <= span.start()) {
                first += 1;
            }
            let mut start = span.start();
            for cut in &cuts[first..] {
                if cut.start() >= span.end() {
                    break;
                }
                if cut.start() > start {
                    out.push(TimeInterval::new(start, cut.start()).expect("start < cut start"));
                }
                start = start.max(cut.end());
                if start >= span.end() {
                    break;
                }
            }
            if start < span.end() {
                out.push(TimeInterval::new(start, span.end()).expect("start < span end"));
            }
        }
        IntervalSet { spans: out }
    }

    /// Restricts the set to `window` (intersection with one interval).
    #[must_use]
    pub fn clamp(&self, window: &TimeInterval) -> IntervalSet {
        self.intersect(&IntervalSet::from_interval(*window))
    }

    /// The smallest interval covering every tick, or `None` when empty.
    pub fn hull(&self) -> Option<TimeInterval> {
        match (self.spans.first(), self.spans.last()) {
            (Some(first), Some(last)) => Some(first.hull(last)),
            _ => None,
        }
    }

    /// Iterates over the covered ticks in ascending order.
    pub fn ticks(&self) -> impl Iterator<Item = TimePoint> + '_ {
        self.spans.iter().flat_map(|iv| iv.ticks())
    }
}

impl FromIterator<TimeInterval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = TimeInterval>>(iter: I) -> Self {
        let mut out = IntervalSet::new();
        for iv in iter {
            out.insert(iv);
        }
        out
    }
}

impl Extend<TimeInterval> for IntervalSet {
    fn extend<I: IntoIterator<Item = TimeInterval>>(&mut self, iter: I) {
        for iv in iter {
            self.insert(iv);
        }
    }
}

impl From<TimeInterval> for IntervalSet {
    fn from(interval: TimeInterval) -> Self {
        IntervalSet::from_interval(interval)
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.spans.is_empty() {
            return f.write_str("∅");
        }
        let mut first = true;
        for iv in &self.spans {
            if !first {
                f.write_str(" ∪ ")?;
            }
            first = false;
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn set(parts: &[(u64, u64)]) -> IntervalSet {
        parts.iter().map(|&(s, e)| iv(s, e)).collect()
    }

    fn assert_normal(s: &IntervalSet) {
        for w in s.spans().windows(2) {
            assert!(
                w[0].end() < w[1].start(),
                "not normalized: {} then {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn insert_merges_overlap_and_adjacency() {
        let s = set(&[(0, 3), (3, 5)]);
        assert_eq!(s.spans(), &[iv(0, 5)]);
        let s = set(&[(0, 3), (2, 5)]);
        assert_eq!(s.spans(), &[iv(0, 5)]);
        let s = set(&[(0, 2), (4, 6)]);
        assert_eq!(s.spans(), &[iv(0, 2), iv(4, 6)]);
        assert_normal(&s);
    }

    #[test]
    fn insert_bridges_multiple_spans() {
        let mut s = set(&[(0, 2), (4, 6), (8, 10)]);
        s.insert(iv(1, 9));
        assert_eq!(s.spans(), &[iv(0, 10)]);
    }

    #[test]
    fn insert_out_of_order_normalizes() {
        let s = set(&[(8, 10), (0, 2), (4, 6)]);
        assert_eq!(s.spans(), &[iv(0, 2), iv(4, 6), iv(8, 10)]);
        assert_normal(&s);
    }

    #[test]
    fn membership_binary_search() {
        let s = set(&[(0, 2), (5, 8)]);
        assert!(s.contains_tick(TimePoint::new(0)));
        assert!(s.contains_tick(TimePoint::new(1)));
        assert!(!s.contains_tick(TimePoint::new(2)));
        assert!(!s.contains_tick(TimePoint::new(4)));
        assert!(s.contains_tick(TimePoint::new(5)));
        assert!(s.contains_tick(TimePoint::new(7)));
        assert!(!s.contains_tick(TimePoint::new(8)));
    }

    #[test]
    fn covers_requires_single_span() {
        let s = set(&[(0, 3), (5, 9)]);
        assert!(s.covers(&iv(5, 9)));
        assert!(s.covers(&iv(6, 8)));
        assert!(!s.covers(&iv(2, 6))); // spans the gap
    }

    #[test]
    fn union_intersect_difference_consistency() {
        let a = set(&[(0, 4), (6, 10)]);
        let b = set(&[(2, 7), (9, 12)]);
        let u = a.union(&b);
        let i = a.intersect(&b);
        let d = a.difference(&b);
        assert_eq!(u, set(&[(0, 12)]));
        assert_eq!(i, set(&[(2, 4), (6, 7), (9, 10)]));
        assert_eq!(d, set(&[(0, 2), (7, 9)]));
        // semantic checks per tick
        for t in 0..14u64 {
            let t = TimePoint::new(t);
            assert_eq!(u.contains_tick(t), a.contains_tick(t) || b.contains_tick(t));
            assert_eq!(i.contains_tick(t), a.contains_tick(t) && b.contains_tick(t));
            assert_eq!(
                d.contains_tick(t),
                a.contains_tick(t) && !b.contains_tick(t)
            );
        }
        assert_normal(&u);
        assert_normal(&i);
        assert_normal(&d);
    }

    #[test]
    fn difference_with_empty_is_identity() {
        let a = set(&[(1, 5)]);
        assert_eq!(a.difference(&IntervalSet::new()), a);
        assert_eq!(IntervalSet::new().difference(&a), IntervalSet::new());
    }

    #[test]
    fn clamp_restricts() {
        let a = set(&[(0, 4), (6, 10)]);
        assert_eq!(a.clamp(&iv(3, 8)), set(&[(3, 4), (6, 8)]));
    }

    #[test]
    fn hull_and_duration() {
        let a = set(&[(1, 3), (7, 9)]);
        assert_eq!(a.hull(), Some(iv(1, 9)));
        assert_eq!(a.total_duration(), TickDuration::new(4));
        assert_eq!(IntervalSet::new().hull(), None);
    }

    #[test]
    fn ticks_enumerates_members() {
        let a = set(&[(0, 2), (5, 7)]);
        let got: Vec<u64> = a.ticks().map(TimePoint::ticks).collect();
        assert_eq!(got, vec![0, 1, 5, 6]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntervalSet::new().to_string(), "∅");
        assert_eq!(set(&[(0, 2), (5, 7)]).to_string(), "(0,2) ∪ (5,7)");
    }
}
