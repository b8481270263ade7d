//! Time intervals: the `τ` in a ROTA resource term `[r]^τ_ξ`.
//!
//! Intervals are **half-open** `[start, end)` on the discrete tick timeline
//! and always non-empty (`start < end`). The paper writes an interval as
//! `(t_start, t_end)` and notes that resources "are only defined during
//! non-empty time intervals"; half-open semantics also make its own worked
//! examples come out exactly — e.g. `(0,3)` *meets* `(3,5)`, they do not
//! share a tick.

use core::fmt;

use crate::time::{TickDuration, TimePoint};

/// Error returned when constructing a degenerate (empty or inverted)
/// interval.
///
/// # Examples
///
/// ```
/// use rota_interval::{TimeInterval, TimePoint};
///
/// let err = TimeInterval::new(TimePoint::new(5), TimePoint::new(5)).unwrap_err();
/// assert_eq!(err.to_string(), "empty time interval: start t5 is not before end t5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyIntervalError {
    start: TimePoint,
    end: TimePoint,
}

impl EmptyIntervalError {
    /// The offending start point.
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// The offending end point.
    pub fn end(&self) -> TimePoint {
        self.end
    }
}

impl fmt::Display for EmptyIntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "empty time interval: start {} is not before end {}",
            self.start, self.end
        )
    }
}

impl std::error::Error for EmptyIntervalError {}

/// A non-empty half-open interval `[start, end)` of ticks.
///
/// This is the paper's `τ` with start time `t_start` and end time `t_end`.
/// Ticks `t` with `start <= t < end` belong to the interval.
///
/// # Examples
///
/// ```
/// use rota_interval::TimeInterval;
///
/// let tau = TimeInterval::from_ticks(0, 3)?;
/// assert_eq!(tau.duration().ticks(), 3);
/// assert!(tau.contains_tick(2.into()));
/// assert!(!tau.contains_tick(3.into()));
/// # Ok::<(), rota_interval::EmptyIntervalError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeInterval {
    // Ordered (start, end) so the derived lexicographic `Ord` sorts interval
    // sets by start time first — the order every sweep in the crate relies on.
    start: TimePoint,
    end: TimePoint,
}

impl TimeInterval {
    /// Creates the interval `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyIntervalError`] unless `start < end`.
    pub fn new(start: TimePoint, end: TimePoint) -> Result<Self, EmptyIntervalError> {
        if start < end {
            Ok(TimeInterval { start, end })
        } else {
            Err(EmptyIntervalError { start, end })
        }
    }

    /// Creates `[start, end)` from raw tick counts.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyIntervalError`] unless `start < end`.
    pub fn from_ticks(start: u64, end: u64) -> Result<Self, EmptyIntervalError> {
        TimeInterval::new(TimePoint::new(start), TimePoint::new(end))
    }

    /// Creates the single-tick interval `[t, t + Δt)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is [`TimePoint::MAX`].
    pub fn tick(t: TimePoint) -> Self {
        TimeInterval {
            start: t,
            end: t + TickDuration::DELTA,
        }
    }

    /// The inclusive start of the interval.
    #[inline]
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// The exclusive end of the interval.
    #[inline]
    pub fn end(&self) -> TimePoint {
        self.end
    }

    /// Number of ticks in the interval — the `τ` factor in the paper's
    /// "total quantity = rate × τ" product.
    #[inline]
    pub fn duration(&self) -> TickDuration {
        self.end - self.start
    }

    /// Whether tick `t` lies inside `[start, end)`.
    #[inline]
    pub fn contains_tick(&self, t: TimePoint) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether `other` lies entirely within `self` (not necessarily
    /// strictly; equality counts).
    #[inline]
    pub fn contains_interval(&self, other: &TimeInterval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two intervals share at least one tick.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether `self` ends exactly where `other` begins (the paper's
    /// *meets*: "`τ₂` starts immediately after `τ₁` ends").
    #[inline]
    pub fn meets(&self, other: &TimeInterval) -> bool {
        self.end == other.start
    }

    /// The common sub-interval, or `None` if the intervals are disjoint.
    ///
    /// # Examples
    ///
    /// ```
    /// use rota_interval::TimeInterval;
    ///
    /// let a = TimeInterval::from_ticks(0, 5)?;
    /// let b = TimeInterval::from_ticks(3, 8)?;
    /// assert_eq!(a.intersect(&b), Some(TimeInterval::from_ticks(3, 5)?));
    /// # Ok::<(), rota_interval::EmptyIntervalError>(())
    /// ```
    pub fn intersect(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        TimeInterval::new(start, end).ok()
    }

    /// The smallest interval covering both, provided they overlap or meet
    /// (so that the union is itself a contiguous interval); `None` when a
    /// gap separates them.
    pub fn union_contiguous(&self, other: &TimeInterval) -> Option<TimeInterval> {
        if self.overlaps(other) || self.meets(other) || other.meets(self) {
            Some(TimeInterval {
                start: self.start.min(other.start),
                end: self.end.max(other.end),
            })
        } else {
            None
        }
    }

    /// The smallest interval covering both operands, even across a gap.
    pub fn hull(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Relative complement `self \ other`: the (0, 1 or 2) sub-intervals of
    /// `self` not covered by `other`, in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// use rota_interval::TimeInterval;
    ///
    /// // The paper's third worked example splits (0,3) around (1,2):
    /// let whole = TimeInterval::from_ticks(0, 3)?;
    /// let hole = TimeInterval::from_ticks(1, 2)?;
    /// let parts = whole.difference(&hole);
    /// assert_eq!(parts, vec![
    ///     TimeInterval::from_ticks(0, 1)?,
    ///     TimeInterval::from_ticks(2, 3)?,
    /// ]);
    /// # Ok::<(), rota_interval::EmptyIntervalError>(())
    /// ```
    pub fn difference(&self, other: &TimeInterval) -> Vec<TimeInterval> {
        let mut out = Vec::with_capacity(2);
        if let Ok(left) = TimeInterval::new(self.start, self.end.min(other.start)) {
            out.push(left);
        }
        if let Ok(right) = TimeInterval::new(self.start.max(other.end), self.end) {
            out.push(right);
        }
        out
    }

    /// Shifts the whole interval later by `d`.
    ///
    /// # Panics
    ///
    /// Panics on tick overflow.
    pub fn shift(&self, d: TickDuration) -> TimeInterval {
        TimeInterval {
            start: self.start + d,
            end: self.end + d,
        }
    }

    /// Iterator over the ticks in the interval, in order.
    pub fn ticks(&self) -> impl Iterator<Item = TimePoint> + '_ {
        (self.start.ticks()..self.end.ticks()).map(TimePoint::new)
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.start.ticks(), self.end.ticks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    #[test]
    fn rejects_empty_and_inverted() {
        assert!(TimeInterval::from_ticks(3, 3).is_err());
        assert!(TimeInterval::from_ticks(4, 3).is_err());
        let err = TimeInterval::from_ticks(4, 3).unwrap_err();
        assert_eq!(err.start(), TimePoint::new(4));
        assert_eq!(err.end(), TimePoint::new(3));
    }

    #[test]
    fn half_open_membership() {
        let a = iv(2, 5);
        assert!(!a.contains_tick(TimePoint::new(1)));
        assert!(a.contains_tick(TimePoint::new(2)));
        assert!(a.contains_tick(TimePoint::new(4)));
        assert!(!a.contains_tick(TimePoint::new(5)));
    }

    #[test]
    fn duration_counts_ticks() {
        assert_eq!(iv(0, 3).duration(), TickDuration::new(3));
        assert_eq!(
            TimeInterval::tick(TimePoint::new(7)).duration(),
            TickDuration::DELTA
        );
    }

    #[test]
    fn meeting_intervals_do_not_overlap() {
        let a = iv(0, 3);
        let b = iv(3, 5);
        assert!(a.meets(&b));
        assert!(!a.overlaps(&b));
        assert_eq!(a.intersect(&b), None);
        assert_eq!(a.union_contiguous(&b), Some(iv(0, 5)));
    }

    #[test]
    fn intersect_is_commutative_and_contained() {
        let a = iv(0, 5);
        let b = iv(3, 8);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, b.intersect(&a).unwrap());
        assert!(a.contains_interval(&i));
        assert!(b.contains_interval(&i));
    }

    #[test]
    fn union_contiguous_requires_contact() {
        assert_eq!(iv(0, 2).union_contiguous(&iv(3, 4)), None);
        assert_eq!(iv(0, 2).union_contiguous(&iv(1, 4)), Some(iv(0, 4)));
        // meets from the right operand side
        assert_eq!(iv(3, 4).union_contiguous(&iv(0, 3)), Some(iv(0, 4)));
    }

    #[test]
    fn hull_covers_gap() {
        assert_eq!(iv(0, 2).hull(&iv(5, 6)), iv(0, 6));
    }

    #[test]
    fn difference_cases() {
        // no overlap: difference is self
        assert_eq!(iv(0, 3).difference(&iv(5, 6)), vec![iv(0, 3)]);
        // full cover: empty
        assert!(iv(2, 3).difference(&iv(0, 5)).is_empty());
        // left remainder
        assert_eq!(iv(0, 5).difference(&iv(3, 6)), vec![iv(0, 3)]);
        // right remainder
        assert_eq!(iv(2, 5).difference(&iv(0, 3)), vec![iv(3, 5)]);
        // punch a hole
        assert_eq!(iv(0, 5).difference(&iv(2, 3)), vec![iv(0, 2), iv(3, 5)]);
    }

    #[test]
    fn shift_translates() {
        assert_eq!(iv(1, 4).shift(TickDuration::new(10)), iv(11, 14));
    }

    #[test]
    fn ticks_iterates_half_open() {
        let ticks: Vec<u64> = iv(2, 5).ticks().map(TimePoint::ticks).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn ordering_is_by_start_then_end() {
        assert!(iv(0, 9) < iv(1, 2));
        assert!(iv(1, 2) < iv(1, 3));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(iv(0, 3).to_string(), "(0,3)");
    }
}
