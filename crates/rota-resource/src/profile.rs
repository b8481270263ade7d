//! Piecewise-constant availability profiles — the normal form for all
//! same-located-type resource terms.
//!
//! The paper's simplification rule aggregates resource terms of identical
//! located type over the sub-intervals where they overlap:
//!
//! ```text
//! [r₁]^τ₁ ∪ [r₂]^τ₂ = { [r₁]^(τ₁\τ₂), [r₂]^(τ₂\τ₁), [r₁+r₂]^(τ₁∩τ₂) }
//! ```
//!
//! Applying that rule to a fixed point yields a **step function** from time
//! to rate. [`ResourceProfile`] stores exactly that step function in
//! canonical form, making simplification idempotent and all availability
//! queries O(log n) or a single sweep.

use core::fmt;
use core::ops::Range;

use rota_interval::{IntervalSet, TimeInterval, TimePoint};

use crate::rate::{OverflowError, Quantity, Rate};

/// A canonical piecewise-constant rate function for one located type.
///
/// Invariants (checked in tests): segments are sorted, pairwise disjoint,
/// carry non-zero rates, and no two *meeting* segments carry equal rates
/// (those are coalesced — the paper: "resource terms can reduce in number
/// if two identical located type resources with identical rates have time
/// intervals that meet").
///
/// # Examples
///
/// ```
/// use rota_interval::TimeInterval;
/// use rota_resource::{Rate, ResourceProfile};
///
/// // The paper's second worked example:
/// //   [5]^(0,3) ∪ [5]^(0,5) = { [10]^(0,3), [5]^(3,5) }
/// let mut p = ResourceProfile::new();
/// p.add(TimeInterval::from_ticks(0, 3)?, Rate::new(5))?;
/// p.add(TimeInterval::from_ticks(0, 5)?, Rate::new(5))?;
/// let segments: Vec<_> = p.segments().to_vec();
/// assert_eq!(segments, vec![
///     (TimeInterval::from_ticks(0, 3)?, Rate::new(10)),
///     (TimeInterval::from_ticks(3, 5)?, Rate::new(5)),
/// ]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ResourceProfile {
    segments: Vec<(TimeInterval, Rate)>,
}

/// Error from subtracting more than is available at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsufficientRateError {
    at: TimePoint,
    available: Rate,
    demanded: Rate,
}

impl InsufficientRateError {
    /// The first instant at which availability falls short.
    pub fn at(&self) -> TimePoint {
        self.at
    }

    /// Rate available at that instant.
    pub fn available(&self) -> Rate {
        self.available
    }

    /// Rate demanded at that instant.
    pub fn demanded(&self) -> Rate {
        self.demanded
    }
}

impl fmt::Display for InsufficientRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insufficient rate at {}: available {}, demanded {}",
            self.at, self.available, self.demanded
        )
    }
}

impl std::error::Error for InsufficientRateError {}

impl ResourceProfile {
    /// The empty profile (rate 0 everywhere).
    pub const fn new() -> Self {
        ResourceProfile {
            segments: Vec::new(),
        }
    }

    /// The canonical profile of one constant segment: empty when `rate`
    /// is zero (a null term).
    fn segment(interval: TimeInterval, rate: Rate) -> Self {
        let segments = if rate.is_zero() {
            Vec::new()
        } else {
            vec![(interval, rate)]
        };
        ResourceProfile { segments }
    }

    /// The pointwise sum of `segments`, in any order, all with non-zero
    /// rates (null terms are dropped by the caller). The list is cut
    /// into runs of ascending, disjoint segments, each of which already
    /// is a profile, and the runs are summed by balanced pairwise
    /// merges, each one linear merge.
    /// `n` segments in `r` runs cost O(n log r): one pass when they are
    /// sorted (a canonical basis is), O(n log n) at worst.
    ///
    /// # Errors
    ///
    /// Returns [`OverflowError`] if a summed rate exceeds `u64` — the
    /// rates are non-negative, so exactly when adding the segments one
    /// by one, in any order, would overflow.
    pub(crate) fn from_segments(
        segments: impl IntoIterator<Item = (TimeInterval, Rate)>,
    ) -> Result<Self, OverflowError> {
        let mut runs: Vec<ResourceProfile> = Vec::new();
        let mut run: Vec<(TimeInterval, Rate)> = Vec::new();
        for (interval, rate) in segments {
            let overlaps = run
                .last()
                .is_some_and(|(last, _)| last.end() > interval.start());
            if overlaps {
                runs.push(ResourceProfile {
                    segments: canonicalize(std::mem::take(&mut run)),
                });
            }
            run.push((interval, rate));
        }
        runs.push(ResourceProfile {
            segments: canonicalize(run),
        });
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut rest = runs.into_iter();
            while let Some(left) = rest.next() {
                next.push(match rest.next() {
                    Some(right) => left.sum(&right)?,
                    None => left,
                });
            }
            runs = next;
        }
        Ok(runs.pop().unwrap_or_default())
    }

    /// Whether the profile is zero everywhere.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The canonical segments `(interval, rate)`, ascending, all rates
    /// non-zero.
    pub fn segments(&self) -> &[(TimeInterval, Rate)] {
        &self.segments
    }

    /// The rate available at tick `t`.
    pub fn rate_at(&self, t: TimePoint) -> Rate {
        match self.segments.binary_search_by(|(iv, _)| iv.start().cmp(&t)) {
            Ok(idx) => self.segments[idx].1,
            Err(0) => Rate::ZERO,
            Err(idx) => {
                let (iv, r) = self.segments[idx - 1];
                if iv.contains_tick(t) {
                    r
                } else {
                    Rate::ZERO
                }
            }
        }
    }

    /// The minimum rate over every tick of `window` (zero if any gap).
    pub fn min_rate_over(&self, window: &TimeInterval) -> Rate {
        let mut min = Rate::new(u64::MAX);
        let mut covered_until = window.start();
        for (iv, r) in &self.segments {
            if iv.end() <= window.start() {
                continue;
            }
            if iv.start() >= window.end() {
                break;
            }
            if iv.start() > covered_until {
                return Rate::ZERO; // gap inside the window
            }
            min = min.min(*r);
            covered_until = iv.end();
            if covered_until >= window.end() {
                break;
            }
        }
        if covered_until < window.end() {
            return Rate::ZERO;
        }
        min
    }

    /// Total quantity deliverable over `window` — the integral of the rate
    /// function, i.e. the paper's `⋃ₛᵈ Θ` availability aggregate for this
    /// located type.
    ///
    /// # Errors
    ///
    /// Returns [`OverflowError`] if the integral exceeds `u64`.
    pub fn quantity_over(&self, window: &TimeInterval) -> Result<Quantity, OverflowError> {
        let mut total = Quantity::ZERO;
        for (iv, r) in &self.segments {
            if let Some(shared) = iv.intersect(window) {
                let part = r.over(shared.duration())?;
                total = total.checked_add(part).ok_or(OverflowError)?;
            }
        }
        Ok(total)
    }

    /// The set of ticks with non-zero availability. The segments are
    /// sorted, so each insert appends to (or merges with) the last span.
    pub fn support(&self) -> IntervalSet {
        self.segments.iter().map(|(iv, _)| *iv).collect()
    }

    /// The last instant with any availability, or `None` when empty.
    pub fn horizon(&self) -> Option<TimePoint> {
        self.segments.last().map(|(iv, _)| iv.end())
    }

    /// Adds `rate` over `interval` (pointwise sum) — the simplification
    /// rule's aggregation step.
    ///
    /// # Errors
    ///
    /// Returns [`OverflowError`] if a summed rate exceeds `u64`.
    pub fn add(&mut self, interval: TimeInterval, rate: Rate) -> Result<(), OverflowError> {
        let patch = self.patch(&ResourceProfile::segment(interval, rate), add_rates)?;
        self.apply(patch);
        Ok(())
    }

    /// The pointwise sum `self + other`.
    pub(crate) fn sum(&self, other: &ResourceProfile) -> Result<ResourceProfile, OverflowError> {
        Ok(ResourceProfile {
            segments: zip(&self.segments, &other.segments, add_rates)?,
        })
    }

    /// Subtracts `rate` over `interval` (pointwise), failing if
    /// availability would go negative anywhere — the paper: "resource
    /// terms cannot be negative."
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientRateError`] at the first shortfall instant;
    /// the profile is left unchanged on error.
    pub fn subtract(
        &mut self,
        interval: TimeInterval,
        rate: Rate,
    ) -> Result<(), InsufficientRateError> {
        let patch = self.patch(&ResourceProfile::segment(interval, rate), subtract_rates)?;
        self.apply(patch);
        Ok(())
    }

    /// The change `op` makes to `self` where `other` is non-zero:
    /// `op(t, self(t), other(t))` recomputed over the segments of `self`
    /// that `other`'s span overlaps or meets, and nothing else. The
    /// segments that meet the span are recomputed too, so that
    /// [`apply`](ResourceProfile::apply) leaves the profile canonical:
    /// outside the span `other` is zero and `op` keeps `self`'s rate, so
    /// the pieces at either end of the patch keep the rates of the
    /// segments they came from, which differ from any unpatched segment
    /// they meet. `n` segments in `self`, `m` in `other` and `k` of
    /// `self`'s under the span cost O(log n + m + k). An error names the
    /// first instant at which `op` fails, as a whole-profile merge
    /// would, since `op` cannot fail where `other` is zero.
    pub(crate) fn patch<E>(
        &self,
        other: &ResourceProfile,
        op: impl Fn(TimePoint, Rate, Rate) -> Result<Rate, E>,
    ) -> Result<Patch, E> {
        let (Some((first, _)), Some((last, _))) = (other.segments.first(), other.segments.last())
        else {
            return Ok(Patch {
                range: 0..0,
                pieces: Vec::new(),
            });
        };
        let lo = self
            .segments
            .partition_point(|(iv, _)| iv.end() < first.start());
        let hi = lo + self.segments[lo..].partition_point(|(iv, _)| iv.start() <= last.end());
        Ok(Patch {
            pieces: zip(&self.segments[lo..hi], &other.segments, op)?,
            range: lo..hi,
        })
    }

    /// Splices a [`patch`](ResourceProfile::patch) of this profile in;
    /// an empty profile takes the patch's pieces as they are.
    pub(crate) fn apply(&mut self, patch: Patch) {
        if self.segments.is_empty() {
            self.segments = patch.pieces;
        } else {
            self.segments.splice(patch.range, patch.pieces);
        }
    }

    /// Whether `self` pointwise dominates `other` (can supply at least
    /// `other`'s rate at every tick).
    pub fn dominates(&self, other: &ResourceProfile) -> bool {
        other
            .segments
            .iter()
            .all(|(iv, r)| self.min_rate_over(iv) >= *r)
    }

    /// Drops all availability before `t` — used when time advances and
    /// un-consumed resource expires (the paper's expiration rules).
    pub fn truncate_before(&mut self, t: TimePoint) {
        let mut out = Vec::with_capacity(self.segments.len());
        for (iv, r) in &self.segments {
            if iv.end() <= t {
                continue;
            }
            let start = iv.start().max(t);
            let trimmed = TimeInterval::new(start, iv.end()).expect("end > t and end > start");
            out.push((trimmed, *r));
        }
        self.segments = out;
    }

    /// The profile within `window`, zeroed on every tick on which
    /// `claimed` has any availability: the restriction to `window` and
    /// the complement against `claimed`'s support, in one pass over the
    /// segments of both that overlap `window`. Used to mark whole ticks
    /// as claimed: ROTA's transition rules deliver a located type's full
    /// tick to a single consumer, so a claimed tick offers nothing to
    /// anyone else even if extra rate later joins on it. Both steps act
    /// tick by tick, so their order does not matter. Only the result is
    /// allocated.
    #[must_use]
    pub fn exclude_within(
        &self,
        claimed: &ResourceProfile,
        window: &TimeInterval,
    ) -> ResourceProfile {
        let cuts = &claimed.segments[claimed.overlapping(window)];
        let within = &self.segments[self.overlapping(window)];
        let mut segments = Vec::with_capacity(within.len());
        let mut first = 0;
        for (iv, r) in within {
            let iv = iv
                .intersect(window)
                .expect("overlapping segments meet the window");
            // Cuts ending by this piece's start miss every later one too.
            while cuts
                .get(first)
                .is_some_and(|(cut, _)| cut.end() <= iv.start())
            {
                first += 1;
            }
            let mut start = iv.start();
            for (cut, _) in &cuts[first..] {
                if cut.start() >= iv.end() {
                    break;
                }
                if cut.start() > start {
                    let kept = TimeInterval::new(start, cut.start()).expect("start < cut start");
                    segments.push((kept, *r));
                }
                start = start.max(cut.end());
                if start >= iv.end() {
                    break;
                }
            }
            if start < iv.end() {
                let kept = TimeInterval::new(start, iv.end()).expect("start < segment end");
                segments.push((kept, *r));
            }
        }
        // Removing ticks never makes two equal-rate pieces meet: canonical
        // meeting segments differ in rate, so the result stays canonical.
        ResourceProfile { segments }
    }

    /// Restricts the profile to `window`.
    #[must_use]
    pub fn clamp(&self, window: &TimeInterval) -> ResourceProfile {
        let segments = self.segments[self.overlapping(window)]
            .iter()
            .filter_map(|(iv, r)| iv.intersect(window).map(|shared| (shared, *r)))
            .collect();
        ResourceProfile { segments }
    }

    /// The first and last instant of availability, or `None` when empty.
    pub(crate) fn extent(&self) -> Option<TimeInterval> {
        let (first, _) = self.segments.first()?;
        let (last, _) = self.segments.last()?;
        TimeInterval::new(first.start(), last.end()).ok()
    }

    /// The index range of the segments that overlap `window`, found by
    /// binary search.
    fn overlapping(&self, window: &TimeInterval) -> Range<usize> {
        let lo = self
            .segments
            .partition_point(|(iv, _)| iv.end() <= window.start());
        let hi = lo + self.segments[lo..].partition_point(|(iv, _)| iv.start() < window.end());
        lo..hi
    }
}

/// A recomputed run of a profile's segments: the result of
/// [`ResourceProfile::patch`], stored by [`ResourceProfile::apply`].
pub(crate) struct Patch {
    range: Range<usize>,
    pieces: Vec<(TimeInterval, Rate)>,
}

pub(crate) fn add_rates(_: TimePoint, have: Rate, add: Rate) -> Result<Rate, OverflowError> {
    have.checked_add(add).ok_or(OverflowError)
}

pub(crate) fn subtract_rates(
    at: TimePoint,
    have: Rate,
    sub: Rate,
) -> Result<Rate, InsufficientRateError> {
    have.checked_sub(sub).ok_or(InsufficientRateError {
        at,
        available: have,
        demanded: sub,
    })
}

/// Pointwise `op(t, a(t), b(t))` over every maximal piece on which both
/// segment lists are constant and at least one is non-zero, in one merge
/// of the two; the result is canonical. `op` must map two zero rates to
/// zero; the gaps where both lists are zero are skipped.
pub(crate) fn zip<E>(
    a: &[(TimeInterval, Rate)],
    b: &[(TimeInterval, Rate)],
    op: impl Fn(TimePoint, Rate, Rate) -> Result<Rate, E>,
) -> Result<Vec<(TimeInterval, Rate)>, E> {
    let (mut i, mut j) = (0, 0);
    let mut pieces: Vec<(TimeInterval, Rate)> = Vec::with_capacity(a.len() + b.len());
    let mut at = TimePoint::ZERO;
    loop {
        while a.get(i).is_some_and(|(iv, _)| iv.end() <= at) {
            i += 1;
        }
        while b.get(j).is_some_and(|(iv, _)| iv.end() <= at) {
            j += 1;
        }
        // Rate and next boundary of one side at `at`.
        let side = |seg: Option<&(TimeInterval, Rate)>| match seg {
            Some((iv, r)) if iv.start() <= at => (*r, Some(iv.end())),
            Some((iv, _)) => (Rate::ZERO, Some(iv.start())),
            None => (Rate::ZERO, None),
        };
        let ((ra, na), (rb, nb)) = (side(a.get(i)), side(b.get(j)));
        let next = match (na, nb) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) | (None, Some(x)) => x,
            (None, None) => break,
        };
        if !(ra.is_zero() && rb.is_zero()) {
            let value = op(at, ra, rb)?;
            if !value.is_zero() {
                let piece = TimeInterval::new(at, next).expect("boundaries ascend");
                pieces.push((piece, value));
            }
        }
        at = next;
    }
    Ok(canonicalize(pieces))
}

/// Merges meeting equal-rate segments in place; input must be sorted
/// and disjoint.
fn canonicalize(mut pieces: Vec<(TimeInterval, Rate)>) -> Vec<(TimeInterval, Rate)> {
    pieces.dedup_by(|(iv, r), (last_iv, last_r)| {
        let merge = *last_r == *r && last_iv.meets(iv);
        if merge {
            *last_iv = last_iv
                .union_contiguous(iv)
                .expect("meets implies contiguous");
        }
        merge
    });
    pieces
}

impl fmt::Display for ResourceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return f.write_str("0");
        }
        let mut first = true;
        for (iv, r) in &self.segments {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "[{}]^{}", r.units_per_tick(), iv)?;
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

    fn profile(parts: &[(u64, u64, u64)]) -> ResourceProfile {
        let mut p = ResourceProfile::new();
        for &(s, e, r) in parts {
            p.add(iv(s, e), Rate::new(r)).unwrap();
        }
        p
    }

    fn assert_canonical(p: &ResourceProfile) {
        for (iv, r) in p.segments() {
            assert!(!r.is_zero(), "zero-rate segment {iv}");
        }
        for w in p.segments().windows(2) {
            let ((a, ra), (b, rb)) = (w[0], w[1]);
            assert!(a.end() <= b.start(), "overlap {a} {b}");
            assert!(
                !(a.meets(&b) && ra == rb),
                "uncoalesced equal-rate meet {a} {b}"
            );
        }
    }

    #[test]
    fn paper_example_aggregation() {
        // [5]^(0,3) ∪ [5]^(0,5) = [10]^(0,3), [5]^(3,5)
        let p = profile(&[(0, 3, 5), (0, 5, 5)]);
        assert_eq!(
            p.segments(),
            &[(iv(0, 3), Rate::new(10)), (iv(3, 5), Rate::new(5))]
        );
        assert_canonical(&p);
    }

    #[test]
    fn meeting_equal_rates_coalesce() {
        let p = profile(&[(0, 3, 5), (3, 7, 5)]);
        assert_eq!(p.segments(), &[(iv(0, 7), Rate::new(5))]);
    }

    #[test]
    fn zero_rate_add_is_noop() {
        let mut p = profile(&[(0, 3, 5)]);
        p.add(iv(0, 10), Rate::ZERO).unwrap();
        assert_eq!(p, profile(&[(0, 3, 5)]));
    }

    #[test]
    fn rate_at_queries() {
        let p = profile(&[(0, 3, 5), (5, 8, 2)]);
        assert_eq!(p.rate_at(TimePoint::new(0)), Rate::new(5));
        assert_eq!(p.rate_at(TimePoint::new(2)), Rate::new(5));
        assert_eq!(p.rate_at(TimePoint::new(3)), Rate::ZERO);
        assert_eq!(p.rate_at(TimePoint::new(4)), Rate::ZERO);
        assert_eq!(p.rate_at(TimePoint::new(5)), Rate::new(2));
        assert_eq!(p.rate_at(TimePoint::new(7)), Rate::new(2));
        assert_eq!(p.rate_at(TimePoint::new(8)), Rate::ZERO);
    }

    #[test]
    fn min_rate_over_detects_gaps_and_minima() {
        let p = profile(&[(0, 3, 5), (3, 8, 2)]);
        assert_eq!(p.min_rate_over(&iv(0, 8)), Rate::new(2));
        assert_eq!(p.min_rate_over(&iv(0, 3)), Rate::new(5));
        assert_eq!(p.min_rate_over(&iv(0, 9)), Rate::ZERO); // runs past horizon
        let gappy = profile(&[(0, 2, 5), (4, 6, 5)]);
        assert_eq!(gappy.min_rate_over(&iv(0, 6)), Rate::ZERO);
        assert_eq!(gappy.min_rate_over(&iv(4, 6)), Rate::new(5));
    }

    #[test]
    fn quantity_integrates() {
        let p = profile(&[(0, 3, 5), (3, 8, 2)]);
        assert_eq!(p.quantity_over(&iv(0, 8)).unwrap(), Quantity::new(25));
        assert_eq!(p.quantity_over(&iv(2, 4)).unwrap(), Quantity::new(7));
        assert_eq!(p.quantity_over(&iv(100, 101)).unwrap(), Quantity::ZERO);
    }

    #[test]
    fn subtract_paper_example() {
        // [5]^(0,3) \ [3]^(1,2) = [5]^(0,1), [2]^(1,2), [5]^(2,3)
        let mut p = profile(&[(0, 3, 5)]);
        p.subtract(iv(1, 2), Rate::new(3)).unwrap();
        assert_eq!(
            p.segments(),
            &[
                (iv(0, 1), Rate::new(5)),
                (iv(1, 2), Rate::new(2)),
                (iv(2, 3), Rate::new(5)),
            ]
        );
        assert_canonical(&p);
    }

    #[test]
    fn subtract_insufficient_reports_first_shortfall() {
        let mut p = profile(&[(0, 3, 5), (3, 6, 1)]);
        let before = p.clone();
        let err = p.subtract(iv(0, 6), Rate::new(2)).unwrap_err();
        assert_eq!(err.at(), TimePoint::new(3));
        assert_eq!(err.available(), Rate::new(1));
        assert_eq!(err.demanded(), Rate::new(2));
        assert_eq!(p, before, "profile unchanged on error");
    }

    #[test]
    fn subtract_gap_fails() {
        let mut p = profile(&[(0, 2, 5)]);
        assert!(p.subtract(iv(0, 4), Rate::new(1)).is_err());
    }

    #[test]
    fn dominates_pointwise() {
        let big = profile(&[(0, 10, 5)]);
        assert!(big.dominates(&profile(&[(2, 4, 3), (6, 8, 5)])));
        assert!(!big.dominates(&profile(&[(2, 4, 6)])));
        assert!(!big.dominates(&profile(&[(8, 12, 1)])));
        assert!(big.dominates(&ResourceProfile::new()));
    }

    #[test]
    fn truncate_expires_past_availability() {
        let mut p = profile(&[(0, 3, 5), (5, 8, 2)]);
        p.truncate_before(TimePoint::new(2));
        assert_eq!(
            p.segments(),
            &[(iv(2, 3), Rate::new(5)), (iv(5, 8), Rate::new(2))]
        );
        p.truncate_before(TimePoint::new(4));
        assert_eq!(p.segments(), &[(iv(5, 8), Rate::new(2))]);
        p.truncate_before(TimePoint::new(100));
        assert!(p.is_empty());
    }

    #[test]
    fn exclude_zeroes_claimed_ticks() {
        let p = profile(&[(0, 6, 5)]);
        let claimed = profile(&[(1, 2, 1), (4, 5, 3)]);
        let everything = iv(0, 6);
        let left = p.exclude_within(&claimed, &everything);
        assert_eq!(
            left.segments(),
            &[
                (iv(0, 1), Rate::new(5)),
                (iv(2, 4), Rate::new(5)),
                (iv(5, 6), Rate::new(5)),
            ]
        );
        // The window clips the pieces left over.
        assert_eq!(
            p.exclude_within(&claimed, &iv(3, 9)).segments(),
            &[(iv(3, 4), Rate::new(5)), (iv(5, 6), Rate::new(5))]
        );
        // excluding nothing is identity; excluding everything empties
        assert_eq!(p.exclude_within(&ResourceProfile::new(), &everything), p);
        assert!(p
            .exclude_within(&profile(&[(0, 6, 1)]), &everything)
            .is_empty());
        assert_canonical(&left);
    }

    #[test]
    fn clamp_restricts() {
        let p = profile(&[(0, 3, 5), (5, 8, 2)]);
        let c = p.clamp(&iv(2, 6));
        assert_eq!(
            c.segments(),
            &[(iv(2, 3), Rate::new(5)), (iv(5, 6), Rate::new(2))]
        );
        assert_eq!(p.clamp(&iv(3, 5)), ResourceProfile::new());
        assert_eq!(p.clamp(&iv(8, 9)), ResourceProfile::new());
        assert_eq!(p.clamp(&iv(0, 9)), p);
    }

    #[test]
    fn support_and_horizon() {
        let p = profile(&[(0, 3, 5), (5, 8, 2)]);
        assert_eq!(p.support().spans(), &[iv(0, 3), iv(5, 8)]);
        assert_eq!(p.horizon(), Some(TimePoint::new(8)));
        assert_eq!(ResourceProfile::new().horizon(), None);
    }

    #[test]
    fn add_overflow_detected() {
        let mut p = profile(&[(0, 3, u64::MAX)]);
        assert!(p.add(iv(0, 3), Rate::new(1)).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(ResourceProfile::new().to_string(), "0");
        assert_eq!(
            profile(&[(0, 3, 5), (5, 8, 2)]).to_string(),
            "[5]^(0,3), [2]^(5,8)"
        );
    }
}
