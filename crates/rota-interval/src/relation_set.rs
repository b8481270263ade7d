//! Sets of Allen relations, packed into a 13-bit bitset.
//!
//! Qualitative temporal reasoning (composition, constraint networks) deals
//! in *disjunctions* of basic relations: "`a` is before or meets `b`".
//! [`RelationSet`] represents such a disjunction as a bitset over the
//! thirteen [`AllenRelation`]s.

use core::fmt;
use core::ops::{BitAnd, BitOr, Not};

use crate::relation::{AllenRelation, ALL_RELATIONS};

/// A set of basic Allen relations — a disjunctive qualitative constraint.
///
/// # Examples
///
/// ```
/// use rota_interval::{AllenRelation, RelationSet};
///
/// let c = RelationSet::from_iter([AllenRelation::Before, AllenRelation::Meets]);
/// assert!(c.contains(AllenRelation::Before));
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.to_string(), "{<, m}");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelationSet(u16);

const FULL_MASK: u16 = (1 << 13) - 1;

impl RelationSet {
    /// The empty (inconsistent) constraint.
    pub const EMPTY: RelationSet = RelationSet(0);
    /// The full (uninformative) constraint admitting all 13 relations.
    pub const FULL: RelationSet = RelationSet(FULL_MASK);

    /// The singleton set containing only `r`.
    #[inline]
    pub const fn singleton(r: AllenRelation) -> RelationSet {
        RelationSet(1 << r as u8)
    }

    /// Whether `r` is admitted by this constraint.
    #[inline]
    pub const fn contains(self, r: AllenRelation) -> bool {
        self.0 & (1 << r as u8) != 0
    }

    /// Inserts `r`, returning the widened set.
    #[inline]
    #[must_use]
    pub const fn with(self, r: AllenRelation) -> RelationSet {
        RelationSet(self.0 | (1 << r as u8))
    }

    /// Removes `r`, returning the narrowed set.
    #[inline]
    #[must_use]
    pub const fn without(self, r: AllenRelation) -> RelationSet {
        RelationSet(self.0 & !(1 << r as u8))
    }

    /// Number of admitted relations.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no relation is admitted — an unsatisfiable constraint.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether exactly one relation is admitted.
    #[inline]
    pub const fn is_singleton(self) -> bool {
        self.0.count_ones() == 1
    }

    /// If the set is a singleton, that relation.
    pub fn as_singleton(self) -> Option<AllenRelation> {
        if self.is_singleton() {
            AllenRelation::from_index(self.0.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Set intersection — conjunction of constraints.
    #[inline]
    #[must_use]
    pub const fn intersect(self, other: RelationSet) -> RelationSet {
        RelationSet(self.0 & other.0)
    }

    /// Set union — disjunction of constraints.
    #[inline]
    #[must_use]
    pub const fn union(self, other: RelationSet) -> RelationSet {
        RelationSet(self.0 | other.0)
    }

    /// Whether every relation admitted here is admitted by `other`.
    #[inline]
    pub const fn is_subset(self, other: RelationSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// The converse constraint: inverts each admitted relation. If
    /// `C` constrains the pair `(a, b)`, `C.converse()` constrains `(b, a)`.
    #[must_use]
    pub fn converse(self) -> RelationSet {
        let mut out = RelationSet::EMPTY;
        for r in self.iter() {
            out = out.with(r.inverse());
        }
        out
    }

    /// Iterates over the admitted relations in index order.
    pub fn iter(self) -> impl Iterator<Item = AllenRelation> {
        ALL_RELATIONS.into_iter().filter(move |r| self.contains(*r))
    }

    /// Raw bit pattern; bit `i` corresponds to
    /// [`AllenRelation::from_index`]`(i)`.
    #[inline]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Reconstructs a set from [`bits`](RelationSet::bits); extraneous high
    /// bits are masked off.
    #[inline]
    pub const fn from_bits(bits: u16) -> RelationSet {
        RelationSet(bits & FULL_MASK)
    }
}

impl Default for RelationSet {
    /// Defaults to [`RelationSet::FULL`], the uninformative constraint —
    /// the identity for intersection, which is how constraints accumulate.
    fn default() -> Self {
        RelationSet::FULL
    }
}

impl FromIterator<AllenRelation> for RelationSet {
    fn from_iter<I: IntoIterator<Item = AllenRelation>>(iter: I) -> Self {
        iter.into_iter().fold(RelationSet::EMPTY, RelationSet::with)
    }
}

impl Extend<AllenRelation> for RelationSet {
    fn extend<I: IntoIterator<Item = AllenRelation>>(&mut self, iter: I) {
        for r in iter {
            *self = self.with(r);
        }
    }
}

impl BitAnd for RelationSet {
    type Output = RelationSet;
    fn bitand(self, rhs: RelationSet) -> RelationSet {
        self.intersect(rhs)
    }
}

impl BitOr for RelationSet {
    type Output = RelationSet;
    fn bitor(self, rhs: RelationSet) -> RelationSet {
        self.union(rhs)
    }
}

impl Not for RelationSet {
    type Output = RelationSet;
    fn not(self) -> RelationSet {
        RelationSet(!self.0 & FULL_MASK)
    }
}

impl fmt::Debug for RelationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RelationSet{self}")
    }
}

impl fmt::Display for RelationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            f.write_str(r.symbol())?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AllenRelation::*;

    #[test]
    fn empty_and_full() {
        assert_eq!(RelationSet::EMPTY.len(), 0);
        assert!(RelationSet::EMPTY.is_empty());
        assert_eq!(RelationSet::FULL.len(), 13);
        for r in ALL_RELATIONS {
            assert!(RelationSet::FULL.contains(r));
            assert!(!RelationSet::EMPTY.contains(r));
        }
    }

    #[test]
    fn with_without_roundtrip() {
        let s = RelationSet::EMPTY.with(Meets).with(Before);
        assert_eq!(s.len(), 2);
        assert_eq!(s.without(Meets), RelationSet::singleton(Before));
        // idempotent
        assert_eq!(s.with(Meets), s);
        assert_eq!(s.without(After), s);
    }

    #[test]
    fn singleton_extraction() {
        assert_eq!(RelationSet::singleton(During).as_singleton(), Some(During));
        assert_eq!(RelationSet::EMPTY.as_singleton(), None);
        assert_eq!(RelationSet::FULL.as_singleton(), None);
    }

    #[test]
    fn converse_is_involutive_and_pointwise() {
        let s = RelationSet::from_iter([Before, Overlaps, Starts]);
        let c = s.converse();
        assert_eq!(c, RelationSet::from_iter([After, OverlappedBy, StartedBy]));
        assert_eq!(c.converse(), s);
        assert_eq!(RelationSet::FULL.converse(), RelationSet::FULL);
        assert_eq!(RelationSet::EMPTY.converse(), RelationSet::EMPTY);
    }

    #[test]
    fn boolean_algebra_ops() {
        let a = RelationSet::from_iter([Before, Meets]);
        let b = RelationSet::from_iter([Meets, After]);
        assert_eq!(a & b, RelationSet::singleton(Meets));
        assert_eq!(a | b, RelationSet::from_iter([Before, Meets, After]));
        assert_eq!(!RelationSet::FULL, RelationSet::EMPTY);
        assert!((a & b).is_subset(a));
        assert!(a.is_subset(a | b));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn bits_roundtrip_masks() {
        let s = RelationSet::from_iter([Equals, Finishes]);
        assert_eq!(RelationSet::from_bits(s.bits()), s);
        assert_eq!(RelationSet::from_bits(0xFFFF), RelationSet::FULL);
    }

    #[test]
    fn default_is_full() {
        assert_eq!(RelationSet::default(), RelationSet::FULL);
    }

    #[test]
    fn display_lists_symbols() {
        let s = RelationSet::from_iter([Before, Equals]);
        assert_eq!(s.to_string(), "{<, =}");
        assert_eq!(RelationSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn iter_matches_contains() {
        let s = RelationSet::from_iter([After, During, MetBy]);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, vec![After, During, MetBy]);
    }
}
