//! Composition (transitivity) of Allen relations.
//!
//! Given `relate(a, b) = r1` and `relate(b, c) = r2`, the *composition*
//! `compose(r1, r2)` is the set of relations that may hold between `a` and
//! `c`. This 13×13 table is the engine of qualitative temporal reasoning —
//! path consistency over interval constraint networks (see
//! [`crate::network`]) repeatedly intersects constraints with compositions.
//!
//! Rather than transcribing Allen's published table by hand (and risking a
//! transcription error in 169 entries), the table is **derived** once, at
//! first use, by exhaustive enumeration of all qualitative configurations of
//! three intervals over a small endpoint domain. Any qualitative
//! configuration of three intervals involves at most six distinct endpoint
//! values, so a domain of seven points realizes every configuration; the
//! derived table is therefore exactly Allen's table. Known entries are
//! cross-checked in the unit tests.

use std::sync::OnceLock;

use crate::interval::TimeInterval;
use crate::relation::{AllenRelation, ALL_RELATIONS};
use crate::relation_set::RelationSet;

/// The derived 13×13 composition table.
struct Table([[RelationSet; 13]; 13]);

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(derive_table)
}

/// Enumerates every interval with endpoints in `0..=DOMAIN` and tabulates
/// `relate(a, c)` for each realized `(relate(a,b), relate(b,c))` pair.
fn derive_table() -> Table {
    // 7 points suffice (3 intervals have ≤ 6 distinct endpoints); using 8
    // keeps the argument comfortably conservative at negligible cost.
    const DOMAIN: u64 = 7;
    let mut intervals = Vec::new();
    for s in 0..DOMAIN {
        for e in (s + 1)..=DOMAIN {
            intervals.push(TimeInterval::from_ticks(s, e).expect("s < e"));
        }
    }
    let mut cells = [[RelationSet::EMPTY; 13]; 13];
    // Group by relate(a, b) first so the inner loop is a flat sweep.
    for a in &intervals {
        for b in &intervals {
            let r_ab = AllenRelation::relate(a, b).index();
            for c in &intervals {
                let r_bc = AllenRelation::relate(b, c).index();
                let r_ac = AllenRelation::relate(a, c);
                cells[r_ab][r_bc] = cells[r_ab][r_bc].with(r_ac);
            }
        }
    }
    Table(cells)
}

/// Composition of two basic relations: the set of relations possible
/// between `a` and `c` when `relate(a,b) = r1` and `relate(b,c) = r2`.
///
/// # Examples
///
/// ```
/// use rota_interval::{compose, AllenRelation, RelationSet};
///
/// // before ∘ before = {before}
/// assert_eq!(
///     compose(AllenRelation::Before, AllenRelation::Before),
///     RelationSet::singleton(AllenRelation::Before)
/// );
/// // meets ∘ meets = {before}: two abutments leave a gap
/// assert_eq!(
///     compose(AllenRelation::Meets, AllenRelation::Meets),
///     RelationSet::singleton(AllenRelation::Before)
/// );
/// ```
pub fn compose(r1: AllenRelation, r2: AllenRelation) -> RelationSet {
    table().0[r1.index()][r2.index()]
}

/// Composition lifted to disjunctive constraints: the union of the
/// compositions of all admitted pairs.
///
/// This is the operation path consistency applies along two-edge paths:
/// `C(a,c) ← C(a,c) ∩ compose_sets(C(a,b), C(b,c))`.
pub fn compose_sets(s1: RelationSet, s2: RelationSet) -> RelationSet {
    // Composing with the full constraint always yields the full constraint;
    // short-circuit the 169-pair worst case that dominates naive networks.
    if s1 == RelationSet::FULL || s2 == RelationSet::FULL {
        if s1.is_empty() || s2.is_empty() {
            return RelationSet::EMPTY;
        }
        return RelationSet::FULL;
    }
    let mut out = RelationSet::EMPTY;
    for r1 in s1.iter() {
        for r2 in s2.iter() {
            out = out.union(compose(r1, r2));
            if out == RelationSet::FULL {
                return out;
            }
        }
    }
    out
}

/// Identity check helper: `compose(Equals, r) == {r} == compose(r, Equals)`
/// for every basic `r`. Exposed for the property-test suite.
pub fn equals_is_identity() -> bool {
    ALL_RELATIONS.into_iter().all(|r| {
        compose(AllenRelation::Equals, r) == RelationSet::singleton(r)
            && compose(r, AllenRelation::Equals) == RelationSet::singleton(r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use AllenRelation::*;

    #[test]
    fn identity_law() {
        assert!(equals_is_identity());
    }

    #[test]
    fn known_singleton_entries() {
        assert_eq!(compose(Before, Before), RelationSet::singleton(Before));
        assert_eq!(compose(After, After), RelationSet::singleton(After));
        assert_eq!(compose(During, During), RelationSet::singleton(During));
        assert_eq!(compose(Meets, Meets), RelationSet::singleton(Before));
        assert_eq!(compose(Starts, Starts), RelationSet::singleton(Starts));
        assert_eq!(
            compose(Finishes, Finishes),
            RelationSet::singleton(Finishes)
        );
        // meets ∘ during: a abuts b, c strictly inside b ⇒ a before/meets/overlaps/starts/during c...
        // classic entry: m ∘ d = {o, s, d}? verified against the derived table:
        assert_eq!(
            compose(Meets, During),
            RelationSet::from_iter([Overlaps, Starts, During])
        );
    }

    #[test]
    fn known_disjunctive_entries() {
        // o ∘ o = {<, m, o} (Allen 1983, Table 2)
        assert_eq!(
            compose(Overlaps, Overlaps),
            RelationSet::from_iter([Before, Meets, Overlaps])
        );
        // d ∘ < = {<}
        assert_eq!(compose(During, Before), RelationSet::singleton(Before));
        // < ∘ > = full (nothing can be concluded)
        assert_eq!(compose(Before, After), RelationSet::FULL);
        // during ∘ contains = full minus nothing obvious? Allen: d ∘ di = {<,>,=,d,di,m,mi,o,oi,s,si,f,fi}?
        // Actually d ∘ di admits everything except... trust derived table's internal consistency,
        // checked by the soundness sweep below and the property suite.
    }

    /// Soundness and minimality of the derived table over a *larger* domain
    /// than the one used to derive it: for all triples with endpoints in
    /// 0..=9, relate(a,c) ∈ compose(relate(a,b), relate(b,c)); and every
    /// admitted relation is witnessed by some triple.
    #[test]
    fn table_sound_and_minimal_on_larger_domain() {
        let mut intervals = Vec::new();
        for s in 0..9u64 {
            for e in (s + 1)..=9 {
                intervals.push(TimeInterval::from_ticks(s, e).unwrap());
            }
        }
        let mut witnessed = [[RelationSet::EMPTY; 13]; 13];
        for a in &intervals {
            for b in &intervals {
                let ab = AllenRelation::relate(a, b);
                for c in &intervals {
                    let bc = AllenRelation::relate(b, c);
                    let ac = AllenRelation::relate(a, c);
                    assert!(
                        compose(ab, bc).contains(ac),
                        "unsound: {ab} ∘ {bc} missing {ac} for {a},{b},{c}"
                    );
                    witnessed[ab.index()][bc.index()] = witnessed[ab.index()][bc.index()].with(ac);
                }
            }
        }
        for r1 in ALL_RELATIONS {
            for r2 in ALL_RELATIONS {
                assert_eq!(
                    witnessed[r1.index()][r2.index()],
                    compose(r1, r2),
                    "not minimal at {r1} ∘ {r2}"
                );
            }
        }
    }

    /// The converse law: compose(r1, r2).converse() == compose(r2⁻¹, r1⁻¹).
    #[test]
    fn converse_distributes_over_composition() {
        for r1 in ALL_RELATIONS {
            for r2 in ALL_RELATIONS {
                assert_eq!(
                    compose(r1, r2).converse(),
                    compose(r2.inverse(), r1.inverse()),
                    "converse law fails at {r1}, {r2}"
                );
            }
        }
    }

    #[test]
    fn compose_sets_matches_pointwise_union() {
        let s1 = RelationSet::from_iter([Before, Meets, Overlaps]);
        let s2 = RelationSet::from_iter([During, Finishes]);
        let mut expect = RelationSet::EMPTY;
        for r1 in s1.iter() {
            for r2 in s2.iter() {
                expect = expect.union(compose(r1, r2));
            }
        }
        assert_eq!(compose_sets(s1, s2), expect);
    }

    #[test]
    fn compose_sets_edge_cases() {
        let s = RelationSet::from_iter([Before, Meets]);
        assert_eq!(compose_sets(RelationSet::EMPTY, s), RelationSet::EMPTY);
        assert_eq!(compose_sets(s, RelationSet::EMPTY), RelationSet::EMPTY);
        assert_eq!(compose_sets(RelationSet::FULL, s), RelationSet::FULL);
        assert_eq!(compose_sets(s, RelationSet::FULL), RelationSet::FULL);
        assert_eq!(
            compose_sets(RelationSet::FULL, RelationSet::EMPTY),
            RelationSet::EMPTY
        );
    }

    /// No composition cell is empty: any two basic relations are jointly
    /// realizable through a middle interval.
    #[test]
    fn no_empty_cells() {
        for r1 in ALL_RELATIONS {
            for r2 in ALL_RELATIONS {
                assert!(!compose(r1, r2).is_empty(), "{r1} ∘ {r2} empty");
            }
        }
    }
}
