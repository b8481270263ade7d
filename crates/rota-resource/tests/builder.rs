//! Differential tests of the resource-set builder: `from_terms`,
//! `insert` and `subtract` against a reference that rebuilds a profile
//! term by term with a sorted-boundary sweep — the way sets were built
//! before the linear merge. Results and errors must be equal.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{
    LocatedType, Location, Rate, ResourceProfile, ResourceSet, ResourceSetError, ResourceTerm,
};

type Segments = Vec<(TimeInterval, Rate)>;

/// The rate of `segments` at tick `t`, by scan.
fn rate_at(segments: &Segments, t: TimePoint) -> Rate {
    segments
        .iter()
        .find(|(iv, _)| iv.contains_tick(t))
        .map_or(Rate::ZERO, |(_, r)| *r)
}

/// The reference sweep: collect every boundary of `segments` and
/// `interval`, sort them, evaluate each elementary piece with
/// `op(current, rate)` inside `interval` and identity outside, then
/// coalesce meeting equal-rate pieces. `None` when `op` fails.
fn sweep(
    segments: &Segments,
    interval: TimeInterval,
    rate: Rate,
    op: impl Fn(Rate, Rate) -> Option<Rate>,
) -> Option<Segments> {
    let mut bounds = vec![interval.start(), interval.end()];
    for (iv, _) in segments {
        bounds.push(iv.start());
        bounds.push(iv.end());
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut out: Segments = Vec::new();
    for w in bounds.windows(2) {
        let piece = TimeInterval::new(w[0], w[1]).expect("deduped ascending bounds");
        let base = rate_at(segments, piece.start());
        let value = if interval.contains_interval(&piece) {
            op(base, rate)?
        } else {
            base
        };
        if value.is_zero() {
            continue;
        }
        match out.last_mut() {
            Some((last, r)) if *r == value && last.meets(&piece) => {
                *last = last.union_contiguous(&piece).expect("meeting pieces");
            }
            _ => out.push((piece, value)),
        }
    }
    Some(out)
}

/// The reference set: one reference profile per located type, built
/// term by term.
#[derive(Debug, Default, Clone, PartialEq)]
struct Reference(BTreeMap<LocatedType, Segments>);

impl Reference {
    /// Inserts one term; on overflow the set is unchanged.
    fn insert(&mut self, term: &ResourceTerm) -> Result<(), ResourceSetError> {
        if term.is_null() {
            return Ok(());
        }
        let have = self.0.get(term.located()).cloned().unwrap_or_default();
        let summed = sweep(&have, term.interval(), term.rate(), Rate::checked_add)
            .ok_or(ResourceSetError::Overflow)?;
        self.0.insert(term.located().clone(), summed);
        Ok(())
    }

    fn build(terms: &[ResourceTerm]) -> Result<Reference, ResourceSetError> {
        let mut reference = Reference::default();
        for term in terms {
            reference.insert(term)?;
        }
        Ok(reference)
    }

    /// Whether `set` holds exactly this reference's profiles.
    fn matches(&self, set: &ResourceSet) -> bool {
        let types: Vec<&LocatedType> = set.located_types().collect();
        types == self.0.keys().collect::<Vec<_>>()
            && self
                .0
                .iter()
                .all(|(lt, segments)| set.profile(lt).segments() == segments.as_slice())
    }
}

/// The reference subtraction: the first tick of `interval` whose rate
/// falls short of `rate` is the error, with the rate there; otherwise
/// the sweep subtracts.
fn reference_subtract(
    segments: &Segments,
    interval: TimeInterval,
    rate: Rate,
) -> Result<Segments, (TimePoint, Rate, Rate)> {
    if let Some(at) = interval.ticks().find(|&t| rate_at(segments, t) < rate) {
        return Err((at, rate_at(segments, at), rate));
    }
    Ok(sweep(segments, interval, rate, |have, sub| {
        Some(have.saturating_sub(sub))
    })
    .expect("never fails"))
}

const MAX_TICK: u64 = 12;

fn arb_interval() -> impl Strategy<Value = TimeInterval> {
    (0..MAX_TICK).prop_flat_map(|s| {
        ((s + 1)..=MAX_TICK).prop_map(move |e| TimeInterval::from_ticks(s, e).expect("s < e"))
    })
}

/// Zero rates (null terms), a few small equal rates (so meeting terms
/// coalesce) and rates near `u64::MAX` (so sums overflow).
fn arb_rate() -> impl Strategy<Value = Rate> {
    prop_oneof![
        Just(Rate::ZERO),
        (1u64..4).prop_map(Rate::new),
        (1u64..4).prop_map(Rate::new),
        (0u64..3).prop_map(|d| Rate::new(u64::MAX - d)),
    ]
}

fn arb_term() -> impl Strategy<Value = ResourceTerm> {
    let located = prop_oneof![
        Just(LocatedType::cpu(Location::new("l0"))),
        Just(LocatedType::network(
            Location::new("l0"),
            Location::new("l1")
        )),
    ];
    (located, arb_interval(), arb_rate()).prop_map(|(lt, iv, r)| ResourceTerm::new(r, iv, lt))
}

/// Small rates only: a profile these build never overflows.
fn arb_profile_parts() -> impl Strategy<Value = Vec<(TimeInterval, u64)>> {
    proptest::collection::vec((arb_interval(), 0u64..4), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `from_terms` equals the term-by-term reference build, overflow
    /// included.
    #[test]
    fn from_terms_matches_the_reference(terms in proptest::collection::vec(arb_term(), 0..16)) {
        let built = ResourceSet::from_terms(terms.clone());
        match Reference::build(&terms) {
            Ok(reference) => {
                let set = built.expect("the reference build succeeded");
                prop_assert!(reference.matches(&set), "{reference:?} vs {set}");
            }
            Err(err) => prop_assert_eq!(built, Err(err)),
        }
    }

    /// `insert`, one term at a time, matches the reference after every
    /// term; a failed insert leaves both unchanged.
    #[test]
    fn insert_matches_the_reference(terms in proptest::collection::vec(arb_term(), 0..16)) {
        let mut set = ResourceSet::new();
        let mut reference = Reference::default();
        for term in &terms {
            let before = set.clone();
            let expected = reference.insert(term);
            let got = set.insert(term.clone());
            prop_assert_eq!(&got, &expected);
            if got.is_err() {
                prop_assert_eq!(&set, &before);
            }
            prop_assert!(reference.matches(&set), "{reference:?} vs {set}");
        }
    }

    /// `subtract` matches the reference: the same profile on success,
    /// the same `at`, `available` and `demanded` on a shortfall, and
    /// an unchanged profile then.
    #[test]
    fn subtract_matches_the_reference(
        parts in arb_profile_parts(),
        interval in arb_interval(),
        rate in 0u64..6,
    ) {
        let mut profile = ResourceProfile::new();
        let mut segments = Segments::new();
        for &(iv, r) in &parts {
            profile.add(iv, Rate::new(r)).expect("small rates");
            if r > 0 {
                segments = sweep(&segments, iv, Rate::new(r), Rate::checked_add).expect("small rates");
            }
        }
        prop_assert_eq!(profile.segments(), segments.as_slice());
        let before = profile.clone();
        match (profile.subtract(interval, Rate::new(rate)), reference_subtract(&segments, interval, Rate::new(rate))) {
            (Ok(()), Ok(expected)) => prop_assert_eq!(profile.segments(), expected.as_slice()),
            (Err(err), Err((at, available, demanded))) => {
                prop_assert_eq!((err.at(), err.available(), err.demanded()), (at, available, demanded));
                prop_assert_eq!(&profile, &before);
            }
            (got, expected) => panic!("subtract {rate} over {interval}: {got:?} vs {expected:?}"),
        }
    }
}
