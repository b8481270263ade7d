//! Resource demands — "sets of resource amounts" `{q}_ξ`.
//!
//! The paper's cost function Φ maps an actor action to the set of resource
//! amounts it needs: e.g. `Φ(a₁, send(a₂, m)) = {4}_⟨network, l(a₁)→l(a₂)⟩`.
//! A [`ResourceDemand`] is such a set: a total quantity per located type.

use core::fmt;

use rota_resource::{LocatedType, Quantity};

/// A set of resource amounts `{q}_ξ` — what one action (or an aggregate of
/// actions) requires, by located type.
///
/// Stored as one vector of `(type, amount)` pairs sorted by type, with
/// no zero amount: a demand touches one to a few types, and a live
/// commitment keeps one per segment.
///
/// # Examples
///
/// ```
/// use rota_resource::{LocatedType, Location, Quantity};
/// use rota_actor::ResourceDemand;
///
/// let cpu = LocatedType::cpu(Location::new("l1"));
/// let mut d = ResourceDemand::new();
/// d.add(cpu.clone(), Quantity::new(8));
/// d.add(cpu.clone(), Quantity::new(5));
/// assert_eq!(d.amount(&cpu), Quantity::new(13));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ResourceDemand {
    amounts: Vec<(LocatedType, Quantity)>,
}

impl ResourceDemand {
    /// The empty demand.
    pub fn new() -> Self {
        ResourceDemand {
            amounts: Vec::new(),
        }
    }

    /// Where `located` is, or would be inserted, in `amounts`.
    fn slot(&self, located: &LocatedType) -> Result<usize, usize> {
        self.amounts.binary_search_by(|(lt, _)| lt.cmp(located))
    }

    /// A demand for a single amount of one located type.
    pub fn single(located: LocatedType, amount: Quantity) -> Self {
        let mut d = ResourceDemand::new();
        d.add(located, amount);
        d
    }

    /// Whether nothing is demanded.
    pub fn is_empty(&self) -> bool {
        self.amounts.is_empty()
    }

    /// Number of distinct located types demanded.
    pub fn len(&self) -> usize {
        self.amounts.len()
    }

    /// The demanded amount for `located` (zero if absent).
    pub fn amount(&self, located: &LocatedType) -> Quantity {
        match self.slot(located) {
            Ok(i) => self.amounts[i].1,
            Err(_) => Quantity::ZERO,
        }
    }

    /// Adds `amount` of `located` to the demand; zero amounts are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated amount overflows `u64` — demands are
    /// built from bounded action costs, so overflow indicates a logic
    /// error upstream.
    pub fn add(&mut self, located: LocatedType, amount: Quantity) {
        if amount.is_zero() {
            return;
        }
        self.accumulate(&located, amount);
    }

    /// Adds a non-zero `amount` of `located`, cloning the type only to
    /// insert it.
    fn accumulate(&mut self, located: &LocatedType, amount: Quantity) {
        match self.slot(located) {
            Ok(i) => {
                let slot = &mut self.amounts[i].1;
                *slot = slot
                    .checked_add(amount)
                    .expect("ResourceDemand amount overflowed u64");
            }
            Err(i) => self.amounts.insert(i, (located.clone(), amount)),
        }
    }

    /// Merges another demand into this one.
    ///
    /// # Panics
    ///
    /// Panics on amount overflow, as in [`add`](ResourceDemand::add).
    pub fn merge(&mut self, other: &ResourceDemand) {
        for (lt, q) in &other.amounts {
            self.accumulate(lt, *q);
        }
    }

    /// Iterates over `(located type, amount)` pairs in type order.
    pub fn iter(&self) -> impl Iterator<Item = (&LocatedType, Quantity)> {
        self.amounts.iter().map(|(lt, q)| (lt, *q))
    }

    /// The located types demanded, in order.
    pub fn located_types(&self) -> impl Iterator<Item = &LocatedType> {
        self.amounts.iter().map(|(lt, _)| lt)
    }

    /// If the demand touches exactly one located type, that type.
    ///
    /// The paper's segmentation remark — "a sequence of actions which
    /// require the same single type of resource need not be broken down" —
    /// keys off this.
    pub fn sole_located_type(&self) -> Option<&LocatedType> {
        match self.amounts.as_slice() {
            [(lt, _)] => Some(lt),
            _ => None,
        }
    }

    /// Total units across all located types (a size metric, not a
    /// semantically meaningful aggregate across different types).
    pub fn total_units(&self) -> u64 {
        self.amounts.iter().map(|(_, q)| q.units()).sum()
    }
}

impl FromIterator<(LocatedType, Quantity)> for ResourceDemand {
    fn from_iter<I: IntoIterator<Item = (LocatedType, Quantity)>>(iter: I) -> Self {
        let mut d = ResourceDemand::new();
        for (lt, q) in iter {
            d.add(lt, q);
        }
        d
    }
}

impl Extend<(LocatedType, Quantity)> for ResourceDemand {
    fn extend<I: IntoIterator<Item = (LocatedType, Quantity)>>(&mut self, iter: I) {
        for (lt, q) in iter {
            self.add(lt, q);
        }
    }
}

impl fmt::Display for ResourceDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.amounts.is_empty() {
            return f.write_str("{}");
        }
        f.write_str("{")?;
        let mut first = true;
        for (lt, q) in &self.amounts {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{{{}}}_{}", q.units(), lt)?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_resource::Location;

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    #[test]
    fn add_accumulates_and_ignores_zero() {
        let mut d = ResourceDemand::new();
        d.add(cpu("l1"), Quantity::new(3));
        d.add(cpu("l1"), Quantity::new(4));
        d.add(cpu("l2"), Quantity::ZERO);
        assert_eq!(d.amount(&cpu("l1")), Quantity::new(7));
        assert_eq!(d.amount(&cpu("l2")), Quantity::ZERO);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = ResourceDemand::single(cpu("l1"), Quantity::new(3));
        let b: ResourceDemand = [(cpu("l1"), Quantity::new(2)), (cpu("l2"), Quantity::new(9))]
            .into_iter()
            .collect();
        a.merge(&b);
        assert_eq!(a.amount(&cpu("l1")), Quantity::new(5));
        assert_eq!(a.amount(&cpu("l2")), Quantity::new(9));
        assert_eq!(a.total_units(), 14);
    }

    #[test]
    fn sole_located_type_detection() {
        let single = ResourceDemand::single(cpu("l1"), Quantity::new(3));
        assert_eq!(single.sole_located_type(), Some(&cpu("l1")));
        let empty = ResourceDemand::new();
        assert_eq!(empty.sole_located_type(), None);
        let multi: ResourceDemand = [(cpu("l1"), Quantity::new(1)), (cpu("l2"), Quantity::new(1))]
            .into_iter()
            .collect();
        assert_eq!(multi.sole_located_type(), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        let d = ResourceDemand::single(cpu("l1"), Quantity::new(8));
        assert_eq!(d.to_string(), "{{8}_⟨cpu, l1⟩}");
        assert_eq!(ResourceDemand::new().to_string(), "{}");
    }

    /// One of five located types, nodes and links.
    fn located(i: u8) -> LocatedType {
        match i % 5 {
            4 => LocatedType::network(Location::new("l1"), Location::new("l0")),
            3 => LocatedType::network(Location::new("l0"), Location::new("l1")),
            n => cpu(&format!("l{n}")),
        }
    }

    /// A demand operation, with its operands.
    #[derive(Debug, Clone)]
    enum Op {
        Add(u8, u64),
        Merge(Vec<(u8, u64)>),
    }

    /// The demand as it was stored before it became a sorted vector, with
    /// the former bodies of `add` and `merge`.
    type Model = std::collections::BTreeMap<LocatedType, Quantity>;

    fn model_add(m: &mut Model, located: LocatedType, amount: Quantity) {
        if amount.is_zero() {
            return;
        }
        let slot = m.entry(located).or_insert(Quantity::ZERO);
        *slot = slot.checked_add(amount).unwrap();
    }

    fn both(parts: &[(u8, u64)]) -> (ResourceDemand, Model) {
        let mut model = Model::new();
        for &(l, q) in parts {
            model_add(&mut model, located(l), Quantity::new(q));
        }
        let demand: ResourceDemand = parts
            .iter()
            .map(|&(l, q)| (located(l), Quantity::new(q)))
            .collect();
        (demand, model)
    }

    fn assert_agrees(demand: &ResourceDemand, model: &Model) {
        assert!(demand.iter().eq(model.iter().map(|(lt, q)| (lt, *q))));
        assert!(demand.located_types().eq(model.keys()));
        assert_eq!(demand.len(), model.len());
        assert_eq!(demand.is_empty(), model.is_empty());
        let sole = match model.len() {
            1 => model.keys().next(),
            _ => None,
        };
        assert_eq!(demand.sole_located_type(), sole);
        for i in 0..5 {
            let amount = model.get(&located(i)).copied().unwrap_or(Quantity::ZERO);
            assert_eq!(demand.amount(&located(i)), amount);
        }
    }

    fn arb_parts() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..5, 0u64..4), 0..5)
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0u8..5, 0u64..4).prop_map(|(l, q)| Op::Add(l, q)),
            arb_parts().prop_map(Op::Merge),
        ]
    }

    proptest::proptest! {
        /// Random `add` and `merge` sequences give the sorted-vector
        /// demand the amounts, order, equality and hash of the
        /// `BTreeMap` it replaced.
        #[test]
        fn demand_matches_its_btree_model(
            start in arb_parts(),
            ops in proptest::collection::vec(arb_op(), 0..10),
        ) {
            use std::hash::{BuildHasher, RandomState};
            let (mut demand, mut model) = both(&start);
            assert_agrees(&demand, &model);
            let hasher = RandomState::new();
            for op in ops {
                let (before, before_model) = (demand.clone(), model.clone());
                match op {
                    Op::Add(l, q) => {
                        demand.add(located(l), Quantity::new(q));
                        model_add(&mut model, located(l), Quantity::new(q));
                    }
                    Op::Merge(parts) => {
                        let (other, other_model) = both(&parts);
                        demand.merge(&other);
                        for (lt, q) in other_model.iter() {
                            model_add(&mut model, lt.clone(), *q);
                        }
                        proptest::prop_assert_eq!(demand == other, model == other_model);
                    }
                }
                assert_agrees(&demand, &model);
                proptest::prop_assert_eq!(demand == before, model == before_model);
                proptest::prop_assert_eq!(hasher.hash_one(&demand), hasher.hash_one(&model));
            }
        }
    }

    #[test]
    fn iteration_is_ordered() {
        let d: ResourceDemand = [(cpu("l2"), Quantity::new(1)), (cpu("l1"), Quantity::new(2))]
            .into_iter()
            .collect();
        let types: Vec<_> = d.located_types().cloned().collect();
        assert_eq!(types, vec![cpu("l1"), cpu("l2")]);
        assert_eq!(d.iter().count(), 2);
    }
}
