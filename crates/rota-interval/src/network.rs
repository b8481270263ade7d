//! Qualitative interval constraint networks.
//!
//! The paper grounds ROTA's time model in Allen's Interval Algebra. This
//! module provides the reasoning the analyzer runs over that algebra: a
//! network of interval variables with disjunctive [`RelationSet`]
//! constraints, and Allen's path-consistency algorithm, which refutes a
//! set of qualitative ordering requirements between computation phases
//! that cannot hold together.

use core::fmt;

use crate::compose::compose_sets;
use crate::relation::AllenRelation;
use crate::relation_set::RelationSet;

/// Identifier of an interval variable within a [`ConstraintNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    /// The position of the variable in creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Error returned by operations that reference a variable not in the
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownVarError(VarId);

impl fmt::Display for UnknownVarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown interval variable {}", self.0)
    }
}

impl std::error::Error for UnknownVarError {}

/// A binary qualitative constraint network over interval variables.
///
/// Constraints are stored as a dense matrix of [`RelationSet`]s with the
/// invariants `c[i][i] = {=}` and `c[j][i] = c[i][j].converse()` maintained
/// on every update.
///
/// # Examples
///
/// ```
/// use rota_interval::{AllenRelation, ConstraintNetwork, RelationSet};
///
/// let mut net = ConstraintNetwork::new();
/// let a = net.add_variable();
/// let b = net.add_variable();
/// let c = net.add_variable();
/// net.constrain(a, b, RelationSet::singleton(AllenRelation::Before))?;
/// net.constrain(b, c, RelationSet::singleton(AllenRelation::Before))?;
/// assert!(net.path_consistency());
/// // transitivity was inferred:
/// assert_eq!(net.constraint(a, c)?, RelationSet::singleton(AllenRelation::Before));
/// # Ok::<(), rota_interval::UnknownVarError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintNetwork {
    // Row-major n×n matrix; entry (i, j) constrains relate(xi, xj).
    constraints: Vec<RelationSet>,
    n: usize,
}

impl ConstraintNetwork {
    /// Creates an empty network with no variables.
    pub fn new() -> Self {
        ConstraintNetwork {
            constraints: Vec::new(),
            n: 0,
        }
    }

    /// Adds a fresh, unconstrained interval variable.
    pub fn add_variable(&mut self) -> VarId {
        let n = self.n + 1;
        let mut next = vec![RelationSet::FULL; n * n];
        for i in 0..self.n {
            for j in 0..self.n {
                next[i * n + j] = self.constraints[i * self.n + j];
            }
        }
        for i in 0..n {
            next[i * n + i] = RelationSet::singleton(AllenRelation::Equals);
        }
        self.constraints = next;
        self.n = n;
        VarId(n - 1)
    }

    /// Number of variables in the network.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the network has no variables.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn check(&self, v: VarId) -> Result<usize, UnknownVarError> {
        if v.0 < self.n {
            Ok(v.0)
        } else {
            Err(UnknownVarError(v))
        }
    }

    /// The current constraint on the ordered pair `(a, b)`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownVarError`] if either variable is foreign.
    pub fn constraint(&self, a: VarId, b: VarId) -> Result<RelationSet, UnknownVarError> {
        let (i, j) = (self.check(a)?, self.check(b)?);
        Ok(self.constraints[i * self.n + j])
    }

    /// Conjoins `rel` onto the constraint between `a` and `b` (and its
    /// converse onto `(b, a)`), returning the narrowed constraint.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownVarError`] if either variable is foreign.
    /// Narrowing to the empty set is *not* an error here — it simply makes
    /// the network inconsistent, which [`path_consistency`] will report.
    ///
    /// [`path_consistency`]: ConstraintNetwork::path_consistency
    pub fn constrain(
        &mut self,
        a: VarId,
        b: VarId,
        rel: RelationSet,
    ) -> Result<RelationSet, UnknownVarError> {
        let (i, j) = (self.check(a)?, self.check(b)?);
        let narrowed = self.constraints[i * self.n + j].intersect(rel);
        self.constraints[i * self.n + j] = narrowed;
        self.constraints[j * self.n + i] = narrowed.converse();
        Ok(narrowed)
    }

    /// Runs Allen's path-consistency algorithm to a fixed point, narrowing
    /// every constraint through every two-edge path. Returns `false` if
    /// some constraint became empty — the network is then unsatisfiable.
    ///
    /// Path consistency is sound (never removes a relation that appears in
    /// a solution) but, for the full interval algebra, incomplete: a
    /// path-consistent network may still lack an atomic scenario (one
    /// basic relation per pair that holds together).
    pub fn path_consistency(&mut self) -> bool {
        if self.n == 0 {
            return true;
        }
        // Classic queue-driven PC-2 style loop over ordered pairs.
        let mut queue: Vec<(usize, usize)> = Vec::new();
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    queue.push((i, j));
                }
            }
        }
        while let Some((i, j)) = queue.pop() {
            let cij = self.constraints[i * self.n + j];
            if cij.is_empty() {
                return false;
            }
            for k in 0..self.n {
                if k == i || k == j {
                    continue;
                }
                // Narrow (i, k) through j.
                let cik = self.constraints[i * self.n + k];
                let njk = compose_sets(cij, self.constraints[j * self.n + k]);
                let narrowed = cik.intersect(njk);
                if narrowed != cik {
                    if narrowed.is_empty() {
                        return false;
                    }
                    self.constraints[i * self.n + k] = narrowed;
                    self.constraints[k * self.n + i] = narrowed.converse();
                    queue.push((i, k));
                }
                // Narrow (k, j) through i.
                let ckj = self.constraints[k * self.n + j];
                let nki = compose_sets(self.constraints[k * self.n + i], cij);
                let narrowed = ckj.intersect(nki);
                if narrowed != ckj {
                    if narrowed.is_empty() {
                        return false;
                    }
                    self.constraints[k * self.n + j] = narrowed;
                    self.constraints[j * self.n + k] = narrowed.converse();
                    queue.push((k, j));
                }
            }
        }
        true
    }
}

impl Default for ConstraintNetwork {
    fn default() -> Self {
        ConstraintNetwork::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_network_is_consistent() {
        let mut net = ConstraintNetwork::new();
        assert!(net.is_empty());
        assert!(net.path_consistency());
    }

    #[test]
    fn diagonal_is_equals() {
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable();
        let b = net.add_variable();
        assert_eq!(
            net.constraint(a, a).unwrap(),
            RelationSet::singleton(AllenRelation::Equals)
        );
        assert_eq!(net.constraint(a, b).unwrap(), RelationSet::FULL);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn constrain_maintains_converse() {
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable();
        let b = net.add_variable();
        net.constrain(a, b, RelationSet::singleton(AllenRelation::Overlaps))
            .unwrap();
        assert_eq!(
            net.constraint(b, a).unwrap(),
            RelationSet::singleton(AllenRelation::OverlappedBy)
        );
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable();
        let mut other = ConstraintNetwork::new();
        let _ = other.add_variable();
        let foreign = {
            let mut n2 = ConstraintNetwork::new();
            n2.add_variable();
            n2.add_variable()
        };
        assert!(net.constraint(a, foreign).is_err());
        let err = net.constraint(foreign, a).unwrap_err();
        assert_eq!(err.to_string(), "unknown interval variable x1");
    }

    #[test]
    fn transitive_inference_before_chain() {
        let mut net = ConstraintNetwork::new();
        let vars: Vec<_> = (0..5).map(|_| net.add_variable()).collect();
        for w in vars.windows(2) {
            net.constrain(w[0], w[1], RelationSet::singleton(AllenRelation::Before))
                .unwrap();
        }
        assert!(net.path_consistency());
        assert_eq!(
            net.constraint(vars[0], vars[4]).unwrap(),
            RelationSet::singleton(AllenRelation::Before)
        );
    }

    #[test]
    fn detects_cyclic_inconsistency() {
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable();
        let b = net.add_variable();
        let c = net.add_variable();
        let before = RelationSet::singleton(AllenRelation::Before);
        net.constrain(a, b, before).unwrap();
        net.constrain(b, c, before).unwrap();
        net.constrain(c, a, before).unwrap();
        assert!(!net.path_consistency());
    }

    #[test]
    fn direct_contradiction_is_inconsistent() {
        let mut net = ConstraintNetwork::new();
        let a = net.add_variable();
        let b = net.add_variable();
        net.constrain(a, b, RelationSet::singleton(AllenRelation::Before))
            .unwrap();
        let c = net
            .constrain(a, b, RelationSet::singleton(AllenRelation::After))
            .unwrap();
        assert!(c.is_empty());
        assert!(!net.path_consistency());
    }
}
