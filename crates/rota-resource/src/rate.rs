//! Rates and quantities of resource, with checked arithmetic.
//!
//! A resource term `[r]^τ_ξ` carries a **rate** `r` — units of resource per
//! tick. Integrating a rate over a time interval yields a **quantity** —
//! the paper's footnote 1: "the product `r × τ` gives the total quantity of
//! the available resource over the course of time interval `τ`." The two
//! are deliberately distinct types: a demand of 8 CPU *units* is not a rate
//! of 8 units *per tick*.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

use rota_interval::TickDuration;

/// Error raised when a rate/quantity operation overflows `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowError;

impl fmt::Display for OverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("resource arithmetic overflowed u64")
    }
}

impl std::error::Error for OverflowError {}

/// A rate of resource availability or consumption, in units per tick.
///
/// # Examples
///
/// ```
/// use rota_resource::Rate;
/// use rota_interval::TickDuration;
///
/// let r = Rate::new(5);
/// assert_eq!(r.over(TickDuration::new(3))?.units(), 15);
/// # Ok::<(), rota_resource::OverflowError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(u64);

impl Rate {
    /// The zero rate — a null resource term.
    pub const ZERO: Rate = Rate(0);

    /// Creates a rate of `units_per_tick`.
    #[inline]
    pub const fn new(units_per_tick: u64) -> Self {
        Rate(units_per_tick)
    }

    /// Units of resource made available per tick.
    #[inline]
    pub const fn units_per_tick(self) -> u64 {
        self.0
    }

    /// Whether this rate provides nothing.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Quantity delivered over `duration`: the paper's `r × τ` product.
    ///
    /// # Errors
    ///
    /// Returns [`OverflowError`] if the product exceeds `u64`.
    #[inline]
    pub fn over(self, duration: TickDuration) -> Result<Quantity, OverflowError> {
        self.0
            .checked_mul(duration.ticks())
            .map(Quantity)
            .ok_or(OverflowError)
    }

    /// Checked rate addition — aggregation of simultaneous same-type terms.
    #[inline]
    pub fn checked_add(self, other: Rate) -> Option<Rate> {
        self.0.checked_add(other.0).map(Rate)
    }

    /// Checked rate subtraction — the relative-complement rate `r₁ - r₂`.
    #[inline]
    pub fn checked_sub(self, other: Rate) -> Option<Rate> {
        self.0.checked_sub(other.0).map(Rate)
    }

    /// Saturating subtraction, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, other: Rate) -> Rate {
        Rate(self.0.saturating_sub(other.0))
    }

    /// The smaller of two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/Δt", self.0)
    }
}

impl From<u64> for Rate {
    fn from(v: u64) -> Self {
        Rate(v)
    }
}

impl Add for Rate {
    type Output = Rate;
    /// # Panics
    /// Panics on overflow; use [`Rate::checked_add`] to handle it.
    fn add(self, other: Rate) -> Rate {
        self.checked_add(other).expect("Rate + Rate overflowed")
    }
}

impl AddAssign for Rate {
    fn add_assign(&mut self, other: Rate) {
        *self = *self + other;
    }
}

impl Sub for Rate {
    type Output = Rate;
    /// # Panics
    /// Panics on underflow — the paper: "resource terms cannot be
    /// negative". Use [`Rate::checked_sub`] or [`Rate::saturating_sub`].
    fn sub(self, other: Rate) -> Rate {
        self.checked_sub(other)
            .expect("Rate - Rate underflowed: negative resource terms are not meaningful")
    }
}

/// An absolute amount of resource — the `q` in a required amount `{q}_ξ`.
///
/// # Examples
///
/// ```
/// use rota_resource::Quantity;
///
/// let total: Quantity = [Quantity::new(4), Quantity::new(8)].into_iter().sum();
/// assert_eq!(total, Quantity::new(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Quantity(u64);

impl Quantity {
    /// No resource at all.
    pub const ZERO: Quantity = Quantity(0);

    /// Creates a quantity of `units`.
    #[inline]
    pub const fn new(units: u64) -> Self {
        Quantity(units)
    }

    /// The number of units.
    #[inline]
    pub const fn units(self) -> u64 {
        self.0
    }

    /// Whether the quantity is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, other: Quantity) -> Option<Quantity> {
        self.0.checked_add(other.0).map(Quantity)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: Quantity) -> Option<Quantity> {
        self.0.checked_sub(other.0).map(Quantity)
    }

    /// Saturating subtraction, clamping at zero — used by the transition
    /// rules, where a final slice may overshoot the remaining demand.
    #[inline]
    pub fn saturating_sub(self, other: Quantity) -> Quantity {
        Quantity(self.0.saturating_sub(other.0))
    }

    /// The smaller of two quantities.
    #[inline]
    pub fn min(self, other: Quantity) -> Quantity {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Ticks needed to deliver this quantity at `rate`, rounding up; `None`
    /// for a zero rate (never delivers) unless the quantity is zero.
    pub fn ticks_at(self, rate: Rate) -> Option<TickDuration> {
        if self.0 == 0 {
            return Some(TickDuration::ZERO);
        }
        if rate.is_zero() {
            return None;
        }
        Some(TickDuration::new(self.0.div_ceil(rate.units_per_tick())))
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", self.0)
    }
}

impl From<u64> for Quantity {
    fn from(v: u64) -> Self {
        Quantity(v)
    }
}

impl Add for Quantity {
    type Output = Quantity;
    /// # Panics
    /// Panics on overflow; use [`Quantity::checked_add`] to handle it.
    fn add(self, other: Quantity) -> Quantity {
        self.checked_add(other)
            .expect("Quantity + Quantity overflowed")
    }
}

impl AddAssign for Quantity {
    fn add_assign(&mut self, other: Quantity) {
        *self = *self + other;
    }
}

impl Sub for Quantity {
    type Output = Quantity;
    /// # Panics
    /// Panics on underflow; use [`Quantity::checked_sub`] or
    /// [`Quantity::saturating_sub`].
    fn sub(self, other: Quantity) -> Quantity {
        self.checked_sub(other)
            .expect("Quantity - Quantity underflowed")
    }
}

impl Sum for Quantity {
    fn sum<I: Iterator<Item = Quantity>>(iter: I) -> Quantity {
        iter.fold(Quantity::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_times_duration_is_quantity() {
        assert_eq!(
            Rate::new(5).over(TickDuration::new(3)).unwrap(),
            Quantity::new(15)
        );
        assert_eq!(
            Rate::ZERO.over(TickDuration::new(100)).unwrap(),
            Quantity::ZERO
        );
        assert!(Rate::new(u64::MAX).over(TickDuration::new(2)).is_err());
    }

    #[test]
    fn rate_arithmetic() {
        assert_eq!(Rate::new(2) + Rate::new(3), Rate::new(5));
        assert_eq!(Rate::new(5) - Rate::new(3), Rate::new(2));
        assert_eq!(Rate::new(3).saturating_sub(Rate::new(5)), Rate::ZERO);
        assert_eq!(Rate::new(3).min(Rate::new(5)), Rate::new(3));
        assert_eq!(Rate::new(u64::MAX).checked_add(Rate::new(1)), None);
        assert_eq!(Rate::new(1).checked_sub(Rate::new(2)), None);
    }

    #[test]
    #[should_panic(expected = "negative resource terms")]
    fn negative_rate_panics() {
        let _ = Rate::new(1) - Rate::new(2);
    }

    #[test]
    fn quantity_arithmetic() {
        assert_eq!(Quantity::new(4) + Quantity::new(8), Quantity::new(12));
        assert_eq!(Quantity::new(8) - Quantity::new(3), Quantity::new(5));
        assert_eq!(
            Quantity::new(3).saturating_sub(Quantity::new(8)),
            Quantity::ZERO
        );
        let sum: Quantity = (1..=4u64).map(Quantity::new).sum();
        assert_eq!(sum, Quantity::new(10));
    }

    #[test]
    fn ticks_at_rounds_up() {
        assert_eq!(
            Quantity::new(10).ticks_at(Rate::new(4)),
            Some(TickDuration::new(3))
        );
        assert_eq!(
            Quantity::new(8).ticks_at(Rate::new(4)),
            Some(TickDuration::new(2))
        );
        assert_eq!(
            Quantity::ZERO.ticks_at(Rate::ZERO),
            Some(TickDuration::ZERO)
        );
        assert_eq!(Quantity::new(1).ticks_at(Rate::ZERO), None);
    }

    #[test]
    fn displays() {
        assert_eq!(Rate::new(5).to_string(), "5/Δt");
        assert_eq!(Quantity::new(5).to_string(), "5u");
        assert_eq!(
            OverflowError.to_string(),
            "resource arithmetic overflowed u64"
        );
    }
}
