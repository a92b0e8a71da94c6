//! Newtype units used throughout the workspace.
//!
//! Keeping voltages, currents, times, capacitances and resistances as
//! distinct types prevents the classic unit-mixup bugs of characterization
//! code. Units are chosen so that products compose without conversion
//! factors: `Resistance` (kΩ) × `Capacitance` (fF) = `Time` (ps).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this unit.
            pub const ZERO: Self = Self(0.0);

            /// Creates a value from the raw magnitude in this unit's scale.
            #[inline]
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw magnitude in this unit's scale.
            #[inline]
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            #[must_use]
            pub fn abs(self) -> f64 {
                self.0.abs()
            }

            /// Returns `true` if the magnitude is a finite number.
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            #[inline]
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two same-unit quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(value: f64) -> Self {
                Self(value)
            }
        }
    };
}

unit!(
    /// Electric potential in volts (V).
    Voltage,
    "V"
);
unit!(
    /// Current in nanoamperes (nA) — the natural scale of standby leakage.
    Current,
    "nA"
);
unit!(
    /// Time in picoseconds (ps) — gate delays and signal slews.
    Time,
    "ps"
);
unit!(
    /// Capacitance in femtofarads (fF) — gate and wire loads.
    Capacitance,
    "fF"
);
unit!(
    /// Resistance in kiloohms (kΩ) — effective device drive resistance.
    Resistance,
    "kΩ"
);

impl Mul<Capacitance> for Resistance {
    type Output = Time;
    /// kΩ × fF = ps, the RC product used by the delay kernel.
    fn mul(self, rhs: Capacitance) -> Time {
        Time::new(self.value() * rhs.value())
    }
}

impl Mul<Resistance> for Capacitance {
    type Output = Time;
    fn mul(self, rhs: Resistance) -> Time {
        rhs * self
    }
}

impl Current {
    /// Converts to microamperes, the unit the paper's tables use.
    #[must_use]
    pub fn as_micro_amps(self) -> f64 {
        self.value() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_time() {
        let r = Resistance::new(2.0);
        let c = Capacitance::new(3.0);
        assert_eq!(r * c, Time::new(6.0));
        assert_eq!(c * r, Time::new(6.0));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Voltage::new(1.2);
        let b = Voltage::new(0.2);
        assert_eq!((a - b).value(), 1.0);
        assert_eq!((a + b).value(), 1.4);
        assert_eq!((-b).value(), -0.2);
        assert!((a / b - 6.0).abs() < 1e-12);
        assert_eq!((a * 2.0).value(), 2.4);
        assert_eq!((2.0 * a).value(), 2.4);
        assert_eq!((a / 2.0).value(), 0.6);
    }

    #[test]
    fn sum_and_compare() {
        let total: Current = [1.0, 2.0, 3.5].into_iter().map(Current::new).sum();
        assert_eq!(total, Current::new(6.5));
        assert!(Current::new(1.0) < Current::new(2.0));
        assert_eq!(Current::new(2.0).max(Current::new(1.0)), Current::new(2.0));
        assert_eq!(Current::new(2.0).min(Current::new(1.0)), Current::new(1.0));
    }

    #[test]
    fn micro_amp_conversion() {
        assert!((Current::new(24_500.0).as_micro_amps() - 24.5).abs() < 1e-12);
    }

    #[test]
    fn display_with_precision() {
        assert_eq!(format!("{:.2}", Voltage::new(1.234)), "1.23 V");
        assert_eq!(format!("{:.1}", Current::new(91.44)), "91.4 nA");
    }

    #[test]
    fn clamp_behaviour() {
        let v = Voltage::new(1.5);
        assert_eq!(v.clamp(Voltage::ZERO, Voltage::new(1.0)), Voltage::new(1.0));
        assert_eq!(
            Voltage::new(-0.1).clamp(Voltage::ZERO, Voltage::new(1.0)),
            Voltage::ZERO
        );
    }
}
