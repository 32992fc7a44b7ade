//! Physical-unit newtypes used across the workspace.
//!
//! Every quantity crossing a public API is wrapped in a unit newtype so the
//! compiler catches unit confusion (e.g. passing a frequency where a voltage
//! is expected). All wrappers are thin `f64` newtypes with `value()` /
//! `From<f64>` escape hatches for arithmetic-heavy inner loops.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw `f64` value in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(v: $name) -> f64 {
                v.0
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

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $suffix),
                    None => write!(f, "{} {}", self.0, $suffix),
                }
            }
        }
    };
}

unit!(
    /// Supply voltage in volts.
    Volts,
    "V"
);
unit!(
    /// Clock frequency in gigahertz.
    GigaHertz,
    "GHz"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius,
    "degC"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);

impl Watts {
    /// Energy dissipated at this power over a duration.
    ///
    /// ```
    /// use odrl_power::{Watts, Seconds};
    /// let e = Watts::new(2.0).energy_over(Seconds::new(0.5));
    /// assert_eq!(e.value(), 1.0);
    /// ```
    #[inline]
    pub fn energy_over(self, dt: Seconds) -> Joules {
        Joules::new(self.0 * dt.value())
    }
}

impl Joules {
    /// Average power over a duration.
    ///
    /// ```
    /// use odrl_power::{Joules, Seconds};
    /// let p = Joules::new(3.0).average_power(Seconds::new(2.0));
    /// assert_eq!(p.value(), 1.5);
    /// ```
    #[inline]
    pub fn average_power(self, dt: Seconds) -> Watts {
        Watts::new(self.0 / dt.value())
    }
}

impl GigaHertz {
    /// Converts to plain hertz.
    #[inline]
    pub fn to_hertz(self) -> f64 {
        self.0 * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Watts::new(3.0);
        let b = Watts::new(1.5);
        assert_eq!((a + b).value(), 4.5);
        assert_eq!((a - b).value(), 1.5);
        assert_eq!((a * 2.0).value(), 6.0);
        assert_eq!((2.0 * a).value(), 6.0);
        assert_eq!((a / 2.0).value(), 1.5);
        assert_eq!(a / b, 2.0);
        assert_eq!((-b).value(), -1.5);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Watts = [1.0, 2.0, 3.0].iter().map(|&w| Watts::new(w)).sum();
        assert_eq!(total.value(), 6.0);
        let by_ref: Watts = [Watts::new(1.0), Watts::new(2.0)].iter().sum();
        assert_eq!(by_ref.value(), 3.0);
    }

    #[test]
    fn comparison_and_clamp() {
        let lo = Volts::new(0.7);
        let hi = Volts::new(1.3);
        assert!(lo < hi);
        assert_eq!(Volts::new(2.0).clamp(lo, hi), hi);
        assert_eq!(Volts::new(0.1).clamp(lo, hi), lo);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn energy_power_duality() {
        let p = Watts::new(4.0);
        let dt = Seconds::new(0.25);
        assert_eq!(p.energy_over(dt).average_power(dt).value(), 4.0);
    }

    #[test]
    fn display_has_suffix() {
        assert_eq!(format!("{:.1}", Watts::new(1.25)), "1.2 W");
        assert_eq!(format!("{:.2}", GigaHertz::new(2.0)), "2.00 GHz");
        assert_eq!(format!("{:.0}", Celsius::new(85.0)), "85 degC");
    }

    #[test]
    fn frequency_conversions() {
        let f = GigaHertz::new(2.0);
        assert_eq!(f.to_hertz(), 2e9);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Joules::default(), Joules::ZERO);
        assert_eq!(Seconds::default().value(), 0.0);
    }

    #[test]
    fn abs_and_neg() {
        assert_eq!(Joules::new(-2.0).abs().value(), 2.0);
        assert!(!Watts::new(f64::NAN).is_finite());
        assert!(Watts::new(1.0).is_finite());
    }
}
