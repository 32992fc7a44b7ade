//! Voltage/frequency operating points and per-core DVFS level tables.

use crate::error::PowerModelError;
use crate::units::{GigaHertz, Volts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a voltage/frequency level inside a [`VfTable`].
///
/// Level `0` is the lowest (slowest, most power-frugal) operating point;
/// higher indices are faster and hungrier. `LevelId` is a plain index
/// newtype so controllers can do arithmetic on it without accidentally
/// mixing it with core ids or other `usize` quantities.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct LevelId(pub usize);

impl LevelId {
    /// The lowest operating point.
    pub const MIN: LevelId = LevelId(0);

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }

    /// One level down, saturating at zero.
    #[inline]
    pub fn step_down(self) -> LevelId {
        LevelId(self.0.saturating_sub(1))
    }
}

impl fmt::Display for LevelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<usize> for LevelId {
    fn from(v: usize) -> Self {
        LevelId(v)
    }
}

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct VfLevel {
    /// Supply voltage at this operating point.
    pub voltage: Volts,
    /// Clock frequency at this operating point.
    pub frequency: GigaHertz,
}

impl VfLevel {
    /// Creates an operating point from a voltage and frequency.
    ///
    /// ```
    /// use odrl_power::{VfLevel, Volts, GigaHertz};
    /// let nominal = VfLevel::new(Volts::new(1.0), GigaHertz::new(2.0));
    /// assert_eq!(nominal.frequency.value(), 2.0);
    /// ```
    pub const fn new(voltage: Volts, frequency: GigaHertz) -> Self {
        Self { voltage, frequency }
    }

    fn validate(&self, index: usize) -> Result<(), PowerModelError> {
        let v = self.voltage.value();
        let f = self.frequency.value();
        if !(v.is_finite() && v > 0.0) {
            return Err(PowerModelError::InvalidVfLevel {
                index,
                reason: format!("voltage {v} must be finite and positive"),
            });
        }
        if !(f.is_finite() && f > 0.0) {
            return Err(PowerModelError::InvalidVfLevel {
                index,
                reason: format!("frequency {f} must be finite and positive"),
            });
        }
        Ok(())
    }
}

impl fmt::Display for VfLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.voltage, self.frequency)
    }
}

/// An ordered table of discrete voltage/frequency operating points.
///
/// The table is strictly increasing in both voltage and frequency: level 0
/// is the most power-frugal point and the last level is the fastest. This
/// mirrors the discrete P-state tables exposed by real DVFS hardware.
///
/// ```
/// use odrl_power::VfTable;
/// let table = VfTable::alpha_like();
/// assert!(table.len() >= 4);
/// assert!(table.min_frequency() < table.max_frequency());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "VfTableRepr")]
pub struct VfTable {
    levels: Vec<VfLevel>,
}

/// Serde-side representation: deserialization funnels through
/// [`VfTable::new`] so a hand-edited config file cannot smuggle in an
/// empty or non-monotone table.
#[derive(Deserialize)]
struct VfTableRepr {
    levels: Vec<VfLevel>,
}

impl TryFrom<VfTableRepr> for VfTable {
    type Error = PowerModelError;

    fn try_from(repr: VfTableRepr) -> Result<Self, Self::Error> {
        Self::new(repr.levels)
    }
}

impl VfTable {
    /// Builds a table from explicit levels.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::EmptyVfTable`] if `levels` is empty,
    /// [`PowerModelError::InvalidVfLevel`] if any voltage/frequency is not
    /// finite-positive, and [`PowerModelError::NonMonotonicVfTable`] if
    /// levels are not strictly increasing in both voltage and frequency.
    pub fn new(levels: Vec<VfLevel>) -> Result<Self, PowerModelError> {
        if levels.is_empty() {
            return Err(PowerModelError::EmptyVfTable);
        }
        for (i, level) in levels.iter().enumerate() {
            level.validate(i)?;
        }
        for i in 1..levels.len() {
            let prev = levels[i - 1];
            let cur = levels[i];
            if cur.voltage <= prev.voltage || cur.frequency <= prev.frequency {
                return Err(PowerModelError::NonMonotonicVfTable { index: i });
            }
        }
        Ok(Self { levels })
    }

    /// Builds a table of `n` evenly spaced levels between two endpoints.
    ///
    /// Voltage and frequency are both interpolated linearly, which is the
    /// usual first-order approximation for DVFS tables (V roughly tracks f
    /// inside the scaling range).
    ///
    /// # Errors
    ///
    /// Returns an error if `n < 2` or the endpoints are not increasing.
    pub fn linear(low: VfLevel, high: VfLevel, n: usize) -> Result<Self, PowerModelError> {
        if n < 2 {
            return Err(PowerModelError::InvalidParameter {
                name: "n",
                value: n as f64,
            });
        }
        let mut levels = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / (n - 1) as f64;
            levels.push(VfLevel::new(
                low.voltage + (high.voltage - low.voltage) * t,
                low.frequency + (high.frequency - low.frequency) * t,
            ));
        }
        Self::new(levels)
    }

    /// The default 8-level table used throughout the reproduction.
    ///
    /// Modeled after a 22 nm Alpha-like core with DVFS from (0.70 V, 1.0 GHz)
    /// to (1.26 V, 3.1 GHz) in 300 MHz steps — a plausible 2015-era many-core
    /// operating range.
    pub fn alpha_like() -> Self {
        Self::linear(
            VfLevel::new(Volts::new(0.70), GigaHertz::new(1.0)),
            VfLevel::new(Volts::new(1.26), GigaHertz::new(3.1)),
            8,
        )
        .expect("static table is valid")
    }

    /// An extended-range 12-level table reaching into near-threshold
    /// operation: (0.55 V, 0.3 GHz) … (1.26 V, 3.1 GHz).
    ///
    /// The low tail follows the near-threshold regime's steeper
    /// frequency-voltage slope (frequency collapses much faster than
    /// voltage as Vdd approaches Vt), giving power-capping controllers four
    /// ultra-frugal operating points below [`VfTable::alpha_like`]'s floor.
    /// Useful under very tight budgets, at the cost of a wider (slower to
    /// learn / search) action space.
    pub fn extended_range() -> Self {
        let ntc = [(0.55, 0.3), (0.60, 0.5), (0.65, 0.75)];
        let mut levels: Vec<VfLevel> = ntc
            .iter()
            .map(|&(v, f)| VfLevel::new(Volts::new(v), GigaHertz::new(f)))
            .collect();
        levels.extend(Self::alpha_like().levels);
        Self::new(levels).expect("static table is valid")
    }

    /// Number of levels in the table.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Returns `true` if the table has no levels (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The highest (fastest) level id.
    pub fn max_level(&self) -> LevelId {
        LevelId(self.levels.len() - 1)
    }

    /// Looks up a level, or `None` if out of range.
    pub fn get(&self, id: LevelId) -> Option<VfLevel> {
        self.levels.get(id.0).copied()
    }

    /// Looks up a level.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`VfTable::get`] for a checked
    /// lookup.
    pub fn level(&self, id: LevelId) -> VfLevel {
        self.levels[id.0]
    }

    /// Validates a level id against this table.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::LevelOutOfRange`] if `id` does not index a
    /// level of this table.
    pub fn check(&self, id: LevelId) -> Result<LevelId, PowerModelError> {
        if id.0 < self.levels.len() {
            Ok(id)
        } else {
            Err(PowerModelError::LevelOutOfRange {
                requested: id.0,
                available: self.levels.len(),
            })
        }
    }

    /// Iterates over `(LevelId, VfLevel)` pairs from slowest to fastest.
    pub fn iter(&self) -> impl Iterator<Item = (LevelId, VfLevel)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .map(|(i, &l)| (LevelId(i), l))
    }

    /// The lowest frequency in the table.
    pub fn min_frequency(&self) -> GigaHertz {
        self.levels[0].frequency
    }

    /// The highest frequency in the table.
    pub fn max_frequency(&self) -> GigaHertz {
        self.levels[self.levels.len() - 1].frequency
    }

    /// The id of the slowest level whose frequency is at least `f`, or the
    /// top level if none reaches `f`.
    ///
    /// ```
    /// use odrl_power::{VfTable, GigaHertz};
    /// let t = VfTable::alpha_like();
    /// let id = t.level_for_frequency(GigaHertz::new(2.0));
    /// assert!(t.level(id).frequency.value() >= 2.0 - 1e-12);
    /// ```
    pub fn level_for_frequency(&self, f: GigaHertz) -> LevelId {
        for (id, level) in self.iter() {
            if level.frequency >= f {
                return id;
            }
        }
        self.max_level()
    }
}

impl<'a> IntoIterator for &'a VfTable {
    type Item = &'a VfLevel;
    type IntoIter = std::slice::Iter<'a, VfLevel>;

    fn into_iter(self) -> Self::IntoIter {
        self.levels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vf(v: f64, f: f64) -> VfLevel {
        VfLevel::new(Volts::new(v), GigaHertz::new(f))
    }

    #[test]
    fn rejects_empty_table() {
        assert_eq!(VfTable::new(vec![]), Err(PowerModelError::EmptyVfTable));
    }

    #[test]
    fn rejects_non_monotonic_frequency() {
        let err = VfTable::new(vec![vf(0.8, 2.0), vf(0.9, 1.5)]).unwrap_err();
        assert_eq!(err, PowerModelError::NonMonotonicVfTable { index: 1 });
    }

    #[test]
    fn rejects_non_monotonic_voltage() {
        let err = VfTable::new(vec![vf(0.9, 1.0), vf(0.8, 2.0)]).unwrap_err();
        assert_eq!(err, PowerModelError::NonMonotonicVfTable { index: 1 });
    }

    #[test]
    fn rejects_nonpositive_values() {
        assert!(matches!(
            VfTable::new(vec![vf(0.0, 1.0)]),
            Err(PowerModelError::InvalidVfLevel { index: 0, .. })
        ));
        assert!(matches!(
            VfTable::new(vec![vf(1.0, f64::NAN)]),
            Err(PowerModelError::InvalidVfLevel { index: 0, .. })
        ));
    }

    #[test]
    fn linear_interpolates_endpoints() {
        let t = VfTable::linear(vf(0.7, 1.0), vf(1.3, 3.0), 5).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.level(LevelId(0)), vf(0.7, 1.0));
        assert_eq!(t.level(LevelId(4)), vf(1.3, 3.0));
        assert!((t.level(LevelId(2)).frequency.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_requires_two_levels() {
        assert!(VfTable::linear(vf(0.7, 1.0), vf(1.3, 3.0), 1).is_err());
    }

    #[test]
    fn alpha_like_is_well_formed() {
        let t = VfTable::alpha_like();
        assert_eq!(t.len(), 8);
        assert_eq!(t.max_level(), LevelId(7));
        assert!(t.min_frequency().value() > 0.9);
        assert!(t.max_frequency().value() < 3.2);
    }

    #[test]
    fn extended_range_is_a_superset_below_alpha_like() {
        let ext = VfTable::extended_range();
        let std = VfTable::alpha_like();
        assert_eq!(ext.len(), std.len() + 3);
        assert!(ext.min_frequency() < std.min_frequency());
        assert_eq!(ext.max_frequency(), std.max_frequency());
        // The standard table's levels appear unchanged at the tail.
        for (i, (_, level)) in std.iter().enumerate() {
            assert_eq!(ext.level(LevelId(i + 3)), level);
        }
    }

    #[test]
    fn check_validates_range() {
        let t = VfTable::alpha_like();
        assert!(t.check(LevelId(7)).is_ok());
        assert_eq!(
            t.check(LevelId(8)),
            Err(PowerModelError::LevelOutOfRange {
                requested: 8,
                available: 8
            })
        );
    }

    #[test]
    fn level_id_stepping_saturates() {
        assert_eq!(LevelId(0).step_down(), LevelId(0));
        assert_eq!(LevelId(2).step_down(), LevelId(1));
    }

    #[test]
    fn level_for_frequency_picks_slowest_satisfying() {
        let t = VfTable::linear(vf(0.7, 1.0), vf(1.3, 3.0), 5).unwrap();
        assert_eq!(t.level_for_frequency(GigaHertz::new(0.5)), LevelId(0));
        assert_eq!(t.level_for_frequency(GigaHertz::new(1.0)), LevelId(0));
        assert_eq!(t.level_for_frequency(GigaHertz::new(1.1)), LevelId(1));
        assert_eq!(t.level_for_frequency(GigaHertz::new(99.0)), LevelId(4));
    }

    #[test]
    fn iteration_orders_by_level() {
        let t = VfTable::alpha_like();
        let ids: Vec<usize> = t.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(t.into_iter().count(), 8);
    }

    #[test]
    fn deserialization_validates() {
        let good =
            r#"{"levels":[{"voltage":0.7,"frequency":1.0},{"voltage":0.9,"frequency":2.0}]}"#;
        assert!(serde_json::from_str::<VfTable>(good).is_ok());
        // Non-monotone table must be rejected at parse time.
        let bad = r#"{"levels":[{"voltage":0.9,"frequency":2.0},{"voltage":0.7,"frequency":1.0}]}"#;
        assert!(serde_json::from_str::<VfTable>(bad).is_err());
        let empty = r#"{"levels":[]}"#;
        assert!(serde_json::from_str::<VfTable>(empty).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(LevelId(3).to_string(), "L3");
        let s = vf(1.0, 2.0).to_string();
        assert!(s.contains("1.00 V") && s.contains("2.00 GHz"));
    }
}
