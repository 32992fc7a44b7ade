//! Dense action-value tables.

use crate::error::RlError;
use crate::schedule::Schedule;
use crate::storage::RowStats;

/// A dense `|S| × |A|` table of action values with visit counts.
///
/// Visit counts are held as saturating `u32`s (the learning-rate schedules
/// stop reading them long before they could saturate) and read back as
/// `u64`; snapshots still write them as `u64`.
///
/// ```
/// use odrl_rl::QTable;
/// let mut q = QTable::new(4, 2)?;
/// q.set(1, 0, 3.0)?;
/// q.set(1, 1, 5.0)?;
/// assert_eq!(q.best_action(1)?, 1);
/// assert_eq!(q.max_value(1)?, 5.0);
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    states: usize,
    actions: usize,
    values: Vec<f64>,
    visits: Vec<u32>,
}

impl QTable {
    /// Creates a zero-initialised table.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptySpace`] if either dimension is zero.
    pub fn new(states: usize, actions: usize) -> Result<Self, RlError> {
        if states == 0 {
            return Err(RlError::EmptySpace { what: "state" });
        }
        if actions == 0 {
            return Err(RlError::EmptySpace { what: "action" });
        }
        Ok(Self {
            states,
            actions,
            values: vec![0.0; states * actions],
            visits: vec![0; states * actions],
        })
    }

    /// Creates a table optimistically initialised to `value` (optimistic
    /// initialisation drives systematic early exploration).
    ///
    /// # Errors
    ///
    /// As [`QTable::new`]; additionally if `value` is not finite.
    pub fn optimistic(states: usize, actions: usize, value: f64) -> Result<Self, RlError> {
        if !value.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "value",
                value,
            });
        }
        let mut t = Self::new(states, actions)?;
        t.values.fill(value);
        Ok(t)
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        self.actions
    }

    fn idx(&self, s: usize, a: usize) -> Result<usize, RlError> {
        if s >= self.states {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: s,
                size: self.states,
            });
        }
        if a >= self.actions {
            return Err(RlError::IndexOutOfRange {
                what: "action",
                requested: a,
                size: self.actions,
            });
        }
        Ok(s * self.actions + a)
    }

    /// The value of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn get(&self, s: usize, a: usize) -> Result<f64, RlError> {
        Ok(self.values[self.idx(s, a)?])
    }

    /// Sets the value of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices, or
    /// [`RlError::InvalidParameter`] for a non-finite value.
    pub fn set(&mut self, s: usize, a: usize, value: f64) -> Result<(), RlError> {
        if !value.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "value",
                value,
            });
        }
        let i = self.idx(s, a)?;
        self.values[i] = value;
        Ok(())
    }

    /// Records a visit to `(s, a)` and returns the new count.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn visit(&mut self, s: usize, a: usize) -> Result<u64, RlError> {
        let i = self.idx(s, a)?;
        self.visits[i] = self.visits[i].saturating_add(1);
        Ok(u64::from(self.visits[i]))
    }

    /// Fused TD update: one bounds check covers the visit bump, the
    /// learning-rate lookup, the read and the write. Bit-identical to the
    /// unfused `visit` → `alpha.value(visits - 1)` → `get` → `set` chain.
    /// Returns the TD error `target − old` (the learning-health signal).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices, or
    /// [`RlError::InvalidParameter`] if the updated value is non-finite.
    pub fn td_step(
        &mut self,
        s: usize,
        a: usize,
        alpha: &Schedule,
        target: f64,
    ) -> Result<f64, RlError> {
        let i = self.idx(s, a)?;
        self.visits[i] = self.visits[i].saturating_add(1);
        let alpha = alpha.value(u64::from(self.visits[i]) - 1);
        let old = self.values[i];
        let value = old + alpha * (target - old);
        if !value.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "value",
                value,
            });
        }
        self.values[i] = value;
        Ok(target - old)
    }

    /// Visit count of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn visits(&self, s: usize, a: usize) -> Result<u64, RlError> {
        Ok(u64::from(self.visits[self.idx(s, a)?]))
    }

    /// The action values of state `s`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row(&self, s: usize) -> Result<&[f64], RlError> {
        let start = self.idx(s, 0)?;
        Ok(&self.values[start..start + self.actions])
    }

    /// The greedy action in state `s` (lowest index wins ties).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn best_action(&self, s: usize) -> Result<usize, RlError> {
        let row = self.row(s)?;
        let mut best = 0;
        for (a, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = a;
            }
        }
        Ok(best)
    }

    /// The maximum action value in state `s`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn max_value(&self, s: usize) -> Result<f64, RlError> {
        let row = self.row(s)?;
        Ok(row.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// [`QTable::best_action`] and [`QTable::max_value`] fused into a single
    /// pass over the row, with branchless selects — the hot loop of a fused
    /// select-and-update step needs both, and the separate calls would scan
    /// the row twice. Results are identical to the separate methods.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn best_action_and_max(&self, s: usize) -> Result<(usize, f64), RlError> {
        let row = self.row(s)?;
        let mut best = 0;
        let mut max_v = f64::NEG_INFINITY;
        for (a, &v) in row.iter().enumerate() {
            if v > max_v {
                best = a;
                max_v = v;
            }
        }
        Ok((best, max_v))
    }

    /// Min/max action value and visit count of state `s` in one row scan
    /// — the learning-health diagnostics tap (greedy-Q span, visit
    /// dispersion).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row_stats(&self, s: usize) -> Result<RowStats, RlError> {
        let start = self.idx(s, 0)?;
        let mut stats = RowStats {
            q_min: f64::INFINITY,
            q_max: f64::NEG_INFINITY,
            visit_min: u64::MAX,
            visit_max: 0,
        };
        for i in start..start + self.actions {
            let v = self.values[i];
            stats.q_min = stats.q_min.min(v);
            stats.q_max = stats.q_max.max(v);
            let n = u64::from(self.visits[i]);
            stats.visit_min = stats.visit_min.min(n);
            stats.visit_max = stats.visit_max.max(n);
        }
        Ok(stats)
    }

    /// The value of `(s, a)` without bounds checks beyond slice indexing.
    #[inline]
    pub(crate) fn value_at(&self, s: usize, a: usize) -> f64 {
        self.values[s * self.actions + a]
    }

    /// Raw snapshot parts: `(values, visits)`.
    pub(crate) fn parts(&self) -> (&[f64], &[u32]) {
        (&self.values, &self.visits)
    }

    /// Rebuilds a table from snapshot parts, validating geometry.
    pub(crate) fn from_parts(
        states: usize,
        actions: usize,
        values: Vec<f64>,
        visits: Vec<u32>,
    ) -> Result<Self, RlError> {
        if states == 0 || actions == 0 {
            return Err(RlError::Snapshot {
                reason: "scalar table with empty dimensions",
            });
        }
        if values.len() != states * actions || visits.len() != states * actions {
            return Err(RlError::Snapshot {
                reason: "scalar table geometry mismatch",
            });
        }
        Ok(Self {
            states,
            actions,
            values,
            visits,
        })
    }

    /// Total number of `(s, a)` visits recorded.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().map(|&v| u64::from(v)).sum()
    }

    /// Fraction of `(s, a)` pairs visited at least once.
    pub fn coverage(&self) -> f64 {
        let seen = self.visits.iter().filter(|&&v| v > 0).count();
        seen as f64 / self.visits.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_zero() {
        let q = QTable::new(3, 2).unwrap();
        assert_eq!(q.get(2, 1).unwrap(), 0.0);
        assert_eq!(q.max_value(0).unwrap(), 0.0);
        assert_eq!(q.total_visits(), 0);
        assert_eq!(q.coverage(), 0.0);
    }

    #[test]
    fn rejects_empty_dimensions() {
        assert!(QTable::new(0, 2).is_err());
        assert!(QTable::new(2, 0).is_err());
    }

    #[test]
    fn set_get_roundtrip_and_bounds() {
        let mut q = QTable::new(2, 2).unwrap();
        q.set(0, 1, 2.5).unwrap();
        assert_eq!(q.get(0, 1).unwrap(), 2.5);
        assert!(q.get(2, 0).is_err());
        assert!(q.get(0, 2).is_err());
        assert!(q.set(0, 0, f64::NAN).is_err());
    }

    #[test]
    fn best_action_breaks_ties_low() {
        let mut q = QTable::new(1, 3).unwrap();
        q.set(0, 0, 1.0).unwrap();
        q.set(0, 2, 1.0).unwrap();
        assert_eq!(q.best_action(0).unwrap(), 0);
        q.set(0, 2, 1.5).unwrap();
        assert_eq!(q.best_action(0).unwrap(), 2);
    }

    #[test]
    fn optimistic_initialisation() {
        let q = QTable::optimistic(2, 2, 10.0).unwrap();
        assert_eq!(q.get(1, 1).unwrap(), 10.0);
        assert!(QTable::optimistic(2, 2, f64::INFINITY).is_err());
    }

    #[test]
    fn visits_and_coverage() {
        let mut q = QTable::new(2, 2).unwrap();
        assert_eq!(q.visit(0, 0).unwrap(), 1);
        assert_eq!(q.visit(0, 0).unwrap(), 2);
        q.visit(1, 1).unwrap();
        assert_eq!(q.visits(0, 0).unwrap(), 2);
        assert_eq!(q.total_visits(), 3);
        assert_eq!(q.coverage(), 0.5);
    }

    #[test]
    fn row_exposes_action_values() {
        let mut q = QTable::new(2, 3).unwrap();
        q.set(1, 0, 1.0).unwrap();
        q.set(1, 2, 3.0).unwrap();
        assert_eq!(q.row(1).unwrap(), &[1.0, 0.0, 3.0]);
    }
}
