//! Q-table storage layouts: the scalar `f64` reference and a banked
//! fixed-point layout for SIMD-friendly scans.
//!
//! The scalar layout ([`QTable`]) stores one `f64` per `(s, a)` pair and is
//! the bit-exact reference every golden test pins. The quantized layout
//! ([`QuantizedTable`]) banks each state row as `i16` lanes sharing one
//! per-row power-of-two scale, padded to a fixed lane multiple so the row
//! scan in the decide hot path is a wide integer max/compare (see
//! [`crate::kernel`]). A row occupies `actions.next_multiple_of(16)` lanes —
//! 32 bytes for the 8-action OD-RL tables, half a cache line instead of
//! the 64-byte `f64` row. Both layouts count visits in saturating `u32`,
//! so the `i16` bank is the only difference in what they hold.
//!
//! Because every lane in a row shares one positive scale, the integer
//! argmax over the banked row equals the argmax over the dequantized
//! values (ties included: equal lanes dequantize equal, and both scans
//! break ties toward the lowest index). Padding lanes hold [`i16::MIN`]
//! while real values clamp to `±i16::MAX`, so padding can never win the
//! scan. TD updates compute the new value in `f64`, then requantize through
//! an `i32` intermediate; when a value outgrows the row's range the scale
//! doubles (it never shrinks) and the row is requantized in place with
//! half-range headroom, so scale growth is rare after warmup.

use crate::error::RlError;
use crate::qtable::QTable;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};

/// Lane multiple rows are padded to: 16 × `i16` is one 256-bit vector.
pub const QUANT_LANES: usize = 16;

/// Largest quantized magnitude a lane may hold (`i16::MIN` marks padding).
const Q_MAX: i32 = i16::MAX as i32;

/// Padding lanes hold the one value real lanes never take, so an argmax
/// over the padded row cannot land on padding.
const PAD: i16 = i16::MIN;

/// On scale growth, the triggering value is given half-range headroom
/// (`|q| ≤ 2^14`) so the very next update does not regrow the row.
const HEADROOM: f64 = 16_384.0;

/// Default per-row scale (2⁻¹³ ≈ 1.2e-4 resolution, ±4.0 range).
const DEFAULT_SCALE: f32 = 1.0 / 8192.0;

/// Per-row learning-health statistics: the spread of a state's action
/// values (greedy-Q span) and of its visit counts, read in one row scan by
/// the diagnostics tap. Cheap enough for the decide hot path — the row is
/// already cache-resident from the greedy scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowStats {
    /// Smallest action value in the row.
    pub q_min: f64,
    /// Largest action value in the row.
    pub q_max: f64,
    /// Smallest visit count in the row.
    pub visit_min: u64,
    /// Largest visit count in the row.
    pub visit_max: u64,
}

impl RowStats {
    /// The greedy-Q span `q_max − q_min` (0 for a flat row).
    pub fn q_span(&self) -> f64 {
        self.q_max - self.q_min
    }

    /// The visit-count spread `visit_max − visit_min` — a dispersion
    /// signal: large spreads mean some actions are starved.
    pub fn visit_spread(&self) -> u64 {
        self.visit_max - self.visit_min
    }
}

/// Quantized-storage health, derived by scanning a [`QuantizedTable`]
/// (no extra fields on the table itself, so snapshots and goldens are
/// untouched): cumulative scale doublings and lane saturation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantHealth {
    /// Total scale doublings across all rows since construction (each
    /// row's scale only ever doubles from `DEFAULT_SCALE`, so this is
    /// recoverable exactly from the current scales).
    pub doublings: u64,
    /// Real (non-padding) lanes sitting at `±i16::MAX` — values the
    /// quantizer clamped.
    pub saturated: u64,
    /// Total real lanes scanned (`states × actions`).
    pub lanes: u64,
}

impl QuantHealth {
    /// Fraction of real lanes clamped at the `i16` rails (0 when empty).
    pub fn saturation_frac(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            self.saturated as f64 / self.lanes as f64
        }
    }
}

/// Which [`QTableStorage`] layout an agent's tables use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum QTableLayout {
    /// One `f64` per `(s, a)`: the bit-exact reference layout.
    #[default]
    Scalar,
    /// Banked `i16` lanes with a shared per-row scale (see module docs).
    Quantized,
}

/// A dense `|S| × |A|` action-value table banked as `i16` lanes with one
/// power-of-two scale per row (`value = lane × scale`).
///
/// ```
/// use odrl_rl::QuantizedTable;
/// let mut q = QuantizedTable::new(4, 2)?;
/// q.set(1, 0, 3.0)?;
/// q.set(1, 1, 5.0)?;
/// assert_eq!(q.best_action(1)?, 1);
/// assert!((q.max_value(1)? - 5.0).abs() < 1e-3);
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTable {
    states: usize,
    actions: usize,
    /// Lanes per row: `actions` rounded up to [`QUANT_LANES`].
    stride: usize,
    /// `states × stride` lanes; lanes at `a >= actions` hold [`PAD`].
    bank: Vec<i16>,
    /// Per-row power-of-two scale; grows, never shrinks.
    scales: Vec<f32>,
    /// `states × actions` visit counts (unpadded).
    visits: Vec<u32>,
}

impl QuantizedTable {
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
        let stride = actions.next_multiple_of(QUANT_LANES);
        let mut bank = vec![PAD; states * stride];
        for s in 0..states {
            bank[s * stride..s * stride + actions].fill(0);
        }
        Ok(Self {
            states,
            actions,
            stride,
            bank,
            scales: vec![DEFAULT_SCALE; states],
            visits: vec![0; states * actions],
        })
    }

    /// Creates a table optimistically initialised to `value`.
    ///
    /// # Errors
    ///
    /// As [`QuantizedTable::new`]; additionally if `value` is not finite.
    pub fn optimistic(states: usize, actions: usize, value: f64) -> Result<Self, RlError> {
        if !value.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "value",
                value,
            });
        }
        let mut t = Self::new(states, actions)?;
        for s in 0..states {
            for a in 0..actions {
                t.set(s, a, value)?;
            }
        }
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

    /// Lanes per banked row (`actions` padded to [`QUANT_LANES`]).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The scale of row `s` (`value = lane × scale`).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn scale(&self, s: usize) -> Result<f64, RlError> {
        self.check_state(s)?;
        Ok(f64::from(self.scales[s]))
    }

    fn check_state(&self, s: usize) -> Result<(), RlError> {
        if s >= self.states {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: s,
                size: self.states,
            });
        }
        Ok(())
    }

    fn idx(&self, s: usize, a: usize) -> Result<usize, RlError> {
        self.check_state(s)?;
        if a >= self.actions {
            return Err(RlError::IndexOutOfRange {
                what: "action",
                requested: a,
                size: self.actions,
            });
        }
        Ok(s * self.actions + a)
    }

    /// The dequantized value of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn get(&self, s: usize, a: usize) -> Result<f64, RlError> {
        self.idx(s, a)?;
        Ok(self.value_at(s, a))
    }

    /// The dequantized value of `(s, a)` without bounds checks (panics on
    /// out-of-range indices like any slice access).
    #[inline]
    pub(crate) fn value_at(&self, s: usize, a: usize) -> f64 {
        f64::from(self.bank[s * self.stride + a]) * f64::from(self.scales[s])
    }

    /// The padded lane row of state `s` (panics on out-of-range states
    /// like any slice access). Used by the kernel-routed double-Q scan.
    #[inline]
    pub(crate) fn lanes(&self, s: usize) -> &[i16] {
        &self.bank[s * self.stride..(s + 1) * self.stride]
    }

    /// Row scale as `f64` without the bounds-checked `Result` wrapper.
    #[inline]
    pub(crate) fn scale_at(&self, s: usize) -> f64 {
        f64::from(self.scales[s])
    }

    /// Grows row `s`'s scale (doubling) until `value` fits with half-range
    /// headroom, requantizing the existing lanes in place.
    fn grow_scale(&mut self, s: usize, value: f64) {
        let mut scale = f64::from(self.scales[s]);
        while value.abs() > HEADROOM * scale {
            scale *= 2.0;
        }
        let row = &mut self.bank[s * self.stride..s * self.stride + self.actions];
        let old = f64::from(self.scales[s]);
        for lane in row {
            // Old and new scales are both powers of two, so the ratio is
            // exact and requantization is one shift's worth of rounding.
            let v = f64::from(*lane) * old;
            *lane = quantize(v, scale);
        }
        self.scales[s] = scale as f32;
    }

    /// Sets the value of `(s, a)`, growing the row scale if needed.
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
        self.idx(s, a)?;
        if value.abs() > f64::from(Q_MAX) * f64::from(self.scales[s]) {
            self.grow_scale(s, value);
        }
        let scale = f64::from(self.scales[s]);
        self.bank[s * self.stride + a] = quantize(value, scale);
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

    /// Visit count of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn visits(&self, s: usize, a: usize) -> Result<u64, RlError> {
        Ok(u64::from(self.visits[self.idx(s, a)?]))
    }

    /// The greedy action in state `s` (lowest index wins ties).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn best_action(&self, s: usize) -> Result<usize, RlError> {
        self.best_action_and_max(s).map(|(a, _)| a)
    }

    /// The maximum dequantized value in state `s`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn max_value(&self, s: usize) -> Result<f64, RlError> {
        self.best_action_and_max(s).map(|(_, v)| v)
    }

    /// Greedy action and maximum value of state `s` in one integer scan
    /// over the banked row ([`crate::kernel::scan_row`]). The shared
    /// positive row scale makes the `i16` argmax equal the argmax over
    /// dequantized values, ties included.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    #[inline]
    pub fn best_action_and_max(&self, s: usize) -> Result<(usize, f64), RlError> {
        self.check_state(s)?;
        let (best, best_q) = crate::kernel::scan_row(self.lanes(s));
        Ok((best, f64::from(best_q) * f64::from(self.scales[s])))
    }

    /// The padded lane row and scale of state `s` — the raw inputs the
    /// block-scan kernel ([`crate::kernel::scan_rows`]) consumes. A batch
    /// caller collects one pair per agent and scans them in a single
    /// dispatched call instead of one [`Self::best_action_and_max`] each.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    #[inline]
    pub fn row_scale(&self, s: usize) -> Result<(&[i16], f32), RlError> {
        self.check_state(s)?;
        Ok((self.lanes(s), self.scales[s]))
    }

    /// Fused TD update: one bounds check covers the visit bump, the
    /// learning-rate lookup, the dequantized read and the requantized
    /// write that the unfused `visit`/`get`/`set` chain pays four times.
    /// Produces bit-identical table state to that chain. Returns the TD
    /// error `target − old` against the dequantized old value.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices, or
    /// [`RlError::InvalidParameter`] if the updated value is non-finite.
    #[inline]
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
        let lane = s * self.stride + a;
        let scale = f64::from(self.scales[s]);
        let old = f64::from(self.bank[lane]) * scale;
        let value = old + alpha * (target - old);
        if !value.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "value",
                value,
            });
        }
        if value.abs() > f64::from(Q_MAX) * scale {
            self.grow_scale(s, value);
            self.bank[lane] = quantize(value, f64::from(self.scales[s]));
        } else {
            self.bank[lane] = quantize(value, scale);
        }
        Ok(target - old)
    }

    /// Min/max action value and visit count of state `s` in one banked
    /// row scan (padding lanes skipped) — the diagnostics tap.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row_stats(&self, s: usize) -> Result<RowStats, RlError> {
        self.check_state(s)?;
        let scale = f64::from(self.scales[s]);
        let mut q_min = i16::MAX;
        let mut q_max = i16::MIN;
        for &lane in &self.bank[s * self.stride..s * self.stride + self.actions] {
            q_min = q_min.min(lane);
            q_max = q_max.max(lane);
        }
        let mut stats = RowStats {
            q_min: f64::from(q_min) * scale,
            q_max: f64::from(q_max) * scale,
            visit_min: u64::MAX,
            visit_max: 0,
        };
        for &n in &self.visits[s * self.actions..(s + 1) * self.actions] {
            stats.visit_min = stats.visit_min.min(u64::from(n));
            stats.visit_max = stats.visit_max.max(u64::from(n));
        }
        Ok(stats)
    }

    /// Scans the whole table for storage health: cumulative scale
    /// doublings (recovered exactly from the current power-of-two scales
    /// — scales only ever double from `DEFAULT_SCALE`) and lanes
    /// clamped at the `i16` rails. O(states × stride): callers gate it on
    /// a period, not per epoch.
    pub fn quant_health(&self) -> QuantHealth {
        let mut health = QuantHealth {
            lanes: (self.states * self.actions) as u64,
            ..QuantHealth::default()
        };
        for s in 0..self.states {
            // Exact halving walk: the ratio is a power of two by
            // construction, so no float log is needed.
            let mut ratio = f64::from(self.scales[s]) / f64::from(DEFAULT_SCALE);
            while ratio > 1.5 {
                ratio *= 0.5;
                health.doublings += 1;
            }
            for &lane in &self.bank[s * self.stride..s * self.stride + self.actions] {
                if i32::from(lane).abs() == Q_MAX {
                    health.saturated += 1;
                }
            }
        }
        health
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

    /// Raw snapshot parts: `(stride, bank, scales, visits)`.
    pub(crate) fn parts(&self) -> (usize, &[i16], &[f32], &[u32]) {
        (self.stride, &self.bank, &self.scales, &self.visits)
    }

    /// Rebuilds a table from snapshot parts, validating geometry.
    pub(crate) fn from_parts(
        states: usize,
        actions: usize,
        stride: usize,
        bank: Vec<i16>,
        scales: Vec<f32>,
        visits: Vec<u32>,
    ) -> Result<Self, RlError> {
        if states == 0 || actions == 0 {
            return Err(RlError::Snapshot {
                reason: "quantized table with empty dimensions",
            });
        }
        if stride != actions.next_multiple_of(QUANT_LANES)
            || bank.len() != states * stride
            || scales.len() != states
            || visits.len() != states * actions
        {
            return Err(RlError::Snapshot {
                reason: "quantized table geometry mismatch",
            });
        }
        if scales.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(RlError::Snapshot {
                reason: "quantized table scale not positive finite",
            });
        }
        // Only padding may hold the sentinel, or a row's argmax could land
        // past the last action.
        let misplaced_pad = bank.chunks_exact(stride).any(|row| {
            row.iter()
                .enumerate()
                .any(|(a, &q)| (a < actions) != (q != PAD))
        });
        if misplaced_pad {
            return Err(RlError::Snapshot {
                reason: "quantized table padding lanes corrupt",
            });
        }
        Ok(Self {
            states,
            actions,
            stride,
            bank,
            scales,
            visits,
        })
    }
}

/// Rounds `value / scale` to the nearest lane, clamped to `±i16::MAX`
/// through an `i32` intermediate (so accumulation never wraps).
#[inline]
fn quantize(value: f64, scale: f64) -> i16 {
    let q = (value / scale).round() as i32;
    q.clamp(-Q_MAX, Q_MAX) as i16
}

/// An agent's action-value storage: one of the [`QTableLayout`] layouts
/// behind a single API mirroring [`QTable`].
///
/// Kept as an enum (not a trait object) so the decide/learn hot paths
/// dispatch with one match per call and stay allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum QTableStorage {
    /// The `f64` reference layout.
    Scalar(QTable),
    /// The banked fixed-point layout.
    Quantized(QuantizedTable),
}

impl QTableStorage {
    /// Creates zero-initialised storage in the given layout.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptySpace`] if either dimension is zero.
    pub fn new(layout: QTableLayout, states: usize, actions: usize) -> Result<Self, RlError> {
        match layout {
            QTableLayout::Quantized => Ok(Self::Quantized(QuantizedTable::new(states, actions)?)),
            _ => Ok(Self::Scalar(QTable::new(states, actions)?)),
        }
    }

    /// Creates storage optimistically initialised to `value`.
    ///
    /// # Errors
    ///
    /// As [`QTableStorage::new`]; additionally if `value` is not finite.
    pub fn optimistic(
        layout: QTableLayout,
        states: usize,
        actions: usize,
        value: f64,
    ) -> Result<Self, RlError> {
        match layout {
            QTableLayout::Quantized => Ok(Self::Quantized(QuantizedTable::optimistic(
                states, actions, value,
            )?)),
            _ => Ok(Self::Scalar(QTable::optimistic(states, actions, value)?)),
        }
    }

    /// Which layout this storage uses.
    pub fn layout(&self) -> QTableLayout {
        match self {
            Self::Scalar(_) => QTableLayout::Scalar,
            Self::Quantized(_) => QTableLayout::Quantized,
        }
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        match self {
            Self::Scalar(t) => t.states(),
            Self::Quantized(t) => t.states(),
        }
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        match self {
            Self::Scalar(t) => t.actions(),
            Self::Quantized(t) => t.actions(),
        }
    }

    /// The value of `(s, a)` (dequantized for the banked layout).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn get(&self, s: usize, a: usize) -> Result<f64, RlError> {
        match self {
            Self::Scalar(t) => t.get(s, a),
            Self::Quantized(t) => t.get(s, a),
        }
    }

    /// The value of `(s, a)` without bounds checks beyond slice indexing.
    #[inline]
    pub(crate) fn value_at(&self, s: usize, a: usize) -> f64 {
        match self {
            Self::Scalar(t) => t.value_at(s, a),
            Self::Quantized(t) => t.value_at(s, a),
        }
    }

    /// Sets the value of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices, or
    /// [`RlError::InvalidParameter`] for a non-finite value.
    pub fn set(&mut self, s: usize, a: usize, value: f64) -> Result<(), RlError> {
        match self {
            Self::Scalar(t) => t.set(s, a, value),
            Self::Quantized(t) => t.set(s, a, value),
        }
    }

    /// Records a visit to `(s, a)` and returns the new count.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn visit(&mut self, s: usize, a: usize) -> Result<u64, RlError> {
        match self {
            Self::Scalar(t) => t.visit(s, a),
            Self::Quantized(t) => t.visit(s, a),
        }
    }

    /// Fused TD update toward `target`: visit bump, per-visit learning
    /// rate, read and write in one bounds-checked pass. Bit-identical to
    /// the unfused `visit` → `alpha.value(visits - 1)` → `get` → `set`
    /// chain on both layouts. Returns the TD error `target − old`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices, or
    /// [`RlError::InvalidParameter`] if the updated value is non-finite.
    #[inline]
    pub fn td_step(
        &mut self,
        s: usize,
        a: usize,
        alpha: &Schedule,
        target: f64,
    ) -> Result<f64, RlError> {
        match self {
            Self::Scalar(t) => t.td_step(s, a, alpha, target),
            Self::Quantized(t) => t.td_step(s, a, alpha, target),
        }
    }

    /// Min/max action value and visit count of state `s` in one row scan
    /// — the learning-health diagnostics tap.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row_stats(&self, s: usize) -> Result<RowStats, RlError> {
        match self {
            Self::Scalar(t) => t.row_stats(s),
            Self::Quantized(t) => t.row_stats(s),
        }
    }

    /// Quantized-storage health for the banked layout, `None` for the
    /// scalar layout (which has no scales or rails to degrade). Full-table
    /// scan: callers gate it on a period.
    #[must_use]
    pub fn quant_health(&self) -> Option<QuantHealth> {
        match self {
            Self::Scalar(_) => None,
            Self::Quantized(t) => Some(t.quant_health()),
        }
    }

    /// Visit count of `(s, a)`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices.
    pub fn visits(&self, s: usize, a: usize) -> Result<u64, RlError> {
        match self {
            Self::Scalar(t) => t.visits(s, a),
            Self::Quantized(t) => t.visits(s, a),
        }
    }

    /// The greedy action in state `s` (lowest index wins ties).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn best_action(&self, s: usize) -> Result<usize, RlError> {
        match self {
            Self::Scalar(t) => t.best_action(s),
            Self::Quantized(t) => t.best_action(s),
        }
    }

    /// The maximum action value in state `s`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn max_value(&self, s: usize) -> Result<f64, RlError> {
        match self {
            Self::Scalar(t) => t.max_value(s),
            Self::Quantized(t) => t.max_value(s),
        }
    }

    /// Greedy action and maximum value of state `s` in a single row scan.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    #[inline]
    pub fn best_action_and_max(&self, s: usize) -> Result<(usize, f64), RlError> {
        match self {
            Self::Scalar(t) => t.best_action_and_max(s),
            Self::Quantized(t) => t.best_action_and_max(s),
        }
    }

    /// [`QuantizedTable::row_scale`] when this storage is quantized, `None`
    /// for the scalar layout (which has no banked rows to block-scan) or an
    /// out-of-range state. Batch scan hook; see
    /// [`crate::kernel::scan_rows`].
    #[inline]
    #[must_use]
    pub fn quant_row(&self, s: usize) -> Option<(&[i16], f32)> {
        match self {
            Self::Scalar(_) => None,
            Self::Quantized(t) => t.row_scale(s).ok(),
        }
    }

    /// Total number of `(s, a)` visits recorded.
    pub fn total_visits(&self) -> u64 {
        match self {
            Self::Scalar(t) => t.total_visits(),
            Self::Quantized(t) => t.total_visits(),
        }
    }

    /// Fraction of `(s, a)` pairs visited at least once.
    pub fn coverage(&self) -> f64 {
        match self {
            Self::Scalar(t) => t.coverage(),
            Self::Quantized(t) => t.coverage(),
        }
    }

    /// Hints the prefetcher at everything a greedy row scan of state `s`
    /// will read — the row, plus the banked layout's dequantization scale,
    /// which lives in a separate allocation and therefore misses
    /// separately — so a decide loop can pull rows toward L1 ahead of
    /// their scans. No-op on non-x86_64 targets and for out-of-range
    /// states.
    #[inline]
    pub fn prefetch_row(&self, s: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            match self {
                Self::Scalar(t) => {
                    if let Ok(row) = t.row(s) {
                        // SAFETY: hint only; in-bounds, never dereferenced.
                        unsafe { _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().cast::<i8>()) }
                    }
                }
                Self::Quantized(t) => {
                    if s >= t.states {
                        return;
                    }
                    let row = t.bank[s * t.stride..].as_ptr().cast::<i8>();
                    let scale = t.scales[s..].as_ptr().cast::<i8>();
                    // SAFETY: hints only; both pointers derive from live
                    // in-bounds slices and are never dereferenced.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(row);
                        _mm_prefetch::<_MM_HINT_T0>(scale);
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = s;
        }
    }

    /// Hints the prefetcher at everything a [`td_step`](Self::td_step) of
    /// `(s, a)` will touch: the bank lane, the row scale and the visit
    /// counter — three separate allocations, three separate misses. Used
    /// by the learn pass to pipeline updates several agents ahead. No-op
    /// on non-x86_64 targets and for out-of-range indices.
    #[inline]
    pub fn prefetch_update(&self, s: usize, a: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            match self {
                Self::Scalar(t) => {
                    if let Ok(row) = t.row(s) {
                        // SAFETY: hint only; in-bounds, never dereferenced.
                        unsafe { _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().cast::<i8>()) }
                    }
                }
                Self::Quantized(t) => {
                    if s >= t.states || a >= t.actions {
                        return;
                    }
                    let lane = t.bank[s * t.stride + a..].as_ptr().cast::<i8>();
                    let scale = t.scales[s..].as_ptr().cast::<i8>();
                    let visit = t.visits[s * t.actions + a..].as_ptr().cast::<i8>();
                    // SAFETY: hints only; all pointers derive from live
                    // in-bounds slices and are never dereferenced.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(lane);
                        _mm_prefetch::<_MM_HINT_T0>(scale);
                        _mm_prefetch::<_MM_HINT_T0>(visit);
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (s, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_new_is_zero_and_padded() {
        let q = QuantizedTable::new(3, 5).unwrap();
        assert_eq!(q.stride(), 16);
        assert_eq!(q.get(2, 4).unwrap(), 0.0);
        assert_eq!(q.max_value(0).unwrap(), 0.0);
        assert_eq!(q.total_visits(), 0);
        // Padding never wins the argmax even when real lanes go negative.
        let mut q = QuantizedTable::new(1, 3).unwrap();
        for a in 0..3 {
            q.set(0, a, -3.9).unwrap();
        }
        assert!(q.best_action(0).unwrap() < 3);
    }

    #[test]
    fn quantized_rejects_empty_dimensions_and_nonfinite() {
        assert!(QuantizedTable::new(0, 2).is_err());
        assert!(QuantizedTable::new(2, 0).is_err());
        let mut q = QuantizedTable::new(2, 2).unwrap();
        assert!(q.set(0, 0, f64::NAN).is_err());
        assert!(QuantizedTable::optimistic(2, 2, f64::INFINITY).is_err());
    }

    #[test]
    fn quantized_set_get_roundtrip_within_resolution() {
        let mut q = QuantizedTable::new(2, 2).unwrap();
        q.set(0, 1, 2.5).unwrap();
        assert!((q.get(0, 1).unwrap() - 2.5).abs() < 1e-3);
        assert!(q.get(2, 0).is_err());
        assert!(q.get(0, 2).is_err());
    }

    #[test]
    fn quantized_scale_grows_to_fit_large_values() {
        let mut q = QuantizedTable::new(1, 2).unwrap();
        let s0 = q.scale(0).unwrap();
        q.set(0, 0, 1.0).unwrap();
        q.set(0, 1, 1000.0).unwrap();
        let s1 = q.scale(0).unwrap();
        assert!(s1 > s0, "scale must grow: {s0} -> {s1}");
        // The resident lane was requantized with the grown scale.
        assert!((q.get(0, 0).unwrap() - 1.0).abs() < 2.0 * s1);
        assert!((q.get(0, 1).unwrap() - 1000.0).abs() < s1);
        // Growth is monotone: small values never shrink the scale back.
        q.set(0, 1, 0.5).unwrap();
        assert_eq!(q.scale(0).unwrap(), s1);
    }

    #[test]
    fn quantized_argmax_matches_dequantized_argmax() {
        let mut q = QuantizedTable::new(1, 8).unwrap();
        let vals = [0.3, -1.2, 0.7, 0.699, 3.9, -3.9, 0.0, 3.9];
        for (a, &v) in vals.iter().enumerate() {
            q.set(0, a, v).unwrap();
        }
        // Ties (actions 4 and 7 both quantize equal) break low.
        assert_eq!(q.best_action(0).unwrap(), 4);
        let (best, max) = q.best_action_and_max(0).unwrap();
        assert_eq!(best, 4);
        assert!((max - 3.9).abs() < 1e-3);
    }

    #[test]
    fn quantized_visits_and_coverage() {
        let mut q = QuantizedTable::new(2, 2).unwrap();
        assert_eq!(q.visit(0, 0).unwrap(), 1);
        assert_eq!(q.visit(0, 0).unwrap(), 2);
        q.visit(1, 1).unwrap();
        assert_eq!(q.visits(0, 0).unwrap(), 2);
        assert_eq!(q.total_visits(), 3);
        assert_eq!(q.coverage(), 0.5);
    }

    #[test]
    fn storage_layouts_mirror_the_qtable_api() {
        for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
            let mut st = QTableStorage::optimistic(layout, 2, 3, 1.0).unwrap();
            assert_eq!(st.layout(), layout);
            assert_eq!(st.states(), 2);
            assert_eq!(st.actions(), 3);
            assert!((st.get(1, 2).unwrap() - 1.0).abs() < 1e-3);
            st.set(1, 0, 2.0).unwrap();
            assert_eq!(st.best_action(1).unwrap(), 0);
            let (best, max) = st.best_action_and_max(1).unwrap();
            assert_eq!(best, 0);
            assert!((max - 2.0).abs() < 1e-3);
            assert_eq!(st.visit(1, 0).unwrap(), 1);
            assert_eq!(st.visits(1, 0).unwrap(), 1);
            assert!((st.coverage() - 1.0 / 6.0).abs() < 1e-12);
            st.prefetch_row(0);
            st.prefetch_row(99); // out of range: a silent no-op
            assert!(st.get(5, 0).is_err());
            assert!(st.set(0, 5, 1.0).is_err());
        }
    }

    #[test]
    fn row_stats_and_quant_health() {
        // Scalar layout: exact spans, no quant health.
        let mut st = QTableStorage::new(QTableLayout::Scalar, 2, 3).unwrap();
        st.set(0, 0, -1.0).unwrap();
        st.set(0, 2, 3.0).unwrap();
        st.visit(0, 2).unwrap();
        st.visit(0, 2).unwrap();
        let stats = st.row_stats(0).unwrap();
        assert_eq!(stats.q_min, -1.0);
        assert_eq!(stats.q_max, 3.0);
        assert_eq!(stats.q_span(), 4.0);
        assert_eq!((stats.visit_min, stats.visit_max), (0, 2));
        assert_eq!(stats.visit_spread(), 2);
        assert!(st.quant_health().is_none());
        assert!(st.row_stats(9).is_err());

        // Quantized layout: padding excluded, health recovers doublings.
        let mut q = QuantizedTable::new(2, 3).unwrap();
        let fresh = q.quant_health();
        assert_eq!(fresh.doublings, 0);
        assert_eq!(fresh.saturated, 0);
        assert_eq!(fresh.lanes, 6);
        assert_eq!(fresh.saturation_frac(), 0.0);
        q.set(0, 1, -2.0).unwrap();
        let stats = q.row_stats(0).unwrap();
        assert!((stats.q_min - -2.0).abs() < 1e-3);
        assert_eq!(stats.q_max, 0.0); // padding (i16::MIN) must not leak in
                                      // Force doublings on row 1: growth stops once the value fits with
                                      // half-range headroom (|q| ≤ 2^14), so 20.0 needs scale × 16.
        q.set(1, 0, 20.0).unwrap();
        let health = q.quant_health();
        assert_eq!(health.doublings, 4);
        let st = QTableStorage::Quantized(q);
        assert_eq!(st.quant_health().unwrap().doublings, 4);
    }

    #[test]
    fn td_step_returns_td_error() {
        let alpha = Schedule::constant(0.5).unwrap();
        for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
            let mut st = QTableStorage::new(layout, 1, 2).unwrap();
            let td = st.td_step(0, 0, &alpha, 2.0).unwrap();
            assert!((td - 2.0).abs() < 1e-3, "first td vs zero init");
            let td = st.td_step(0, 0, &alpha, 2.0).unwrap();
            assert!((td - 1.0).abs() < 1e-2, "second td vs value 1.0");
        }
    }

    #[test]
    fn from_parts_validates_geometry() {
        let q = QuantizedTable::new(2, 3).unwrap();
        let (stride, bank, scales, visits) = q.parts();
        assert!(QuantizedTable::from_parts(
            2,
            3,
            stride,
            bank.to_vec(),
            scales.to_vec(),
            visits.to_vec()
        )
        .is_ok());
        assert!(QuantizedTable::from_parts(
            2,
            3,
            stride + 1,
            bank.to_vec(),
            scales.to_vec(),
            visits.to_vec()
        )
        .is_err());
        assert!(QuantizedTable::from_parts(
            2,
            3,
            stride,
            bank[1..].to_vec(),
            scales.to_vec(),
            visits.to_vec()
        )
        .is_err());
        assert!(QuantizedTable::from_parts(
            2,
            3,
            stride,
            bank.to_vec(),
            vec![0.0; 2],
            visits.to_vec()
        )
        .is_err());
    }
}
