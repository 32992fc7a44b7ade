//! Exact-merge streaming summaries for learning-health diagnostics.
//!
//! [`StreamSummary`] is a fixed-size (no heap) accumulator of a scalar
//! stream: count, mean, variance, min/max and a 32-bucket log2-magnitude
//! histogram. Its defining property is that **merging is exact**: samples
//! are quantized once at a fixed scale and accumulated as integers, so
//! `merge` is integer addition and min/max — associative and commutative
//! bit for bit. Summaries recorded per RL shard therefore merge to the
//! same value at every shard count, which is what lets fleet-level
//! telemetry (and anomaly-dump bytes) stay invariant across 1/2/4/8-shard
//! runs. Welford-style `f64` merging cannot give that guarantee: floating
//! additions reorder with the shard layout.
//!
//! The quantization grid is 2⁻²⁰ (~1e-6) over a clamped range of ±2²⁰
//! (~1e6) — far finer and wider than TD errors, Q-spans or visit-count
//! dispersions ever get in this workspace. Derived statistics (mean,
//! variance) are computed from the exact integer sums at render time.

/// Number of log2-magnitude buckets a summary tracks.
pub const SUMMARY_BUCKETS: usize = 32;

/// Fixed quantization scale: samples land on a 2⁻²⁰ grid.
const Q_SCALE: f64 = (1u64 << 20) as f64;

/// Samples are clamped to ±2²⁰ before quantization, so a quantized value
/// fits ±2⁴⁰ and `sum_sq` stays far below `i128::MAX` for any feasible
/// count.
const Q_CLAMP: i64 = 1 << 40;

/// Smallest magnitude exponent a bucket resolves: bucket 0 holds
/// `|x| < 2^-15`, bucket `i` (1..=31) holds `2^(i-16) <= |x| < 2^(i-15)`
/// with the top bucket absorbing everything `>= 2^15`.
const BUCKET_MIN_EXP: i32 = -15;

/// A zero-alloc streaming summary with exactly-associative merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    count: u64,
    sum_q: i128,
    sum_sq_q: i128,
    min: f64,
    max: f64,
    buckets: [u64; SUMMARY_BUCKETS],
}

impl Default for StreamSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantizes a finite sample onto the fixed 2⁻²⁰ grid, clamped to ±2⁴⁰
/// quanta. Round-half-away-from-zero via a half-ulp shift and truncating
/// cast — one `cvttsd2si` on the hot path, where `f64::round` is a libm
/// call on baseline x86-64. Deterministic on every platform.
#[inline]
fn quantize(x: f64) -> i64 {
    let scaled = x * Q_SCALE;
    if scaled >= Q_CLAMP as f64 {
        Q_CLAMP
    } else if scaled <= -(Q_CLAMP as f64) {
        -Q_CLAMP
    } else {
        let half = if scaled >= 0.0 { 0.5 } else { -0.5 };
        (scaled + half) as i64
    }
}

/// The log2-magnitude bucket of a finite sample, from the exponent bits —
/// no `log2` call, so the result is exact on every platform.
#[inline]
fn bucket_of(x: f64) -> usize {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormals (and ±0) are far below the 2^-15 floor.
        return 0;
    }
    let exp = biased - 1023; // floor(log2 |x|)
    let idx = exp - BUCKET_MIN_EXP; // 0 at the floor
    if idx < 0 {
        0
    } else {
        (idx as usize + 1).min(SUMMARY_BUCKETS - 1)
    }
}

impl StreamSummary {
    /// An empty summary.
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum_q: 0,
            sum_sq_q: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; SUMMARY_BUCKETS],
        }
    }

    /// Records one sample. Non-finite samples are ignored (mirroring
    /// `odrl_metrics::Histogram::record`). Allocation-free.
    #[inline]
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        let q = i128::from(quantize(x));
        self.sum_q += q;
        self.sum_sq_q += q * q;
        self.buckets[bucket_of(x)] += 1;
    }

    /// Tracks only the extremes of a sample — two compares, no count,
    /// moment or bucket update — for signals whose peak must stay
    /// epoch-accurate while the full moments are sampled on the
    /// diagnostics period (TD error in the RL hot loop). Extreme-only
    /// updates merge exactly (min/max are associative and commutative)
    /// and render through [`StreamSummary::min`]/[`StreamSummary::max`]/
    /// [`StreamSummary::max_abs`] immediately, while the count, moments
    /// and buckets stay untouched. Non-finite samples are ignored.
    #[inline]
    pub fn record_extreme(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Folds `other` in. Integer adds plus min/max — exactly associative
    /// and commutative, so any merge tree over the same samples yields the
    /// same bits.
    pub fn merge(&mut self, other: &StreamSummary) {
        if other.count == 0 {
            // Extreme-only (or empty) summaries carry no moments or
            // buckets; two compares replace the bucket loop. This is the
            // common case for the per-epoch shard folds on off-period
            // epochs, where only `record_extreme` ran.
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
            return;
        }
        self.count += other.count;
        self.sum_q += other.sum_q;
        self.sum_sq_q += other.sum_sq_q;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }

    /// Resets to empty without touching any allocation (there is none).
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any sample reached the extremes, via [`StreamSummary::
    /// record`] or [`StreamSummary::record_extreme`].
    fn has_extremes(&self) -> bool {
        self.min <= self.max
    }

    /// Smallest sample (full records and extreme-only records alike), or
    /// `0.0` when none was ever seen.
    pub fn min(&self) -> f64 {
        if self.has_extremes() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest sample (full records and extreme-only records alike), or
    /// `0.0` when none was ever seen.
    pub fn max(&self) -> f64 {
        if self.has_extremes() {
            self.max
        } else {
            0.0
        }
    }

    /// Largest absolute sample (full records and extreme-only records
    /// alike), or `0.0` when none was ever seen. Watermark rules read
    /// this, so an extreme recorded on an off-period epoch is visible the
    /// epoch it happens.
    pub fn max_abs(&self) -> f64 {
        if self.has_extremes() {
            self.min.abs().max(self.max.abs())
        } else {
            0.0
        }
    }

    /// Mean of the quantized samples (exact integer sum over count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_q as f64 / (self.count as f64 * Q_SCALE)
        }
    }

    /// Population variance of the quantized samples.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean_q = self.sum_q as f64 / n;
        let var_q = (self.sum_sq_q as f64 / n - mean_q * mean_q).max(0.0);
        var_q / (Q_SCALE * Q_SCALE)
    }

    /// Population standard deviation of the quantized samples.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The log2-magnitude bucket counts: bucket 0 holds `|x| < 2^-15`,
    /// bucket `i >= 1` holds `2^(i-16) <= |x| < 2^(i-15)`, the last bucket
    /// absorbing everything above.
    pub fn buckets(&self) -> &[u64; SUMMARY_BUCKETS] {
        &self.buckets
    }

    /// Lower magnitude edge of bucket `i` (0.0 for bucket 0).
    pub fn bucket_lower_bound(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (2.0f64).powi(i as i32 - 1 + BUCKET_MIN_EXP)
        }
    }

    /// Approximate magnitude quantile from the log2 buckets: the lower
    /// edge of the bucket where the cumulative count crosses `q`. Coarse
    /// (factor-of-two resolution) but heap-free and merge-exact.
    pub fn magnitude_quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_lower_bound(i);
            }
        }
        Self::bucket_lower_bound(SUMMARY_BUCKETS - 1)
    }

    /// The raw exact state `(count, sum_q, sum_sq_q, min, max, buckets)` —
    /// the text-exposition codec's payload.
    pub fn raw_parts(&self) -> (u64, i128, i128, f64, f64, &[u64; SUMMARY_BUCKETS]) {
        (
            self.count,
            self.sum_q,
            self.sum_sq_q,
            self.min,
            self.max,
            &self.buckets,
        )
    }

    /// Rebuilds a summary from [`StreamSummary::raw_parts`] output.
    pub fn from_raw_parts(
        count: u64,
        sum_q: i128,
        sum_sq_q: i128,
        min: f64,
        max: f64,
        buckets: [u64; SUMMARY_BUCKETS],
    ) -> Self {
        Self {
            count,
            sum_q,
            sum_sq_q,
            min,
            max,
            buckets,
        }
    }
}

/// Per-shard learning-health accumulator for one epoch of the RL pass:
/// TD-error, greedy-Q-span and visit-dispersion summaries plus decision /
/// exploration tallies and quantized-storage health. Fixed-size and
/// `Copy`, so shard-local accumulation and the end-of-epoch merge never
/// touch the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LearnDiag {
    /// TD error (`target − old Q`) of every applied update.
    pub td_error: StreamSummary,
    /// Q-row span (`max − min` over the decided state's row) per decision.
    pub q_span: StreamSummary,
    /// Visit-count dispersion (`max − min` visits over the decided state's
    /// row) per decision.
    pub visit_span: StreamSummary,
    /// Decisions taken (live cores only).
    pub decisions: u64,
    /// Exploration (non-greedy) decisions taken.
    pub explorations: u64,
    /// Σ over quantized rows of log2(scale / default scale) — how many
    /// requantize doublings the storage has absorbed.
    pub quant_doublings: u64,
    /// Quantized lanes currently pinned at ±`i16` full scale.
    pub quant_saturated: u64,
    /// Total real (non-pad) quantized lanes scanned.
    pub quant_lanes: u64,
}

impl LearnDiag {
    /// An empty accumulator.
    pub const fn new() -> Self {
        Self {
            td_error: StreamSummary::new(),
            q_span: StreamSummary::new(),
            visit_span: StreamSummary::new(),
            decisions: 0,
            explorations: 0,
            quant_doublings: 0,
            quant_saturated: 0,
            quant_lanes: 0,
        }
    }

    /// Folds `other` in (exact — see [`StreamSummary::merge`]).
    pub fn merge(&mut self, other: &LearnDiag) {
        self.td_error.merge(&other.td_error);
        self.q_span.merge(&other.q_span);
        self.visit_span.merge(&other.visit_span);
        self.decisions += other.decisions;
        self.explorations += other.explorations;
        self.quant_doublings += other.quant_doublings;
        self.quant_saturated += other.quant_saturated;
        self.quant_lanes += other.quant_lanes;
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Explorations over decisions (0.0 before any decision).
    pub fn exploration_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.explorations as f64 / self.decisions as f64
        }
    }

    /// Fraction of quantized lanes at ±full scale (0.0 without quantized
    /// storage).
    pub fn saturation_frac(&self) -> f64 {
        if self.quant_lanes == 0 {
            0.0
        } else {
            self.quant_saturated as f64 / self.quant_lanes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_moments_and_extrema() {
        let mut s = StreamSummary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.mean() - 2.5).abs() < 1e-5);
        assert!((s.variance() - 1.25).abs() < 1e-4);
        assert_eq!(s.max_abs(), 4.0);
        // Non-finite samples are dropped.
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 4);
        // Empty summaries render as zeros.
        let e = StreamSummary::new();
        assert_eq!(
            (e.min(), e.max(), e.mean(), e.std_dev()),
            (0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn merge_is_exact_at_any_split() {
        // The shard-invariance property: any partition of the sample
        // stream merges to bit-identical state.
        let samples: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64 % 10007) as f64 - 5000.0) / 311.0)
            .collect();
        let mut serial = StreamSummary::new();
        for &x in &samples {
            serial.record(x);
        }
        for parts in [2usize, 3, 4, 8] {
            let mut shards = vec![StreamSummary::new(); parts];
            for (i, &x) in samples.iter().enumerate() {
                shards[i % parts].record(x);
            }
            // Merge in reverse order too: commutativity.
            let mut merged = StreamSummary::new();
            for s in shards.iter().rev() {
                merged.merge(s);
            }
            assert_eq!(merged, serial, "split {parts} diverged");
        }
    }

    #[test]
    fn buckets_follow_log2_magnitude() {
        let mut s = StreamSummary::new();
        s.record(0.0); // bucket 0
        s.record(1e-9); // far below the floor: bucket 0
        s.record(1.0); // exp 0 -> bucket 16
        s.record(-1.5); // exp 0 -> bucket 16
        s.record(3.0); // exp 1 -> bucket 17
        s.record(1e12); // clamps into the top bucket
        let b = s.buckets();
        assert_eq!(b[0], 2);
        assert_eq!(b[16], 2);
        assert_eq!(b[17], 1);
        assert_eq!(b[SUMMARY_BUCKETS - 1], 1);
        assert_eq!(b.iter().sum::<u64>(), s.count());
        assert_eq!(StreamSummary::bucket_lower_bound(0), 0.0);
        assert_eq!(StreamSummary::bucket_lower_bound(16), 1.0);
        // Median magnitude of {0, ~0, 1, 1.5, 3, 1e12} sits in bucket 16.
        assert_eq!(s.magnitude_quantile(0.5), 1.0);
    }

    #[test]
    fn record_extreme_tracks_peaks_without_moments() {
        let mut s = StreamSummary::new();
        s.record_extreme(5.0);
        s.record_extreme(-7.0);
        s.record_extreme(f64::NAN);
        // Extremes render immediately — watermark rules must see a peak
        // the epoch it happens — but leave count/moments/buckets alone.
        assert_eq!(s.count(), 0);
        assert_eq!((s.min(), s.max(), s.max_abs()), (-7.0, 5.0, 7.0));
        assert_eq!((s.mean(), s.std_dev()), (0.0, 0.0));
        // They survive a merge into a counted summary, and the
        // empty-side merge matches the full merge path bit for bit.
        let mut dst = StreamSummary::new();
        dst.record(1.0);
        dst.merge(&s);
        assert_eq!(dst.count(), 1);
        assert_eq!(dst.min(), -7.0);
        assert_eq!(dst.max(), 5.0);
        assert_eq!(dst.max_abs(), 7.0);
        assert_eq!(dst.mean(), 1.0);
        // A later full record folds in normally.
        dst.record(2.0);
        assert_eq!(dst.count(), 2);
        assert_eq!(dst.max(), 5.0);
    }

    #[test]
    fn quantization_clamps_extremes() {
        let mut s = StreamSummary::new();
        s.record(1e300);
        s.record(-1e300);
        assert_eq!(s.count(), 2);
        // Clamped symmetric quanta cancel exactly.
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 1e300);
        assert_eq!(s.min(), -1e300);
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut s = StreamSummary::new();
        for x in [0.25, -3.5, 11.0] {
            s.record(x);
        }
        let (c, sq, ssq, mn, mx, b) = s.raw_parts();
        let back = StreamSummary::from_raw_parts(c, sq, ssq, mn, mx, *b);
        assert_eq!(back, s);
    }

    #[test]
    fn learn_diag_merges_and_derives_rates() {
        let mut a = LearnDiag::new();
        a.decisions = 10;
        a.explorations = 1;
        a.td_error.record(0.5);
        let mut b = LearnDiag::new();
        b.decisions = 30;
        b.explorations = 3;
        b.quant_lanes = 100;
        b.quant_saturated = 5;
        a.merge(&b);
        assert_eq!(a.decisions, 40);
        assert_eq!(a.exploration_rate(), 0.1);
        assert_eq!(a.saturation_frac(), 0.05);
        assert_eq!(a.td_error.count(), 1);
        a.reset();
        assert_eq!(a, LearnDiag::new());
    }
}
