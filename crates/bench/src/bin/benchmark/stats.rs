//! Order statistics, self time and the sim-result digest.
//!
//! Every function here runs after a timed window, never inside one.

/// A statistic asked of an empty sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySample;

/// Nearest-rank percentile `p` (0–100) of a sample, which it sorts in
/// place: the smallest value with at least `p` % of the sample at or below
/// it.
pub fn percentile(values: &mut [u64], p: f64) -> Result<u64, EmptySample> {
    if values.is_empty() {
        return Err(EmptySample);
    }
    values.sort_unstable();
    let rank = (p.clamp(0.0, 100.0) / 100.0 * values.len() as f64).ceil() as usize;
    Ok(values[rank.clamp(1, values.len()) - 1])
}

/// Median and quartiles of a handful of per-trial values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by linear interpolation between order statistics (the
    /// median of an even sample is the mean of the middle two).
    pub fn of(values: &[f64]) -> Result<Self, EmptySample> {
        if values.is_empty() {
            return Err(EmptySample);
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Ok(Self {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        })
    }
}

/// Self time of a span: its duration minus the time its children cover,
/// clamped at zero (children measured with their own clock reads can
/// overrun the parent by a few nanoseconds).
pub fn self_time(duration: u64, children: &[u64]) -> u64 {
    duration.saturating_sub(children.iter().sum())
}

/// 64-bit FNV-1a over the bit patterns of simulated results. Bit-exact:
/// two runs digest equal only if every folded value is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value's `to_bits`, byte by byte, little-endian.
    pub fn fold(&mut self, value: f64) {
        for byte in value.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Ok(50));
        assert_eq!(percentile(&mut v, 99.0), Ok(99));
        assert_eq!(percentile(&mut v, 100.0), Ok(100));
        assert_eq!(percentile(&mut v, 0.0), Ok(1));
        // Rank ceil(0.5 * 5) = 3 of [1, 2, 3, 4, 5].
        assert_eq!(percentile(&mut [5, 1, 4, 2, 3], 50.0), Ok(3));
        // Rank ceil(0.99 * 10) = 10: p99 of ten samples is the maximum.
        assert_eq!(
            percentile(&mut [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 99.0),
            Ok(10)
        );
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&mut [], 50.0), Err(EmptySample));
        assert_eq!(percentile(&mut [7], 1.0), Ok(7));
        assert_eq!(percentile(&mut [7], 99.0), Ok(7));
        assert_eq!(percentile(&mut [3, 3, 3, 9], 50.0), Ok(3));
        assert_eq!(percentile(&mut [3, 3, 3, 9], 75.0), Ok(3));
        assert_eq!(percentile(&mut [3, 3, 3, 9], 76.0), Ok(9));
    }

    #[test]
    fn median_and_quartiles_over_trials() {
        let q = Quartiles::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn quartile_edge_cases() {
        assert_eq!(Quartiles::of(&[]), Err(EmptySample));
        let q = Quartiles::of(&[2.5]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.5, 2.5, 2.5));
        let q = Quartiles::of(&[1.0, 1.0, 1.0, 8.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 1.0, 2.75));
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(100, &[30, 20]), 50);
        assert_eq!(self_time(100, &[]), 100);
        assert_eq!(self_time(100, &[60, 50]), 0);
        assert_eq!(self_time(0, &[1]), 0);
    }

    #[test]
    fn digest_is_fnv1a_over_bits() {
        // FNV-1a of the eight little-endian bytes of 0.0 (all zero).
        let mut d = Digest::default();
        d.fold(0.0);
        let mut want: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            want = want.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(d.value(), want);
        // Bit-exact: 0.0 and -0.0 compare equal but digest differently.
        let mut neg = Digest::default();
        neg.fold(-0.0);
        assert_ne!(neg, d);
        // Order matters.
        let (mut ab, mut ba) = (Digest::default(), Digest::default());
        ab.fold(1.0);
        ab.fold(2.0);
        ba.fold(2.0);
        ba.fold(1.0);
        assert_ne!(ab, ba);
        assert_eq!(Digest::default(), Digest::default());
    }
}
