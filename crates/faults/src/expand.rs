//! Burst expansion: which epochs of a [`RandomBurst`](crate::RandomBurst)
//! start a window on which core.
//!
//! Each epoch of a burst starts a window on a core with probability `p`,
//! independently: a Bernoulli process, whose gaps between onsets are
//! geometric. [`Onsets`] draws the gaps instead of the trials. From a
//! uniform `u` in `[0, 1)` the gap `⌊ln(1 − u) / ln(1 − p)⌋` has
//! `P(gap ≥ k) = (1 − p)^k`, the odds that `k` trials in a row miss, so a
//! burst costs one draw and one `ln` per window rather than one draw per
//! core-epoch. Every (burst, core) pair owns one `StdRng` stream, seeded
//! with [`mix_seed`]`(stream, core)`, and draws from it only as far as
//! it is read: a run draws the windows it reaches, when it reaches them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// SplitMix64 — the same per-stream seed derivation the simulator uses, so
/// burst expansion is decorrelated across (burst, core) pairs.
pub(crate) fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The window starts of one source, ascending, one draw per start: the
/// onset iterator behind the run-time cursor and every replay.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Onsets {
    rng: StdRng,
    /// The first epoch the next onset may fall on; `None` once exhausted.
    next: Option<u64>,
    /// The last epoch an onset may fall on.
    last: u64,
    /// `1 / ln(1 − p)`, negative; `None` when every epoch starts a window
    /// and nothing is drawn.
    scale: Option<f64>,
}

impl Onsets {
    /// The onsets within `epochs` of a burst with probability `p`
    /// (`0 < p`), drawn from the stream `mix_seed(stream, core)`. At
    /// `p ≥ 1` every epoch starts one and nothing is drawn.
    pub fn burst(stream: u64, core: usize, epochs: Range<u64>, p: f64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(mix_seed(stream, core as u64)),
            next: (epochs.start < epochs.end).then_some(epochs.start),
            last: epochs.end.wrapping_sub(1),
            scale: (p < 1.0).then(|| 1.0 / (-p).ln_1p()),
        }
    }

    /// The single onset `start` of an explicit event.
    pub fn once(start: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(0),
            next: Some(start),
            last: start,
            scale: None,
        }
    }
}

impl Iterator for Onsets {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let from = self.next?;
        let gap = self.scale.map_or(0, |scale| {
            let u: f64 = self.rng.gen();
            // The float-to-int cast saturates a huge gap at u64::MAX.
            ((1.0 - u).ln() * scale) as u64
        });
        let at = from.saturating_add(gap);
        if at > self.last {
            self.next = None;
            return None;
        }
        self.next = (at < self.last).then(|| at + 1);
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipScope, FaultEngine, FaultKind, FaultPlan, RandomBurst, SensorFault};

    /// Onset counts and gaps of 16 cores at each rate, over enough
    /// core-epochs to expect about 2,000 onsets.
    #[test]
    fn geometric_onsets_keep_the_bernoulli_rate() {
        for (i, p) in [1e-4, 2e-3, 0.02, 0.5].into_iter().enumerate() {
            let cores = 16;
            let epochs = (2_000.0 / (p * cores as f64)).ceil() as u64;
            let (mut count, mut gap_sum) = (0u64, 0u64);
            for core in 0..cores {
                let mut next = 100;
                for e in Onsets::burst(0xC0FFEE ^ i as u64, core, 100..100 + epochs, p) {
                    assert!(e >= next, "p = {p}: onsets out of order");
                    count += 1;
                    gap_sum += e - next;
                    next = e + 1;
                }
            }
            let n = (cores as u64 * epochs) as f64;
            let (mean, sd) = (n * p, (n * p * (1.0 - p)).sqrt());
            assert!(mean >= 1e3, "p = {p}: only {mean} onsets expected");
            assert!(
                (count as f64 - mean).abs() <= 4.0 * sd,
                "p = {p}: {count} onsets, expected {mean} ± {sd}"
            );
            // Misses before each hit: geometric, mean (1 - p) / p and
            // variance (1 - p) / p².
            let want = (1.0 - p) / p;
            let se = ((1.0 - p) / (p * p) / count as f64).sqrt();
            let got = gap_sum as f64 / count as f64;
            assert!(
                (got - want).abs() <= 4.0 * se,
                "p = {p}: mean gap {got}, expected {want} ± {se}"
            );
        }
    }

    #[test]
    fn certain_empty_and_single_onsets() {
        let hits: Vec<u64> = Onsets::burst(7, 3, 10..20, 1.0).collect();
        assert_eq!(hits, (10..20).collect::<Vec<_>>());
        let last = Onsets::burst(7, 3, u64::MAX - 3..u64::MAX, 1.0);
        assert_eq!(last.collect::<Vec<_>>(), [3, 2, 1].map(|k| u64::MAX - k));
        for p in [1e-4, 0.5, 1.0] {
            assert_eq!(Onsets::burst(7, 3, 5..5, p).next(), None, "p = {p}");
        }
        for start in [0, 17, u64::MAX] {
            assert_eq!(Onsets::once(start).collect::<Vec<_>>(), [start]);
        }
    }

    #[test]
    fn a_burst_ending_at_u64_max_saturates_its_window_ends() {
        let start = u64::MAX - 40;
        for rate_per_kepoch in [500.0, 1000.0] {
            let plan = FaultPlan::new().with_burst(RandomBurst {
                kind: FaultKind::Sensor(SensorFault::StuckZero),
                start,
                end: u64::MAX,
                rate_per_kepoch,
                duration: 100,
                chip: ChipScope::All,
            });
            let engine = FaultEngine::compile(&plan, 4, 3).unwrap();
            assert!(engine.num_events() > 0);
            for (s, onset) in engine.schedule.windows() {
                assert!((start..u64::MAX).contains(&onset));
                assert_eq!(s.end(onset), u64::MAX);
            }
            if rate_per_kepoch == 1000.0 {
                assert_eq!(engine.num_events(), 4 * 40);
            }
        }
    }
}
