//! Burst expansion: which epochs of a [`RandomBurst`](crate::RandomBurst)
//! start a window on which core.
//!
//! Each epoch of a burst starts a window on a core with probability `p`,
//! independently: a Bernoulli process, whose gaps between onsets are
//! geometric. [`onsets`] draws the gaps instead of the trials. From a uniform
//! `u` in `[0, 1)` the gap `⌊ln(1 − u) / ln(1 − p)⌋` has
//! `P(gap ≥ k) = (1 − p)^k`, the odds that `k` trials in a row miss, so a
//! burst costs one draw and one `ln` per window rather than one draw per
//! core-epoch. Every (burst, core) pair owns one `StdRng` stream, seeded
//! with [`mix_seed`]`(stream, core)`.

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

/// Calls `emit(epoch)`, ascending, for every epoch of `epochs` at which
/// `core` starts a window of a burst that starts one per epoch with
/// probability `p` (`0 < p`), drawing from the stream
/// `mix_seed(stream, core)`. At `p ≥ 1` every epoch starts one and
/// nothing is drawn.
pub(crate) fn onsets(
    stream: u64,
    core: usize,
    epochs: Range<u64>,
    p: f64,
    mut emit: impl FnMut(u64),
) {
    if p >= 1.0 {
        epochs.for_each(emit);
        return;
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(stream, core as u64));
    // Negative for 0 < p < 1, so the gap below is never negative.
    let scale = 1.0 / (-p).ln_1p();
    let mut epoch = epochs.start;
    while epoch < epochs.end {
        let u: f64 = rng.gen();
        // The float-to-int cast saturates a huge gap at u64::MAX.
        let gap = ((1.0 - u).ln() * scale) as u64;
        epoch = epoch.saturating_add(gap);
        if epoch >= epochs.end {
            break;
        }
        emit(epoch);
        epoch += 1;
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
                onsets(0xC0FFEE ^ i as u64, core, 100..100 + epochs, p, |e| {
                    assert!(e >= next, "p = {p}: onsets out of order");
                    count += 1;
                    gap_sum += e - next;
                    next = e + 1;
                });
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
    fn certain_and_empty_bursts() {
        let mut hits = Vec::new();
        onsets(7, 3, 10..20, 1.0, |e| hits.push(e));
        assert_eq!(hits, (10..20).collect::<Vec<_>>());
        for p in [1e-4, 0.5, 1.0] {
            onsets(7, 3, 5..5, p, |e| {
                panic!("p = {p}: onset {e} in an empty range")
            });
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
            for ev in &engine.schedule.events {
                assert!((start..u64::MAX).contains(&ev.start));
                assert_eq!(ev.end, u64::MAX);
            }
            if rate_per_kepoch == 1000.0 {
                assert_eq!(engine.num_events(), 4 * 40);
            }
        }
    }
}
