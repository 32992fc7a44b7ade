//! Power-sensor models: noise and quantisation on measured power.

use crate::error::SystemError;
use odrl_power::Watts;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A model of the on-die power sensors controllers read.
///
/// Real power telemetry is noisy and quantised; a robust controller must
/// tolerate both. `noise_rel` is the relative standard deviation of
/// multiplicative Gaussian noise (0 = ideal sensor), and `quantum` is the
/// reporting granularity in watts (0 = continuous).
///
/// ```
/// use odrl_manycore::SensorModel;
/// let ideal = SensorModel::ideal();
/// assert_eq!(ideal.noise_rel, 0.0);
/// let real = SensorModel::new(0.02, 0.125)?;
/// assert!(real.quantum > 0.0);
/// # Ok::<(), odrl_manycore::SystemError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorModel {
    /// Relative standard deviation of multiplicative Gaussian noise.
    pub noise_rel: f64,
    /// Reporting quantum in watts (0 disables quantisation).
    pub quantum: f64,
    /// Probability that a read fails outright and holds the last reading
    /// (fault injection for controller-robustness testing; 0 disables).
    /// For a persistently dead sensor rail that reads zero, use
    /// `SensorFault::StuckZero` from `odrl-faults` instead.
    #[serde(default)]
    pub dropout: f64,
}

impl SensorModel {
    /// Creates a sensor model.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if `noise_rel` is not in
    /// `[0, 0.5]` or `quantum` is negative/non-finite.
    pub fn new(noise_rel: f64, quantum: f64) -> Result<Self, SystemError> {
        Self::with_dropout(noise_rel, quantum, 0.0)
    }

    /// Creates a sensor model with a read-failure (dropout) probability: a
    /// dropped read holds the previous reading, as a hung power-telemetry
    /// agent does in practice — the stale register value is what the
    /// controller sees. (An earlier revision returned zero watts, which
    /// controllers interpreted as free headroom and ramped up; that mode
    /// is now the explicit `SensorFault::StuckZero` in `odrl-faults`.)
    ///
    /// # Errors
    ///
    /// As [`SensorModel::new`]; additionally if `dropout` is outside
    /// `[0, 0.5]`.
    pub fn with_dropout(noise_rel: f64, quantum: f64, dropout: f64) -> Result<Self, SystemError> {
        if !(noise_rel.is_finite() && (0.0..=0.5).contains(&noise_rel)) {
            return Err(SystemError::InvalidConfig {
                field: "noise_rel",
                reason: format!("must be in [0, 0.5], got {noise_rel}"),
            });
        }
        if !(quantum.is_finite() && quantum >= 0.0) {
            return Err(SystemError::InvalidConfig {
                field: "quantum",
                reason: format!("must be finite and non-negative, got {quantum}"),
            });
        }
        if !(dropout.is_finite() && (0.0..=0.5).contains(&dropout)) {
            return Err(SystemError::InvalidConfig {
                field: "dropout",
                reason: format!("must be in [0, 0.5], got {dropout}"),
            });
        }
        Ok(Self {
            noise_rel,
            quantum,
            dropout,
        })
    }

    /// A perfect sensor: no noise, no quantisation.
    pub fn ideal() -> Self {
        Self {
            noise_rel: 0.0,
            quantum: 0.0,
            dropout: 0.0,
        }
    }

    /// Applies the sensor model to a true power value, with no reading
    /// history: a dropped read returns zero watts. Prefer
    /// [`SensorModel::measure_with_last`] wherever the previous reading is
    /// available (the simulator's epoch loop always has it).
    pub fn measure<R: Rng + ?Sized>(&self, truth: Watts, rng: &mut R) -> Watts {
        self.measure_with_last(truth, Watts::ZERO, rng)
    }

    /// Applies the sensor model to a true power value. `last` is the
    /// previous epoch's reading on the same sensor; a dropped read holds
    /// it (stuck-at-last-value — the register simply is not updated).
    ///
    /// Uses Box–Muller on two uniform draws so only `rand::Rng` is needed.
    /// With `dropout == 0` the history argument is never read, so
    /// fault-free runs are byte-for-byte unaffected by it. Measurements
    /// are clamped at zero (a power sensor never reads negative).
    ///
    /// This one-shot form discards the second Gaussian of the Box–Muller
    /// pair. Streams that read the same sensor every epoch should carry a
    /// spare slot and call [`SensorModel::measure_with_spare`], which
    /// consumes the pair across two reads — half the uniform draws and
    /// half the `ln`/`sqrt`/trig work.
    pub fn measure_with_last<R: Rng + ?Sized>(
        &self,
        truth: Watts,
        last: Watts,
        rng: &mut R,
    ) -> Watts {
        let mut spare = f64::NAN;
        self.measure_with_spare(truth, last, rng, &mut spare)
    }

    /// [`SensorModel::measure_with_last`] with a caller-owned spare slot:
    /// Box–Muller yields two independent Gaussians per `(ln, sqrt,
    /// sin_cos)` evaluation, so reads alternate between generating a fresh
    /// pair (storing the second half in `*spare`) and consuming the stored
    /// half with no draws at all. `NaN` marks an empty slot; initialise
    /// with `f64::NAN` and keep the slot private to one sensor stream —
    /// per-core slots keep sharded runs order-independent.
    ///
    /// A dropped read holds `last` and leaves both the RNG's noise draws
    /// and the spare slot untouched, exactly as the one-shot form does.
    pub fn measure_with_spare<R: Rng + ?Sized>(
        &self,
        truth: Watts,
        last: Watts,
        rng: &mut R,
        spare: &mut f64,
    ) -> Watts {
        if self.dropout > 0.0 && rng.gen::<f64>() < self.dropout {
            return last;
        }
        let mut value = truth.value();
        if self.noise_rel > 0.0 {
            value *= 1.0 + self.noise_rel * next_gauss(rng, spare);
        }
        if self.quantum > 0.0 {
            value = (value / self.quantum).round() * self.quantum;
        }
        Watts::new(value.max(0.0))
    }

    /// Batch [`SensorModel::measure_with_spare`] over per-core slices —
    /// the fault-free fast path of the epoch kernel. On a pair-generating
    /// epoch (every spare slot empty) the uniform draws for all cores are
    /// block-filled into the caller's `u1`/`u2` scratch first (same two
    /// draws per core, in core order), then the Box–Muller / scale /
    /// quantise / clamp arithmetic runs as tight slice passes, banking the
    /// second Gaussian of each pair in `spares`. On a pair-consuming epoch
    /// (every slot full) the pass is pure slice arithmetic: no draws, no
    /// transcendentals. The slots stay in lockstep in steady state, so
    /// epochs strictly alternate between the two. Each core's operation
    /// chain is exactly the scalar one, so results are bit-identical to
    /// per-core `measure_with_spare` calls with the same per-core RNGs
    /// and slots — mixed slot states fall back to that scalar chain.
    ///
    /// # Panics
    ///
    /// Panics if `dropout != 0` (dropout consumes an extra draw per core
    /// and needs reading history — callers must use the scalar path), or if
    /// the slices do not all have the same length.
    pub fn measure_block<R: Rng>(
        &self,
        truth: &[Watts],
        rngs: &mut [R],
        out: &mut [Watts],
        u1: &mut [f64],
        u2: &mut [f64],
        spares: &mut [f64],
    ) {
        assert!(
            self.dropout == 0.0,
            "measure_block requires dropout == 0 (use measure_with_spare)"
        );
        let n = truth.len();
        assert!(
            rngs.len() == n
                && out.len() == n
                && u1.len() == n
                && u2.len() == n
                && spares.len() == n,
            "measure_block slices must have equal length"
        );
        // Quantise and clamp fused into each branch's single pass: the
        // per-element op order (noise → round-to-grid → clamp) is exactly
        // what the separate trailing passes applied, so readings stay
        // bit-identical — but each core's reading is now written once
        // instead of read-modify-written by two extra sweeps.
        let q = self.quantum;
        let finish = |value: f64| -> Watts {
            let v = if q > 0.0 {
                (value / q).round() * q
            } else {
                value
            };
            Watts::new(v.max(0.0))
        };
        if self.noise_rel > 0.0 {
            let noise_rel = self.noise_rel;
            if spares.iter().all(|s| s.is_nan()) {
                for i in 0..n {
                    u1[i] = rngs[i].gen::<f64>().max(1e-12);
                    u2[i] = rngs[i].gen();
                }
                for i in 0..n {
                    let r = (-2.0 * u1[i].ln()).sqrt();
                    let (sin, cos) = (2.0 * std::f64::consts::PI * u2[i]).sin_cos();
                    spares[i] = r * sin;
                    out[i] = finish(truth[i].value() * (1.0 + noise_rel * (r * cos)));
                }
            } else if spares.iter().all(|s| !s.is_nan()) {
                for i in 0..n {
                    out[i] = finish(truth[i].value() * (1.0 + noise_rel * spares[i]));
                    spares[i] = f64::NAN;
                }
            } else {
                // Mixed slot states (e.g. the first fault-free epoch after
                // a faulted stretch left some cores mid-pair).
                for i in 0..n {
                    let g = next_gauss(&mut rngs[i], &mut spares[i]);
                    out[i] = finish(truth[i].value() * (1.0 + noise_rel * g));
                }
            }
        } else {
            for (o, t) in out.iter_mut().zip(truth) {
                *o = finish(t.value());
            }
        }
    }
}

/// One standard Gaussian from a Box–Muller pair: an empty (`NaN`) spare
/// slot triggers a fresh pair — two uniform draws, one `ln`/`sqrt`/
/// `sin_cos` — whose second half is banked in the slot; a full slot is
/// consumed with no draws at all.
#[inline]
fn next_gauss<R: Rng + ?Sized>(rng: &mut R, spare: &mut f64) -> f64 {
    if spare.is_nan() {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        *spare = r * sin;
        r * cos
    } else {
        let g = *spare;
        *spare = f64::NAN;
        g
    }
}

impl Default for SensorModel {
    /// A realistic default: 1 % relative noise, 1/16 W quantum — RAPL-like.
    fn default() -> Self {
        Self {
            noise_rel: 0.01,
            quantum: 0.0625,
            dropout: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_sensor_is_exact() {
        let s = SensorModel::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.measure(Watts::new(3.7), &mut rng).value(), 3.7);
    }

    #[test]
    fn quantisation_rounds_to_grid() {
        let s = SensorModel::new(0.0, 0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.measure(Watts::new(3.13), &mut rng).value(), 3.25);
        assert_eq!(s.measure(Watts::new(3.12), &mut rng).value(), 3.0);
    }

    #[test]
    fn noise_is_unbiased_and_bounded() {
        let s = SensorModel::new(0.05, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let truth = Watts::new(10.0);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| s.measure(truth, &mut rng).value())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn never_reads_negative() {
        let s = SensorModel::new(0.5, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            assert!(s.measure(Watts::new(0.01), &mut rng).value() >= 0.0);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SensorModel::new(-0.1, 0.0).is_err());
        assert!(SensorModel::new(0.6, 0.0).is_err());
        assert!(SensorModel::new(0.0, -1.0).is_err());
        assert!(SensorModel::new(f64::NAN, 0.0).is_err());
        assert!(SensorModel::with_dropout(0.0, 0.0, -0.1).is_err());
        assert!(SensorModel::with_dropout(0.0, 0.0, 0.9).is_err());
    }

    #[test]
    fn dropout_holds_the_last_reading_at_the_configured_rate() {
        let s = SensorModel::with_dropout(0.0, 0.0, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 10_000;
        let last = Watts::new(2.75);
        let held = (0..n)
            .filter(|_| s.measure_with_last(Watts::new(5.0), last, &mut rng) == last)
            .count();
        let rate = held as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "dropout rate {rate}");
        // Non-dropped reads are exact with zero noise.
        let mut rng = StdRng::seed_from_u64(18);
        let any_exact =
            (0..50).any(|_| s.measure_with_last(Watts::new(5.0), last, &mut rng).value() == 5.0);
        assert!(any_exact);
    }

    #[test]
    fn historyless_measure_drops_to_zero() {
        // Without a previous reading there is nothing to hold: `measure`
        // keeps the legacy zero-on-dropout behaviour.
        let s = SensorModel::with_dropout(0.0, 0.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let any_zero = (0..50).any(|_| s.measure(Watts::new(5.0), &mut rng) == Watts::ZERO);
        assert!(any_zero);
    }

    #[test]
    fn measure_block_is_bit_identical_to_scalar_path() {
        // Every (noise, quantum) corner, including tiny truths the clamp
        // touches, over several epochs so both the pair-generating and the
        // pair-consuming passes are exercised: the block path must
        // reproduce per-core scalar calls exactly, draw for draw.
        for (noise_rel, quantum) in [(0.0, 0.0), (0.0, 0.25), (0.01, 0.0625), (0.5, 0.125)] {
            let s = SensorModel::new(noise_rel, quantum).unwrap();
            let n = 131;
            let mut rngs_block: Vec<StdRng> =
                (0..n).map(|i| StdRng::seed_from_u64(i as u64)).collect();
            let mut rngs_scalar: Vec<StdRng> =
                (0..n).map(|i| StdRng::seed_from_u64(i as u64)).collect();
            let mut spares_block = vec![f64::NAN; n];
            let mut spares_scalar = vec![f64::NAN; n];
            let mut out = vec![Watts::ZERO; n];
            let mut u1 = vec![0.0; n];
            let mut u2 = vec![0.0; n];
            for epoch in 0..4 {
                let truth: Vec<Watts> = (0..n)
                    .map(|i| Watts::new(((i + epoch) as f64 * 0.37).sin().abs() * 4.0 - 0.01))
                    .collect();
                s.measure_block(
                    &truth,
                    &mut rngs_block,
                    &mut out,
                    &mut u1,
                    &mut u2,
                    &mut spares_block,
                );
                for i in 0..n {
                    let scalar = s.measure_with_spare(
                        truth[i],
                        Watts::new(99.0),
                        &mut rngs_scalar[i],
                        &mut spares_scalar[i],
                    );
                    assert_eq!(
                        out[i].value().to_bits(),
                        scalar.value().to_bits(),
                        "core {i} diverged at epoch {epoch} noise={noise_rel} quantum={quantum}"
                    );
                    assert_eq!(spares_block[i].to_bits(), spares_scalar[i].to_bits());
                }
            }
            // RNG consumption matches too.
            for i in 0..n {
                assert_eq!(rngs_block[i].gen::<u64>(), rngs_scalar[i].gen::<u64>());
            }
        }
    }

    #[test]
    fn measure_block_handles_mixed_spare_states() {
        // A mid-pair mixture (some slots banked, some empty) must still
        // match the scalar chain — this is the state a faulted stretch can
        // leave behind.
        let s = SensorModel::new(0.3, 0.125).unwrap();
        let n = 64;
        let truth: Vec<Watts> = (0..n).map(|i| Watts::new(1.0 + i as f64 * 0.05)).collect();
        let mut rngs_block: Vec<StdRng> = (0..n).map(|i| StdRng::seed_from_u64(i as u64)).collect();
        let mut rngs_scalar: Vec<StdRng> =
            (0..n).map(|i| StdRng::seed_from_u64(i as u64)).collect();
        // Odd cores are mid-pair, even cores are empty.
        let seed_spare = |i: usize| {
            if i % 2 == 1 {
                0.25 * i as f64
            } else {
                f64::NAN
            }
        };
        let mut spares_block: Vec<f64> = (0..n).map(seed_spare).collect();
        let mut spares_scalar: Vec<f64> = (0..n).map(seed_spare).collect();
        let mut out = vec![Watts::ZERO; n];
        let (mut u1, mut u2) = (vec![0.0; n], vec![0.0; n]);
        s.measure_block(
            &truth,
            &mut rngs_block,
            &mut out,
            &mut u1,
            &mut u2,
            &mut spares_block,
        );
        for i in 0..n {
            let scalar = s.measure_with_spare(
                truth[i],
                Watts::new(99.0),
                &mut rngs_scalar[i],
                &mut spares_scalar[i],
            );
            assert_eq!(out[i].value().to_bits(), scalar.value().to_bits());
            assert_eq!(spares_block[i].to_bits(), spares_scalar[i].to_bits());
            assert_eq!(rngs_block[i].gen::<u64>(), rngs_scalar[i].gen::<u64>());
        }
    }

    #[test]
    fn spare_slot_halves_draw_consumption() {
        // Two spare-threaded reads consume one Box–Muller pair: two
        // uniform draws total, versus four for two one-shot reads.
        let s = SensorModel::new(0.02, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut witness = StdRng::seed_from_u64(77);
        let mut spare = f64::NAN;
        s.measure_with_spare(Watts::new(5.0), Watts::ZERO, &mut rng, &mut spare);
        assert!(!spare.is_nan(), "first read banks the second Gaussian");
        s.measure_with_spare(Watts::new(5.0), Watts::ZERO, &mut rng, &mut spare);
        assert!(spare.is_nan(), "second read consumes the bank");
        let _: (f64, f64) = (witness.gen(), witness.gen());
        assert_eq!(rng.gen::<u64>(), witness.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "dropout")]
    fn measure_block_rejects_dropout() {
        let s = SensorModel::with_dropout(0.0, 0.0, 0.1).unwrap();
        let mut rngs = vec![StdRng::seed_from_u64(0)];
        let mut out = [Watts::ZERO];
        let (mut u1, mut u2) = ([0.0], [0.0]);
        let mut spares = [f64::NAN];
        s.measure_block(
            &[Watts::ZERO],
            &mut rngs,
            &mut out,
            &mut u1,
            &mut u2,
            &mut spares,
        );
    }

    #[test]
    fn measure_matches_measure_with_last_when_dropout_is_off() {
        // With no dropout the history argument must be dead: the two entry
        // points draw and return identically.
        let s = SensorModel::default();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for i in 0..200 {
            let truth = Watts::new(0.5 + i as f64 * 0.01);
            let a = s.measure(truth, &mut rng_a);
            let b = s.measure_with_last(truth, Watts::new(123.0), &mut rng_b);
            assert_eq!(a, b);
        }
    }
}
