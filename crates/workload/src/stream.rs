//! Runtime workload streams: instantiated benchmarks advancing by retired
//! instructions.

use crate::benchmark::BenchmarkSpec;
use crate::phase::PhaseParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A running instance of a [`BenchmarkSpec`] on one core.
///
/// The stream tracks the current phase and how many instructions remain in
/// it; the simulator calls [`WorkloadStream::advance`] with the number of
/// instructions the core retired during an epoch, and reads the *current*
/// phase signature with [`WorkloadStream::params`]. Phase dwell lengths are
/// sampled exponentially around each phase's mean, giving the bursty,
/// non-stationary behaviour an on-line learner has to track.
///
/// Streams are deterministic per seed. The spec is read-only and shared:
/// streams on the same benchmark (every core of a [`crate::WorkloadMix`]
/// assigned it) hold one [`Arc`] to it, and only the per-core cursor — RNG,
/// phase, remaining dwell and counters — is owned by the stream.
///
/// ```
/// use odrl_workload::{suite, WorkloadStream};
/// let spec = suite().into_iter().next().unwrap();
/// let mut s = WorkloadStream::new(spec, 42);
/// let p0 = s.params();
/// s.advance(1e9); // retire a billion instructions
/// assert!(s.total_instructions() == 1e9);
/// let _ = p0;
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    spec: Arc<BenchmarkSpec>,
    rng: StdRng,
    phase: usize,
    remaining: f64,
    total_instructions: f64,
    phase_switches: u64,
}

impl WorkloadStream {
    /// Instantiates a benchmark with a deterministic seed. Takes either an
    /// owned [`BenchmarkSpec`] or an [`Arc`] to one already shared.
    pub fn new(spec: impl Into<Arc<BenchmarkSpec>>, seed: u64) -> Self {
        let spec = spec.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let phase = 0;
        let remaining = Self::sample_dwell(&spec, phase, &mut rng);
        Self {
            spec,
            rng,
            phase,
            remaining,
            total_instructions: 0.0,
            phase_switches: 0,
        }
    }

    fn sample_dwell(spec: &BenchmarkSpec, phase: usize, rng: &mut StdRng) -> f64 {
        let p = &spec.phases()[phase];
        let mean = p.mean_dwell_instructions;
        match p.dwell_model {
            crate::phase::DwellModel::Fixed => mean,
            _ => {
                // Exponential dwell via inverse CDF; floor keeps phases
                // observable.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                (-u.ln() * mean).max(mean * 0.05)
            }
        }
    }

    /// The benchmark this stream runs.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// The current phase index.
    pub fn phase_index(&self) -> usize {
        self.phase
    }

    /// The current phase signature.
    #[inline]
    pub fn params(&self) -> PhaseParams {
        self.spec.phases()[self.phase].params
    }

    /// Total instructions retired by this stream so far.
    pub fn total_instructions(&self) -> f64 {
        self.total_instructions
    }

    /// Number of phase switches that have occurred.
    pub fn phase_switches(&self) -> u64 {
        self.phase_switches
    }

    /// Advances the stream by `instructions` retired instructions, crossing
    /// phase boundaries as needed.
    ///
    /// Negative or non-finite values are treated as zero.
    ///
    /// The common case (the whole epoch lands inside the current dwell) is
    /// a validity test plus two additions, kept inline so a per-core sweep
    /// over thousands of streams compiles to straight-line slice math; the
    /// boundary-crossing machinery (phase sampling, RNG) lives out of line.
    #[inline]
    pub fn advance(&mut self, instructions: f64) {
        if !(instructions.is_finite() && instructions > 0.0) {
            return;
        }
        self.total_instructions += instructions;
        if instructions < self.remaining {
            self.remaining -= instructions;
            return;
        }
        self.advance_across_phases(instructions);
    }

    /// The boundary-crossing tail of [`WorkloadStream::advance`]: at least
    /// one phase ends inside this epoch.
    #[cold]
    fn advance_across_phases(&mut self, instructions: f64) {
        let mut left = instructions;
        // Cap boundary crossings per call to stay O(1) amortized even if an
        // epoch spans many short phases.
        for _ in 0..64 {
            if left < self.remaining {
                self.remaining -= left;
                return;
            }
            left -= self.remaining;
            self.switch_phase();
        }
        // Extremely long epoch relative to dwell times: burn the remainder
        // inside the current phase.
        self.remaining = (self.remaining - left).max(1.0);
    }

    fn switch_phase(&mut self) {
        let next = self
            .spec
            .transitions()
            .sample_next(self.phase, &mut self.rng);
        if next != self.phase {
            self.phase_switches += 1;
        }
        self.phase = next;
        self.remaining = Self::sample_dwell(&self.spec, next, &mut self.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::TransitionMatrix;
    use crate::phase::{PhaseParams, PhaseSpec};

    fn two_phase_spec() -> BenchmarkSpec {
        BenchmarkSpec::new(
            "two",
            vec![
                PhaseSpec::new(PhaseParams::new(0.8, 0.5, 1.0).unwrap(), 1e6).unwrap(),
                PhaseSpec::new(PhaseParams::new(1.2, 15.0, 0.5).unwrap(), 1e6).unwrap(),
            ],
            TransitionMatrix::cycle(2).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = two_phase_spec();
        let mut a = WorkloadStream::new(spec.clone(), 9);
        let mut b = WorkloadStream::new(spec, 9);
        for _ in 0..100 {
            a.advance(3e5);
            b.advance(3e5);
            assert_eq!(a.phase_index(), b.phase_index());
            assert_eq!(a.params(), b.params());
        }
    }

    #[test]
    fn shared_spec_follows_a_deep_clone_bit_for_bit() {
        for spec in crate::suite::suite() {
            let shared = Arc::new(spec.clone());
            let mut a = WorkloadStream::new(Arc::clone(&shared), 17);
            let mut b = WorkloadStream::new(spec, 17);
            assert!(std::ptr::eq(a.spec(), &*shared));
            // Epochs of 0.2–5.2 M instructions, a few per dwell, so every
            // multi-phase benchmark switches phases many times.
            for k in 0..10_000u32 {
                let instr = 2e5 + f64::from(k.wrapping_mul(2_654_435_761) % 5_000) * 1e3;
                a.advance(instr);
                b.advance(instr);
                assert_eq!(a.phase_index(), b.phase_index(), "step {k}");
                assert_eq!(a.params(), b.params(), "step {k}");
                assert_eq!(a.remaining.to_bits(), b.remaining.to_bits(), "step {k}");
            }
            assert_eq!(a.phase_switches(), b.phase_switches());
            assert_eq!(
                a.total_instructions().to_bits(),
                b.total_instructions().to_bits()
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let spec = two_phase_spec();
        let mut a = WorkloadStream::new(spec.clone(), 1);
        let mut b = WorkloadStream::new(spec, 2);
        let mut diverged = false;
        for _ in 0..200 {
            a.advance(4e5);
            b.advance(4e5);
            if a.phase_index() != b.phase_index() {
                diverged = true;
                break;
            }
        }
        assert!(diverged);
    }

    #[test]
    fn eventually_switches_phases() {
        let mut s = WorkloadStream::new(two_phase_spec(), 5);
        for _ in 0..50 {
            s.advance(1e6);
        }
        assert!(s.phase_switches() > 0);
        assert_eq!(s.total_instructions(), 50.0 * 1e6);
    }

    #[test]
    fn single_phase_never_switches() {
        let spec = BenchmarkSpec::steady("s", PhaseParams::new(1.0, 1.0, 1.0).unwrap()).unwrap();
        let mut s = WorkloadStream::new(spec, 5);
        for _ in 0..100 {
            s.advance(1e8);
        }
        assert_eq!(s.phase_index(), 0);
        assert_eq!(s.phase_switches(), 0);
    }

    #[test]
    fn nonpositive_advance_is_ignored() {
        let mut s = WorkloadStream::new(two_phase_spec(), 5);
        s.advance(0.0);
        s.advance(-10.0);
        s.advance(f64::NAN);
        assert_eq!(s.total_instructions(), 0.0);
    }

    #[test]
    fn huge_epoch_does_not_hang_or_panic() {
        let mut s = WorkloadStream::new(two_phase_spec(), 5);
        s.advance(1e15); // spans ~1e9 phases; capped internally
        assert!(s.total_instructions() == 1e15);
        assert!(s.phase_switches() <= 64);
    }

    #[test]
    fn dwell_lengths_vary() {
        // Exponential sampling should produce different dwells across
        // switches — verify phases don't all last exactly the mean.
        let mut s = WorkloadStream::new(two_phase_spec(), 11);
        let mut lengths = Vec::new();
        let mut last_switches = 0;
        let mut acc = 0.0;
        for _ in 0..2000 {
            s.advance(1e5);
            acc += 1e5;
            if s.phase_switches() > last_switches {
                lengths.push(acc);
                acc = 0.0;
                last_switches = s.phase_switches();
            }
        }
        assert!(lengths.len() > 5);
        let min = lengths.iter().cloned().fold(f64::MAX, f64::min);
        let max = lengths.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1.5 * min, "dwells should vary: {min}..{max}");
    }
}
