//! Multiprogrammed workload mixes: assigning benchmarks to cores.

use crate::benchmark::BenchmarkSpec;
use crate::error::WorkloadError;
use crate::stream::WorkloadStream;
use crate::suite::{by_name, suite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How benchmarks are assigned to the cores of a many-core system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MixPolicy {
    /// Cycle through the suite in order: core `i` runs benchmark
    /// `i mod suite.len()`.
    RoundRobin,
    /// Every core draws a uniformly random benchmark (per-mix seed).
    Random,
    /// Every core runs the same named benchmark.
    Homogeneous(String),
}

/// A reproducible assignment of benchmarks to `n` cores.
///
/// The mix holds one shared [`BenchmarkSpec`] per distinct benchmark: every
/// core assigned that benchmark, and every stream built for such a core,
/// holds a clone of the same [`Arc`], so a mix costs one spec per benchmark
/// rather than one per core.
///
/// ```
/// use odrl_workload::{WorkloadMix, MixPolicy};
/// let mix = WorkloadMix::from_suite(8, MixPolicy::RoundRobin, 42)?;
/// let streams = mix.streams();
/// assert_eq!(streams.len(), 8);
/// assert_eq!(streams[0].spec().name(), "blackscholes");
/// # Ok::<(), odrl_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    assignments: Vec<Arc<BenchmarkSpec>>,
    seed: u64,
}

impl WorkloadMix {
    /// Builds a mix over the built-in suite.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownBenchmark`] for a
    /// [`MixPolicy::Homogeneous`] name not in the suite, or
    /// [`WorkloadError::NoPhases`] if `n == 0`.
    pub fn from_suite(n: usize, policy: MixPolicy, seed: u64) -> Result<Self, WorkloadError> {
        Self::from_benchmarks(n, &suite(), policy, seed)
    }

    /// Builds a mix over a caller-provided benchmark pool.
    ///
    /// # Errors
    ///
    /// As [`WorkloadMix::from_suite`]; additionally returns
    /// [`WorkloadError::NoPhases`] if the pool is empty.
    pub fn from_benchmarks(
        n: usize,
        pool: &[BenchmarkSpec],
        policy: MixPolicy,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        if n == 0 || pool.is_empty() {
            return Err(WorkloadError::NoPhases);
        }
        let pool: Vec<Arc<BenchmarkSpec>> = pool.iter().cloned().map(Arc::new).collect();
        let assignments = match policy {
            MixPolicy::RoundRobin => (0..n).map(|i| pool[i % pool.len()].clone()).collect(),
            MixPolicy::Random => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..n)
                    .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                    .collect()
            }
            MixPolicy::Homogeneous(name) => {
                let b = pool
                    .iter()
                    .find(|b| b.name() == name)
                    .cloned()
                    .or_else(|| by_name(&name).ok().map(Arc::new))
                    .ok_or(WorkloadError::UnknownBenchmark { name })?;
                vec![b; n]
            }
        };
        Ok(Self { assignments, seed })
    }

    /// Number of cores this mix covers.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Returns `true` if the mix covers zero cores (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The benchmark assigned to core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn benchmark(&self, i: usize) -> &BenchmarkSpec {
        &self.assignments[i]
    }

    /// Instantiates one [`WorkloadStream`] per core, each with a distinct
    /// deterministic sub-seed and sharing its core's spec with the mix.
    pub fn streams(&self) -> Vec<WorkloadStream> {
        self.assignments
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                // SplitMix-style per-core seed derivation.
                let s = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                WorkloadStream::new(spec.clone(), s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::names;

    #[test]
    fn round_robin_cycles_suite() {
        let mix = WorkloadMix::from_suite(14, MixPolicy::RoundRobin, 0).unwrap();
        let expected = names();
        assert_eq!(mix.benchmark(0).name(), expected[0]);
        assert_eq!(mix.benchmark(12).name(), expected[0]);
        assert_eq!(mix.benchmark(13).name(), expected[1]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = WorkloadMix::from_suite(32, MixPolicy::Random, 5).unwrap();
        let b = WorkloadMix::from_suite(32, MixPolicy::Random, 5).unwrap();
        for i in 0..32 {
            assert_eq!(a.benchmark(i).name(), b.benchmark(i).name());
        }
        let c = WorkloadMix::from_suite(32, MixPolicy::Random, 6).unwrap();
        let same = (0..32).all(|i| a.benchmark(i).name() == c.benchmark(i).name());
        assert!(!same, "different seeds should give different mixes");
    }

    #[test]
    fn homogeneous_uses_one_benchmark() {
        let mix = WorkloadMix::from_suite(4, MixPolicy::Homogeneous("canneal".into()), 0).unwrap();
        for i in 0..4 {
            assert_eq!(mix.benchmark(i).name(), "canneal");
        }
    }

    #[test]
    fn homogeneous_unknown_name_errors() {
        let err = WorkloadMix::from_suite(4, MixPolicy::Homogeneous("nope".into()), 0);
        assert!(matches!(err, Err(WorkloadError::UnknownBenchmark { .. })));
    }

    #[test]
    fn zero_cores_errors() {
        assert!(WorkloadMix::from_suite(0, MixPolicy::RoundRobin, 0).is_err());
    }

    /// Checks that every core on one benchmark, and its stream, shares a
    /// single spec allocation, and that distinct benchmarks do not.
    fn assert_shared_per_benchmark(mix: &WorkloadMix) {
        for (i, stream) in mix.streams().iter().enumerate() {
            assert!(std::ptr::eq(stream.spec(), mix.benchmark(i)));
            for j in 0..i {
                let same = mix.benchmark(i).name() == mix.benchmark(j).name();
                assert_eq!(
                    Arc::ptr_eq(&mix.assignments[i], &mix.assignments[j]),
                    same,
                    "cores {j} and {i}"
                );
            }
        }
    }

    #[test]
    fn cores_on_one_benchmark_share_its_spec() {
        for policy in [
            MixPolicy::RoundRobin,
            MixPolicy::Random,
            MixPolicy::Homogeneous("ferret".into()),
        ] {
            assert_shared_per_benchmark(&WorkloadMix::from_suite(40, policy, 3).unwrap());
        }
        let pool = [by_name("dedup").unwrap(), by_name("x264").unwrap()];
        for policy in [MixPolicy::RoundRobin, MixPolicy::Random] {
            let mix = WorkloadMix::from_benchmarks(9, &pool, policy, 5).unwrap();
            assert_shared_per_benchmark(&mix);
        }
        // A name missing from the pool falls back to the suite, still shared.
        let mix =
            WorkloadMix::from_benchmarks(5, &pool, MixPolicy::Homogeneous("canneal".into()), 0)
                .unwrap();
        assert_shared_per_benchmark(&mix);
    }

    #[test]
    fn streams_have_distinct_seeds() {
        let mix =
            WorkloadMix::from_suite(4, MixPolicy::Homogeneous("bodytrack".into()), 1).unwrap();
        let mut streams = mix.streams();
        assert_eq!(streams.len(), 4);
        // Same benchmark, different seeds: phase sequences eventually differ.
        let mut diverged = false;
        for _ in 0..300 {
            for s in &mut streams {
                s.advance(5e5);
            }
            let first = streams[0].phase_index();
            if streams.iter().any(|s| s.phase_index() != first) {
                diverged = true;
                break;
            }
        }
        assert!(diverged);
    }
}
