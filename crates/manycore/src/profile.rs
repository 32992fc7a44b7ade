//! Per-stage wall-clock accounting for the epoch hot path.
//!
//! The epoch kernel is a fixed pipeline (workload → power → sensors → NoC →
//! thermal on the system side, RL select/update → budget reallocation on
//! the controller side). [`StageTimers`] is a zero-allocation accumulator —
//! a fixed array of nanosecond counters — that both sides stamp as they
//! run, so a benchmark can difference two copies around an epoch and see
//! where its time went without any per-epoch heap traffic.

use std::time::Instant;

/// Number of [`Stage`] variants (the length of the counter array).
const STAGES: usize = Stage::Realloc as usize + 1;

/// One stage of the epoch pipeline. The first five are recorded by
/// [`crate::System::step_in_place`]; `Rl` and `Realloc` belong to the
/// controller's decision path and are recorded by controllers that carry
/// their own [`StageTimers`]. `Realloc` stays last: it sizes the counter
/// array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Workload passes: VF resolve, standalone progress, barrier gating,
    /// activity scaling and stream advance.
    Workload,
    /// Batch power evaluation (coefficient gather + variation).
    Power,
    /// Per-core power sensor reads.
    Sensor,
    /// NoC latency update from this epoch's traffic.
    Noc,
    /// Thermal grid forward-Euler integration.
    Thermal,
    /// Controller: RL state encoding, action selection and TD updates.
    /// This is the whole RL pass wall clock; [`Stage::RlDecide`] and
    /// [`Stage::RlLearn`] break the same interval down, so a pipeline
    /// total must not add them to `Rl` — present them as a split of
    /// `rl`, not as extra pipeline stages.
    Rl,
    /// Controller: the action-selection (decide) half of the RL pass —
    /// state encoding, greedy scan and ε-draw. A sub-interval of
    /// [`Stage::Rl`].
    RlDecide,
    /// Controller: the TD-update (learn) half of the RL pass — reward
    /// pricing and Q-table writes. A sub-interval of [`Stage::Rl`].
    RlLearn,
    /// Controller: budget tracking and per-core budget reallocation.
    Realloc,
}

/// A zero-allocation per-stage time accumulator.
///
/// Stamp a stage with [`StageTimers::record`] around the work and read a
/// stage's running total with [`StageTimers::nanos`]. The type is `Copy`:
/// snapshot it before and after a window and difference the totals.
///
/// ```
/// use odrl_manycore::{Stage, System, SystemConfig};
/// use odrl_power::LevelId;
///
/// let config = SystemConfig::builder().cores(4).seed(1).build()?;
/// let mut system = System::new(config)?;
/// let before = *system.stage_timers();
/// for _ in 0..3 {
///     system.step(&vec![LevelId(2); 4])?;
/// }
/// let after = *system.stage_timers();
/// assert!(after.nanos(Stage::Thermal) > before.nanos(Stage::Thermal));
/// # Ok::<(), odrl_manycore::SystemError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimers {
    nanos: [u64; STAGES],
}

impl StageTimers {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the time elapsed since `t0` to `stage`'s counter.
    #[inline]
    pub fn record(&mut self, stage: Stage, t0: Instant) {
        self.nanos[stage as usize] += t0.elapsed().as_nanos() as u64;
    }

    /// Adds a pre-measured nanosecond count to `stage`'s counter — for
    /// intervals stamped off-thread (e.g. per-shard sub-stage timings
    /// aggregated after a parallel region) where no `Instant` survives.
    #[inline]
    pub fn add_nanos(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage as usize] += nanos;
    }

    /// Total nanoseconds recorded for `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_adds_per_stage() {
        let mut t = StageTimers::new();
        assert_eq!(t.nanos(Stage::Rl), 0);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        t.record(Stage::Rl, t0);
        assert!(t.nanos(Stage::Rl) >= 2_000_000);
        t.add_nanos(Stage::RlDecide, 60);
        t.add_nanos(Stage::RlLearn, 40);
        t.add_nanos(Stage::RlLearn, 2);
        assert_eq!(t.nanos(Stage::RlDecide), 60);
        assert_eq!(t.nanos(Stage::RlLearn), 42);
        assert_eq!(t.nanos(Stage::Thermal), 0);
    }
}
