//! The power-capping controller interface and state-of-the-art baselines.
//!
//! Every DVFS power-capping scheme in this workspace — including the
//! paper's OD-RL in `odrl-core` — implements [`PowerController`]: read an
//! [`Observation`] (per-core counters, powers, temperatures, chip power,
//! budget), return one VF level per core.
//!
//! Baselines implemented from their published descriptions:
//!
//! * [`MaxBips`] — Isci et al. (MICRO'06) predictive global optimization,
//!   both exhaustive (exact, exponential) and knapsack-DP
//!   (pseudo-polynomial) solvers;
//! * [`SteepestDrop`] — greedy maximize-then-reduce heuristic
//!   (Procrustes/HaDeS family);
//! * [`PidController`] — chip-level feedback capping with a uniform level
//!   (RAPL-style);
//! * [`OndemandGovernor`] — a Linux-ondemand-style utilization governor,
//!   deliberately budget-oblivious (shows why capping is needed);
//! * [`StaticUniform`] — worst-case static provisioning;
//! * [`PriorityGreedy`] — rank-by-IPS budget hand-out.
//!
//! [`IslandController`] adapts any of them (and OD-RL) to coarser
//! voltage/frequency-island granularities.
//!
//! # Example
//!
//! ```
//! use odrl_controllers::{PowerController, SteepestDrop};
//! use odrl_manycore::{System, SystemConfig};
//! use odrl_power::Watts;
//!
//! let config = SystemConfig::builder().cores(16).seed(1).build()?;
//! let budget = Watts::new(0.6 * config.max_power().value());
//! let mut system = System::new(config)?;
//! let mut ctrl = SteepestDrop::new(system.spec())?;
//! for _ in 0..20 {
//!     let obs = system.observation(budget);
//!     let actions = ctrl.decide(&obs);
//!     system.step(&actions)?;
//! }
//! assert!(system.telemetry().total_instructions() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod islands;
pub mod maxbips;
pub mod ondemand;
pub mod pid;
pub mod predict;
pub mod simple;
pub mod steepest;

pub use error::ControllerError;
pub use islands::{IslandController, IslandMap};
pub use maxbips::{MaxBips, MaxBipsMode, EXHAUSTIVE_CORE_LIMIT};
pub use ondemand::{OndemandGovernor, OndemandTuning};
pub use pid::{PidController, PidGains};
pub use predict::{PredictedPoint, PredictionTable, Predictor};
pub use simple::{PriorityGreedy, StaticUniform};
pub use steepest::SteepestDrop;

use odrl_manycore::Observation;
use odrl_obs::{EventCounts, EventRecord, LearnDiag, MetricsSnapshot};
use odrl_power::LevelId;
use std::ops::Range;

/// A per-epoch DVFS power-capping policy.
///
/// Implementations must be deterministic given their construction seed and
/// the observation sequence, so experiments are reproducible.
///
/// Implementors provide [`PowerController::decide_into`], the
/// zero-allocation hot path the closed loop drives every epoch;
/// [`PowerController::decide`] is a convenience wrapper that allocates a
/// fresh vector per call.
pub trait PowerController {
    /// A short stable identifier used in reports and tables.
    fn name(&self) -> &str;

    /// Chooses one VF level per core for the upcoming epoch, writing the
    /// decision into `out` without allocating.
    ///
    /// `out` has exactly `obs.cores.len()` slots (one per observed core);
    /// every slot must be written with a level valid for the system's VF
    /// table.
    fn decide_into(&mut self, obs: &Observation, out: &mut [LevelId]);

    /// Chooses one VF level per core, returning a freshly allocated vector
    /// of exactly `obs.cores.len()` levels.
    ///
    /// Prefer [`PowerController::decide_into`] with a reused buffer in hot
    /// loops; this wrapper exists for convenience and backward
    /// compatibility.
    fn decide(&mut self, obs: &Observation) -> Vec<LevelId> {
        let mut out = vec![LevelId(0); obs.cores.len()];
        self.decide_into(obs, &mut out);
        out
    }

    /// Per-kind totals of the structured events this controller recorded,
    /// when it is instrumented (see `odrl-obs`). The default — and the
    /// baselines, which have no tracer — report `None`.
    fn event_counts(&self) -> Option<EventCounts> {
        None
    }

    /// Appends every trace record this controller holds whose epoch lies
    /// in the half-open range `epochs` onto `out` (see `odrl-obs`);
    /// `0..u64::MAX` for the whole trace. The default — and the
    /// baselines, which record nothing — is a no-op; pass the result
    /// through `odrl_obs::merge_records` before export.
    fn extend_trace_into(&self, epochs: Range<u64>, out: &mut Vec<EventRecord>) {
        let _ = (epochs, out);
    }

    /// The controller's most recent per-epoch metrics snapshot, when it is
    /// instrumented (see `odrl-obs`). The default — and the baselines,
    /// which keep no metrics — report `None`.
    fn metrics_snapshot(&self) -> Option<&MetricsSnapshot> {
        None
    }

    /// Run-cumulative learning-health diagnostics, when the controller
    /// learns and records them (see `odrl-obs`). Baselines and
    /// non-learning controllers report `None`.
    fn learn_diag(&self) -> Option<&LearnDiag> {
        None
    }

    /// The learned policy as versioned snapshot bytes, when the controller
    /// learns one (`odrl_core::PolicySnapshot::to_bytes`). Baselines
    /// report `None`.
    fn policy_bytes(&self) -> Option<Vec<u8>> {
        None
    }
}
