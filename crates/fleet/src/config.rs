//! Fleet-level configuration, validated like `OdRlConfig`.

use crate::error::FleetError;
use crate::scenario::{ControllerKind, Scenario};
use odrl_core::OdRlConfig;
use odrl_faults::FaultPlan;
use odrl_manycore::Parallelism;
use odrl_obs::{ObsConfig, RecorderConfig};
use std::path::PathBuf;

/// Everything a [`Fleet`](crate::Fleet) needs: how many chips, what each
/// chip looks like (one [`Scenario`] replicated with decorrelated seeds),
/// which controller drives each chip, and how the rack-level
/// [`BudgetArbiter`](crate::BudgetArbiter) re-divides the fleet budget.
///
/// The fleet budget is `scenario.budget_frac × Σ chip max power` — the
/// same fraction a single-chip run uses, scaled to the fleet.
///
/// It is also the one run description behind
/// [`RunBuilder`](crate::RunBuilder): a chip build reads the per-chip
/// fields and ignores `chips`, the arbiter policy and `parallelism`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of chips in the fleet.
    pub chips: usize,
    /// The per-chip run description. Chip `k` runs this scenario with its
    /// system seed decorrelated by `stream_seed(seed, k)`, so chips are
    /// statistically independent replicas. `scenario.parallelism` shards
    /// the work *inside* each chip.
    pub scenario: Scenario,
    /// The controller driving every chip.
    pub controller: ControllerKind,
    /// OD-RL configuration for the per-chip controllers (ignored by
    /// baselines). `seed` is replaced by each chip's exploration seed,
    /// derived from `scenario.seed`; `parallelism` is overridden with
    /// `scenario.parallelism`.
    pub odrl: OdRlConfig,
    /// Optional fault plan, attached to every chip with that chip's fleet
    /// index (chip-scoped entries apply only on their chip) and projected
    /// onto the arbiter → chip budget links (see
    /// `FaultPlan::fleet_budget_plan`).
    pub plan: Option<FaultPlan>,
    /// Run the OD-RL sensor watchdog and route per-chip budget faults
    /// through the controllers (graceful degradation on).
    pub watchdog: bool,
    /// Enable structured tracing on every chip's system and controller.
    pub obs: bool,
    /// Attach the anomaly-triggered flight recorder at rack scope. It
    /// implies [`FleetConfig::obs`] and learning-health diagnostics on
    /// every chip (TD-error, greedy-Q-span and visit-spread summaries,
    /// exploration rate, quantized-storage health), whose per-chip metric
    /// snapshots aggregate into rack-level
    /// [`FleetMetrics`](odrl_obs::FleetMetrics) each epoch. Each epoch a
    /// [`HealthSample`](odrl_obs::HealthSample) derived from the
    /// aggregated metrics is checked against the configured watermark
    /// rules, and a trip dumps the last-window merged trace plus the
    /// combined metrics snapshot. Off by default; the recorder only reads
    /// simulation state, so the run's bits match a plain `obs` run. With
    /// `obs` off the recorder is the only trace reader: every ring keeps
    /// just the last one to two windows of epochs, and so do
    /// [`Fleet::merged_trace`](crate::Fleet::merged_trace) and
    /// [`Fleet::extend_trace_into`](crate::Fleet::extend_trace_into).
    pub recorder: Option<RecorderConfig>,
    /// Epochs between fleet budget reallocation rounds. Deliberately
    /// coarser than the intra-chip reallocation period by default: the
    /// rack moves budget on a slower timescale than the chip.
    pub arbiter_period: u64,
    /// Arbiter blend factor toward the demand-proportional split.
    pub arbiter_gain: f64,
    /// Per-chip budget floor as a fraction of the fair share.
    pub min_share: f64,
    /// EMA factor for the arbiter's smoothed per-chip demand.
    pub demand_smoothing: f64,
    /// Cross-chip fan-out: how many worker shards step chips concurrently
    /// within one fleet epoch. Bit-identical at every setting. Mutually
    /// exclusive with intra-chip parallelism (`scenario.parallelism`):
    /// both layers share one worker pool whose jobs must not nest.
    pub parallelism: Parallelism,
    /// Optional path to a binary `PolicySnapshot` every chip's OD-RL
    /// controller boots from (warm start). Loaded once and imported per
    /// chip; only OD-RL controller kinds accept it.
    pub warm_start: Option<PathBuf>,
}

impl FleetConfig {
    /// A fleet of `chips` replicas of `scenario` with the default arbiter
    /// policy: OD-RL on every chip, reallocation every 40 epochs (4× the
    /// intra-chip period), gain 0.5, 25 % fair-share floor, EMA 0.25,
    /// serial fan-out.
    pub fn new(chips: usize, scenario: Scenario) -> Self {
        Self {
            chips,
            scenario,
            controller: ControllerKind::OdRl,
            odrl: OdRlConfig::default(),
            plan: None,
            watchdog: false,
            obs: false,
            recorder: None,
            arbiter_period: 40,
            arbiter_gain: 0.5,
            min_share: 0.25,
            demand_smoothing: 0.25,
            parallelism: Parallelism::Serial,
            warm_start: None,
        }
    }

    /// Validates every fleet-level parameter (the arbiter's are checked
    /// again, against the concrete budget, when the fleet is built).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.chips == 0 {
            return Err(FleetError::InvalidConfig {
                field: "chips",
                reason: "fleet must have at least one chip".into(),
            });
        }
        if self.arbiter_period == 0 {
            return Err(FleetError::InvalidConfig {
                field: "arbiter_period",
                reason: "reallocation period must be at least 1 epoch".into(),
            });
        }
        if !(self.arbiter_gain.is_finite() && self.arbiter_gain > 0.0 && self.arbiter_gain <= 1.0) {
            return Err(FleetError::InvalidConfig {
                field: "arbiter_gain",
                reason: format!("gain must be in (0, 1], got {}", self.arbiter_gain),
            });
        }
        if !(self.min_share.is_finite() && (0.0..=1.0).contains(&self.min_share)) {
            return Err(FleetError::InvalidConfig {
                field: "min_share",
                reason: format!("minimum share must be in [0, 1], got {}", self.min_share),
            });
        }
        if !(self.demand_smoothing.is_finite()
            && self.demand_smoothing > 0.0
            && self.demand_smoothing <= 1.0)
        {
            return Err(FleetError::InvalidConfig {
                field: "demand_smoothing",
                reason: format!(
                    "demand smoothing must be in (0, 1], got {}",
                    self.demand_smoothing
                ),
            });
        }
        if let Some(rec) = &self.recorder {
            if rec.window == 0 {
                return Err(FleetError::InvalidConfig {
                    field: "recorder",
                    reason: "dump window must be at least 1 epoch".into(),
                });
            }
            if rec.rules.is_empty() {
                return Err(FleetError::InvalidConfig {
                    field: "recorder",
                    reason: "at least one watermark rule is required".into(),
                });
            }
            if rec.max_dumps == 0 {
                return Err(FleetError::InvalidConfig {
                    field: "recorder",
                    reason: "max_dumps must be at least 1".into(),
                });
            }
        }
        if self.parallelism.is_parallel() && self.scenario.parallelism.is_parallel() {
            // Both layers dispatch onto the same persistent worker pool,
            // whose jobs must not enqueue nested jobs (deadlock): pick one
            // layer to shard.
            return Err(FleetError::InvalidConfig {
                field: "parallelism",
                reason: "cross-chip and intra-chip parallelism are mutually exclusive; \
                         set scenario.parallelism to Serial to shard across chips"
                    .into(),
            });
        }
        self.odrl.validate()?;
        Ok(())
    }

    /// Every chip's tracing, `None` when the run does not trace. An
    /// observed run ([`FleetConfig::obs`]) keeps whole-run rings; when the
    /// flight recorder is the only trace reader, the rings keep just its
    /// dump window (see [`ObsConfig::for_recorder`]). The recorder also
    /// turns on learning-health diagnostics, which it reads.
    pub(crate) fn chip_obs(&self) -> Option<ObsConfig> {
        match (&self.recorder, self.obs) {
            (Some(rec), false) => Some(ObsConfig::for_recorder(rec.window)),
            (Some(_), true) => Some(ObsConfig::with_diagnostics()),
            (None, true) => Some(ObsConfig::enabled()),
            (None, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let config = FleetConfig::new(4, Scenario::default_eval());
        assert!(config.validate().is_ok());
        assert_eq!(config.arbiter_period, 40);
    }

    #[test]
    fn rejects_bad_fleet_parameters() {
        let base = || FleetConfig::new(4, Scenario::default_eval());
        let mut c = base();
        c.chips = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.arbiter_period = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.arbiter_gain = 0.0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.min_share = 1.5;
        assert!(c.validate().is_err());
        let mut c = base();
        c.demand_smoothing = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base();
        c.odrl.realloc_gain = -1.0;
        assert!(matches!(c.validate(), Err(FleetError::Controller(_))));
    }

    #[test]
    fn recorder_settings_are_validated() {
        let mut c = FleetConfig::new(2, Scenario::default_eval());
        c.recorder = Some(RecorderConfig::default());
        assert!(c.validate().is_ok());
        assert_eq!(c.chip_obs(), Some(ObsConfig::for_recorder(32)));
        c.obs = true;
        assert_eq!(c.chip_obs(), Some(ObsConfig::with_diagnostics()));
        c.obs = false;
        c.recorder = Some(RecorderConfig {
            window: 0,
            ..RecorderConfig::default()
        });
        assert!(c.validate().is_err());
        c.recorder = Some(RecorderConfig {
            rules: Vec::new(),
            ..RecorderConfig::default()
        });
        assert!(c.validate().is_err());
        c.recorder = Some(RecorderConfig {
            max_dumps: 0,
            ..RecorderConfig::default()
        });
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("max_dumps"), "{err}");
    }

    #[test]
    fn rejects_nested_parallelism() {
        let mut c = FleetConfig::new(4, Scenario::default_eval());
        c.parallelism = Parallelism::Threads(2);
        c.scenario.parallelism = Parallelism::Threads(2);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        // Either layer alone is fine.
        c.scenario.parallelism = Parallelism::Serial;
        assert!(c.validate().is_ok());
        c.parallelism = Parallelism::Serial;
        c.scenario.parallelism = Parallelism::Threads(2);
        assert!(c.validate().is_ok());
    }
}
