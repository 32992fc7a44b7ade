//! OD-RL configuration.

use crate::error::OdRlError;
use crate::watchdog::WatchdogConfig;
use odrl_manycore::Parallelism;
use odrl_obs::ObsConfig;
use odrl_rl::{Algorithm, QTableLayout, Schedule};
use serde::{Deserialize, Serialize};

/// Tuning parameters of the OD-RL controller.
///
/// Defaults reproduce the paper's operating point: a compact per-core state
/// (local power-budget ratio × memory-boundedness × current level),
/// Q-learning with a floored inverse-time learning rate, floored ε-greedy
/// exploration (the controller never stops adapting), a strong local
/// overshoot penalty, and a global budget reallocation every 10 epochs.
///
/// ```
/// use odrl_core::OdRlConfig;
/// let config = OdRlConfig::default();
/// assert_eq!(config.power_bins, 8);
/// config.validate()?;
/// # Ok::<(), odrl_core::OdRlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OdRlConfig {
    /// Bins for the local power / local budget ratio (state dimension 1).
    pub power_bins: usize,
    /// Bins for counter-derived memory-boundedness (state dimension 2).
    pub mem_bins: usize,
    /// Whether the current VF level is part of the state (state dimension
    /// 3). Off by default: the ratio already reflects the actuator, and the
    /// 8× smaller table converges within a fraction of a run — on-line
    /// learning speed is worth more than the extra Markov fidelity.
    pub include_level: bool,
    /// Discount factor of the per-core agents.
    pub gamma: f64,
    /// Learning-rate schedule, indexed by per-`(s,a)` visit count.
    pub alpha: Schedule,
    /// Exploration-rate schedule, indexed by per-core decision count.
    pub epsilon: Schedule,
    /// λ — reward penalty per unit of relative local budget overshoot.
    pub overshoot_penalty: f64,
    /// Epochs between coarse-grain global budget reallocations.
    pub realloc_period: u64,
    /// Smoothing gain of each reallocation, in `(0, 1]` (1 = jump straight
    /// to the new allocation).
    pub realloc_gain: f64,
    /// Minimum per-core budget as a fraction of the fair share `B/n`.
    pub min_share: f64,
    /// Optional thermal cap: when set, per-core rewards are additionally
    /// penalised for die temperatures above this limit, so the learned
    /// policy avoids hot spots as well as budget violations (the natural
    /// OD-RL extension to joint power/thermal management).
    pub thermal_limit: Option<f64>,
    /// Weight of the thermal penalty per 10 °C of excess (only used when
    /// `thermal_limit` is set).
    pub thermal_penalty: f64,
    /// Which TD update to apply.
    pub algorithm: Algorithm,
    /// Q-table memory layout of the per-core agents. The default
    /// [`QTableLayout::Scalar`] keeps the historical `f64` tables (and
    /// bit-identical goldens); [`QTableLayout::Quantized`] stores banked
    /// `i16` fixed-point rows with a shared per-row scale, halving Q-scan
    /// cache traffic at a bounded (tested) policy-drift cost.
    #[serde(default)]
    pub layout: QTableLayout,
    /// How the per-core select/update loop executes. Per-core exploration
    /// RNG streams make every setting bit-identical; the default is
    /// [`Parallelism::Serial`].
    #[serde(default)]
    pub parallelism: Parallelism,
    /// Controller-side sensor watchdog and graceful-degradation policy
    /// (see [`WatchdogConfig`]). Disabled by default so fault-free runs
    /// reproduce earlier releases bit-for-bit.
    #[serde(default)]
    pub watchdog: WatchdogConfig,
    /// Structured tracing and metrics (see `odrl-obs`). Off by default:
    /// a disabled controller allocates no rings and the hot path costs
    /// one branch per recording site.
    #[serde(default)]
    pub obs: ObsConfig,
    /// Seed for the exploration randomness, for controllers built with
    /// `OdRlController::new`. A run assembled by `odrl_fleet::RunBuilder`
    /// replaces it with a seed derived from the scenario seed.
    pub seed: u64,
}

impl Default for OdRlConfig {
    fn default() -> Self {
        Self {
            power_bins: 8,
            mem_bins: 4,
            include_level: false,
            gamma: 0.5,
            alpha: Schedule::InverseTime {
                initial: 0.9,
                floor: 0.05,
            },
            epsilon: Schedule::Exponential {
                initial: 0.5,
                rate: 5e-3,
                floor: 0.05,
            },
            overshoot_penalty: 2.0,
            realloc_period: 10,
            realloc_gain: 0.3,
            min_share: 0.25,
            thermal_limit: None,
            thermal_penalty: 2.0,
            algorithm: Algorithm::QLearning,
            layout: QTableLayout::default(),
            parallelism: Parallelism::Serial,
            watchdog: WatchdogConfig::default(),
            obs: ObsConfig::default(),
            seed: 0,
        }
    }
}

impl OdRlConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::InvalidConfig`] for zero bin counts, `gamma`
    /// outside `[0, 1)`, a non-positive penalty, `realloc_gain` outside
    /// `(0, 1]`, or `min_share` outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), OdRlError> {
        if self.power_bins == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "power_bins",
                reason: "must be at least 1".into(),
            });
        }
        if self.mem_bins == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "mem_bins",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.gamma.is_finite() && (0.0..1.0).contains(&self.gamma)) {
            return Err(OdRlError::InvalidConfig {
                field: "gamma",
                reason: format!("must be in [0, 1), got {}", self.gamma),
            });
        }
        if !(self.overshoot_penalty.is_finite() && self.overshoot_penalty >= 0.0) {
            return Err(OdRlError::InvalidConfig {
                field: "overshoot_penalty",
                reason: format!("must be non-negative, got {}", self.overshoot_penalty),
            });
        }
        if self.realloc_period == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "realloc_period",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.realloc_gain.is_finite() && self.realloc_gain > 0.0 && self.realloc_gain <= 1.0) {
            return Err(OdRlError::InvalidConfig {
                field: "realloc_gain",
                reason: format!("must be in (0, 1], got {}", self.realloc_gain),
            });
        }
        if !(self.min_share.is_finite() && self.min_share > 0.0 && self.min_share <= 1.0) {
            return Err(OdRlError::InvalidConfig {
                field: "min_share",
                reason: format!("must be in (0, 1], got {}", self.min_share),
            });
        }
        if let Some(limit) = self.thermal_limit {
            if !(limit.is_finite() && limit > 0.0) {
                return Err(OdRlError::InvalidConfig {
                    field: "thermal_limit",
                    reason: format!("must be finite and positive, got {limit}"),
                });
            }
        }
        if !(self.thermal_penalty.is_finite() && self.thermal_penalty >= 0.0) {
            return Err(OdRlError::InvalidConfig {
                field: "thermal_penalty",
                reason: format!("must be non-negative, got {}", self.thermal_penalty),
            });
        }
        self.watchdog.validate()?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field setup reads better in tests
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        OdRlConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_bins() {
        let mut c = OdRlConfig::default();
        c.power_bins = 0;
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.mem_bins = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_gamma_and_penalty() {
        let mut c = OdRlConfig::default();
        c.gamma = 1.0;
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.overshoot_penalty = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn thermal_limit_validation() {
        let mut c = OdRlConfig::default();
        c.thermal_limit = Some(85.0);
        assert!(c.validate().is_ok());
        c.thermal_limit = Some(-5.0);
        assert!(c.validate().is_err());
        c.thermal_limit = Some(f64::NAN);
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.thermal_penalty = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_watchdog_parameters() {
        let mut c = OdRlConfig::default();
        c.watchdog.margin = 2.0;
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.watchdog.stale_epochs = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_reallocation_parameters() {
        let mut c = OdRlConfig::default();
        c.realloc_period = 0;
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.realloc_gain = 0.0;
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.realloc_gain = 1.5;
        assert!(c.validate().is_err());
        let mut c = OdRlConfig::default();
        c.min_share = 0.0;
        assert!(c.validate().is_err());
    }
}
