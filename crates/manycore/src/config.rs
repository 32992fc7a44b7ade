//! System configuration and the spec controllers build against.

use crate::error::SystemError;
use crate::parallel::Parallelism;
use crate::perf::PerfModel;
use crate::sensors::SensorModel;
use crate::sync::SyncModel;
use crate::variation::VariationModel;
use odrl_noc::NocConfig;
use odrl_obs::ObsConfig;
use odrl_power::{Celsius, CorePowerModel, Seconds, VfTable, Watts};
use odrl_thermal::ThermalParams;
use odrl_workload::MixPolicy;
use serde::{Deserialize, Serialize};

/// Full configuration of a simulated many-core system.
///
/// Construct with [`SystemConfig::builder`]:
///
/// ```
/// use odrl_manycore::SystemConfig;
/// let config = SystemConfig::builder().cores(64).seed(1).build()?;
/// assert_eq!(config.cores, 64);
/// assert!(config.max_power().value() > 0.0);
/// # Ok::<(), odrl_manycore::SystemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// The per-core DVFS table (all cores share one table; each core has an
    /// independent VF domain).
    pub vf_table: VfTable,
    /// Per-core power model.
    pub power: CorePowerModel,
    /// Per-core performance model.
    pub perf: PerfModel,
    /// Thermal RC parameters.
    pub thermal: ThermalParams,
    /// Power-sensor model.
    pub sensors: SensorModel,
    /// Workload assignment policy.
    pub mix: MixPolicy,
    /// Control-epoch duration.
    pub epoch: Seconds,
    /// Thread-synchronization coupling (barrier groups).
    #[serde(default)]
    pub sync: SyncModel,
    /// Optional mesh NoC model: when set, each core's memory latency is
    /// position- and congestion-dependent instead of the flat
    /// `PerfModel::mem_latency_ns` (whose value then only calibrates the
    /// counters' memory-boundedness heuristic and the baselines'
    /// predictions — which therefore ignore congestion, as real
    /// model-based controllers do).
    #[serde(default)]
    pub noc: Option<NocConfig>,
    /// Core-to-core manufacturing process variation. The simulator applies
    /// it to the true physics; `SystemSpec` keeps the nominal models, so
    /// model-based controllers mis-predict exactly as they would on real
    /// silicon.
    #[serde(default)]
    pub variation: VariationModel,
    /// How the per-core work inside each epoch executes. Defaults to
    /// [`Parallelism::Serial`]; every setting is bit-identical (per-core RNG
    /// streams plus fixed-order reductions), so this only trades wall-clock
    /// time for worker threads.
    #[serde(default)]
    pub parallelism: Parallelism,
    /// Execution time lost by a core whenever its VF level changes
    /// (PLL relock + voltage ramp). Real transitions cost 5-50 us; the
    /// default is zero so the idealized experiments stay comparable, and
    /// the `transition-overhead` ablation turns it on.
    pub transition_penalty: Seconds,
    /// Structured tracing + metrics for the simulator side (fault edges,
    /// VF switches, epoch boundaries). Defaults to off, which costs
    /// nothing on the hot path.
    #[serde(default)]
    pub obs: ObsConfig,
    /// Master seed for workloads and sensor noise.
    pub seed: u64,
}

impl SystemConfig {
    /// Starts building a configuration with the paper-like defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// The chip's maximum sustained power: every core at the top VF level,
    /// full activity, at a hot reference temperature (80 °C).
    ///
    /// Power budgets ("x % of TDP") are expressed as fractions of this.
    pub fn max_power(&self) -> Watts {
        let top = self.vf_table.level(self.vf_table.max_level());
        let per_core = self.power.total_power(top, 1.0, Celsius::new(80.0));
        per_core * self.cores as f64
    }

    /// The immutable part controllers need: core count, VF table, models
    /// and epoch length.
    pub fn spec(&self) -> SystemSpec {
        SystemSpec {
            cores: self.cores,
            vf_table: self.vf_table.clone(),
            perf: self.perf,
            power: self.power,
            epoch: self.epoch,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] for a zero core count or a
    /// non-positive epoch, or forwards substrate validation errors.
    pub fn validate(&self) -> Result<(), SystemError> {
        if self.cores == 0 {
            return Err(SystemError::InvalidConfig {
                field: "cores",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.epoch.value().is_finite() && self.epoch.value() > 0.0) {
            return Err(SystemError::InvalidConfig {
                field: "epoch",
                reason: format!("must be finite and positive, got {}", self.epoch),
            });
        }
        let tp = self.transition_penalty.value();
        if !(tp.is_finite() && tp >= 0.0 && tp < self.epoch.value()) {
            return Err(SystemError::InvalidConfig {
                field: "transition_penalty",
                reason: format!(
                    "must be finite, non-negative and below the epoch length, got {}",
                    self.transition_penalty
                ),
            });
        }
        self.thermal.validate()?;
        self.sync.validate()?;
        self.variation.validate()?;
        Ok(())
    }
}

/// The static system description controllers are constructed against.
///
/// Baseline controllers (MaxBIPS, Steepest Drop) use the models in the spec
/// for their per-epoch predictions — the same generous assumption the
/// original papers make. OD-RL only uses `cores`, `vf_table` and `epoch`;
/// it is model-free by design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Number of cores.
    pub cores: usize,
    /// The shared DVFS table.
    pub vf_table: VfTable,
    /// The performance model (for predictive baselines).
    pub perf: PerfModel,
    /// The power model (for predictive baselines).
    pub power: CorePowerModel,
    /// Control-epoch duration.
    pub epoch: Seconds,
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    config: SystemConfig,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        Self {
            config: SystemConfig {
                cores: 64,
                vf_table: VfTable::alpha_like(),
                power: CorePowerModel::default(),
                perf: PerfModel::default(),
                thermal: ThermalParams::default(),
                sensors: SensorModel::default(),
                mix: MixPolicy::RoundRobin,
                epoch: Seconds::new(1e-3),
                sync: SyncModel::Independent,
                noc: None,
                variation: VariationModel::none(),
                parallelism: Parallelism::Serial,
                transition_penalty: Seconds::ZERO,
                obs: ObsConfig::default(),
                seed: 0,
            },
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the number of cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Sets the DVFS table.
    pub fn vf_table(mut self, table: VfTable) -> Self {
        self.config.vf_table = table;
        self
    }

    /// Sets the per-core power model.
    pub fn power(mut self, power: CorePowerModel) -> Self {
        self.config.power = power;
        self
    }

    /// Sets the performance model.
    pub fn perf(mut self, perf: PerfModel) -> Self {
        self.config.perf = perf;
        self
    }

    /// Sets the thermal parameters.
    pub fn thermal(mut self, thermal: ThermalParams) -> Self {
        self.config.thermal = thermal;
        self
    }

    /// Sets the sensor model.
    pub fn sensors(mut self, sensors: SensorModel) -> Self {
        self.config.sensors = sensors;
        self
    }

    /// Sets the workload mix policy.
    pub fn mix(mut self, mix: MixPolicy) -> Self {
        self.config.mix = mix;
        self
    }

    /// Sets the control-epoch duration.
    pub fn epoch(mut self, epoch: Seconds) -> Self {
        self.config.epoch = epoch;
        self
    }

    /// Enables the mesh NoC latency model.
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.config.noc = Some(noc);
        self
    }

    /// Sets the process-variation model.
    pub fn variation(mut self, variation: VariationModel) -> Self {
        self.config.variation = variation;
        self
    }

    /// Sets the thread-synchronization model.
    pub fn sync(mut self, sync: SyncModel) -> Self {
        self.config.sync = sync;
        self
    }

    /// Sets the epoch execution parallelism (bit-identical for any value).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the per-VF-transition execution-time penalty.
    pub fn transition_penalty(mut self, penalty: Seconds) -> Self {
        self.config.transition_penalty = penalty;
        self
    }

    /// Sets the observability (tracing + metrics) configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.config.obs = obs;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if any field fails validation.
    pub fn build(self) -> Result<SystemConfig, SystemError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = SystemConfig::builder().build().unwrap();
        assert_eq!(c.cores, 64);
        assert_eq!(c.epoch.value(), 1e-3);
    }

    #[test]
    fn transition_penalty_validation() {
        assert!(SystemConfig::builder()
            .transition_penalty(Seconds::new(10e-6))
            .build()
            .is_ok());
        assert!(SystemConfig::builder()
            .transition_penalty(Seconds::new(-1e-6))
            .build()
            .is_err());
        // Penalty must be smaller than the epoch itself.
        assert!(SystemConfig::builder()
            .transition_penalty(Seconds::new(2e-3))
            .build()
            .is_err());
    }

    #[test]
    fn rejects_zero_cores_and_bad_epoch() {
        assert!(SystemConfig::builder().cores(0).build().is_err());
        assert!(SystemConfig::builder()
            .epoch(Seconds::new(0.0))
            .build()
            .is_err());
        assert!(SystemConfig::builder()
            .epoch(Seconds::new(f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn max_power_scales_with_cores() {
        let small = SystemConfig::builder().cores(16).build().unwrap();
        let large = SystemConfig::builder().cores(64).build().unwrap();
        let ratio = large.max_power() / small.max_power();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn spec_reflects_config() {
        let c = SystemConfig::builder().cores(10).build().unwrap();
        let s = c.spec();
        assert_eq!(s.cores, 10);
        assert_eq!(s.vf_table, c.vf_table);
        assert_eq!(s.epoch, c.epoch);
    }

    #[test]
    fn default_chip_power_is_plausible() {
        // 64 cores at a few watts each: a 100-400 W many-core chip.
        let c = SystemConfig::builder().cores(64).build().unwrap();
        let p = c.max_power().value();
        assert!((100.0..500.0).contains(&p), "max power {p} W");
    }
}
