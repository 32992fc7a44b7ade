//! The composable run builder: one entry point for every closed-loop
//! configuration the harnesses used to assemble by hand.
//!
//! `RunBuilder::new(scenario)` then chain what the run needs — a
//! controller, a fault plan, the watchdog, structured tracing, a warm
//! start, a parallelism override — and finish with
//! [`RunBuilder::build_chip`] (one system + controller pair) or
//! [`RunBuilder::build_fleet`] (N chips under the rack arbiter).

use crate::config::FleetConfig;
use crate::error::FleetError;
use crate::fleet::Fleet;
use crate::scenario::{build_controller, ControllerKind, Scenario};
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, WatchdogConfig};
use odrl_faults::FaultPlan;
use odrl_manycore::{Parallelism, System};
use odrl_core::PolicySnapshot;
use odrl_obs::{ObsConfig, RecorderConfig};
use odrl_power::Watts;
use std::path::PathBuf;

/// A ready-to-run chip: the system, its controller, and the budget the
/// scenario's fraction resolved to. Feed to a run loop (e.g.
/// `odrl_bench::run_loop`).
pub struct ChipRun {
    /// The simulator.
    pub system: System,
    /// The controller under test.
    pub controller: Box<dyn PowerController + Send>,
    /// The chip power budget.
    pub budget: Watts,
}

impl ChipRun {
    /// Splits into the `(system, controller, budget)` triple the legacy
    /// bench helpers returned.
    pub fn into_parts(self) -> (System, Box<dyn PowerController + Send>, Watts) {
        (self.system, self.controller, self.budget)
    }
}

impl std::fmt::Debug for ChipRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipRun")
            .field("controller", &self.controller.name())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// Composable builder for single-chip and fleet runs.
#[derive(Debug, Clone)]
pub struct RunBuilder {
    scenario: Scenario,
    kind: ControllerKind,
    odrl: OdRlConfig,
    plan: Option<FaultPlan>,
    watchdog: bool,
    obs: bool,
    recorder: Option<RecorderConfig>,
    arbiter_period: u64,
    arbiter_gain: f64,
    min_share: f64,
    demand_smoothing: f64,
    fleet_parallelism: Parallelism,
    warm_start: Option<PathBuf>,
}

impl RunBuilder {
    /// Starts a builder from a scenario, with the defaults the legacy
    /// helpers used: OD-RL, default `OdRlConfig`, no faults, no watchdog,
    /// no tracing, and (for fleets) the [`FleetConfig::new`] arbiter
    /// policy.
    pub fn new(scenario: Scenario) -> Self {
        let defaults = FleetConfig::new(1, scenario);
        Self {
            scenario: defaults.scenario,
            kind: defaults.controller,
            odrl: defaults.odrl,
            plan: None,
            watchdog: false,
            obs: false,
            recorder: None,
            arbiter_period: defaults.arbiter_period,
            arbiter_gain: defaults.arbiter_gain,
            min_share: defaults.min_share,
            demand_smoothing: defaults.demand_smoothing,
            fleet_parallelism: Parallelism::Serial,
            warm_start: None,
        }
    }

    /// Which controller drives the run (default OD-RL).
    #[must_use]
    pub fn controller(mut self, kind: ControllerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Explicit OD-RL configuration (ignored by baselines). The scenario's
    /// parallelism still overrides `odrl.parallelism`, and
    /// [`RunBuilder::watchdog`] / [`RunBuilder::obs`] still override the
    /// watchdog and tracing fields.
    #[must_use]
    pub fn odrl(mut self, odrl: OdRlConfig) -> Self {
        self.odrl = odrl;
        self
    }

    /// Attach a fault plan (chip-scoped entries apply per fleet index).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Run the OD-RL sensor watchdog and route budget messages through
    /// the plan's unreliable channel (graceful degradation on). Baselines
    /// take no degradation machinery either way.
    #[must_use]
    pub fn watchdog(mut self, watchdog: bool) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Enable structured tracing on the system(s) and controller(s).
    #[must_use]
    pub fn obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Attach the anomaly-triggered flight recorder at rack scope (fleet
    /// builds only). Implies [`RunBuilder::obs`] and learning-health
    /// diagnostics (TD-error / Q-span / visit-spread summaries,
    /// exploration rate, quantized-storage health), which on fleet builds
    /// aggregate per-chip snapshots into rack-level `FleetMetrics`. Pass
    /// `RecorderConfig::default()` for the stock watermark rules.
    #[must_use]
    pub fn recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self.obs = true;
        self
    }

    /// Override the scenario's intra-chip parallelism.
    #[must_use]
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.scenario.parallelism = par;
        self
    }

    /// Cross-chip fan-out for [`RunBuilder::build_fleet`] (ignored by
    /// [`RunBuilder::build_chip`]). Mutually exclusive with intra-chip
    /// parallelism.
    #[must_use]
    pub fn fleet_parallelism(mut self, par: Parallelism) -> Self {
        self.fleet_parallelism = par;
        self
    }

    /// Epochs between fleet budget reallocation rounds (fleet runs only).
    #[must_use]
    pub fn arbiter_period(mut self, period: u64) -> Self {
        self.arbiter_period = period;
        self
    }

    /// Arbiter blend factor toward the demand-proportional split (fleet
    /// runs only).
    #[must_use]
    pub fn arbiter_gain(mut self, gain: f64) -> Self {
        self.arbiter_gain = gain;
        self
    }

    /// Boot the OD-RL controller(s) from a binary `PolicySnapshot` on
    /// disk (see `odrl_core::PolicySnapshot::save`) instead of cold
    /// optimistic tables. Fleet builds import the same snapshot into every
    /// chip; only OD-RL controller kinds accept a warm start.
    #[must_use]
    pub fn warm_start<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.warm_start = Some(path.into());
        self
    }

    /// Builds one chip: system (faults attached as chip 0, tracing per
    /// [`RunBuilder::obs`]), controller (watchdog wiring per
    /// [`RunBuilder::watchdog`]), and the resolved budget.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] for invalid scenarios, fault plans, or
    /// controller configurations.
    pub fn build_chip(self) -> Result<ChipRun, FleetError> {
        let mut config = self.scenario.try_system_config()?;
        if self.obs {
            config.obs = ObsConfig::enabled();
        }
        let budget = Watts::new(self.scenario.budget_frac * config.max_power().value());
        let mut system = System::new(config)?;
        if let Some(plan) = &self.plan {
            system.attach_faults(plan)?;
        }
        let mut odrl = self.odrl;
        odrl.parallelism = self.scenario.parallelism;
        if self.watchdog {
            odrl.watchdog = WatchdogConfig::enabled();
        }
        if self.recorder.is_some() {
            odrl.obs = ObsConfig::with_diagnostics();
        } else if self.obs {
            odrl.obs = ObsConfig::enabled();
        }
        let warm = self
            .warm_start
            .as_ref()
            .map(|path| {
                PolicySnapshot::load(path).map_err(|e| FleetError::InvalidConfig {
                    field: "warm_start",
                    reason: format!("cannot load snapshot from {}: {e}", path.display()),
                })
            })
            .transpose()?;
        let controller =
            build_controller(self.kind, &system, budget, odrl, self.watchdog, warm.as_ref())?;
        Ok(ChipRun {
            system,
            controller,
            budget,
        })
    }

    /// Builds a fleet of `chips` replicas of the scenario under the rack
    /// arbiter (see [`Fleet::new`] for seeding and fault scoping).
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub fn build_fleet(self, chips: usize) -> Result<Fleet, FleetError> {
        let config = FleetConfig {
            chips,
            scenario: self.scenario,
            controller: self.kind,
            odrl: self.odrl,
            plan: self.plan,
            watchdog: self.watchdog,
            obs: self.obs,
            diag: self.recorder.is_some(),
            recorder: self.recorder,
            arbiter_period: self.arbiter_period,
            arbiter_gain: self.arbiter_gain,
            min_share: self.min_share,
            demand_smoothing: self.demand_smoothing,
            parallelism: self.fleet_parallelism,
            warm_start: self.warm_start,
        };
        Fleet::new(config)
    }
}
