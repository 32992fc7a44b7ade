//! The composable run builder: one entry point for every closed-loop
//! configuration the harnesses used to assemble by hand.
//!
//! `RunBuilder::new(scenario)` then chain what the run needs — a
//! controller, a fault plan, the watchdog, structured tracing, a warm
//! start, a parallelism override — and finish with
//! [`RunBuilder::build_chip`] (one system + controller pair) or
//! [`RunBuilder::build_fleet`] (N chips under the rack arbiter).
//!
//! The builder is a thin front over [`FleetConfig`], the one run
//! description, and both builds assemble their chips through the same
//! path (`FleetConfig::assemble_chip`): a chip run *is* chip 0 of a
//! one-chip fleet, with the same seeds, tracing, diagnostics, watchdog
//! and fault wiring. Every seed derives from the scenario seed (see
//! `FleetConfig::chip_seeds`).

use crate::config::FleetConfig;
use crate::error::FleetError;
use crate::fleet::Fleet;
use crate::scenario::{build_controller, ControllerKind, Scenario};
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, PolicySnapshot, WatchdogConfig};
use odrl_faults::FaultPlan;
use odrl_manycore::parallel::stream_seed;
use odrl_manycore::{Parallelism, System, SystemConfig};
use odrl_obs::RecorderConfig;
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

impl std::fmt::Debug for ChipRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipRun")
            .field("controller", &self.controller.name())
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// Salt separating the exploration seed tree from the system seed tree.
const ODRL_SEED_SALT: u64 = 0x0D81_5EED_0D81_5EED;

// Chip assembly, shared by `RunBuilder::build_chip` and `Fleet::new`.
impl FleetConfig {
    /// Chip `chip`'s `(system, exploration)` seeds. The scenario seed is
    /// the run's one root: the system seed is `stream_seed(seed, chip)`
    /// and the OD-RL exploration seed `stream_seed(seed ^ salt, chip)`,
    /// so every chip, and every scenario seed, draws its own streams.
    pub fn chip_seeds(&self, chip: u32) -> (u64, u64) {
        let seed = self.scenario.seed;
        (
            stream_seed(seed, u64::from(chip)),
            stream_seed(seed ^ ODRL_SEED_SALT, u64::from(chip)),
        )
    }

    /// The system configuration of chip `chip` (seeded per
    /// [`FleetConfig::chip_seeds`]), with the run's tracing (see
    /// `FleetConfig::chip_obs`).
    pub(crate) fn chip_system_config(&self, chip: u32) -> Result<SystemConfig, FleetError> {
        let scenario = Scenario {
            seed: self.chip_seeds(chip).0,
            ..self.scenario.clone()
        };
        let mut config = scenario.try_system_config()?;
        if let Some(obs) = self.chip_obs() {
            config.obs = obs;
        }
        Ok(config)
    }

    /// Loads the warm-start snapshot, if one is configured.
    pub(crate) fn load_warm_start(&self) -> Result<Option<PolicySnapshot>, FleetError> {
        self.warm_start
            .as_ref()
            .map(|path| {
                PolicySnapshot::load(path).map_err(|e| FleetError::InvalidConfig {
                    field: "warm_start",
                    reason: format!("cannot load snapshot from {}: {e}", path.display()),
                })
            })
            .transpose()
    }

    /// Assembles chip `chip` of the run under `budget`: builds the system
    /// from `system` (see [`FleetConfig::chip_system_config`]), attaches
    /// the fault plan as that fleet index, and builds the controller with
    /// the chip's exploration seed (which replaces `odrl.seed`) and the
    /// run's intra-chip parallelism, watchdog, tracing and diagnostics.
    pub(crate) fn assemble_chip(
        &self,
        chip: u32,
        system: SystemConfig,
        budget: Watts,
        warm: Option<&PolicySnapshot>,
    ) -> Result<ChipRun, FleetError> {
        let mut system = System::new(system)?;
        if let Some(plan) = &self.plan {
            system.attach_faults_for_chip(plan, chip)?;
        }
        let mut odrl = self.odrl.clone();
        odrl.parallelism = self.scenario.parallelism;
        odrl.seed = self.chip_seeds(chip).1;
        if self.watchdog {
            odrl.watchdog = WatchdogConfig::enabled();
        }
        if let Some(obs) = self.chip_obs() {
            odrl.obs = obs;
        }
        let controller =
            build_controller(self.controller, &system, budget, odrl, self.watchdog, warm)?;
        Ok(ChipRun {
            system,
            controller,
            budget,
        })
    }
}

/// Composable builder for single-chip and fleet runs: chained setters
/// over one [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct RunBuilder {
    config: FleetConfig,
}

impl RunBuilder {
    /// Starts a builder from a scenario with the [`FleetConfig::new`]
    /// defaults: OD-RL, default `OdRlConfig`, no faults, no watchdog, no
    /// tracing, and (for fleets) the default arbiter policy.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            config: FleetConfig::new(1, scenario),
        }
    }

    /// Which controller drives the run (default OD-RL).
    #[must_use]
    pub fn controller(mut self, kind: ControllerKind) -> Self {
        self.config.controller = kind;
        self
    }

    /// Explicit OD-RL configuration (ignored by baselines). Each chip's
    /// exploration seed, derived from the scenario seed, replaces
    /// `odrl.seed`; the scenario's parallelism overrides
    /// `odrl.parallelism`; and [`RunBuilder::watchdog`] /
    /// [`RunBuilder::obs`] still override the watchdog and tracing fields.
    #[must_use]
    pub fn odrl(mut self, odrl: OdRlConfig) -> Self {
        self.config.odrl = odrl;
        self
    }

    /// Attach a fault plan (chip-scoped entries apply per fleet index).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.plan = Some(plan);
        self
    }

    /// Run the OD-RL sensor watchdog and route budget messages through
    /// the plan's unreliable channel (graceful degradation on). Baselines
    /// take no degradation machinery either way.
    #[must_use]
    pub fn watchdog(mut self, watchdog: bool) -> Self {
        self.config.watchdog = watchdog;
        self
    }

    /// Enable structured tracing on the system(s) and controller(s), each
    /// ring holding at least its last `odrl_obs::RING_CAPACITY` records.
    #[must_use]
    pub fn obs(mut self, obs: bool) -> Self {
        self.config.obs = obs;
        self
    }

    /// Attach the anomaly-triggered flight recorder at rack scope (see
    /// [`FleetConfig::recorder`]). Implies tracing and learning-health
    /// diagnostics on every chip, chip builds included; only fleet builds
    /// aggregate and record. Without [`RunBuilder::obs`] the recorder is
    /// the only trace reader, so every trace ring keeps just the last one
    /// to two dump windows of epochs; add `.obs(true)` for a whole-run
    /// trace. Pass `RecorderConfig::default()` for the stock watermark
    /// rules.
    #[must_use]
    pub fn recorder(mut self, config: RecorderConfig) -> Self {
        self.config.recorder = Some(config);
        self
    }

    /// Override the scenario's intra-chip parallelism.
    #[must_use]
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.config.scenario.parallelism = par;
        self
    }

    /// Cross-chip fan-out for [`RunBuilder::build_fleet`] (ignored by
    /// [`RunBuilder::build_chip`]). Mutually exclusive with intra-chip
    /// parallelism.
    #[must_use]
    pub fn fleet_parallelism(mut self, par: Parallelism) -> Self {
        self.config.parallelism = par;
        self
    }

    /// Epochs between fleet budget reallocation rounds (fleet runs only).
    #[must_use]
    pub fn arbiter_period(mut self, period: u64) -> Self {
        self.config.arbiter_period = period;
        self
    }

    /// Arbiter blend factor toward the demand-proportional split (fleet
    /// runs only).
    #[must_use]
    pub fn arbiter_gain(mut self, gain: f64) -> Self {
        self.config.arbiter_gain = gain;
        self
    }

    /// Boot the OD-RL controller(s) from a binary `PolicySnapshot` on
    /// disk (see `odrl_core::PolicySnapshot::save`) instead of cold
    /// optimistic tables. Fleet builds import the same snapshot into every
    /// chip; only OD-RL controller kinds accept a warm start.
    #[must_use]
    pub fn warm_start<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.config.warm_start = Some(path.into());
        self
    }

    /// Builds one chip: chip 0 of a one-chip fleet (seeds, faults and
    /// tracing per that index), its controller (watchdog wiring per
    /// [`RunBuilder::watchdog`]), and the budget the scenario's fraction
    /// resolves to. The fleet-only settings are ignored and not
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] for invalid scenarios, fault plans, or
    /// controller configurations.
    pub fn build_chip(self) -> Result<ChipRun, FleetError> {
        let config = &self.config;
        let system = config.chip_system_config(0)?;
        let budget = Watts::new(config.scenario.budget_frac * system.max_power().value());
        let warm = config.load_warm_start()?;
        config.assemble_chip(0, system, budget, warm.as_ref())
    }

    /// Builds a fleet of `chips` replicas of the scenario under the rack
    /// arbiter (see [`Fleet::new`] for seeding and fault scoping).
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub fn build_fleet(mut self, chips: usize) -> Result<Fleet, FleetError> {
        self.config.chips = chips;
        Fleet::new(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Chips of one run and replicates of one cell (seeds `1..=10`, as in
    /// `odrl_bench::paired_seeds`) never share a system or an exploration
    /// stream.
    #[test]
    fn chip_seeds_are_distinct_across_chips_and_scenario_seeds() {
        let mut system = HashSet::new();
        let mut explore = HashSet::new();
        for seed in 1..=10 {
            let config = FleetConfig::new(
                4,
                Scenario {
                    seed,
                    ..Scenario::default_eval()
                },
            );
            for chip in 0..4 {
                let (s, e) = config.chip_seeds(chip);
                assert_ne!(
                    s, e,
                    "seed {seed}, chip {chip}: system and exploration collide"
                );
                assert!(
                    system.insert(s),
                    "seed {seed}, chip {chip}: system seed repeats"
                );
                assert!(
                    explore.insert(e),
                    "seed {seed}, chip {chip}: exploration seed repeats"
                );
            }
        }
    }
}
