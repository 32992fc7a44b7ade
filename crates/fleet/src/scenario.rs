//! Run descriptions: [`Scenario`] (one chip's size, workload, budget and
//! length) and [`ControllerKind`] (which controller drives it).
//!
//! Both moved here from `odrl-bench` with the fleet API redesign:
//! scenarios now feed the composable [`RunBuilder`](crate::RunBuilder)
//! instead of ad-hoc `build_*` free functions, and the same description
//! replicates across every chip of a [`Fleet`](crate::Fleet).

use crate::error::FleetError;
use odrl_controllers::{
    MaxBips, MaxBipsMode, OndemandGovernor, OndemandTuning, PidController, PidGains,
    PowerController, PriorityGreedy, StaticUniform, SteepestDrop,
};
use odrl_core::{HierarchicalOdRl, OdRlConfig, OdRlController, PolicySnapshot};
use odrl_manycore::{Parallelism, System, SystemConfig, SystemError, SystemSpec};
use odrl_power::Watts;
use odrl_workload::MixPolicy;
use std::fmt;

/// One experiment run: system size, workload, budget and length.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of cores.
    pub cores: usize,
    /// Chip power budget as a fraction of `SystemConfig::max_power()`.
    pub budget_frac: f64,
    /// Number of control epochs.
    pub epochs: u64,
    /// Workload assignment.
    pub mix: MixPolicy,
    /// Master seed: the one root of the run's randomness. Chip `k` derives
    /// its system and OD-RL exploration seeds from it.
    pub seed: u64,
    /// How the per-core work *inside* each epoch executes (forwarded to
    /// [`SystemConfig`] and [`OdRlConfig`]). Bit-identical at every setting;
    /// orthogonal to the cross-run fan-out of the bench harness and to the
    /// cross-chip fan-out of a [`Fleet`](crate::Fleet).
    pub parallelism: Parallelism,
}

/// Why a [`Scenario`] could not be turned into a runnable configuration.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioError {
    /// `budget_frac` is not a finite, non-negative number.
    BudgetFraction(f64),
    /// The underlying system configuration failed validation.
    Config(SystemError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetFraction(v) => {
                write!(f, "budget fraction {v} is not a finite non-negative number")
            }
            Self::Config(e) => write!(f, "invalid system configuration: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::BudgetFraction(_) => None,
            Self::Config(e) => Some(e),
        }
    }
}

impl From<SystemError> for ScenarioError {
    fn from(e: SystemError) -> Self {
        Self::Config(e)
    }
}

impl Scenario {
    /// The evaluation's default setting: 64 cores, 60 % budget, mixed
    /// workload, 2 000 ms of simulated time.
    pub fn default_eval() -> Self {
        Self {
            cores: 64,
            budget_frac: 0.6,
            epochs: 2_000,
            mix: MixPolicy::RoundRobin,
            seed: 1,
            parallelism: Parallelism::Serial,
        }
    }

    /// Builds the system configuration for this scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the parameters do not describe a
    /// runnable system (zero cores, malformed budget fraction, ...), so
    /// CLI- or JSON-sourced scenarios surface as errors instead of panics.
    pub fn try_system_config(&self) -> Result<SystemConfig, ScenarioError> {
        if !self.budget_frac.is_finite() || self.budget_frac < 0.0 {
            return Err(ScenarioError::BudgetFraction(self.budget_frac));
        }
        SystemConfig::builder()
            .cores(self.cores)
            .mix(self.mix.clone())
            .seed(self.seed)
            .parallelism(self.parallelism)
            .build()
            .map_err(ScenarioError::from)
    }
}

/// The controllers under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControllerKind {
    /// The paper's contribution (fine + coarse grain).
    OdRl,
    /// Ablation: per-core RL without global reallocation.
    OdRlLocal,
    /// MaxBIPS with the knapsack-DP solver.
    MaxBipsDp,
    /// MaxBIPS with exhaustive search (≤ 10 cores).
    MaxBipsExhaustive,
    /// Greedy steepest drop.
    SteepestDrop,
    /// Chip-level PID capping.
    Pid,
    /// Static worst-case provisioning.
    StaticUniform,
    /// Priority-greedy budget hand-out.
    PriorityGreedy,
    /// Linux-ondemand-style utilization governor (budget-oblivious).
    Ondemand,
    /// Hierarchical OD-RL: per-cluster controllers (16 cores each) under a
    /// top-level budget reallocator.
    OdRlHier,
}

impl ControllerKind {
    /// The four-way comparison the headline tables use.
    pub fn headline_set() -> Vec<ControllerKind> {
        vec![
            ControllerKind::OdRl,
            ControllerKind::MaxBipsDp,
            ControllerKind::SteepestDrop,
            ControllerKind::Pid,
        ]
    }

    /// Short display name (matches each controller's `name()`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::OdRl => "od-rl",
            Self::OdRlLocal => "od-rl-local",
            Self::MaxBipsDp => "maxbips-dp",
            Self::MaxBipsExhaustive => "maxbips-exhaustive",
            Self::SteepestDrop => "steepest-drop",
            Self::Pid => "pid",
            Self::StaticUniform => "static-uniform",
            Self::PriorityGreedy => "priority-greedy",
            Self::Ondemand => "ondemand",
            Self::OdRlHier => "od-rl-hier",
        }
    }

    /// Instantiates the controller for a spec and budget.
    ///
    /// # Panics
    ///
    /// Panics if construction fails (e.g. exhaustive MaxBIPS on too many
    /// cores) — experiment harnesses pass vetted sizes.
    pub fn build(&self, spec: &SystemSpec, budget: Watts) -> Box<dyn PowerController> {
        self.try_instantiate(spec, budget, OdRlConfig::default())
            .expect("valid controller configuration")
    }

    /// Instantiates the controller, surfacing construction failures as
    /// [`FleetError`] instead of panicking (the `?`-friendly path
    /// [`RunBuilder`](crate::RunBuilder) and [`Fleet`](crate::Fleet) use).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Controller`] when an OD-RL variant rejects
    /// its configuration and [`FleetError::InvalidConfig`] when a baseline
    /// rejects the spec (e.g. exhaustive MaxBIPS on too many cores).
    pub fn try_instantiate(
        &self,
        spec: &SystemSpec,
        budget: Watts,
        odrl: OdRlConfig,
    ) -> Result<Box<dyn PowerController + Send>, FleetError> {
        let baseline = |e: odrl_controllers::ControllerError| FleetError::InvalidConfig {
            field: "controller",
            reason: e.to_string(),
        };
        Ok(match self {
            Self::OdRl => Box::new(OdRlController::new(odrl, spec, budget)?),
            Self::OdRlLocal => Box::new(OdRlController::without_reallocation(odrl, spec, budget)?),
            Self::MaxBipsDp => Box::new(MaxBips::dp(spec.clone()).map_err(baseline)?),
            Self::MaxBipsExhaustive => {
                Box::new(MaxBips::new(spec.clone(), MaxBipsMode::Exhaustive).map_err(baseline)?)
            }
            Self::SteepestDrop => Box::new(SteepestDrop::new(spec.clone()).map_err(baseline)?),
            Self::Pid => {
                Box::new(PidController::new(spec.clone(), PidGains::default()).map_err(baseline)?)
            }
            Self::StaticUniform => {
                Box::new(StaticUniform::for_budget(spec.clone(), budget).map_err(baseline)?)
            }
            Self::PriorityGreedy => Box::new(PriorityGreedy::new(spec.clone()).map_err(baseline)?),
            Self::Ondemand => Box::new(
                OndemandGovernor::new(spec.clone(), OndemandTuning::default()).map_err(baseline)?,
            ),
            Self::OdRlHier => Box::new(HierarchicalOdRl::new(odrl, spec, budget, 16)?),
        })
    }
}

/// Builds the controller for an already-built system, wiring the OD-RL
/// watchdog path: with `watchdog` set, OD-RL variants run their sensor
/// watchdog and route budget messages through the system's attached fault
/// engine (graceful degradation on); baselines take no degradation
/// machinery either way — they simply suffer the faults. With `warm` set,
/// OD-RL variants boot from the given Q-table snapshot instead of the
/// optimistic cold tables (other kinds have no tables to restore and
/// reject the request).
pub(crate) fn build_controller(
    kind: ControllerKind,
    system: &System,
    budget: Watts,
    odrl: OdRlConfig,
    watchdog: bool,
    warm: Option<&PolicySnapshot>,
) -> Result<Box<dyn PowerController + Send>, FleetError> {
    match kind {
        ControllerKind::OdRl | ControllerKind::OdRlLocal if watchdog || warm.is_some() => {
            let mut c = if kind == ControllerKind::OdRlLocal {
                OdRlController::without_reallocation(odrl, &system.spec(), budget)
            } else {
                OdRlController::new(odrl, &system.spec(), budget)
            }?;
            if watchdog {
                if let Some(engine) = system.fault_engine() {
                    c.attach_budget_faults(engine)?;
                }
            }
            if let Some(snap) = warm {
                c.import_policy(snap.clone())?;
            }
            Ok(Box::new(c))
        }
        _ if warm.is_some() => Err(FleetError::InvalidConfig {
            field: "warm_start",
            reason: format!(
                "controller {} cannot boot from a Q-table snapshot",
                kind.label()
            ),
        }),
        _ => kind.try_instantiate(&system.spec(), budget, odrl),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            cores: 8,
            budget_frac: 0.6,
            epochs: 50,
            mix: MixPolicy::RoundRobin,
            seed: 3,
            parallelism: Parallelism::Serial,
        }
    }

    #[test]
    fn invalid_scenarios_surface_as_errors() {
        let mut s = tiny_scenario();
        s.cores = 0;
        assert!(matches!(
            s.try_system_config(),
            Err(ScenarioError::Config(_))
        ));
        let mut s = tiny_scenario();
        s.budget_frac = f64::NAN;
        assert!(matches!(
            s.try_system_config(),
            Err(ScenarioError::BudgetFraction(_))
        ));
        let mut s = tiny_scenario();
        s.budget_frac = -0.3;
        let err = s.try_system_config().unwrap_err();
        assert!(err.to_string().contains("budget fraction"));
        assert!(tiny_scenario().try_system_config().is_ok());
    }

    #[test]
    fn try_instantiate_surfaces_baseline_failures() {
        // Exhaustive MaxBIPS refuses large systems: the fallible path must
        // report that as an error, not a panic.
        let config = tiny_scenario().try_system_config().unwrap();
        let mut big = tiny_scenario();
        big.cores = 64;
        let big_config = big.try_system_config().unwrap();
        let system = System::new(big_config).unwrap();
        let r = ControllerKind::MaxBipsExhaustive.try_instantiate(
            &system.spec(),
            Watts::new(10.0),
            OdRlConfig::default(),
        );
        assert!(matches!(r, Err(FleetError::InvalidConfig { .. })));
        // And the happy path still constructs every headline controller.
        let system = System::new(config).unwrap();
        for kind in ControllerKind::headline_set() {
            assert!(kind
                .try_instantiate(&system.spec(), Watts::new(10.0), OdRlConfig::default())
                .is_ok());
        }
    }
}
