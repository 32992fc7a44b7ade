//! **OD-RL** — On-line Distributed Reinforcement Learning DVFS control for
//! power-limited many-core systems.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Distributed reinforcement learning for power limited many-core system
//! performance optimization"* (Zhuo Chen and Diana Marculescu, DATE 2015):
//!
//! * at the **finer grain**, a per-core tabular Q-learning agent
//!   ([`controller::OdRlController`]) learns the optimal VF-level control
//!   policy completely model-free, from (power, counters, budget-share)
//!   observations and a throughput-minus-overshoot reward
//!   ([`reward::RewardShaper`], [`state::StateEncoder`]);
//! * at the **coarser grain**, an efficient O(n) global power-budget
//!   reallocation ([`budget::BudgetAllocator`]) shifts watts toward the
//!   cores with the highest observed marginal throughput per watt.
//!
//! The controller implements
//! [`PowerController`](odrl_controllers::PowerController), so it is
//! drop-in comparable with the MaxBIPS / Steepest Drop / PID baselines in
//! `odrl-controllers`.
//!
//! # Example
//!
//! ```
//! use odrl_core::{OdRlConfig, OdRlController};
//! use odrl_controllers::PowerController;
//! use odrl_manycore::{System, SystemConfig};
//! use odrl_power::Watts;
//!
//! let config = SystemConfig::builder().cores(32).seed(1).build()?;
//! let budget = Watts::new(0.6 * config.max_power().value());
//! let mut system = System::new(config)?;
//! let mut controller = OdRlController::new(OdRlConfig::default(), &system.spec(), budget)?;
//!
//! for _ in 0..100 {
//!     let obs = system.observation(budget);
//!     let actions = controller.decide(&obs);
//!     system.step(&actions)?;
//! }
//! // The agents have explored part of their state space by now.
//! assert!(controller.coverage() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod config;
pub mod controller;
pub mod error;
pub mod hierarchy;
pub mod obs;
pub mod reward;
pub mod state;
pub mod watchdog;

pub use budget::{AllocScratch, BudgetAllocator};
pub use config::OdRlConfig;
pub use controller::{OdRlController, PolicySnapshot};
pub use error::OdRlError;
pub use hierarchy::HierarchicalOdRl;
pub use obs::CtrlTracer;
pub use odrl_rl::QTableLayout;
pub use reward::RewardShaper;
pub use state::StateEncoder;
pub use watchdog::{SensorWatchdog, WatchdogConfig};
