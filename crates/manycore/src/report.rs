//! Per-epoch reports and the observation interface controllers consume.

use odrl_power::{Celsius, Joules, LevelId, PowerBreakdown, Seconds, Watts};
use odrl_workload::PhaseParams;
use serde::{Deserialize, Serialize};

/// What one core did during one epoch (ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreEpoch {
    /// The VF level the core ran at.
    pub level: LevelId,
    /// Instructions per second achieved.
    pub ips: f64,
    /// Instructions retired this epoch.
    pub instructions: f64,
    /// True power drawn (dynamic + leakage).
    pub power: PowerBreakdown,
    /// Die temperature at the end of the epoch.
    pub temperature: Celsius,
    /// The workload signature the core executed (as exposed by hardware
    /// performance counters: CPI stacks and LLC-miss counters).
    pub counters: PhaseParams,
}

/// Everything that happened in one control epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Epoch duration.
    pub dt: Seconds,
    /// Per-core details.
    pub cores: Vec<CoreEpoch>,
    /// True total chip power.
    pub total_power: Watts,
    /// Total chip power as read through the sensor model (what controllers
    /// see).
    pub measured_power: Watts,
    /// Energy consumed this epoch.
    pub energy: Joules,
}

impl EpochReport {
    /// Total instructions retired across all cores this epoch.
    pub fn total_instructions(&self) -> f64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate throughput in instructions per second.
    pub fn throughput_ips(&self) -> f64 {
        self.cores.iter().map(|c| c.ips).sum()
    }

    /// Hottest core temperature this epoch.
    pub fn max_temperature(&self) -> Celsius {
        self.cores
            .iter()
            .map(|c| c.temperature)
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }
}

/// What one core's sensors expose to a controller at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreObservation {
    /// Current VF level.
    pub level: LevelId,
    /// Measured instructions per second over the last epoch.
    pub ips: f64,
    /// Measured core power over the last epoch.
    pub power: Watts,
    /// Measured die temperature.
    pub temperature: Celsius,
    /// Counter-derived workload signature over the last epoch.
    pub counters: PhaseParams,
}

impl CoreObservation {
    /// Memory-boundedness of the last epoch's workload, in `[0, 1]`.
    #[inline]
    pub fn memory_boundedness(&self) -> f64 {
        self.counters.memory_boundedness()
    }
}

/// The full chip-level observation a controller decides from.
///
/// This is deliberately restricted to quantities real hardware exposes:
/// per-core counters, per-core power estimates, temperatures, and the
/// chip-level power reading. Controllers must not see the workload's future
/// or the simulator's internal phase state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Index of the epoch about to execute.
    pub epoch: u64,
    /// Duration of the upcoming epoch.
    pub dt: Seconds,
    /// The chip-level power budget (TDP cap) currently in force.
    pub budget: Watts,
    /// Per-core sensor data from the last completed epoch.
    pub cores: Vec<CoreObservation>,
    /// Measured total chip power over the last epoch.
    pub total_power: Watts,
}

impl Observation {
    /// Number of cores observed.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_epoch(ips: f64, instr: f64, temp: f64) -> CoreEpoch {
        CoreEpoch {
            level: LevelId(3),
            ips,
            instructions: instr,
            power: PowerBreakdown {
                dynamic: Watts::new(1.0),
                leakage: Watts::new(0.5),
            },
            temperature: Celsius::new(temp),
            counters: PhaseParams::new(1.0, 2.0, 0.8).unwrap(),
        }
    }

    #[test]
    fn report_aggregates() {
        let r = EpochReport {
            epoch: 0,
            dt: Seconds::new(1e-3),
            cores: vec![core_epoch(1e9, 1e6, 70.0), core_epoch(2e9, 2e6, 75.0)],
            total_power: Watts::new(3.0),
            measured_power: Watts::new(3.1),
            energy: Joules::new(3e-3),
        };
        assert_eq!(r.total_instructions(), 3e6);
        assert_eq!(r.throughput_ips(), 3e9);
        assert_eq!(r.max_temperature().value(), 75.0);
    }

    #[test]
    fn core_observation_memory_boundedness_in_range() {
        let c = CoreObservation {
            level: LevelId(0),
            ips: 1e9,
            power: Watts::new(1.0),
            temperature: Celsius::new(60.0),
            counters: PhaseParams::new(1.0, 15.0, 0.6).unwrap(),
        };
        let mb = c.memory_boundedness();
        assert!((0.0..=1.0).contains(&mb));
        assert!(mb > 0.3);
    }
}
