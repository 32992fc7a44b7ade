//! Run telemetry: aggregate counters and optional per-epoch series.

use crate::report::EpochReport;
use odrl_power::{Celsius, Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One row of the recorded per-epoch series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySample {
    /// Epoch index.
    pub epoch: u64,
    /// Simulated time at the end of the epoch.
    pub time: Seconds,
    /// True total chip power.
    pub power: Watts,
    /// Aggregate throughput (instructions per second).
    pub throughput_ips: f64,
    /// Hottest core temperature.
    pub max_temperature: Celsius,
}

/// Aggregated statistics of a run, optionally with the full per-epoch
/// series for plotting.
///
/// Budget-aware metrics (overshoot, throughput per over-budget energy) live
/// in `odrl-metrics`; telemetry only tracks budget-independent ground truth.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    total_instructions: f64,
    total_energy: Joules,
    elapsed: Seconds,
    epochs: u64,
    peak_power: Watts,
    peak_temperature: Celsius,
    record_series: bool,
    /// Record every Nth epoch into the series (0 and 1 both mean every
    /// epoch). Aggregates are never decimated — only the plotting series.
    #[serde(default)]
    decimate: u64,
    series: Vec<TelemetrySample>,
}

impl Telemetry {
    /// Creates telemetry that keeps aggregates only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates telemetry that records every `every_n`-th epoch into the
    /// series (`0` and `1` both mean every epoch), bounding series memory
    /// for long-horizon runs to `epochs / every_n` samples. Aggregates
    /// (instructions, energy, peaks, rates) are computed from every epoch
    /// regardless of decimation.
    pub fn with_series_decimated(every_n: u64) -> Self {
        Self {
            record_series: true,
            decimate: every_n,
            ..Self::default()
        }
    }

    /// Folds one epoch report into the aggregates.
    pub fn record(&mut self, report: &EpochReport) {
        self.total_instructions += report.total_instructions();
        self.total_energy += report.energy;
        self.elapsed += report.dt;
        self.epochs += 1;
        self.peak_power = self.peak_power.max(report.total_power);
        self.peak_temperature = self.peak_temperature.max(report.max_temperature());
        if self.record_series && report.epoch.is_multiple_of(self.decimate.max(1)) {
            self.series.push(TelemetrySample {
                epoch: report.epoch,
                time: self.elapsed,
                power: report.total_power,
                throughput_ips: report.throughput_ips(),
                max_temperature: report.max_temperature(),
            });
        }
    }

    /// Total instructions retired across all cores and epochs.
    pub fn total_instructions(&self) -> f64 {
        self.total_instructions
    }

    /// Total energy consumed.
    pub fn total_energy(&self) -> Joules {
        self.total_energy
    }

    /// Simulated wall-clock time covered.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Number of epochs recorded.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Highest total chip power seen.
    pub fn peak_power(&self) -> Watts {
        self.peak_power
    }

    /// Highest core temperature seen.
    pub fn peak_temperature(&self) -> Celsius {
        self.peak_temperature
    }

    /// Mean throughput in instructions per second over the whole run.
    pub fn average_throughput_ips(&self) -> f64 {
        if self.elapsed.value() <= 0.0 {
            0.0
        } else {
            self.total_instructions / self.elapsed.value()
        }
    }

    /// Overall energy efficiency in instructions per joule.
    pub fn instructions_per_joule(&self) -> f64 {
        if self.total_energy.value() <= 0.0 {
            0.0
        } else {
            self.total_instructions / self.total_energy.value()
        }
    }

    /// The recorded per-epoch series (empty unless built
    /// [`Telemetry::with_series_decimated`]).
    pub fn series(&self) -> &[TelemetrySample] {
        &self.series
    }

    /// Renders the series as CSV (`epoch,time_s,power_w,throughput_ips,max_temp_c`).
    pub fn series_csv(&self) -> String {
        let mut out = String::from("epoch,time_s,power_w,throughput_ips,max_temp_c\n");
        for s in &self.series {
            out.push_str(&format!(
                "{},{:.6},{:.3},{:.3e},{:.2}\n",
                s.epoch,
                s.time.value(),
                s.power.value(),
                s.throughput_ips,
                s.max_temperature.value()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CoreEpoch;
    use odrl_power::{LevelId, PowerBreakdown};
    use odrl_workload::PhaseParams;

    fn report(epoch: u64, power: f64, instr: f64) -> EpochReport {
        EpochReport {
            epoch,
            dt: Seconds::new(1e-3),
            cores: vec![CoreEpoch {
                level: LevelId(0),
                ips: instr / 1e-3,
                instructions: instr,
                power: PowerBreakdown {
                    dynamic: Watts::new(power),
                    leakage: Watts::ZERO,
                },
                temperature: Celsius::new(60.0 + epoch as f64),
                counters: PhaseParams::new(1.0, 1.0, 1.0).unwrap(),
            }],
            total_power: Watts::new(power),
            measured_power: Watts::new(power),
            energy: Joules::new(power * 1e-3),
        }
    }

    #[test]
    fn aggregates_accumulate() {
        let mut t = Telemetry::new();
        t.record(&report(0, 10.0, 1e6));
        t.record(&report(1, 20.0, 2e6));
        assert_eq!(t.total_instructions(), 3e6);
        assert!((t.total_energy().value() - 0.03).abs() < 1e-12);
        assert_eq!(t.epochs(), 2);
        assert_eq!(t.peak_power().value(), 20.0);
        assert_eq!(t.peak_temperature().value(), 61.0);
        assert!((t.elapsed().value() - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn derived_rates() {
        let mut t = Telemetry::new();
        t.record(&report(0, 10.0, 1e6));
        assert!((t.average_throughput_ips() - 1e9).abs() < 1.0);
        assert!((t.instructions_per_joule() - 1e8).abs() < 1.0);
    }

    #[test]
    fn empty_telemetry_rates_are_zero() {
        let t = Telemetry::new();
        assert_eq!(t.average_throughput_ips(), 0.0);
        assert_eq!(t.instructions_per_joule(), 0.0);
    }

    #[test]
    fn decimation_thins_series_but_not_aggregates() {
        let mut full = Telemetry::with_series_decimated(1);
        let mut thin = Telemetry::with_series_decimated(4);
        for epoch in 0..10 {
            let r = report(epoch, 10.0 + epoch as f64, 1e6);
            full.record(&r);
            thin.record(&r);
        }
        // Epochs 0, 4, 8 survive decimation.
        assert_eq!(full.series().len(), 10);
        assert_eq!(thin.series().len(), 3);
        assert_eq!(
            thin.series().iter().map(|s| s.epoch).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        // Every aggregate is identical to the undecimated run.
        assert_eq!(thin.total_instructions(), full.total_instructions());
        assert_eq!(thin.total_energy(), full.total_energy());
        assert_eq!(thin.elapsed(), full.elapsed());
        assert_eq!(thin.epochs(), full.epochs());
        assert_eq!(thin.peak_power(), full.peak_power());
        assert_eq!(thin.peak_temperature(), full.peak_temperature());
        assert_eq!(thin.average_throughput_ips(), full.average_throughput_ips());
        assert_eq!(thin.instructions_per_joule(), full.instructions_per_joule());
        // 0 and 1 both mean "every epoch".
        let mut zero = Telemetry::with_series_decimated(0);
        zero.record(&report(0, 1.0, 1e6));
        zero.record(&report(1, 1.0, 1e6));
        assert_eq!(zero.series().len(), 2);
    }

    #[test]
    fn series_only_when_enabled() {
        let mut plain = Telemetry::new();
        plain.record(&report(0, 1.0, 1e6));
        assert!(plain.series().is_empty());

        let mut rich = Telemetry::with_series_decimated(1);
        rich.record(&report(0, 1.0, 1e6));
        rich.record(&report(1, 2.0, 1e6));
        assert_eq!(rich.series().len(), 2);
        let csv = rich.series_csv();
        assert!(csv.starts_with("epoch,"));
        assert_eq!(csv.lines().count(), 3);
    }
}
