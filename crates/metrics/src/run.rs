//! Per-run metric recording and the summary behind every results table.

use crate::stats::OnlineStats;
use crate::table::{fmt_percent, fmt_ratio};
use odrl_power::{EnergyAccount, Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Records one controller run epoch-by-epoch and produces a
/// [`RunSummary`].
///
/// ```
/// use odrl_metrics::RunRecorder;
/// use odrl_power::{Watts, Seconds};
///
/// let mut rec = RunRecorder::new("demo");
/// rec.record(Watts::new(12.0), Watts::new(10.0), 2.0e6, Seconds::new(1e-3));
/// rec.record(Watts::new(8.0), Watts::new(10.0), 1.5e6, Seconds::new(1e-3));
/// let summary = rec.finish();
/// assert_eq!(summary.name, "demo");
/// assert!(summary.overshoot_energy.value() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RunRecorder {
    name: String,
    energy: EnergyAccount,
    instructions: f64,
    power_stats: OnlineStats,
}

impl RunRecorder {
    /// Starts recording a run under a controller/scenario name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            energy: EnergyAccount::new(),
            instructions: 0.0,
            power_stats: OnlineStats::new(),
        }
    }

    /// Records one epoch: true chip power, the budget in force, the
    /// instructions retired, and the epoch length.
    pub fn record(&mut self, power: Watts, budget: Watts, instructions: f64, dt: Seconds) {
        self.energy.record(power, budget, dt);
        self.instructions += instructions.max(0.0);
        self.power_stats.push(power.value());
    }

    /// Finalizes the run into a summary.
    pub fn finish(self) -> RunSummary {
        RunSummary {
            name: self.name,
            epochs: self.energy.intervals(),
            elapsed: self.energy.elapsed(),
            total_instructions: self.instructions,
            total_energy: self.energy.total_energy(),
            overshoot_energy: self.energy.overshoot_energy(),
            overshoot_fraction: self.energy.overshoot_fraction(),
            peak_overshoot: self.energy.peak_overshoot(),
            peak_power: self.energy.peak_power(),
            mean_power: Watts::new(self.power_stats.mean()),
            power_std: Watts::new(self.power_stats.std_dev()),
        }
    }
}

/// All headline metrics of one (controller, workload, budget) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Controller/scenario label.
    pub name: String,
    /// Number of control epochs executed.
    pub epochs: u64,
    /// Simulated wall-clock time.
    pub elapsed: Seconds,
    /// Total instructions retired across all cores.
    pub total_instructions: f64,
    /// Total energy consumed.
    pub total_energy: Joules,
    /// Energy consumed above the budget — the paper's *budget overshoot*.
    pub overshoot_energy: Joules,
    /// Fraction of epochs with chip power above the budget.
    pub overshoot_fraction: f64,
    /// Largest single-epoch power excess.
    pub peak_overshoot: Watts,
    /// Highest chip power seen.
    pub peak_power: Watts,
    /// Mean chip power.
    pub mean_power: Watts,
    /// Standard deviation of chip power.
    pub power_std: Watts,
}

impl RunSummary {
    /// Aggregate throughput in instructions per second.
    pub fn throughput_ips(&self) -> f64 {
        if self.elapsed.value() <= 0.0 {
            0.0
        } else {
            self.total_instructions / self.elapsed.value()
        }
    }

    /// Energy efficiency in instructions per joule (≡ BIPS/W ·1e9).
    pub fn instructions_per_joule(&self) -> f64 {
        if self.total_energy.value() <= 0.0 {
            0.0
        } else {
            self.total_instructions / self.total_energy.value()
        }
    }

    /// **Throughput per over-the-budget energy** (TpOE), the paper's
    /// claim-2 metric: instructions retired per joule spent *above* the
    /// budget. Infinite for a run that never overshoots.
    pub fn throughput_per_overshoot_energy(&self) -> f64 {
        if self.overshoot_energy.value() <= 0.0 {
            f64::INFINITY
        } else {
            self.total_instructions / self.overshoot_energy.value()
        }
    }

    /// Energy-delay product in joule-seconds, normalized per giga-instruction
    /// (lower is better): `E · t / (instr/1e9)²` — the classic DVFS figure
    /// of merit weighing energy and performance equally.
    pub fn energy_delay_product(&self) -> f64 {
        let gi = self.total_instructions / 1e9;
        if gi <= 0.0 {
            return f64::INFINITY;
        }
        self.total_energy.value() * self.elapsed.value() / (gi * gi)
    }

    /// Overshoot energy as a fraction of total energy.
    pub fn overshoot_energy_fraction(&self) -> f64 {
        if self.total_energy.value() <= 0.0 {
            0.0
        } else {
            self.overshoot_energy.value() / self.total_energy.value()
        }
    }
}

/// Ratio comparison of one summary against a baseline, as the paper's
/// tables report ("X× better TpOE", "Y % less overshoot").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// The candidate's name.
    pub name: String,
    /// The baseline's name.
    pub baseline: String,
    /// Candidate throughput / baseline throughput.
    pub throughput_ratio: f64,
    /// 1 − candidate overshoot energy / baseline overshoot energy
    /// (the paper's "98 % less budget overshoot"). `None` when the baseline
    /// never overshoots.
    pub overshoot_reduction: Option<f64>,
    /// Candidate TpOE / baseline TpOE (the paper's "44.3× better"). `None`
    /// when both are infinite (neither run overshoots).
    pub tpoe_ratio: Option<f64>,
    /// Candidate efficiency / baseline efficiency (the paper's "23 %
    /// higher energy efficiency" ⇒ ratio 1.23).
    pub efficiency_ratio: f64,
}

impl Comparison {
    /// Compares `candidate` against `baseline`.
    pub fn against(candidate: &RunSummary, baseline: &RunSummary) -> Self {
        let tpoe_c = candidate.throughput_per_overshoot_energy();
        let tpoe_b = baseline.throughput_per_overshoot_energy();
        let tpoe_ratio = if tpoe_c.is_infinite() && tpoe_b.is_infinite() {
            None
        } else if tpoe_b.is_infinite() {
            Some(0.0)
        } else if tpoe_c.is_infinite() {
            Some(f64::INFINITY)
        } else {
            Some(tpoe_c / tpoe_b)
        };
        let overshoot_reduction = if baseline.overshoot_energy.value() > 0.0 {
            Some(1.0 - candidate.overshoot_energy.value() / baseline.overshoot_energy.value())
        } else {
            None
        };
        Self {
            name: candidate.name.clone(),
            baseline: baseline.name.clone(),
            throughput_ratio: safe_ratio(candidate.throughput_ips(), baseline.throughput_ips()),
            overshoot_reduction,
            tpoe_ratio,
            efficiency_ratio: safe_ratio(
                candidate.instructions_per_joule(),
                baseline.instructions_per_joule(),
            ),
        }
    }
}

impl fmt::Display for Comparison {
    /// One paper-style line; every ratio goes through [`fmt_ratio`], so a
    /// zero-overshoot baseline prints `inf`/`n/a` rather than
    /// `infx`/`nanx`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let overshoot = self
            .overshoot_reduction
            .map_or_else(|| "n/a".to_string(), fmt_percent);
        write!(
            f,
            "{} vs {}: throughput {}, overshoot reduction {}, tpoe {}, efficiency {}",
            self.name,
            self.baseline,
            fmt_ratio(Some(self.throughput_ratio)),
            overshoot,
            fmt_ratio(self.tpoe_ratio),
            fmt_ratio(Some(self.efficiency_ratio)),
        )
    }
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(instr: f64, energy: f64, overshoot: f64, elapsed: f64) -> RunSummary {
        RunSummary {
            name: "x".into(),
            epochs: 100,
            elapsed: Seconds::new(elapsed),
            total_instructions: instr,
            total_energy: Joules::new(energy),
            overshoot_energy: Joules::new(overshoot),
            overshoot_fraction: 0.1,
            peak_overshoot: Watts::new(1.0),
            peak_power: Watts::new(10.0),
            mean_power: Watts::new(5.0),
            power_std: Watts::new(1.0),
        }
    }

    #[test]
    fn recorder_accumulates() {
        let mut rec = RunRecorder::new("test");
        rec.record(Watts::new(12.0), Watts::new(10.0), 1e6, Seconds::new(1.0));
        rec.record(Watts::new(8.0), Watts::new(10.0), 1e6, Seconds::new(1.0));
        let s = rec.finish();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.total_instructions, 2e6);
        assert_eq!(s.total_energy.value(), 20.0);
        assert_eq!(s.overshoot_energy.value(), 2.0);
        assert_eq!(s.overshoot_fraction, 0.5);
        assert_eq!(s.mean_power.value(), 10.0);
        assert!((s.throughput_ips() - 1e6).abs() < 1e-9);
    }

    #[test]
    fn tpoe_is_infinite_without_overshoot() {
        let s = summary(1e9, 10.0, 0.0, 1.0);
        assert!(s.throughput_per_overshoot_energy().is_infinite());
        let s = summary(1e9, 10.0, 2.0, 1.0);
        assert_eq!(s.throughput_per_overshoot_energy(), 5e8);
    }

    #[test]
    fn comparison_reports_paper_style_numbers() {
        // Candidate: same throughput, 50x less overshoot.
        let cand = summary(1e9, 10.0, 0.02, 1.0);
        let base = summary(1e9, 12.0, 1.0, 1.0);
        let c = Comparison::against(&cand, &base);
        assert!((c.throughput_ratio - 1.0).abs() < 1e-12);
        assert!((c.overshoot_reduction.unwrap() - 0.98).abs() < 1e-12);
        assert!((c.tpoe_ratio.unwrap() - 50.0).abs() < 1e-9);
        assert!((c.efficiency_ratio - 1.2).abs() < 1e-12);
    }

    #[test]
    fn comparison_handles_no_overshoot_baseline() {
        let cand = summary(1e9, 10.0, 0.0, 1.0);
        let base = summary(1e9, 10.0, 0.0, 1.0);
        let c = Comparison::against(&cand, &base);
        assert!(c.tpoe_ratio.is_none());
        assert!(c.overshoot_reduction.is_none());
        // Candidate overshoots, baseline doesn't: ratio 0 (worse).
        let cand2 = summary(1e9, 10.0, 1.0, 1.0);
        let c2 = Comparison::against(&cand2, &base);
        assert_eq!(c2.tpoe_ratio, Some(0.0));
    }

    #[test]
    fn display_spells_out_nonfinite_ratios() {
        // Neither run overshoots: tpoe and reduction are undefined.
        let cand = summary(1e9, 10.0, 0.0, 1.0);
        let base = summary(1e9, 10.0, 0.0, 1.0);
        let line = Comparison::against(&cand, &base).to_string();
        assert!(line.contains("tpoe n/a"), "{line}");
        assert!(line.contains("overshoot reduction n/a"), "{line}");
        assert!(!line.contains("nanx") && !line.contains("NaN"), "{line}");

        // Baseline overshoots, candidate doesn't: tpoe ratio is infinite.
        let base = summary(1e9, 10.0, 2.0, 1.0);
        let line = Comparison::against(&cand, &base).to_string();
        assert!(line.contains("tpoe inf"), "{line}");
        assert!(!line.contains("infx"), "{line}");
    }

    #[test]
    fn edp_orders_runs_correctly() {
        // Same work and time, half the energy: EDP halves.
        let a = summary(1e9, 10.0, 0.0, 1.0);
        let b = summary(1e9, 5.0, 0.0, 1.0);
        assert!((a.energy_delay_product() / b.energy_delay_product() - 2.0).abs() < 1e-9);
        // Same energy, double the throughput (half the time for the same
        // work): EDP improves.
        let slow = summary(1e9, 10.0, 0.0, 2.0);
        let fast = summary(1e9, 10.0, 0.0, 1.0);
        assert!(fast.energy_delay_product() < slow.energy_delay_product());
        // Degenerate run: infinite (worst possible).
        let zero = summary(0.0, 1.0, 0.0, 1.0);
        assert!(zero.energy_delay_product().is_infinite());
    }

    #[test]
    fn zero_division_guards() {
        let zero = summary(0.0, 0.0, 0.0, 0.0);
        assert_eq!(zero.throughput_ips(), 0.0);
        assert_eq!(zero.instructions_per_joule(), 0.0);
        assert_eq!(zero.overshoot_energy_fraction(), 0.0);
        let c = Comparison::against(&zero, &zero);
        assert_eq!(c.throughput_ratio, 1.0);
    }
}
