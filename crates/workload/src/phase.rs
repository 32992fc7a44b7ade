//! Workload phases: the per-interval microarchitectural signature a core
//! executes.

use crate::error::WorkloadError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The microarchitecture-independent signature of one execution phase.
///
/// These three parameters drive both the performance and the power model:
///
/// * `cpi_base` — cycles per instruction with an ideal memory system
///   (captures ILP, branchiness, functional-unit mix);
/// * `mpki` — last-level-cache misses per kilo-instruction (captures
///   memory-boundedness: at high `mpki`, raising frequency buys little
///   performance because the core stalls on DRAM);
/// * `activity` — switching-activity factor in `[0, 1.2]` scaling dynamic
///   power (vectorized loops switch more capacitance than pointer chasing).
///
/// ```
/// use odrl_workload::PhaseParams;
/// let compute = PhaseParams::new(0.7, 0.3, 1.0)?;
/// let memory = PhaseParams::new(1.1, 18.0, 0.5)?;
/// assert!(memory.mpki > compute.mpki);
/// # Ok::<(), odrl_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseParams {
    /// Base cycles per instruction (perfect memory).
    pub cpi_base: f64,
    /// Last-level-cache misses per kilo-instruction.
    pub mpki: f64,
    /// Dynamic-power activity factor.
    pub activity: f64,
}

impl PhaseParams {
    /// Creates phase parameters, validating ranges.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidPhase`] (with index 0) if `cpi_base`
    /// is not in `(0, 20]`, `mpki` not in `[0, 200]`, or `activity` not in
    /// `[0, 1.5]`.
    pub fn new(cpi_base: f64, mpki: f64, activity: f64) -> Result<Self, WorkloadError> {
        Self {
            cpi_base,
            mpki,
            activity,
        }
        .validated(0)
    }

    /// Validates ranges, tagging errors with a phase index.
    pub(crate) fn validated(self, index: usize) -> Result<Self, WorkloadError> {
        let check = |name: &'static str, value: f64, lo: f64, hi: f64, excl_lo: bool| {
            let ok =
                value.is_finite() && value <= hi && if excl_lo { value > lo } else { value >= lo };
            if ok {
                Ok(())
            } else {
                Err(WorkloadError::InvalidPhase { index, name, value })
            }
        };
        check("cpi_base", self.cpi_base, 0.0, 20.0, true)?;
        check("mpki", self.mpki, 0.0, 200.0, false)?;
        check("activity", self.activity, 0.0, 1.5, false)?;
        Ok(self)
    }

    /// A dimensionless memory-boundedness score in `[0, 1]`.
    ///
    /// Defined as the fraction of execution time spent waiting on memory at
    /// a 2 GHz reference frequency and 80 ns memory latency. Controllers use
    /// this to bin workloads without knowing the simulator's exact model.
    #[inline]
    pub fn memory_boundedness(&self) -> f64 {
        const REF_FREQ_GHZ: f64 = 2.0;
        const MEM_LATENCY_NS: f64 = 80.0;
        let mem_cycles = self.mpki / 1000.0 * MEM_LATENCY_NS * REF_FREQ_GHZ;
        mem_cycles / (self.cpi_base + mem_cycles)
    }
}

impl fmt::Display for PhaseParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpi={:.2} mpki={:.1} a={:.2}",
            self.cpi_base, self.mpki, self.activity
        )
    }
}

/// How a phase's dwell length is drawn when the phase is entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DwellModel {
    /// Exponentially distributed around the mean — the bursty default that
    /// exercises on-line adaptation.
    #[default]
    Exponential,
    /// Exactly the mean, every time — used by deterministic trace replay.
    Fixed,
}

/// One phase of a benchmark: its signature plus how long it dwells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// The execution signature while in this phase.
    pub params: PhaseParams,
    /// Mean phase length in retired instructions (exact length under
    /// [`DwellModel::Fixed`]).
    pub mean_dwell_instructions: f64,
    /// How dwell lengths are drawn.
    #[serde(default)]
    pub dwell_model: DwellModel,
}

impl PhaseSpec {
    /// Creates a phase spec with exponentially distributed dwells.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidPhase`] if parameters are out of range
    /// or the dwell length is not positive.
    pub fn new(params: PhaseParams, mean_dwell_instructions: f64) -> Result<Self, WorkloadError> {
        Self::with_dwell_model(params, mean_dwell_instructions, DwellModel::Exponential)
    }

    /// Creates a phase spec with an explicit dwell model.
    ///
    /// # Errors
    ///
    /// As [`PhaseSpec::new`].
    pub fn with_dwell_model(
        params: PhaseParams,
        mean_dwell_instructions: f64,
        dwell_model: DwellModel,
    ) -> Result<Self, WorkloadError> {
        if !(mean_dwell_instructions.is_finite() && mean_dwell_instructions > 0.0) {
            return Err(WorkloadError::InvalidPhase {
                index: 0,
                name: "mean_dwell_instructions",
                value: mean_dwell_instructions,
            });
        }
        Ok(Self {
            params: params.validated(0)?,
            mean_dwell_instructions,
            dwell_model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_typical_parameters() {
        assert!(PhaseParams::new(0.8, 2.0, 0.9).is_ok());
        assert!(PhaseParams::new(1.5, 0.0, 0.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(PhaseParams::new(0.0, 2.0, 0.9).is_err()); // cpi must be > 0
        assert!(PhaseParams::new(0.8, -1.0, 0.9).is_err());
        assert!(PhaseParams::new(0.8, 2.0, 2.0).is_err());
        assert!(PhaseParams::new(f64::NAN, 2.0, 0.9).is_err());
        assert!(PhaseParams::new(0.8, 500.0, 0.9).is_err());
    }

    #[test]
    fn memory_boundedness_orders_phases() {
        let compute = PhaseParams::new(0.7, 0.3, 1.0).unwrap();
        let memory = PhaseParams::new(1.1, 18.0, 0.5).unwrap();
        assert!(compute.memory_boundedness() < 0.1);
        assert!(memory.memory_boundedness() > 0.5);
        assert!((0.0..=1.0).contains(&memory.memory_boundedness()));
    }

    #[test]
    fn zero_mpki_means_zero_memory_boundedness() {
        let p = PhaseParams::new(1.0, 0.0, 1.0).unwrap();
        assert_eq!(p.memory_boundedness(), 0.0);
    }

    #[test]
    fn phase_spec_rejects_bad_dwell() {
        let p = PhaseParams::new(1.0, 1.0, 0.5).unwrap();
        assert!(PhaseSpec::new(p, 0.0).is_err());
        assert!(PhaseSpec::new(p, f64::INFINITY).is_err());
        assert!(PhaseSpec::new(p, 1e6).is_ok());
    }

    #[test]
    fn fixed_dwell_model_is_constructible() {
        let p = PhaseParams::new(1.0, 1.0, 0.5).unwrap();
        let spec = PhaseSpec::with_dwell_model(p, 1e6, DwellModel::Fixed).unwrap();
        assert_eq!(spec.dwell_model, DwellModel::Fixed);
        assert_eq!(
            PhaseSpec::new(p, 1e6).unwrap().dwell_model,
            DwellModel::Exponential
        );
    }

    #[test]
    fn display_is_compact() {
        let p = PhaseParams::new(1.0, 2.5, 0.5).unwrap();
        assert_eq!(p.to_string(), "cpi=1.00 mpki=2.5 a=0.50");
    }
}
