//! The analytical per-core performance model.

use crate::error::SystemError;
use odrl_power::GigaHertz;
use odrl_workload::PhaseParams;
use serde::{Deserialize, Serialize};

/// Frequency-dependent CPI model.
///
/// The effective cycles-per-instruction at clock frequency `f` is
///
/// `CPI(f) = cpi_base + (mpki / 1000) · L_mem · f · overlap`
///
/// where `L_mem` is the (frequency-independent) DRAM round trip in
/// nanoseconds and `overlap ∈ (0, 1]` is the fraction of miss latency the
/// core cannot hide with out-of-order execution. Because the memory term
/// grows linearly with `f` (DRAM does not speed up with the core clock),
/// throughput `IPS = f / CPI(f)` **saturates** for memory-bound phases —
/// the key nonlinearity a DVFS controller must learn: raising the VF level
/// of a memory-bound core wastes power for almost no performance.
///
/// ```
/// use odrl_manycore::PerfModel;
/// use odrl_workload::PhaseParams;
/// use odrl_power::GigaHertz;
///
/// let perf = PerfModel::default();
/// let compute = PhaseParams::new(0.7, 0.2, 1.0)?;
/// let memory = PhaseParams::new(0.7, 20.0, 1.0)?;
/// let gain = |p: &PhaseParams| {
///     perf.ips(p, GigaHertz::new(3.0)) / perf.ips(p, GigaHertz::new(1.0))
/// };
/// // Compute-bound phases scale almost linearly; memory-bound ones do not.
/// assert!(gain(&compute) > 2.5);
/// assert!(gain(&memory) < 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    /// DRAM round-trip latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Fraction of miss latency exposed to the pipeline, in `(0, 1]`.
    pub overlap: f64,
}

impl PerfModel {
    /// Creates a performance model.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if `mem_latency_ns` is not
    /// finite-positive or `overlap` is outside `(0, 1]`.
    pub fn new(mem_latency_ns: f64, overlap: f64) -> Result<Self, SystemError> {
        if !(mem_latency_ns.is_finite() && mem_latency_ns > 0.0) {
            return Err(SystemError::InvalidConfig {
                field: "mem_latency_ns",
                reason: format!("must be finite and positive, got {mem_latency_ns}"),
            });
        }
        if !(overlap.is_finite() && overlap > 0.0 && overlap <= 1.0) {
            return Err(SystemError::InvalidConfig {
                field: "overlap",
                reason: format!("must be in (0, 1], got {overlap}"),
            });
        }
        Ok(Self {
            mem_latency_ns,
            overlap,
        })
    }

    /// Effective CPI of a phase at frequency `f`.
    pub fn effective_cpi(&self, params: &PhaseParams, f: GigaHertz) -> f64 {
        self.effective_cpi_with_latency(params, f, self.mem_latency_ns)
    }

    /// Effective CPI with an explicit memory round-trip latency (used when a
    /// NoC model makes the latency position- and congestion-dependent).
    pub fn effective_cpi_with_latency(
        &self,
        params: &PhaseParams,
        f: GigaHertz,
        mem_latency_ns: f64,
    ) -> f64 {
        let mem_cycles_per_instr = params.mpki / 1000.0 * mem_latency_ns * f.value() * self.overlap;
        params.cpi_base + mem_cycles_per_instr
    }

    /// Instructions per second of a phase at frequency `f`.
    pub fn ips(&self, params: &PhaseParams, f: GigaHertz) -> f64 {
        f.to_hertz() / self.effective_cpi(params, f)
    }

    /// The asymptotic IPS as `f → ∞` (the memory-bandwidth ceiling), or
    /// infinity for a phase with zero misses.
    pub fn saturation_ips(&self, params: &PhaseParams) -> f64 {
        if params.mpki <= 0.0 {
            f64::INFINITY
        } else {
            1e9 / (params.mpki / 1000.0 * self.mem_latency_ns * self.overlap)
        }
    }
}

impl Default for PerfModel {
    /// 80 ns DRAM round trip, 70 % of miss latency exposed — typical of a
    /// modest out-of-order core.
    fn default() -> Self {
        Self {
            mem_latency_ns: 80.0,
            overlap: 0.7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(cpi: f64, mpki: f64) -> PhaseParams {
        PhaseParams::new(cpi, mpki, 1.0).unwrap()
    }

    #[test]
    fn compute_bound_scales_linearly() {
        let m = PerfModel::default();
        let p = phase(1.0, 0.0);
        let r = m.ips(&p, GigaHertz::new(2.0)) / m.ips(&p, GigaHertz::new(1.0));
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_saturates() {
        let m = PerfModel::default();
        let p = phase(1.0, 30.0);
        let ips3 = m.ips(&p, GigaHertz::new(3.0));
        let ips1 = m.ips(&p, GigaHertz::new(1.0));
        assert!(ips3 / ips1 < 1.5, "memory-bound speedup {}", ips3 / ips1);
        assert!(ips3 < m.saturation_ips(&p));
    }

    #[test]
    fn ips_monotone_in_frequency() {
        let m = PerfModel::default();
        for &mpki in &[0.0, 1.0, 10.0, 50.0] {
            let p = phase(1.0, mpki);
            let mut last = 0.0;
            for i in 1..=30 {
                let ips = m.ips(&p, GigaHertz::new(0.1 * i as f64));
                assert!(ips > last, "ips must rise with f (mpki={mpki})");
                last = ips;
            }
        }
    }

    #[test]
    fn saturation_bounds_all_frequencies() {
        let m = PerfModel::default();
        let p = phase(0.8, 12.0);
        let sat = m.saturation_ips(&p);
        for i in 1..=40 {
            assert!(m.ips(&p, GigaHertz::new(0.25 * i as f64)) < sat);
        }
    }

    #[test]
    fn one_ghz_one_cpi_is_one_gips() {
        let m = PerfModel::default();
        let p = phase(1.0, 0.0);
        assert!((m.ips(&p, GigaHertz::new(1.0)) - 1e9).abs() < 1.0);
    }

    #[test]
    fn explicit_latency_matches_default_at_nominal() {
        let m = PerfModel::default();
        let p = phase(1.0, 8.0);
        let f = GigaHertz::new(2.0);
        let cpi = m.effective_cpi(&p, f);
        assert_eq!(cpi, m.effective_cpi_with_latency(&p, f, m.mem_latency_ns));
        // Longer memory latency raises the CPI.
        assert!(m.effective_cpi_with_latency(&p, f, 160.0) > cpi);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PerfModel::new(0.0, 0.5).is_err());
        assert!(PerfModel::new(80.0, 0.0).is_err());
        assert!(PerfModel::new(80.0, 1.5).is_err());
        assert!(PerfModel::new(f64::NAN, 0.5).is_err());
        assert!(PerfModel::new(80.0, 1.0).is_ok());
    }
}
