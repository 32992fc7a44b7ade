//! Hierarchical OD-RL: cluster-local controllers under a top-level budget
//! reallocator.
//!
//! OD-RL's per-epoch cost is already O(n), but a single flat controller
//! still centralizes the coarse-grain reallocation and the chip-power
//! feedback. On a 1000-core die the natural organization — and the obvious
//! implementation target for per-cluster firmware — is hierarchical: each
//! cluster runs its own [`OdRlController`] against a *cluster budget*, and
//! a top-level [`BudgetAllocator`] redistributes the chip budget across
//! clusters by the same demand/marginal-benefit rule used inside them,
//! treating each cluster as one pseudo-core.
//!
//! Decision work parallelizes trivially across clusters (each cluster's
//! decide is independent given its budget), and no global state beyond the
//! per-cluster budgets exists.

use crate::budget::BudgetAllocator;
use crate::config::OdRlConfig;
use crate::controller::OdRlController;
use crate::error::OdRlError;
use odrl_controllers::PowerController;
use odrl_manycore::parallel::stream_seed;
use odrl_manycore::{CoreObservation, Observation, SystemSpec};
use odrl_power::{Celsius, LevelId, Watts};
use odrl_workload::PhaseParams;

/// A two-level OD-RL controller: per-cluster fine+coarse OD-RL, plus a
/// chip-level reallocation of cluster budgets.
///
/// ```
/// use odrl_core::{HierarchicalOdRl, OdRlConfig};
/// use odrl_controllers::PowerController;
/// use odrl_manycore::SystemConfig;
/// use odrl_power::Watts;
///
/// let config = SystemConfig::builder().cores(64).build()?;
/// let budget = Watts::new(0.6 * config.max_power().value());
/// let ctrl = HierarchicalOdRl::new(OdRlConfig::default(), &config.spec(), budget, 16)?;
/// assert_eq!(ctrl.name(), "od-rl-hier");
/// assert_eq!(ctrl.num_clusters(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalOdRl {
    clusters: Vec<OdRlController>,
    /// `bounds[k]..bounds[k+1]` are cluster `k`'s cores.
    bounds: Vec<usize>,
    top: BudgetAllocator,
    cluster_budgets: Vec<Watts>,
    total_budget: Watts,
    realloc_period: u64,
    epochs: u64,
}

impl HierarchicalOdRl {
    /// Builds a hierarchy of contiguous clusters of (at most)
    /// `cluster_size` cores.
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::EmptySpec`] for a degenerate spec or
    /// [`OdRlError::InvalidConfig`] for a zero cluster size or invalid
    /// OD-RL config.
    pub fn new(
        config: OdRlConfig,
        spec: &SystemSpec,
        initial_budget: Watts,
        cluster_size: usize,
    ) -> Result<Self, OdRlError> {
        if spec.cores == 0 || spec.vf_table.is_empty() {
            return Err(OdRlError::EmptySpec);
        }
        if cluster_size == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "cluster_size",
                reason: "must be at least 1".into(),
            });
        }
        let mut bounds = vec![0];
        while *bounds.last().expect("non-empty") < spec.cores {
            bounds.push((bounds.last().expect("non-empty") + cluster_size).min(spec.cores));
        }
        let n_clusters = bounds.len() - 1;
        let mut clusters = Vec::with_capacity(n_clusters);
        let mut cluster_budgets = Vec::with_capacity(n_clusters);
        for k in 0..n_clusters {
            let cores = bounds[k + 1] - bounds[k];
            let share = initial_budget * (cores as f64 / spec.cores as f64);
            let cluster_spec = SystemSpec {
                cores,
                ..spec.clone()
            };
            let cluster_config = OdRlConfig {
                // Each cluster explores on its own stream.
                seed: stream_seed(config.seed, k as u64),
                ..config.clone()
            };
            clusters.push(OdRlController::new(cluster_config, &cluster_spec, share)?);
            cluster_budgets.push(share);
        }
        Ok(Self {
            clusters,
            bounds,
            top: BudgetAllocator::new(n_clusters, config.realloc_gain, config.min_share),
            cluster_budgets,
            total_budget: initial_budget,
            realloc_period: config.realloc_period * 4, // coarser than in-cluster
            epochs: 0,
        })
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Current per-cluster budgets (sum = chip budget).
    pub fn cluster_budgets(&self) -> &[Watts] {
        &self.cluster_budgets
    }

    /// Collapses a cluster's cores into one pseudo-core for the top-level
    /// allocator.
    fn cluster_observation(&self, obs: &Observation) -> Observation {
        let cores = (0..self.num_clusters())
            .map(|k| {
                let lo = self.bounds[k];
                let hi = self.bounds[k + 1];
                let n = (hi - lo) as f64;
                let sum = |f: &dyn Fn(&CoreObservation) -> f64| {
                    obs.cores[lo..hi].iter().map(f).sum::<f64>()
                };
                CoreObservation {
                    level: obs.cores[lo].level,
                    ips: sum(&|c| c.ips),
                    power: Watts::new(sum(&|c| c.power.value())),
                    temperature: Celsius::new(
                        obs.cores[lo..hi]
                            .iter()
                            .map(|c| c.temperature.value())
                            .fold(f64::NEG_INFINITY, f64::max),
                    ),
                    counters: PhaseParams {
                        cpi_base: sum(&|c| c.counters.cpi_base) / n,
                        mpki: sum(&|c| c.counters.mpki) / n,
                        activity: sum(&|c| c.counters.activity) / n,
                    },
                }
            })
            .collect();
        Observation {
            epoch: obs.epoch,
            dt: obs.dt,
            budget: obs.budget,
            cores,
            total_power: obs.total_power,
        }
    }
}

impl PowerController for HierarchicalOdRl {
    fn name(&self) -> &str {
        "od-rl-hier"
    }

    fn decide_into(&mut self, obs: &Observation, out: &mut [LevelId]) {
        debug_assert_eq!(out.len(), obs.cores.len());
        let n = obs.cores.len().min(*self.bounds.last().expect("non-empty"));
        if n == 0 {
            return;
        }
        // Cores beyond the hierarchy (defensive) get the floor level.
        out.fill(LevelId(0));
        // Track chip-budget changes proportionally.
        if (obs.budget - self.total_budget).abs().value() > 1e-12 {
            let old = self.total_budget.value();
            if old > 0.0 {
                let k = obs.budget.value() / old;
                for b in &mut self.cluster_budgets {
                    *b = *b * k;
                }
            }
            self.total_budget = obs.budget;
        }

        // Top level: reallocate cluster budgets every few in-cluster
        // reallocation periods.
        let cluster_obs = self.cluster_observation(obs);
        self.top.observe(&cluster_obs);
        if self.epochs > 0 && self.epochs.is_multiple_of(self.realloc_period) {
            self.cluster_budgets =
                self.top
                    .reallocate(&cluster_obs, &self.cluster_budgets, obs.budget);
        }
        self.epochs += 1;

        // Per cluster: slice the observation and delegate.
        for k in 0..self.num_clusters() {
            let lo = self.bounds[k];
            let hi = self.bounds[k + 1].min(n);
            if lo >= hi {
                break;
            }
            let sub = Observation {
                epoch: obs.epoch,
                dt: obs.dt,
                budget: self.cluster_budgets[k],
                cores: obs.cores[lo..hi].to_vec(),
                total_power: Watts::new(obs.cores[lo..hi].iter().map(|c| c.power.value()).sum()),
            };
            self.clusters[k].decide_into(&sub, &mut out[lo..hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_manycore::{System, SystemConfig};

    fn run(cluster_size: usize, epochs: u64) -> (odrl_metrics::RunSummary, HierarchicalOdRl) {
        let config = SystemConfig::builder().cores(32).seed(51).build().unwrap();
        let budget = Watts::new(0.55 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut ctrl =
            HierarchicalOdRl::new(OdRlConfig::default(), &system.spec(), budget, cluster_size)
                .unwrap();
        let mut rec = odrl_metrics::RunRecorder::new(ctrl.name());
        for _ in 0..epochs {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            let report = system.step(&actions).unwrap();
            rec.record(
                report.total_power,
                budget,
                report.total_instructions(),
                report.dt,
            );
        }
        (rec.finish(), ctrl)
    }

    #[test]
    fn cluster_partitioning() {
        let spec = SystemConfig::builder().cores(10).build().unwrap().spec();
        let ctrl =
            HierarchicalOdRl::new(OdRlConfig::default(), &spec, Watts::new(20.0), 4).unwrap();
        assert_eq!(ctrl.num_clusters(), 3); // 4 + 4 + 2
        let sum: f64 = ctrl.cluster_budgets().iter().map(|w| w.value()).sum();
        assert!((sum - 20.0).abs() < 1e-9);
        // Shares proportional to cluster sizes.
        assert!((ctrl.cluster_budgets()[0].value() - 8.0).abs() < 1e-9);
        assert!((ctrl.cluster_budgets()[2].value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_construction() {
        let spec = SystemConfig::builder().cores(8).build().unwrap().spec();
        assert!(HierarchicalOdRl::new(OdRlConfig::default(), &spec, Watts::new(10.0), 0).is_err());
        let mut empty = spec;
        empty.cores = 0;
        assert!(HierarchicalOdRl::new(OdRlConfig::default(), &empty, Watts::new(10.0), 4).is_err());
    }

    #[test]
    fn respects_the_chip_budget() {
        let (s, ctrl) = run(8, 1_000);
        assert!(s.total_instructions > 0.0);
        assert!(s.mean_power.value() <= 0.55 * 302.4 / 2.0 * 1.12); // 32-core chip
        let sum: f64 = ctrl.cluster_budgets().iter().map(|w| w.value()).sum();
        // Budgets still sum to the chip budget after reallocations.
        let expect = 0.55
            * SystemConfig::builder()
                .cores(32)
                .build()
                .unwrap()
                .max_power()
                .value();
        assert!(
            (sum - expect).abs() < 1e-6 * expect,
            "sum {sum} vs {expect}"
        );
    }

    #[test]
    fn comparable_to_flat_odrl() {
        let (hier, _) = run(8, 1_200);
        // Flat controller on the identical scenario.
        let config = SystemConfig::builder().cores(32).seed(51).build().unwrap();
        let budget = Watts::new(0.55 * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut flat = OdRlController::new(OdRlConfig::default(), &system.spec(), budget).unwrap();
        let mut rec = odrl_metrics::RunRecorder::new("flat");
        for _ in 0..1_200 {
            let obs = system.observation(budget);
            let actions = flat.decide(&obs);
            let report = system.step(&actions).unwrap();
            rec.record(
                report.total_power,
                budget,
                report.total_instructions(),
                report.dt,
            );
        }
        let flat = rec.finish();
        let ratio = hier.throughput_ips() / flat.throughput_ips();
        assert!(
            (0.9..1.1).contains(&ratio),
            "hierarchical/flat throughput ratio {ratio}"
        );
    }

    #[test]
    fn tracks_budget_steps() {
        let config = SystemConfig::builder().cores(16).seed(53).build().unwrap();
        let max = config.max_power();
        let mut system = System::new(config).unwrap();
        let mut ctrl =
            HierarchicalOdRl::new(OdRlConfig::default(), &system.spec(), max * 0.8, 4).unwrap();
        for _ in 0..50 {
            let obs = system.observation(max * 0.8);
            let a = ctrl.decide(&obs);
            system.step(&a).unwrap();
        }
        let obs = system.observation(max * 0.4);
        ctrl.decide(&obs);
        let sum: f64 = ctrl.cluster_budgets().iter().map(|w| w.value()).sum();
        let expect = (max * 0.4).value();
        assert!((sum - expect).abs() < 1e-6 * expect);
    }
}
