//! Experiment harnesses regenerating the paper's evaluation.
//!
//! Each binary in this crate regenerates one table or figure of the
//! reconstructed evaluation suite (see DESIGN.md and EXPERIMENTS.md):
//!
//! | Binary | Experiment |
//! |---|---|
//! | `exp_power_trace` | E1 — power vs time under a budget (figure) |
//! | `exp_claims` | E2–E4 — overshoot, TpOE and efficiency claims (claims 1, 2a, 2b) |
//! | `exp_scaling` | E5 — controller decision latency vs core count |
//! | `exp_adaptation` | E6 — learning dynamics and budget steps |
//! | `exp_budget_sweep` | E7 — throughput vs budget fraction (incl. ondemand) |
//! | `exp_granularity` | E8 — VFI island granularity |
//! | `exp_multithreaded` | E9 — barrier-synchronized workloads |
//! | `exp_variation` | E10 — process variation |
//! | `exp_noc` | E11 — mesh NoC contention |
//! | `exp_extended_range` | E12 — near-threshold extended-range DVFS |
//! | `exp_fleet` | E14 — multi-chip fleet scaling under the rack arbiter |
//! | `abl_reallocation` | A1 — global reallocation on/off |
//! | `abl_discretization` | A2 — state-bin granularity |
//! | `abl_schedules` | A3 — exploration/learning-rate schedules |
//! | `abl_thermal` | A4 — thermal-capping extension |
//! | `abl_transitions` | A5 — DVFS transition overhead |
//! | `workload_report` | suite characterization table |
//! | `odrl_sim` | CLI driver for one-off scenarios (JSON configs) |
//!
//! The shared machinery lives here and in `odrl-fleet`: [`Scenario`]
//! describes a run, [`ControllerKind`] names a controller, [`RunBuilder`]
//! composes single-chip and fleet runs, and [`run_scenario`] executes the
//! closed loop and returns a [`RunSummary`]. [`paired_seeds`] repeats a
//! two-arm comparison over [`REPLICATES`] seeds and reports its mean with
//! a bootstrap CI.

#![warn(missing_docs)]

pub mod allocs;
pub mod cli;
pub mod cputime;

use odrl_controllers::PowerController;
use odrl_faults::FaultPlan;
use odrl_manycore::parallel::stream_seed;
use odrl_manycore::{Parallelism, System};
use odrl_metrics::{RunRecorder, RunSummary};
use odrl_obs::{merge_records, EventCounts, EventRecord};
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

// The run-construction surface moved to `odrl-fleet` with the fleet API
// redesign; re-exported here so harness code keeps one import root.
pub use odrl_fleet::{
    AnomalyDump, AnomalyKind, BudgetArbiter, ChipRun, ChipSummary, ControllerKind, Fleet,
    FleetConfig, FleetError, FleetMetrics, FleetSummary, FleetTelemetry, FlightRecorder,
    RecorderConfig, RunBuilder, Scenario, ScenarioError, WatermarkRule,
};

/// The result of [`run_scenario_traced`]: the summary plus the per-epoch
/// power trace for figures.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The run's metric summary.
    pub summary: RunSummary,
    /// `(time_s, true_power_w)` per epoch.
    pub power_trace: Vec<(f64, f64)>,
}

/// Runs one controller through one scenario and summarizes it.
///
/// # Panics
///
/// Panics on simulator errors (cannot happen with vetted scenarios).
pub fn run_scenario(scenario: &Scenario, kind: ControllerKind) -> RunSummary {
    run_scenario_traced(scenario, kind).summary
}

/// As [`run_scenario`], also recording the power trace.
///
/// # Panics
///
/// Panics on simulator errors (cannot happen with vetted scenarios).
pub fn run_scenario_traced(scenario: &Scenario, kind: ControllerKind) -> TracedRun {
    let ChipRun {
        mut system,
        mut controller,
        budget,
    } = RunBuilder::new(scenario.clone())
        .controller(kind)
        .build_chip()
        .expect("scenario parameters are valid");
    run_loop(&mut system, controller.as_mut(), budget, scenario.epochs)
}

/// The result of [`run_scenario_observed`]: the traced run plus the
/// merged structured-event stream and per-kind totals from `odrl-obs`.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The run's summary and power trace.
    pub traced: TracedRun,
    /// Every controller- and system-side event, in the canonical
    /// `(epoch, rank, core)` merge order (shard-count invariant).
    pub records: Vec<EventRecord>,
    /// Per-kind event totals (controller + system sides summed).
    pub counts: EventCounts,
}

/// The observed-run builder: tracing on both the system and the
/// controller (see `odrl-obs`), optional fault plan, watchdog per the
/// flag. Baselines still trace nothing controller-side; the system
/// records fault edges, VF switches and epoch boundaries either way.
fn observed_builder(
    scenario: &Scenario,
    kind: ControllerKind,
    plan: Option<&FaultPlan>,
    watchdog: bool,
) -> RunBuilder {
    let mut builder = RunBuilder::new(scenario.clone())
        .controller(kind)
        .watchdog(watchdog)
        .obs(true);
    if let Some(plan) = plan {
        builder = builder.faults(plan.clone());
    }
    builder
}

/// Runs one controller through one scenario with structured tracing on,
/// returning the summary plus the merged event stream and per-kind
/// counts. With `watchdog` set, OD-RL variants run their sensor watchdog
/// and route budget messages through the plan's unreliable channel.
///
/// # Panics
///
/// Panics on invalid scenarios, fault plans or controller configurations
/// (harnesses pass vetted inputs).
pub fn run_scenario_observed(
    scenario: &Scenario,
    kind: ControllerKind,
    plan: Option<&FaultPlan>,
    watchdog: bool,
) -> ObservedRun {
    let ChipRun {
        mut system,
        mut controller,
        budget,
    } = observed_builder(scenario, kind, plan, watchdog)
        .build_chip()
        .expect("valid scenario, fault plan and controller configuration");
    let traced = run_loop(&mut system, controller.as_mut(), budget, scenario.epochs);
    let mut records = Vec::new();
    controller.extend_trace_into(0..u64::MAX, &mut records);
    system.extend_trace_into(0..u64::MAX, &mut records);
    merge_records(&mut records);
    let system_counts = system
        .tracer()
        .map(odrl_manycore::SysTracer::counts)
        .unwrap_or_default();
    let counts = controller
        .event_counts()
        .unwrap_or_default()
        .merged(&system_counts);
    ObservedRun {
        traced,
        records,
        counts,
    }
}

/// Runs one controller through one scenario under a fault plan and
/// summarizes it (`watchdog` as in [`run_scenario_observed`]).
///
/// # Panics
///
/// As [`run_scenario_observed`].
pub fn run_scenario_faulted(
    scenario: &Scenario,
    kind: ControllerKind,
    plan: &FaultPlan,
    watchdog: bool,
) -> TracedRun {
    let ChipRun {
        mut system,
        mut controller,
        budget,
    } = RunBuilder::new(scenario.clone())
        .controller(kind)
        .faults(plan.clone())
        .watchdog(watchdog)
        .build_chip()
        .expect("valid scenario, fault plan and controller configuration");
    run_loop(&mut system, controller.as_mut(), budget, scenario.epochs)
}

/// Drives an already-built system/controller pair for `epochs` epochs under
/// a fixed budget (the building block for custom experiments like budget
/// steps).
///
/// # Panics
///
/// Panics on simulator errors (cannot happen with vetted scenarios).
pub fn run_loop(
    system: &mut System,
    controller: &mut dyn PowerController,
    budget: Watts,
    epochs: u64,
) -> TracedRun {
    let mut recorder = RunRecorder::new(controller.name());
    let mut trace = Vec::with_capacity(epochs as usize);
    let mut time = system.elapsed().value();
    // Observation and action buffers for the whole run: the hot loop
    // allocates nothing (observation_into + step_in_place reuse buffers).
    let mut actions = vec![LevelId(0); system.num_cores()];
    let mut obs = system.observation(budget);
    for _ in 0..epochs {
        controller.decide_into(&obs, &mut actions);
        let (total_power, total_instructions, dt) = {
            let report = system
                .step_in_place(&actions)
                .expect("controller actions are valid");
            (report.total_power, report.total_instructions(), report.dt)
        };
        time += dt.value();
        recorder.record(total_power, budget, total_instructions, dt);
        trace.push((time, total_power.value()));
        system.observation_into(budget, &mut obs);
    }
    TracedRun {
        summary: recorder.finish(),
        power_trace: trace,
    }
}

/// The fan-out the sweep binaries use: `ODRL_SWEEP_THREADS=n` pins the
/// worker count (`0` or `1` mean serial); unset or unparsable picks
/// [`Parallelism::Auto`]. Output is identical either way — the knob only
/// trades wall-clock time for threads.
pub fn sweep_parallelism() -> Parallelism {
    match std::env::var("ODRL_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(0) | Some(1) => Parallelism::Serial,
        Some(n) => Parallelism::Threads(n),
        None => Parallelism::Auto,
    }
}

/// Runs every `(scenario, controller)` cell of a sweep, fanning the cells
/// across `par` worker threads.
///
/// Cells are independent closed-loop runs, so this is embarrassingly
/// parallel: workers pull the next unclaimed cell from a shared counter
/// (good load balance when cell costs differ wildly, e.g. MaxBIPS-DP next
/// to a static baseline) and results are returned **in input order**.
/// Every run is seeded, so the output is identical to running the cells
/// serially — `par` only changes wall-clock time.
///
/// # Panics
///
/// Panics on simulator errors (cannot happen with vetted scenarios) or if
/// a worker thread panics.
pub fn run_scenarios_parallel(
    cells: &[(Scenario, ControllerKind)],
    par: Parallelism,
) -> Vec<RunSummary> {
    run_cells_parallel(cells, par, |(scenario, kind)| run_scenario(scenario, *kind))
}

/// The generic work-queue behind [`run_scenarios_parallel`]: applies `run`
/// to every cell on `par` worker threads and returns the results in input
/// order. Useful for experiments whose cells are not plain
/// `(Scenario, ControllerKind)` pairs (custom [`odrl_manycore::SystemConfig`]s, budget
/// steps, ...).
///
/// # Panics
///
/// Panics if a worker thread panics (i.e. if `run` panics on some cell).
pub fn run_cells_parallel<T, R, F>(cells: &[T], par: Parallelism, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = cells.len();
    let workers = par.shards(n);
    if workers <= 1 {
        return cells.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let run = &run;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run(&cells[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("scenario worker panicked"));
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Seeds per cell in a [`paired_seeds`] comparison: every cell runs on
/// seeds `1..=REPLICATES`.
pub const REPLICATES: u64 = 10;

/// Bootstrap resamples behind [`PairedStat::ci95`].
const BOOTSTRAP_RESAMPLES: usize = 10_000;

/// One paired statistic across [`REPLICATES`] seeds: the per-seed values
/// (a difference `b − a`, a ratio `b / a`, ...), their mean, and a 95 %
/// percentile-bootstrap confidence interval of that mean.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedStat {
    /// One value per seed, seed 1 first.
    pub per_seed: Vec<f64>,
    /// Mean over the seeds.
    pub mean: f64,
    /// 95 % percentile-bootstrap CI of the mean, `(low, high)`. The
    /// resampling stream is seeded, so the interval is reproducible.
    pub ci95: (f64, f64),
}

impl PairedStat {
    /// The mean and bootstrap CI of `per_seed`, for statistics derived
    /// from [`paired_seeds`] output (a subset of seeds, a ratio of two
    /// statistics, ...).
    ///
    /// # Panics
    ///
    /// Panics if `per_seed` is empty.
    pub fn new(per_seed: Vec<f64>) -> Self {
        assert!(!per_seed.is_empty(), "a paired statistic needs a value");
        let mean = per_seed.iter().sum::<f64>() / per_seed.len() as f64;
        let ci95 = bootstrap_ci95(&per_seed);
        Self {
            per_seed,
            mean,
            ci95,
        }
    }
}

/// Runs `paired(cell, seed)` for every cell on seeds `1..=REPLICATES`,
/// fanning the `cells × seeds` runs across `par` via
/// [`run_cells_parallel`]. Each call runs both arms of a comparison on
/// one seed and returns its paired statistics; every call must return
/// the same number of them.
///
/// Returns, per cell in input order, one [`PairedStat`] per statistic.
/// Like every sweep here, the result does not depend on `par`.
///
/// # Panics
///
/// Panics if `paired` panics, or if its calls return differing numbers
/// of statistics.
pub fn paired_seeds<T, F>(cells: &[T], par: Parallelism, paired: F) -> Vec<Vec<PairedStat>>
where
    T: Sync,
    F: Fn(&T, u64) -> Vec<f64> + Sync,
{
    let runs: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|c| (1..=REPLICATES).map(move |seed| (c, seed)))
        .collect();
    let results = run_cells_parallel(&runs, par, |&(c, seed)| paired(&cells[c], seed));
    results
        .chunks(REPLICATES as usize)
        .map(|per_cell| {
            let stats = per_cell[0].len();
            assert!(
                per_cell.iter().all(|r| r.len() == stats),
                "paired statistics differ in count across seeds"
            );
            (0..stats)
                .map(|k| PairedStat::new(per_cell.iter().map(|r| r[k]).collect()))
                .collect()
        })
        .collect()
}

/// 95 % percentile-bootstrap CI of the mean of `values`; draw `i` picks
/// index `stream_seed(0x5EED, i) % n`, so the interval is reproducible.
fn bootstrap_ci95(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let mut means: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|r| {
            (0..n)
                .map(|j| values[(stream_seed(0x5EED, (r * n + j) as u64) % n as u64) as usize])
                .sum::<f64>()
                / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    (
        means[BOOTSTRAP_RESAMPLES * 25 / 1000],
        means[BOOTSTRAP_RESAMPLES * 975 / 1000 - 1],
    )
}

/// Runs the headline benchmark × controller sweep behind tables E2–E4:
/// every suite benchmark as a homogeneous workload on `cores` cores, each
/// under every controller in `kinds`, with the cells fanned across `par`
/// worker threads via [`run_scenarios_parallel`]. Results are identical
/// at every setting; only wall-clock time changes.
///
/// Returns `(benchmark_name, summaries)` pairs with summaries in `kinds`
/// order.
///
/// # Panics
///
/// Panics on simulator errors (cannot happen with vetted scenarios).
pub fn benchmark_sweep(
    cores: usize,
    budget_frac: f64,
    epochs: u64,
    seed: u64,
    kinds: &[ControllerKind],
    par: Parallelism,
) -> Vec<(String, Vec<RunSummary>)> {
    let benches = odrl_workload::names();
    let cells: Vec<(Scenario, ControllerKind)> = benches
        .iter()
        .flat_map(|&bench| {
            let scenario = Scenario {
                cores,
                budget_frac,
                epochs,
                mix: MixPolicy::Homogeneous(bench.into()),
                seed,
                parallelism: Parallelism::Serial,
            };
            kinds.iter().map(move |&k| (scenario.clone(), k))
        })
        .collect();
    let mut summaries = run_scenarios_parallel(&cells, par).into_iter();
    benches
        .into_iter()
        .map(|bench| {
            let row = summaries.by_ref().take(kinds.len()).collect();
            (bench.to_string(), row)
        })
        .collect()
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

    fn tiny(kind: ControllerKind) -> RunSummary {
        run_scenario(&tiny_scenario(), kind)
    }

    #[test]
    fn every_headline_controller_runs() {
        for kind in ControllerKind::headline_set() {
            let s = tiny(kind);
            assert_eq!(s.epochs, 50);
            assert!(s.total_instructions > 0.0, "{} retired nothing", s.name);
            assert!(s.total_energy.value() > 0.0);
        }
    }

    #[test]
    fn labels_match_controller_names() {
        for kind in [
            ControllerKind::OdRl,
            ControllerKind::OdRlLocal,
            ControllerKind::MaxBipsDp,
            ControllerKind::SteepestDrop,
            ControllerKind::Pid,
            ControllerKind::StaticUniform,
            ControllerKind::PriorityGreedy,
            ControllerKind::Ondemand,
        ] {
            let s = tiny(kind);
            assert_eq!(s.name, kind.label());
        }
    }

    #[test]
    fn traced_run_has_one_point_per_epoch() {
        let scenario = Scenario {
            cores: 4,
            budget_frac: 0.7,
            epochs: 20,
            mix: MixPolicy::RoundRobin,
            seed: 1,
            parallelism: Parallelism::Serial,
        };
        let t = run_scenario_traced(&scenario, ControllerKind::Pid);
        assert_eq!(t.power_trace.len(), 20);
        assert!(t.power_trace.windows(2).all(|w| w[1].0 > w[0].0));
    }

    #[test]
    fn exhaustive_maxbips_runs_on_small_systems() {
        let scenario = Scenario {
            cores: 6,
            budget_frac: 0.6,
            epochs: 10,
            mix: MixPolicy::RoundRobin,
            seed: 2,
            parallelism: Parallelism::Serial,
        };
        let s = run_scenario(&scenario, ControllerKind::MaxBipsExhaustive);
        assert!(s.total_instructions > 0.0);
    }

    #[test]
    fn same_scenario_same_controller_is_deterministic() {
        let a = tiny(ControllerKind::OdRl);
        let b = tiny(ControllerKind::OdRl);
        assert_eq!(a.total_instructions, b.total_instructions);
        assert_eq!(a.total_energy, b.total_energy);
    }

    #[test]
    fn sweep_covers_suite_and_kinds() {
        let kinds = [ControllerKind::Pid, ControllerKind::SteepestDrop];
        let sweep = benchmark_sweep(4, 0.6, 5, 1, &kinds, Parallelism::Serial);
        assert_eq!(sweep.len(), odrl_workload::names().len());
        for (bench, summaries) in &sweep {
            assert!(!bench.is_empty());
            assert_eq!(summaries.len(), 2);
            assert_eq!(summaries[0].name, "pid");
            assert_eq!(summaries[1].name, "steepest-drop");
        }
    }

    #[test]
    fn parallel_cells_match_serial_in_input_order() {
        let mut cells = Vec::new();
        for seed in [3, 5] {
            for kind in [
                ControllerKind::OdRl,
                ControllerKind::SteepestDrop,
                ControllerKind::Pid,
            ] {
                let mut s = tiny_scenario();
                s.seed = seed;
                s.epochs = 30;
                cells.push((s, kind));
            }
        }
        let serial = run_scenarios_parallel(&cells, Parallelism::Serial);
        for threads in [2, 4, 8] {
            let parallel = run_scenarios_parallel(&cells, Parallelism::Threads(threads));
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.name, s.name);
                assert_eq!(p.epochs, s.epochs);
                assert_eq!(p.total_instructions, s.total_instructions);
                assert_eq!(p.total_energy, s.total_energy);
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let kinds = [ControllerKind::Pid, ControllerKind::StaticUniform];
        let serial = benchmark_sweep(4, 0.6, 5, 1, &kinds, Parallelism::Serial);
        let parallel = benchmark_sweep(4, 0.6, 5, 1, &kinds, Parallelism::Threads(4));
        assert_eq!(serial.len(), parallel.len());
        for ((bench_s, row_s), (bench_p, row_p)) in serial.iter().zip(&parallel) {
            assert_eq!(bench_s, bench_p);
            for (s, p) in row_s.iter().zip(row_p) {
                assert_eq!(s.name, p.name);
                assert_eq!(s.total_instructions, p.total_instructions);
            }
        }
    }

    #[test]
    fn inner_parallelism_does_not_change_results() {
        let mut serial = tiny_scenario();
        serial.epochs = 40;
        let mut threaded = serial.clone();
        threaded.parallelism = Parallelism::Threads(4);
        for kind in [ControllerKind::OdRl, ControllerKind::OdRlHier] {
            let a = run_scenario(&serial, kind);
            let b = run_scenario(&threaded, kind);
            assert_eq!(a.total_instructions, b.total_instructions, "{}", a.name);
            assert_eq!(a.total_energy, b.total_energy, "{}", a.name);
        }
    }

    #[test]
    fn paired_seeds_ci_sits_on_a_constant_shift() {
        let stats = paired_seeds(&[0.25f64, -1.5], Parallelism::Threads(3), |&shift, seed| {
            // Both arms move with the seed; only the shift survives pairing.
            let base = seed as f64 * 7.0;
            vec![(base + shift) - base]
        });
        for (stat, shift) in stats.iter().map(|s| &s[0]).zip([0.25, -1.5]) {
            assert_eq!(stat.per_seed.len(), REPLICATES as usize);
            assert!((stat.mean - shift).abs() < 1e-12);
            assert!((stat.ci95.0 - shift).abs() < 1e-12, "{:?}", stat.ci95);
            assert!((stat.ci95.1 - shift).abs() < 1e-12, "{:?}", stat.ci95);
        }
    }

    #[test]
    fn paired_seeds_ci_straddles_zero_for_alternating_signs() {
        let alternating = |_: &(), seed: u64| {
            let d = if seed.is_multiple_of(2) { 1.0 } else { -1.0 };
            vec![d, 2.0 * d]
        };
        let stats = paired_seeds(&[()], Parallelism::Serial, alternating);
        assert_eq!(stats.len(), 1);
        for stat in &stats[0] {
            assert_eq!(stat.mean, 0.0);
            assert!(stat.ci95.0 < 0.0 && stat.ci95.1 > 0.0, "{:?}", stat.ci95);
        }
        // Seeded resampling: the same input gives the same interval.
        assert_eq!(
            stats,
            paired_seeds(&[()], Parallelism::Threads(2), alternating)
        );
    }

    #[test]
    fn observed_builder_enables_tracing() {
        let scenario = tiny_scenario();
        let plan = FaultPlan::default();
        let ChipRun { system, .. } =
            observed_builder(&scenario, ControllerKind::Pid, Some(&plan), false)
                .build_chip()
                .expect("valid configuration");
        assert!(
            system.tracer().is_some(),
            "observed builder enables tracing"
        );
    }
}
