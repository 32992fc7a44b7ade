//! **E13** — Resilience: graceful degradation under injected faults.
//!
//! Sweeps fault intensity (none / light / moderate / heavy) for the four
//! headline controllers on the default evaluation scenario. Every
//! intensity above `none` also contains one deterministic *incident*: a
//! sensor blackout (stuck-at-zero) across a quarter of the chip plus a
//! two-core hot-unplug, mid-run. Reported per cell:
//!
//! * overshoot energy (J) — budget violations under faulty telemetry;
//! * GIPS — throughput kept while degraded;
//! * recovery epochs — epochs after the incident ends until true chip
//!   power holds at or below budget for 10 consecutive epochs;
//! * events — per-kind structured-event totals from `odrl-obs`
//!   (`st`ale / `dd`ead / `dk` dark watchdog flips, `ra` reallocations,
//!   `rd` redistributions, `ov`ershoot onsets, `f`ault edges) for the
//!   instrumented OD-RL runs; `n/a` for the uninstrumented baselines.
//!
//! OD-RL runs with its sensor watchdog and the unreliable budget channel
//! (graceful degradation on); the baselines take the same faults with no
//! degradation help — exactly the asymmetry a controller-robustness claim
//! needs to demonstrate.
//!
//! Run with: `cargo run --release -p odrl-bench --bin exp_resilience`
//! (`--smoke` for the small CI variant). `--trace <path>` also writes the
//! merged event stream of the heavy-intensity OD-RL cell as JSONL for
//! `trace_inspect`.

use odrl_bench::{
    run_cells_parallel, run_scenario_faulted, run_scenario_observed, sweep_parallelism,
    ControllerKind, Scenario, TracedRun,
};
use odrl_faults::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultKind, FaultPlan, RandomBurst,
    SensorFault, Target,
};
use odrl_manycore::Parallelism;
use odrl_metrics::{fmt_num, Table};
use odrl_obs::JsonlSink;
use odrl_workload::MixPolicy;
use std::io::Write;

/// The fault-intensity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intensity {
    None,
    Light,
    Moderate,
    Heavy,
}

impl Intensity {
    fn all() -> [Intensity; 4] {
        [Self::None, Self::Light, Self::Moderate, Self::Heavy]
    }

    fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Light => "light",
            Self::Moderate => "moderate",
            Self::Heavy => "heavy",
        }
    }

    /// Background fault rate in events per core per 1000 epochs.
    fn rate(self) -> f64 {
        match self {
            Self::None => 0.0,
            Self::Light => 2.0,
            Self::Moderate => 10.0,
            Self::Heavy => 30.0,
        }
    }
}

/// The incident window: starts mid-run, lasts a tenth of the run (at
/// least 20 epochs).
fn incident(epochs: u64) -> (u64, u64) {
    let start = epochs / 2;
    let len = (epochs / 10).max(20);
    (start, len)
}

/// Builds the fault plan for one intensity on an `n`-core, `epochs`-epoch
/// run. Entirely declarative; its bursts draw only from the fault
/// schedule's own seeded streams, so every cell is seeded-deterministic.
fn plan_for(intensity: Intensity, n: usize, epochs: u64) -> FaultPlan {
    if intensity == Intensity::None {
        return FaultPlan::new();
    }
    let rate = intensity.rate();
    let (start, len) = incident(epochs);
    let mut plan = FaultPlan::new()
        // The deterministic incident every faulted cell shares: a sensor
        // blackout over the first quarter of the chip plus a two-core
        // hot-unplug. Recovery is measured from its end.
        .with_event(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Range { lo: 0, hi: n / 4 },
            start,
            len,
        )
        .with_event(
            FaultKind::Core(CoreFault::Unplug),
            Target::Range {
                lo: n / 4,
                hi: n / 4 + 2,
            },
            start,
            len,
        )
        // Background wear: stuck and lossy components appearing at the
        // intensity's rate, each lasting 8 epochs.
        .with_burst(RandomBurst {
            kind: FaultKind::Sensor(SensorFault::StuckLast),
            start: 0,
            end: epochs,
            rate_per_kepoch: rate,
            duration: 8,
            chip: ChipScope::All,
        })
        .with_burst(RandomBurst {
            kind: FaultKind::Budget(BudgetFault::Lost),
            start: 0,
            end: epochs,
            rate_per_kepoch: rate,
            duration: 8,
            chip: ChipScope::All,
        });
    if intensity != Intensity::Light {
        plan = plan
            .with_burst(RandomBurst {
                kind: FaultKind::Sensor(SensorFault::Spike { gain: 1.5 }),
                start: 0,
                end: epochs,
                rate_per_kepoch: rate / 2.0,
                duration: 4,
                chip: ChipScope::All,
            })
            .with_burst(RandomBurst {
                kind: FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
                start: 0,
                end: epochs,
                rate_per_kepoch: rate / 2.0,
                duration: 8,
                chip: ChipScope::All,
            });
    }
    if intensity == Intensity::Heavy {
        plan = plan.with_burst(RandomBurst {
            kind: FaultKind::Core(CoreFault::Throttle { max_level: 2 }),
            start: 0,
            end: epochs,
            rate_per_kepoch: rate / 3.0,
            duration: 12,
            chip: ChipScope::All,
        });
    }
    plan
}

/// Epochs after the incident window until true chip power stays at or
/// below the budget for 10 consecutive epochs (`-` when the run never
/// settles, `0` when it is already settled).
fn recovery_epochs(run: &TracedRun, budget_w: f64, epochs: u64) -> Option<u64> {
    let (start, len) = incident(epochs);
    let from = (start + len) as usize;
    const HOLD: usize = 10;
    let trace = &run.power_trace;
    let mut held = 0usize;
    for (k, &(_, p)) in trace.iter().enumerate().skip(from) {
        if p <= budget_w {
            held += 1;
            if held >= HOLD {
                return Some((k + 1 - from - HOLD) as u64);
            }
        } else {
            held = 0;
        }
    }
    None
}

/// The cell whose event stream `--trace` exports: the most faults, with
/// the watchdog and tracing on.
const TRACED_CELL: (Intensity, ControllerKind) = (Intensity::Heavy, ControllerKind::OdRl);

/// Writes `records` to `path`, one JSON object per line.
fn export_trace(path: &str, records: &[odrl_obs::EventRecord]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
    sink.emit_all(records)?;
    sink.into_inner().flush()
}

fn main() {
    let mut smoke = false;
    let mut trace_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            other => panic!("unknown argument: {other} (expected --smoke/--trace <path>)"),
        }
    }
    let (cores, epochs) = if smoke { (16, 300) } else { (64, 2_000) };
    let kinds = ControllerKind::headline_set();
    println!(
        "E13: resilience under injected faults ({cores} cores, 60% budget, {epochs} epochs{})\n",
        if smoke { ", smoke" } else { "" }
    );

    let scenario = Scenario {
        cores,
        budget_frac: 0.6,
        epochs,
        mix: MixPolicy::RoundRobin,
        seed: 1,
        parallelism: Parallelism::Serial,
    };
    let budget_w = 0.6
        * scenario
            .try_system_config()
            .expect("valid scenario")
            .max_power()
            .value();

    // One cell per (intensity, controller); OD-RL gets its watchdog.
    let cells: Vec<(Intensity, ControllerKind)> = Intensity::all()
        .into_iter()
        .flat_map(|i| kinds.iter().map(move |&k| (i, k)))
        .collect();
    // OD-RL runs carry the structured-event layer (watchdog + tracing);
    // baselines run uninstrumented, exactly as before. Only the exported
    // cell keeps its records.
    let mut runs = run_cells_parallel(&cells, sweep_parallelism(), |&(intensity, kind)| {
        let plan = plan_for(intensity, cores, epochs);
        if matches!(kind, ControllerKind::OdRl | ControllerKind::OdRlLocal) {
            let observed = run_scenario_observed(&scenario, kind, Some(&plan), true);
            let records = (trace_path.is_some() && (intensity, kind) == TRACED_CELL)
                .then_some(observed.records);
            (observed.traced, Some(observed.counts), records)
        } else {
            (
                run_scenario_faulted(&scenario, kind, &plan, false),
                None,
                None,
            )
        }
    });

    let mut table = Table::new(vec![
        "intensity",
        "controller",
        "overshoot_j",
        "gips",
        "recovery_ep",
        "events",
    ]);
    for (&(intensity, kind), (run, counts, _)) in cells.iter().zip(&runs) {
        let s = &run.summary;
        let recovery = if intensity == Intensity::None {
            "-".to_string()
        } else {
            recovery_epochs(run, budget_w, epochs)
                .map_or_else(|| "never".to_string(), |e| e.to_string())
        };
        table.add_row(vec![
            intensity.label().to_string(),
            kind.label().to_string(),
            fmt_num(s.overshoot_energy.value()),
            fmt_num(s.throughput_ips() / 1e9),
            recovery,
            counts.map_or_else(|| "n/a".to_string(), |c| c.compact()),
        ]);
    }
    println!("{table}");

    // The robustness headline: OD-RL's overshoot under every fault
    // intensity vs the reactive baselines under the same faults.
    for intensity in [Intensity::Light, Intensity::Moderate, Intensity::Heavy] {
        let row = |k: ControllerKind| {
            cells
                .iter()
                .position(|&c| c == (intensity, k))
                .map(|i| runs[i].0.summary.overshoot_energy.value())
                .unwrap_or(f64::NAN)
        };
        let odrl = row(ControllerKind::OdRl);
        let pid = row(ControllerKind::Pid);
        let steep = row(ControllerKind::SteepestDrop);
        println!(
            "{}: od-rl overshoot {} J vs pid {} J, steepest-drop {} J{}",
            intensity.label(),
            fmt_num(odrl),
            fmt_num(pid),
            fmt_num(steep),
            if odrl < pid && odrl < steep {
                "  (od-rl strictly lowest)"
            } else {
                ""
            }
        );
    }

    if let Some(path) = trace_path {
        let records = runs
            .iter_mut()
            .find_map(|(_, _, records)| records.take())
            .expect("the traced cell is in the sweep");
        export_trace(&path, &records).expect("writable trace path");
        println!(
            "\nwrote {} records of the {} {} cell to {path}",
            records.len(),
            TRACED_CELL.0.label(),
            TRACED_CELL.1.label()
        );
    }
}
