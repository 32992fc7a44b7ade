//! Surviving silicon failures: sensor blackout + core hot-unplug.
//!
//! A 64-core chip under a 45 % power cap takes two mid-run hits:
//!
//! 1. a **sensor blackout** — the power sensors of cores 0–15 *and* the
//!    chip-level sensor read zero for 60 epochs (the cores keep burning
//!    real watts);
//! 2. a **hot-unplug** — cores 16 and 17 drop off the chip for 80 epochs,
//!    then rejoin.
//!
//! Two OD-RL controllers face the same faults: one with graceful
//! degradation on (sensor watchdog + budget redistribution away from dead
//! cores), one flying blind. The degraded-but-aware controller holds the
//! budget through both incidents; the blind one trusts the zero readings
//! and overshoots.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use odrl::core::WatchdogConfig;
use odrl::faults::{CoreFault, FaultKind, FaultPlan, SensorFault, Target};
use odrl::metrics::{fmt_num, RunRecorder, Table};
use odrl::prelude::*;

const CORES: usize = 64;
const EPOCHS: u64 = 600;

/// Sensor blackout on the first sixteen cores and the chip sensor, then a
/// two-core unplug.
fn incident_plan() -> FaultPlan {
    FaultPlan::new()
        .with_event(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Range { lo: 0, hi: 16 },
            200,
            60,
        )
        .with_event(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Chip,
            200,
            60,
        )
        .with_event(
            FaultKind::Core(CoreFault::Unplug),
            Target::Range { lo: 16, hi: 18 },
            320,
            80,
        )
}

fn run(
    watchdog: bool,
) -> Result<(odrl::metrics::RunSummary, u64, u64), Box<dyn std::error::Error>> {
    let config = SystemConfig::builder().cores(CORES).seed(23).build()?;
    let budget = Watts::new(0.45 * config.max_power().value());
    let mut system = System::new(config)?;
    system.attach_faults(&incident_plan())?;

    let odrl_config = OdRlConfig {
        watchdog: if watchdog {
            WatchdogConfig::enabled()
        } else {
            WatchdogConfig::default()
        },
        ..OdRlConfig::default()
    };
    let mut controller = OdRlController::new(odrl_config, &system.spec(), budget)?;
    if watchdog {
        let engine = system.fault_engine().expect("plan attached above");
        controller.attach_budget_faults(engine)?;
    }

    let mut recorder = RunRecorder::new(if watchdog {
        "od-rl + watchdog"
    } else {
        "od-rl blind"
    });
    let mut actions = vec![LevelId(0); CORES];
    let mut obs = system.observation(budget);
    let mut stale_epochs = 0u64;
    let mut dead_epochs = 0u64;
    for _ in 0..EPOCHS {
        controller.decide_into(&obs, &mut actions);
        let report = system.step_in_place(&actions)?;
        recorder.record(
            report.total_power,
            budget,
            report.total_instructions(),
            report.dt,
        );
        if let Some(wd) = controller.watchdog() {
            if (0..CORES).any(|i| wd.is_stale(i)) {
                stale_epochs += 1;
            }
            if wd.any_dead() {
                dead_epochs += 1;
            }
        }
        system.observation_into(budget, &mut obs);
    }
    Ok((recorder.finish(), stale_epochs, dead_epochs))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "fault tolerance on {CORES} cores, 45% budget, {EPOCHS} epochs:\n\
         sensor blackout on cores 0-15 + chip sensor (epochs 200-260), hot-unplug of cores 16-17 (epochs 320-400)\n"
    );

    let (aware, stale, dead) = run(true)?;
    let (blind, _, _) = run(false)?;

    let mut table = Table::new(vec!["controller", "gips", "overshoot_j", "peak_over_w"]);
    for s in [&aware, &blind] {
        table.add_row(vec![
            s.name.clone(),
            fmt_num(s.throughput_ips() / 1e9),
            fmt_num(s.overshoot_energy.value()),
            fmt_num(s.peak_overshoot.value()),
        ]);
    }
    println!("{table}");
    println!("watchdog flagged stale sensors on {stale} epochs and dead cores on {dead} epochs");
    println!(
        "with degradation on, overshoot energy is {} J vs {} J flying blind",
        fmt_num(aware.overshoot_energy.value()),
        fmt_num(blind.overshoot_energy.value()),
    );
    assert!(
        aware.overshoot_energy <= blind.overshoot_energy,
        "the watchdog should never make overshoot worse"
    );
    println!("\nsee `cargo run --release -p odrl-bench --bin exp_resilience` for the full sweep");
    Ok(())
}
