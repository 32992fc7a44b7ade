//! Golden regression for the struct-of-arrays epoch kernel.
//!
//! The constants below were captured from the pre-SoA (per-core struct)
//! implementation of the fixed-seed 256-core closed loop: run summary,
//! telemetry totals and the exported Q-table snapshot, hashed over the
//! summary's canonical JSON and the snapshot's binary encoding. The SoA kernel — `observation_into` +
//! `step_in_place` with reused scratch — must reproduce every one of them
//! bit for bit, both on the serial path and sharded four ways.
//!
//! Two faulted runs are pinned the same way: a 256-core chip under the
//! benchmark's five-burst fault plan, and a four-chip fleet under its
//! lossy budget links. They hash every epoch, so any change to which
//! fault windows open when moves them.
//!
//! If an intentional numerical change lands (new model term, different
//! reduction order), re-capture the constants and say so in the commit.

use odrl_bench::{RunBuilder, Scenario};
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController, QTableLayout, WatchdogConfig};
use odrl_faults::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultKind, FaultPlan, RandomBurst,
    SensorFault,
};
use odrl_manycore::{Parallelism, System, SystemConfig};
use odrl_metrics::RunRecorder;
use odrl_noc::NocConfig;
use odrl_power::{LevelId, Watts};
use odrl_thermal::Floorplan;
use odrl_workload::MixPolicy;

/// Scenario: 256 cores, round-robin mix, seed 42, budget 0.6 × max power.
const CORES: usize = 256;
const SEED: u64 = 42;
const BUDGET_FRAC: f64 = 0.6;
const EPOCHS: u64 = 120;

/// Re-captured when the power sensors switched to spare-slot Box-Muller
/// (each `(ln, sqrt, sin_cos)` evaluation now yields two epochs of noise),
/// which moved every downstream trajectory. Serial, four-shard and
/// empty-fault-plan runs still agree on every constant bit for bit.
const GOLDEN_INSTR_BITS: u64 = 0x4228_afd9_3345_0c22;
const GOLDEN_ENERGY_BITS: u64 = 0x4049_0737_2bf4_f1ec;
const GOLDEN_MEAN_POWER_BITS: u64 = 0x407a_122e_cdc9_d155;
const GOLDEN_OVERSHOOT_BITS: u64 = 0x0000_0000_0000_0000;
const GOLDEN_SUMMARY_HASH: u64 = 0xfe16_4aa4_946d_c5c2;
/// FNV-1a over the exported policy's versioned binary snapshot
/// (`PolicySnapshot::to_bytes`), which carries every Q value, visit count
/// and counter as raw bits.
const GOLDEN_POLICY_BYTES: u64 = 0x921a_a096_0c22_473e;

/// FNV-1a over an encoding: cheap, stable, and sensitive to any bit
/// difference in any encoded field.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fold(&mut h, bytes);
    h
}

/// Folds `bytes` into the FNV-1a state `h`.
fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn check(par: Parallelism, empty_fault_plan: bool) {
    let config = SystemConfig::builder()
        .cores(CORES)
        .mix(MixPolicy::RoundRobin)
        .seed(SEED)
        .parallelism(par)
        .build()
        .expect("valid config");
    let budget = Watts::new(BUDGET_FRAC * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    if empty_fault_plan {
        // A compiled-but-inert fault engine must leave every golden
        // constant untouched: injection only ever transforms pass outputs,
        // so a plan with no events is invisible to the kernel.
        system
            .attach_faults(&FaultPlan::new())
            .expect("empty plan compiles");
    }
    let odrl = OdRlConfig {
        parallelism: par,
        ..OdRlConfig::default()
    };
    let mut ctrl = OdRlController::new(odrl, &system.spec(), budget).expect("valid config");
    let mut recorder = RunRecorder::new("golden");
    let mut actions = vec![LevelId(0); system.num_cores()];
    let mut obs = system.observation(budget);
    for _ in 0..EPOCHS {
        ctrl.decide_into(&obs, &mut actions);
        let report = system.step_in_place(&actions).expect("valid actions");
        recorder.record(
            report.total_power,
            budget,
            report.total_instructions(),
            report.dt,
        );
        system.observation_into(budget, &mut obs);
    }
    let summary = recorder.finish();
    let policy = ctrl.export_policy();

    assert_eq!(system.telemetry().epochs(), EPOCHS, "{par:?}");
    assert_eq!(
        system.telemetry().total_instructions().to_bits(),
        GOLDEN_INSTR_BITS,
        "{par:?}: telemetry total instructions drifted"
    );
    assert_eq!(
        system.telemetry().total_energy().value().to_bits(),
        GOLDEN_ENERGY_BITS,
        "{par:?}: telemetry total energy drifted"
    );
    assert_eq!(
        summary.total_instructions.to_bits(),
        GOLDEN_INSTR_BITS,
        "{par:?}: summary total instructions drifted"
    );
    assert_eq!(
        summary.mean_power.value().to_bits(),
        GOLDEN_MEAN_POWER_BITS,
        "{par:?}: summary mean power drifted"
    );
    assert_eq!(
        summary.overshoot_energy.value().to_bits(),
        GOLDEN_OVERSHOOT_BITS,
        "{par:?}: summary overshoot energy drifted"
    );
    let summary_json = serde_json::to_string(&summary).expect("serializable summary");
    assert_eq!(
        fnv1a(summary_json.as_bytes()),
        GOLDEN_SUMMARY_HASH,
        "{par:?}: full run summary drifted"
    );
    assert_eq!(
        fnv1a(&policy.to_bytes()),
        GOLDEN_POLICY_BYTES,
        "{par:?}: exported Q-table snapshot drifted"
    );
}

#[test]
fn serial_closed_loop_matches_pre_soa_golden() {
    check(Parallelism::Serial, false);
}

#[test]
fn four_shard_closed_loop_matches_pre_soa_golden() {
    check(Parallelism::Threads(4), false);
}

#[test]
fn zero_fault_plan_preserves_golden_hashes() {
    check(Parallelism::Serial, true);
    check(Parallelism::Threads(4), true);
}

/// Epochs of each pinned faulted run.
const FAULTED_EPOCHS: u64 = 2_000;

/// The faulted chip run: FNV-1a over every epoch's power, measured power
/// and instruction bits, then the exported policy's snapshot bytes.
const GOLDEN_FAULTED_CHIP: u64 = 0x14bf_c93c_823b_ae0d;
/// The faulted fleet run: FNV-1a over the fleet's instruction and energy
/// totals after every epoch.
const GOLDEN_FAULTED_FLEET: u64 = 0xb33c_3bb6_c35f_576c;

/// The chip fault workload's plan: five bursts of every family, as the
/// benchmark shapes them for its full 20,500-epoch run.
fn chip_fault_plan() -> FaultPlan {
    let burst = |kind, rate_per_kepoch, duration| RandomBurst {
        kind,
        start: 0,
        end: 20_500,
        rate_per_kepoch,
        duration,
        chip: ChipScope::All,
    };
    FaultPlan::new()
        .with_burst(burst(FaultKind::Sensor(SensorFault::StuckLast), 1.0, 20))
        .with_burst(burst(
            FaultKind::Sensor(SensorFault::Drift { rate: 0.01 }),
            0.5,
            50,
        ))
        .with_burst(burst(
            FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
            1.0,
            10,
        ))
        .with_burst(burst(FaultKind::Budget(BudgetFault::Lost), 2.0, 10))
        .with_burst(burst(FaultKind::Core(CoreFault::Unplug), 0.1, 100))
}

fn faulted_scenario(cores: usize) -> Scenario {
    Scenario {
        cores,
        budget_frac: 0.6,
        epochs: FAULTED_EPOCHS,
        mix: MixPolicy::RoundRobin,
        seed: SEED,
        parallelism: Parallelism::Serial,
    }
}

#[test]
fn faulted_chip_matches_its_golden() {
    let mut config = faulted_scenario(CORES)
        .try_system_config()
        .expect("valid scenario");
    config.noc = Some(NocConfig::for_floorplan(
        Floorplan::squarish(CORES).expect("256 cores tile"),
    ));
    let budget = Watts::new(BUDGET_FRAC * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    system
        .attach_faults(&chip_fault_plan())
        .expect("valid plan");
    let odrl = OdRlConfig {
        layout: QTableLayout::Quantized,
        watchdog: WatchdogConfig::enabled(),
        ..OdRlConfig::default()
    };
    let mut ctrl = OdRlController::new(odrl, &system.spec(), budget).expect("valid config");
    ctrl.attach_budget_faults(system.fault_engine().expect("faults attached"))
        .expect("matching core counts");
    let mut actions = vec![LevelId(0); CORES];
    let mut obs = system.observation(budget);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..FAULTED_EPOCHS {
        ctrl.decide_into(&obs, &mut actions);
        let report = system.step_in_place(&actions).expect("valid actions");
        for x in [
            report.total_power.value(),
            report.measured_power.value(),
            report.total_instructions(),
        ] {
            fold(&mut h, &x.to_bits().to_le_bytes());
        }
        system.observation_into(budget, &mut obs);
    }
    fold(&mut h, &ctrl.export_policy().to_bytes());
    assert_eq!(h, GOLDEN_FAULTED_CHIP, "faulted chip run drifted: {h:#x}");
}

#[test]
fn faulted_fleet_matches_its_golden() {
    // The fleet workloads' lossy links: budget messages lost in bursts of
    // 5 epochs at 20 per kilo-epoch, on every chip's per-core links and on
    // the arbiter's links to the chips.
    let links = FaultPlan::new().with_burst(RandomBurst {
        kind: FaultKind::Budget(BudgetFault::Lost),
        start: 0,
        end: FAULTED_EPOCHS,
        rate_per_kepoch: 20.0,
        duration: 5,
        chip: ChipScope::All,
    });
    let mut fleet = RunBuilder::new(faulted_scenario(64))
        .faults(links)
        .watchdog(true)
        .arbiter_period(10)
        .fleet_parallelism(Parallelism::Threads(2))
        .build_fleet(4)
        .expect("valid fleet");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..FAULTED_EPOCHS {
        fleet.step_epoch().expect("fleet epoch completes");
        let totals = fleet.telemetry();
        fold(&mut h, &totals.total_instructions().to_bits().to_le_bytes());
        fold(
            &mut h,
            &totals.total_energy().value().to_bits().to_le_bytes(),
        );
    }
    assert_eq!(h, GOLDEN_FAULTED_FLEET, "faulted fleet run drifted: {h:#x}");
}
