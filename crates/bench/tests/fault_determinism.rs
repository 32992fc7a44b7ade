//! Cross-shard determinism of the *faulted* closed loop.
//!
//! Fault injection must not break the bit-identity guarantee of the epoch
//! kernel: fault randomness comes only from the schedule's own per-(burst,
//! core) streams, drawn in order as the run reaches each window, so the
//! per-epoch schedule is a pure function of `(plan, cores, seed, epoch)`,
//! and every injection point transforms sharded pass *outputs* without
//! consuming from the per-core RNG streams. These tests run a closed loop
//! under a plan exercising every fault family — with the OD-RL watchdog
//! and the unreliable budget channel engaged — serially and sharded, and
//! require identical action sequences, telemetry totals and Q-tables.

use odrl_bench::sweep_parallelism;
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController, PolicySnapshot, WatchdogConfig};
use odrl_faults::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultKind, FaultPlan, RandomBurst,
    SensorFault, Target,
};
use odrl_manycore::{Parallelism, System, SystemConfig};
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;

const CORES: usize = 64;
const SEED: u64 = 17;
const EPOCHS: u64 = 80;

/// A plan touching every fault family: per-core and chip sensor faults,
/// all three actuator modes, budget-channel loss, a hot-unplug window, a
/// throttle window, and a seeded random burst on top.
fn stress_plan() -> FaultPlan {
    FaultPlan::new()
        .with_event(
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 8 },
            10,
            25,
        )
        .with_event(
            FaultKind::Sensor(SensorFault::StuckZero),
            Target::Range { lo: 8, hi: 16 },
            20,
            20,
        )
        .with_event(
            FaultKind::Sensor(SensorFault::Spike { gain: 1.8 }),
            Target::Range { lo: 16, hi: 20 },
            5,
            60,
        )
        .with_event(
            FaultKind::Sensor(SensorFault::Drift { rate: 0.02 }),
            Target::Range { lo: 20, hi: 24 },
            5,
            60,
        )
        .with_event(
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Chip,
            30,
            6,
        )
        .with_event(
            FaultKind::Actuator(ActuatorFault::Dropped),
            Target::Range { lo: 24, hi: 28 },
            15,
            20,
        )
        .with_event(
            FaultKind::Actuator(ActuatorFault::Delayed { epochs: 3 }),
            Target::Range { lo: 28, hi: 32 },
            15,
            30,
        )
        .with_event(
            FaultKind::Actuator(ActuatorFault::Clamped { max_level: 3 }),
            Target::Range { lo: 32, hi: 36 },
            0,
            EPOCHS,
        )
        .with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Range { lo: 36, hi: 44 },
            10,
            40,
        )
        .with_event(
            FaultKind::Budget(BudgetFault::Delayed { epochs: 2 }),
            Target::Range { lo: 44, hi: 48 },
            10,
            40,
        )
        .with_event(
            FaultKind::Budget(BudgetFault::Stale),
            Target::Range { lo: 48, hi: 52 },
            10,
            40,
        )
        .with_event(
            FaultKind::Core(CoreFault::Unplug),
            Target::Range { lo: 52, hi: 56 },
            25,
            30,
        )
        .with_event(
            FaultKind::Core(CoreFault::Throttle { max_level: 2 }),
            Target::Range { lo: 56, hi: 60 },
            25,
            30,
        )
        .with_burst(RandomBurst {
            kind: FaultKind::Sensor(SensorFault::StuckLast),
            start: 0,
            end: EPOCHS,
            rate_per_kepoch: 15.0,
            duration: 6,
            chip: ChipScope::All,
        })
}

fn faulted_closed_loop(par: Parallelism) -> (Vec<Vec<LevelId>>, PolicySnapshot, f64, f64) {
    let config = SystemConfig::builder()
        .cores(CORES)
        .mix(MixPolicy::RoundRobin)
        .seed(SEED)
        .parallelism(par)
        .build()
        .expect("valid config");
    let budget = Watts::new(0.6 * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    system.attach_faults(&stress_plan()).expect("valid plan");
    let odrl = OdRlConfig {
        parallelism: par,
        watchdog: WatchdogConfig::enabled(),
        ..OdRlConfig::default()
    };
    let mut ctrl = OdRlController::new(odrl, &system.spec(), budget).expect("valid config");
    ctrl.attach_budget_faults(system.fault_engine().expect("faults attached"))
        .expect("matching core counts");
    let mut actions = vec![LevelId(0); CORES];
    let mut all_actions = Vec::new();
    let mut obs = system.observation(budget);
    for _ in 0..EPOCHS {
        ctrl.decide_into(&obs, &mut actions);
        all_actions.push(actions.clone());
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }
    (
        all_actions,
        ctrl.export_policy(),
        system.telemetry().total_instructions(),
        system.telemetry().total_energy().value(),
    )
}

/// Serial plus shard counts that do not divide the core count evenly,
/// plus the CI-pinned count (as in `parallel_determinism`).
fn shard_counts() -> Vec<Parallelism> {
    let mut counts = vec![
        Parallelism::Threads(2),
        Parallelism::Threads(3),
        Parallelism::Threads(8),
    ];
    if let Parallelism::Threads(n) = sweep_parallelism() {
        counts.push(Parallelism::Threads(n));
    }
    counts
}

#[test]
fn faulted_closed_loop_is_bit_identical_across_shards() {
    let (serial_actions, serial_policy, serial_instr, serial_energy) =
        faulted_closed_loop(Parallelism::Serial);
    // Sanity: the plan actually perturbed the run (a fault schedule that
    // never fires would make this test vacuous).
    for par in shard_counts() {
        let (actions, policy, instr, energy) = faulted_closed_loop(par);
        assert_eq!(actions, serial_actions, "{par:?}: action sequence diverged");
        assert_eq!(policy, serial_policy, "{par:?}: learned Q-tables diverged");
        assert_eq!(
            instr.to_bits(),
            serial_instr.to_bits(),
            "{par:?}: total instructions diverged"
        );
        assert_eq!(
            energy.to_bits(),
            serial_energy.to_bits(),
            "{par:?}: total energy diverged"
        );
    }
}

#[test]
fn faults_actually_perturb_the_run() {
    // The determinism test above is only meaningful if the plan changes
    // the trajectory: compare a faulted run against a fault-free one.
    let faulted = faulted_closed_loop(Parallelism::Serial);

    let config = SystemConfig::builder()
        .cores(CORES)
        .mix(MixPolicy::RoundRobin)
        .seed(SEED)
        .parallelism(Parallelism::Serial)
        .build()
        .expect("valid config");
    let budget = Watts::new(0.6 * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    let odrl = OdRlConfig::default();
    let mut ctrl = OdRlController::new(odrl, &system.spec(), budget).expect("valid config");
    let mut actions = vec![LevelId(0); CORES];
    let mut obs = system.observation(budget);
    for _ in 0..EPOCHS {
        ctrl.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }
    let clean_instr = system.telemetry().total_instructions();
    assert_ne!(
        faulted.2.to_bits(),
        clean_instr.to_bits(),
        "the stress plan left the run untouched"
    );
}

#[test]
fn same_plan_and_seed_reproduce_the_same_run() {
    let a = faulted_closed_loop(Parallelism::Serial);
    let b = faulted_closed_loop(Parallelism::Serial);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2.to_bits(), b.2.to_bits());
    assert_eq!(a.3.to_bits(), b.3.to_bits());
}
