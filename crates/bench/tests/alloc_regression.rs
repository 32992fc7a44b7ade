//! Allocation regression gate: a steady-state closed-loop epoch performs
//! **zero** heap allocations.
//!
//! The SoA epoch kernel pre-sizes every buffer (core arrays, epoch scratch,
//! controller scratch, observation and action buffers) during warmup; after
//! that, observe → decide → step must never touch the allocator. This test
//! installs the counting allocator as the global allocator for this test
//! binary and diffs the thread-local counters around a steady-state window.
//!
//! The warmup covers first-use sizing (thermal/NoC buffers, report core
//! vector, pending double buffers) and several coarse-grain reallocations,
//! so the measured window exercises both the every-epoch path and the
//! every-`realloc_period` path.

use odrl_bench::{allocs, ChipRun, ControllerKind, RunBuilder, Scenario};
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController, QTableLayout};
use odrl_faults::{
    ActuatorFault, BudgetFault, CoreFault, FaultKind, FaultPlan, SensorFault, Target,
};
use odrl_manycore::{Parallelism, System};
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

#[test]
fn steady_state_epoch_allocates_nothing() {
    let scenario = Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let config = scenario
        .try_system_config()
        .expect("scenario parameters are valid");
    let budget = Watts::new(scenario.budget_frac * config.max_power().value());
    let mut system = System::new(config).expect("valid scenario config");
    let mut controller = ControllerKind::OdRl.build(&system.spec(), budget);
    let mut actions = vec![LevelId(0); 64];
    let mut obs = system.observation(budget);

    // Warmup: 30 epochs sizes every scratch buffer and passes through
    // coarse-grain reallocations at epochs 10, 20 and 30.
    for _ in 0..30 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    for _ in 0..50 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "steady-state epochs allocated {da} times ({db} bytes) over 50 epochs"
    );
}

#[test]
fn fault_enabled_steady_state_allocates_nothing() {
    // Same gate with the fault engine, sensor watchdog and unreliable
    // budget channel all engaged, and faults from every family firing
    // *inside* the measured window. The fault scratch (flag arrays,
    // actuator command ring, channel inboxes) is sized when the plan is
    // attached; refreshing it each epoch must never touch the allocator.
    // Run for both Q-table layouts, with structured tracing off and on:
    // the preallocated trace rings and metrics must not allocate either.
    let scenario = Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let plan = FaultPlan::new()
        .with_event(FaultKind::Sensor(SensorFault::StuckLast), Target::Range { lo: 0, hi: 8 }, 0, 100)
        .with_event(
            FaultKind::Sensor(SensorFault::Drift { rate: 0.01 }),
            Target::Range { lo: 8, hi: 16 },
            0,
            100,
        )
        .with_event(
            FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
            Target::Range { lo: 16, hi: 24 },
            0,
            100,
        )
        .with_event(FaultKind::Budget(BudgetFault::Lost), Target::Range { lo: 24, hi: 32 }, 0, 100)
        .with_event(
            FaultKind::Budget(BudgetFault::Delayed { epochs: 2 }),
            Target::Range { lo: 32, hi: 40 },
            0,
            100,
        )
        .with_event(FaultKind::Core(CoreFault::Unplug), Target::Range { lo: 40, hi: 44 }, 40, 60)
        .with_event(
            FaultKind::Core(CoreFault::Throttle { max_level: 2 }),
            Target::Range { lo: 44, hi: 48 },
            0,
            100,
        );
    for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
        for traced in [false, true] {
            let ChipRun {
                mut system,
                mut controller,
                budget,
            } = RunBuilder::new(scenario.clone())
                .controller(ControllerKind::OdRl)
                .odrl(OdRlConfig {
                    layout,
                    ..OdRlConfig::default()
                })
                .faults(plan.clone())
                .watchdog(true)
                .obs(traced)
                .build_chip()
                .expect("valid faulted configuration");
            let mut actions = vec![LevelId(0); 64];
            let mut obs = system.observation(budget);

            for _ in 0..30 {
                controller.decide_into(&obs, &mut actions);
                system.step_in_place(&actions).expect("valid actions");
                system.observation_into(budget, &mut obs);
            }

            let a0 = allocs::allocations();
            let b0 = allocs::allocated_bytes();
            for _ in 0..50 {
                controller.decide_into(&obs, &mut actions);
                system.step_in_place(&actions).expect("valid actions");
                system.observation_into(budget, &mut obs);
            }
            let da = allocs::allocations() - a0;
            let db = allocs::allocated_bytes() - b0;
            assert_eq!(
                da, 0,
                "fault-enabled steady-state epochs ({layout:?}, tracing {traced}) \
                 allocated {da} times ({db} bytes) over 50 epochs"
            );
            if traced {
                assert!(
                    controller.event_counts().is_some_and(|c| c.total() > 0),
                    "the traced run recorded controller events"
                );
            }
        }
    }
}

#[test]
fn quantized_steady_state_allocates_nothing() {
    // Same gate with the per-core agents on the banked fixed-point
    // Q-table layout: the i16 banks, row scales and visit counters are all
    // sized at construction, and requantization rewrites rows in place, so
    // the quantized decide/learn path must stay inside the zero-alloc
    // envelope too.
    let scenario = Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let ChipRun {
        mut system,
        mut controller,
        budget,
    } = RunBuilder::new(scenario)
        .odrl(OdRlConfig {
            layout: QTableLayout::Quantized,
            ..OdRlConfig::default()
        })
        .build_chip()
        .expect("valid quantized configuration");
    let mut actions = vec![LevelId(0); 64];
    let mut obs = system.observation(budget);

    for _ in 0..30 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    for _ in 0..50 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "quantized steady-state epochs allocated {da} times ({db} bytes) over 50 epochs"
    );
}

#[test]
fn quantized_fleet_steady_state_allocates_nothing() {
    // Fleet-scope arm of the quantized gate: four chips on the banked
    // fixed-point layout under the rack arbiter. This is the arm that proves
    // the block-scanned decide path *and* the per-shard ε-draw refill (the
    // `eps_draws` block the controller fills from each core's own stream)
    // stay allocation-free — the draw buffer is sized at build time and
    // refilled in place.
    let scenario = Scenario {
        cores: 16,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let mut fleet = RunBuilder::new(scenario)
        .controller(ControllerKind::OdRl)
        .odrl(OdRlConfig {
            layout: QTableLayout::Quantized,
            ..OdRlConfig::default()
        })
        .arbiter_period(25)
        .build_fleet(4)
        .expect("valid quantized fleet configuration");

    // Warmup: sizes per-chip scratch (including the ε-draw buffers) and
    // passes one arbiter round (epoch 25).
    for _ in 0..45 {
        fleet.step_epoch().expect("fleet epoch completes");
    }

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    // Crosses arbiter rounds at epochs 50 and 75.
    for _ in 0..50 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "quantized fleet steady-state epochs allocated {da} times ({db} bytes) over 50 epochs"
    );
}

#[test]
fn diagnosed_fleet_steady_state_allocates_nothing() {
    // Observability-on arm of the fleet gate: learning-health diagnostics
    // on every chip (per-shard summary accumulators, the periodic
    // quantized-health scan), rack-scope metric aggregation, and the
    // flight recorder all inside the zero-alloc envelope. The recorder's
    // single permitted dump trips (and allocates) during warmup — TD
    // errors on cold optimistic tables dwarf the watermark — so the
    // measured window exercises `observe` on the exhausted-recorder path
    // the way a long healthy run would.
    let scenario = Scenario {
        cores: 16,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let mut fleet = RunBuilder::new(scenario)
        .controller(ControllerKind::OdRl)
        .recorder(odrl_fleet::RecorderConfig {
            window: 8,
            rules: vec![odrl_fleet::WatermarkRule::TdErrorBlowup { max_abs: 0.001 }],
            cooldown: 0,
            max_dumps: 1,
        })
        .arbiter_period(25)
        .build_fleet(4)
        .expect("valid diagnosed fleet configuration");

    // Warmup: sizes per-chip scratch, the merged-snapshot and rack-
    // registry name buffers, records the one permitted anomaly dump, and
    // passes a quantized-health scan epoch plus one arbiter round.
    for _ in 0..45 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    assert_eq!(
        fleet.anomaly_dumps().len(),
        1,
        "the warmup must exhaust the recorder's dump budget"
    );

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    // Crosses arbiter rounds at epochs 50 and 75 and quantized-health
    // scans at epochs 48, 64 and 80.
    for _ in 0..50 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "diagnosed fleet steady-state epochs allocated {da} times ({db} bytes) over 50 epochs"
    );
}

#[test]
fn market_arm_steady_state_allocates_nothing() {
    // Same gate with the predictive slack market on every epoch: the
    // predictors, reclaim pool and market scratch are all sized at
    // construction, so the donate/grant/write-back pass must stay inside
    // the zero-alloc envelope too.
    let scenario = Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let ChipRun {
        mut system,
        mut controller,
        budget,
    } = RunBuilder::new(scenario)
        .controller(ControllerKind::OdRlMarket)
        .build_chip()
        .expect("valid market configuration");
    assert_eq!(controller.name(), "od-rl-market");
    let mut actions = vec![LevelId(0); 64];
    let mut obs = system.observation(budget);

    // Warmup: sizes the market scratch and carries every predictor past
    // its history-window warm-up (8 samples).
    for _ in 0..30 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    for _ in 0..50 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "market-arm steady-state epochs allocated {da} times ({db} bytes) over 50 epochs"
    );
}

#[test]
fn warm_start_boot_allocates_nothing_at_steady_state() {
    // Boot a chip from a Q-table snapshot on disk: the import happens once
    // at build time (allocations there are fine), after which the warmed
    // controller must hit the same zero-alloc steady state as a cold one.
    let scenario = Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let config = scenario
        .try_system_config()
        .expect("scenario parameters are valid");
    let budget = Watts::new(scenario.budget_frac * config.max_power().value());
    let mut donor_system = System::new(config).expect("valid scenario config");
    let mut donor =
        OdRlController::new(OdRlConfig::default(), &donor_system.spec(), budget)
            .expect("valid OD-RL config");
    let mut actions = vec![LevelId(0); 64];
    let mut obs = donor_system.observation(budget);
    for _ in 0..40 {
        donor.decide_into(&obs, &mut actions);
        donor_system.step_in_place(&actions).expect("valid actions");
        donor_system.observation_into(budget, &mut obs);
    }
    let path = std::env::temp_dir().join("odrl_alloc_regression_warm_start.qsnap");
    donor.export_policy().save(&path).expect("snapshot saves");

    let ChipRun {
        mut system,
        mut controller,
        budget,
    } = RunBuilder::new(scenario)
        .warm_start(&path)
        .build_chip()
        .expect("valid warm-started configuration");
    let _ = std::fs::remove_file(&path);
    let mut obs = system.observation(budget);

    for _ in 0..30 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    for _ in 0..50 {
        controller.decide_into(&obs, &mut actions);
        system.step_in_place(&actions).expect("valid actions");
        system.observation_into(budget, &mut obs);
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "warm-started steady-state epochs allocated {da} times ({db} bytes) over 50 epochs"
    );
}

#[test]
fn steady_state_fleet_stepping_allocates_nothing() {
    let scenario = Scenario {
        cores: 16,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: Parallelism::Serial,
    };
    let plan = FaultPlan::new()
        .with_event(
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 4 },
            40,
            20,
        )
        .with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Range { lo: 4, hi: 8 },
            40,
            20,
        );
    let mut fleet = RunBuilder::new(scenario)
        .controller(ControllerKind::OdRl)
        .faults(plan)
        .watchdog(true)
        .arbiter_period(25)
        .build_fleet(4)
        .expect("valid fleet configuration");

    // Warmup: sizes every per-chip scratch buffer and passes through one
    // arbiter reallocation round (epoch 25) plus the fault window opening.
    for _ in 0..45 {
        fleet.step_epoch().expect("fleet epoch completes");
    }

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    // The measured window crosses arbiter rounds at epochs 50 and 75 and
    // the fault-window close, so arbitration, channel traffic and fault
    // edges are all inside the zero-alloc envelope.
    for _ in 0..50 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    assert_eq!(
        da, 0,
        "steady-state fleet stepping allocated {da} times ({db} bytes) over 50 epochs"
    );
}
