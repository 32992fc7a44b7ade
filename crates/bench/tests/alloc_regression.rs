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
//!
//! One test also bounds construction: what `System::new` and
//! `OdRlController::new` allocate at the `chip1024` benchmark shape. Those
//! are counts, not timings, so they hold on any host.
//!
//! The tests run one at a time, through [`serial`], so that the
//! process-wide count the sharded arms also assert sees no other test's
//! allocations: it covers the chunks shard-pool workers run, which the
//! calling thread's counters miss.

use odrl_bench::{allocs, ChipRun, ControllerKind, RunBuilder, Scenario};
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController, QTableLayout};
use odrl_faults::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultKind, FaultPlan, RandomBurst,
    SensorFault, Target,
};
use odrl_manycore::{Parallelism, System};
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

/// Held by every test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// Waits for the other tests of this file to finish. A test that failed
/// while holding the lock does not fail the ones after it.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations of three consecutive measured windows.
struct Windows {
    /// The calling thread's allocations over all three windows.
    thread: u64,
    /// The calling thread's allocated bytes over all three windows.
    bytes: u64,
    /// The fewest process-wide allocations of any one window.
    process: u64,
}

impl std::fmt::Display for Windows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} times ({} bytes) on the calling thread over 3 x 50 epochs, \
             {} times process-wide in the quietest 50",
            self.thread, self.bytes, self.process
        )
    }
}

/// Runs `window` three times and counts its allocations. The
/// process-wide count also sees the test harness's own threads, which
/// report a finished test and start the next one (blocked on [`serial`])
/// just as a test begins; taking the quietest window rules them out,
/// while an epoch that allocates on any thread does so in every window.
fn measure(mut window: impl FnMut()) -> Windows {
    let (a0, b0) = (allocs::allocations(), allocs::allocated_bytes());
    let mut process = u64::MAX;
    for _ in 0..3 {
        process = process.min(allocs::process_counting(&mut window).0);
    }
    Windows {
        thread: allocs::allocations() - a0,
        bytes: allocs::allocated_bytes() - b0,
        process,
    }
}

#[test]
fn steady_state_epoch_allocates_nothing() {
    let _serial = serial();
    let w = chip_epoch_allocations(Parallelism::Serial);
    assert_eq!(
        (w.thread, w.process),
        (0, 0),
        "steady-state epochs allocated {w}"
    );
}

#[test]
fn auto_sharded_epoch_allocates_nothing() {
    // `Auto` resolves its shard count once per process, so the per-epoch
    // `shard_chunks` calls in the step and the controller never re-query
    // the OS (which allocates) after the first epoch. The process-wide
    // count covers the chunks pool workers run.
    let _serial = serial();
    let w = chip_epoch_allocations(Parallelism::Auto);
    assert_eq!(
        (w.thread, w.process),
        (0, 0),
        "auto-sharded steady-state epochs allocated {w}"
    );
}

/// Allocations of three 50-epoch steady-state chip windows, after a
/// 30-epoch warm-up.
fn chip_epoch_allocations(parallelism: Parallelism) -> Windows {
    let scenario = Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism,
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

    measure(|| {
        for _ in 0..50 {
            controller.decide_into(&obs, &mut actions);
            system.step_in_place(&actions).expect("valid actions");
            system.observation_into(budget, &mut obs);
        }
    })
}

#[test]
fn fault_enabled_steady_state_allocates_nothing() {
    let _serial = serial();
    // Same gate with the fault engine, sensor watchdog and unreliable
    // budget channel all engaged, and faults from every family firing
    // *inside* the measured window. The fault scratch (flag arrays,
    // actuator command ring, channel inboxes, the cursors' onset heaps)
    // is sized when the plan is attached; refreshing it each epoch must
    // never touch the allocator. The burst opens and closes windows on
    // about three cores every epoch, so both cursors pop onsets and draw
    // the next ones throughout the measured window.
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
        .with_event(
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 8 },
            0,
            100,
        )
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
        .with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Range { lo: 24, hi: 32 },
            0,
            100,
        )
        .with_event(
            FaultKind::Budget(BudgetFault::Delayed { epochs: 2 }),
            Target::Range { lo: 32, hi: 40 },
            0,
            100,
        )
        .with_event(
            FaultKind::Core(CoreFault::Unplug),
            Target::Range { lo: 40, hi: 44 },
            40,
            60,
        )
        .with_event(
            FaultKind::Core(CoreFault::Throttle { max_level: 2 }),
            Target::Range { lo: 44, hi: 48 },
            0,
            100,
        )
        .with_burst(link_burst());
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
fn recorder_trips_allocate_only_their_dump() {
    let _serial = serial();
    // The flight recorder's trip path: a trip reads only the last
    // `window` epochs of every trace ring and renders the dump into
    // buffers the fleet reuses, so once one trip has grown them, each
    // later trip allocates exactly once — the dump bytes it keeps.
    // Budget messages are lost from epoch 25 on, so every arbiter round
    // (every 10 epochs) out of cooldown trips the loss-spike rule. The
    // warm-up trip at epoch 30 follows a stuck-sensor window on every
    // core, whose watchdog and fault edges make it the largest dump of
    // the run; the measured window then holds the trips at 50, 70 and 90.
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
            Target::All,
            15,
            15,
        )
        .with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 25, 1_000);
    let mut fleet = RunBuilder::new(scenario)
        .controller(ControllerKind::OdRl)
        .faults(plan)
        .watchdog(true)
        .recorder(odrl_fleet::RecorderConfig {
            window: 16,
            rules: vec![odrl_fleet::WatermarkRule::BudgetLossSpike {
                loss_rate: 0.5,
                min_sent: 2,
            }],
            cooldown: 20,
            max_dumps: 8,
        })
        .arbiter_period(10)
        .build_fleet(4)
        .expect("valid diagnosed fleet configuration");

    for _ in 0..45 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let warm_trips = fleet.anomaly_dumps().len();
    assert_eq!(
        warm_trips, 1,
        "exactly one trip sizes the buffers in warm-up"
    );

    let a0 = allocs::allocations();
    let b0 = allocs::allocated_bytes();
    for _ in 0..50 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let da = allocs::allocations() - a0;
    let db = allocs::allocated_bytes() - b0;
    let dumps = fleet.anomaly_dumps();
    let trips = (dumps.len() - warm_trips) as u64;
    assert!(
        trips >= 2,
        "the measured window must hold at least two trips, saw {trips}"
    );
    assert!(
        dumps[warm_trips..]
            .iter()
            .all(|d| d.bytes.len() <= dumps[0].bytes.len()),
        "the warm-up trip must be the largest dump"
    );
    let kept: usize = dumps[warm_trips..].iter().map(|d| d.bytes.len()).sum();
    assert!(
        da <= trips,
        "{trips} recorder trips allocated {da} times ({db} bytes, {kept} of them kept)"
    );
    assert_eq!(
        db, kept as u64,
        "trips allocated bytes beyond the dumps they keep"
    );
}

#[test]
fn warm_start_boot_allocates_nothing_at_steady_state() {
    let _serial = serial();
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
    let mut donor = OdRlController::new(OdRlConfig::default(), &donor_system.spec(), budget)
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
    let _serial = serial();
    let w = fleet_epoch_allocations(Parallelism::Serial);
    assert_eq!(
        (w.thread, w.process),
        (0, 0),
        "steady-state fleet stepping allocated {w}"
    );
}

#[test]
fn threaded_fleet_stepping_allocates_nothing() {
    // Chips sharded across the pool: `shard_chunks` hands out chunks from
    // the caller's stack. The thread-local count covers `shard_chunks`
    // itself and whichever chunks the caller takes; the process-wide one
    // adds the chunks a pool worker runs. On a single-hardware-thread
    // host the caller runs both shards itself.
    let _serial = serial();
    let w = fleet_epoch_allocations(Parallelism::Threads(2));
    assert_eq!(
        (w.thread, w.process),
        (0, 0),
        "2-thread fleet stepping allocated {w}"
    );
}

#[test]
fn auto_fleet_stepping_allocates_nothing() {
    // Counted as in `threaded_fleet_stepping_allocates_nothing`.
    let _serial = serial();
    let w = fleet_epoch_allocations(Parallelism::Auto);
    assert_eq!(
        (w.thread, w.process),
        (0, 0),
        "auto-sharded fleet stepping allocated {w}"
    );
}

/// Budget messages lost in 5-epoch windows at 50 per kilo-epoch on every
/// link, for the whole run: each 50-epoch measured window sees windows
/// open and close on most links.
fn link_burst() -> RandomBurst {
    RandomBurst {
        kind: FaultKind::Budget(BudgetFault::Lost),
        start: 0,
        end: u64::MAX,
        rate_per_kepoch: 50.0,
        duration: 5,
        chip: ChipScope::All,
    }
}

/// Allocations of three 50-epoch steady-state windows of a faulted 4-chip
/// fleet stepped with `parallelism` across chips.
fn fleet_epoch_allocations(parallelism: Parallelism) -> Windows {
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
        )
        .with_burst(link_burst());
    let mut fleet = RunBuilder::new(scenario)
        .controller(ControllerKind::OdRl)
        .faults(plan)
        .watchdog(true)
        .arbiter_period(25)
        .fleet_parallelism(parallelism)
        .build_fleet(4)
        .expect("valid fleet configuration");

    // Warmup: sizes every per-chip scratch buffer and passes through one
    // arbiter reallocation round (epoch 25) plus the fault window opening.
    for _ in 0..45 {
        fleet.step_epoch().expect("fleet epoch completes");
    }

    // The first window crosses arbiter rounds at epochs 50 and 75 and
    // the fault-window close, and the burst opens and closes windows on
    // every chip's links and on the arbiter's throughout, so arbitration,
    // channel traffic and fault edges are all inside the zero-alloc
    // envelope.
    measure(|| {
        for _ in 0..50 {
            fleet.step_epoch().expect("fleet epoch completes");
        }
    })
}

/// Construction footprint at the `chip1024` benchmark shape (1,024 cores,
/// round-robin mix, default OD-RL config): per-core state holds only what
/// differs per core. Workload streams share one spec per benchmark, so the
/// system's allocation count does not grow with the core count's spec
/// copies, and scalar Q-table visit counts are `u32`, which keeps each
/// agent's table requests under 3.6 KiB.
#[test]
fn chip1024_construction_footprint_is_bounded() {
    let _serial = serial();
    let scenario = Scenario {
        cores: 1024,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 1,
        parallelism: Parallelism::Serial,
    };
    let config = scenario
        .try_system_config()
        .expect("scenario parameters are valid");
    let budget = Watts::new(scenario.budget_frac * config.max_power().value());
    let (system_allocs, system_bytes, system) =
        allocs::counting(|| System::new(config).expect("valid scenario config"));
    assert!(
        system_allocs <= 256,
        "System::new made {system_allocs} allocations ({system_bytes} bytes) for 1,024 cores"
    );
    let spec = system.spec();
    let (controller_allocs, controller_bytes, _controller) = allocs::counting(|| {
        OdRlController::new(OdRlConfig::default(), &spec, budget).expect("valid config")
    });
    let per_core = controller_bytes / 1024;
    assert!(
        per_core <= 3_686,
        "OdRlController::new requested {per_core} bytes per core \
         ({controller_allocs} allocations, {controller_bytes} bytes in all)"
    );
}
