//! Cross-crate determinism guarantees for the parallel execution layer.
//!
//! The parallelism knob must never change *what* is computed, only how
//! many threads compute it: a 64-core, 500-epoch closed loop has to
//! produce bit-identical telemetry and Q-tables whether the epoch update
//! and the OD-RL decide path run serially or sharded, and the benchmark
//! harness has to report identical `RunSummary` values at every shard
//! count.

use odrl::core::PolicySnapshot;
use odrl::prelude::*;
use odrl_bench::{run_scenario, run_scenarios_parallel, ControllerKind, Scenario};

const CORES: usize = 64;
const EPOCHS: u64 = 500;
const SEED: u64 = 42;
const BUDGET_FRAC: f64 = 0.6;

/// Drives a full closed loop (system + OD-RL controller) with the given
/// parallelism on BOTH the simulator and the controller, and returns
/// every observable the run produces: telemetry totals and the learned
/// policy.
fn closed_loop(par: Parallelism) -> (f64, f64, u64, PolicySnapshot) {
    let config = SystemConfig::builder()
        .cores(CORES)
        .mix(MixPolicy::RoundRobin)
        .seed(SEED)
        .parallelism(par)
        .build()
        .expect("valid config");
    let budget = Watts::new(BUDGET_FRAC * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    let odrl_config = OdRlConfig {
        parallelism: par,
        ..OdRlConfig::default()
    };
    let mut ctrl =
        OdRlController::new(odrl_config, &system.spec(), budget).expect("valid OD-RL config");
    let mut actions = vec![LevelId(0); system.num_cores()];
    for _ in 0..EPOCHS {
        let obs = system.observation(budget);
        ctrl.decide_into(&obs, &mut actions);
        system.step(&actions).expect("valid actions");
    }
    let telemetry = system.telemetry();
    (
        telemetry.total_instructions(),
        telemetry.total_energy().value(),
        telemetry.epochs(),
        ctrl.export_policy(),
    )
}

#[test]
fn serial_and_parallel_closed_loops_are_bit_identical() {
    let (instr, energy, epochs, policy) = closed_loop(Parallelism::Serial);
    assert!(instr > 0.0, "the run must do real work");
    assert_eq!(epochs, EPOCHS);

    for par in [
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
        Parallelism::Auto,
    ] {
        let (p_instr, p_energy, p_epochs, p_policy) = closed_loop(par);
        // Telemetry totals must match to the last bit, not approximately:
        // the sharded reduction is required to preserve serial order.
        assert_eq!(instr, p_instr, "instructions diverged under {par:?}");
        assert_eq!(energy, p_energy, "energy diverged under {par:?}");
        assert_eq!(epochs, p_epochs, "epoch count diverged under {par:?}");
        assert_eq!(policy, p_policy, "Q-tables diverged under {par:?}");
        // And the binary snapshot — every Q value and counter as raw bits
        // — must agree byte for byte as well.
        assert_eq!(
            policy.to_bytes(),
            p_policy.to_bytes(),
            "policy digest diverged under {par:?}"
        );
    }
}

#[test]
fn shard_count_sweep_yields_identical_run_summaries() {
    let scenario_with = |par: Parallelism| Scenario {
        cores: CORES,
        budget_frac: BUDGET_FRAC,
        epochs: EPOCHS,
        mix: MixPolicy::RoundRobin,
        seed: SEED,
        parallelism: par,
    };

    let baseline = run_scenario(&scenario_with(Parallelism::Serial), ControllerKind::OdRl);
    assert!(baseline.total_instructions > 0.0);

    // 1/2/4/8 intra-epoch shards, fanned out across worker threads by the
    // harness itself — both layers of parallelism at once.
    let cells: Vec<(Scenario, ControllerKind)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| (scenario_with(Parallelism::Threads(n)), ControllerKind::OdRl))
        .collect();
    let summaries = run_scenarios_parallel(&cells, Parallelism::Threads(2));

    assert_eq!(summaries.len(), cells.len());
    for (summary, (scenario, _)) in summaries.iter().zip(&cells) {
        assert_eq!(
            summary, &baseline,
            "RunSummary diverged at {:?}",
            scenario.parallelism
        );
    }
}
