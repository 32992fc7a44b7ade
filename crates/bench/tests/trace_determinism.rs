//! Golden determinism for the structured-event trace (`odrl-obs`).
//!
//! The merged event stream is keyed by `(epoch, rank, core)` — not by
//! shard or thread — so the exact same trace must come out of the serial
//! path and any sharded run, with or without an active fault plan. These
//! tests pin that: the canonical JSONL encoding of the merged stream is
//! FNV-hashed and compared across 1/2/4-shard runs, alongside the
//! numeric golden pins in `golden_epoch_kernel.rs`.

use odrl_bench::{run_scenario_observed, ControllerKind, Scenario};
use odrl_faults::{
    ActuatorFault, BudgetFault, CoreFault, FaultKind, FaultPlan, SensorFault, Target,
};
use odrl_manycore::Parallelism;
use odrl_obs::EventRecord;
use odrl_workload::MixPolicy;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario(par: Parallelism) -> Scenario {
    Scenario {
        cores: 64,
        budget_frac: 0.6,
        epochs: 80,
        mix: MixPolicy::RoundRobin,
        seed: 42,
        parallelism: par,
    }
}

/// Every fault family firing inside the run, so the trace carries
/// inject/clear edges, watchdog flips and a dead-core redistribution.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with_event(
            FaultKind::Sensor(SensorFault::StuckLast),
            Target::Range { lo: 0, hi: 8 },
            10,
            50,
        )
        .with_event(
            FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
            Target::Range { lo: 16, hi: 24 },
            10,
            50,
        )
        .with_event(
            FaultKind::Budget(BudgetFault::Lost),
            Target::Range { lo: 24, hi: 32 },
            10,
            50,
        )
        .with_event(
            FaultKind::Core(CoreFault::Unplug),
            Target::Range { lo: 40, hi: 44 },
            30,
            60,
        )
}

fn trace_hash(records: &[EventRecord]) -> u64 {
    let jsonl: String = records
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable record"))
        .collect::<Vec<_>>()
        .join("\n");
    fnv1a(&jsonl)
}

fn check_invariant(plan: Option<&FaultPlan>, watchdog: bool) {
    let serial = run_scenario_observed(
        &scenario(Parallelism::Serial),
        ControllerKind::OdRl,
        plan,
        watchdog,
    );
    assert!(
        !serial.records.is_empty(),
        "an observed run must record events"
    );
    let serial_hash = trace_hash(&serial.records);
    for shards in [2, 4] {
        let sharded = run_scenario_observed(
            &scenario(Parallelism::Threads(shards)),
            ControllerKind::OdRl,
            plan,
            watchdog,
        );
        assert_eq!(
            serial.counts, sharded.counts,
            "{shards}-shard per-kind counts drifted"
        );
        assert_eq!(
            serial.records, sharded.records,
            "{shards}-shard merged records drifted"
        );
        assert_eq!(
            serial_hash,
            trace_hash(&sharded.records),
            "{shards}-shard trace hash drifted"
        );
    }
}

#[test]
fn fault_free_trace_is_shard_count_invariant() {
    check_invariant(None, false);
}

#[test]
fn faulted_watchdog_trace_is_shard_count_invariant() {
    let p = plan();
    let faulted = run_scenario_observed(
        &scenario(Parallelism::Serial),
        ControllerKind::OdRl,
        Some(&p),
        true,
    );
    // The plan must actually exercise the fault/watchdog event paths,
    // otherwise the invariance below proves nothing.
    assert!(faulted.counts.faults_injected > 0, "no fault edges traced");
    assert!(
        faulted.counts.watchdog_stale + faulted.counts.watchdog_dead > 0,
        "no watchdog flips traced"
    );
    check_invariant(Some(&p), true);
}

#[test]
fn baseline_controller_still_yields_system_side_trace() {
    let observed = run_scenario_observed(
        &scenario(Parallelism::Serial),
        ControllerKind::Pid,
        Some(&plan()),
        false,
    );
    // Baselines record nothing controller-side, but the system still
    // traces fault edges, VF switches and epoch boundaries.
    assert!(observed.counts.faults_injected > 0);
    assert_eq!(observed.counts.explorations, 0);
    assert!(observed
        .records
        .iter()
        .any(|r| matches!(r.event, odrl_obs::Event::Epoch { .. })));
}
