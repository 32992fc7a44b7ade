//! **E14** — Fleet scaling: chips × cores under the rack-level budget
//! arbiter.
//!
//! Steps fleets of N chips (each a full closed-loop system + OD-RL
//! controller) concurrently on the deterministic shard pool, with the
//! rack-level [`odrl_fleet::BudgetArbiter`] re-dividing the fleet power
//! budget every few epochs. Reports epochs/s and cores-stepped/s per
//! fleet shape, serial vs sharded cross-chip fan-out (bit-identical
//! results either way — the fan-out only buys wall-clock time).
//!
//! `--smoke` is the CI gate: a small scaling slice plus a 16-chip ×
//! 1024-core fleet window asserting that the arbitrated per-chip budgets
//! sum to the fleet budget after every epoch.
//!
//! Run with: `cargo run --release -p odrl-bench --bin exp_fleet`
//! (add `-- --smoke` for the CI gate). `--quantized` switches every
//! chip's agents to the banked fixed-point Q-table layout;
//! `--warm-start <path>` boots every chip from a binary `PolicySnapshot`
//! (the scenario must match the snapshot's geometry).

use odrl_bench::{allocs, cputime, Fleet, RecorderConfig, RunBuilder, Scenario, WatermarkRule};
use odrl_core::{OdRlConfig, QTableLayout};
use odrl_faults::{BudgetFault, FaultKind, FaultPlan, Target};
use odrl_manycore::Parallelism;
use odrl_metrics::{fmt_num, Table};
use odrl_workload::MixPolicy;
use std::time::Instant;

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

/// Per-run knobs threaded into every fleet build: the per-core agents'
/// Q-table layout (`--quantized`) and an optional snapshot every chip
/// boots from (`--warm-start <path>`).
#[derive(Clone, Default)]
struct Knobs {
    layout: QTableLayout,
    warm_start: Option<String>,
}

impl Knobs {
    fn apply(&self, mut builder: RunBuilder) -> RunBuilder {
        builder = builder.odrl(OdRlConfig {
            layout: self.layout,
            ..OdRlConfig::default()
        });
        if let Some(path) = &self.warm_start {
            builder = builder.warm_start(path);
        }
        builder
    }
}

/// The per-chip scenario every fleet cell replicates (the fleet layer
/// decorrelates seeds per chip).
fn scenario(cores: usize, epochs: u64) -> Scenario {
    Scenario {
        cores,
        budget_frac: 0.6,
        epochs,
        mix: MixPolicy::RoundRobin,
        seed: 11,
        parallelism: Parallelism::Serial,
    }
}

/// Builds one fleet cell (reallocation every 20 epochs).
fn build(chips: usize, cores: usize, epochs: u64, par: Parallelism, knobs: &Knobs) -> Fleet {
    knobs
        .apply(RunBuilder::new(scenario(cores, epochs)))
        .arbiter_period(20)
        .fleet_parallelism(par)
        .build_fleet(chips)
        .expect("valid fleet configuration")
}

/// Runs one cell and returns `(epochs_per_sec, cores_stepped_per_sec)`.
fn run_cell(
    chips: usize,
    cores: usize,
    epochs: u64,
    par: Parallelism,
    knobs: &Knobs,
) -> (f64, f64) {
    let mut fleet = build(chips, cores, epochs, par, knobs);
    let fleet_cores = fleet.num_cores() as f64;
    let t0 = Instant::now();
    fleet.run(epochs).expect("fleet run completes");
    let dt = t0.elapsed().as_secs_f64();
    let eps = epochs as f64 / dt;
    (eps, eps * fleet_cores)
}

/// Steps a fleet epoch by epoch, asserting after every epoch that the
/// arbitrated per-chip shares sum to the fleet budget (the conservation
/// invariant the arbiter maintains bit-exactly on its side of the lossy
/// links).
fn conservation_gate(chips: usize, cores: usize, epochs: u64, knobs: &Knobs) {
    let mut fleet = knobs
        .apply(RunBuilder::new(scenario(cores, epochs)))
        .arbiter_period(2)
        .build_fleet(chips)
        .expect("valid fleet configuration");
    let total = fleet.total_budget().value();
    for _ in 0..epochs {
        fleet.step_epoch().expect("fleet epoch completes");
        let sum = fleet.arbitrated_sum();
        assert!(
            (sum - total).abs() <= 1e-9 * total,
            "epoch {}: arbitrated shares sum to {sum} W, fleet budget is {total} W",
            fleet.epoch()
        );
    }
    println!(
        "conservation     : {} chips x {} cores ({} fleet cores), {} epochs, \
         {} arbiter rounds, shares sum to budget every epoch",
        chips,
        cores,
        fleet.num_cores(),
        fleet.epoch(),
        fleet.arbiter().rounds()
    );
}

/// The CI gate: a short scaling slice plus the 16-chip × 1024-core
/// conservation window. Panics on regression.
fn smoke(knobs: &Knobs) {
    for &(chips, cores) in &[(1usize, 64usize), (4, 64), (16, 64)] {
        let (eps, cps) = run_cell(chips, cores, 30, Parallelism::Auto, knobs);
        println!(
            "smoke {:>2} x {:>3}   : {:>8} epochs/s, {:>8} cores-stepped/s",
            chips,
            cores,
            fmt_num(eps),
            fmt_num(cps)
        );
    }
    conservation_gate(16, 64, 10, knobs);
    println!("\nsmoke OK: fleet scaling slice ran and budgets stay conserved");
}

/// A recorder whose loss-spike rule the faulted demo fleet trips and
/// whose TD watermark the cold tables trip immediately.
fn demo_recorder() -> RecorderConfig {
    RecorderConfig {
        window: 16,
        rules: vec![
            WatermarkRule::TdErrorBlowup { max_abs: 0.01 },
            WatermarkRule::BudgetLossSpike {
                loss_rate: 0.5,
                min_sent: 2,
            },
        ],
        cooldown: 20,
        max_dumps: 2,
    }
}

/// The second allocation window of the observability gate: a fleet
/// whose rack links lose every budget message from epoch 10 on, so each
/// arbiter round out of cooldown trips the loss-spike rule. Every trip
/// in the window must allocate at most once — the dump bytes the
/// recorder keeps.
fn trip_window(knobs: &Knobs) {
    let plan =
        FaultPlan::new().with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 10, 1_000);
    let mut fleet = knobs
        .apply(RunBuilder::new(scenario(64, 0)))
        .faults(plan)
        .watchdog(true)
        .recorder(RecorderConfig {
            window: 16,
            rules: vec![WatermarkRule::BudgetLossSpike {
                loss_rate: 0.5,
                min_sent: 2,
            }],
            cooldown: 20,
            max_dumps: 8,
        })
        .arbiter_period(10)
        .build_fleet(4)
        .expect("valid diagnosed fleet configuration");
    // Warm-up trips at epochs 10 and 30; the one at 30 is the largest
    // dump of the run. The window then trips at 50, 70 and 90.
    for _ in 0..40 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let warm = fleet.anomaly_dumps().len();
    let a0 = allocs::allocations();
    for _ in 0..60 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let da = allocs::allocations() - a0;
    let trips = (fleet.anomaly_dumps().len() - warm) as u64;
    assert!(
        trips >= 2,
        "the trip window must hold at least two trips, saw {trips}"
    );
    assert!(
        da <= trips,
        "{trips} recorder trips allocated {da} times over 60 epochs (bound: one per trip)"
    );
    println!(
        "smoke diag       : {trips} trips allocated {da} times (<= 1 per trip, 60-epoch window)"
    );
}

/// Times one diag-on-or-off fleet window (30 warmup + `epochs` measured);
/// returns epochs per CPU-second (process CPU time, so host steal on a
/// shared runner cancels out of the on/off ratio; wall clock off Linux).
fn time_fleet_window(diag: bool, epochs: u64, knobs: &Knobs) -> f64 {
    let mut b = knobs
        .apply(RunBuilder::new(scenario(64, 0)))
        .arbiter_period(20);
    if diag {
        b = b.recorder(demo_recorder());
    }
    let mut fleet = b.build_fleet(4).expect("valid fleet configuration");
    fleet.run(30).expect("fleet warmup completes");
    let sw = cputime::CpuStopwatch::start();
    fleet.run(epochs).expect("fleet window completes");
    epochs as f64 / sw.elapsed_secs()
}

/// The observability CI gate: a 4-chip fleet with learning-health
/// diagnostics, rack aggregation and the flight recorder all on must
/// (a) allocate nothing per steady-state epoch once the bounded dump
/// budget is spent, (b) trip the recorder on a lossy-budget fault plan,
/// (c) stay within the 15 % tracing-overhead budget on interleaved
/// best-of-5 windows, (d) allocate at most once per recorder trip in
/// a window that trips repeatedly (see [`trip_window`]), and (e) keep at
/// most two dump windows of trace, the recorder being its only reader.
/// `--export-dump <path>` writes the first dump for downstream
/// inspection (`trace_inspect metrics <path>`).
fn smoke_diag(knobs: &Knobs, export_dump: Option<&str>) {
    // (a) + (b): a faulted, diagnosed fleet. The budget-Lost window
    // makes the rack links lossy, so the loss-spike rule has real
    // traffic to trip on; the TD watermark trips at the first learn.
    let plan =
        FaultPlan::new().with_event(FaultKind::Budget(BudgetFault::Lost), Target::All, 10, 40);
    let mut fleet = knobs
        .apply(RunBuilder::new(scenario(64, 0)))
        .faults(plan)
        .watchdog(true)
        .recorder(demo_recorder())
        .arbiter_period(10)
        .build_fleet(4)
        .expect("valid diagnosed fleet configuration");
    for _ in 0..60 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let dumps = fleet.anomaly_dumps();
    assert!(
        !dumps.is_empty(),
        "the faulted fleet must trip at least one watermark rule"
    );
    let trips = fleet.flight_recorder().map_or(0, |r| r.trips());
    for d in dumps {
        println!(
            "smoke diag       : anomaly {} at epoch {} ({} dump bytes)",
            d.kind.name(),
            d.epoch,
            d.bytes.len()
        );
    }
    if let Some(path) = export_dump {
        std::fs::write(path, &dumps[0].bytes).expect("dump export path is writable");
        println!("smoke diag       : first dump exported to {path}");
    }
    let snap = fleet.fleet_snapshot().expect("diagnosed fleet snapshots");
    let td = snap
        .summary_by_name("fleet_rl_td_error")
        .expect("aggregated TD-error summary present");
    println!(
        "smoke diag       : {} TD samples, mean {:.4}, |p99| {:.4}, {} trips",
        td.count(),
        td.mean(),
        td.magnitude_quantile(0.99),
        trips
    );
    let a0 = allocs::allocations();
    for _ in 0..50 {
        fleet.step_epoch().expect("fleet epoch completes");
    }
    let da = allocs::allocations() - a0;
    assert_eq!(
        da, 0,
        "diagnosed fleet steady-state epochs allocated {da} times over 50 epochs"
    );
    println!("smoke diag       : 0 allocs/epoch at steady state (50-epoch window)");
    // (e) The recorder is this fleet's only trace reader, so its rings
    // keep one to two dump windows, not the whole run.
    let window = demo_recorder().window;
    let trace = fleet.merged_trace();
    let span = trace
        .last()
        .map_or(0, |last| last.record.epoch - trace[0].record.epoch + 1);
    assert!(
        span <= 2 * window,
        "the recorder-only trace spans {span} epochs, over 2 x {window}"
    );
    println!(
        "smoke diag       : recorder-only trace holds {} records over {span} epochs \
         (<= 2 x {window}-epoch window)",
        trace.len()
    );
    trip_window(knobs);

    // (c) Interleaved best-of-5 over CPU-time windows: process CPU time
    // is immune to scheduler steal on shared runners, and it is read to
    // the nanosecond, so a 5000-epoch window carries no clock-tick
    // quantization. Same 15 % budget as the single-chip tracing gate.
    let mut best_off: f64 = 0.0;
    let mut best_on: f64 = 0.0;
    for _ in 0..5 {
        best_off = best_off.max(time_fleet_window(false, 5000, knobs));
        best_on = best_on.max(time_fleet_window(true, 5000, knobs));
    }
    let overhead = best_off / best_on - 1.0;
    println!(
        "smoke diag       : diagnostics off {best_off:.1} epochs/cpu-s, on {best_on:.1} \
         ({:+.1} %)",
        overhead * 100.0
    );
    assert!(
        best_on >= best_off * 0.85,
        "diagnostics overhead {:.1} % exceeds the 15 % budget",
        overhead * 100.0
    );
    println!(
        "\nsmoke diag OK: recorder tripped, zero steady-state allocs, <= 1 alloc per trip, \
         overhead in budget"
    );
}

fn main() {
    let mut smoke_only = false;
    let mut smoke_diag_only = false;
    let mut export_dump = None;
    let mut knobs = Knobs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke_only = true,
            "--smoke-diag" => smoke_diag_only = true,
            "--export-dump" => {
                export_dump = Some(args.next().expect("--export-dump needs a path"));
            }
            "--quantized" => knobs.layout = QTableLayout::Quantized,
            "--warm-start" => {
                knobs.warm_start = Some(args.next().expect("--warm-start needs a path"));
            }
            other => panic!(
                "unknown argument: {other} (expected --smoke/--smoke-diag/--export-dump <path>/\
                 --quantized/--warm-start <path>)"
            ),
        }
    }
    if smoke_diag_only {
        smoke_diag(&knobs, export_dump.as_deref());
        return;
    }
    if smoke_only {
        smoke(&knobs);
        return;
    }

    println!("E14: fleet scaling under the rack-level budget arbiter\n");
    let epochs = 200u64;
    let mut table = Table::new(vec![
        "chips",
        "cores/chip",
        "fleet cores",
        "serial eps",
        "auto eps",
        "auto cores/s",
        "speedup",
    ]);
    for &cores in &[64usize, 256] {
        for &chips in &[1usize, 2, 4, 8, 16] {
            let (serial_eps, _) = run_cell(chips, cores, epochs, Parallelism::Serial, &knobs);
            let (auto_eps, auto_cps) = run_cell(chips, cores, epochs, Parallelism::Auto, &knobs);
            table.add_row(vec![
                chips.to_string(),
                cores.to_string(),
                (chips * cores).to_string(),
                fmt_num(serial_eps),
                fmt_num(auto_eps),
                fmt_num(auto_cps),
                format!("{:.2}x", auto_eps / serial_eps),
            ]);
        }
    }
    println!("{table}");
    conservation_gate(16, 64, 20, &knobs);
}
