//! **E5** — Controller-runtime scalability (paper claim 3: "two orders of
//! magnitude speedup over state-of-the-art techniques for systems with
//! hundreds of cores").
//!
//! Measures the wall-clock cost of one `decide()` call per controller at
//! core counts from 16 to 1024 (exhaustive MaxBIPS additionally at 4–8
//! cores, beyond which it is combinatorially infeasible — the point of the
//! claim). Reports median nanoseconds per decision and the MaxBIPS-DP /
//! OD-RL ratio.
//!
//! Criterion-grade measurements of the same quantity live in
//! `benches/controller_scaling.rs`; this binary prints the paper-style
//! table quickly.
//!
//! Run with: `cargo run --release -p odrl-bench --bin exp_scaling`

use odrl_bench::{allocs, ControllerKind, Scenario};
use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController};
use odrl_manycore::{Observation, Parallelism, System};
use odrl_metrics::{fmt_num, fmt_ratio, Table};
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;
use std::time::Instant;

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

/// Builds a warmed-up observation for `cores` cores.
fn observation_for(cores: usize) -> (Observation, odrl_manycore::SystemSpec, Watts) {
    let scenario = Scenario {
        cores,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed: 7,
        parallelism: Parallelism::Serial,
    };
    let config = scenario
        .try_system_config()
        .expect("scenario parameters are valid");
    let budget = Watts::new(0.6 * config.max_power().value());
    let mut system = System::new(config).expect("valid config");
    let spec = system.spec();
    let mid = LevelId(4);
    for _ in 0..5 {
        system.step(&vec![mid; cores]).expect("valid step");
    }
    (system.observation(budget), spec, budget)
}

/// One controller's measured decision cost: median latency plus the heap
/// traffic of the measured region (serial decides allocate on this thread,
/// so the thread-local counters see every allocation).
struct Sample {
    ns: f64,
    allocs_per_decide: f64,
}

/// Median nanoseconds per decision over `reps` calls (zero-alloc hot path),
/// with the allocation counters diffed around the timed region.
fn measure(ctrl: &mut dyn PowerController, obs: &Observation, reps: usize) -> Sample {
    let mut actions = vec![LevelId(0); obs.cores.len()];
    // Warmup: populates every scratch buffer so the timed region is the
    // steady state.
    for _ in 0..3 {
        ctrl.decide_into(obs, &mut actions);
    }
    let mut samples = vec![0.0f64; reps];
    let a0 = allocs::allocations();
    for s in samples.iter_mut() {
        let t = Instant::now();
        ctrl.decide_into(obs, &mut actions);
        *s = t.elapsed().as_nanos() as f64;
    }
    let da = allocs::allocations() - a0;
    samples.sort_by(f64::total_cmp);
    Sample {
        ns: samples[samples.len() / 2],
        allocs_per_decide: da as f64 / reps as f64,
    }
}

fn main() {
    println!("E5: controller decision latency vs core count (median ns/decision)\n");

    // Exhaustive MaxBIPS: only at toy sizes, to show the combinatorial wall.
    println!("exhaustive MaxBIPS (exact, as published):");
    let mut ex_table = Table::new(vec!["cores", "maxbips_exhaustive_ns"]);
    for &n in &[2usize, 4, 6, 8] {
        let (obs, spec, budget) = observation_for(n);
        let mut ctrl = ControllerKind::MaxBipsExhaustive.build(&spec, budget);
        let ns = measure(ctrl.as_mut(), &obs, 5).ns;
        ex_table.add_row(vec![n.to_string(), fmt_num(ns)]);
    }
    println!("{ex_table}");

    let kinds = [
        ControllerKind::OdRl,
        ControllerKind::OdRlHier,
        ControllerKind::MaxBipsDp,
        ControllerKind::SteepestDrop,
        ControllerKind::PriorityGreedy,
        ControllerKind::Pid,
    ];
    let mut headers = vec!["cores".to_string()];
    headers.extend(kinds.iter().map(|k| format!("{}_ns", k.label())));
    headers.push("dp_over_odrl".into());
    let mut table = Table::new(headers);
    let mut alloc_headers = vec!["cores".to_string()];
    alloc_headers.extend(kinds.iter().map(|k| format!("{}_allocs", k.label())));
    let mut alloc_table = Table::new(alloc_headers);

    let mut worst_ratio = 0.0f64;
    for &n in &[16usize, 32, 64, 128, 256, 512, 1024] {
        let (obs, spec, budget) = observation_for(n);
        let mut row = vec![n.to_string()];
        let mut alloc_row = vec![n.to_string()];
        let mut odrl_ns = 0.0;
        let mut dp_ns = 0.0;
        for kind in kinds {
            let mut ctrl = kind.build(&spec, budget);
            let reps = if n >= 512 { 7 } else { 11 };
            let sample = measure(ctrl.as_mut(), &obs, reps);
            if kind == ControllerKind::OdRl {
                odrl_ns = sample.ns;
            }
            if kind == ControllerKind::MaxBipsDp {
                dp_ns = sample.ns;
            }
            row.push(fmt_num(sample.ns));
            alloc_row.push(format!("{:.1}", sample.allocs_per_decide));
        }
        let ratio = dp_ns / odrl_ns;
        if n >= 256 {
            worst_ratio = worst_ratio.max(ratio);
        }
        row.push(fmt_ratio(Some(ratio)));
        table.add_row(row);
        alloc_table.add_row(alloc_row);
    }
    println!("{table}");
    println!("heap allocations per steady-state decide (0 = zero-alloc hot path):");
    println!("{alloc_table}");
    println!(
        "MaxBIPS-DP / OD-RL decision-cost ratio at >=256 cores: up to {worst_ratio:.0}x \
         (paper: two orders of magnitude vs state of the art; exhaustive MaxBIPS is \
         infeasible outright beyond ~10 cores)\n"
    );

    // Sharded decide path: the per-core agents are independent, so the
    // decide loop parallelizes bit-identically across worker threads.
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "OD-RL decision latency vs worker threads (bit-identical output; \
         {hw} hardware thread(s) available — speedups need spare hardware threads):"
    );
    let shard_counts = [1usize, 2, 4, 8];
    let mut headers = vec!["cores".to_string()];
    headers.extend(shard_counts.iter().map(|t| format!("{t}_threads_ns")));
    headers.push("best_speedup".into());
    let mut par_table = Table::new(headers);
    for &n in &[256usize, 512, 1024] {
        let (obs, spec, budget) = observation_for(n);
        let mut row = vec![n.to_string()];
        let mut serial_ns = 0.0;
        let mut best_ns = f64::INFINITY;
        for (i, &threads) in shard_counts.iter().enumerate() {
            let config = OdRlConfig {
                parallelism: if threads == 1 {
                    Parallelism::Serial
                } else {
                    Parallelism::Threads(threads)
                },
                ..OdRlConfig::default()
            };
            let mut ctrl = OdRlController::new(config, &spec, budget).expect("valid OD-RL config");
            let ns = measure(&mut ctrl, &obs, 11).ns;
            if i == 0 {
                serial_ns = ns;
            }
            best_ns = best_ns.min(ns);
            row.push(fmt_num(ns));
        }
        row.push(format!("{:.2}x", serial_ns / best_ns));
        par_table.add_row(row);
    }
    println!("{par_table}");
}
