//! **E2** — Budget-overshoot table (paper claim 1: "up to 98 % less budget
//! overshoot").
//!
//! For every suite benchmark (homogeneous on 64 cores, 60 % budget), runs
//! the four headline controllers and reports overshoot energy, overshoot
//! epoch fraction and peak overshoot, plus OD-RL's reduction relative to
//! each baseline. The per-benchmark tables are seed 1; the closing
//! suite-total reductions are a 10-seed mean with a bootstrap CI.
//!
//! Run with: `cargo run --release -p odrl-bench --bin exp_overshoot`

use odrl_bench::{
    benchmark_sweep, benchmark_sweep_parallel, paired_seeds, sweep_parallelism, ControllerKind,
    REPLICATES,
};
use odrl_metrics::{fmt_num, fmt_percent, Table};

fn main() {
    let kinds = ControllerKind::headline_set();
    println!("E2: budget overshoot per benchmark (64 cores, 60% budget, 2000 epochs)\n");
    let sweep = benchmark_sweep_parallel(64, 0.6, 2_000, 1, &kinds, sweep_parallelism());

    let mut headers = vec!["benchmark".to_string()];
    for k in &kinds {
        headers.push(format!("{}_j", k.label()));
    }
    let mut table = Table::new(headers);

    let mut totals = vec![0.0f64; kinds.len()];
    for (bench, summaries) in &sweep {
        let mut row = vec![bench.clone()];
        for (s, total) in summaries.iter().zip(&mut totals) {
            row.push(fmt_num(s.overshoot_energy.value()));
            *total += s.overshoot_energy.value();
        }
        table.add_row(row);
    }
    let mut total_row = vec!["TOTAL".to_string()];
    for t in &totals {
        total_row.push(fmt_num(*t));
    }
    table.add_row(total_row);
    println!("{table}");

    println!("overshoot epoch fraction:");
    let mut frac = Table::new({
        let mut h = vec!["benchmark".to_string()];
        h.extend(kinds.iter().map(|k| k.label().to_string()));
        h
    });
    for (bench, summaries) in &sweep {
        let mut row = vec![bench.clone()];
        for s in summaries {
            row.push(fmt_percent(s.overshoot_fraction));
        }
        frac.add_row(row);
    }
    println!("{frac}");

    // Paper-style comparison: "up to X % less overshoot than <baseline>",
    // taken over benchmarks where the baseline overshoots meaningfully
    // (> 0.01 J — below that both schemes are effectively overshoot-free).
    println!("OD-RL overshoot-energy reduction (paper: up to 98% less):");
    for (k, kind) in kinds.iter().enumerate().skip(1) {
        let mut max_red = f64::NEG_INFINITY;
        let mut any = false;
        for (_, summaries) in &sweep {
            let base = summaries[k].overshoot_energy.value();
            if base > 0.01 {
                any = true;
                max_red = max_red.max(1.0 - summaries[0].overshoot_energy.value() / base);
            }
        }
        let total_red = if totals[k] > 0.0 {
            1.0 - totals[0] / totals[k]
        } else {
            0.0
        };
        if any {
            println!(
                "  vs {:<14} up to {} per benchmark, {} of suite-total overshoot",
                kind.label(),
                fmt_percent(max_red),
                fmt_percent(total_red)
            );
        } else {
            println!(
                "  vs {:<14} baseline never overshoots meaningfully",
                kind.label()
            );
        }
    }

    // The same suite-total reductions across seeds, paired per seed: one
    // seed's margin may be noise, the interval says which margins hold.
    let stats = paired_seeds(&[()], sweep_parallelism(), |_, seed| {
        let sweep = benchmark_sweep(64, 0.6, 2_000, seed, &kinds);
        let total = |k: usize| -> f64 {
            sweep
                .iter()
                .map(|(_, s)| s[k].overshoot_energy.value())
                .sum()
        };
        (1..kinds.len())
            .map(|k| {
                let base = total(k);
                if base > 0.0 {
                    1.0 - total(0) / base
                } else {
                    0.0
                }
            })
            .collect()
    });
    println!("\nsuite-total overshoot reduction, {REPLICATES} seeds, mean [95% bootstrap CI]:");
    for (kind, stat) in kinds[1..].iter().zip(&stats[0]) {
        println!(
            "  vs {:<14} {} [{}, {}]",
            kind.label(),
            fmt_percent(stat.mean),
            fmt_percent(stat.ci95.0),
            fmt_percent(stat.ci95.1)
        );
    }
}
