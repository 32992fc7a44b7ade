//! **E3** — Throughput per over-the-budget energy (paper claim 2a: "up to
//! 44.3× better throughput per over-the-budget energy").
//!
//! Same sweep as E2; reports TpOE = instructions / overshoot-joule per
//! (benchmark, controller) and OD-RL's ratio over each baseline.
//!
//! Run with: `cargo run --release -p odrl-bench --bin exp_tpoe`

use odrl_bench::{benchmark_sweep_parallel, geometric_mean, sweep_parallelism, ControllerKind};
use odrl_metrics::{fmt_num, fmt_ratio, Table};

fn main() {
    let kinds = ControllerKind::headline_set();
    println!("E3: throughput per over-budget energy (64 cores, 60% budget, 2000 epochs)");
    println!("TpOE = total instructions / overshoot energy [instr/J]; inf = no overshoot\n");
    let sweep = benchmark_sweep_parallel(64, 0.6, 2_000, 1, &kinds, sweep_parallelism());

    let mut headers = vec!["benchmark".to_string()];
    headers.extend(kinds.iter().map(|k| k.label().to_string()));
    headers.push("odrl_vs_best".into());
    let mut table = Table::new(headers);

    let mut ratios = Vec::new();
    let mut max_ratio = 0.0f64;
    let mut any_inf = false;
    for (bench, summaries) in &sweep {
        let mut row = vec![bench.clone()];
        let tpoes: Vec<f64> = summaries
            .iter()
            .map(|s| s.throughput_per_overshoot_energy())
            .collect();
        for t in &tpoes {
            row.push(fmt_num(*t));
        }
        // OD-RL's TpOE over the best baseline TpOE.
        let odrl = tpoes[0];
        let best_baseline = tpoes[1..].iter().copied().fold(0.0, f64::max);
        let ratio = if odrl.is_infinite() {
            any_inf = true;
            f64::INFINITY
        } else if best_baseline > 0.0 && best_baseline.is_finite() {
            odrl / best_baseline
        } else {
            1.0
        };
        if ratio.is_finite() {
            ratios.push(ratio);
            max_ratio = max_ratio.max(ratio);
        }
        row.push(fmt_ratio(Some(ratio)));
        table.add_row(row);
    }
    println!("{table}");

    println!(
        "OD-RL TpOE vs best baseline: max finite ratio {}, geometric mean {}{}",
        fmt_ratio(Some(max_ratio)),
        fmt_ratio(Some(geometric_mean(&ratios))),
        if any_inf {
            " (some benchmarks: OD-RL never overshot => infinite ratio)"
        } else {
            ""
        }
    );
    println!("per-baseline (paper: up to 44.3x better TpOE):");
    for (k, kind) in kinds.iter().enumerate().skip(1) {
        let mut best = 0.0f64;
        let mut infinite = false;
        for (_, summaries) in &sweep {
            let odrl = summaries[0].throughput_per_overshoot_energy();
            let base = summaries[k].throughput_per_overshoot_energy();
            if !base.is_finite() {
                continue; // baseline also never overshoots: no signal
            }
            if odrl.is_finite() {
                best = best.max(odrl / base);
            } else {
                infinite = true;
            }
        }
        println!(
            "  vs {:<14} up to {}",
            kind.label(),
            if infinite {
                "inf (OD-RL overshoot-free where baseline overshoots)".to_string()
            } else {
                fmt_ratio(Some(best))
            }
        );
    }
}
