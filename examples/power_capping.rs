//! Compare every controller on the same power-capping scenario.
//!
//! 32 cores, mixed workload, 50 % budget — a tight cap where controller
//! quality matters. Prints one summary row per controller.
//!
//! Run with: `cargo run --release --example power_capping`

use odrl::controllers::{
    MaxBips, PidController, PidGains, PriorityGreedy, StaticUniform, SteepestDrop,
};
use odrl::metrics::{fmt_num, fmt_percent, RunRecorder, Table};
use odrl::prelude::*;

const CORES: usize = 32;
const EPOCHS: u64 = 1_500;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base_config = SystemConfig::builder().cores(CORES).seed(9).build()?;
    let budget = Watts::new(0.5 * base_config.max_power().value());
    let spec = base_config.spec();

    let mut controllers: Vec<Box<dyn PowerController>> = vec![
        Box::new(OdRlController::new(OdRlConfig::default(), &spec, budget)?),
        Box::new(MaxBips::dp(spec.clone())?),
        Box::new(SteepestDrop::new(spec.clone())?),
        Box::new(PidController::new(spec.clone(), PidGains::default())?),
        Box::new(StaticUniform::for_budget(spec.clone(), budget)?),
        Box::new(PriorityGreedy::new(spec.clone())?),
    ];

    println!(
        "power capping on {CORES} cores: budget {budget:.1} (50% of {:.1})\n",
        base_config.max_power()
    );
    let mut table = Table::new(vec![
        "controller",
        "gips",
        "mean_w",
        "over_epochs",
        "overshoot_j",
        "instr_per_j",
    ]);
    for ctrl in controllers.iter_mut() {
        // Fresh system per controller: identical workload, fair comparison.
        let mut system = System::new(base_config.clone())?;
        let mut rec = RunRecorder::new(ctrl.name());
        for _ in 0..EPOCHS {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            let report = system.step(&actions)?;
            rec.record(
                report.total_power,
                budget,
                report.total_instructions(),
                report.dt,
            );
        }
        let s = rec.finish();
        table.add_row(vec![
            s.name.clone(),
            fmt_num(s.throughput_ips() / 1e9),
            fmt_num(s.mean_power.value()),
            fmt_percent(s.overshoot_fraction),
            fmt_num(s.overshoot_energy.value()),
            fmt_num(s.instructions_per_joule()),
        ]);
    }
    println!("{table}");
    println!("see `cargo run --release -p odrl-bench --bin exp_claims` for the full sweep");
    Ok(())
}
