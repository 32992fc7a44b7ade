//! `odrl_sim` — command-line driver for one power-capping run.
//!
//! ```text
//! Usage: odrl_sim [OPTIONS]
//!
//!   --cores N             number of cores              [default: 64]
//!   --budget FRAC         budget as a fraction of max  [default: 0.6]
//!   --controller NAME     od-rl | od-rl-local | maxbips-dp
//!                         | steepest-drop | pid | static-uniform
//!                         | priority-greedy
//!                                                      [default: od-rl]
//!   --epochs N            control epochs               [default: 2000]
//!   --seed N              master seed: seeds the system and OD-RL
//!                         exploration as chip 0 of a RunBuilder run
//!                                                      [default: 1]
//!   --mix POLICY          roundrobin | random | <benchmark name>
//!                                                      [default: roundrobin]
//!   --islands SIZE        cores per VF island          [default: 1]
//!   --threads N           worker threads for the epoch update and the
//!                         OD-RL decide path (bit-identical results)
//!                                                      [default: 1]
//!   --decimate N          keep every Nth telemetry sample; by default a
//!                         stride is chosen so long-horizon series stay
//!                         near 10k samples            [default: auto]
//!   --csv PATH            write the per-epoch telemetry series as CSV
//!   --config PATH         load the full SystemConfig from a JSON file
//!                         (overrides --cores/--seed/--mix; its seed
//!                         seeds the system as is and roots exploration)
//!   --dump-config         print the effective SystemConfig as JSON and exit
//!   --help                print this help
//! ```
//!
//! Example:
//!
//! ```sh
//! cargo run --release -p odrl-bench --bin odrl_sim -- \
//!     --cores 128 --budget 0.5 --controller od-rl --mix canneal --csv run.csv
//! ```

use odrl_bench::cli::{parse_sim_args, SimArgs};
use odrl_bench::{FleetConfig, Scenario};
use odrl_controllers::{IslandController, IslandMap, PowerController};
use odrl_core::OdRlConfig;
use odrl_manycore::{System, SystemConfig, SystemSpec};
use odrl_metrics::{fmt_num, fmt_percent, RunRecorder};
use odrl_power::Watts;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "Usage: odrl_sim [--cores N] [--budget FRAC] [--controller NAME] \
         [--epochs N] [--seed N] [--mix POLICY] [--islands SIZE] [--threads N] \
         [--decimate N] [--csv PATH] [--config PATH] [--dump-config]"
    );
}

fn main() -> ExitCode {
    let args: SimArgs = match parse_sim_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) if e == "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let (config, odrl) = match configure(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.dump_config {
        match serde_json::to_string_pretty(&config) {
            Ok(json) => {
                println!("{json}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error serializing config: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cores = config.cores;
    let budget = Watts::new(args.budget_frac * config.max_power().value());

    // Long horizons decimate the recorded series (aggregates still fold
    // in every epoch); `--decimate` overrides the automatic stride.
    let mut system = match System::new_recording_decimated(config.clone(), args.series_every_n()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut controller = match build_controller(&args, &system.spec(), budget, odrl) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "odrl_sim: {} cores={} budget={budget:.1} ({:.0}% of {:.1}) epochs={} seed={} mix={:?} islands={}",
        controller.name(),
        cores,
        args.budget_frac * 100.0,
        config.max_power(),
        args.epochs,
        args.seed,
        args.mix,
        args.islands,
    );

    let mut recorder = RunRecorder::new(controller.name());
    let mut actions = vec![odrl_power::LevelId(0); cores];
    for _ in 0..args.epochs {
        let obs = system.observation(budget);
        controller.decide_into(&obs, &mut actions);
        let report = match system.step(&actions) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        recorder.record(
            report.total_power,
            budget,
            report.total_instructions(),
            report.dt,
        );
    }
    let s = recorder.finish();
    println!("throughput      {} GIPS", fmt_num(s.throughput_ips() / 1e9));
    println!("mean power      {:.2}", s.mean_power);
    println!("peak power      {:.2}", s.peak_power);
    println!(
        "over-budget     {} of epochs",
        fmt_percent(s.overshoot_fraction)
    );
    println!("overshoot       {:.4}", s.overshoot_energy);
    println!(
        "efficiency      {} instr/J",
        fmt_num(s.instructions_per_joule())
    );
    println!(
        "peak temp       {:.1}",
        system.telemetry().peak_temperature()
    );

    if let Some(path) = args.csv {
        if let Err(e) = std::fs::write(&path, system.telemetry().series_csv()) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("telemetry CSV   {path}");
    }
    ExitCode::SUCCESS
}

/// The system configuration and the OD-RL configuration of the run. Both
/// seeds are chip 0's of a one-chip fleet (`FleetConfig::chip_seeds`), so
/// `--seed N` builds what `RunBuilder::build_chip` builds for the same
/// scenario. A `--config` file's seed seeds the system as it is and roots
/// the exploration seed.
fn configure(args: &SimArgs) -> Result<(SystemConfig, OdRlConfig), String> {
    let chip_seeds = |seed| {
        let scenario = Scenario {
            seed,
            ..args.scenario()
        };
        FleetConfig::new(1, scenario).chip_seeds(0)
    };
    let (config, explore) = if let Some(path) = &args.config_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let config: SystemConfig =
            serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        config
            .validate()
            .map_err(|e| format!("invalid config in {path}: {e}"))?;
        let (_, explore) = chip_seeds(config.seed);
        (config, explore)
    } else {
        let (system, explore) = chip_seeds(args.seed);
        let scenario = Scenario {
            seed: system,
            ..args.scenario()
        };
        let config = scenario.try_system_config().map_err(|e| e.to_string())?;
        (config, explore)
    };
    let odrl = OdRlConfig {
        seed: explore,
        parallelism: args.parallelism(),
        ..OdRlConfig::default()
    };
    Ok((config, odrl))
}

/// The controller `--controller` names, per VF island when `--islands` is
/// above 1.
fn build_controller(
    args: &SimArgs,
    spec: &SystemSpec,
    budget: Watts,
    odrl: OdRlConfig,
) -> Result<Box<dyn PowerController + Send>, String> {
    if args.islands <= 1 {
        let controller = args.controller.try_instantiate(spec, budget, odrl);
        return controller.map_err(|e| e.to_string());
    }
    let map = IslandMap::uniform(spec.cores, args.islands).map_err(|e| e.to_string())?;
    let inner = args
        .controller
        .try_instantiate(&map.island_spec(spec), budget, odrl)
        .map_err(|e| e.to_string())?;
    let islands = IslandController::new(BoxedController(inner), map).map_err(|e| e.to_string())?;
    Ok(Box::new(islands))
}

/// Adapts a boxed controller to the `PowerController` bound the
/// island adapter's generic parameter needs.
struct BoxedController(Box<dyn PowerController + Send>);

impl PowerController for BoxedController {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide_into(&mut self, obs: &odrl_manycore::Observation, out: &mut [odrl_power::LevelId]) {
        self.0.decide_into(obs, out);
    }
}

impl std::fmt::Debug for BoxedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoxedController({})", self.0.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_bench::{run_loop, RunBuilder};

    #[test]
    fn seed_builds_chip_zero_of_a_run_builder_run() {
        let argv = ["--seed", "9", "--cores", "16", "--epochs", "100"];
        let args = parse_sim_args(argv).unwrap();
        let (config, odrl) = configure(&args).unwrap();
        let budget = Watts::new(args.budget_frac * config.max_power().value());
        let mut system = System::new(config).unwrap();
        let mut controller = build_controller(&args, &system.spec(), budget, odrl).unwrap();
        let cli = run_loop(&mut system, controller.as_mut(), budget, args.epochs);

        let mut chip = RunBuilder::new(args.scenario()).build_chip().unwrap();
        assert_eq!(chip.budget, budget);
        let built = run_loop(
            &mut chip.system,
            chip.controller.as_mut(),
            budget,
            args.epochs,
        );
        let policy = controller.policy_bytes().expect("OD-RL learns a policy");
        assert_eq!(Some(policy), chip.controller.policy_bytes());
        assert_eq!(cli.power_trace, built.power_trace);
    }
}
