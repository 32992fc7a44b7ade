//! Argument parsing for the `odrl_sim` command-line driver (kept out of
//! the binary so it is unit-testable).

use crate::{ControllerKind, Scenario};
use odrl_manycore::Parallelism;
use odrl_workload::MixPolicy;

/// Parsed `odrl_sim` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// Number of cores (ignored when `config_path` is set).
    pub cores: usize,
    /// Budget as a fraction of max power.
    pub budget_frac: f64,
    /// Which controller to run.
    pub controller: ControllerKind,
    /// Number of control epochs.
    pub epochs: u64,
    /// Master seed: chip 0's system and exploration seeds derive from it
    /// as in a `RunBuilder` chip run (ignored when `config_path` is set).
    pub seed: u64,
    /// Workload mix (ignored when `config_path` is set).
    pub mix: MixPolicy,
    /// Cores per VF island (1 = per-core DVFS).
    pub islands: usize,
    /// Worker threads for the per-epoch update and decide paths
    /// (1 = serial; any setting is bit-identical).
    pub threads: usize,
    /// Telemetry series decimation stride (`None` = choose automatically
    /// from the horizon; see [`SimArgs::series_every_n`]).
    pub decimate: Option<u64>,
    /// Optional telemetry CSV output path.
    pub csv: Option<String>,
    /// Optional JSON system-config path.
    pub config_path: Option<String>,
    /// Print the effective config as JSON and exit.
    pub dump_config: bool,
}

impl Default for SimArgs {
    fn default() -> Self {
        Self {
            cores: 64,
            budget_frac: 0.6,
            controller: ControllerKind::OdRl,
            epochs: 2_000,
            seed: 1,
            mix: MixPolicy::RoundRobin,
            islands: 1,
            threads: 1,
            decimate: None,
            csv: None,
            config_path: None,
            dump_config: false,
        }
    }
}

/// Roughly how many per-epoch telemetry samples an automatic decimation
/// stride keeps for long-horizon runs.
const AUTO_SERIES_POINTS: u64 = 10_000;

impl SimArgs {
    /// The scenario the flags describe (`--config` aside).
    pub fn scenario(&self) -> Scenario {
        Scenario {
            cores: self.cores,
            budget_frac: self.budget_frac,
            epochs: self.epochs,
            mix: self.mix.clone(),
            seed: self.seed,
            parallelism: self.parallelism(),
        }
    }

    /// The intra-epoch parallelism the `--threads` flag asks for.
    pub fn parallelism(&self) -> Parallelism {
        if self.threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(self.threads)
        }
    }

    /// The telemetry decimation stride: an explicit `--decimate N`, or an
    /// automatic stride that caps long-horizon series near
    /// `AUTO_SERIES_POINTS` (10 000) samples (1 = record every epoch).
    pub fn series_every_n(&self) -> u64 {
        self.decimate
            .unwrap_or_else(|| self.epochs.div_ceil(AUTO_SERIES_POINTS).max(1))
    }
}

/// Maps a controller name (as printed in tables) to its kind.
pub fn parse_controller(name: &str) -> Option<ControllerKind> {
    Some(match name {
        "od-rl" => ControllerKind::OdRl,
        "od-rl-local" => ControllerKind::OdRlLocal,
        "maxbips-dp" => ControllerKind::MaxBipsDp,
        "maxbips-exhaustive" => ControllerKind::MaxBipsExhaustive,
        "steepest-drop" => ControllerKind::SteepestDrop,
        "pid" => ControllerKind::Pid,
        "static-uniform" => ControllerKind::StaticUniform,
        "priority-greedy" => ControllerKind::PriorityGreedy,
        "ondemand" => ControllerKind::Ondemand,
        "od-rl-hier" => ControllerKind::OdRlHier,
        _ => return None,
    })
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// out-of-range numbers. `--help` is reported as an error string `"help"`
/// so the caller can print usage and exit cleanly.
pub fn parse_sim_args<I, S>(argv: I) -> Result<SimArgs, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut args = SimArgs::default();
    let mut it = argv.into_iter().map(Into::into);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("help".into());
        }
        if flag == "--dump-config" {
            args.dump_config = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--cores" => args.cores = value.parse().map_err(|e| format!("--cores: {e}"))?,
            "--budget" => {
                args.budget_frac = value.parse().map_err(|e| format!("--budget: {e}"))?;
                if !(0.0..=1.0).contains(&args.budget_frac) {
                    return Err("--budget must be in [0, 1]".into());
                }
            }
            "--controller" => {
                args.controller = parse_controller(&value)
                    .ok_or_else(|| format!("unknown controller `{value}`"))?;
            }
            "--epochs" => args.epochs = value.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mix" => {
                args.mix = match value.as_str() {
                    "roundrobin" => MixPolicy::RoundRobin,
                    "random" => MixPolicy::Random,
                    name => {
                        odrl_workload::by_name(name).map_err(|e| e.to_string())?;
                        MixPolicy::Homogeneous(name.into())
                    }
                };
            }
            "--islands" => {
                args.islands = value.parse().map_err(|e| format!("--islands: {e}"))?;
                if args.islands == 0 {
                    return Err("--islands must be at least 1".into());
                }
            }
            "--threads" => {
                args.threads = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--decimate" => {
                let n: u64 = value.parse().map_err(|e| format!("--decimate: {e}"))?;
                if n == 0 {
                    return Err("--decimate must be at least 1".into());
                }
                args.decimate = Some(n);
            }
            "--csv" => args.csv = Some(value),
            "--config" => args.config_path = Some(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_empty() {
        let args = parse_sim_args(Vec::<String>::new()).unwrap();
        assert_eq!(args, SimArgs::default());
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_sim_args([
            "--cores",
            "128",
            "--budget",
            "0.5",
            "--controller",
            "steepest-drop",
            "--epochs",
            "300",
            "--seed",
            "9",
            "--mix",
            "canneal",
            "--islands",
            "4",
            "--csv",
            "out.csv",
        ])
        .unwrap();
        assert_eq!(args.cores, 128);
        assert_eq!(args.budget_frac, 0.5);
        assert_eq!(args.controller, ControllerKind::SteepestDrop);
        assert_eq!(args.epochs, 300);
        assert_eq!(args.seed, 9);
        assert_eq!(args.mix, MixPolicy::Homogeneous("canneal".into()));
        assert_eq!(args.islands, 4);
        assert_eq!(args.csv.as_deref(), Some("out.csv"));
    }

    #[test]
    fn threads_flag_maps_to_parallelism() {
        let args = parse_sim_args(["--threads", "4"]).unwrap();
        assert_eq!(args.threads, 4);
        assert_eq!(args.parallelism(), Parallelism::Threads(4));
        assert_eq!(SimArgs::default().parallelism(), Parallelism::Serial);
    }

    #[test]
    fn decimation_defaults_to_the_horizon_and_accepts_overrides() {
        // Short horizons keep the full series.
        assert_eq!(SimArgs::default().series_every_n(), 1);
        // Long horizons thin automatically to ~AUTO_SERIES_POINTS samples.
        let long = parse_sim_args(["--epochs", "1000000"]).unwrap();
        assert_eq!(long.decimate, None);
        assert_eq!(long.series_every_n(), 100);
        // An explicit stride always wins.
        let forced = parse_sim_args(["--epochs", "1000000", "--decimate", "7"]).unwrap();
        assert_eq!(forced.series_every_n(), 7);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_sim_args(["--budget", "1.5"]).is_err());
        assert!(parse_sim_args(["--decimate", "0"]).is_err());
        assert!(parse_sim_args(["--islands", "0"]).is_err());
        assert!(parse_sim_args(["--threads", "0"]).is_err());
        assert!(parse_sim_args(["--controller", "nonsense"]).is_err());
        assert!(parse_sim_args(["--mix", "not-a-benchmark"]).is_err());
        assert!(parse_sim_args(["--cores"]).is_err()); // missing value
        assert!(parse_sim_args(["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn help_is_signalled() {
        assert_eq!(parse_sim_args(["--help"]).unwrap_err(), "help");
        assert_eq!(parse_sim_args(["-h"]).unwrap_err(), "help");
    }

    #[test]
    fn dump_config_is_a_bare_flag() {
        let args = parse_sim_args(["--dump-config", "--cores", "8"]).unwrap();
        assert!(args.dump_config);
        assert_eq!(args.cores, 8);
    }

    #[test]
    fn every_controller_name_parses() {
        for name in [
            "od-rl",
            "od-rl-local",
            "maxbips-dp",
            "maxbips-exhaustive",
            "steepest-drop",
            "pid",
            "static-uniform",
            "priority-greedy",
        ] {
            assert!(parse_controller(name).is_some(), "{name}");
        }
        assert!(parse_controller("ondemand").is_some());
        assert!(parse_controller("governor").is_none());
    }
}
