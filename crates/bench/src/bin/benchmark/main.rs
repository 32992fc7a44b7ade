//! Closed-loop benchmark: four workloads, host and simulated end-to-end
//! metrics, and a traced trial for per-layer metrics.
//!
//! ```text
//! benchmark [--seed N] [--trials N | --seconds S] [--workload NAME[,NAME]]...
//!           [--trace [0|1]] [--trace-out spans.jsonl]
//! ```
//!
//! Trials run round-robin across the workloads, each in a fresh child
//! process, one at a time: `--trials` rounds (default 5), or with
//! `--seconds` as many rounds as fit in that many seconds. `--trace` adds
//! one traced trial per workload, run first. The command prints each
//! workload's metrics as reported and as median and quartiles across
//! trials, then, as its last line, one JSON result; it exits non-zero if
//! any correctness check fails.
//! See README.md in this directory for the workloads and metrics.

mod chip;
mod fleet;
mod report;
mod stats;
mod trace;
mod workloads;

use odrl_bench::allocs;
use report::WorkloadReport;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Length, Trial, Workload};

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

const USAGE: &str = "usage: benchmark [--seed N] [--trials N | --seconds S] \
                     [--workload NAME[,NAME]]... [--trace [0|1]] [--trace-out PATH]\n\
                     workloads: chip1024 chip256_faults fleet16x64 fleet4x256_obs";

#[derive(Debug)]
struct Options {
    seed: u64,
    trials: usize,
    seconds: Option<f64>,
    workloads: Vec<Workload>,
    trace: bool,
    trace_out: Option<PathBuf>,
    /// Run one trial in this process and print it (internal).
    child: bool,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        trials: 5,
        seconds: None,
        workloads: Vec::new(),
        trace: false,
        trace_out: None,
        child: false,
    };
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--trials" => {
                opts.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
                if opts.trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = Some(s);
            }
            "--workload" => {
                for name in value("--workload")?.split(',') {
                    let w =
                        Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
                    if !opts.workloads.contains(&w) {
                        opts.workloads.push(w);
                    }
                }
            }
            "--trace" => {
                let level = args.next_if(|v| v == "0" || v == "1");
                opts.trace = level.as_deref() != Some("0");
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?.into()),
            "--child" => opts.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.child {
        child(&opts)
    } else {
        parent(&opts)
    }
}

/// Child side: one trial of one workload, printed as `key=value` lines.
fn child(opts: &Options) -> ExitCode {
    let [w] = opts.workloads[..] else {
        eprintln!("error: a child runs exactly one workload");
        return ExitCode::from(2);
    };
    let trial = match workloads::run(w, opts.seed, Length::full(w), opts.trace) {
        Ok(trial) => trial,
        Err(e) => {
            eprintln!("error: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    if let (Some(path), Some(spans)) = (&opts.trace_out, &trial.spans) {
        let written = OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                spans.write_jsonl(&mut out, w.name())?;
                out.flush()
            });
        if let Err(e) = written {
            eprintln!("error: writing spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let mut out = format!(
        "ops={}\nops_failed={}\ndigest={}\n",
        trial.ops, trial.ops_failed, trial.digest
    );
    if let Some(twin) = trial.twin_digest {
        out += &format!("twin_digest={twin}\n");
    }
    for (name, value) in &trial.metrics {
        out += &format!("{name}={value}\n");
    }
    print!("{out}");
    ExitCode::SUCCESS
}

/// Parses a child's output back into a [`Trial`].
fn parse_trial(text: &str) -> Result<Trial, String> {
    let mut trial = Trial::default();
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("malformed line {line:?}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{key}: {e}");
        match key {
            "ops" => trial.ops = value.parse().map_err(|e| bad(&e))?,
            "ops_failed" => trial.ops_failed = value.parse().map_err(|e| bad(&e))?,
            "digest" => trial.digest = value.parse().map_err(|e| bad(&e))?,
            "twin_digest" => trial.twin_digest = Some(value.parse().map_err(|e| bad(&e))?),
            _ => {
                metrics.insert(key.to_string(), value.parse().map_err(|e| bad(&e))?);
            }
        }
    }
    if trial.ops == 0 {
        return Err("child reported no epochs".into());
    }
    trial.metrics = metrics;
    Ok(trial)
}

/// Runs one trial in a fresh process of this executable.
fn spawn(opts: &Options, w: Workload, traced: bool) -> Result<Trial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        w.name(),
        "--seed",
        &opts.seed.to_string(),
    ]);
    if traced {
        cmd.arg("--trace");
        if let Some(path) = &opts.trace_out {
            cmd.arg("--trace-out").arg(path);
        }
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start trial: {e}"))?;
    if !output.status.success() {
        return Err(format!("trial exited with {}", output.status));
    }
    parse_trial(&String::from_utf8_lossy(&output.stdout))
}

/// Parent side: schedules the trials, checks them against each other and
/// prints the report.
fn parent(opts: &Options) -> ExitCode {
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, "") {
            eprintln!("error: cannot create {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let start = Instant::now();
    // The traced trials go first, so that the untraced rounds know how much
    // of `--seconds` is left.
    let traced: Vec<Option<Result<Trial, String>>> = opts
        .workloads
        .iter()
        .map(|&w| opts.trace.then(|| spawn(opts, w, true)))
        .collect();
    let mut outcomes: Vec<Vec<Result<Trial, String>>> =
        opts.workloads.iter().map(|_| Vec::new()).collect();
    let mut longest_round = 0.0_f64;
    for round in 1.. {
        let round_start = Instant::now();
        for (w, runs) in opts.workloads.iter().zip(&mut outcomes) {
            runs.push(spawn(opts, *w, false));
        }
        longest_round = longest_round.max(round_start.elapsed().as_secs_f64());
        let done = match opts.seconds {
            // Start another round only if it should end within the time.
            Some(s) => start.elapsed().as_secs_f64() + longest_round > s,
            None => round >= opts.trials,
        };
        if done {
            break;
        }
    }
    let reports: Vec<WorkloadReport> = opts
        .workloads
        .iter()
        .zip(outcomes)
        .zip(traced)
        .map(|((&w, runs), traced)| check(w, runs, traced))
        .collect();
    for r in &reports {
        println!("{}", r.render(opts.trace));
    }
    let (line, correct) = report::json(&reports, opts.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Cross-checks a workload's trials. Every trial simulates the same bits,
/// so every digest (and a traced trial's twin) must agree; a trial that
/// disagrees with the majority, or did not finish, fails all its epochs.
fn check(
    w: Workload,
    runs: Vec<Result<Trial, String>>,
    traced: Option<Result<Trial, String>>,
) -> WorkloadReport {
    let (chips, cores) = w.shape();
    let epochs = Length::full(w).epochs;
    let mut report = WorkloadReport {
        name: w.name(),
        title: format!(
            "{chips} x {cores} cores, {epochs} timed + {} warm-up epochs, closed loop",
            workloads::WARMUP
        ),
        trials: Vec::new(),
        traced: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut finished = Vec::new();
    for (i, run) in runs
        .into_iter()
        .map(|r| (false, r))
        .chain(traced.map(|r| (true, r)))
        .enumerate()
    {
        match run {
            (is_traced, Ok(trial)) => finished.push((i, is_traced, trial)),
            (_, Err(e)) => {
                report.attempted += epochs;
                report.failed += epochs;
                report.errors.push(format!("trial {i}: {e}"));
            }
        }
    }
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for (_, _, t) in &finished {
        *counts.entry(t.digest).or_default() += 1;
    }
    let reference = counts.iter().max_by_key(|&(_, n)| *n).map(|(&d, _)| d);
    for (i, is_traced, trial) in finished {
        report.attempted += trial.ops;
        let mut failed = trial.ops_failed;
        if Some(trial.digest) != reference {
            report.errors.push(format!(
                "trial {i}: sim digest {:016x} disagrees",
                trial.digest
            ));
            failed = trial.ops;
        }
        if trial.twin_digest.is_some_and(|twin| twin != trial.digest) {
            report.errors.push(format!(
                "trial {i}: comparison twin simulated different bits"
            ));
            failed = trial.ops;
        }
        if trial.ops_failed > 0 {
            report
                .errors
                .push(format!("trial {i}: {} epochs failed", trial.ops_failed));
        }
        report.failed += failed;
        if is_traced {
            report.traced = Some(trial);
        } else {
            report.trials.push(trial);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_every_argument_form() {
        let o = parse(args("--workload chip1024 --seed 3 --seconds 10 --trace 0")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (3, Some(10.0), false));
        assert_eq!(o.workloads, [Workload::Chip1024]);
        let o = parse(args(
            "--trace --trace-out s.jsonl --workload fleet16x64,chip1024",
        ))
        .unwrap();
        assert!(o.trace);
        assert_eq!(o.workloads, [Workload::Fleet16x64, Workload::Chip1024]);
        let o = parse(args("--trace 1")).unwrap();
        assert!(o.trace);
        assert_eq!(o.workloads.len(), 4);
        assert!(parse(args("--workload nope")).is_err());
        assert!(parse(args("--trials 0")).is_err());
        assert!(parse(args("--seconds -1")).is_err());
        assert!(parse(args("--seed")).is_err());
    }

    #[test]
    fn child_output_round_trips() {
        let t = parse_trial("ops=60\nops_failed=0\ndigest=42\ntwin_digest=42\nepoch_us_p50=1.5\n")
            .unwrap();
        assert_eq!((t.ops, t.digest, t.twin_digest), (60, 42, Some(42)));
        assert_eq!(t.metrics["epoch_us_p50"], 1.5);
        assert!(parse_trial("").is_err());
        assert!(parse_trial("ops=x\n").is_err());
    }

    /// Every workload for a few dozen epochs, untraced and traced, in
    /// process. `ops_failed == 0` covers the per-epoch invariants,
    /// including arbitrated shares summing to the fleet budget.
    #[test]
    fn smoke_every_workload() {
        let len = Length {
            warmup: 100,
            epochs: 60,
        };
        for w in Workload::ALL {
            let plain = workloads::run(w, 7, len, false).unwrap();
            let traced = workloads::run(w, 7, len, true).unwrap();
            for t in [&plain, &traced] {
                assert_eq!((t.ops, t.ops_failed), (60, 0), "{}", w.name());
                for metric in report::END_TO_END.iter().chain(&report::UNBOUNDED) {
                    let v = t.metrics[metric.name];
                    assert!(
                        v.is_finite() && v >= 0.0,
                        "{} {} = {v}",
                        w.name(),
                        metric.name
                    );
                }
            }
            assert_eq!(
                plain.digest,
                traced.digest,
                "{}: tracing changed the simulation",
                w.name()
            );
            match w {
                Workload::Chip1024 | Workload::Chip256Faults => {
                    // The program's chip epoch is allocation-free, so any
                    // allocation here would be the benchmark's own.
                    assert_eq!(plain.metrics["allocs_per_epoch"], 0.0, "{}", w.name());
                    assert_eq!(traced.metrics["allocs_per_epoch"], 0.0, "{}", w.name());
                    assert!(traced.metrics["core.decide_us_p50"] > 0.0);
                }
                Workload::Fleet16x64 | Workload::Fleet4x256Obs => {
                    assert_eq!(
                        traced.twin_digest,
                        Some(traced.digest),
                        "{}: twin diverged",
                        w.name()
                    );
                    assert!(traced.metrics["fleet.arbiter_rounds"] > 0.0);
                }
            }
            if w == Workload::Fleet4x256Obs {
                assert!(
                    traced.metrics["obs.dumps"] >= 1.0,
                    "the recorder never tripped"
                );
            }
            if w == Workload::Chip256Faults {
                assert!(traced.metrics["faults.events"] > 0.0);
            }
        }
    }
}
