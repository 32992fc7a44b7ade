//! The four closed-loop workloads and what one trial of each measures.
//!
//! Every workload is closed loop: epoch n+1 starts when decide → step →
//! observe of epoch n has returned. A trial builds the run (timed as
//! set-up), steps [`WARMUP`] untimed epochs, then times a fixed number of
//! epochs one by one.

use crate::stats::{percentile, Digest};
use crate::trace::Spans;
use crate::{chip, fleet};
use odrl_bench::{allocs, Scenario};
use odrl_core::OdRlConfig;
use odrl_faults::{
    ActuatorFault, BudgetFault, ChipScope, CoreFault, FaultKind, FaultPlan, RandomBurst,
    SensorFault,
};
use odrl_manycore::parallel::stream_seed;
use odrl_manycore::Parallelism;
use odrl_workload::MixPolicy;
use std::collections::BTreeMap;
use std::time::Instant;

/// Untimed epochs before the timed window: fills the Q-tables' first
/// visits, the scratch buffers and the caches.
pub const WARMUP: u64 = 500;

/// Builds per trial; set-up time is their median.
const SETUP_REPEATS: usize = 5;

/// Epochs per block of the timed window: the smallest that leaves ten
/// samples beyond a block's p99. Host metrics come from the quietest block
/// (see [`Window::close`]).
const BLOCK: usize = 1000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 chip × 1024 cores, scalar Q-tables, no faults.
    Chip1024,
    /// 1 chip × 256 cores, quantized Q-banks, faults, watchdog, mesh NoC.
    Chip256Faults,
    /// 16 chips × 64 cores on two threads, lossy budget links.
    Fleet16x64,
    /// 4 chips × 256 cores, serial, obs + diagnostics + flight recorder.
    Fleet4x256Obs,
}

impl Workload {
    /// Every workload, in the order trials visit them.
    pub const ALL: [Self; 4] = [
        Self::Chip1024,
        Self::Chip256Faults,
        Self::Fleet16x64,
        Self::Fleet4x256Obs,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Chip1024 => "chip1024",
            Self::Chip256Faults => "chip256_faults",
            Self::Fleet16x64 => "fleet16x64",
            Self::Fleet4x256Obs => "fleet4x256_obs",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed epochs per trial.
    pub fn epochs(self) -> u64 {
        match self {
            Self::Chip1024 | Self::Chip256Faults => 20_000,
            Self::Fleet16x64 => 5_000,
            Self::Fleet4x256Obs => 4_000,
        }
    }

    /// `(chips, cores per chip)`.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Self::Chip1024 => (1, 1024),
            Self::Chip256Faults => (1, 256),
            Self::Fleet16x64 => (16, 64),
            Self::Fleet4x256Obs => (4, 256),
        }
    }

    /// This workload's seed, derived from the command-line seed.
    pub fn seed(self, seed: u64) -> u64 {
        stream_seed(seed, self as u64)
    }
}

/// How long a trial runs. The smoke test shortens both parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Length {
    /// Untimed epochs.
    pub warmup: u64,
    /// Timed epochs.
    pub epochs: u64,
}

impl Length {
    /// The benchmark's run length for `w`.
    pub fn full(w: Workload) -> Self {
        Self {
            warmup: WARMUP,
            epochs: w.epochs(),
        }
    }

    /// Warm-up plus timed epochs: the span fault bursts cover.
    pub fn total(self) -> u64 {
        self.warmup + self.epochs
    }
}

/// What one trial reports: named metrics plus the correctness record.
#[derive(Debug, Default)]
pub struct Trial {
    /// End-to-end metrics, and per-layer metrics when traced.
    pub metrics: BTreeMap<String, f64>,
    /// Timed epochs attempted.
    pub ops: u64,
    /// Timed epochs whose step failed or broke an invariant.
    pub ops_failed: u64,
    /// Digest of the simulated results of every timed epoch.
    pub digest: u64,
    /// Digest of the comparison twin (traced fleet trials only).
    pub twin_digest: Option<u64>,
    /// The spans of a traced trial.
    pub spans: Option<Spans>,
}

impl Trial {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Runs one trial of `w`.
///
/// # Errors
///
/// Returns a message if the run cannot be built.
pub fn run(w: Workload, seed: u64, len: Length, traced: bool) -> Result<Trial, String> {
    match w {
        Workload::Chip1024 | Workload::Chip256Faults => chip::run(w, w.seed(seed), len, traced),
        Workload::Fleet16x64 | Workload::Fleet4x256Obs => fleet::run(w, w.seed(seed), len, traced),
    }
}

/// One chip of `w`: its cores under a 60 % budget, running the suite
/// round-robin, serial inside the chip. Fleets replicate it with
/// decorrelated seeds.
pub fn scenario(w: Workload, seed: u64, len: Length) -> Scenario {
    Scenario {
        cores: w.shape().1,
        budget_frac: 0.6,
        epochs: len.total(),
        mix: MixPolicy::RoundRobin,
        seed,
        parallelism: Parallelism::Serial,
    }
}

/// Default OD-RL, with its exploration seed derived from the workload's.
pub fn odrl(seed: u64) -> OdRlConfig {
    OdRlConfig {
        seed: stream_seed(seed, 1),
        ..OdRlConfig::default()
    }
}

/// The chip workload's fault schedule: seeded bursts of every fault family
/// over the whole run.
pub fn chip_fault_plan(len: Length) -> FaultPlan {
    let burst = |kind, rate_per_kepoch, duration| RandomBurst {
        kind,
        start: 0,
        end: len.total(),
        rate_per_kepoch,
        duration,
        chip: ChipScope::All,
    };
    FaultPlan::new()
        .with_burst(burst(FaultKind::Sensor(SensorFault::StuckLast), 1.0, 20))
        .with_burst(burst(
            FaultKind::Sensor(SensorFault::Drift { rate: 0.01 }),
            0.5,
            50,
        ))
        .with_burst(burst(
            FaultKind::Actuator(ActuatorFault::Delayed { epochs: 2 }),
            1.0,
            10,
        ))
        .with_burst(burst(FaultKind::Budget(BudgetFault::Lost), 2.0, 10))
        .with_burst(burst(FaultKind::Core(CoreFault::Unplug), 0.1, 100))
}

/// The fleet workloads' lossy budget links (every chip's per-core links
/// and the arbiter → chip links).
pub fn link_fault_plan(len: Length) -> FaultPlan {
    FaultPlan::new().with_burst(RandomBurst {
        kind: FaultKind::Budget(BudgetFault::Lost),
        start: 0,
        end: len.total(),
        rate_per_kepoch: 20.0,
        duration: 5,
        chip: ChipScope::All,
    })
}

/// Builds the run [`SETUP_REPEATS`] times, dropping each before the next,
/// and returns the last build with the median build time in seconds.
pub fn timed_setup<T>(build: impl Fn() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = [0.0; SETUP_REPEATS];
    let mut built = None;
    for t in &mut times {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build()?);
        *t = t0.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    let rig = built.expect("SETUP_REPEATS is positive");
    Ok((rig, times[SETUP_REPEATS / 2]))
}

/// Simulated totals over the timed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    /// Instructions retired.
    pub instructions: f64,
    /// Energy consumed, joules.
    pub energy_j: f64,
    /// Simulated seconds.
    pub seconds: f64,
    /// Energy above the budget in force, joules.
    pub overshoot_j: f64,
}

/// Per-epoch correctness record and simulated totals.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulated totals.
    pub sim: Sim,
    /// Digest of the simulated results.
    pub digest: Digest,
    /// Epochs attempted.
    pub ops: u64,
    /// Epochs failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one epoch, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
    }
}

/// The host side of a timed window: per-epoch wall times, per-epoch
/// process CPU times, and allocations.
pub struct Window {
    allocs: u64,
    block: usize,
    samples: Vec<u64>,
    cpu: Vec<u64>,
    cpu_mark: u64,
}

impl Window {
    /// Reserves room for `epochs` samples, then starts the clocks.
    pub fn open(epochs: u64) -> Self {
        let epochs = epochs as usize;
        let blocks = (epochs / BLOCK).max(1);
        let samples = Vec::with_capacity(epochs);
        let cpu = Vec::with_capacity(epochs);
        Self {
            allocs: allocs::allocations(),
            block: (epochs / blocks).max(1),
            samples,
            cpu,
            cpu_mark: process_cpu_ns(),
        }
    }

    /// Records one epoch's wall time, and the process CPU time since the
    /// previous sample (the epoch plus the benchmark's bookkeeping of it).
    #[inline]
    pub fn sample(&mut self, nanos: u64) {
        debug_assert!(self.samples.len() < self.samples.capacity());
        let now = process_cpu_ns();
        self.samples.push(nanos);
        self.cpu.push(now.saturating_sub(self.cpu_mark));
        self.cpu_mark = now;
    }

    /// Stops the clocks and records the host metrics of `cores` cores
    /// stepped once per sampled epoch, each from the trial's quietest
    /// block. Other tenants of a shared host only ever add time, in bursts
    /// that slow whole blocks and in stalls that land in most blocks'
    /// tails; the quietest block is the one the code itself sets. Medians
    /// rather than sums keep a block's stalls out of its CPU rate too.
    pub fn close(self, cores: usize, trial: &mut Trial) {
        let allocs = allocs::allocations() - self.allocs;
        let (mut p50, mut p99, mut cpu_p50) = (u64::MAX, u64::MAX, u64::MAX);
        for (wall, cpu) in self
            .samples
            .chunks_exact(self.block)
            .zip(self.cpu.chunks_exact(self.block))
        {
            let mut wall = wall.to_vec();
            p50 = p50.min(percentile(&mut wall, 50.0).unwrap_or(u64::MAX));
            p99 = p99.min(percentile(&mut wall, 99.0).unwrap_or(u64::MAX));
            let cpu = percentile(&mut cpu.to_vec(), 50.0).unwrap_or(u64::MAX);
            cpu_p50 = cpu_p50.min(cpu.max(1));
        }
        trial.set("epoch_us_p50", p50 as f64 / 1e3);
        trial.set("epoch_us_p99", p99 as f64 / 1e3);
        trial.set("core_epochs_per_cpu_s", cores as f64 / cpu_p50 as f64 * 1e6);
        trial.set(
            "allocs_per_epoch",
            allocs as f64 / self.samples.len() as f64,
        );
    }
}

/// CPU time of the whole process (every thread) in nanoseconds, as the
/// scheduler accounts it. `/proc/self/stat` (`odrl_bench::cputime`) ticks
/// every 10 ms, too coarse for one epoch.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, so
    // `ts` is a valid, writable, exclusively borrowed timespec for the
    // call, and the clock id is one every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// Elsewhere, wall time stands in for CPU time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_ns() -> u64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records the end-to-end metrics every trial reports besides the
/// window's: set-up time, peak memory and the simulated outcome.
pub fn finish(trial: &mut Trial, setup_s: f64, tally: &Tally) {
    trial.set("setup_s", setup_s);
    trial.set("peak_rss_mb", peak_rss_mib());
    let sim = tally.sim;
    trial.set("sim_bips", sim.instructions / sim.seconds / 1e9);
    trial.set("sim_ginstr_per_j", sim.instructions / sim.energy_j / 1e9);
    trial.set("sim_overshoot_j", sim.overshoot_j);
    trial.ops = tally.ops;
    trial.ops_failed = tally.failed;
    trial.digest = tally.digest.value();
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
