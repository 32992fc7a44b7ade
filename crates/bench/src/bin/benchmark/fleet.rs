//! The fleet workloads: N chips under the rack arbiter, stepped through
//! `Fleet::step_epoch`.

use crate::stats::Digest;
use crate::trace::{Name, Spans};
use crate::workloads::{
    finish, link_fault_plan, odrl, scenario, timed_setup, Length, Tally, Trial, Window, Workload,
};
use odrl_bench::{BudgetArbiter, Fleet, FleetConfig, RecorderConfig, RunBuilder, WatermarkRule};
use odrl_faults::{BudgetChannel, FaultEngine};
use odrl_manycore::Parallelism;
use odrl_power::Watts;
use std::hint::black_box;
use std::time::Instant;

/// Epochs between arbiter rounds.
const ARBITER_PERIOD: u64 = 10;

/// Spans per traced epoch: the fleet, its twin, the arbiter and link
/// replicas.
const SPANS_PER_EPOCH: usize = 4;

/// Which build of a workload's fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    /// The measured fleet.
    Measured,
    /// Its comparison twin: serial for `fleet16x64`, obs off for
    /// `fleet4x256_obs`. It must simulate the same bits.
    Twin,
}

/// The flight recorder of `fleet4x256_obs`: one loss-spike rule, spaced
/// so that most of its dumps land inside the timed window.
fn recorder() -> RecorderConfig {
    RecorderConfig {
        window: 32,
        rules: vec![WatermarkRule::BudgetLossSpike {
            loss_rate: 0.25,
            min_sent: 4,
        }],
        cooldown: 1_000,
        max_dumps: 4,
    }
}

fn build(w: Workload, seed: u64, len: Length, which: Build) -> Result<Fleet, String> {
    let mut builder = RunBuilder::new(scenario(w, seed, len))
        .odrl(odrl(seed))
        .faults(link_fault_plan(len))
        .watchdog(true)
        .arbiter_period(ARBITER_PERIOD);
    match (w, which) {
        (Workload::Fleet16x64, Build::Measured) => {
            builder = builder.fleet_parallelism(Parallelism::Threads(2));
        }
        (Workload::Fleet4x256Obs, Build::Measured) => builder = builder.recorder(recorder()),
        _ => {}
    }
    builder.build_fleet(w.shape().0).map_err(|e| e.to_string())
}

/// Per-chip power of the epoch just stepped, read from the chips' energy
/// counters (buffers sized once, before the timed window).
struct ChipPower {
    energy: Vec<f64>,
    elapsed: f64,
    power: Vec<f64>,
    dt: f64,
}

impl ChipPower {
    fn new(fleet: &Fleet) -> Self {
        let chips = fleet.num_chips();
        Self {
            energy: (0..chips)
                .map(|k| fleet.chip_telemetry(k).total_energy().value())
                .collect(),
            elapsed: fleet.telemetry().elapsed().value(),
            power: vec![0.0; chips],
            dt: 0.0,
        }
    }

    fn update(&mut self, fleet: &Fleet) {
        let elapsed = fleet.telemetry().elapsed().value();
        self.dt = elapsed - self.elapsed;
        self.elapsed = elapsed;
        for (k, (p, last)) in self.power.iter_mut().zip(&mut self.energy).enumerate() {
            let now = fleet.chip_telemetry(k).total_energy().value();
            *p = (now - *last) / self.dt;
            *last = now;
        }
    }
}

/// Folds one stepped epoch into `tally`. The epoch fails unless the step
/// succeeded and the arbitrated shares still sum to the fleet budget.
/// Overshoot is each chip's energy above the budget it held that epoch.
#[inline]
fn account(fleet: &Fleet, stepped: bool, chips: &mut ChipPower, tally: &mut Tally) {
    let total = fleet.total_budget().value();
    tally.op(stepped && (fleet.arbitrated_sum() - total).abs() <= 1e-9 * total);
    chips.update(fleet);
    for (k, p) in chips.power.iter().enumerate() {
        tally.sim.overshoot_j += (p - fleet.chip_budget(k).value()).max(0.0) * chips.dt;
    }
    fold(fleet, &mut tally.digest);
}

fn fold(fleet: &Fleet, digest: &mut Digest) {
    let t = fleet.telemetry();
    digest.fold(t.total_instructions());
    digest.fold(t.total_energy().value());
    digest.fold(fleet.held_sum());
}

/// The fleet telemetry's running totals, for window deltas.
fn totals(fleet: &Fleet) -> [f64; 3] {
    let t = fleet.telemetry();
    [
        t.total_instructions(),
        t.total_energy().value(),
        t.elapsed().value(),
    ]
}

/// Runs one trial of a fleet workload.
pub fn run(w: Workload, seed: u64, len: Length, traced: bool) -> Result<Trial, String> {
    let (mut fleet, setup_s) = timed_setup(|| build(w, seed, len, Build::Measured))?;
    let mut replicas = if traced {
        Some(Replicas::build(w, seed, len)?)
    } else {
        None
    };
    for _ in 0..len.warmup {
        fleet
            .step_epoch()
            .map_err(|e| format!("warm-up epoch failed: {e}"))?;
        if let Some(r) = &mut replicas {
            r.twin
                .step_epoch()
                .map_err(|e| format!("twin warm-up epoch failed: {e}"))?;
        }
    }
    let before = totals(&fleet);
    let mut chips = ChipPower::new(&fleet);
    let mut trial = Trial::default();
    let mut tally = Tally::default();
    match &mut replicas {
        Some(r) => r.window(
            w, len.epochs, &mut fleet, &mut chips, &mut tally, &mut trial,
        )?,
        None => {
            let mut window = Window::open(len.epochs);
            for _ in 0..len.epochs {
                let t0 = Instant::now();
                let stepped = fleet.step_epoch().is_ok();
                window.sample(t0.elapsed().as_nanos() as u64);
                account(&fleet, stepped, &mut chips, &mut tally);
            }
            window.close(fleet.num_cores(), &mut trial);
        }
    }
    let after = totals(&fleet);
    tally.sim.instructions = after[0] - before[0];
    tally.sim.energy_j = after[1] - before[1];
    tally.sim.seconds = after[2] - before[2];
    finish(&mut trial, setup_s, &tally);
    Ok(trial)
}

/// What a traced trial runs beside the measured fleet: the comparison
/// twin, and replicas of the arbiter and of the fleet links.
struct Replicas {
    twin: Fleet,
    arbiter: BudgetArbiter,
    link: BudgetChannel,
}

impl Replicas {
    fn build(w: Workload, seed: u64, len: Length) -> Result<Self, String> {
        let twin = build(w, seed, len, Build::Twin)?;
        let chips = twin.num_chips();
        let defaults = FleetConfig::new(chips, scenario(w, seed, len));
        let arbiter = BudgetArbiter::new(
            twin.total_budget(),
            chips,
            ARBITER_PERIOD,
            defaults.arbiter_gain,
            defaults.min_share,
            defaults.demand_smoothing,
        )
        .map_err(|e| e.to_string())?;
        let links = link_fault_plan(len).fleet_budget_plan(chips);
        let link = FaultEngine::compile(&links, chips, seed)
            .map_err(|e| e.to_string())?
            .budget_channel();
        Ok(Self {
            twin,
            arbiter,
            link,
        })
    }

    /// The traced window: the measured fleet and its twin stepped in
    /// alternation, then the arbiter and the fleet links replayed on the
    /// replicas, each in its own span.
    fn window(
        &mut self,
        w: Workload,
        epochs: u64,
        fleet: &mut Fleet,
        chip_power: &mut ChipPower,
        tally: &mut Tally,
        trial: &mut Trial,
    ) -> Result<(), String> {
        let Self {
            twin,
            arbiter,
            link,
        } = self;
        let chips = fleet.num_chips();
        let mut twin_digest = Digest::default();
        let mut spans = Spans::with_capacity(epochs as usize * SPANS_PER_EPOCH);
        let mut window = Window::open(epochs);
        for _ in 0..epochs {
            let e = fleet.epoch();
            let t0 = spans.now();
            let stepped = fleet.step_epoch().is_ok();
            let t1 = spans.now();
            let twin_stepped = twin.step_epoch().is_ok();
            let t2 = spans.now();
            window.sample(t1 - t0);
            spans.push(Name::FleetStep, None, e, t0, t1);
            spans.push(Name::FleetTwin, None, e, t1, t2);
            account(fleet, stepped && twin_stepped, chip_power, tally);
            fold(twin, &mut twin_digest);

            let a0 = spans.now();
            let round = e > 0 && e.is_multiple_of(ARBITER_PERIOD);
            if round {
                arbiter.reallocate();
            }
            for (k, &p) in chip_power.power.iter().enumerate() {
                arbiter.observe(k, Watts::new(p));
            }
            let a1 = spans.now();
            link.begin_epoch(e);
            if round {
                for k in 0..chips {
                    link.send(k, arbiter.shares()[k]);
                }
            }
            for k in 0..chips {
                black_box(link.poll(k));
            }
            let a2 = spans.now();
            spans.push(Name::Arbiter, None, e, a0, a1);
            spans.push(Name::Link, None, e, a1, a2);
        }
        window.close(fleet.num_cores(), trial);
        if spans.dropped() > 0 {
            return Err(format!(
                "{} spans did not fit the reserved store",
                spans.dropped()
            ));
        }

        let p50 = |name| spans.us(name, 50.0).unwrap_or(0.0);
        let (measured, other) = (p50(Name::FleetStep), p50(Name::FleetTwin));
        trial.set("fleet.arbiter_us_p50", p50(Name::Arbiter));
        trial.set("fleet.arbiter_rounds", fleet.arbiter().rounds() as f64);
        trial.set("faults.link_us_p50", p50(Name::Link));
        trial.set(
            "faults.link_delivered_frac",
            link.messages_delivered() as f64 / link.messages_sent().max(1) as f64,
        );
        match w {
            Workload::Fleet16x64 => trial.set("fleet.parallel_speedup", other / measured),
            _ => {
                trial.set("obs.overhead_pct", (measured / other - 1.0) * 100.0);
                let dumps = fleet.anomaly_dumps();
                let bytes: usize = dumps.iter().map(|d| d.bytes.len()).sum();
                trial.set("obs.dumps", dumps.len() as f64);
                trial.set(
                    "obs.dump_kb",
                    bytes as f64 / dumps.len().max(1) as f64 / 1024.0,
                );
                if let Some(snapshot) = fleet.fleet_snapshot() {
                    let series =
                        snapshot.counters.len() + snapshot.gauges.len() + snapshot.summaries.len();
                    trial.set("obs.series", series as f64);
                    let mut times = [0.0; 9];
                    for t in &mut times {
                        let t0 = Instant::now();
                        black_box(snapshot.to_prometheus());
                        *t = t0.elapsed().as_secs_f64() * 1e6;
                    }
                    times.sort_by(f64::total_cmp);
                    trial.set("obs.prometheus_us", times[times.len() / 2]);
                }
            }
        }
        trial.twin_digest = Some(twin_digest.value());
        trial.spans = Some(spans);
        Ok(())
    }
}
