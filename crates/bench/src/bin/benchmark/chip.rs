//! The single-chip workloads: one `System` driven by one OD-RL controller
//! under a budget square wave.

use crate::trace::{Name, Spans};
use crate::workloads::{
    chip_fault_plan, finish, odrl, scenario, timed_setup, Length, Tally, Trial, Window, Workload,
};
use odrl_controllers::PowerController;
use odrl_core::{OdRlController, QTableLayout, WatchdogConfig};
use odrl_faults::FaultEngine;
use odrl_manycore::{Observation, Stage, StageTimers, System};
use odrl_noc::NocConfig;
use odrl_power::{LevelId, Watts};
use odrl_thermal::Floorplan;
use std::hint::black_box;
use std::time::Instant;

/// Epochs between budget switches: long enough for the controller to
/// settle, short enough that every trial sees 40 step changes.
const HALF_PERIOD: u64 = 250;

/// Budget fractions of the square wave (of the chip's max power).
const HIGH: f64 = 0.60;
const LOW: f64 = 0.36;

/// Spans per traced epoch: epoch, decide, rl (+2 halves), realloc, step
/// (+5 stages), observe, and the two fault replicas.
const SPANS_PER_EPOCH: usize = 15;

/// Fault-schedule activity is sampled every this many traced epochs
/// (`active_at` scans the whole schedule).
const ACTIVE_SAMPLE_EVERY: u64 = 50;

struct ChipRig {
    system: System,
    controller: OdRlController,
    obs: Observation,
    actions: Vec<LevelId>,
    high: Watts,
    low: Watts,
}

impl ChipRig {
    fn build(w: Workload, seed: u64, len: Length) -> Result<Self, String> {
        let faulted = w == Workload::Chip256Faults;
        let (_, cores) = w.shape();
        let mut config = scenario(w, seed, len)
            .try_system_config()
            .map_err(|e| e.to_string())?;
        if faulted {
            let floorplan = Floorplan::squarish(cores).map_err(|e| e.to_string())?;
            config.noc = Some(NocConfig::for_floorplan(floorplan));
        }
        let max = config.max_power().value();
        let (high, low) = (Watts::new(HIGH * max), Watts::new(LOW * max));
        let mut system = System::new(config).map_err(|e| e.to_string())?;
        let mut odrl = odrl(seed);
        if faulted {
            system
                .attach_faults(&chip_fault_plan(len))
                .map_err(|e| e.to_string())?;
            odrl.layout = QTableLayout::Quantized;
            odrl.watchdog = WatchdogConfig::enabled();
        }
        let mut controller =
            OdRlController::new(odrl, &system.spec(), high).map_err(|e| e.to_string())?;
        if let Some(engine) = system.fault_engine() {
            controller
                .attach_budget_faults(engine)
                .map_err(|e| e.to_string())?;
        }
        Ok(Self {
            obs: system.observation(high),
            actions: vec![LevelId(0); cores],
            system,
            controller,
            high,
            low,
        })
    }

    fn budget(&self, epoch: u64) -> Watts {
        if (epoch / HALF_PERIOD).is_multiple_of(2) {
            self.high
        } else {
            self.low
        }
    }

    /// Steps one closed-loop epoch and returns its wall time in ns; the
    /// bookkeeping after it is not timed.
    #[inline]
    fn epoch(&mut self, tally: &mut Tally) -> u64 {
        let e = self.system.epoch();
        let next = self.budget(e + 1);
        let t0 = Instant::now();
        self.controller.decide_into(&self.obs, &mut self.actions);
        let stepped = self.system.step_in_place(&self.actions).is_ok();
        self.system.observation_into(next, &mut self.obs);
        let nanos = t0.elapsed().as_nanos() as u64;
        self.account(self.budget(e), stepped, tally);
        nanos
    }

    /// Folds the last epoch into the tally; fails the op if the step
    /// errored or the report is not physical.
    fn account(&self, budget: Watts, stepped: bool, tally: &mut Tally) {
        let report = match self.system.last_report() {
            Some(report) if stepped => report,
            _ => return tally.op(false),
        };
        let power = report.total_power.value();
        let instructions = report.total_instructions();
        let energy = report.energy.value();
        let dt = report.dt.value();
        tally.op(power.is_finite()
            && power > 0.0
            && instructions.is_finite()
            && instructions >= 0.0
            && energy.is_finite()
            && energy > 0.0
            && dt > 0.0);
        let sim = &mut tally.sim;
        sim.instructions += instructions;
        sim.energy_j += energy;
        sim.seconds += dt;
        sim.overshoot_j += (power - budget.value()).max(0.0) * dt;
        tally.digest.fold(power);
        tally.digest.fold(report.measured_power.value());
        tally.digest.fold(instructions);
    }
}

/// Stage-timer deltas across one call.
fn delta(after: &StageTimers, before: &StageTimers, stage: Stage) -> u64 {
    after.nanos(stage) - before.nanos(stage)
}

/// Runs one trial of a chip workload.
pub fn run(w: Workload, seed: u64, len: Length, traced: bool) -> Result<Trial, String> {
    let (mut rig, setup_s) = timed_setup(|| ChipRig::build(w, seed, len))?;
    let mut warm = Tally::default();
    for _ in 0..len.warmup {
        rig.epoch(&mut warm);
    }
    let mut trial = Trial::default();
    let mut tally = Tally::default();
    if traced {
        traced_window(&mut rig, len, &mut tally, &mut trial)?;
    } else {
        let mut window = Window::open(len.epochs);
        for _ in 0..len.epochs {
            let nanos = rig.epoch(&mut tally);
            window.sample(nanos);
        }
        window.close(rig.system.num_cores(), &mut trial);
    }
    finish(&mut trial, setup_s, &tally);
    Ok(trial)
}

/// The traced window: spans around every public call, stage timers as
/// their children, and the fault layer replayed on replicas outside the
/// epoch span.
fn traced_window(
    rig: &mut ChipRig,
    len: Length,
    tally: &mut Tally,
    trial: &mut Trial,
) -> Result<(), String> {
    let mut spans = Spans::with_capacity(len.epochs as usize * SPANS_PER_EPOCH);
    let mut replica = rig.system.fault_engine().map(|engine| {
        let engine = engine.clone();
        let state = engine.state();
        let channel = engine.budget_channel();
        (engine, state, channel)
    });
    let (mut active, mut active_samples) = (0.0, 0u64);
    let mut window = Window::open(len.epochs);
    for _ in 0..len.epochs {
        let e = rig.system.epoch();
        let next = rig.budget(e + 1);
        let t0 = spans.now();
        let ctrl0 = *rig.controller.stage_timers();
        let d0 = spans.now();
        rig.controller.decide_into(&rig.obs, &mut rig.actions);
        let d1 = spans.now();
        let ctrl1 = *rig.controller.stage_timers();
        let sys0 = *rig.system.stage_timers();
        let s0 = spans.now();
        let stepped = rig.system.step_in_place(&rig.actions).is_ok();
        let s1 = spans.now();
        let sys1 = *rig.system.stage_timers();
        let o0 = spans.now();
        rig.system.observation_into(next, &mut rig.obs);
        let o1 = spans.now();
        let t1 = spans.now();
        window.sample(t1 - t0);

        let epoch = spans.push(Name::Epoch, None, e, t0, t1);
        let decide = spans.push(Name::Decide, Some(epoch), e, d0, d1);
        let rl_nanos = delta(&ctrl1, &ctrl0, Stage::Rl);
        let rl = spans.push(Name::Rl, Some(decide), e, d0, d0 + rl_nanos);
        spans.push_laid_out(
            rl,
            e,
            d0,
            &[
                (Name::RlDecide, delta(&ctrl1, &ctrl0, Stage::RlDecide)),
                (Name::RlLearn, delta(&ctrl1, &ctrl0, Stage::RlLearn)),
            ],
        );
        spans.push_laid_out(
            decide,
            e,
            d0 + rl_nanos,
            &[(Name::Realloc, delta(&ctrl1, &ctrl0, Stage::Realloc))],
        );
        let step = spans.push(Name::Step, Some(epoch), e, s0, s1);
        spans.push_laid_out(
            step,
            e,
            s0,
            &[
                (Name::Workload, delta(&sys1, &sys0, Stage::Workload)),
                (Name::Power, delta(&sys1, &sys0, Stage::Power)),
                (Name::Sensor, delta(&sys1, &sys0, Stage::Sensor)),
                (Name::Noc, delta(&sys1, &sys0, Stage::Noc)),
                (Name::Thermal, delta(&sys1, &sys0, Stage::Thermal)),
            ],
        );
        spans.push(Name::Observe, Some(epoch), e, o0, o1);

        if let Some((engine, state, channel)) = &mut replica {
            let f0 = spans.now();
            engine.begin_epoch(e, state);
            let f1 = spans.now();
            channel.begin_epoch(e);
            let f2 = spans.now();
            spans.push(Name::FaultEngine, None, e, f0, f1);
            spans.push(Name::FaultChannel, None, e, f1, f2);
            if e.is_multiple_of(ACTIVE_SAMPLE_EVERY) {
                active += engine.active_at(e) as f64 / engine.num_events().max(1) as f64;
                active_samples += 1;
            }
        }
        rig.account(rig.budget(e), stepped, tally);
    }
    window.close(rig.system.num_cores(), trial);
    if spans.dropped() > 0 {
        return Err(format!(
            "{} spans did not fit the reserved store",
            spans.dropped()
        ));
    }

    let us = |name, p| spans.us(name, p).unwrap_or(0.0);
    trial.set("manycore.step_us_p50", us(Name::Step, 50.0));
    trial.set("manycore.step_us_p99", us(Name::Step, 99.0));
    trial.set("manycore.observe_us_p50", us(Name::Observe, 50.0));
    trial.set(
        "manycore.step_self_us_p50",
        spans.self_us_p50(Name::Step).unwrap_or(0.0),
    );
    for (metric, name) in [
        ("workload.us_p50", Name::Workload),
        ("power.us_p50", Name::Power),
        ("sensor.us_p50", Name::Sensor),
        ("noc.us_p50", Name::Noc),
        ("thermal.us_p50", Name::Thermal),
        ("rl.decide_us_p50", Name::RlDecide),
        ("rl.learn_us_p50", Name::RlLearn),
        ("core.realloc_us_p50", Name::Realloc),
    ] {
        trial.set(metric, us(name, 50.0));
    }
    trial.set("core.decide_us_p50", us(Name::Decide, 50.0));
    trial.set("core.decide_us_p99", us(Name::Decide, 99.0));
    trial.set(
        "core.self_us_p50",
        spans.self_us_p50(Name::Decide).unwrap_or(0.0),
    );
    // Every node's median self time: together they should come close to
    // the median epoch.
    let self_sum: f64 = [Name::Epoch, Name::Decide, Name::Rl, Name::Step]
        .into_iter()
        .map(|n| spans.self_us_p50(n).unwrap_or(0.0))
        .chain(
            [
                Name::RlDecide,
                Name::RlLearn,
                Name::Realloc,
                Name::Workload,
                Name::Power,
                Name::Sensor,
                Name::Noc,
                Name::Thermal,
                Name::Observe,
            ]
            .into_iter()
            .map(|n| us(n, 50.0)),
        )
        .sum();
    trial.set(
        "trace.self_closure_pct",
        (self_sum / us(Name::Epoch, 50.0) - 1.0) * 100.0,
    );

    if let Some((engine, _, _)) = &replica {
        let plan = chip_fault_plan(len);
        let mut compile = [0.0; 3];
        for t in &mut compile {
            let t0 = Instant::now();
            black_box(
                FaultEngine::compile(&plan, rig.system.num_cores(), rig.system.fault_seed())
                    .map_err(|e| e.to_string())?,
            );
            *t = t0.elapsed().as_secs_f64() * 1e3;
        }
        compile.sort_by(f64::total_cmp);
        trial.set("faults.events", engine.num_events() as f64);
        trial.set("faults.compile_ms", compile[1]);
        trial.set("faults.engine_us_p50", us(Name::FaultEngine, 50.0));
        trial.set("faults.channel_us_p50", us(Name::FaultChannel, 50.0));
        trial.set("faults.active_frac", active / active_samples.max(1) as f64);
    }
    trial.spans = Some(spans);
    Ok(())
}
