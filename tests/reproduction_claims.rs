//! Scaled-down checks of the paper's three claims — the *shape* of each
//! result, at a size small enough for the test suite.
//!
//! The full-size numbers come from the `odrl-bench` binaries (see
//! EXPERIMENTS.md); these tests guard the qualitative ordering so a
//! regression cannot silently invert a headline result.

use odrl::controllers::{MaxBips, PidController, PidGains, PowerController, SteepestDrop};
use odrl::core::{OdRlConfig, OdRlController};
use odrl::manycore::{System, SystemConfig};
use odrl::metrics::RunRecorder;
use odrl::power::{LevelId, Watts};
use std::time::Instant;

const CORES: usize = 24;
const EPOCHS: u64 = 1_200;

fn summarize(
    mut ctrl: Box<dyn PowerController>,
    cfg: &SystemConfig,
    budget: Watts,
) -> odrl::metrics::RunSummary {
    let mut system = System::new(cfg.clone()).unwrap();
    let mut rec = RunRecorder::new(ctrl.name());
    for _ in 0..EPOCHS {
        let obs = system.observation(budget);
        let actions = ctrl.decide(&obs);
        let report = system.step(&actions).unwrap();
        rec.record(
            report.total_power,
            budget,
            report.total_instructions(),
            report.dt,
        );
    }
    rec.finish()
}

fn setting() -> (SystemConfig, Watts) {
    let cfg = SystemConfig::builder()
        .cores(CORES)
        .seed(17)
        .build()
        .unwrap();
    let budget = Watts::new(0.6 * cfg.max_power().value());
    (cfg, budget)
}

/// Claim 1 shape: OD-RL overshoots (in energy) less than the predictive
/// baselines, by a large factor.
#[test]
fn claim1_odrl_overshoots_less_than_baselines() {
    let (cfg, budget) = setting();
    let spec = cfg.spec();
    let odrl = summarize(
        Box::new(OdRlController::new(OdRlConfig::default(), &spec, budget).unwrap()),
        &cfg,
        budget,
    );
    let maxbips = summarize(Box::new(MaxBips::dp(spec.clone()).unwrap()), &cfg, budget);
    let steepest = summarize(
        Box::new(SteepestDrop::new(spec.clone()).unwrap()),
        &cfg,
        budget,
    );

    for base in [&maxbips, &steepest] {
        assert!(
            odrl.overshoot_energy.value() < base.overshoot_energy.value(),
            "OD-RL overshoot {} J must beat {} at {} J",
            odrl.overshoot_energy.value(),
            base.name,
            base.overshoot_energy.value()
        );
    }
    // "up to 98% less": at this reduced scale demand at least 60% less
    // than the worst predictive baseline.
    let worst = maxbips
        .overshoot_energy
        .value()
        .max(steepest.overshoot_energy.value());
    assert!(
        odrl.overshoot_energy.value() < 0.4 * worst,
        "expected >=60% overshoot reduction, got {} vs {}",
        odrl.overshoot_energy.value(),
        worst
    );
}

/// Claim 2a shape: OD-RL's throughput per over-budget energy beats the
/// baselines'.
#[test]
fn claim2a_odrl_wins_throughput_per_overshoot_energy() {
    let (cfg, budget) = setting();
    let spec = cfg.spec();
    let odrl = summarize(
        Box::new(OdRlController::new(OdRlConfig::default(), &spec, budget).unwrap()),
        &cfg,
        budget,
    );
    let maxbips = summarize(Box::new(MaxBips::dp(spec.clone()).unwrap()), &cfg, budget);
    let pid = summarize(
        Box::new(PidController::new(spec.clone(), PidGains::default()).unwrap()),
        &cfg,
        budget,
    );
    let tpoe = |s: &odrl::metrics::RunSummary| s.throughput_per_overshoot_energy();
    assert!(
        tpoe(&odrl) > tpoe(&maxbips),
        "TpOE: odrl {} vs maxbips {}",
        tpoe(&odrl),
        tpoe(&maxbips)
    );
    assert!(
        tpoe(&odrl) > tpoe(&pid),
        "TpOE: odrl {} vs pid {}",
        tpoe(&odrl),
        tpoe(&pid)
    );
}

/// Claim 2b shape: OD-RL's energy efficiency is at least in the same league
/// as the best baseline (the paper reports up to 23 % HIGHER; at reduced
/// scale we require >= 90 % of the best baseline and strictly better than
/// the worst).
#[test]
fn claim2b_odrl_energy_efficiency_is_competitive() {
    let (cfg, budget) = setting();
    let spec = cfg.spec();
    let odrl = summarize(
        Box::new(OdRlController::new(OdRlConfig::default(), &spec, budget).unwrap()),
        &cfg,
        budget,
    );
    let baselines = [
        summarize(Box::new(MaxBips::dp(spec.clone()).unwrap()), &cfg, budget),
        summarize(
            Box::new(SteepestDrop::new(spec.clone()).unwrap()),
            &cfg,
            budget,
        ),
        summarize(
            Box::new(PidController::new(spec.clone(), PidGains::default()).unwrap()),
            &cfg,
            budget,
        ),
    ];
    let eff = |s: &odrl::metrics::RunSummary| s.instructions_per_joule();
    let best = baselines.iter().map(&eff).fold(0.0, f64::max);
    let worst = baselines.iter().map(&eff).fold(f64::MAX, f64::min);
    assert!(
        eff(&odrl) >= 0.9 * best,
        "efficiency {} should be within 10% of best baseline {best}",
        eff(&odrl)
    );
    assert!(
        eff(&odrl) > worst,
        "efficiency {} should beat the worst baseline {worst}",
        eff(&odrl)
    );
}

/// Claim 3 shape: OD-RL's per-decision cost is far below MaxBIPS-DP's at a
/// large core count (and exhaustive MaxBIPS cannot even be constructed).
#[test]
fn claim3_odrl_decides_much_faster_at_scale() {
    let cores = 256;
    let cfg = SystemConfig::builder()
        .cores(cores)
        .seed(2)
        .build()
        .unwrap();
    let budget = Watts::new(0.6 * cfg.max_power().value());
    let spec = cfg.spec();
    let mut system = System::new(cfg).unwrap();
    for _ in 0..3 {
        system.step(&vec![LevelId(4); cores]).unwrap();
    }
    let obs = system.observation(budget);

    let mut odrl = OdRlController::new(OdRlConfig::default(), &spec, budget).unwrap();
    let mut maxbips = MaxBips::dp(spec.clone()).unwrap();

    let time = |ctrl: &mut dyn PowerController| {
        // Warmup then median of 9.
        for _ in 0..3 {
            ctrl.decide(&obs);
        }
        let mut ns: Vec<u128> = (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(ctrl.decide(&obs));
                t.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        ns[4]
    };
    let t_odrl = time(&mut odrl);
    let t_maxbips = time(&mut maxbips);
    assert!(
        t_maxbips > 5 * t_odrl,
        "MaxBIPS-DP ({t_maxbips} ns) should cost >5x OD-RL ({t_odrl} ns) at {cores} cores"
    );

    // Exhaustive MaxBIPS is simply infeasible at this size.
    assert!(
        odrl::controllers::MaxBips::new(spec, odrl::controllers::MaxBipsMode::Exhaustive).is_err()
    );
}
