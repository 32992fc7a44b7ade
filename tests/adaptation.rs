//! Guards on the on-line adaptation dynamics (experiment E6): after a
//! budget step, the controller must re-converge quickly, in both
//! directions, without destabilizing.

use odrl::controllers::PowerController;
use odrl::core::{OdRlConfig, OdRlController};
use odrl::manycore::{System, SystemConfig};
use odrl::power::Watts;

struct Window {
    power: f64,
    over: u32,
    n: u32,
}

fn run_phase(
    system: &mut System,
    ctrl: &mut OdRlController,
    budget: Watts,
    epochs: u64,
    tail: u64,
) -> Window {
    let mut w = Window {
        power: 0.0,
        over: 0,
        n: 0,
    };
    for e in 0..epochs {
        let obs = system.observation(budget);
        let actions = ctrl.decide(&obs);
        let report = system.step(&actions).unwrap();
        if e >= epochs - tail {
            w.power += report.total_power.value();
            if report.total_power > budget {
                w.over += 1;
            }
            w.n += 1;
        }
    }
    w.power /= w.n as f64;
    w
}

#[test]
fn recovers_from_budget_step_down() {
    let config = SystemConfig::builder().cores(24).seed(71).build().unwrap();
    let max = config.max_power();
    let mut system = System::new(config).unwrap();
    let mut ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), max * 0.8).unwrap();

    // Warm up at a loose cap.
    run_phase(&mut system, &mut ctrl, max * 0.8, 600, 100);

    // Step the cap down by a third; within 400 epochs the controller must
    // (a) be back under the cap on average and (b) be *using* most of it.
    let tight = max * 0.5;
    let settled = run_phase(&mut system, &mut ctrl, tight, 400, 150);
    assert!(
        settled.power <= tight.value() * 1.05,
        "settled at {} vs cap {tight}",
        settled.power
    );
    assert!(
        settled.power >= tight.value() * 0.75,
        "under-using the new cap: {} vs {tight}",
        settled.power
    );
    let over_frac = settled.over as f64 / settled.n as f64;
    assert!(over_frac < 0.15, "overshoot fraction {over_frac}");
}

#[test]
fn recovers_from_budget_step_up() {
    let config = SystemConfig::builder().cores(24).seed(73).build().unwrap();
    let max = config.max_power();
    let mut system = System::new(config).unwrap();
    let mut ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), max * 0.45).unwrap();

    let before = run_phase(&mut system, &mut ctrl, max * 0.45, 600, 100);
    // Loosen the cap: throughput-seeking must raise power meaningfully.
    let after = run_phase(&mut system, &mut ctrl, max * 0.75, 400, 150);
    assert!(
        after.power > before.power * 1.15,
        "power should rise after the cap loosens: {} -> {}",
        before.power,
        after.power
    );
}

#[test]
fn coverage_keeps_growing_across_steps() {
    let config = SystemConfig::builder().cores(16).seed(75).build().unwrap();
    let max = config.max_power();
    let mut system = System::new(config).unwrap();
    let mut ctrl = OdRlController::new(OdRlConfig::default(), &system.spec(), max * 0.8).unwrap();

    run_phase(&mut system, &mut ctrl, max * 0.8, 300, 10);
    let c1 = ctrl.coverage();
    run_phase(&mut system, &mut ctrl, max * 0.5, 300, 10);
    let c2 = ctrl.coverage();
    // The step pushes agents into new affordability bins: coverage grows.
    assert!(c2 > c1, "coverage should grow after a step: {c1} -> {c2}");
}
