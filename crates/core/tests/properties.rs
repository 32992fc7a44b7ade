//! Property-based tests for the OD-RL controller.

use odrl_controllers::PowerController;
use odrl_core::{BudgetAllocator, OdRlConfig, OdRlController, RewardShaper};
use odrl_manycore::{CoreObservation, Observation, System, SystemConfig};
use odrl_power::{Celsius, LevelId, Seconds, Watts};
use odrl_workload::PhaseParams;
use proptest::prelude::*;

fn synthetic_obs(powers: &[f64], mpkis: &[f64], ipss: &[f64], budget: f64) -> Observation {
    let cores = powers
        .iter()
        .zip(mpkis)
        .zip(ipss)
        .map(|((&p, &m), &ips)| CoreObservation {
            level: LevelId(3),
            ips,
            power: Watts::new(p),
            temperature: Celsius::new(70.0),
            counters: PhaseParams::new(1.0, m.clamp(0.0, 200.0), 0.8).unwrap(),
        })
        .collect();
    Observation {
        epoch: 0,
        dt: Seconds::new(1e-3),
        budget: Watts::new(budget),
        cores,
        total_power: Watts::new(powers.iter().sum()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Budget reallocation conserves the chip budget and keeps every share
    /// non-negative for arbitrary observations.
    #[test]
    fn reallocation_conserves_budget(
        data in prop::collection::vec((0.0f64..10.0, 0.0f64..40.0, 0.0f64..5e9), 2..32),
        budget in 0.1f64..500.0,
        gain in 0.05f64..1.0,
    ) {
        let n = data.len();
        let powers: Vec<f64> = data.iter().map(|d| d.0).collect();
        let mpkis: Vec<f64> = data.iter().map(|d| d.1).collect();
        let ipss: Vec<f64> = data.iter().map(|d| d.2).collect();
        let obs = synthetic_obs(&powers, &mpkis, &ipss, budget);
        let mut alloc = BudgetAllocator::new(n, gain, 0.25);
        alloc.observe(&obs);
        let total = Watts::new(budget);
        let current = BudgetAllocator::fair_split(total, n);
        let new = alloc.reallocate(&obs, &current, total);
        let sum: f64 = new.iter().map(|w| w.value()).sum();
        prop_assert!((sum - budget).abs() < 1e-6 * budget.max(1.0), "sum {sum} != {budget}");
        for w in &new {
            prop_assert!(w.value() >= -1e-12);
        }
    }

    /// Rewards are bounded: at most 1 + epsilon above, and the penalty term
    /// scales with lambda.
    #[test]
    fn rewards_are_bounded(
        lambda in 0.0f64..10.0,
        ips in 0.0f64..5e9,
        power in 0.0f64..10.0,
        budget in 0.1f64..10.0,
    ) {
        let mut shaper = RewardShaper::new(1, 1, lambda);
        let r = shaper.reward(0, 0, ips, Watts::new(power), Watts::new(budget));
        prop_assert!(r <= 1.0 + 1e-12);
        let over = ((power - budget) / budget).max(0.0);
        prop_assert!(r >= -lambda * over - 1e-12);
        prop_assert!(r.is_finite());
    }

    /// The controller emits valid actions for any budget trajectory,
    /// including zero budgets and abrupt steps.
    #[test]
    fn controller_survives_budget_trajectories(
        cores in 1usize..10,
        seed in 0u64..20,
        budgets in prop::collection::vec(0.0f64..300.0, 1..30),
    ) {
        let config = SystemConfig::builder().cores(cores).seed(seed).build().unwrap();
        let mut sys = System::new(config).unwrap();
        let mut ctrl = OdRlController::new(
            OdRlConfig { seed, ..OdRlConfig::default() },
            &sys.spec(),
            Watts::new(budgets[0]),
        )
        .unwrap();
        for &b in &budgets {
            let obs = sys.observation(Watts::new(b));
            let actions = ctrl.decide(&obs);
            prop_assert_eq!(actions.len(), cores);
            for a in &actions {
                prop_assert!(a.index() < 8);
            }
            sys.step(&actions).unwrap();
            // Internal budgets track the chip budget.
            let sum: f64 = ctrl.budgets().iter().map(|w| w.value()).sum();
            prop_assert!((sum - b).abs() < 1e-6 * b.max(1.0) + 1e-9, "sum {sum} vs {b}");
        }
    }

    /// Determinism: identical configs and observation streams yield
    /// identical decisions.
    #[test]
    fn controller_is_deterministic(
        cores in 1usize..8,
        seed in 0u64..20,
        epochs in 1u64..40,
    ) {
        let mk = || {
            let config = SystemConfig::builder().cores(cores).seed(seed).build().unwrap();
            let sys = System::new(config).unwrap();
            let budget = Watts::new(2.0 * cores as f64);
            let ctrl = OdRlController::new(
                OdRlConfig { seed, ..OdRlConfig::default() },
                &sys.spec(),
                budget,
            )
            .unwrap();
            (sys, ctrl, budget)
        };
        let (mut sys_a, mut ctrl_a, budget) = mk();
        let (mut sys_b, mut ctrl_b, _) = mk();
        for _ in 0..epochs {
            let oa = sys_a.observation(budget);
            let ob = sys_b.observation(budget);
            let aa = ctrl_a.decide(&oa);
            let ab = ctrl_b.decide(&ob);
            prop_assert_eq!(&aa, &ab);
            sys_a.step(&aa).unwrap();
            sys_b.step(&ab).unwrap();
        }
    }

    /// Any *valid* configuration drives a short closed loop without
    /// panicking, whatever the bin counts, schedules, algorithm or
    /// extension knobs.
    #[test]
    fn any_valid_config_runs(
        power_bins in 1usize..24,
        mem_bins in 1usize..10,
        include_level in prop::bool::ANY,
        gamma in 0.0f64..0.95,
        penalty in 0.0f64..8.0,
        realloc_period in 1u64..40,
        realloc_gain in 0.05f64..1.0,
        algorithm_idx in 0usize..2,
        thermal in prop::option::of(50.0f64..110.0),
    ) {
        use odrl_rl::{Algorithm, Schedule};
        let algorithm = [Algorithm::QLearning, Algorithm::DoubleQLearning][algorithm_idx];
        let config = OdRlConfig {
            power_bins,
            mem_bins,
            include_level,
            algorithm,
            gamma,
            overshoot_penalty: penalty,
            realloc_period,
            realloc_gain,
            thermal_limit: thermal,
            alpha: Schedule::inverse_time(0.9, 0.05).unwrap(),
            epsilon: Schedule::exponential(0.5, 5e-3, 0.05).unwrap(),
            ..OdRlConfig::default()
        };
        prop_assert!(config.validate().is_ok());
        let sys_config = SystemConfig::builder().cores(6).seed(3).build().unwrap();
        let budget = Watts::new(0.5 * sys_config.max_power().value());
        let mut system = System::new(sys_config).unwrap();
        let mut ctrl = OdRlController::new(config, &system.spec(), budget).unwrap();
        for _ in 0..25 {
            let obs = system.observation(budget);
            let actions = ctrl.decide(&obs);
            prop_assert_eq!(actions.len(), 6);
            system.step(&actions).unwrap();
        }
        prop_assert!(system.telemetry().total_instructions() > 0.0);
    }

    /// Valid configurations validate; corrupted ones fail.
    #[test]
    fn config_validation_is_total(
        power_bins in 0usize..16,
        mem_bins in 0usize..8,
        gamma in -0.5f64..1.5,
        penalty in -2.0f64..10.0,
    ) {
        let c = OdRlConfig {
            power_bins,
            mem_bins,
            gamma,
            overshoot_penalty: penalty,
            ..OdRlConfig::default()
        };
        let expect_ok = power_bins > 0
            && mem_bins > 0
            && (0.0..1.0).contains(&gamma)
            && penalty >= 0.0;
        prop_assert_eq!(c.validate().is_ok(), expect_ok);
    }
}
