//! The rack-level budget arbiter: the paper's coarse-grain global
//! reallocator lifted one level up.
//!
//! Where `odrl_core::BudgetAllocator` re-divides one chip's budget across
//! cores from measured per-core power, [`BudgetArbiter`] re-divides a
//! total fleet budget across chips from measured per-chip power: chips
//! running hot against their share (high utilisation → high smoothed
//! demand) pull budget from chips with headroom, floored at a minimum
//! share so no chip is starved, gain-blended so shares move gradually,
//! and renormalized so the shares sum to the fleet budget **exactly**
//! every round. All state is allocated at construction; a reallocation
//! round touches no heap.

use crate::error::FleetError;
use odrl_power::Watts;

/// Proportional-overshoot budget arbitration across the chips of a fleet.
#[derive(Debug, Clone)]
pub struct BudgetArbiter {
    /// Total fleet budget, watts.
    total: f64,
    /// Epochs between reallocation rounds.
    period: u64,
    /// Blend factor toward the demand-proportional target (0 < gain ≤ 1).
    gain: f64,
    /// Per-chip floor as a fraction of the fair share `total / chips`.
    min_share: f64,
    /// EMA factor folding fresh measurements into smoothed demand.
    smoothing: f64,
    /// Current per-chip shares, watts. Invariant: sums to `total` (to
    /// round-off; the last chip absorbs the residual).
    shares: Vec<f64>,
    /// Smoothed per-chip power demand, watts.
    demand: Vec<f64>,
    /// Completed reallocation rounds.
    rounds: u64,
}

impl BudgetArbiter {
    /// Creates an arbiter over `chips` chips dividing `total` watts,
    /// starting from an equal split (and equal assumed demand).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a non-positive budget or
    /// chip count, `period` of zero, `gain` outside `(0, 1]`, `min_share`
    /// outside `[0, 1]`, or `smoothing` outside `(0, 1]`.
    pub fn new(
        total: Watts,
        chips: usize,
        period: u64,
        gain: f64,
        min_share: f64,
        smoothing: f64,
    ) -> Result<Self, FleetError> {
        if chips == 0 {
            return Err(FleetError::InvalidConfig {
                field: "chips",
                reason: "fleet must have at least one chip".into(),
            });
        }
        if !(total.value().is_finite() && total.value() > 0.0) {
            return Err(FleetError::InvalidConfig {
                field: "budget",
                reason: format!("fleet budget must be finite and positive, got {total}"),
            });
        }
        if period == 0 {
            return Err(FleetError::InvalidConfig {
                field: "arbiter_period",
                reason: "reallocation period must be at least 1 epoch".into(),
            });
        }
        if !(gain.is_finite() && gain > 0.0 && gain <= 1.0) {
            return Err(FleetError::InvalidConfig {
                field: "arbiter_gain",
                reason: format!("gain must be in (0, 1], got {gain}"),
            });
        }
        if !(min_share.is_finite() && (0.0..=1.0).contains(&min_share)) {
            return Err(FleetError::InvalidConfig {
                field: "min_share",
                reason: format!("minimum share must be in [0, 1], got {min_share}"),
            });
        }
        if !(smoothing.is_finite() && smoothing > 0.0 && smoothing <= 1.0) {
            return Err(FleetError::InvalidConfig {
                field: "demand_smoothing",
                reason: format!("demand smoothing must be in (0, 1], got {smoothing}"),
            });
        }
        let fair = total.value() / chips as f64;
        Ok(Self {
            total: total.value(),
            period,
            gain,
            min_share,
            smoothing,
            shares: vec![fair; chips],
            demand: vec![fair; chips],
            rounds: 0,
        })
    }

    /// Epochs between reallocation rounds.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Total fleet budget.
    pub fn total(&self) -> Watts {
        Watts::new(self.total)
    }

    /// Current per-chip shares, watts.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Completed reallocation rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one chip's measured power for the last epoch into its
    /// smoothed demand. Call once per chip per epoch, in chip order.
    pub fn observe(&mut self, chip: usize, measured: Watts) {
        let d = &mut self.demand[chip];
        *d += self.smoothing * (measured.value().max(0.0) - *d);
    }

    /// Runs one reallocation round in place: shares move toward the
    /// demand-proportional division of the total, floored at
    /// `min_share × total / chips`, and are renormalized to sum to the
    /// total exactly. Allocation-free.
    pub fn reallocate(&mut self) {
        let n = self.shares.len();
        let floor = self.min_share * self.total / n as f64;
        // Tiny positive demand floor: a fully idle fleet degrades to an
        // equal split instead of 0/0.
        let sum_d: f64 = self.demand.iter().map(|d| d.max(1e-12)).sum();
        // Demand-proportional targets, floored, gain-blended into the
        // current shares.
        let mut sum_s = 0.0;
        for (s, d) in self.shares.iter_mut().zip(&self.demand) {
            let target = (self.total * d.max(1e-12) / sum_d).max(floor);
            *s += self.gain * (target - *s);
            sum_s += *s;
        }
        // Renormalize (flooring can push the sum above the total), then
        // let the last chip absorb the round-off so the shares sum to the
        // total bit-exactly as a running sum.
        let scale = self.total / sum_s;
        let mut partial = 0.0;
        for s in &mut self.shares[..n - 1] {
            *s *= scale;
            partial += *s;
        }
        self.shares[n - 1] = self.total - partial;
        debug_assert!(self.shares[n - 1] >= 0.0, "last share went negative");
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arbiter(chips: usize) -> BudgetArbiter {
        BudgetArbiter::new(Watts::new(100.0), chips, 10, 0.5, 0.25, 0.25).unwrap()
    }

    fn assert_sums_to_total(a: &BudgetArbiter) {
        let mut partial = 0.0;
        for &s in &a.shares()[..a.shares().len() - 1] {
            partial += s;
        }
        // The last share is defined as total − partial, so the running sum
        // reproduces the total bit-exactly.
        assert_eq!(
            partial + a.shares()[a.shares().len() - 1],
            a.total().value()
        );
    }

    #[test]
    fn starts_from_an_equal_split() {
        let a = arbiter(4);
        assert_eq!(a.shares(), &[25.0; 4]);
        assert_eq!(a.period(), 10);
        assert_eq!(a.rounds(), 0);
    }

    #[test]
    fn demand_pulls_budget_toward_hot_chips() {
        let mut a = arbiter(4);
        // Chip 0 runs hot against its share; chips 1-3 idle low.
        for _ in 0..20 {
            a.observe(0, Watts::new(40.0));
            for c in 1..4 {
                a.observe(c, Watts::new(10.0));
            }
        }
        for _ in 0..10 {
            a.reallocate();
        }
        assert!(
            a.shares()[0] > 35.0,
            "hot chip should gain budget, got {:?}",
            a.shares()
        );
        assert!(a.shares()[1] < 25.0);
        assert_sums_to_total(&a);
        assert_eq!(a.rounds(), 10);
    }

    #[test]
    fn min_share_floors_idle_chips() {
        let mut a = arbiter(4);
        // Chip 3 demands nothing at all.
        for _ in 0..50 {
            for c in 0..3 {
                a.observe(c, Watts::new(50.0));
            }
            a.observe(3, Watts::new(0.0));
            a.reallocate();
        }
        // Floor = 0.25 × 100 / 4 = 6.25 W; renormalization may shave it
        // slightly, so allow a small margin.
        assert!(
            a.shares()[3] > 5.5,
            "idle chip fell through the floor: {:?}",
            a.shares()
        );
        assert_sums_to_total(&a);
    }

    #[test]
    fn shares_always_sum_to_the_total() {
        let mut a = arbiter(7);
        for round in 0..100 {
            for c in 0..7 {
                // Arbitrary deterministic demand pattern.
                let w = ((c as f64 + 1.0) * 3.7 + round as f64 * 0.13) % 29.0;
                a.observe(c, Watts::new(w));
            }
            a.reallocate();
            assert_sums_to_total(&a);
            assert!(a.shares().iter().all(|&s| s >= 0.0));
        }
    }

    #[test]
    fn single_chip_keeps_the_whole_budget() {
        let mut a = arbiter(1);
        a.observe(0, Watts::new(12.0));
        a.reallocate();
        assert_eq!(a.shares(), &[100.0]);
    }

    #[test]
    fn rejects_bad_parameters() {
        let bad = [
            BudgetArbiter::new(Watts::new(100.0), 0, 10, 0.5, 0.25, 0.25),
            BudgetArbiter::new(Watts::new(0.0), 4, 10, 0.5, 0.25, 0.25),
            BudgetArbiter::new(Watts::new(f64::NAN), 4, 10, 0.5, 0.25, 0.25),
            BudgetArbiter::new(Watts::new(100.0), 4, 0, 0.5, 0.25, 0.25),
            BudgetArbiter::new(Watts::new(100.0), 4, 10, 0.0, 0.25, 0.25),
            BudgetArbiter::new(Watts::new(100.0), 4, 10, 1.5, 0.25, 0.25),
            BudgetArbiter::new(Watts::new(100.0), 4, 10, 0.5, -0.1, 0.25),
            BudgetArbiter::new(Watts::new(100.0), 4, 10, 0.5, 1.1, 0.25),
            BudgetArbiter::new(Watts::new(100.0), 4, 10, 0.5, 0.25, 0.0),
            BudgetArbiter::new(Watts::new(100.0), 4, 10, 0.5, 0.25, 2.0),
        ];
        for (i, b) in bad.into_iter().enumerate() {
            assert!(
                matches!(b, Err(FleetError::InvalidConfig { .. })),
                "case {i} should be rejected"
            );
        }
    }
}
