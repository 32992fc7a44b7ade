//! The RC thermal grid: transient stepping and steady-state solving.

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::params::ThermalParams;
use odrl_power::{Celsius, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// A lumped RC thermal network over a mesh [`Floorplan`].
///
/// Each tile is one thermal node with capacitance `C`, a vertical
/// conductance `Gv = 1/Rv` to ambient, and lateral conductances `Gl` to its
/// 4-connected neighbors:
///
/// `C · dT_i/dt = P_i − Gv·(T_i − T_amb) − Σ_j Gl·(T_i − T_j)`
///
/// Transient stepping uses forward Euler with automatic sub-stepping to stay
/// inside the stability bound `Δt < C / (Gv + deg·Gl)`.
///
/// ```
/// use odrl_thermal::{Floorplan, ThermalGrid, ThermalParams};
/// use odrl_power::{Watts, Seconds};
///
/// let fp = Floorplan::new(4, 4).unwrap();
/// let mut grid = ThermalGrid::new(fp, ThermalParams::default()).unwrap();
/// let powers = vec![Watts::new(2.0); 16];
/// for _ in 0..200 {
///     grid.step(&powers, Seconds::new(1e-3)).unwrap();
/// }
/// // After many time constants the grid approaches steady state.
/// let ss = grid.steady_state(&powers).unwrap();
/// let diff = (grid.temperature(5).value() - ss[5].value()).abs();
/// assert!(diff < 0.5);
/// ```
#[derive(Debug, Clone, Deserialize)]
#[serde(try_from = "GridRepr")]
pub struct ThermalGrid {
    floorplan: Floorplan,
    params: ThermalParams,
    temps: Vec<Celsius>,
    /// Derived constants and the flattened stencil, rebuilt from
    /// `floorplan`/`params` on construction and deserialization (not part
    /// of the serialized or compared state).
    stencil: Stencil,
}

/// The serialized shape of [`ThermalGrid`] — exactly the pre-stencil field
/// set, so archives round-trip unchanged and the caches rebuild on load.
#[derive(Serialize, Deserialize)]
struct GridRepr {
    floorplan: Floorplan,
    params: ThermalParams,
    temps: Vec<Celsius>,
}

impl Serialize for ThermalGrid {
    fn to_value(&self) -> serde::Value {
        GridRepr {
            floorplan: self.floorplan,
            params: self.params,
            temps: self.temps.clone(),
        }
        .to_value()
    }
}

// Infallible by design: the derive layer only routes deserialization
// through `try_from`, and rebuilding the stencil cannot fail.
#[allow(clippy::infallible_try_from)]
impl TryFrom<GridRepr> for ThermalGrid {
    type Error = std::convert::Infallible;

    fn try_from(r: GridRepr) -> Result<Self, Self::Error> {
        let stencil = Stencil::build(r.floorplan, &r.params);
        Ok(Self {
            floorplan: r.floorplan,
            params: r.params,
            temps: r.temps,
            stencil,
        })
    }
}

impl PartialEq for ThermalGrid {
    fn eq(&self, other: &Self) -> bool {
        // The stencil is a pure function of floorplan + params.
        self.floorplan == other.floorplan
            && self.params == other.params
            && self.temps == other.temps
    }
}

/// Everything [`ThermalGrid::step`] can hoist out of the per-tile loop:
/// conductances, the stability bound, the interior/boundary split of the
/// mesh, and the sub-step schedule of the last-seen `dt`.
///
/// Interior tiles (all four neighbors present) are traversed row by row
/// with fixed index offsets `i−1, i+1, i−cols, i+cols` — the same
/// left/right/up/down order [`Floorplan::neighbors`] yields, so the flow
/// sum is bit-identical to the naive stepper. Boundary tiles keep explicit
/// per-tile neighbor lists in flat arrays.
#[derive(Debug, Clone)]
struct Stencil {
    /// Vertical conductance `1/R_v`.
    gv: f64,
    /// Lateral conductance.
    gl: f64,
    /// Tile heat capacity.
    c: f64,
    /// Ambient temperature, °C.
    amb: f64,
    /// Largest stable forward-Euler sub-step (half the theoretical bound).
    h_max: f64,
    cols: usize,
    rows: usize,
    /// Boundary tile indices, ascending.
    boundary: Vec<u32>,
    /// Prefix offsets into `nbrs`: boundary tile `k` owns
    /// `nbrs[nbr_start[k]..nbr_start[k + 1]]`.
    nbr_start: Vec<u32>,
    /// Flat neighbor indices of the boundary tiles, in
    /// [`Floorplan::neighbors`] order per tile.
    nbrs: Vec<u32>,
    /// `f64` mirror of the temperature field (ping-pong partner of the
    /// caller's integration buffer); sized on first use.
    field: Vec<f64>,
    /// The `dt` the cached sub-step schedule was computed for.
    sched_dt: f64,
    /// Sub-steps for `sched_dt`.
    substeps: usize,
    /// Sub-step length for `sched_dt`.
    h: f64,
}

impl Stencil {
    fn build(floorplan: Floorplan, params: &ThermalParams) -> Self {
        let cols = floorplan.cols();
        let rows = floorplan.rows();
        let gv = params.g_vertical();
        let gl = params.g_lateral;
        let g_max = gv + 4.0 * gl;
        // Half the theoretical bound for a comfortable stability margin.
        let h_max = 0.5 * params.c_tile / g_max;
        let mut boundary = Vec::new();
        let mut nbr_start = vec![0u32];
        let mut nbrs = Vec::new();
        for i in 0..floorplan.tiles() {
            let (x, y) = floorplan.position(i);
            if x > 0 && x + 1 < cols && y > 0 && y + 1 < rows {
                continue; // interior: handled by the offset loop
            }
            boundary.push(i as u32);
            nbrs.extend(floorplan.neighbors(i).map(|j| j as u32));
            nbr_start.push(nbrs.len() as u32);
        }
        Self {
            gv,
            gl,
            c: params.c_tile,
            amb: params.ambient.value(),
            h_max,
            cols,
            rows,
            boundary,
            nbr_start,
            nbrs,
            field: Vec::new(),
            sched_dt: f64::NAN,
            substeps: 0,
            h: 0.0,
        }
    }

    /// The sub-step schedule for `dt`, memoized on the last-seen value (the
    /// epoch length is fixed in steady state, so this computes once).
    fn schedule(&mut self, dt: f64) -> (usize, f64) {
        if dt != self.sched_dt {
            self.substeps = (dt / self.h_max).ceil().max(1.0) as usize;
            self.h = dt / self.substeps as f64;
            self.sched_dt = dt;
        }
        (self.substeps, self.h)
    }

    /// One forward-Euler sub-step `src → dst` over flat `f64` fields. The
    /// per-tile arithmetic is exactly the naive stepper's: vertical flow
    /// first, then each present neighbor in left/right/up/down order.
    fn substep(&self, powers: &[Watts], src: &[f64], dst: &mut [f64], h: f64) {
        let (gv, gl, c, amb) = (self.gv, self.gl, self.c, self.amb);
        let cols = self.cols;
        // Interior rows: branch-free, fixed offsets, one cache-friendly
        // sweep per row.
        for y in 1..self.rows.saturating_sub(1) {
            let row = y * cols;
            for x in 1..cols.saturating_sub(1) {
                let i = row + x;
                let t_i = src[i];
                let mut flow = powers[i].value() - gv * (t_i - amb);
                flow -= gl * (t_i - src[i - 1]);
                flow -= gl * (t_i - src[i + 1]);
                flow -= gl * (t_i - src[i - cols]);
                flow -= gl * (t_i - src[i + cols]);
                dst[i] = t_i + h * flow / c;
            }
        }
        // Boundary tiles: explicit neighbor lists.
        for (k, &bi) in self.boundary.iter().enumerate() {
            let i = bi as usize;
            let t_i = src[i];
            let mut flow = powers[i].value() - gv * (t_i - amb);
            let (lo, hi) = (self.nbr_start[k] as usize, self.nbr_start[k + 1] as usize);
            for &j in &self.nbrs[lo..hi] {
                flow -= gl * (t_i - src[j as usize]);
            }
            dst[i] = t_i + h * flow / c;
        }
    }
}

impl ThermalGrid {
    /// Creates a grid with every tile at ambient temperature.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` fail validation.
    pub fn new(floorplan: Floorplan, params: ThermalParams) -> Result<Self, ThermalError> {
        params.validate()?;
        let temps = vec![params.ambient; floorplan.tiles()];
        let stencil = Stencil::build(floorplan, &params);
        Ok(Self {
            floorplan,
            params,
            temps,
            stencil,
        })
    }

    /// The floorplan this grid models.
    pub fn floorplan(&self) -> Floorplan {
        self.floorplan
    }

    /// The thermal parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Current temperature of tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn temperature(&self, i: usize) -> Celsius {
        self.temps[i]
    }

    /// All tile temperatures.
    pub fn temperatures(&self) -> &[Celsius] {
        &self.temps
    }

    /// Hottest tile temperature.
    pub fn max_temperature(&self) -> Celsius {
        self.temps
            .iter()
            .copied()
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Resets every tile to ambient.
    pub fn reset(&mut self) {
        self.temps.fill(self.params.ambient);
    }

    /// Overwrites the temperature state (e.g. to start from a steady state).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] if the slice length does
    /// not match the tile count.
    pub fn set_temperatures(&mut self, temps: &[Celsius]) -> Result<(), ThermalError> {
        self.check_len(temps.len())?;
        self.temps.copy_from_slice(temps);
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), ThermalError> {
        if len != self.temps.len() {
            return Err(ThermalError::PowerLengthMismatch {
                supplied: len,
                expected: self.temps.len(),
            });
        }
        Ok(())
    }

    /// Advances the grid by `dt` under the given per-tile powers.
    ///
    /// Sub-steps internally as needed for numerical stability, so any `dt`
    /// is safe (larger steps just cost more sub-iterations).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] if `powers` does not
    /// have one entry per tile.
    pub fn step(&mut self, powers: &[Watts], dt: Seconds) -> Result<(), ThermalError> {
        let mut next = Vec::new();
        self.step_with_scratch(powers, dt, &mut next)
    }

    /// Allocation-free [`ThermalGrid::step`]: the caller provides the
    /// integration buffer, which is resized on first use and reused
    /// verbatim afterwards. Results are identical to `step` for any
    /// incoming buffer contents.
    ///
    /// # Errors
    ///
    /// As [`ThermalGrid::step`].
    pub fn step_with_scratch(
        &mut self,
        powers: &[Watts],
        dt: Seconds,
        next: &mut Vec<f64>,
    ) -> Result<(), ThermalError> {
        self.check_len(powers.len())?;
        let dt = dt.value();
        if dt <= 0.0 {
            return Ok(());
        }
        let (substeps, h) = self.stencil.schedule(dt);
        let n = self.temps.len();
        next.clear();
        next.resize(n, 0.0);
        // Mirror the field into flat f64 buffers, ping-pong the sub-steps
        // between them, and write back once at the end — the sub-step loop
        // itself never touches the `Celsius` wrappers. The mirror is taken
        // out of the stencil for the duration so the stencil tables can be
        // borrowed immutably alongside it.
        let mut field = std::mem::take(&mut self.stencil.field);
        field.clear();
        field.extend(self.temps.iter().map(|t| t.value()));
        {
            let stencil = &self.stencil;
            let mut src: &mut Vec<f64> = &mut field;
            let mut dst: &mut Vec<f64> = next;
            for _ in 0..substeps {
                stencil.substep(powers, src, dst, h);
                std::mem::swap(&mut src, &mut dst);
            }
            for (t, &v) in self.temps.iter_mut().zip(src.iter()) {
                *t = Celsius::new(v);
            }
        }
        self.stencil.field = field;
        Ok(())
    }

    /// Solves for the steady-state temperature field under constant powers.
    ///
    /// Uses Gauss–Seidel iteration on the conductance system; converges
    /// quickly because the matrix is strictly diagonally dominant
    /// (`Gv > 0`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] if `powers` does not
    /// have one entry per tile.
    pub fn steady_state(&self, powers: &[Watts]) -> Result<Vec<Celsius>, ThermalError> {
        self.check_len(powers.len())?;
        let gv = self.params.g_vertical();
        let gl = self.params.g_lateral;
        let amb = self.params.ambient.value();
        let n = self.temps.len();
        let mut t: Vec<f64> = self.temps.iter().map(|c| c.value()).collect();
        for _ in 0..10_000 {
            let mut max_delta = 0.0f64;
            for i in 0..n {
                let mut num = powers[i].value() + gv * amb;
                let mut den = gv;
                for j in self.floorplan.neighbors(i) {
                    num += gl * t[j];
                    den += gl;
                }
                let new = num / den;
                max_delta = max_delta.max((new - t[i]).abs());
                t[i] = new;
            }
            if max_delta < 1e-9 {
                break;
            }
        }
        Ok(t.into_iter().map(Celsius::new).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(cols: usize, rows: usize) -> ThermalGrid {
        ThermalGrid::new(
            Floorplan::new(cols, rows).unwrap(),
            ThermalParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn starts_at_ambient() {
        let g = grid(4, 4);
        for &t in g.temperatures() {
            assert_eq!(t, ThermalParams::default().ambient);
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut g = grid(3, 3);
        let p = vec![Watts::ZERO; 9];
        for _ in 0..100 {
            g.step(&p, Seconds::new(1e-3)).unwrap();
        }
        for &t in g.temperatures() {
            assert!((t.value() - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_power_steady_state_matches_analytic() {
        // With uniform power, lateral flows cancel: T = amb + P*Rv.
        let g = grid(4, 4);
        let p = vec![Watts::new(2.0); 16];
        let ss = g.steady_state(&p).unwrap();
        let expect = 45.0 + 2.0 * 6.0;
        for t in ss {
            assert!((t.value() - expect).abs() < 1e-6, "{t} != {expect}");
        }
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let mut g = grid(4, 4);
        let mut p = vec![Watts::new(1.0); 16];
        p[5] = Watts::new(5.0); // hot spot
        let ss = g.steady_state(&p).unwrap();
        for _ in 0..500 {
            g.step(&p, Seconds::new(1e-3)).unwrap();
        }
        for (a, b) in g.temperatures().iter().zip(&ss) {
            assert!((a.value() - b.value()).abs() < 0.1);
        }
    }

    #[test]
    fn hot_spot_heats_neighbors() {
        let g = grid(5, 5);
        let mut p = vec![Watts::ZERO; 25];
        p[12] = Watts::new(5.0); // center
        let ss = g.steady_state(&p).unwrap();
        let center = ss[12].value();
        let neighbor = ss[11].value();
        let corner = ss[0].value();
        assert!(center > neighbor, "center {center} neighbor {neighbor}");
        assert!(neighbor > corner, "neighbor {neighbor} corner {corner}");
        assert!(corner >= 45.0 - 1e-9);
    }

    #[test]
    fn step_rejects_wrong_power_length() {
        let mut g = grid(2, 2);
        let err = g.step(&[Watts::ZERO; 3], Seconds::new(1e-3)).unwrap_err();
        assert_eq!(
            err,
            ThermalError::PowerLengthMismatch {
                supplied: 3,
                expected: 4
            }
        );
        assert!(g.steady_state(&[Watts::ZERO; 5]).is_err());
    }

    #[test]
    fn zero_or_negative_dt_is_a_noop() {
        let mut g = grid(2, 2);
        let before = g.temperatures().to_vec();
        g.step(&[Watts::new(5.0); 4], Seconds::new(0.0)).unwrap();
        g.step(&[Watts::new(5.0); 4], Seconds::new(-1.0)).unwrap();
        assert_eq!(g.temperatures(), &before[..]);
    }

    #[test]
    fn large_dt_is_stable() {
        // A dt far beyond the Euler stability bound must not blow up.
        let mut g = grid(4, 4);
        let p = vec![Watts::new(3.0); 16];
        g.step(&p, Seconds::new(1.0)).unwrap();
        for &t in g.temperatures() {
            assert!(t.value().is_finite());
            assert!((45.0..200.0).contains(&t.value()));
        }
    }

    #[test]
    fn set_temperatures_roundtrip_and_reset() {
        let mut g = grid(2, 2);
        let warm = vec![Celsius::new(80.0); 4];
        g.set_temperatures(&warm).unwrap();
        assert_eq!(g.temperature(3).value(), 80.0);
        assert_eq!(g.max_temperature().value(), 80.0);
        g.reset();
        assert_eq!(g.temperature(0).value(), 45.0);
        assert!(g.set_temperatures(&[Celsius::ZERO; 3]).is_err());
    }

    #[test]
    fn scratch_step_matches_plain_step() {
        let mut plain = grid(4, 4);
        let mut scratched = grid(4, 4);
        let mut buf = Vec::new();
        let p = vec![Watts::new(2.0); 16];
        for _ in 0..50 {
            plain.step(&p, Seconds::new(1e-3)).unwrap();
            scratched
                .step_with_scratch(&p, Seconds::new(1e-3), &mut buf)
                .unwrap();
            assert_eq!(plain.temperatures(), scratched.temperatures());
        }
        // The buffer is reused, not regrown.
        assert_eq!(buf.len(), 16);
    }

    /// The pre-stencil stepper, kept verbatim as the reference: per-tile
    /// neighbor iteration through [`Floorplan::neighbors`], recomputing the
    /// schedule every call. The blocked stencil must match it bit for bit.
    struct NaiveGrid {
        floorplan: Floorplan,
        params: ThermalParams,
        temps: Vec<f64>,
    }

    impl NaiveGrid {
        fn of(g: &ThermalGrid) -> Self {
            Self {
                floorplan: g.floorplan(),
                params: *g.params(),
                temps: g.temperatures().iter().map(|t| t.value()).collect(),
            }
        }

        fn step(&mut self, powers: &[Watts], dt: f64) {
            let h_max =
                0.5 * self.params.c_tile / (self.params.g_vertical() + 4.0 * self.params.g_lateral);
            let substeps = (dt / h_max).ceil().max(1.0) as usize;
            let h = dt / substeps as f64;
            let gv = self.params.g_vertical();
            let gl = self.params.g_lateral;
            let c = self.params.c_tile;
            let amb = self.params.ambient.value();
            let n = self.temps.len();
            let mut next = vec![0.0; n];
            for _ in 0..substeps {
                for i in 0..n {
                    let t_i = self.temps[i];
                    let mut flow = powers[i].value() - gv * (t_i - amb);
                    for j in self.floorplan.neighbors(i) {
                        flow -= gl * (t_i - self.temps[j]);
                    }
                    next[i] = t_i + h * flow / c;
                }
                self.temps.copy_from_slice(&next);
            }
        }
    }

    /// Deterministic LCG so the property sweep needs no RNG dependency.
    struct Lcg(u64);

    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn stencil_matches_naive_reference_bit_for_bit() {
        let mut lcg = Lcg(0x5eed_1234);
        // Shapes chosen to hit degenerate meshes (rows/cols < 3, i.e. no
        // interior tiles), tall/wide strips and squarish grids.
        let shapes = [
            (1, 1),
            (1, 7),
            (6, 1),
            (2, 2),
            (2, 5),
            (3, 3),
            (4, 3),
            (5, 8),
            (8, 8),
            (13, 4),
        ];
        for &(cols, rows) in &shapes {
            let fp = Floorplan::new(cols, rows).unwrap();
            let n = fp.tiles();
            let mut fast = ThermalGrid::new(fp, ThermalParams::default()).unwrap();
            // Random initial field and random powers per shape.
            let init: Vec<Celsius> = (0..n)
                .map(|_| Celsius::new(40.0 + 50.0 * lcg.next_f64()))
                .collect();
            fast.set_temperatures(&init).unwrap();
            let mut naive = NaiveGrid::of(&fast);
            let mut buf = Vec::new();
            for step in 0..25 {
                let powers: Vec<Watts> = (0..n).map(|_| Watts::new(6.0 * lcg.next_f64())).collect();
                // Mix dts so both the 1-substep and multi-substep schedules
                // are exercised (and the memoized schedule is invalidated).
                let dt = if step % 3 == 0 { 1e-4 } else { 2.7e-3 };
                fast.step_with_scratch(&powers, Seconds::new(dt), &mut buf)
                    .unwrap();
                naive.step(&powers, dt);
                for i in 0..n {
                    assert_eq!(
                        fast.temperature(i).value().to_bits(),
                        naive.temps[i].to_bits(),
                        "tile {i} of {cols}x{rows} diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_stencil() {
        let mut g = grid(4, 3);
        let p = vec![Watts::new(2.5); 12];
        g.step(&p, Seconds::new(1e-3)).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        // The serialized shape carries only the logical state.
        assert!(json.contains("floorplan") && json.contains("temps"));
        assert!(!json.contains("stencil"));
        let mut back: ThermalGrid = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        // The rebuilt stencil steps identically to the original.
        back.step(&p, Seconds::new(1e-3)).unwrap();
        g.step(&p, Seconds::new(1e-3)).unwrap();
        for i in 0..12 {
            assert_eq!(
                back.temperature(i).value().to_bits(),
                g.temperature(i).value().to_bits()
            );
        }
    }

    #[test]
    fn monotone_heating_under_constant_power() {
        let mut g = grid(3, 3);
        let p = vec![Watts::new(2.0); 9];
        let mut last = 45.0;
        for _ in 0..20 {
            g.step(&p, Seconds::new(1e-3)).unwrap();
            let t = g.temperature(4).value();
            assert!(t >= last - 1e-12);
            last = t;
        }
    }
}
