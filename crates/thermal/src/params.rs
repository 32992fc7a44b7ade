//! Compact RC thermal parameters per tile.

use crate::error::ThermalError;
use odrl_power::Celsius;
use serde::{Deserialize, Serialize};

/// Lumped RC parameters of one core tile and its package path.
///
/// * `r_vertical` — thermal resistance from the tile through the heat
///   spreader/sink to ambient, in °C/W;
/// * `c_tile` — tile heat capacity in J/°C;
/// * `g_lateral` — lateral thermal conductance between adjacent tiles, in
///   W/°C;
/// * `ambient` — ambient (heat-sink) temperature.
///
/// Defaults are HotSpot-like numbers for a ~2 mm² 22 nm core tile: ~6 °C/W
/// to ambient (a competent heat-sink path — necessary for a stable
/// leakage–temperature fixed point at full load), a thermal time constant
/// of ~12 ms at the tile granularity, and moderate lateral coupling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Vertical (tile → ambient) thermal resistance, °C/W.
    pub r_vertical: f64,
    /// Tile heat capacity, J/°C.
    pub c_tile: f64,
    /// Lateral tile-to-tile conductance, W/°C.
    pub g_lateral: f64,
    /// Ambient temperature.
    pub ambient: Celsius,
}

impl ThermalParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] if any resistance or
    /// capacitance is non-positive or non-finite, if the lateral conductance
    /// is negative, or if the ambient temperature is non-finite.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if !(self.r_vertical.is_finite() && self.r_vertical > 0.0) {
            return Err(ThermalError::InvalidParameter {
                name: "r_vertical",
                value: self.r_vertical,
            });
        }
        if !(self.c_tile.is_finite() && self.c_tile > 0.0) {
            return Err(ThermalError::InvalidParameter {
                name: "c_tile",
                value: self.c_tile,
            });
        }
        if !(self.g_lateral.is_finite() && self.g_lateral >= 0.0) {
            return Err(ThermalError::InvalidParameter {
                name: "g_lateral",
                value: self.g_lateral,
            });
        }
        if !self.ambient.value().is_finite() {
            return Err(ThermalError::InvalidParameter {
                name: "ambient",
                value: self.ambient.value(),
            });
        }
        Ok(())
    }

    /// Vertical conductance `1 / r_vertical` in W/°C.
    pub fn g_vertical(&self) -> f64 {
        1.0 / self.r_vertical
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        Self {
            r_vertical: 6.0,
            c_tile: 2.0e-3,
            g_lateral: 0.25,
            ambient: Celsius::new(45.0),
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit per-field setup reads better in tests
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ThermalParams::default().validate().unwrap();
    }

    #[test]
    fn default_time_constant_is_milliseconds() {
        let p = ThermalParams::default();
        let tau = p.r_vertical * p.c_tile;
        assert!((1e-3..1e-1).contains(&tau), "tau = {tau}");
    }

    #[test]
    fn rejects_nonpositive_r_and_c() {
        let mut p = ThermalParams::default();
        p.r_vertical = 0.0;
        assert!(p.validate().is_err());
        let mut p = ThermalParams::default();
        p.c_tile = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_negative_lateral_and_nan_ambient() {
        let mut p = ThermalParams::default();
        p.g_lateral = -0.1;
        assert!(p.validate().is_err());
        let mut p = ThermalParams::default();
        p.ambient = Celsius::new(f64::NAN);
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_lateral_coupling_is_allowed() {
        let mut p = ThermalParams::default();
        p.g_lateral = 0.0;
        assert!(p.validate().is_ok());
    }
}
