//! Thermal model.
//!
//! Fig. 4 of the paper shows that the linear latency/energy slope of a device
//! is not constant: sustained load heats the SoC and the slope degrades (the
//! Honor 10 "up" sweep shows increased variance and a different slope than the
//! cooled-down "down" sweep). This module models that effect with a simple
//! first-order heating/cooling process.

use serde::{Deserialize, Serialize};

/// First-order thermal state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ThermalModel {
    /// Ambient (resting) temperature in °C.
    pub ambient_celsius: f32,
    /// Temperature rise per second of sustained computation, in °C/s.
    pub heating_per_second: f32,
    /// Fraction of the excess temperature shed per second of idling.
    pub cooling_rate: f32,
    /// Maximum temperature the throttling controller allows, in °C.
    pub max_celsius: f32,
    current_celsius: f32,
}

impl ThermalModel {
    /// Creates a thermal model starting at ambient temperature.
    pub(crate) fn new(ambient_celsius: f32, heating_per_second: f32, cooling_rate: f32) -> Self {
        Self {
            ambient_celsius,
            heating_per_second,
            cooling_rate,
            max_celsius: 55.0,
            current_celsius: ambient_celsius,
        }
    }

    /// A typical smartphone thermal envelope.
    pub(crate) fn typical() -> Self {
        Self::new(30.0, 0.25, 0.02)
    }

    /// Current temperature in °C.
    pub(crate) fn temperature(&self) -> f32 {
        self.current_celsius
    }

    /// Degrees above ambient.
    pub(crate) fn excess(&self) -> f32 {
        (self.current_celsius - self.ambient_celsius).max(0.0)
    }

    /// Records `busy_seconds` of sustained computation, heating the device
    /// (clamped at `max_celsius`).
    pub(crate) fn heat(&mut self, busy_seconds: f32) {
        self.current_celsius =
            (self.current_celsius + self.heating_per_second * busy_seconds).min(self.max_celsius);
    }

    /// Records `idle_seconds` of idling, cooling exponentially towards
    /// ambient.
    pub(crate) fn cool(&mut self, idle_seconds: f32) {
        let excess = self.current_celsius - self.ambient_celsius;
        let decay = (-self.cooling_rate * idle_seconds).exp();
        self.current_celsius = self.ambient_celsius + excess * decay;
    }

    /// Resets to ambient temperature.
    pub(crate) fn reset(&mut self) {
        self.current_celsius = self.ambient_celsius;
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::typical();
        assert_eq!(t.temperature(), 30.0);
        assert_eq!(t.excess(), 0.0);
    }

    #[test]
    fn heating_raises_temperature() {
        let mut t = ThermalModel::typical();
        t.heat(10.0);
        assert!(t.temperature() > 30.0);
        assert!(t.excess() > 0.0);
    }

    #[test]
    fn heating_is_capped() {
        let mut t = ThermalModel::typical();
        t.heat(1e6);
        assert_eq!(t.temperature(), t.max_celsius);
    }

    #[test]
    fn cooling_approaches_ambient() {
        let mut t = ThermalModel::typical();
        t.heat(60.0);
        let hot = t.temperature();
        t.cool(30.0);
        assert!(t.temperature() < hot);
        t.cool(1e6);
        assert!((t.temperature() - 30.0).abs() < 0.01);
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut t = ThermalModel::typical();
        t.heat(100.0);
        t.reset();
        assert_eq!(t.temperature(), 30.0);
    }

    proptest! {
        #[test]
        fn prop_temperature_stays_in_envelope(ops in proptest::collection::vec((0.0f32..100.0, 0.0f32..100.0), 0..50)) {
            let mut t = ThermalModel::typical();
            for (busy, idle) in ops {
                t.heat(busy);
                t.cool(idle);
                prop_assert!(t.temperature() >= t.ambient_celsius - 1e-3);
                prop_assert!(t.temperature() <= t.max_celsius + 1e-3);
            }
        }
    }
}
