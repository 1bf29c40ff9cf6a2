//! The shared core-knob cluster and its validation.
//!
//! Before this module, the `learning_rate` / `aggregation_k` / `shards`
//! (+ `max_pending`) cluster was duplicated across
//! `ParameterServerConfig`, `FleetServerConfig` and `SimulationConfig`, and
//! the load harness would have been a fourth copy. [`CoreConfig`] is now
//! the single owner: the parameter server consumes it directly
//! ([`crate::ParameterServer::from_config`]), and the FLeet server /
//! simulation configs embed it as their `core` field, flattening its knobs
//! through their builders.
//!
//! [`CoreConfig::validate`] (which the embedding configs' builders call)
//! returns a typed [`ConfigError`] for nonsensical combinations instead of
//! panicking deep inside the engine.

use std::error::Error;
use std::fmt;

/// The knobs every layer of the stack shares: how gradients are scaled,
/// aggregated, partitioned and scheduled.
///
/// Embedded as the `core` field of `FleetServerConfig` and
/// `SimulationConfig`; consumed directly by
/// [`crate::ParameterServer::from_config`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Learning rate γ applied to weighted gradients.
    pub learning_rate: f32,
    /// Aggregation parameter K (gradients per update trigger).
    pub aggregation_k: usize,
    /// Number of range-partitioned shards.
    pub shards: usize,
    /// Backpressure bound on a shard's pending buffer: when any shard holds
    /// this many unapplied gradient segments, [`crate::ParameterServer::saturated_shard`]
    /// reports overload so admission layers can shed new tasks instead of
    /// growing the buffer without bound. `0` disables the bound. Without
    /// flushes it is only meaningful below `aggregation_k` (the buffer never
    /// exceeds `K − 1` then); a flush-starved shard can otherwise queue
    /// arbitrarily deep.
    pub max_pending: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            learning_rate: 5e-2,
            aggregation_k: 1,
            shards: 1,
            max_pending: 0,
        }
    }
}

impl CoreConfig {
    /// Checks the invariants the engines assert at construction time —
    /// positive finite learning rate, nonzero K and shard count — so
    /// callers get a typed error instead of a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(ConfigError::LearningRateNotPositive {
                value: self.learning_rate,
            });
        }
        if self.aggregation_k == 0 {
            return Err(ConfigError::ZeroAggregationK);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(())
    }
}

/// Why a configuration failed validation. One shared error type covers the
/// core cluster and the configs embedding it (`FleetServerConfig`,
/// `SimulationConfig`), so callers match on a single vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The learning rate is zero, negative, or not finite.
    LearningRateNotPositive {
        /// The offending value.
        value: f32,
    },
    /// The aggregation parameter K is zero.
    ZeroAggregationK,
    /// The shard count is zero.
    ZeroShards,
    /// A simulation with zero steps.
    ZeroSteps,
    /// A zero mini-batch size.
    ZeroBatchSize,
    /// A zero evaluation cadence (the simulation evaluates on a
    /// `steps % eval_every` schedule, so 0 cannot mean "never").
    ZeroEvalEvery,
    /// A model with zero classes.
    ZeroNumClasses,
    /// The similarity percentile is outside `(0, 100]`.
    SPercentileOutOfRange {
        /// The offending value.
        value: f32,
    },
    /// The lease budget rate is negative or not finite (zero is allowed:
    /// the lease then falls back to its floor in rounds).
    LeaseRateInvalid {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LearningRateNotPositive { value } => {
                write!(f, "learning rate must be positive and finite, got {value}")
            }
            ConfigError::ZeroAggregationK => {
                write!(f, "aggregation parameter K must be at least 1")
            }
            ConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ConfigError::ZeroSteps => write!(f, "a simulation needs at least 1 step"),
            ConfigError::ZeroBatchSize => write!(f, "mini-batch size must be at least 1"),
            ConfigError::ZeroEvalEvery => write!(f, "eval_every must be at least 1"),
            ConfigError::ZeroNumClasses => write!(f, "num_classes must be at least 1"),
            ConfigError::SPercentileOutOfRange { value } => {
                write!(f, "s_percentile must be in (0, 100], got {value}")
            }
            ConfigError::LeaseRateInvalid { value } => write!(
                f,
                "lease_rounds_per_second must be non-negative and finite, got {value}"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(edit: impl FnOnce(&mut CoreConfig)) -> CoreConfig {
        let mut config = CoreConfig::default();
        edit(&mut config);
        config
    }

    #[test]
    fn validate_rejects_invalid_combinations_with_typed_errors() {
        assert_eq!(CoreConfig::default().validate(), Ok(()));
        assert_eq!(
            with(|c| c.shards = 0).validate(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            with(|c| c.aggregation_k = 0).validate(),
            Err(ConfigError::ZeroAggregationK)
        );
        assert_eq!(
            with(|c| c.learning_rate = 0.0).validate(),
            Err(ConfigError::LearningRateNotPositive { value: 0.0 })
        );
        assert!(with(|c| c.learning_rate = f32::NAN).validate().is_err());
        assert!(with(|c| c.learning_rate = f32::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn errors_display_something_actionable() {
        let err = with(|c| c.shards = 0).validate().unwrap_err();
        assert!(err.to_string().contains("shard count"));
        let err = with(|c| c.learning_rate = -1.0).validate().unwrap_err();
        assert!(err.to_string().contains("-1"));
    }
}
