//! The shape of the synthetic task a schedule's fleet trains on.

/// Shape of the model and dataset the fleet trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    /// Label classes in the synthetic task.
    pub num_classes: usize,
    /// Input features per example.
    pub feature_dim: usize,
    /// Total examples in the shared dataset.
    pub examples: usize,
}

impl Default for FleetShape {
    fn default() -> Self {
        FleetShape {
            num_classes: 4,
            feature_dim: 6,
            examples: 640,
        }
    }
}
