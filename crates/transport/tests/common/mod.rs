//! Shared world-building helpers for the transport integration tests.

use fleet_data::partition::non_iid_shards;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_device::profile::catalogue;
use fleet_device::Device;
use fleet_ml::models::mlp_classifier;
use fleet_server::{FleetServer, FleetServerConfig, Worker};
use fleet_transport::Endpoint;
use std::sync::Arc;

/// A fresh UDS endpoint under the system temp dir, unique per test process
/// and tag; any stale socket file from a crashed previous run is removed.
pub(crate) fn uds_endpoint(tag: &str) -> Endpoint {
    let path =
        std::env::temp_dir().join(format!("fleet-transport-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Endpoint::uds(path)
}

/// The tests' model shape: a small MLP classifier over the synthetic
/// 4-class / 6-feature vector task.
pub(crate) fn model_parameters() -> Vec<f32> {
    mlp_classifier(6, &[8], 4, 0).parameters()
}

/// A permissive server over the test model.
pub(crate) fn fresh_server(config: FleetServerConfig) -> FleetServer {
    FleetServer::new(model_parameters(), config)
}

/// The tests' base config (matching the 4-class dataset).
pub(crate) fn base_config() -> FleetServerConfig {
    FleetServerConfig::builder()
        .num_classes(4)
        .build()
        .expect("base config is valid")
}

/// Deterministic workers over a shared synthetic dataset: same seeds, same
/// partition, so two calls build byte-identical worker fleets.
pub(crate) fn build_workers(count: usize) -> Vec<Worker> {
    let dataset = Arc::new(generate(&SyntheticSpec::vector(4, 6, 160), 11));
    let users = non_iid_shards(&dataset, count, 2, 12);
    let profiles = catalogue();
    users
        .into_iter()
        .enumerate()
        .map(|(i, indices)| {
            Worker::new(
                i as u64,
                Device::new(profiles[i % profiles.len()].clone(), i as u64),
                Arc::clone(&dataset),
                indices,
                mlp_classifier(6, &[8], 4, 0),
                i as u64 + 100,
            )
        })
        .collect()
}

/// FNV-1a over the parameter bit patterns: equal digests mean bit-for-bit
/// equal models.
pub(crate) fn digest(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf29ce484222325u64, |h, p| {
        (h ^ u64::from(p.to_bits())).wrapping_mul(0x100000001b3)
    })
}
