//! Behavioural guard for the two keyed containers whose contents reach a
//! checkpoint: `FleetServer::device_models` and I-Prof's per-device-model
//! `personal` map.
//!
//! Both are `BTreeMap`s (clippy's `disallowed_types` bans
//! `std::collections::HashMap`/`HashSet` workspace-wide — see clippy.toml), so
//! their exports are ordered by key, never by insertion history or a
//! per-process hash seed. These tests hold that property from the outside:
//! they permute the *insertion* order (ascending, descending, interleaved) and
//! assert the exported state is bit-identical, which is exactly what the
//! pinned digests need. A future container swap that reintroduces an
//! order-dependent export fails here immediately rather than flaking on some
//! host's hash seed.

use fleet_data::LabelDistribution;
use fleet_device::DeviceFeatures;
use fleet_profiler::{IProf, Slo, WorkloadProfiler};
use fleet_server::protocol::TaskRequest;
use fleet_server::{FleetServer, FleetServerConfig};

fn request(worker_id: u64, device_model: &str) -> TaskRequest {
    TaskRequest {
        worker_id,
        device_model: device_model.to_string(),
        device_features: DeviceFeatures::default(),
        label_distribution: LabelDistribution::uniform(4),
        available_samples: 64,
    }
}

fn server() -> FleetServer {
    FleetServer::new(
        vec![0.0; 16],
        FleetServerConfig::builder()
            .num_classes(4)
            .build()
            .expect("server config is valid"),
    )
}

/// `FleetServer::checkpoint` exports the `device_models` map sorted by
/// worker id, whatever order the workers registered in.
#[test]
fn checkpoint_device_models_ignore_registration_order() {
    let models = ["Pixel-3", "Galaxy-S7", "Honor-10", "Xperia-E3", "Pixel-3"];
    let ascending: Vec<u64> = (0..5).collect();
    let descending: Vec<u64> = (0..5).rev().collect();
    let interleaved: Vec<u64> = vec![2, 0, 4, 1, 3];

    let export = |order: &[u64]| {
        let mut srv = server();
        for &id in order {
            let _ = srv.handle_request(&request(id, models[id as usize]));
        }
        srv.checkpoint().device_models
    };

    let a = export(&ascending);
    let b = export(&descending);
    let c = export(&interleaved);
    assert_eq!(a, b, "descending registration changed the export");
    assert_eq!(a, c, "interleaved registration changed the export");
    // And the export really is the sorted association list.
    let ids: Vec<u64> = a.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, ascending);
    for (id, model) in &a {
        assert_eq!(model, models[*id as usize]);
    }
}

/// `SlopePredictor::export_state` exports the `personal` per-device-model
/// map sorted by model name, whatever order the models were first observed in.
///
/// The per-model observation *subsequences* are kept identical across
/// permutations — only the interleaving between models changes, which is the
/// part an insertion-ordered or hashed container could leak. The total observation count stays below the
/// predictor's retrain threshold so the shared global model (and with it the
/// personal-model bootstrap) is identical in every run.
#[test]
fn iprof_personal_models_ignore_observation_interleaving() {
    let models = ["Pixel-3", "Galaxy-S7", "Honor-10"];
    let per_model = 8usize; // 3 × 8 = 24 observations, below retrain_every

    let export = |rounds: &dyn Fn(usize) -> Vec<usize>| {
        let mut iprof = IProf::new(Slo::both(3.0, 0.05));
        // counts[m] = how many observations model m has received so far, so
        // every permutation feeds model m the *same* k-th observation.
        let mut counts = [0usize; 3];
        for step in 0..(models.len() * per_model) {
            for m in rounds(step) {
                let k = counts[m];
                counts[m] += 1;
                let f = DeviceFeatures {
                    temperature_celsius: 25.0 + k as f32,
                    ..DeviceFeatures::default()
                };
                let batch = 32 + 8 * m;
                let secs = 0.002 * (k + 1) as f32 * (m + 1) as f32;
                let energy = 0.001 * (k + 1) as f32;
                iprof.observe(models[m], &f, batch, secs, energy);
            }
            if counts.iter().sum::<usize>() == models.len() * per_model {
                break;
            }
        }
        assert_eq!(counts, [per_model; 3]);
        iprof.export_state()
    };

    // Round-robin 0,1,2,0,1,2,…
    let round_robin = export(&|step: usize| vec![step % 3]);
    // Blocked: all of model 0, then all of 1, then all of 2.
    let blocked = export(&|step: usize| vec![step / per_model]);
    // Reverse round-robin 2,1,0,2,1,0,…
    let reversed = export(&|step: usize| vec![2 - step % 3]);

    // The `calibration` replay buffer is a Vec in arrival order — legitimately
    // interleaving-dependent (and deterministic given the request sequence).
    // The keyed component under audit is `personal`; `global` and
    // `seen_range` must also be order-insensitive (no retrain below the
    // threshold; min/max over the same multiset).
    for (other, how) in [(&blocked, "blocked"), (&reversed, "reversed")] {
        for (a, b) in [
            (&round_robin.latency, &other.latency),
            (&round_robin.energy, &other.energy),
        ] {
            assert_eq!(a.personal, b.personal, "{how} order changed `personal`");
            assert_eq!(a.global, b.global, "{how} order changed `global`");
            assert_eq!(a.seen_range, b.seen_range, "{how} order changed range");
        }
    }
    // The export is sorted by model name, not by insertion history.
    let names: Vec<&str> = round_robin
        .latency
        .personal
        .iter()
        .map(|(name, _, _)| name.as_str())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
    assert_eq!(names.len(), models.len());
}
