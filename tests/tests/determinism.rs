//! Behavioural guard for the keyed container whose contents reach a
//! checkpoint by key: I-Prof's per-device-model `personal` map.
//!
//! It is a `BTreeMap` (clippy's `disallowed_types` bans
//! `std::collections::HashMap`/`HashSet` workspace-wide — see clippy.toml), so
//! its export is ordered by key, never by insertion history or a per-process
//! hash seed. This test holds that property from the outside: it permutes the
//! *insertion* order (round-robin, blocked, reversed) and asserts the
//! exported state is bit-identical, which is exactly what the pinned digests
//! need. A future container swap that reintroduces an order-dependent export
//! fails here immediately rather than flaking on some host's hash seed.

use fleet_device::DeviceFeatures;
use fleet_profiler::{IProf, Slo, WorkloadProfiler};

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
