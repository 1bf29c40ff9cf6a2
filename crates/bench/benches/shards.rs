//! Shard-scaling of the parameter-server aggregation hot path: per-submit
//! cost of [`ParameterServer::submit`] as the range-partitioned shard count
//! grows, on a large flat model (1M parameters) and on a small one (64k)
//! where the per-shard overhead weighs most. `submit` visits the shards
//! in order on the calling thread, so the sweep prices the per-shard split
//! and bookkeeping alone.
//!
//! Run via `scripts/ci.sh` (or set `FLEET_BENCH_JSON=BENCH_shards.json`) to
//! record the aggregation-throughput trajectory; timings are per-machine, so
//! compare runs from the same host only. The companion determinism tests
//! guarantee the *outputs* are bit-for-bit identical at every shard count —
//! this bench only measures what the shard count costs in wall-clock.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fleet_core::{DynSgd, ParameterServer, WorkerUpdate};
use fleet_data::LabelDistribution;
use fleet_ml::Gradient;
use fleet_server::TaskTable;

/// 1M parameters (4 MB): large enough that splitting, scaling and applying
/// dominate the per-submit cost.
const LARGE_MODEL: usize = 1 << 20;
/// 64k parameters: small enough that per-shard bookkeeping shows.
const SMALL_MODEL: usize = 1 << 16;

fn bench_sharded_submit(c: &mut Criterion, name: &str, model_size: usize) {
    for shards in [1usize, 2, 4, 8] {
        c.bench_with_input(BenchmarkId::new(name, shards), &shards, |b, &shards| {
            let mut server = ParameterServer::new(vec![0.0; model_size], DynSgd::new(), 0.01, 1)
                .with_shards(shards);
            let template = Gradient::from_vec(vec![0.01; model_size]);
            let labels = LabelDistribution::from_labels(&[0, 1, 2, 3, 4], 10);
            let mut staleness = 0u64;
            b.iter(|| {
                staleness = (staleness + 1) % 20;
                let update = WorkerUpdate::new(template.clone(), staleness, labels.clone(), 100, 7);
                black_box(server.submit(update))
            });
        });
    }
}

fn shard_benches(c: &mut Criterion) {
    bench_sharded_submit(c, "sharded_submit_1m", LARGE_MODEL);
    bench_sharded_submit(c, "sharded_submit_64k", SMALL_MODEL);

    // K = 4 on the large model: the apply pass folds four pending segments
    // per shard, and each update carries a coherent read clock three updates
    // in the past — the steady-state shape of a mildly stale worker — so
    // the row includes the vector-clock staleness attribution.
    for shards in [1usize, 8] {
        c.bench_with_input(
            BenchmarkId::new("sharded_submit_1m_k4", shards),
            &shards,
            |b, &shards| {
                let mut server =
                    ParameterServer::new(vec![0.0; LARGE_MODEL], DynSgd::new(), 0.01, 4)
                        .with_shards(shards);
                let template = Gradient::from_vec(vec![0.01; LARGE_MODEL]);
                let labels = LabelDistribution::from_labels(&[0, 1, 2, 3, 4], 10);
                b.iter(|| {
                    let read_clock = server
                        .shard_clocks()
                        .iter()
                        .map(|c| c.saturating_sub(3))
                        .collect();
                    let update = WorkerUpdate::new(template.clone(), 3, labels.clone(), 100, 7)
                        .with_read_clock(read_clock);
                    black_box(server.submit(update))
                });
            },
        );
    }

    // The chaos-overhead pair: the fault-tolerant protocol wraps every
    // submit in a lease issue + result classification (dedup against the
    // issued ids, expiry against the deadline). Benchmarked against the
    // identical plain submit at 8 shards, the pair isolates what the
    // lease/dedup bookkeeping costs per update — it should be noise next to
    // the 4 MB split/scale/apply work.
    for (name, leased) in [("plain_submit_1m", false), ("leased_submit_1m", true)] {
        c.bench_with_input(BenchmarkId::new(name, 8usize), &8usize, |b, &shards| {
            let mut server = ParameterServer::new(vec![0.0; LARGE_MODEL], DynSgd::new(), 0.01, 1)
                .with_shards(shards);
            let mut table = TaskTable::new();
            let template = Gradient::from_vec(vec![0.01; LARGE_MODEL]);
            let labels = LabelDistribution::from_labels(&[0, 1, 2, 3, 4], 10);
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                let update = WorkerUpdate::new(template.clone(), 3, labels.clone(), 100, 7);
                if leased {
                    let task_id = table.issue(7, round, 6, round, None, String::new());
                    table.reclaim_expired(round);
                    let _ = black_box(table.complete(Some(task_id), 7));
                }
                black_box(server.submit(update))
            });
        });
    }
}

criterion_group!(benches, shard_benches);
criterion_main!(benches);
