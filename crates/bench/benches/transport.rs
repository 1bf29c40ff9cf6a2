//! Socket-transport throughput: full protocol exchanges per second as the
//! number of concurrent worker connections grows.
//!
//! Each measured iteration releases every persistent worker thread for one
//! complete request → execute → upload round-trip over a real Unix socket
//! and waits for all of them, so an iteration moves `connections` exchanges
//! through the shared [`FleetServer`] core. Dividing `connections` by the
//! per-iteration time gives submits/sec at that connection count; the run
//! records the scaling of the core mutex plus the framing/syscall overhead,
//! not the model math (the mini-batch is clamped tiny).
//!
//! Run via `scripts/ci.sh` (or set `FLEET_BENCH_JSON=BENCH_transport.json`);
//! timings are per-machine, so compare runs from the same host only.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fleet_data::partition::non_iid_shards;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_device::profile::catalogue;
use fleet_device::Device;
use fleet_ml::models::mlp_classifier;
use fleet_server::protocol::TaskResponse;
use fleet_server::{FleetServer, FleetServerConfig, ResultDisposition, Worker};
use fleet_transport::{Endpoint, TransportConfig, TransportServer, WorkerClient};
use std::sync::mpsc;
use std::sync::Arc;

/// The largest fleet any configuration drives at once.
const MAX_CONNECTIONS: usize = 4;

fn build_workers(count: usize) -> Vec<Worker> {
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

/// One persistent worker connection: blocks on `go`, runs one full protocol
/// exchange, reports on `done`. Owning the client across iterations keeps
/// the socket and its kernel buffers warm — the bench measures exchanges,
/// not connection setup.
fn worker_loop(
    endpoint: Endpoint,
    mut worker: Worker,
    go: mpsc::Receiver<()>,
    done: mpsc::Sender<()>,
) {
    let mut client = WorkerClient::new(endpoint);
    while go.recv().is_ok() {
        match client.request(&worker.request()).expect("request") {
            TaskResponse::Assignment(mut assignment) => {
                // Clamp the workload so the measurement is transport +
                // core-mutex time, not gradient math.
                assignment.mini_batch_size = assignment.mini_batch_size.min(8);
                let result = worker.execute(&assignment).expect("execute");
                let ack = client.submit(&result).expect("submit");
                assert_eq!(ack.disposition, ResultDisposition::Applied);
            }
            TaskResponse::Rejected(reason) => panic!("bench worker rejected: {reason:?}"),
        }
        done.send(()).expect("report completion");
    }
}

fn transport_benches(c: &mut Criterion) {
    for connections in [1usize, 2, 4] {
        c.bench_with_input(
            BenchmarkId::new("socket_submits", connections),
            &connections,
            |b, &connections| {
                let path = std::env::temp_dir().join(format!(
                    "fleet-bench-{}-{connections}.sock",
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                let server = TransportServer::bind(
                    &Endpoint::uds(path),
                    FleetServer::new(
                        mlp_classifier(6, &[8], 4, 0).parameters(),
                        FleetServerConfig::builder()
                            .num_classes(4)
                            // Concurrent unsynchronised clients: leases must
                            // survive however long a neighbour's turn takes.
                            .lease_min_rounds(1 << 32)
                            .build()
                            .expect("bench config is valid"),
                    ),
                    TransportConfig::default(),
                )
                .expect("bind bench socket");
                let (done_tx, done_rx) = mpsc::channel();
                let mut gos = Vec::new();
                let mut threads = Vec::new();
                for worker in build_workers(MAX_CONNECTIONS).into_iter().take(connections) {
                    let (go_tx, go_rx) = mpsc::channel();
                    let endpoint = server.endpoint().clone();
                    let done = done_tx.clone();
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "persistent bench clients: each thread owns one live socket connection, is gated per iteration by its `go` channel and is joined before the bench returns"
                    )]
                    threads.push(std::thread::spawn(move || {
                        worker_loop(endpoint, worker, go_rx, done)
                    }));
                    gos.push(go_tx);
                }
                b.iter(|| {
                    for go in &gos {
                        go.send(()).expect("release worker");
                    }
                    for _ in 0..connections {
                        done_rx.recv().expect("exchange completed");
                    }
                    black_box(());
                });
                drop(gos);
                for thread in threads {
                    thread.join().expect("bench worker thread");
                }
                server.shutdown().expect("shutdown bench server");
            },
        );
    }
}

criterion_group!(benches, transport_benches);
criterion_main!(benches);
