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
//! Beside it, the bulk data path on its own at the size of the paper's CIFAR
//! CNN (324 516 parameters, 1.3 MB a body): `wire_codec/*` is the codec
//! alone, `frame_roundtrip` one such body written to and read back from a
//! connected Unix socket pair — the two stages that dominate a large-model
//! exchange, next to `socket_submits` where the fixed costs dominate.
//!
//! Run via `scripts/ci.sh` (or set `FLEET_BENCH_JSON=BENCH_transport.json`);
//! timings are per-machine, so compare runs from the same host only.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fleet_data::partition::non_iid_shards;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_data::LabelDistribution;
use fleet_device::profile::catalogue;
use fleet_device::Device;
use fleet_ml::models::mlp_classifier;
use fleet_ml::Gradient;
use fleet_server::protocol::{TaskAssignment, TaskResponse, TaskResult};
use fleet_server::{wire, FleetServer, FleetServerConfig, ResultDisposition, Worker};
use fleet_transport::frame::{read_frame, write_frame};
use fleet_transport::MAX_FRAME_LEN;
use fleet_transport::{Endpoint, FrameKind, TransportConfig, TransportServer, WorkerClient};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;

/// Parameters of the paper's CIFAR-10 CNN (Table 1): the body size
/// `serve_cifar` moves each way.
const BODY_PARAMETERS: usize = 324_516;

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

/// The codec alone, then one body across a socket pair, at
/// [`BODY_PARAMETERS`].
fn bulk_path_benches(c: &mut Criterion) {
    let values: Vec<f32> = (0..BODY_PARAMETERS).map(|i| i as f32 * 1e-6).collect();
    let result = TaskResult {
        worker_id: 7,
        model_version: 41,
        gradient: Gradient::from_vec(values.clone()),
        label_distribution: LabelDistribution::uniform(10),
        num_samples: 32,
        computation_seconds: 1.5,
        energy_pct: 0.01,
        read_clock: Some(vec![41; 4]),
        task_id: Some(9_001),
    };
    let response = TaskResponse::Assignment(TaskAssignment {
        task_id: 9_001,
        model_parameters: values,
        model_version: 41,
        shard_clocks: vec![41; 4],
        mini_batch_size: 32,
    });
    let encoded_result = wire::encode_result(&result);
    let encoded_response = wire::encode_response(&response);
    c.bench_function("wire_codec/encode_result", |b| {
        b.iter(|| wire::encode_result(black_box(&result)))
    });
    c.bench_function("wire_codec/decode_result", |b| {
        b.iter(|| wire::decode_result(black_box(encoded_result.clone())).expect("own encoding"))
    });
    c.bench_function("wire_codec/encode_response", |b| {
        b.iter(|| wire::encode_response(black_box(&response)))
    });
    c.bench_function("wire_codec/decode_response", |b| {
        b.iter(|| wire::decode_response(black_box(encoded_response.clone())).expect("own encoding"))
    });

    c.bench_function("frame_roundtrip", |b| {
        let (mut near, mut far) = UnixStream::pair().expect("socket pair");
        let body = encoded_result.to_vec();
        // The body outgrows the socket buffer, so the echoing peer runs
        // beside the timed side: it reads each frame whole and sends it back.
        #[expect(
            clippy::disallowed_methods,
            reason = "the echo peer blocks on its socket for the bench's lifetime: an I/O thread, joined when the near end closes"
        )]
        let echo = std::thread::spawn(move || {
            while let Ok((kind, payload)) = read_frame(&mut far, MAX_FRAME_LEN) {
                write_frame(&mut far, kind, &payload).expect("echo");
            }
        });
        b.iter(|| {
            write_frame(&mut near, FrameKind::Result, black_box(&body)).expect("write");
            read_frame(&mut near, MAX_FRAME_LEN).expect("read")
        });
        drop(near);
        echo.join().expect("echo thread");
    });
}

criterion_group!(benches, transport_benches, bulk_path_benches);
criterion_main!(benches);
