//! End-to-end tests of the socket transport: digest parity with the
//! in-process protocol, lease reclaim on disconnect, overload on the wire,
//! deadlines, reconnect/resume, drain-on-shutdown and one telemetry sink
//! shared by both sides of the socket.

mod common;

use common::{base_config, build_workers, digest, fresh_server, model_parameters, uds_endpoint};
use fleet_server::protocol::{RejectionReason, TaskResponse};
use fleet_server::{
    decode_checkpoint, encode_checkpoint, FleetServerConfig, FleetServerState, ResultDisposition,
    RetryPolicy,
};
use fleet_telemetry::{Counter, Latency, Recorder, TelemetryHandle, TelemetrySink};
use fleet_transport::{
    ClientConfig, ClientError, Endpoint, Stream, TransportConfig, TransportServer, WorkerClient,
};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

/// Number of completed tasks in a checkpoint: the issued ids neither
/// outstanding nor expired.
fn completed(state: &FleetServerState) -> usize {
    let tasks = &state.tasks;
    tasks.next_id as usize - tasks.outstanding.len() - tasks.expired.len()
}

/// Drives `rounds` sequential turns of every worker through the in-process
/// *wire* entry points (so label-distribution requantisation matches what
/// the socket path decodes) and returns the final model digest.
fn in_process_digest(workers: usize, rounds: usize, config: FleetServerConfig) -> u64 {
    let mut server = fresh_server(config);
    let mut fleet = build_workers(workers);
    for _ in 0..rounds {
        for worker in fleet.iter_mut() {
            let response = server
                .handle_request_wire(worker.request_wire())
                .expect("self-encoded request");
            match response {
                TaskResponse::Assignment(assignment) => {
                    let raw = worker.execute_wire(&assignment).expect("execute");
                    server.handle_result_wire(raw).expect("self-encoded result");
                }
                TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
    }
    digest(server.parameters())
}

/// The same schedule through a live transport server, one client per
/// worker, returning the digest of the shutdown checkpoint.
fn socket_digest(endpoint: &Endpoint, workers: usize, rounds: usize) -> u64 {
    socket_digest_with(
        endpoint,
        workers,
        rounds,
        TransportConfig::default(),
        ClientConfig::default(),
    )
}

/// [`socket_digest`] under explicit server- and client-side configs.
fn socket_digest_with(
    endpoint: &Endpoint,
    workers: usize,
    rounds: usize,
    transport: TransportConfig,
    client: ClientConfig,
) -> u64 {
    let server =
        TransportServer::bind(endpoint, fresh_server(base_config()), transport).expect("bind");
    let endpoint = server.endpoint().clone();
    let mut fleet = build_workers(workers);
    let mut clients: Vec<WorkerClient> = (0..workers)
        .map(|_| WorkerClient::with_config(endpoint.clone(), client.clone()))
        .collect();
    for _ in 0..rounds {
        for (worker, client) in fleet.iter_mut().zip(clients.iter_mut()) {
            let response = client.request(&worker.request()).expect("request");
            match response {
                TaskResponse::Assignment(assignment) => {
                    let result = worker.execute(&assignment).expect("execute");
                    let ack = client.submit(&result).expect("submit");
                    assert_eq!(ack.disposition, ResultDisposition::Applied);
                }
                TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
    }
    assert_eq!(server.steps(), (workers * rounds) as u64);
    let state = server.shutdown().expect("shutdown");
    digest(&state.parameter_server.parameters)
}

#[test]
fn uds_run_matches_the_in_process_digest_bit_for_bit() {
    let over_socket = socket_digest(&uds_endpoint("e2e"), 3, 2);
    let in_process = in_process_digest(3, 2, base_config());
    assert_eq!(
        over_socket, in_process,
        "the socket transport must not perturb the trajectory"
    );
}

#[test]
fn tcp_run_matches_the_in_process_digest_bit_for_bit() {
    let endpoint = Endpoint::tcp("127.0.0.1:0".parse().unwrap());
    let over_socket = socket_digest(&endpoint, 2, 2);
    let in_process = in_process_digest(2, 2, base_config());
    assert_eq!(over_socket, in_process);
}

#[test]
fn one_recorder_sees_both_sides_of_the_socket() {
    // The server (transport + core) and every client report into the same
    // sink; after N request+submit exchanges the two sides' views must
    // reconcile, and the trajectory must not have noticed.
    const WORKERS: usize = 3;
    const ROUNDS: usize = 2;
    const N: u64 = (WORKERS * ROUNDS) as u64;
    let recorder = Arc::new(Recorder::new());
    let handle = TelemetryHandle::new(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
    let over_socket = socket_digest_with(
        &uds_endpoint("telemetry"),
        WORKERS,
        ROUNDS,
        TransportConfig::builder()
            .telemetry(handle.clone())
            .build()
            .expect("transport config is valid"),
        ClientConfig {
            telemetry: handle,
            ..ClientConfig::default()
        },
    );
    assert_eq!(
        over_socket,
        in_process_digest(WORKERS, ROUNDS, base_config()),
        "telemetry never feeds the trajectory"
    );

    // `socket_digest_with` shut the server down, so every connection thread
    // has been joined and its last sample recorded.
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counter(Counter::Requests), N);
    assert_eq!(snapshot.counter(Counter::Results), N);
    assert!(snapshot.counter(Counter::ConnectionsOpened) >= WORKERS as u64);
    let request = snapshot.latency(Latency::RequestExchange);
    assert_eq!(request.count, N, "one client-side sample per request");
    assert!(0 < request.p50 && request.p50 <= request.p99);
    assert_eq!(
        snapshot.latency(Latency::HandleFrame).count,
        2 * N,
        "the server handled one frame per request and one per submit"
    );
}

#[test]
fn overload_rejection_travels_the_wire() {
    // K = 100 never applies; max_pending = 1 saturates the shard after one
    // buffered gradient, so the second worker's request is shed over the
    // socket exactly as it would be in-process.
    let config = base_config()
        .to_builder()
        .aggregation_k(100)
        .max_pending(1)
        .build()
        .expect("overload config is valid");
    let server = TransportServer::bind(
        &uds_endpoint("overload"),
        fresh_server(config),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let mut fleet = build_workers(2);
    let mut client = WorkerClient::new(endpoint.clone());

    let assignment = match client.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    };
    let ack = client
        .submit(&fleet[0].execute(&assignment).expect("execute"))
        .expect("submit");
    assert_eq!(ack.disposition, ResultDisposition::Applied);
    assert!(!ack.model_updated, "K = 100 only buffers");

    let mut other = WorkerClient::new(endpoint);
    match other.request(&fleet[1].request()).expect("request") {
        TaskResponse::Rejected(RejectionReason::Overloaded { shard }) => assert_eq!(shard, 0),
        response => panic!("expected an overload rejection, got {response:?}"),
    }
    // Overload does not consume a protocol step: the shed worker still owes
    // its exchange.
    assert_eq!(server.steps(), 1);
    server.shutdown().expect("shutdown");
}

#[test]
fn disconnect_reclaims_the_dead_workers_lease() {
    let server = TransportServer::bind(
        &uds_endpoint("reclaim"),
        fresh_server(base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let mut fleet = build_workers(1);

    let mut doomed = WorkerClient::new(endpoint.clone());
    let assignment = match doomed.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    };
    let mut monitor = WorkerClient::new(endpoint.clone());
    assert_eq!(monitor.status().expect("status").outstanding, 1);

    // The worker dies mid-task: its connection closes, the server reclaims
    // the lease. Poll until the handler thread has run.
    doomed.disconnect();
    let mut outstanding = u64::MAX;
    for _ in 0..400 {
        outstanding = monitor.status().expect("status").outstanding;
        if outstanding == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(outstanding, 0, "the dead worker's lease must be reclaimed");

    // The resurrected worker's straggler upload is Expired, never applied —
    // and a fresh request immediately gets a new lease.
    let straggler = fleet[0].execute(&assignment).expect("execute");
    let mut revived = WorkerClient::new(endpoint);
    let ack = revived.submit(&straggler).expect("submit");
    assert_eq!(ack.disposition, ResultDisposition::Expired);
    assert!(matches!(
        revived.request(&fleet[0].request()).expect("request"),
        TaskResponse::Assignment(_)
    ));
    server.shutdown().expect("shutdown");
}

#[test]
fn read_deadline_kills_a_stalled_peer_but_not_the_server() {
    let server = TransportServer::bind(
        &uds_endpoint("deadline"),
        fresh_server(base_config()),
        TransportConfig::builder()
            .read_budget(Duration::from_millis(80))
            .build()
            .expect("deadline config is valid"),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();

    // A slow-loris peer: open a connection, send half a frame header, stall.
    let mut stalled = Stream::connect(&endpoint).expect("connect");
    use std::io::Write;
    stalled.write_all(&[0x20, 0x00]).expect("half a header");
    // The server kills the connection once the frame budget lapses: our
    // next read sees EOF (or a reset) instead of blocking forever.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut sink = Vec::new();
    match stalled.read_to_end(&mut sink) {
        Ok(_) => {} // clean EOF: the server closed the connection
        Err(err) => assert!(
            // A reset also proves the close; only our own guard timing out
            // would mean the server left the stalled peer pinned.
            !matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "server failed to close the stalled connection: {err}"
        ),
    }

    // The server itself is fine: a clean exchange still works.
    let mut fleet = build_workers(1);
    let mut client = WorkerClient::new(endpoint);
    match client.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => {
            let ack = client
                .submit(&fleet[0].execute(&a).expect("execute"))
                .expect("submit");
            assert_eq!(ack.disposition, ResultDisposition::Applied);
        }
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn resend_after_reconnect_is_deduplicated() {
    // A worker crashes after uploading but before its ack lands; on restart
    // it resends the same encoded bytes over a fresh connection. The v3
    // task id makes the server treat the copy as a duplicate.
    let server = TransportServer::bind(
        &uds_endpoint("resume"),
        fresh_server(base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let mut fleet = build_workers(1);
    let mut client = WorkerClient::new(endpoint);

    let assignment = match client.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    };
    let raw = fleet_server::wire::encode_result(&fleet[0].execute(&assignment).expect("execute"))
        .to_vec();
    assert_eq!(
        client.submit_raw(&raw).expect("first copy").disposition,
        ResultDisposition::Applied
    );

    client.disconnect();
    // The client reconnects transparently inside the call.
    assert_eq!(
        client.submit_raw(&raw).expect("second copy").disposition,
        ResultDisposition::Duplicate
    );
    let state = server.shutdown().expect("shutdown");
    assert_eq!(completed(&state), 1);
}

#[test]
fn v1_result_frame_from_a_leased_worker_is_unsolicited() {
    // A v1 peer's result carries no task id. Sent over the socket by a
    // worker that holds a lease, it completes nothing: the lease stays
    // outstanding and the model does not move, however often it is sent.
    let server = TransportServer::bind(
        &uds_endpoint("idless"),
        fresh_server(base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let mut fleet = build_workers(1);
    let mut client = WorkerClient::new(server.endpoint().clone());
    let assignment = match client.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    };
    let mut legacy = fleet[0].execute(&assignment).expect("execute");
    legacy.task_id = None;
    legacy.read_clock = None;
    let raw = fleet_server::wire::encode_result(&legacy).to_vec();
    assert_eq!(raw[0], 1, "an id-less result without a clock is a v1 frame");
    for _ in 0..3 {
        let ack = client.submit_raw(&raw).expect("ack");
        assert_eq!(ack.disposition, ResultDisposition::Unsolicited);
    }
    let status = client.status().expect("status");
    assert_eq!((status.outstanding, status.steps, status.clock), (1, 0, 0));
    server.shutdown().expect("shutdown");
}

#[test]
fn wrong_length_gradient_gets_an_error_frame_and_leaves_the_lease_alone() {
    let server = TransportServer::bind(
        &uds_endpoint("shortgrad"),
        fresh_server(base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let mut fleet = build_workers(1);
    let mut honest = WorkerClient::new(endpoint.clone());
    let assignment = match honest.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    };
    let result = fleet[0].execute(&assignment).expect("execute");

    // Another connection uploads the same lease with one gradient element
    // missing: it is told why and cut off, before any state is touched.
    let mut short = result.clone();
    short.gradient = fleet_ml::Gradient::zeros(result.gradient.len() - 1);
    let mut broken = WorkerClient::new(endpoint.clone());
    match broken.submit(&short) {
        Err(ClientError::Server(message)) => {
            assert!(message.starts_with("bad result payload"), "{message}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // The server keeps serving other connections, the lease is still
    // outstanding, and its holder's upload applies.
    let mut monitor = WorkerClient::new(endpoint);
    let status = monitor.status().expect("status");
    assert_eq!((status.outstanding, status.steps, status.clock), (1, 0, 0));
    let ack = honest.submit(&result).expect("submit");
    assert_eq!(ack.disposition, ResultDisposition::Applied);
    assert_eq!(monitor.status().expect("status").outstanding, 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn retries_exhaust_with_bounded_backoff_against_a_dead_endpoint() {
    let endpoint = uds_endpoint("nobody-home");
    let mut client = WorkerClient::with_config(
        endpoint,
        ClientConfig {
            retry: RetryPolicy::new(),
            backoff_unit: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    );
    match client.status() {
        Err(ClientError::RetriesExhausted { attempts, .. }) => {
            // The initial try plus RetryPolicy::new()'s four retries.
            assert_eq!(attempts, 5);
        }
        other => panic!("expected exhausted retries, got {other:?}"),
    }
}

#[test]
fn shutdown_drains_shards_and_persists_the_checkpoint() {
    let config = base_config()
        .to_builder()
        .aggregation_k(2)
        .shards(2)
        .build()
        .expect("drain config is valid");
    let server = TransportServer::bind(
        &uds_endpoint("drain"),
        fresh_server(config),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let mut fleet = build_workers(1);
    let mut client = WorkerClient::new(endpoint);

    // One gradient buffers (K = 2): only the drain can fold it in.
    let assignment = match client.request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
    };
    let ack = client
        .submit(&fleet[0].execute(&assignment).expect("execute"))
        .expect("submit");
    assert!(!ack.model_updated, "K = 2 buffers the first gradient");

    let state = server.shutdown().expect("shutdown");
    assert_ne!(
        digest(&state.parameter_server.parameters),
        digest(&model_parameters()),
        "the drained gradient must reach the checkpointed model"
    );
    assert!(
        state
            .parameter_server
            .shard_pending
            .iter()
            .all(Vec::is_empty),
        "no gradient may be stranded in a pending buffer"
    );
    // What an embedder persists: the returned state survives the codec.
    let decoded = decode_checkpoint(encode_checkpoint(&state)).expect("decodable checkpoint");
    assert_eq!(decoded, state);
}

#[test]
fn shutdown_frame_sets_the_draining_flag() {
    let server = TransportServer::bind(
        &uds_endpoint("drainflag"),
        fresh_server(base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let mut client = WorkerClient::new(endpoint);
    assert!(!client.status().expect("status").draining);
    assert!(!server.shutdown_requested());
    let status = client.request_shutdown().expect("shutdown frame");
    assert!(status.draining);
    assert!(server.shutdown_requested());
    server.shutdown().expect("shutdown");
}

#[test]
fn concurrent_clients_multiplex_onto_one_core() {
    let server = TransportServer::bind(
        &uds_endpoint("concurrent"),
        // Generous leases: this test is about multiplexing, and with four
        // unsynchronised clients a default four-round lease can expire while
        // its worker legitimately computes.
        fresh_server(
            base_config()
                .to_builder()
                .lease_min_rounds(64)
                .build()
                .expect("long-lease config is valid"),
        ),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    const WORKERS: usize = 4;
    const ROUNDS: usize = 3;
    let mut fleet = build_workers(WORKERS);
    #[expect(
        clippy::disallowed_methods,
        reason = "concurrent socket clients are the subject of this test; each thread is one blocking-I/O worker, joined below"
    )]
    let handles: Vec<std::thread::JoinHandle<()>> = fleet
        .drain(..)
        .map(|mut worker| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = WorkerClient::new(endpoint);
                for _ in 0..ROUNDS {
                    match client.request(&worker.request()).expect("request") {
                        TaskResponse::Assignment(a) => {
                            let result = worker.execute(&a).expect("execute");
                            let ack = client.submit(&result).expect("submit");
                            assert_eq!(ack.disposition, ResultDisposition::Applied);
                        }
                        TaskResponse::Rejected(r) => panic!("rejected: {r:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker thread");
    }
    assert_eq!(server.steps(), (WORKERS * ROUNDS) as u64);
    let state = server.shutdown().expect("shutdown");
    assert_eq!(completed(&state), WORKERS * ROUNDS);
    assert_ne!(
        digest(&state.parameter_server.parameters),
        digest(&model_parameters()),
        "twelve applied gradients must move the model"
    );
}
