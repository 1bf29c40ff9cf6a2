//! Kill-restart tests of the durable transport: a server torn down as a
//! crash would be ([`TransportServer::abort`] — no drain, no final
//! checkpoint) must come back from disk with step/lease/task-id continuity,
//! classify retransmitted pre-crash uploads `Duplicate`, and finish the
//! schedule on the uninterrupted run's digest bit-for-bit.

mod common;

use common::{base_config, build_workers, digest, fresh_server, uds_endpoint};
use fleet_server::protocol::TaskResponse;
use fleet_server::{FleetServerConfig, ResultDisposition};
use fleet_transport::{Endpoint, FsyncPolicy, TransportConfig, TransportServer, WorkerClient};
use std::path::{Path, PathBuf};

/// A fresh durable directory under the system temp dir.
fn durable_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tight-cadence durability options (checkpoint every step) so restart
/// exercises both checkpoint restore *and* journal replay.
fn durable_config(dir: &Path, checkpoint_every: u64) -> TransportConfig {
    TransportConfig::builder()
        .durable(dir.to_path_buf())
        .checkpoint_every(checkpoint_every)
        .fsync(FsyncPolicy::Never)
        .build()
        .expect("durable config is valid")
}

/// The long-lease config the crash tests run under: leases must outlive the
/// crash, not expire across it.
fn long_lease_config() -> FleetServerConfig {
    base_config()
        .to_builder()
        .lease_min_rounds(1 << 32)
        .build()
        .expect("long-lease config is valid")
}

/// The reference trajectory: the same schedule through the in-process wire
/// entry points, no transport, no crash.
fn in_process_digest(workers: usize, rounds: usize) -> u64 {
    let mut server = fresh_server(long_lease_config());
    let mut fleet = build_workers(workers);
    for _ in 0..rounds {
        for worker in fleet.iter_mut() {
            match server.handle_request_wire(worker.request_wire()).unwrap() {
                TaskResponse::Assignment(assignment) => {
                    let raw = worker.execute_wire(&assignment).unwrap();
                    server.handle_result_wire(raw).unwrap();
                }
                TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
    }
    digest(server.parameters())
}

fn bind_durable(endpoint: &Endpoint, dir: &Path, checkpoint_every: u64) -> TransportServer {
    // A crash-style abort leaves the UDS socket file behind, exactly as a
    // real SIGKILL would; the restarting process owns the cleanup.
    if let Endpoint::Uds(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    TransportServer::bind(
        endpoint,
        fresh_server(long_lease_config()),
        durable_config(dir, checkpoint_every),
    )
    .expect("bind durable server")
}

#[test]
fn crash_restart_resumes_the_digest_and_dedupes_the_replayed_upload() {
    let dir = durable_dir("restart");
    let endpoint = uds_endpoint("durable-restart");
    let reference = in_process_digest(2, 2);

    let mut fleet = build_workers(2);

    // Round 1 against the first server incarnation, keeping worker 0's raw
    // result bytes — the upload a crashed-and-revived worker retransmits.
    let server = bind_durable(&endpoint, &dir, 1);
    let endpoint = server.endpoint().clone();
    let mut replayed_upload = Vec::new();
    {
        let mut clients: Vec<WorkerClient> = (0..fleet.len())
            .map(|_| WorkerClient::new(endpoint.clone()))
            .collect();
        for (i, (worker, client)) in fleet.iter_mut().zip(clients.iter_mut()).enumerate() {
            match client.request(&worker.request()).expect("request") {
                TaskResponse::Assignment(assignment) => {
                    let raw = worker.execute_wire(&assignment).unwrap().to_vec();
                    let ack = client.submit_raw(&raw).expect("submit");
                    assert_eq!(ack.disposition, ResultDisposition::Applied);
                    if i == 0 {
                        replayed_upload = raw;
                    }
                }
                TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
        assert_eq!(server.steps(), 2);
        for client in clients.iter_mut() {
            client.disconnect();
        }
    }
    server.abort();

    // Second incarnation: fresh FleetServer, recovered purely from disk.
    let server = bind_durable(&endpoint, &dir, 1);
    assert_eq!(server.steps(), 2, "step counter must survive the crash");

    let mut clients: Vec<WorkerClient> = (0..fleet.len())
        .map(|_| WorkerClient::new(endpoint.clone()))
        .collect();

    // The pre-crash upload, retransmitted bit-for-bit after the restart,
    // must classify Duplicate — never double-apply.
    let ack = clients[0].submit_raw(&replayed_upload).expect("resubmit");
    assert_eq!(ack.disposition, ResultDisposition::Duplicate);
    assert!(!ack.model_updated);
    assert_eq!(server.steps(), 2, "a duplicate is not a step");

    // Round 2 proceeds as if the crash never happened.
    for (worker, client) in fleet.iter_mut().zip(clients.iter_mut()) {
        match client.request(&worker.request()).expect("request") {
            TaskResponse::Assignment(assignment) => {
                let result = worker.execute(&assignment).unwrap();
                let ack = client.submit(&result).expect("submit");
                assert_eq!(ack.disposition, ResultDisposition::Applied);
            }
            TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
        }
    }
    let state = server.shutdown().expect("shutdown");
    assert_eq!(
        digest(&state.parameter_server.parameters),
        reference,
        "kill-restart must reproduce the uninterrupted digest bit-for-bit"
    );

    let _ = std::fs::remove_dir_all(&dir);
    if let Endpoint::Uds(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn lease_straddling_a_checkpoint_survives_the_restart() {
    let dir = durable_dir("lease");
    let endpoint = uds_endpoint("durable-lease");
    let mut fleet = build_workers(2);

    // Worker 0 takes a lease and goes quiet; worker 1 completes a full
    // exchange, which (checkpoint_every = 1) seals a checkpoint with worker
    // 0's lease still outstanding — the lease straddles the checkpoint.
    let server = bind_durable(&endpoint, &dir, 1);
    let endpoint = server.endpoint().clone();
    // `slow` holds its lease (and its connection) right through the crash:
    // abort() freezes the journal before force-closing connections, so the
    // in-memory reclaim the close triggers is never journaled — exactly what
    // a real SIGKILL leaves behind. The lease must come back outstanding.
    let mut slow = WorkerClient::new(endpoint.clone());
    let straddling = {
        let assignment = match slow.request(&fleet[0].request()).expect("request") {
            TaskResponse::Assignment(a) => a,
            TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
        };
        let mut other = WorkerClient::new(endpoint.clone());
        match other.request(&fleet[1].request()).expect("request") {
            TaskResponse::Assignment(a) => {
                let result = fleet[1].execute(&a).unwrap();
                assert_eq!(
                    other.submit(&result).expect("submit").disposition,
                    ResultDisposition::Applied
                );
            }
            TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
        }
        other.disconnect();
        assignment
    };
    server.abort();
    drop(slow);

    let server = bind_durable(&endpoint, &dir, 1);
    let mut client = WorkerClient::new(endpoint.clone());
    let status = client.status().expect("status");
    assert_eq!(status.steps, 1);
    assert_eq!(
        status.outstanding, 1,
        "the straddling lease must be outstanding after recovery"
    );

    // The revived worker finishes its pre-crash task: same task id, applied
    // exactly once.
    let result = fleet[0].execute(&straddling).unwrap();
    let ack = client.submit(&result).expect("submit");
    assert_eq!(ack.disposition, ResultDisposition::Applied);
    assert_eq!(client.status().expect("status").outstanding, 0);

    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    if let Endpoint::Uds(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn restart_after_disk_faults_never_panics_and_serves() {
    // Every deterministic disk-fault scenario — torn journal tail, corrupted
    // checkpoint CRC, vanished newest checkpoint — must leave a directory
    // the next bind recovers from without panicking.
    use fleet_durability::DiskFaultPlan;

    let plan = DiskFaultPlan::new(0xF1EE7);
    for case in 0..6u64 {
        let dir = durable_dir(&format!("fault-{case}"));
        let endpoint = uds_endpoint(&format!("durable-fault-{case}"));
        let mut fleet = build_workers(1);

        let server = bind_durable(&endpoint, &dir, 1);
        let endpoint = server.endpoint().clone();
        {
            let mut client = WorkerClient::new(endpoint.clone());
            for _ in 0..3 {
                match client.request(&fleet[0].request()).expect("request") {
                    TaskResponse::Assignment(a) => {
                        let result = fleet[0].execute(&a).unwrap();
                        assert_eq!(
                            client.submit(&result).expect("submit").disposition,
                            ResultDisposition::Applied
                        );
                    }
                    TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
                }
            }
            client.disconnect();
        }
        server.abort();

        let fault = plan.inject(&dir, case).expect("inject");
        let server = bind_durable(&endpoint, &dir, 1);
        let steps = server.steps();
        assert!(
            steps <= 3,
            "case {case} ({fault:?}): recovered steps {steps} exceed history"
        );
        // Whatever was lost, the recovered server serves: a fresh worker
        // turn completes against it.
        let mut fresh = build_workers(1);
        let mut client = WorkerClient::new(server.endpoint().clone());
        match client.request(&fresh[0].request()).expect("request") {
            TaskResponse::Assignment(a) => {
                let result = fresh[0].execute(&a).unwrap();
                client.submit(&result).expect("submit");
            }
            TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
        if let Endpoint::Uds(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The files of `dir` whose names start with `prefix`, sorted.
fn files_named(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list the durable directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with(prefix))
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn crash_between_snapshot_and_rename_resumes_the_digest() {
    let dir = durable_dir("torn-rename");
    let endpoint = uds_endpoint("durable-torn-rename");
    let reference = in_process_digest(2, 3);
    let mut fleet = build_workers(2);

    // Two rounds at a cadence of two steps: a checkpoint is started by the
    // last exchange of each round. Then worker 0 takes its round-3 lease —
    // a record of the journal that cadence checkpoint rotated in — and the
    // server dies.
    let server = bind_durable(&endpoint, &dir, 2);
    let endpoint = server.endpoint().clone();
    let mut clients: Vec<WorkerClient> = (0..fleet.len())
        .map(|_| WorkerClient::new(endpoint.clone()))
        .collect();
    for _ in 0..2 {
        for (worker, client) in fleet.iter_mut().zip(clients.iter_mut()) {
            match client.request(&worker.request()).expect("request") {
                TaskResponse::Assignment(assignment) => {
                    let result = worker.execute(&assignment).unwrap();
                    let ack = client.submit(&result).expect("submit");
                    assert_eq!(ack.disposition, ResultDisposition::Applied);
                }
                TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
    }
    let pending = match clients[0].request(&fleet[0].request()).expect("request") {
        TaskResponse::Assignment(assignment) => assignment,
        TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
    };
    server.abort();
    drop(clients);

    // Rewind the directory to a kill between the snapshot and the rename:
    // the newest checkpoint never made it, a torn temp file lies beside it,
    // and its journal already holds the round-3 request.
    let newest = files_named(&dir, "ckpt-")
        .pop()
        .expect("a cadence checkpoint");
    let raw = std::fs::read(&newest).expect("read the newest checkpoint");
    std::fs::remove_file(&newest).expect("delete the newest checkpoint");
    let mut torn = newest.clone().into_os_string();
    torn.push(".tmp");
    std::fs::write(&torn, &raw[..raw.len() / 2]).expect("leave a torn temp file");

    let server = bind_durable(&endpoint, &dir, 2);
    assert_eq!(server.steps(), 4, "two rounds survive the lost checkpoint");
    let mut clients: Vec<WorkerClient> = (0..fleet.len())
        .map(|_| WorkerClient::new(endpoint.clone()))
        .collect();
    // Worker 0 finishes the lease it took before the crash; worker 1 plays
    // its round-3 turn.
    let result = fleet[0].execute(&pending).unwrap();
    let ack = clients[0].submit(&result).expect("submit");
    assert_eq!(ack.disposition, ResultDisposition::Applied);
    match clients[1].request(&fleet[1].request()).expect("request") {
        TaskResponse::Assignment(assignment) => {
            let result = fleet[1].execute(&assignment).unwrap();
            let ack = clients[1].submit(&result).expect("submit");
            assert_eq!(ack.disposition, ResultDisposition::Applied);
        }
        TaskResponse::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
    }
    let state = server.shutdown().expect("shutdown");
    assert_eq!(
        digest(&state.parameter_server.parameters),
        reference,
        "a crash between snapshot and rename must reproduce the uninterrupted digest"
    );
    assert!(
        files_named(&dir, "ckpt-")
            .iter()
            .all(|path| path.extension().is_some_and(|ext| ext == "bin")),
        "shutdown returns with no checkpoint write in flight"
    );

    let _ = std::fs::remove_dir_all(&dir);
    if let Endpoint::Uds(path) = &endpoint {
        let _ = std::fs::remove_file(path);
    }
}
