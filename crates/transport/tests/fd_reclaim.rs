//! A closed connection must cost the server nothing: a reconnect-on-demand
//! fleet opens and closes far more connections over a server's lifetime than
//! the process may hold descriptors.
//!
//! This file holds one test on purpose — it counts the *process's* open
//! descriptors, so it must not share a test binary with tests that open
//! sockets concurrently.

#![cfg(target_os = "linux")]

use fleet_server::{FleetServer, FleetServerConfig};
use fleet_transport::{Endpoint, TransportConfig, TransportServer, WorkerClient};
use std::time::Duration;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: usize = 128;
    // Connections whose server thread has not finished closing yet, plus the
    // directory handle `open_fds` itself holds: a constant, not a function of
    // `CYCLES`.
    const SLACK: usize = 8;

    let path = std::env::temp_dir().join(format!(
        "fleet-transport-{}-fdreclaim.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let server = TransportServer::bind(
        &Endpoint::uds(path),
        FleetServer::new(vec![0.0; 8], FleetServerConfig::default()),
        TransportConfig::default(),
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let cycle = || {
        let mut client = WorkerClient::new(endpoint.clone());
        client.status().expect("status");
    };

    cycle();
    let before = open_fds();
    for _ in 0..CYCLES {
        cycle();
    }
    // The server side of a connection closes asynchronously after the client
    // hangs up; give the last few a moment.
    let mut after = open_fds();
    for _ in 0..200 {
        if after <= before + SLACK {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        after = open_fds();
    }
    assert!(
        after <= before + SLACK,
        "{CYCLES} connect/close cycles grew the process from {before} to {after} open descriptors"
    );
    server.shutdown().expect("shutdown");
}
