//! Multi-process Online FL over the socket transport.
//!
//! One binary, four roles:
//!
//! * `demo` — binds a [`TransportServer`] on a Unix socket, spawns N real
//!   worker *processes*, runs R gated rounds and proves the resulting model
//!   is **bit-for-bit identical** to the same schedule run in-process. This
//!   is the reproduction's cross-process determinism claim, and its digest
//!   is pinned in `scripts/expected_digests.txt`.
//! * `worker <socket> <id> <n> <rounds>` — one worker process: waits for its
//!   globally gated turn (the server's step counter), then runs the
//!   request → execute → upload protocol over the socket.
//! * `chaos` — the fault-tolerance showcase: a worker dies mid-upload with a
//!   torn frame, a disconnected worker's lease is reclaimed and its
//!   straggler upload expired, an overloaded shard rejects on the wire, a
//!   duplicate upload is deduplicated, a garbage connection is shrugged
//!   off — and the server drains cleanly with a deterministic digest.
//! * `turn <socket> <id> [torn]` — a single worker turn over raw frames,
//!   optionally dying mid-upload (used by `chaos` as the crashing process).
//! * `kill` — the durable-recovery showcase: a *durable* server process is
//!   SIGKILLed mid-run, a second server process recovers checkpoint + journal
//!   from disk, the workers ride their retry loops across the outage, and
//!   the finished model reproduces the uninterrupted digest bit-for-bit
//!   (pinned as `chaos_kill`).
//! * `serve <socket> <dir>` — one durable server process (used by `kill` as
//!   both the victim and the survivor): binds with a write-ahead journal
//!   under `<dir>`, serves until a client requests shutdown, then drains
//!   and prints its digest.
//!
//! Run with: `cargo run -p fleet-examples --example socket_demo -- demo`

use fleet_data::partition::non_iid_shards;
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_device::profile::catalogue;
use fleet_device::Device;
use fleet_ml::models::mlp_classifier;
use fleet_server::protocol::{RejectionReason, TaskResponse};
use fleet_server::{wire, FleetServer, FleetServerConfig, ResultDisposition, RetryPolicy, Worker};
use fleet_transport::{
    frame, ClientConfig, Endpoint, FrameKind, Stream, TransportConfig, TransportServer,
    WorkerClient, MAX_FRAME_LEN,
};
use std::io::Write as _;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// The demo world: a 4-class synthetic task split non-IID over the fleet.
/// Every process rebuilds it from the same seeds, so worker `i` is the same
/// worker everywhere.
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

fn model_parameters() -> Vec<f32> {
    mlp_classifier(6, &[8], 4, 0).parameters()
}

fn base_config() -> FleetServerConfig {
    FleetServerConfig::builder()
        .num_classes(4)
        .build()
        .expect("base config is valid")
}

/// FNV-1a over the parameter bit patterns: equal digests mean bit-for-bit
/// equal models.
fn digest(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf29ce484222325u64, |h, p| {
        (h ^ u64::from(p.to_bits())).wrapping_mul(0x100000001b3)
    })
}

fn socket_path(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("fleet-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn self_command(args: &[String]) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("current exe"));
    cmd.args(args);
    cmd
}

const DEMO_WORKERS: usize = 3;
const DEMO_ROUNDS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("worker") => worker_process(&args[1..]),
        Some("chaos") => chaos(),
        Some("turn") => turn(&args[1..]),
        Some("kill") => kill(),
        Some("serve") => serve(&args[1..]),
        _ => {
            eprintln!(
                "usage: socket_demo demo|chaos|kill|worker <socket> <id> <n> <rounds> [lenient]\
                 |turn <socket> <id> [torn]|serve <socket> <dir>"
            );
            std::process::exit(2);
        }
    }
}

/// The same schedule as the socket run, entirely in-process — but routed
/// through the *wire* entry points, so the label-distribution
/// requantisation matches what the socket path decodes.
fn in_process_digest() -> u64 {
    let mut server = FleetServer::new(model_parameters(), base_config());
    let mut fleet = build_workers(DEMO_WORKERS);
    for _ in 0..DEMO_ROUNDS {
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

fn demo() {
    let reference = in_process_digest();
    println!("in-process reference digest: {reference:#018x}");

    let endpoint = Endpoint::uds(socket_path("demo"));
    let server = TransportServer::bind(
        &endpoint,
        FleetServer::new(model_parameters(), base_config()),
        TransportConfig::default(),
    )
    .expect("bind demo socket");
    let socket = match server.endpoint() {
        Endpoint::Uds(path) => path.display().to_string(),
        Endpoint::Tcp(addr) => addr.to_string(),
    };

    let children: Vec<std::process::Child> = (0..DEMO_WORKERS)
        .map(|id| {
            self_command(&[
                "worker".into(),
                socket.clone(),
                id.to_string(),
                DEMO_WORKERS.to_string(),
                DEMO_ROUNDS.to_string(),
            ])
            .spawn()
            .expect("spawn worker process")
        })
        .collect();
    for (id, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker process {id} failed: {status}");
    }

    assert_eq!(server.steps(), (DEMO_WORKERS * DEMO_ROUNDS) as u64);
    let state = server.shutdown().expect("shutdown");
    let socket_digest = digest(&state.parameter_server.parameters);
    println!("socket digest: {socket_digest:#018x}");
    assert_eq!(
        socket_digest, reference,
        "the multi-process run must reproduce the in-process model bit-for-bit"
    );
    println!(
        "demo: {DEMO_WORKERS} worker processes x {DEMO_ROUNDS} rounds over uds \
         reproduced the in-process digest"
    );
}

/// One worker process. The server's step counter gates the global order:
/// worker `w` takes round `r`'s turn when exactly `r * n + w` steps have
/// completed, which makes the distributed schedule identical to the
/// in-process double loop.
fn worker_process(args: &[String]) {
    let (socket, id, n, rounds, lenient) = match args {
        [socket, id, n, rounds] => (socket, id, n, rounds, false),
        [socket, id, n, rounds, flag] if flag == "lenient" => (socket, id, n, rounds, true),
        _ => {
            eprintln!("usage: socket_demo worker <socket> <id> <n> <rounds> [lenient]");
            std::process::exit(2);
        }
    };
    let id = id.parse::<usize>().expect("worker id");
    let n = n.parse::<usize>().expect("worker count");
    let rounds = rounds.parse::<usize>().expect("round count");
    let endpoint = Endpoint::uds(socket.clone());
    // In lenient mode the server process may be SIGKILLed and restarted
    // under the worker's feet: retry patiently instead of giving up, and
    // accept `Duplicate` — the crash may land between the journal append
    // and the ack, in which case the retransmitted upload was already
    // applied before the crash.
    let mut client = if lenient {
        WorkerClient::with_config(endpoint, patient_client_config())
    } else {
        WorkerClient::new(endpoint)
    };
    let mut worker = build_workers(n).remove(id);
    for round in 0..rounds {
        let gate = (round * n + id) as u64;
        let mut polls = 0u32;
        loop {
            let steps = if lenient {
                match client.status() {
                    Ok(status) => status.steps,
                    Err(_) => 0, // server mid-restart: keep polling
                }
            } else {
                client.status().expect("status").steps
            };
            if steps >= gate {
                break;
            }
            polls += 1;
            assert!(polls < 30_000, "worker {id}: gate {gate} never arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        match client.request(&worker.request()).expect("request") {
            TaskResponse::Assignment(assignment) => {
                let result = worker.execute(&assignment).expect("execute");
                let ack = client.submit(&result).expect("submit");
                if lenient {
                    assert!(
                        matches!(
                            ack.disposition,
                            ResultDisposition::Applied | ResultDisposition::Duplicate
                        ),
                        "worker {id} round {round}: unexpected disposition {:?}",
                        ack.disposition
                    );
                } else {
                    assert_eq!(ack.disposition, ResultDisposition::Applied);
                }
            }
            TaskResponse::Rejected(reason) => panic!("worker {id} rejected: {reason:?}"),
        }
    }
}

/// A retry plan wide enough to ride out a server kill-and-restart: forty
/// attempts with backoff capped at 32 rounds of the 10 ms unit gives the
/// replacement process ten-plus seconds to come back up.
fn patient_client_config() -> ClientConfig {
    ClientConfig {
        retry: RetryPolicy {
            base_rounds: 1,
            max_backoff_rounds: 32,
            max_attempts: 40,
        },
        ..ClientConfig::default()
    }
}

/// A single worker turn over *raw frames* (no client conveniences), dying
/// mid-upload when asked to: with `torn`, only half of the result frame is
/// written before the process exits, so the server sees a connection die
/// inside a frame — the crash the reclaim path exists for.
fn turn(args: &[String]) {
    let (socket, id, torn) = match args {
        [socket, id] => (
            socket.clone(),
            id.parse::<usize>().expect("worker id"),
            false,
        ),
        [socket, id, flag] if flag == "torn" => (
            socket.clone(),
            id.parse::<usize>().expect("worker id"),
            true,
        ),
        _ => {
            eprintln!("usage: socket_demo turn <socket> <id> [torn]");
            std::process::exit(2);
        }
    };
    let endpoint = Endpoint::uds(socket);
    let mut worker = build_workers(CHAOS_WORKERS).remove(id);
    let mut stream = Stream::connect(&endpoint).expect("connect");
    frame::write_frame(
        &mut stream,
        FrameKind::Request,
        &wire::encode_request(&worker.request()),
    )
    .expect("send request");
    let (kind, payload) = frame::read_frame(&mut stream, MAX_FRAME_LEN).expect("response frame");
    assert_eq!(kind, FrameKind::Response);
    let assignment = match wire::decode_response(bytes::Bytes::from(payload)).expect("response") {
        TaskResponse::Assignment(assignment) => assignment,
        TaskResponse::Rejected(reason) => panic!("turn {id} rejected: {reason:?}"),
    };
    let result = worker.execute(&assignment).expect("execute");
    let payload = wire::encode_result(&result);
    if torn {
        // Frame the result by hand and stop half way: header, kind and the
        // first half of the payload hit the wire, then the process is gone.
        let mut framed = Vec::new();
        frame::write_frame(&mut framed, FrameKind::Result, &payload).expect("frame result");
        stream
            .write_all(&framed[..framed.len() / 2])
            .expect("torn write");
        stream.flush().expect("flush");
        std::process::exit(0);
    }
    frame::write_frame(&mut stream, FrameKind::Result, &payload).expect("send result");
    let (kind, payload) = frame::read_frame(&mut stream, MAX_FRAME_LEN).expect("ack frame");
    assert_eq!(kind, FrameKind::Ack);
    let ack = wire::decode_ack(bytes::Bytes::from(payload)).expect("ack");
    assert_eq!(ack.disposition, ResultDisposition::Applied);
}

const CHAOS_WORKERS: usize = 8;

/// Spawns a `turn` child and waits for it.
fn run_turn(socket: &str, id: usize, torn: bool) {
    let mut args = vec!["turn".to_string(), socket.to_string(), id.to_string()];
    if torn {
        args.push("torn".into());
    }
    let status = self_command(&args).status().expect("spawn turn process");
    assert!(status.success(), "turn process {id} failed: {status}");
}

/// Polls the server until its outstanding-lease count reaches `want`.
fn await_outstanding(monitor: &mut WorkerClient, want: u64, what: &str) {
    let mut polls = 0u32;
    loop {
        let status = monitor.status().expect("status");
        if status.outstanding == want {
            return;
        }
        polls += 1;
        assert!(
            polls < 2_500,
            "{what}: outstanding stuck at {} (want {want})",
            status.outstanding
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn chaos() {
    // Per-shard apply with K = 3 and a one-deep pending bound: after a
    // single buffered gradient every shard is "saturated", so overload is
    // easy to provoke; generous leases keep reclaim deliberate (forced by
    // disconnects, never by the clock).
    let config = base_config()
        .to_builder()
        .shards(2)
        .aggregation_k(3)
        .max_pending(1)
        .lease_min_rounds(64)
        .build()
        .expect("chaos config is valid");
    let endpoint = Endpoint::uds(socket_path("chaos"));
    let server = TransportServer::bind(
        &endpoint,
        FleetServer::new(model_parameters(), config),
        TransportConfig::default(),
    )
    .expect("bind chaos socket");
    let socket = match server.endpoint() {
        Endpoint::Uds(path) => path.display().to_string(),
        Endpoint::Tcp(addr) => addr.to_string(),
    };
    let mut fleet = build_workers(CHAOS_WORKERS);
    let mut monitor = WorkerClient::new(server.endpoint().clone());

    // A worker (H) gets a task, then vanishes: its lease is reclaimed, and
    // the straggler upload it left behind comes back `Expired`.
    let mut h = WorkerClient::new(server.endpoint().clone());
    let h_assignment = match h.request(&fleet[7].request()).expect("request H") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("H rejected: {r:?}"),
    };
    let h_result = fleet[7].execute(&h_assignment).expect("execute H");
    h.disconnect();
    await_outstanding(&mut monitor, 0, "H's lease after its disconnect");
    let ack = h.submit(&h_result).expect("straggler upload");
    assert_eq!(ack.disposition, ResultDisposition::Expired);
    println!("chaos: dead worker's lease reclaimed, straggler upload expired");

    // A, B, C and E all get assignments while the shards are idle.
    let mut clients: Vec<WorkerClient> = (0..CHAOS_WORKERS)
        .map(|_| WorkerClient::new(server.endpoint().clone()))
        .collect();
    let mut assignments = std::collections::BTreeMap::new();
    for id in [0usize, 1, 2, 4] {
        match clients[id].request(&fleet[id].request()).expect("request") {
            TaskResponse::Assignment(a) => assignments.insert(id, a),
            TaskResponse::Rejected(r) => panic!("worker {id} rejected: {r:?}"),
        };
    }
    await_outstanding(&mut monitor, 4, "four live leases");

    // D dies mid-upload with a torn frame; the server survives and reclaims
    // its lease.
    run_turn(&socket, 3, true);
    await_outstanding(&mut monitor, 4, "D's lease after its torn crash");
    println!("chaos: torn mid-upload crash survived, lease reclaimed");

    // A's gradient lands in the pending buffers (K = 3, nothing applies
    // yet) — and now every shard is at the bound, so F is shed with a real
    // `Overloaded` on the wire.
    let a_result = fleet[0].execute(&assignments[&0]).expect("execute A");
    assert_eq!(
        clients[0].submit(&a_result).expect("submit A").disposition,
        ResultDisposition::Applied
    );
    match clients[5].request(&fleet[5].request()).expect("request F") {
        TaskResponse::Rejected(RejectionReason::Overloaded { shard }) => {
            println!("chaos: overloaded shard {shard} shed a request on the wire");
        }
        other => panic!("F should have been shed, got {other:?}"),
    }

    // B uploads twice (a retry after a lost ack): one Applied, one
    // Duplicate, one gradient.
    let b_raw = wire::encode_result(&fleet[1].execute(&assignments[&1]).expect("execute B"));
    assert_eq!(
        clients[1]
            .submit_raw(&b_raw)
            .expect("B first copy")
            .disposition,
        ResultDisposition::Applied
    );
    clients[1].disconnect();
    assert_eq!(
        clients[1].submit_raw(&b_raw).expect("B resend").disposition,
        ResultDisposition::Duplicate
    );
    println!("chaos: duplicate upload after reconnect deduplicated");

    // A vandal connection spews garbage; the server boots it and carries on.
    let mut vandal = Stream::connect(server.endpoint()).expect("vandal connect");
    vandal
        .write_all(&[0xff, 0xff, 0xff, 0xff, 0x00, 0x13, 0x37])
        .expect("vandal write");
    drop(vandal);
    monitor.status().expect("alive after garbage");
    println!("chaos: garbage connection shrugged off");

    // C's gradient is the third: both shards apply and the buffers empty.
    let c_result = fleet[2].execute(&assignments[&2]).expect("execute C");
    assert_eq!(
        clients[2].submit(&c_result).expect("submit C").disposition,
        ResultDisposition::Applied
    );

    // The shed worker F retries and is admitted now that pressure is gone;
    // the crashed worker D retries its whole turn as a fresh process.
    let f_assignment = match clients[5].request(&fleet[5].request()).expect("F retry") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("F retry rejected: {r:?}"),
    };
    run_turn(&socket, 3, false);
    println!("chaos: shed worker re-admitted, crashed worker resumed cleanly");

    // E and F complete the second aggregation round.
    let e_result = fleet[4].execute(&assignments[&4]).expect("execute E");
    assert_eq!(
        clients[4].submit(&e_result).expect("submit E").disposition,
        ResultDisposition::Applied
    );
    let f_result = fleet[5].execute(&f_assignment).expect("execute F");
    assert_eq!(
        clients[5].submit(&f_result).expect("submit F").disposition,
        ResultDisposition::Applied
    );

    // G leaves one gradient stranded in the pending buffers...
    let g_assignment = match clients[6].request(&fleet[6].request()).expect("request G") {
        TaskResponse::Assignment(a) => a,
        TaskResponse::Rejected(r) => panic!("G rejected: {r:?}"),
    };
    let g_result = fleet[6].execute(&g_assignment).expect("execute G");
    assert_eq!(
        clients[6].submit(&g_result).expect("submit G").disposition,
        ResultDisposition::Applied
    );

    // ... and the graceful drain flushes it into the model on shutdown.
    let state = server.shutdown().expect("shutdown");
    assert!(
        state
            .parameter_server
            .shard_pending
            .iter()
            .all(Vec::is_empty),
        "drain must flush every shard's pending buffer"
    );
    let chaos_digest = digest(&state.parameter_server.parameters);
    println!("chaos digest: {chaos_digest:#018x}");
    println!("chaos: survived a crash, a torn frame, overload and garbage; drained clean");
}

/// Steps the `kill` monitor waits for before SIGKILLing the first server
/// process: far enough in that real state (checkpoint + journal tail) is on
/// disk, early enough that most of the schedule still runs post-restart.
const KILL_AT_STEPS: u64 = 2;

/// One durable server process: binds the socket with a write-ahead journal
/// under `<dir>`, serves until a client requests shutdown, drains and prints
/// its digest. `kill` runs this twice over the same `<dir>` — the second
/// incarnation recovers the first's checkpoint and journal before accepting
/// connections. Exiting on request (never on a step count) matters: the
/// last journaled step may have an unacked worker still retransmitting, and
/// only the driver knows when every ack has landed.
fn serve(args: &[String]) {
    let (socket, dir) = match args {
        [socket, dir] => (socket.clone(), std::path::PathBuf::from(dir)),
        _ => {
            eprintln!("usage: socket_demo serve <socket> <dir>");
            std::process::exit(2);
        }
    };
    // A SIGKILLed predecessor leaves its socket file behind; claim it.
    let _ = std::fs::remove_file(&socket);
    let server = TransportServer::bind(
        &Endpoint::uds(socket),
        FleetServer::new(model_parameters(), base_config()),
        TransportConfig::builder()
            .durable(dir)
            .checkpoint_every(KILL_AT_STEPS)
            .build()
            .expect("durable config is valid"),
    )
    .expect("bind durable socket");
    let mut polls = 0u32;
    while !server.shutdown_requested() {
        polls += 1;
        assert!(polls < 60_000, "serve: shutdown never requested");
        std::thread::sleep(Duration::from_millis(2));
    }
    let state = server.shutdown().expect("shutdown");
    println!(
        "serve digest: {:#018x}",
        digest(&state.parameter_server.parameters)
    );
}

/// The durable-recovery showcase: the same gated schedule as `demo`, but the
/// server is a *separate process* that gets SIGKILLed mid-run — no drain, no
/// final checkpoint, a dead socket file left behind — and a replacement
/// process recovers checkpoint + journal from disk. The lenient workers ride
/// their retry loops across the outage, and the finished model must
/// reproduce the uninterrupted in-process digest bit-for-bit.
fn kill() {
    let reference = in_process_digest();
    println!("in-process reference digest: {reference:#018x}");

    let dir = std::env::temp_dir().join(format!("fleet-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let socket = socket_path("kill");
    let socket_arg = socket.display().to_string();
    let dir_arg = dir.display().to_string();

    // First server incarnation — the victim. It never prints a digest: it
    // serves until SIGKILLed.
    let mut victim = self_command(&["serve".into(), socket_arg.clone(), dir_arg.clone()])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim server");

    let workers: Vec<std::process::Child> = (0..DEMO_WORKERS)
        .map(|id| {
            self_command(&[
                "worker".into(),
                socket_arg.clone(),
                id.to_string(),
                DEMO_WORKERS.to_string(),
                DEMO_ROUNDS.to_string(),
                "lenient".into(),
            ])
            .spawn()
            .expect("spawn lenient worker")
        })
        .collect();

    // Wait until durable state exists on disk, then SIGKILL the server —
    // mid-run, no warning, exactly what a machine failure looks like to the
    // protocol.
    let mut monitor =
        WorkerClient::with_config(Endpoint::uds(socket.clone()), patient_client_config());
    let mut polls = 0u32;
    loop {
        if let Ok(status) = monitor.status() {
            if status.steps >= KILL_AT_STEPS {
                break;
            }
        }
        polls += 1;
        assert!(polls < 30_000, "kill: step {KILL_AT_STEPS} never arrived");
        std::thread::sleep(Duration::from_millis(2));
    }
    monitor.disconnect();
    victim.kill().expect("SIGKILL server");
    victim.wait().expect("reap server");
    println!("kill: server SIGKILLed after step {KILL_AT_STEPS}");

    // Second incarnation over the same directory: recovers, finishes the
    // schedule against the still-retrying workers, drains, prints its digest.
    let survivor = self_command(&["serve".into(), socket_arg.clone(), dir_arg.clone()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn survivor server");

    // Every worker exiting cleanly means every upload was acked — only then
    // may the survivor drain and go down.
    for (id, mut child) in workers.into_iter().enumerate() {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "lenient worker {id} failed: {status}");
    }
    let mut closer =
        WorkerClient::with_config(Endpoint::uds(socket.clone()), patient_client_config());
    closer
        .request_shutdown()
        .expect("request survivor shutdown");
    closer.disconnect();
    let output = survivor.wait_with_output().expect("wait for survivor");
    assert!(
        output.status.success(),
        "survivor server failed: {}",
        output.status
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("serve digest: 0x"))
        .expect("survivor digest line");
    let kill_digest = u64::from_str_radix(line.trim(), 16).expect("digest hex");

    assert_eq!(
        kill_digest, reference,
        "the kill-restart run must reproduce the uninterrupted digest bit-for-bit"
    );
    println!("chaos-kill digest: {kill_digest:#018x}");
    println!(
        "chaos-kill: SIGKILL mid-run + recovery from checkpoint/journal \
         reproduced the in-process digest"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&socket);
}
