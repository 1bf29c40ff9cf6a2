//! The bulk data path's copy budget, held as a *count*: bytes the allocator
//! hands out per byte that crosses the wire. A timing would need a quiet
//! host; an allocation count repeats exactly, so tier-1 can hold the line
//! the benchmark measured — a message body is allocated once per hop that
//! changes its representation, and never to satisfy a type.
//!
//! The counting allocator is this binary's `#[global_allocator]`, which is
//! why the checkpoint-count hardening test lives here too: it asserts what a
//! hostile checkpoint can make the decoder *reserve*, not only what the
//! decoder returns.

#[expect(
    dead_code,
    reason = "shares the other suites' world-building helpers but compares no model digests"
)]
mod common;

use bytes::{Buf, Bytes};
use common::{base_config, build_workers, fresh_server, uds_endpoint};
use fleet_ml::Gradient;
use fleet_server::protocol::{TaskAssignment, TaskResponse, TaskResult};
use fleet_server::wire::{self, MAX_FIELD_LEN};
use fleet_server::{decode_checkpoint, encode_checkpoint, FleetServer, ResultDisposition};
use fleet_transport::{TransportConfig, TransportServer, WorkerClient};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bytes handed out process-wide (a statistic: `Relaxed` publishes nothing).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes handed out to the current thread — exact whatever the test
    /// harness's other threads are doing. Const-initialised and without a
    /// destructor, so touching it from inside the allocator neither
    /// allocates nor registers TLS teardown.
    static ALLOCATED_HERE: Cell<u64> = const { Cell::new(0) };
}

/// `System`, plus a count of the bytes requested: whole allocations, and the
/// growth of reallocations.
struct Counting;

fn count(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = ALLOCATED_HERE.try_with(|here| here.set(here.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serialises the tests of this binary: the process-wide counter must see
/// one test's traffic at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn allocated_here() -> u64 {
    ALLOCATED_HERE.with(Cell::get)
}

/// 2^18 + 19 parameters: a gradient just over 1 MiB, not a multiple of any
/// block size on the path.
const PARAMETERS: usize = (1 << 18) + 19;

#[test]
fn views_of_a_body_allocate_nothing() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let body = Bytes::from(vec![7u8; 4 * PARAMETERS]);
    let before = allocated_here();
    let clone = body.clone();
    let slice = body.slice(5..4 * PARAMETERS - 3);
    let mut cursor = body.clone();
    let head = cursor.copy_to_bytes(1 << 20);
    assert_eq!(
        allocated_here() - before,
        0,
        "clone, slice and copy_to_bytes share the body's one allocation"
    );
    assert_eq!(
        (clone.len(), slice.len(), head.len(), cursor.len()),
        (4 * PARAMETERS, 4 * PARAMETERS - 8, 1 << 20, 76)
    );
}

/// A server with history in every table the checkpoint carries: applied
/// results (personal models, calibration samples), an outstanding lease and
/// two routed workers.
fn lived_in_server() -> FleetServer {
    let mut server = fresh_server(base_config());
    let mut workers = build_workers(2);
    for round in 0..3 {
        for worker in &mut workers {
            match server.handle_request(&worker.request()) {
                TaskResponse::Assignment(assignment) if round < 2 => {
                    server.handle_result(worker.execute(&assignment).expect("execute"));
                }
                // The last round's leases stay outstanding.
                _ => {}
            }
        }
    }
    server
}

#[test]
fn inflated_checkpoint_counts_fail_before_they_reserve() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let state = lived_in_server().checkpoint();
    let valid = encode_checkpoint(&state).to_vec();

    // Walk the layout to the offset of every element *count* (the length
    // prefixes of scalar vectors were always checked against the bytes
    // present; these sized a `Vec::with_capacity` unchecked).
    let f32s = |len: usize| 4 + 4 * len;
    let u64s = |len: usize| 4 + 8 * len;
    let server = &state.parameter_server;
    let mut counts = Vec::new();
    let mut at = 1 + f32s(server.parameters.len());
    counts.push(("shard_count", at));
    at += 4;
    for pending in &server.shard_pending {
        counts.push(("segments", at));
        at += 4 + pending.iter().map(|s| f32s(s.len())).sum::<usize>();
    }
    at += u64s(server.shard_clocks.len()) + 8;
    counts.push(("staleness_pairs", at));
    at += 4
        + 16 * server.aggregator.staleness_counts.len()
        + u64s(server.aggregator.label_counts.len());
    for predictor in [&state.iprof.latency, &state.iprof.energy] {
        at += f32s(predictor.global.len());
        counts.push(("personal_count", at));
        at += 4 + predictor
            .personal
            .iter()
            .map(|(model, theta, _)| 4 + model.len() + f32s(theta.len()) + 8)
            .sum::<usize>();
        counts.push(("calibration_count", at));
        at += 4 + predictor
            .calibration
            .iter()
            .map(|(features, _)| f32s(features.len()) + 4)
            .sum::<usize>();
        at += 1 + predictor.seen_range.map_or(0, |_| 8) + 8;
    }
    at += 4 * 8 + 8;
    counts.push(("outstanding_count", at));
    // Each lease: id, worker, deadline, model version, the read-clock flag
    // and clock, the device model.
    at += 4
        + state
            .tasks
            .outstanding
            .iter()
            .map(|(_, lease)| {
                4 * 8
                    + 1
                    + lease.read_clock.as_ref().map_or(0, |c| u64s(c.len()))
                    + 4
                    + lease.device_model.len()
            })
            .sum::<usize>()
        + u64s(state.tasks.expired.len());
    assert_eq!(at, valid.len(), "the walk covers the whole checkpoint");
    assert!(
        !state.tasks.outstanding.is_empty()
            && !state.iprof.latency.personal.is_empty()
            && !server.aggregator.staleness_counts.is_empty(),
        "the sample exercises the tables"
    );

    for (field, at) in counts {
        let mut raw = valid.clone();
        raw[at..at + 4].copy_from_slice(&(MAX_FIELD_LEN as u32).to_le_bytes());
        let raw = Bytes::from(raw);
        let before = allocated_here();
        let outcome = decode_checkpoint(raw);
        let reserved = allocated_here() - before;
        assert!(outcome.is_err(), "{field} at {at}: inflated count decoded");
        // What a decoder may allocate is bounded by what it was given: the
        // fields before the count, plus at most one `Vec` header per
        // smallest-possible element still in the buffer.
        assert!(
            reserved <= 8 * valid.len() as u64,
            "{field} at {at}: {reserved} bytes reserved for a {}-byte checkpoint",
            valid.len()
        );
    }
}

#[test]
fn an_exchange_allocates_a_body_once_per_hop() {
    const TASKS: u64 = 6;
    // Allocated bytes per wire byte. Each direction's body is legitimately
    // materialised at: encode, the receiver's frame buffer, decode — 6
    // bodies for the 2 on the wire, 3.0. The model goes out as the server's
    // published body, encoded once per version (here every task applies, so
    // once per task) and never copied into the assignment. The
    // copy-per-hand-off path of the first socket transport spent 16 (8.0),
    // and the assignment's own copy of the model 7 (3.5).
    const BUDGET: f64 = 3.3;

    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = TransportServer::bind(
        &uds_endpoint("copy-budget"),
        FleetServer::new(vec![0.0; PARAMETERS], base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let mut client = WorkerClient::new(server.endpoint().clone());
    let request = build_workers(1).remove(0).request();
    let mut result = TaskResult {
        worker_id: request.worker_id,
        model_version: 0,
        gradient: Gradient::from_vec(vec![1e-4; PARAMETERS]),
        label_distribution: request.label_distribution.clone(),
        num_samples: 16,
        computation_seconds: 0.5,
        energy_pct: 0.01,
        read_clock: None,
        task_id: None,
    };
    let mut exchange = |result: &mut TaskResult| {
        let TaskResponse::Assignment(assignment) = client.request(&request).expect("request")
        else {
            panic!("the permissive config assigns every request");
        };
        result.task_id = Some(assignment.task_id);
        result.model_version = assignment.model_version;
        let ack = client.submit(result).expect("submit");
        assert_eq!(ack.disposition, ResultDisposition::Applied);
        (assignment, ack)
    };

    // Unmeasured: connect, size the server's tables, learn the wire size.
    let (assignment, ack) = exchange(&mut result);
    let wire_bytes = (wire::encode_request(&request).len()
        + wire::encode_response(&TaskResponse::Assignment(assignment)).len()
        + wire::encode_result(&result).len()
        + wire::encode_ack(&ack).len()) as u64;
    assert!(wire_bytes > 2 << 20, "two bodies of over 1 MiB per task");

    let before = ALLOCATED.load(Ordering::Relaxed);
    for _ in 0..TASKS {
        exchange(&mut result);
    }
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    server.shutdown().expect("shutdown");

    let per_wire_byte = allocated as f64 / (TASKS * wire_bytes) as f64;
    assert!(
        per_wire_byte <= BUDGET,
        "{per_wire_byte:.2} bytes allocated per wire byte ({allocated} over {TASKS} tasks of \
         {wire_bytes} wire bytes); the budget is {BUDGET}"
    );
}

/// Bytes allocated by every thread but this one while `f` runs: with the
/// client on this thread, what the server's threads allocated.
fn allocated_elsewhere(f: impl FnOnce()) -> u64 {
    let (everywhere, here) = (ALLOCATED.load(Ordering::Relaxed), allocated_here());
    f();
    (ALLOCATED.load(Ordering::Relaxed) - everywhere) - (allocated_here() - here)
}

#[test]
fn a_second_assignment_of_a_version_allocates_no_body_on_the_server() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = TransportServer::bind(
        &uds_endpoint("copy-budget-shared"),
        FleetServer::new(vec![0.0; PARAMETERS], base_config()),
        TransportConfig::default(),
    )
    .expect("bind");
    let mut client = WorkerClient::new(server.endpoint().clone());
    let request = build_workers(1).remove(0).request();
    let body = 4 * PARAMETERS as u64;
    let mut assign = || {
        let TaskResponse::Assignment(assignment) = client.request(&request).expect("request")
        else {
            panic!("the permissive config assigns every request");
        };
        assignment
    };
    let result_for = |assignment: &TaskAssignment| TaskResult {
        worker_id: request.worker_id,
        model_version: assignment.model_version,
        gradient: Gradient::from_vec(vec![1e-4; PARAMETERS]),
        label_distribution: request.label_distribution.clone(),
        num_samples: 16,
        computation_seconds: 0.5,
        energy_pct: 0.01,
        read_clock: None,
        task_id: Some(assignment.task_id),
    };

    let mut submitter = WorkerClient::new(server.endpoint().clone());
    let mut submit = |assignment: &TaskAssignment| {
        let ack = submitter.submit(&result_for(assignment)).expect("submit");
        assert_eq!(ack.disposition, ResultDisposition::Applied);
    };

    // Unmeasured: connect, size the server's tables, move the model.
    submit(&assign());
    // Two requests between two applies: both are handed the new version.
    let mut assignments = Vec::new();
    let mut measured = Vec::new();
    for _ in 0..2 {
        measured.push(allocated_elsewhere(|| assignments.push(assign())));
    }
    assignments.iter().for_each(&mut submit);
    server.shutdown().expect("shutdown");

    assert_eq!(assignments[0].model_version, assignments[1].model_version);
    assert_eq!(
        assignments[0].model_parameters,
        assignments[1].model_parameters
    );
    let [publishing, sharing] = measured[..] else {
        unreachable!("two measured requests")
    };
    assert!(
        publishing >= body,
        "the first request of a version publishes it: {publishing} bytes for a {body}-byte model"
    );
    assert!(
        sharing < body / 16,
        "the second request of a version allocated {sharing} bytes on the server; \
         its {body}-byte model was already encoded"
    );
}
