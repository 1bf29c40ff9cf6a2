//! Layer measurements the shadow exchange cannot make in one thread: frames
//! over a real socket pair, the pool's fan-out against an inline call, the
//! journal read back from a crashed directory, and the mirror gradient.

use crate::stats::{median, median_ns};
use crate::workload::{Fleet, Workload, BATCH};
use bytes::Bytes;
use fleet_data::sampling::MiniBatchSampler;
use fleet_durability::{DurabilityOptions, DurableStore, EventKind};
use fleet_ml::kernels::add_scaled;
use fleet_server::decode_checkpoint;
use fleet_transport::frame::{read_frame, write_frame};
use fleet_transport::{FrameKind, MAX_FRAME_LEN};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

/// Median time of `write_frame` and of `read_frame` on a connected Unix
/// socket pair, for each sampled payload, summed over the payloads: the
/// socket time of the four frames of one task, in µs `(write, read)`.
///
/// The peer thread streams the other direction (it reads while this thread
/// writes and the reverse), so a frame larger than the socket buffer is
/// timed as the pipelined transfer it is on a live connection.
pub fn frame_socket_us(samples: &[(FrameKind, Vec<u8>)]) -> (f64, f64) {
    let mut write_us = 0.0;
    let mut read_us = 0.0;
    for (kind, payload) in samples {
        let reps = ((1usize << 24) / payload.len().max(1)).clamp(24, 400);
        let (mut near, mut far) = UnixStream::pair().expect("socket pair");
        let (writes, reads) = std::thread::scope(|scope| {
            let peer = scope.spawn(move || {
                for _ in 0..reps {
                    read_frame(&mut far, MAX_FRAME_LEN).expect("peer read");
                }
                for _ in 0..reps {
                    write_frame(&mut far, *kind, payload).expect("peer write");
                }
            });
            let mut writes = Vec::with_capacity(reps);
            for _ in 0..reps {
                let started = Instant::now();
                write_frame(&mut near, *kind, payload).expect("write");
                writes.push(started.elapsed().as_nanos() as u64);
            }
            let mut reads = Vec::with_capacity(reps);
            for _ in 0..reps {
                let started = Instant::now();
                read_frame(&mut near, MAX_FRAME_LEN).expect("read");
                reads.push(started.elapsed().as_nanos() as u64);
            }
            peer.join().expect("peer thread");
            (writes, reads)
        });
        write_us += median_ns(&writes) / 1e3;
        read_us += median_ns(&reads) / 1e3;
    }
    (write_us, read_us)
}

/// `out = a + f·b` over a parameter-vector-sized buffer — the shape of the
/// core's apply — once through `parallel_chunks_mut` and once as one inline
/// call: `(fanout_us, inline_us)`, medians of 200.
pub fn fanout_vs_inline_us(parameters: usize) -> (f64, f64) {
    let a: Vec<f32> = (0..parameters).map(|i| i as f32 * 1e-3).collect();
    let b: Vec<f32> = (0..parameters).map(|i| 1.0 - i as f32 * 1e-3).collect();
    let mut out = vec![0.0f32; parameters];
    let mut fanout = Vec::with_capacity(200);
    let mut inline = Vec::with_capacity(200);
    for _ in 0..200 {
        let started = Instant::now();
        fleet_parallel::parallel_chunks_mut(&mut out, 1, |first, chunk| {
            let range = first..first + chunk.len();
            add_scaled(&a[range.clone()], &b[range], 0.5, chunk);
        });
        fanout.push(started.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(&mut out);
        let started = Instant::now();
        add_scaled(&a, &b, 0.5, &mut out);
        inline.push(started.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(&mut out);
    }
    (median(&mut fanout), median(&mut inline))
}

/// Reads a crashed durable directory back the way `TransportServer::bind`
/// does, timing the two halves: `DurableStore::open` (scan, checkpoint
/// container decode, journal read) and the replay of the journal tail
/// through the live wire entry points. Returns `(open_us, replay_us per
/// record, records)`; works on a copy, since opening may truncate a torn
/// tail.
pub fn recovery_halves(workload: &Workload, parameters: &[f32], crashed: &Path) -> (f64, f64, u64) {
    let copy = crashed.with_extension("read");
    crate::serve::copy_dir(crashed, &copy).expect("copy the crashed directory");
    let options = DurabilityOptions::new(copy);
    let started = Instant::now();
    let (_store, recovered) = DurableStore::open(&options).expect("open the crashed directory");
    let open_us = started.elapsed().as_nanos() as f64 / 1e3;

    let mut server = workload.new_server(parameters);
    if let Some(doc) = &recovered.checkpoint {
        server.restore_checkpoint(decode_checkpoint(doc.payload.clone()).expect("own checkpoint"));
    }
    let started = Instant::now();
    for record in &recovered.records {
        let payload: Bytes = record.payload.clone();
        match record.kind {
            EventKind::Request => drop(server.handle_request_wire(payload).expect("own journal")),
            EventKind::Result => drop(server.handle_result_wire(payload).expect("own journal")),
            EventKind::Reclaim => {}
        }
    }
    let records = recovered.records.len() as u64;
    let replay_us = started.elapsed().as_nanos() as f64 / 1e3 / records.max(1) as f64;
    (open_us, replay_us, records)
}

/// A mirror `Sequential` computing the gradient of each worker's first
/// batch: the same sampler seed and local indices the worker has, so the
/// same batch. Returns the median µs per gradient over the fleet's first
/// `count` workers.
pub fn mirror_gradient_us(workload: &Workload, fleet: &Fleet, seed: u64, count: usize) -> f64 {
    let mut model = workload.model.build();
    let mut took = Vec::with_capacity(count);
    for (index, local) in fleet.partitions.iter().enumerate().take(count) {
        let mut sampler = MiniBatchSampler::new(crate::workload::sampler_seed(seed, index));
        let (inputs, labels) = fleet.dataset.batch(&sampler.sample(local, BATCH));
        let started = Instant::now();
        std::hint::black_box(
            model
                .compute_gradient(&inputs, &labels)
                .expect("mirror batch"),
        );
        took.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&mut took)
}
