//! Binary checkpoint codec for the FLeet server.
//!
//! Serialises a [`FleetServerState`] — parameters, vector clocks, per-shard
//! pending buffers, aggregator + I-Prof state, controller counters and the
//! lease table — with the same idiom as [`crate::wire`]:
//! a one-byte version tag, `u32` little-endian length prefixes bounded by
//! [`MAX_FIELD_LEN`](crate::wire::MAX_FIELD_LEN), raw little-endian scalars.
//! A checkpoint taken mid-run and restored into a freshly constructed server
//! resumes bit-identically (see `server::tests::checkpoint_restore_resumes_bitwise`
//! and its per-shard sibling, and `crates/transport/tests/durability_restart.rs`
//! for the same through the on-disk journal and checkpoint).
//!
//! As in [`crate::wire`], each section is written down twice and nowhere
//! else. Every `put_*` writes into a `wire::Sink` and binds its state with an
//! exhaustive struct pattern, and [`encode_checkpoint`] measures the whole
//! checkpoint before it allocates; every `get_*` reads through the wire's
//! checked getters and ends in a struct literal. A state field added and
//! forgotten on either side is a compile error, not a checkpoint that
//! silently drops it. The one size kept by hand is each element's smallest
//! encoding, passed to `get_counted`, which bounds an untrusted count by
//! the bytes left before the count sizes an allocation.
//!
//! Version history. v1: the aggregator's staleness history as every observed
//! value, in observation order. v2: the same history as ascending
//! `(value, count)` pairs, so the section stops growing with uptime. v3
//! dropped seven fields no restore reads: the applied counts, pending count
//! and clock (derived), the last submit's staleness and weights, each
//! lease's issue round, and the completed ids (8 B per applied result). v4
//! (what [`encode_checkpoint`] writes, and the only version
//! [`decode_checkpoint`] reads) records in each lease the model version,
//! read clock and device model a result is weighed by, and drops the
//! per-worker device-model section, which grew with every worker ever seen.
//! A v1–v3 lease has no model version, so those versions no longer decode.

#![deny(unused_variables)]

use crate::controller::ControllerCounters;
use crate::server::FleetServerState;
use crate::tasks::{Lease, TaskTableState};
use crate::wire::{
    encode, get_f32, get_flag, get_len, get_string, get_u64, get_u8, get_vec, need, Sink, WireError,
};
use bytes::Bytes;
use fleet_core::{AggregatorState, ParameterServerState};
use fleet_profiler::{IProfState, SlopePredictorState};

/// Checkpoint format version written by [`encode_checkpoint`].
const CHECKPOINT_VERSION: u8 = 4;

/// Reads an element count, checks that `count` elements of at least
/// `min_encoded` bytes each are still in the buffer, then decodes them with
/// `get`. A count comes from untrusted bytes; only after this check may it
/// size the allocation.
fn get_counted<T>(
    buf: &mut Bytes,
    min_encoded: usize,
    mut get: impl FnMut(&mut Bytes) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = get_len(buf)?;
    need(buf, count.saturating_mul(min_encoded))?;
    let mut elements = Vec::with_capacity(count);
    for _ in 0..count {
        elements.push(get(buf)?);
    }
    Ok(elements)
}

fn put_server_state(s: &mut Sink, state: &ParameterServerState) {
    let ParameterServerState {
        parameters,
        shard_pending,
        shard_clocks,
        updates_received,
        aggregator:
            AggregatorState {
                staleness_counts,
                label_counts,
            },
    } = state;
    s.put_vec(parameters, f32::to_le_bytes);
    s.put_len(shard_pending.len());
    for pending in shard_pending {
        s.put_len(pending.len());
        for segment in pending {
            s.put_vec(segment, f32::to_le_bytes);
        }
    }
    s.put_vec(shard_clocks, u64::to_le_bytes);
    s.put_u64(*updates_received);
    s.put_len(staleness_counts.len());
    for &(value, count) in staleness_counts {
        s.put_u64(value);
        s.put_u64(count);
    }
    s.put_vec(label_counts, u64::to_le_bytes);
}

/// Reads the staleness history, accepting only the form the tracker
/// exports (ascending distinct values, non-zero counts) so that a decoded
/// checkpoint re-encodes to the same bytes, and only counts whose total fits
/// the tracker's `u64`.
fn get_staleness_counts(buf: &mut Bytes) -> Result<Vec<(u64, u64)>, WireError> {
    let counts = get_counted(buf, 16, |buf| Ok((get_u64(buf)?, get_u64(buf)?)))?;
    if counts.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(WireError::Malformed("staleness values not ascending"));
    }
    if counts.iter().any(|&(_, count)| count == 0) {
        return Err(WireError::Malformed("staleness count of zero"));
    }
    counts
        .iter()
        .try_fold(0u64, |total, &(_, count)| total.checked_add(count))
        .ok_or(WireError::Malformed("staleness counts overflow u64"))?;
    Ok(counts)
}

fn get_server_state(buf: &mut Bytes) -> Result<ParameterServerState, WireError> {
    let parameters = get_vec(buf, f32::from_le_bytes)?;
    // Smallest shard: its segment count. Smallest segment: its length prefix.
    let shard_pending = get_counted(buf, 4, |buf| {
        get_counted(buf, 4, |buf| get_vec(buf, f32::from_le_bytes))
    })?;
    let shard_clocks = get_vec(buf, u64::from_le_bytes)?;
    let updates_received = get_u64(buf)?;
    let staleness_counts = get_staleness_counts(buf)?;
    let label_counts = get_vec(buf, u64::from_le_bytes)?;
    Ok(ParameterServerState {
        parameters,
        shard_pending,
        shard_clocks,
        updates_received,
        aggregator: AggregatorState {
            staleness_counts,
            label_counts,
        },
    })
}

fn put_predictor_state(s: &mut Sink, state: &SlopePredictorState) {
    let SlopePredictorState {
        global,
        personal,
        calibration,
        seen_range,
        since_retrain,
    } = state;
    s.put_vec(global, f32::to_le_bytes);
    s.put_len(personal.len());
    for (model, theta, updates) in personal {
        s.put_str(model);
        s.put_vec(theta, f32::to_le_bytes);
        s.put_u64(*updates);
    }
    s.put_len(calibration.len());
    for (features, slope) in calibration {
        s.put_vec(features, f32::to_le_bytes);
        s.put_f32(*slope);
    }
    s.put_u8(seen_range.is_some() as u8);
    if let Some((lo, hi)) = *seen_range {
        s.put_f32(lo);
        s.put_f32(hi);
    }
    s.put_u64(*since_retrain);
}

fn get_predictor_state(buf: &mut Bytes) -> Result<SlopePredictorState, WireError> {
    let global = get_vec(buf, f32::from_le_bytes)?;
    // Smallest entry: empty model string, empty theta, the update count.
    let personal = get_counted(buf, 4 + 4 + 8, |buf| {
        let model = get_string(buf)?;
        let theta = get_vec(buf, f32::from_le_bytes)?;
        Ok((model, theta, get_u64(buf)?))
    })?;
    // Smallest sample: empty feature vector plus the slope.
    let calibration = get_counted(buf, 4 + 4, |buf| {
        Ok((get_vec(buf, f32::from_le_bytes)?, get_f32(buf)?))
    })?;
    let seen_range = if get_flag(buf, "seen_range flag")? {
        Some((get_f32(buf)?, get_f32(buf)?))
    } else {
        None
    };
    let since_retrain = get_u64(buf)?;
    Ok(SlopePredictorState {
        global,
        personal,
        calibration,
        seen_range,
        since_retrain,
    })
}

fn put_task_table_state(s: &mut Sink, state: &TaskTableState) {
    let TaskTableState {
        next_id,
        outstanding,
        expired,
    } = state;
    s.put_u64(*next_id);
    s.put_len(outstanding.len());
    for (id, lease) in outstanding {
        let Lease {
            worker_id,
            deadline_round,
            model_version,
            read_clock,
            device_model,
        } = lease;
        s.put_u64(*id);
        s.put_u64(*worker_id);
        s.put_u64(*deadline_round);
        s.put_u64(*model_version);
        s.put_u8(read_clock.is_some() as u8);
        if let Some(read_clock) = read_clock {
            s.put_vec(read_clock, u64::to_le_bytes);
        }
        s.put_str(device_model);
    }
    s.put_vec(expired, u64::to_le_bytes);
}

fn get_task_table_state(buf: &mut Bytes) -> Result<TaskTableState, WireError> {
    let next_id = get_u64(buf)?;
    // Smallest lease: four `u64`s, the read-clock flag and an empty device
    // model.
    let outstanding = get_counted(buf, 4 * 8 + 1 + 4, |buf| {
        let id = get_u64(buf)?;
        let lease = Lease {
            worker_id: get_u64(buf)?,
            deadline_round: get_u64(buf)?,
            model_version: get_u64(buf)?,
            read_clock: get_flag(buf, "lease read-clock flag")?
                .then(|| get_vec(buf, u64::from_le_bytes).map(Vec::into_boxed_slice))
                .transpose()?,
            device_model: get_string(buf)?,
        };
        Ok((id, lease))
    })?;
    let expired = get_vec(buf, u64::from_le_bytes)?;
    Ok(TaskTableState {
        next_id,
        outstanding,
        expired,
    })
}

/// Encodes a [`FleetServerState`] checkpoint into bytes.
///
/// # Panics
///
/// Panics if a variable-length field exceeds
/// [`MAX_FIELD_LEN`](crate::wire::MAX_FIELD_LEN); such a checkpoint could
/// never be decoded.
pub fn encode_checkpoint(state: &FleetServerState) -> Bytes {
    let FleetServerState {
        parameter_server,
        iprof: IProfState { latency, energy },
        controller:
            ControllerCounters {
                accepted,
                rejected_size,
                rejected_similarity,
                rejected_overload,
            },
        tasks,
    } = state;
    encode(|s| {
        s.put_u8(CHECKPOINT_VERSION);
        put_server_state(s, parameter_server);
        put_predictor_state(s, latency);
        put_predictor_state(s, energy);
        for counter in [
            accepted,
            rejected_size,
            rejected_similarity,
            rejected_overload,
        ] {
            s.put_u64(*counter);
        }
        put_task_table_state(s, tasks);
    })
}

/// Decodes a checkpoint produced by [`encode_checkpoint`].
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, has an unknown
/// version byte, or contains malformed fields.
pub fn decode_checkpoint(mut buf: Bytes) -> Result<FleetServerState, WireError> {
    let version = get_u8(&mut buf)?;
    if version != CHECKPOINT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let parameter_server = get_server_state(&mut buf)?;
    let latency = get_predictor_state(&mut buf)?;
    let energy = get_predictor_state(&mut buf)?;
    let controller = ControllerCounters {
        accepted: get_u64(&mut buf)?,
        rejected_size: get_u64(&mut buf)?,
        rejected_similarity: get_u64(&mut buf)?,
        rejected_overload: get_u64(&mut buf)?,
    };
    let tasks = get_task_table_state(&mut buf)?;
    Ok(FleetServerState {
        parameter_server,
        iprof: IProfState { latency, energy },
        controller,
        tasks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ResultDisposition, TaskResponse};

    fn sample_state() -> FleetServerState {
        FleetServerState {
            parameter_server: ParameterServerState {
                parameters: vec![0.5, -1.25, 3.0],
                shard_pending: vec![vec![vec![0.1, 0.2]], vec![], vec![vec![-0.5]]],
                shard_clocks: vec![4, 0, 7],
                updates_received: 12,
                aggregator: AggregatorState {
                    staleness_counts: vec![(0, 1), (1, 2), (2, 1)],
                    label_counts: vec![5, 0, 9],
                },
            },
            iprof: IProfState {
                latency: SlopePredictorState {
                    global: vec![0.01, 0.02, 0.0, 0.0, 0.0, 0.1],
                    personal: vec![
                        ("pixel-3".into(), vec![0.5; 6], 3),
                        ("s10".into(), vec![-0.25; 6], 1),
                    ],
                    calibration: vec![(vec![1.0; 6], 0.07)],
                    seen_range: Some((0.01, 0.4)),
                    since_retrain: 17,
                },
                energy: SlopePredictorState {
                    global: vec![0.3; 6],
                    personal: vec![],
                    calibration: vec![],
                    seen_range: None,
                    since_retrain: 0,
                },
            },
            controller: ControllerCounters {
                accepted: 40,
                rejected_size: 3,
                rejected_similarity: 2,
                rejected_overload: 5,
            },
            tasks: TaskTableState {
                next_id: 9,
                outstanding: vec![
                    (
                        7,
                        Lease {
                            worker_id: 2,
                            deadline_round: 16,
                            model_version: 11,
                            read_clock: Some(vec![4, 0, 7].into()),
                            device_model: "pixel-3".into(),
                        },
                    ),
                    (
                        8,
                        Lease {
                            worker_id: 4,
                            deadline_round: 17,
                            model_version: 12,
                            read_clock: None,
                            device_model: "s10".into(),
                        },
                    ),
                ],
                expired: vec![4, 6],
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let state = sample_state();
        let decoded = decode_checkpoint(encode_checkpoint(&state)).expect("roundtrip");
        assert_eq!(decoded, state);
    }

    /// Golden vector of the current (v4) encoding.
    #[test]
    fn golden_bytes_of_the_sample_checkpoint() {
        assert_eq!(
            crate::wire::hex(&encode_checkpoint(&sample_state())),
            "04030000000000003f0000a0bf00004040030000000100000002000000cdcccc3dcdcc4c3e000000000100000001000000000000bf030000000400000000000000000000000000000007000000000000000c000000000000000300000000000000000000000100000000000000010000000000000002000000000000000200000000000000010000000000000003000000050000000000000000000000000000000900000000000000060000000ad7233c0ad7a33c000000000000000000000000cdcccc3d0200000007000000706978656c2d33060000000000003f0000003f0000003f0000003f0000003f0000003f03000000000000000300000073313006000000000080be000080be000080be000080be000080be000080be010000000000000001000000060000000000803f0000803f0000803f0000803f0000803f0000803f295c8f3d010ad7233ccdcccc3e1100000000000000060000009a99993e9a99993e9a99993e9a99993e9a99993e9a99993e000000000000000000000000000000000028000000000000000300000000000000020000000000000005000000000000000900000000000000020000000700000000000000020000000000000010000000000000000b00000000000000010300000004000000000000000000000000000000070000000000000007000000706978656c2d330800000000000000040000000000000011000000000000000c0000000000000000030000007331300200000004000000000000000600000000000000"
        );
    }

    /// The lease table's section follows the open and reclaimed leases, not
    /// the results applied: with none outstanding it is as long after 1 000
    /// applied results as after 100.
    #[test]
    fn task_table_section_does_not_grow_with_applied_results() {
        let (mut server, mut workers, _) = crate::server::tests::build_world(1);
        let mut lens = Vec::new();
        for applied in 1..=1000 {
            let TaskResponse::Assignment(assignment) = server.handle_request(&workers[0].request())
            else {
                panic!("the permissive controller rejected task {applied}");
            };
            let result = workers[0].execute(&assignment).expect("execute");
            let ack = server.handle_result(result);
            assert_eq!(ack.disposition, ResultDisposition::Applied);
            if applied == 100 || applied == 1000 {
                let tasks = server.checkpoint().tasks;
                assert!(tasks.outstanding.is_empty() && tasks.expired.is_empty());
                lens.push(encode(|s| put_task_table_state(s, &tasks)).len());
            }
        }
        assert_eq!(lens[0], lens[1]);
    }

    /// The checkpoint holds no per-worker table: 64 tasks from one worker
    /// and one task each from 64 workers of the same device model give
    /// checkpoints of one length.
    #[test]
    fn checkpoint_does_not_grow_with_distinct_workers() {
        let checkpoint_len = |worker_ids: &[u64]| {
            let (mut server, mut workers, _) = crate::server::tests::build_world(1);
            for &worker_id in worker_ids {
                let mut request = workers[0].request();
                request.worker_id = worker_id;
                let TaskResponse::Assignment(assignment) = server.handle_request(&request) else {
                    panic!("the permissive controller rejected worker {worker_id}");
                };
                let mut result = workers[0].execute(&assignment).expect("execute");
                result.worker_id = worker_id;
                let ack = server.handle_result(result);
                assert_eq!(ack.disposition, ResultDisposition::Applied);
            }
            encode_checkpoint(&server.checkpoint()).len()
        };
        let distinct: Vec<u64> = (0..64).collect();
        assert_eq!(checkpoint_len(&[0; 64]), checkpoint_len(&distinct));
    }

    #[test]
    fn non_canonical_staleness_counts_are_rejected() {
        for (counts, error) in [
            (vec![(1, 2), (0, 1)], "staleness values not ascending"),
            (vec![(1, 1), (1, 1)], "staleness values not ascending"),
            (vec![(3, 0)], "staleness count of zero"),
            (vec![(0, u64::MAX), (1, 1)], "staleness counts overflow u64"),
        ] {
            let mut state = sample_state();
            state.parameter_server.aggregator.staleness_counts = counts;
            assert_eq!(
                decode_checkpoint(encode_checkpoint(&state)),
                Err(WireError::Malformed(error))
            );
        }
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let state = FleetServerState {
            parameter_server: ParameterServerState {
                parameters: vec![0.0],
                shard_pending: vec![vec![]],
                shard_clocks: vec![0],
                updates_received: 0,
                aggregator: AggregatorState::default(),
            },
            iprof: IProfState::default(),
            controller: ControllerCounters::default(),
            tasks: TaskTableState::default(),
        };
        let decoded = decode_checkpoint(encode_checkpoint(&state)).expect("roundtrip");
        assert_eq!(decoded, state);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut raw = encode_checkpoint(&sample_state()).to_vec();
        raw[0] = 99;
        assert_eq!(
            decode_checkpoint(Bytes::from(raw)),
            Err(WireError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn truncation_errors_at_every_offset() {
        let encoded = encode_checkpoint(&sample_state());
        for len in 0..encoded.len() {
            let truncated = encoded.slice(0..len);
            assert!(
                decode_checkpoint(truncated).is_err(),
                "prefix of length {len} decoded successfully"
            );
        }
    }

    #[test]
    fn bad_seen_range_flag_is_rejected() {
        let state = sample_state();
        let encoded = encode_checkpoint(&state).to_vec();
        // Locate the latency predictor's seen-range flag byte (value 1,
        // followed by the two range floats and since_retrain = 17).
        let needle_pos = encoded
            .windows(9)
            .position(|w| {
                w[0] == 1 && w[1..5] == 0.01f32.to_le_bytes() && w[5..9] == 0.4f32.to_le_bytes()
            })
            .expect("seen-range flag present");
        let mut raw = encoded;
        raw[needle_pos] = 7;
        assert_eq!(
            decode_checkpoint(Bytes::from(raw)),
            Err(WireError::Malformed("seen_range flag"))
        );
    }
}
