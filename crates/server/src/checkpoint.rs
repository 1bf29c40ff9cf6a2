//! Binary checkpoint codec for the FLeet server.
//!
//! Serialises a [`FleetServerState`] — parameters, vector clocks, per-shard
//! pending buffers, aggregator + I-Prof state, controller counters, the lease
//! table and the worker routing map — with the same idiom as [`crate::wire`]:
//! a one-byte version tag, `u32` little-endian length prefixes bounded by
//! [`MAX_FIELD_LEN`](crate::wire::MAX_FIELD_LEN), raw little-endian scalars.
//! A checkpoint taken mid-run and restored into a freshly constructed server
//! resumes bit-identically (see `server::tests::checkpoint_restore_resumes_bitwise`
//! and its per-shard sibling, and `crates/transport/tests/durability_restart.rs`
//! for the same through the on-disk journal and checkpoint).
//!
//! As in [`crate::wire`], every `put_*`/`encode_*` binds its state with an
//! exhaustive struct pattern and every `get_*`/`decode_*` ends in a struct
//! literal: a state field added and forgotten on either side is a compile
//! error, not a checkpoint that silently drops it.
//!
//! Version history. v1: the aggregator's staleness history as every observed
//! value, in observation order. v2 (what [`encode_checkpoint`] writes): the
//! same history as ascending `(value, count)` pairs, so the section stops
//! growing with uptime. The decoder still reads v1, folding its values into
//! counts.

#![deny(unused_variables)]

use crate::controller::ControllerCounters;
use crate::server::FleetServerState;
use crate::tasks::TaskTableState;
use crate::wire::{
    checked_field_len, f32s_len, get_f32_vec, get_len, get_string, get_u64_vec, need,
    put_f32_slice, put_str, put_u64_slice, str_len, u64s_len, WireError,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fleet_core::{AggregatorState, ParameterServerState};
use fleet_profiler::{IProfState, SlopePredictorState};
use std::collections::BTreeMap;

/// Checkpoint format version written by [`encode_checkpoint`].
const CHECKPOINT_VERSION: u8 = 2;

/// The version that stored every observed staleness value; still decoded.
const CHECKPOINT_V1: u8 = 1;

/// Reads an element count and checks that `count` elements of at least
/// `min_encoded` bytes each are still in the buffer. A count comes from
/// untrusted bytes; only after this check may it size an allocation.
fn get_count(buf: &mut Bytes, min_encoded: usize) -> Result<usize, WireError> {
    let count = get_len(buf)?;
    need(buf, count.saturating_mul(min_encoded))?;
    Ok(count)
}

fn server_state_len(state: &ParameterServerState) -> usize {
    let pending: usize = state
        .shard_pending
        .iter()
        .map(|pending| 4 + pending.iter().map(|s| f32s_len(s.len())).sum::<usize>())
        .sum();
    f32s_len(state.parameters.len())
        + 4
        + pending
        + u64s_len(state.shard_clocks.len())
        + u64s_len(state.shard_applied.len())
        + 3 * 8
        + u64s_len(state.last_shard_staleness.len())
        + f32s_len(state.last_shard_weights.len())
        + 4
        + 16 * state.aggregator.staleness_counts.len()
        + u64s_len(state.aggregator.label_counts.len())
}

fn put_server_state(buf: &mut BytesMut, state: &ParameterServerState) {
    let ParameterServerState {
        parameters,
        shard_pending,
        shard_clocks,
        shard_applied,
        pending_count,
        clock,
        updates_received,
        last_shard_staleness,
        last_shard_weights,
        aggregator:
            AggregatorState {
                staleness_counts,
                label_counts,
            },
    } = state;
    put_f32_slice(buf, parameters);
    buf.put_u32_le(checked_field_len(shard_pending.len()));
    for pending in shard_pending {
        buf.put_u32_le(checked_field_len(pending.len()));
        for segment in pending {
            put_f32_slice(buf, segment);
        }
    }
    put_u64_slice(buf, shard_clocks);
    put_u64_slice(buf, shard_applied);
    buf.put_u64_le(*pending_count as u64);
    buf.put_u64_le(*clock);
    buf.put_u64_le(*updates_received);
    put_u64_slice(buf, last_shard_staleness);
    put_f32_slice(buf, last_shard_weights);
    buf.put_u32_le(checked_field_len(staleness_counts.len()));
    for &(value, count) in staleness_counts {
        buf.put_u64_le(value);
        buf.put_u64_le(count);
    }
    put_u64_slice(buf, label_counts);
}

/// Reads v2's staleness history, accepting only the form the tracker
/// exports (ascending distinct values, non-zero counts) so that a decoded
/// checkpoint re-encodes to the same bytes, and only counts whose total fits
/// the tracker's `u64`.
fn get_staleness_counts(buf: &mut Bytes) -> Result<Vec<(u64, u64)>, WireError> {
    let len = get_count(buf, 16)?;
    let mut counts: Vec<(u64, u64)> = Vec::with_capacity(len);
    let mut total = 0u64;
    for _ in 0..len {
        let (value, count) = (buf.get_u64_le(), buf.get_u64_le());
        if counts
            .last()
            .is_some_and(|&(previous, _)| previous >= value)
        {
            return Err(WireError::Malformed("staleness values not ascending"));
        }
        if count == 0 {
            return Err(WireError::Malformed("staleness count of zero"));
        }
        total = total
            .checked_add(count)
            .ok_or(WireError::Malformed("staleness counts overflow u64"))?;
        counts.push((value, count));
    }
    Ok(counts)
}

/// Folds v1's staleness history (every observed value) into v2's counts.
fn fold_staleness_values(values: Vec<u64>) -> Vec<(u64, u64)> {
    let mut counts = BTreeMap::new();
    for value in values {
        *counts.entry(value).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

fn get_server_state(buf: &mut Bytes, version: u8) -> Result<ParameterServerState, WireError> {
    let parameters = get_f32_vec(buf)?;
    // Smallest shard: its segment count. Smallest segment: its length prefix.
    let shard_count = get_count(buf, 4)?;
    let mut shard_pending = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let segments = get_count(buf, 4)?;
        let mut pending = Vec::with_capacity(segments);
        for _ in 0..segments {
            pending.push(get_f32_vec(buf)?);
        }
        shard_pending.push(pending);
    }
    let shard_clocks = get_u64_vec(buf)?;
    let shard_applied = get_u64_vec(buf)?;
    need(buf, 3 * 8)?;
    let pending_count = buf.get_u64_le() as usize;
    let clock = buf.get_u64_le();
    let updates_received = buf.get_u64_le();
    let last_shard_staleness = get_u64_vec(buf)?;
    let last_shard_weights = get_f32_vec(buf)?;
    let staleness_counts = if version == CHECKPOINT_V1 {
        fold_staleness_values(get_u64_vec(buf)?)
    } else {
        get_staleness_counts(buf)?
    };
    let label_counts = get_u64_vec(buf)?;
    Ok(ParameterServerState {
        parameters,
        shard_pending,
        shard_clocks,
        shard_applied,
        pending_count,
        clock,
        updates_received,
        last_shard_staleness,
        last_shard_weights,
        aggregator: AggregatorState {
            staleness_counts,
            label_counts,
        },
    })
}

fn predictor_state_len(state: &SlopePredictorState) -> usize {
    let personal: usize = state
        .personal
        .iter()
        .map(|(model, theta, _)| str_len(model) + f32s_len(theta.len()) + 8)
        .sum();
    let calibration: usize = state
        .calibration
        .iter()
        .map(|(features, _)| f32s_len(features.len()) + 4)
        .sum();
    f32s_len(state.global.len())
        + 4
        + personal
        + 4
        + calibration
        + 1
        + state.seen_range.map_or(0, |_| 2 * 4)
        + 8
}

fn put_predictor_state(buf: &mut BytesMut, state: &SlopePredictorState) {
    let SlopePredictorState {
        global,
        personal,
        calibration,
        seen_range,
        since_retrain,
    } = state;
    put_f32_slice(buf, global);
    buf.put_u32_le(checked_field_len(personal.len()));
    for (model, theta, updates) in personal {
        put_str(buf, model);
        put_f32_slice(buf, theta);
        buf.put_u64_le(*updates);
    }
    buf.put_u32_le(checked_field_len(calibration.len()));
    for (features, slope) in calibration {
        put_f32_slice(buf, features);
        buf.put_f32_le(*slope);
    }
    match *seen_range {
        Some((lo, hi)) => {
            buf.put_u8(1);
            buf.put_f32_le(lo);
            buf.put_f32_le(hi);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64_le(*since_retrain);
}

fn get_predictor_state(buf: &mut Bytes) -> Result<SlopePredictorState, WireError> {
    let global = get_f32_vec(buf)?;
    // Smallest entry: empty model string, empty theta, the update count.
    let personal_count = get_count(buf, 4 + 4 + 8)?;
    let mut personal = Vec::with_capacity(personal_count);
    for _ in 0..personal_count {
        let model = get_string(buf)?;
        let theta = get_f32_vec(buf)?;
        need(buf, 8)?;
        personal.push((model, theta, buf.get_u64_le()));
    }
    // Smallest sample: empty feature vector plus the slope.
    let calibration_count = get_count(buf, 4 + 4)?;
    let mut calibration = Vec::with_capacity(calibration_count);
    for _ in 0..calibration_count {
        let features = get_f32_vec(buf)?;
        need(buf, 4)?;
        calibration.push((features, buf.get_f32_le()));
    }
    need(buf, 1)?;
    let seen_range = match buf.get_u8() {
        0 => None,
        1 => {
            need(buf, 8)?;
            Some((buf.get_f32_le(), buf.get_f32_le()))
        }
        other => return Err(WireError::LengthOutOfBounds(other as usize)),
    };
    need(buf, 8)?;
    let since_retrain = buf.get_u64_le();
    Ok(SlopePredictorState {
        global,
        personal,
        calibration,
        seen_range,
        since_retrain,
    })
}

fn task_table_state_len(state: &TaskTableState) -> usize {
    8 + 4
        + state.outstanding.len() * 4 * 8
        + u64s_len(state.completed.len())
        + u64s_len(state.expired.len())
}

fn put_task_table_state(buf: &mut BytesMut, state: &TaskTableState) {
    let TaskTableState {
        next_id,
        outstanding,
        completed,
        expired,
    } = state;
    buf.put_u64_le(*next_id);
    buf.put_u32_le(checked_field_len(outstanding.len()));
    for &(id, worker, issued, deadline) in outstanding {
        buf.put_u64_le(id);
        buf.put_u64_le(worker);
        buf.put_u64_le(issued);
        buf.put_u64_le(deadline);
    }
    put_u64_slice(buf, completed);
    put_u64_slice(buf, expired);
}

fn get_task_table_state(buf: &mut Bytes) -> Result<TaskTableState, WireError> {
    need(buf, 8)?;
    let next_id = buf.get_u64_le();
    let outstanding_count = get_count(buf, 4 * 8)?;
    let outstanding = (0..outstanding_count)
        .map(|_| {
            (
                buf.get_u64_le(),
                buf.get_u64_le(),
                buf.get_u64_le(),
                buf.get_u64_le(),
            )
        })
        .collect();
    let completed = get_u64_vec(buf)?;
    let expired = get_u64_vec(buf)?;
    Ok(TaskTableState {
        next_id,
        outstanding,
        completed,
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
        device_models,
    } = state;
    let len = 1
        + server_state_len(parameter_server)
        + predictor_state_len(latency)
        + predictor_state_len(energy)
        + 4 * 8
        + task_table_state_len(tasks)
        + 4
        + device_models
            .iter()
            .map(|(_, model)| 8 + str_len(model))
            .sum::<usize>();
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u8(CHECKPOINT_VERSION);
    put_server_state(&mut buf, parameter_server);
    put_predictor_state(&mut buf, latency);
    put_predictor_state(&mut buf, energy);
    for counter in [
        accepted,
        rejected_size,
        rejected_similarity,
        rejected_overload,
    ] {
        buf.put_u64_le(*counter);
    }
    put_task_table_state(&mut buf, tasks);
    buf.put_u32_le(checked_field_len(device_models.len()));
    for (worker, model) in device_models {
        buf.put_u64_le(*worker);
        put_str(&mut buf, model);
    }
    debug_assert_eq!(buf.len(), len, "reserved length is the encoded length");
    buf.freeze()
}

/// Decodes a checkpoint produced by [`encode_checkpoint`], or by its v1
/// predecessor.
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, has an unknown
/// version byte, or contains malformed fields.
pub fn decode_checkpoint(mut buf: Bytes) -> Result<FleetServerState, WireError> {
    need(&buf, 1)?;
    let version = buf.get_u8();
    if version != CHECKPOINT_VERSION && version != CHECKPOINT_V1 {
        return Err(WireError::UnsupportedVersion(version));
    }
    let parameter_server = get_server_state(&mut buf, version)?;
    let latency = get_predictor_state(&mut buf)?;
    let energy = get_predictor_state(&mut buf)?;
    need(&buf, 4 * 8)?;
    let controller = ControllerCounters {
        accepted: buf.get_u64_le(),
        rejected_size: buf.get_u64_le(),
        rejected_similarity: buf.get_u64_le(),
        rejected_overload: buf.get_u64_le(),
    };
    let tasks = get_task_table_state(&mut buf)?;
    // Smallest route: the worker id and an empty model string.
    let device_count = get_count(&mut buf, 8 + 4)?;
    let mut device_models = Vec::with_capacity(device_count);
    for _ in 0..device_count {
        need(&buf, 8)?;
        let worker = buf.get_u64_le();
        device_models.push((worker, get_string(&mut buf)?));
    }
    Ok(FleetServerState {
        parameter_server,
        iprof: IProfState { latency, energy },
        controller,
        tasks,
        device_models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> FleetServerState {
        FleetServerState {
            parameter_server: ParameterServerState {
                parameters: vec![0.5, -1.25, 3.0],
                shard_pending: vec![vec![vec![0.1, 0.2]], vec![], vec![vec![-0.5]]],
                shard_clocks: vec![4, 0, 7],
                shard_applied: vec![2, 0, 3],
                pending_count: 1,
                clock: 11,
                updates_received: 12,
                last_shard_staleness: vec![1, 0, 2],
                last_shard_weights: vec![0.9, 1.0, 0.4],
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
                outstanding: vec![(7, 2, 10, 16), (8, 4, 11, 17)],
                completed: vec![0, 1, 2, 3, 5],
                expired: vec![4, 6],
            },
            device_models: vec![(2, "pixel-3".into()), (4, "s10".into())],
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let state = sample_state();
        let decoded = decode_checkpoint(encode_checkpoint(&state)).expect("roundtrip");
        assert_eq!(decoded, state);
    }

    /// The sample checkpoint as v1 wrote it (captured on the element-wise
    /// codec), staleness history `[0, 1, 1, 2]` stored value by value.
    const SAMPLE_V1_HEX: &str = "01030000000000003f0000a0bf00004040030000000100000002000000cdcccc3dcdcc4c3e000000000100000001000000000000bf030000000400000000000000000000000000000007000000000000000300000002000000000000000000000000000000030000000000000001000000000000000b000000000000000c0000000000000003000000010000000000000000000000000000000200000000000000030000006666663f0000803fcdcccc3e04000000000000000000000001000000000000000100000000000000020000000000000003000000050000000000000000000000000000000900000000000000060000000ad7233c0ad7a33c000000000000000000000000cdcccc3d0200000007000000706978656c2d33060000000000003f0000003f0000003f0000003f0000003f0000003f03000000000000000300000073313006000000000080be000080be000080be000080be000080be000080be010000000000000001000000060000000000803f0000803f0000803f0000803f0000803f0000803f295c8f3d010ad7233ccdcccc3e1100000000000000060000009a99993e9a99993e9a99993e9a99993e9a99993e9a99993e00000000000000000000000000000000002800000000000000030000000000000002000000000000000500000000000000090000000000000002000000070000000000000002000000000000000a000000000000001000000000000000080000000000000004000000000000000b0000000000000011000000000000000500000000000000000000000100000000000000020000000000000003000000000000000500000000000000020000000400000000000000060000000000000002000000020000000000000007000000706978656c2d33040000000000000003000000733130";

    fn unhex(hex: &str) -> Bytes {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect::<Vec<_>>()
            .into()
    }

    /// Golden vector of the current (v2) encoding.
    #[test]
    fn golden_bytes_of_the_sample_checkpoint() {
        assert_eq!(
            crate::wire::hex(&encode_checkpoint(&sample_state())),
            "02030000000000003f0000a0bf00004040030000000100000002000000cdcccc3dcdcc4c3e000000000100000001000000000000bf030000000400000000000000000000000000000007000000000000000300000002000000000000000000000000000000030000000000000001000000000000000b000000000000000c0000000000000003000000010000000000000000000000000000000200000000000000030000006666663f0000803fcdcccc3e0300000000000000000000000100000000000000010000000000000002000000000000000200000000000000010000000000000003000000050000000000000000000000000000000900000000000000060000000ad7233c0ad7a33c000000000000000000000000cdcccc3d0200000007000000706978656c2d33060000000000003f0000003f0000003f0000003f0000003f0000003f03000000000000000300000073313006000000000080be000080be000080be000080be000080be000080be010000000000000001000000060000000000803f0000803f0000803f0000803f0000803f0000803f295c8f3d010ad7233ccdcccc3e1100000000000000060000009a99993e9a99993e9a99993e9a99993e9a99993e9a99993e00000000000000000000000000000000002800000000000000030000000000000002000000000000000500000000000000090000000000000002000000070000000000000002000000000000000a000000000000001000000000000000080000000000000004000000000000000b0000000000000011000000000000000500000000000000000000000100000000000000020000000000000003000000000000000500000000000000020000000400000000000000060000000000000002000000020000000000000007000000706978656c2d33040000000000000003000000733130"
        );
    }

    /// Checkpoints on disk from before v2 stay readable: the values fold
    /// into the counts the sample state holds.
    #[test]
    fn v1_golden_bytes_decode_to_the_sample_state() {
        assert_eq!(decode_checkpoint(unhex(SAMPLE_V1_HEX)), Ok(sample_state()));
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
                shard_applied: vec![0],
                pending_count: 0,
                clock: 0,
                updates_received: 0,
                last_shard_staleness: vec![0],
                last_shard_weights: vec![1.0],
                aggregator: AggregatorState::default(),
            },
            iprof: IProfState::default(),
            controller: ControllerCounters::default(),
            tasks: TaskTableState::default(),
            device_models: vec![],
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
        for encoded in [encode_checkpoint(&sample_state()), unhex(SAMPLE_V1_HEX)] {
            for len in 0..encoded.len() {
                let truncated = encoded.slice(0..len);
                assert!(
                    decode_checkpoint(truncated).is_err(),
                    "v{} prefix of length {len} decoded successfully",
                    encoded[0]
                );
            }
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
            Err(WireError::LengthOutOfBounds(7))
        );
    }
}
