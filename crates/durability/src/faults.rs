//! Deterministic disk-fault injection, in the simulation harness's
//! `FaultPlan` style: a stateless splitmix64 hash of `(seed, case, salt)`,
//! so every corruption scenario is a pure function of its coordinates and
//! reproduces bit-for-bit across runs and machines.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

/// One way the disk can betray the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The active journal loses its tail mid-append (crash during a write).
    TornTail,
    /// A bit flips somewhere inside the newest checkpoint container
    /// (silent media corruption); its CRC must catch it.
    CorruptCrc,
    /// The newest checkpoint vanishes entirely (crash between the temp
    /// write and the rename); recovery must chain from the prior generation.
    MissingNewest,
}

/// Stateless deterministic plan of disk faults. Same shape as the in-memory
/// `FaultPlan`: no RNG object, no state — every draw is a pure hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// Scenario seed; distinct seeds give independent fault schedules.
    pub seed: u64,
}

impl DiskFaultPlan {
    /// A plan with the given seed.
    pub fn new(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan { seed }
    }

    /// A uniform draw in `[0, 1)` for fault case `case` and draw `salt`,
    /// via the same splitmix64 finalizer the simulation `FaultPlan` uses.
    pub(crate) fn uniform(&self, case: u64, salt: u64) -> f64 {
        let mut h = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(case.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Which fault `case` injects (uniform thirds).
    pub(crate) fn scenario(&self, case: u64) -> DiskFault {
        let draw = self.uniform(case, 0);
        if draw < 1.0 / 3.0 {
            DiskFault::TornTail
        } else if draw < 2.0 / 3.0 {
            DiskFault::CorruptCrc
        } else {
            DiskFault::MissingNewest
        }
    }

    /// Where to truncate a `len`-byte file for `case` (any offset in
    /// `[0, len]`, both torn-header and no-op tears included).
    pub(crate) fn truncation_point(&self, case: u64, len: usize) -> usize {
        (self.uniform(case, 1) * (len as f64 + 1.0)) as usize
    }

    /// Which byte of a `len`-byte file to corrupt for `case`.
    pub(crate) fn corruption_offset(&self, case: u64, len: usize) -> usize {
        ((self.uniform(case, 2) * len as f64) as usize).min(len.saturating_sub(1))
    }

    /// Which bit to flip inside the corrupted byte for `case`.
    pub fn corruption_mask(&self, case: u64) -> u8 {
        1 << ((self.uniform(case, 3) * 8.0) as u32).min(7)
    }

    /// Applies the planned fault for `case` to a store directory: tears the
    /// newest journal's tail, flips a bit in the newest checkpoint, or
    /// deletes the newest checkpoint. Returns what it did. A no-op (empty
    /// directory, zero-length target) still reports the planned fault.
    pub fn inject(&self, dir: &Path, case: u64) -> io::Result<DiskFault> {
        let fault = self.scenario(case);
        match fault {
            DiskFault::TornTail => {
                if let Some(path) = newest(dir, "wal-", ".log")? {
                    let len = fs::metadata(&path)?.len() as usize;
                    let keep = self.truncation_point(case, len).min(len);
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(keep as u64)?;
                }
            }
            DiskFault::CorruptCrc => {
                if let Some(path) = newest(dir, "ckpt-", ".bin")? {
                    let mut raw = fs::read(&path)?;
                    if !raw.is_empty() {
                        let offset = self.corruption_offset(case, raw.len());
                        raw[offset] ^= self.corruption_mask(case);
                        fs::write(&path, &raw)?;
                    }
                }
            }
            DiskFault::MissingNewest => {
                if let Some(path) = newest(dir, "ckpt-", ".bin")? {
                    fs::remove_file(&path)?;
                }
            }
        }
        Ok(fault)
    }
}

/// The highest-generation file matching `prefix`/`suffix` in `dir`.
fn newest(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Option<PathBuf>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let Some(generation) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().map(|(g, _)| generation > *g).unwrap_or(true) {
            best = Some((generation, entry.path()));
        }
    }
    Ok(best.map(|(_, path)| path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_uniform_ish() {
        let plan = DiskFaultPlan::new(7);
        assert_eq!(plan.uniform(3, 1), plan.uniform(3, 1));
        assert_ne!(plan.uniform(3, 1), plan.uniform(3, 2));
        assert_ne!(plan.uniform(3, 1), plan.uniform(4, 1));
        assert_ne!(
            DiskFaultPlan::new(7).uniform(3, 1),
            DiskFaultPlan::new(8).uniform(3, 1)
        );
        let mean: f64 = (0..4096).map(|case| plan.uniform(case, 0)).sum::<f64>() / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }

    #[test]
    fn all_scenarios_reachable() {
        let plan = DiskFaultPlan::new(11);
        let mut seen = [false; 3];
        for case in 0..64 {
            match plan.scenario(case) {
                DiskFault::TornTail => seen[0] = true,
                DiskFault::CorruptCrc => seen[1] = true,
                DiskFault::MissingNewest => seen[2] = true,
            }
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn geometry_helpers_stay_in_bounds() {
        let plan = DiskFaultPlan::new(23);
        for case in 0..256 {
            assert!(plan.truncation_point(case, 100) <= 100);
            assert!(plan.corruption_offset(case, 100) < 100);
            assert_eq!(plan.corruption_mask(case).count_ones(), 1);
        }
        assert_eq!(plan.corruption_offset(0, 0), 0);
    }
}
