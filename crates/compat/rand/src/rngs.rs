//! Concrete generators.

use crate::{RngCore, SeedableRng};

/// The workspace's standard generator: SplitMix64.
///
/// Every output applies a full avalanche mix to a counter, so there are no
/// weak seeds and the very first draws after seeding are already unbiased —
/// important because the layer initialisers seed a fresh generator per layer
/// with small consecutive seeds and only consume a few dozen values.
/// `Clone`-able, deterministic, not cryptographically secure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // Pre-mix the seed so that consecutive seeds land far apart in the
        // counter sequence (they would be adjacent otherwise, which is fine
        // statistically but makes streams trivially related).
        Self {
            state: mix(seed ^ 0x2545_F491_4F6C_DD1D),
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }
}
