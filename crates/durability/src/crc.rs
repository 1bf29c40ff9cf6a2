//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`, init and final
//! xor `0xFFFF_FFFF`) — the frame check behind every journal record and
//! checkpoint container, on both the write and the read side.
//!
//! Slicing-by-8: eight 256-entry tables, built by `const fn` at compile
//! time, fold eight input bytes per step with eight independent lookups
//! instead of eight dependent ones, then the bytewise loop finishes the
//! tail. Table `k` advances a byte's contribution by `k` further zero bytes,
//! so the values are exactly the bytewise algorithm's, which stays below as
//! the test oracle. No dependency, no `unsafe`.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            t += 1;
        }
        i += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(c);
        let byte = |n: u32| (word >> (8 * n)) as u8 as usize;
        c = TABLES[7][byte(0)]
            ^ TABLES[6][byte(1)]
            ^ TABLES[5][byte(2)]
            ^ TABLES[4][byte(3)]
            ^ TABLES[3][byte(4)]
            ^ TABLES[2][byte(5)]
            ^ TABLES[1][byte(6)]
            ^ TABLES[0][byte(7)];
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time algorithm: the oracle every slicing step must
    /// agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// SplitMix64: deterministic test bytes without a dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| splitmix(state) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        for vector in [&b"123456789"[..], b"", b"a"] {
            assert_eq!(crc32_bytewise(vector), crc32(vector));
        }
    }

    #[test]
    fn matches_the_bytewise_oracle_at_every_short_length_and_offset() {
        let mut state = 0xC3C3_2024;
        let buf = random_bytes(&mut state, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn matches_the_bytewise_oracle_on_random_buffers_up_to_64_kib() {
        let mut state = 0x5EED_0008;
        for case in 0..64 {
            let len = (splitmix(&mut state) % (64 * 1024 + 1)) as usize;
            let buf = random_bytes(&mut state, len);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "case {case} len {len}");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data = b"durable crash recovery journal record".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
