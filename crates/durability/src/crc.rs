//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the frame check
//! behind every journal record and checkpoint container. Table-driven, built
//! at compile time; no dependency, no `unsafe`.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = build_table();

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
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
