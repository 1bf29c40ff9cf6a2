//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`, init and final
//! xor `0xFFFF_FFFF`) — the frame check behind every journal record and
//! checkpoint container, on both the write and the read side.
//!
//! Slicing-by-8: eight 256-entry tables, built by `const fn` at compile
//! time, fold eight input bytes per step with eight independent lookups
//! instead of eight dependent ones, then the bytewise loop finishes the
//! tail. Table `k` advances a byte's contribution by `k` further zero bytes,
//! so the values are exactly the bytewise algorithm's, which stays below as
//! the test oracle.
//!
//! **Four chains.** One chain is latency-bound: each step's lookups wait on
//! the previous step's register. From [`CUT_OVER`] bytes on, the first
//! `32·⌊len/32⌋` bytes are cut into four equal quarters of `seg` bytes and
//! four chains run in one loop, one per quarter, so the load ports always
//! have independent lookups in flight. Chain 0 starts at `0xFFFF_FFFF`,
//! chains 1–3 at 0.
//!
//! **The fold.** The register is linear over GF(2): a chain run from 0
//! gives exactly what its quarter adds, and appending `n` zero bytes
//! multiplies a register by `x^(8n) mod P`. So the quarters combine as in
//! zlib's `crc32_combine`, `crc = mulmodp(x^(8·seg) mod P, crc) ^ cₖ` for
//! chains 1–3 in order, with [`mulmodp`] and [`x8nmodp`] following zlib's
//! `multmodp` and `x2nmodp` over a `const`-built table of `x^(2^k) mod P`.
//! The single chain then finishes the tail of fewer than 32 bytes.
//!
//! **The cut-over.** Computing `x^(8·seg) mod P` takes one multiply per
//! set bit of `seg` and the fold three more, ≈ 50 ns each, so a short input
//! (request records, reclaims, the 17-byte headers) stays on one chain.
//! Measured with `target-cpu=native` on a 2-core Xeon VM, forcing four
//! chains at every length: at 256 B they lost (×1.3); from 512 B to 1 000 B
//! the ratio moved between ×0.75 and ×1.16 from run to run; from 1 KiB on
//! they won in every run, ×0.31 at a 47 364-byte result record (≈ 12 µs
//! against ≈ 38 µs).
//!
//! **Why chains 1 and 3 read halves.** Four steps of the same shape are what
//! LLVM's SLP vectorizer looks for: on an AVX-512 host it packs the four
//! registers into one vector and every lookup into a gather, which puts all
//! four chains back on one latency-bound chain and ran at half the scalar
//! speed. Chains 1 and 3 read their word as two `u32` halves
//! ([`step_halves`]), which computes the same value but does not pair with
//! [`step`], so the loop stays scalar.
//!
//! No dependency, no `unsafe`, no runtime dispatch. The carry-less multiply
//! instruction (`pclmulqdq`) would be faster still, but even a safe
//! `#[target_feature]` intrinsic can only be called without `unsafe` from a
//! caller that carries the same attribute, and every crate here is
//! `#![forbid(unsafe_code)]`.

const POLY: u32 = 0xEDB8_8320;

/// Inputs at least this long run four chains; shorter ones run one. Below
/// it the fold can cost more than the interleaving saves.
const CUT_OVER: usize = 1024;

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

static TABLES: [[u32; 256]; 8] = build_tables();

/// `a·b mod P` in the reflected representation (bit 31 is `x^0`), without
/// a data-dependent branch.
const fn mulmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut k = 0;
    while k < 32 {
        product ^= b & ((a >> (31 - k)) & 1).wrapping_neg();
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        k += 1;
    }
    product
}

const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mulmodp(p, p);
        k += 1;
    }
    table
}

/// `x^(2^k) mod P` for `k` in `0..32`; `x^(2^32) mod P` is `x` again, so
/// the exponent wraps.
static X2N: [u32; 32] = build_x2n();

/// `x^(8n) mod P`: multiplying a register by it appends `n` zero bytes.
fn x8nmodp(mut n: usize) -> u32 {
    let mut p = 1 << 31; // x^0
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = mulmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let c = if bytes.len() < CUT_OVER {
        update(0xFFFF_FFFF, bytes)
    } else {
        interleaved(bytes)
    };
    c ^ 0xFFFF_FFFF
}

/// One slicing-by-8 step: the register after the 8-byte `word`.
#[inline(always)]
fn step(c: u32, word: &[u8]) -> u32 {
    let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(c);
    let byte = |n: u32| (word >> (8 * n)) as u8 as usize;
    TABLES[7][byte(0)]
        ^ TABLES[6][byte(1)]
        ^ TABLES[5][byte(2)]
        ^ TABLES[4][byte(3)]
        ^ TABLES[3][byte(4)]
        ^ TABLES[2][byte(5)]
        ^ TABLES[1][byte(6)]
        ^ TABLES[0][byte(7)]
}

/// [`step`] with the word read as two `u32` halves: the same value, in a
/// shape the SLP vectorizer does not pair with [`step`]'s (see the module
/// doc).
#[inline(always)]
fn step_halves(c: u32, word: &[u8]) -> u32 {
    let (lo, hi) = word.split_at(4);
    let lo = u32::from_le_bytes(lo.try_into().expect("4-byte half")) ^ c;
    let hi = u32::from_le_bytes(hi.try_into().expect("4-byte half"));
    let byte = |half: u32, n: u32| (half >> (8 * n)) as u8 as usize;
    TABLES[7][byte(lo, 0)]
        ^ TABLES[6][byte(lo, 1)]
        ^ TABLES[5][byte(lo, 2)]
        ^ TABLES[4][byte(lo, 3)]
        ^ TABLES[3][byte(hi, 0)]
        ^ TABLES[2][byte(hi, 1)]
        ^ TABLES[1][byte(hi, 2)]
        ^ TABLES[0][byte(hi, 3)]
}

/// Register `c` advanced over `bytes` by one chain, with no final xor.
fn update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        c = step(c, word);
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The register after `bytes` from `0xFFFF_FFFF`, by four chains over the
/// quarters of the first `32·⌊len/32⌋` bytes, folded, then one chain over
/// the tail.
fn interleaved(bytes: &[u8]) -> u32 {
    let seg = bytes.len() / 32 * 8;
    let (q0, rest) = bytes.split_at(seg);
    let (q1, rest) = rest.split_at(seg);
    let (q2, rest) = rest.split_at(seg);
    let (q3, tail) = rest.split_at(seg);
    let mut c = [0xFFFF_FFFF, 0, 0, 0];
    for (((w0, w1), w2), w3) in q0
        .chunks_exact(8)
        .zip(q1.chunks_exact(8))
        .zip(q2.chunks_exact(8))
        .zip(q3.chunks_exact(8))
    {
        c = [
            step(c[0], w0),
            step_halves(c[1], w1),
            step(c[2], w2),
            step_halves(c[3], w3),
        ];
    }
    let shift = x8nmodp(seg);
    let folded = c[1..]
        .iter()
        .fold(c[0], |crc, &ck| mulmodp(shift, crc) ^ ck);
    update(folded, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time register update: the oracle every slicing step
    /// and every fold must agree with.
    fn update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
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
        // Short: up to twice the cut-over, so both paths and every tail
        // length of each are covered.
        let max = 2 * CUT_OVER + 64;
        let mut state = 0xC3C3_2024;
        let buf = random_bytes(&mut state, max + 8);
        for start in 0..8 {
            // The oracle's register over each prefix, advanced a byte at a
            // time alongside the lengths.
            let mut prefix = 0xFFFF_FFFF;
            for len in 0..=max {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    prefix ^ 0xFFFF_FFFF,
                    "start {start} len {len}"
                );
                if len < max {
                    prefix = update_bytewise(prefix, &buf[start + len..=start + len]);
                }
            }
        }
    }

    #[test]
    fn matches_the_bytewise_oracle_on_record_and_megabyte_lengths() {
        let mut state = 0x4736_4000;
        for len in [47_364, (1 << 20) + 13] {
            let buf = random_bytes(&mut state, len);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "len {len}");
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
    fn multiplying_by_x8n_appends_n_zero_bytes() {
        // The squares table wraps: x^(2^32) mod P is x.
        assert_eq!(mulmodp(X2N[31], X2N[31]), X2N[0]);
        let mut state = 0x0F01_D000;
        let zeros = vec![0u8; 1 << 20];
        let powers = (0..=20).map(|k| 1usize << k);
        for n in (0..=4096).chain(powers) {
            let c = splitmix(&mut state) as u32;
            assert_eq!(
                update_bytewise(c, &zeros[..n]),
                mulmodp(x8nmodp(n), c),
                "n {n} c {c:#010x}"
            );
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

    #[test]
    fn a_bit_flip_in_any_chain_or_the_tail_is_detected() {
        let len = 4096 + 29;
        let seg = len / 32 * 8;
        let mut state = 0xF11B_0004;
        let data = random_bytes(&mut state, len);
        let reference = crc32(&data);
        assert_eq!(reference, crc32_bytewise(&data));
        let chain_edges = (0..4)
            .flat_map(|k| [k * seg..k * seg + 8, (k + 1) * seg - 8..(k + 1) * seg])
            .flatten();
        for byte in chain_edges.chain(4 * seg..len) {
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
