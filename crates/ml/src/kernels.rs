//! Blocked, parallel `f32` matrix kernels — the hot path of every FLeet
//! worker gradient computation.
//!
//! # Design
//!
//! All kernels operate on caller-owned raw slices (no allocation) and come in
//! the layouts the layers need, so transposes are never materialised:
//!
//! * [`matmul`] — `C = A·B` (`A: [m,k]`, `B: [k,n]`): dense and im2col-conv
//!   forward.
//! * [`matmul_tn_acc`] — `C += Aᵀ·B` (`A: [k,m]`, `B: [k,n]`): weight
//!   gradients, accumulating directly into the layer's gradient buffer.
//! * [`matmul_nt`] / `matmul_nt_acc` — `C = A·Bᵀ` / `C += A·Bᵀ`
//!   (`A: [m,k]`, `B: [n,k]`): input gradients, and the im2col conv weight
//!   gradient (which accumulates `dY · colsᵀ` straight into the layer
//!   buffer).
//!
//! All layouts run the same `MR × NR` register-tiled micro-kernel (partial
//! sums held in registers, remainders falling back to row-axpy loops); the
//! accumulating variants seed the tile registers from the existing output,
//! so every element stays one fused chain. Work is split across threads by
//! contiguous output rows via [`fleet_parallel::parallel_chunks_mut`].
//!
//! # B-panel packing
//!
//! When a chunk sweeps at least `PACK_MIN_GROUPS` full `MR`-row groups, the
//! NN kernel first copies each `NR`-wide column panel of `B` into a
//! contiguous `[k × NR]` thread-local buffer and runs the
//! whole row sweep against the packed panel: the panel is loaded once from
//! strided memory and then reread `rows / MR` times from L1 with unit stride.
//! Packing is a pure *layout* change — the tile performs the identical fused
//! operations in the identical order — so the packed and unpacked paths are
//! bit-for-bit interchangeable and the gate can key on chunk size freely.
//!
//! The NT kernels pack the *transposed* `B` rows into the same `[k × NR]`
//! panel shape and then reuse the NN micro-kernel unchanged. This replaces
//! the former blocked-dot-product formulation (which re-streamed all of `B`
//! for every output row) with the register-tiled sweep, lifting NT off its
//! memory-bandwidth plateau. Products with `m < NT_PACK_MIN_ROWS` keep
//! the blocked-dot formulation: there are not enough row sweeps to amortise
//! the panel transpose. The branch keys on the full `m` — never the
//! per-chunk partition — so the numeric structure of each output element is
//! a function of the shape alone.
//!
//! # One kernel path and its determinism contract
//!
//! There is a single implementation of every micro-kernel: lane-explicit
//! loops over `f32::mul_add`, written so that the lane structure (an
//! `MR × NR` accumulator tile, `DOT_LANES` dot-product lanes reduced by a
//! fixed pairwise tree) is visible to the compiler. Nothing is selected at
//! runtime and the crate contains no `unsafe`. The supported configuration is
//! a build whose target has hardware FMA — the workspace's
//! `.cargo/config.toml` sets `target-cpu=native` — where these loops compile
//! to the fused AVX2 instructions a hand-written intrinsics kernel would
//! use. Without hardware FMA `mul_add` lowers to a call of the
//! correctly-rounded libm `fma`: results are unchanged but far slower, which
//! is why a tier-1 test asserts the `fma` target feature on `x86_64`.
//! [`Isa::active`] reports what the compiler was allowed to emit, for bench
//! metadata; it selects no code.
//!
//! A fused multiply-add rounds once per element, and every output element
//! accumulates over the depth dimension in ascending order regardless of how
//! tiles or threads partition the output — so results are **bit-for-bit
//! identical across thread counts**. The tests at the bottom of this file pin
//! partition- and packing-invariance bitwise, and agreement with the naive
//! reference to tolerance on dense, one-hot, NaN/Inf and remainder-sized
//! shapes; the simulation's reproducibility tests depend on it.
//!
//! # The seed kernel's sparsity branch
//!
//! The original kernel skipped inner-loop work when `a == 0.0`. That branch
//! pays off only for one-hot-ish inputs (e.g. the recommender's bag-of-words
//! rows) and costs a compare per `(i,p)` pair plus vectorisation-hostile
//! control flow on the dense matrices that dominate this workload, so the
//! dense path no longer has it. The test-only `matmul_naive` preserves the
//! seed kernel verbatim as the reference implementation the tests compare
//! against. Note the naive kernel multiplies and adds in two rounding steps,
//! so the fused kernels agree with it to tolerance, not bits.

use std::cell::RefCell;

/// Output rows per register tile. Six rows × two AVX2 vectors is the classic
/// f32 micro-kernel shape: `6 × 2 = 12` accumulator registers plus two `B`
/// lanes and one broadcast fit the 16 ymm registers exactly, and twelve
/// independent FMA chains cover the 4-5 cycle FMA latency at two issues per
/// cycle — with the old `MR = 4` the eight chains left the FMA units
/// latency-starved.
const MR: usize = 6;

/// Output columns per register tile: `MR × NR` partial sums live in
/// registers, cutting the traffic to `out` by `MR·NR` and reusing every
/// loaded `B` lane `MR` times. A `k × NR` column panel of `B` is ~`4k·NR`
/// bytes (16 KiB at `k = 256`), so panels stay L1-resident across row groups.
/// `NR = 16` is also exactly two 256-bit AVX2 vectors per row.
pub(crate) const NR: usize = 16;

/// Lanes in the NT kernel's blocked dot product: four AVX2 vectors, i.e.
/// four independent FMA accumulator chains. Two chains (the old 16-lane
/// shape) left the fused accumulation latency-bound; four roughly doubles
/// large-`k` dot throughput while keeping the scalar tail under 32 elements.
const DOT_LANES: usize = 32;

/// Below this many fused multiply-adds (~50 µs of work) the pool fan-out
/// costs more than the arithmetic; kernels stay on the calling thread.
/// Fan-out is also suppressed automatically inside `fleet_parallel` workers,
/// so the simulation's per-task gradients never nest fan-outs. The im2col
/// convolution layer reuses the same budget to gate its batch fan-out.
pub(crate) const PAR_FLOP_THRESHOLD: usize = 1 << 19;

/// Minimum number of full `MR`-row groups in a chunk before the NN kernel
/// packs `B` panels: one group reads the panel exactly once, so packing only
/// amortises from the second sweep on. Gating on chunk size is safe because
/// packing never changes the arithmetic (see the module docs).
const PACK_MIN_GROUPS: usize = 2;

/// Minimum total rows `m` before the NT kernels use the packed-tile
/// formulation instead of the blocked dot product. Packing transposes a
/// `k × NR` panel with strided writes, so it needs at least two full MR-row
/// sweeps to beat the dot kernel's contiguous reads (the im2col conv weight
/// gradient with few output channels and a long position axis is the
/// motivating small-`m`, large-`k` case). Unlike [`PACK_MIN_GROUPS`] this
/// gate *changes the numeric structure* (fused chain vs. reduction tree), so
/// it must key on the full `m` — never the per-chunk partition.
pub(crate) const NT_PACK_MIN_ROWS: usize = 2 * MR;

/// Column block for the NT kernels' blocked-dot path: this many `B` rows
/// (`DOT_COL_BLOCK · k` floats) are swept by every `A` row before moving on,
/// keeping them L1-resident instead of re-streaming all of `B` per output
/// row — the small-`m`, large-`k` products this path serves (e.g. the im2col
/// conv weight gradient at few output channels) are memory-bound without it.
/// Iteration order over *independent* output elements only; never affects
/// numerics.
const DOT_COL_BLOCK: usize = 8;

thread_local! {
    /// Per-thread B-panel scratch, reused across kernel calls. The pool
    /// workers are persistent, so after warm-up no kernel call allocates;
    /// the buffer grows to the largest `k × NR` panel the thread has packed.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's packing buffer, grown to at least `len`.
fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Packs the `NR`-wide column panel `b[:, j0..j0+NR]` of a row-major `[k, n]`
/// matrix into `panel[p*NR + j] = b[p][j0 + j]`.
fn pack_b_panel(b: &[f32], panel: &mut [f32], k: usize, n: usize, j0: usize) {
    for p in 0..k {
        panel[p * NR..p * NR + NR].copy_from_slice(&b[p * n + j0..p * n + j0 + NR]);
    }
}

/// Packs `NR` rows `b[j0..j0+NR, :]` of a row-major `[n, k]` matrix
/// *transposed* into the same panel shape: `panel[p*NR + j] = b[j0 + j][p]`.
/// After this, the NN micro-kernel computes `A·Bᵀ` columns without ever
/// touching the strided original again.
fn pack_bt_panel(b: &[f32], panel: &mut [f32], k: usize, j0: usize) {
    for (j, row) in b[j0 * k..(j0 + NR) * k].chunks_exact(k).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            panel[p * NR + j] = v;
        }
    }
}

/// What the compiler was allowed to emit for the kernels, as recorded in
/// bench metadata. It selects no code: there is one kernel path (see the
/// module docs), and this only names how that path was lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The target lacks AVX2 or FMA: `f32::mul_add` lowers to narrower
    /// vectors or to the correctly-rounded libm `fma` — slower, never
    /// different.
    Scalar,
    /// The target has AVX2 + FMA (the supported configuration): the lane
    /// loops compile to fused 256-bit instructions.
    Avx2Fma,
}

impl Isa {
    /// The variant this build was compiled for, from `cfg!(target_feature)`.
    pub const fn active() -> Self {
        if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
            Isa::Avx2Fma
        } else {
            Isa::Scalar
        }
    }

    /// Stable lowercase name, as recorded in bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2+fma",
        }
    }
}

/// `y[i] = a.mul_add(x[i], y[i])` — the remainder primitive. Fused per
/// element, so a row takes the same chain here as inside a tile.
#[inline]
fn axpy(y: &mut [f32], x: &[f32], a: f32) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = a.mul_add(x, *y);
    }
}

/// Dot product with [`DOT_LANES`] independent accumulator lanes
/// (`lanes[l] += x[c*L+l] * y[c*L+l]`, fused per element) combined in a fixed
/// pairwise tree (`32 -> 16 -> 8 -> 4 -> 2 -> 1`), plus a fused scalar tail.
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    const L: usize = DOT_LANES;
    debug_assert_eq!(x.len(), y.len());
    let chunks = x.len() / L;
    let mut lanes = [0.0f32; L];
    for c in 0..chunks {
        let xs: &[f32; L] = x[c * L..c * L + L].try_into().unwrap();
        let ys: &[f32; L] = y[c * L..c * L + L].try_into().unwrap();
        for l in 0..L {
            lanes[l] = xs[l].mul_add(ys[l], lanes[l]);
        }
    }
    let mut width = L / 2;
    while width > 0 {
        for l in 0..width {
            lanes[l] += lanes[l + width];
        }
        width /= 2;
    }
    let mut tail = 0.0f32;
    for i in chunks * L..x.len() {
        tail = x[i].mul_add(y[i], tail);
    }
    lanes[0] + tail
}

#[inline]
fn check(name: &str, a: usize, b: usize, out: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a, m * k, "{name}: lhs has {a} elements, expected {m}x{k}");
    assert_eq!(b, k * n, "{name}: rhs has {b} elements, expected {k}x{n}");
    assert_eq!(
        out,
        m * n,
        "{name}: out has {out} elements, expected {m}x{n}"
    );
}

/// `out = a · b` with `a: [m,k]`, `b: [k,n]`, `out: [m,n]`, all row-major.
///
/// Cache-blocked and parallel over output rows; `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check("matmul", a.len(), b.len(), out.len(), m, k, n);
    if m * k * n < PAR_FLOP_THRESHOLD {
        matmul_rows(a, b, out, 0, k, n);
        return;
    }
    fleet_parallel::parallel_chunks_mut(out, n, |first_row, chunk| {
        matmul_rows(a, b, chunk, first_row, k, n);
    });
}

/// Computes `chunk = a[first_row.., :] · b` for `chunk.len() / n` rows.
///
/// Full `MR`-row groups run the register-tiled micro-kernel over `NR`-column
/// panels — packed into a contiguous thread-local buffer first when the chunk
/// sweeps each panel at least [`PACK_MIN_GROUPS`] times; row/column remainders
/// fall back to the axpy loop. Either way each output element
/// accumulates over `p` in ascending order, so neither the partition into
/// tiles (and threads) nor the packing gate ever changes the numerics.
fn matmul_rows(a: &[f32], b: &[f32], chunk: &mut [f32], first_row: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = chunk.len() / n;
    let n_main = n - n % NR;
    let full_groups = rows / MR;
    if full_groups >= PACK_MIN_GROUPS && n_main > 0 && n > NR {
        // Panel-outer sweep: pack b[:, j0..j0+NR] once, reuse it for every
        // MR-row group of the chunk. (With n == NR, `b` already *is* one
        // contiguous panel — the n > NR gate above skips the no-op copy and
        // the in-place branch below reads it directly.)
        with_pack_buf(k * NR, |panel| {
            for j0 in (0..n_main).step_by(NR) {
                pack_b_panel(b, panel, k, n, j0);
                for g in 0..full_groups {
                    let group = &mut chunk[g * MR * n..(g + 1) * MR * n];
                    tile_nn(a, panel, NR, 0, group, first_row + g * MR, k, n, j0, false);
                }
            }
        });
        // Row tail (rows % MR) over the full width, and column tail
        // (n % NR) of the tiled rows: fused axpy, same per-element chains.
        for r in full_groups * MR..rows {
            let a_row = &a[(first_row + r) * k..(first_row + r) * k + k];
            let out_row = &mut chunk[r * n..(r + 1) * n];
            out_row.fill(0.0);
            for (p, &av) in a_row.iter().enumerate() {
                axpy(out_row, &b[p * n..p * n + n], av);
            }
        }
        if n_main < n {
            for r in 0..full_groups * MR {
                let a_row = &a[(first_row + r) * k..(first_row + r) * k + k];
                let tail = &mut chunk[r * n + n_main..(r + 1) * n];
                tail.fill(0.0);
                for (p, &av) in a_row.iter().enumerate() {
                    axpy(tail, &b[p * n + n_main..(p + 1) * n], av);
                }
            }
        }
        return;
    }
    for (group_idx, group) in chunk.chunks_mut(MR * n).enumerate() {
        let row0 = first_row + group_idx * MR;
        if group.len() == MR * n {
            for j0 in (0..n_main).step_by(NR) {
                tile_nn(a, b, n, j0, group, row0, k, n, j0, false);
            }
            if n_main < n {
                for (i, out_row) in group.chunks_mut(n).enumerate() {
                    let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
                    let tail = &mut out_row[n_main..];
                    tail.fill(0.0);
                    for (p, &av) in a_row.iter().enumerate() {
                        axpy(tail, &b[p * n + n_main..(p + 1) * n], av);
                    }
                }
            }
        } else {
            // Fewer than MR rows remain: plain axpy rows.
            for (i, out_row) in group.chunks_mut(n).enumerate() {
                let a_row = &a[(row0 + i) * k..(row0 + i) * k + k];
                out_row.fill(0.0);
                for (p, &av) in a_row.iter().enumerate() {
                    axpy(out_row, &b[p * n..p * n + n], av);
                }
            }
        }
    }
}

/// Register-tiled `MR × NR` micro-kernel:
/// `group[.., j0..j0+NR] {=, +=} Σ_p a[row][p] · b[p*b_stride + bj + j]`,
/// i.e. `acc[i][j] = fma(a[i][p], b[p][bj+j], acc[i][j])` over ascending `p`.
///
/// `b` may be the full `[k, n]` operand (`b_stride = n`, `bj = j0`) or a
/// packed `[k × NR]` panel (`b_stride = NR`, `bj = 0`) — the arithmetic is
/// identical either way. With `acc` set, the accumulators are *seeded from
/// the existing output* (one fused chain per element, exactly like the
/// remainder axpy path), which is what the accumulating NT entry point needs.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel signature: operand slices plus their dimensions, passed flat so the hot loop sees plain locals"
)]
fn tile_nn(
    a: &[f32],
    b: &[f32],
    b_stride: usize,
    bj: usize,
    group: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
    j0: usize,
    acc: bool,
) {
    let mut sums = [[0.0f32; NR]; MR];
    if acc {
        for (i, lane) in sums.iter_mut().enumerate() {
            lane.copy_from_slice(&group[i * n + j0..i * n + j0 + NR]);
        }
    }
    let a_rows: [&[f32]; MR] = std::array::from_fn(|i| &a[(row0 + i) * k..(row0 + i) * k + k]);
    for p in 0..k {
        let b_lane: &[f32; NR] = b[p * b_stride + bj..p * b_stride + bj + NR]
            .try_into()
            .unwrap();
        for i in 0..MR {
            let av = a_rows[i][p];
            for j in 0..NR {
                sums[i][j] = av.mul_add(b_lane[j], sums[i][j]);
            }
        }
    }
    for (i, lane) in sums.iter().enumerate() {
        group[i * n + j0..i * n + j0 + NR].copy_from_slice(lane);
    }
}

/// `out += aᵀ · b` with `a: [k,m]`, `b: [k,n]`, `out: [m,n]`, row-major —
/// the fused weight-gradient kernel (`dW += xᵀ·dy`). Accumulates, matching
/// how layer gradients build up across backward calls.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_tn_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check("matmul_tn_acc", a.len(), b.len(), out.len(), m, k, n);
    if m * k * n < PAR_FLOP_THRESHOLD {
        matmul_tn_rows(a, b, out, 0, m, k, n);
        return;
    }
    fleet_parallel::parallel_chunks_mut(out, n, |first_row, chunk| {
        matmul_tn_rows(a, b, chunk, first_row, m, k, n);
    });
}

/// Accumulates `chunk += aᵀ[first_row.., :] · b` for `chunk.len() / n` rows.
///
/// Same tiling as [`matmul_rows`], except the `MR` input scalars per `p` come
/// from a row of `a` (adjacent columns) and the tile accumulates *onto* the
/// output, seeding its registers from the existing values so the fused chain
/// is identical to the remainder path's (see [`tile_tn`]).
fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    chunk: &mut [f32],
    first_row: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let n_main = n - n % NR;
    for (group_idx, group) in chunk.chunks_mut(MR * n).enumerate() {
        let row0 = first_row + group_idx * MR;
        if group.len() == MR * n {
            for j0 in (0..n_main).step_by(NR) {
                tile_tn(a, b, group, row0, m, k, n, j0);
            }
            if n_main < n {
                for (i, out_row) in group.chunks_mut(n).enumerate() {
                    let col = row0 + i;
                    let tail = &mut out_row[n_main..];
                    for p in 0..k {
                        axpy(tail, &b[p * n + n_main..(p + 1) * n], a[p * m + col]);
                    }
                }
            }
        } else {
            for (i, out_row) in group.chunks_mut(n).enumerate() {
                let col = row0 + i;
                for p in 0..k {
                    axpy(out_row, &b[p * n..p * n + n], a[p * m + col]);
                }
            }
        }
    }
}

/// Register-tiled accumulating micro-kernel for the TN layout. The
/// accumulators are *seeded from the existing output* and every multiply-add
/// is fused, so an output element's value is one fused chain
/// `out = fma(a_p, b_p, out)` over ascending `p` — exactly the chain the
/// remainder axpy path produces. Seeding (rather than adding a zero-based
/// accumulator at the end) is what keeps rows bit-identical no matter whether
/// the thread partition routes them through the tile or the remainder path.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel signature: operand slices plus their dimensions, passed flat so the hot loop sees plain locals"
)]
fn tile_tn(
    a: &[f32],
    b: &[f32],
    group: &mut [f32],
    row0: usize,
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, lane) in acc.iter_mut().enumerate() {
        lane.copy_from_slice(&group[i * n + j0..i * n + j0 + NR]);
    }
    for p in 0..k {
        let b_lane: &[f32; NR] = b[p * n + j0..p * n + j0 + NR].try_into().unwrap();
        let a_lane: &[f32; MR] = a[p * m + row0..p * m + row0 + MR].try_into().unwrap();
        for i in 0..MR {
            let av = a_lane[i];
            for j in 0..NR {
                acc[i][j] = av.mul_add(b_lane[j], acc[i][j]);
            }
        }
    }
    for (i, lane) in acc.iter().enumerate() {
        group[i * n + j0..i * n + j0 + NR].copy_from_slice(lane);
    }
}

/// `out = a · bᵀ` with `a: [m,k]`, `b: [n,k]`, `out: [m,n]`, row-major — the
/// fused input-gradient kernel (`dx = dy·Wᵀ`). `B` rows are packed transposed
/// into `NR`-wide panels and swept by the register-tiled micro-kernel; see
/// the module docs for the small-`m` blocked-dot path.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check("matmul_nt", a.len(), b.len(), out.len(), m, k, n);
    matmul_nt_fan_out(a, b, out, m, k, n, false);
}

/// `out += a · bᵀ` — the accumulating variant of [`matmul_nt`], used by the
/// im2col convolution's weight gradient (`dW += dY · colsᵀ`), which builds up
/// across backward calls exactly like [`matmul_tn_acc`] does for dense
/// layers. Each output element extends its existing value by one fused chain
/// over ascending `p`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub(crate) fn matmul_nt_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check("matmul_nt_acc", a.len(), b.len(), out.len(), m, k, n);
    matmul_nt_fan_out(a, b, out, m, k, n, true);
}

fn matmul_nt_fan_out(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    if m * k * n < PAR_FLOP_THRESHOLD {
        matmul_nt_rows(a, b, out, 0, m, k, n, acc);
        return;
    }
    fleet_parallel::parallel_chunks_mut(out, n, |first_row, chunk| {
        matmul_nt_rows(a, b, chunk, first_row, m, k, n, acc);
    });
}

/// Computes `chunk {=, +=} a[first_row.., :] · bᵀ` for `chunk.len() / n`
/// rows.
///
/// Main path: each `NR`-wide group of output columns packs the matching `B`
/// rows transposed ([`pack_bt_panel`]) and runs the NN micro-kernel over
/// every `MR`-row group, with row remainders taking the axpy loop over the
/// same panel (identical fused chains). The column tail (`n % NR`) and the
/// `m < NT_PACK_MIN_ROWS` case keep the blocked-dot formulation — both
/// branches key only on the full shape, never the chunk partition, so
/// results are bit-identical across thread counts.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel signature: operand slices plus their dimensions, passed flat so the hot loop sees plain locals"
)]
fn matmul_nt_rows(
    a: &[f32],
    b: &[f32],
    chunk: &mut [f32],
    first_row: usize,
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    if n == 0 {
        return;
    }
    let rows = chunk.len() / n;
    let n_main = if m < NT_PACK_MIN_ROWS { 0 } else { n - n % NR };
    if n_main > 0 {
        let full_groups = rows / MR;
        with_pack_buf(k * NR, |panel| {
            for j0 in (0..n_main).step_by(NR) {
                pack_bt_panel(b, panel, k, j0);
                for g in 0..full_groups {
                    let group = &mut chunk[g * MR * n..(g + 1) * MR * n];
                    tile_nn(a, panel, NR, 0, group, first_row + g * MR, k, n, j0, acc);
                }
                for r in full_groups * MR..rows {
                    let a_row = &a[(first_row + r) * k..(first_row + r) * k + k];
                    let seg = &mut chunk[r * n + j0..r * n + j0 + NR];
                    if !acc {
                        seg.fill(0.0);
                    }
                    for (p, &av) in a_row.iter().enumerate() {
                        axpy(seg, &panel[p * NR..p * NR + NR], av);
                    }
                }
            }
        });
    }
    // Blocked-dot columns, in groups of DOT_COL_BLOCK: the block of `b` rows
    // stays L1-resident while every `a` row sweeps it, instead of re-
    // streaming all of `b` per output row. Pure iteration-order change over
    // independent output elements — bit-identical to the unblocked loop and
    // independent of the row partition.
    for jb in (n_main..n).step_by(DOT_COL_BLOCK) {
        let jend = (jb + DOT_COL_BLOCK).min(n);
        for i in 0..rows {
            let a_row = &a[(first_row + i) * k..(first_row + i) * k + k];
            for j in jb..jend {
                let d = dot(a_row, &b[j * k..j * k + k]);
                let out = &mut chunk[i * n + j];
                *out = if acc { *out + d } else { d };
            }
        }
    }
}

/// The seed repository's single-threaded kernel, kept verbatim as the
/// reference the tests check the blocked kernels against. Note the
/// `a == 0.0` sparsity branch — see the module docs for why the dense path
/// dropped it.
#[cfg(test)]
pub(crate) fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check("matmul_naive", a.len(), b.len(), out.len(), m, k, n);
    out.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let row = &b[p * n..(p + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a + factor · b`, element-wise, into a caller-owned buffer.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_scaled(a: &[f32], b: &[f32], factor: f32, out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "add_scaled operand length mismatch");
    assert_eq!(a.len(), out.len(), "add_scaled output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + factor * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Deterministic xorshift fill in `±scale/2`, decorrelated by `salt`.
    fn fill_pattern(len: usize, scale: f32, salt: u64) -> Vec<f32> {
        let mut state = (salt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * scale
            })
            .collect()
    }

    /// Row-major transpose of a `[rows, cols]` matrix.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        Tensor::from_vec(x.to_vec(), &[rows, cols])
            .transpose()
            .into_vec()
    }

    /// NaN-aware closeness: both NaN passes, an infinity must match exactly,
    /// otherwise relative-plus-absolute tolerance (the naive reference rounds
    /// multiply and add separately, the kernels fuse them).
    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            if x.is_infinite() || y.is_infinite() {
                assert!(x == y, "{what}[{i}]: {x} vs {y}");
                continue;
            }
            let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    /// One input of the reference tests: `a: [m,k]`, `b: [k,n]` and the naive
    /// product `a·b`.
    struct Case {
        what: String,
        a: Vec<f32>,
        b: Vec<f32>,
        expected: Vec<f32>,
        m: usize,
        k: usize,
        n: usize,
    }

    /// Every shape class the kernels meet, each as dense, one-hot-`a` and
    /// NaN/Inf-laced inputs. The shapes straddle every gate: `m` below, at and
    /// above `PACK_MIN_GROUPS·MR = NT_PACK_MIN_ROWS` (unpacked vs. packed B,
    /// NT blocked-dot vs. tiled), and `m`/`n`/`k` that are and are not
    /// multiples of `MR`/`NR`/`DOT_LANES`, so the row, column and dot-tail
    /// remainder paths all run.
    fn reference_cases() -> Vec<Case> {
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (3, 37, 29),
            (9, 17, 17),
            (11, 31, 31),
            (12, 32, 32),
            (13, 21, 20),
            (14, 45, 35),
            (17, 33, 9),
            (64, 64, 64),
            (70, 129, 31),
        ];
        let mut cases = Vec::new();
        for (salt, &(m, k, n)) in shapes.iter().enumerate() {
            let salt = salt as u64;
            let dense_a = fill_pattern(m * k, 2.0, salt);
            let dense_b = fill_pattern(k * n, 2.0, salt ^ 0xABCD);
            let mut one_hot_a = vec![0.0; m * k];
            for r in 0..m {
                one_hot_a[r * k + (r * 7 + n) % k] = 1.0;
            }
            // NaN and infinities at deterministic positions of both operands:
            // fused and unfused chains must propagate them alike.
            let poison = |data: &[f32]| -> Vec<f32> {
                let mut data = data.to_vec();
                for (i, v) in data.iter_mut().enumerate() {
                    match i % 97 {
                        13 => *v = f32::NAN,
                        41 => *v = f32::INFINITY,
                        71 => *v = f32::NEG_INFINITY,
                        _ => {}
                    }
                }
                data
            };
            for (class, a, b) in [
                ("dense", dense_a.clone(), dense_b.clone()),
                ("one-hot", one_hot_a, dense_b.clone()),
                ("nan/inf", poison(&dense_a), poison(&dense_b)),
            ] {
                let mut expected = vec![0.0; m * n];
                matmul_naive(&a, &b, &mut expected, m, k, n);
                cases.push(Case {
                    what: format!("{class} {m}x{k}x{n}"),
                    a,
                    b,
                    expected,
                    m,
                    k,
                    n,
                });
            }
        }
        cases
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `kernel` on every reference case, on an output pre-filled with
    /// ones, and compares with the naive product — shifted by that one when
    /// the kernel `accumulates`, unshifted when it must overwrite.
    fn assert_matches_reference(accumulates: bool, kernel: impl Fn(&Case, &mut [f32])) {
        let shift = if accumulates { 1.0 } else { 0.0 };
        for case in reference_cases() {
            let mut out = vec![1.0; case.m * case.n];
            kernel(&case, &mut out);
            let expected: Vec<f32> = case.expected.iter().map(|v| v + shift).collect();
            assert_close(&out, &expected, &case.what);
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        assert_matches_reference(false, |c, out| matmul(&c.a, &c.b, out, c.m, c.k, c.n));
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        assert_matches_reference(true, |c, out| {
            let a_tn = transpose(&c.a, c.m, c.k); // stored [k, m]
            matmul_tn_acc(&a_tn, &c.b, out, c.m, c.k, c.n);
        });
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        assert_matches_reference(false, |c, out| {
            let b_nt = transpose(&c.b, c.k, c.n); // stored [n, k]
            matmul_nt(&c.a, &b_nt, out, c.m, c.k, c.n);
        });
    }

    #[test]
    fn nt_acc_matches_explicit_transpose() {
        assert_matches_reference(true, |c, out| {
            let b_nt = transpose(&c.b, c.k, c.n); // stored [n, k]
            matmul_nt_acc(&c.a, &b_nt, out, c.m, c.k, c.n);
        });
    }

    #[test]
    fn large_shapes_cross_parallel_threshold_and_agree() {
        // Above PAR_FLOP_THRESHOLD the pool fan-out and the per-chunk tile
        // partition are both in play, for every layout.
        let (m, k, n) = (128, 64, 128);
        assert!(m * k * n >= PAR_FLOP_THRESHOLD);
        let a = fill_pattern(m * k, 1.0, 0);
        let b = fill_pattern(k * n, 1.0, 1);
        let mut naive = vec![0.0; m * n];
        matmul_naive(&a, &b, &mut naive, m, k, n);
        let shifted: Vec<f32> = naive.iter().map(|v| v + 1.0).collect();

        let mut out = vec![0.0; m * n];
        matmul(&a, &b, &mut out, m, k, n);
        assert_close(&out, &naive, "nn");
        matmul_nt(&a, &transpose(&b, k, n), &mut out, m, k, n);
        assert_close(&out, &naive, "nt");
        out.fill(1.0);
        matmul_nt_acc(&a, &transpose(&b, k, n), &mut out, m, k, n);
        assert_close(&out, &shifted, "nt_acc");
        out.fill(1.0);
        matmul_tn_acc(&transpose(&a, m, k), &b, &mut out, m, k, n);
        assert_close(&out, &shifted, "tn_acc");
    }

    #[test]
    fn nt_small_m_matches_tiled_reference() {
        // m < NT_PACK_MIN_ROWS keeps the blocked-dot path; it must still
        // agree with the explicit-transpose reference to tolerance.
        let (m, k, n) = (3, 37, 29);
        assert!(m < NT_PACK_MIN_ROWS);
        let a = fill_pattern(m * k, 1.0, 0);
        let b = fill_pattern(n * k, 1.0, 1); // stored [n, k]
        let mut expected = vec![0.0; m * n];
        matmul_naive(&a, &transpose(&b, n, k), &mut expected, m, k, n);
        let mut out = vec![0.0; m * n];
        matmul_nt(&a, &b, &mut out, m, k, n);
        assert_close(&out, &expected, "nt small m");
    }

    #[test]
    fn nt_is_partition_invariant() {
        // A row must produce identical bits whether the thread partition
        // routes it through the MR tile or the remainder axpy path, for both
        // the overwriting and the accumulating variant.
        let (m, k, n) = (16, 40, 35); // n_main = 32, 3 dot-tail columns
        let a = fill_pattern(m * k, 1.0, 0);
        let b = fill_pattern(n * k, 1.0, 1);
        let init = fill_pattern(m * n, 0.5, 2);
        for acc in [false, true] {
            let mut whole = init.clone();
            matmul_nt_rows(&a, &b, &mut whole, 0, m, k, n, acc);
            let mut split = init.clone();
            for c in 0..4 {
                let chunk = &mut split[c * 4 * n..(c + 1) * 4 * n];
                matmul_nt_rows(&a, &b, chunk, c * 4, m, k, n, acc);
            }
            assert_eq!(
                bits(&whole),
                bits(&split),
                "partition changed NT bits (acc={acc})"
            );
        }
    }

    #[test]
    fn packed_and_unpacked_nn_are_bit_identical() {
        // The packing gate keys on chunk size, so the two layouts must agree
        // bitwise. Drive matmul_rows directly: >= PACK_MIN_GROUPS full MR
        // groups packs, a single group does not.
        let (m, k, n) = (2 * MR, 33, 37);
        let a = fill_pattern(m * k, 1.0, 0);
        let b = fill_pattern(k * n, 1.0, 1);
        let mut packed = vec![0.0f32; m * n];
        matmul_rows(&a, &b, &mut packed, 0, k, n);
        let mut unpacked = vec![0.0f32; m * n];
        for c in 0..2 {
            // One MR group per chunk: below the packing gate.
            let chunk = &mut unpacked[c * MR * n..(c + 1) * MR * n];
            matmul_rows(&a, &b, chunk, c * MR, k, n);
        }
        assert_eq!(bits(&packed), bits(&unpacked), "packing changed NN bits");
    }

    #[test]
    fn dot_is_exact_on_structured_input() {
        let x: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let y = vec![2.0f32; 19];
        assert_eq!(dot(&x, &y), (0..19).sum::<i32>() as f32 * 2.0);
    }

    #[test]
    fn add_scaled_into_buffer() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let mut out = [0.0; 2];
        add_scaled(&a, &b, 0.5, &mut out);
        assert_eq!(out, [6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "lhs has")]
    fn dimension_mismatch_panics() {
        let mut out = [0.0; 4];
        matmul(&[1.0; 3], &[1.0; 4], &mut out, 2, 2, 2);
    }

    #[test]
    fn tn_accumulate_is_partition_invariant() {
        // Regression: a row must produce identical bits whether the thread
        // partition routes it through the MR tile or the remainder path.
        // Before the accumulators were seeded from the existing output, the
        // tile added a zero-based sum in one extra rounding, so chunk
        // boundaries not aligned to MR changed the result with the thread
        // count.
        let (m, k, n) = (16, 64, 32);
        let a = fill_pattern(k * m, 1.0, 0);
        let b = fill_pattern(k * n, 1.0, 1);
        let init = fill_pattern(m * n, 0.5, 2);
        // One chunk of all 16 rows: two full MR=6 groups + 4 remainder rows
        // (the single-thread partition).
        let mut whole = init.clone();
        matmul_tn_rows(&a, &b, &mut whole, 0, m, k, n);
        // Four 4-row chunks: every row takes the remainder path (the
        // four-thread partition).
        let mut split = init.clone();
        for c in 0..4 {
            let chunk = &mut split[c * 4 * n..(c + 1) * 4 * n];
            matmul_tn_rows(&a, &b, chunk, c * 4, m, k, n);
        }
        assert_eq!(bits(&whole), bits(&split), "partition changed TN bits");
    }

    #[test]
    fn isa_active_is_a_compile_time_fact_with_stable_names() {
        // Bench metadata records these strings; `active` is const-evaluable
        // because it reads only what the build was compiled for.
        const ACTIVE: Isa = Isa::active();
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(
            ACTIVE == Isa::Avx2Fma,
            cfg!(all(target_feature = "avx2", target_feature = "fma"))
        );
    }

    #[test]
    fn supported_build_has_hardware_fma() {
        // Every kernel inner loop is `f32::mul_add`. Compiled without the
        // `fma` target feature it becomes a libm call per element — same
        // bits, far slower — so such a build is not a supported
        // configuration.
        let fused = cfg!(target_feature = "fma") || !cfg!(target_arch = "x86_64");
        assert!(
            fused,
            "fleet-ml was compiled without hardware FMA: build with the \
             workspace's .cargo/config.toml (`-C target-cpu=native`) on an \
             FMA-capable host"
        );
    }
}
