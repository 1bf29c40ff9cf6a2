//! Deterministic data-parallel helpers for the FLeet hot paths, backed by a
//! persistent worker pool.
//!
//! This is the workspace's stand-in for `rayon` (which is unavailable in the
//! network-less build environment): a lazily-spawned, channel-fed pool of
//! `max_threads() - 1` workers with a rayon-like surface —
//! [`parallel_chunks_mut`] for disjoint in-place work (the matmul kernels),
//! [`parallel_map`] for independent computations, [`parallel_map_with`] for
//! per-thread scratch state (the per-round worker gradients in
//! `fleet_server::simulation`) and [`parallel_uneven_zip_mut`] for fan-out
//! over unequal contiguous ranges paired with per-range state (the sharded
//! parameter server in `fleet_core`).
//!
//! # Why a pool
//!
//! Earlier revisions spawned scoped `std::thread`s per call, which charged
//! every kernel fan-out, shard application and K-gradient round tens of
//! microseconds of thread-creation latency. The pool spawns its workers once,
//! on the first fan-out that needs them, and afterwards a fan-out is one
//! enqueue + unpark per worker. The calling thread always executes slot 0 of
//! the fan-out itself, so a width-`w` fan-out wakes only `w - 1` workers and
//! `max_threads() == 1` never touches the pool at all.
//!
//! # Determinism contract
//!
//! All helpers partition work into *contiguous* ranges and write each output
//! exactly once from exactly one thread, so results are bit-for-bit identical
//! to the serial execution regardless of thread count or scheduling. The
//! partition depends only on the work size and [`max_threads`], never on
//! which pool worker runs which slot. Nothing here may introduce
//! reduction-order nondeterminism; keep it that way.
//!
//! # Thread count and nesting
//!
//! [`max_threads`] honours a [`set_max_threads`] override, then
//! `FLEET_NUM_THREADS`, then `std::thread::available_parallelism`. With one
//! thread every helper runs the work inline with zero pool traffic. Fan-out
//! slots run with nested fan-out suppressed: a parallel kernel called from
//! inside a [`parallel_map`] task executes inline instead of flooding the
//! pool queues with `threads²` jobs. Worker panics are forwarded to the
//! calling thread after the whole fan-out drains, matching the scoped-thread
//! behaviour this pool replaced.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

static THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// True while this thread is executing a fan-out slot; parallel helpers
    /// run inline instead of nesting another fan-out.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Maximum worker threads: the [`set_max_threads`] override if one was
/// installed, else env `FLEET_NUM_THREADS`, else the hardware's available
/// parallelism, else 1. Cached after the first call; the pool is sized to
/// this value minus the calling thread.
pub fn max_threads() -> usize {
    *THREADS.get_or_init(|| {
        std::env::var("FLEET_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Installs the thread count programmatically, winning over the lazy env
/// lookup if called before the first [`max_threads`]. Returns whether the
/// value took effect (false once the count is already cached). Exists so
/// tests can pin a parallel configuration without `std::env::set_var`, which
/// is unsound once threads are running.
pub fn set_max_threads(threads: usize) -> bool {
    threads > 0 && THREADS.set(threads).is_ok()
}

fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the flag even when `f` unwinds: `fan_out` catches slot
    /// panics (to defer them past the drain barrier) and the process keeps
    /// running, so a leaked `true` would silently disable all future
    /// parallelism on this thread.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            IN_PARALLEL_REGION.with(|flag| flag.set(prev));
        }
    }
    let _restore = Restore(IN_PARALLEL_REGION.with(|flag| flag.replace(true)));
    f()
}

#[cfg(test)]
fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

fn fan_out_width(work_items: usize) -> usize {
    if IN_PARALLEL_REGION.with(Cell::get) {
        1
    } else {
        max_threads().min(work_items)
    }
}

// ---------------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------------

/// One queued fan-out slot: a pointer to the caller's stack-held
/// [`FanOutHeader`] plus the slot index this worker should execute. The
/// header is guaranteed to outlive the job by the `remaining` handshake in
/// [`fan_out`], which blocks the caller until every slot has finished.
struct Job {
    header: *const FanOutHeader,
    slot: usize,
}

// SAFETY: the header pointer is only dereferenced while the originating
// `fan_out` call keeps the pointee alive (it parks until `remaining` reaches
// zero), and `FanOutHeader` itself only exposes `Sync` state.
unsafe impl Send for Job {}

/// Type-erased fan-out shared between the caller and the workers it enlists.
struct FanOutHeader {
    /// Calls the caller's closure for one slot: `run(ctx, slot)`.
    run: unsafe fn(*const (), usize),
    /// The caller's `&closure`, erased.
    ctx: *const (),
    /// Slots not yet finished (workers only; the caller's own slot 0 is not
    /// counted). The caller parks until this reaches zero.
    remaining: AtomicUsize,
    /// Handle used to unpark the caller when the last slot finishes.
    caller: std::thread::Thread,
    /// First worker panic, forwarded to the caller after the fan-out drains.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `run`/`ctx` point at a `Sync` closure owned by the (blocked)
// caller; the remaining fields are synchronisation primitives.
unsafe impl Sync for FanOutHeader {}

/// A single worker's job queue.
#[derive(Default)]
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl WorkerQueue {
    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .expect("worker queue poisoned")
            .push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().expect("worker queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.ready.wait(jobs).expect("worker queue poisoned");
        }
    }
}

/// The process-wide pool: one queue per worker thread. Workers are spawned
/// once, on the first fan-out wider than one slot, and live for the rest of
/// the process (they are detached; process exit reaps them).
struct Pool {
    queues: Vec<&'static WorkerQueue>,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = max_threads().saturating_sub(1);
            let queues: Vec<&'static WorkerQueue> = (0..workers)
                .map(|i| {
                    let queue: &'static WorkerQueue = Box::leak(Box::default());
                    spawn_worker(i, queue);
                    queue
                })
                .collect();
            Pool { queues }
        })
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "this is the deterministic pool the ban points everyone else to; its workers are the workspace's only compute threads"
)]
fn spawn_worker(index: usize, queue: &'static WorkerQueue) {
    std::thread::Builder::new()
        .name(format!("fleet-parallel-{index}"))
        .spawn(move || loop {
            let job = queue.pop();
            // SAFETY: the originating `fan_out` keeps the header (and the
            // closure it points to) alive until `remaining` hits zero, which
            // cannot happen before this slot's `fetch_sub` below.
            let header = unsafe { &*job.header };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: `header.run` is always `call_slot::<F>` paired by
                // `fan_out` with a `header.ctx` erased from the same `&F`,
                // which the same liveness argument as above keeps valid for
                // the duration of this call.
                run_as_worker(|| unsafe { (header.run)(header.ctx, job.slot) });
            }));
            if let Err(payload) = outcome {
                header
                    .panic
                    .lock()
                    .expect("panic slot poisoned")
                    .get_or_insert(payload);
            }
            // Clone the caller handle *before* the decrement: the moment
            // `remaining` reaches zero the caller may return and invalidate
            // `header`, so nothing may touch it afterwards.
            let caller = header.caller.clone();
            if header.remaining.fetch_sub(1, Ordering::Release) == 1 {
                caller.unpark();
            }
        })
        .expect("failed to spawn fleet-parallel worker");
}

/// Un-erases the fan-out closure and runs one slot of it.
///
/// # Safety
///
/// `ctx` must be the pointer `fan_out::<F>` erased from `&F` — same `F`, so
/// the cast below restores the original type — and that `F` must still be
/// alive, which `fan_out` guarantees by not returning until every slot has
/// decremented `remaining`.
unsafe fn call_slot<F: Fn(usize) + Sync>(ctx: *const (), slot: usize) {
    // SAFETY: `ctx` was erased from `&F` by `fan_out`, which outlives us.
    unsafe { (*ctx.cast::<F>())(slot) }
}

/// Runs `task(slot)` for every `slot in 0..width`, slot 0 on the calling
/// thread and the rest on pool workers, and returns once all slots finished.
/// Worker panics (and the caller's own) propagate after the fan-out drains,
/// so borrowed data is never freed while a worker can still touch it.
fn fan_out<F: Fn(usize) + Sync>(width: usize, task: F) {
    if width <= 1 {
        if width == 1 {
            task(0);
        }
        return;
    }
    let header = FanOutHeader {
        run: call_slot::<F>,
        ctx: (&raw const task).cast(),
        remaining: AtomicUsize::new(width - 1),
        caller: std::thread::current(),
        panic: Mutex::new(None),
    };
    let pool = Pool::global();
    // Hard assert, checked before anything is queued: failing midway through
    // the push loop would unwind the stack-held header while queued jobs
    // still point at it.
    assert!(width - 1 <= pool.queues.len(), "fan-out wider than pool");
    for slot in 1..width {
        pool.queues[slot - 1].push(Job {
            header: &raw const header,
            slot,
        });
    }
    // The caller is enlisted as slot 0. Its own panic must not unwind past
    // `header` while workers still reference it, so defer it too.
    let own = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_as_worker(|| task(0));
    }));
    while header.remaining.load(Ordering::Acquire) > 0 {
        std::thread::park();
    }
    if let Some(payload) = header.panic.lock().expect("panic slot poisoned").take() {
        std::panic::resume_unwind(payload);
    }
    if let Err(payload) = own {
        std::panic::resume_unwind(payload);
    }
}

/// A raw pointer that may cross threads: the helpers below hand each fan-out
/// slot a *disjoint* region computed from this base, which is what makes the
/// aliasing sound.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the struct docs — every dereference targets a slot-private
// disjoint range of the pointee.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing the wrapper between threads only shares the *address*;
// the disjoint-slot discipline above means no two threads ever form
// references to the same element through it, so `&SendPtr<T>` is as safe to
// share as the `usize` it wraps.
unsafe impl<T: Send> Sync for SendPtr<T> {}

// ---------------------------------------------------------------------------
// Public helpers
// ---------------------------------------------------------------------------

/// Splits `data` into at most [`max_threads`] contiguous chunks of whole
/// `unit`-sized blocks and runs `f(first_block_index, chunk)` on each, in
/// parallel on the persistent pool. `unit` is the indivisible block length
/// (e.g. one matrix row); every chunk is a multiple of `unit` except possibly
/// the last.
///
/// Runs inline when the data is a single block, only one thread is
/// available, or the caller is itself a fan-out slot.
///
/// # Panics
///
/// Panics if `unit` is zero.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit block length must be positive");
    let blocks = data.len().div_ceil(unit);
    let threads = fan_out_width(blocks);
    if threads <= 1 {
        f(0, data);
        return;
    }
    let blocks_per_chunk = blocks.div_ceil(threads);
    let chunk_len = blocks_per_chunk * unit;
    let chunks = data.len().div_ceil(chunk_len);
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    fan_out(chunks, |slot| {
        // Bind the whole wrapper so edition-2021 disjoint capture does not
        // reach through to the bare (non-Sync) pointer field.
        let SendPtr(base) = { base };
        let start = slot * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: [start, end) ranges are disjoint across slots and within
        // the original slice; the borrow is alive for the whole fan-out.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(start), end - start) };
        f(slot * blocks_per_chunk, chunk);
    });
}

/// Fans out over *unequal* contiguous ranges of a flat vector, pairing each
/// range with its own per-range state: `data` is split into
/// `lens[0], lens[1], …` consecutive chunks and `f(i, &mut items[i], chunk_i)`
/// runs for every range, with consecutive ranges grouped onto at most
/// [`max_threads`] pool slots. This is the sharded parameter server's
/// primitive: `items` are the shard states, `data` is the flat parameter
/// vector and `lens` the shard lengths. Ranges are balanced across slots by
/// total *elements*, not range count, so one oversized shard among small ones
/// gets a slot to itself instead of dragging its groupmates' latency up.
///
/// Every range is processed exactly once, from exactly one thread, in a way
/// that is bit-for-bit identical to the serial loop — the ranges are disjoint
/// and `f` receives them in index order within each slot, so no
/// reduction-order nondeterminism can arise. Runs inline for a single range,
/// a single thread, or when called from inside a fan-out slot.
///
/// # Panics
///
/// Panics if `items.len() != lens.len()` or `lens` does not sum to
/// `data.len()`.
pub fn parallel_uneven_zip_mut<T, U, F>(items: &mut [T], data: &mut [U], lens: &[usize], f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T, &mut [U]) + Sync,
{
    assert_eq!(
        items.len(),
        lens.len(),
        "one length per item: {} items vs {} lens",
        items.len(),
        lens.len()
    );
    assert_eq!(
        lens.iter().sum::<usize>(),
        data.len(),
        "range lengths must cover the data exactly"
    );
    let run_group = |first: usize, group: &mut [T], group_lens: &[usize], group_data: &mut [U]| {
        let mut rest = group_data;
        for (i, (item, &len)) in group.iter_mut().zip(group_lens).enumerate() {
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            f(first + i, item, chunk);
        }
    };
    let threads = fan_out_width(items.len());
    if threads <= 1 {
        run_group(0, items, lens, data);
        return;
    }
    let groups = group_by_elements(lens, threads);
    let items_base = SendPtr(items.as_mut_ptr());
    let data_base = SendPtr(data.as_mut_ptr());
    fan_out(groups.len(), |slot| {
        let (SendPtr(items_base), SendPtr(data_base)) = { (items_base, data_base) };
        let g = &groups[slot];
        // SAFETY: groups partition both `items` and `data` into disjoint
        // contiguous ranges, each visited by exactly one slot.
        let (group, group_data) = unsafe {
            (
                std::slice::from_raw_parts_mut(items_base.add(g.first), g.count),
                std::slice::from_raw_parts_mut(data_base.add(g.elem_offset), g.elems),
            )
        };
        run_group(
            g.first,
            group,
            &lens[g.first..g.first + g.count],
            group_data,
        );
    });
}

/// One contiguous run of ranges assigned to a fan-out slot.
#[derive(Debug, PartialEq, Eq)]
struct RangeGroup {
    /// Index of the first range in the group.
    first: usize,
    /// Number of ranges in the group.
    count: usize,
    /// Element offset of the group's data within the flat vector.
    elem_offset: usize,
    /// Total elements across the group's ranges.
    elems: usize,
}

/// Partitions `lens` into at most `groups` contiguous groups balanced by
/// total *elements*: each group takes ranges toward the ceiling-average of
/// the elements still unassigned (recomputed per group, so one huge range
/// cannot starve the remaining slots), stopping short of a range when that
/// lands closer to the target than overshooting past it. Depends only on
/// `lens` and `groups`, never on scheduling — the partition, like every
/// helper here, is deterministic for a given thread count.
fn group_by_elements(lens: &[usize], groups: usize) -> Vec<RangeGroup> {
    let mut out = Vec::with_capacity(groups.min(lens.len()));
    let mut first = 0;
    let mut elem_offset = 0;
    let mut remaining_elems: usize = lens.iter().sum();
    for g in 0..groups {
        if first == lens.len() {
            break;
        }
        let remaining_groups = groups - g;
        let target = remaining_elems.div_ceil(remaining_groups);
        let mut end = first;
        let mut elems = 0usize;
        while end < lens.len() {
            let with_next = elems + lens[end];
            if elems > 0 && with_next >= target && with_next - target > target - elems {
                break; // stopping short is closer to the target
            }
            elems = with_next;
            end += 1;
            if elems >= target {
                break;
            }
        }
        if remaining_groups == 1 {
            // Last slot: sweep whatever remains.
            while end < lens.len() {
                elems += lens[end];
                end += 1;
            }
        }
        out.push(RangeGroup {
            first,
            count: end - first,
            elem_offset,
            elems,
        });
        first = end;
        elem_offset += elems;
        remaining_elems -= elems;
    }
    out
}

/// Maps `f` over `items` with preserved output order, fanning contiguous
/// ranges out to at most [`max_threads`] pool slots. Runs inline for a single
/// item, a single thread, or when called from inside a fan-out slot.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(items, || (), move |(), item| f(item))
}

/// Like [`parallel_map`], but each fan-out slot first builds scratch state
/// with `init` and threads it through its contiguous run of items — the way
/// the simulation gives each worker thread one model replica instead of one
/// per task.
pub fn parallel_map_with<S, T, U, FI, F>(items: &[T], init: FI, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = fan_out_width(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let per_slot = items.len().div_ceil(threads);
    let slots = items.len().div_ceil(per_slot);
    let mut partials: Vec<Vec<U>> = (0..slots).map(|_| Vec::new()).collect();
    let out_base = SendPtr(partials.as_mut_ptr());
    fan_out(slots, |slot| {
        let SendPtr(out_base) = { out_base };
        let start = slot * per_slot;
        let chunk = &items[start..(start + per_slot).min(items.len())];
        let mut state = init();
        let produced: Vec<U> = chunk.iter().map(|item| f(&mut state, item)).collect();
        // SAFETY: each slot writes exactly its own element of `partials`,
        // which outlives the fan-out.
        unsafe { *out_base.add(slot) = produced };
    });
    partials.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_all_blocks_once() {
        let mut data = vec![0u32; 103];
        parallel_chunks_mut(&mut data, 10, |first_block, chunk| {
            for (i, row) in chunk.chunks(10).enumerate() {
                assert!(row.len() <= 10);
                let _ = first_block + i;
            }
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn chunk_indices_are_block_aligned() {
        let mut data = vec![0usize; 64];
        parallel_chunks_mut(&mut data, 8, |first_block, chunk| {
            for (i, row) in chunk.chunks_mut(8).enumerate() {
                for v in row.iter_mut() {
                    *v = first_block + i;
                }
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 8);
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert!(parallel_map::<usize, usize, _>(&[], |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], |&x: &usize| x + 1), vec![8]);
    }

    #[test]
    fn map_with_builds_one_state_per_thread() {
        let builds = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_with(
            &items,
            || builds.fetch_add(1, Ordering::SeqCst),
            |_state, &x| x + 1,
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        // One state per fan-out slot (or one total when run inline), never
        // one per item.
        let built = builds.load(Ordering::SeqCst);
        assert!(built <= max_threads().min(items.len()), "built {built}");
    }

    #[test]
    fn nested_fan_out_runs_inline() {
        let items: Vec<usize> = (0..8).collect();
        let out = parallel_map(&items, |&x| {
            // A nested helper must not re-enter the pool; it still computes.
            let mut inner = vec![0usize; 16];
            parallel_chunks_mut(&mut inner, 4, |first, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = first * 4 + i + x;
                }
            });
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|x| (0..16).map(|i| i + x).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn pool_survives_repeated_fan_outs() {
        // The same persistent workers serve many fan-outs back to back; this
        // is the spawn-amortisation the pool exists for.
        for round in 0..200usize {
            let items: Vec<usize> = (0..17).collect();
            let out = parallel_map(&items, |&x| x + round);
            assert_eq!(out, (round..17 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_recovers() {
        let boom = std::panic::catch_unwind(|| {
            let items: Vec<usize> = (0..64).collect();
            parallel_map(&items, |&x| {
                assert!(x < 60, "task {x} exploded");
                x
            });
        });
        // With >=2 threads the panic comes from a pool worker; with one it is
        // the inline path. Either way it must reach the caller...
        assert!(boom.is_err());
        // ...and the pool must keep serving jobs afterwards.
        let items: Vec<usize> = (0..32).collect();
        assert_eq!(
            parallel_map(&items, |&x| x * 3),
            (0..32).map(|x| x * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn slot0_panic_does_not_leak_suppression() {
        // Slot 0 runs on the calling thread; its panic unwinds through
        // `run_as_worker`, which must restore the nesting flag or every
        // later fan-out on this thread would silently run inline.
        let items: Vec<usize> = (0..64).collect();
        let boom = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                assert!(x != 0, "slot 0 task exploded");
                x
            })
        });
        assert!(boom.is_err());
        assert!(
            !in_parallel_region(),
            "suppression flag leaked after slot-0 panic"
        );
        assert_eq!(
            parallel_map(&items, |&x| x + 1),
            (1..=64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uneven_zip_pairs_each_range_with_its_state() {
        let mut states = vec![0usize; 4];
        let mut data = vec![1u32; 10];
        let lens = [3, 0, 5, 2];
        parallel_uneven_zip_mut(&mut states, &mut data, &lens, |i, state, chunk| {
            assert_eq!(chunk.len(), lens[i]);
            *state = chunk.len();
            for v in chunk.iter_mut() {
                *v += i as u32;
            }
        });
        assert_eq!(states, lens);
        assert_eq!(data, [1, 1, 1, 3, 3, 3, 3, 3, 4, 4]);
    }

    #[test]
    fn uneven_zip_matches_serial_reference() {
        let lens: Vec<usize> = (0..23).map(|i| (i * 7) % 11).collect();
        let total: usize = lens.iter().sum();
        let mut data: Vec<f32> = (0..total).map(|i| i as f32).collect();
        let mut reference = data.clone();
        let mut states = vec![0.0f32; lens.len()];
        parallel_uneven_zip_mut(&mut states, &mut data, &lens, |i, state, chunk| {
            for v in chunk.iter_mut() {
                *v = v.mul_add(1.5, i as f32);
            }
            *state = chunk.iter().sum();
        });
        let mut offset = 0;
        let mut ref_states = vec![0.0f32; lens.len()];
        for (i, &len) in lens.iter().enumerate() {
            let chunk = &mut reference[offset..offset + len];
            for v in chunk.iter_mut() {
                *v = v.mul_add(1.5, i as f32);
            }
            ref_states[i] = chunk.iter().sum();
            offset += len;
        }
        assert_eq!(data, reference);
        assert_eq!(states, ref_states);
    }

    #[test]
    fn uneven_zip_bitwise_identical_on_skewed_sizes() {
        // ROADMAP regression: one oversized shard among tiny ones. The
        // element-balanced grouping must not change the numerics relative to
        // the serial loop, whatever the skew.
        let mut lens = vec![100_000usize];
        lens.extend(std::iter::repeat_n(37usize, 23));
        let total: usize = lens.iter().sum();
        let mut data: Vec<f32> = (0..total).map(|i| (i as f32 * 0.001).sin()).collect();
        let mut reference = data.clone();
        let mut states = vec![0.0f32; lens.len()];
        parallel_uneven_zip_mut(&mut states, &mut data, &lens, |i, state, chunk| {
            for v in chunk.iter_mut() {
                *v = v.mul_add(1.000_1, (i % 3) as f32 * 1e-3);
            }
            *state = chunk.iter().fold(0.0, |acc, &v| acc + v);
        });
        let mut offset = 0;
        let mut ref_states = vec![0.0f32; lens.len()];
        for (i, &len) in lens.iter().enumerate() {
            let chunk = &mut reference[offset..offset + len];
            for v in chunk.iter_mut() {
                *v = v.mul_add(1.000_1, (i % 3) as f32 * 1e-3);
            }
            ref_states[i] = chunk.iter().fold(0.0, |acc, &v| acc + v);
            offset += len;
        }
        assert_eq!(data, reference);
        assert_eq!(states, ref_states);
    }

    #[test]
    fn grouping_balances_by_elements_not_count() {
        // One huge range plus many small ones: by-count grouping would glue
        // the huge range to a third of the small ones; by-element grouping
        // gives it a slot of its own.
        let mut lens = vec![90_000usize];
        lens.extend(std::iter::repeat_n(1_000usize, 30));
        let groups = group_by_elements(&lens, 4);
        assert!(groups.len() <= 4);
        assert_eq!(groups[0].count, 1, "huge range should sit alone");
        assert_eq!(groups[0].elems, 90_000);
        // The small ranges spread over the remaining slots near-evenly.
        for g in &groups[1..] {
            assert!(g.elems <= 12_000, "unbalanced group: {g:?}");
        }
        check_grouping_invariants(&lens, &groups);
    }

    #[test]
    fn grouping_covers_everything_exactly_once() {
        for (lens, groups) in [
            (vec![0usize, 0, 0], 2),
            (vec![5], 4),
            ((0..23).map(|i| (i * 7) % 11).collect::<Vec<_>>(), 7),
            (vec![1, 1, 1, 100], 2),
            (vec![49, 49, 49, 3], 3),
            (vec![], 3),
        ] {
            let out = group_by_elements(&lens, groups);
            assert!(out.len() <= groups);
            check_grouping_invariants(&lens, &out);
        }
    }

    fn check_grouping_invariants(lens: &[usize], groups: &[RangeGroup]) {
        let mut next_range = 0;
        let mut next_elem = 0;
        for g in groups {
            assert_eq!(g.first, next_range, "ranges must be contiguous");
            assert_eq!(g.elem_offset, next_elem, "data must be contiguous");
            let elems: usize = lens[g.first..g.first + g.count].iter().sum();
            assert_eq!(elems, g.elems);
            next_range += g.count;
            next_elem += g.elems;
        }
        assert_eq!(next_range, lens.len(), "every range assigned");
        assert_eq!(next_elem, lens.iter().sum::<usize>());
    }

    #[test]
    #[should_panic(expected = "cover the data exactly")]
    fn uneven_zip_rejects_mismatched_lengths() {
        let mut states = vec![0usize; 2];
        let mut data = vec![0u8; 5];
        parallel_uneven_zip_mut(&mut states, &mut data, &[2, 2], |_, _, _| {});
    }
}
