//! Deterministic data-parallel helpers for the FLeet hot paths, on
//! `std::thread::scope`.
//!
//! This is the workspace's stand-in for `rayon` (which is unavailable in the
//! network-less build environment), with a rayon-like surface. Its callers
//! fan out across *tasks*, never inside one: [`parallel_map_with`] gives each
//! slot one model replica for the per-round worker gradients in
//! `fleet_bench::AsyncSimulation`, and [`parallel_map`] generates the load
//! generator's per-worker schedules. [`parallel_chunks_mut`] has no caller in
//! the workspace any more; it stays because the frozen benchmark's
//! fan-out-versus-inline probe calls it.
//!
//! # Why no pool
//!
//! A fan-out of width `w` runs slot 0 on the calling thread and spawns slots
//! `1..w` as scoped threads over `chunks_mut` / `chunks`, so the borrow
//! checker proves the slots disjoint. An earlier revision kept a persistent
//! pool to save the spawns; on the two-core reference host it bought
//! nothing measurable. With the seed-42 fleetbench at 8 s, four runs per
//! side, `FLEET_NUM_THREADS=1` against the pool gave `serve_cifar`
//! 1 467–1 537 tasks/s against 1 479–1 505, `serve_tiny` and
//! `serve_durable` sat inside each other's spread too, and `train_inproc`
//! gained only ≈ 6 %. Callers keep fan-outs coarse, so a spawn is paid once
//! per batch of tasks.
//!
//! A fan-out inside one worker gradient did not pay either, and none is
//! left. The convolution layer used to split its batch over five fan-outs
//! per MNIST gradient; with it, `train_inproc` (seed 42, 15 s, three runs
//! per setting) ran at 343–377 tasks/s with `FLEET_NUM_THREADS=1` against
//! 264–336 at the default two threads. With the layer on one core the two settings gave
//! 356–455 and 318–409 tasks/s (six runs each, both orders), all above the
//! fan-out's best. The GEMM kernels' row fan-out, which only a lone large
//! gradient ever reached, went the same way. Nothing on that workload's
//! measured path reads the thread count; the gap left is unexplained (a
//! warm gradient makes ~31 allocator calls, too few for a per-call malloc
//! cost to explain it).
//!
//! # Determinism contract
//!
//! All helpers partition work into *contiguous* ranges and write each output
//! exactly once from exactly one thread, so results are bit-for-bit identical
//! to the serial execution regardless of thread count or scheduling. The
//! partition depends only on the work size and [`max_threads`]. Nothing here
//! may introduce reduction-order nondeterminism; keep it that way.
//!
//! # Thread count
//!
//! [`max_threads`] honours a [`set_max_threads`] override, then
//! `FLEET_NUM_THREADS`, then `std::thread::available_parallelism`. With one
//! thread every helper runs the work inline and spawns nothing. Nothing
//! guards against nesting: no task run in a slot calls back into this crate,
//! and one that did would spawn up to `threads²` threads. A panicking slot's
//! own payload reaches the caller after every slot has finished.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

static THREADS: OnceLock<usize> = OnceLock::new();

/// Maximum worker threads: the [`set_max_threads`] override if one was
/// installed, else env `FLEET_NUM_THREADS`, else the hardware's available
/// parallelism, else 1. Cached after the first call; a fan-out is at most
/// this wide, counting the calling thread.
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

/// Runs `task(slot, part)` for every part, slot 0 on the calling thread and
/// the rest on scoped threads, and returns the results in slot order.
///
/// A panicking slot's payload is re-raised on the caller once every slot has
/// finished: slot 0's if it panicked (the scope joins the spawned slots
/// before the unwind leaves it), else the lowest spawned slot's, taken from
/// its join handle — a bare `scope` would replace it with a generic message.
#[expect(
    clippy::disallowed_methods,
    reason = "this is the deterministic fan-out the ban points everyone else to; its scoped threads are the workspace's only compute threads"
)]
fn fan_out<P, R, F>(mut parts: impl Iterator<Item = P>, task: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let first = parts.next().expect("callers fan out only non-empty work");
    let task = &task;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = parts
            .enumerate()
            .map(|(i, part)| scope.spawn(move || task(i + 1, part)))
            .collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push(task(0, first));
        for handle in spawned {
            match handle.join() {
                Ok(result) => out.push(result),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Splits `data` into at most [`max_threads`] contiguous chunks of whole
/// `unit`-sized blocks and runs `f(first_block_index, chunk)` on each, in
/// parallel. `unit` is the indivisible block length (e.g. one matrix row);
/// every chunk is a multiple of `unit` except possibly the last.
///
/// Runs inline when the data is a single block or only one thread is
/// available.
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
    let threads = max_threads().min(blocks);
    if threads <= 1 {
        f(0, data);
        return;
    }
    let blocks_per_chunk = blocks.div_ceil(threads);
    fan_out(data.chunks_mut(blocks_per_chunk * unit), |slot, chunk| {
        f(slot * blocks_per_chunk, chunk);
    });
}

/// Maps `f` over `items` with preserved output order, fanning contiguous
/// ranges out to at most [`max_threads`] slots. Runs inline for a single
/// item or a single thread.
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
    let run = |chunk: &[T]| -> Vec<U> {
        let mut state = init();
        chunk.iter().map(|item| f(&mut state, item)).collect()
    };
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return run(items);
    }
    fan_out(items.chunks(items.len().div_ceil(threads)), |_, chunk| {
        run(chunk)
    })
    .into_iter()
    .flatten()
    .collect()
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
    fn slot0_runs_on_the_caller_and_width_is_bounded() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let ran_on = parallel_map(&items, |_| std::thread::current().id());
        // Items 0.. form slot 0's contiguous run, which the caller executes.
        assert_eq!(ran_on[0], caller);
        let mut distinct = Vec::new();
        for id in ran_on {
            if !distinct.contains(&id) {
                distinct.push(id);
            }
        }
        assert!(
            distinct.len() <= max_threads(),
            "{} threads ran slots, max_threads() is {}",
            distinct.len(),
            max_threads()
        );
        assert_eq!(distinct.len() > 1, max_threads() > 1, "{distinct:?}");
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn pool_survives_repeated_fan_outs() {
        // Many fan-outs back to back, each spawning and joining its own
        // slots, keep producing ordered results.
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
        // With >=2 threads the panic comes from a spawned slot; with one it
        // is the inline path. Either way the caller gets the slot's own
        // message, not the scope's generic one...
        let payload = boom.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("task 60 exploded"));
        // ...and later fan-outs keep working.
        let items: Vec<usize> = (0..32).collect();
        assert_eq!(
            parallel_map(&items, |&x| x * 3),
            (0..32).map(|x| x * 3).collect::<Vec<_>>()
        );
    }
}
