//! The model scratch budget, held as a *count* of the bytes a pass allocates
//! on the calling thread. Every transient buffer of a pass (one image's
//! im2col columns, masks, argmax indices, cached inputs, activations, input
//! gradients) is lent by the thread's scratch pool and given back before
//! the pass returns, so once one replica has warmed the pool, another
//! replica's first pass allocates little beyond the gradient it returns, a
//! model at rest clones as nothing but its parameters and gradients, and
//! the most an MNIST gradient holds at once stays under a byte budget.
//!
//! The counting allocator is this binary's `#[global_allocator]`. It counts
//! bytes and calls per thread, and the budget has no allowance for spawning:
//! neither the layers nor the kernels fan out, so a pass or a kernel call at
//! any `FLEET_NUM_THREADS` runs on the calling thread alone.
//! `scripts/ci.sh` runs these tests at 1 and 7 threads, where a fan-out that
//! came back would allocate its slots' bookkeeping here.

use fleet_ml::kernels;
use fleet_ml::models::table1_mnist_cnn;
use fleet_ml::{Sequential, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// Bytes handed out to the current thread. Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor registers TLS teardown.
    static ALLOCATED_HERE: Cell<u64> = const { Cell::new(0) };
    /// Allocator calls (allocations and reallocations) made by the current
    /// thread; const-initialised for the same reason.
    static CALLS_HERE: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by the current thread, and the
    /// most that difference has been since [`reset_peak`]; const-initialised
    /// for the same reason.
    static LIVE_HERE: Cell<i64> = const { Cell::new(0) };
    static PEAK_HERE: Cell<i64> = const { Cell::new(0) };
}

/// `System`, plus a count of the calls and of the bytes requested (whole
/// allocations, and the growth of reallocations), and of the bytes live.
struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATED_HERE.try_with(|here| here.set(here.get() + bytes as u64));
    let _ = CALLS_HERE.try_with(|here| here.set(here.get() + 1));
}

fn live(delta: i64) {
    let _ = LIVE_HERE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_HERE.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serialises the tests of this binary, so each measures its own pass with
/// the machine to itself.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn allocated_here() -> u64 {
    ALLOCATED_HERE.with(Cell::get)
}

fn calls_here() -> u64 {
    CALLS_HERE.with(Cell::get)
}

/// Starts a new high-water mark at the bytes live now, and returns them.
fn reset_peak() -> i64 {
    let now = LIVE_HERE.with(Cell::get);
    PEAK_HERE.with(|peak| peak.set(now));
    now
}

fn peak_here() -> i64 {
    PEAK_HERE.with(Cell::get)
}

/// Bytes a pass may allocate beyond what it returns: tensor shapes and the
/// per-layer gradient lists — never a buffer.
const SLACK: u64 = 4 << 10;

/// Allocator calls a replica's first MNIST gradient on a warm thread may
/// make, as measured (a repeat on the same replica makes 31). Beyond the
/// gradient returned they add up to under 1 kB — shapes and lists, never a
/// buffer — so a hole in the scratch pool would show here as extra calls.
const GRADIENT_CALLS: u64 = 33;

/// A deterministic `[batch, 1, 28, 28]` image batch and its labels.
fn mnist_batch(batch: usize, salt: usize) -> (Tensor, Vec<usize>) {
    let pixels = (0..batch * 28 * 28)
        .map(|i| (((i + salt) * 37) % 255) as f32 / 255.0)
        .collect();
    let labels = (0..batch).map(|i| (i + salt) % 10).collect();
    (Tensor::from_vec(pixels, &[batch, 1, 28, 28]), labels)
}

#[test]
fn a_replica_computes_its_first_gradient_on_the_threads_warm_scratch() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut replicas: Vec<Sequential> = vec![table1_mnist_cnn(42); 4];
    let (inputs, labels) = mnist_batch(32, 0);
    // On an empty pool, early small borrowers get the large buffers that
    // early large ones gave back, so the first pass leaves a pool shaped by
    // that order; the second pass settles it.
    for _ in 0..2 {
        replicas[0]
            .compute_gradient(&inputs, &labels)
            .expect("warm-up gradient");
    }

    for (k, replica) in replicas.iter_mut().enumerate().skip(1) {
        let (bytes_before, calls_before) = (allocated_here(), calls_here());
        let (_, gradient) = replica
            .compute_gradient(&inputs, &labels)
            .expect("replica gradient");
        let allocated = allocated_here() - bytes_before;
        let calls = calls_here() - calls_before;
        let returned = 4 * gradient.len() as u64;
        assert!(
            allocated <= returned + SLACK,
            "replica {k}'s first gradient allocated {allocated} B on this thread; \
             the gradient it returns is {returned} B"
        );
        assert!(
            calls <= GRADIENT_CALLS,
            "replica {k}'s first gradient made {calls} allocator calls on this thread; \
             the budget is {GRADIENT_CALLS}"
        );
    }
}

/// The most bytes two MNIST gradients (batch 32) may hold at once on a
/// thread whose scratch pool starts empty, beyond what was live before:
/// the pool's whole working set plus the gradient returned. Measured at
/// 1 939 832 B, with one image's im2col columns per convolution and a bit
/// mask per ReLU. A whole-batch column workspace (460 800 + 102 400
/// floats), float ReLU masks and a pool that grew its largest buffer for
/// any request it could not fit made it 5 670 008 B.
const MNIST_HIGH_WATER: i64 = 2_000_000;

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the measurement needs a thread whose scratch pool has never lent a buffer; it runs two passes and shares nothing, so no partition is involved"
)]
fn an_mnist_gradients_scratch_high_water_holds_one_images_columns_not_the_batchs() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let model = table1_mnist_cnn(42);
    let (inputs, labels) = mnist_batch(32, 0);
    let high_water = std::thread::scope(|s| {
        s.spawn(|| {
            let mut model = model.clone();
            let before = reset_peak();
            for _ in 0..2 {
                model.compute_gradient(&inputs, &labels).expect("gradient");
            }
            peak_here() - before
        })
        .join()
        .expect("fresh thread")
    });
    assert!(
        high_water <= MNIST_HIGH_WATER,
        "two MNIST gradients on a fresh thread held {high_water} B at once; \
         the budget is {MNIST_HIGH_WATER} B"
    );
}

#[test]
fn a_warm_kernel_call_allocates_nothing_on_the_calling_thread() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    const N: usize = 256;
    let a: Vec<f32> = (0..N * N).map(|i| (i as f32 * 0.001).sin()).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i as f32 * 0.002).cos()).collect();
    let mut out = vec![0.0f32; N * N];
    let all: [(&str, Kernel); 3] = [
        ("matmul", kernels::matmul),
        ("matmul_tn_acc", kernels::matmul_tn_acc),
        ("matmul_nt", kernels::matmul_nt),
    ];
    for (name, kernel) in all {
        // The first call may grow this thread's packing buffer.
        kernel(&a, &b, &mut out, N, N, N);
        let before = allocated_here();
        kernel(&a, &b, &mut out, N, N, N);
        let allocated = allocated_here() - before;
        assert_eq!(
            allocated, 0,
            "a warm {N}x{N}x{N} {name} allocated {allocated} B on this thread: \
             a kernel call must run whole on its caller, spawning nothing"
        );
    }
}

#[test]
fn a_model_at_rest_clones_as_its_parameters_and_gradients() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut model = table1_mnist_cnn(7);
    let (inputs, _) = mnist_batch(512, 3);
    let predicted = model.predict(&inputs).expect("predict");
    assert_eq!(predicted.len(), 512);

    let before = allocated_here();
    let replica = model.clone();
    let allocated = allocated_here() - before;
    let weights = 2 * 4 * replica.parameter_count() as u64;
    assert!(
        allocated <= weights + SLACK,
        "cloning a model after a 512-image predict allocated {allocated} B; \
         its parameters and gradients are {weights} B"
    );
}

#[test]
fn logits_a_caller_keeps_cost_only_their_copy() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut model = table1_mnist_cnn(3);
    let (inputs, _) = mnist_batch(32, 5);
    let mut kept = Vec::new();
    for _ in 0..2 {
        kept.push(model.forward(&inputs).expect("warm-up forward"));
    }

    for pass in 0..3 {
        let before = allocated_here();
        let logits = model.forward(&inputs).expect("forward");
        let allocated = allocated_here() - before;
        let returned = 4 * logits.data().len() as u64;
        assert!(
            allocated <= returned + SLACK,
            "forward {pass} allocated {allocated} B on this thread; \
             the logits it returns are {returned} B"
        );
        kept.push(logits);
    }
}
