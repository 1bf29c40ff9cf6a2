//! The thread's scratch pool: one lender for every transient buffer a layer
//! uses during a pass.
//!
//! A layer borrows one image's im2col columns, masks, argmax indices, cached
//! inputs, outputs and input gradients with [`take`], and
//! [`crate::model::Sequential`] gives every one of them back with [`give`]
//! before a pass returns. A model at rest therefore holds only its
//! parameters and gradients, and every replica a thread runs shares that
//! thread's one warm working set.
//!
//! A *pass* runs from the moment the pool lends a buffer while none is lent
//! until every lent buffer is back; a [`crate::model::Sequential`] pass is
//! one. Safe Rust cannot lengthen a `Vec` without writing the new elements,
//! so a buffer lent at 16 384 floats and wanted at 147 456 next time costs a
//! fill of the difference, although its borrower overwrites every one. Three
//! rules make a pass that repeats the one before it fill and allocate
//! nothing:
//!
//! * A [`take`] lends a free buffer whose length is exactly the request as
//!   it is.
//! * Failing that, it cuts or grows a buffer that the current pass has not
//!   used yet (the shortest one that covers the request, else the best fit
//!   by capacity, else the largest), and only when there is none does it
//!   allocate. A buffer this pass has used keeps its length, for this
//!   pass's next request of that length and the next pass's.
//! * When a pass ends, the pool keeps the buffers it used, plus others only
//!   up to the most buffers any one pass has used; the rest are dropped.
//!
//! So after one pass, the pool holds each length the pass asked for, as
//! many times as the pass held that length at once, and a thread that
//! repeats the pass fills nothing from its second pass on. A pass of
//! another shape reuses those buffers, cut or grown as needed. A borrower
//! that drops a lent buffer instead of giving it back (a layer driven on
//! its own, whose outputs the caller drops) keeps its pass from ending:
//! the pool then reuses buffers of the exact lengths asked for and
//! allocates for any other length.
//!
//! A lent buffer's contents are unspecified (stale data from its previous
//! borrower), so every borrower overwrites or zero-fills what it reads. The
//! pool lives in a `thread_local!`. No layer fans out, so a pass borrows
//! from its calling thread's pool only; a thread that runs gradients (a
//! simulation's scoped round slot, say) starts with an empty pool and frees
//! it when it exits.

use std::cell::RefCell;

/// An element type the pool lends buffers of.
pub(crate) trait Element: Copy + Default + 'static {
    /// Runs `f` on this thread's pool of `Self` buffers.
    fn with_pool<R>(f: impl FnOnce(&mut Pool<Self>) -> R) -> R;
}

/// The buffers of one element type that this thread is not lending out.
#[derive(Debug)]
pub(crate) struct Pool<T> {
    /// Each free buffer, and whether it came back during the current pass.
    free: Vec<(Vec<T>, bool)>,
    /// Buffers lent and not yet given back.
    lent: usize,
    /// The most buffers one pass has used: the bound on `free.len()`
    /// between passes.
    most_used: usize,
    /// Elements [`Pool::take`] has default-filled on this thread.
    #[cfg(test)]
    filled: usize,
}

impl<T: Copy + Default> Pool<T> {
    const fn new() -> Self {
        Self {
            free: Vec::new(),
            lent: 0,
            most_used: 0,
            #[cfg(test)]
            filled: 0,
        }
    }

    fn take(&mut self, len: usize) -> Vec<T> {
        self.lent += 1;
        let pick = self
            .free
            .iter()
            .position(|(buf, _)| buf.len() == len)
            .or_else(|| {
                let unused = || {
                    self.free
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, used))| !used)
                        .map(|(i, (buf, _))| (i, buf))
                };
                unused()
                    .filter(|(_, buf)| buf.len() >= len)
                    .min_by_key(|(_, buf)| buf.len())
                    .or_else(|| {
                        unused()
                            .filter(|(_, buf)| buf.capacity() >= len)
                            .min_by_key(|(_, buf)| buf.capacity())
                    })
                    .or_else(|| unused().max_by_key(|(_, buf)| buf.capacity()))
                    .map(|(i, _)| i)
            });
        let mut buf = pick.map_or_else(Vec::new, |i| self.free.swap_remove(i).0);
        if buf.capacity() < len {
            // Replace rather than reallocate: the old contents are
            // unspecified, so there is nothing to copy.
            buf = Vec::new();
            buf.reserve_exact(len);
        }
        #[cfg(test)]
        {
            self.filled += len.saturating_sub(buf.len());
        }
        buf.resize(len, T::default());
        buf
    }

    fn give(&mut self, buf: Vec<T>) {
        self.lent = self.lent.saturating_sub(1);
        self.free.push((buf, true));
        if self.lent == 0 {
            // The pass is over: keep what it used, then others up to the
            // bound, and start the next pass with every buffer unused.
            let used = self.free.iter().filter(|(_, used)| *used).count();
            self.most_used = self.most_used.max(used);
            let mut room = self.most_used - used;
            self.free.retain(|&(_, used)| {
                if used || room == 0 {
                    return used;
                }
                room -= 1;
                true
            });
            for (_, used) in &mut self.free {
                *used = false;
            }
        }
    }
}

thread_local! {
    static F32_POOL: RefCell<Pool<f32>> = const { RefCell::new(Pool::new()) };
    static U32_POOL: RefCell<Pool<u32>> = const { RefCell::new(Pool::new()) };
}

impl Element for f32 {
    fn with_pool<R>(f: impl FnOnce(&mut Pool<Self>) -> R) -> R {
        F32_POOL.with(|pool| f(&mut pool.borrow_mut()))
    }
}

impl Element for u32 {
    fn with_pool<R>(f: impl FnOnce(&mut Pool<Self>) -> R) -> R {
        U32_POOL.with(|pool| f(&mut pool.borrow_mut()))
    }
}

/// Borrows a buffer of exactly `len` elements from this thread's pool.
/// Its contents are unspecified.
pub(crate) fn take<T: Element>(len: usize) -> Vec<T> {
    if len == 0 {
        return Vec::new();
    }
    T::with_pool(|pool| pool.take(len))
}

/// Gives a buffer back to this thread's pool (which drops it at the end of
/// the pass if it holds more buffers than any one pass has used).
pub(crate) fn give<T: Element>(buf: Vec<T>) {
    if buf.capacity() > 0 {
        T::with_pool(|pool| pool.give(buf));
    }
}

#[cfg(test)]
mod tests {
    // libtest runs every test on a thread of its own, so each starts with an
    // empty pool.
    use super::*;

    fn pooled_capacities() -> Vec<usize> {
        let mut caps: Vec<usize> =
            f32::with_pool(|p| p.free.iter().map(|(b, _)| b.capacity()).collect());
        caps.sort_unstable();
        caps
    }

    #[test]
    fn take_returns_the_requested_length() {
        assert_eq!(take::<f32>(7).len(), 7);
        assert_eq!(take::<u32>(3).len(), 3);
        assert!(take::<f32>(0).is_empty());
    }

    #[test]
    fn a_given_buffer_is_lent_again_without_allocating() {
        let buf = take::<f32>(100);
        let ptr = buf.as_ptr();
        give(buf);
        let again = take::<f32>(60);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 60);
    }

    #[test]
    fn take_picks_the_smallest_buffer_that_fits() {
        let (a, b, c) = (take::<f32>(10), take::<f32>(50), take::<f32>(200));
        let mid = b.as_ptr();
        give(a);
        give(b);
        give(c);
        let fit = take::<f32>(40);
        assert_eq!(fit.as_ptr(), mid);
    }

    #[test]
    fn a_take_too_large_for_the_pool_grows_the_largest_buffer() {
        let (a, b) = (take::<f32>(10), take::<f32>(50));
        give(a);
        give(b);
        let big = take::<f32>(500);
        assert!(big.capacity() >= 500);
        assert_eq!(pooled_capacities(), vec![10]);
        give(big);
        assert_eq!(pooled_capacities().len(), 2);
    }

    #[test]
    fn the_pool_never_holds_more_buffers_than_were_lent_at_once() {
        let (a, b) = (take::<f32>(8), take::<f32>(8));
        give(a);
        give(b);
        // Buffers the pool never lent are dropped once it is full.
        give(vec![0.0f32; 8]);
        give(vec![0.0f32; 8]);
        assert_eq!(pooled_capacities().len(), 2);
    }

    #[test]
    fn a_buffer_taken_again_at_the_same_or_a_smaller_length_keeps_its_values() {
        let mut buf = take::<f32>(64);
        for (i, v) in buf.iter_mut().enumerate() {
            *v = i as f32 + 0.5;
        }
        give(buf);
        let same = take::<f32>(64);
        let written: Vec<f32> = (0..64).map(|i| i as f32 + 0.5).collect();
        assert_eq!(same, written);
        give(same);
        let shorter = take::<f32>(40);
        assert_eq!(shorter[..], written[..40]);
        assert_eq!(f32::with_pool(|p| p.filled), 64);
    }

    #[test]
    fn a_take_prefers_a_buffer_already_initialised_to_its_length() {
        // `short` is the best fit by capacity (46), but only `long` (50)
        // covers the request without a fill.
        let (mut short, long) = (take::<f32>(30), take::<f32>(50));
        short.reserve_exact(16);
        assert!(short.capacity() < long.capacity());
        let long_ptr = long.as_ptr();
        give(long);
        give(short);
        let before = f32::with_pool(|p| p.filled);
        let lent = take::<f32>(45);
        assert_eq!(lent.as_ptr(), long_ptr);
        assert_eq!(f32::with_pool(|p| p.filled), before);
    }

    #[test]
    fn a_warm_threads_second_mnist_gradient_fills_nothing() {
        use crate::models::table1_mnist_cnn;
        use crate::tensor::Tensor;
        let mut model = table1_mnist_cnn(42);
        let pixels = (0..32 * 28 * 28)
            .map(|i| ((i * 37) % 255) as f32 / 255.0)
            .collect();
        let inputs = Tensor::from_vec(pixels, &[32, 1, 28, 28]);
        let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
        let filled = || (f32::with_pool(|p| p.filled), u32::with_pool(|p| p.filled));
        model.compute_gradient(&inputs, &labels).expect("first");
        let before = filled();
        model.compute_gradient(&inputs, &labels).expect("second");
        assert_eq!(filled(), before, "(f32, u32) elements filled");
    }
}
