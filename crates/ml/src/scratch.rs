//! The thread's scratch pool: one lender for every transient buffer a layer
//! uses during a pass.
//!
//! A layer borrows its im2col columns, masks, argmax indices, cached inputs,
//! outputs and input gradients with [`take`], and [`crate::model::Sequential`]
//! gives every one of them back with [`give`] before a pass returns. A model
//! at rest therefore holds only its parameters and gradients, and every
//! replica a thread runs shares that thread's one warm working set.
//!
//! Two rules keep the pool as small as the largest pass it has served:
//!
//! * It never holds more buffers than were ever lent at once; a buffer given
//!   back beyond that is dropped.
//! * A [`take`] that no pooled buffer can hold grows the largest pooled one
//!   instead of allocating beside it.
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
    free: Vec<Vec<T>>,
    /// Buffers lent and not yet given back.
    lent: usize,
    /// The most buffers ever lent at once: the bound on `free.len()`.
    most_lent: usize,
}

impl<T: Copy + Default> Pool<T> {
    const fn new() -> Self {
        Self {
            free: Vec::new(),
            lent: 0,
            most_lent: 0,
        }
    }

    fn take(&mut self, len: usize) -> Vec<T> {
        self.lent += 1;
        self.most_lent = self.most_lent.max(self.lent);
        // Best fit: the smallest pooled buffer that holds `len`, else the
        // largest one, to be grown.
        let pick = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, buf)| buf.capacity() >= len)
            .min_by_key(|(_, buf)| buf.capacity())
            .or_else(|| {
                self.free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, buf)| buf.capacity())
            })
            .map(|(i, _)| i);
        let mut buf = pick.map_or_else(Vec::new, |i| self.free.swap_remove(i));
        if buf.capacity() < len {
            // Replace rather than reallocate: the old contents are
            // unspecified, so there is nothing to copy.
            buf = Vec::new();
            buf.reserve_exact(len);
        }
        buf.resize(len, T::default());
        buf
    }

    fn give(&mut self, buf: Vec<T>) {
        self.lent = self.lent.saturating_sub(1);
        if self.free.len() + self.lent < self.most_lent {
            self.free.push(buf);
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

/// Gives a buffer back to this thread's pool (or drops it, if the pool
/// already holds as many buffers as it ever lent at once).
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
        let mut caps: Vec<usize> = f32::with_pool(|p| p.free.iter().map(Vec::capacity).collect());
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
}
