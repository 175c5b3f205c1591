//! Lock-free free list of fixed-size message cells.
//!
//! Nemesis carves its shared segment into cells; free cells live on a
//! lock-free stack. [`FreeStack`] is the reusable core: a Treiber stack
//! over *indices* (not pointers) with a packed generation tag that
//! avoids the ABA problem without hazard pointers — the head word is
//! `(generation << 32) | index`, and every successful pop bumps the
//! generation. The MPSC queue (`crate::queue`) recycles its cache-aligned
//! packet cells through a `FreeStack` of its own, which is what makes
//! its enqueue path allocation-free. [`CellPool`] layers byte storage on
//! top; it is off the comm path — eager payloads travel in each lane's
//! byte ring (`crate::lane`) — and is kept for the benchmark's
//! `rt.cellpool.*` probes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nemesis_model::sync::lock;

const NIL: u32 = u32::MAX;

/// A lock-free stack of free indices `0..n` with ABA generation tags.
///
/// `push_chain` publishes a whole batch of indices with a single
/// successful CAS on the head word — the consumer-side analogue of the
/// single control-line charge the simulated stack models for batched
/// dequeues. Aligned to a cache line so the head word — CAS-ed by every
/// pop and push — never shares one with its owner's neighbouring field.
#[repr(align(64))]
pub struct FreeStack {
    /// Packed head: upper 32 bits generation, lower 32 bits index.
    head: AtomicU64,
    /// `next[i]` = index below cell `i` on the stack (NIL = bottom).
    next: Vec<AtomicU64>,
}

impl FreeStack {
    /// A stack holding every index in `0..n` (0 on top).
    pub fn full(n: usize) -> Self {
        assert!(n > 0 && (n as u64) < NIL as u64);
        let next: Vec<AtomicU64> = (0..n)
            .map(|i| {
                let below = if i + 1 < n {
                    (i + 1) as u64
                } else {
                    NIL as u64
                };
                AtomicU64::new(below)
            })
            .collect();
        Self {
            head: AtomicU64::new(0), // generation 0, index 0
            next,
        }
    }

    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    #[inline]
    fn unpack(word: u64) -> (u32, u32) {
        ((word >> 32) as u32, word as u32)
    }

    #[inline]
    fn pack(generation: u32, index: u32) -> u64 {
        (generation as u64) << 32 | index as u64
    }

    /// Pop a free index; `None` when exhausted. Lock-free.
    pub fn try_pop(&self) -> Option<usize> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (generation, index) = Self::unpack(head);
            if index == NIL {
                return None;
            }
            let below = self.next[index as usize].load(Ordering::Acquire) as u32;
            let new = Self::pack(generation.wrapping_add(1), below);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(index as usize),
                Err(actual) => head = actual,
            }
        }
    }

    /// Push an index back. Lock-free. The caller must own the index
    /// (from a prior `try_pop`).
    pub fn push(&self, index: usize) {
        assert!(index < self.next.len(), "bogus cell index");
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (generation, top) = Self::unpack(head);
            self.next[index].store(top as u64, Ordering::Release);
            let new = Self::pack(generation.wrapping_add(1), index as u32);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Push a batch of owned indices with one successful CAS: the chain
    /// is linked privately (`indices[0]` ends on top), then spliced onto
    /// the stack in a single head update.
    pub fn push_chain(&self, indices: &[usize]) {
        let Some((&first, rest)) = indices.split_first() else {
            return;
        };
        assert!(
            indices.iter().all(|&i| i < self.next.len()),
            "bogus cell index"
        );
        // Link the private chain top-down: indices[k] -> indices[k+1].
        let mut above = first;
        for &i in rest {
            self.next[above].store(i as u64, Ordering::Release);
            above = i;
        }
        let last = above;
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (generation, top) = Self::unpack(head);
            self.next[last].store(top as u64, Ordering::Release);
            let new = Self::pack(generation.wrapping_add(1), first as u32);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Number of currently free indices (O(n); diagnostics only — the
    /// answer may be stale by the time it returns).
    pub fn free_count(&self) -> usize {
        let mut n = 0;
        let (_, mut idx) = Self::unpack(self.head.load(Ordering::Acquire));
        while idx != NIL {
            n += 1;
            idx = self.next[idx as usize].load(Ordering::Acquire) as u32;
            if n > self.next.len() {
                break; // racing mutation; good enough for diagnostics
            }
        }
        n
    }
}

/// 2 MiB — the x86-64 huge-page size the slab aligns to.
const HUGE_PAGE: usize = 2 << 20;

/// `MADV_HUGEPAGE` from `<linux/mman.h>` (declared locally — the
/// workspace has no libc crate; std already links the platform libc).
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: i32 = 14;

#[cfg(target_os = "linux")]
extern "C" {
    fn madvise(addr: *mut core::ffi::c_void, length: usize, advice: i32) -> i32;
}

/// The pool's backing storage: one contiguous allocation, 2 MiB-aligned
/// and advised as transparent-huge-page-backed when possible. Boxed
/// per-cell slabs forced a page walk (and a TLB entry) per 4 KiB of
/// payload on the eager hot path; a huge-page slab covers the whole
/// cell pool with a handful of TLB entries. Falls back silently to an
/// ordinary allocation when the aligned request fails or `madvise` is
/// unsupported — the pool works identically either way.
struct Slab {
    ptr: std::ptr::NonNull<u8>,
    layout: std::alloc::Layout,
}

// The slab itself is plain memory; all aliasing discipline lives in
// `CellPool::with_cell` (per-cell guard over disjoint ranges).
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl Slab {
    fn new(len: usize) -> Self {
        let len = len.max(1);
        // Round the backing to whole huge pages so the advice covers
        // the tail; retry at cache-line alignment if the huge request
        // fails (silent fallback).
        let huge = std::alloc::Layout::from_size_align(
            len.div_ceil(HUGE_PAGE).max(1) * HUGE_PAGE,
            HUGE_PAGE,
        )
        .expect("huge slab layout");
        // SAFETY: layout has nonzero size.
        if let Some(ptr) = std::ptr::NonNull::new(unsafe { std::alloc::alloc_zeroed(huge) }) {
            #[cfg(target_os = "linux")]
            // SAFETY: the range is owned and huge-page aligned; the
            // advice is a hint and any error is deliberately ignored.
            unsafe {
                madvise(ptr.as_ptr().cast(), huge.size(), MADV_HUGEPAGE);
            }
            return Self { ptr, layout: huge };
        }
        let small = std::alloc::Layout::from_size_align(len, 64).expect("slab layout");
        let ptr = std::ptr::NonNull::new(unsafe { std::alloc::alloc_zeroed(small) })
            .unwrap_or_else(|| std::alloc::handle_alloc_error(small));
        Self { ptr, layout: small }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        // SAFETY: allocated in `new` with exactly this layout.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) }
    }
}

/// A pool of `n` cells of `cell_size` bytes each, with a lock-free
/// free-list. Payload storage is owned by the pool; cells are checked
/// out as indices and accessed via [`CellPool::with_cell`].
pub struct CellPool {
    free: FreeStack,
    slab: Slab,
    /// Per-cell access guards (uncontended by construction — one owner
    /// per checked-out cell; they make the disjointness contract of
    /// `with_cell` explicit and checkable).
    guards: Vec<Guard>,
    cell_size: usize,
}

/// One cell's guard on a cache line of its own: both ranks lock a guard
/// on every eager message, and one-byte mutexes packed sixteen to a
/// line make the owners of neighbouring cells false-share it.
#[repr(align(64))]
struct Guard(Mutex<()>);

impl CellPool {
    pub fn new(n: usize, cell_size: usize) -> Self {
        Self {
            free: FreeStack::full(n),
            slab: Slab::new(n * cell_size),
            guards: (0..n).map(|_| Guard(Mutex::new(()))).collect(),
            cell_size,
        }
    }

    pub fn cell_size(&self) -> usize {
        self.cell_size
    }

    pub fn capacity(&self) -> usize {
        self.free.capacity()
    }

    /// Pop a free cell; `None` when exhausted. Lock-free.
    pub fn try_acquire(&self) -> Option<usize> {
        self.free.try_pop()
    }

    /// Push a cell back. Lock-free. The caller must own the cell (from a
    /// prior `try_acquire`).
    pub fn release(&self, index: usize) {
        self.free.push(index);
    }

    /// Access a checked-out cell's payload.
    pub fn with_cell<R>(&self, index: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let _guard = lock(&self.guards[index].0);
        // SAFETY: cells are disjoint `cell_size` ranges of the slab;
        // the per-cell guard holds the range exclusively for the
        // duration of the borrow.
        let cell = unsafe {
            std::slice::from_raw_parts_mut(
                self.slab.ptr.as_ptr().add(index * self.cell_size),
                self.cell_size,
            )
        };
        f(cell)
    }

    /// Number of currently free cells (O(n); diagnostics only).
    pub fn free_count(&self) -> usize {
        self.free.free_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn acquire_all_then_exhausted() {
        let pool = CellPool::new(4, 64);
        let mut got = HashSet::new();
        for _ in 0..4 {
            assert!(got.insert(pool.try_acquire().unwrap()));
        }
        assert_eq!(pool.try_acquire(), None);
        for i in got {
            pool.release(i);
        }
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    fn payload_roundtrip() {
        let pool = CellPool::new(2, 128);
        assert_eq!(pool.cell_size(), 128);
        let c = pool.try_acquire().unwrap();
        pool.with_cell(c, |d| d.fill(7));
        pool.with_cell(c, |d| assert!(d.iter().all(|&x| x == 7)));
        pool.release(c);
    }

    #[test]
    fn slab_is_huge_page_aligned() {
        // The backing slab requests 2 MiB alignment so the THP advice
        // can take effect; cell 0 sits at the slab base.
        let pool = CellPool::new(4, 16 << 10);
        let base = pool.with_cell(0, |d| d.as_ptr() as usize);
        assert_eq!(base % HUGE_PAGE, 0, "slab base not huge-page aligned");
        let c1 = pool.with_cell(1, |d| d.as_ptr() as usize);
        assert_eq!(c1, base + pool.cell_size(), "cells not contiguous");
    }

    #[test]
    fn every_guard_has_a_cache_line_to_itself() {
        let pool = CellPool::new(16, 64);
        assert_eq!(std::mem::size_of::<Guard>(), 64);
        for pair in pool.guards.windows(2) {
            let (a, b) = (
                &pair[0] as *const Guard as usize,
                &pair[1] as *const Guard as usize,
            );
            assert_eq!(a % 64, 0);
            assert_eq!(b - a, 64);
        }
    }

    #[test]
    fn free_stack_has_a_cache_line_to_itself() {
        assert_eq!(std::mem::align_of::<FreeStack>(), 64);
        assert_eq!(std::mem::size_of::<FreeStack>(), 64);
    }

    #[test]
    fn lifo_reuse() {
        let pool = CellPool::new(3, 8);
        let a = pool.try_acquire().unwrap();
        pool.release(a);
        let b = pool.try_acquire().unwrap();
        assert_eq!(a, b, "Treiber stack reuses the hottest cell");
    }

    #[test]
    fn push_chain_publishes_whole_batch() {
        let stack = FreeStack::full(8);
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(stack.try_pop().unwrap());
        }
        assert_eq!(stack.try_pop(), None);
        stack.push_chain(&held[..5]);
        assert_eq!(stack.free_count(), 5);
        // The first pushed index ends on top (LIFO over the batch).
        assert_eq!(stack.try_pop(), Some(held[0]));
        stack.push_chain(&held[5..]);
        stack.push(held[0]);
        assert_eq!(stack.free_count(), 8);
        let mut seen = HashSet::new();
        while let Some(i) = stack.try_pop() {
            assert!(seen.insert(i), "index handed out twice");
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn push_chain_empty_is_noop() {
        let stack = FreeStack::full(2);
        stack.push_chain(&[]);
        assert_eq!(stack.free_count(), 2);
    }

    #[test]
    fn concurrent_acquire_release_no_double_handout() {
        const THREADS: usize = 4;
        const ITERS: usize = 20_000;
        let pool = Arc::new(CellPool::new(8, 16));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..ITERS {
                        if let Some(c) = pool.try_acquire() {
                            // Stamp and verify: if two threads ever hold
                            // the same cell, the stamp check fails.
                            let stamp = (t * ITERS + i) as u64;
                            pool.with_cell(c, |d| d[..8].copy_from_slice(&stamp.to_le_bytes()));
                            std::hint::spin_loop();
                            pool.with_cell(c, |d| {
                                let got = u64::from_le_bytes(d[..8].try_into().unwrap());
                                assert_eq!(got, stamp, "cell handed out twice");
                            });
                            pool.release(c);
                        }
                    }
                });
            }
        });
        assert_eq!(pool.free_count(), 8);
    }

    #[test]
    fn concurrent_chain_pushes_keep_all_indices() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 5_000;
        let stack = Arc::new(FreeStack::full(32));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let stack = Arc::clone(&stack);
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let mut batch = Vec::new();
                        for _ in 0..4 {
                            if let Some(i) = stack.try_pop() {
                                batch.push(i);
                            }
                        }
                        stack.push_chain(&batch);
                    }
                });
            }
        });
        assert_eq!(stack.free_count(), 32, "indices lost or duplicated");
    }

    #[test]
    #[should_panic(expected = "bogus")]
    fn bogus_release_panics() {
        let pool = CellPool::new(2, 8);
        pool.release(99);
    }
}
