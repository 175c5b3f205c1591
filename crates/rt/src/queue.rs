//! The Nemesis lock-free MPSC receive queue.
//!
//! Nemesis gives every process one receive queue that any local process
//! can enqueue onto [6] (and polls a per-pair "fastbox" ahead of it —
//! here [`lane`](crate::lane)). The classic implementation is an intrusive
//! Vyukov MPSC list: producers atomically `swap` the tail and link the
//! previous node; the single consumer walks `next` pointers. This
//! version keeps that algorithm but removes the per-message heap
//! allocation the seed paid on every enqueue: nodes are
//! `#[repr(align(64))]` cells in a pre-allocated slab, recycled through
//! a generation-tagged [`FreeStack`](crate::cellpool::FreeStack), and
//! linked by *index* instead of pointer. One cell = one cache line (plus
//! payload lines for large `T`), so an enqueue touches exactly the lines
//! the paper's §2 queue-cost analysis counts: the cell and the shared
//! tail word.
//!
//! * Publication is wait-free (one `swap` + one `store`); cell
//!   acquisition is a lock-free pop from the recycled-cell stack.
//! * The queue is **bounded** by its cell capacity: `enqueue` backs off
//!   (spin-then-yield) while every cell is in flight, `try_enqueue`
//!   reports exhaustion to the caller as a typed [`QueueFull`] error
//!   carrying the rejected value.
//! * The consumer can drain in batches: [`Receiver::dequeue_batch`]
//!   takes up to `n` published cells and returns them to the free stack
//!   with a single CAS (`push_chain`) — mirroring the simulated stack's
//!   single control-line charge per batched dequeue.
//!
//! The API is split: [`Sender`] is cheaply clonable (one per producer),
//! [`Receiver`] is unique and owns the consumer cursor, so single-consumer
//! discipline is enforced by the type system rather than by comments.
//!
//! **Scale-out note.** This queue is what still needs *many*
//! producers: the [`OffloadEngine`](crate::copy::OffloadEngine)'s
//! descriptor queue, which every rank submits to. `rt::comm` no longer
//! rides it: between two ranks there is exactly one producer, and a
//! per-pair [`lane`](crate::lane) hands a message over with plain stores
//! where an enqueue here costs two locked instructions (the free-stack
//! CAS and the tail `swap`), each of which must first drain a store to
//! a line the consumer still holds — so consecutive messages cannot
//! overlap their misses. What an MPSC list buys in exchange is an idle
//! poll that reads one shared word (`tail`) however many producers
//! exist; the lanes' idle poll reads one line per incoming lane, which
//! at the rank counts rt runs is cheaper than any doorbell word would
//! be. `free.head` and `tail` sit on a cache line each: the consumer's
//! recycle and every producer's pop CAS the first, every producer swaps
//! the second, and packed together each invalidated the other.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::backoff::Backoff;
use crate::cellpool::FreeStack;

const NIL: u32 = u32::MAX;

/// Typed exhaustion error from [`Sender::try_enqueue`]: every cell is
/// in flight, and the rejected value is handed back to the caller. The
/// queue itself never closes (the slab owns the cells, so senders stay
/// valid after the receiver drops); the dedicated type keeps "full"
/// distinguishable from any future closed/disconnected condition.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

impl<T> std::fmt::Display for QueueFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue full: every cell is in flight")
    }
}

/// Default cell capacity of [`nem_queue`] (messages in flight).
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// How many freed cells `dequeue_batch` accumulates before recycling
/// them with one `push_chain` CAS.
const RECYCLE_BATCH: usize = 32;

/// One queue cell: a cache-line-aligned slab slot. `next` doubles as the
/// Vyukov list link while the cell is queued; the free stack keeps its
/// own links, so the two roles never alias.
#[repr(align(64))]
struct Cell<T> {
    next: AtomicU32,
    value: UnsafeCell<Option<T>>,
}

/// The tail word on a cache line of its own: every producer swaps it,
/// and beside `free.head` (CAS-ed by the consumer's recycle and every
/// producer's pop) each of the two would invalidate the other.
#[repr(align(64))]
struct Tail(AtomicU32);

struct Shared<T> {
    /// The pre-allocated cell slab; never grows, never shrinks.
    cells: Box<[Cell<T>]>,
    /// Recycled-cell stack (allocation-free enqueue), cache-line aligned.
    free: FreeStack,
    /// Index of the most recently enqueued cell; producers swap this.
    tail: Tail,
    /// Backoff cap for producers blocked on an exhausted slab.
    spin_limit: u32,
}

// SAFETY: producers and the consumer hand cells off through the
// Release/Acquire edges of `tail`/`next` (publication) and the free
// stack (recycling); a cell's `value` is only ever touched by the one
// thread that currently owns it under those edges.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Producer handle (clone one per producing thread).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue from any thread without allocating. Publication is
    /// wait-free (one swap + one store); acquiring the cell is a
    /// lock-free pop. Backs off (spin-then-yield) while the cell slab is
    /// exhausted, i.e. while `capacity` messages are already in flight.
    pub fn enqueue(&self, value: T) {
        let mut value = value;
        let mut bo = Backoff::with_spin_limit(self.shared.spin_limit);
        loop {
            match self.try_enqueue(value) {
                Ok(()) => return,
                Err(QueueFull(v)) => {
                    value = v;
                    bo.snooze();
                }
            }
        }
    }

    /// Enqueue unless every cell is in flight (bounded-queue fast
    /// check); hands the value back inside [`QueueFull`] on exhaustion.
    pub fn try_enqueue(&self, value: T) -> Result<(), QueueFull<T>> {
        let Some(idx) = self.shared.free.try_pop() else {
            return Err(QueueFull(value));
        };
        let cell = &self.shared.cells[idx];
        // We own `idx` exclusively until the Release publication below.
        cell.next.store(NIL, Ordering::Relaxed);
        // SAFETY: exclusive ownership of the popped cell; the consumer
        // only reads `value` after observing the Release link.
        unsafe { *cell.value.get() = Some(value) };
        // AcqRel: our cell's initialization happens-before any consumer
        // that observes it via the predecessor's `next`.
        let prev = self.shared.tail.0.swap(idx as u32, Ordering::AcqRel) as usize;
        // The predecessor is valid: cells are only recycled by the
        // consumer after their `next` is non-NIL, and only we write this
        // `next`.
        self.shared.cells[prev]
            .next
            .store(idx as u32, Ordering::Release);
        Ok(())
    }

    /// Total cells (= maximum messages in flight).
    pub fn capacity(&self) -> usize {
        self.shared.cells.len() - 1 // minus the stub
    }
}

/// Consumer handle (exactly one exists per queue).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    /// Consumer cursor: the current stub cell's index.
    head: u32,
}

// SAFETY: the Receiver can move between threads; `head` is only used
// through `&mut self`.
unsafe impl<T: Send> Send for Receiver<T> {}

impl<T> Receiver<T> {
    /// Dequeue the oldest fully-published item. `None` means empty (or a
    /// producer is mid-publication — poll again).
    pub fn dequeue(&mut self) -> Option<T> {
        let (value, freed) = self.pop_one()?;
        self.shared.free.push(freed);
        Some(value)
    }

    /// Drain up to `max` published items into `sink`, recycling the
    /// freed cells in chunks with a single CAS each — the batched
    /// consumer path. Returns how many items were delivered.
    pub fn dequeue_batch(&mut self, max: usize, mut sink: impl FnMut(T)) -> usize {
        let mut taken = 0;
        while taken < max {
            let mut freed = [0usize; RECYCLE_BATCH];
            let mut nf = 0;
            while taken < max && nf < RECYCLE_BATCH {
                let Some((value, idx)) = self.pop_one() else {
                    break;
                };
                freed[nf] = idx;
                nf += 1;
                taken += 1;
                sink(value);
            }
            if nf == 0 {
                break;
            }
            self.shared.free.push_chain(&freed[..nf]);
            if nf < RECYCLE_BATCH {
                break;
            }
        }
        taken
    }

    /// Advance the cursor by one published cell; returns the value and
    /// the now-unreachable old stub's index (for recycling).
    #[inline]
    fn pop_one(&mut self) -> Option<(T, usize)> {
        let head = self.head as usize;
        let next = self.shared.cells[head].next.load(Ordering::Acquire);
        if next == NIL {
            return None;
        }
        // SAFETY: `next` was initialized before its Release-store link.
        let value = unsafe { (*self.shared.cells[next as usize].value.get()).take() };
        let old = self.head as usize;
        self.head = next;
        // `old` is unreachable by producers: its `next` is already
        // written (we just followed it), so no producer still holds it
        // as `prev`.
        debug_assert!(value.is_some(), "cells past the stub carry values");
        Some((value?, old))
    }

    /// Whether the queue currently appears empty.
    pub fn is_empty(&self) -> bool {
        self.shared.cells[self.head as usize]
            .next
            .load(Ordering::Acquire)
            == NIL
    }

    /// Total cells (= maximum messages in flight).
    pub fn capacity(&self) -> usize {
        self.shared.cells.len() - 1
    }
}

// No Drop impls needed anywhere: the slab owns every cell, so whatever
// values are still queued when the last handle goes away are dropped
// with the `Box<[Cell<T>]>` — nothing leaks, nothing dangles.

/// Create a new MPSC queue with [`DEFAULT_QUEUE_CAPACITY`] cells.
pub fn nem_queue<T>() -> (Sender<T>, Receiver<T>) {
    nem_queue_with_capacity(DEFAULT_QUEUE_CAPACITY)
}

/// Create a new MPSC queue holding at most `capacity` in-flight
/// messages, all cell storage allocated up front.
pub fn nem_queue_with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    nem_queue_cfg(capacity, crate::backoff::DEFAULT_SPIN_LIMIT)
}

/// Fully explicit constructor: cell capacity plus the backoff spin cap
/// producers use while the slab is exhausted (see
/// [`Backoff::with_spin_limit`]).
pub fn nem_queue_cfg<T>(capacity: usize, spin_limit: u32) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "queue needs at least one cell");
    // +1: the Vyukov stub permanently occupies one cell.
    let cells: Box<[Cell<T>]> = (0..capacity + 1)
        .map(|_| Cell {
            next: AtomicU32::new(NIL),
            value: UnsafeCell::new(None),
        })
        .collect();
    let free = FreeStack::full(capacity + 1);
    let stub = free.try_pop().expect("fresh stack is non-empty") as u32;
    let shared = Arc::new(Shared {
        cells,
        free,
        tail: Tail(AtomicU32::new(stub)),
        spin_limit,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared, head: stub },
    )
}

/// Convenience alias matching the paper's terminology.
pub type NemQueue<T> = (Sender<T>, Receiver<T>);

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Cell<u64>>(), 64);
        assert!(std::mem::size_of::<Cell<u64>>() >= 64);
    }

    #[test]
    fn tail_and_free_head_sit_on_different_cache_lines() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<Tail>(), 64);
        assert_eq!(
            size_of::<Tail>(),
            64,
            "nothing else fits on the tail's line"
        );
        assert_eq!(align_of::<FreeStack>(), 64);
        let (free, tail) = (offset_of!(Shared<u64>, free), offset_of!(Shared<u64>, tail));
        assert!(free.abs_diff(tail) >= 64, "free @{free}, tail @{tail}");
    }

    #[test]
    fn fifo_single_thread() {
        let (tx, mut rx) = nem_queue();
        assert!(rx.is_empty());
        for i in 0..100 {
            tx.enqueue(i);
        }
        assert!(!rx.is_empty());
        for i in 0..100 {
            assert_eq!(rx.dequeue(), Some(i));
        }
        assert_eq!(rx.dequeue(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn empty_dequeue_is_none_repeatedly() {
        let (tx, mut rx) = nem_queue::<String>();
        for _ in 0..5 {
            assert_eq!(rx.dequeue(), None);
        }
        tx.enqueue("x".into());
        assert_eq!(rx.dequeue().as_deref(), Some("x"));
        assert_eq!(rx.dequeue(), None);
    }

    #[test]
    fn bounded_capacity_try_enqueue() {
        let (tx, mut rx) = nem_queue_with_capacity::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            assert!(tx.try_enqueue(i).is_ok());
        }
        assert_eq!(tx.try_enqueue(99), Err(QueueFull(99)), "slab exhausted");
        assert_eq!(rx.dequeue(), Some(0));
        assert!(tx.try_enqueue(4).is_ok(), "recycled cell reusable");
        for expect in [1, 2, 3, 4] {
            assert_eq!(rx.dequeue(), Some(expect));
        }
    }

    #[test]
    fn dequeue_batch_drains_in_order() {
        let (tx, mut rx) = nem_queue::<u32>();
        for i in 0..100 {
            tx.enqueue(i);
        }
        let mut got = Vec::new();
        assert_eq!(rx.dequeue_batch(64, |v| got.push(v)), 64);
        assert_eq!(rx.dequeue_batch(64, |v| got.push(v)), 36);
        assert_eq!(rx.dequeue_batch(64, |_| panic!("empty")), 0);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batch_recycles_cells() {
        let (tx, mut rx) = nem_queue_with_capacity::<u32>(8);
        for round in 0..50u32 {
            for i in 0..8 {
                tx.enqueue(round * 8 + i);
            }
            let mut n = 0;
            rx.dequeue_batch(8, |_| n += 1);
            assert_eq!(n, 8, "round {round}");
        }
    }

    #[test]
    fn remaining_items_freed_on_drop() {
        let probe = Arc::new(0usize);
        {
            let (tx, rx) = nem_queue();
            for i in 0..10 {
                tx.enqueue(Arc::new(i));
            }
            tx.enqueue(Arc::clone(&probe));
            drop(rx);
            // Senders can still enqueue after the receiver is gone; the
            // cells must not leak or dangle.
            tx.enqueue(Arc::clone(&probe));
        }
        assert_eq!(Arc::strong_count(&probe), 1, "queue must free its cells");
    }

    #[test]
    fn mpsc_stress_per_producer_fifo() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 10_000;
        // Small capacity so producers hit the bounded-slab backoff path.
        let (tx, mut rx) = nem_queue_with_capacity::<u64>(64);
        std::thread::scope(|s| {
            for pid in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        tx.enqueue(pid << 32 | i);
                    }
                });
            }
            let mut last = vec![None::<u64>; PRODUCERS as usize];
            let mut count = 0u64;
            while count < PRODUCERS * PER {
                if let Some(v) = rx.dequeue() {
                    let pid = (v >> 32) as usize;
                    let seq = v & 0xFFFF_FFFF;
                    if let Some(prev) = last[pid] {
                        assert!(seq > prev, "producer {pid} reordered");
                    }
                    last[pid] = Some(seq);
                    count += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            for pid in 0..PRODUCERS as usize {
                assert_eq!(last[pid], Some(PER - 1));
            }
        });
    }

    #[test]
    fn mpsc_stress_batched_consumer() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 10_000;
        let (tx, mut rx) = nem_queue_with_capacity::<u64>(128);
        std::thread::scope(|s| {
            for pid in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        tx.enqueue(pid << 32 | i);
                    }
                });
            }
            let mut last = vec![None::<u64>; PRODUCERS as usize];
            let mut count = 0u64;
            while count < PRODUCERS * PER {
                let got = rx.dequeue_batch(48, |v| {
                    let pid = (v >> 32) as usize;
                    let seq = v & 0xFFFF_FFFF;
                    if let Some(prev) = last[pid] {
                        assert!(seq > prev, "producer {pid} reordered");
                    }
                    last[pid] = Some(seq);
                });
                if got == 0 {
                    std::hint::spin_loop();
                }
                count += got as u64;
            }
        });
    }

    #[test]
    fn values_dropped_exactly_once() {
        // Dequeue half, drop the rest with the queue; every Arc clone
        // must be released exactly once.
        let probe = Arc::new(());
        {
            let (tx, mut rx) = nem_queue();
            for _ in 0..20 {
                tx.enqueue(Arc::clone(&probe));
            }
            for _ in 0..10 {
                assert!(rx.dequeue().is_some());
            }
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }
}
