//! Proof that the pooled receive queue's steady-state hot path is
//! allocation-free: a counting global allocator observes zero heap
//! allocations across hundreds of thousands of enqueue/dequeue and
//! batched-drain operations. The seed's queue paid one `Box` per
//! enqueue; the pooled slab pays zero — this test is the regression
//! fence for that property, and for the same property of `rt::comm`'s
//! per-pair lanes, its rendezvous and its parked-packet set.
//!
//! The counter is thread-local: the libtest harness allocates from its
//! own threads (output capture, timers) and must not pollute the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nemesis::rt::queue::nem_queue_with_capacity;

struct CountingAlloc;

thread_local! {
    // const-initialized Cell: no lazy setup, no destructor — safe to
    // touch from inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn queue_hot_path_is_allocation_free() {
    // All slab storage is allocated here, up front.
    let (tx, mut rx) = nem_queue_with_capacity::<u64>(256);
    // Warm one full recycle so any lazy setup is behind us.
    for i in 0..256u64 {
        tx.enqueue(i);
    }
    rx.dequeue_batch(256, |_| ());

    let before = local_allocs();
    let mut sum = 0u64;
    for round in 0..2_000u64 {
        // Interleave singles and batches, always draining within the
        // 256-cell capacity (single-threaded, so a full slab would
        // deadlock — and would also be an allocation-pressure bug).
        for i in 0..64 {
            tx.enqueue(round * 64 + i);
        }
        for _ in 0..16 {
            sum = sum.wrapping_add(rx.dequeue().expect("just enqueued"));
        }
        rx.dequeue_batch(48, |v| sum = sum.wrapping_add(v));
        assert!(rx.is_empty());
    }
    let after = local_allocs();
    assert_ne!(sum, 0);
    assert_eq!(
        after - before,
        0,
        "queue hot path allocated {} time(s) over 128k messages",
        after - before
    );
}

/// The learned backend selection is a per-transfer decision: once the
/// pair's cell exists, picking and peeking must not touch the heap
/// (the selector used to collect its open arms into two `Vec`s per
/// call).
#[test]
fn backend_selection_is_allocation_free_once_the_pair_exists() {
    use nemesis::core::lmt::tuner::selector::{arm_of, NARMS};
    use nemesis::core::lmt::tuner::Tuner;

    let tuner = Tuner::new(2, 64 << 10);
    let mut eligible = [true; NARMS];
    eligible[2] = false;
    // Materialise the pair and get past the first-touch paths.
    let warm = tuner.select_backend(0, 1, 1 << 20, &eligible);
    tuner.observe_arm(0, 1, arm_of(warm).expect("an arm"), 1 << 20, 1 << 20);

    let before = local_allocs();
    let mut picked = 0usize;
    for i in 0..10_000u64 {
        let len = (64 << 10) << (i % 6);
        picked += arm_of(tuner.select_backend(0, 1, len, &eligible)).expect("an arm");
        picked += arm_of(tuner.peek_backend(0, 1, len, &eligible)).expect("an arm");
    }
    let after = local_allocs();
    assert_ne!(picked, 0);
    assert_eq!(
        after - before,
        0,
        "backend selection allocated {} time(s) over 10k select + peek calls",
        after - before
    );
}

/// Ping-pong `bytes`-byte messages between two ranks and hold both
/// threads to zero allocations once warm.
fn round_trips_allocate_nothing(lmt: nemesis::rt::RtLmt, bytes: usize) {
    nemesis::rt::run_rt(2, lmt, |comm| {
        let peer = 1 - comm.rank();
        let data = vec![comm.rank() as u8 + 1; bytes];
        let mut buf = vec![0u8; bytes];
        let mut round_trip = |comm: &mut nemesis::rt::RtComm| {
            if comm.rank() == 0 {
                comm.send(peer, 1, &data);
                comm.recv(Some(peer), Some(1), &mut buf);
            } else {
                comm.recv(Some(peer), Some(1), &mut buf);
                comm.send(peer, 1, &data);
            }
        };
        // Warm: both copy rings' first touch.
        for _ in 0..8 {
            round_trip(comm);
        }
        let before = local_allocs();
        for _ in 0..1_000 {
            round_trip(comm);
        }
        let allocated = local_allocs() - before;
        assert!(buf.iter().all(|&b| b == peer as u8 + 1));
        assert_eq!(
            allocated,
            0,
            "rank {} allocated {allocated} time(s) over 1 000 {lmt:?} round trips of {bytes} B",
            comm.rank()
        );
    });
}

/// A rendezvous completes through a per-rank completion word that
/// exists before the first message: once the ring is first-touched,
/// neither the sending nor the receiving thread touches the heap.
#[test]
fn rendezvous_round_trips_are_allocation_free_once_warm() {
    use nemesis::rt::RtLmt;
    for lmt in [RtLmt::DoubleBuffer, RtLmt::Direct] {
        round_trips_allocate_nothing(lmt, 64 << 10);
    }
}

/// The two small-message shapes over the per-pair lanes: a payload that
/// rides inside the lane slot, and one that goes through the lane's
/// byte ring.
#[test]
fn inline_and_eager_round_trips_are_allocation_free() {
    for bytes in [64, 4 << 10] {
        round_trips_allocate_nothing(nemesis::rt::RtLmt::Direct, bytes);
    }
}

/// Receiving tag B before tag A parks A and re-takes it: the parked-set
/// buckets are indexed by source rank and keep their buffers, and a
/// parked payload's buffer goes back to a spare list once delivered, so
/// the cycle stops allocating once each has grown once — for an inline
/// A and for an eager one alike.
#[test]
fn warm_park_and_retake_cycle_is_allocation_free() {
    use nemesis::rt::{run_rt, RtLmt};
    const TAG_A: i32 = 1;
    const TAG_B: i32 = 2;
    const TAG_ACK: i32 = 3;
    for bytes in [64, 4 << 10] {
        run_rt(2, RtLmt::Direct, |comm| {
            let a = vec![0xAu8; bytes];
            let mut buf = vec![0u8; bytes];
            let mut cycle = |comm: &mut nemesis::rt::RtComm| {
                if comm.rank() == 0 {
                    comm.send(1, TAG_A, &a);
                    comm.send(1, TAG_B, &[0xB; 48]);
                    comm.recv(Some(1), Some(TAG_ACK), &mut buf);
                } else {
                    assert_eq!(comm.recv(Some(0), Some(TAG_B), &mut buf), 48);
                    assert!(buf[..48].iter().all(|&b| b == 0xB));
                    assert_eq!(comm.recv(None, Some(TAG_A), &mut buf), bytes);
                    assert!(buf == a);
                    comm.send(0, TAG_ACK, &[1]);
                }
            };
            for _ in 0..8 {
                cycle(comm);
            }
            let before = local_allocs();
            for _ in 0..1_000 {
                cycle(comm);
            }
            let allocated = local_allocs() - before;
            assert_eq!(
                allocated,
                0,
                "rank {} allocated {allocated} time(s) over 1 000 park/re-take cycles of {bytes} B",
                comm.rank()
            );
        });
    }
}
