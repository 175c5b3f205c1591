//! A bounded single-producer/single-consumer **lane**: the per-pair
//! hand-off under [`comm`](crate::comm).
//!
//! One lane serves one ordered rank pair, the role a Nemesis "fastbox"
//! plays ahead of the shared receive queue [6]. It is a ring of
//! 64-byte-aligned slots, each a 40-byte header (the `full` flag, then a
//! [`Header`]) followed by an [`INLINE_MAX`]-byte inline area. Neither
//! side shares an index with the other: the producer keeps its tail and
//! the consumer its head privately, and a slot changes hands through
//! its own `full` flag alone. A push is plain stores plus one Release
//! store of `full`; a take reads the slot in place and frees it with one
//! Release store — no locked instruction on either side, so the misses
//! of consecutive messages can overlap. Only `len` bytes of the inline
//! area are ever written or read: a 64-byte payload moves two cache
//! lines, not the whole slot.
//!
//! The slots come from `alloc_zeroed`, so a slot becomes resident only
//! once its pair has cycled through it.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::{Cell, UnsafeCell};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Payload bytes a slot can carry inline.
pub const INLINE_MAX: usize = 256;

/// What a slot's [`Header`] describes.
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The payload is the slot's own inline area (`len` bytes of it).
    Inline = 0,
    /// `word` is a pooled-cell index holding `len` payload bytes.
    Eager,
    /// `word` is the sender's buffer address (`len` bytes); `seq` is
    /// what completes the rendezvous.
    Rndv,
}

/// The fixed part of a message, written and read as one 32-byte value.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    pub kind: Kind,
    pub tag: i32,
    pub len: usize,
    pub word: usize,
    pub seq: usize,
}

impl Header {
    /// The payload bytes of the message within its inline `area`: `len`
    /// of them for [`Kind::Inline`], none for the other kinds.
    #[inline]
    pub fn inline<'a>(&self, area: &'a [u8; INLINE_MAX]) -> &'a [u8] {
        match self.kind {
            Kind::Inline => &area[..self.len],
            _ => &[],
        }
    }
}

#[repr(C, align(64))]
struct Slot {
    /// 0 = the producer's to fill, 1 = the consumer's to read.
    full: AtomicU32,
    hdr: UnsafeCell<Header>,
    data: UnsafeCell<[u8; INLINE_MAX]>,
}

struct Ring {
    slots: NonNull<Slot>,
    cap: usize,
}

// SAFETY: the ring is plain memory reached only through `LaneTx` and
// `LaneRx`, one of each; a slot's `hdr`/`data` are touched only by the
// side its `full` flag names, under that flag's Release/Acquire edge.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn layout(cap: usize) -> Layout {
        Layout::array::<Slot>(cap).expect("lane layout")
    }

    #[inline]
    fn slot(&self, i: usize) -> &Slot {
        debug_assert!(i < self.cap);
        // SAFETY: `i < cap` slots were allocated zeroed, and all-zero
        // bytes are a valid `Slot` (flag 0, `Kind::Inline`, integers);
        // everything behind the reference that either side writes is an
        // atomic or inside an `UnsafeCell`.
        unsafe { &*self.slots.as_ptr().add(i) }
    }

    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.cap {
            0
        } else {
            i + 1
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // SAFETY: allocated in `lane` with exactly this layout; slots
        // hold nothing that needs dropping.
        unsafe { dealloc(self.slots.as_ptr().cast(), Self::layout(self.cap)) }
    }
}

/// The producing end. `!Sync`: the tail cursor is a `Cell`, so two
/// threads pushing through one handle is a compile error.
pub struct LaneTx {
    ring: Arc<Ring>,
    tail: Cell<usize>,
}

/// The consuming end.
pub struct LaneRx {
    ring: Arc<Ring>,
    head: usize,
}

/// A lane of `capacity` slots, every one of them usable.
pub fn lane(capacity: usize) -> (LaneTx, LaneRx) {
    assert!(capacity >= 1, "lane needs at least one slot");
    let layout = Ring::layout(capacity);
    // SAFETY: the layout has nonzero size (`capacity >= 1`).
    let slots = NonNull::new(unsafe { alloc_zeroed(layout) }.cast::<Slot>())
        .unwrap_or_else(|| handle_alloc_error(layout));
    let ring = Arc::new(Ring {
        slots,
        cap: capacity,
    });
    let tx = LaneTx {
        ring: Arc::clone(&ring),
        tail: Cell::new(0),
    };
    (tx, LaneRx { ring, head: 0 })
}

impl LaneTx {
    /// Publish `hdr` with `inline` copied into the slot's inline area;
    /// `false` when the lane is full. An inline message passes its
    /// payload and `hdr.len == inline.len()`, the other kinds pass `&[]`.
    #[inline]
    pub fn try_push(&self, hdr: Header, inline: &[u8]) -> bool {
        assert!(inline.len() <= INLINE_MAX, "inline payload too large");
        debug_assert!(hdr.kind != Kind::Inline || hdr.len == inline.len());
        let tail = self.tail.get();
        let slot = self.ring.slot(tail);
        if slot.full.load(Ordering::Acquire) != 0 {
            return false;
        }
        // SAFETY: `full == 0` read with Acquire: the consumer is done
        // with this slot and will not look inside again before the
        // Release store below; we are the only producer.
        unsafe {
            *slot.hdr.get() = hdr;
            std::ptr::copy_nonoverlapping(inline.as_ptr(), slot.data.get().cast(), inline.len());
        }
        slot.full.store(1, Ordering::Release);
        self.tail.set(self.ring.next(tail));
        true
    }
}

impl LaneRx {
    /// Hand the oldest published message to `f` in place — its header
    /// and, for [`Kind::Inline`], its `len` payload bytes (empty for the
    /// other kinds) — then free the slot. `None` when the lane is empty.
    #[inline]
    pub fn take<R>(&mut self, f: impl FnOnce(&Header, &[u8]) -> R) -> Option<R> {
        let slot = self.ring.slot(self.head);
        if slot.full.load(Ordering::Acquire) == 0 {
            return None;
        }
        // SAFETY: `full == 1` read with Acquire: the producer's writes
        // to this slot happened before, and it will not write here again
        // until the Release store below; we are the only consumer.
        let (hdr, data) = unsafe { (&*slot.hdr.get(), &*slot.data.get()) };
        let r = f(hdr, hdr.inline(data));
        slot.full.store(0, Ordering::Release);
        self.head = self.ring.next(self.head);
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline_hdr(tag: i32, len: usize) -> Header {
        Header {
            kind: Kind::Inline,
            tag,
            len,
            word: 0,
            seq: 0,
        }
    }

    #[test]
    fn slot_is_a_40_byte_header_then_the_inline_area() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<Slot>(), 64);
        assert_eq!(offset_of!(Slot, full), 0);
        assert_eq!(offset_of!(Slot, data), 40);
        assert_eq!(size_of::<Slot>(), 320);
    }

    #[test]
    fn fifo_across_wrap_with_full_and_empty_edges() {
        for cap in [1usize, 2, 3, 512] {
            let (tx, mut rx) = lane(cap);
            assert!(rx.take(|_, _| ()).is_none(), "fresh lane is empty");
            let mut next = 0i32;
            // Three and a bit laps, filling to the brim each time.
            for lap in 0..4 {
                let fill = if lap == 3 { cap.div_ceil(2) } else { cap };
                for i in 0..fill {
                    let tag = next + i as i32;
                    assert!(tx.try_push(inline_hdr(tag, 4), &tag.to_le_bytes()));
                }
                if fill == cap {
                    assert!(!tx.try_push(inline_hdr(-1, 0), &[]), "cap {cap}: full");
                }
                for _ in 0..fill {
                    let got = rx.take(|h, d| (h.tag, i32::from_le_bytes(d.try_into().unwrap())));
                    assert_eq!(got, Some((next, next)), "cap {cap}: FIFO");
                    next += 1;
                }
                assert!(rx.take(|_, _| ()).is_none(), "cap {cap}: drained");
            }
        }
    }

    #[test]
    fn payload_lengths_are_byte_identical_and_stale_bytes_stay_hidden() {
        // One slot, so every message reuses the same inline area: a
        // short payload after a long one must surface exactly its own
        // bytes, never the longer one's tail.
        let (tx, mut rx) = lane(1);
        for (round, len) in [256usize, 0, 1, 40, 41, 255, 256, 40]
            .into_iter()
            .enumerate()
        {
            let payload: Vec<u8> = (0..len).map(|i| (i + round * 31) as u8).collect();
            assert!(tx.try_push(inline_hdr(round as i32, len), &payload));
            let got = rx.take(|h, d| (h.len, d.to_vec())).expect("just pushed");
            assert_eq!(got, (len, payload), "len {len}");
        }
    }

    #[test]
    fn non_inline_kinds_carry_header_words_and_no_payload() {
        let (tx, mut rx) = lane(2);
        let hdr = Header {
            kind: Kind::Rndv,
            tag: 7,
            len: 1 << 20,
            word: 0xdead_b000,
            seq: 42,
        };
        assert!(tx.try_push(hdr, &[]));
        assert!(tx.try_push(
            Header {
                kind: Kind::Eager,
                word: 3,
                ..hdr
            },
            &[]
        ));
        let got = rx.take(|h, d| (h.kind, h.tag, h.len, h.word, h.seq, d.len()));
        assert_eq!(got, Some((Kind::Rndv, 7, 1 << 20, 0xdead_b000, 42, 0)));
        let got = rx.take(|h, d| (h.kind, h.word, d.len()));
        assert_eq!(got, Some((Kind::Eager, 3, 0)));
    }

    #[test]
    fn two_threads_one_million_messages_in_sequence() {
        const MSGS: usize = 1_000_000;
        let (tx, mut rx) = lane(64);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..MSGS {
                    let len = i % 48;
                    let body = [i as u8; 48];
                    let hdr = Header {
                        word: i,
                        ..inline_hdr(i as i32, len)
                    };
                    while !tx.try_push(hdr, &body[..len]) {
                        std::hint::spin_loop();
                    }
                }
            });
            for i in 0..MSGS {
                loop {
                    let ok = rx.take(|h, d| {
                        assert_eq!((h.word, h.tag, h.len), (i, i as i32, i % 48));
                        assert!(d.len() == i % 48 && d.iter().all(|&b| b == i as u8));
                    });
                    if ok.is_some() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        });
        assert!(rx.take(|_, _| ()).is_none());
    }
}
