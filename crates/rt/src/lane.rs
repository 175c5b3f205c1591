//! A bounded single-producer/single-consumer **lane**: the per-pair
//! hand-off under [`comm`](crate::comm).
//!
//! One lane serves one ordered rank pair, the role a Nemesis "fastbox"
//! plays ahead of the shared receive queue [6]. It is a ring of
//! 64-byte-aligned slots, each a 40-byte header (the `stamp`, then a
//! [`Header`]) followed by an [`INLINE_MAX`]-byte inline area. Every
//! slot line has a single writer, the producer: it stamps a slot with
//! its message count + 1, and the consumer takes the slot whose stamp is
//! its own count + 1 without ever writing it. The consumer hands slots
//! back by publishing its count (`taken`) on a line of its own, which
//! the producer re-reads only when the credit it saw last runs out. A
//! push is plain stores plus one Release store of the stamp — no load of
//! a line the consumer wrote — and a take dirties only the consumer's
//! line: no locked instruction on either side, so the misses of
//! consecutive messages can overlap. Only `len` bytes of the inline
//! area are ever written or read: a 64-byte payload moves two cache
//! lines, not the whole slot.
//!
//! Beside its slots a lane owns a **byte ring** for the payloads of
//! [`Kind::Eager`] messages. The producer claims each payload's length,
//! rounded up to a cache line, at the ring's tail — skipping to offset 0
//! when the tail cannot hold it — and the header names the payload's
//! offset and the ring position that frees it. The consumer takes
//! messages in lane order, so ring bytes are released in order: a
//! release is one Release store of `released`, beside `taken` on the
//! consumer's line, and the producer keeps a ring credit the same way
//! as its slot credit. No per-payload flag, no CAS.
//!
//! A push ends by demoting the slot lines it wrote (`demote`): they
//! leave the producer's private cache for the shared last-level cache,
//! where the consumer's next read finds them, instead of reaching it as
//! a snoop of a Modified line in the producer's cache. The eager ring's
//! bytes stay where the copy left them.
//!
//! Slots and ring are zeroed memory that becomes resident only where a
//! pair writes it (see `Lines`).

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::{Cell, UnsafeCell};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Payload bytes a slot can carry inline.
pub const INLINE_MAX: usize = 256;

/// Cache-line size: the slot alignment and the byte ring's granule, so
/// no two payloads share a line.
const LINE: usize = 64;

/// What a slot's [`Header`] describes.
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The payload is the slot's own inline area (`len` bytes of it).
    Inline = 0,
    /// The payload is `len` bytes at offset `word` of the lane's byte
    /// ring; `seq` is the ring position taking it releases up to. The
    /// lane fills both in at the push.
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

#[repr(C, align(64))]
struct Slot {
    /// The producer's message count + 1 as of the push that filled the
    /// slot (0 before the first): the consumer's to read while it equals
    /// the consumer's count + 1. Only the producer writes the slot.
    stamp: AtomicUsize,
    hdr: UnsafeCell<Header>,
    data: UnsafeCell<[u8; INLINE_MAX]>,
}

/// Slot lines a push of a `kind` message of `len` bytes writes, counted
/// from the slot's start: the stamp and header line, plus whatever lines
/// an inline payload reaches. An eager payload lives in the ring and a
/// rendezvous one in the sender's buffer, so neither adds a line.
#[inline]
fn lines_written(kind: Kind, len: usize) -> usize {
    let header = std::mem::offset_of!(Slot, data);
    let end = match kind {
        Kind::Inline => header + len,
        Kind::Eager | Kind::Rndv => header,
    };
    end.div_ceil(LINE)
}

/// Hint that the line holding `p` move from this core's private caches
/// to the shared last-level cache (CLDEMOTE), so that another core's
/// next read of it hits there. Changes no data and orders nothing; the
/// `asm!` block is not `nomem`, so the compiler keeps it after the
/// stores it follows. Compiles to nothing off x86_64.
#[inline(always)]
fn demote(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: CLDEMOTE reads only its address register and changes no
    // architectural state, memory included: it is a hint, it cannot
    // fault, and on a CPU without it the encoding (0F 1C /0) executes as
    // a NOP.
    unsafe {
        std::arch::asm!("cldemote [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Zeroed memory starting on a cache line. It is allocated at alignment
/// 1 with a line of slack: at alignment ≤ 16 std's `alloc_zeroed` is
/// `calloc`, which maps large requests as fresh zero pages, where at
/// alignment 64 it zeroes every byte by hand — so here memory nobody
/// writes costs address space, not resident pages.
struct Lines {
    alloc: NonNull<u8>,
    start: NonNull<u8>,
    len: usize,
}

impl Lines {
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len + LINE, 1).expect("lane layout")
    }

    fn new(len: usize) -> Self {
        let layout = Self::layout(len);
        // SAFETY: the layout has nonzero size.
        let alloc = NonNull::new(unsafe { alloc_zeroed(layout) })
            .unwrap_or_else(|| handle_alloc_error(layout));
        let skip = alloc.as_ptr().align_offset(LINE);
        assert!(skip < LINE);
        // SAFETY: `skip < LINE` keeps `start` inside the allocation, with
        // `len` bytes after it.
        let start = unsafe { alloc.add(skip) };
        Self { alloc, start, len }
    }
}

impl Drop for Lines {
    fn drop(&mut self) {
        // SAFETY: allocated in `new` with exactly this layout.
        unsafe { dealloc(self.alloc.as_ptr(), Self::layout(self.len)) }
    }
}

/// One atomic on a cache line of its own.
#[repr(align(64))]
struct Own(AtomicUsize);

/// The consumer's line: the only lane memory it writes, one store per
/// take (two for an eager one) to a line the producer reads only when a
/// credit runs out.
#[derive(Default)]
#[repr(align(64))]
struct Consumed {
    /// Messages taken: its Release store hands their slots back to the
    /// producer's Acquire load.
    taken: AtomicUsize,
    /// Ring position released up to: its Release store hands the bytes
    /// below back to the producer's Acquire load.
    released: AtomicUsize,
}

struct Shared {
    /// `cap` slots.
    slots: Lines,
    cap: usize,
    /// The eager byte ring; its `len` is a multiple of [`LINE`].
    ring: Lines,
    consumed: Consumed,
    /// Ring position the producer has claimed up to. Only the producer
    /// writes it and it publishes nothing (the slot stamps do), so the
    /// producer's own accesses are Relaxed.
    claimed: Own,
}

// SAFETY: the lane is plain memory reached only through `LaneTx` and
// `LaneRx`, one of each. A slot's `hdr`/`data` and the ring bytes its
// header names pass to the consumer through the slot stamp's
// Release/Acquire edge, and back to the producer only through `taken`'s
// (the slot) and `released`'s (the ring bytes) Release/Acquire edges.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Shared {
    #[inline]
    fn slot(&self, i: usize) -> &Slot {
        debug_assert!(i < self.cap);
        // SAFETY: `i < cap` slots were allocated zeroed and line-aligned,
        // and all-zero bytes are a valid `Slot` (stamp 0, `Kind::Inline`,
        // integers); everything behind the reference that either side
        // writes is an atomic or inside an `UnsafeCell`.
        unsafe { &*self.slots.start.cast::<Slot>().as_ptr().add(i) }
    }

    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.cap {
            0
        } else {
            i + 1
        }
    }

    fn eager_bytes_in_flight(&self) -> usize {
        // `released` first: whatever it reads, `claimed` was already at
        // least that far.
        let released = self.consumed.released.load(Ordering::Acquire);
        self.claimed.0.load(Ordering::Acquire) - released
    }
}

/// The producing end. `!Sync`: the tail cursor is a `Cell`, so two
/// threads pushing through one handle is a compile error. Each end has
/// a cache line of its own: `comm` keeps a rank's ends side by side in
/// one `Vec`, and unpadded, one rank's per-message cursor writes landed
/// on the line holding another rank's cursor.
#[repr(align(64))]
pub struct LaneTx {
    lane: Arc<Shared>,
    tail: Cell<usize>,
    /// Messages pushed.
    sent: Cell<usize>,
    /// `taken` plus the slot count, as of the last look at `taken`: a
    /// push while `sent` is below it finds its slot free without looking
    /// again.
    slot_credit: Cell<usize>,
    /// `released` plus the ring size, as of the last look at `released`:
    /// a claim ending at or before it fits without looking again.
    credit: Cell<usize>,
}

/// The consuming end, on a cache line of its own like [`LaneTx`].
#[repr(align(64))]
pub struct LaneRx {
    lane: Arc<Shared>,
    head: usize,
    /// Messages taken; the consumer's private copy of `taken`.
    taken: usize,
}

/// A lane of `capacity` slots, every one of them usable, with a byte
/// ring of `ring_bytes` (rounded up to a cache line) for eager payloads.
pub fn lane(capacity: usize, ring_bytes: usize) -> (LaneTx, LaneRx) {
    assert!(capacity >= 1, "lane needs at least one slot");
    let slots = Layout::array::<Slot>(capacity).expect("lane layout");
    let lane = Arc::new(Shared {
        slots: Lines::new(slots.size()),
        cap: capacity,
        ring: Lines::new(ring_bytes.next_multiple_of(LINE)),
        consumed: Consumed::default(),
        claimed: Own(AtomicUsize::new(0)),
    });
    let tx = LaneTx {
        slot_credit: Cell::new(capacity),
        credit: Cell::new(lane.ring.len),
        lane: Arc::clone(&lane),
        tail: Cell::new(0),
        sent: Cell::new(0),
    };
    let rx = LaneRx {
        lane,
        head: 0,
        taken: 0,
    };
    (tx, rx)
}

impl LaneTx {
    /// Publish `hdr` with its payload; `false` when the lane is full or,
    /// for [`Kind::Eager`], its ring lacks room. An inline message's
    /// payload lands in the slot, an eager one's in the ring; a
    /// rendezvous passes `&[]`. `hdr.len == payload.len()` for the
    /// first two.
    #[inline]
    pub fn try_push(&self, mut hdr: Header, payload: &[u8]) -> bool {
        debug_assert!(hdr.kind == Kind::Rndv || hdr.len == payload.len());
        let sent = self.sent.get();
        if sent == self.slot_credit.get() {
            let taken = self.lane.consumed.taken.load(Ordering::Acquire);
            self.slot_credit.set(taken + self.lane.cap);
            if sent == self.slot_credit.get() {
                return false;
            }
        }
        let tail = self.tail.get();
        let slot = self.lane.slot(tail);
        let dst: *mut u8 = if hdr.kind == Kind::Eager {
            let Some((off, end)) = self.claim(payload.len()) else {
                return false;
            };
            (hdr.word, hdr.seq) = (off, end);
            // SAFETY: `claim` keeps `off + len` within the ring.
            unsafe { self.lane.ring.start.as_ptr().add(off) }
        } else {
            assert!(payload.len() <= INLINE_MAX, "inline payload too large");
            slot.data.get().cast()
        };
        // SAFETY: `taken` read with Acquire at the last refresh put the
        // credit above `sent`, so message `sent - cap`, this slot's last,
        // is taken: the consumer is done with the slot and will not look
        // inside again before the stamp store below names the count it
        // waits for. `dst` is this slot's inline area or ring bytes
        // `claim` found released, which the consumer will not read before
        // that store either. We are the only producer.
        //
        // The payload goes first, so the header and the stamp share one
        // burst of stores to the slot's first line: a consumer polling
        // the stamp pulls that line away once per push, not also once
        // mid-copy.
        unsafe {
            std::ptr::copy_nonoverlapping(payload.as_ptr(), dst, payload.len());
            *slot.hdr.get() = hdr;
        }
        slot.stamp.store(sent + 1, Ordering::Release);
        let first: *const u8 = (slot as *const Slot).cast();
        for line in 0..lines_written(hdr.kind, hdr.len) {
            // `lines_written` stays inside the slot: no pointer leaves it.
            demote(first.wrapping_add(line * LINE));
        }
        self.sent.set(sent + 1);
        self.tail.set(self.lane.next(tail));
        true
    }

    /// Claim ring room for a `len`-byte eager payload: its offset and the
    /// ring position that releases it, or `None` while the consumer
    /// still holds bytes the payload would overwrite. Out of line: inlined,
    /// it made `try_push` too big to inline into `comm`'s send paths, and
    /// every inline message paid a call.
    #[inline(never)]
    fn claim(&self, len: usize) -> Option<(usize, usize)> {
        let cap = self.lane.ring.len;
        let need = len.next_multiple_of(LINE);
        assert!(
            0 < cap && need <= cap,
            "a {len}-byte eager payload does not fit a {cap}-byte ring"
        );
        let pos = self.lane.claimed.0.load(Ordering::Relaxed);
        let off = pos % cap;
        // A payload never wraps: a tail too short for it is skipped.
        let (start, end) = if off + need <= cap {
            (off, pos + need)
        } else {
            (0, pos + (cap - off) + need)
        };
        if end > self.credit.get() {
            let released = self.lane.consumed.released.load(Ordering::Acquire);
            self.credit.set(released + cap);
            // Positions `[released, end)` must fit the ring, unless it is
            // empty: then the skip holds nothing anyone still reads.
            if end > released + cap && released != pos {
                return None;
            }
        }
        self.lane.claimed.0.store(end, Ordering::Relaxed);
        Some((start, end))
    }

    /// Eager bytes claimed in this lane's ring and not yet released
    /// (exact while the consumer is quiesced).
    pub(crate) fn eager_bytes_in_flight(&self) -> usize {
        self.lane.eager_bytes_in_flight()
    }
}

impl LaneRx {
    /// Hand the oldest published message to `f` in place — its header
    /// and its payload: the slot's inline bytes, the ring bytes of an
    /// eager message, nothing for a rendezvous — then hand the slot and
    /// any ring bytes back. The slot itself is only read. `None` when the
    /// lane is empty.
    #[inline]
    pub fn take<R>(&mut self, f: impl FnOnce(&Header, &[u8]) -> R) -> Option<R> {
        let slot = self.lane.slot(self.head);
        if slot.stamp.load(Ordering::Acquire) != self.taken + 1 {
            return None;
        }
        // SAFETY: the stamp names our next message, read with Acquire:
        // the producer's writes to this slot and to the ring bytes its
        // header names happened before, and it writes neither again
        // until the `taken`/`released` Release stores below; the push
        // bounded `len` by the inline area or kept `[word, word + len)`
        // inside the ring. We are the only consumer.
        let (hdr, payload) = unsafe {
            let hdr = &*slot.hdr.get();
            let payload: &[u8] = match hdr.kind {
                Kind::Inline => &(&*slot.data.get())[..hdr.len],
                Kind::Eager => {
                    std::slice::from_raw_parts(self.lane.ring.start.as_ptr().add(hdr.word), hdr.len)
                }
                Kind::Rndv => &[],
            };
            (hdr, payload)
        };
        let r = f(hdr, payload);
        let consumed = &self.lane.consumed;
        if hdr.kind == Kind::Eager {
            consumed.released.store(hdr.seq, Ordering::Release);
        }
        self.taken += 1;
        consumed.taken.store(self.taken, Ordering::Release);
        self.head = self.lane.next(self.head);
        Some(r)
    }

    /// Eager bytes claimed in this lane's ring and not yet released
    /// (exact while the producer is quiesced).
    pub(crate) fn eager_bytes_in_flight(&self) -> usize {
        self.lane.eager_bytes_in_flight()
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

    fn eager_hdr(tag: i32, len: usize) -> Header {
        Header {
            kind: Kind::Eager,
            ..inline_hdr(tag, len)
        }
    }

    /// Payload `i` of `len` bytes: a window into one fixed pattern, so a
    /// check is one slice compare.
    fn body(table: &[u8], i: usize, len: usize) -> &[u8] {
        let at = i % 251;
        &table[at..at + len]
    }

    fn table() -> Vec<u8> {
        (0..(16 << 10) + 256)
            .map(|j| (j * 131 + j / 251) as u8)
            .collect()
    }

    #[test]
    fn slot_is_a_40_byte_header_then_the_inline_area() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<Slot>(), 64);
        assert_eq!(offset_of!(Slot, stamp), 0);
        assert_eq!(offset_of!(Slot, data), 40);
        assert_eq!(size_of::<Slot>(), 320);
    }

    #[test]
    fn a_push_demotes_the_slot_lines_it_wrote_and_never_a_ring_byte() {
        // Header-only kinds: the stamp and header line, whatever `len`
        // says the ring or the sender's buffer holds.
        for len in [0, 1, 24, 25, 88, 256, 4 << 10, 1 << 30] {
            assert_eq!(lines_written(Kind::Eager, len), 1, "eager {len} B");
            assert_eq!(lines_written(Kind::Rndv, len), 1, "rndv {len} B");
        }
        for len in 0..=INLINE_MAX {
            let want = match len {
                0..=24 => 1,
                25..=88 => 2,
                89..=152 => 3,
                153..=216 => 4,
                _ => 5,
            };
            assert_eq!(lines_written(Kind::Inline, len), want, "inline {len} B");
            assert!(
                want * LINE <= std::mem::size_of::<Slot>(),
                "inside the slot"
            );
        }
    }

    #[test]
    fn each_end_and_each_ring_position_has_a_cache_line_to_itself() {
        use std::mem::{align_of, size_of};
        assert_eq!((align_of::<LaneTx>(), size_of::<LaneTx>()), (64, 64));
        assert_eq!((align_of::<LaneRx>(), size_of::<LaneRx>()), (64, 64));
        assert_eq!(size_of::<Own>(), 64);
        assert_eq!(
            size_of::<Consumed>(),
            64,
            "both consumer positions, one line"
        );
        let (tx, _rx) = lane(3, 100);
        assert_eq!(tx.lane.slots.start.as_ptr() as usize % 64, 0);
        assert_eq!(tx.lane.ring.start.as_ptr() as usize % 64, 0);
        assert_eq!(tx.lane.ring.len, 128, "rounded up to whole lines");
    }

    #[test]
    fn fifo_across_wrap_with_full_and_empty_edges() {
        for cap in [1usize, 2, 3, 512] {
            let (tx, mut rx) = lane(cap, 0);
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
        let (tx, mut rx) = lane(1, 0);
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
        let (tx, mut rx) = lane(2, LINE);
        let hdr = Header {
            kind: Kind::Rndv,
            tag: 7,
            len: 1 << 20,
            word: 0xdead_b000,
            seq: 42,
        };
        assert!(tx.try_push(hdr, &[]));
        // An empty eager payload claims no ring bytes: offset 0, and
        // taking it releases up to position 0.
        assert!(tx.try_push(eager_hdr(7, 0), &[]));
        let got = rx.take(|h, d| (h.kind, h.tag, h.len, h.word, h.seq, d.len()));
        assert_eq!(got, Some((Kind::Rndv, 7, 1 << 20, 0xdead_b000, 42, 0)));
        let got = rx.take(|h, d| (h.kind, h.word, h.seq, d.len()));
        assert_eq!(got, Some((Kind::Eager, 0, 0, 0)));
        assert_eq!(rx.eager_bytes_in_flight(), 0);
    }

    #[test]
    fn take_leaves_every_byte_of_the_slot_unchanged() {
        // One slot, so every kind passes through slot 0: the consumer
        // must hand it back through `taken` alone, never by writing it.
        let (tx, mut rx) = lane(1, 4 << 10);
        let snapshot = |rx: &LaneRx| {
            let slot: *const Slot = rx.lane.slot(0);
            // SAFETY: the producer is quiescent (same thread), and the
            // zeroed allocation initialises every byte, padding included.
            unsafe { slot.cast::<[u8; 320]>().read() }
        };
        let eager = [0x5Au8; 1000];
        let rndv = Header {
            kind: Kind::Rndv,
            word: 0xbeef,
            seq: 9,
            ..inline_hdr(2, 1 << 20)
        };
        let pushes: [(Header, &[u8]); 3] = [
            (inline_hdr(0, 200), &[0xA5; 200]),
            (eager_hdr(1, eager.len()), &eager),
            (rndv, &[]),
        ];
        for (hdr, payload) in pushes {
            assert!(tx.try_push(hdr, payload));
            let before = snapshot(&rx);
            let got = rx.take(|h, d| (h.kind, h.tag, d == payload));
            assert_eq!(got, Some((hdr.kind, hdr.tag, true)));
            assert!(
                before == snapshot(&rx),
                "{:?}: take wrote the slot",
                hdr.kind
            );
        }
    }

    #[test]
    fn producer_refreshes_its_slot_credit_at_capacity_one_two_and_three() {
        const MSGS: usize = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let table = table();
        for cap in [1usize, 2, 3] {
            let (tx, mut rx) = lane(cap, 16 << 10);
            // Every fifth message eager, so ring credit and slot credit
            // run out in turn.
            let shape = |i: usize| {
                let len = i % 97;
                if i.is_multiple_of(5) {
                    (eager_hdr(i as i32, len + 300), len + 300)
                } else {
                    (inline_hdr(i as i32, len), len)
                }
            };
            let refusals = std::thread::scope(|s| {
                let table = &table;
                let producer = s.spawn(move || {
                    let mut refusals = 0usize;
                    for i in 0..MSGS {
                        let (hdr, len) = shape(i);
                        let mut bo = crate::Backoff::new();
                        while !tx.try_push(hdr, body(table, i, len)) {
                            refusals += 1;
                            bo.snooze();
                        }
                    }
                    refusals
                });
                for i in 0..MSGS {
                    let (want, len) = shape(i);
                    let mut bo = crate::Backoff::new();
                    loop {
                        let ok = rx.take(|h, d| {
                            assert_eq!((h.kind, h.tag, h.len), (want.kind, i as i32, len));
                            assert!(d == body(table, i, len), "cap {cap}: message {i} differs");
                        });
                        if ok.is_some() {
                            break;
                        }
                        bo.snooze();
                    }
                }
                producer.join().unwrap()
            });
            assert!(
                rx.take(|_, _| ()).is_none(),
                "cap {cap}: a message arrived twice"
            );
            assert_eq!(rx.eager_bytes_in_flight(), 0);
            assert!(
                refusals > 0,
                "cap {cap}: the producer never found the lane full"
            );
        }
    }

    #[test]
    fn two_threads_one_million_messages_in_sequence() {
        const MSGS: usize = 1_000_000;
        let (tx, mut rx) = lane(64, 0);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..MSGS {
                    let len = i % 48;
                    let body = [i as u8; 48];
                    let hdr = Header {
                        word: i,
                        ..inline_hdr(i as i32, len)
                    };
                    let mut bo = crate::Backoff::new();
                    while !tx.try_push(hdr, &body[..len]) {
                        bo.snooze();
                    }
                }
            });
            for i in 0..MSGS {
                let mut bo = crate::Backoff::new();
                loop {
                    let ok = rx.take(|h, d| {
                        assert_eq!((h.word, h.tag, h.len), (i, i as i32, i % 48));
                        assert!(d.len() == i % 48 && d.iter().all(|&b| b == i as u8));
                    });
                    if ok.is_some() {
                        break;
                    }
                    bo.snooze();
                }
            }
        });
        assert!(rx.take(|_, _| ()).is_none());
    }

    #[test]
    fn eager_fifo_across_ring_wrap_with_mixed_sizes() {
        // A 64 KiB ring, kept as full as it will go: every refused push
        // takes one message and retries. 5 000 B after 257 B leaves a
        // tail too short for 16 KiB, so the skip to offset 0 happens.
        const RING: usize = 64 << 10;
        let sizes = [
            257,
            4 << 10,
            16 << 10,
            5_000,
            16 << 10,
            300,
            16 << 10,
            12_345,
        ];
        let table = table();
        let (tx, mut rx) = lane(16, RING);
        let (mut taken, mut end, mut skips, mut laps) = (0usize, 0usize, 0, 0);
        let mut take_one = |rx: &mut LaneRx| {
            let i = taken;
            let len = sizes[i % sizes.len()];
            let Some((word, seq)) = rx.take(|h, d| {
                assert_eq!((h.kind, h.tag, h.len), (Kind::Eager, i as i32, len));
                assert!(d == body(&table, i, len), "message {i}: bytes differ");
                (h.word, h.seq)
            }) else {
                return false;
            };
            assert_eq!(word % LINE, 0, "payloads start on a line");
            assert!(word + len <= RING, "a payload never wraps");
            skips += usize::from(word == 0 && end % RING != 0);
            laps += usize::from(word == 0);
            end = seq;
            taken += 1;
            true
        };
        for i in 0..400 {
            let len = sizes[i % sizes.len()];
            while !tx.try_push(eager_hdr(i as i32, len), body(&table, i, len)) {
                assert!(take_one(&mut rx), "refused with nothing to take");
            }
        }
        while take_one(&mut rx) {}
        assert_eq!(taken, 400);
        assert!(skips > 0 && laps > 10, "{skips} skips over {laps} laps");
        assert_eq!(tx.eager_bytes_in_flight(), 0, "every byte released");
    }

    #[test]
    fn push_is_refused_while_the_ring_lacks_room_and_admitted_after_release() {
        let (tx, mut rx) = lane(8, 16 << 10);
        let page = [7u8; 4 << 10];
        for i in 0..4 {
            assert!(tx.try_push(eager_hdr(i, page.len()), &page));
        }
        // Four free slots, no ring room: refused, and nothing moved.
        assert!(!tx.try_push(eager_hdr(4, page.len()), &page));
        assert!(!tx.try_push(eager_hdr(4, page.len()), &page));
        assert_eq!(tx.eager_bytes_in_flight(), 16 << 10);
        assert_eq!(rx.take(|h, _| h.tag), Some(0));
        assert_eq!(tx.eager_bytes_in_flight(), 12 << 10);
        assert!(tx.try_push(eager_hdr(4, page.len()), &page));
        for want in 1..=4 {
            assert_eq!(rx.take(|h, d| (h.tag, d == page)), Some((want, true)));
        }
        assert_eq!(rx.eager_bytes_in_flight(), 0);
    }

    #[test]
    fn released_bytes_are_reused_without_touching_unreleased_messages() {
        // 6 KiB payloads in a 16 KiB ring: A at 0, B at 6 KiB. Once A is
        // released, C does not fit the 4 KiB tail and skips to offset 0 —
        // A's bytes — while B still sits at 6 KiB unread.
        let (tx, mut rx) = lane(8, 16 << 10);
        let [a, b, c] = [[0xAu8; 6 << 10], [0xB; 6 << 10], [0xC; 6 << 10]];
        assert!(tx.try_push(eager_hdr(0, a.len()), &a));
        assert!(tx.try_push(eager_hdr(1, b.len()), &b));
        assert!(!tx.try_push(eager_hdr(2, c.len()), &c), "A still held");
        assert_eq!(rx.take(|h, d| (h.word, d == a)), Some((0, true)));
        assert!(tx.try_push(eager_hdr(2, c.len()), &c));
        assert_eq!(rx.take(|h, d| (h.word, d == b)), Some((6 << 10, true)));
        assert_eq!(rx.take(|h, d| (h.word, d == c)), Some((0, true)));
    }

    #[test]
    fn an_empty_ring_takes_a_payload_the_skip_would_push_past_its_size() {
        // One 16 KiB cell of ring: after a 4 KiB payload, 16 KiB fits
        // only at offset 0, and only once the 4 KiB is released.
        let (tx, mut rx) = lane(4, 16 << 10);
        let (small, big) = ([1u8; 4 << 10], [2u8; 16 << 10]);
        assert!(tx.try_push(eager_hdr(0, small.len()), &small));
        assert!(!tx.try_push(eager_hdr(1, big.len()), &big));
        assert_eq!(rx.take(|_, d| d == small), Some(true));
        assert!(tx.try_push(eager_hdr(1, big.len()), &big));
        assert_eq!(rx.take(|h, d| (h.word, d == big)), Some((0, true)));
        assert!(tx.try_push(eager_hdr(2, small.len()), &small));
        assert_eq!(rx.take(|_, d| d == small), Some(true));
    }

    #[test]
    fn two_threads_one_million_eager_messages_with_seeded_sizes() {
        // The full million under `--release`; a debug build checks a
        // slice of it in the same shape.
        const MSGS: usize = if cfg!(debug_assertions) {
            20_000
        } else {
            1_000_000
        };
        fn sizes() -> impl Iterator<Item = usize> {
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            std::iter::repeat_with(move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                257 + (x % ((16 << 10) - 256)) as usize
            })
        }
        let table = table();
        let (tx, mut rx) = lane(64, 16 * (16 << 10));
        std::thread::scope(|s| {
            let table = &table;
            s.spawn(move || {
                for (i, len) in sizes().take(MSGS).enumerate() {
                    let mut bo = crate::Backoff::new();
                    while !tx.try_push(eager_hdr(i as i32, len), body(table, i, len)) {
                        bo.snooze();
                    }
                }
            });
            for (i, len) in sizes().take(MSGS).enumerate() {
                let mut bo = crate::Backoff::new();
                loop {
                    let ok = rx.take(|h, d| {
                        assert_eq!((h.tag, h.len), (i as i32, len));
                        assert!(d == body(table, i, len), "message {i}: bytes differ");
                    });
                    if ok.is_some() {
                        break;
                    }
                    bo.snooze();
                }
            }
        });
        assert!(rx.take(|_, _| ()).is_none());
        assert_eq!(rx.eager_bytes_in_flight(), 0);
    }
}
