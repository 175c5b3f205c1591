//! Real-memory implementations of the paper's three copy strategies.
//!
//! * [`direct_copy`] — single copy, the userspace analogue of what KNEM
//!   achieves through the kernel (threads share an address space, so no
//!   kernel is needed here).
//! * [`DoubleBufferPipe`] — the default Nemesis LMT: sender copies
//!   chunks into a small ring of shared buffers while the receiver
//!   copies them out, the two copies pipelining against each other (§2).
//! * [`OffloadEngine`] — the I/OAT model: copies are submitted to a
//!   dedicated engine thread that processes descriptors strictly in
//!   order; completion notification is a trailing status-write
//!   descriptor, exactly the trick of Figure 2.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::queue::{nem_queue, Sender as QSender};

/// Single-copy transfer (the KNEM analogue).
pub fn direct_copy(src: &[u8], dst: &mut [u8]) {
    dst.copy_from_slice(src);
}

/// Copy with an explicit SIMD store loop whose only variable is the
/// store flavour: `nt = false` issues regular (temporal, write-allocate)
/// stores, `nt = true` issues non-temporal streaming stores that bypass
/// the cache hierarchy and combine into full-line writes. Streaming
/// stores skip the read-for-ownership of every destination line — two
/// bytes of memory traffic per copied byte instead of three — which is
/// a win exactly when the destination won't be read back from cache
/// (transfers larger than the LLC); below that, evicting the hot
/// destination is a loss. The threshold is the tuner's to learn
/// ([`crate::tuner::RtPairTune::nt_decision`]), never hardcoded here.
///
/// On non-x86_64 hosts both flavours fall back to `copy_from_slice`.
pub fn simd_copy(src: &[u8], dst: &mut [u8], nt: bool) {
    assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is baseline on x86_64; lengths are equal and the
        // slices are disjoint by &/&mut construction.
        unsafe { sse2_copy(src.as_ptr(), dst.as_mut_ptr(), src.len(), nt) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = nt;
        dst.copy_from_slice(src);
    }
}

/// Streaming-store copy (`simd_copy` with `nt = true`): the engine for
/// over-LLC destinations.
pub fn nt_copy(src: &[u8], dst: &mut [u8]) {
    simd_copy(src, dst, true);
}

#[cfg(target_arch = "x86_64")]
unsafe fn sse2_copy(src: *const u8, dst: *mut u8, len: usize, nt: bool) {
    use std::arch::x86_64::*;
    let mut off = 0usize;
    // Head: byte copy up to the destination's 16-byte boundary
    // (streaming stores require aligned addresses).
    let mis = (dst as usize).wrapping_neg() & 15;
    if mis > 0 {
        let head = mis.min(len);
        std::ptr::copy_nonoverlapping(src, dst, head);
        off = head;
    }
    // Body: one cache line per iteration, unaligned loads (the source's
    // alignment is whatever the ring slot gave us), aligned stores.
    while off + 64 <= len {
        let a = _mm_loadu_si128(src.add(off) as *const __m128i);
        let b = _mm_loadu_si128(src.add(off + 16) as *const __m128i);
        let c = _mm_loadu_si128(src.add(off + 32) as *const __m128i);
        let d = _mm_loadu_si128(src.add(off + 48) as *const __m128i);
        if nt {
            _mm_stream_si128(dst.add(off) as *mut __m128i, a);
            _mm_stream_si128(dst.add(off + 16) as *mut __m128i, b);
            _mm_stream_si128(dst.add(off + 32) as *mut __m128i, c);
            _mm_stream_si128(dst.add(off + 48) as *mut __m128i, d);
        } else {
            _mm_store_si128(dst.add(off) as *mut __m128i, a);
            _mm_store_si128(dst.add(off + 16) as *mut __m128i, b);
            _mm_store_si128(dst.add(off + 32) as *mut __m128i, c);
            _mm_store_si128(dst.add(off + 48) as *mut __m128i, d);
        }
        off += 64;
    }
    // Tail.
    if off < len {
        std::ptr::copy_nonoverlapping(src.add(off), dst.add(off), len - off);
    }
    if nt {
        // Streaming stores are weakly ordered: fence before the caller
        // publishes the buffer (the ring's flag store must not pass the
        // payload).
        _mm_sfence();
    }
}

/// Marker trait for things that can run a transfer; used by benches.
pub trait CopyEngine {
    fn name(&self) -> &'static str;
}

/// Where the adaptive chunk schedule starts (one page): small first
/// chunks fill the pipeline fast — the receiver starts its overlapping
/// copy almost immediately — then the size doubles toward the slot
/// capacity so the steady state pays per-chunk flag traffic on big
/// chunks only.
pub const ADAPTIVE_CHUNK_START: usize = 4 << 10;

/// How the sender of a [`DoubleBufferPipe`] sizes its chunks — the rt
/// mirror of `nemesis_core::lmt::ChunkSchedule`. The learned variant
/// reads (and feeds) the pair's [`RtPairTune`]: one atomic load per
/// chunk decision, one timed recording per absorbed chunk, no
/// allocation.
#[derive(Clone, Default)]
pub enum PipeSchedule {
    /// Geometric doubling from the start chunk to the slot capacity
    /// (the adaptive default).
    #[default]
    Geometric,
    /// Constant chunks of the start size (with `start_chunk == chunk`
    /// this is the seed's fixed full-slot chunking).
    Fixed,
    /// Geometric growth toward the pair's learned sweet spot; chunk
    /// timings are recorded back into the same state.
    Learned(Arc<crate::tuner::RtPairTune>),
}

impl PipeSchedule {
    /// Growth ceiling given the slot capacity.
    fn cap(&self, slot_cap: usize) -> usize {
        match self {
            PipeSchedule::Geometric | PipeSchedule::Fixed => slot_cap,
            PipeSchedule::Learned(tune) => match tune.target() {
                0 => slot_cap,
                t => t.clamp(1, slot_cap),
            },
        }
    }

    /// Next chunk size after a fully-absorbed `current` chunk.
    fn next(&self, current: usize, slot_cap: usize) -> usize {
        match self {
            PipeSchedule::Fixed => current,
            _ => (current * 2).min(self.cap(slot_cap)),
        }
    }
}

/// The double-buffered copy ring. One sender thread and one receiver
/// thread may run [`DoubleBufferPipe::send`] / [`DoubleBufferPipe::recv`]
/// concurrently for the *same* transfer; the two copies overlap chunk by
/// chunk, "one thereby partially hiding the cost of the other" (§2).
///
/// Chunking is **adaptive**: the sender's first chunk is
/// `start_chunk` bytes (default [`ADAPTIVE_CHUNK_START`]) and grows on
/// every full chunk as its [`PipeSchedule`] dictates — doubling to the
/// slot capacity by default, or toward a learned per-pair sweet spot.
/// The receiver learns each chunk's size from the slot flag, so the two
/// sides need no chunk-size agreement.
///
/// Slot `i` is bytes `[i * chunk, (i + 1) * chunk)` of one slab, and its
/// flag alone says which side may touch them: no lock. Each side claims
/// its end for the length of a transfer, so a second concurrent sender
/// (or receiver) panics instead of racing the first.
pub struct DoubleBufferPipe {
    /// One per slot: 0 = the sender's to fill, otherwise the length of
    /// the chunk the receiver is to drain.
    lens: Box<[Flag]>,
    /// Unset until the receiver's first-touch init (see
    /// [`DoubleBufferPipe::ensure_local`]); untouched pairs cost no
    /// memory. The sender backoff-waits for it: under first-touch NUMA
    /// policy the ring's pages then live on the receiver's node, so the
    /// drain copy — the transfer's critical path — never crosses
    /// sockets for its reads.
    slab: OnceLock<Slab>,
    chunk: usize,
    start_chunk: usize,
    schedule: PipeSchedule,
    /// Transfers started (the learned schedule runs every 16th transfer
    /// unclamped as a probe, so chunk classes above the current sweet
    /// spot keep being sampled).
    sends: AtomicUsize,
    /// Whether a `send` / a `recv` is running (see [`Claim`]).
    sending: AtomicBool,
    receiving: AtomicBool,
}

/// A slot flag on a cache line of its own: each one is written by both
/// sides once per chunk.
#[repr(align(64))]
struct Flag(AtomicUsize);

/// The ring's slot storage.
struct Slab(Box<[UnsafeCell<u8>]>);

// SAFETY: slot `i`'s bytes are written only by the sender while flag `i`
// reads 0 and read only by the receiver while it does not; each side
// hands a slot over with a Release store of the flag that the other
// side's Acquire load sees before it touches the bytes. `Claim` keeps
// each side to one thread at a time.
unsafe impl Sync for Slab {}

impl Slab {
    fn slot(&self, i: usize, chunk: usize) -> *mut u8 {
        UnsafeCell::raw_get(self.0[i * chunk..].as_ptr())
    }
}

/// One side's hold on its end of the pipe for one transfer: taken with
/// one Acquire swap, given back on drop with a Release store, so each
/// transfer's slot accesses happen before the next one's on that side,
/// whichever thread runs it.
struct Claim<'a>(&'a AtomicBool);

fn claim<'a>(side: &'a AtomicBool, what: &str) -> Claim<'a> {
    assert!(!side.swap(true, Ordering::Acquire), "two {what}s at once");
    Claim(side)
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl DoubleBufferPipe {
    /// `nbufs = 2` gives the paper's double buffering (the production
    /// geometry is [`crate::lmt::RING_SLOTS`] ×
    /// [`crate::lmt::RING_SLOT_BYTES`]); `chunk` is the slot capacity
    /// (the adaptive schedule's ceiling).
    pub fn new(chunk: usize, nbufs: usize) -> Self {
        Self::with_start_chunk(chunk, nbufs, ADAPTIVE_CHUNK_START)
    }

    /// Explicit first-chunk size; `start_chunk = chunk` restores the
    /// seed's fixed-size chunking (used by benches as the baseline).
    pub fn with_start_chunk(chunk: usize, nbufs: usize, start_chunk: usize) -> Self {
        Self::with_schedule(chunk, nbufs, start_chunk, PipeSchedule::Geometric)
    }

    /// Fully explicit constructor: slot capacity, buffer count, first
    /// chunk, and the growth schedule.
    pub fn with_schedule(
        chunk: usize,
        nbufs: usize,
        start_chunk: usize,
        schedule: PipeSchedule,
    ) -> Self {
        assert!(chunk > 0 && nbufs > 0 && start_chunk > 0);
        Self {
            lens: (0..nbufs).map(|_| Flag(AtomicUsize::new(0))).collect(),
            slab: OnceLock::new(),
            chunk,
            start_chunk: start_chunk.min(chunk),
            schedule,
            sends: AtomicUsize::new(0),
            sending: AtomicBool::new(false),
            receiving: AtomicBool::new(false),
        }
    }

    /// Bytes of slot storage the ring holds: none until a receiver's
    /// first drain, `nbufs × chunk` from then on.
    pub fn resident_bytes(&self) -> usize {
        self.slab.get().map_or(0, |s| s.0.len())
    }

    /// Allocate and first-touch the slot buffers from the calling
    /// thread. `recv` runs this on its first drain so the pages land on
    /// the receiver's NUMA node; the zeroing write below is what forces
    /// the page faults (a fresh zeroed allocation maps the kernel's
    /// shared zero page and would be placed by whoever writes first —
    /// i.e. the sender — without it).
    fn ensure_local(&self) -> &Slab {
        self.slab.get_or_init(|| {
            let mut b = vec![0u8; self.lens.len() * self.chunk].into_boxed_slice();
            for i in (0..b.len()).step_by(4096) {
                // Volatile defeats the "writing zero to zeroed memory"
                // elision; one store per page is enough to fault it in.
                // SAFETY: `i < b.len()`.
                unsafe { b.as_mut_ptr().add(i).write_volatile(0) };
            }
            // SAFETY: `UnsafeCell<u8>` has `u8`'s layout.
            Slab(unsafe { Box::from_raw(Box::into_raw(b) as *mut [UnsafeCell<u8>]) })
        })
    }

    /// Copy `src` into the ring (first of the two copies), growing the
    /// chunk size per the schedule — geometrically from `start_chunk`
    /// to the slot capacity by default. Blocks (spin-then-yield) when
    /// the ring is full.
    ///
    /// Under the learned schedule, transfers with a published sweet
    /// spot run at it from the first byte (the model already priced
    /// the ramp in), while unlearned pairs and every 16th transfer (a
    /// *probe*) ramp from the start chunk to the slot capacity. Only
    /// those sampling transfers are timed: the steady-state inter-chunk
    /// interval (wait + copy + publish — the pipeline's true per-chunk
    /// cost) feeds the pair's chunk model, with the first `nbufs`
    /// chunks (pipeline fill) skipped. At the production depth of eight
    /// that skip (`i <= n`) covers the whole 4→32 KiB ramp of a 256 KiB
    /// probe — four ramp chunks, then four at the ceiling — so the
    /// learned chunk model samples, and publishes, only the ceiling
    /// class (a two-slot ring times the 16 KiB step as well). The
    /// non-probe hot path pays one counter increment and one atomic
    /// load over the fixed schedule — no clocks, no allocation.
    pub fn send(&self, src: &[u8]) {
        let _claim = claim(&self.sending, "sender");
        let n = self.lens.len();
        let mut bo = crate::backoff::Backoff::new();
        // The receiver owns the ring's first touch (NUMA placement);
        // wait for it before writing any slot. The rendezvous protocol
        // guarantees a receiver is (or will be) draining this transfer,
        // so this is the same wait as a full ring.
        while self.slab.get().is_none() {
            bo.snooze();
        }
        let slab = self.slab.get().expect("the receiver set the slab up");
        bo.reset();
        let tune = match &self.schedule {
            PipeSchedule::Learned(t) => Some(t),
            _ => None,
        };
        let published = tune.map(|t| t.target()).unwrap_or(0);
        let sampling = tune.is_some()
            && (published == 0 || self.sends.fetch_add(1, Ordering::Relaxed) % 16 == 15);
        let cap = if sampling {
            self.chunk
        } else {
            self.schedule.cap(self.chunk)
        };
        let mut cur = if published >= self.chunk {
            // Converged at the slot capacity: nothing below it can win a
            // probe that the model hasn't already rejected, so probes
            // only re-time the ceiling class — no ramp, no cost.
            self.chunk
        } else if sampling || published == 0 {
            self.start_chunk.min(cap)
        } else {
            cap
        };
        let mut at = 0usize;
        let mut i = 0usize;
        // Sampling transfers time *runs* of equal-sized chunks (one
        // clock pair per size, not per chunk — clock reads are not free
        // on every host) and record the per-chunk average; the first
        // `nbufs` chunks (pipeline fill) start the first run but are
        // not themselves counted.
        let mut run_start: Option<std::time::Instant> = None;
        let mut run_chunks = 0u32;
        let flush_run =
            |len: usize, run_start: &mut Option<std::time::Instant>, run_chunks: &mut u32| {
                if let (Some(t0), Some(tune), true) = (*run_start, tune, *run_chunks > 0) {
                    let nanos = t0.elapsed().as_nanos() as u64 / *run_chunks as u64;
                    tune.record_chunk(len, nanos);
                }
                *run_start = Some(std::time::Instant::now());
                *run_chunks = 0;
            };
        while at < src.len() {
            let len = cur.min(src.len() - at);
            let flag = &self.lens[i % n].0;
            while flag.load(Ordering::Acquire) != 0 {
                bo.snooze();
            }
            bo.reset();
            // SAFETY: the flag read 0 with Acquire: the receiver is done
            // with this slot until the Release store below, and
            // `len <= cur <= chunk` keeps the copy inside it.
            unsafe {
                let dst = slab.slot(i % n, self.chunk);
                std::ptr::copy_nonoverlapping(src[at..].as_ptr(), dst, len);
            }
            flag.store(len, Ordering::Release);
            at += len;
            i += 1;
            if len == cur {
                if sampling {
                    if i <= n {
                        // Pipeline fill: restart the run clock so the
                        // cold chunks never enter the model.
                        run_start = Some(std::time::Instant::now());
                        run_chunks = 0;
                    } else {
                        run_chunks += 1;
                    }
                }
                let next = if sampling {
                    // Probes ramp through every class up to the slot
                    // capacity, regardless of the published target.
                    (cur * 2).min(cap)
                } else {
                    self.schedule.next(cur, self.chunk)
                };
                if sampling && next != cur {
                    flush_run(cur, &mut run_start, &mut run_chunks);
                }
                cur = next;
            }
        }
        if sampling {
            flush_run(cur, &mut run_start, &mut run_chunks);
        }
    }

    /// Copy out of the ring into `dst` (second copy), draining whatever
    /// chunk size the sender published. Blocks (spin-then-yield) until
    /// every byte has arrived.
    ///
    /// The first call allocates and first-touches the ring from this
    /// thread (NUMA placement — see [`DoubleBufferPipe::ensure_local`]).
    /// The drain's ring→user stores are the transfer's only
    /// final-destination writes, so the store flavour is decided here,
    /// once per transfer: streaming (non-temporal) stores for
    /// destinations past the pair's learned threshold (LLC-size prior
    /// until learned), regular stores below it. Learned pipes time the
    /// pure copy work and feed the pair's NT crossover model.
    pub fn recv(&self, dst: &mut [u8]) {
        let _claim = claim(&self.receiving, "receiver");
        let slab = self.ensure_local();
        let tune = match &self.schedule {
            PipeSchedule::Learned(t) => Some(t),
            _ => None,
        };
        let llc = crate::tuner::host_llc_size();
        let nt = match tune {
            Some(t) => t.nt_decision(dst.len(), llc),
            None => dst.len() >= llc,
        };
        let n = self.lens.len();
        let mut bo = crate::backoff::Backoff::new();
        let mut at = 0usize;
        let mut i = 0usize;
        let mut copy_nanos = 0u64;
        while at < dst.len() {
            let flag = &self.lens[i % n].0;
            let len = loop {
                let len = flag.load(Ordering::Acquire);
                if len != 0 {
                    break len;
                }
                bo.snooze();
            };
            bo.reset();
            assert!(len <= dst.len() - at, "chunk overruns the transfer");
            // SAFETY: the flag read `len` with Acquire: the sender's
            // `len <= chunk` bytes into this slot happened before, and it
            // writes the slot again only after the Release store below.
            let chunk = unsafe { std::slice::from_raw_parts(slab.slot(i % n, self.chunk), len) };
            if tune.is_some() {
                // Time only the copy (the wait above is the sender's
                // cost) — the crossover model's sample.
                let t0 = std::time::Instant::now();
                copy_chunk(chunk, &mut dst[at..at + len], nt);
                copy_nanos += t0.elapsed().as_nanos() as u64;
            } else {
                copy_chunk(chunk, &mut dst[at..at + len], nt);
            }
            flag.store(0, Ordering::Release);
            at += len;
            i += 1;
        }
        if let Some(tune) = tune {
            tune.record_copy_mode(nt, dst.len(), copy_nanos);
        }
    }
}

/// One ring-drain chunk copy in the decided store flavour: regular
/// stores ride `memcpy` (the general-purpose best below the LLC),
/// streaming stores the explicit [`nt_copy`] loop.
fn copy_chunk(src: &[u8], dst: &mut [u8], nt: bool) {
    if nt {
        nt_copy(src, dst);
    } else {
        dst.copy_from_slice(src);
    }
}

impl CopyEngine for DoubleBufferPipe {
    fn name(&self) -> &'static str {
        "double-buffer"
    }
}

/// Raw copy descriptor shipped to the engine thread.
enum Desc {
    Copy {
        src: *const u8,
        dst: *mut u8,
        len: usize,
    },
    /// The Figure-2 completion trick: an in-order one-word store.
    Status(Arc<AtomicUsize>),
    /// Fault injection: makes the engine thread panic, exercising the
    /// poison containment (see [`OffloadEngine::inject_failure`]).
    Poison,
    Shutdown,
}

// SAFETY: descriptors only travel to the engine thread; the pointers'
// validity is guaranteed by the `Pending` borrow (see `submit`).
unsafe impl Send for Desc {}

/// Sets the shared poison word if the engine thread unwinds for any
/// reason, so waiters stop spinning instead of hanging on a status
/// write that will never come.
struct PoisonOnPanic(Arc<AtomicUsize>);

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(1, Ordering::Release);
        }
    }
}

/// A dedicated copy engine thread processing descriptors strictly in
/// order — the I/OAT DMA engine analogue.
///
/// **Failure containment.** If the engine thread panics, the panic is
/// not allowed to strand waiters or poison the whole process: a drop
/// guard in the thread flips a shared poison word, every [`Pending`]
/// observes it and unblocks, and [`Pending::wait`] reports the failure
/// as `false` so callers can fall back to a CPU copy of the affected
/// span.
pub struct OffloadEngine {
    tx: QSender<Desc>,
    handle: Option<std::thread::JoinHandle<u64>>,
    poisoned: Arc<AtomicUsize>,
}

/// Completion handle for a submitted copy. Holds the buffers' borrows so
/// they cannot be touched (or freed) before completion.
pub struct Pending<'a> {
    flag: Arc<AtomicUsize>,
    poisoned: Arc<AtomicUsize>,
    _borrows: PhantomData<&'a mut [u8]>,
}

impl Pending<'_> {
    /// Has the engine finished with this copy (status written), or died
    /// trying (engine poisoned)? Either way the buffers are safe to
    /// reuse: a poisoned engine processes no further descriptors.
    pub fn poll(&self) -> bool {
        self.flag.load(Ordering::Acquire) != 0 || self.poisoned.load(Ordering::Acquire) != 0
    }

    /// Wait (spin-then-yield) until complete. Returns `true` if the
    /// engine wrote the trailing status (the copy finished), `false` if
    /// it died first — the caller owns the fallback (e.g.
    /// [`direct_copy`] the span on the CPU).
    pub fn wait(self) -> bool {
        let mut bo = crate::backoff::Backoff::new();
        while !self.poll() {
            bo.snooze();
        }
        self.flag.load(Ordering::Acquire) != 0
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        // Never release the borrows before the engine is done with the
        // pointers (or provably dead — a poisoned engine touches no
        // further descriptors).
        let mut bo = crate::backoff::Backoff::new();
        while self.flag.load(Ordering::Acquire) == 0 && self.poisoned.load(Ordering::Acquire) == 0 {
            bo.snooze();
        }
    }
}

impl OffloadEngine {
    pub fn start() -> Self {
        let (tx, mut rx) = nem_queue::<Desc>();
        let poisoned = Arc::new(AtomicUsize::new(0));
        let poison = Arc::clone(&poisoned);
        let handle = std::thread::spawn(move || {
            let _guard = PoisonOnPanic(poison);
            let mut bytes = 0u64;
            let mut bo = crate::backoff::Backoff::new();
            loop {
                match rx.dequeue() {
                    Some(Desc::Copy { src, dst, len }) => {
                        // SAFETY: the submitting side keeps both regions
                        // borrowed (Pending) until the trailing status
                        // write completes, and regions are disjoint by
                        // &/&mut construction.
                        unsafe { std::ptr::copy_nonoverlapping(src, dst, len) };
                        bytes += len as u64;
                        bo.reset();
                    }
                    Some(Desc::Status(flag)) => {
                        flag.store(1, Ordering::Release);
                        bo.reset();
                    }
                    Some(Desc::Poison) => panic!("injected engine failure"),
                    Some(Desc::Shutdown) => return bytes,
                    None => bo.snooze(),
                }
            }
        });
        Self {
            tx,
            handle: Some(handle),
            poisoned,
        }
    }

    /// Whether the engine thread has died (panicked). Submissions after
    /// this complete immediately with `wait() == false`.
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
    }

    /// Fault injection: enqueue a descriptor that makes the engine
    /// thread panic in-order (after every previously submitted copy),
    /// exercising the poison containment end to end.
    pub fn inject_failure(&self) {
        self.tx.enqueue(Desc::Poison);
    }

    /// Submit a copy; returns a completion handle tied to the buffers'
    /// lifetimes. The payload is split into descriptors at huge-page
    /// granularity (2 MiB — the windows pinned user memory now comes
    /// in; descriptors used to be cut per 4 KiB page, and the
    /// per-descriptor queue traffic was a measurable tax on striped
    /// rails) followed by the status descriptor.
    pub fn submit<'a>(&self, src: &'a [u8], dst: &'a mut [u8]) -> Pending<'a> {
        assert_eq!(src.len(), dst.len());
        const HUGE_PAGE: usize = 2 << 20;
        let flag = Arc::new(AtomicUsize::new(0));
        let mut off = 0;
        while off < src.len() {
            let len = (src.len() - off).min(HUGE_PAGE);
            self.tx.enqueue(Desc::Copy {
                src: src[off..].as_ptr(),
                dst: dst[off..].as_mut_ptr(),
                len,
            });
            off += len;
        }
        self.tx.enqueue(Desc::Status(Arc::clone(&flag)));
        Pending {
            flag,
            poisoned: Arc::clone(&self.poisoned),
            _borrows: PhantomData,
        }
    }

    /// Stop the engine; returns total bytes it copied (0 if the thread
    /// had already died of an injected or real panic — the panic was
    /// contained when the poison word was set, not re-thrown here).
    pub fn shutdown(mut self) -> u64 {
        self.tx.enqueue(Desc::Shutdown);
        self.handle.take().unwrap().join().unwrap_or(0)
    }
}

impl Drop for OffloadEngine {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            self.tx.enqueue(Desc::Shutdown);
            let _ = h.join();
        }
    }
}

impl CopyEngine for OffloadEngine {
    fn name(&self) -> &'static str {
        "offload-engine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lmt::{RING_SLOTS, RING_SLOT_BYTES};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// One transfer of `src` through `pipe`, sender on a thread of its
    /// own; returns what the receiver landed.
    fn roundtrip(pipe: &DoubleBufferPipe, src: &[u8]) -> Vec<u8> {
        let mut dst = vec![0u8; src.len()];
        std::thread::scope(|s| {
            s.spawn(|| pipe.send(src));
            pipe.recv(&mut dst);
        });
        dst
    }

    #[test]
    fn direct_copy_works() {
        let src = pattern(10_000);
        let mut dst = vec![0u8; 10_000];
        direct_copy(&src, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn simd_copy_is_byte_identical_for_both_store_flavours() {
        // Odd lengths and deliberately misaligned windows: head, 64-byte
        // body, and tail paths all exercised, in both flavours.
        for len in [0usize, 1, 15, 16, 63, 64, 65, 4097, 70_001] {
            for off in [0usize, 1, 7, 13] {
                let backing_src = pattern(len + off + 16);
                let mut backing_dst = vec![0u8; len + off + 16];
                for nt in [false, true] {
                    backing_dst.fill(0xAA);
                    let src = &backing_src[off..off + len];
                    let dst = &mut backing_dst[off..off + len];
                    simd_copy(src, dst, nt);
                    assert_eq!(src, dst, "len={len} off={off} nt={nt}");
                }
                assert_eq!(backing_dst[len + off], 0xAA, "overrun past the window");
            }
        }
    }

    #[test]
    fn ring_slots_are_lazy_until_the_receiver_first_touches() {
        let pipe = DoubleBufferPipe::new(RING_SLOT_BYTES, RING_SLOTS);
        // Construction allocates nothing: slot buffers stay empty until
        // a receiver runs (first-touch NUMA placement is the receiver's
        // job, and untouched pairs must cost no memory).
        assert!(pipe.slab.get().is_none());
        assert_eq!(pipe.resident_bytes(), 0, "slot allocated before recv");
        let src = pattern(100_000);
        let mut dst = vec![0u8; 100_000];
        std::thread::scope(|s| {
            // The sender starts first and must simply wait for the
            // receiver's first-touch, not deadlock or write early.
            s.spawn(|| pipe.send(&src));
            std::thread::sleep(std::time::Duration::from_millis(5));
            pipe.recv(&mut dst);
        });
        assert_eq!(src, dst);
        assert_eq!(
            pipe.resident_bytes(),
            RING_SLOTS * RING_SLOT_BYTES,
            "slots sized"
        );
    }

    #[test]
    fn sender_fills_every_slot_and_blocks_until_a_late_receiver_drains() {
        let pipe = DoubleBufferPipe::new(RING_SLOT_BYTES, RING_SLOTS);
        let src = pattern(1 << 20);
        let mut dst = vec![0u8; src.len()];
        std::thread::scope(|s| {
            s.spawn(|| pipe.send(&src));
            // First touch only (the sender waits for it), then no drain
            // until all eight slots are published: the sender is now
            // parked on slot 0 with 832 KiB still to go.
            pipe.ensure_local();
            while pipe.lens.iter().any(|f| f.0.load(Ordering::Acquire) == 0) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            let parked: usize = pipe.lens.iter().map(|f| f.0.load(Ordering::Acquire)).sum();
            assert_eq!(parked, (4 + 8 + 16 + 5 * 32) << 10, "ran ahead by one ring");
            pipe.recv(&mut dst);
        });
        assert_eq!(src, dst);
    }

    #[test]
    fn receiver_outrunning_a_slow_sender_waits_on_an_empty_ring() {
        // Full-slot chunks, so a send of exactly one ring of bytes ends
        // with the sender's slot cursor back at slot 0: four such sends
        // with a pause between them are one slow 1 MiB sender to a
        // single `recv`, which finds the ring empty at every pause.
        let ring = RING_SLOTS * RING_SLOT_BYTES;
        let pipe = DoubleBufferPipe::with_start_chunk(RING_SLOT_BYTES, RING_SLOTS, RING_SLOT_BYTES);
        let src = pattern(4 * ring);
        let mut dst = vec![0u8; src.len()];
        std::thread::scope(|s| {
            s.spawn(|| {
                for piece in src.chunks(ring) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    pipe.send(piece);
                }
            });
            pipe.recv(&mut dst);
        });
        assert_eq!(src, dst);
    }

    #[test]
    fn sizes_around_one_ring_back_to_back_on_one_pipe() {
        let ring = RING_SLOTS * RING_SLOT_BYTES;
        let pipe = DoubleBufferPipe::new(RING_SLOT_BYTES, RING_SLOTS);
        for size in [1, ring - 1, ring, ring + 1, 3 << 20, 1] {
            let src = pattern(size);
            assert_eq!(roundtrip(&pipe, &src), src, "size {size}");
        }
        assert_eq!(pipe.resident_bytes(), ring);
    }

    #[test]
    fn forced_nt_drain_stays_byte_identical_and_feeds_the_model() {
        // Pre-learn a tiny NT threshold so a 1 MiB transfer drains with
        // streaming stores even on hosts with a huge LLC; parity must
        // hold and the drain must feed the crossover model.
        let tune = Arc::new(crate::tuner::RtTuner::new(2).pair(0, 1));
        for _ in 0..4 {
            // NT decisively faster at the smallest class → threshold
            // publishes at 64 KiB.
            tune.record_copy_mode(false, 64 << 10, 20_000);
            tune.record_copy_mode(true, 64 << 10, 10_000);
        }
        assert_eq!(tune.nt_min(), 64 << 10);
        let pipe = DoubleBufferPipe::with_schedule(
            32 << 10,
            2,
            ADAPTIVE_CHUNK_START,
            PipeSchedule::Learned(Arc::clone(&tune)),
        );
        let src = pattern(1 << 20);
        assert_eq!(
            roundtrip(&pipe, &src),
            src,
            "NT drain corrupted the payload"
        );
    }

    #[test]
    fn double_buffer_pipelined_transfer() {
        let pipe = DoubleBufferPipe::new(32 << 10, 2);
        let src = pattern(1 << 20);
        assert_eq!(roundtrip(&pipe, &src), src);
    }

    #[test]
    fn double_buffer_odd_sizes() {
        for size in [1usize, 100, 32 << 10, (32 << 10) + 1, 123_457] {
            let pipe = DoubleBufferPipe::new(32 << 10, 2);
            let src = pattern(size);
            assert_eq!(roundtrip(&pipe, &src), src, "size {size}");
        }
    }

    #[test]
    fn adaptive_and_fixed_chunking_deliver_identical_bytes() {
        let src = pattern(777_777);
        for pipe in [
            DoubleBufferPipe::new(32 << 10, 2),
            DoubleBufferPipe::with_start_chunk(32 << 10, 2, 32 << 10), // seed's fixed chunks
            DoubleBufferPipe::with_start_chunk(32 << 10, 2, 1),        // degenerate start
        ] {
            assert_eq!(roundtrip(&pipe, &src), src);
        }
    }

    #[test]
    fn a_second_concurrent_sender_or_receiver_panics_instead_of_racing() {
        let pipe = DoubleBufferPipe::new(4 << 10, 2);
        // With the slab set up, and a byte published for the receiver, a
        // second side let in would finish instead of waiting forever.
        pipe.ensure_local();
        for (side, what) in [(&pipe.sending, "sender"), (&pipe.receiving, "receiver")] {
            if what == "receiver" {
                pipe.send(&[2]);
            }
            let first = claim(side, what);
            let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if what == "sender" {
                    pipe.send(&[1]);
                } else {
                    pipe.recv(&mut [0]);
                }
            }));
            assert!(second.is_err(), "a second {what} was let in");
            drop(first);
        }
        let mut got = [0];
        pipe.recv(&mut got);
        assert_eq!(got, [2], "the refused sides moved nothing");
        // Both claims were given back: a whole transfer still runs.
        assert_eq!(roundtrip(&pipe, &[9; 10_000]), [9; 10_000]);
    }

    #[test]
    fn double_buffer_back_to_back_transfers() {
        let pipe = DoubleBufferPipe::new(4 << 10, 2);
        for round in 0..5u8 {
            let src = vec![round; 40_000];
            assert_eq!(roundtrip(&pipe, &src), src, "round {round}");
        }
    }

    #[test]
    fn offload_engine_copies_and_completes_in_order() {
        let eng = OffloadEngine::start();
        let src = pattern(256 << 10);
        let mut dst = vec![0u8; 256 << 10];
        let pending = eng.submit(&src, &mut dst);
        pending.wait();
        assert_eq!(src, dst);
        // Status wrote only after the payload: verified by the data
        // being complete at wait() return. Shutdown reports the bytes.
        assert_eq!(eng.shutdown(), 256 << 10);
    }

    #[test]
    fn offload_engine_overlaps_with_compute() {
        let eng = OffloadEngine::start();
        let src = pattern(1 << 20);
        let mut dst = vec![0u8; 1 << 20];
        let pending = eng.submit(&src, &mut dst);
        // "Compute" while the engine copies.
        let mut acc = 0u64;
        for i in 0..100_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        assert_ne!(acc, 0);
        pending.wait();
        assert_eq!(src, dst);
    }

    #[test]
    fn offload_multiple_submissions_in_order() {
        let eng = OffloadEngine::start();
        let src1 = vec![1u8; 10_000];
        let src2 = vec![2u8; 10_000];
        let mut d1 = vec![0u8; 10_000];
        let mut d2 = vec![0u8; 10_000];
        let p1 = eng.submit(&src1, &mut d1);
        let p2 = eng.submit(&src2, &mut d2);
        // In-order channel: p2 complete implies p1 complete.
        p2.wait();
        assert!(p1.poll());
        p1.wait();
        assert_eq!(d1, src1);
        assert_eq!(d2, src2);
    }

    #[test]
    fn engine_panic_is_contained_and_waiters_unblock() {
        let eng = OffloadEngine::start();
        let src = pattern(64 << 10);
        let mut dst = vec![0u8; 64 << 10];
        // A copy submitted before the failure completes normally (the
        // poison descriptor is processed in order, after it).
        assert!(eng.submit(&src, &mut dst).wait());
        assert_eq!(src, dst);
        eng.inject_failure();
        // A copy submitted behind the poison never runs: its wait must
        // still return (no strand), reporting the failure.
        let mut dead = vec![0u8; 64 << 10];
        let pending = eng.submit(&src, &mut dead);
        assert!(!pending.wait(), "post-poison copy must report failure");
        assert!(eng.poisoned());
        assert!(dead.iter().all(|&b| b == 0), "dead copy wrote nothing");
        // Shutdown does not re-throw the contained panic.
        assert_eq!(eng.shutdown(), 0);
    }

    #[test]
    fn pending_drop_blocks_until_done() {
        let eng = OffloadEngine::start();
        let src = pattern(512 << 10);
        let mut dst = vec![0u8; 512 << 10];
        {
            let _pending = eng.submit(&src, &mut dst);
            // Dropped without wait(): Drop must block until complete so
            // the borrows never dangle.
        }
        assert_eq!(src, dst);
    }
}
