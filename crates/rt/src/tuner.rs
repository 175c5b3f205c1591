//! The real-thread transfer tuner.
//!
//! The simulated tuner (`nemesis_core::lmt::tuner`) learns from
//! virtual-time samples; this one learns from wall-clock timings on the
//! host machine, per directed rank pair: every rendezvous completion records an
//! [`RtTransferSample`], and the double-buffer ring (when driven by the
//! `Learned` schedule) records each fully-absorbed chunk's timing. The
//! published decisions are plain atomics — a pipe reads its learned
//! chunk target with one `load` per chunk, no lock, no allocation (the
//! same hot-path contract `tests/queue_alloc.rs` enforces on the queue
//! paths).
//!
//! The clock-free models — the EWMA cell, the backend and collective
//! bandits, the chunk model — are `nemesis-model`'s, the same code the
//! simulated tuner runs, fed nanoseconds here. What lives in this file
//! is host-side: the verdict-based NT crossover and its per-socket
//! prior, the LLC probe, and the atomics and locks that publish the
//! decisions to rank threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use nemesis_model::coll::slot_of;
use nemesis_model::sync::{lock, read, write};
use nemesis_model::{explore_flip, log2_class, Bandit, ChunkModel, CollGrid, Ewma};

pub use nemesis_model::{CollKind as RtCollKind, COLL_ARMS as RT_COLL_ARMS};

/// Which chunk schedule the double-buffer ring pipelines with (the
/// host-side counterpart of `nemesis_core::ChunkScheduleSelect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtChunkScheduleSelect {
    /// Geometric growth from the start chunk to the slot capacity.
    #[default]
    Adaptive,
    /// Constant full-slot chunks (the seed's fixed chunking).
    Fixed,
    /// Geometric growth toward the per-pair sweet spot learned from
    /// observed per-chunk times.
    Learned,
}

/// One completed rendezvous transfer, as observed by the receiver.
#[derive(Debug, Clone, Copy)]
pub struct RtTransferSample {
    /// Backend label (`RtLmtBackend::name`).
    pub backend: &'static str,
    /// Whether the copy ran off-CPU (the offload engine).
    pub offload: bool,
    /// Payload length in bytes.
    pub bytes: usize,
    /// Wall-clock receive time in nanoseconds.
    pub nanos: u64,
}

/// The host's last-level cache size in bytes — the prior for the
/// temporal-vs-streaming-store threshold (a destination below it fits
/// in cache, so regular stores keep it hot; past it the write-allocate
/// traffic is pure waste). Read once from sysfs; falls back to 32 MiB
/// when the cache topology isn't exposed (containers, non-Linux).
pub fn host_llc_size() -> usize {
    static LLC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LLC.get_or_init(|| probe_llc_size().unwrap_or(32 << 20))
}

fn probe_llc_size() -> Option<usize> {
    let cache = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, usize)> = None;
    // Entries that aren't cache indices (uevent, power, …) are skipped,
    // not fatal — only a directory with both `level` and `size` counts.
    for entry in std::fs::read_dir(cache).ok()?.flatten() {
        let p = entry.path();
        let level = std::fs::read_to_string(p.join("level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let bytes = std::fs::read_to_string(p.join("size")).ok().and_then(|s| {
            let s = s.trim();
            if let Some(k) = s.strip_suffix('K') {
                k.parse::<usize>().ok().map(|v| v << 10)
            } else if let Some(m) = s.strip_suffix('M') {
                m.parse::<usize>().ok().map(|v| v << 20)
            } else {
                s.parse::<usize>().ok()
            }
        });
        if let (Some(level), Some(bytes)) = (level, bytes) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// NT (streaming-store) crossover classes cover 2^16 (64 KiB) ..
/// 2^(16+NT_NCLASSES-1) = 128 MiB — the band where a destination
/// plausibly stops fitting in cache on any host.
const NT_CLASS_BASE: u32 = 16;
const NT_NCLASSES: usize = 12;
/// Samples each flavour needs in a class before it gets a verdict.
const NT_MIN_SAMPLES: u32 = 3;
/// A flavour must lead by 10% to flip a class's verdict — EWMA wobble
/// inside the band keeps the previous verdict (and the published
/// threshold) sticky.
const NT_HYSTERESIS: f64 = 1.1;
/// Published when temporal wins at every sampled class: one class above
/// the model's range (256 MiB), NOT `usize::MAX` — the explore band
/// around it stays reachable, so huge transfers keep re-probing NT.
const NT_SENTINEL: usize = 1 << (NT_CLASS_BASE + NT_NCLASSES as u32);

/// Temporal-vs-streaming-store crossover learner: per size class, an
/// EWMA bandwidth for each store flavour and a sticky verdict. The
/// published threshold is the lower bound of the smallest class where
/// streaming stores win.
#[derive(Debug, Default)]
struct NtModel {
    temporal: [Ewma; NT_NCLASSES],
    nt: [Ewma; NT_NCLASSES],
    /// +1 = NT wins here, -1 = temporal wins, 0 = undecided.
    verdict: [i8; NT_NCLASSES],
}

impl NtModel {
    /// Fold one timed copy in and return the threshold to publish
    /// (0 = nothing decided anywhere yet).
    fn observe(&mut self, nt: bool, bytes: usize, nanos: u64) -> usize {
        let c = log2_class(bytes as u64, NT_CLASS_BASE, NT_NCLASSES);
        let cell = if nt {
            &mut self.nt[c]
        } else {
            &mut self.temporal[c]
        };
        cell.observe(bytes as f64 / nanos as f64);
        let (t, n) = (self.temporal[c], self.nt[c]);
        if t.n >= NT_MIN_SAMPLES && n.n >= NT_MIN_SAMPLES {
            if n.bw > t.bw * NT_HYSTERESIS {
                self.verdict[c] = 1;
            } else if t.bw > n.bw * NT_HYSTERESIS {
                self.verdict[c] = -1;
            } else if self.verdict[c] == 0 {
                // First decision with no clear margin: lean whichever
                // way the EWMAs point; later samples inside the band
                // will not flip it back and forth.
                self.verdict[c] = if n.bw > t.bw { 1 } else { -1 };
            }
        }
        match (0..NT_NCLASSES).find(|&i| self.verdict[i] > 0) {
            Some(c) => 1usize << (NT_CLASS_BASE + c as u32),
            None if self.verdict.iter().any(|&v| v < 0) => NT_SENTINEL,
            None => 0,
        }
    }
}

/// The shared per-socket-pair NT crossover cell. The temporal-vs-NT
/// break-even is a property of the *memory system between two
/// sockets* — cache sizes, ring/QPI bandwidth — not of the rank pair
/// that happens to traverse it, so every pair re-learning it from the
/// LLC prior is wasted exploration at many ranks. Pairs read this cell
/// as their prior while their own model is unlearned and donate every
/// republished verdict back, so the first pair to converge on a socket
/// pair seeds all later ones. A pair's own published threshold always
/// overrides the shared cell (a pinned-thread pair may genuinely
/// differ, e.g. by sharing an L2).
#[derive(Debug, Default)]
pub struct SocketNtPrior {
    /// Latest donated threshold in bytes (0 = no donation yet).
    nt_min: AtomicUsize,
    /// Donations folded in (diagnostics).
    donors: AtomicU64,
}

impl SocketNtPrior {
    /// The donated threshold (0 = none yet).
    pub fn threshold(&self) -> usize {
        self.nt_min.load(Ordering::Relaxed)
    }

    /// Donations received (diagnostics).
    pub fn donors(&self) -> u64 {
        self.donors.load(Ordering::Relaxed)
    }

    fn donate(&self, t: usize) {
        self.nt_min.store(t, Ordering::Relaxed);
        self.donors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Learned state of one directed rank pair. The chunk target is the
/// hot-path read; the models behind it update under a small mutex at
/// recording time only.
#[derive(Debug)]
pub struct RtPairTune {
    /// Published chunk sweet spot in bytes (0 = nothing learned).
    target: AtomicUsize,
    /// Published NT-store threshold in bytes (0 = nothing learned —
    /// callers fall back to the host-LLC prior).
    nt_min: AtomicUsize,
    /// Decision counter driving the in-band explore cadence.
    nt_explore: AtomicUsize,
    /// Transfer samples accepted (diagnostics).
    samples: AtomicU64,
    /// EWMA transfer bandwidths in MiB/s ×1000 (fixed point), copy and
    /// offload — report context.
    copy_bw: AtomicU64,
    offload_bw: AtomicU64,
    chunk_model: Mutex<ChunkModel>,
    nt_model: Mutex<NtModel>,
    /// The socket pair's shared NT cell (None for standalone cells,
    /// e.g. in unit tests): read as the prior while this pair is
    /// unlearned, donated into on every republish.
    socket_nt: Option<Arc<SocketNtPrior>>,
}

impl RtPairTune {
    fn with_socket_nt(socket_nt: Option<Arc<SocketNtPrior>>) -> Self {
        Self {
            target: AtomicUsize::new(0),
            nt_min: AtomicUsize::new(0),
            nt_explore: AtomicUsize::new(0),
            samples: AtomicU64::new(0),
            copy_bw: AtomicU64::new(0),
            offload_bw: AtomicU64::new(0),
            chunk_model: Mutex::new(ChunkModel::default()),
            nt_model: Mutex::new(NtModel::default()),
            socket_nt,
        }
    }

    /// The published chunk sweet spot (0 = none yet). One atomic load —
    /// safe on the per-chunk path.
    pub fn target(&self) -> usize {
        self.target.load(Ordering::Relaxed)
    }

    /// Fold one fully-absorbed chunk's wall-clock timing into the model
    /// and republish the sweet spot.
    pub fn record_chunk(&self, bytes: usize, nanos: u64) {
        if bytes == 0 || nanos == 0 {
            return;
        }
        let mut model = lock(&self.chunk_model);
        model.observe(bytes as u64, nanos);
        if let Some(t) = model.sweet_spot() {
            self.target.store(t as usize, Ordering::Relaxed);
        }
    }

    fn record_transfer(&self, s: &RtTransferSample) {
        if s.bytes == 0 || s.nanos == 0 {
            return;
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
        let mib_s_x1000 =
            (s.bytes as f64 / (1 << 20) as f64 / (s.nanos as f64 * 1e-9) * 1000.0) as u64;
        let slot = if s.offload {
            &self.offload_bw
        } else {
            &self.copy_bw
        };
        let prev = slot.load(Ordering::Relaxed);
        let next = if prev == 0 {
            mib_s_x1000
        } else {
            (mib_s_x1000 + 3 * prev) / 4
        };
        slot.store(next, Ordering::Relaxed);
    }

    /// EWMA transfer bandwidth in MiB/s for the copy / offload classes
    /// (0.0 = unsampled).
    pub fn bandwidth_mib_s(&self) -> (f64, f64) {
        (
            self.copy_bw.load(Ordering::Relaxed) as f64 / 1000.0,
            self.offload_bw.load(Ordering::Relaxed) as f64 / 1000.0,
        )
    }

    /// Transfer samples accepted.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Fold one timed ring→user copy into the NT crossover model and
    /// republish the threshold. `nanos` is pure copy time (waiting on
    /// the sender excluded — that would smear both flavours equally and
    /// wash out the crossover).
    pub fn record_copy_mode(&self, nt: bool, bytes: usize, nanos: u64) {
        if bytes == 0 || nanos == 0 {
            return;
        }
        let t = lock(&self.nt_model).observe(nt, bytes, nanos);
        if t != 0 {
            self.nt_min.store(t, Ordering::Relaxed);
            if let Some(cell) = &self.socket_nt {
                cell.donate(t);
            }
        }
    }

    /// The learned NT threshold in bytes. Fallback chain while this
    /// pair is unlearned: the socket pair's donated verdict first, then
    /// `prior` (typically [`host_llc_size`]).
    pub fn nt_threshold(&self, prior: usize) -> usize {
        match self.nt_min.load(Ordering::Relaxed) {
            0 => match self.socket_nt.as_ref().map_or(0, |c| c.threshold()) {
                0 => prior.max(1),
                t => t,
            },
            t => t,
        }
    }

    /// The raw learned NT threshold (0 = unlearned) — diagnostics.
    pub fn nt_min(&self) -> usize {
        self.nt_min.load(Ordering::Relaxed)
    }

    /// Should a `len`-byte ring→user copy use streaming stores? By
    /// threshold, except that in-band decisions periodically run the
    /// opposite flavour ([`explore_flip`]) so the model keeps seeing
    /// both sides of the crossover.
    pub fn nt_decision(&self, len: usize, prior: usize) -> bool {
        let t = self.nt_threshold(prior);
        let tick = || self.nt_explore.fetch_add(1, Ordering::Relaxed) as u64;
        (len >= t) != explore_flip(len as u64, t as u64, tick)
    }
}

/// Arms of the real-thread backend selector, in probe order: the rt
/// mechanism families (no pipe variants on the host stack; `Striped(1)`
/// is CMA with extra bookkeeping and therefore not an arm).
pub const RT_SELECTOR_ARMS: usize = 7;

/// Selector size classes cover 2^14 (16 KiB, just below the rt
/// eager/rendezvous switchover) .. 2^(14+7) = 2 MiB+.
const SEL_CLASS_BASE: u32 = 14;
const SEL_NCLASSES: usize = 8;
const ALL_ARMS: [bool; RT_SELECTOR_ARMS] = [true; RT_SELECTOR_ARMS];

/// The learned backend selector of one directed rank pair: one
/// [`Bandit`] per size class over the rt mechanisms, every arm always
/// open, rewarded with wall-clock bandwidth. Deterministic in its
/// decision sequence (the measured rewards are wall-clock, the schedule
/// is not randomized).
#[derive(Debug, Default)]
pub struct RtPairSelector {
    classes: Mutex<[Bandit<RT_SELECTOR_ARMS>; SEL_NCLASSES]>,
}

impl RtPairSelector {
    fn class_of(bytes: usize) -> usize {
        log2_class(bytes as u64, SEL_CLASS_BASE, SEL_NCLASSES)
    }

    /// Pick the arm for one `len`-byte transfer.
    pub fn pick(&self, len: usize) -> usize {
        lock(&self.classes)[Self::class_of(len)].pick(&ALL_ARMS)
    }

    /// Fold one completed transfer's wall-clock bandwidth into the
    /// arm's cell.
    pub fn observe(&self, arm: usize, bytes: usize, nanos: u64) {
        lock(&self.classes)[Self::class_of(bytes)].observe(arm, bytes as u64, nanos);
    }

    /// The arm's `(bandwidth EWMA, samples)` in the class containing
    /// `bytes` (diagnostics and tests).
    pub fn cell(&self, bytes: usize, arm: usize) -> (f64, u32) {
        lock(&self.classes)[Self::class_of(bytes)].cell(arm)
    }
}

/// The per-run tuner. Pair cells are **lazily materialized** — the map
/// starts empty whatever the rank count, and a directed pair's
/// [`RtPairTune`] is allocated on its first recorded traffic (resident
/// cells track *touched* pairs, never ranks², as on the simulated
/// tuner). Read-only queries on an
/// untouched pair answer the defaults without allocating. The
/// collective algorithm bandit rides along as one run-global
/// [`CollGrid`] (inline arrays, no heap). Unlike the simulated tuner it
/// needs no `(group id, sequence)` memo: on real threads only one
/// member (the operation's root) consults the bandit, and the chosen
/// arm rides a one-byte broadcast to the rest of the group, so the
/// decision is made exactly once per operation.
#[derive(Debug)]
pub struct RtTuner {
    pairs: RwLock<HashMap<(usize, usize), Arc<RtPairTune>>>,
    coll: Mutex<CollGrid>,
    /// Rank → socket placement (unmapped ranks sit on socket 0 — the
    /// right default for the unpinned single-address-space stack).
    /// Populate via [`RtTuner::set_rank_socket`] *before* traffic
    /// materializes pair cells: the socket back-pointer is installed at
    /// materialization time.
    sockets: RwLock<HashMap<usize, usize>>,
    /// Shared NT crossover cells, one per (src socket, dst socket).
    socket_nt: RwLock<HashMap<(usize, usize), Arc<SocketNtPrior>>>,
}

impl RtTuner {
    /// Build an empty tuner. The rank count is irrelevant to the
    /// footprint — state appears per touched pair.
    pub fn new(_nranks: usize) -> Arc<Self> {
        Arc::new(Self {
            pairs: RwLock::new(HashMap::new()),
            coll: Mutex::new(CollGrid::default()),
            sockets: RwLock::new(HashMap::new()),
            socket_nt: RwLock::new(HashMap::new()),
        })
    }

    /// Declare `rank`'s socket for the per-socket NT prior cells. Call
    /// before the rank's pairs see traffic (existing cells keep the
    /// back-pointer they were built with).
    pub fn set_rank_socket(&self, rank: usize, socket: usize) {
        write(&self.sockets).insert(rank, socket);
    }

    /// The declared socket of `rank` (0 when never declared).
    pub fn socket_of(&self, rank: usize) -> usize {
        read(&self.sockets).get(&rank).copied().unwrap_or(0)
    }

    /// The shared NT cell for a socket pair, materializing it on first
    /// touch.
    pub fn socket_nt_cell(&self, s_src: usize, s_dst: usize) -> Arc<SocketNtPrior> {
        if let Some(c) = read(&self.socket_nt).get(&(s_src, s_dst)) {
            return Arc::clone(c);
        }
        let mut w = write(&self.socket_nt);
        Arc::clone(w.entry((s_src, s_dst)).or_default())
    }

    /// Pick the algorithm arm for one collective operation. Call this
    /// from exactly one member per operation (the root) — the arm is
    /// then distributed to the rest of the group in-band, which is what
    /// keeps concurrent groups consistent without a shared memo.
    pub fn select_coll_alg(&self, kind: RtCollKind, gsize: usize, bytes: usize) -> usize {
        lock(&self.coll).pick(slot_of(kind, gsize, bytes as u64))
    }

    /// Credit an arm with one completed collective's whole-operation
    /// elapsed wall-clock time.
    pub fn record_coll(
        &self,
        kind: RtCollKind,
        gsize: usize,
        msg_bytes: usize,
        arm: usize,
        moved_bytes: usize,
        nanos: u64,
    ) {
        lock(&self.coll).observe(
            kind,
            gsize,
            msg_bytes as u64,
            arm,
            moved_bytes as u64,
            nanos,
        );
    }

    /// The learned `(bandwidth, samples)` for a collective arm.
    pub fn coll_cell(
        &self,
        kind: RtCollKind,
        gsize: usize,
        msg_bytes: usize,
        arm: usize,
    ) -> (f64, u32) {
        lock(&self.coll).cell(kind, gsize, msg_bytes as u64, arm)
    }

    /// The directed pair's learned state, materializing its cell on
    /// first touch (shared with the pipes that feed and consult it).
    /// The hot path is a read-lock plus an `Arc` clone; the write lock
    /// is taken once per pair lifetime.
    pub fn pair(&self, src: usize, dst: usize) -> Arc<RtPairTune> {
        if let Some(p) = read(&self.pairs).get(&(src, dst)) {
            return Arc::clone(p);
        }
        // Resolve the socket cell before taking the pair write lock
        // (both maps are leaf locks; never hold two at once).
        let cell = self.socket_nt_cell(self.socket_of(src), self.socket_of(dst));
        let mut w = write(&self.pairs);
        Arc::clone(
            w.entry((src, dst))
                .or_insert_with(|| Arc::new(RtPairTune::with_socket_nt(Some(cell)))),
        )
    }

    /// The pair's state only if traffic already materialized it —
    /// read-only queries must not grow the map.
    fn try_pair(&self, src: usize, dst: usize) -> Option<Arc<RtPairTune>> {
        read(&self.pairs).get(&(src, dst)).map(Arc::clone)
    }

    /// Materialized pair cells (the resident-memory diagnostic).
    pub fn resident_pairs(&self) -> usize {
        read(&self.pairs).len()
    }

    /// Record one completed rendezvous transfer.
    pub fn record_transfer(&self, src: usize, dst: usize, s: &RtTransferSample) {
        self.pair(src, dst).record_transfer(s);
    }

    /// The directed pair's learned chunk sweet spot, if any.
    pub fn learned_chunk(&self, src: usize, dst: usize) -> Option<usize> {
        match self.try_pair(src, dst).map_or(0, |p| p.target()) {
            0 => None,
            t => Some(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_model::bandit::MIN_PROBE as SEL_MIN_PROBE;

    /// Exploration period of [`explore_flip`].
    const NT_EXPLORE_PERIOD: usize = 8;

    impl RtPairTune {
        /// A standalone cell with no socket back-pointer (real cells
        /// are built by [`RtTuner::pair`] with the cell installed).
        fn new() -> Self {
            Self::with_socket_nt(None)
        }
    }

    #[test]
    fn chunk_model_elects_best_class_with_hysteresis() {
        let p = RtPairTune::new();
        for _ in 0..5 {
            p.record_chunk(4 << 10, 4 * (4 << 10) as u64);
            p.record_chunk(32 << 10, 2 * (32 << 10) as u64);
            p.record_chunk(256 << 10, 3 * (256 << 10) as u64);
        }
        assert_eq!(p.target(), 32 << 10);
        // A sub-hysteresis challenger cannot unseat the incumbent.
        for _ in 0..50 {
            p.record_chunk(256 << 10, (2.0 * 0.99 * (256 << 10) as f64) as u64);
        }
        assert_eq!(p.target(), 32 << 10);
    }

    #[test]
    fn degenerate_chunks_and_samples_are_discarded() {
        let t = RtTuner::new(2);
        t.pair(0, 1).record_chunk(0, 100);
        t.pair(0, 1).record_chunk(100, 0);
        t.record_transfer(
            0,
            1,
            &RtTransferSample {
                backend: "direct",
                offload: false,
                bytes: 0,
                nanos: 5,
            },
        );
        assert_eq!(t.learned_chunk(0, 1), None);
        assert_eq!(t.pair(0, 1).samples(), 0);
    }

    #[test]
    fn selector_sweeps_then_converges() {
        let s = RtPairSelector::default();
        let mut seen = [0u32; RT_SELECTOR_ARMS];
        for _ in 0..RT_SELECTOR_ARMS as u32 * SEL_MIN_PROBE {
            let a = s.pick(1 << 20);
            seen[a] += 1;
            // Arm 2 is twice as fast as everyone else.
            s.observe(a, 1 << 20, if a == 2 { 500_000 } else { 1_000_000 });
        }
        assert_eq!(seen, [SEL_MIN_PROBE; RT_SELECTOR_ARMS], "sweep coverage");
        let picks: Vec<usize> = (0..100).map(|_| s.pick(1 << 20)).collect();
        let minority = picks.iter().filter(|&&a| a != 2).count();
        assert!(minority <= 4, "probes must be rare, got {minority}/100");
        assert_eq!(*picks.last().unwrap(), 2);
    }

    #[test]
    fn selector_classes_are_independent() {
        let s = RtPairSelector::default();
        for _ in 0..SEL_MIN_PROBE {
            for a in 0..RT_SELECTOR_ARMS {
                s.pick(32 << 10);
                s.pick(1 << 20);
                s.observe(a, 32 << 10, if a == 0 { 1_000 } else { 9_000 });
                s.observe(a, 1 << 20, if a == 3 { 1_000 } else { 9_000 });
            }
        }
        let small: Vec<usize> = (0..30).map(|_| s.pick(32 << 10)).collect();
        let large: Vec<usize> = (0..30).map(|_| s.pick(1 << 20)).collect();
        assert_eq!(*small.last().unwrap(), 0);
        assert_eq!(*large.last().unwrap(), 3);
    }

    #[test]
    fn pair_cells_materialize_on_traffic_not_rank_count() {
        let t = RtTuner::new(4096);
        assert_eq!(t.resident_pairs(), 0, "construction must allocate nothing");
        // Read-only queries on untouched pairs answer without allocating.
        assert_eq!(t.learned_chunk(17, 4000), None);
        assert_eq!(t.resident_pairs(), 0);
        t.record_transfer(
            3,
            9,
            &RtTransferSample {
                backend: "direct",
                offload: false,
                bytes: 1 << 20,
                nanos: 1_000_000,
            },
        );
        assert_eq!(t.resident_pairs(), 1, "one touched pair, one cell");
        assert_eq!(t.pair(3, 9).samples(), 1);
    }

    /// Feed both store flavours across the NT class range with the
    /// given per-byte costs (ns per MiB), NT paying `nt_setup` extra
    /// fixed nanoseconds per copy (its fence/setup tax, which is what
    /// makes it lose on small copies).
    fn feed_nt(p: &RtPairTune, temporal_ns_per_mib: u64, nt_setup: u64, nt_ns_per_mib: u64) {
        for round in 0..6u64 {
            for lg in NT_CLASS_BASE..NT_CLASS_BASE + NT_NCLASSES as u32 {
                let bytes = 1usize << lg;
                let mib = (bytes as f64 / (1 << 20) as f64).max(1e-9);
                let wobble = 1.0 + (round * 97 % 10) as f64 / 1000.0;
                let t_ns = (temporal_ns_per_mib as f64 * mib * wobble).max(1.0) as u64;
                let n_ns = (nt_ns_per_mib as f64 * mib * wobble).max(1.0) as u64 + nt_setup;
                p.record_copy_mode(false, bytes, t_ns);
                p.record_copy_mode(true, bytes, n_ns);
            }
        }
    }

    #[test]
    fn nt_crossover_publishes_temporal_below_and_nt_above() {
        let p = RtPairTune::new();
        // Unlearned: the prior stands, decisions are by-threshold.
        assert_eq!(p.nt_threshold(8 << 20), 8 << 20);
        assert_eq!(p.nt_min(), 0);
        // Temporal 500 ns/MiB; NT 250 ns/MiB but a 1000 ns fixed setup
        // cost → NT wins only once copies are big enough to amortize
        // it. Break-even at 1000/(250·wobble-ish) MiB ≈ 4 MiB.
        feed_nt(&p, 500, 1000, 250);
        let t = p.nt_min();
        assert!(t != 0, "crossover must publish");
        assert!(
            (1 << 20..=16 << 20).contains(&t),
            "threshold {t} should bracket the ~4 MiB break-even"
        );
        // Far out-of-band decisions are deterministic (no explore).
        for _ in 0..64 {
            assert!(!p.nt_decision(64 << 10, 1), "small copies stay temporal");
            assert!(p.nt_decision(128 << 20, 1), "huge copies stream");
        }
        // Degenerate samples are discarded.
        p.record_copy_mode(true, 0, 5);
        p.record_copy_mode(false, 5, 0);
        assert_eq!(p.nt_min(), t);
    }

    #[test]
    fn nt_in_band_explore_flips_every_eighth_decision() {
        let p = RtPairTune::new();
        let prior = 8 << 20;
        // len = prior is in-band; exactly one of every
        // NT_EXPLORE_PERIOD decisions must flip to temporal.
        let flips = (0..8 * NT_EXPLORE_PERIOD)
            .filter(|_| !p.nt_decision(prior, prior))
            .count();
        assert_eq!(flips, 8, "one explore flip per period");
    }

    #[test]
    fn nt_threshold_is_sticky_under_hysteresis() {
        let p = RtPairTune::new();
        feed_nt(&p, 500, 1000, 250);
        let t = p.nt_min();
        assert!(t != 0);
        // Sub-10% wobble around the published verdicts must not move
        // the threshold.
        for _ in 0..40 {
            p.record_copy_mode(
                false,
                t,
                (t as f64 / (1 << 20) as f64 * 500.0 * 1.04) as u64,
            );
            p.record_copy_mode(
                true,
                t,
                (t as f64 / (1 << 20) as f64 * 250.0 * 1.04) as u64 + 1000,
            );
        }
        assert_eq!(p.nt_min(), t, "threshold wobbled under hysteresis");
        // A real regime flip — temporal now decisively faster at the
        // old threshold class — must raise it.
        for _ in 0..40 {
            p.record_copy_mode(
                false,
                t,
                (t as f64 / (1 << 20) as f64 * 100.0).max(1.0) as u64,
            );
            p.record_copy_mode(true, t, (t as f64 / (1 << 20) as f64 * 250.0) as u64 + 1000);
        }
        assert!(p.nt_min() > t, "regime flip must raise the threshold");
    }

    #[test]
    fn nt_sentinel_when_temporal_wins_everywhere_keeps_explore_reachable() {
        let p = RtPairTune::new();
        // Temporal strictly faster at every class.
        feed_nt(&p, 200, 500, 400);
        assert_eq!(p.nt_min(), NT_SENTINEL);
        // The sentinel is finite: lengths near it are still in the
        // explore band, so NT keeps getting re-probed.
        let flips = (0..8 * NT_EXPLORE_PERIOD)
            .filter(|_| p.nt_decision(NT_SENTINEL / 2, 1))
            .count();
        assert_eq!(flips, 8, "explore must survive the sentinel");
    }

    #[test]
    fn converged_pair_donates_nt_verdict_to_its_socket_cell() {
        let t = RtTuner::new(8);
        // Ranks 0..4 on socket 0, 4..8 on socket 1.
        for r in 0..8 {
            t.set_rank_socket(r, r / 4);
        }
        let llc = 8 << 20;
        // A fresh cross-socket pair knows nothing: the LLC prior stands.
        assert_eq!(t.pair(0, 4).nt_threshold(llc), llc);
        feed_nt(&t.pair(0, 4), 500, 1000, 250);
        let learned = t.pair(0, 4).nt_min();
        assert!(learned != 0, "crossover must publish");
        assert_eq!(t.socket_nt_cell(0, 1).threshold(), learned);
        assert!(t.socket_nt_cell(0, 1).donors() > 0);
        // A *different* pair crossing the same socket pair starts from
        // the donated verdict, not the LLC prior...
        assert_eq!(t.pair(1, 5).nt_threshold(llc), learned);
        assert_eq!(t.pair(1, 5).nt_min(), 0, "prior is read, not copied");
        // ...while pairs on other socket pairs are unaffected.
        assert_eq!(t.pair(0, 1).nt_threshold(llc), llc);
        assert_eq!(t.pair(4, 0).nt_threshold(llc), llc);
    }

    #[test]
    fn own_learned_nt_threshold_overrides_socket_prior() {
        let t = RtTuner::new(4);
        // All ranks on socket 0 (the default map).
        feed_nt(&t.pair(0, 1), 500, 1000, 250);
        let donated = t.socket_nt_cell(0, 0).threshold();
        assert!(donated != 0);
        // Pair (2,3) converges on a much later crossover (bigger setup
        // tax); its own verdict must win over the shared cell.
        feed_nt(&t.pair(2, 3), 500, 64_000, 250);
        let own = t.pair(2, 3).nt_min();
        assert!(own != 0 && own != donated);
        assert_eq!(t.pair(2, 3).nt_threshold(1), own);
    }

    #[test]
    fn transfer_bandwidth_is_tracked_per_class() {
        let t = RtTuner::new(2);
        // 1 MiB in 1 ms = 1000 MiB/s.
        t.record_transfer(
            0,
            1,
            &RtTransferSample {
                backend: "direct",
                offload: false,
                bytes: 1 << 20,
                nanos: 1_000_000,
            },
        );
        let (copy, offload) = t.pair(0, 1).bandwidth_mib_s();
        assert!((copy - 1000.0).abs() < 1.0, "copy bw {copy}");
        assert_eq!(offload, 0.0);
        assert_eq!(t.pair(0, 1).samples(), 1);
    }
}
