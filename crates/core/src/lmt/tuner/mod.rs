//! The feedback-driven transfer tuner: learns per-(pair, placement)
//! `DMAmin` crossovers and chunk sweet spots from observed transfer
//! times.
//!
//! The paper's §3.5 `DMAmin` and the chunk sweet spot are
//! *architectural* constants — derived from cache geometry once, then
//! applied to every pair. The paper itself notes the crossover moves
//! with cache placement (§3.5: a 6 MiB L2 raises the threshold by 50%)
//! and with collective concurrency (§6/§4.4). This module closes the
//! loop instead: every LMT completion reports a [`TransferSample`]
//! (backend, placement, size class, concurrency, elapsed virtual time),
//! and every fully-absorbed pipeline chunk reports its own timing. From
//! those the tuner maintains, per directed pair:
//!
//! * a learned `DMAmin` — an online copy-vs-offload bandwidth
//!   comparison per power-of-two size class (see [`threshold`]),
//!   EWMA-smoothed and published with hysteresis so the decision
//!   converges instead of oscillating;
//! * a learned chunk sweet spot — the best-throughput chunk size class
//!   observed on that pair's wire (see [`ChunkModel`]), consumed by the
//!   `Learned` [`ChunkSchedule`](crate::lmt::ChunkSchedule).
//!
//! The models that need no clock — the EWMA cell, the bandit, the
//! chunk model, the collective grid — live in `nemesis-model` and are
//! shared with the real-thread tuner; this module keeps what is
//! sim-side: the demotion clock, the collective agreement memo, the
//! snapshot format, the placement priors and the crossover scan.
//!
//! **Hot-path contract:** decisions are *reads of cached atomics*
//! ([`Tuner::dma_min`], [`Tuner::chunk_target`]) — no per-decision
//! allocation. The models behind them are updated under a small
//! per-pair mutex, but only at transfer completion (recording), never
//! on the per-chunk or per-decision path of another transfer. Pair
//! cells are **lazily materialized** on first traffic (an uncontended
//! read-lock on the pair map plus an `Arc` clone per decision; a
//! write-lock only on the very first touch of a pair), so resident
//! tuner state grows with *touched* pairs, never with `nprocs²` —
//! a 256-rank universe with 8 active pairs holds 8 cells, not 65 536.
//!
//! **Placement-keyed priors:** whenever a pair publishes a decision,
//! the published values are mirrored into one of five per-placement
//! prior cells (same-core … cross-socket). A fresh pair inherits the
//! prior for its placement on its first recorded transfer — crossover,
//! chunk sweet spot, bandwidth EWMAs, and selector cells — so it
//! warm-starts from its same-placement siblings instead of
//! re-exploring from scratch. Its own samples then refine (and can
//! overturn) the inherited state.
//!
//! Degenerate inputs are routed safely: zero-byte / zero-time samples
//! are discarded, and a learned threshold can never be published below
//! the eager/rendezvous switchover (`eager_max`) — the LMT never runs
//! below it, so a smaller `DMAmin` would be meaningless and would make
//! every rendezvous transfer request the offload (see
//! [`Tuner::floor`]).

pub mod selector;
pub mod threshold;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use nemesis_sim::topology::Placement;

use crate::config::LmtSelect;
use crate::lmt::striped::RailKind;

use nemesis_model::ewma::blend;
use nemesis_model::sync::{lock, read, write};
use nemesis_model::{explore_flip, is_explore_tick, ChunkModel};
use selector::{CollAlgModel, CollKind, SelectorModel};
use threshold::CrossoverModel;

/// Which mechanism moved the bytes of a transfer — the §3.5 dichotomy
/// the learned threshold arbitrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferClass {
    /// A CPU copy landed the payload (shm ring, pipes, KNEM sync/kthread).
    Copy,
    /// The I/OAT engine moved the bytes (KNEM with I/OAT).
    Offload,
}

/// One completed LMT transfer, as observed by the receiver (the side
/// that drives the §3.5 mode decision).
#[derive(Debug, Clone, Copy)]
pub struct TransferSample {
    /// Backend label (diagnostics and reports; the threshold model keys
    /// on `class`).
    pub backend: &'static str,
    /// Copy or offload — the §3.5 dichotomy.
    pub class: TransferClass,
    /// Cache relation of the two cores at completion time.
    pub placement: Placement,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Elapsed virtual time (picoseconds) from receive start to
    /// completion.
    pub elapsed_ps: u64,
    /// The §6 collective-concurrency hint the RTS carried.
    pub concurrency: u32,
    /// The rail mechanism that moved the bytes, when the sample can be
    /// attributed to one (striped per-rail samples always can; plain
    /// transfers map their backend — CMA, vmsplice, the ring, KNEM's
    /// I/OAT mode — onto the same kinds). Feeds the per-rail-kind
    /// bandwidth cells the striped span weighting reads, so a vmsplice
    /// rail's samples no longer skew the CMA rail's weight through the
    /// shared Copy-class cell.
    pub rail: Option<RailKind>,
}

/// Per-directed-pair learned state. Published decisions are atomics;
/// the models feeding them sit behind a mutex taken only when
/// recording.
struct PairState {
    /// Published learned `DMAmin` in bytes; 0 = nothing learned yet
    /// (callers fall back to the configured prior).
    dma_min: AtomicU64,
    /// Published learned non-temporal-store threshold in bytes (the
    /// copy size past which streaming stores beat temporal ones); 0 =
    /// nothing learned (callers fall back to the LLC-size prior).
    nt_min: AtomicU64,
    /// Deterministic exploration counter for the NT decision (see
    /// [`Tuner::nt_decision`]).
    nt_explore: AtomicU32,
    /// Published learned chunk sweet spot in bytes; 0 = none yet.
    chunk: AtomicU64,
    /// Deterministic exploration counter (see [`Tuner::offload_decision`]).
    explore: AtomicU32,
    /// Deterministic probe counter for the chunk schedule (see
    /// [`Tuner::chunk_target_explored`]).
    chunk_probe: AtomicU32,
    /// Placement observed for this pair, as a [`placement_code`]
    /// (`u32::MAX` = not yet seen).
    placement: AtomicU32,
    /// Transfer samples accepted (diagnostics).
    samples: AtomicU64,
    /// Published per-mechanism bandwidth EWMAs (`f64` bits, bytes per
    /// picosecond; 0 = unsampled). The striped backend weighs its rail
    /// spans with these — one atomic load per mechanism per transfer.
    copy_bw: AtomicU64,
    offload_bw: AtomicU64,
    /// Published per-rail-kind bandwidth EWMAs (`f64` bits, indexed by
    /// [`RailKind::code`]; 0 = unsampled). Finer than the two
    /// class-level cells above: before these existed, vmsplice and ring
    /// rail samples shared the Copy cell with CMA, flattening the span
    /// weights of 3+-rail stripes.
    rail_bw: [AtomicU64; NRAIL_KINDS],
    /// Placement-change generation: bumped whenever a sample arrives
    /// with a different placement than the pair's previous samples (the
    /// pair migrated); the models are decayed at the same time.
    epoch: AtomicU64,
    model: Mutex<Models>,
}

/// Number of [`RailKind`] codes (the per-kind cell array size).
const NRAIL_KINDS: usize = 5;

#[derive(Default)]
struct Models {
    crossover: CrossoverModel,
    /// Temporal-vs-non-temporal copy crossover: temporal samples land
    /// in the model's Copy cells, streaming-store samples in its
    /// Offload cells, so `learned()` is the size where NT wins.
    nt: CrossoverModel,
    chunk: ChunkModel,
    selector: SelectorModel,
}

impl PairState {
    fn new() -> Self {
        Self {
            dma_min: AtomicU64::new(0),
            nt_min: AtomicU64::new(0),
            nt_explore: AtomicU32::new(0),
            chunk: AtomicU64::new(0),
            explore: AtomicU32::new(0),
            chunk_probe: AtomicU32::new(0),
            placement: AtomicU32::new(u32::MAX),
            samples: AtomicU64::new(0),
            copy_bw: AtomicU64::new(0),
            offload_bw: AtomicU64::new(0),
            rail_bw: [const { AtomicU64::new(0) }; NRAIL_KINDS],
            epoch: AtomicU64::new(0),
            model: Mutex::new(Models::default()),
        }
    }
}

/// Fold `bw` into the published EWMA atomic (`f64` bits; first sample
/// seeds the cell).
fn fold_bw(slot: &AtomicU64, bw: f64) {
    let prev = f64::from_bits(slot.load(Ordering::Relaxed));
    let next = if prev == 0.0 { bw } else { blend(prev, bw) };
    slot.store(next.to_bits(), Ordering::Relaxed);
}

/// Snapshot of one pair's learned state (reports and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSnapshot {
    /// Learned `DMAmin` (0 = unlearned).
    pub dma_min: u64,
    /// Learned non-temporal-store threshold (0 = unlearned).
    pub nt_min: u64,
    /// Learned chunk sweet spot (0 = unlearned).
    pub chunk: u64,
    /// Transfer samples accepted.
    pub samples: u64,
    /// Placement of the pair, if any transfer has been observed.
    pub placement: Option<Placement>,
}

/// Number of [`placement_code`] values (the prior-cell array size).
const NPLACEMENTS: usize = 5;

/// One placement class's shared prior: a mirror of the most recently
/// published decisions of any pair observed at that placement. Fresh
/// pairs inherit from it on their first recorded transfer (see
/// [`Tuner::record`]); its cells are plain last-writer atomics — the
/// prior is a warm-start hint, not a consensus model, and each pair's
/// own traffic immediately starts refining the inherited values.
struct PriorCell {
    dma_min: AtomicU64,
    nt_min: AtomicU64,
    chunk: AtomicU64,
    copy_bw: AtomicU64,
    offload_bw: AtomicU64,
    rail_bw: [AtomicU64; NRAIL_KINDS],
    /// Pairs that have contributed to this prior (diagnostics).
    donors: AtomicU64,
    /// Selector cells `(bw_bits, n)` per (class, arm) — copied out of a
    /// donor pair under its model mutex, seeded into a fresh pair the
    /// same way.
    sel: Mutex<selector::CellGrid>,
}

impl PriorCell {
    fn new() -> Self {
        Self {
            dma_min: AtomicU64::new(0),
            nt_min: AtomicU64::new(0),
            chunk: AtomicU64::new(0),
            copy_bw: AtomicU64::new(0),
            offload_bw: AtomicU64::new(0),
            rail_bw: [const { AtomicU64::new(0) }; NRAIL_KINDS],
            donors: AtomicU64::new(0),
            sel: Mutex::new(selector::EMPTY_CELL_GRID),
        }
    }
}

/// The learned-policy engine: one lazily-materialized [`PairState`] per
/// *touched* directed (src, dst) rank pair, five placement-keyed prior
/// cells, plus the clamp bounds every published threshold honours.
pub struct Tuner {
    pairs: RwLock<HashMap<(usize, usize), Arc<PairState>>>,
    priors: [PriorCell; NPLACEMENTS],
    nprocs: usize,
    /// Lower clamp for a learned `DMAmin`: the eager/rendezvous
    /// switchover. The LMT never runs at or below this size, so no
    /// learned threshold may sink under it.
    floor: u64,
    /// Upper clamp (keeps a run of one-sided observations from pushing
    /// the threshold to infinity).
    ceil: u64,
    /// The collective algorithm bandit — universe-global (a collective
    /// involves a whole group, not a pair), keyed by (collective kind,
    /// group-size class, message class). See
    /// [`CollAlgModel`](selector::CollAlgModel) for the cross-rank
    /// consistency memo.
    coll: Mutex<CollAlgModel>,
}

impl Tuner {
    /// A tuner for `nprocs` ranks. `eager_max` becomes the threshold
    /// floor (see [`Tuner::floor`]). No per-pair state is allocated
    /// here: cells materialize on first traffic, so construction is
    /// O(1) regardless of the universe size.
    pub fn new(nprocs: usize, eager_max: u64) -> Self {
        let floor = eager_max.max(1);
        Self {
            pairs: RwLock::new(HashMap::new()),
            priors: std::array::from_fn(|_| PriorCell::new()),
            nprocs,
            floor,
            ceil: (floor << 10).max(64 << 20),
            coll: Mutex::new(CollAlgModel::default()),
        }
    }

    /// The algorithm arm for one collective operation (memoized per
    /// `(group id, sequence)` so every group member lands on the same
    /// arm — see [`CollAlgModel::select`]).
    pub fn select_coll_alg(
        &self,
        kind: CollKind,
        gsize: usize,
        bytes: u64,
        gid: i32,
        seq: i32,
    ) -> usize {
        lock(&self.coll).select(kind, gsize, bytes, gid, seq)
    }

    /// Credit one completed collective operation: `moved_bytes` over
    /// `elapsed_ps` of whole-op time becomes the arm's reward, exactly
    /// as backend arms are credited from receiver elapsed.
    pub fn record_coll(
        &self,
        kind: CollKind,
        gsize: usize,
        msg_bytes: u64,
        arm: usize,
        moved_bytes: u64,
        elapsed_ps: u64,
    ) {
        lock(&self.coll)
            .grid
            .observe(kind, gsize, msg_bytes, arm, moved_bytes, elapsed_ps);
    }

    /// One collective-bandit cell's `(bandwidth EWMA, samples)` —
    /// diagnostics and tests.
    pub fn coll_cell(
        &self,
        kind: CollKind,
        gsize: usize,
        msg_bytes: u64,
        arm: usize,
    ) -> (f64, u32) {
        lock(&self.coll).grid.cell(kind, gsize, msg_bytes, arm)
    }

    /// Materialize (or fetch) the pair's cell. Decision and recording
    /// paths use this; read-only accessors go through
    /// [`Tuner::try_pair`] so inspection never inflates the resident
    /// set.
    fn pair(&self, src: usize, dst: usize) -> Arc<PairState> {
        if let Some(p) = read(&self.pairs).get(&(src, dst)) {
            return Arc::clone(p);
        }
        let mut w = write(&self.pairs);
        Arc::clone(
            w.entry((src, dst))
                .or_insert_with(|| Arc::new(PairState::new())),
        )
    }

    /// The pair's cell if it has been materialized.
    fn try_pair(&self, src: usize, dst: usize) -> Option<Arc<PairState>> {
        read(&self.pairs).get(&(src, dst)).map(Arc::clone)
    }

    /// Resident materialized pair cells (the scale-out memory
    /// diagnostic: bounded by touched pairs, never `nprocs²`).
    pub fn resident_pairs(&self) -> usize {
        read(&self.pairs).len()
    }

    /// Seed a virgin pair from the placement prior: published decisions
    /// (crossover, chunk), bandwidth EWMAs, and selector cells. Only
    /// unset cells are filled — an imported snapshot always wins over
    /// the prior.
    fn seed_from_prior(&self, p: &PairState, code: u32) {
        let Some(prior) = self.priors.get(code as usize) else {
            return;
        };
        if prior.donors.load(Ordering::Relaxed) == 0 {
            return;
        }
        let seed_if_unset = |dstc: &AtomicU64, srcc: &AtomicU64| {
            let v = srcc.load(Ordering::Relaxed);
            if v != 0 {
                let _ = dstc.compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed);
            }
        };
        seed_if_unset(&p.dma_min, &prior.dma_min);
        seed_if_unset(&p.nt_min, &prior.nt_min);
        seed_if_unset(&p.chunk, &prior.chunk);
        seed_if_unset(&p.copy_bw, &prior.copy_bw);
        seed_if_unset(&p.offload_bw, &prior.offload_bw);
        for k in 0..NRAIL_KINDS {
            seed_if_unset(&p.rail_bw[k], &prior.rail_bw[k]);
        }
        let mut m = lock(&p.model);
        let grid = lock(&prior.sel);
        m.selector.seed_cells(&grid);
    }

    /// Mirror the pair's published decisions into its placement prior
    /// (called on the recording paths — never on a decision path).
    fn donate_to_prior(&self, p: &PairState, code: u32) {
        let Some(prior) = self.priors.get(code as usize) else {
            return;
        };
        let copy_if_set = |dstc: &AtomicU64, srcc: &AtomicU64| {
            let v = srcc.load(Ordering::Relaxed);
            if v != 0 {
                dstc.store(v, Ordering::Relaxed);
            }
        };
        copy_if_set(&prior.dma_min, &p.dma_min);
        copy_if_set(&prior.nt_min, &p.nt_min);
        copy_if_set(&prior.chunk, &p.chunk);
        copy_if_set(&prior.copy_bw, &p.copy_bw);
        copy_if_set(&prior.offload_bw, &p.offload_bw);
        for k in 0..NRAIL_KINDS {
            copy_if_set(&prior.rail_bw[k], &p.rail_bw[k]);
        }
        prior.donors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed transfer for the (src, dst) pair.
    /// Degenerate samples (zero bytes, zero elapsed, or an
    /// eager-regime length that can never reach the LMT) are discarded
    /// — they would otherwise teach the crossover model infinite or
    /// meaningless bandwidths.
    ///
    /// A sample whose placement differs from the pair's previous
    /// samples means the pair migrated mid-run: the learned models are
    /// **decayed** (sample counts reset, estimates kept as priors) and
    /// the pair's [`epoch`](Tuner::pair_epoch) bumped, so every
    /// decision re-explores under the new placement instead of
    /// exploiting stale cells.
    pub fn record(&self, src: usize, dst: usize, s: &TransferSample) {
        if s.bytes == 0 || s.elapsed_ps == 0 || s.bytes <= self.floor {
            return;
        }
        let p = self.pair(src, dst);
        let code = placement_code(s.placement);
        let prev_code = p.placement.swap(code, Ordering::Relaxed);
        let migrated = prev_code != u32::MAX && prev_code != code;
        // First placement observation on a cold pair (no imported
        // snapshot, no prior samples): inherit the placement prior
        // before folding this sample, so the pair starts from its
        // same-placement siblings' decisions instead of from scratch.
        if prev_code == u32::MAX && p.samples.load(Ordering::Relaxed) == 0 {
            self.seed_from_prior(&p, code);
        }
        p.samples.fetch_add(1, Ordering::Relaxed);
        // Publish the per-mechanism bandwidth EWMAs (same smoothing the
        // crossover cells use, but aggregated over sizes): the blended
        // class cell, and — when the sample names its rail mechanism —
        // the per-rail-kind cell the striped span weighting prefers.
        let bw = s.bytes as f64 / s.elapsed_ps as f64;
        let slot = match s.class {
            TransferClass::Copy => &p.copy_bw,
            TransferClass::Offload => &p.offload_bw,
        };
        fold_bw(slot, bw);
        if let Some(kind) = s.rail {
            fold_bw(&p.rail_bw[kind.code() as usize], bw);
        }
        let mut m = lock(&p.model);
        if migrated {
            p.epoch.fetch_add(1, Ordering::Relaxed);
            m.crossover.decay();
            m.nt.decay();
            m.chunk.decay();
            m.selector.decay();
        }
        m.crossover.observe(s.class, s.bytes, s.elapsed_ps);
        if let Some(t) = m.crossover.learned() {
            p.dma_min
                .store(t.clamp(self.floor, self.ceil), Ordering::Relaxed);
        }
        drop(m);
        self.donate_to_prior(&p, code);
    }

    /// Record one completed shared-memory copy in the pair's
    /// temporal-vs-non-temporal crossover model. `nt` names the store
    /// flavour the copy ran with; the learned threshold (the size past
    /// which streaming stores win) is republished under the model's
    /// hysteresis band.
    pub fn record_copy_mode(&self, src: usize, dst: usize, nt: bool, bytes: u64, elapsed_ps: u64) {
        if bytes == 0 || elapsed_ps == 0 {
            return;
        }
        let p = self.pair(src, dst);
        let class = if nt {
            TransferClass::Offload
        } else {
            TransferClass::Copy
        };
        let mut m = lock(&p.model);
        m.nt.observe(class, bytes, elapsed_ps);
        if let Some(t) = m.nt.learned() {
            p.nt_min.store(t.min(self.ceil).max(1), Ordering::Relaxed);
        }
        drop(m);
        let code = p.placement.load(Ordering::Relaxed);
        if let Some(prior) = self.priors.get(code as usize) {
            let v = p.nt_min.load(Ordering::Relaxed);
            if v != 0 {
                prior.nt_min.store(v, Ordering::Relaxed);
                prior.donors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The pair's effective non-temporal-store threshold: the learned
    /// value when one exists, otherwise `prior` (the machine's LLC
    /// size — below it the destination fits in cache and temporal
    /// stores win by keeping it there).
    pub fn nt_min(&self, src: usize, dst: usize, prior: u64) -> u64 {
        let learned = self
            .try_pair(src, dst)
            .map_or(0, |p| p.nt_min.load(Ordering::Relaxed));
        if learned == 0 {
            prior.max(1)
        } else {
            learned
        }
    }

    /// The temporal-vs-NT decision for one copy of `len` bytes against
    /// the resolved `threshold`, with the same deterministic in-band
    /// exploration as [`Tuner::offload_decision`]: near-threshold
    /// lengths occasionally run the minority store flavour so the
    /// crossover keeps seeing both sides.
    pub fn nt_decision(&self, src: usize, dst: usize, len: u64, threshold: u64) -> bool {
        let tick = || {
            self.pair(src, dst)
                .nt_explore
                .fetch_add(1, Ordering::Relaxed)
        };
        (len >= threshold) != explore_flip(len, threshold, || tick().into())
    }

    /// How many times the pair's placement has changed mid-run (each
    /// change decays the learned models — see [`Tuner::record`]).
    pub fn pair_epoch(&self, src: usize, dst: usize) -> u64 {
        self.try_pair(src, dst)
            .map_or(0, |p| p.epoch.load(Ordering::Relaxed))
    }

    /// The pair's published bandwidth EWMA for one rail kind in bytes
    /// per picosecond (0.0 = unsampled). One atomic load — safe on the
    /// per-transfer path.
    pub fn rail_bandwidth(&self, src: usize, dst: usize, kind: RailKind) -> f64 {
        f64::from_bits(self.try_pair(src, dst).map_or(0, |p| {
            p.rail_bw[kind.code() as usize].load(Ordering::Relaxed)
        }))
    }

    /// Pick the backend for one `len`-byte transfer on the directed
    /// pair (the learned replacement of the rule-based `Dynamic`
    /// resolution). `eligible` masks the arms the universe cannot serve
    /// — see [`selector`] for the arm table and exploration schedule.
    /// Takes the pair's model mutex: one short lock per *transfer*
    /// (selection time), never per chunk or on another transfer's path.
    pub fn select_backend(
        &self,
        src: usize,
        dst: usize,
        len: u64,
        eligible: &[bool; selector::NARMS],
    ) -> LmtSelect {
        let arm = lock(&self.pair(src, dst).model)
            .selector
            .pick(len, eligible);
        selector::ARMS[arm]
    }

    /// What [`Tuner::select_backend`] would return, without advancing
    /// the exploration state — for inspection calls (`Comm::try_select`)
    /// that never complete a transfer and must not burn sweep picks.
    /// Inspection of an untouched pair answers from a default model
    /// without materializing the cell.
    pub fn peek_backend(
        &self,
        src: usize,
        dst: usize,
        len: u64,
        eligible: &[bool; selector::NARMS],
    ) -> LmtSelect {
        let arm = match self.try_pair(src, dst) {
            Some(p) => lock(&p.model).selector.peek(len, eligible),
            None => SelectorModel::default().peek(len, eligible),
        };
        selector::ARMS[arm]
    }

    /// Feed one completed transfer's achieved bandwidth back to the arm
    /// that served it (recorded on the sender, which knows its choice).
    /// The pair's refreshed cells are mirrored into its placement prior
    /// so later same-placement pairs can skip the sweep.
    pub fn observe_arm(&self, src: usize, dst: usize, arm: usize, bytes: u64, elapsed_ps: u64) {
        let p = self.pair(src, dst);
        let mut m = lock(&p.model);
        m.selector.observe(arm, bytes, elapsed_ps);
        let code = p.placement.load(Ordering::Relaxed);
        if let Some(prior) = self.priors.get(code as usize) {
            m.selector.copy_cells(&mut lock(&prior.sel));
            prior.donors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Demote a selector arm for the pair (a quarantined rail kind also
    /// demotes the arm built on that mechanism). Applied once per pair:
    /// after [`selector::DEMOTE_WINDOW`] decisions the arm becomes
    /// eligible for re-probing. Returns whether the ban was newly
    /// applied.
    pub fn demote_arm(&self, src: usize, dst: usize, sel: LmtSelect) -> bool {
        match selector::arm_of(sel) {
            Some(arm) => lock(&self.pair(src, dst).model).selector.demote_once(arm),
            None => false,
        }
    }

    /// Whether a selector arm is currently banned for the pair.
    pub fn arm_banned(&self, src: usize, dst: usize, sel: LmtSelect) -> bool {
        match (selector::arm_of(sel), self.try_pair(src, dst)) {
            (Some(arm), Some(p)) => lock(&p.model).selector.is_banned(arm),
            _ => false,
        }
    }

    /// Whether the pair's one-shot demotion of the arm has been spent
    /// (see [`selector::SelectorModel::demote_spent`]). With
    /// [`Tuner::arm_banned`] false this means the demotion window has
    /// fully expired — the re-admission condition.
    pub fn arm_demote_spent(&self, src: usize, dst: usize, sel: LmtSelect) -> bool {
        match (selector::arm_of(sel), self.try_pair(src, dst)) {
            (Some(arm), Some(p)) => lock(&p.model).selector.demote_spent(arm),
            _ => false,
        }
    }

    /// Re-arm the pair's one-shot demotion of the arm after its window
    /// expired, so a second fault can demote the re-probed mechanism
    /// again.
    pub fn arm_reset_demotion(&self, src: usize, dst: usize, sel: LmtSelect) {
        if let (Some(arm), Some(p)) = (selector::arm_of(sel), self.try_pair(src, dst)) {
            lock(&p.model).selector.reset_demotion(arm);
        }
    }

    /// The pair's published per-mechanism bandwidth EWMAs in bytes per
    /// picosecond, `(copy, offload)`; 0.0 = unsampled.
    pub fn pair_bandwidths(&self, src: usize, dst: usize) -> (f64, f64) {
        match self.try_pair(src, dst) {
            Some(p) => (
                f64::from_bits(p.copy_bw.load(Ordering::Relaxed)),
                f64::from_bits(p.offload_bw.load(Ordering::Relaxed)),
            ),
            None => (0.0, 0.0),
        }
    }

    /// Record one fully-absorbed pipeline chunk for the (src, dst)
    /// pair's wire.
    pub fn record_chunk(&self, src: usize, dst: usize, chunk_bytes: u64, elapsed_ps: u64) {
        if chunk_bytes == 0 || elapsed_ps == 0 {
            return;
        }
        let p = self.pair(src, dst);
        let mut m = lock(&p.model);
        m.chunk.observe(chunk_bytes, elapsed_ps);
        if let Some(c) = m.chunk.sweet_spot() {
            p.chunk.store(c, Ordering::Relaxed);
            let code = p.placement.load(Ordering::Relaxed);
            if let Some(prior) = self.priors.get(code as usize) {
                prior.chunk.store(c, Ordering::Relaxed);
                prior.donors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The pair's effective `DMAmin`: the learned value when one exists
    /// (clamped to `[floor, ceil]`), otherwise `prior` (clamped to the
    /// floor as well — a configured override of 0 must not teach the
    /// receiver to offload everything).
    pub fn dma_min(&self, src: usize, dst: usize, prior: u64) -> u64 {
        let learned = self
            .try_pair(src, dst)
            .map_or(0, |p| p.dma_min.load(Ordering::Relaxed));
        if learned == 0 {
            prior.max(self.floor)
        } else {
            learned.clamp(self.floor, self.ceil)
        }
    }

    /// The pair's learned chunk sweet spot, or `default` while nothing
    /// has been learned.
    pub fn chunk_target(&self, src: usize, dst: usize, default: u64) -> u64 {
        match self
            .try_pair(src, dst)
            .map_or(0, |p| p.chunk.load(Ordering::Relaxed))
        {
            0 => default,
            c => c,
        }
    }

    /// The chunk target for one new transfer, with deterministic probe
    /// transfers: every 8th transfer ([`is_explore_tick`]) runs unclamped
    /// (returns 0 = "no target") so chunk classes above the current
    /// sweet spot keep being sampled — without probes the schedule
    /// could never discover that larger chunks became profitable.
    pub fn chunk_target_explored(&self, src: usize, dst: usize) -> u64 {
        let Some(p) = self.try_pair(src, dst) else {
            return 0;
        };
        let published = p.chunk.load(Ordering::Relaxed);
        if published == 0 {
            return 0;
        }
        let tick = p.chunk_probe.fetch_add(1, Ordering::Relaxed);
        if is_explore_tick(u64::from(tick)) {
            0
        } else {
            published
        }
    }

    /// The copy-vs-offload decision for one transfer of `len` bytes
    /// against the already-resolved effective `threshold`, with
    /// deterministic in-band exploration: lengths within [T/4, 4T) of
    /// the threshold occasionally run the minority mechanism so both
    /// sides of the crossover keep being sampled (otherwise the learned
    /// value could never move against its own decisions). Out-of-band
    /// lengths always follow the threshold.
    pub fn offload_decision(&self, src: usize, dst: usize, len: u64, threshold: u64) -> bool {
        let tick = || self.pair(src, dst).explore.fetch_add(1, Ordering::Relaxed);
        (len >= threshold) != explore_flip(len, threshold, || tick().into())
    }

    /// The threshold floor (the eager/rendezvous switchover).
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Snapshot one pair's learned state (an untouched pair reads as
    /// all-unlearned without being materialized).
    pub fn snapshot(&self, src: usize, dst: usize) -> PairSnapshot {
        match self.try_pair(src, dst) {
            Some(p) => PairSnapshot {
                dma_min: p.dma_min.load(Ordering::Relaxed),
                nt_min: p.nt_min.load(Ordering::Relaxed),
                chunk: p.chunk.load(Ordering::Relaxed),
                samples: p.samples.load(Ordering::Relaxed),
                placement: placement_from_code(p.placement.load(Ordering::Relaxed)),
            },
            None => PairSnapshot {
                dma_min: 0,
                nt_min: 0,
                chunk: 0,
                samples: 0,
                placement: None,
            },
        }
    }

    /// Serialize the published learned state (per-pair `DMAmin`, chunk
    /// sweet spot, placement, per-mechanism and per-rail-kind bandwidth
    /// EWMAs, selector cells) into a line-oriented snapshot a future
    /// universe can warm-start from via
    /// [`NemesisConfig::tuner_snapshot`](crate::config::NemesisConfig::tuner_snapshot).
    /// Exploration clocks and raw model cells restart fresh — the
    /// snapshot carries the *decisions*, which the new universe then
    /// refines online.
    pub fn export_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("nemesis-tuner-v1\n");
        // Only materialized cells exist; sort so the export is
        // deterministic regardless of materialization order.
        let mut keys: Vec<(usize, usize)> = read(&self.pairs).keys().copied().collect();
        keys.sort_unstable();
        for (src, dst) in keys {
            {
                let Some(p) = self.try_pair(src, dst) else {
                    continue;
                };
                let samples = p.samples.load(Ordering::Relaxed);
                let nt = p.nt_min.load(Ordering::Relaxed);
                // A pair can learn an NT threshold without ever feeding
                // the transfer models (copy-mode samples don't count as
                // transfer samples), so the nt line stands alone.
                if samples == 0 && nt == 0 {
                    continue;
                }
                if samples != 0 {
                    let _ = writeln!(
                        out,
                        "pair {src} {dst} {} {} {} {:#x} {:#x} {samples}",
                        p.dma_min.load(Ordering::Relaxed),
                        p.chunk.load(Ordering::Relaxed),
                        p.placement.load(Ordering::Relaxed),
                        p.copy_bw.load(Ordering::Relaxed),
                        p.offload_bw.load(Ordering::Relaxed),
                        // The lifetime sample count rides along so a
                        // warm-started universe that sees no new traffic
                        // still re-exports the pair (export skips pairs
                        // with samples == 0).
                    );
                    for kind in 0..NRAIL_KINDS {
                        let bits = p.rail_bw[kind].load(Ordering::Relaxed);
                        if bits != 0 {
                            let _ = writeln!(out, "rail {src} {dst} {kind} {bits:#x}");
                        }
                    }
                }
                if nt != 0 {
                    let _ = writeln!(out, "nt {src} {dst} {nt}");
                }
                // Exploration clocks (and the collective memos below)
                // restart fresh in the importing universe.
                let mut cells = selector::EMPTY_CELL_GRID;
                lock(&p.model).selector.copy_cells(&mut cells);
                for (ci, row) in cells.iter().enumerate() {
                    for (ai, &(bits, n)) in row.iter().enumerate() {
                        if n > 0 {
                            let _ = writeln!(out, "arm {src} {dst} {ci} {ai} {bits:#x} {n}");
                        }
                    }
                }
            }
        }
        for (k, g, c, a, bw, n) in lock(&self.coll).grid.sampled() {
            let _ = writeln!(out, "coll {k} {g} {c} {a} {:#x} {n}", bw.to_bits());
        }
        out
    }

    /// Restore a snapshot produced by [`Tuner::export_snapshot`].
    /// Tolerant of pairs outside this universe's rank count (a snapshot
    /// from a larger universe simply drops them); unknown or malformed
    /// lines are skipped. Importing materializes exactly the pairs the
    /// snapshot names — a sparse snapshot stays sparse.
    pub fn import_snapshot(&self, snap: &str) {
        fn parse_u64(s: &str) -> Option<u64> {
            match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        }
        for line in snap.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            // Collective-bandit cells are universe-global, not pair
            // lines: handle them before the pair-materializing path
            // below (their second field is a kind code, not a rank).
            if f.first() == Some(&"coll") {
                if f.len() == 7 {
                    if let (
                        Some(kind),
                        Some(gclass),
                        Some(mclass),
                        Some(arm),
                        Some(bits),
                        Some(n),
                    ) = (
                        f[1].parse::<usize>().ok(),
                        f[2].parse::<usize>().ok(),
                        f[3].parse::<usize>().ok(),
                        f[4].parse::<usize>().ok(),
                        parse_u64(f[5]),
                        f[6].parse::<u32>().ok(),
                    ) {
                        lock(&self.coll)
                            .grid
                            .import_cell(kind, gclass, mclass, arm, bits, n);
                    }
                }
                continue;
            }
            let (Some(&tag), Some(src), Some(dst)) = (
                f.first(),
                f.get(1).and_then(|s| s.parse::<usize>().ok()),
                f.get(2).and_then(|s| s.parse::<usize>().ok()),
            ) else {
                continue;
            };
            if src >= self.nprocs || dst >= self.nprocs {
                continue;
            }
            // A bandwidth cell must be a finite, non-negative f64: a
            // corrupt snapshot must not plant a NaN the selector's
            // `total_cmp` would rank above every real bandwidth.
            let sane_bw = |bits: u64| {
                let bw = f64::from_bits(bits);
                bw.is_finite() && bw >= 0.0
            };
            let p = self.pair(src, dst);
            match (tag, f.len()) {
                ("pair", 9) => {
                    let vals: Option<Vec<u64>> = f[3..9].iter().map(|s| parse_u64(s)).collect();
                    if let Some(v) = vals {
                        if !(sane_bw(v[3]) && sane_bw(v[4])) {
                            continue;
                        }
                        let dma = v[0].clamp(self.floor, self.ceil);
                        p.dma_min
                            .store(if v[0] == 0 { 0 } else { dma }, Ordering::Relaxed);
                        p.chunk.store(v[1], Ordering::Relaxed);
                        p.placement.store(v[2] as u32, Ordering::Relaxed);
                        p.copy_bw.store(v[3], Ordering::Relaxed);
                        p.offload_bw.store(v[4], Ordering::Relaxed);
                        p.samples.store(v[5], Ordering::Relaxed);
                    }
                }
                ("nt", 4) => {
                    if let Some(v) = parse_u64(f[3]) {
                        if v != 0 {
                            p.nt_min.store(v.min(self.ceil), Ordering::Relaxed);
                        }
                    }
                }
                ("rail", 5) => {
                    if let (Some(kind), Some(bits)) = (f[3].parse::<usize>().ok(), parse_u64(f[4]))
                    {
                        if kind < NRAIL_KINDS && sane_bw(bits) {
                            p.rail_bw[kind].store(bits, Ordering::Relaxed);
                        }
                    }
                }
                ("arm", 7) => {
                    if let (Some(class), Some(arm), Some(bits), Some(n)) = (
                        f[3].parse::<usize>().ok(),
                        f[4].parse::<usize>().ok(),
                        parse_u64(f[5]),
                        f[6].parse::<u32>().ok(),
                    ) {
                        lock(&p.model).selector.import_cell(class, arm, bits, n);
                    }
                }
                _ => {}
            }
        }
    }
}

fn placement_code(p: Placement) -> u32 {
    match p {
        Placement::SameCore => 0,
        Placement::SharedL2 => 1,
        Placement::SharedL3 => 2,
        Placement::SameSocketDifferentDie => 3,
        Placement::DifferentSocket => 4,
    }
}

fn placement_from_code(c: u32) -> Option<Placement> {
    Some(match c {
        0 => Placement::SameCore,
        1 => Placement::SharedL2,
        2 => Placement::SharedL3,
        3 => Placement::SameSocketDifferentDie,
        4 => Placement::DifferentSocket,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: TransferClass, bytes: u64, elapsed_ps: u64) -> TransferSample {
        TransferSample {
            backend: "test",
            class,
            placement: Placement::SharedL2,
            bytes,
            elapsed_ps,
            concurrency: 1,
            rail: None,
        }
    }

    /// Synthetic machine: copy costs c·n, offload costs S + o·n, so the
    /// true crossover is S/(c−o).
    fn feed_synthetic(t: &Tuner, copy_ps_per_b: u64, offload_setup: u64, offload_ps_per_b: u64) {
        for round in 0..40 {
            for exp in 17..24u32 {
                // 128 KiB .. 8 MiB, with a deterministic size wobble so
                // classes see varied lengths.
                let n = (1u64 << exp) + (round * 97) % 1000;
                t.record(0, 1, &sample(TransferClass::Copy, n, copy_ps_per_b * n));
                t.record(
                    0,
                    1,
                    &sample(
                        TransferClass::Offload,
                        n,
                        offload_setup + offload_ps_per_b * n,
                    ),
                );
            }
        }
    }

    #[test]
    fn learns_a_synthetic_crossover_within_tolerance() {
        let t = Tuner::new(2, 64 << 10);
        // copy 3 ps/B; offload 1 ps/B + 4.2 ms setup → crossover at
        // 4.2e9/2 = 2.1e9/1e3… pick numbers for ~1 MiB: setup = 2 ps/B
        // gap × 1 MiB = 2 × (1<<20) ps.
        let setup = 2 * (1u64 << 20);
        feed_synthetic(&t, 3, setup, 1);
        let learned = t.dma_min(0, 1, u64::MAX);
        let truth = 1u64 << 20;
        assert!(
            learned >= truth / 2 && learned <= truth * 2,
            "learned {learned} not within 2x of true crossover {truth}"
        );
    }

    #[test]
    fn degenerate_samples_are_discarded_and_threshold_clamped() {
        let t = Tuner::new(2, 64 << 10);
        // Zero-byte / zero-time junk must not publish anything.
        t.record(0, 1, &sample(TransferClass::Offload, 0, 100));
        t.record(0, 1, &sample(TransferClass::Offload, 100, 0));
        // Tiny eager-regime messages must not feed the model either.
        for _ in 0..100 {
            t.record(0, 1, &sample(TransferClass::Offload, 1 << 10, 10));
            t.record(0, 1, &sample(TransferClass::Copy, 1 << 10, 1_000_000));
        }
        assert_eq!(t.snapshot(0, 1).samples, 0);
        assert_eq!(t.snapshot(0, 1).dma_min, 0, "nothing learned");
        // Offload winning at *every* observable size can drive the
        // learned value down only to the eager switchover, never below
        // — even when fed sizes in the class straddling the switchover.
        for _ in 0..40 {
            t.record(
                0,
                1,
                &sample(TransferClass::Copy, 100 << 10, 100 * (100 << 10)),
            );
            t.record(0, 1, &sample(TransferClass::Offload, 100 << 10, 100 << 10));
        }
        feed_synthetic(&t, 100, 0, 1);
        let learned = t.dma_min(0, 1, 1 << 20);
        assert!(
            learned >= 64 << 10,
            "learned {learned} sank below the eager/rendezvous switchover"
        );
        assert!(
            learned <= 128 << 10,
            "offload winning everywhere should drive the threshold to the \
             smallest observable class, got {learned}"
        );
        // And a degenerate prior is clamped too.
        let fresh = Tuner::new(2, 64 << 10);
        assert_eq!(fresh.dma_min(0, 1, 0), 64 << 10);
    }

    #[test]
    fn copy_always_winning_raises_the_threshold() {
        let t = Tuner::new(2, 64 << 10);
        feed_synthetic(&t, 1, 0, 3); // offload strictly worse everywhere
        let learned = t.dma_min(0, 1, 1 << 20);
        assert!(
            learned >= 8 << 20,
            "threshold should rise past the biggest observed size, got {learned}"
        );
    }

    #[test]
    fn exploration_is_deterministic_and_in_band_only() {
        let t = Tuner::new(2, 64 << 10);
        // Far out of band: never explores.
        for _ in 0..100 {
            assert!(t.offload_decision(0, 1, 1 << 30, 1 << 20));
            assert!(!t.offload_decision(0, 1, 70 << 10, 1 << 20));
        }
        // In band: exactly one flip per 8 decisions.
        let flips = (0..64)
            .filter(|_| !t.offload_decision(0, 1, 2 << 20, 1 << 20))
            .count();
        assert_eq!(flips, 64 / 8);
    }

    #[test]
    fn chunk_sweet_spot_tracks_best_throughput() {
        let t = Tuner::new(2, 64 << 10);
        // 32 KiB chunks run at 2 ps/B, everything else at 4 ps/B.
        for _ in 0..20 {
            for exp in 12..18u32 {
                let n = 1u64 << exp;
                let ps_per_b = if exp == 15 { 2 } else { 4 };
                t.record_chunk(0, 1, n, ps_per_b * n);
            }
        }
        assert_eq!(t.chunk_target(0, 1, 4096), 32 << 10);
        // Unlearned pairs fall back to the default.
        assert_eq!(t.chunk_target(1, 0, 4096), 4096);
    }

    #[test]
    fn snapshot_reports_placement_and_counts() {
        let t = Tuner::new(2, 64 << 10);
        assert_eq!(t.snapshot(0, 1).placement, None);
        t.record(0, 1, &sample(TransferClass::Copy, 1 << 20, 1 << 20));
        let s = t.snapshot(0, 1);
        assert_eq!(s.placement, Some(Placement::SharedL2));
        assert_eq!(s.samples, 1);
    }

    /// Synthetic store flavours: temporal costs c·n, NT costs S + o·n
    /// (streaming stores pay a flat fence/setup charge but skip the
    /// read-for-ownership per byte), so the true crossover is S/(c−o).
    fn feed_nt(t: &Tuner, temporal_ps_per_b: u64, nt_setup: u64, nt_ps_per_b: u64) {
        for round in 0..40 {
            for exp in 17..24u32 {
                let n = (1u64 << exp) + (round * 97) % 1000;
                t.record_copy_mode(0, 1, false, n, temporal_ps_per_b * n);
                t.record_copy_mode(0, 1, true, n, nt_setup + nt_ps_per_b * n);
            }
        }
    }

    #[test]
    fn nt_crossover_publishes_temporal_below_and_nt_above() {
        let t = Tuner::new(2, 64 << 10);
        let llc = 8u64 << 20;
        // Unlearned: the LLC-size prior stands, and decisions follow it.
        assert_eq!(t.nt_min(0, 1, llc), llc);
        // temporal 3 ps/B; NT 1 ps/B + 2 MiB·ps setup → crossover 1 MiB.
        let setup = 2 * (1u64 << 20);
        feed_nt(&t, 3, setup, 1);
        let learned = t.nt_min(0, 1, llc);
        let truth = 1u64 << 20;
        assert!(
            learned >= truth / 2 && learned <= truth * 2,
            "learned NT threshold {learned} not within 2x of {truth}"
        );
        // Far out of band the decision is deterministic: temporal below
        // the threshold, streaming stores above it.
        assert!(!t.nt_decision(0, 1, learned / 8, learned));
        assert!(t.nt_decision(0, 1, learned.saturating_mul(8), learned));
        // Degenerate samples never perturb the model.
        t.record_copy_mode(0, 1, true, 0, 100);
        t.record_copy_mode(0, 1, false, 100, 0);
        assert_eq!(t.nt_min(0, 1, llc), learned);
    }

    #[test]
    fn nt_threshold_is_sticky_under_hysteresis() {
        let t = Tuner::new(2, 64 << 10);
        let setup = 2 * (1u64 << 20);
        feed_nt(&t, 3, setup, 1);
        let first = t.nt_min(0, 1, 8 << 20);
        // A light wobble in the same direction (crossover moves a few
        // percent) stays inside the 1.1x hysteresis band: the published
        // value must not chatter.
        for _ in 0..3 {
            for exp in 17..24u32 {
                let n = 1u64 << exp;
                t.record_copy_mode(0, 1, false, n, 3 * n + n / 50);
                t.record_copy_mode(0, 1, true, n, setup + n);
            }
        }
        assert_eq!(
            t.nt_min(0, 1, 8 << 20),
            first,
            "sub-hysteresis drift must not republish the NT threshold"
        );
        // A decisive regime change (NT now strictly worse everywhere)
        // does move it.
        feed_nt(&t, 1, 0, 3);
        assert!(
            t.nt_min(0, 1, 8 << 20) > first,
            "regime flip should raise the NT threshold past {first}"
        );
    }

    #[test]
    fn nt_threshold_survives_a_snapshot_roundtrip() {
        let t = Tuner::new(2, 64 << 10);
        feed_nt(&t, 3, 2 * (1u64 << 20), 1);
        let learned = t.nt_min(0, 1, 8 << 20);
        let snap = t.export_snapshot();
        assert!(snap.lines().any(|l| l.starts_with("nt 0 1 ")));
        let fresh = Tuner::new(2, 64 << 10);
        fresh.import_snapshot(&snap);
        assert_eq!(fresh.nt_min(0, 1, 8 << 20), learned);
    }

    fn rail_sample(kind: RailKind, class: TransferClass, ps_per_b: u64) -> TransferSample {
        TransferSample {
            rail: Some(kind),
            ..sample(class, 1 << 20, ps_per_b << 20)
        }
    }

    /// Regression for the PR-4 shared-EWMA bug: vmsplice and ring rail
    /// samples used to fold into the same Copy cell CMA published to,
    /// flattening 3+-rail span weights. Each rail kind now owns a cell.
    #[test]
    fn rail_kind_cells_are_isolated() {
        let t = Tuner::new(2, 64 << 10);
        // CMA is fast (1 ps/B); vmsplice and the ring are slow (8 ps/B).
        for _ in 0..8 {
            t.record(0, 1, &rail_sample(RailKind::Cma, TransferClass::Copy, 1));
            t.record(
                0,
                1,
                &rail_sample(RailKind::Vmsplice, TransferClass::Copy, 8),
            );
            t.record(0, 1, &rail_sample(RailKind::Shm, TransferClass::Copy, 8));
        }
        let cma = t.rail_bandwidth(0, 1, RailKind::Cma);
        let vms = t.rail_bandwidth(0, 1, RailKind::Vmsplice);
        let shm = t.rail_bandwidth(0, 1, RailKind::Shm);
        assert!(
            cma > 4.0 * vms && cma > 4.0 * shm,
            "slow CPU rails must not drag the CMA cell down: cma={cma} vms={vms} shm={shm}"
        );
        // The blended Copy-class cell still aggregates all three (its
        // consumers expect the blend), but the per-kind cells do not
        // bleed into each other.
        let (copy, _) = t.pair_bandwidths(0, 1);
        assert!(copy < cma && copy > vms);
        assert_eq!(t.rail_bandwidth(0, 1, RailKind::KnemIoat), 0.0, "unsampled");
        // And the other direction's pair is untouched.
        assert_eq!(t.rail_bandwidth(1, 0, RailKind::Cma), 0.0);
    }

    /// A placement change mid-run (process migration) bumps the pair's
    /// epoch, decays the models, and forces the selector to re-probe
    /// every arm within `NARMS x MIN_PROBE` decisions.
    #[test]
    fn placement_change_decays_and_reexplores() {
        use selector::{ARMS, MIN_PROBE, NARMS};
        let t = Tuner::new(2, 64 << 10);
        let all = [true; NARMS];
        // Converge the selector on arm 4 under SharedL2.
        for _ in 0..6 {
            for (i, _) in ARMS.iter().enumerate() {
                t.observe_arm(0, 1, i, 1 << 20, if i == 4 { 1 << 20 } else { 4 << 20 });
            }
        }
        for _ in 0..40 {
            t.select_backend(0, 1, 1 << 20, &all);
        }
        t.record(0, 1, &sample(TransferClass::Copy, 1 << 20, 1 << 20));
        assert_eq!(t.pair_epoch(0, 1), 0);
        // Migrate: the same pair now reports a cross-socket placement.
        let migrated = TransferSample {
            placement: Placement::DifferentSocket,
            ..sample(TransferClass::Copy, 1 << 20, 1 << 20)
        };
        t.record(0, 1, &migrated);
        assert_eq!(t.pair_epoch(0, 1), 1, "migration must bump the epoch");
        // Decayed model re-probes every arm within NARMS*MIN_PROBE
        // observed transfers (pick → completion feedback, as in live
        // traffic).
        let mut seen = [false; NARMS];
        for _ in 0..NARMS as u32 * MIN_PROBE {
            let sel = t.select_backend(0, 1, 1 << 20, &all);
            let arm = selector::arm_of(sel).unwrap();
            seen[arm] = true;
            t.observe_arm(0, 1, arm, 1 << 20, 1 << 20);
        }
        assert!(
            seen.iter().all(|&s| s),
            "post-migration selector must re-probe every arm, saw {seen:?}"
        );
        // A same-placement sample does not bump the epoch again.
        t.record(0, 1, &migrated);
        assert_eq!(t.pair_epoch(0, 1), 1);
    }

    /// The snapshot round-trips the published decisions into a fresh
    /// tuner (the cross-universe persistence path).
    #[test]
    fn snapshot_roundtrips_into_a_fresh_tuner() {
        let t = Tuner::new(2, 64 << 10);
        feed_synthetic(&t, 3, 2 * (1u64 << 20), 1);
        for _ in 0..5 {
            t.record_chunk(0, 1, 32 << 10, 2 * (32 << 10));
            t.record(0, 1, &rail_sample(RailKind::Cma, TransferClass::Copy, 1));
        }
        for arm in 0..selector::NARMS {
            for _ in 0..3 {
                t.observe_arm(0, 1, arm, 1 << 20, if arm == 2 { 1 << 20 } else { 3 << 20 });
            }
        }
        let snap = t.export_snapshot();
        let fresh = Tuner::new(2, 64 << 10);
        fresh.import_snapshot(&snap);
        assert_eq!(
            fresh.snapshot(0, 1),
            t.snapshot(0, 1),
            "published decisions (and the lifetime sample count) must \
             survive the round-trip"
        );
        // Chained persistence: a warm-started universe that sees no new
        // traffic must still re-export the pair's state.
        assert_eq!(
            fresh.export_snapshot(),
            snap,
            "export → import → export must be lossless"
        );
        assert_eq!(
            fresh.dma_min(0, 1, u64::MAX),
            t.dma_min(0, 1, u64::MAX),
            "the warm-started universe answers with the learned threshold"
        );
        assert!(fresh.rail_bandwidth(0, 1, RailKind::Cma) > 0.0);
        // The imported selector cells skip the sweep and pick the
        // learned best arm immediately.
        let all = [true; selector::NARMS];
        assert_eq!(
            fresh.select_backend(0, 1, 1 << 20, &all),
            selector::ARMS[2],
            "warm-started selector must exploit, not re-sweep"
        );
        // Unknown lines, out-of-range pairs, and non-finite bandwidths
        // (a NaN cell would outrank every real bandwidth under
        // `total_cmp` and lock in a bogus incumbent) are skipped
        // quietly.
        fresh.import_snapshot(
            "garbage\npair 9 9 1 2 3 0x0 0x0 1\narm 0 1 999 999 0x0 1\n\
             arm 0 1 4 3 0x7ff8000000000000 3\nrail 0 1 0 0x7ff8000000000000\n",
        );
        assert_eq!(
            fresh.export_snapshot(),
            snap,
            "corrupt records must not perturb the learned state"
        );
    }

    /// Pair cells materialize on first traffic only: a big universe
    /// holds state for touched pairs, never `nprocs²`, and read-only
    /// inspection does not inflate the resident set.
    #[test]
    fn pairs_materialize_lazily_and_reads_do_not_materialize() {
        let t = Tuner::new(256, 64 << 10);
        assert_eq!(t.resident_pairs(), 0, "construction allocates no pairs");
        // Inspection across the whole universe: still nothing resident.
        for src in 0..256 {
            let _ = t.snapshot(src, (src + 1) % 256);
            assert_eq!(t.dma_min(src, 0, 1 << 20), 1 << 20);
            assert_eq!(t.chunk_target(0, src, 4096), 4096);
            let _ = t.pair_bandwidths(src, 1);
            let _ = t.peek_backend(src, 1, 1 << 20, &[true; selector::NARMS]);
        }
        assert_eq!(t.resident_pairs(), 0, "reads must not materialize cells");
        // Traffic on 8 directed pairs resides exactly 8 cells.
        for i in 0..8 {
            t.record(i, i + 8, &sample(TransferClass::Copy, 1 << 20, 1 << 20));
        }
        assert_eq!(t.resident_pairs(), 8);
        // A sparse export from the big universe round-trips losslessly.
        let snap = t.export_snapshot();
        let fresh = Tuner::new(256, 64 << 10);
        fresh.import_snapshot(&snap);
        assert_eq!(
            fresh.resident_pairs(),
            8,
            "import materializes only named pairs"
        );
        assert_eq!(fresh.export_snapshot(), snap);
        // …and a smaller universe tolerates the out-of-range pairs.
        let small = Tuner::new(4, 64 << 10);
        small.import_snapshot(&snap);
        assert_eq!(
            small.resident_pairs(),
            0,
            "all pairs out of range for 4 ranks"
        );
    }

    /// A fresh pair at a known placement inherits its sibling's learned
    /// crossover (and selector incumbent) within a couple of transfers,
    /// instead of re-exploring from scratch.
    #[test]
    fn placement_prior_warm_starts_a_fresh_pair() {
        let t = Tuner::new(8, 64 << 10);
        // Pair (0,1) learns a crossover near 1 MiB at SharedL2, and
        // converges its selector on arm 2.
        feed_synthetic(&t, 3, 2 * (1u64 << 20), 1);
        for arm in 0..selector::NARMS {
            for _ in 0..3 {
                t.observe_arm(0, 1, arm, 1 << 20, if arm == 2 { 1 << 20 } else { 3 << 20 });
            }
        }
        let sibling_dma = t.dma_min(0, 1, u64::MAX);
        // Fresh pair (4,5), same placement (`sample()` uses SharedL2):
        // one recorded transfer adopts the sibling's published
        // crossover…
        t.record(4, 5, &sample(TransferClass::Copy, 1 << 20, 1 << 20));
        assert_eq!(
            t.dma_min(4, 5, u64::MAX),
            sibling_dma,
            "fresh pair must inherit the same-placement sibling's crossover"
        );
        // …and its selector exploits the sibling's incumbent instead of
        // sweeping.
        let all = [true; selector::NARMS];
        assert_eq!(
            t.select_backend(4, 5, 1 << 20, &all),
            selector::ARMS[2],
            "fresh pair must exploit the inherited selector cells"
        );
        // A pair at a *different* placement inherits nothing (no donor
        // at that placement yet).
        let cross = TransferSample {
            placement: Placement::DifferentSocket,
            ..sample(TransferClass::Copy, 1 << 20, 1 << 20)
        };
        t.record(6, 7, &cross);
        assert_eq!(
            t.dma_min(6, 7, 1 << 20),
            1 << 20,
            "no donor at DifferentSocket: the configured prior stands"
        );
    }

    /// An imported snapshot wins over the placement prior: seeding only
    /// fills unset cells.
    #[test]
    fn imported_state_beats_the_placement_prior() {
        let t = Tuner::new(4, 64 << 10);
        feed_synthetic(&t, 3, 2 * (1u64 << 20), 1); // donor at SharedL2
        let imported_dma = 4u64 << 20;
        t.import_snapshot(&format!(
            "nemesis-tuner-v1\npair 2 3 {imported_dma} 0 1 0x0 0x0 5\n"
        ));
        // First live sample at the donor's placement must not clobber
        // the imported threshold.
        t.record(2, 3, &sample(TransferClass::Copy, 1 << 20, 1 << 20));
        assert_eq!(t.dma_min(2, 3, u64::MAX), imported_dma);
    }
}
