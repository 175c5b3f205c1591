//! The Nemesis communication engine: eager protocol, rendezvous over
//! the pluggable LMT backend layer, and the polling progress loop.
//!
//! Protocol summary (§2):
//!
//! * Messages up to `eager_max` (64 KiB by default) are **eager**: the
//!   sender copies the payload into shared cells and enqueues an envelope
//!   on the receiver's queue; the receiver copies the cells out — two
//!   copies, but no handshake. ([`eager`])
//! * Larger messages use **rendezvous**: an RTS envelope announces the
//!   message; the data then flows through the selected
//!   [`LmtBackend`](crate::lmt::LmtBackend) — the double-buffered shared
//!   copy ring, pipe+`writev`, pipe+`vmsplice`, or KNEM (see
//!   [`crate::lmt`] for the backend table). ([`rendezvous`])
//!
//! All transfer work happens in bounded steps inside [`Comm::progress`]
//! ([`progress`]), so sends, receives and collective phases overlap
//! exactly as they do in the real polling-based implementation.

pub(crate) mod eager;
pub(crate) mod progress;
pub(crate) mod rendezvous;
mod state;

pub use state::{MessageInfo, Request};

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};

use nemesis_kernel::{BufId, Os};
use nemesis_model::sync::lock;
use nemesis_sim::{Proc, Ps};

use crate::config::{LmtSelect, NemesisConfig};
use crate::lmt::{self, policy};
use crate::shm::{PairPipe, Ring, ShmSegment, ShmState};
use crate::vector::VectorLayout;

use state::{CommInner, PostedRecv, ReqState};

/// Virtual-time watchdog: a blocking call that exceeds this much simulated
/// time aborts the run (almost certainly an application deadlock).
pub(super) const WATCHDOG_PS: Ps = 200_000_000_000_000; // 200 simulated seconds

/// Cap on RTS re-announcements and DONE re-sends per transfer (the
/// capped half of the capped-exponential retry). Fault budgets are
/// finite, so a retry always gets through within the cap; stopping
/// afterwards keeps a genuinely dead peer from generating control
/// traffic forever.
pub(super) const MAX_CTRL_RETRIES: u32 = 6;

/// Tag wildcard.
pub const ANY_TAG: Option<i32> = None;
/// Source wildcard.
pub const ANY_SOURCE: Option<usize> = None;

/// Typed per-peer resolution error: the configured backend cannot serve
/// a transfer to this peer (module absent, syscall missing, anchor rail
/// unavailable). Selection never falls back silently — a fixed
/// selection that cannot run is surfaced as this error (and the send
/// path fails loudly with it), so a misconfigured universe is caught at
/// the first transfer instead of quietly taking a different data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendUnavailable {
    /// The selection that could not be honoured.
    pub select: LmtSelect,
    /// Destination rank of the transfer being resolved.
    pub peer: usize,
    /// What is missing.
    pub reason: &'static str,
}

impl std::fmt::Display for BackendUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend {:?} unavailable for peer {}: {}",
            self.select, self.peer, self.reason
        )
    }
}

impl std::error::Error for BackendUnavailable {}

/// Observable health of a directed peer path, as the sender sees it
/// (`src → dst` in transfer direction). Only maintained when a fault
/// plan is loaded; fault-free universes report every pair [`Healthy`]
/// (`PeerHealth::Healthy`) without touching the map.
///
/// The machine: `Healthy → Suspect` on a missed retry deadline,
/// `Suspect → Quarantined` on the second strike, `Quarantined →
/// Probing` after the holdoff (one undegraded transfer probes the
/// path), then `Probing → Healthy` on completion or back to
/// `Quarantined` on another timeout. While `Suspect`, striped
/// transfers degrade to their CMA anchor; while `Quarantined`,
/// everything degrades to the copy ring (the one wire with no kernel
/// mechanism to lose). Re-admission is therefore *probed*, never
/// assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerHealth {
    /// No missed deadlines; full selection applies.
    #[default]
    Healthy,
    /// One missed retry deadline: striped → anchor.
    Suspect,
    /// Two strikes (or a failed probe): everything → ring until the
    /// holdoff expires.
    Quarantined,
    /// Holdoff expired; one undegraded transfer is testing the path.
    Probing,
}

/// Per-pair health bookkeeping (see [`PeerHealth`]).
#[derive(Debug, Clone, Copy, Default)]
struct PeerCell {
    state: PeerHealth,
    /// When the current state was entered (drives the quarantine
    /// holdoff).
    since: Ps,
    /// Consecutive missed deadlines while not yet quarantined.
    strikes: u32,
}

/// The shared communication universe: one per simulation.
pub struct Nemesis {
    pub(crate) os: Arc<Os>,
    pub(crate) cfg: NemesisConfig,
    pub(crate) nprocs: usize,
    pub(crate) seg: ShmSegment,
    pub(crate) sh: Mutex<ShmState>,
    /// The transfer-decision facade, built once: every eager/rendezvous
    /// switch, `DMAmin` query, copy-vs-offload resolution and chunk
    /// schedule goes through it (and, under learned configurations,
    /// every completion feeds back into it). Decisions sit on the
    /// per-transfer path, so they must be lock-free reads — see
    /// [`crate::lmt::tuner`] for the contract.
    pub(crate) policy: crate::lmt::TransferPolicy,
    /// Core each rank runs on, learned at [`Nemesis::attach`] time (the
    /// blended LMT policy consults the pair's cache-sharing relation,
    /// the tuner records per-placement samples).
    cores: Mutex<Vec<Option<usize>>>,
    /// Rail-health registry for striped transfers: `(src, dst,
    /// RailKind::code)` triples of rails that errored mid-transfer. A
    /// quarantined kind is excluded when that pair composes its next
    /// stripe set (the receiver marks, the sender consults — the shared
    /// universe stands in for the NACK a real transport would send).
    failed_rails: Mutex<std::collections::HashSet<(usize, usize, u8)>>,
    /// The deterministic fault injector, armed from
    /// [`NemesisConfig::fault_plan`]. Inert (one branch per query) when
    /// no plan is loaded.
    faults: crate::fault::FaultEngine,
    /// Peer-health cells, keyed by directed pair (sender's view). Only
    /// populated while a fault plan is loaded.
    health: Mutex<std::collections::HashMap<(usize, usize), PeerCell>>,
}

impl Drop for Nemesis {
    /// Universe teardown writes the learned state back to the
    /// configured snapshot file, closing the persistence loop the
    /// construction-time load opens (`NEMESIS_TUNER_SNAPSHOT`).
    fn drop(&mut self) {
        self.save_tuner_snapshot();
    }
}

impl Nemesis {
    /// Build the universe (allocates the shared segment). Call before
    /// `run_simulation`; each process then calls [`Nemesis::attach`].
    pub fn new(os: Arc<Os>, nprocs: usize, cfg: NemesisConfig) -> Arc<Self> {
        let (seg, state) = ShmSegment::new(&os, nprocs, &cfg);
        let policy = crate::lmt::TransferPolicy::from_config(&cfg, nprocs);
        let faults = crate::fault::FaultEngine::new(cfg.fault_plan.as_ref());
        Arc::new(Self {
            os,
            cfg,
            nprocs,
            seg,
            sh: Mutex::new(state),
            policy,
            cores: Mutex::new(vec![None; nprocs]),
            failed_rails: Mutex::new(std::collections::HashSet::new()),
            faults,
            health: Mutex::new(std::collections::HashMap::new()),
        })
    }

    pub fn os(&self) -> &Arc<Os> {
        &self.os
    }

    pub fn cfg(&self) -> &NemesisConfig {
        &self.cfg
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Attach the calling simulated process, producing its endpoint.
    pub fn attach<'a>(self: &Arc<Self>, p: &'a Proc) -> Comm<'a> {
        assert!(p.pid() < self.nprocs, "pid outside communicator");
        lock(&self.cores)[p.pid()] = Some(p.core());
        Comm {
            p,
            nem: Arc::clone(self),
            inner: RefCell::new(CommInner::default()),
            concurrency: Cell::new(1),
            ugroup: std::cell::OnceCell::new(),
            coll_stripe: Cell::new(false),
            scratch: Cell::new(None),
            polls: Cell::new(0),
        }
    }

    /// The transfer-decision facade (reports and tests introspect the
    /// learned state through it).
    pub fn policy(&self) -> &crate::lmt::TransferPolicy {
        &self.policy
    }

    /// Persist the learned state to
    /// [`tuner_snapshot_path`](NemesisConfig::tuner_snapshot_path) now
    /// (no-op without a path or a tuner). Teardown calls this; exposed
    /// for checkpointing mid-run. An unwritable path is logged and
    /// tolerated — losing a warm-start must never abort teardown (this
    /// runs from `Drop`, where a panic would escalate to a process
    /// abort if the universe unwinds during another panic).
    pub fn save_tuner_snapshot(&self) {
        if let (Some(path), Some(snap)) = (
            self.cfg.tuner_snapshot_path.as_ref(),
            self.policy.export_snapshot(),
        ) {
            if let Err(e) = std::fs::write(path, snap) {
                eprintln!("nemesis: tuner snapshot not saved to {path:?}: {e} (continuing)");
            }
        }
    }

    /// The deterministic fault injector (inert without a configured
    /// plan).
    pub fn faults(&self) -> &crate::fault::FaultEngine {
        &self.faults
    }

    /// Current health of the directed pair, as the sender sees it.
    pub fn peer_health(&self, src: usize, dst: usize) -> PeerHealth {
        lock(&self.health)
            .get(&(src, dst))
            .map(|c| c.state)
            .unwrap_or_default()
    }

    /// A rendezvous to `dst` missed its retry deadline: advance the
    /// pair's health machine. `sel` is the selection the stalled
    /// transfer ran under — on quarantine entry under the learned
    /// backend its arm is demoted, so the bandit's demotion window and
    /// the health holdoff expire together and re-admission goes through
    /// one probe instead of an immediate re-pick.
    pub(crate) fn note_peer_timeout(
        &self,
        src: usize,
        dst: usize,
        now: Ps,
        sel: Option<LmtSelect>,
    ) {
        let mut health = lock(&self.health);
        let cell = health.entry((src, dst)).or_default();
        let quarantine = |cell: &mut PeerCell| {
            cell.state = PeerHealth::Quarantined;
            cell.since = now;
            cell.strikes = 0;
        };
        match cell.state {
            PeerHealth::Healthy => {
                cell.state = PeerHealth::Suspect;
                cell.since = now;
                cell.strikes = 1;
            }
            PeerHealth::Suspect => {
                cell.strikes += 1;
                if cell.strikes >= 2 {
                    quarantine(cell);
                    if let Some(sel) = sel {
                        if self.policy.is_learned_backend() {
                            if let Some(tuner) = self.policy.tuner() {
                                tuner.demote_arm(src, dst, sel);
                            }
                        }
                    }
                }
            }
            // A failed probe goes straight back to quarantine (the
            // holdoff restarts).
            PeerHealth::Probing => quarantine(cell),
            PeerHealth::Quarantined => {}
        }
    }

    /// A rendezvous to `dst` completed: a Suspect or Probing pair is
    /// re-admitted as Healthy. (Quarantined pairs stay put — their
    /// degraded ring transfers completing proves nothing about the
    /// mechanisms that timed out; re-admission waits for the probe.)
    pub(crate) fn note_peer_ok(&self, src: usize, dst: usize) {
        if !self.faults.active() {
            return;
        }
        let mut health = lock(&self.health);
        if let Some(cell) = health.get_mut(&(src, dst)) {
            if matches!(cell.state, PeerHealth::Suspect | PeerHealth::Probing) {
                cell.state = PeerHealth::Healthy;
                cell.strikes = 0;
            }
        }
    }

    /// Degrade a resolved selection by the pair's health (fault-plan
    /// universes only): Suspect strips striping down to its CMA
    /// anchor; Quarantined degrades everything to the copy ring, until
    /// the holdoff (2× the retry deadline) expires — then the first
    /// *committed* resolution runs undegraded as the re-admission
    /// probe. This is the one place a fixed selection may change, and
    /// only because the fault contract documents it: a peer that
    /// stopped answering must not wedge every transfer behind a dead
    /// mechanism.
    fn degrade_for_health(
        &self,
        src: usize,
        dst: usize,
        sel: LmtSelect,
        commit: bool,
        now: Ps,
    ) -> LmtSelect {
        let mut health = lock(&self.health);
        let Some(cell) = health.get_mut(&(src, dst)) else {
            return sel;
        };
        match cell.state {
            PeerHealth::Healthy | PeerHealth::Probing => sel,
            PeerHealth::Suspect => match sel {
                LmtSelect::Striped { .. } if self.cfg.cma_available => LmtSelect::Cma,
                other => other,
            },
            PeerHealth::Quarantined => {
                let holdoff = 2 * self.cfg.retry_deadline_ps;
                if commit && now.saturating_sub(cell.since) >= holdoff {
                    cell.state = PeerHealth::Probing;
                    cell.since = now;
                    sel
                } else {
                    LmtSelect::ShmCopy
                }
            }
        }
    }

    /// Cache relation of two *ranks* (unattached ranks count as
    /// cross-socket — the conservative direction).
    pub(crate) fn placement_between(&self, a: usize, b: usize) -> nemesis_sim::topology::Placement {
        let cores = lock(&self.cores);
        match (cores[a], cores[b]) {
            (Some(ca), Some(cb)) => self.os.machine().cfg().topology.placement(ca, cb),
            _ => nemesis_sim::topology::Placement::DifferentSocket,
        }
    }

    /// Resolve the configured LMT selection for a `len`-byte transfer
    /// from rank `src` (running on `src_core`) to rank `dst`. Fixed
    /// selections are validated against the universe's availability
    /// flags — a configured backend the peer cannot be served by is a
    /// typed [`BackendUnavailable`] error, never a silent fallback.
    /// [`LmtSelect::Dynamic`] applies the §3.5 blended policy
    /// ([`policy::blended_select`]) under the pair's effective `DMAmin`
    /// (learned, when so configured); only the blended policy is
    /// *allowed* to degrade across backends, because degrading is its
    /// documented contract. An unattached destination (its core unknown
    /// yet) is treated as not sharing a cache — the conservative
    /// direction, since single-copy never loses badly. `commit` marks a
    /// resolution that a transfer will actually follow (see
    /// [`Nemesis::learned_backend_select`]); inspections pass `false`.
    /// `now` feeds the peer-health degradation (fault-plan universes
    /// only — see [`Nemesis::degrade_for_health`]).
    pub(crate) fn resolve_select(
        &self,
        src: usize,
        src_core: usize,
        dst: usize,
        len: u64,
        commit: bool,
        now: Ps,
    ) -> Result<LmtSelect, BackendUnavailable> {
        let unavailable = |select, reason| BackendUnavailable {
            select,
            peer: dst,
            reason,
        };
        let sel = match self.cfg.lmt {
            LmtSelect::Dynamic => {
                if let Some(sel) = self.learned_backend_select(src, dst, len, commit) {
                    sel
                } else {
                    let shared = match lock(&self.cores)[dst] {
                        Some(dst_core) => {
                            policy::cores_share_cache(self.os.machine(), src_core, dst_core)
                        }
                        None => false,
                    };
                    let dma_min = self.policy.dma_min(self.os.machine(), Some((src, dst)), 1);
                    policy::blended_select(&self.cfg, shared, len, dma_min)
                }
            }
            sel @ LmtSelect::Knem(_) if !self.cfg.knem_available => {
                return Err(unavailable(sel, "KNEM module not loaded"))
            }
            sel @ LmtSelect::Cma if !self.cfg.cma_available => {
                return Err(unavailable(sel, "kernel lacks process_vm_readv"))
            }
            sel @ LmtSelect::Vmsplice if !self.cfg.vmsplice_available => {
                return Err(unavailable(sel, "kernel lacks vmsplice"))
            }
            sel @ LmtSelect::Striped { .. } if !self.cfg.cma_available => {
                return Err(unavailable(
                    sel,
                    "striping requires the CMA anchor rail (process_vm_readv)",
                ))
            }
            fixed => fixed,
        };
        if !self.faults.active() {
            return Ok(sel);
        }
        Ok(self.degrade_for_health(src, dst, sel, commit, now))
    }

    /// The learned replacement of the blended `Dynamic` resolution:
    /// consult the tuner's per-(pair, size-class) backend bandit when
    /// [`BackendSelect::LearnedBackend`](crate::config::BackendSelect)
    /// is configured. Arms the universe cannot serve are masked out
    /// (the selector never returns an unresolvable selection), and a
    /// rail kind quarantined by the striped fault path demotes the arm
    /// built on that mechanism before picking (no re-pick until the
    /// selector's decay window expires).
    /// `commit` distinguishes a real selection (a transfer will run and
    /// report its reward) from an inspection (`Comm::try_select`): only
    /// committed selections advance the bandit's exploration state —
    /// an inspection must not burn sweep picks whose rewards never
    /// arrive.
    fn learned_backend_select(
        &self,
        src: usize,
        dst: usize,
        len: u64,
        commit: bool,
    ) -> Option<LmtSelect> {
        use crate::config::KnemSelect;
        use crate::lmt::tuner::selector::{arm_of, NARMS};
        use crate::lmt::RailKind;
        if !self.policy.is_learned_backend() {
            return None;
        }
        let tuner = self.policy.tuner()?;
        // A quarantined rail kind also demotes the selector arm that
        // *is* that mechanism (striped arms are spared: they compose
        // around the failed kind on their own). One pass over the
        // registry lock; the per-pair demote locks are only taken in
        // the rare case something actually failed.
        const KIND_ARMS: [(RailKind, LmtSelect); 4] = [
            (RailKind::Cma, LmtSelect::Cma),
            (RailKind::KnemIoat, LmtSelect::Knem(KnemSelect::Auto)),
            (RailKind::Vmsplice, LmtSelect::Vmsplice),
            (RailKind::Shm, LmtSelect::ShmCopy),
        ];
        let mut quarantined = [false; 4];
        {
            let failed = lock(&self.failed_rails);
            for (i, (kind, _)) in KIND_ARMS.iter().enumerate() {
                quarantined[i] = failed.contains(&(src, dst, kind.code()));
            }
        }
        for (i, (kind, sel)) in KIND_ARMS.iter().enumerate() {
            if !quarantined[i] {
                continue;
            }
            if tuner.arm_demote_spent(src, dst, *sel) && !tuner.arm_banned(src, dst, *sel) {
                // The demotion window has fully expired: the arm served
                // its sentence. Re-admit the rail kind so the next
                // transfer that picks this arm *probes* the mechanism;
                // clearing the demotion lets a second fault demote it
                // again rather than silently re-picking forever.
                self.clear_rail_failure(src, dst, kind.code());
                tuner.arm_reset_demotion(src, dst, *sel);
            } else {
                tuner.demote_arm(src, dst, *sel);
            }
        }
        let mut eligible = [true; NARMS];
        for (i, &arm) in crate::lmt::tuner::selector::ARMS.iter().enumerate() {
            eligible[i] = match arm {
                LmtSelect::Knem(_) => self.cfg.knem_available,
                LmtSelect::Cma => self.cfg.cma_available,
                LmtSelect::Vmsplice => self.cfg.vmsplice_available,
                // Striping needs its CMA anchor; the other rails are
                // composed (and skipped) per availability inside it.
                LmtSelect::Striped { .. } => self.cfg.cma_available,
                _ => true,
            };
        }
        let sel = if commit {
            self.policy.select_backend(src, dst, len, &eligible)?
        } else {
            self.policy.peek_select_backend(src, dst, len, &eligible)?
        };
        debug_assert!(arm_of(sel).is_some());
        Some(sel)
    }

    /// Whether a rail kind is quarantined for the directed pair.
    pub(crate) fn rail_failed(&self, src: usize, dst: usize, kind: u8) -> bool {
        lock(&self.failed_rails).contains(&(src, dst, kind))
    }

    /// Quarantine a rail kind for the directed pair; returns `true` the
    /// first time (so an injected fault fires exactly once per pair).
    pub(crate) fn mark_rail_failed(&self, src: usize, dst: usize, kind: u8) -> bool {
        lock(&self.failed_rails).insert((src, dst, kind))
    }

    /// Lift a rail kind's quarantine for the directed pair — the
    /// re-admission path once its selector demotion window has expired
    /// (see [`Nemesis::learned_backend_select`]). Returns whether the
    /// entry existed.
    pub(crate) fn clear_rail_failure(&self, src: usize, dst: usize, kind: u8) -> bool {
        lock(&self.failed_rails).remove(&(src, dst, kind))
    }

    /// The quarantined rail kinds of a directed pair, as
    /// [`RailKind::code`](crate::lmt::RailKind::code) values
    /// (diagnostics and tests).
    pub fn failed_rails(&self, src: usize, dst: usize) -> Vec<u8> {
        let mut v: Vec<u8> = lock(&self.failed_rails)
            .iter()
            .filter(|&&(s, d, _)| s == src && d == dst)
            .map(|&(_, _, k)| k)
            .collect();
        v.sort_unstable();
        v
    }

    /// Lazily create the copy ring for `(src, dst)`.
    pub(crate) fn ensure_ring(&self, src: usize, dst: usize) {
        let mut sh = lock(&self.sh);
        sh.rings.entry((src, dst)).or_insert_with(|| Ring {
            bufs: (0..self.cfg.ring_bufs)
                .map(|_| self.os.alloc_shared(self.cfg.ring_chunk))
                .collect(),
            flags_buf: self.os.alloc_shared(self.cfg.ring_bufs as u64 * 64),
            fill: vec![0; self.cfg.ring_bufs],
            owner: None,
        });
    }

    /// Lazily create (or fetch) the pipe for `(src, dst)`.
    pub(crate) fn ensure_pipe(&self, src: usize, dst: usize) -> nemesis_kernel::PipeId {
        let key = (src, dst);
        {
            let sh = lock(&self.sh);
            if let Some(pp) = sh.pipes.get(&key) {
                return pp.pipe;
            }
        }
        // Create outside the lock (pipe_create takes the OS lock).
        let pipe = self.os.pipe_create();
        let mut sh = lock(&self.sh);
        sh.pipes
            .entry(key)
            .or_insert(PairPipe {
                pipe,
                busy_parties: 0,
            })
            .pipe
    }
}

/// A process's endpoint into the Nemesis universe.
pub struct Comm<'a> {
    pub(in crate::comm) p: &'a Proc,
    pub(in crate::comm) nem: Arc<Nemesis>,
    pub(in crate::comm) inner: RefCell<CommInner>,
    /// Concurrency hint attached to outgoing RTS packets (set by the
    /// collective layer when `collective_hint` is enabled).
    pub(in crate::comm) concurrency: Cell<u32>,
    /// Cached universe group (collective sequencing lives in the group
    /// — see `crate::coll::CommGroup`), built on first legacy
    /// (group-less) collective call.
    pub(crate) ugroup: std::cell::OnceCell<crate::coll::CommGroup>,
    /// Whether a large-message collective phase is in flight: the
    /// striped backend then rotates each destination's candidate rail
    /// order so concurrent transfers start on disjoint rails instead of
    /// all contending for the anchor (§6).
    pub(crate) coll_stripe: Cell<bool>,
    /// Lazily-allocated one-page scratch buffer (barrier tokens etc.).
    pub(crate) scratch: Cell<Option<BufId>>,
    /// Lifetime count of [`Comm::progress`] calls (scaling diagnostics:
    /// benches divide host wall-clock by this to get cost per poll).
    pub(in crate::comm) polls: Cell<u64>,
}

impl<'a> Comm<'a> {
    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.p.pid()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.nem.nprocs
    }

    /// The simulated process handle.
    pub fn proc(&self) -> &'a Proc {
        self.p
    }

    /// How many times [`Comm::progress`] has run on this endpoint.
    /// Scaling benches divide host wall-clock by this to report a
    /// per-poll cost that is independent of how often callers spin.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// The OS (for buffer management).
    pub fn os(&self) -> &Arc<Os> {
        self.nem.os()
    }

    /// The universe's configuration.
    pub fn config(&self) -> &NemesisConfig {
        self.nem.cfg()
    }

    /// The universe this endpoint is attached to (backend ops use this
    /// to reach the shared transport state).
    pub(crate) fn nem(&self) -> &Nemesis {
        &self.nem
    }

    /// Set the collective concurrency hint for subsequent sends (§6).
    pub fn set_concurrency_hint(&self, n: u32) {
        self.concurrency.set(n.max(1));
    }

    /// Resolve the backend a `len`-byte transfer to `dst` would take,
    /// surfacing the typed [`BackendUnavailable`] error instead of
    /// panicking — the inspectable form of the resolution every
    /// rendezvous send performs (which fails loudly on `Err`). Side
    /// effect free: under the learned backend selector this *peeks* at
    /// the bandit instead of advancing its exploration state, so
    /// inspection calls never burn sweep picks whose rewards would
    /// never arrive.
    pub fn try_select(&self, dst: usize, len: u64) -> Result<LmtSelect, BackendUnavailable> {
        self.nem
            .resolve_select(self.rank(), self.p.core(), dst, len, false, self.p.now())
    }

    /// Build the sender-side chunk pipeline for a streaming transfer
    /// between ranks `src` and `dst` (the directed pair the tuner keys
    /// learned sweet spots on), growing toward `ceiling`. Only this
    /// side consumes the tuner's probe cadence.
    pub(crate) fn lmt_pipeline(
        &self,
        src: usize,
        dst: usize,
        ceiling: u64,
    ) -> crate::lmt::ChunkPipeline {
        self.nem.policy.pipeline(Some((src, dst)), ceiling)
    }

    /// The receiver-side counterpart of [`Comm::lmt_pipeline`]: same
    /// schedule, but never advances the pair's probe counter.
    pub(crate) fn lmt_recv_pipeline(
        &self,
        src: usize,
        dst: usize,
        ceiling: u64,
    ) -> crate::lmt::ChunkPipeline {
        self.nem.policy.recv_pipeline(Some((src, dst)), ceiling)
    }

    /// Report one fully-absorbed sender-side chunk's timing to the
    /// tuner (no-op under static configurations). `dst` is the
    /// receiving rank of the transfer this chunk belongs to.
    pub(crate) fn note_chunk(&self, dst: usize, chunk: u64, elapsed_ps: Ps) {
        self.nem
            .policy
            .record_chunk(self.rank(), dst, chunk, elapsed_ps);
    }

    pub(in crate::comm) fn new_req(&self, state: ReqState) -> usize {
        let mut inner = self.inner.borrow_mut();
        inner.reqs.push(state);
        inner.reqs.len() - 1
    }

    pub(super) fn next_msg_id(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.next_msg_id += 1;
        (self.rank() as u64) << 48 | inner.next_msg_id
    }

    // ------------------------------------------------------------------
    // Point-to-point API
    // ------------------------------------------------------------------

    /// Non-blocking send of `buf[off..off+len]` to `dst` with `tag`.
    pub fn isend(&self, dst: usize, tag: i32, buf: BufId, off: u64, len: u64) -> Request {
        assert!(dst < self.size(), "invalid destination rank {dst}");
        assert_ne!(dst, self.rank(), "self-send must use sendrecv_self");
        if !self.nem.policy.use_rendezvous(len) {
            self.eager_send(dst, tag, &[(buf, off, len)], len);
            Request::new(self.new_req(ReqState::Done))
        } else {
            self.rndv_send(dst, tag, buf, off, len, None)
        }
    }

    /// Non-blocking noncontiguous ("vectorial") send: the strided blocks
    /// of `layout` within `buf` form the message payload. Scatter-native
    /// backends (KNEM) transfer them in a single scatter-to-scatter
    /// copy; the byte-stream LMTs pack into a staging buffer first
    /// (MPICH2's dataloop path).
    pub fn isendv(&self, dst: usize, tag: i32, buf: BufId, layout: &VectorLayout) -> Request {
        assert!(dst < self.size(), "invalid destination rank {dst}");
        assert_ne!(dst, self.rank(), "self-send must use sendrecv_self");
        let len = layout.total();
        if layout.is_contiguous() {
            return self.isend(dst, tag, buf, layout.off, len);
        }
        if !self.nem.policy.use_rendezvous(len) {
            let src: Vec<(BufId, u64, u64)> = layout
                .blocks()
                .into_iter()
                .map(|(o, n)| (buf, o, n))
                .collect();
            self.eager_send(dst, tag, &src, len);
            return Request::new(self.new_req(ReqState::Done));
        }
        let sel = self
            .nem
            .resolve_select(self.rank(), self.p.core(), dst, len, true, self.p.now())
            .unwrap_or_else(|e| panic!("{e}"));
        if lmt::backend_for(sel).scatter_native() {
            return self.rndv_send_iovs(dst, tag, &layout.iovs(buf), len, sel);
        }
        // Scatter-blind wire: pack into staging, send staging, recycle on
        // completion.
        let (cap, stage) = self.tmp_acquire(len);
        crate::vector::pack(&self.nem.os, self.p, buf, layout, stage, 0);
        self.rndv_send(dst, tag, stage, 0, len, Some((cap, stage)))
    }

    /// Blocking noncontiguous send.
    pub fn sendv(&self, dst: usize, tag: i32, buf: BufId, layout: &VectorLayout) {
        let r = self.isendv(dst, tag, buf, layout);
        self.wait(r);
    }

    /// Non-blocking noncontiguous receive into the blocks of `layout`.
    pub fn irecvv(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
        buf: BufId,
        layout: &VectorLayout,
    ) -> Request {
        if layout.is_contiguous() {
            return self.irecv(src, tag, buf, layout.off, layout.total());
        }
        self.irecv_inner(src, tag, buf, layout.off, layout.total(), Some(*layout))
    }

    /// Blocking noncontiguous receive.
    pub fn recvv(&self, src: Option<usize>, tag: Option<i32>, buf: BufId, layout: &VectorLayout) {
        let r = self.irecvv(src, tag, buf, layout);
        self.wait(r);
    }

    /// Non-blocking receive into `buf[off..off+cap]`.
    pub fn irecv(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
        buf: BufId,
        off: u64,
        cap: u64,
    ) -> Request {
        self.irecv_inner(src, tag, buf, off, cap, None)
    }

    fn irecv_inner(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
        buf: BufId,
        off: u64,
        cap: u64,
        layout: Option<VectorLayout>,
    ) -> Request {
        let req = self.new_req(ReqState::Active);
        // Try the unexpected queue first (in arrival order).
        let matched = {
            let mut inner = self.inner.borrow_mut();
            let pos = inner
                .unexpected
                .iter()
                .position(|e| Self::env_matches(e, src, tag) && Self::env_ready(e));
            pos.map(|i| inner.unexpected.remove(i).unwrap())
        };
        match matched {
            Some(env) => self.deliver_any(env, req, buf, off, cap, layout),
            None => self.inner.borrow_mut().posted.push(PostedRecv {
                req,
                src,
                tag,
                buf,
                off,
                cap,
                layout,
                seq: 0,
            }),
        }
        Request::new(req)
    }

    /// Blocking send.
    pub fn send(&self, dst: usize, tag: i32, buf: BufId, off: u64, len: u64) {
        let r = self.isend(dst, tag, buf, off, len);
        self.wait(r);
    }

    /// Blocking receive.
    pub fn recv(&self, src: Option<usize>, tag: Option<i32>, buf: BufId, off: u64, cap: u64) {
        let r = self.irecv(src, tag, buf, off, cap);
        self.wait(r);
    }

    /// Concurrent send+receive (the collective workhorse).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        dst: usize,
        stag: i32,
        sbuf: BufId,
        soff: u64,
        slen: u64,
        src: Option<usize>,
        rtag: Option<i32>,
        rbuf: BufId,
        roff: u64,
        rcap: u64,
    ) {
        let r = self.irecv(src, rtag, rbuf, roff, rcap);
        let s = self.isend(dst, stag, sbuf, soff, slen);
        self.wait(r);
        self.wait(s);
    }

    /// Has the request completed? (Drives progress once.)
    pub fn test(&self, r: Request) -> bool {
        self.progress();
        self.inner.borrow().reqs[r.id()] == ReqState::Done
    }

    /// Non-blocking probe: is there a matching message (eager payload or
    /// rendezvous announcement) waiting that no posted receive claims?
    /// Returns its envelope metadata without consuming it.
    pub fn iprobe(&self, src: Option<usize>, tag: Option<i32>) -> Option<MessageInfo> {
        use crate::shm::PktKind;
        self.progress();
        let inner = self.inner.borrow();
        inner
            .unexpected
            .iter()
            .find(|e| Self::env_matches(e, src, tag) && Self::env_ready(e))
            .map(|e| MessageInfo {
                src: e.src,
                tag: e.tag,
                len: match &e.kind {
                    PktKind::Eager { len, .. } => *len,
                    PktKind::EagerBuffered { len, .. } => *len,
                    PktKind::EagerPartial { len, .. } => *len,
                    PktKind::EagerFrag { .. } => {
                        unreachable!("fragments are routed by handle_frag")
                    }
                    PktKind::Rts { len, .. } => *len,
                    PktKind::Done { .. } => unreachable!("Done never parks as unexpected"),
                },
            })
    }

    /// Blocking probe (MPI_Probe): poll until a matching message is
    /// visible, then return its metadata. Combine with [`Comm::recv`] to
    /// receive messages of unknown size.
    pub fn probe(&self, src: Option<usize>, tag: Option<i32>) -> MessageInfo {
        let start = self.p.now();
        loop {
            if let Some(info) = self.iprobe(src, tag) {
                return info;
            }
            self.p.poll_tick();
            assert!(
                self.p.now() - start < WATCHDOG_PS,
                "rank {} stuck in probe()",
                self.rank()
            );
        }
    }

    /// Block until the request completes.
    pub fn wait(&self, r: Request) {
        let start = self.p.now();
        loop {
            if self.inner.borrow().reqs[r.id()] == ReqState::Done {
                return;
            }
            let worked = self.progress();
            if !worked {
                self.p.poll_tick();
            }
            assert!(
                self.p.now() - start < WATCHDOG_PS,
                "rank {} stuck in wait() for >200 simulated seconds: deadlock?",
                self.rank()
            );
        }
    }

    /// Block until all requests complete.
    pub fn waitall(&self, rs: &[Request]) {
        for &r in rs {
            self.wait(r);
        }
    }

    pub(super) fn env_matches(
        env: &crate::shm::Envelope,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> bool {
        src.map(|s| s == env.src).unwrap_or(true) && tag.map(|t| t == env.tag).unwrap_or(true)
    }

    /// Whether a parked envelope is deliverable (reassemblies only match
    /// once every fragment has arrived).
    pub(super) fn env_ready(env: &crate::shm::Envelope) -> bool {
        !matches!(
            env.kind,
            crate::shm::PktKind::EagerPartial { len, received, .. } if received < len
        )
    }
}

#[cfg(test)]
mod tests;
