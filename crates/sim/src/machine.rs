//! The machine facade: cache hierarchy wired to the topology, the memory
//! bus, the I/OAT engine and the counters.
//!
//! Every simulated memory operation goes through [`Machine`]:
//!
//! * [`Machine::access`] — CPU loads/stores at line granularity, with
//!   MESI-style coherence: write hits upgrade (invalidating remote
//!   copies), misses are serviced by the local L2, a remote cache
//!   (cache-to-cache transfer over the front-side bus) or DRAM.
//! * [`Machine::copy_cost`] — an interleaved read+write pass, the cost of
//!   `memcpy` between two physical ranges executed by one core.
//! * [`Machine::dma_submit_copy`] — I/OAT descriptors: cache-bypassing
//!   transfers that invalidate stale cached destination lines and never
//!   allocate, so they cause *no pollution* (§3.3).
//!
//! On the modelled Clovertown platform, *all* cache-to-cache traffic —
//! even between two dies of the same package — crosses the front-side
//! bus, which is why the paper treats "same socket, different dies" and
//! "different sockets" as practically equivalent (§4.2).

use std::collections::HashMap;
use std::sync::Mutex;

use nemesis_model::sync::lock;

use crate::bus::{MemoryBus, PhysAllocator};
use crate::cache::{Cache, Probe};
use crate::config::{MachineConfig, LINE, PAGE};
use crate::dma::DmaChannelSet;
use crate::stats::{StatsSnapshot, StatsStore};
use crate::topology::CoreId;
use crate::Ps;

/// A physically contiguous byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysRange {
    pub base: u64,
    pub len: u64,
}

impl PhysRange {
    pub fn new(base: u64, len: u64) -> Self {
        Self { base, len }
    }

    /// Split into page-aligned chunks (how `get_user_pages` + I/OAT see a
    /// pinned user buffer: one descriptor per page).
    pub fn page_chunks(&self) -> Vec<PhysRange> {
        self.chunks_of(PAGE)
    }

    /// Split into `page`-aligned chunks for an arbitrary page size —
    /// huge-page-backed buffers are physically contiguous per 2 MiB, so
    /// they produce far fewer descriptors than 4 KiB mappings.
    pub fn chunks_of(&self, page: u64) -> Vec<PhysRange> {
        assert!(page > 0 && page.is_power_of_two(), "bad page size {page}");
        let mut out = Vec::new();
        let mut base = self.base;
        let end = self.base + self.len;
        while base < end {
            let page_end = (base / page + 1) * page;
            let chunk_end = page_end.min(end);
            out.push(PhysRange::new(base, chunk_end - base));
            base = chunk_end;
        }
        out
    }

    fn lines(&self) -> std::ops::Range<u64> {
        if self.len == 0 {
            return 0..0;
        }
        let first = self.base >> LINE.trailing_zeros();
        let last = (self.base + self.len - 1) >> LINE.trailing_zeros();
        first..last + 1
    }
}

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    /// Non-temporal (streaming) store: goes straight to memory through
    /// the write-combining buffers, never allocates a cache line, and
    /// invalidates stale cached copies everywhere. Pays bus occupancy
    /// but causes no pollution — the over-LLC copy mode.
    StreamWrite,
}

/// How a CPU copy treats its destination lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyMode {
    /// Ordinary write-allocate stores (reads the destination line in,
    /// dirties it, pollutes the hierarchy). Wins when the destination
    /// is — or will be — cache-resident.
    Temporal,
    /// Streaming stores for the destination ([`AccessKind::StreamWrite`]).
    /// Wins when the transfer dwarfs the LLC and allocation would only
    /// evict useful data.
    NonTemporal,
}

/// Result of submitting an I/OAT copy.
#[derive(Debug, Clone, Copy)]
pub struct DmaSubmission {
    /// Time the submitting CPU spends building/ringing descriptors.
    pub cpu_cost: Ps,
    /// Virtual time at which the engine finishes the copy.
    pub complete_at: Ps,
}

struct Inner {
    /// `caches[0..ncores]` are L1s (index = core id);
    /// `caches[ncores..ncores+ndies]` are L2s (index = ncores + die id);
    /// `caches[ncores+ndies..]` are L3s, if the part has them (§6).
    caches: Vec<Cache>,
    /// Which caches currently hold each line (bit i = caches[i]).
    presence: HashMap<u64, u32>,
    /// One memory bus per NUMA node (a single shared front-side bus on
    /// non-NUMA parts like Clovertown).
    buses: Vec<MemoryBus>,
    dma: DmaChannelSet,
    alloc: PhysAllocator,
    stats: StatsStore,
}

/// The simulated machine. Shared (`Arc`) between all simulated processes;
/// internally locked — the deterministic scheduler runs one process at a
/// time, so the lock is never contended.
pub struct Machine {
    cfg: MachineConfig,
    ncores: usize,
    ndies: usize,
    nl3: usize,
    /// Die (= L2) index per core.
    die_of: Vec<usize>,
    /// Socket per core.
    socket_of: Vec<usize>,
    /// Socket per die.
    die_socket: Vec<usize>,
    /// L3 group per core (empty when the part has no L3).
    l3_of: Vec<usize>,
    inner: Mutex<Inner>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        let ncores = cfg.topology.num_cores();
        let ndies = cfg.topology.num_l2();
        let nl3 = cfg.topology.num_l3();
        assert!(
            ncores + ndies + nl3 <= 32,
            "presence bitmask is u32; enlarge for bigger machines"
        );
        let mut caches = Vec::with_capacity(ncores + ndies + nl3);
        for _ in 0..ncores {
            caches.push(Cache::new(cfg.l1_size, cfg.l1_assoc));
        }
        for _ in 0..ndies {
            caches.push(Cache::new(cfg.l2_size, cfg.l2_assoc));
        }
        for _ in 0..nl3 {
            assert!(cfg.l3_size > 0, "topology has an L3 but l3_size is 0");
            caches.push(Cache::new(cfg.l3_size, cfg.l3_assoc));
        }
        let die_of = (0..ncores).map(|c| cfg.topology.l2_of(c)).collect();
        let socket_of: Vec<usize> = (0..ncores).map(|c| cfg.topology.socket_of(c)).collect();
        let die_socket = (0..ndies)
            .map(|d| cfg.topology.socket_of(d * cfg.topology.cores_per_l2()))
            .collect();
        let l3_of = (0..ncores).filter_map(|c| cfg.topology.l3_of(c)).collect();
        let nbuses = if cfg.numa {
            cfg.topology.num_sockets()
        } else {
            1
        };
        let buses = (0..nbuses)
            .map(|_| MemoryBus::new(cfg.costs.bus_per_line))
            .collect();
        let dma = DmaChannelSet::new(
            cfg.dma_channels,
            cfg.costs.ioat_per_line,
            cfg.costs.ioat_desc / 4,
        );
        Self {
            cfg,
            ncores,
            ndies,
            nl3,
            die_of,
            socket_of,
            die_socket,
            l3_of,
            inner: Mutex::new(Inner {
                caches,
                presence: HashMap::new(),
                buses,
                dma,
                alloc: PhysAllocator::new(),
                stats: StatsStore::default(),
            }),
        }
    }

    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of independent DMA channels this machine exposes.
    pub fn dma_channels(&self) -> usize {
        lock(&self.inner).dma.num_channels()
    }

    /// The NUMA-local DMA channel for a memory node (offload-queue
    /// placement: submit a copy on the channel next to the destination's
    /// memory controller).
    pub fn dma_channel_for_node(&self, node: usize) -> usize {
        lock(&self.inner).dma.channel_for_node(node)
    }

    /// Allocate simulated physical memory (page aligned) on NUMA node 0.
    pub fn alloc_phys(&self, len: u64) -> u64 {
        lock(&self.inner).alloc.alloc_on(0, len)
    }

    /// Allocate on a specific NUMA node (first-touch placement, §6). On
    /// non-NUMA machines the node only tags the address; all traffic
    /// shares the single bus.
    pub fn alloc_phys_on(&self, node: usize, len: u64) -> u64 {
        if self.cfg.numa {
            assert!(
                node < self.cfg.topology.num_sockets(),
                "bad NUMA node {node}"
            );
        }
        lock(&self.inner).alloc.alloc_on(node, len)
    }

    #[inline]
    fn l1_id(&self, core: CoreId) -> usize {
        core
    }

    #[inline]
    fn l2_id(&self, core: CoreId) -> usize {
        self.ncores + self.die_of[core]
    }

    /// Cache-table id of the L3 serving `core` (only call when `nl3 > 0`).
    #[inline]
    fn l3_id(&self, core: CoreId) -> usize {
        self.ncores + self.ndies + self.l3_of[core]
    }

    /// (socket, die) of a cache id. L3s report a die of `usize::MAX - l3`
    /// so they never alias a real die.
    fn cache_loc(&self, id: usize) -> (usize, usize) {
        if id < self.ncores {
            (self.socket_of[id], self.die_of[id])
        } else if id < self.ncores + self.ndies {
            let die = id - self.ncores;
            (self.die_socket[die], die)
        } else {
            // cores_per_l3 divides cores_per_socket, so the group's first
            // core determines the socket.
            let l3 = id - self.ncores - self.ndies;
            let first_core = l3 * self.cfg.topology.cores_per_l3();
            (self.socket_of[first_core], usize::MAX - l3)
        }
    }

    /// Latency of invalidating / transferring from a remote holder.
    fn placement_cost(&self, my_socket: usize, my_die: usize, other_id: usize) -> Ps {
        let (os, od) = self.cache_loc(other_id);
        let c = &self.cfg.costs;
        if od == my_die {
            c.l2_hit
        } else if os == my_socket {
            // On parts with an L3 the package cache forwards on-socket
            // lines; otherwise a sibling-L2 snoop crosses the FSB.
            if self.nl3 > 0 {
                c.l3_hit
            } else {
                c.sibling_l2
            }
        } else {
            c.cross_socket
        }
    }

    /// NUMA home node of a cache line (always 0 on non-NUMA parts).
    #[inline]
    fn home_node_of_line(&self, line: u64) -> usize {
        if self.cfg.numa {
            PhysAllocator::node_of(line * LINE)
        } else {
            0
        }
    }

    /// CPU access to a physical range. Returns the time the access takes.
    /// `now` is the issuing process's current virtual clock (used for bus
    /// contention).
    pub fn access(
        &self,
        pid: usize,
        core: CoreId,
        range: PhysRange,
        kind: AccessKind,
        now: Ps,
    ) -> Ps {
        let mut inner = lock(&self.inner);
        let mut cost: Ps = 0;
        for line in range.lines() {
            cost += self.access_line(&mut inner, pid, core, line, kind, now + cost);
        }
        cost
    }

    /// Interleaved read-src/write-dst pass: the cost of one core copying
    /// `len` bytes between two buffers (both data movements charged, cache
    /// pollution included). Ranges must have equal length.
    pub fn copy_cost(
        &self,
        pid: usize,
        core: CoreId,
        src: PhysRange,
        dst: PhysRange,
        now: Ps,
    ) -> Ps {
        self.copy_cost_mode(pid, core, src, dst, now, CopyMode::Temporal)
    }

    /// [`Machine::copy_cost`] with an explicit destination store mode:
    /// `NonTemporal` streams the destination ([`AccessKind::StreamWrite`])
    /// so the copy never allocates destination lines.
    pub fn copy_cost_mode(
        &self,
        pid: usize,
        core: CoreId,
        src: PhysRange,
        dst: PhysRange,
        now: Ps,
        mode: CopyMode,
    ) -> Ps {
        assert_eq!(src.len, dst.len, "copy ranges must match");
        let dst_kind = match mode {
            CopyMode::Temporal => AccessKind::Write,
            CopyMode::NonTemporal => AccessKind::StreamWrite,
        };
        let mut inner = lock(&self.inner);
        let mut cost: Ps = 0;
        let src_lines: Vec<u64> = src.lines().collect();
        let dst_lines: Vec<u64> = dst.lines().collect();
        // Interleave at line granularity; when alignment differs the line
        // counts can differ by one — pair them up conservatively.
        let n = src_lines.len().max(dst_lines.len());
        for i in 0..n {
            if let Some(&l) = src_lines.get(i) {
                cost += self.access_line(&mut inner, pid, core, l, AccessKind::Read, now + cost);
            }
            if let Some(&l) = dst_lines.get(i) {
                cost += self.access_line(&mut inner, pid, core, l, dst_kind, now + cost);
            }
        }
        cost
    }

    fn access_line(
        &self,
        inner: &mut Inner,
        pid: usize,
        core: CoreId,
        line: u64,
        kind: AccessKind,
        now: Ps,
    ) -> Ps {
        if kind == AccessKind::StreamWrite {
            return self.stream_write_line(inner, pid, core, line, now);
        }
        let write = kind == AccessKind::Write;
        let l1 = self.l1_id(core);
        let l2 = self.l2_id(core);
        let l3 = (self.nl3 > 0).then(|| self.l3_id(core));
        let mut my_mask: u32 = (1 << l1) | (1 << l2);
        if let Some(l3) = l3 {
            my_mask |= 1 << l3;
        }
        let my_socket = self.socket_of[core];
        let my_die = self.die_of[core];
        let c = &self.cfg.costs;

        // L1 probe.
        if inner.caches[l1].access(line, write) == Probe::Hit {
            inner.stats.proc_mut(pid).l1_hits += 1;
            let others = inner.presence.get(&line).copied().unwrap_or(0) & !my_mask;
            if write && others != 0 {
                // Upgrade: invalidate remote sharers; cost is the worst
                // coherence round-trip among them.
                let mut up = c.l1_hit;
                for id in BitIter(others) {
                    up = up.max(self.placement_cost(my_socket, my_die, id));
                    inner.caches[id].invalidate(line);
                }
                let m = inner.presence.get_mut(&line).unwrap();
                *m &= my_mask;
                // Keep our L2 copy dirty-consistent via normal writeback.
                return up;
            }
            return c.l1_hit;
        }
        inner.stats.proc_mut(pid).l1_misses += 1;

        // L2 probe.
        if inner.caches[l2].access(line, write) == Probe::Hit {
            inner.stats.proc_mut(pid).l2_hits += 1;
            let others = inner.presence.get(&line).copied().unwrap_or(0) & !my_mask;
            let mut cost = c.l2_hit;
            if write && others != 0 {
                for id in BitIter(others) {
                    cost = cost.max(self.placement_cost(my_socket, my_die, id));
                    inner.caches[id].invalidate(line);
                }
                let m = inner.presence.get_mut(&line).unwrap();
                *m &= my_mask;
            }
            self.fill(inner, l1, line, write, now);
            return cost;
        }
        inner.stats.proc_mut(pid).l2_misses += 1;

        // L3 probe (parts with a package cache, §6).
        if let Some(l3) = l3 {
            if inner.caches[l3].access(line, write) == Probe::Hit {
                inner.stats.proc_mut(pid).l3_hits += 1;
                let others = inner.presence.get(&line).copied().unwrap_or(0) & !my_mask;
                let mut cost = c.l3_hit;
                if write && others != 0 {
                    for id in BitIter(others) {
                        cost = cost.max(self.placement_cost(my_socket, my_die, id));
                        inner.caches[id].invalidate(line);
                    }
                    let m = inner.presence.get_mut(&line).unwrap();
                    *m &= my_mask;
                }
                self.fill(inner, l2, line, write, now);
                self.fill(inner, l1, line, write, now);
                return cost;
            }
            inner.stats.proc_mut(pid).l3_misses += 1;
        }

        // Off-chip: remote cache or DRAM.
        let others = inner.presence.get(&line).copied().unwrap_or(0) & !my_mask;
        let mut dirty_holder: Option<usize> = None;
        for id in BitIter(others) {
            if inner.caches[id].peek_dirty(line) {
                dirty_holder = Some(id);
                break;
            }
        }
        let home = self.home_node_of_line(line);
        let mut cost;
        if let Some(owner) = dirty_holder {
            // Cache-to-cache transfer of modified data: snoop latency plus
            // a bus slot (on Clovertown even on-package die-to-die traffic
            // crosses the FSB; on NUMA parts the transfer rides the
            // owner's node interconnect).
            inner.stats.proc_mut(pid).cache_to_cache += 1;
            cost = self.placement_cost(my_socket, my_die, owner);
            let bus = if self.cfg.numa {
                self.cache_loc(owner).0.min(inner.buses.len() - 1)
            } else {
                0
            };
            cost += inner.buses[bus].transfer_lines(now + cost, 1);
            if write {
                for id in BitIter(others) {
                    inner.caches[id].invalidate(line);
                }
                inner.presence.entry(line).and_modify(|m| *m &= my_mask);
            } else {
                // Owner's copy becomes clean-shared; memory gets the data
                // as a posted write-back.
                inner.caches[owner].clean(line);
                let wb = home.min(inner.buses.len() - 1);
                inner.buses[wb].post_lines(now + cost, 1);
            }
        } else {
            // Service from the line's home DRAM (clean remote copies, if
            // any, are invalidated on write / left shared on read).
            cost = c.dram_overhead;
            let bus = home.min(inner.buses.len() - 1);
            if self.cfg.numa && home != my_socket {
                cost += c.numa_remote_extra + c.cross_socket;
                inner.stats.proc_mut(pid).dram_remote_bytes += LINE;
            }
            cost += inner.buses[bus].transfer_lines(now + cost, 1);
            inner.stats.proc_mut(pid).dram_bytes += LINE;
            if write && others != 0 {
                let mut up = 0;
                for id in BitIter(others) {
                    up = up.max(self.placement_cost(my_socket, my_die, id));
                    inner.caches[id].invalidate(line);
                }
                cost = cost.max(up);
                inner.presence.entry(line).and_modify(|m| *m &= my_mask);
            }
        }
        if let Some(l3) = l3 {
            self.fill(inner, l3, line, write, now);
        }
        self.fill(inner, l2, line, write, now);
        self.fill(inner, l1, line, write, now);
        cost
    }

    /// One non-temporal store: invalidate the line everywhere (including
    /// the storer's own caches — x86 NT stores drop cached copies rather
    /// than updating them), post the data to the home memory controller,
    /// and charge bus occupancy only. No allocation, no `dram_overhead`
    /// (the store is posted through write-combining buffers, the core
    /// never waits on a fill), no pollution.
    fn stream_write_line(
        &self,
        inner: &mut Inner,
        pid: usize,
        core: CoreId,
        line: u64,
        now: Ps,
    ) -> Ps {
        let c = &self.cfg.costs;
        let my_socket = self.socket_of[core];
        let my_die = self.die_of[core];
        let mut cost: Ps = 0;
        if let Some(mask) = inner.presence.remove(&line) {
            // Coherence: stale copies anywhere must be dropped before the
            // memory write lands; cost is the worst round-trip among the
            // *remote* holders (killing our own copy is free).
            let mut my_mask: u32 = (1 << self.l1_id(core)) | (1 << self.l2_id(core));
            if self.nl3 > 0 {
                my_mask |= 1 << self.l3_id(core);
            }
            for id in BitIter(mask) {
                if my_mask & (1 << id) == 0 {
                    cost = cost.max(self.placement_cost(my_socket, my_die, id));
                }
                inner.caches[id].stream_write(line);
            }
        }
        let home = self.home_node_of_line(line);
        let bus = home.min(inner.buses.len() - 1);
        if self.cfg.numa && home != my_socket {
            cost += c.numa_remote_extra;
            inner.stats.proc_mut(pid).dram_remote_bytes += LINE;
        }
        cost += inner.buses[bus].transfer_lines(now + cost, 1);
        let st = inner.stats.proc_mut(pid);
        st.dram_bytes += LINE;
        st.nt_lines += 1;
        cost
    }

    /// Insert `line` into cache `id`, maintaining presence bits, dirty
    /// write-backs and back-invalidation down the inclusive hierarchy
    /// (L3→L2→L1 on parts with a package cache).
    fn fill(&self, inner: &mut Inner, id: usize, line: u64, dirty: bool, now: Ps) {
        if let Some(ev) = inner.caches[id].fill(line, dirty) {
            if let Some(m) = inner.presence.get_mut(&ev.line) {
                *m &= !(1 << id);
                if *m == 0 {
                    inner.presence.remove(&ev.line);
                }
            }
            let wb_bus = self.home_node_of_line(ev.line).min(inner.buses.len() - 1);
            if id < self.ncores {
                // L1 victim: push dirty data down into the backing L2.
                if ev.dirty {
                    let l2 = self.ncores + self.die_of[id];
                    if inner.caches[l2].peek(ev.line) {
                        inner.caches[l2].set_dirty(ev.line);
                    } else {
                        // Inclusion was broken by an L2 eviction racing
                        // ahead; write back to memory.
                        inner.buses[wb_bus].post_lines(now, 1);
                    }
                }
            } else if id < self.ncores + self.ndies {
                // L2 victim: back-invalidate child L1s; dirty data sinks
                // into the L3 (if present and still holding the line) or
                // memory.
                let die = id - self.ncores;
                for core in 0..self.ncores {
                    if self.die_of[core] == die && inner.caches[core].invalidate(ev.line).is_some()
                    {
                        if let Some(m) = inner.presence.get_mut(&ev.line) {
                            *m &= !(1 << core);
                            if *m == 0 {
                                inner.presence.remove(&ev.line);
                            }
                        }
                    }
                }
                if ev.dirty {
                    let l3_holds = self.nl3 > 0 && {
                        let first_core = die * self.cfg.topology.cores_per_l2();
                        let l3 = self.l3_id(first_core);
                        if inner.caches[l3].peek(ev.line) {
                            inner.caches[l3].set_dirty(ev.line);
                            true
                        } else {
                            false
                        }
                    };
                    if !l3_holds {
                        inner.buses[wb_bus].post_lines(now, 1);
                    }
                }
            } else {
                // L3 victim: back-invalidate every L2 and L1 in the group,
                // write back if dirty.
                let l3 = id - self.ncores - self.ndies;
                for core in 0..self.ncores {
                    if self.l3_of[core] != l3 {
                        continue;
                    }
                    for child in [core, self.ncores + self.die_of[core]] {
                        if inner.caches[child].invalidate(ev.line).is_some() {
                            if let Some(m) = inner.presence.get_mut(&ev.line) {
                                *m &= !(1 << child);
                                if *m == 0 {
                                    inner.presence.remove(&ev.line);
                                }
                            }
                        }
                    }
                }
                if ev.dirty {
                    inner.buses[wb_bus].post_lines(now, 1);
                }
            }
        }
        *inner.presence.entry(line).or_insert(0) |= 1 << id;
    }

    /// Submit an I/OAT copy: one descriptor per physically contiguous
    /// chunk. Stale cached destination lines are invalidated (the engine
    /// writes memory directly); dirty source lines are flushed. The
    /// engine's traffic occupies the memory bus.
    pub fn dma_submit_copy(
        &self,
        pid: usize,
        now: Ps,
        descs: &[(PhysRange, PhysRange)],
    ) -> DmaSubmission {
        self.dma_submit_copy_on(pid, now, 0, descs)
    }

    /// [`Machine::dma_submit_copy`] on a specific DMA channel. Channels
    /// beyond what the chipset has are clamped to the last real one, so
    /// callers can target "the second rail" unconditionally and single-
    /// channel machines degrade to multiplexing (the old behaviour).
    pub fn dma_submit_copy_on(
        &self,
        pid: usize,
        now: Ps,
        channel: usize,
        descs: &[(PhysRange, PhysRange)],
    ) -> DmaSubmission {
        let mut inner = lock(&self.inner);
        let c = &self.cfg.costs;
        let mut cpu_cost: Ps = 0;
        let mut complete_at = now;
        for (src, dst) in descs {
            // Snoop: flush dirty cached source lines so the engine reads
            // current data; invalidate destination lines everywhere.
            for line in src.lines() {
                if let Some(&mask) = inner.presence.get(&line) {
                    let wb = self.home_node_of_line(line).min(inner.buses.len() - 1);
                    for id in BitIter(mask) {
                        if inner.caches[id].peek_dirty(line) {
                            inner.caches[id].clean(line);
                            inner.buses[wb].post_lines(now, 1);
                        }
                    }
                }
            }
            for line in dst.lines() {
                if let Some(mask) = inner.presence.remove(&line) {
                    for id in BitIter(mask) {
                        inner.caches[id].invalidate(line);
                    }
                }
            }
            cpu_cost += c.ioat_desc;
            let done = inner.dma.submit(channel, now + cpu_cost, dst.len);
            // The engine's read occupies the source's home bus and its
            // write the destination's. On a NUMA host a cross-socket DMA
            // copy therefore splits its traffic across the two memory
            // controllers; on flat machines both charges land on the one
            // bus and the total is unchanged.
            let rbus = self
                .home_node_of_line(src.base / LINE)
                .min(inner.buses.len() - 1);
            let wbus = self
                .home_node_of_line(dst.base / LINE)
                .min(inner.buses.len() - 1);
            inner.buses[rbus].post_lines(now + cpu_cost, src.len.div_ceil(LINE));
            inner.buses[wbus].post_lines(now + cpu_cost, dst.len.div_ceil(LINE));
            complete_at = done;
            let st = inner.stats.proc_mut(pid);
            st.ioat_bytes += dst.len;
            st.ioat_descs += 1;
        }
        DmaSubmission {
            cpu_cost,
            complete_at,
        }
    }

    /// The Figure-2 completion trick: append a one-byte status write to the
    /// in-order channel. Returns when the status becomes visible.
    pub fn dma_submit_status(&self, pid: usize, now: Ps, status: PhysRange) -> DmaSubmission {
        self.dma_submit_status_on(pid, now, 0, status)
    }

    /// [`Machine::dma_submit_status`] on a specific DMA channel — the
    /// status write only orders behind payloads submitted to the *same*
    /// channel, so each rail needs its own.
    pub fn dma_submit_status_on(
        &self,
        pid: usize,
        now: Ps,
        channel: usize,
        status: PhysRange,
    ) -> DmaSubmission {
        let mut inner = lock(&self.inner);
        for line in status.lines() {
            if let Some(mask) = inner.presence.remove(&line) {
                for id in BitIter(mask) {
                    inner.caches[id].invalidate(line);
                }
            }
        }
        let cpu_cost = self.cfg.costs.ioat_desc;
        let complete_at = inner.dma.submit_status_write(channel, now + cpu_cost);
        inner.stats.proc_mut(pid).ioat_descs += 1;
        DmaSubmission {
            cpu_cost,
            complete_at,
        }
    }

    /// Charge one system call to `pid` and return its cost.
    pub fn syscall(&self, pid: usize) -> Ps {
        let mut inner = lock(&self.inner);
        inner.stats.proc_mut(pid).syscalls += 1;
        self.cfg.costs.syscall
    }

    /// Charge pinning `pages` pages (`get_user_pages`).
    pub fn pin_pages(&self, pid: usize, pages: u64) -> Ps {
        let mut inner = lock(&self.inner);
        inner.stats.proc_mut(pid).pinned_pages += pages;
        pages * self.cfg.costs.pin_page
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        lock(&self.inner).stats.snapshot()
    }

    /// Flush every cache and forget presence (between experiment phases).
    pub fn flush_caches(&self) {
        let mut inner = lock(&self.inner);
        for c in &mut inner.caches {
            c.flush();
        }
        inner.presence.clear();
    }

    /// Lines of `range` resident in the L2 serving `core` (diagnostics).
    pub fn l2_resident(&self, core: CoreId, range: PhysRange) -> usize {
        let inner = lock(&self.inner);
        inner.caches[self.l2_id(core)].resident_in(range.base, range.len)
    }

    /// Total bytes moved over the memory bus(es) so far.
    pub fn bus_bytes(&self) -> u64 {
        lock(&self.inner)
            .buses
            .iter()
            .map(MemoryBus::total_bytes)
            .sum()
    }

    /// Verify the presence map matches cache contents (test helper; O(n)).
    #[doc(hidden)]
    pub fn check_presence_invariant(&self) {
        let inner = lock(&self.inner);
        for (&line, &mask) in &inner.presence {
            assert!(mask != 0, "zero mask left in presence map");
            for (id, cache) in inner.caches.iter().enumerate() {
                let bit = mask & (1 << id) != 0;
                assert_eq!(
                    cache.peek(line),
                    bit,
                    "presence bit mismatch for line {line:#x} cache {id}"
                );
            }
        }
        // And the reverse: every resident line has its bit.
        for (id, cache) in inner.caches.iter().enumerate() {
            for line in cache.resident_lines() {
                let mask = inner.presence.get(&line).copied().unwrap_or(0);
                assert!(
                    mask & (1 << id) != 0,
                    "line {line:#x} in cache {id} missing from presence map"
                );
            }
        }
    }
}

/// Iterator over set bits of a u32 mask.
struct BitIter(u32);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let b = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn m() -> Machine {
        Machine::new(MachineConfig::xeon_e5345())
    }

    #[test]
    fn page_chunks_split_on_page_boundaries() {
        let r = PhysRange::new(PAGE - 100, 300);
        let chunks = r.page_chunks();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], PhysRange::new(PAGE - 100, 100));
        assert_eq!(chunks[1], PhysRange::new(PAGE, 200));
        let whole = PhysRange::new(0, 3 * PAGE);
        assert_eq!(whole.page_chunks().len(), 3);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let m = m();
        let base = m.alloc_phys(4096);
        let r = PhysRange::new(base, 4096);
        let cold = m.access(0, 0, r, AccessKind::Read, 0);
        let warm = m.access(0, 0, r, AccessKind::Read, cold);
        assert!(cold > warm * 3, "cold {cold} should dwarf warm {warm}");
        let s = m.snapshot();
        assert_eq!(s.per_proc[0].l1_misses, 64);
        assert_eq!(s.per_proc[0].l1_hits, 64);
        assert_eq!(s.per_proc[0].l2_misses, 64);
        m.check_presence_invariant();
    }

    #[test]
    fn shared_l2_services_sibling() {
        let m = m();
        let base = m.alloc_phys(4096);
        let r = PhysRange::new(base, 4096);
        // Core 0 writes; core 1 shares the L2 (die 0).
        m.access(0, 0, r, AccessKind::Write, 0);
        let t = m.access(1, 1, r, AccessKind::Read, 0);
        let s = m.snapshot();
        assert_eq!(s.per_proc[1].l2_misses, 0, "sibling must hit shared L2");
        // And the read is fast: ~l2_hit per line.
        assert!(t < 64 * m.cfg().costs.sibling_l2);
        m.check_presence_invariant();
    }

    #[test]
    fn cross_socket_read_is_cache_to_cache() {
        let m = m();
        let base = m.alloc_phys(4096);
        let r = PhysRange::new(base, 4096);
        m.access(0, 0, r, AccessKind::Write, 0);
        let t_remote = m.access(4, 4, r, AccessKind::Read, 0);
        let s = m.snapshot();
        assert_eq!(s.per_proc[4].l2_misses, 64);
        assert_eq!(s.per_proc[4].cache_to_cache, 64);
        // Dirtiness transferred: the writer's copy is now clean.
        // A second remote read (core 5 shares L2 with 4) hits its own L2.
        let t2 = m.access(5, 5, r, AccessKind::Read, t_remote);
        assert!(t2 < t_remote);
        m.check_presence_invariant();
    }

    #[test]
    fn write_invalidates_remote_copies() {
        let m = m();
        let base = m.alloc_phys(64);
        let r = PhysRange::new(base, 64);
        m.access(0, 0, r, AccessKind::Write, 0);
        m.access(4, 4, r, AccessKind::Read, 0);
        // Core 0 rewrites: upgrade, remote copy must vanish.
        m.access(0, 0, r, AccessKind::Write, 0);
        // Core 4 reads again: must miss (cache-to-cache again).
        let before = m.snapshot().per_proc[4].l2_misses;
        m.access(4, 4, r, AccessKind::Read, 0);
        let after = m.snapshot().per_proc[4].l2_misses;
        assert_eq!(after - before, 1);
        m.check_presence_invariant();
    }

    #[test]
    fn streaming_evicts_l2() {
        let m = m();
        let small = m.alloc_phys(4096);
        let big = m.alloc_phys(8 << 20); // 2x the L2
        m.access(0, 0, PhysRange::new(small, 4096), AccessKind::Read, 0);
        assert_eq!(m.l2_resident(0, PhysRange::new(small, 4096)), 64);
        // Stream 8 MiB through the same core: the small buffer is evicted.
        m.access(0, 0, PhysRange::new(big, 8 << 20), AccessKind::Read, 0);
        assert_eq!(
            m.l2_resident(0, PhysRange::new(small, 4096)),
            0,
            "pollution must evict the small working set"
        );
        m.check_presence_invariant();
    }

    #[test]
    fn dma_copy_bypasses_and_invalidates() {
        let m = m();
        let src = m.alloc_phys(64 << 10);
        let dst = m.alloc_phys(64 << 10);
        let rs = PhysRange::new(src, 64 << 10);
        let rd = PhysRange::new(dst, 64 << 10);
        // Receiver (core 4) has the destination cached from earlier use.
        m.access(4, 4, rd, AccessKind::Write, 0);
        assert!(m.l2_resident(4, rd) > 0);
        let descs: Vec<_> = rs.page_chunks().into_iter().zip(rd.page_chunks()).collect();
        let sub = m.dma_submit_copy(4, 0, &descs);
        assert!(sub.cpu_cost > 0);
        assert!(sub.complete_at > sub.cpu_cost);
        // DMA writes invalidated the cached destination: no pollution, and
        // subsequent reads must miss.
        assert_eq!(m.l2_resident(4, rd), 0);
        let s = m.snapshot();
        assert_eq!(s.per_proc[4].ioat_bytes, 64 << 10);
        assert_eq!(s.per_proc[4].ioat_descs, 16);
        m.check_presence_invariant();
    }

    #[test]
    fn dma_status_completes_after_payload() {
        let m = m();
        let src = m.alloc_phys(4096);
        let dst = m.alloc_phys(4096);
        let status = m.alloc_phys(64);
        let sub = m.dma_submit_copy(
            0,
            0,
            &[(PhysRange::new(src, 4096), PhysRange::new(dst, 4096))],
        );
        let st = m.dma_submit_status(0, 0, PhysRange::new(status, 64));
        assert!(st.complete_at > sub.complete_at);
    }

    #[test]
    fn syscall_and_pin_counters() {
        let m = m();
        assert_eq!(m.syscall(3), m.cfg().costs.syscall);
        assert_eq!(m.pin_pages(3, 16), 16 * m.cfg().costs.pin_page);
        let s = m.snapshot();
        assert_eq!(s.per_proc[3].syscalls, 1);
        assert_eq!(s.per_proc[3].pinned_pages, 16);
    }

    #[test]
    fn copy_cost_counts_both_sides() {
        let m = m();
        let a = m.alloc_phys(4096);
        let b = m.alloc_phys(4096);
        m.copy_cost(0, 0, PhysRange::new(a, 4096), PhysRange::new(b, 4096), 0);
        let s = m.snapshot().per_proc[0];
        assert_eq!(s.accesses(), 128, "64 reads + 64 writes");
        m.check_presence_invariant();
    }

    #[test]
    fn flush_resets_everything() {
        let m = m();
        let a = m.alloc_phys(4096);
        m.access(0, 0, PhysRange::new(a, 4096), AccessKind::Write, 0);
        m.flush_caches();
        assert_eq!(m.l2_resident(0, PhysRange::new(a, 4096)), 0);
        m.check_presence_invariant();
    }

    #[test]
    fn nehalem_l3_services_socket_sibling() {
        let m = Machine::new(MachineConfig::nehalem_x5550());
        let base = m.alloc_phys(64 << 10);
        let r = PhysRange::new(base, 64 << 10);
        // Core 0 reads: the line lands in its L1+L2 and the package L3.
        m.access(0, 0, r, AccessKind::Read, 0);
        // Core 3 (same socket, own private L2) reads: must be served by
        // the shared L3, not DRAM.
        m.access(1, 3, r, AccessKind::Read, 0);
        let s = m.snapshot().per_proc[1];
        assert_eq!(s.l2_misses, 1024);
        assert_eq!(s.l3_hits, 1024, "L3 must service it");
        assert_eq!(s.dram_bytes, 0);
        m.check_presence_invariant();
    }

    #[test]
    fn nehalem_l3_faster_than_cross_socket() {
        let m = Machine::new(MachineConfig::nehalem_x5550());
        let a = m.alloc_phys(256 << 10);
        let ra = PhysRange::new(a, 256 << 10);
        m.access(0, 0, ra, AccessKind::Write, 0);
        // Same-socket consumer (via L3) vs cross-socket consumer.
        let t_l3 = m.access(1, 3, ra, AccessKind::Read, 0);
        m.flush_caches();
        m.access(0, 0, ra, AccessKind::Write, 0);
        let t_remote = m.access(2, 4, ra, AccessKind::Read, 0);
        assert!(
            t_l3 < t_remote,
            "shared L3 ({t_l3}) must beat cross-socket ({t_remote})"
        );
    }

    #[test]
    fn numa_remote_dram_slower_and_counted() {
        let m = Machine::new(MachineConfig::nehalem_x5550());
        let local = m.alloc_phys_on(0, 1 << 20);
        let remote = m.alloc_phys_on(1, 1 << 20);
        // Core 0 (socket 0) streams a node-0 buffer, then a node-1 buffer.
        let t_local = m.access(0, 0, PhysRange::new(local, 1 << 20), AccessKind::Read, 0);
        m.flush_caches();
        let t_remote = m.access(0, 0, PhysRange::new(remote, 1 << 20), AccessKind::Read, 0);
        assert!(
            t_remote > t_local + t_local / 10,
            "remote DRAM ({t_remote}) must cost more than local ({t_local})"
        );
        let s = m.snapshot().per_proc[0];
        assert_eq!(s.dram_remote_bytes, 1 << 20);
        assert_eq!(s.dram_bytes, 2 << 20);
    }

    #[test]
    fn numa_buses_are_independent() {
        // Two identical machines; on the second, node-1 traffic precedes
        // the node-0 stream. Per-node controllers must keep the node-0
        // stream's timing bit-identical (bus state persists across
        // flush_caches, so a fresh machine is the control).
        let run = |occupy_other_node: bool| {
            let m = Machine::new(MachineConfig::nehalem_x5550());
            let a = m.alloc_phys_on(0, 1 << 20);
            let b = m.alloc_phys_on(1, 1 << 20);
            if occupy_other_node {
                m.access(2, 4, PhysRange::new(b, 1 << 20), AccessKind::Read, 0);
            }
            m.access(0, 0, PhysRange::new(a, 1 << 20), AccessKind::Read, 0)
        };
        assert_eq!(
            run(true),
            run(false),
            "per-node memory controllers must not contend"
        );
    }

    #[test]
    fn l3_inclusive_eviction_invalidates_children() {
        // Tiny Nehalem-style machine: 2 cores, private L2, small shared L3.
        let mut cfg = MachineConfig::tiny_test();
        cfg.topology = crate::topology::Topology::new(1, 2, 1).with_l3(2);
        cfg.l2_size = 8 << 10;
        cfg.l3_size = 32 << 10;
        cfg.l3_assoc = 8;
        let m = Machine::new(cfg);
        let small = m.alloc_phys(4096);
        let big = m.alloc_phys(256 << 10);
        m.access(0, 0, PhysRange::new(small, 4096), AccessKind::Read, 0);
        assert!(m.l2_resident(0, PhysRange::new(small, 4096)) > 0);
        // Stream far more than the L3: inclusive eviction must purge the
        // small buffer from the whole hierarchy.
        m.access(0, 0, PhysRange::new(big, 256 << 10), AccessKind::Read, 0);
        assert_eq!(m.l2_resident(0, PhysRange::new(small, 4096)), 0);
        m.check_presence_invariant();
    }

    #[test]
    fn stream_write_no_pollution_and_wins_over_llc() {
        let m = m();
        let sz = 8 << 20; // 2x the 4 MiB L2
        let a = m.alloc_phys(sz);
        let b = m.alloc_phys(sz);
        let ra = PhysRange::new(a, sz);
        let rb = PhysRange::new(b, sz);
        let small = m.alloc_phys(4096);
        m.access(0, 0, PhysRange::new(small, 4096), AccessKind::Read, 0);
        // NT streaming of an over-LLC destination: never allocates, so
        // the resident working set survives.
        let t_nt = m.copy_cost_mode(0, 0, ra, rb, 0, CopyMode::NonTemporal);
        assert_eq!(m.l2_resident(0, rb), 0, "NT stores must not allocate");
        let s = m.snapshot().per_proc[0];
        assert_eq!(s.nt_lines, (sz / LINE));
        m.check_presence_invariant();
        // Same copy with temporal stores on a fresh machine costs more
        // (write-allocate fetches every destination line first).
        let m2 = Machine::new(MachineConfig::xeon_e5345());
        let a2 = m2.alloc_phys(sz);
        let b2 = m2.alloc_phys(sz);
        let t_temporal = m2.copy_cost(0, 0, PhysRange::new(a2, sz), PhysRange::new(b2, sz), 0);
        assert!(
            t_nt < t_temporal,
            "NT ({t_nt}) must beat temporal ({t_temporal}) above the LLC"
        );
    }

    #[test]
    fn temporal_wins_when_destination_is_cached() {
        // Destination resident in the local L2: temporal write hits are
        // far cheaper than NT stores' mandatory bus trips.
        let m = m();
        let sz = 64 << 10;
        let a = m.alloc_phys(sz);
        let b = m.alloc_phys(sz);
        let ra = PhysRange::new(a, sz);
        let rb = PhysRange::new(b, sz);
        let warm = |machine: &Machine, ra: PhysRange, rb: PhysRange| {
            machine.access(0, 0, ra, AccessKind::Read, 0);
            machine.access(0, 0, rb, AccessKind::Write, 0);
        };
        warm(&m, ra, rb);
        let t_temporal = m.copy_cost(0, 0, ra, rb, 0);
        let m2 = Machine::new(MachineConfig::xeon_e5345());
        let a2 = PhysRange::new(m2.alloc_phys(sz), sz);
        let b2 = PhysRange::new(m2.alloc_phys(sz), sz);
        warm(&m2, a2, b2);
        let t_nt = m2.copy_cost_mode(0, 0, a2, b2, 0, CopyMode::NonTemporal);
        assert!(
            t_temporal < t_nt,
            "temporal ({t_temporal}) must beat NT ({t_nt}) in cache"
        );
    }

    #[test]
    fn stream_write_invalidates_remote_copies() {
        let m = m();
        let r = PhysRange::new(m.alloc_phys(64), 64);
        m.access(4, 4, r, AccessKind::Write, 0);
        // Core 0 NT-stores the line: the remote dirty copy must vanish.
        m.access(0, 0, r, AccessKind::StreamWrite, 0);
        let before = m.snapshot().per_proc[4].l2_misses;
        m.access(4, 4, r, AccessKind::Read, 0);
        assert_eq!(m.snapshot().per_proc[4].l2_misses - before, 1);
        m.check_presence_invariant();
    }

    #[test]
    fn dma_channels_overlap_on_nehalem() {
        // Two equal submissions: on Clovertown (1 channel) the second
        // queues behind the first; on Nehalem (2 channels) they overlap.
        let payload = 1 << 20;
        let submit_two = |m: &Machine, second_channel: usize| {
            let s1 = PhysRange::new(m.alloc_phys(payload), payload);
            let d1 = PhysRange::new(m.alloc_phys(payload), payload);
            let s2 = PhysRange::new(m.alloc_phys(payload), payload);
            let d2 = PhysRange::new(m.alloc_phys(payload), payload);
            let a = m.dma_submit_copy_on(0, 0, 0, &[(s1, d1)]);
            let b = m.dma_submit_copy_on(1, 0, second_channel, &[(s2, d2)]);
            (a.complete_at, b.complete_at)
        };
        let uma = Machine::new(MachineConfig::xeon_e5345());
        assert_eq!(uma.dma_channels(), 1);
        let (a, b) = submit_two(&uma, 1); // clamped to channel 0
        assert!(b > a * 3 / 2, "single channel must serialize");
        let numa = Machine::new(MachineConfig::nehalem_x5550());
        assert_eq!(numa.dma_channels(), 2);
        assert_eq!(numa.dma_channel_for_node(1), 1);
        let (a2, b2) = submit_two(&numa, 1);
        assert!(
            b2 < a2 + a2 / 4,
            "second channel ({b2}) must overlap the first ({a2})"
        );
    }

    #[test]
    fn bus_contention_slows_concurrent_streams() {
        let m = m();
        let a = m.alloc_phys(1 << 20);
        let b = m.alloc_phys(1 << 20);
        // Stream A alone from DRAM.
        let alone = m.access(0, 0, PhysRange::new(a, 1 << 20), AccessKind::Read, 0);
        m.flush_caches();
        // Stream B first occupies the bus in the same virtual window, then
        // A streams at the same nominal time: it must take longer.
        m.access(1, 2, PhysRange::new(b, 1 << 20), AccessKind::Read, 0);
        let contended = m.access(0, 0, PhysRange::new(a, 1 << 20), AccessKind::Read, 0);
        assert!(
            contended > alone + alone / 4,
            "contended {contended} vs alone {alone}"
        );
    }
}
