//! Address spaces and buffers.
//!
//! Every simulated buffer holds real bytes (`Vec<u8>`) and a simulated
//! physical placement, so the same object feeds both data-integrity
//! checks and the cache model. Buffers are owned by one process — the
//! address-space isolation that forces large-message transfers through
//! the kernel — or shared (the `mmap`'d segment Nemesis uses for its
//! queues, cells and copy buffers).

use std::sync::{Arc, Mutex};

use nemesis_model::sync::lock;
use nemesis_sim::config::PAGE;
use nemesis_sim::machine::{CopyMode, PhysRange};
use nemesis_sim::{Machine, Proc};

use crate::cma::CmaState;
use crate::knem::KnemState;
use crate::pipe::PipeTable;

/// Handle to a simulated buffer.
pub type BufId = usize;

/// Owner of a buffer: a process, or the shared segment.
pub const SHARED_OWNER: usize = usize::MAX;

/// Huge-page size (2 MiB on x86-64). A huge-page-backed buffer is
/// physically contiguous per 2 MiB, so the page-walk / pin / descriptor
/// charges that scale with page count shrink 512-fold.
pub const HUGE_PAGE: u64 = 2 << 20;

/// An (buffer, offset, length) triple — the simulated `struct iovec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iov {
    pub buf: BufId,
    pub off: u64,
    pub len: u64,
}

impl Iov {
    pub fn new(buf: BufId, off: u64, len: u64) -> Self {
        Self { buf, off, len }
    }

    /// Total bytes across an iovec list.
    pub fn total(iovs: &[Iov]) -> u64 {
        iovs.iter().map(|v| v.len).sum()
    }
}

pub(crate) struct BufEntry {
    pub owner: usize,
    pub phys: u64,
    /// Size of the pages backing this buffer (4 KiB default, 2 MiB for
    /// huge-page windows). Everything charged per touched/pinned page —
    /// CMA walks, KNEM pins, I/OAT descriptor chains — scales with it.
    pub page_size: u64,
    pub data: Vec<u8>,
}

pub(crate) struct OsState {
    pub buffers: Vec<BufEntry>,
    pub pipes: PipeTable,
    pub knem: KnemState,
    pub cma: CmaState,
}

impl OsState {
    /// Two distinct mutable buffer entries (for kernel copies).
    pub fn two_bufs(&mut self, a: BufId, b: BufId) -> (&mut BufEntry, &mut BufEntry) {
        assert_ne!(a, b, "source and destination buffers must differ");
        if a < b {
            let (lo, hi) = self.buffers.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.buffers.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }
}

/// The simulated operating system. One per simulation, shared by all
/// processes.
///
/// **Locking rule:** the internal lock is never held across a scheduler
/// yield; all blocking is done by poll loops outside the lock.
pub struct Os {
    machine: Arc<Machine>,
    pub(crate) state: Mutex<OsState>,
}

impl Os {
    pub fn new(machine: Arc<Machine>) -> Self {
        Self {
            machine,
            state: Mutex::new(OsState {
                buffers: Vec::new(),
                pipes: PipeTable::default(),
                knem: KnemState::default(),
                cma: CmaState::default(),
            }),
        }
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Allocate a private buffer for process `owner` (bytes zeroed).
    pub fn alloc(&self, owner: usize, len: u64) -> BufId {
        let phys = self.machine.alloc_phys(len);
        self.register(owner, phys, len)
    }

    /// Allocate a private buffer for `owner` with its physical pages on
    /// NUMA `node` (first-touch placement, §6). Identical to [`Os::alloc`]
    /// on non-NUMA machines apart from the address-space tag.
    pub fn alloc_on(&self, owner: usize, node: usize, len: u64) -> BufId {
        let phys = self.machine.alloc_phys_on(node, len);
        self.register(owner, phys, len)
    }

    /// Allocate a private buffer whose pages live on the NUMA node local
    /// to `p`'s core — Linux first-touch behaviour, the affinity §6 says
    /// intranode tuning must respect. Plain node-0 placement on non-NUMA
    /// machines.
    pub fn alloc_local(&self, p: &Proc, len: u64) -> BufId {
        let cfg = self.machine.cfg();
        let node = if cfg.numa {
            cfg.topology.socket_of(p.core())
        } else {
            0
        };
        self.alloc_on(p.pid(), node, len)
    }

    /// Allocate a 2 MiB-huge-page-backed window for `owner` on node 0
    /// (the `mmap(MAP_HUGETLB)` analogue). Physical backing is whole
    /// huge pages; `len` stays as requested.
    pub fn alloc_huge(&self, owner: usize, len: u64) -> BufId {
        self.alloc_huge_on(owner, 0, len)
    }

    /// [`Os::alloc_huge`] with explicit NUMA placement.
    pub fn alloc_huge_on(&self, owner: usize, node: usize, len: u64) -> BufId {
        let backing = len.div_ceil(HUGE_PAGE).max(1) * HUGE_PAGE;
        let phys = self.machine.alloc_phys_on(node, backing);
        self.register_paged(owner, phys, len, HUGE_PAGE)
    }

    fn register(&self, owner: usize, phys: u64, len: u64) -> BufId {
        self.register_paged(owner, phys, len, PAGE)
    }

    fn register_paged(&self, owner: usize, phys: u64, len: u64, page_size: u64) -> BufId {
        let mut st = lock(&self.state);
        st.buffers.push(BufEntry {
            owner,
            phys,
            page_size,
            data: vec![0u8; len as usize],
        });
        st.buffers.len() - 1
    }

    /// Size of the pages backing `buf` (4 KiB unless huge-page-backed).
    pub fn page_size(&self, buf: BufId) -> u64 {
        lock(&self.state).buffers[buf].page_size
    }

    /// Page charge for a `len`-byte access to `buf`, at the buffer's
    /// backing page size — the per-page charge unit for CMA walks and
    /// KNEM pins. Charged by length (`ceil(len / page)`), matching the
    /// seed's accounting for 4 KiB mappings; a huge-page window divides
    /// the same length by 2 MiB instead. (Counting pages *spanned* would
    /// add one per misaligned iov — a nuance that only perturbs the
    /// paper-pinned small-transfer costs without informing the model.)
    pub(crate) fn pages_touched(&self, buf: BufId, off: u64, len: u64) -> u64 {
        let _ = off;
        len.div_ceil(self.page_size(buf)).max(1)
    }

    /// Allocate a shared (mmap-style) buffer accessible by every process.
    pub fn alloc_shared(&self, len: u64) -> BufId {
        self.alloc(SHARED_OWNER, len)
    }

    /// Allocate a shared buffer backed by 2 MiB huge pages (the
    /// `shm_open` + `MAP_HUGETLB` analogue). Accesses through it pay
    /// per-page charges at the huge-page granularity, so a CMA/KNEM
    /// walk over the eager cell slab costs 512× fewer page units.
    pub fn alloc_shared_huge(&self, len: u64) -> BufId {
        let backing = len.div_ceil(HUGE_PAGE).max(1) * HUGE_PAGE;
        let phys = self.machine.alloc_phys_on(0, backing);
        self.register_paged(SHARED_OWNER, phys, len, HUGE_PAGE)
    }

    /// Length of a buffer.
    pub fn len(&self, buf: BufId) -> u64 {
        lock(&self.state).buffers[buf].data.len() as u64
    }

    /// Whether there are no buffers at all (clippy convention).
    pub fn is_empty(&self) -> bool {
        lock(&self.state).buffers.is_empty()
    }

    /// Physical range backing `buf[off..off+len]`.
    pub fn phys(&self, buf: BufId, off: u64, len: u64) -> PhysRange {
        let st = lock(&self.state);
        let e = &st.buffers[buf];
        assert!(off + len <= e.data.len() as u64, "range out of bounds");
        PhysRange::new(e.phys + off, len)
    }

    fn assert_user_access(&self, pid: usize, buf: BufId) {
        let st = lock(&self.state);
        let owner = st.buffers[buf].owner;
        assert!(
            owner == pid || owner == SHARED_OWNER,
            "process {pid} cannot access buffer {buf} owned by {owner} from user space"
        );
    }

    /// Charge a user-space read of `buf[off..off+len]` (cache model only).
    pub fn touch_read(&self, p: &Proc, buf: BufId, off: u64, len: u64) {
        self.assert_user_access(p.pid(), buf);
        p.read(self.phys(buf, off, len));
    }

    /// Charge a user-space write of `buf[off..off+len]` (cache model only).
    pub fn touch_write(&self, p: &Proc, buf: BufId, off: u64, len: u64) {
        self.assert_user_access(p.pid(), buf);
        p.write(self.phys(buf, off, len));
    }

    /// Read bytes out of a buffer, charging the access.
    pub fn read_bytes(&self, p: &Proc, buf: BufId, off: u64, len: u64) -> Vec<u8> {
        self.assert_user_access(p.pid(), buf);
        let r = self.phys(buf, off, len);
        let out = {
            let st = lock(&self.state);
            st.buffers[buf].data[off as usize..(off + len) as usize].to_vec()
        };
        p.read(r);
        out
    }

    /// Write bytes into a buffer, charging the access.
    pub fn write_bytes(&self, p: &Proc, buf: BufId, off: u64, bytes: &[u8]) {
        self.assert_user_access(p.pid(), buf);
        let r = self.phys(buf, off, bytes.len() as u64);
        {
            let mut st = lock(&self.state);
            st.buffers[buf].data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        }
        p.write(r);
    }

    /// Mutate buffer contents in place *without* charging the cache model
    /// (initialization / verification helper — pair with `touch_*` when
    /// the access should be timed). The closure must not call back into
    /// the simulation (the OS lock is held).
    pub fn with_data_mut<R>(&self, p: &Proc, buf: BufId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.assert_user_access(p.pid(), buf);
        let mut st = lock(&self.state);
        f(&mut st.buffers[buf].data)
    }

    /// Inspect buffer contents (no charge; see `with_data_mut`).
    pub fn with_data<R>(&self, p: &Proc, buf: BufId, f: impl FnOnce(&[u8]) -> R) -> R {
        self.assert_user_access(p.pid(), buf);
        let st = lock(&self.state);
        f(&st.buffers[buf].data)
    }

    /// User-space copy between two buffers the process may access (the
    /// double-buffering workhorse): moves bytes and charges an
    /// interleaved read/write pass through the cache model.
    pub fn user_copy(
        &self,
        p: &Proc,
        src: BufId,
        src_off: u64,
        dst: BufId,
        dst_off: u64,
        len: u64,
    ) {
        self.user_copy_mode(p, src, src_off, dst, dst_off, len, CopyMode::Temporal);
    }

    /// [`Os::user_copy`] with an explicit destination store mode:
    /// `NonTemporal` streams the destination so an over-LLC copy never
    /// pollutes the hierarchy.
    #[allow(clippy::too_many_arguments)]
    pub fn user_copy_mode(
        &self,
        p: &Proc,
        src: BufId,
        src_off: u64,
        dst: BufId,
        dst_off: u64,
        len: u64,
        mode: CopyMode,
    ) {
        self.assert_user_access(p.pid(), src);
        self.assert_user_access(p.pid(), dst);
        let (rs, rd) = {
            let mut st = lock(&self.state);
            if src == dst {
                let e = &mut st.buffers[src];
                assert!(
                    src_off + len <= dst_off || dst_off + len <= src_off,
                    "overlapping same-buffer copy"
                );
                e.data
                    .copy_within(src_off as usize..(src_off + len) as usize, dst_off as usize);
                (
                    PhysRange::new(e.phys + src_off, len),
                    PhysRange::new(e.phys + dst_off, len),
                )
            } else {
                let (se, de) = st.two_bufs(src, dst);
                de.data[dst_off as usize..(dst_off + len) as usize]
                    .copy_from_slice(&se.data[src_off as usize..(src_off + len) as usize]);
                (
                    PhysRange::new(se.phys + src_off, len),
                    PhysRange::new(de.phys + dst_off, len),
                )
            }
        };
        p.copy_mode(rs, rd, mode);
    }

    /// Kernel-side copy that moves the bytes and *returns* the cost
    /// instead of charging it (used by the asynchronous kernel-thread
    /// model, where the cost lands on a deferred completion time).
    pub(crate) fn kernel_copy_deferred(
        &self,
        p: &Proc,
        src: BufId,
        src_off: u64,
        dst: BufId,
        dst_off: u64,
        len: u64,
    ) -> nemesis_sim::Ps {
        let (rs, rd) = {
            let mut st = lock(&self.state);
            let (se, de) = st.two_bufs(src, dst);
            de.data[dst_off as usize..(dst_off + len) as usize]
                .copy_from_slice(&se.data[src_off as usize..(src_off + len) as usize]);
            (
                PhysRange::new(se.phys + src_off, len),
                PhysRange::new(de.phys + dst_off, len),
            )
        };
        self.machine.copy_cost(p.pid(), p.core(), rs, rd, p.now())
    }

    /// Kernel-side byte move with **no** CPU cache accounting (the I/OAT
    /// data path: the engine, not a core, moves the bytes).
    pub(crate) fn dma_move_bytes(
        &self,
        src: BufId,
        src_off: u64,
        dst: BufId,
        dst_off: u64,
        len: u64,
    ) {
        let mut st = lock(&self.state);
        let (se, de) = st.two_bufs(src, dst);
        de.data[dst_off as usize..(dst_off + len) as usize]
            .copy_from_slice(&se.data[src_off as usize..(src_off + len) as usize]);
    }

    /// Validate an iovec list against a buffer table (bounds + ownership).
    pub(crate) fn validate_iovs(&self, pid: Option<usize>, iovs: &[Iov]) {
        let st = lock(&self.state);
        for v in iovs {
            let e = &st.buffers[v.buf];
            assert!(
                v.off + v.len <= e.data.len() as u64,
                "iov out of bounds: {v:?}"
            );
            if let Some(pid) = pid {
                assert!(
                    e.owner == pid || e.owner == SHARED_OWNER,
                    "iov {v:?} not accessible by process {pid}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_sim::{run_simulation, MachineConfig};

    fn harness(body: impl Fn(&Proc, &Os) + Send + Sync) -> nemesis_sim::SimReport {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        run_simulation(machine, &[0, 4], |p| body(p, &os))
    }

    #[test]
    fn alloc_and_rw_roundtrip() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let b = os.alloc(0, 4096);
            assert_eq!(os.len(b), 4096);
            os.write_bytes(p, b, 100, &[1, 2, 3]);
            assert_eq!(os.read_bytes(p, b, 99, 5), vec![0, 1, 2, 3, 0]);
        });
    }

    #[test]
    fn user_copy_moves_bytes_and_charges() {
        let r = harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let a = os.alloc(0, 8192);
            let b = os.alloc(0, 8192);
            os.with_data_mut(p, a, |d| d.fill(7));
            os.user_copy(p, a, 0, b, 0, 8192);
            os.with_data(p, b, |d| assert!(d.iter().all(|&x| x == 7)));
        });
        assert!(r.finish_times[0] > 0, "copy must consume virtual time");
        assert!(r.stats.per_proc[0].accesses() >= 256, "2 * 128 lines");
    }

    #[test]
    fn same_buffer_copy_disjoint_ok() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let a = os.alloc(0, 8192);
            os.with_data_mut(p, a, |d| d[0..4096].fill(9));
            os.user_copy(p, a, 0, a, 4096, 4096);
            os.with_data(p, a, |d| assert!(d[4096..].iter().all(|&x| x == 9)));
        });
    }

    #[test]
    #[should_panic(expected = "cannot access")]
    fn cross_process_user_access_denied() {
        harness(|p, os| {
            let b = os.alloc(0, 64); // always owned by pid 0
            if p.pid() == 1 {
                os.read_bytes(p, b, 0, 64);
            } else {
                // Give pid 1 a chance to run and hit the assertion.
                for _ in 0..4 {
                    p.poll_tick();
                }
            }
        });
    }

    #[test]
    fn shared_buffers_accessible_by_all() {
        harness(|p, os| {
            // Both processes allocate; ids race-free because the scheduler
            // serializes — but allocate per-process anyway.
            if p.pid() == 0 {
                let s = os.alloc_shared(128);
                os.write_bytes(p, s, 0, b"hello");
            } else {
                p.advance(1); // ensure pid 0 allocates first
                p.yield_now();
                let got = os.read_bytes(p, 0, 0, 5);
                assert_eq!(&got, b"hello");
            }
        });
    }

    #[test]
    fn phys_ranges_disjoint_between_buffers() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let a = os.alloc(0, 4096);
            let b = os.alloc(0, 4096);
            let ra = os.phys(a, 0, 4096);
            let rb = os.phys(b, 0, 4096);
            assert!(ra.base + ra.len <= rb.base || rb.base + rb.len <= ra.base);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn phys_bounds_checked() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let a = os.alloc(0, 64);
            let _ = os.phys(a, 32, 64);
        });
    }

    #[test]
    fn iov_total() {
        let iovs = [Iov::new(0, 0, 10), Iov::new(1, 5, 20)];
        assert_eq!(Iov::total(&iovs), 30);
    }
}
