//! The KNEM character device (§3.2–3.4).
//!
//! Protocol (Figure 1): the sender *declares* a send buffer — the driver
//! pins it, records its segment list and returns a **cookie** — and ships
//! the cookie id to the receiver through user-space (the Nemesis
//! rendezvous). The receiver passes the cookie plus a receive buffer to
//! the driver, which moves the data directly between the two address
//! spaces: one copy instead of Nemesis's two.
//!
//! Receive modes:
//!
//! * **Sync CPU** — the driver copies inside the ioctl on the receiver's
//!   core; simple, but blocks the receiver for milliseconds on large
//!   messages (§4.3).
//! * **Async kernel thread** — a kernel thread performs the copy while
//!   the receiver returns to user space and polls a status variable; the
//!   thread runs *on the receiver's core*, so user process and kernel
//!   thread compete for the CPU, reducing throughput (§4.3, Figure 6).
//! * **Sync / Async I/OAT** — the copy is offloaded to the DMA engine
//!   (§3.3). For the async variant, completion notification exploits the
//!   engine's in-order processing: a trailing one-byte copy writes
//!   `Success` into the status variable (Figure 2), so both the copy and
//!   its notification happen entirely in the background.

use std::collections::HashMap;

use nemesis_model::sync::lock;
use nemesis_sim::machine::PhysRange;
use nemesis_sim::{Proc, Ps};

use crate::mem::{BufId, Iov, Os};

/// Cookie identifying a declared (pinned) send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cookie(pub u64);

/// Handle to a status variable used for asynchronous completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusId(pub usize);

/// How the receive command performs the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnemMode {
    SyncCpu,
    AsyncKthread,
    SyncIoat,
    AsyncIoat,
}

/// Flags passed to [`Os::knem_recv_cmd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnemFlags {
    pub mode: KnemMode,
    /// DMA channel the I/OAT modes submit to (clamped to what the
    /// machine has). Channel 0 is the legacy rail; NUMA parts expose one
    /// per memory node, and striping across them genuinely overlaps.
    pub channel: usize,
}

impl KnemFlags {
    pub fn sync_cpu() -> Self {
        Self {
            mode: KnemMode::SyncCpu,
            channel: 0,
        }
    }
    pub fn async_kthread() -> Self {
        Self {
            mode: KnemMode::AsyncKthread,
            channel: 0,
        }
    }
    pub fn sync_ioat() -> Self {
        Self {
            mode: KnemMode::SyncIoat,
            channel: 0,
        }
    }
    pub fn async_ioat() -> Self {
        Self {
            mode: KnemMode::AsyncIoat,
            channel: 0,
        }
    }
    /// Target a specific DMA channel (I/OAT modes only; no-op otherwise).
    pub fn on_channel(mut self, channel: usize) -> Self {
        self.channel = channel;
        self
    }
    /// Whether the copy engine (rather than a CPU) moves the bytes.
    pub fn uses_ioat(&self) -> bool {
        matches!(self.mode, KnemMode::SyncIoat | KnemMode::AsyncIoat)
    }
}

struct CookieEntry {
    owner: usize,
    iovs: Vec<Iov>,
    /// Pages held pinned until the cookie is destroyed (released —
    /// `put_page` — and charged by [`Os::knem_destroy_cookie`]).
    pinned_pages: u64,
}

struct StatusEntry {
    owner: usize,
    buf: BufId,
    /// Virtual time at which the status flips to Success; `None` = no
    /// operation outstanding.
    done_at: Option<Ps>,
}

#[derive(Default)]
pub(crate) struct KnemState {
    cookies: HashMap<u64, CookieEntry>,
    next_cookie: u64,
    statuses: Vec<StatusEntry>,
}

/// Flat copy plan entry: (src buf, src off, dst buf, dst off, len).
type CopyRun = (BufId, u64, BufId, u64, u64);

/// Pair two iovec lists into equal-length runs (supports the vectorial
/// buffers LiMIC2 lacks, §5).
fn pair_iovs(src: &[Iov], dst: &[Iov]) -> Vec<CopyRun> {
    assert_eq!(
        Iov::total(src),
        Iov::total(dst),
        "source and destination iovec lengths must match"
    );
    let mut runs = Vec::new();
    let (mut si, mut so, mut di, mut do_) = (0usize, 0u64, 0usize, 0u64);
    while si < src.len() && di < dst.len() {
        let s = &src[si];
        let d = &dst[di];
        let n = (s.len - so).min(d.len - do_);
        if n > 0 {
            runs.push((s.buf, s.off + so, d.buf, d.off + do_, n));
        }
        so += n;
        do_ += n;
        if so == s.len {
            si += 1;
            so = 0;
        }
        if do_ == d.len {
            di += 1;
            do_ = 0;
        }
    }
    runs
}

impl Os {
    /// KNEM send command (Figure 1, step 1): pin the buffer, save the
    /// segment list, return a cookie.
    pub fn knem_send_cmd(&self, p: &Proc, iovs: &[Iov]) -> Cookie {
        self.validate_iovs(Some(p.pid()), iovs);
        p.syscall();
        // Pin one page per touched backing page: huge-page windows pin
        // 512x fewer.
        let pages: u64 = iovs
            .iter()
            .map(|v| self.pages_touched(v.buf, v.off, v.len))
            .sum();
        p.pin_pages(pages);
        let mut st = lock(&self.state);
        let id = st.knem.next_cookie;
        st.knem.next_cookie += 1;
        st.knem.cookies.insert(
            id,
            CookieEntry {
                owner: p.pid(),
                iovs: iovs.to_vec(),
                pinned_pages: pages,
            },
        );
        Cookie(id)
    }

    /// Destroy a cookie, unpinning the send buffer. Any process may do
    /// this (in practice the receiver, after completion, or the sender on
    /// cleanup). Releasing the pinned pages (`put_page`) is charged at a
    /// quarter of the `get_user_pages` cost — no page-table walk or
    /// fault handling on release.
    pub fn knem_destroy_cookie(&self, p: &Proc, cookie: Cookie) {
        p.syscall();
        let entry = {
            let mut st = lock(&self.state);
            st.knem
                .cookies
                .remove(&cookie.0)
                .expect("destroying unknown cookie")
        };
        p.advance(entry.pinned_pages * self.machine().cfg().costs.pin_page / 4);
    }

    /// Number of live cookies (diagnostics).
    pub fn knem_live_cookies(&self) -> usize {
        lock(&self.state).knem.cookies.len()
    }

    /// Pages currently held pinned by live cookies (diagnostics: a
    /// nonzero value after a quiescent point is a pin leak, the failure
    /// mode real KNEM guards with region accounting).
    pub fn knem_pinned_pages(&self) -> u64 {
        lock(&self.state)
            .knem
            .cookies
            .values()
            .map(|e| e.pinned_pages)
            .sum()
    }

    /// Allocate a status variable for async completions.
    pub fn knem_alloc_status(&self, owner: usize) -> StatusId {
        let buf = self.alloc(owner, 64);
        let mut st = lock(&self.state);
        st.knem.statuses.push(StatusEntry {
            owner,
            buf,
            done_at: None,
        });
        StatusId(st.knem.statuses.len() - 1)
    }

    /// Poll a status variable: returns `true` once the operation that
    /// armed it has completed (in virtual time). Charges one cached read.
    pub fn knem_poll_status(&self, p: &Proc, status: StatusId) -> bool {
        let (buf, done_at) = {
            let st = lock(&self.state);
            let e = &st.knem.statuses[status.0];
            assert_eq!(e.owner, p.pid(), "polling someone else's status");
            (e.buf, e.done_at)
        };
        let r = self.phys(buf, 0, 8);
        let c = self
            .machine()
            .access(p.pid(), p.core(), r, nemesis_sim::AccessKind::Read, p.now());
        p.advance(c);
        match done_at {
            Some(t) => p.now() >= t,
            None => false,
        }
    }

    /// Block (poll loop) until the status variable reports Success.
    pub fn knem_wait_status(&self, p: &Proc, status: StatusId) {
        while !self.knem_poll_status(p, status) {
            p.poll_tick();
        }
    }

    /// KNEM receive command (Figure 1, steps 4–6): copy the cookie's data
    /// into `dst_iovs` using the requested mode. The status variable is
    /// armed with the completion time; for the synchronous modes it is
    /// already Success when the call returns.
    pub fn knem_recv_cmd(
        &self,
        p: &Proc,
        cookie: Cookie,
        dst_iovs: &[Iov],
        flags: KnemFlags,
        status: StatusId,
    ) {
        self.validate_iovs(Some(p.pid()), dst_iovs);
        p.syscall();
        let src_iovs = {
            let st = lock(&self.state);
            let entry = st
                .knem
                .cookies
                .get(&cookie.0)
                .expect("receive with unknown cookie");
            assert_ne!(entry.owner, p.pid(), "self-receive is pointless");
            entry.iovs.clone()
        };
        let runs = pair_iovs(&src_iovs, dst_iovs);
        let total: u64 = runs.iter().map(|r| r.4).sum();

        let src_pages: u64 = src_iovs
            .iter()
            .map(|v| self.pages_touched(v.buf, v.off, v.len))
            .sum();
        let done_at = match flags.mode {
            KnemMode::SyncCpu => {
                // Kernel copies inside the ioctl on the receiver's core,
                // mapping each pinned source page as it goes.
                p.advance(src_pages * self.machine().cfg().costs.knem_map_page);
                self.kernel_copy_multi(p, &runs);
                p.now()
            }
            KnemMode::AsyncKthread => {
                // A kernel thread on the receiver's core performs the copy
                // in the background; the user process returns immediately
                // but the two compete for the core, inflating the copy
                // time (§4.3). Cache effects are applied at submission.
                let c = self.machine().cfg().costs.clone();
                let mut cost: Ps = src_pages * c.knem_map_page;
                for &(sb, so, db, dof, len) in &runs {
                    cost += self.kernel_copy_deferred(p, sb, so, db, dof, len);
                }
                let inflated = cost * c.kthread_contention_pct / 100;
                p.now() + c.kthread_wakeup + inflated
            }
            KnemMode::SyncIoat | KnemMode::AsyncIoat => {
                // Pin the destination (§3.3: "the receive command pins the
                // receiver buffer only when I/OAT is used").
                let dst_pages: u64 = dst_iovs
                    .iter()
                    .map(|v| self.pages_touched(v.buf, v.off, v.len))
                    .sum();
                p.pin_pages(dst_pages);
                // One descriptor per physically contiguous chunk — at each
                // buffer's backing page size, so huge-page windows submit
                // 2 MiB descriptors instead of 512 x 4 KiB ones.
                let mut descs = Vec::new();
                for &(sb, so, db, dof, len) in &runs {
                    let rs = self.phys(sb, so, len);
                    let rd = self.phys(db, dof, len);
                    let mut s_chunks = rs.chunks_of(self.page_size(sb)).into_iter();
                    let mut d_chunks = rd.chunks_of(self.page_size(db)).into_iter();
                    let (mut sc, mut dc) = (s_chunks.next(), d_chunks.next());
                    while let (Some(s), Some(d)) = (sc, dc) {
                        let n = s.len.min(d.len);
                        descs.push((PhysRange::new(s.base, n), PhysRange::new(d.base, n)));
                        sc = if s.len > n {
                            Some(PhysRange::new(s.base + n, s.len - n))
                        } else {
                            s_chunks.next()
                        };
                        dc = if d.len > n {
                            Some(PhysRange::new(d.base + n, d.len - n))
                        } else {
                            d_chunks.next()
                        };
                    }
                }
                let sub = p.dma_copy_on(flags.channel, &descs);
                // Engine moves the actual bytes (no CPU cache accounting).
                for &(sb, so, db, dof, len) in &runs {
                    self.dma_move_bytes(sb, so, db, dof, len);
                }
                if flags.mode == KnemMode::SyncIoat {
                    // Poll the engine inside the ioctl until done. The
                    // kernel spin reads the device's MMIO status register
                    // across the I/O bus, adding ~12% overhead on the wait
                    // — the cost the asynchronous model avoids (§3.4).
                    if sub.complete_at > p.now() {
                        let wait = sub.complete_at - p.now();
                        p.advance(wait + wait / 8);
                    }
                    p.now()
                } else {
                    // Figure 2: trailing one-byte status copy.
                    let sbuf = {
                        let st = lock(&self.state);
                        st.knem.statuses[status.0].buf
                    };
                    let st_sub = p.dma_status_on(flags.channel, self.phys(sbuf, 0, 1));
                    st_sub.complete_at
                }
            }
        };
        let mut st = lock(&self.state);
        st.knem.statuses[status.0].done_at = Some(done_at);
        drop(st);
        debug_assert!(total == Iov::total(dst_iovs));
        p.yield_now();
    }

    /// Re-arm a status variable before reuse.
    pub fn knem_reset_status(&self, p: &Proc, status: StatusId) {
        let mut st = lock(&self.state);
        let e = &mut st.knem.statuses[status.0];
        assert_eq!(e.owner, p.pid());
        e.done_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_sim::{run_simulation, Machine, MachineConfig};
    use std::sync::{Arc, Mutex};

    /// Two-process harness: pid 0 fills a 0-owned buffer and declares it,
    /// pid 1 receives into its own buffer with the given flags; returns
    /// (makespan, receiver clock at completion visibility).
    fn transfer(len: u64, flags: KnemFlags) -> (nemesis_sim::Ps, Vec<u8>) {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        let cookie_slot = Mutex::new(None::<Cookie>);
        let out = Mutex::new(Vec::new());
        let r = run_simulation(machine, &[0, 4], |p| {
            if p.pid() == 0 {
                let src = os.alloc(0, len);
                os.with_data_mut(p, src, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i % 239) as u8;
                    }
                });
                os.touch_write(p, src, 0, len);
                let c = os.knem_send_cmd(p, &[Iov::new(src, 0, len)]);
                *lock(&cookie_slot) = Some(c);
            } else {
                let dst = os.alloc(1, len);
                let c = p.poll_until(|| *lock(&cookie_slot));
                let status = os.knem_alloc_status(1);
                os.knem_recv_cmd(p, c, &[Iov::new(dst, 0, len)], flags, status);
                os.knem_wait_status(p, status);
                os.knem_destroy_cookie(p, c);
                *lock(&out) = os.read_bytes(p, dst, 0, len);
            }
        });
        assert_eq!(os.knem_live_cookies(), 0);
        let data = lock(&out).clone();
        (r.makespan, data)
    }

    fn verify(data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            assert_eq!(*b, (i % 239) as u8, "byte {i} corrupt");
        }
    }

    #[test]
    fn sync_cpu_roundtrip() {
        let (t, d) = transfer(128 << 10, KnemFlags::sync_cpu());
        assert!(t > 0);
        verify(&d);
    }

    #[test]
    fn async_kthread_roundtrip() {
        let (t, d) = transfer(128 << 10, KnemFlags::async_kthread());
        assert!(t > 0);
        verify(&d);
    }

    #[test]
    fn sync_ioat_roundtrip() {
        let (t, d) = transfer(128 << 10, KnemFlags::sync_ioat());
        assert!(t > 0);
        verify(&d);
    }

    #[test]
    fn async_ioat_roundtrip() {
        let (t, d) = transfer(128 << 10, KnemFlags::async_ioat());
        assert!(t > 0);
        verify(&d);
    }

    #[test]
    fn async_kthread_slower_than_sync_for_blocking_receiver() {
        // A receiver that immediately waits gains nothing from the async
        // kernel-thread model and pays the contention penalty (§4.3).
        let (sync_t, _) = transfer(1 << 20, KnemFlags::sync_cpu());
        let (async_t, _) = transfer(1 << 20, KnemFlags::async_kthread());
        assert!(
            async_t > sync_t,
            "kthread contention must hurt: async {async_t} vs sync {sync_t}"
        );
    }

    #[test]
    fn ioat_avoids_receiver_cache_accesses() {
        let run = |flags: KnemFlags| {
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Os::new(Arc::clone(&machine));
            let cookie_slot = Mutex::new(None::<Cookie>);
            let m2 = Arc::clone(&machine);
            run_simulation(machine, &[0, 4], |p| {
                if p.pid() == 0 {
                    let src = os.alloc(0, 1 << 20);
                    os.touch_write(p, src, 0, 1 << 20);
                    *lock(&cookie_slot) = Some(os.knem_send_cmd(p, &[Iov::new(src, 0, 1 << 20)]));
                } else {
                    let dst = os.alloc(1, 1 << 20);
                    let c = p.poll_until(|| *lock(&cookie_slot));
                    let status = os.knem_alloc_status(1);
                    os.knem_recv_cmd(p, c, &[Iov::new(dst, 0, 1 << 20)], flags, status);
                    os.knem_wait_status(p, status);
                }
            });
            m2.snapshot().per_proc.get(1).copied().unwrap_or_default()
        };
        let cpu = run(KnemFlags::sync_cpu());
        let ioat = run(KnemFlags::sync_ioat());
        assert!(
            ioat.accesses() * 10 < cpu.accesses(),
            "I/OAT receiver touches almost nothing: {} vs {}",
            ioat.accesses(),
            cpu.accesses()
        );
        assert_eq!(ioat.ioat_bytes, 1 << 20);
        assert_eq!(ioat.ioat_descs, 256, "one descriptor per 4 KiB page");
    }

    #[test]
    fn huge_page_buffers_shrink_pins_and_descriptors() {
        use crate::mem::HUGE_PAGE;
        let len: u64 = 1 << 20;
        let run = |huge: bool| {
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Os::new(Arc::clone(&machine));
            let cookie_slot = Mutex::new(None::<Cookie>);
            let m2 = Arc::clone(&machine);
            let out = Mutex::new(Vec::new());
            run_simulation(machine, &[0, 4], |p| {
                if p.pid() == 0 {
                    let src = if huge {
                        os.alloc_huge(0, len)
                    } else {
                        os.alloc(0, len)
                    };
                    os.with_data_mut(p, src, |d| {
                        for (i, b) in d.iter_mut().enumerate() {
                            *b = (i % 239) as u8;
                        }
                    });
                    os.touch_write(p, src, 0, len);
                    *lock(&cookie_slot) = Some(os.knem_send_cmd(p, &[Iov::new(src, 0, len)]));
                } else {
                    let dst = if huge {
                        os.alloc_huge(1, len)
                    } else {
                        os.alloc(1, len)
                    };
                    let c = p.poll_until(|| *lock(&cookie_slot));
                    let status = os.knem_alloc_status(1);
                    os.knem_recv_cmd(
                        p,
                        c,
                        &[Iov::new(dst, 0, len)],
                        KnemFlags::sync_ioat(),
                        status,
                    );
                    os.knem_wait_status(p, status);
                    os.knem_destroy_cookie(p, c);
                    *lock(&out) = os.read_bytes(p, dst, 0, len);
                }
            });
            let stats = m2.snapshot().per_proc.to_vec();
            let bytes = lock(&out).clone();
            (bytes, stats)
        };
        let (small_bytes, small_stats) = run(false);
        let (huge_bytes, huge_stats) = run(true);
        assert_eq!(small_bytes, huge_bytes, "huge-page path corrupts data");
        // 4 KiB: 256 pinned source pages + 256 descriptors per MiB.
        // 2 MiB: 1 pinned page, 1 descriptor (the whole MiB sits inside
        // one huge page).
        assert_eq!(small_stats[0].pinned_pages, 256);
        assert_eq!(huge_stats[0].pinned_pages, 1);
        assert_eq!(small_stats[1].ioat_descs, 256);
        assert_eq!(huge_stats[1].ioat_descs, 1);
        assert_eq!(HUGE_PAGE, 2 << 20);
    }

    #[test]
    fn ioat_second_channel_overlaps_transfers() {
        // One receiver pulls two 1 MiB regions via async I/OAT back to
        // back. Sources and destinations both live on node 1 so the
        // engine's read and write traffic stays off node 0's bus, where
        // the status variables live — the status polls then observe
        // engine completion, not bus drain. On distinct channels the
        // engines run concurrently; on one channel the second copy
        // queues behind the first.
        let run = |second_channel: usize| {
            let machine = Arc::new(Machine::new(MachineConfig::nehalem_x5550()));
            let os = Os::new(Arc::clone(&machine));
            let cookies = Mutex::new(Vec::<Cookie>::new());
            let len: u64 = 1 << 20;
            let done = Mutex::new(0);
            run_simulation(machine, &[0, 4], |p| {
                if p.pid() == 0 {
                    for _ in 0..2 {
                        let src = os.alloc_on(0, 1, len);
                        os.touch_write(p, src, 0, len);
                        let c = os.knem_send_cmd(p, &[Iov::new(src, 0, len)]);
                        lock(&cookies).push(c);
                    }
                } else {
                    p.poll_until(|| (lock(&cookies).len() == 2).then_some(()));
                    let t0 = p.now();
                    let statuses: Vec<StatusId> = (0..2)
                        .map(|i| {
                            let c = lock(&cookies)[i];
                            let dst = os.alloc_on(1, 1, len);
                            let status = os.knem_alloc_status(1);
                            let ch = if i == 0 { 0 } else { second_channel };
                            os.knem_recv_cmd(
                                p,
                                c,
                                &[Iov::new(dst, 0, len)],
                                KnemFlags::async_ioat().on_channel(ch),
                                status,
                            );
                            status
                        })
                        .collect();
                    for s in statuses {
                        os.knem_wait_status(p, s);
                    }
                    *lock(&done) = p.now() - t0;
                }
            });
            let d = *lock(&done);
            d
        };
        let multiplexed = run(0);
        let railed = run(1);
        // The payloads overlap by ~100 us of engine time when railed.
        assert!(
            railed + 50_000_000 < multiplexed,
            "second channel ({railed}) must beat multiplexing ({multiplexed})"
        );
    }

    #[test]
    fn vectorial_iovs_pair_correctly() {
        let src = [Iov::new(10, 0, 100), Iov::new(11, 50, 200)];
        let dst = [Iov::new(20, 0, 120), Iov::new(21, 0, 180)];
        let runs = pair_iovs(&src, &dst);
        let total: u64 = runs.iter().map(|r| r.4).sum();
        assert_eq!(total, 300);
        assert_eq!(runs[0], (10, 0, 20, 0, 100));
        assert_eq!(runs[1], (11, 50, 20, 100, 20));
        assert_eq!(runs[2], (11, 70, 21, 0, 180));
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_iov_lengths_rejected() {
        pair_iovs(&[Iov::new(0, 0, 10)], &[Iov::new(1, 0, 20)]);
    }

    #[test]
    fn status_reset_and_reuse() {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        run_simulation(machine, &[0, 1], |p| {
            if p.pid() != 0 {
                return;
            }
            let status = os.knem_alloc_status(0);
            assert!(!os.knem_poll_status(p, status), "unarmed status is false");
            os.knem_reset_status(p, status);
            assert!(!os.knem_poll_status(p, status));
        });
    }

    #[test]
    fn send_cmd_pins_pages() {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        let m2 = Arc::clone(&machine);
        run_simulation(machine, &[0, 1], |p| {
            if p.pid() != 0 {
                return;
            }
            let b = os.alloc(0, 10 * 4096);
            let c = os.knem_send_cmd(p, &[Iov::new(b, 0, 10 * 4096)]);
            assert_eq!(os.knem_pinned_pages(), 10, "cookie holds its pin");
            os.knem_destroy_cookie(p, c);
            assert_eq!(os.knem_pinned_pages(), 0, "destroy releases the pin");
        });
        assert_eq!(m2.snapshot().per_proc[0].pinned_pages, 10);
    }
}
