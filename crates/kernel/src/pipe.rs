//! Unix pipes with the Linux 16-page ring (§3.1).
//!
//! "By default the Linux kernel has a compile-time limitation of 16 pages
//! per pipe (4 KiB/page), for a total limit of 64 KiB transferred per call
//! to vmsplice or readv" — the pipe therefore both chunks large transfers
//! at 64 KiB and acts as the flow-control rendezvous between sender and
//! receiver.
//!
//! Two write paths exist:
//!
//! * [`Os::pipe_try_write`] (`writev`) copies user data into kernel pipe
//!   pages — the receiver's `readv` then copies them out again: **two**
//!   copies.
//! * [`Os::pipe_try_vmsplice`] attaches references to the sender's pages
//!   without copying — `readv` copies straight from the sender's memory
//!   into the destination buffer: **one** copy, at the price of per-page
//!   VFS/mapping overhead on the read side (§4.2 blames exactly this for
//!   vmsplice trailing KNEM).

use std::collections::VecDeque;

use nemesis_model::sync::lock;
use nemesis_sim::config::PAGE;
use nemesis_sim::Proc;

use crate::mem::{BufId, Os, SHARED_OWNER};

/// Handle to a pipe.
pub type PipeId = usize;

/// `PIPE_BUFFERS`: number of page slots per pipe.
pub const PIPE_SLOTS: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Seg {
    /// Data copied into a kernel ring page.
    Copied { page: usize, len: u64 },
    /// A reference to user memory attached by `vmsplice`.
    Attached { buf: BufId, off: u64, len: u64 },
}

impl Seg {
    fn len(&self) -> u64 {
        match *self {
            Seg::Copied { len, .. } | Seg::Attached { len, .. } => len,
        }
    }
}

pub(crate) struct Pipe {
    segs: VecDeque<Seg>,
    /// Kernel buffer backing the ring pages (16 × 4 KiB).
    ring_buf: BufId,
    free_pages: Vec<usize>,
    /// Offset consumed within the head segment.
    head_consumed: u64,
}

impl Pipe {
    fn slots_used(&self) -> usize {
        self.segs.len()
    }

    fn slots_free(&self) -> usize {
        PIPE_SLOTS - self.slots_used()
    }

    fn bytes_available(&self) -> u64 {
        self.segs.iter().map(Seg::len).sum::<u64>() - self.head_consumed
    }
}

#[derive(Default)]
pub(crate) struct PipeTable {
    pub(crate) pipes: Vec<Pipe>,
}

impl Os {
    /// Create a pipe; allocates its 16 kernel ring pages.
    pub fn pipe_create(&self) -> PipeId {
        let ring_buf = self.alloc(SHARED_OWNER, (PIPE_SLOTS as u64) * PAGE);
        let mut st = lock(&self.state);
        st.pipes.pipes.push(Pipe {
            segs: VecDeque::new(),
            ring_buf,
            free_pages: (0..PIPE_SLOTS).rev().collect(),
            head_consumed: 0,
        });
        st.pipes.pipes.len() - 1
    }

    /// Bytes currently readable from the pipe.
    pub fn pipe_bytes_available(&self, pipe: PipeId) -> u64 {
        lock(&self.state).pipes.pipes[pipe].bytes_available()
    }

    /// Whether the pipe holds no segments (sender may reuse vmspliced
    /// pages).
    pub fn pipe_is_drained(&self, pipe: PipeId) -> bool {
        lock(&self.state).pipes.pipes[pipe].segs.is_empty()
    }

    /// One `writev` call: copy up to `len` bytes of `buf[off..]` into free
    /// pipe pages. Returns bytes written (0 if the pipe is full). Charges
    /// one syscall plus the copy-in.
    pub fn pipe_try_write(&self, p: &Proc, pipe: PipeId, buf: BufId, off: u64, len: u64) -> u64 {
        self.validate_iovs(Some(p.pid()), &[crate::mem::Iov::new(buf, off, len)]);
        p.syscall();
        // Plan the page copies under the lock, then charge outside it.
        let mut pairs = Vec::new();
        {
            let mut st = lock(&self.state);
            let ring_buf = st.pipes.pipes[pipe].ring_buf;
            let mut written = 0;
            while written < len {
                let pg = {
                    let pipe = &mut st.pipes.pipes[pipe];
                    if pipe.slots_free() == 0 {
                        break;
                    }
                    pipe.free_pages.pop().expect("free slot implies free page")
                };
                let chunk = (len - written).min(PAGE);
                st.pipes.pipes[pipe].segs.push_back(Seg::Copied {
                    page: pg,
                    len: chunk,
                });
                pairs.push((buf, off + written, ring_buf, pg as u64 * PAGE, chunk));
                written += chunk;
            }
        }
        let written: u64 = pairs.iter().map(|p| p.4).sum();
        if !pairs.is_empty() {
            let c = &p.machine().cfg().costs;
            // pipe_buf allocation/confirmation per kernel page, plus the
            // wakeup of the blocked reader.
            p.advance(pairs.len() as u64 * c.pipe_page + c.pipe_wakeup);
            self.kernel_copy_multi(p, &pairs);
        }
        written
    }

    /// One `vmsplice` call: attach up to `len` bytes of the caller's pages
    /// to the pipe (no copy). Returns bytes attached (0 if full). Charges
    /// one syscall plus page-referencing.
    pub fn pipe_try_vmsplice(&self, p: &Proc, pipe: PipeId, buf: BufId, off: u64, len: u64) -> u64 {
        self.validate_iovs(Some(p.pid()), &[crate::mem::Iov::new(buf, off, len)]);
        p.syscall();
        let mut attached = 0;
        let mut pages = 0u64;
        {
            let mut st = lock(&self.state);
            let pipe = &mut st.pipes.pipes[pipe];
            while attached < len && pipe.slots_free() > 0 {
                // Each slot holds at most one page-run of the user buffer.
                let chunk = (len - attached).min(PAGE);
                pipe.segs.push_back(Seg::Attached {
                    buf,
                    off: off + attached,
                    len: chunk,
                });
                attached += chunk;
                pages += 1;
            }
        }
        // vmsplice runs get_user_pages on the attached range, then wakes
        // the blocked reader.
        p.pin_pages(pages);
        if attached > 0 {
            p.advance(p.machine().cfg().costs.pipe_wakeup);
        }
        attached
    }

    /// One `readv` call: consume up to `max_len` bytes into
    /// `dst[dst_off..]`. Returns bytes read (0 if the pipe is empty).
    /// Copied segments cost one kernel-page copy; attached segments cost a
    /// direct user-to-user copy plus the per-page mapping overhead.
    pub fn pipe_try_read(
        &self,
        p: &Proc,
        pipe: PipeId,
        dst: BufId,
        dst_off: u64,
        max_len: u64,
    ) -> u64 {
        self.validate_iovs(
            Some(p.pid()),
            &[crate::mem::Iov::new(dst, dst_off, max_len)],
        );
        p.syscall();
        let mut pairs = Vec::new();
        let mut mapped_pages = 0u64;
        {
            let mut st = lock(&self.state);
            let ring_buf = st.pipes.pipes[pipe].ring_buf;
            let mut read = 0;
            loop {
                if read >= max_len {
                    break;
                }
                let pipe_ref = &mut st.pipes.pipes[pipe];
                let Some(&head) = pipe_ref.segs.front() else {
                    break;
                };
                let consumed = pipe_ref.head_consumed;
                let avail = head.len() - consumed;
                let take = avail.min(max_len - read);
                match head {
                    Seg::Copied { page, .. } => {
                        pairs.push((
                            ring_buf,
                            page as u64 * PAGE + consumed,
                            dst,
                            dst_off + read,
                            take,
                        ));
                    }
                    Seg::Attached { buf, off, .. } => {
                        pairs.push((buf, off + consumed, dst, dst_off + read, take));
                        mapped_pages += take.div_ceil(PAGE);
                    }
                }
                read += take;
                if take == avail {
                    // Segment fully consumed: release it.
                    let seg = pipe_ref.segs.pop_front().unwrap();
                    pipe_ref.head_consumed = 0;
                    if let Seg::Copied { page, .. } = seg {
                        pipe_ref.free_pages.push(page);
                    }
                } else {
                    pipe_ref.head_consumed = consumed + take;
                }
            }
        }
        if mapped_pages > 0 {
            // VFS + page mapping overhead for spliced pages.
            p.advance(mapped_pages * p.machine().cfg().costs.vmsplice_map_page);
        }
        let read: u64 = pairs.iter().map(|p| p.4).sum();
        if !pairs.is_empty() {
            // Waking the writer blocked on ring space.
            p.advance(p.machine().cfg().costs.pipe_wakeup);
            self.kernel_copy_multi(p, &pairs);
        }
        read
    }

    /// Blocking helper: write the whole range (polling while full).
    pub fn pipe_write_all(&self, p: &Proc, pipe: PipeId, buf: BufId, off: u64, len: u64) {
        let mut done = 0;
        while done < len {
            let w = self.pipe_try_write(p, pipe, buf, off + done, len - done);
            if w == 0 {
                p.poll_tick();
            } else {
                done += w;
            }
        }
    }

    /// Blocking helper: vmsplice the whole range (polling while full).
    pub fn pipe_vmsplice_all(&self, p: &Proc, pipe: PipeId, buf: BufId, off: u64, len: u64) {
        let mut done = 0;
        while done < len {
            let w = self.pipe_try_vmsplice(p, pipe, buf, off + done, len - done);
            if w == 0 {
                p.poll_tick();
            } else {
                done += w;
            }
        }
    }

    /// Blocking helper: read exactly `len` bytes (polling while empty).
    pub fn pipe_read_exact(&self, p: &Proc, pipe: PipeId, dst: BufId, dst_off: u64, len: u64) {
        let mut done = 0;
        while done < len {
            let r = self.pipe_try_read(p, pipe, dst, dst_off + done, len - done);
            if r == 0 {
                p.poll_tick();
            } else {
                done += r;
            }
        }
    }

    /// Batched kernel copy: move every (src, src_off, dst, dst_off, len)
    /// pair and charge the summed cache-model cost with a single yield.
    pub(crate) fn kernel_copy_multi(&self, p: &Proc, pairs: &[(BufId, u64, BufId, u64, u64)]) {
        let mut cost = 0;
        {
            let mut st = lock(&self.state);
            for &(src, src_off, dst, dst_off, len) in pairs {
                let (rs, rd) = if src == dst {
                    let e = &mut st.buffers[src];
                    e.data
                        .copy_within(src_off as usize..(src_off + len) as usize, dst_off as usize);
                    (
                        nemesis_sim::PhysRange::new(e.phys + src_off, len),
                        nemesis_sim::PhysRange::new(e.phys + dst_off, len),
                    )
                } else {
                    let (se, de) = st.two_bufs(src, dst);
                    de.data[dst_off as usize..(dst_off + len) as usize]
                        .copy_from_slice(&se.data[src_off as usize..(src_off + len) as usize]);
                    (
                        nemesis_sim::PhysRange::new(se.phys + src_off, len),
                        nemesis_sim::PhysRange::new(de.phys + dst_off, len),
                    )
                };
                cost += self
                    .machine()
                    .copy_cost(p.pid(), p.core(), rs, rd, p.now() + cost);
            }
        }
        p.advance(cost);
        p.yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_sim::{run_simulation, Machine, MachineConfig};
    use std::sync::Arc;

    fn harness(body: impl Fn(&Proc, &Os) + Send + Sync) -> nemesis_sim::SimReport {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        run_simulation(machine, &[0, 4], |p| body(p, &os))
    }

    /// Both processes see the same pipe/buffer ids because the setup is
    /// done by pid 0 at clock 0 before pid 1 runs (ids are sequential).
    fn duplex(
        sender: impl Fn(&Proc, &Os, PipeId) + Send + Sync,
        receiver: impl Fn(&Proc, &Os, PipeId) + Send + Sync,
    ) {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        let pipe = os.pipe_create();
        run_simulation(machine, &[0, 4], |p| {
            if p.pid() == 0 {
                sender(p, &os, pipe)
            } else {
                receiver(p, &os, pipe)
            }
        });
    }

    #[test]
    fn write_fills_at_most_16_pages() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let pipe = os.pipe_create();
            let buf = os.alloc(0, 256 << 10);
            let w = os.pipe_try_write(p, pipe, buf, 0, 256 << 10);
            assert_eq!(w, 64 << 10, "one writev moves at most 64 KiB");
            assert_eq!(os.pipe_try_write(p, pipe, buf, w, 4096), 0, "full");
            assert_eq!(os.pipe_bytes_available(pipe), 64 << 10);
        });
    }

    #[test]
    fn vmsplice_attaches_at_most_16_slots() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let pipe = os.pipe_create();
            let buf = os.alloc(0, 256 << 10);
            let w = os.pipe_try_vmsplice(p, pipe, buf, 0, 256 << 10);
            assert_eq!(w, 64 << 10);
            assert!(!os.pipe_is_drained(pipe));
        });
    }

    #[test]
    fn writev_roundtrip_data_integrity() {
        duplex(
            |p, os, pipe| {
                let buf = os.alloc(0, 200_000);
                os.with_data_mut(p, buf, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i % 253) as u8;
                    }
                });
                os.pipe_write_all(p, pipe, buf, 0, 200_000);
            },
            |p, os, pipe| {
                let dst = os.alloc(1, 200_000);
                os.pipe_read_exact(p, pipe, dst, 0, 200_000);
                os.with_data(p, dst, |d| {
                    for (i, b) in d.iter().enumerate() {
                        assert_eq!(*b, (i % 253) as u8, "byte {i}");
                    }
                });
            },
        );
    }

    #[test]
    fn vmsplice_roundtrip_data_integrity() {
        duplex(
            |p, os, pipe| {
                let buf = os.alloc(0, 150_000);
                os.with_data_mut(p, buf, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i % 241) as u8;
                    }
                });
                os.pipe_vmsplice_all(p, pipe, buf, 0, 150_000);
                // Wait for the receiver to drain before exiting (gift
                // semantics: pages must stay valid).
                p.poll_until(|| os.pipe_is_drained(pipe).then_some(()));
            },
            |p, os, pipe| {
                let dst = os.alloc(1, 150_000);
                os.pipe_read_exact(p, pipe, dst, 0, 150_000);
                os.with_data(p, dst, |d| {
                    for (i, b) in d.iter().enumerate() {
                        assert_eq!(*b, (i % 241) as u8, "byte {i}");
                    }
                });
            },
        );
    }

    #[test]
    fn vmsplice_does_single_copy_writev_does_two() {
        // Compare access counts: writev charges copy-in + copy-out
        // (2 passes), vmsplice only copy-out (1 pass).
        let count_for = |use_vmsplice: bool| {
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Os::new(Arc::clone(&machine));
            let pipe = os.pipe_create();
            let m2 = Arc::clone(&machine);
            run_simulation(machine, &[0, 4], |p| {
                if p.pid() == 0 {
                    let buf = os.alloc(0, 64 << 10);
                    if use_vmsplice {
                        os.pipe_vmsplice_all(p, pipe, buf, 0, 64 << 10);
                        p.poll_until(|| os.pipe_is_drained(pipe).then_some(()));
                    } else {
                        os.pipe_write_all(p, pipe, buf, 0, 64 << 10);
                    }
                } else {
                    let dst = os.alloc(1, 64 << 10);
                    os.pipe_read_exact(p, pipe, dst, 0, 64 << 10);
                }
            });
            let t = m2.snapshot().total();
            t.accesses()
        };
        let two_copy = count_for(false);
        let one_copy = count_for(true);
        // 64 KiB = 1024 lines; two-copy touches ~4096 line-accesses
        // (read+write twice), single-copy ~2048.
        assert!(
            two_copy > one_copy + 1500,
            "two-copy {two_copy} vs single-copy {one_copy}"
        );
    }

    #[test]
    fn read_from_empty_pipe_returns_zero() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let pipe = os.pipe_create();
            let dst = os.alloc(0, 4096);
            assert_eq!(os.pipe_try_read(p, pipe, dst, 0, 4096), 0);
        });
    }

    #[test]
    fn partial_segment_reads() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let pipe = os.pipe_create();
            let buf = os.alloc(0, 4096);
            os.with_data_mut(p, buf, |d| d.fill(5));
            os.pipe_try_write(p, pipe, buf, 0, 4096);
            let dst = os.alloc(0, 4096);
            // Read in three odd-sized nibbles.
            assert_eq!(os.pipe_try_read(p, pipe, dst, 0, 1000), 1000);
            assert_eq!(os.pipe_try_read(p, pipe, dst, 1000, 96), 96);
            assert_eq!(os.pipe_try_read(p, pipe, dst, 1096, 3000), 3000);
            os.with_data(p, dst, |d| assert!(d.iter().all(|&x| x == 5)));
            assert!(os.pipe_is_drained(pipe));
        });
    }

    #[test]
    fn slots_recycled_after_read() {
        harness(|p, os| {
            if p.pid() != 0 {
                return;
            }
            let pipe = os.pipe_create();
            let buf = os.alloc(0, 64 << 10);
            let dst = os.alloc(0, 64 << 10);
            for _ in 0..5 {
                assert_eq!(os.pipe_try_write(p, pipe, buf, 0, 64 << 10), 64 << 10);
                assert_eq!(os.pipe_try_read(p, pipe, dst, 0, 64 << 10), 64 << 10);
            }
        });
    }

    #[test]
    fn pingpong_through_pipe_advances_time() {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        let p01 = os.pipe_create();
        let p10 = os.pipe_create();
        let r = run_simulation(machine, &[0, 4], |p| {
            let me = os.alloc(p.pid(), 64 << 10);
            if p.pid() == 0 {
                os.pipe_write_all(p, p01, me, 0, 64 << 10);
                os.pipe_read_exact(p, p10, me, 0, 64 << 10);
            } else {
                os.pipe_read_exact(p, p01, me, 0, 64 << 10);
                os.pipe_write_all(p, p10, me, 0, 64 << 10);
            }
        });
        assert!(r.makespan > nemesis_sim::ns(1000));
    }
}
