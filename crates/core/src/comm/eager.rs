//! The eager protocol (§2): small messages travel through the sender's
//! pooled shared cells — one copy in, one copy out, no handshake.
//! Messages needing more cells than the pool holds stream through it in
//! fragments, exactly as real Nemesis sends multi-cell eager data.

use nemesis_kernel::BufId;
use nemesis_model::sync::lock;

use crate::shm::{Envelope, PktKind, ShmState};

use super::state::segs_slice;
use super::{Comm, WATCHDOG_PS};

impl Comm<'_> {
    /// Spin the progress loop (watchdog-guarded) until `take` claims
    /// cells from the shared state — the one cell-acquisition wait every
    /// eager path shares.
    fn await_cells<R>(&self, mut take: impl FnMut(&mut ShmState) -> Option<R>) -> R {
        let start = self.p.now();
        loop {
            {
                let mut sh = lock(&self.nem.sh);
                if let Some(r) = take(&mut sh) {
                    return r;
                }
            }
            self.progress();
            self.p.poll_tick();
            assert!(
                self.p.now() - start < WATCHDOG_PS,
                "rank {} starved of eager cells",
                self.rank()
            );
        }
    }
    /// Eager send of the source segments (one contiguous run, or a
    /// layout's blocks): copy into pooled cells (first copy of the two)
    /// and enqueue the envelope.
    pub(super) fn eager_send(&self, dst: usize, tag: i32, src: &[(BufId, u64, u64)], len: u64) {
        // The eager/rendezvous switch is the facade's decision
        // ([`TransferPolicy::use_rendezvous`](crate::lmt::TransferPolicy));
        // by the time a message reaches this module it must be on the
        // eager side of it.
        debug_assert!(
            !self.nem.policy.use_rendezvous(len),
            "rendezvous-sized message ({len} B) routed onto the eager path"
        );
        let cfg = &self.nem.cfg;
        // Fused fast path: a contiguous payload fitting one cell skips
        // all segment bookkeeping — one cell acquire, one straight-line
        // pack-into-cell copy, done. This is the msg-rate hot path (the
        // common small contiguous message), so it must not build
        // per-message segment lists.
        if let [(sbuf, soff, slen)] = *src {
            if slen == len && len > 0 && len <= cfg.cell_payload {
                return self.eager_send_fused(dst, tag, sbuf, soff, len);
            }
        }
        let ncells = len.div_ceil(cfg.cell_payload) as usize;
        if ncells <= cfg.cells_per_proc {
            self.eager_send_single(dst, tag, src, len, ncells);
        } else {
            self.eager_send_fragmented(dst, tag, src, len);
        }
    }

    /// The fused single-cell path: acquire exactly one cell and pack the
    /// contiguous payload into it with a single copy.
    fn eager_send_fused(&self, dst: usize, tag: i32, sbuf: BufId, soff: u64, len: u64) {
        let me = self.rank();
        let cell = self.await_cells(|sh| sh.free_cells[me].pop());
        self.nem.os.user_copy(
            self.p,
            sbuf,
            soff,
            self.nem.seg.cell_pool[me],
            self.nem.seg.cell_off(cell),
            len,
        );
        self.enqueue(
            dst,
            Envelope {
                src: me,
                tag,
                kind: PktKind::Eager {
                    len,
                    cells: vec![(me, cell, len)],
                },
            },
        );
    }

    fn eager_send_single(
        &self,
        dst: usize,
        tag: i32,
        src: &[(BufId, u64, u64)],
        len: u64,
        ncells: usize,
    ) {
        let cfg = &self.nem.cfg;
        // Acquire cells from our own pool (§2: sender-owned cells).
        let me = self.rank();
        let cells: Vec<usize> = self.await_cells(|sh| {
            let free = &mut sh.free_cells[me];
            if free.len() >= ncells {
                let at = free.len() - ncells;
                Some(free.split_off(at))
            } else {
                None
            }
        });
        let mut chunks = Vec::with_capacity(ncells);
        let mut remaining = len;
        let cell_segs: Vec<(BufId, u64, u64)> = cells
            .iter()
            .map(|&c| {
                let n = remaining.min(cfg.cell_payload);
                remaining -= n;
                chunks.push((me, c, n));
                (self.nem.seg.cell_pool[me], self.nem.seg.cell_off(c), n)
            })
            .collect();
        self.scatter_copy(src, &cell_segs);
        self.enqueue(
            dst,
            Envelope {
                src: me,
                tag,
                kind: PktKind::Eager { len, cells: chunks },
            },
        );
    }

    /// Stream an oversized eager payload through the cell pool: grab
    /// whatever cells are free (at least one), ship a fragment, repeat.
    /// Fragments stay FIFO on the pair's queue, so the receiver can
    /// reassemble by offset.
    fn eager_send_fragmented(&self, dst: usize, tag: i32, src: &[(BufId, u64, u64)], len: u64) {
        let cfg = &self.nem.cfg;
        let me = self.rank();
        let msg_id = self.next_msg_id();
        let mut sent = 0u64;
        while sent < len {
            let cells: Vec<usize> = self.await_cells(|sh| {
                let free = &mut sh.free_cells[me];
                if free.is_empty() {
                    return None;
                }
                let need = ((len - sent).div_ceil(cfg.cell_payload) as usize).min(free.len());
                let at = free.len() - need;
                Some(free.split_off(at))
            });
            let mut chunks = Vec::with_capacity(cells.len());
            let mut batch = 0u64;
            let cell_segs: Vec<(BufId, u64, u64)> = cells
                .iter()
                .map(|&c| {
                    let n = (len - sent - batch).min(cfg.cell_payload);
                    batch += n;
                    chunks.push((me, c, n));
                    (self.nem.seg.cell_pool[me], self.nem.seg.cell_off(c), n)
                })
                .collect();
            self.scatter_copy(&segs_slice(src, sent, batch), &cell_segs);
            self.enqueue(
                dst,
                Envelope {
                    src: me,
                    tag,
                    kind: PktKind::EagerFrag {
                        msg_id,
                        len,
                        off: sent,
                        cells: chunks,
                    },
                },
            );
            sent += batch;
        }
    }

    /// Copy an eager payload out of its cells into the destination
    /// segments and release the cells (second copy of the two).
    pub(super) fn eager_deliver(
        &self,
        cells: &[(usize, usize, u64)],
        len: u64,
        dst: &[(BufId, u64, u64)],
    ) {
        let src: Vec<(BufId, u64, u64)> = cells
            .iter()
            .map(|&(owner, idx, n)| (self.nem.seg.cell_pool[owner], self.nem.seg.cell_off(idx), n))
            .collect();
        debug_assert_eq!(src.iter().map(|s| s.2).sum::<u64>(), len);
        self.scatter_copy(&src, dst);
        if !cells.is_empty() {
            let mut sh = lock(&self.nem.sh);
            for &(owner, idx, _) in cells {
                sh.free_cells[owner].push(idx);
            }
            drop(sh);
            self.p
                .advance(cells.len() as u64 * self.nem.os.machine().cfg().costs.queue_op);
        }
    }

    /// Copy an unexpected eager payload out of the sender's shared cells
    /// into a private temporary buffer and release the cells — MPICH2's
    /// unexpected-receive path. Without this, a sender flooding a receiver
    /// that matches in a different order starves of cells and the eager
    /// flow control deadlocks.
    pub(super) fn buffer_unexpected(&self, env: Envelope) -> Envelope {
        let PktKind::Eager { len, ref cells } = env.kind else {
            return env;
        };
        if cells.is_empty() {
            return env;
        }
        let (cap, tmp) = self.tmp_acquire(len);
        let mut done = 0;
        for &(owner, idx, n) in cells {
            self.nem.os.user_copy(
                self.p,
                self.nem.seg.cell_pool[owner],
                self.nem.seg.cell_off(idx),
                tmp,
                done,
                n,
            );
            done += n;
        }
        debug_assert_eq!(done, len);
        {
            let mut sh = lock(&self.nem.sh);
            for &(owner, idx, _) in cells {
                sh.free_cells[owner].push(idx);
            }
        }
        self.p
            .advance(cells.len() as u64 * self.nem.os.machine().cfg().costs.queue_op);
        Envelope {
            kind: PktKind::EagerBuffered { len, cap, tmp },
            ..env
        }
    }

    /// Acquire a private temporary buffer of at least `len` bytes from
    /// the recycling pool (capacities are rounded to cell-payload
    /// granules so buffers re-match).
    pub(super) fn tmp_acquire(&self, len: u64) -> (u64, BufId) {
        let granule = self.nem.cfg.cell_payload.max(64);
        let cap = len.div_ceil(granule).max(1) * granule;
        let mut inner = self.inner.borrow_mut();
        match inner.tmp_pool.iter().position(|&(c, _)| c == cap) {
            Some(i) => inner.tmp_pool.swap_remove(i),
            None => (cap, self.nem.os.alloc(self.rank(), cap)),
        }
    }

    /// Piecewise copy between two segment lists of equal total length,
    /// charging every byte through the cache model. The workhorse of
    /// noncontiguous eager sends/receives.
    pub(super) fn scatter_copy(&self, src: &[(BufId, u64, u64)], dst: &[(BufId, u64, u64)]) {
        debug_assert_eq!(
            src.iter().map(|s| s.2).sum::<u64>(),
            dst.iter().map(|d| d.2).sum::<u64>(),
            "segment totals must match"
        );
        let mut si = 0;
        let mut soff = 0u64;
        for &(dbuf, doff, dlen) in dst {
            let mut done = 0u64;
            while done < dlen {
                let (sbuf, sbase, slen) = src[si];
                let n = (slen - soff).min(dlen - done);
                self.nem
                    .os
                    .user_copy(self.p, sbuf, sbase + soff, dbuf, doff + done, n);
                soff += n;
                done += n;
                if soff == slen {
                    si += 1;
                    soff = 0;
                }
            }
        }
    }
}
