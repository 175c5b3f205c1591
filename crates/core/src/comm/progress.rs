//! The polling progress engine: doorbell-gated queue drain, sharded
//! envelope routing and matching, and bounded stepping of the active
//! rendezvous op shards.
//!
//! Per-poll cost is O(active): the shared-queue doorbell bitmap decides
//! whether the queue is touched at all, the pending-op containers are
//! sharded by peer (only shards with traffic are visited, and the FIFO
//! head of a shard is its first entry — no per-poll head-election map),
//! and DONE routing is an O(log active-in-shard) indexed lookup instead
//! of a scan of every pending send.

use nemesis_kernel::BufId;
use nemesis_model::sync::lock;

use crate::shm::{Envelope, PktKind};
use crate::vector::{unpack, VectorLayout};

use super::state::{EagerInflight, ReqState};
use super::{Comm, WATCHDOG_PS};

impl Comm<'_> {
    /// One pass of the progress engine; returns whether any work was done.
    pub fn progress(&self) -> bool {
        let me = self.rank();
        self.polls.set(self.polls.get() + 1);
        // Fault injection: a stalled rank simply stops polling — its
        // queue backs up, its transfers sit, and its peers' detection
        // machinery (retry deadlines, health strikes) is what must
        // cope. The rank resumes by itself when the window closes.
        if self.nem.faults().stalled(me, self.p.now()) {
            return false;
        }
        let mut did = false;
        // 1. Doorbell-gated drain — the poll reads the doorbell words
        // (cached while idle; see `ShmSegment::charge_doorbell_poll`)
        // and only touches the queue when a sender rang. At most
        // `progress_batch` envelopes per poll, paying one control-line
        // update for the whole batch (`charge_dequeue`); bounding the
        // batch keeps each pass fair to the transfer-stepping phases
        // below, and a partial drain leaves the bells set so the next
        // poll resumes.
        let (envs, cleared): (Vec<Envelope>, Vec<usize>) = {
            let mut sh = lock(&self.nem.sh);
            if sh.doorbell_active(me) {
                let q = &mut sh.queues[me];
                let n = q.len().min(self.nem.policy.progress_batch());
                let envs: Vec<Envelope> = q.drain(..n).collect();
                let cleared = if sh.queues[me].is_empty() {
                    sh.clear_doorbell(me)
                } else {
                    Vec::new()
                };
                (envs, cleared)
            } else {
                (Vec::new(), Vec::new())
            }
        };
        self.nem.seg.charge_doorbell_poll(self.p, &self.nem.os);
        self.nem
            .seg
            .charge_doorbell_clear(self.p, &self.nem.os, &cleared);
        if !envs.is_empty() {
            self.nem
                .seg
                .charge_dequeue(self.p, &self.nem.os, envs.len());
            did = true;
            for env in envs {
                self.handle_env(env);
            }
        }
        // 2. Step active receive shards (taken out to avoid
        // reborrowing). A byte-stream wire is a per-pair FIFO resource:
        // within a shard the BTreeMap order is msg-id order, so the
        // first FIFO-needing entry *is* the pair head and only it may
        // touch the shared resource this pass. Shards are visited in
        // bitmap order (ascending peer) for determinism.
        let mut recvs = std::mem::take(&mut self.inner.borrow_mut().recvs);
        for peer in recvs.active_peers() {
            let Some(shard) = recvs.shard_mut(peer) else {
                continue;
            };
            let head = shard
                .iter()
                .find(|(_, r)| r.op.needs_fifo())
                .map(|(&id, _)| id);
            for r in shard.values_mut() {
                did |= self.step_recv(r, head);
            }
            shard.retain(|_, r| !r.done);
        }
        recvs.sweep_empty();
        {
            let mut inner = self.inner.borrow_mut();
            let added = std::mem::take(&mut inner.recvs); // any added meanwhile (none today)
            recvs.merge(added);
            inner.recvs = recvs;
        }
        // 3. Step active send shards.
        let mut sends = std::mem::take(&mut self.inner.borrow_mut().sends);
        for peer in sends.active_peers() {
            let Some(shard) = sends.shard_mut(peer) else {
                continue;
            };
            let head = shard
                .iter()
                .find(|(_, s)| !s.op.completes_on_done())
                .map(|(&id, _)| id);
            for s in shard.values_mut() {
                did |= self.step_send(s, head);
            }
            shard.retain(|_, s| !s.done);
        }
        sends.sweep_empty();
        {
            let mut inner = self.inner.borrow_mut();
            let added = std::mem::take(&mut inner.sends);
            sends.merge(added);
            inner.sends = sends;
        }
        // 4. Re-send unacknowledged DONEs (entries exist only under a
        // fault plan): DONEs carry no ack, so each one is re-announced
        // on a capped backoff clock — if the original was dropped, a
        // re-send unpins the sender; if it got through, the sender's
        // orphan tolerance absorbs the duplicate.
        let due: Vec<(usize, u64)> = {
            let mut inner = self.inner.borrow_mut();
            if inner.sent_dones.is_empty() {
                Vec::new()
            } else {
                let now = self.p.now();
                let mut due = Vec::new();
                inner.sent_dones.retain_mut(|d| {
                    if now < d.next_at {
                        return true;
                    }
                    if d.retries >= super::MAX_CTRL_RETRIES {
                        return false;
                    }
                    d.retries += 1;
                    d.interval = d.interval.saturating_mul(2);
                    d.next_at = now + d.interval;
                    due.push((d.dst, d.msg_id));
                    true
                });
                due
            }
        };
        for (dst, msg_id) in due {
            self.enqueue(
                dst,
                Envelope {
                    src: me,
                    tag: 0,
                    kind: PktKind::Done { msg_id },
                },
            );
            did = true;
        }
        did
    }

    pub(super) fn enqueue(&self, dst: usize, env: Envelope) {
        // Packet-level fault injection, control packets only (an RTS or
        // DONE "on the wire" can vanish or double; payload movement is
        // covered by the rail/window fault classes).
        if self.nem.faults().active() {
            if let PktKind::Rts { .. } | PktKind::Done { .. } = env.kind {
                let is_rts = matches!(env.kind, PktKind::Rts { .. });
                match self.nem.faults().packet_action(is_rts, self.p.now()) {
                    crate::fault::PacketAction::Deliver => {}
                    crate::fault::PacketAction::Drop => {
                        // The sender paid for the send; the packet never
                        // lands. Recovery is the retry clocks' job.
                        self.p.yield_now();
                        return;
                    }
                    crate::fault::PacketAction::Duplicate => {
                        self.enqueue_one(dst, env.clone());
                    }
                }
            }
        }
        self.enqueue_one(dst, env);
    }

    fn enqueue_one(&self, dst: usize, env: Envelope) {
        let me = self.rank();
        let start = self.p.now();
        loop {
            {
                let mut sh = lock(&self.nem.sh);
                if sh.queues[dst].len() < self.nem.cfg.queue_slots {
                    sh.queues[dst].push_back(env);
                    sh.ring_doorbell(dst, me);
                    break;
                }
            }
            self.progress();
            self.p.poll_tick();
            assert!(
                self.p.now() - start < WATCHDOG_PS,
                "receive queue of rank {dst} full for >200 simulated seconds"
            );
        }
        self.nem.seg.charge_enqueue(self.p, &self.nem.os, dst);
        self.nem
            .seg
            .charge_doorbell_ring(self.p, &self.nem.os, dst, me);
        self.p.yield_now();
    }

    pub(super) fn handle_env(&self, env: Envelope) {
        if let PktKind::EagerFrag { .. } = env.kind {
            return self.handle_frag(env);
        }
        if let PktKind::Done { msg_id } = env.kind {
            // DONEs always come from the transfer's receiver, so the
            // owning send lives in the shard of `env.src` — an indexed
            // `(peer, msg_id)` removal, O(log active-in-shard), instead
            // of a scan over every pending send.
            let matched = {
                let mut inner = self.inner.borrow_mut();
                match inner.sends.remove(env.src, msg_id) {
                    Some(s) => Some(s),
                    None => {
                        // A per-rail DONE of a striped transfer: offer
                        // it to the meta-backend parents of the same
                        // peer; the owner marks its rail done and
                        // completes through its own step once every
                        // rail has.
                        let absorbed = inner.sends.shard_mut(env.src).is_some_and(|shard| {
                            shard.values_mut().any(|s| s.op.absorb_done(msg_id))
                        });
                        // Fault-free, an unmatched DONE is a protocol
                        // bug. Under a fault plan it is expected: the
                        // receiver's DONE re-send for a transfer whose
                        // first DONE already completed us.
                        assert!(
                            absorbed || self.nem.faults().active(),
                            "DONE for unknown send (msg id {msg_id:#x})"
                        );
                        None
                    }
                }
            };
            if let Some(mut s) = matched {
                debug_assert!(s.op.completes_on_done());
                // Through the shared completion path, so DONE-completed
                // backends (KNEM, CMA, striped) feed the backend
                // selector's reward exactly like stepped ones.
                self.complete_send(&mut s);
            }
            return;
        }
        // Duplicate-RTS guard (armed only under a fault plan): a
        // re-announced RTS whose original got through must not match a
        // second posted receive. Three places the original can live:
        // still in flight (`recvs`), already completed
        // (`completed_recvs`), or parked unmatched (`unexpected`).
        // Dedup runs *before* matching — `OpShards::insert` asserts
        // msg-id uniqueness.
        if self.nem.faults().active() {
            if let PktKind::Rts { msg_id, .. } = env.kind {
                let inner = self.inner.borrow();
                let dup = inner.recvs.contains(env.src, msg_id)
                    || inner.completed_recvs.contains(&(env.src, msg_id))
                    || inner.unexpected.iter().any(|e| {
                        e.src == env.src
                            && matches!(e.kind, PktKind::Rts { msg_id: m, .. } if m == msg_id)
                    });
                if dup {
                    return;
                }
            }
        }
        // Eager or RTS: match against posted receives in post order
        // (the source-bucketed set only scans candidates of `env.src`
        // plus the wildcard list).
        let matched = self.inner.borrow_mut().posted.take_match(env.src, env.tag);
        match matched {
            Some(pr) => self.deliver_any(env, pr.req, pr.buf, pr.off, pr.cap, pr.layout),
            None => {
                let env = self.buffer_unexpected(env);
                self.inner.borrow_mut().unexpected.push_back(env);
            }
        }
    }

    /// Deliver a matched envelope into a posted receive. `layout` selects
    /// a noncontiguous destination; `buf`/`off` describe the contiguous
    /// case (with `layout`, `off` is ignored in favour of its blocks).
    pub(super) fn deliver_any(
        &self,
        env: Envelope,
        req: usize,
        buf: BufId,
        off: u64,
        cap: u64,
        layout: Option<VectorLayout>,
    ) {
        match env.kind {
            PktKind::Eager { len, ref cells } => {
                assert!(
                    len <= cap,
                    "eager message ({len} B) overflows receive buffer ({cap} B)"
                );
                let dst = self.dst_segments(buf, off, len, layout.as_ref());
                self.eager_deliver(cells, len, &dst);
                self.inner.borrow_mut().reqs[req] = ReqState::Done;
            }
            PktKind::EagerBuffered {
                len,
                cap: tmp_cap,
                tmp,
            }
            | PktKind::EagerPartial {
                len,
                cap: tmp_cap,
                tmp,
                received: _,
                msg_id: _,
            } => {
                debug_assert!(
                    Self::env_ready(&env),
                    "incomplete reassembly must never match"
                );
                assert!(
                    len <= cap,
                    "eager message ({len} B) overflows receive buffer ({cap} B)"
                );
                match layout {
                    Some(l) => unpack(&self.nem.os, self.p, tmp, 0, buf, &l),
                    None => self.nem.os.user_copy(self.p, tmp, 0, buf, off, len),
                }
                let mut inner = self.inner.borrow_mut();
                inner.tmp_pool.push((tmp_cap, tmp));
                inner.reqs[req] = ReqState::Done;
            }
            PktKind::Rts {
                msg_id,
                len,
                wire,
                concurrency,
                arm,
            } => {
                assert!(
                    len <= cap,
                    "rendezvous message ({len} B) overflows receive buffer ({cap} B)"
                );
                let t = crate::lmt::Transfer {
                    msg_id,
                    peer: env.src,
                    buf,
                    off,
                    len,
                };
                self.rndv_start_recv(req, t, wire, concurrency, arm, layout);
            }
            PktKind::EagerFrag { .. } => unreachable!("fragments are routed by handle_frag"),
            PktKind::Done { .. } => unreachable!("Done packets are handled in progress()"),
        }
    }

    /// Destination segments of a receive: the layout's blocks, or one
    /// contiguous run.
    fn dst_segments(
        &self,
        buf: BufId,
        off: u64,
        len: u64,
        layout: Option<&VectorLayout>,
    ) -> Vec<(BufId, u64, u64)> {
        match layout {
            Some(l) => {
                debug_assert_eq!(l.total(), len);
                l.blocks().into_iter().map(|(o, n)| (buf, o, n)).collect()
            }
            None => vec![(buf, off, len)],
        }
    }

    /// Route one fragment of a streamed eager message: into the matched
    /// receive's segments, onto an unexpected reassembly, or (first
    /// fragment) through matching.
    fn handle_frag(&self, env: Envelope) {
        use super::state::segs_slice;
        let PktKind::EagerFrag {
            msg_id,
            len,
            off,
            ref cells,
        } = env.kind
        else {
            unreachable!()
        };
        let n: u64 = cells.iter().map(|c| c.2).sum();
        // (a) Later fragment of a message already matched to a receive
        // (indexed by `(src, msg_id)` — no scan).
        let key = (env.src, msg_id);
        let dst_sub = {
            let inner = self.inner.borrow();
            inner.eager_in.get(&key).map(|f| segs_slice(&f.dst, off, n))
        };
        if let Some(dst_sub) = dst_sub {
            self.eager_deliver(cells, n, &dst_sub);
            let mut inner = self.inner.borrow_mut();
            let f = inner.eager_in.get_mut(&key).expect("reassembly vanished");
            f.received += n;
            if f.received == f.total {
                let req = f.req;
                inner.eager_in.remove(&key);
                inner.reqs[req] = ReqState::Done;
            }
            return;
        }
        // (b) Later fragment of an unexpected message: append to its
        // reassembly staging.
        let partial = {
            let inner = self.inner.borrow();
            inner.unexpected.iter().enumerate().find_map(|(qi, e)| {
                if e.src != env.src {
                    return None;
                }
                match e.kind {
                    PktKind::EagerPartial { msg_id: m, tmp, .. } if m == msg_id => Some((qi, tmp)),
                    _ => None,
                }
            })
        };
        if let Some((qi, tmp)) = partial {
            self.eager_deliver(cells, n, &[(tmp, off, n)]);
            let complete = {
                let mut inner = self.inner.borrow_mut();
                match &mut inner.unexpected[qi].kind {
                    PktKind::EagerPartial { received, len, .. } => {
                        *received += n;
                        received == len
                    }
                    _ => unreachable!(),
                }
            };
            if complete {
                // A receive may have been posted while fragments were
                // still streaming in; it could never match the partial,
                // so re-run matching now.
                let rematch = {
                    let mut inner = self.inner.borrow_mut();
                    let (esrc, etag) = (inner.unexpected[qi].src, inner.unexpected[qi].tag);
                    inner.posted.take_match(esrc, etag).map(|pr| {
                        let env = inner.unexpected.remove(qi).unwrap();
                        (env, pr)
                    })
                };
                if let Some((env, pr)) = rematch {
                    self.deliver_any(env, pr.req, pr.buf, pr.off, pr.cap, pr.layout);
                }
            }
            return;
        }
        // (c) First fragment: match against posted receives, or start an
        // unexpected reassembly.
        debug_assert_eq!(off, 0, "first fragment must carry offset 0");
        let matched = self.inner.borrow_mut().posted.take_match(env.src, env.tag);
        match matched {
            Some(pr) => {
                assert!(
                    len <= pr.cap,
                    "eager message ({len} B) overflows receive buffer ({} B)",
                    pr.cap
                );
                let dst = self.dst_segments(pr.buf, pr.off, len, pr.layout.as_ref());
                self.eager_deliver(cells, n, &segs_slice(&dst, 0, n));
                let mut inner = self.inner.borrow_mut();
                if n == len {
                    inner.reqs[pr.req] = ReqState::Done;
                } else {
                    inner.eager_in.insert(
                        (env.src, msg_id),
                        EagerInflight {
                            req: pr.req,
                            dst,
                            total: len,
                            received: n,
                        },
                    );
                }
            }
            None => {
                let (cap, tmp) = self.tmp_acquire(len);
                self.eager_deliver(cells, n, &[(tmp, 0, n)]);
                self.inner.borrow_mut().unexpected.push_back(Envelope {
                    src: env.src,
                    tag: env.tag,
                    kind: PktKind::EagerPartial {
                        msg_id,
                        len,
                        cap,
                        tmp,
                        received: n,
                    },
                });
            }
        }
    }
}
