//! # nemesis-serve — a request/response serving facade over the rt stack
//!
//! Every number the stack reports below this layer is bandwidth or
//! message rate; this crate measures what a *user* would feel. Client
//! rank-threads replay bursty MMPP traffic against worker ranks
//! **open-loop** — each request fires at its pre-generated arrival
//! timestamp whether or not earlier responses came back (see
//! [`nemesis_workloads::trace::mmpp_arrivals_ns`] for why a closed loop
//! fabricates flat tails) — and every enqueue→response latency lands in
//! an HDR-style log-bucketed histogram ([`LatencyHistogram`]).
//!
//! The moving parts:
//!
//! * **Admission batching** — due arrivals are grouped per worker and
//!   submitted through [`RtComm::try_send_batch`], which stops at the
//!   first full queue so the admitted stream stays per-pair FIFO.
//! * **Bounded backpressure** — a rejected head-of-line request retries
//!   under capped exponential backoff up to `retry_limit` attempts and
//!   is then *shed*: counted in [`ServeReport::shed`], its latency slot
//!   abandoned. A response a worker cannot deliver is counted in
//!   [`ServeReport::dropped`]. Nothing is ever dropped silently.
//! * **Graceful degradation** — a per-client [`HealthTable`] mirrors
//!   the simulated transport's peer-health machine (Healthy → Suspect →
//!   Quarantined → Probing); requests outstanding on a worker that
//!   stops answering are re-routed through healthy ranks, and the
//!   quarantined worker is re-probed after a holdoff. Worker stalls are
//!   injected from the same `NEMESIS_FAULT_PLAN` grammar the simulated
//!   stack uses (`stall@…:rank=…,for=…`), reinterpreting the plan's
//!   virtual picoseconds as wall-clock nanoseconds.
//! * **On-time waits** — every wait here ends at its deadline, not a
//!   sleep's overshoot after it: a client's idle pacing, a stall
//!   window and the worker's synthetic service time sleep only up to
//!   `GUARD_NS` (300 µs) before the deadline, then poll or spin to it.
//!   A service time below the guard is spun; a longer one sleeps, then
//!   spins. Every spin runs on one spin clock: the TSC where the
//!   kernel's monotonic clock already is the TSC, with a ratio
//!   calibrated once against `Instant` and padded so that no spin ends
//!   before its `Instant` deadline, else `Instant` itself.
//!   [`ideal_latencies_ns`] gives the latencies a perfect server would
//!   show on the same arrivals.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use nemesis_core::fault::{FaultKind, FaultPlan};
use nemesis_model::sync::lock;
use nemesis_rt::comm::INLINE_MAX;
use nemesis_rt::{run_rt_cfg, RtComm, RtConfig, RtLmt};

mod clock;
pub mod health;
pub mod hist;
mod ideal;

use clock::SpinClock;
pub use health::{HealthTable, WorkerState};
pub use hist::LatencyHistogram;
pub use ideal::ideal_latencies_ns;

/// Request tag (client → worker).
const TAG_REQ: i32 = 101;
/// Response tag (worker → client).
const TAG_RESP: i32 = 102;
/// Shutdown tag (coordinator client → workers).
const TAG_STOP: i32 = 103;
/// Client-completion tag (clients → coordinator client).
const TAG_CDONE: i32 = 104;

/// Per-worker batch cap for one admission round.
const SUBMIT_BATCH: usize = 32;

/// The last stretch before a deadline that no wait sleeps into. On a
/// 2-vCPU host a `thread::sleep` of up to 1 ms ran long by up to 204 µs
/// at p99 (timer slack plus the vCPU wake-up), so a sleep that stops
/// here still wakes before the deadline; a poll or spin covers the rest.
/// It is also the client's idle threshold: a gap shorter than this is
/// never slept at all.
const GUARD_NS: u64 = 300_000;
/// Longest single sleep, so a sleeping rank still checks for work and
/// shutdown every millisecond.
const MAX_NAP_NS: u64 = 1_000_000;

/// The deadline-wait rule every wait in this crate follows: how long a
/// waiter at `now` may sleep toward `deadline` (ns on one axis). It
/// never sleeps into the last `GUARD_NS` before the deadline, nor for
/// more than `MAX_NAP_NS` at a time; 0 means poll or spin instead.
fn nap_ns(now: u64, deadline: u64) -> u64 {
    deadline
        .saturating_sub(now)
        .saturating_sub(GUARD_NS)
        .min(MAX_NAP_NS)
}

/// One step of a polling wait toward `deadline`: a nap under
/// [`nap_ns`]'s rule, or a yield inside the guard.
fn nap_or_yield(now: u64, deadline: u64) {
    match nap_ns(now, deadline) {
        0 => std::thread::yield_now(),
        nap => std::thread::sleep(Duration::from_nanos(nap)),
    }
}

/// Block until `deadline` ns past `epoch` under [`nap_ns`]'s rule:
/// sleep while the deadline lies beyond the guard, then spin the rest on
/// the [`SpinClock`]. Never returns before the deadline.
fn wait_until(epoch: Instant, deadline: u64) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        match nap_ns(now, deadline) {
            0 => return SpinClock::get().spin_for(deadline.saturating_sub(now)),
            nap => std::thread::sleep(Duration::from_nanos(nap)),
        }
    }
}

/// Service configuration. Ranks `0..workers` are workers, ranks
/// `workers..workers+clients` are clients.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub workers: usize,
    pub clients: usize,
    /// Per-client open-loop arrival timestamps (ns from the client's
    /// epoch, sorted). `arrivals.len()` must equal `clients`.
    pub arrivals: Vec<Vec<u64>>,
    /// Nominal trace span in ns (offered-rate denominator).
    pub span_ns: u64,
    /// Request payload bytes (clamped to `10..=INLINE_MAX`; the first
    /// 10 carry the request id and the client rank).
    pub payload: usize,
    /// Synthetic per-request service time at the worker (0 = pure echo),
    /// honoured to the deadline: below `GUARD_NS` the worker spins;
    /// above it, it sleeps to the guard and then spins.
    pub service_ns: u64,
    /// Receive-queue capacity per rank (the admission bound).
    pub queue_capacity: usize,
    /// Head-of-line `QueueFull` retries before a request is shed.
    pub retry_limit: u32,
    /// Base/cap of the capped exponential retry backoff, in ns.
    pub retry_base_ns: u64,
    pub retry_cap_ns: u64,
    /// An admitted request unanswered for this long marks its worker
    /// (strike 1 = Suspect, strike 2 = Quarantined) and is re-routed.
    pub suspect_after_ns: u64,
    /// Quarantine holdoff before a worker is re-probed.
    pub holdoff_ns: u64,
    /// How long a client keeps draining after its last arrival before
    /// abandoning unanswered requests.
    pub drain_timeout_ns: u64,
    /// Worker stall schedule. `None` falls back to `NEMESIS_FAULT_PLAN`
    /// (only `stall` events apply to the serving layer).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            clients: 2,
            arrivals: Vec::new(),
            span_ns: 0,
            payload: 64,
            service_ns: 0,
            queue_capacity: 512,
            retry_limit: 16,
            retry_base_ns: 2_000,
            retry_cap_ns: 200_000,
            suspect_after_ns: 5_000_000,
            holdoff_ns: 10_000_000,
            drain_timeout_ns: 2_000_000_000,
            fault_plan: None,
        }
    }
}

impl ServeConfig {
    /// A config whose clients each replay an independent MMPP arrival
    /// stream (same chain parameters, decorrelated seeds).
    #[allow(clippy::too_many_arguments)] // the MMPP parameters are a unit
    pub fn with_mmpp(
        workers: usize,
        clients: usize,
        steps: u32,
        step_ns: u64,
        p_on: f64,
        p_off: f64,
        rate_on: f64,
        seed: u64,
    ) -> Self {
        let arrivals = (0..clients)
            .map(|i| {
                nemesis_workloads::trace::mmpp_arrivals_ns(
                    steps,
                    step_ns,
                    p_on,
                    p_off,
                    rate_on,
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect();
        Self {
            workers,
            clients,
            arrivals,
            span_ns: steps as u64 * step_ns,
            ..Self::default()
        }
    }
}

/// What one service run did, merged across clients.
#[derive(Debug)]
pub struct ServeReport {
    /// Scheduled arrivals across all clients.
    pub offered: u64,
    /// Requests whose response was received (histogram samples).
    pub completed: u64,
    /// Requests dropped by the admission policy after `retry_limit`
    /// `QueueFull` rejections.
    pub shed: u64,
    /// Re-submissions of timed-out requests through another worker.
    pub rerouted: u64,
    /// Requests still unanswered at the drain deadline.
    pub abandoned: u64,
    /// Suspect→Quarantined transitions across all clients.
    pub quarantines: u64,
    /// Head-of-line `QueueFull` retry attempts.
    pub retry_attempts: u64,
    /// Responses a worker dropped after its client's queue stayed full
    /// for a thousand tries; the client's timeout re-sends each request.
    pub dropped: u64,
    /// Nominal trace span (offered-rate denominator), ns.
    pub span_ns: u64,
    /// Longest client wall-clock, arrival replay + drain, ns.
    pub elapsed_ns: u64,
    /// Enqueue→response latency over completed requests, where
    /// "enqueue" is the request's *scheduled arrival* — admission
    /// queueing is part of what the user feels.
    pub hist: LatencyHistogram,
}

impl ServeReport {
    /// Offered load over the nominal trace span, requests/s.
    pub fn offered_rps(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.offered as f64 / (self.span_ns as f64 * 1e-9)
        }
    }

    /// Achieved goodput over the same span (completions are attributed
    /// to the trace span, not the drain tail — a run that needs a long
    /// drain to finish earns its low rate).
    pub fn achieved_rps(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.completed as f64 / (self.span_ns as f64 * 1e-9)
        }
    }
}

/// An admitted or to-be-admitted request.
struct Pending {
    scheduled_ns: u64,
    worker: usize,
    /// 0 until actually admitted to the queue (timeouts only tick for
    /// admitted requests).
    sent_ns: u64,
}

struct BacklogEntry {
    req_id: u64,
    attempts: u32,
}

#[derive(Default)]
struct ClientStats {
    offered: u64,
    shed: u64,
    rerouted: u64,
    abandoned: u64,
    quarantines: u64,
    retry_attempts: u64,
    elapsed_ns: u64,
    hist: LatencyHistogram,
}

/// The stall windows of `rank` under `plan`, as wall-clock ns windows
/// (the plan grammar's virtual picoseconds reinterpreted 1000:1 — a
/// `stall@2ms:…for=10ms` plan means the same milliseconds here).
fn stall_windows_ns(plan: &FaultPlan, rank: usize) -> Vec<(u64, u64)> {
    plan.events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::Stall { rank: r, dur } if r == rank => {
                let from = e.at / 1000;
                let until = if dur == u64::MAX {
                    u64::MAX
                } else {
                    e.at.saturating_add(dur) / 1000
                };
                Some((from, until.max(from)))
            }
            _ => None,
        })
        .collect()
}

/// Serve requests until STOP; returns how many responses it dropped.
fn worker_loop(
    comm: &mut RtComm,
    cfg: &ServeConfig,
    stalls: &[(u64, u64)],
    clock: SpinClock,
) -> u64 {
    let me = comm.rank();
    let mut dropped = 0;
    let epoch = Instant::now();
    let mut buf = [0u8; INLINE_MAX];
    let mut tiny = [0u8; 8];
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if let Some(&(_, until)) = stalls.iter().find(|&&(f, u)| now >= f && now < u) {
            // Stalled: stop draining requests. STOP stays deliverable in
            // 1 ms slices — teardown must terminate even a forever-stall
            // (the real-world analogue is the process being killed).
            if comm.try_recv(None, Some(TAG_STOP), &mut tiny).is_some() {
                return dropped;
            }
            // The window ends at `until`, not a sleep's overshoot later.
            nap_or_yield(now, until);
            continue;
        }
        if comm.try_recv(None, Some(TAG_STOP), &mut tiny).is_some() {
            return dropped;
        }
        let mut served = false;
        // Bounded batch between stall-window checks.
        for _ in 0..64 {
            let Some(len) = comm.try_recv(None, Some(TAG_REQ), &mut buf) else {
                break;
            };
            served = true;
            let client = u16::from_le_bytes(buf[8..10].try_into().unwrap()) as usize;
            match cfg.service_ns {
                0 => {}
                // Nothing to sleep: spin from the receive, with no
                // `Instant` read to set a deadline.
                ns if ns <= GUARD_NS => clock.spin_for(ns),
                ns => wait_until(epoch, epoch.elapsed().as_nanos() as u64 + ns),
            }
            // Echo, stamping ourselves as the responder (the client's
            // health table credits whoever actually answered).
            buf[8..10].copy_from_slice(&(me as u16).to_le_bytes());
            let mut tries = 0u32;
            while comm.try_send(client, TAG_RESP, &buf[..len]).is_err() {
                // The client drains constantly; a full response queue
                // means it is gone or wedged. Bounded patience, then
                // drop, counted — the client's timeout machinery owns
                // recovery.
                tries += 1;
                if tries > 1000 {
                    dropped += 1;
                    break;
                }
                std::thread::yield_now();
            }
        }
        if !served {
            std::thread::yield_now();
        }
    }
}

fn client_loop(comm: &mut RtComm, cfg: &ServeConfig, arrivals: &[u64]) -> ClientStats {
    let me = comm.rank();
    let workers = cfg.workers;
    let payload_len = cfg.payload.clamp(10, INLINE_MAX);
    let epoch = Instant::now();
    let mut health = HealthTable::new(workers, cfg.holdoff_ns);
    let mut stats = ClientStats {
        offered: arrivals.len() as u64,
        ..ClientStats::default()
    };
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut backlog: Vec<VecDeque<BacklogEntry>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut backlog_len = 0usize;
    let mut next_try = vec![0u64; workers];
    let mut next_arrival = 0usize;
    let mut req_seq = 0u64;
    let mut next_timeout_scan = 0u64;
    let mut buf = [0u8; INLINE_MAX];
    // One admission round's payloads, reused every round: each carries
    // this client's rank once and gets its request id per round.
    let mut payloads = [[0u8; INLINE_MAX]; SUBMIT_BATCH];
    for p in &mut payloads {
        p[8..10].copy_from_slice(&(me as u16).to_le_bytes());
    }
    let deadline = arrivals.last().copied().unwrap_or(0) + cfg.drain_timeout_ns;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        let mut progressed = false;

        // 1. Drain responses. Enqueue→response latency is measured from
        // the *scheduled* arrival: a request that waited in the backlog
        // for admission was queueing, and queueing is latency.
        while let Some(len) = comm.try_recv(None, Some(TAG_RESP), &mut buf) {
            progressed = true;
            debug_assert!(len >= 10);
            let req_id = u64::from_le_bytes(buf[..8].try_into().unwrap());
            let responder = u16::from_le_bytes(buf[8..10].try_into().unwrap()) as usize;
            if responder < workers {
                health.on_response(responder);
            }
            if let Some(p) = pending.remove(&req_id) {
                stats.hist.record(now.saturating_sub(p.scheduled_ns).max(1));
            }
            // A duplicate response (the stalled original of a re-routed
            // request answering late) finds no pending entry and drops
            // here, harmlessly.
        }

        // 2. Schedule due arrivals into per-worker FIFO backlogs.
        while next_arrival < arrivals.len() && arrivals[next_arrival] <= now {
            let scheduled_ns = arrivals[next_arrival];
            next_arrival += 1;
            let req_id = (me as u64) << 48 | req_seq;
            req_seq += 1;
            let w = health.route(now);
            pending.insert(
                req_id,
                Pending {
                    scheduled_ns,
                    worker: w,
                    sent_ns: 0,
                },
            );
            backlog[w].push_back(BacklogEntry {
                req_id,
                attempts: 0,
            });
            backlog_len += 1;
            progressed = true;
        }

        // 3. Admission: one batched submit per worker per round.
        for w in 0..workers {
            // Entries whose request already completed (re-route twins)
            // retire when they reach the front.
            while let Some(e) = backlog[w].front() {
                if pending.contains_key(&e.req_id) {
                    break;
                }
                backlog[w].pop_front();
                backlog_len -= 1;
            }
            if backlog[w].is_empty() || next_try[w] > now {
                continue;
            }
            let mut batch = 0;
            for (p, e) in payloads.iter_mut().zip(&backlog[w]) {
                p[..8].copy_from_slice(&e.req_id.to_le_bytes());
                batch += 1;
            }
            let refs: [&[u8]; SUBMIT_BATCH] = std::array::from_fn(|i| &payloads[i][..payload_len]);
            let admitted = comm.try_send_batch(w, TAG_REQ, &refs[..batch]);
            for _ in 0..admitted {
                let e = backlog[w].pop_front().unwrap();
                backlog_len -= 1;
                if let Some(p) = pending.get_mut(&e.req_id) {
                    p.worker = w;
                    p.sent_ns = now;
                }
                progressed = true;
            }
            if admitted < batch {
                // Queue full at the head of line: capped-backoff retry,
                // then shed — counted, never silent.
                stats.retry_attempts += 1;
                let attempts = {
                    let e = backlog[w].front_mut().unwrap();
                    e.attempts += 1;
                    e.attempts
                };
                if attempts > cfg.retry_limit {
                    let e = backlog[w].pop_front().unwrap();
                    backlog_len -= 1;
                    pending.remove(&e.req_id);
                    stats.shed += 1;
                    health.probe_aborted(w);
                } else {
                    let backoff = cfg
                        .retry_base_ns
                        .saturating_mul(1 << (attempts - 1).min(16))
                        .min(cfg.retry_cap_ns);
                    next_try[w] = now + backoff;
                }
            }
        }

        // 4. Timeout scan (admitted requests only), amortized.
        if now >= next_timeout_scan && !pending.is_empty() {
            next_timeout_scan = now + (cfg.suspect_after_ns / 4).max(1);
            let timed_out: Vec<u64> = pending
                .iter()
                .filter(|(_, p)| {
                    p.sent_ns > 0 && now.saturating_sub(p.sent_ns) > cfg.suspect_after_ns
                })
                .map(|(&rid, _)| rid)
                .collect();
            for rid in timed_out {
                let old = pending[&rid].worker;
                health.on_timeout(old, now);
                // Degraded-mode routing: the in-flight request leaves
                // the sick worker and re-enters admission on a healthy
                // one. The original may still answer later — the
                // duplicate is dropped at the response sink.
                let w = health.route_away_from(old, now);
                let p = pending.get_mut(&rid).unwrap();
                p.worker = w;
                p.sent_ns = 0;
                backlog[w].push_back(BacklogEntry {
                    req_id: rid,
                    attempts: 0,
                });
                backlog_len += 1;
                stats.rerouted += 1;
                progressed = true;
            }
        }

        // 5. Done / deadline.
        if next_arrival == arrivals.len() && pending.is_empty() && backlog_len == 0 {
            break;
        }
        if now > deadline {
            stats.abandoned += pending.len() as u64;
            break;
        }

        // 6. Pacing: when genuinely idle (nothing in flight, next
        // arrival far away), sleep instead of stealing the worker's
        // core; with responses outstanding, stay on a hot poll.
        if !progressed {
            let next_due = if next_arrival < arrivals.len() {
                arrivals[next_arrival]
            } else {
                deadline
            };
            // The nap stops `GUARD_NS` short of the next arrival, so a
            // burst's first request goes out on time, not a sleep's
            // overshoot late.
            if pending.is_empty() && backlog_len == 0 {
                nap_or_yield(now, next_due);
            } else {
                std::thread::yield_now();
            }
        }
    }
    stats.quarantines = health.quarantines();
    stats.elapsed_ns = epoch.elapsed().as_nanos() as u64;
    stats
}

/// Run the service: spawn `workers + clients` rank-threads, replay
/// every client's arrival stream open-loop, and merge the per-client
/// stats. Returns once all clients completed (or abandoned) their
/// streams and the workers shut down.
pub fn run_service(cfg: &ServeConfig) -> ServeReport {
    assert!(cfg.workers >= 1 && cfg.clients >= 1);
    assert_eq!(
        cfg.arrivals.len(),
        cfg.clients,
        "one arrival stream per client"
    );
    let plan = cfg.fault_plan.clone().or_else(FaultPlan::from_env);
    let rt = RtConfig {
        queue_capacity: cfg.queue_capacity,
        ..RtConfig::default()
    };
    let stats: Mutex<Vec<ClientStats>> = Mutex::new(Vec::new());
    let dropped = AtomicU64::new(0);
    // Calibrated here, before any rank starts, not on a first request.
    let clock = SpinClock::get();
    let n = cfg.workers + cfg.clients;
    run_rt_cfg(n, RtLmt::Direct, rt, |comm| {
        let r = comm.rank();
        if r < cfg.workers {
            let stalls = plan
                .as_ref()
                .map(|p| stall_windows_ns(p, r))
                .unwrap_or_default();
            dropped.fetch_add(worker_loop(comm, cfg, &stalls, clock), Ordering::Relaxed);
        } else {
            let i = r - cfg.workers;
            let s = client_loop(comm, cfg, &cfg.arrivals[i]);
            if i == 0 {
                // Coordinator: wait for every other client, then stop
                // the workers.
                let mut tiny = [0u8; 8];
                for c in 1..cfg.clients {
                    comm.recv(Some(cfg.workers + c), Some(TAG_CDONE), &mut tiny);
                }
                for w in 0..cfg.workers {
                    comm.send(w, TAG_STOP, &[1u8]);
                }
            } else {
                comm.send(cfg.workers, TAG_CDONE, &[1u8]);
            }
            lock(&stats).push(s);
        }
    });
    let mut report = ServeReport {
        offered: 0,
        completed: 0,
        shed: 0,
        rerouted: 0,
        abandoned: 0,
        quarantines: 0,
        retry_attempts: 0,
        dropped: dropped.into_inner(),
        span_ns: cfg.span_ns.max(
            cfg.arrivals
                .iter()
                .filter_map(|a| a.last().copied())
                .max()
                .unwrap_or(0),
        ),
        elapsed_ns: 0,
        hist: LatencyHistogram::new(),
    };
    for s in stats.into_inner().unwrap_or_else(PoisonError::into_inner) {
        report.offered += s.offered;
        report.completed += s.hist.count();
        report.shed += s.shed;
        report.rerouted += s.rerouted;
        report.abandoned += s.abandoned;
        report.quarantines += s.quarantines;
        report.retry_attempts += s.retry_attempts;
        report.elapsed_ns = report.elapsed_ns.max(s.elapsed_ns);
        report.hist.merge(&s.hist);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(rate_on: f64, seed: u64) -> ServeConfig {
        // ~100 ms trace: 1000 steps of 100 µs.
        ServeConfig::with_mmpp(2, 2, 1000, 100_000, 0.2, 0.3, rate_on, seed)
    }

    #[test]
    fn naps_never_reach_into_the_guard() {
        // Past, at and inside the guard: no sleep at all.
        assert_eq!(nap_ns(5_000, 1_000), 0);
        assert_eq!(nap_ns(5_000, 5_000), 0);
        assert_eq!(nap_ns(0, GUARD_NS - 1), 0);
        assert_eq!(nap_ns(0, GUARD_NS), 0);
        // Beyond it: up to the guard, one `MAX_NAP_NS` at a time.
        assert_eq!(nap_ns(1_000, 1_000 + GUARD_NS + 400_000), 400_000);
        assert_eq!(nap_ns(0, GUARD_NS + 5 * MAX_NAP_NS), MAX_NAP_NS);
        assert_eq!(nap_ns(0, u64::MAX), MAX_NAP_NS);
    }

    #[test]
    fn stall_windows_are_this_ranks_stalls_in_ns() {
        let plan = FaultPlan::parse(
            "stall@1500ps:rank=0,for=2500ps; stall@2ms:rank=1,for=10ms; dup-rts@1us; \
             slow-rail@1ms:rail=shm,extra=1ms,for=5ms; stall@30ms:rank=0,for=forever",
        )
        .unwrap();
        // Virtual ps become ns (rounded down), and a stall `for=forever`
        // never ends; the other rank's stall and the other kinds are not
        // this rank's windows.
        assert_eq!(
            stall_windows_ns(&plan, 0),
            vec![(1, 4), (30_000_000, u64::MAX)]
        );
        assert_eq!(stall_windows_ns(&plan, 1), vec![(2_000_000, 12_000_000)]);
        assert_eq!(stall_windows_ns(&plan, 2), vec![]);
    }

    #[test]
    fn deadline_waits_never_end_early() {
        let epoch = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        // Already past.
        wait_until(epoch, 0);
        // Now, inside the guard, at its edge, beyond it, and beyond
        // several naps.
        for ahead in [0, 50_000, GUARD_NS, GUARD_NS + 200_000, 2_500_000] {
            let deadline = epoch.elapsed().as_nanos() as u64 + ahead;
            wait_until(epoch, deadline);
            let now = epoch.elapsed().as_nanos() as u64;
            assert!(
                now >= deadline,
                "{ahead} ns wait ended {} ns early",
                deadline - now
            );
        }
    }

    #[test]
    fn service_time_is_honoured_to_the_deadline() {
        // One worker, one client, a request every 2 ms: nothing queues,
        // so every latency is the 100 µs service plus transport. The
        // mean, because a percentile reads a bucket's lower edge.
        let cfg = ServeConfig {
            workers: 1,
            clients: 1,
            arrivals: vec![(1..=40).map(|i| i * 2_000_000).collect()],
            span_ns: 82_000_000,
            service_ns: 100_000,
            ..ServeConfig::default()
        };
        let r = run_service(&cfg);
        assert_eq!(r.offered, 40);
        assert_eq!(r.completed, r.offered, "books balance");
        assert_eq!(r.shed + r.abandoned, 0);
        assert_eq!(r.dropped, 0);
        assert!(r.hist.mean() >= 100_000, "mean {} ns", r.hist.mean());
    }

    #[test]
    fn echo_service_completes_every_request_at_low_load() {
        let cfg = quick_cfg(0.5, 7);
        let r = run_service(&cfg);
        assert!(r.offered > 0);
        assert_eq!(r.completed, r.offered, "low load must not lose requests");
        assert_eq!(r.shed + r.abandoned + r.dropped, 0);
        assert_eq!(r.hist.count(), r.completed);
        assert!(r.hist.percentile(0.5) > 0);
        assert!(r.hist.percentile(0.999) >= r.hist.percentile(0.5));
    }

    #[test]
    fn stalled_worker_degrades_gracefully_via_rerouting() {
        // Worker 0 stalls 20 ms into a ~200 ms run, for 60 ms. The
        // health machine must quarantine it and re-route; every request
        // still completes.
        let mut cfg = ServeConfig::with_mmpp(2, 2, 2000, 100_000, 0.2, 0.3, 0.8, 11);
        cfg.fault_plan = Some(FaultPlan::parse("stall@20ms:rank=0,for=60ms").unwrap());
        cfg.suspect_after_ns = 3_000_000;
        let r = run_service(&cfg);
        assert!(r.offered > 100);
        assert_eq!(
            r.completed + r.shed,
            r.offered,
            "stall must not strand requests (abandoned={})",
            r.abandoned
        );
        assert!(r.rerouted > 0, "timed-out requests must re-route");
        assert!(r.quarantines > 0, "two strikes must quarantine");
    }

    #[test]
    fn overload_sheds_loudly_not_silently() {
        // One worker with a 100 µs synthetic service time (~10k rps
        // capacity) against ~100k rps offered: the queue must fill,
        // admission must shed, and the books must still balance.
        let mut cfg = ServeConfig::with_mmpp(1, 2, 300, 100_000, 0.9, 0.05, 5.0, 13);
        cfg.service_ns = 100_000;
        cfg.queue_capacity = 16;
        cfg.retry_limit = 3;
        cfg.retry_cap_ns = 50_000;
        cfg.drain_timeout_ns = 4_000_000_000;
        let r = run_service(&cfg);
        assert!(r.shed > 0, "overload must surface as shed requests");
        assert!(r.retry_attempts > 0);
        assert_eq!(
            r.completed + r.shed + r.abandoned,
            r.offered,
            "books balance"
        );
    }
}
