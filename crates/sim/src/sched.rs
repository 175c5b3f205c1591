//! Deterministic virtual-time scheduler.
//!
//! Every simulated process is an OS thread, but **exactly one runs at any
//! instant**: whenever a process yields, the scheduler hands control to
//! the runnable process with the smallest virtual clock (ties broken by
//! pid), waking that one thread alone. Simulated time only advances
//! through explicit [`Proc::advance`] calls, so a simulation is a
//! deterministic function of its inputs — repeated runs produce
//! bit-identical timings and counters regardless of host scheduling.
//!
//! Nemesis is a *polling* communication subsystem (§3.4: "the user space
//! NEMESIS implementation expects to be able to poll for incoming messages
//! periodically"), which maps directly onto this model: blocking MPI calls
//! are poll loops that charge a poll cost, yield, and retry, letting the
//! lowest-clock process make progress in between.

use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use nemesis_model::sync::lock;

use crate::machine::{AccessKind, CopyMode, DmaSubmission, Machine, PhysRange};
use crate::stats::StatsSnapshot;
use crate::topology::CoreId;
use crate::Ps;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Done,
}

struct State {
    clocks: Vec<Ps>,
    status: Vec<Status>,
    current: Option<usize>,
}

impl State {
    /// Pick the runnable process with the lowest clock.
    fn grant(&mut self) {
        self.current = self
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Ready)
            .map(|(i, _)| i)
            .min_by_key(|&i| (self.clocks[i], i));
    }
}

struct SchedShared {
    m: Mutex<State>,
    /// One per process, each waited on only by its own thread, so a
    /// hand-off wakes the granted process and no other.
    cvs: Vec<Condvar>,
}

impl SchedShared {
    /// Wait, holding `st`'s lock, until `pid` is the granted process;
    /// returns the lock, still held.
    fn wait_for_grant<'a>(&self, pid: usize, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cvs[pid]
            .wait_while(st, |st| st.current != Some(pid))
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake the process `st` just granted, if any.
    fn wake_granted(&self, st: &State) {
        if let Some(next) = st.current {
            self.cvs[next].notify_one();
        }
    }
}

/// Handle a simulated process uses to interact with virtual time and the
/// machine. One per process; lives on that process's thread.
pub struct Proc {
    pid: usize,
    core: CoreId,
    machine: Arc<Machine>,
    shared: Arc<SchedShared>,
    clock: Cell<Ps>,
}

impl Proc {
    /// Process id (0-based rank in the simulation).
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Core this process is bound to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Current virtual time of this process.
    pub fn now(&self) -> Ps {
        self.clock.get()
    }

    /// Advance this process's clock by `ps` without yielding.
    pub fn advance(&self, ps: Ps) {
        self.clock.set(self.clock.get() + ps);
    }

    /// Yield to the scheduler; resumes when this process is again the one
    /// with the lowest virtual clock.
    pub fn yield_now(&self) {
        let mut st = lock(&self.shared.m);
        st.clocks[self.pid] = self.clock.get();
        st.grant();
        if st.current == Some(self.pid) {
            return; // Still the minimum: keep running.
        }
        self.shared.wake_granted(&st);
        drop(self.shared.wait_for_grant(self.pid, st));
    }

    /// One empty poll: charge the poll cost and yield. The workhorse of
    /// every busy-wait loop in the Nemesis layer.
    pub fn poll_tick(&self) {
        self.advance(self.machine.cfg().costs.poll);
        self.yield_now();
    }

    /// Spin until `cond` returns `Some(v)`, charging a poll cost per
    /// failed attempt.
    pub fn poll_until<T>(&self, mut cond: impl FnMut() -> Option<T>) -> T {
        loop {
            if let Some(v) = cond() {
                return v;
            }
            self.poll_tick();
        }
    }

    /// Pure computation for `ps` of virtual time (no memory traffic).
    pub fn compute(&self, ps: Ps) {
        self.advance(ps);
        self.yield_now();
    }

    /// CPU read of a physical range (charges cache-model cost, yields).
    pub fn read(&self, r: PhysRange) {
        let c = self
            .machine
            .access(self.pid, self.core, r, AccessKind::Read, self.now());
        self.advance(c);
        self.yield_now();
    }

    /// CPU write of a physical range (charges cache-model cost, yields).
    pub fn write(&self, r: PhysRange) {
        let c = self
            .machine
            .access(self.pid, self.core, r, AccessKind::Write, self.now());
        self.advance(c);
        self.yield_now();
    }

    /// CPU copy between two equal-length ranges (read+write interleaved).
    pub fn copy(&self, src: PhysRange, dst: PhysRange) {
        let c = self
            .machine
            .copy_cost(self.pid, self.core, src, dst, self.now());
        self.advance(c);
        self.yield_now();
    }

    /// CPU copy with an explicit destination store mode: `NonTemporal`
    /// streams the destination (no allocation, no pollution) — the
    /// over-LLC copy engine.
    pub fn copy_mode(&self, src: PhysRange, dst: PhysRange, mode: CopyMode) {
        let c = self
            .machine
            .copy_cost_mode(self.pid, self.core, src, dst, self.now(), mode);
        self.advance(c);
        self.yield_now();
    }

    /// Charge a system call (no yield: the subsequent kernel work yields).
    pub fn syscall(&self) {
        let c = self.machine.syscall(self.pid);
        self.advance(c);
    }

    /// Charge pinning `pages` pages.
    pub fn pin_pages(&self, pages: u64) {
        let c = self.machine.pin_pages(self.pid, pages);
        self.advance(c);
    }

    /// Submit an I/OAT copy chain; charges the CPU-side submission cost and
    /// returns the engine completion time.
    pub fn dma_copy(&self, descs: &[(PhysRange, PhysRange)]) -> DmaSubmission {
        self.dma_copy_on(0, descs)
    }

    /// [`Proc::dma_copy`] on a specific DMA channel (clamped to what the
    /// machine has — single-channel chipsets multiplex as before).
    pub fn dma_copy_on(&self, channel: usize, descs: &[(PhysRange, PhysRange)]) -> DmaSubmission {
        let sub = self
            .machine
            .dma_submit_copy_on(self.pid, self.now(), channel, descs);
        self.advance(sub.cpu_cost);
        sub
    }

    /// Submit the trailing one-byte status write (Figure 2).
    pub fn dma_status(&self, status: PhysRange) -> DmaSubmission {
        self.dma_status_on(0, status)
    }

    /// [`Proc::dma_status`] on a specific DMA channel; only orders behind
    /// payloads on the *same* channel.
    pub fn dma_status_on(&self, channel: usize, status: PhysRange) -> DmaSubmission {
        let sub = self
            .machine
            .dma_submit_status_on(self.pid, self.now(), channel, status);
        self.advance(sub.cpu_cost);
        sub
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Final virtual clock of each process.
    pub finish_times: Vec<Ps>,
    /// Largest finish time — the job's virtual makespan.
    pub makespan: Ps,
    /// Hardware counters at the end of the run.
    pub stats: StatsSnapshot,
}

/// Run `nprocs = placements.len()` simulated processes; process `i` is
/// bound to core `placements[i]` and executes `body(&proc)`. Returns when
/// all processes finish.
///
/// Panics in a process body abort the whole simulation (propagated).
pub fn run_simulation<F>(machine: Arc<Machine>, placements: &[CoreId], body: F) -> SimReport
where
    F: Fn(&Proc) + Send + Sync,
{
    let n = placements.len();
    assert!(n > 0, "need at least one process");
    let ncores = machine.cfg().topology.num_cores();
    for &c in placements {
        assert!(c < ncores, "placement core {c} out of range");
    }
    let shared = Arc::new(SchedShared {
        m: Mutex::new(State {
            clocks: vec![0; n],
            status: vec![Status::Ready; n],
            current: None,
        }),
        cvs: (0..n).map(|_| Condvar::new()).collect(),
    });
    lock(&shared.m).grant();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (pid, &core) in placements.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let machine = Arc::clone(&machine);
            let body = &body;
            handles.push(scope.spawn(move || {
                // Wait for our first grant.
                drop(shared.wait_for_grant(pid, lock(&shared.m)));
                let proc = Proc {
                    pid,
                    core,
                    machine,
                    shared: Arc::clone(&shared),
                    clock: Cell::new(0),
                };
                // Run the body, then retire (syncing the final clock).
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&proc)));
                let mut st = lock(&shared.m);
                st.clocks[pid] = proc.now();
                st.status[pid] = Status::Done;
                st.grant();
                shared.wake_granted(&st);
                drop(st);
                if let Err(p) = result {
                    std::panic::resume_unwind(p);
                }
            }));
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });

    let st = lock(&shared.m);
    let finish_times = st.clocks.clone();
    let makespan = finish_times.iter().copied().max().unwrap_or(0);
    SimReport {
        finish_times,
        makespan,
        stats: machine.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::xeon_e5345()))
    }

    #[test]
    fn processes_interleave_in_clock_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        run_simulation(machine(), &[0, 1], move |p| {
            // Process 0 advances in steps of 10, process 1 in steps of 25.
            let step = if p.pid() == 0 { 10 } else { 25 };
            for _ in 0..4 {
                lock(&log2).push((p.pid(), p.now()));
                p.advance(step);
                p.yield_now();
            }
        });
        let log = lock(&log).clone();
        // Events must be sorted by (time, pid).
        let mut sorted = log.clone();
        sorted.sort_by_key(|&(pid, t)| (t, pid));
        assert_eq!(log, sorted, "execution order must follow virtual time");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let m = machine();
            let r = run_simulation(Arc::clone(&m), &[0, 4], |p| {
                let buf = p.machine().alloc_phys(64 << 10);
                for _ in 0..10 {
                    p.write(PhysRange::new(buf, 64 << 10));
                    p.read(PhysRange::new(buf, 64 << 10));
                }
            });
            (r.finish_times.clone(), r.stats.l2_misses())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn poll_until_makes_progress() {
        // Process 1 waits for a flag process 0 sets at t=1000.
        let flag = Arc::new(Mutex::new(None::<Ps>));
        let f2 = Arc::clone(&flag);
        let r = run_simulation(machine(), &[0, 1], move |p| {
            if p.pid() == 0 {
                p.advance(1_000);
                p.yield_now();
                *lock(&f2) = Some(p.now());
            } else {
                let seen_at = p.poll_until(|| *lock(&f2));
                assert_eq!(seen_at, 1_000);
                // The poller's clock advanced past the flag time.
                assert!(p.now() >= 1_000);
            }
        });
        assert!(r.makespan >= 1_000);
    }

    #[test]
    fn finish_times_recorded() {
        let r = run_simulation(machine(), &[0, 1, 2], |p| {
            p.advance(100 * (p.pid() as u64 + 1));
            p.yield_now();
        });
        assert_eq!(r.finish_times, vec![100, 200, 300]);
        assert_eq!(r.makespan, 300);
    }

    #[test]
    fn single_process_runs_to_completion() {
        let r = run_simulation(machine(), &[5], |p| {
            p.compute(12_345);
        });
        assert_eq!(r.makespan, 12_345);
    }

    #[test]
    fn memory_ops_advance_clock() {
        let r = run_simulation(machine(), &[0], |p| {
            let b = p.machine().alloc_phys(4096);
            let t0 = p.now();
            p.read(PhysRange::new(b, 4096));
            assert!(p.now() > t0);
            p.syscall();
            p.pin_pages(4);
        });
        assert!(r.makespan > 0);
        // Syscall + pin costs are visible in the makespan.
        let m = MachineConfig::xeon_e5345();
        assert!(r.makespan > m.costs.syscall + 4 * m.costs.pin_page);
    }

    #[test]
    fn many_processes_all_finish() {
        let r = run_simulation(machine(), &[0, 1, 2, 3, 4, 5, 6, 7], |p| {
            for _ in 0..20 {
                p.compute(7);
            }
        });
        assert_eq!(r.finish_times.len(), 8);
        assert!(r.finish_times.iter().all(|&t| t == 140));
    }
}
