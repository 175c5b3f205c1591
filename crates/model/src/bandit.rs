//! The deterministic `N`-armed bandit behind every learned *choice*
//! (LMT backend per pair and size class, algorithm per collective
//! cell): each candidate is an arm, its reward the bandwidth it
//! actually delivered.
//!
//! # Exploration schedule (deterministic — seeded runs stay reproducible)
//!
//! 1. **Sweep**, depth-first: until every open arm has [`MIN_PROBE`]
//!    samples, pick the first under-sampled arm, so an arm's probes run
//!    back-to-back and its second sample measures the mechanism warm
//!    (the provisional first eats the cold start and the cache state
//!    the previous arm left behind). A breadth-first sweep would hand
//!    every arm nothing but pollution-tainted samples while an eventual
//!    incumbent streams warm — the classic exploration bias of bandits
//!    over stateful systems. Feedback can lag the pick (a burst of
//!    in-flight transfers reports later), so the sweep bounds itself on
//!    picks too and never spins on an arm whose samples are slow.
//! 2. **Exploit**: pick the best bandwidth EWMA, with a small
//!    hysteresis so measurement jitter cannot unseat the incumbent.
//! 3. **Probes**: re-probe a minority arm at exponentially spaced ticks
//!    (16, 32, 64, … capped at 1024), round-robin over the open arms
//!    and in streaks of two (the warm-second-sample reason again), so a
//!    regime change is eventually noticed while the amortized probe
//!    cost goes to zero.

use crate::ewma::Ewma;

/// Samples an arm needs before the sweep stops probing it.
pub const MIN_PROBE: u32 = 2;

/// First steady-state probe interval in decisions; doubles after every
/// probe up to [`PROBE_CAP`].
const PROBE_START: u64 = 16;
const PROBE_CAP: u64 = 1024;

/// A challenger arm must beat the incumbent's bandwidth by this factor
/// to unseat it.
const HYSTERESIS: f64 = 1.05;

#[derive(Debug, Default, Clone, Copy)]
struct Arm {
    est: Ewma,
    /// Times the arm was picked (the sweep's bound under lagging
    /// feedback).
    picked: u32,
}

/// One bandit over `N` arms. Callers that split their decisions by
/// size class hold one per class.
#[derive(Debug, Clone, Copy)]
pub struct Bandit<const N: usize> {
    arms: [Arm; N],
    /// Decisions taken.
    tick: u64,
    /// Next steady-state probe fires at this tick (0 = not yet
    /// scheduled — set on the first exploit decision).
    next_probe: u64,
    probe_interval: u64,
    /// Round-robin cursor over the *open* arms for steady-state probes.
    probe_cursor: usize,
    /// Remaining repeats of the current probe.
    probe_streak: u8,
    /// Incumbent arm (`usize::MAX` = none yet).
    incumbent: usize,
}

impl<const N: usize> Default for Bandit<N> {
    fn default() -> Self {
        Self {
            arms: [Arm::default(); N],
            tick: 0,
            next_probe: 0,
            probe_interval: PROBE_START,
            probe_cursor: 0,
            probe_streak: 0,
            incumbent: usize::MAX,
        }
    }
}

impl<const N: usize> Bandit<N> {
    /// The arm the sweep still owes a probe, if any.
    fn sweep_candidate(&self, open: &[bool; N]) -> Option<usize> {
        (0..N).find(|&a| {
            open[a] && self.arms[a].est.n < MIN_PROBE && self.arms[a].picked < 2 * MIN_PROBE
        })
    }

    /// The open arm with the best estimate (the last one on ties).
    fn best(&self, open: &[bool; N]) -> Option<usize> {
        (0..N)
            .filter(|&a| open[a])
            .max_by(|&a, &b| self.arms[a].est.bw.total_cmp(&self.arms[b].est.bw))
    }

    /// Pick an arm among those `open` marks and advance the exploration
    /// state — one call per real decision, never on a read-only path.
    /// With nothing open the answer is arm 0 and no state moves.
    pub fn pick(&mut self, open: &[bool; N]) -> usize {
        let nopen = open.iter().filter(|&&o| o).count();
        if nopen == 0 {
            return 0;
        }
        let nth_open = |k: usize| {
            (0..N)
                .filter(|&a| open[a])
                .nth(k)
                .expect("cursor is reduced modulo the open count")
        };
        self.tick += 1;
        let arm = if let Some(arm) = self.sweep_candidate(open) {
            arm
        } else if self.probe_streak > 0 {
            self.probe_streak -= 1;
            nth_open(self.probe_cursor % nopen)
        } else if self.next_probe != 0 && self.tick >= self.next_probe {
            self.probe_interval = (self.probe_interval * 2).min(PROBE_CAP);
            self.next_probe = self.tick + self.probe_interval;
            self.probe_cursor = (self.probe_cursor + 1) % nopen;
            self.probe_streak = 1;
            nth_open(self.probe_cursor)
        } else {
            if self.next_probe == 0 {
                self.next_probe = self.tick + self.probe_interval;
            }
            let best = self.best(open).expect("an arm is open");
            let inc = self.incumbent;
            if inc >= N || !open[inc] || self.arms[best].est.bw > self.arms[inc].est.bw * HYSTERESIS
            {
                self.incumbent = best;
            }
            self.incumbent
        };
        self.arms[arm].picked = self.arms[arm].picked.saturating_add(1);
        arm
    }

    /// What [`Bandit::pick`] would choose right now, without advancing
    /// any exploration state (an inspection call must not burn sweep
    /// picks whose rewards will never arrive). Probe scheduling is
    /// ignored: the sweep candidate while the sweep is open, the
    /// incumbent (or best arm) afterwards.
    pub fn peek(&self, open: &[bool; N]) -> usize {
        let Some(best) = self.best(open) else {
            return 0;
        };
        if let Some(arm) = self.sweep_candidate(open) {
            return arm;
        }
        if self.incumbent < N && open[self.incumbent] {
            return self.incumbent;
        }
        best
    }

    /// Fold one completed operation's achieved bandwidth
    /// (`bytes / elapsed`, in the caller's tick) into the arm's
    /// estimate. The arm's first sample is provisional (see
    /// [`Ewma::observe_provisional`]); degenerate samples are dropped.
    pub fn observe(&mut self, arm: usize, bytes: u64, elapsed: u64) {
        if arm >= N || bytes == 0 || elapsed == 0 {
            return;
        }
        self.arms[arm]
            .est
            .observe_provisional(bytes as f64 / elapsed as f64);
    }

    /// Forget how well-sampled the arms are (the estimates survive as
    /// priors) and restart the probe schedule, so the sweep re-probes
    /// every arm within `N × MIN_PROBE` decisions.
    pub fn decay(&mut self) {
        for a in &mut self.arms {
            a.est.n = 0;
            a.picked = 0;
        }
        self.next_probe = 0;
        self.probe_interval = PROBE_START;
        self.probe_streak = 0;
        self.incumbent = usize::MAX;
    }

    /// The arm's `(bandwidth EWMA, samples)` (out-of-range arms read
    /// the last one).
    pub fn cell(&self, arm: usize) -> (f64, u32) {
        let e = self.arms[arm.min(N - 1)].est;
        (e.bw, e.n)
    }

    /// Restore one arm's estimate from its exported `(bw bits, n)`,
    /// counted as picked too, so a warm-started bandit exploits instead
    /// of re-sweeping. Non-finite or negative bandwidths are rejected —
    /// a corrupt snapshot must not plant a NaN that `total_cmp` would
    /// rank above every real bandwidth and elect as a permanent
    /// incumbent.
    pub fn import_cell(&mut self, arm: usize, bw_bits: u64, n: u32) {
        let bw = f64::from_bits(bw_bits);
        if arm < N && bw.is_finite() && bw >= 0.0 {
            self.arms[arm] = Arm {
                est: Ewma { bw, n },
                picked: n,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 8;
    const ALL: [bool; N] = [true; N];

    /// A world where `best` is twice as fast as every other arm.
    fn teach(b: &mut Bandit<N>, best: usize, rounds: usize) {
        for _ in 0..rounds {
            for arm in 0..N {
                b.observe(arm, 1 << 20, if arm == best { 1 << 20 } else { 2 << 20 });
            }
        }
    }

    #[test]
    fn sweep_probes_every_arm_before_exploiting() {
        let mut b = Bandit::<N>::default();
        let mut seen = [0u32; N];
        for _ in 0..N as u32 * MIN_PROBE {
            let a = b.pick(&ALL);
            seen[a] += 1;
            b.observe(a, 1 << 20, 1 << 20);
        }
        assert_eq!(seen, [MIN_PROBE; N], "sweep must cover every arm");
    }

    #[test]
    fn converges_on_the_best_arm_and_probes_become_rare() {
        let mut b = Bandit::<N>::default();
        teach(&mut b, 4, 4);
        let picks: Vec<usize> = (0..200).map(|_| b.pick(&ALL)).collect();
        let minority = picks.iter().filter(|&&a| a != 4).count();
        assert!(
            minority <= 6,
            "expected rare probes after convergence, got {minority}/200 minority picks"
        );
        assert_eq!(*picks.last().unwrap(), 4);
    }

    #[test]
    fn closed_arms_are_never_picked() {
        let mut b = Bandit::<N>::default();
        let mut mask = ALL;
        mask[3] = false;
        mask[5] = false;
        for _ in 0..300 {
            let a = b.pick(&mask);
            assert!(a != 3 && a != 5);
            b.observe(a, 1 << 20, 1 << 20);
        }
        // Nothing open: arm 0, and the schedule does not advance.
        let before = b;
        assert_eq!(b.pick(&[false; N]), 0);
        assert_eq!(b.peek(&[false; N]), 0);
        assert_eq!(b.tick, before.tick);
    }

    #[test]
    fn peek_does_not_advance_exploration() {
        let mut a = Bandit::<N>::default();
        let mut b = Bandit::<N>::default();
        teach(&mut a, 4, 4);
        teach(&mut b, 4, 4);
        for _ in 0..100 {
            assert_eq!(a.peek(&ALL), 4, "peek answers with the best arm");
        }
        // The decision sequence must match an uninspected twin's (same
        // sweep, same probe ticks).
        let pa: Vec<usize> = (0..50).map(|_| a.pick(&ALL)).collect();
        let pb: Vec<usize> = (0..50).map(|_| b.pick(&ALL)).collect();
        assert_eq!(pa, pb, "peeks burned exploration state");
        // Mid-sweep, the peek reports the sweep candidate.
        assert_eq!(Bandit::<N>::default().peek(&ALL), 0);
    }

    #[test]
    fn decay_forces_a_full_resweep() {
        let mut b = Bandit::<N>::default();
        teach(&mut b, 2, 4);
        for _ in 0..50 {
            b.pick(&ALL);
        }
        b.decay();
        let mut seen = [false; N];
        for _ in 0..N as u32 * MIN_PROBE {
            let a = b.pick(&ALL);
            seen[a] = true;
            b.observe(a, 1 << 20, 1 << 20);
        }
        assert!(
            seen.iter().all(|&s| s),
            "every arm must be re-probed within arms x MIN_PROBE observed picks of a decay"
        );
    }

    #[test]
    fn counts_saturate_at_the_top() {
        let mut b = Bandit::<2>::default();
        b.import_cell(0, 1.0f64.to_bits(), u32::MAX);
        b.import_cell(1, 0.5f64.to_bits(), u32::MAX);
        b.observe(0, 1 << 20, 1 << 20);
        assert_eq!(b.cell(0).1, u32::MAX);
        assert_eq!(b.pick(&[true; 2]), 0, "picks at a saturated count");
    }

    #[test]
    fn import_rejects_poisoned_estimates() {
        let mut b = Bandit::<2>::default();
        b.import_cell(0, f64::NAN.to_bits(), 3);
        b.import_cell(1, (-1.0f64).to_bits(), 3);
        b.import_cell(9, 1.0f64.to_bits(), 3);
        assert_eq!((b.cell(0), b.cell(1)), ((0.0, 0), (0.0, 0)));
        b.import_cell(1, 2.0f64.to_bits(), 3);
        assert_eq!(b.cell(1), (2.0, 3));
        assert_eq!(b.peek(&[true; 2]), 0, "arm 0 is still owed its sweep");
    }
}
