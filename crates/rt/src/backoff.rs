//! Spin-then-yield backoff for busy-wait loops.
//!
//! Nemesis is a polling design; on dedicated cores pure spinning is
//! right. But when ranks are oversubscribed (more ranks than cores — CI
//! boxes, laptops), a spinning waiter burns its entire scheduler quantum
//! while the peer it waits for cannot run. [`Backoff`] spins for a
//! **capped budget** — `2^spin_limit - 1` snoozes of one `spin_loop()`
//! (one `pause`) each, so the caller looks again after every pause and a
//! contended waiter never commits to an unbounded burn — then escalates
//! to `yield_now` so the peer gets CPU. One pause per look, never a
//! burst: a round trip over a lane is under a microsecond, and 32 blind
//! pauses are half of one.
//!
//! The cap is configurable: dedicated-core deployments raise it (longer
//! in-cache spins before surrendering the quantum), oversubscribed ones
//! lower it. The simulated stack exposes the same knob as
//! `NemesisConfig::backoff_spin_cap`; the `nemesis` facade crate bridges
//! it into an rt runtime config so both stacks tune from one place.

/// Default spin cap: `2^DEFAULT_SPIN_LIMIT - 1` = 63 one-pause snoozes
/// before yielding — ≈ a microsecond, the scale of a few cross-core
/// cache-line bounces.
pub const DEFAULT_SPIN_LIMIT: u32 = 6;

/// Largest accepted cap (~2^16 pauses ≈ a millisecond — anything above
/// would burn whole scheduler quanta and defeat the escalation).
pub const MAX_SPIN_LIMIT: u32 = 16;

/// Capped one-pause spin backoff that escalates to `yield_now`.
#[derive(Debug)]
pub struct Backoff {
    /// Spin snoozes taken since the last reset.
    step: u32,
    /// Spin snoozes before every further snooze yields.
    budget: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::with_spin_limit(DEFAULT_SPIN_LIMIT)
    }
}

impl Backoff {
    pub fn new() -> Self {
        Self::default()
    }

    /// A backoff whose spin phase lasts `2^spin_limit - 1` one-pause
    /// snoozes (limit clamped to [`MAX_SPIN_LIMIT`]) before every
    /// further snooze yields. A limit of 0 yields immediately — the
    /// right setting for heavily oversubscribed runs.
    pub fn with_spin_limit(spin_limit: u32) -> Self {
        Self {
            step: 0,
            budget: (1 << spin_limit.min(MAX_SPIN_LIMIT)) - 1,
        }
    }

    /// One wait step: a single `spin_loop()` while young — the caller
    /// looks again after every pause — and a yield to the OS once the
    /// wait has lasted long enough that the peer may need our core.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step < self.budget {
            std::hint::spin_loop();
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Whether the schedule has escalated past spinning (useful for
    /// callers that park differently once yielding starts).
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.step >= self.budget
    }

    /// Restart the fast path (call after making progress).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_resets() {
        let mut b = Backoff::new();
        let budget = (1 << DEFAULT_SPIN_LIMIT) - 1;
        for _ in 0..budget {
            assert!(!b.is_yielding(), "still inside the spin budget");
            b.snooze();
        }
        assert!(b.is_yielding(), "budget spent: every further snooze yields");
        b.snooze(); // a yield: must terminate and stay escalated
        assert!(b.is_yielding());
        b.reset();
        assert!(!b.is_yielding());
        assert_eq!(b.step, 0);
    }

    #[test]
    fn zero_cap_yields_immediately() {
        let mut b = Backoff::with_spin_limit(0);
        assert!(b.is_yielding(), "no spin phase at cap 0");
        b.snooze(); // must not panic, must not spin
        assert_eq!(b.step, 0, "yielding never advances the step");
    }

    #[test]
    fn cap_is_clamped() {
        let b = Backoff::with_spin_limit(u32::MAX);
        assert_eq!(b.budget, (1 << MAX_SPIN_LIMIT) - 1);
    }

    #[test]
    fn spin_iterations_are_capped() {
        // The spin phase is 2^limit - 1 one-pause snoozes and not one
        // more: drive it far past the cap and the count saturates at the
        // budget.
        let mut b = Backoff::with_spin_limit(3);
        assert_eq!(b.budget, 7);
        for _ in 0..50 {
            b.snooze();
        }
        assert_eq!(b.step, 7, "spin snoozes never exceed the budget");
    }

    #[test]
    fn wait_for_flag_across_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                flag.store(true, Ordering::Release);
            });
            let mut b = Backoff::new();
            while !flag.load(Ordering::Acquire) {
                b.snooze();
            }
        });
    }
}
