//! The clock the serving layer spins on toward a deadline a few
//! microseconds away.
//!
//! A spin on `Instant` pays an ordered vDSO clock read and `Duration`
//! arithmetic on every poll, and two more reads to set its deadline: in
//! a saturated worker on the 2-vCPU reference host a 2 µs service took
//! a median 2 127 ns, against 2 066 ns on the TSC.
//!
//! Where the kernel's monotonic clock is itself the TSC, a spin reads the
//! TSC instead and converts ns to ticks with a ratio calibrated once
//! against `Instant`. The ratio is padded by its own calibration error
//! and by the kernel's clock slew, so a TSC spin never ends before the
//! `Instant` deadline it stands for. Everywhere else the spin polls
//! `Instant` as before.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How far the kernel's monotonic clock may drift against the TSC after
/// calibration: NTP slews it by up to 500 ppm each way, so the rate a
/// spin meets can differ from the calibrated one by twice that.
const SLEW: f64 = 1e-3;
/// How long the one calibration per process spins.
const CALIBRATION: Duration = Duration::from_micros(900);
/// A calibration less certain than this falls back to `Instant`: a
/// paired read cut by a pre-emption would make the pad, and every spin,
/// that much longer.
const MAX_ERR: f64 = 1e-3;
/// The last stretch of a TSC spin, polled without `pause`: a poll with
/// it takes about 37 ns on the 2-vCPU reference host, one without about
/// 23, and a spin overruns its deadline by half a poll on average.
const TIGHT_NS: f64 = 100.0;

/// TSC ticks per `Instant` ns, with a bound on the ratio's relative error.
#[derive(Debug, Clone, Copy)]
struct Rate {
    ticks_per_ns: f64,
    err: f64,
}

/// A spin toward a deadline: on the TSC when calibrated, else on `Instant`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpinClock {
    /// Padded TSC ticks per `Instant` ns; `None` spins on `Instant`.
    ticks_per_ns: Option<f64>,
}

impl SpinClock {
    /// The clock every platform has.
    pub(crate) const INSTANT: SpinClock = SpinClock { ticks_per_ns: None };

    /// This process's clock: the TSC where the kernel's monotonic clock
    /// already reads it, calibrated on first use, else `Instant`.
    pub(crate) fn get() -> SpinClock {
        static CLOCK: OnceLock<SpinClock> = OnceLock::new();
        *CLOCK.get_or_init(|| {
            tsc_is_monotonic()
                .then(SpinClock::calibrate)
                .flatten()
                .unwrap_or(SpinClock::INSTANT)
        })
    }

    /// A TSC clock calibrated now, if this CPU has a TSC and the
    /// calibration came out certain enough.
    pub(crate) fn calibrate() -> Option<SpinClock> {
        cfg!(target_arch = "x86_64")
            .then(|| measure_rate(CALIBRATION))
            .filter(|r| (0.0..=MAX_ERR).contains(&r.err))
            .map(SpinClock::padded)
    }

    fn padded(r: Rate) -> SpinClock {
        SpinClock {
            ticks_per_ns: Some(r.ticks_per_ns * (1.0 + r.err + SLEW)),
        }
    }

    /// Spin for at least `ns` of `Instant` time from the call.
    pub(crate) fn spin_for(self, ns: u64) {
        match self.ticks_per_ns {
            Some(r) => {
                let end = tsc(true) + (ns as f64 * r).ceil() as u64;
                let tight = end.saturating_sub((TIGHT_NS * r) as u64);
                // Polls need no order: an early read, or a TSC that reads
                // backwards, only keeps the spin going.
                while tsc(false) < tight {
                    std::hint::spin_loop();
                }
                while tsc(false) < end {}
            }
            None => {
                let start = Instant::now();
                let d = Duration::from_nanos(ns);
                while start.elapsed() < d {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Whether `Instant` already runs on the TSC. Only the kernel's choice
/// of clocksource says so: it also means the kernel found the TSCs of all
/// CPUs in step, which CPUID's invariant-TSC bit does not promise.
fn tsc_is_monotonic() -> bool {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .is_ok_and(|source| source.trim() == "tsc")
}

/// The TSC. An `ordered` read waits until every earlier instruction has
/// completed, so a spin cannot start counting before the clock read that
/// set its deadline; an unordered one may run early, and then reads less.
#[cfg(target_arch = "x86_64")]
fn tsc(ordered: bool) -> u64 {
    use std::arch::x86_64::{_mm_lfence, _rdtsc};
    // SAFETY: `lfence` and `rdtsc` touch no memory and exist on every
    // x86_64 CPU (SSE2 is part of the base ISA).
    unsafe {
        if ordered {
            _mm_lfence();
        }
        _rdtsc()
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn tsc(_ordered: bool) -> u64 {
    unreachable!("a TSC clock is only calibrated on x86_64")
}

/// The TSC ticks just before and just after one `Instant` read: the
/// narrowest of a few tries, so neither a pre-emption nor a fresh
/// process's cold first try (one came out 4.5 µs wide) widens the bound.
fn paired_read() -> (u64, Instant, u64) {
    (0..4)
        .map(|_| {
            let before = tsc(true);
            let at = Instant::now();
            (before, at, tsc(true))
        })
        .min_by_key(|&(before, _, after)| after.wrapping_sub(before))
        .expect("four tries")
}

/// The TSC's rate against `Instant` over about `span`. The ticks that
/// surely lie between the two `Instant` reads and the ticks that surely
/// cover them bracket the true count; `Instant` itself reads whole ns.
fn measure_rate(span: Duration) -> Rate {
    let (b0, i0, a0) = paired_read();
    while i0.elapsed() < span {
        std::hint::spin_loop();
    }
    let (b1, i1, a1) = paired_read();
    let ns = (i1 - i0).as_nanos() as f64;
    let inner = b1.saturating_sub(a0) as f64;
    let outer = a1.saturating_sub(b0) as f64;
    let ticks = (inner + outer) / 2.0;
    Rate {
        ticks_per_ns: ticks / ns,
        err: (outer - inner) / 2.0 / ticks + 2.0 / ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every spin of `ns` from `clock`, `n` times over, lasts at least
    /// `ns` on `Instant`.
    fn assert_never_early(clock: SpinClock, ns: u64, n: usize) {
        for i in 0..n {
            let start = Instant::now();
            clock.spin_for(ns);
            let took = start.elapsed().as_nanos() as u64;
            assert!(
                took >= ns,
                "spin {i} of {ns} ns ended after {took} ns ({clock:?})"
            );
        }
    }

    #[test]
    fn instant_spins_never_end_early() {
        assert_never_early(SpinClock::INSTANT, 2_000, 10_000);
        assert_never_early(SpinClock::INSTANT, 20_000, 10_000);
    }

    #[test]
    fn tsc_spins_never_end_early() {
        let Some(clock) = SpinClock::calibrate() else {
            return; // no TSC here: the `Instant` test covers what runs
        };
        assert_never_early(clock, 2_000, 10_000);
        assert_never_early(clock, 20_000, 10_000);
    }

    #[test]
    fn the_process_clock_is_the_tsc_where_the_kernel_uses_it() {
        if tsc_is_monotonic() {
            assert!(SpinClock::get().ticks_per_ns.is_some());
        }
    }

    #[test]
    fn calibration_holds_within_its_pad_over_10_ms() {
        if !cfg!(target_arch = "x86_64") {
            return;
        }
        let cal = measure_rate(CALIBRATION);
        assert!(cal.err <= MAX_ERR, "calibration error {:e}", cal.err);
        let long = measure_rate(Duration::from_millis(10));
        let off = (cal.ticks_per_ns / long.ticks_per_ns - 1.0).abs();
        assert!(
            off <= cal.err + long.err,
            "calibrated {cal:?} is {off:e} off the 10 ms rate {long:?}"
        );
        // Padded, the ratio sits the slew allowance above the rate
        // `Instant` ran at, less what the two measurements may be off by.
        let padded = SpinClock::padded(cal).ticks_per_ns.unwrap();
        let lowest = (1.0 - cal.err - long.err) * (1.0 + cal.err + SLEW);
        assert!(
            padded >= long.ticks_per_ns * lowest,
            "padded {padded} against the 10 ms rate {long:?}"
        );
    }
}
