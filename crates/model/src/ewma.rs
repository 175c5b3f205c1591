//! The shared primitives: the `{bw, n}` EWMA cell, the clamped
//! power-of-two size class, and the in-band exploration rule.

/// EWMA smoothing factor of every bandwidth cell.
const ALPHA: f64 = 0.25;

/// One EWMA step. The operand order is load-bearing: the simulator's
/// virtual time depends on the exact bits of every estimate.
pub fn blend(prev: f64, sample: f64) -> f64 {
    ALPHA * sample + (1.0 - ALPHA) * prev
}

/// A bandwidth estimate and the observations folded into it.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Ewma {
    /// EWMA bandwidth in bytes per caller tick.
    pub bw: f64,
    /// Observations folded in (saturating).
    pub n: u32,
}

impl Ewma {
    /// Fold one sample in; the first sample seeds the estimate.
    pub fn observe(&mut self, bw: f64) {
        self.fold(bw, 1);
    }

    /// Fold one sample in, treating the first as *provisional*: it is
    /// stored (an arm probed once still has an estimate) but fully
    /// replaced by the second. The first use of a mechanism pays
    /// cold-start costs (window tables, cache state, ring creation,
    /// thread wakeup) that would otherwise sit in the EWMA with
    /// `1 - ALPHA` weight and mis-rank the arm.
    pub fn observe_provisional(&mut self, bw: f64) {
        self.fold(bw, 2);
    }

    fn fold(&mut self, bw: f64, seeding: u32) {
        self.bw = if self.n < seeding {
            bw
        } else {
            blend(self.bw, bw)
        };
        self.n = self.n.saturating_add(1);
    }
}

/// The power-of-two size class of `bytes`: `floor(log2(bytes)) - base`,
/// clamped to `0..nclasses` (degenerate lengths land in class 0,
/// oversized ones in the top class).
pub fn log2_class(bytes: u64, base: u32, nclasses: usize) -> usize {
    let lg = if bytes == 0 { 0 } else { bytes.ilog2() };
    (lg.saturating_sub(base) as usize).min(nclasses - 1)
}

/// Exploration period of the threshold decisions.
const EXPLORE_PERIOD: u64 = 8;

/// Whether `tick` (a per-decision counter starting at 0) is an
/// exploration tick: every 8th decision is. Deterministic — no RNG on
/// a decision path, so seeded runs stay reproducible.
pub fn is_explore_tick(tick: u64) -> bool {
    tick % EXPLORE_PERIOD == EXPLORE_PERIOD - 1
}

/// Whether a threshold decision for `len` runs the *minority* side.
/// Lengths within `[threshold/4, 4·threshold)` take a tick from
/// `next_tick` and flip on every 8th, so a learned crossover keeps
/// seeing both mechanisms on both sides of the boundary (otherwise it
/// could never move against its own decisions). Out-of-band lengths
/// never flip and never take a tick — the answer there is not in doubt.
pub fn explore_flip(len: u64, threshold: u64, next_tick: impl FnOnce() -> u64) -> bool {
    len >= threshold / 4 && len < threshold.saturating_mul(4) && is_explore_tick(next_tick())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_rules_differ_only_in_the_second_fold() {
        let (mut seed, mut prov) = (Ewma::default(), Ewma::default());
        for e in [&mut seed, &mut prov] {
            assert_eq!((e.bw, e.n), (0.0, 0));
        }
        seed.observe(8.0);
        prov.observe_provisional(8.0);
        assert_eq!((seed.bw, prov.bw), (8.0, 8.0));
        seed.observe(4.0);
        prov.observe_provisional(4.0);
        assert_eq!(seed.bw, 0.25 * 4.0 + 0.75 * 8.0);
        assert_eq!(prov.bw, 4.0, "the provisional first sample is replaced");
        seed.observe(4.0);
        prov.observe_provisional(2.0);
        assert_eq!(prov.bw, 0.25 * 2.0 + 0.75 * 4.0);
        assert_eq!((seed.n, prov.n), (3, 3));
    }

    #[test]
    fn sample_count_saturates_instead_of_overflowing() {
        let mut e = Ewma {
            bw: 1.0,
            n: u32::MAX,
        };
        e.observe(3.0);
        e.observe_provisional(3.0);
        assert_eq!(e.n, u32::MAX);
        assert!(e.bw > 1.0 && e.bw < 3.0, "the estimate still moves");
    }

    #[test]
    fn classes_clamp_at_both_edges() {
        assert_eq!(log2_class(0, 9, 12), 0);
        assert_eq!(log2_class(1, 9, 12), 0);
        assert_eq!(log2_class(512, 9, 12), 0);
        assert_eq!(log2_class(1023, 9, 12), 0);
        assert_eq!(log2_class(1024, 9, 12), 1);
        assert_eq!(log2_class(1 << 20, 9, 12), 11);
        assert_eq!(log2_class(u64::MAX, 9, 12), 11);
        assert_eq!(log2_class(u64::MAX, 0, 64), 63);
    }

    #[test]
    fn exploration_flips_every_eighth_in_band_decision_only() {
        let mut tick = 0u64;
        let mut next = || {
            tick += 1;
            tick - 1
        };
        let t = 1 << 20;
        // Out of band on either side: no flip, no tick consumed.
        for _ in 0..100 {
            assert!(!explore_flip(1 << 30, t, &mut next));
            assert!(!explore_flip(t / 4 - 1, t, &mut next));
            assert!(!explore_flip(4 * t, t, &mut next));
        }
        assert_eq!(next(), 0, "out-of-band decisions must not take ticks");
        // In band: exactly the 8th, 16th, … decisions flip.
        let flips = (0..64)
            .filter(|_| explore_flip(2 * t, t, &mut next))
            .count();
        assert_eq!(flips, 8);
        // A saturating upper bound keeps huge thresholds in band.
        assert!(!explore_flip(u64::MAX / 2, u64::MAX / 2, || 0));
        assert!(explore_flip(u64::MAX / 2, u64::MAX / 2, || 7));
    }
}
