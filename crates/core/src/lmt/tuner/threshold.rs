//! The learned `DMAmin` crossover model: an online copy-vs-offload
//! bandwidth comparison per power-of-two size class.
//!
//! §3.5 derives `DMAmin` from cache geometry; this model instead
//! *observes* it. Every accepted [`TransferSample`](super::TransferSample)
//! updates an EWMA of the achieved bandwidth for its (size class,
//! mechanism) cell. The crossover estimate is the boundary between the
//! largest size class where the CPU copy still wins and the smallest
//! class where the offload wins; that estimate is itself EWMA-smoothed
//! in log-space and only republished when it moves by more than the
//! hysteresis band — so a noisy tie near the boundary cannot make the
//! receive mode flap.

use nemesis_model::{log2_class, Ewma};

use super::TransferClass;

/// Size classes cover 2^10 (1 KiB) .. 2^(10+NCLASSES-1); transfers
/// outside clamp to the edge classes. 1 KiB is far below any
/// eager/rendezvous switchover and 2^25 (32 MiB) far above any sane
/// `DMAmin`, so the edges only ever aggregate tails.
const CLASS_BASE: u32 = 10;
const NCLASSES: usize = 16;

/// Minimum observations a (class, mechanism) cell needs before it takes
/// part in the crossover scan.
const MIN_SAMPLES: u32 = 2;

/// Smoothing factor for the log-space crossover estimate.
const T_ALPHA: f64 = 0.5;

/// Republish only when the smoothed estimate moved by more than this
/// factor from the published value (hysteresis).
const HYSTERESIS: f64 = 1.1;

/// Per-pair crossover state (lives behind the tuner's per-pair mutex).
#[derive(Default)]
pub struct CrossoverModel {
    copy: [Ewma; NCLASSES],
    offload: [Ewma; NCLASSES],
    /// Log2 of the smoothed crossover estimate; `None` until the scan
    /// first finds a boundary.
    smoothed_log2: Option<f64>,
    /// Last published threshold in bytes.
    published: u64,
}

impl CrossoverModel {
    /// Fold one transfer observation into its (class, mechanism) cell
    /// and refresh the crossover estimate.
    pub fn observe(&mut self, class: TransferClass, bytes: u64, elapsed_ps: u64) {
        let bw = bytes as f64 / elapsed_ps as f64;
        let c = log2_class(bytes, CLASS_BASE, NCLASSES);
        match class {
            TransferClass::Copy => self.copy[c].observe(bw),
            TransferClass::Offload => self.offload[c].observe(bw),
        }
        if let Some(candidate) = self.scan() {
            let s = match self.smoothed_log2 {
                None => candidate,
                Some(prev) => T_ALPHA * candidate + (1.0 - T_ALPHA) * prev,
            };
            self.smoothed_log2 = Some(s);
            let value = (2f64).powf(s);
            let pub_f = self.published as f64;
            if self.published == 0 || value > pub_f * HYSTERESIS || value * HYSTERESIS < pub_f {
                self.published = value as u64;
            }
        }
    }

    /// The crossover candidate from the current cells, as log2(bytes):
    /// the midpoint between the largest class where copy wins and the
    /// smallest class at or above it where offload wins. Classes where
    /// only one mechanism has been sampled are skipped — the comparison
    /// needs both.
    fn scan(&self) -> Option<f64> {
        let mut last_copy_win: Option<usize> = None;
        let mut first_offload_win: Option<usize> = None;
        for c in 0..NCLASSES {
            if self.copy[c].n < MIN_SAMPLES || self.offload[c].n < MIN_SAMPLES {
                continue;
            }
            if self.offload[c].bw > self.copy[c].bw {
                if first_offload_win.is_none() {
                    first_offload_win = Some(c);
                }
            } else {
                last_copy_win = Some(c);
                // A copy win above an earlier offload win contradicts
                // it; trust the larger size and rescan from here.
                first_offload_win = None;
            }
        }
        match (last_copy_win, first_offload_win) {
            // Crossing observed: the crossover lies somewhere between
            // the two classes — estimate it as the geometric mean of
            // their floors (log-space midpoint).
            (Some(cw), Some(ow)) => {
                let lo = (CLASS_BASE as usize + cw) as f64;
                let hi = (CLASS_BASE as usize + ow) as f64;
                Some((lo + hi) / 2.0)
            }
            // Offload wins everywhere both were sampled: the crossover
            // is at or below the smallest compared size.
            (None, Some(ow)) => Some((CLASS_BASE as usize + ow) as f64),
            // Copy wins everywhere: the crossover is above the largest
            // compared size — push one class past it.
            (Some(cw), None) => Some((CLASS_BASE as usize + cw) as f64 + 1.5),
            (None, None) => None,
        }
    }

    /// The published learned threshold in bytes (`None` until a
    /// crossover has been observed). Clamping to the eager floor is the
    /// caller's job — the model itself is range-agnostic.
    pub fn learned(&self) -> Option<u64> {
        (self.published != 0).then_some(self.published)
    }

    /// Placement-change decay: every cell's sample count is reset (its
    /// bandwidth EWMA survives as a prior) and the smoothed estimate
    /// dropped, so the published threshold holds steady as a prior but
    /// only fresh samples under the new placement can move it — and
    /// they face no stale-majority EWMA inertia when they do.
    pub fn decay(&mut self) {
        for c in self.copy.iter_mut().chain(self.offload.iter_mut()) {
            c.n = 0;
        }
        self.smoothed_log2 = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut CrossoverModel, class: TransferClass, bytes: u64, ps_per_byte: f64) {
        m.observe(class, bytes, (bytes as f64 * ps_per_byte) as u64 + 1);
    }

    #[test]
    fn clean_crossover_is_found_between_the_regimes() {
        let mut m = CrossoverModel::default();
        // Copy wins below 1 MiB, offload at and above (clean step).
        for _ in 0..4 {
            for exp in 17..24u32 {
                let n = 1u64 << exp;
                let copy_cost = 2.0;
                let offload_cost = if n >= 1 << 20 { 1.0 } else { 4.0 };
                feed(&mut m, TransferClass::Copy, n, copy_cost);
                feed(&mut m, TransferClass::Offload, n, offload_cost);
            }
        }
        let t = m.learned().expect("crossover published");
        assert!(
            ((1u64 << 19)..=(1u64 << 21)).contains(&t),
            "threshold {t} should bracket 1 MiB"
        );
    }

    #[test]
    fn one_sided_observations_publish_nothing() {
        let mut m = CrossoverModel::default();
        for _ in 0..10 {
            feed(&mut m, TransferClass::Copy, 1 << 20, 2.0);
        }
        assert_eq!(m.learned(), None, "no comparison without both classes");
    }

    #[test]
    fn hysteresis_suppresses_boundary_noise() {
        let mut m = CrossoverModel::default();
        for round in 0..50 {
            for exp in 18..23u32 {
                let n = 1u64 << exp;
                // Alternate which mechanism wins *at the boundary class
                // only*; the regimes away from it stay stable.
                let noisy = exp == 20 && round % 2 == 0;
                let offload_cost = if n >= (1 << 20) && !noisy { 1.0 } else { 4.0 };
                feed(&mut m, TransferClass::Copy, n, 2.0);
                feed(&mut m, TransferClass::Offload, n, offload_cost);
            }
        }
        let t = m.learned().unwrap();
        assert!(
            ((1u64 << 19)..=(1u64 << 22)).contains(&t),
            "published threshold {t} must stay near the true boundary despite noise"
        );
    }
}
