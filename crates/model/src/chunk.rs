//! The learned chunk sweet spot: per-chunk timings, folded into an
//! EWMA throughput per power-of-two chunk class; the published sweet
//! spot is the best-throughput class, switched with hysteresis.
//!
//! The chunk pipelines grow geometrically toward a *static*
//! per-backend preferred chunk. The real sweet spot moves with
//! placement (a shared-L2 pair tolerates bigger chunks before the ring
//! starts evicting the receiver's lines; a cross-socket pair pays more
//! flag traffic per chunk) — so this model learns it from the chunks
//! the pipeline actually drives.

use crate::ewma::{log2_class, Ewma};

/// Chunk classes cover 2^9 (512 B) .. 2^(9+NCLASSES-1) = 1 MiB.
const CLASS_BASE: u32 = 9;
const NCLASSES: usize = 12;

/// Observations a class needs before it can be published.
const MIN_SAMPLES: u32 = 3;

/// A challenger class must beat the incumbent's throughput by this
/// factor to take over (hysteresis against measurement jitter).
const HYSTERESIS: f64 = 1.05;

/// One wire's chunk model.
#[derive(Debug, Default)]
pub struct ChunkModel {
    cells: [Ewma; NCLASSES],
    /// Published class index.
    published: Option<usize>,
}

impl ChunkModel {
    /// Fold one fully-absorbed chunk's timing (`elapsed` non-zero, in
    /// the caller's tick) into its class and re-elect: the best ready
    /// class wins, but the incumbent keeps its seat unless beaten by
    /// the hysteresis margin.
    pub fn observe(&mut self, chunk_bytes: u64, elapsed: u64) {
        let c = log2_class(chunk_bytes, CLASS_BASE, NCLASSES);
        self.cells[c].observe(chunk_bytes as f64 / elapsed as f64);
        let best = (0..NCLASSES)
            .filter(|&i| self.cells[i].n >= MIN_SAMPLES)
            .max_by(|&a, &b| self.cells[a].bw.total_cmp(&self.cells[b].bw));
        if let Some(best) = best {
            if self
                .published
                .is_none_or(|inc| self.cells[best].bw > self.cells[inc].bw * HYSTERESIS)
            {
                self.published = Some(best);
            }
        }
    }

    /// The published sweet spot in bytes (`None` until any class has
    /// enough observations).
    pub fn sweet_spot(&self) -> Option<u64> {
        self.published.map(|c| 1u64 << (CLASS_BASE + c as u32))
    }

    /// Placement-change decay: reset every class's sample count (the
    /// throughput EWMAs survive as priors). The published class keeps
    /// answering until fresh chunks under the new placement re-elect.
    pub fn decay(&mut self) {
        for c in &mut self.cells {
            c.n = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_min_samples_before_publishing() {
        let mut m = ChunkModel::default();
        m.observe(4 << 10, 1000);
        m.observe(4 << 10, 1000);
        assert_eq!(m.sweet_spot(), None);
        m.observe(4 << 10, 1000);
        assert_eq!(m.sweet_spot(), Some(4 << 10));
    }

    #[test]
    fn elects_the_fastest_class_with_hysteresis() {
        let mut m = ChunkModel::default();
        for _ in 0..5 {
            m.observe(4 << 10, 4 * (4 << 10)); // 0.25 B/tick
            m.observe(32 << 10, 2 * (32 << 10)); // 0.5 B/tick
            m.observe(256 << 10, 3 * (256 << 10)); // 0.33 B/tick
        }
        assert_eq!(m.sweet_spot(), Some(32 << 10));
        // A marginal (<5%) challenger does not unseat the incumbent.
        for _ in 0..50 {
            m.observe(256 << 10, (2.0 * 0.99 * (256 << 10) as f64) as u64);
        }
        assert_eq!(m.sweet_spot(), Some(32 << 10));
    }

    #[test]
    fn out_of_range_chunks_clamp_to_edge_classes() {
        let mut m = ChunkModel::default();
        for _ in 0..3 {
            m.observe(16 << 20, 16 << 20); // clamps to the 1 MiB class
        }
        assert_eq!(m.sweet_spot(), Some(1 << 20));
    }

    #[test]
    fn decay_keeps_the_published_class_until_fresh_chunks_re_elect() {
        let mut m = ChunkModel::default();
        for _ in 0..3 {
            m.observe(4 << 10, 4 << 10);
        }
        m.decay();
        m.observe(64 << 10, 16 << 10); // 4x faster, but only one sample
        assert_eq!(m.sweet_spot(), Some(4 << 10));
        m.observe(64 << 10, 16 << 10);
        m.observe(64 << 10, 16 << 10);
        assert_eq!(m.sweet_spot(), Some(64 << 10));
    }
}
