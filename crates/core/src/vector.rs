//! Noncontiguous ("vectorial") message layouts.
//!
//! The paper's abstract promises "a kernel-assisted, single-copy model
//! with support for noncontiguous and asynchronous transfers", and §5
//! contrasts KNEM with LIMIC2 precisely on "vectorial buffers". This
//! module provides the strided layout descriptor (the moral equivalent
//! of `MPI_Type_vector`) and the pack/unpack helpers the non-KNEM
//! backends need:
//!
//! * **KNEM** passes the block list straight to the kernel as an iovec —
//!   the copy loop walks both scatter lists, so a strided-to-strided
//!   transfer is still a *single* copy.
//! * **Shm / pipe backends** cannot express scatter lists on the wire;
//!   like MPICH2's dataloop engine, the sender packs into a contiguous
//!   staging buffer and the receiver unpacks — two extra copies, which
//!   is exactly the gap `tests/paper_claims.rs`
//!   (`vectorial_buffers_win_coarse_blocks_pack_wins_fine`) measures.

use nemesis_kernel::{BufId, Iov, Os};
use nemesis_sim::Proc;

/// A strided block layout inside one buffer: `count` blocks of
/// `block_len` bytes, the start of consecutive blocks `stride` bytes
/// apart, beginning at `off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorLayout {
    pub off: u64,
    pub block_len: u64,
    pub stride: u64,
    pub count: u64,
}

impl VectorLayout {
    /// A contiguous layout (one block).
    pub fn contiguous(off: u64, len: u64) -> Self {
        Self {
            off,
            block_len: len,
            stride: len,
            count: 1,
        }
    }

    /// A strided layout. `stride >= block_len` keeps blocks disjoint.
    pub fn strided(off: u64, block_len: u64, stride: u64, count: u64) -> Self {
        assert!(block_len > 0 || count == 0, "empty blocks need count 0");
        assert!(
            stride >= block_len,
            "stride {stride} overlaps blocks of {block_len}"
        );
        Self {
            off,
            block_len,
            stride,
            count,
        }
    }

    /// Total payload bytes.
    pub fn total(&self) -> u64 {
        self.block_len * self.count
    }

    /// Whether the layout is a single contiguous run.
    pub fn is_contiguous(&self) -> bool {
        self.count <= 1 || self.stride == self.block_len
    }

    /// Last byte offset touched (exclusive); buffers must be at least
    /// this long.
    pub fn end(&self) -> u64 {
        if self.count == 0 {
            self.off
        } else {
            self.off + (self.count - 1) * self.stride + self.block_len
        }
    }

    /// The block list as `(offset, len)` pairs. Contiguous runs are
    /// coalesced (`stride == block_len`).
    pub fn blocks(&self) -> Vec<(u64, u64)> {
        if self.count == 0 || self.block_len == 0 {
            return Vec::new();
        }
        if self.is_contiguous() {
            return vec![(self.off, self.total())];
        }
        (0..self.count)
            .map(|i| (self.off + i * self.stride, self.block_len))
            .collect()
    }

    /// The layout as a kernel iovec over `buf` (what the KNEM send and
    /// receive commands consume).
    pub fn iovs(&self, buf: BufId) -> Vec<Iov> {
        self.blocks()
            .into_iter()
            .map(|(off, len)| Iov::new(buf, off, len))
            .collect()
    }
}

/// Pack `layout` of `src` into the contiguous prefix of `dst` (charged
/// through the cache model — this is the datatype-engine copy).
pub fn pack(os: &Os, p: &Proc, src: BufId, layout: &VectorLayout, dst: BufId, dst_off: u64) {
    let mut at = dst_off;
    for (off, len) in layout.blocks() {
        os.user_copy(p, src, off, dst, at, len);
        at += len;
    }
}

/// Unpack the contiguous prefix of `src` into `layout` of `dst`
/// (charged).
pub fn unpack(os: &Os, p: &Proc, src: BufId, src_off: u64, dst: BufId, layout: &VectorLayout) {
    let mut at = src_off;
    for (off, len) in layout.blocks() {
        os.user_copy(p, src, at, dst, off, len);
        at += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_sim::{run_simulation, Machine, MachineConfig};
    use std::sync::Arc;

    #[test]
    fn contiguous_layout() {
        let l = VectorLayout::contiguous(64, 1000);
        assert!(l.is_contiguous());
        assert_eq!(l.total(), 1000);
        assert_eq!(l.end(), 1064);
        assert_eq!(l.blocks(), vec![(64, 1000)]);
    }

    #[test]
    fn strided_layout_blocks() {
        let l = VectorLayout::strided(0, 100, 256, 4);
        assert!(!l.is_contiguous());
        assert_eq!(l.total(), 400);
        assert_eq!(l.end(), 3 * 256 + 100);
        assert_eq!(
            l.blocks(),
            vec![(0, 100), (256, 100), (512, 100), (768, 100)]
        );
    }

    #[test]
    fn dense_stride_coalesces() {
        let l = VectorLayout::strided(32, 128, 128, 8);
        assert!(l.is_contiguous());
        assert_eq!(l.blocks(), vec![(32, 1024)]);
    }

    #[test]
    fn zero_count_is_empty() {
        let l = VectorLayout::strided(0, 64, 128, 0);
        assert_eq!(l.total(), 0);
        assert!(l.blocks().is_empty());
        assert_eq!(l.end(), 0);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_stride_rejected() {
        let _ = VectorLayout::strided(0, 100, 50, 2);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        run_simulation(machine, &[0], |p| {
            let src = os.alloc(0, 4096);
            let staging = os.alloc(0, 4096);
            let dst = os.alloc(0, 4096);
            // Mark strided rows of src.
            let layout = VectorLayout::strided(16, 48, 160, 5);
            os.with_data_mut(p, src, |d| {
                for (i, (off, len)) in layout.blocks().into_iter().enumerate() {
                    d[off as usize..(off + len) as usize].fill(i as u8 + 1);
                }
            });
            pack(&os, p, src, &layout, staging, 0);
            os.with_data(p, staging, |d| {
                for i in 0..5usize {
                    assert!(d[i * 48..(i + 1) * 48].iter().all(|&b| b == i as u8 + 1));
                }
            });
            unpack(&os, p, staging, 0, dst, &layout);
            os.with_data(p, dst, |d| {
                for (i, (off, len)) in layout.blocks().into_iter().enumerate() {
                    assert!(d[off as usize..(off + len) as usize]
                        .iter()
                        .all(|&b| b == i as u8 + 1));
                }
            });
        });
    }

    #[test]
    fn iovs_match_blocks() {
        let l = VectorLayout::strided(0, 10, 20, 3);
        let iovs = l.iovs(7);
        assert_eq!(iovs.len(), 3);
        assert_eq!((iovs[1].buf, iovs[1].off, iovs[1].len), (7, 20, 10));
    }
}
