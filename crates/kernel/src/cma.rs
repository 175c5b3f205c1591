//! Cross Memory Attach — the `process_vm_readv` syscall family.
//!
//! The paper's §2 deployment concern with KNEM is that it is a
//! *nonstandard kernel module*: "deploying such a nonstandard kernel
//! module on a system requires administrative privileges". CMA (merged
//! in Linux 3.2, after the paper) provides the same single-copy
//! semantics through a plain syscall: the receiver names the sender's
//! address ranges and the kernel copies directly between the two
//! address spaces, no module and no persistent registration.
//!
//! The simulated model keeps CMA's characteristic cost shape, which
//! differs from KNEM's in two ways:
//!
//! * **No pinning, no cookies.** A KNEM send command pins the source
//!   pages once and holds them until the cookie is destroyed
//!   ([`Os::knem_send_cmd`]); CMA holds nothing between calls. The
//!   "window" objects here are pure user-space bookkeeping — the
//!   simulated stand-in for shipping the sender's address list inside
//!   the RTS packet — so exposing one charges nothing and pins nothing
//!   ([`Os::knem_pinned_pages`]-style leak checks stay at zero).
//! * **Per-call page walk.** Each `process_vm_readv` call re-walks the
//!   remote pages it touches (`get_user_pages` held only for the
//!   duration of the call), so the walk cost is charged *per call, per
//!   touched page* instead of once per transfer. Chunked drivers
//!   therefore see CMA's real trade-off: smaller chunks pay the walk
//!   more often.
//!
//! Partial-read semantics mirror the syscall: a single call moves at
//! most [`CMA_MAX_SEGS`] paired (remote, local) runs — the simulated
//! analogue of `UIO_MAXIOV`, scaled down so strided windows genuinely
//! exercise partial completion — and returns the bytes actually moved;
//! callers loop. The copy itself moves real bytes and is charged to the
//! caller's core through the cache model, exactly like a KNEM sync-CPU
//! receive ([`Os::knem_recv_cmd`]).

use std::collections::HashMap;

use nemesis_model::sync::lock;
use nemesis_sim::Proc;

use crate::mem::{Iov, Os};

/// Handle to an exposed source window (the simulated stand-in for the
/// remote address list a real CMA receiver gets in the RTS packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CmaWindowId(pub u64);

/// Per-call segment budget: one `process_vm_readv` call copies at most
/// this many paired (remote, local) runs before returning short — the
/// simulated `UIO_MAXIOV`, scaled down so strided transfers genuinely
/// hit the partial-read path.
pub const CMA_MAX_SEGS: usize = 8;

struct WindowEntry {
    owner: usize,
    iovs: Vec<Iov>,
}

#[derive(Default)]
pub(crate) struct CmaState {
    windows: HashMap<u64, WindowEntry>,
    next: u64,
}

impl Os {
    /// Publish a source window for CMA reads. Pure user-space
    /// bookkeeping (the address list travels in the RTS packet): no
    /// syscall, no pinning, no kernel state — the window table only
    /// exists so the simulated receiver can name the ranges.
    pub fn cma_expose(&self, p: &Proc, iovs: &[Iov]) -> CmaWindowId {
        self.validate_iovs(Some(p.pid()), iovs);
        let mut st = lock(&self.state);
        let id = st.cma.next;
        st.cma.next += 1;
        st.cma.windows.insert(
            id,
            WindowEntry {
                owner: p.pid(),
                iovs: iovs.to_vec(),
            },
        );
        CmaWindowId(id)
    }

    /// Drop an exposed window (either side, after completion). Nothing
    /// was pinned, so nothing is charged.
    pub fn cma_close(&self, _p: &Proc, w: CmaWindowId) {
        let mut st = lock(&self.state);
        st.cma
            .windows
            .remove(&w.0)
            .expect("closing unknown CMA window");
    }

    /// Live exposed windows (diagnostics; a nonzero value at a
    /// quiescent point is a bookkeeping leak).
    pub fn cma_live_windows(&self) -> usize {
        lock(&self.state).cma.windows.len()
    }

    /// Total bytes an exposed window covers.
    pub fn cma_window_len(&self, w: CmaWindowId) -> u64 {
        let st = lock(&self.state);
        Iov::total(&st.cma.windows[&w.0].iovs)
    }

    /// One `process_vm_readv` call: copy up to `Iov::total(dst)` bytes
    /// of the window, starting `off` bytes into it, into the caller's
    /// `dst` iovec — directly between the two address spaces, one copy.
    ///
    /// Returns the bytes actually moved, which may be less than
    /// requested (partial-read semantics): a call stops after
    /// [`CMA_MAX_SEGS`] paired runs. Returns 0 only for a zero-length
    /// request. Charges one syscall, a transient per-touched-page walk
    /// (nothing stays pinned), and the copy itself through the cache
    /// model on the caller's core.
    pub fn process_vm_readv(&self, p: &Proc, w: CmaWindowId, off: u64, dst: &[Iov]) -> u64 {
        self.validate_iovs(Some(p.pid()), dst);
        let want = Iov::total(dst);
        if want == 0 {
            return 0;
        }
        // Pair window[off..off+want] against the local iovec, capped at
        // the per-call segment budget.
        let runs = {
            let st = lock(&self.state);
            let win = st
                .cma
                .windows
                .get(&w.0)
                .expect("read from unknown CMA window");
            assert_ne!(win.owner, p.pid(), "CMA self-read is pointless");
            assert!(
                off + want <= Iov::total(&win.iovs),
                "CMA read past the exposed window"
            );
            pair_window(&win.iovs, off, dst)
        };
        p.syscall();
        // Transient get_user_pages walk over the touched remote pages:
        // paid on every call (CMA's per-call overhead), never held (no
        // pin accounting — the page-pin-free half of the cost model).
        // Charged at the source buffer's backing page size, so a 2 MiB
        // huge-page window amortizes the walk 512-fold.
        let pages: u64 = runs
            .iter()
            .map(|&(sb, so, _, _, len)| self.pages_touched(sb, so, len))
            .sum();
        p.advance(pages * self.machine().cfg().costs.knem_map_page);
        self.kernel_copy_multi(p, &runs);
        runs.iter().map(|r| r.4).sum()
    }
}

/// Pair `window[skip..]` against the local iovec list, producing at
/// most [`CMA_MAX_SEGS`] copy runs.
fn pair_window(window: &[Iov], skip: u64, dst: &[Iov]) -> Vec<(usize, u64, usize, u64, u64)> {
    let mut runs = Vec::new();
    let mut skipped = 0u64;
    let (mut di, mut do_) = (0usize, 0u64);
    for s in window {
        // Skip the already-read prefix of the window.
        let mut so = if skipped + s.len <= skip {
            skipped += s.len;
            continue;
        } else {
            let within = skip.saturating_sub(skipped);
            skipped = skip;
            within
        };
        while so < s.len && di < dst.len() {
            if runs.len() == CMA_MAX_SEGS {
                return runs;
            }
            let d = &dst[di];
            let n = (s.len - so).min(d.len - do_);
            if n == 0 {
                break;
            }
            runs.push((s.buf, s.off + so, d.buf, d.off + do_, n));
            so += n;
            do_ += n;
            if do_ == d.len {
                di += 1;
                do_ = 0;
            }
        }
        if di >= dst.len() {
            break;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemesis_sim::{run_simulation, Machine, MachineConfig};
    use std::sync::{Arc, Mutex};

    fn two_procs(body: impl Fn(&Proc, &Os) + Send + Sync) {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        run_simulation(machine, &[0, 4], |p| body(p, &os));
    }

    #[test]
    fn single_copy_roundtrip_with_loop() {
        let window = Mutex::new(None::<CmaWindowId>);
        let len = 300 << 10;
        two_procs(|p, os| {
            if p.pid() == 0 {
                let src = os.alloc(0, len);
                os.with_data_mut(p, src, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i % 233) as u8;
                    }
                });
                os.touch_write(p, src, 0, len);
                *lock(&window) = Some(os.cma_expose(p, &[Iov::new(src, 0, len)]));
            } else {
                let w = p.poll_until(|| *lock(&window));
                let dst = os.alloc(1, len);
                let mut at = 0u64;
                while at < len {
                    let n = os.process_vm_readv(p, w, at, &[Iov::new(dst, at, len - at)]);
                    assert!(n > 0, "contiguous in-bounds read cannot return 0");
                    at += n;
                }
                os.cma_close(p, w);
                let got = os.read_bytes(p, dst, 0, len);
                for (i, b) in got.iter().enumerate() {
                    assert_eq!(*b, (i % 233) as u8, "byte {i} corrupt");
                }
            }
        });
    }

    #[test]
    fn partial_read_stops_at_the_segment_budget() {
        let window = Mutex::new(None::<CmaWindowId>);
        two_procs(|p, os| {
            if p.pid() == 0 {
                // 32 source blocks of 1 KiB: far more runs than one call
                // may carry.
                let src = os.alloc(0, 64 << 10);
                os.with_data_mut(p, src, |d| d.fill(7));
                let iovs: Vec<Iov> = (0..32).map(|i| Iov::new(src, i * 2048, 1024)).collect();
                *lock(&window) = Some(os.cma_expose(p, &iovs));
            } else {
                let w = p.poll_until(|| *lock(&window));
                let dst = os.alloc(1, 32 << 10);
                let n = os.process_vm_readv(p, w, 0, &[Iov::new(dst, 0, 32 << 10)]);
                assert_eq!(
                    n,
                    (CMA_MAX_SEGS as u64) * 1024,
                    "one call is capped at CMA_MAX_SEGS runs"
                );
                // The loop drains the rest.
                let mut at = n;
                while at < 32 << 10 {
                    at += os.process_vm_readv(p, w, at, &[Iov::new(dst, at, (32 << 10) - at)]);
                }
                os.cma_close(p, w);
                os.with_data(p, dst, |d| assert!(d.iter().all(|&b| b == 7)));
            }
        });
    }

    #[test]
    fn no_pages_pinned_and_no_window_leak() {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Os::new(Arc::clone(&machine));
        let m2 = Arc::clone(&machine);
        let window = Mutex::new(None::<CmaWindowId>);
        run_simulation(machine, &[0, 4], |p| {
            if p.pid() == 0 {
                let src = os.alloc(0, 1 << 20);
                *lock(&window) = Some(os.cma_expose(p, &[Iov::new(src, 0, 1 << 20)]));
            } else {
                let w = p.poll_until(|| *lock(&window));
                let dst = os.alloc(1, 1 << 20);
                let mut at = 0u64;
                while at < 1 << 20 {
                    at += os.process_vm_readv(p, w, at, &[Iov::new(dst, at, (1 << 20) - at)]);
                }
                os.cma_close(p, w);
            }
        });
        assert_eq!(os.cma_live_windows(), 0, "window leak");
        assert_eq!(
            m2.snapshot().per_proc[1].pinned_pages,
            0,
            "CMA must never hold pages pinned"
        );
    }

    #[test]
    fn huge_page_window_parity_and_walk_amortization() {
        // The same 1 MiB CMA transfer from a 4 KiB-paged source and a
        // 2 MiB-huge-page source: bytes must be identical, and the
        // huge-page walk charge must collapse from 256 pages to 1.
        use crate::mem::HUGE_PAGE;
        let len: u64 = 1 << 20;
        let run = |huge: bool| {
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Os::new(Arc::clone(&machine));
            let window = Mutex::new(None::<CmaWindowId>);
            let out = Mutex::new(Vec::new());
            let walk = Mutex::new(0u64);
            run_simulation(machine, &[0, 4], |p| {
                if p.pid() == 0 {
                    let src = if huge {
                        os.alloc_huge(0, len)
                    } else {
                        os.alloc(0, len)
                    };
                    assert_eq!(os.page_size(src), if huge { HUGE_PAGE } else { 4096 });
                    os.with_data_mut(p, src, |d| {
                        for (i, b) in d.iter_mut().enumerate() {
                            *b = (i % 241) as u8;
                        }
                    });
                    os.touch_write(p, src, 0, len);
                    *lock(&window) = Some(os.cma_expose(p, &[Iov::new(src, 0, len)]));
                } else {
                    let w = p.poll_until(|| *lock(&window));
                    let dst = os.alloc(1, len);
                    // Isolate the per-call overhead: measure one whole
                    // readv loop and subtract the pure copy cost via the
                    // walk-page count implied by the page size.
                    let t0 = p.now();
                    let mut at = 0u64;
                    while at < len {
                        at += os.process_vm_readv(p, w, at, &[Iov::new(dst, at, len - at)]);
                    }
                    *lock(&walk) = p.now() - t0;
                    os.cma_close(p, w);
                    *lock(&out) = os.read_bytes(p, dst, 0, len);
                }
            });
            let bytes = lock(&out).clone();
            let t = *lock(&walk);
            (bytes, t)
        };
        let (small_bytes, small_t) = run(false);
        let (huge_bytes, huge_t) = run(true);
        assert_eq!(small_bytes, huge_bytes, "huge-page window corrupts data");
        for (i, b) in huge_bytes.iter().enumerate() {
            assert_eq!(*b, (i % 241) as u8, "byte {i} corrupt");
        }
        // Walk charge: 4 KiB pages walk 256 pages/MiB, huge pages 1. The
        // elapsed difference must show (at least most of) those 255
        // amortized walks.
        let map = nemesis_sim::MachineConfig::xeon_e5345().costs.knem_map_page;
        assert!(
            small_t >= huge_t + 200 * map,
            "huge pages must amortize the walk: 4K {small_t} vs huge {huge_t}"
        );
    }

    #[test]
    #[should_panic(expected = "unknown CMA window")]
    fn unknown_window_panics_loudly() {
        two_procs(|p, os| {
            if p.pid() == 1 {
                let dst = os.alloc(1, 64);
                os.process_vm_readv(p, CmaWindowId(999), 0, &[Iov::new(dst, 0, 64)]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "past the exposed window")]
    fn out_of_window_read_rejected() {
        let window = Mutex::new(None::<CmaWindowId>);
        two_procs(|p, os| {
            if p.pid() == 0 {
                let src = os.alloc(0, 64);
                *lock(&window) = Some(os.cma_expose(p, &[Iov::new(src, 0, 64)]));
            } else {
                let w = p.poll_until(|| *lock(&window));
                let dst = os.alloc(1, 128);
                os.process_vm_readv(p, w, 32, &[Iov::new(dst, 0, 128)]);
            }
        });
    }

    #[test]
    fn strided_to_strided_pairs_correctly() {
        let window = Mutex::new(None::<CmaWindowId>);
        two_procs(|p, os| {
            if p.pid() == 0 {
                let src = os.alloc(0, 8 << 10);
                os.with_data_mut(p, src, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i % 101) as u8;
                    }
                });
                // Three uneven blocks.
                let iovs = [
                    Iov::new(src, 0, 1000),
                    Iov::new(src, 2000, 500),
                    Iov::new(src, 4000, 1500),
                ];
                *lock(&window) = Some(os.cma_expose(p, &iovs));
            } else {
                let w = p.poll_until(|| *lock(&window));
                let dst = os.alloc(1, 4 << 10);
                // Misaligned destination blocks.
                let dst_iovs = [Iov::new(dst, 0, 1700), Iov::new(dst, 2048, 1300)];
                let mut at = 0u64;
                while at < 3000 {
                    let remaining: Vec<Iov> = {
                        // Slice the destination list by the bytes already
                        // read (the caller's loop responsibility).
                        let mut out = Vec::new();
                        let mut pos = 0u64;
                        for v in &dst_iovs {
                            let end = pos + v.len;
                            if end > at {
                                let from = at.max(pos);
                                out.push(Iov::new(v.buf, v.off + (from - pos), end - from));
                            }
                            pos = end;
                        }
                        out
                    };
                    let n = os.process_vm_readv(p, w, at, &remaining);
                    assert!(n > 0);
                    at += n;
                }
                os.cma_close(p, w);
                let a = os.read_bytes(p, dst, 0, 1700);
                let b = os.read_bytes(p, dst, 2048, 1300);
                let mut lin = a;
                lin.extend_from_slice(&b);
                let mut expect = Vec::new();
                for (off, len) in [(0u64, 1000u64), (2000, 500), (4000, 1500)] {
                    expect.extend((off..off + len).map(|i| (i % 101) as u8));
                }
                assert_eq!(lin, expect, "strided pairing corrupt");
            }
        });
    }
}
