//! Randomized property tests on the kernel services: the pipe must
//! behave as a byte stream under any interleaving of chunked writes and
//! reads, and KNEM must move bytes correctly between arbitrary iovec
//! splits. Cases are drawn from a seeded generator, so every run
//! exercises the same (reproducible) sample of the input space.

#![cfg(test)]

use std::sync::{Arc, Mutex};

use nemesis_model::rng::StdRng;
use nemesis_model::sync::lock;
use nemesis_sim::{run_simulation, Machine, MachineConfig, Proc};

use crate::knem::KnemFlags;
use crate::mem::{Iov, Os};

const CASES: usize = 32;

fn one_proc(body: impl Fn(&Proc, &Os) + Send + Sync) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Os::new(Arc::clone(&machine));
    run_simulation(machine, &[0], |p| body(p, &os));
}

/// Split `total` into chunks whose sizes follow `cuts` (a recycled list
/// of chunk lengths, each at least 1).
fn chunks_of(total: u64, cuts: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut left = total;
    let mut i = 0;
    while left > 0 {
        let c = cuts[i % cuts.len()].clamp(1, left);
        out.push(c);
        left -= c;
        i += 1;
    }
    out
}

fn cut_vec(rng: &mut StdRng, max_cut: u64, max_n: usize) -> Vec<u64> {
    let n = rng.random_range(1..max_n);
    (0..n).map(|_| rng.random_range(1..max_cut)).collect()
}

/// Any interleaving of chunked writev calls and chunked readv calls
/// preserves the byte stream (pipes never reorder, duplicate or drop
/// bytes, regardless of how the 16-page ring forces partial calls).
#[test]
fn pipe_is_a_byte_stream() {
    let mut rng = StdRng::seed_from_u64(0x9d0e_51f2);
    for case in 0..CASES {
        let total = rng.random_range(1u64..200_000);
        let wcuts = cut_vec(&mut rng, 50_000, 5);
        let rcuts = cut_vec(&mut rng, 50_000, 5);
        one_proc(|p, os| {
            let pipe = os.pipe_create();
            let src = os.alloc(0, total);
            let dst = os.alloc(0, total);
            os.with_data_mut(p, src, |d| {
                for (i, b) in d.iter_mut().enumerate() {
                    *b = (i as u8).wrapping_mul(41).wrapping_add(3);
                }
            });
            let wchunks = chunks_of(total, &wcuts);
            let rchunks = chunks_of(total, &rcuts);
            let (mut wi, mut ri) = (0usize, 0usize);
            let (mut written, mut read) = (0u64, 0u64);
            let (mut woff, mut roff) = (0u64, 0u64);
            // Alternate write/read attempts; partial progress is fine.
            while read < total {
                if wi < wchunks.len() {
                    let want = (wchunks[wi] - woff).min(total - written);
                    let w = os.pipe_try_write(p, pipe, src, written, want);
                    written += w;
                    woff += w;
                    if woff == wchunks[wi] {
                        wi += 1;
                        woff = 0;
                    }
                }
                if ri < rchunks.len() {
                    let want = (rchunks[ri] - roff).min(total - read);
                    let r = os.pipe_try_read(p, pipe, dst, read, want);
                    read += r;
                    roff += r;
                    if roff == rchunks[ri] {
                        ri += 1;
                        roff = 0;
                    }
                }
            }
            os.with_data(p, dst, |d| {
                for (i, b) in d.iter().enumerate() {
                    assert_eq!(
                        *b,
                        (i as u8).wrapping_mul(41).wrapping_add(3),
                        "case {case}: byte {i}"
                    );
                }
            });
            assert!(os.pipe_is_drained(pipe));
        });
    }
}

/// A KNEM transfer between arbitrary send and receive iovec splits of
/// the same total length is byte-exact, for the CPU and I/OAT paths.
/// (Two simulated processes: KNEM rejects self-receives.)
#[test]
fn knem_arbitrary_iovec_splits() {
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for case in 0..CASES {
        let total = rng.random_range(1u64..150_000);
        let scuts = cut_vec(&mut rng, 40_000, 4);
        let rcuts = cut_vec(&mut rng, 40_000, 4);
        let ioat: bool = rng.random();
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Arc::new(Os::new(Arc::clone(&machine)));
        let cookie_slot = Mutex::new(None);
        let mk_iovs = |buf, cuts: &[u64]| {
            let mut iovs = Vec::new();
            let mut off = 0;
            for c in chunks_of(total, cuts) {
                iovs.push(Iov::new(buf, off, c));
                off += c;
            }
            iovs
        };
        run_simulation(Arc::clone(&machine), &[0, 4], |p| {
            if p.pid() == 0 {
                let src = os.alloc(0, total);
                os.with_data_mut(p, src, |d| {
                    for (i, b) in d.iter_mut().enumerate() {
                        *b = (i as u8).wrapping_mul(29).wrapping_add(7);
                    }
                });
                *lock(&cookie_slot) = Some(os.knem_send_cmd(p, &mk_iovs(src, &scuts)));
            } else {
                let cookie = p.poll_until(|| *lock(&cookie_slot));
                let dst = os.alloc(1, total);
                let status = os.knem_alloc_status(1);
                let flags = if ioat {
                    KnemFlags::sync_ioat()
                } else {
                    KnemFlags::sync_cpu()
                };
                os.knem_recv_cmd(p, cookie, &mk_iovs(dst, &rcuts), flags, status);
                assert!(os.knem_poll_status(p, status));
                os.with_data(p, dst, |d| {
                    for (i, b) in d.iter().enumerate() {
                        assert_eq!(
                            *b,
                            (i as u8).wrapping_mul(29).wrapping_add(7),
                            "case {case}: byte {i}"
                        );
                    }
                });
                os.knem_destroy_cookie(p, cookie);
                assert_eq!(os.knem_live_cookies(), 0);
            }
        });
    }
}
