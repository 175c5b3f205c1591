//! # nemesis-kernel — simulated Linux kernel services
//!
//! The paper's single-copy mechanisms require the kernel: a process cannot
//! read another process's address space from user space (§2). This crate
//! provides the three kernel facilities the paper relies on, implemented
//! against the [`nemesis_sim`] machine model:
//!
//! * [`mem`] — per-process address spaces holding real bytes backed by
//!   simulated physical pages, plus shared (mmap-style) mappings for the
//!   Nemesis user-space queues and copy buffers.
//! * [`pipe`] — Unix pipes with the kernel's 16-page ring
//!   (`PIPE_BUFFERS`, §3.1), supporting `writev` (copy into kernel
//!   pages), `vmsplice` (attach user pages, zero-copy) and `readv`.
//! * [`knem`] — the KNEM character device (§3.2–3.4): send commands that
//!   pin a buffer and return a cookie, receive commands that copy
//!   directly between address spaces — synchronously on the CPU,
//!   asynchronously in a kernel thread, or offloaded to the I/OAT DMA
//!   engine with the in-order status-write completion of Figure 2.
//!
//! All operations charge costs through the machine's cache model and
//! actually move bytes, so higher layers can verify data integrity while
//! the simulator produces timings and cache-miss counts.

pub mod cma;
pub mod knem;
pub mod mem;
pub mod pipe;

pub use cma::{CmaWindowId, CMA_MAX_SEGS};
pub use knem::{Cookie, KnemFlags, KnemMode, StatusId};
pub use mem::{BufId, Iov, Os, HUGE_PAGE};
pub use pipe::PipeId;

#[cfg(test)]
mod integration_tests {
    use std::sync::{Arc, Mutex};

    use nemesis_model::sync::lock;
    use nemesis_sim::{run_simulation, Machine, MachineConfig};

    use crate::mem::Os;

    /// The full kernel stack in one scenario: two processes, one pipe, one
    /// KNEM transfer, verifying bytes and determinism.
    #[test]
    fn kernel_stack_end_to_end_deterministic() {
        let run = || {
            let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
            let os = Arc::new(Os::new(Arc::clone(&machine)));
            let pipe = os.pipe_create();
            let cookie_slot = Mutex::new(None::<crate::knem::Cookie>);
            let report = run_simulation(machine, &[0, 4], |p| {
                if p.pid() == 0 {
                    let buf = os.alloc(p.pid(), 128 << 10);
                    os.with_data_mut(p, buf, |d| {
                        for (i, b) in d.iter_mut().enumerate() {
                            *b = (i % 251) as u8;
                        }
                    });
                    os.touch_write(p, buf, 0, 128 << 10);
                    // Half via the pipe, half via KNEM.
                    os.pipe_write_all(p, pipe, buf, 0, 64 << 10);
                    let cookie =
                        os.knem_send_cmd(p, &[crate::mem::Iov::new(buf, 64 << 10, 64 << 10)]);
                    *lock(&cookie_slot) = Some(cookie);
                } else {
                    let dst = os.alloc(p.pid(), 128 << 10);
                    os.pipe_read_exact(p, pipe, dst, 0, 64 << 10);
                    let cookie = p.poll_until(|| *lock(&cookie_slot));
                    let status = os.knem_alloc_status(p.pid());
                    os.knem_recv_cmd(
                        p,
                        cookie,
                        &[crate::mem::Iov::new(dst, 64 << 10, 64 << 10)],
                        crate::knem::KnemFlags::sync_cpu(),
                        status,
                    );
                    assert!(os.knem_poll_status(p, status));
                    let got = os.read_bytes(p, dst, 0, 128 << 10);
                    for (i, b) in got.iter().enumerate() {
                        assert_eq!(*b, (i % 251) as u8, "byte {i} corrupt");
                    }
                }
            });
            report.makespan
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be deterministic");
        assert!(a > 0);
    }
}

#[cfg(test)]
mod proptests;
