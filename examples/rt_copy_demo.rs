//! Real-thread demo of the three copy strategies on the *host* machine
//! (not the simulator): double-buffered two-copy vs direct single-copy
//! vs offloaded engine copy with overlap.
//!
//! ```bash
//! cargo run --release --example rt_copy_demo
//! ```

use std::sync::Arc;
use std::time::Instant;

use nemesis::rt::copy::{direct_copy, DoubleBufferPipe, OffloadEngine};
use nemesis::rt::lmt::{RING_SLOTS, RING_SLOT_BYTES};

const SIZE: usize = 16 << 20;
const REPS: u32 = 20;

fn mibs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / secs
}

fn main() {
    let src: Vec<u8> = (0..SIZE).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; SIZE];

    // Single copy (the KNEM model: receiver copies straight from the
    // sender's memory).
    let t = Instant::now();
    for _ in 0..REPS {
        direct_copy(&src, &mut dst);
    }
    let direct = t.elapsed().as_secs_f64() / REPS as f64;
    assert_eq!(src, dst);

    // Two copies through a small shared ring of the production
    // geometry, pipelined across two threads (the default Nemesis LMT).
    dst.fill(0);
    let pipe = Arc::new(DoubleBufferPipe::new(RING_SLOT_BYTES, RING_SLOTS));
    let t = Instant::now();
    for _ in 0..REPS {
        std::thread::scope(|s| {
            let p2 = Arc::clone(&pipe);
            let src_ref = &src;
            s.spawn(move || p2.send(src_ref));
            pipe.recv(&mut dst);
        });
    }
    let doublebuf = t.elapsed().as_secs_f64() / REPS as f64;
    assert_eq!(src, dst);

    // Offloaded copy: a dedicated engine thread moves the bytes while
    // this thread "computes" (the I/OAT model, Figure 2 completion).
    dst.fill(0);
    let eng = OffloadEngine::start();
    let t = Instant::now();
    let mut overlap_work = 0u64;
    for _ in 0..REPS {
        let pending = eng.submit(&src, &mut dst);
        while !pending.poll() {
            overlap_work = overlap_work.wrapping_mul(31).wrapping_add(1);
        }
    }
    let offload = t.elapsed().as_secs_f64() / REPS as f64;
    assert_eq!(src, dst);
    eng.shutdown();

    println!("16 MiB transfer on this host, {REPS} reps each:");
    println!("  direct single copy : {:8.0} MiB/s", mibs(SIZE, direct));
    println!(
        "  double-buffer ring : {:8.0} MiB/s (two copies, pipelined)",
        mibs(SIZE, doublebuf)
    );
    println!(
        "  offload engine     : {:8.0} MiB/s (+{} overlap iterations on the submitting thread)",
        mibs(SIZE, offload),
        overlap_work % 1_000_000
    );
}
