//! Halo exchange on a 2D domain decomposition — the workload shape of
//! NAS BT/SP/LU (§4.5) and the canonical use of noncontiguous
//! ("vectorial") transfers the paper's abstract advertises.
//!
//! Four ranks own quadrants of a row-major `f64` grid. Every iteration
//! each rank exchanges:
//! * its north/south boundary **rows** — contiguous messages, and
//! * its east/west boundary **columns** — strided messages
//!   ([`VectorLayout`]) that KNEM moves in a single scatter-to-scatter
//!   kernel copy, while the default LMT must pack/unpack.
//!
//! Run with `cargo run --release --example halo_exchange`.

use std::sync::Arc;

use nemesis::core::{Comm, KnemSelect, LmtSelect, Nemesis, NemesisConfig, VectorLayout};
use nemesis::kernel::Os;
use nemesis::sim::{ps_to_ms, run_simulation, Machine, MachineConfig};

/// Local grid size per rank (cells per side), excluding halos.
const N: u64 = 256;
/// Bytes per cell (f64).
const CELL: u64 = 8;
/// Grid row length including the two halo columns.
const ROW: u64 = (N + 2) * CELL;
/// Iterations of the exchange loop.
const ITERS: u32 = 20;

/// 2x2 process grid: rank = 2*row + col.
fn neighbours(rank: usize) -> [(usize, Dir); 4] {
    let (r, c) = (rank / 2, rank % 2);
    [
        ((r ^ 1) * 2 + c, Dir::North),
        ((r ^ 1) * 2 + c, Dir::South),
        (r * 2 + (c ^ 1), Dir::East),
        (r * 2 + (c ^ 1), Dir::West),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Dir {
    North,
    South,
    East,
    West,
}

/// Layout of a boundary: rows are contiguous, columns are strided.
fn boundary(dir: Dir, interior: bool) -> VectorLayout {
    // Interior boundaries are the cells we own and send; halo boundaries
    // are the ghost cells we receive into.
    let first_row = ROW + CELL; // (1,1) in halo coordinates
    match (dir, interior) {
        (Dir::North, true) => VectorLayout::contiguous(first_row, N * CELL),
        (Dir::North, false) => VectorLayout::contiguous(CELL, N * CELL),
        (Dir::South, true) => VectorLayout::contiguous(first_row + (N - 1) * ROW, N * CELL),
        (Dir::South, false) => VectorLayout::contiguous((N + 1) * ROW + CELL, N * CELL),
        (Dir::West, true) => VectorLayout::strided(first_row, CELL, ROW, N),
        (Dir::West, false) => VectorLayout::strided(ROW, CELL, ROW, N),
        (Dir::East, true) => VectorLayout::strided(first_row + (N - 1) * CELL, CELL, ROW, N),
        (Dir::East, false) => VectorLayout::strided(ROW + (N + 1) * CELL, CELL, ROW, N),
    }
}

fn opposite(d: Dir) -> Dir {
    match d {
        Dir::North => Dir::South,
        Dir::South => Dir::North,
        Dir::East => Dir::West,
        Dir::West => Dir::East,
    }
}

/// The idiomatic MPI halo pattern: post all receives, then all sends,
/// then wait — no ordering games, full overlap across the four faces.
fn exchange(comm: &Comm<'_>, grid: usize) {
    let me = comm.rank();
    let mut reqs = Vec::with_capacity(8);
    for (peer, dir) in neighbours(me) {
        // My `dir` halo is filled by the peer's opposite boundary, which
        // the peer tags with that opposite direction.
        let halo = boundary(dir, false);
        reqs.push(comm.irecvv(Some(peer), Some(opposite(dir) as i32), grid, &halo));
    }
    for (peer, dir) in neighbours(me) {
        reqs.push(comm.isendv(peer, dir as i32, grid, &boundary(dir, true)));
    }
    comm.waitall(&reqs);
}

fn run(lmt: LmtSelect) -> (f64, u64) {
    let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
    let os = Arc::new(Os::new(Arc::clone(&machine)));
    let mut cfg = NemesisConfig::with_lmt(lmt);
    cfg.eager_max = 1 << 10; // halo columns are large; exercise the LMT
    let nem = Nemesis::new(Arc::clone(&os), 4, cfg);
    let m2 = Arc::clone(&machine);
    let report = run_simulation(machine, &[0, 2, 4, 6], |p| {
        let comm = nem.attach(p);
        let grid_bytes = (N + 2) * ROW;
        let grid = comm.os().alloc_local(p, grid_bytes);
        comm.os().with_data_mut(p, grid, |d| d.fill(p.pid() as u8));
        comm.os().touch_write(p, grid, 0, grid_bytes);
        for _ in 0..ITERS {
            exchange(&comm, grid);
            // A compute phase touching the interior (keeps caches honest).
            comm.os().touch_read(p, grid, ROW, N * ROW);
        }
        comm.barrier();
    });
    (ps_to_ms(report.makespan), m2.snapshot().l2_misses())
}

fn main() {
    println!("Halo exchange, 4 ranks, {N}x{N} f64 quadrants, {ITERS} iterations\n");
    println!("| LMT | time (virtual ms) | L2 misses |");
    println!("|---|---|---|");
    for (label, lmt) in [
        ("default LMT", LmtSelect::ShmCopy),
        ("vmsplice LMT", LmtSelect::Vmsplice),
        ("KNEM LMT", LmtSelect::Knem(KnemSelect::SyncCpu)),
        (
            "KNEM LMT with I/OAT (auto)",
            LmtSelect::Knem(KnemSelect::Auto),
        ),
    ] {
        let (ms, misses) = run(lmt);
        println!("| {label} | {ms:.2} | {misses} |");
    }
    println!(
        "\nColumns are strided ({} blocks of {} B, stride {} B). At this \
         granularity — one f64 per row — the pack/unpack path wins: KNEM's \
         per-segment pinning and mapping outweighs the copies it saves. \
         `vectorial_buffers_win_coarse_blocks_pack_wins_fine` in \
         tests/paper_claims.rs holds both ends of the granularity sweep: \
         pack/unpack wins at 64 B blocks, the scatter path at 4 KiB, which \
         is why real codes exchange multi-variable or multi-layer halos \
         through KNEM but pack single-variable columns.",
        N, CELL, ROW
    );
}
