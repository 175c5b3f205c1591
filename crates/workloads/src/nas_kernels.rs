//! Per-kernel bodies for the NAS proxies. See [`crate::nas`] for the
//! modelling rationale.

use nemesis_core::coll::ReduceOp;
use nemesis_core::datatype::{bytes_of, load_raw, store_raw};
use nemesis_core::Comm;
use nemesis_model::rng::StdRng;

use crate::nas::{NasClass, Scale};

/// Rank `me`'s `nk` IS keys, uniform in `[0, max_key)`.
fn is_keys(me: usize, nk: usize, max_key: u32) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0x15AD_5EED ^ me as u64);
    (0..nk).map(|_| rng.random_range(0..max_key)).collect()
}

/// IS: distributed bucket sort of `u32` keys (the real algorithm).
///
/// Per iteration: histogram pass over the local keys, partition into
/// per-destination runs, exchange counts (small alltoall), exchange keys
/// (large alltoallv — the traffic Table 1 reacts to), then sort the
/// received keys. Verified: every received key falls in this rank's
/// bucket range and the final sequence is sorted, which together imply
/// global sortedness.
pub fn is_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    let os = comm.os();
    let p = comm.proc();
    let n = comm.size();
    let me = comm.rank();
    let nk = sc.is_keys_per_rank;
    let max_key: u32 = 1 << 19;

    let keys_bytes = bytes_of::<u32>(nk);
    let keys_buf = os.alloc(me, keys_bytes);
    let send_buf = os.alloc(me, keys_bytes);
    let recv_cap_keys = nk * 2;
    let recv_buf = os.alloc(me, bytes_of::<u32>(recv_cap_keys));
    let cnt_s = os.alloc(me, 8 * n as u64);
    let cnt_r = os.alloc(me, 8 * n as u64);

    let keys = is_keys(me, nk, max_key);
    store_raw(os, p, keys_buf, 0, &keys);
    os.touch_write(p, keys_buf, 0, keys_bytes);

    let bucket_of = |k: u32| ((k as u64 * n as u64) / max_key as u64) as usize;
    let mut final_recv: Vec<u32> = Vec::new();

    for _ in 0..sc.is_iters {
        // Histogram pass (charged read of the key array).
        os.touch_read(p, keys_buf, 0, keys_bytes);
        let mut counts = vec![0u64; n];
        for &k in &keys {
            counts[bucket_of(k)] += 1;
        }
        // Partition into send order (read keys again, write send buffer).
        let mut soffs_k = vec![0usize; n];
        for d in 1..n {
            soffs_k[d] = soffs_k[d - 1] + counts[d - 1] as usize;
        }
        let mut cursor = soffs_k.clone();
        let mut send_keys = vec![0u32; nk];
        for &k in &keys {
            let d = bucket_of(k);
            send_keys[cursor[d]] = k;
            cursor[d] += 1;
        }
        os.touch_read(p, keys_buf, 0, keys_bytes);
        store_raw(os, p, send_buf, 0, &send_keys);
        os.touch_write(p, send_buf, 0, keys_bytes);
        // ALU cost of the two passes.
        p.compute(nk as u64 * 60);

        // Exchange counts (tiny eager alltoall), then keys (the large
        // alltoallv).
        store_raw(os, p, cnt_s, 0, &counts);
        os.touch_write(p, cnt_s, 0, 8 * n as u64);
        comm.alltoall(cnt_s, 0, 8, cnt_r, 0);
        let rcounts: Vec<u64> = load_raw(os, p, cnt_r, 0, n);
        os.touch_read(p, cnt_r, 0, 8 * n as u64);

        let slens: Vec<u64> = counts.iter().map(|c| c * 4).collect();
        let soffs: Vec<u64> = soffs_k.iter().map(|&o| o as u64 * 4).collect();
        let rlens: Vec<u64> = rcounts.iter().map(|c| c * 4).collect();
        let total_recv: u64 = rlens.iter().sum();
        assert!(
            total_recv <= bytes_of::<u32>(recv_cap_keys),
            "bucket skew overflowed the receive buffer"
        );
        let roffs: Vec<u64> = {
            let mut acc = 0;
            rlens
                .iter()
                .map(|l| {
                    let o = acc;
                    acc += l;
                    o
                })
                .collect()
        };
        comm.alltoallv(send_buf, &soffs, &slens, recv_buf, &roffs, &rlens);

        // Local sort of the received keys (real sort, charged passes).
        let nrecv = (total_recv / 4) as usize;
        let mut recvd: Vec<u32> = load_raw(os, p, recv_buf, 0, nrecv);
        os.touch_read(p, recv_buf, 0, total_recv);
        recvd.sort_unstable();
        store_raw(os, p, recv_buf, 0, &recvd);
        os.touch_write(p, recv_buf, 0, total_recv);
        // ALU cost of ranking + sort.
        p.compute(sc.is_flat);
        final_recv = recvd;
    }

    // Verification: range + sortedness, combined across ranks.
    let lo = (me as u64 * max_key as u64 / n as u64) as u32;
    let hi = ((me as u64 + 1) * max_key as u64 / n as u64) as u32;
    let mut ok = final_recv.windows(2).all(|w| w[0] <= w[1])
        && final_recv.iter().all(|&k| k >= lo && k < hi);
    // Also check total key conservation.
    let tot_s = os.alloc(me, 8);
    let tot_r = os.alloc(me, 8);
    store_raw(os, p, tot_s, 0, &[final_recv.len() as u64]);
    comm.allreduce_u64(tot_s, 0, tot_r, 0, 1, ReduceOp::Sum);
    let total: Vec<u64> = load_raw(os, p, tot_r, 0, 1);
    ok &= total[0] == (nk * n) as u64;
    let f_s = os.alloc(me, 8);
    let f_r = os.alloc(me, 8);
    store_raw(os, p, f_s, 0, &[ok as u64]);
    comm.allreduce_u64(f_s, 0, f_r, 0, 1, ReduceOp::Min);
    load_raw::<u64>(os, p, f_r, 0, 1)[0] == 1
}

/// FT: transpose-dominated spectral kernel. Real bytes flow through the
/// alltoall; block tags are verified once.
pub fn ft_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    let os = comm.os();
    let p = comm.proc();
    let n = comm.size();
    let me = comm.rank();
    let local = sc.ft_local;
    let block = local / n as u64;
    let a = os.alloc(me, local);
    let b = os.alloc(me, local);

    // Tag each block so the transpose can be verified.
    os.with_data_mut(p, a, |d| {
        for j in 0..n {
            let v = (me * n + j) as u8;
            d[j * block as usize..(j + 1) * block as usize].fill(v);
        }
    });
    os.touch_write(p, a, 0, local);
    comm.alltoall(a, 0, block, b, 0);
    let ok = os.with_data(p, b, |d| {
        (0..n).all(|i| {
            let v = (i * n + me) as u8;
            d[i * block as usize..(i + 1) * block as usize]
                .iter()
                .all(|&x| x == v)
        })
    });

    for _ in 0..sc.ft_iters {
        // Butterfly pass over A (read + write).
        os.touch_read(p, a, 0, local);
        os.touch_write(p, a, 0, local);
        p.compute(sc.ft_flat);
        comm.alltoall(a, 0, block, b, 0);
        // Butterfly pass over B, then transpose back.
        os.touch_read(p, b, 0, local);
        os.touch_write(p, b, 0, local);
        p.compute(sc.ft_flat);
        comm.alltoall(b, 0, block, a, 0);
    }
    ok
}

/// CG: sparse matrix-vector products with nearest-neighbour vector halos
/// and dot-product allreduces. Mostly eager-to-medium traffic.
pub fn cg_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    let os = comm.os();
    let p = comm.proc();
    let n = comm.size();
    let me = comm.rank();
    let mat = os.alloc(me, sc.cg_matrix);
    let vp = os.alloc(me, sc.cg_vector);
    let vq = os.alloc(me, sc.cg_vector);
    let halo = os.alloc(me, sc.cg_vector);
    let s1 = os.alloc(me, 8);
    let s2 = os.alloc(me, 8);
    os.touch_write(p, mat, 0, sc.cg_matrix);
    os.touch_write(p, vp, 0, sc.cg_vector);

    for it in 0..sc.cg_iters {
        // Matvec: stream the matrix, read p, write q.
        os.touch_read(p, mat, 0, sc.cg_matrix);
        os.touch_read(p, vp, 0, sc.cg_vector);
        os.touch_write(p, vq, 0, sc.cg_vector);
        p.compute(sc.cg_flat);
        // Vector halo exchange with ring neighbours.
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let tag = 100 + it as i32;
        comm.sendrecv(
            right,
            tag,
            vp,
            0,
            sc.cg_halo,
            Some(left),
            Some(tag),
            halo,
            0,
            sc.cg_halo,
        );
        // Two dot products.
        store_raw(os, p, s1, 0, &[1.0f64]);
        crate::nas::norm_sync(comm, s1, s2);
        crate::nas::norm_sync(comm, s1, s2);
    }
    // Sanity: allreduce of 1.0 over n ranks sums to n.
    let v: Vec<f64> = load_raw(os, p, s2, 0, 1);
    (v[0] - n as f64).abs() < 1e-9
}

/// EP: embarrassingly parallel — almost pure compute, one final reduction.
pub fn ep_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    let os = comm.os();
    let p = comm.proc();
    let me = comm.rank();
    let tally = os.alloc(me, 80);
    let out = os.alloc(me, 80);
    let scratch = os.alloc(me, 64 << 10);
    for _ in 0..sc.ep_steps {
        p.compute(sc.ep_step_ps);
        os.touch_read(p, scratch, 0, 64 << 10);
        os.touch_write(p, scratch, 0, 64 << 10);
    }
    store_raw(os, p, tally, 0, &[me as u64 + 1; 10]);
    comm.allreduce_u64(tally, 0, out, 0, 10, ReduceOp::Sum);
    let got: Vec<u64> = load_raw(os, p, out, 0, 10);
    let expect: u64 = (1..=comm.size() as u64).sum();
    got.iter().all(|&g| g == expect)
}

/// MG: multigrid V-cycles — geometrically shrinking working sets with
/// small halo exchanges at every level.
pub fn mg_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    let os = comm.os();
    let p = comm.proc();
    let n = comm.size();
    let me = comm.rank();
    const LEVELS: usize = 4;
    let arrays: Vec<_> = (0..LEVELS)
        .map(|l| os.alloc(me, (sc.mg_top >> l).max(4096)))
        .collect();
    let halo = os.alloc(me, sc.mg_top / 16);
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for _ in 0..sc.mg_cycles {
        // Down-sweep (restriction) then up-sweep (prolongation).
        for dir in 0..2 {
            for l in 0..LEVELS {
                let l = if dir == 0 { l } else { LEVELS - 1 - l };
                let size = (sc.mg_top >> l).max(4096);
                os.touch_read(p, arrays[l], 0, size);
                os.touch_write(p, arrays[l], 0, size);
                p.compute(size / 8);
                let msg = (size / 16).max(512);
                let tag = 200 + (dir * LEVELS + l) as i32;
                comm.sendrecv(
                    right,
                    tag,
                    arrays[l],
                    0,
                    msg,
                    Some(left),
                    Some(tag),
                    halo,
                    0,
                    msg,
                );
            }
        }
    }
    true
}

/// LU: pipelined wavefront sweeps with many small messages.
pub fn lu_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    let os = comm.os();
    let p = comm.proc();
    let n = comm.size();
    let me = comm.rank();
    let slice = os.alloc(me, sc.lu_slice);
    let edge_in = os.alloc(me, sc.lu_msg);
    let edge_out = os.alloc(me, sc.lu_msg);
    const STAGES: usize = 6;
    for sweep in 0..sc.lu_sweeps {
        // Forward wavefront: rank k waits for k-1's edge.
        for stg in 0..STAGES {
            let tag = 300 + (sweep as i32) * 16 + stg as i32;
            if me > 0 {
                comm.recv(Some(me - 1), Some(tag), edge_in, 0, sc.lu_msg);
            }
            os.touch_read(p, slice, 0, sc.lu_slice);
            os.touch_write(p, slice, 0, sc.lu_slice);
            p.compute(sc.lu_slice / 8);
            if me < n - 1 {
                comm.send(me + 1, tag, edge_out, 0, sc.lu_msg);
            }
        }
        // Backward wavefront.
        for stg in 0..STAGES {
            let tag = 400 + (sweep as i32) * 16 + stg as i32;
            if me < n - 1 {
                comm.recv(Some(me + 1), Some(tag), edge_in, 0, sc.lu_msg);
            }
            os.touch_read(p, slice, 0, sc.lu_slice);
            os.touch_write(p, slice, 0, sc.lu_slice);
            p.compute(sc.lu_slice / 8);
            if me > 0 {
                comm.send(me - 1, tag, edge_out, 0, sc.lu_msg);
            }
        }
    }
    true
}

/// BT: ADI-style face exchanges in three "directions" (XOR partners) with
/// a heavy compute phase — medium messages, compute-dominated.
pub fn bt_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    xor_adi_kernel(comm, sc.bt_face, sc.bt_work, sc.bt_iters, sc.bt_flat)
}

/// SP: like BT with smaller faces and lighter compute, 8 ranks.
pub fn sp_kernel(comm: &Comm<'_>, class: NasClass) -> bool {
    let sc = Scale::of(class);
    xor_adi_kernel(comm, sc.sp_face, sc.sp_work, sc.sp_iters, sc.sp_flat)
}

fn xor_adi_kernel(
    comm: &Comm<'_>,
    face: u64,
    work: u64,
    iters: u32,
    flat: nemesis_sim::Ps,
) -> bool {
    let os = comm.os();
    let p = comm.proc();
    let n = comm.size();
    let me = comm.rank();
    debug_assert!(n.is_power_of_two());
    let work_buf = os.alloc(me, work);
    let face_s = os.alloc(me, face);
    let face_r = os.alloc(me, face);
    os.touch_write(p, work_buf, 0, work);
    for it in 0..iters {
        let mut dir = 1;
        while dir < n {
            let partner = me ^ dir;
            let tag = 500 + it as i32 * 8 + dir as i32;
            comm.sendrecv(
                partner,
                tag,
                face_s,
                0,
                face,
                Some(partner),
                Some(tag),
                face_r,
                0,
                face,
            );
            // Per-direction solve over the working set.
            os.touch_read(p, work_buf, 0, work);
            os.touch_write(p, work_buf, 0, work);
            p.compute(flat / 3); // three directions per iteration
            dir <<= 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::NasClass;
    use nemesis_core::{LmtSelect, Nemesis, NemesisConfig};
    use nemesis_kernel::Os;
    use nemesis_sim::{run_simulation, Machine, MachineConfig};
    use std::sync::Arc;

    #[test]
    fn is_key_set_of_class_s_is_known() {
        // The eight ranks of the benchmark's IS universe at class S.
        let nk = crate::nas::Scale::of(NasClass::S).is_keys_per_rank;
        let keys = (0..8).flat_map(|me| is_keys(me, nk, 1 << 19));
        assert_eq!(nk, 8 << 10);
        assert_eq!(crate::fnv1a(keys.map(u64::from)), 0xff8a_dc67_0a64_4ad8);
    }

    fn run_kernel(n: usize, body: impl Fn(&Comm<'_>) -> bool + Send + Sync) -> bool {
        let machine = Arc::new(Machine::new(MachineConfig::xeon_e5345()));
        let os = Arc::new(Os::new(Arc::clone(&machine)));
        let nem = Nemesis::new(os, n, NemesisConfig::with_lmt(LmtSelect::ShmCopy));
        let ok = std::sync::atomic::AtomicBool::new(true);
        let placements: Vec<usize> = (0..n).collect();
        run_simulation(machine, &placements, |p| {
            let comm = nem.attach(p);
            if !body(&comm) {
                ok.store(false, std::sync::atomic::Ordering::Relaxed);
            }
        });
        ok.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn is_sorts_correctly() {
        assert!(run_kernel(8, |c| is_kernel(c, NasClass::S)));
    }

    #[test]
    fn ft_transpose_verified() {
        assert!(run_kernel(8, |c| ft_kernel(c, NasClass::S)));
    }

    #[test]
    fn cg_allreduce_checks_out() {
        assert!(run_kernel(8, |c| cg_kernel(c, NasClass::S)));
    }

    #[test]
    fn ep_reduction_correct() {
        assert!(run_kernel(4, |c| ep_kernel(c, NasClass::S)));
    }

    #[test]
    fn lu_pipeline_completes() {
        assert!(run_kernel(8, |c| lu_kernel(c, NasClass::S)));
    }

    #[test]
    fn bt_and_sp_complete() {
        assert!(run_kernel(4, |c| bt_kernel(c, NasClass::S)));
        assert!(run_kernel(8, |c| sp_kernel(c, NasClass::S)));
    }

    #[test]
    fn mg_cycles_complete() {
        assert!(run_kernel(8, |c| mg_kernel(c, NasClass::S)));
    }
}
