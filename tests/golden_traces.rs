//! Golden decision traces of the clock-free tuner models.
//!
//! The simulator's virtual time is a function of every decision the
//! learned models take, so a refactor of those models must reproduce
//! their decision sequences exactly. The literals below were recorded
//! at the commit *before* the models moved into `nemesis-model`
//! (PR 21) by printing each `*_trace()` below, under a fixed synthetic
//! reward script, and are asserted against whatever implements the
//! public entry points today.

use nemesis::core::lmt::tuner::selector::{arm_of, CollKind, NARMS};
use nemesis::core::lmt::tuner::{TransferClass, TransferSample, Tuner};
use nemesis::core::{KnemSelect, LmtSelect};
use nemesis::model::{log2_class, Bandit};
use nemesis::rt::tuner::{RtPairSelector, RT_SELECTOR_ARMS};
use nemesis::sim::topology::Placement;

/// The reward script: the elapsed ticks `arm` needs for `bytes` at
/// `step`. Per-arm base costs with a deterministic wobble, and a regime
/// change at step 300 (the early winner turns slow, a late arm turns
/// fast) so the steady-state probes have something to find.
fn elapsed(step: usize, arm: usize, bytes: u64) -> u64 {
    const EARLY: [u64; 8] = [9, 7, 8, 4, 6, 5, 7, 8];
    const LATE: [u64; 8] = [9, 3, 8, 10, 6, 5, 7, 8];
    let per_kib = if step < 300 { EARLY[arm] } else { LATE[arm] };
    // LCG wobble in [0, 16) per mille of the base cost.
    let w = (step as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        >> 60;
    let base = (bytes >> 10) * per_kib * 1000;
    base + base * w / 1000
}

fn len_at(step: usize) -> u64 {
    if step.is_multiple_of(3) {
        256 << 10
    } else {
        1 << 20
    }
}

fn digits(arms: &[usize]) -> String {
    arms.iter()
        .map(|&a| char::from_digit(a as u32, 10).expect("single-digit arm"))
        .collect()
}

/// (i) core `Tuner::select_backend` / `observe_arm`, vmsplice and the
/// 4-rail stripe ineligible, the KNEM arm demoted at step 200, and the
/// pair migrating (a placement-change decay) at step 420.
fn core_selector_trace() -> String {
    let t = Tuner::new(2, 64 << 10);
    let mut mask = [true; NARMS];
    mask[2] = false;
    mask[7] = false;
    let mut arms = Vec::new();
    for step in 0..600 {
        if step == 200 {
            assert!(t.demote_arm(0, 1, LmtSelect::Knem(KnemSelect::Auto)));
        }
        if step == 419 || step == 420 {
            let placement = if step == 419 {
                Placement::SharedL2
            } else {
                Placement::DifferentSocket
            };
            t.record(
                0,
                1,
                &TransferSample {
                    backend: "golden",
                    class: TransferClass::Copy,
                    placement,
                    bytes: 1 << 20,
                    elapsed_ps: 1 << 20,
                    concurrency: 1,
                    rail: None,
                },
            );
        }
        let len = len_at(step);
        let arm = arm_of(t.select_backend(0, 1, len, &mask)).expect("an arm");
        t.observe_arm(0, 1, arm, len, elapsed(step, arm, len));
        arms.push(arm);
    }
    digits(&arms)
}

const CORE_SELECTOR: &str = concat!(
    "00001113314435536643343353353363363333333331133333333333333333333333333333333333",
    "33331331333333333333333333333333333333333333333333333333333333333333333333333333",
    "33333333333333333333333333344333333333335555555555555555555555555555555555555555",
    "55555555555555555555555555555555555555555555555555555555555555555555555555555555",
    "55555555555555555555555555555555555555555555555555555555555665555555555555555555",
    "55555555555555555555000011144155466411511511611611111111333366111111111111111111",
    "11111111111111111151151111110011111111111111111111111111111111111111111111111111",
    "1111111111111111111111111111111111611611",
);

#[test]
fn core_selector_decisions_match_the_recorded_trace() {
    assert_eq!(core_selector_trace(), CORE_SELECTOR);
}

/// (ii) rt `RtPairSelector` over its seven arms.
fn rt_selector_trace() -> String {
    let s = RtPairSelector::default();
    let mut arms = Vec::new();
    for step in 0..600 {
        let len = len_at(step);
        let arm = s.pick(len as usize);
        assert!(arm < RT_SELECTOR_ARMS);
        s.observe(arm, len as usize, elapsed(step, arm, len));
        arms.push(arm);
    }
    digits(&arms)
}

const RT_SELECTOR: &str = concat!(
    "00001112213324425536633343343353353363363333331133333333333333333333333333333333",
    "33333333331331223333333333333333333333333333333333333333333333333333333333333333",
    "33333333333333333333333333233233333333333333333333333333333333333333333333333333",
    "33333333333333333333333333333333333333333333333333333333333333335555555555555555",
    "55555555555555555555555555555555555555555555555555555555553553445555555555555555",
    "55555555555555555555555555555555555555555555555555555555555555555555555555555555",
    "55555555555555555555555555555555555555555555555555555555555555555555555555555555",
    "5555555555555555555555555555555555555555",
);

#[test]
fn rt_selector_decisions_match_the_recorded_trace() {
    assert_eq!(rt_selector_trace(), RT_SELECTOR);
}

/// (iii) core `select_coll_alg` with two groups of the same shape
/// interleaving their operations: each operation is selected by three
/// members (one real decision, two memo hits), the members of the two
/// groups alternating, and credited once.
fn coll_trace() -> String {
    let t = Tuner::new(8, 64 << 10);
    let mut arms = Vec::new();
    for step in 0..200 {
        let seq = step as i32;
        let bytes = if step % 4 == 3 { 4 << 10 } else { 1 << 20 };
        let kind = if step % 5 == 4 {
            CollKind::Allgather
        } else {
            CollKind::Alltoall
        };
        let mut first = [usize::MAX; 2];
        for member in 0..3 {
            for (slot, gid) in [5, 9].into_iter().enumerate() {
                let arm = t.select_coll_alg(kind, 3, bytes, gid, seq);
                if member == 0 {
                    first[slot] = arm;
                    arms.push(arm);
                } else {
                    assert_eq!(arm, first[slot], "memo must pin the arm");
                }
            }
        }
        for (slot, _) in [5, 9].into_iter().enumerate() {
            let arm = first[slot];
            // Arm 1 is faster for large blocks, arm 0 for small ones;
            // the regime flips at step 120.
            let fast = usize::from((bytes > 64 << 10) == (step < 120));
            let cost = elapsed(step, if arm == fast { 3 } else { 0 }, bytes);
            t.record_coll(kind, 3, bytes, arm, 3 * bytes, cost);
        }
    }
    arms.push(t.select_coll_alg(CollKind::Bcast, 9, 1, 0, 0));
    digits(&arms)
}

const COLL: &str = concat!(
    "00111100001111111111110011111100111111001111110011111100111111001111110011111111",
    "11110000111111001111111111111100111111001111110011111100111111001111110011111100",
    "11111100111111001111110011111100111111001111110011111100111111001111110011111100",
    "11111100111111001111110011111100111111001111110011111100111111001111110011111100",
    "11111100111111001111110011110000111111001111110000111100110011001111000011111100",
    "0",
);

#[test]
fn coll_alg_decisions_match_the_recorded_trace() {
    assert_eq!(coll_trace(), COLL);
}

/// (iv) the chunk model's published sweet spot after each of 200
/// observations, as `log2(target)` letters (`a` = 512 B, `.` = none).
fn chunk_trace() -> String {
    let t = Tuner::new(2, 64 << 10);
    let mut out = String::new();
    for step in 0..200 {
        let exp = 11 + (step * 7 % 9) as u32;
        let bytes = (1u64 << exp) + (step as u64 * 37) % 500;
        // 32 KiB chunks are fastest early, 128 KiB late.
        let sweet = if step < 90 { 15 } else { 17 };
        let ticks_per_kib = if exp == sweet {
            4
        } else {
            6 + u64::from(exp % 3)
        };
        let wobble = (step as u64 * 2654435761) % 50;
        t.record_chunk(0, 1, bytes, (bytes >> 10) * (ticks_per_kib * 1000 + wobble));
        out.push(match t.chunk_target(0, 1, 0) {
            0 => '.',
            c => (b'a' + (c.ilog2() - 9) as u8) as char,
        });
    }
    out
}

const CHUNK: &str = concat!(
    "..................cjjjdddggggggggggggggggggggggggggggggggggggggggggggggggggggggg",
    "ggggggggggggggggggggggggggggggggggggggggggggiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiii",
    "iiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiii",
);

#[test]
fn chunk_sweet_spot_matches_the_recorded_trace() {
    assert_eq!(chunk_trace(), CHUNK);
}

/// Cross-stack: with every arm eligible and the same reward script,
/// the core selector and a bare `Bandit<8>` held the way the rt
/// selector holds its own (one per size class from 2^14, every arm
/// open) take the same decisions — the two stacks execute one model.
#[test]
fn core_selector_and_the_rt_wrapper_shape_take_the_same_decisions() {
    let t = Tuner::new(2, 64 << 10);
    let mut rt_shape = [Bandit::<NARMS>::default(); 8];
    for step in 0..600 {
        let len = len_at(step);
        let class = &mut rt_shape[log2_class(len, 14, 8)];
        let arm = arm_of(t.select_backend(0, 1, len, &[true; NARMS])).expect("an arm");
        assert_eq!(class.pick(&[true; NARMS]), arm, "diverged at step {step}");
        let ticks = elapsed(step, arm, len);
        t.observe_arm(0, 1, arm, len, ticks);
        class.observe(arm, len, ticks);
    }
}
