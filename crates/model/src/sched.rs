//! Collective schedules: who talks to whom in which round, once for
//! both stacks.
//!
//! Every collective arm is built from four shapes, and both executors
//! (`nemesis_core::coll` in virtual time, `nemesis_rt::coll` on real
//! threads) take every peer, round and block index from here:
//!
//! * [`binomial`] — the tree of binomial bcast/reduce;
//! * [`chain`] — the line of chain bcast and scan;
//! * [`shift`] — one round of "send to `gr + d`, receive from `gr − d`":
//!   the ring (`d = 1`), pairwise and scattered alltoall (`d = 1..n`),
//!   dissemination barrier and Bruck allgather (`d` from [`doubling`]);
//! * [`tag`] — the reserved tag space those rounds run in.
//!
//! Each is a pure function of the group size, the caller's group rank
//! and the operation's parameters, so every member derives the same
//! schedule without a message. Trees and chains return world ranks
//! (through the [`Group`]); shifts return group ranks, because they are
//! block indices as well as peers.

use crate::Group;

/// Base of the collective tag space (applications use small
/// non-negative tags).
const COLL_TAG: i32 = 0x4000_0000;

/// The tag of one collective phase: base + 6-bit group id + 14-bit
/// per-group sequence + 8-bit phase code. Stays below `i32::MAX`
/// (`0x4000_0000 + 0xFC0_0000 + 0x3F_FF00 + 0xFF`).
pub fn tag(g: &Group, seq: i32, phase: i32) -> i32 {
    COLL_TAG + ((g.id() & 0x3F) << 22) + ((seq & 0x3FFF) << 8) + phase
}

/// One member's place in a binomial tree, as world ranks.
#[derive(Debug)]
pub struct Tree {
    /// `None` at the root.
    pub parent: Option<usize>,
    /// In ascending-mask order: a reduce receives in this order, a
    /// bcast sends in reverse (largest subtree first).
    pub children: Vec<usize>,
}

/// Group rank `gr`'s place in the binomial tree rooted at group rank
/// `root`. In virtual ranks (`root` = 0) a member's parent clears its
/// lowest set bit, and its children add each lower power of two that
/// stays inside the group.
pub fn binomial(g: &Group, gr: usize, root: usize) -> Tree {
    let n = g.size();
    let v = (gr + n - root) % n;
    let world = |u: usize| g.world_rank((u + root) % n);
    Tree {
        parent: (v > 0).then(|| world(v & (v - 1))),
        children: doubling(n)
            .take_while(|&m| v.is_multiple_of(2 * m) && v + m < n)
            .map(|m| world(v + m))
            .collect(),
    }
}

/// Group rank `gr`'s `(pred, succ)` world ranks on the line
/// `root → root+1 → …` (mod `|g|`); `None` past either end.
pub fn chain(g: &Group, gr: usize, root: usize) -> (Option<usize>, Option<usize>) {
    let n = g.size();
    let pos = (gr + n - root) % n;
    let s = shift(n, gr, 1);
    (
        (pos > 0).then(|| g.world_rank(s.src)),
        (pos + 1 < n).then(|| g.world_rank(s.dst)),
    )
}

/// One member's part in a shift round, as group ranks.
#[derive(Debug, Clone, Copy)]
pub struct Shift {
    pub dst: usize,
    pub src: usize,
    /// Whether a blocking executor sends before it receives: yes
    /// unless the destination wraps past the end of the group. Every
    /// cycle of the round then holds members of both kinds, so blocking
    /// rendezvous sends cannot close a cycle.
    pub send_first: bool,
}

/// Round `d` (`0..=n`) of a shift over `n` members: member `gr` sends
/// to `gr + d` and receives from `gr − d` (mod `n`).
pub fn shift(n: usize, gr: usize, d: usize) -> Shift {
    Shift {
        dst: (gr + d) % n,
        src: (gr + n - d) % n,
        send_first: gr + d < n,
    }
}

/// The distances 1, 2, 4, … below `n`: the dissemination barrier's
/// rounds, and Bruck's — round `have` is `shift(n, gr, n − have)`
/// moving `min(have, n − have)` blocks.
pub fn doubling(n: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |&d| d.checked_mul(2)).take_while(move |&d| d < n)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_N: usize = 64;

    #[test]
    fn every_binomial_tree_spans_the_group_once_and_parents_agree() {
        for n in 1..=MAX_N {
            let g = Group::universe(n);
            for root in 0..n {
                let trees: Vec<Tree> = (0..n).map(|gr| binomial(&g, gr, root)).collect();
                let mut seen = vec![0usize; n];
                for (p, t) in trees.iter().enumerate() {
                    assert_eq!(t.parent.is_none(), p == root, "n={n} root={root} gr={p}");
                    let mut last = 0;
                    for &c in &t.children {
                        seen[c] += 1;
                        assert_eq!(trees[c].parent, Some(p), "n={n} root={root} {p}->{c}");
                        // Ascending mask: each child sits further away.
                        let dist = (c + n - p) % n;
                        assert!(
                            dist > last,
                            "n={n} root={root} children of {p} out of order"
                        );
                        last = dist;
                    }
                }
                for (gr, &k) in seen.iter().enumerate() {
                    assert_eq!(k, usize::from(gr != root), "n={n} root={root} member {gr}");
                }
            }
        }
    }

    #[test]
    fn trees_and_chains_translate_through_the_group() {
        let g = Group::new(&[7, 3, 9, 1, 4]);
        let t = binomial(&g, 3, 2); // virtual rank 1: parent is the root
        assert_eq!(t.parent, Some(9));
        assert!(t.children.is_empty());
        assert_eq!(binomial(&g, 2, 2).children, vec![1, 4, 3]);
        assert_eq!(chain(&g, 2, 2), (None, Some(1)));
        assert_eq!(chain(&g, 0, 2), (Some(4), Some(3)));
        assert_eq!(chain(&g, 1, 2), (Some(7), None));
    }

    #[test]
    fn every_shift_round_is_a_permutation_whose_cycles_hold_both_orders() {
        for n in 1..=MAX_N {
            for d in 1..n {
                let round: Vec<Shift> = (0..n).map(|gr| shift(n, gr, d)).collect();
                let mut on_cycle = vec![false; n];
                for start in 0..n {
                    assert_eq!(round[round[start].dst].src, start, "n={n} d={d}");
                    if on_cycle[start] {
                        continue;
                    }
                    let (mut sends, mut recvs, mut x) = (0, 0, start);
                    loop {
                        on_cycle[x] = true;
                        if round[x].send_first {
                            sends += 1;
                        } else {
                            recvs += 1;
                        }
                        x = round[x].dst;
                        if x == start {
                            break;
                        }
                    }
                    assert!(sends > 0 && recvs > 0, "n={n} d={d} cycle from {start}");
                }
            }
        }
    }

    #[test]
    fn ring_delivers_every_block_to_every_member_exactly_once() {
        for n in 1..=MAX_N {
            let mut got = vec![vec![0usize; n]; n];
            for step in 0..n.saturating_sub(1) {
                for gr in 0..n {
                    // Member gr forwards the block it received last round.
                    let sent = shift(n, gr, step).src;
                    let dst = shift(n, gr, 1).dst;
                    assert_eq!(shift(n, dst, step + 1).src, sent, "n={n} step={step}");
                    got[dst][sent] += 1;
                }
            }
            for (gr, blocks) in got.iter().enumerate() {
                for (b, &k) in blocks.iter().enumerate() {
                    assert_eq!(k, usize::from(b != gr), "n={n} member {gr} block {b}");
                }
            }
        }
    }

    #[test]
    fn bruck_delivers_every_block_to_every_member_exactly_once() {
        for n in 1..=MAX_N {
            // Staging: member gr holds blocks gr, gr+1, … in order.
            let mut staging: Vec<Vec<usize>> = (0..n).map(|gr| vec![gr]).collect();
            for have in doubling(n) {
                let cnt = have.min(n - have);
                let sent: Vec<Vec<usize>> = (0..n).map(|gr| staging[gr][..cnt].to_vec()).collect();
                for (gr, out) in sent.into_iter().enumerate() {
                    let s = shift(n, gr, n - have);
                    assert_eq!(shift(n, s.dst, n - have).src, gr);
                    assert_eq!(staging[s.dst].len(), have, "n={n} have={have}");
                    staging[s.dst].extend(out);
                }
            }
            for (gr, held) in staging.iter().enumerate() {
                assert_eq!(held.len(), n, "n={n} member {gr}");
                let mut placed = vec![usize::MAX; n];
                for (i, &b) in held.iter().enumerate() {
                    placed[shift(n, gr, i).dst] = b;
                }
                assert_eq!(placed, (0..n).collect::<Vec<_>>(), "n={n} member {gr}");
            }
        }
    }

    #[test]
    fn tags_fit_and_keep_phases_sequences_and_groups_apart() {
        let u = Group::universe(4);
        let g = Group::new(&[3, 1, 0]);
        assert_eq!(tag(&u, 0, 0), COLL_TAG);
        assert!(tag(&g, 0x3FFF, 0xFF) > COLL_TAG);
        assert_ne!(tag(&u, 1, 0), tag(&u, 0, 1));
        assert_ne!(tag(&u, 5, 2), tag(&g, 5, 2));
        assert_eq!(
            tag(&u, 0x4000, 3),
            tag(&u, 0, 3),
            "sequence wraps at 14 bits"
        );
    }
}
