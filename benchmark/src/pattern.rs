//! Seeded inputs. The seed drives arrival streams, payload patterns and
//! slot order; the program under test only ever sees what is generated
//! here, never the seed.

/// SplitMix64 — tiny, seedable, and good enough for payloads and
/// permutations.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for one named stream of this seed, so that adding a
    /// consumer never shifts what another one draws.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Fill `buf` with the pattern of `(seed, salt)`.
pub fn fill(buf: &mut [u8], seed: u64, salt: u64) {
    let mut rng = Rng::stream(seed, salt);
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let word = rng.next_u64().to_le_bytes();
    let rest = chunks.into_remainder();
    let n = rest.len();
    rest.copy_from_slice(&word[..n]);
}

/// Whether `buf` holds exactly the pattern of `(seed, salt)`.
pub fn matches(buf: &[u8], seed: u64, salt: u64) -> bool {
    let mut rng = Rng::stream(seed, salt);
    let mut chunks = buf.chunks_exact(8);
    for c in &mut chunks {
        if c != rng.next_u64().to_le_bytes() {
            return false;
        }
    }
    let word = rng.next_u64().to_le_bytes();
    let rest = chunks.remainder();
    rest == &word[..rest.len()]
}

/// Write `word` over the first and the last 8 bytes of a message: the
/// sequence stamp every benchmark message carries (`buf.len() >= 16`).
pub fn stamp(buf: &mut [u8], word: u64) {
    let n = buf.len();
    buf[..8].copy_from_slice(&word.to_le_bytes());
    buf[n - 8..].copy_from_slice(&word.to_le_bytes());
}

/// The head and tail stamps of a message.
pub fn stamps(buf: &[u8]) -> (u64, u64) {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    (word(&buf[..8]), word(&buf[buf.len() - 8..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
        fill(&mut a, 7, 1);
        fill(&mut b, 7, 1);
        assert_eq!(a, b);
        assert!(matches(&a, 7, 1));
        assert!(!matches(&a, 8, 1));
        assert!(!matches(&a, 7, 2));
        a[99] ^= 1;
        assert!(!matches(&a, 7, 1));
    }

    #[test]
    fn stamps_sit_at_both_ends() {
        let mut m = [0u8; 24];
        stamp(&mut m, 0xfeed);
        assert_eq!(stamps(&m), (0xfeed, 0xfeed));
        assert_eq!(m[8..16], [0u8; 8]);
        m[23] ^= 1;
        assert_ne!(stamps(&m).1, 0xfeed);
    }

    #[test]
    fn permutation_is_one() {
        let mut p = Rng::new(3).permutation(257);
        assert_ne!(p, (0..257).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..257).collect::<Vec<_>>());
    }
}
