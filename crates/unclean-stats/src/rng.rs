//! Deterministic seeded RNG streams.
//!
//! Every experiment in this repository is driven from a single master seed.
//! [`SeedTree`] fans that seed out into independent named streams so that
//! adding a new consumer of randomness never perturbs the draws seen by
//! existing consumers — the classic "seed hygiene" problem in simulation
//! studies. Streams are ChaCha8: fast, splittable by construction, and with
//! a stable algorithm across library versions (unlike `StdRng`, whose
//! algorithm is explicitly allowed to change).

use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A hierarchical, deterministic seed derivation tree.
///
/// ```
/// use unclean_stats::SeedTree;
///
/// let root = SeedTree::new(42);
/// let mut a = root.stream("population");
/// let mut b = root.stream("compromise");
/// // Independent streams: same master seed, different labels.
/// use rand::RngCore;
/// assert_ne!(a.next_u64(), b.next_u64());
/// // Deterministic: rebuilding yields identical draws.
/// let mut a2 = SeedTree::new(42).stream("population");
/// assert_eq!(SeedTree::new(42).stream("population").next_u64(), a2.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    state: u64,
}

impl SeedTree {
    /// Root of the tree, from a user-facing master seed.
    pub fn new(master: u64) -> SeedTree {
        SeedTree {
            state: splitmix64(master ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Derive a labelled child tree. Labels are hashed with FNV-1a so the
    /// derivation is stable across platforms and compiler versions.
    pub fn child(&self, label: &str) -> SeedTree {
        SeedTree {
            state: splitmix64(self.state ^ fnv1a(label.as_bytes())),
        }
    }

    /// Derive an indexed child tree (for per-trial streams).
    pub fn child_idx(&self, index: u64) -> SeedTree {
        SeedTree {
            state: splitmix64(
                self.state
                    .wrapping_add(0x632b_e593_04b4_b0c7)
                    .wrapping_mul(index | 1)
                    ^ index,
            ),
        }
    }

    /// Materialize a labelled RNG stream.
    pub fn stream(&self, label: &str) -> ChaCha8Rng {
        self.child(label).rng()
    }

    /// Materialize an indexed RNG stream (e.g. one per ensemble trial).
    pub fn stream_idx(&self, index: u64) -> ChaCha8Rng {
        self.child_idx(index).rng()
    }

    /// Materialize this node as an RNG.
    pub fn rng(&self) -> ChaCha8Rng {
        let mut seed = [0u8; 32];
        let mut s = self.state;
        for chunk in seed.chunks_exact_mut(8) {
            s = splitmix64(s);
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        ChaCha8Rng::from_seed(seed)
    }

    /// The raw 64-bit state (useful for logging which seed produced a run).
    pub fn raw(&self) -> u64 {
        self.state
    }
}

/// SplitMix64 — the standard seed-expansion permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes — stable label hashing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Draw `k` distinct indices from `0..n` (uniform, without replacement),
/// returned in ascending order.
///
/// Uses Floyd's algorithm: O(k) expected insertions, no O(n) allocation, so
/// sampling 600k indices out of 47M is cheap. Panics if `k > n`.
pub fn sample_indices(rng: &mut impl RngCore, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from a population of {n}");
    let mut chosen = ChosenIndices::with_capacity(k);
    // Floyd's algorithm: for j in n-k..n, pick t in [0, j]; insert t or j.
    for j in (n - k)..n {
        let t = (rng.next_u64() % (j as u64 + 1)) as usize;
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut out = chosen.into_vec();
    out.sort_unstable();
    out
}

/// The insert-only set Floyd's algorithm tracks its picks in: open
/// addressing with linear probing over a power-of-two table kept at most
/// half full, indexed by a multiplicative (Fibonacci) hash of the index.
struct ChosenIndices {
    slots: Vec<usize>,
    shift: u32,
}

impl ChosenIndices {
    /// Marks an empty slot. Every index drawn is below `n ≤ usize::MAX`,
    /// so it never collides with a pick.
    const EMPTY: usize = usize::MAX;

    fn with_capacity(k: usize) -> ChosenIndices {
        let slots = (2 * k).max(2).next_power_of_two();
        ChosenIndices {
            slots: vec![Self::EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Insert `index`; false if it was already chosen.
    fn insert(&mut self, index: usize) -> bool {
        let mask = self.slots.len() - 1;
        let mut at = ((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            match self.slots[at] {
                Self::EMPTY => {
                    self.slots[at] = index;
                    return true;
                }
                held if held == index => return false,
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn into_vec(self) -> Vec<usize> {
        self.slots
            .into_iter()
            .filter(|&slot| slot != Self::EMPTY)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let t1 = SeedTree::new(7);
        let t2 = SeedTree::new(7);
        assert_eq!(t1.stream("x").next_u64(), t2.stream("x").next_u64());
        assert_eq!(t1.stream_idx(3).next_u64(), t2.stream_idx(3).next_u64());
    }

    #[test]
    fn streams_differ_by_label_and_index() {
        let t = SeedTree::new(7);
        assert_ne!(t.stream("x").next_u64(), t.stream("y").next_u64());
        assert_ne!(t.stream_idx(0).next_u64(), t.stream_idx(1).next_u64());
        assert_ne!(
            SeedTree::new(7).rng().next_u64(),
            SeedTree::new(8).rng().next_u64()
        );
    }

    #[test]
    fn children_nest() {
        let t = SeedTree::new(1);
        let a = t.child("a").child("b");
        let b = t.child("a").child("b");
        assert_eq!(a.raw(), b.raw());
        assert_ne!(a.raw(), t.child("b").child("a").raw());
    }

    #[test]
    fn sample_indices_basic_properties() {
        let mut rng = SeedTree::new(3).stream("s");
        let s = sample_indices(&mut rng, 1000, 100);
        assert_eq!(s.len(), 100);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(s.iter().all(|&i| i < 1000));
    }

    #[test]
    fn sample_indices_full_population() {
        let mut rng = SeedTree::new(3).stream("s");
        let s = sample_indices(&mut rng, 50, 50);
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_empty() {
        let mut rng = SeedTree::new(3).stream("s");
        assert!(sample_indices(&mut rng, 10, 0).is_empty());
        assert!(sample_indices(&mut rng, 0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        let mut rng = SeedTree::new(3).stream("s");
        let _ = sample_indices(&mut rng, 5, 6);
    }

    #[test]
    fn sample_indices_never_allocates_the_population() {
        // Floyd's algorithm touches O(k) memory. Draw a tiny sample from a
        // population so large (2^50) that any O(n) scratch — a shuffle
        // buffer, a bitmap, even one bit per element — would exhaust
        // memory; completing at all proves the scratch scales with k.
        let mut rng = SeedTree::new(5).stream("huge");
        let n = 1usize << 50;
        let s = sample_indices(&mut rng, n, 64);
        assert_eq!(s.len(), 64);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(s.iter().all(|&i| i < n));
    }

    #[test]
    fn sample_indices_output_is_pinned() {
        // Golden draw at the size of a canonical control sample (8,099 of
        // 615,775): the chosen set must not depend on how the draw
        // tracks what it has already chosen.
        let mut rng = SeedTree::new(3).stream("s");
        let s = sample_indices(&mut rng, 615_775, 8_099);
        let fnv = s.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &i| {
            (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(s.len(), 8_099);
        assert_eq!(
            (&s[..3], fnv),
            (&[31usize, 42, 44][..], 0x254a_1508_9f26_2329)
        );
    }

    #[test]
    fn sample_indices_is_roughly_uniform() {
        // Chi-square-ish sanity: each decile of [0, 1000) should receive
        // roughly k/10 picks over many trials.
        let t = SeedTree::new(11);
        let mut counts = [0usize; 10];
        for trial in 0..200 {
            let mut rng = t.stream_idx(trial);
            for i in sample_indices(&mut rng, 1000, 50) {
                counts[i / 100] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 200 * 50);
        for &c in &counts {
            let expected = total as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "decile count {c} too far from {expected}"
            );
        }
    }
}
