//! The hasher behind the scan and spam detectors' per-source maps.
//!
//! Both detectors look a source address up once per flow, and with std's
//! SipHash that lookup costs more than the rest of the detector's work.
//! [`KeyedState`] hashes a key with one folded 64×64→128-bit multiply
//! instead. Its two keys are drawn once per process from std's
//! `RandomState`: `unclean ingest` runs these detectors over flows from
//! outside senders, and a fixed key would let chosen source addresses
//! collide. Iteration order therefore differs between processes, but no
//! detector exposes it: `detected()` returns a sorted `IpSet`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A `HashMap` under the per-process keyed hasher.
pub(crate) type KeyedMap<K, V> = HashMap<K, V, KeyedState>;

/// A `HashSet` under the per-process keyed hasher.
pub(crate) type KeyedSet<K> = HashSet<K, KeyedState>;

/// Builds [`FoldHasher`]s from the process's key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyedState {
    seed: u64,
    multiplier: u64,
}

impl Default for KeyedState {
    fn default() -> KeyedState {
        static KEY: OnceLock<KeyedState> = OnceLock::new();
        *KEY.get_or_init(|| {
            let random = RandomState::new();
            KeyedState {
                seed: random.hash_one(0u64),
                // Odd, so the multiply loses no input bit.
                multiplier: random.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for KeyedState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            multiplier: self.multiplier,
            hash: self.seed,
        }
    }
}

/// Folds each written word into the state with one keyed multiply.
pub(crate) struct FoldHasher {
    multiplier: u64,
    hash: u64,
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // The product's high half carries every input bit; folding it onto
        // the low half gives the table's index bits that mixing too.
        let full = u128::from(self.hash ^ n) * u128::from(self.multiplier);
        self.hash = (full as u64) ^ ((full >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_key_per_process() {
        let (a, b) = (KeyedState::default(), KeyedState::default());
        assert_eq!(a.hash_one(0x0901_0203u32), b.hash_one(0x0901_0203u32));
        assert_ne!(a.hash_one(1u32), a.hash_one(2u32));
    }

    #[test]
    fn consecutive_addresses_spread_over_buckets() {
        // One /16 of consecutive sources must fill a 4096-bucket table's
        // index bits about evenly (no bucket above 4× its mean load).
        let state = KeyedState::default();
        let mut load = vec![0u32; 4096];
        for a in 0x0901_0000u32..0x0902_0000 {
            load[(state.hash_one(a) & 4095) as usize] += 1;
        }
        let mean = 65_536 / 4096;
        assert!(
            load.iter().all(|&l| l <= 4 * mean),
            "max {:?}",
            load.iter().max()
        );
    }
}
