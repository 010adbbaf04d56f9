//! A fast, non-cryptographic hasher for dictionary-encoded workloads.
//!
//! Virtually every map and set in this workspace is keyed by a [`crate::TermId`]
//! (a `u32`) or a small tuple of them. The standard library's SipHash is
//! collision-resistant but needlessly slow for such keys. This module provides
//! the same multiply–xor construction popularized by the Rust compiler's
//! `FxHasher`: one wrapping multiply and a rotate per word of input.
//!
//! HashDoS resistance is irrelevant here: keys are internally generated
//! integer ids, not attacker-controlled strings (string interning hashes the
//! string bytes through the same function, but the dictionary is only ever
//! filled from datasets the user chose to load).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx construction (64-bit golden-ratio-ish).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply–xor hasher; drop-in replacement for the default hasher.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The last multiply leaves the low bits, which pick the hash-table
        // bucket, depending on the low bits of the last word only; rotate
        // the well-mixed high bits down.
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // Mix in the length so "a" and "a\0" differ.
            self.add_to_hash(u64::from_le_bytes(word) ^ (tail.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        let a = hash_of(&1u32);
        let b = hash_of(&2u32);
        assert_ne!(a, b);
    }

    #[test]
    fn distinguishes_prefix_strings() {
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
        assert_ne!(hash_of(&"abc"), hash_of(&"abcd"));
    }

    #[test]
    fn empty_input_is_stable() {
        let mut h = FxHasher::default();
        h.write(&[]);
        assert_eq!(h.finish(), FxHasher::default().finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
    }

    #[test]
    fn late_bytes_spread_across_low_bits() {
        // String keys (what the dictionary hashes) that differ only in a
        // late byte, mid-way through their last 8-byte word, must land in
        // distinct low-bit buckets: 128 keys in 4096 buckets collide ~2
        // times. Without the final rotation the low bits see only the
        // first two bytes of each word, and these keys fill 32 buckets.
        let buckets: FxHashSet<u64> = (0..128u8)
            .map(|b| {
                let mut key = *b"http://x/item-00";
                key[11] = b;
                hash_of(&std::str::from_utf8(&key).unwrap()) & 0xfff
            })
            .collect();
        assert!(buckets.len() > 120, "only {} buckets", buckets.len());
    }

    #[test]
    fn tuple_keys_spread() {
        // Sanity check: (a, b) pairs do not collide pathologically.
        let mut seen = FxHashSet::default();
        for a in 0..100u32 {
            for b in 0..100u32 {
                seen.insert(hash_of(&(a, b)));
            }
        }
        // Allow a handful of collisions out of 10_000.
        assert!(seen.len() > 9_990, "too many collisions: {}", seen.len());
    }
}
