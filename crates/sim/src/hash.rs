//! Deterministic FxHash-style hashing for simulator-internal maps.
//!
//! `std::collections::HashMap` defaults to SipHash with a per-process
//! random seed. The simulator's hot maps (the translation mirror, mapped-region
//! tables, TLB indices) hash small fixed-width keys millions of times per
//! sweep, where SipHash costs real wall-clock and the randomized seed buys
//! nothing: the keys are simulator-internal, never attacker-controlled.
//! [`FxHasher`] implements the multiply-xor folding scheme popularised by
//! rustc's `FxHashMap` — a few cycles per word, and *deterministic across
//! processes*, which also keeps any accidental iteration-order dependence
//! reproducible instead of flaky.
//!
//! Use [`FxHashMap`] wherever a simulator component keys a map by packed
//! integers or small tuples; keep the std default for anything touching
//! external input.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The multiplicative constant from rustc's FxHash (a 64-bit truncation of
/// the golden ratio, the same constant Fibonacci hashing uses).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, deterministic, non-cryptographic hasher for fixed-width keys.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s; zero-sized, no random state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Folds one value into an order-sensitive 64-bit fingerprint — the
/// rotate–xor–multiply chain every determinism gate in the workspace uses
/// (the serving layer's schedule fingerprints, the tracked perf baseline,
/// the design-space sweep fingerprints). Order sensitivity is the point:
/// folding the same values in a different order produces a different
/// fingerprint, so a reordered schedule or sweep cannot masquerade as the
/// pinned one.
pub fn fold_fingerprint(h: u64, x: u64) -> u64 {
    (h.rotate_left(7) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let key = (42u64, 7u64, true);
        assert_eq!(hash_of(&key), hash_of(&key));
        // And a fixed anchor value, so cross-process determinism is pinned
        // by the test suite rather than assumed.
        assert_eq!(hash_of(&0u64), 0);
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        // Same prefix, different sub-word tails must differ.
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[0u8; 9][..]), hash_of(&[0u8; 10][..]));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<(u64, u64), u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i, i * 3), i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i, i * 3)), Some(&(i as u32)));
        }
        assert_eq!(m.get(&(5, 16)), None);
    }

    #[test]
    fn nearby_keys_spread() {
        // Multiply-fold must separate dense sequential keys well enough
        // that a 1k-key map has no pathological bucket: check distinctness
        // of the low bits used for bucketing.
        use std::collections::HashSet;
        let low: HashSet<u64> = (0..1024u64).map(|i| hash_of(&i) >> 52).collect();
        assert!(low.len() > 100, "top-bit spread too weak: {}", low.len());
    }
}
