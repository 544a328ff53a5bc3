//! A vendored FxHash-style hasher for integer-keyed hot paths.
//!
//! Every map in the simulator keys on trusted integers (disk page
//! numbers, LBAs, block ids), so SipHash's HashDoS resistance buys
//! nothing while costing ~3-4x per lookup. This is the rustc-hash
//! multiply-rotate construction: deterministic across runs and
//! platforms of equal pointer width, one multiply per word. Vendored
//! rather than depended on — the workspace builds offline.
//!
//! The module lives in `nand-flash` (the lowest crate with a hashed hot
//! path: the verified-flash spare store) and is re-exported by
//! `flashcache-core::fxhash` for the cache-layer tables.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic multiply-rotate hasher (FxHash construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth-style odd multiplicative constant (2^64 / golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one(v: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42), hash_one(42));
        assert_ne!(hash_one(42), hash_one(43));
    }

    #[test]
    fn byte_writes_match_chunking() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_works_as_drop_in() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i as u32 * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
    }
}
