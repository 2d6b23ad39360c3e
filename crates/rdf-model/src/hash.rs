//! A small, fast, non-cryptographic hasher (the "Fx" hash used by rustc).
//!
//! Label interning and adjacency maps are on the hot path of both index
//! construction and query answering; SipHash's HashDoS protection is
//! unnecessary there (all inputs are locally generated), so we vendor the
//! tiny Fx algorithm instead of pulling in an extra dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc "Fx" hash: a word-at-a-time multiply/rotate mix.
///
/// Low quality as a general-purpose hash, but extremely fast for the short
/// integer and string keys used throughout this workspace.
///
/// Its `write`/`finish` output over a label's lexical bytes is also part
/// of the `SAMAIDX2` format: it places each constant in the image's
/// `constant-table` section, so an image written under one hash
/// silently misses constants under another. Changing it needs a format
/// version bump.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"sponsor"), hash_of(&"sponsor"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"aTo"), hash_of(&"subject"));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<&str, u32> = FxHashMap::default();
        map.insert("gender", 1);
        map.insert("sponsor", 2);
        assert_eq!(map.get("gender"), Some(&1));
        assert_eq!(map.get("sponsor"), Some(&2));
        assert_eq!(map.get("aTo"), None);
    }

    #[test]
    fn handles_all_write_widths() {
        // Strings of every residue class mod 8 exercise the 8/4/1-byte arms.
        for len in 0..17 {
            let s: String = "x".repeat(len);
            let _ = hash_of(&s);
        }
    }
}
