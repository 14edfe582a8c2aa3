//! A fast deterministic hasher for the simulator's integer-keyed maps.
//!
//! The incremental engines, the streaming feed, and the locality model key
//! their state by task index or dependence address. Task indices are dense
//! small integers, but dependence addresses are the bases of blocked
//! regions, so their low `log2(block_bytes)` bits are all equal — the very
//! pattern the paper's Section III-B1 warns a naive DAT index would collide
//! on. `std`'s default SipHash is DoS-resistant but measurably slow on these
//! hot paths (the dependence-matching maps are touched a few times per
//! simulated task); this Fibonacci-multiply hasher is the classic
//! FxHash-style alternative, inlined here because the workspace builds
//! offline.
//!
//! `finish` must mix the high bits of the product down. The map takes the
//! bucket index from the hash's *low* bits (and a 7-bit tag from its top
//! bits), and the low bits of `v·K` depend only on the low bits of `v`: a
//! bare product would put 1024 keys at a 4 KiB stride into one bucket of
//! 1024, and every lookup would walk the probe sequence. Rotating the
//! well-mixed high half into the low bits (as rustc-hash 2.x does) spreads
//! them; `tests::aligned_keys_spread_over_buckets` pins this.
//!
//! Determinism note: no simulator behaviour may depend on map iteration
//! order regardless of hasher (see `ARCHITECTURE.md`), so the hasher choice
//! is a pure-performance decision. The `tdm-lint` D1 lint rejects
//! default-hasher maps in deterministic code; `FastMap` is the sanctioned
//! replacement, so this definition site carries the one legitimate allow.

// tdm-lint: allow(D1): this is FastMap's definition site — the alias below pins the hasher.
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fast integer hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Multiplicative hasher: one wrapping multiply by the 64-bit golden-ratio
/// constant per written word, and a rotate on `finish` so the bucket bits
/// see every key bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // Bring the well-mixed high bits into the bucket index (module doc).
        self.state.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not hit by the integer keys we use): fold in 8-byte
        // chunks.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.state = (self.state.rotate_left(5) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly_enough() {
        let mut map: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            map.insert(i * 64, i);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(map.get(&(i * 64)), Some(&i));
        }
    }

    /// Block-aligned addresses share their low bits, and the map indexes
    /// buckets by the hash's low bits: 1024 keys must reach at least half
    /// of a 1024-bucket table at every stride the workloads use (a bare
    /// multiply gives 1024 / 16 / 1 / 1 / 1 here).
    #[test]
    fn aligned_keys_spread_over_buckets() {
        const BASE: u64 = 0x9000_0000_0000;
        for stride in [1u64, 64, 4096, 16384, 1 << 20] {
            let mut buckets: Vec<u64> = (0..1024u64)
                .map(|i| {
                    let mut hasher = FastHasher::default();
                    hasher.write_u64(BASE + i * stride);
                    hasher.finish() & 1023
                })
                .collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() >= 512,
                "stride {stride}: 1024 keys reach only {} of 1024 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn hashing_is_deterministic() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }
}
