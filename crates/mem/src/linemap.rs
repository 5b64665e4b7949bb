//! Hash maps and sets keyed by raw line addresses.
//!
//! Every per-line table in the simulator — the sparse [`LineStore`],
//! the controller's write-combining and wear maps, the data-version
//! shadow, the drainer's membership set — is probed at least once per
//! simulated access, so `std`'s SipHash dominated their cost. Keys are
//! single `u64`s, which a folded multiply (`(seed ^ k) × K` as a
//! 128-bit product, low half XOR high half) mixes in one `mul`.
//!
//! The seed is drawn once per process from `std`'s own random hasher
//! keys. It is not optional: the paper's adversary owns NVM, so it
//! also owns the on-disk image [`FileBackend::open`] loads line
//! addresses from. An unseeded multiplier maps attacker-chosen key
//! patterns (multiples of 2^40, or keys equal modulo 2^20) into a
//! handful of buckets and turns every insert into a linear probe.
//!
//! Iteration order is unspecified and differs between processes,
//! exactly as it did under `std`'s per-map random state.
//!
//! [`LineStore`]: crate::LineStore
//! [`FileBackend::open`]: crate::FileBackend::open

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A hash map keyed by raw line address (`LineAddr.0`).
pub type LineMap<V> = HashMap<u64, V, LineHashBuilder>;

/// A hash set of raw line addresses (`LineAddr.0`).
pub type LineSet = HashSet<u64, LineHashBuilder>;

/// Odd multiplier of the folded multiply (2^64 / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-process hash seed, drawn on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(K))
}

/// Builds [`LineHasher`]s that share the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct LineHashBuilder {
    seed: u64,
}

impl Default for LineHashBuilder {
    fn default() -> Self {
        Self {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for LineHashBuilder {
    type Hasher = LineHasher;

    #[inline]
    fn build_hasher(&self) -> LineHasher {
        LineHasher { state: self.seed }
    }
}

/// Seeded folded-multiply hasher for `u64` line keys.
#[derive(Debug, Clone, Copy)]
pub struct LineHasher {
    state: u64,
}

impl Hasher for LineHasher {
    #[inline]
    fn write_u64(&mut self, k: u64) {
        let m = u128::from(self.state ^ k) * u128::from(K);
        self.state = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Generic fallback (line keys always take [`Self::write_u64`]).
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Key patterns an on-disk adversary can plant, for the hash-flood
/// tests: all multiples of 2^40 (`pattern` 0), or all equal modulo
/// 2^20 (`pattern` 1).
#[cfg(test)]
pub(crate) fn adversarial_keys(pattern: u8, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| match pattern {
        0 => i << 40,
        _ => 0x5_a5a5 + (i << 20),
    })
}

/// Best-of-three wall time of `f`, for timing comparisons that must
/// survive a noisy host.
#[cfg(test)]
pub(crate) fn best_of_three(mut f: impl FnMut()) -> std::time::Duration {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("three runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::store::LineStore;

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: LineMap<u64> = LineMap::default();
        let mut s = LineSet::default();
        for k in adversarial_keys(0, 1000).chain(0..1000) {
            *m.entry(k).or_insert(0) += 1;
            s.insert(k);
        }
        assert_eq!(m.len(), 1999, "key 0 appears in both ranges");
        assert_eq!(m[&0], 2);
        assert_eq!(s.len(), 1999);
        assert!(s.contains(&(999 << 40)) && !s.contains(&(1000 << 40)));
    }

    #[test]
    fn hasher_is_seeded_and_stable_within_a_process() {
        let a = LineHashBuilder::default();
        let b = LineHashBuilder::default();
        assert_eq!(a.hash_one(42u64), b.hash_one(42u64));
        assert_eq!(a.seed, process_seed());
        // The seed enters the product: two seeds disagree on a key.
        let other = LineHashBuilder { seed: !a.seed };
        assert_ne!(a.hash_one(42u64), other.hash_one(42u64));
    }

    #[test]
    fn adversarial_line_keys_do_not_flood_the_store() {
        const N: u64 = 100_000;
        let fill = |keys: &mut dyn Iterator<Item = u64>| {
            let mut store = LineStore::new();
            for k in keys {
                store.write(LineAddr(k), [k as u8; 64]);
            }
            assert_eq!(store.len() as u64, N);
        };
        let sequential = best_of_three(|| fill(&mut (0..N)));
        for pattern in [0, 1] {
            let hostile = best_of_three(|| fill(&mut adversarial_keys(pattern, N)));
            assert!(
                hostile < sequential * 4,
                "pattern {pattern}: {hostile:?} for {N} hostile keys vs \
                 {sequential:?} sequential"
            );
        }
    }
}
