//! The deterministic trace generator.
//!
//! [`TraceGenerator`] is an infinite iterator of [`TraceOp`]s drawn
//! from a [`WorkloadProfile`]. The same `(profile, seed)` pair always
//! yields the same trace, so every experiment in the workspace is
//! reproducible bit-for-bit.

use crate::profiles::WorkloadProfile;
use crate::{OpKind, TraceOp};
use ccnvm_mem::Addr;
use ccnvm_rng::Rng;

/// Word granularity of generated accesses.
const WORD: u64 = 8;

/// The region the sequential streams wrap within.
fn stream_region(profile: &WorkloadProfile) -> u64 {
    let sb = profile.locality.stream_bytes;
    if sb == 0 {
        profile.working_set_bytes
    } else {
        sb.min(profile.working_set_bytes)
    }
}

/// `x mod n` for an `x` that is almost always already below `n`: the
/// compare spares the per-op division.
#[inline]
fn wrap(x: u64, n: u64) -> u64 {
    if x < n {
        x
    } else {
        x % n
    }
}

/// `g.round() as u32` for a non-negative, in-range `g`, without the
/// libm call: the fractional part `g - trunc(g)` of an `f64` is exact,
/// so comparing it with one half rounds half away from zero exactly as
/// [`f64::round`] does.
#[inline]
fn round_to_u32(g: f64) -> u32 {
    let t = g as u32;
    t.saturating_add(u32::from(g - f64::from(t) >= 0.5))
}

/// Infinite, deterministic stream of trace operations.
///
/// # Example
///
/// ```
/// use ccnvm_trace::{profiles, TraceGenerator};
///
/// let p = profiles::mixed();
/// let a: Vec<_> = TraceGenerator::new(p.clone(), 7).take(100).collect();
/// let b: Vec<_> = TraceGenerator::new(p, 7).take(100).collect();
/// assert_eq!(a, b); // same seed, same trace
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: Rng,
    /// Upper end of the uniform gap draw, `2 × mean_gap` (fixed per
    /// profile, so computed once).
    gap_span: f64,
    stream_ptrs: Vec<u64>,
    next_stream: usize,
    cold_window_base: u64,
    cold_accesses: u32,
}

/// Cold accesses cluster inside a window this large …
const COLD_WINDOW_BYTES: u64 = 2 * 1024 * 1024;
/// … which relocates after this many cold accesses. Real irregular
/// codes (lattice sweeps, sparse matrices) touch large footprints in
/// moving spans, not uniformly at random; without this the synthetic
/// cold tier would thrash the counter cache far beyond anything SPEC
/// does.
const COLD_WINDOW_PERIOD: u32 = 1024;

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let region = stream_region(&profile);
        let streams = profile.locality.streams.max(1);
        // Concurrent streams start on distinct pages but close together
        // (≤ 2 MB apart), the way stencil/grid codes walk adjacent
        // arrays — this is what lets their Merkle-tree paths share
        // upper levels.
        let spacing = (region / streams as u64).min(2 * 1024 * 1024);
        let stream_ptrs = (0..streams)
            .map(|i| {
                let base = spacing * i as u64;
                base + rng.gen_range(0..WORD * 64) / WORD * WORD
            })
            .collect();
        Self {
            gap_span: 2.0 * profile.mean_gap().max(0.0),
            profile,
            rng,
            stream_ptrs,
            next_stream: 0,
            cold_window_base: 0,
            cold_accesses: 0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Generates an address; `(addr, force_read)` where `force_read`
    /// marks an access on a read-only stream.
    fn gen_addr(&mut self) -> (u64, bool) {
        let ws = self.profile.working_set_bytes;
        let loc = &self.profile.locality;
        if self.rng.gen_bool(loc.stream_fraction) {
            // Continue one of the sequential streams, word by word,
            // wrapping within the stream region.
            let region = stream_region(&self.profile);
            let idx = self.next_stream;
            self.next_stream = if idx + 1 == self.stream_ptrs.len() {
                0
            } else {
                idx + 1
            };
            let addr = self.stream_ptrs[idx];
            self.stream_ptrs[idx] = wrap(addr + WORD, region);
            let read_only = loc.write_streams != 0 && idx >= loc.write_streams;
            return (addr, read_only);
        }
        // Three-tier reuse: hot (≈L1-resident) and warm (≈L2-scale)
        // sets at the base of the working set, cold uniform otherwise.
        let tier = self.rng.gen_range(0.0..1.0);
        if tier < loc.hot_prob {
            let region = loc.hot_bytes.clamp(WORD, ws);
            return (self.rng.gen_range(0..region / WORD) * WORD, false);
        }
        if tier < loc.hot_prob + loc.warm_prob {
            let region = loc.warm_bytes.clamp(WORD, ws);
            return (self.rng.gen_range(0..region / WORD) * WORD, false);
        }
        // Cold tier: a sliding window over the full working set.
        let window = COLD_WINDOW_BYTES.min(ws);
        if self.cold_accesses.is_multiple_of(COLD_WINDOW_PERIOD) {
            let pages = ws / 4096;
            self.cold_window_base = self.rng.gen_range(0..pages) * 4096 % ws;
        }
        self.cold_accesses = self.cold_accesses.wrapping_add(1);
        let off = self.rng.gen_range(0..window / WORD) * WORD;
        (wrap(self.cold_window_base + off, ws), false)
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        // Uniform on [0, 2·mean]: keeps the configured memory intensity
        // in expectation with bounded burstiness.
        let gap_instrs = round_to_u32(self.rng.gen_range(0.0..=self.gap_span));
        let mut kind = if self.rng.gen_bool(self.profile.write_fraction) {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let (addr, force_read) = self.gen_addr();
        if force_read {
            kind = OpKind::Read;
        }
        Some(TraceOp {
            gap_instrs,
            kind,
            addr: Addr(addr),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn take(name: &str, seed: u64, n: usize) -> Vec<TraceOp> {
        TraceGenerator::new(profiles::by_name(name).unwrap(), seed)
            .take(n)
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(take("gcc", 1, 500), take("gcc", 1, 500));
        assert_ne!(take("gcc", 1, 500), take("gcc", 2, 500));
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = profiles::by_name("hmmer").unwrap();
        let ws = p.working_set_bytes;
        for op in TraceGenerator::new(p, 3).take(10_000) {
            assert!(op.addr.0 < ws, "{} outside working set", op.addr);
        }
    }

    #[test]
    fn write_fraction_is_respected_without_read_streams() {
        // gcc has no read-only streams, so the per-op probability is
        // observed directly.
        let p = profiles::by_name("gcc").unwrap();
        assert_eq!(p.locality.write_streams, 0);
        let n = 50_000;
        let writes = TraceGenerator::new(p.clone(), 4)
            .take(n)
            .filter(|o| o.kind == OpKind::Write)
            .count();
        let observed = writes as f64 / n as f64;
        assert!(
            (observed - p.write_fraction).abs() < 0.02,
            "observed write fraction {observed}"
        );
    }

    #[test]
    fn read_only_streams_suppress_their_stores() {
        // lbm: 4 streams, 2 may write. Expected write share =
        // wf × (1 − stream_fraction × read_stream_share).
        let p = profiles::by_name("lbm").unwrap();
        let loc = &p.locality;
        assert_eq!(loc.write_streams, 2);
        let read_share = (loc.streams - loc.write_streams) as f64 / loc.streams as f64;
        let expect = p.write_fraction * (1.0 - loc.stream_fraction * read_share);
        let n = 50_000;
        let writes = TraceGenerator::new(p.clone(), 4)
            .take(n)
            .filter(|o| o.kind == OpKind::Write)
            .count();
        let observed = writes as f64 / n as f64;
        assert!(
            (observed - expect).abs() < 0.02,
            "observed {observed} vs expected {expect}"
        );
    }

    #[test]
    fn memory_intensity_is_respected() {
        let p = profiles::by_name("libquantum").unwrap();
        let n = 50_000u64;
        let instrs: u64 = TraceGenerator::new(p.clone(), 5)
            .take(n as usize)
            .map(|o| o.instrs())
            .sum();
        let observed_mpki = n as f64 * 1000.0 / instrs as f64;
        let expect = p.mem_ops_per_kilo_instrs as f64;
        assert!(
            (observed_mpki - expect).abs() / expect < 0.05,
            "observed {observed_mpki} vs {expect}"
        );
    }

    #[test]
    fn streaming_profile_walks_sequentially() {
        use crate::profiles::{LocalityModel, WorkloadProfile};
        // A pure single-stream profile: ~90% of adjacent pairs continue
        // the stream (0.95²).
        let p = WorkloadProfile::new(
            "stream-test",
            300,
            0.3,
            1 << 20,
            LocalityModel::streaming(1),
        );
        let ops: Vec<TraceOp> = TraceGenerator::new(p, 6).take(2_000).collect();
        let sequential = ops
            .windows(2)
            .filter(|w| w[1].addr.0 == w[0].addr.0 + 8)
            .count();
        assert!(
            sequential as f64 / ops.len() as f64 > 0.8,
            "only {sequential} sequential pairs"
        );
    }

    #[test]
    fn hot_tier_concentrates_accesses() {
        let p = profiles::by_name("hmmer").unwrap();
        let hot = p.locality.hot_bytes;
        let n = 20_000;
        let in_hot = TraceGenerator::new(p, 12)
            .take(n)
            .filter(|o| o.addr.0 < hot)
            .count();
        // stream accesses may also fall there, so just require a strong
        // concentration relative to the hot set's share of the WS.
        assert!(
            in_hot as f64 / n as f64 > 0.4,
            "only {in_hot}/{n} accesses in the hot set"
        );
    }

    #[test]
    fn integer_rounding_matches_f64_round() {
        let below_half = 0.5f64.next_down();
        assert_eq!(below_half, 0.499_999_999_999_999_94);
        let mut cases = vec![0.0, below_half, 0.5];
        for k in [1u32, 2, 7, 999, 1997, 1 << 20] {
            let half = f64::from(k) + 0.5;
            cases.extend([half, half.next_down(), half.next_up(), f64::from(k)]);
        }
        for g in cases {
            assert_eq!(round_to_u32(g), g.round() as u32, "g = {g:e}");
        }
    }

    #[test]
    fn spec_traces_match_pinned_checksums() {
        // FNV-1a over the first 200k ops of each profile at seed 42,
        // recorded before the generator's arithmetic went
        // division-free: any drift in a gap, kind or address shows.
        let pinned = [
            ("leslie3d", 0xf3a0_83d0_cf7c_ad72u64),
            ("libquantum", 0xbfc2_9508_9253_6e7f),
            ("gcc", 0x6f23_691f_0db1_69b8),
            ("lbm", 0x57c4_4fae_155f_211f),
            ("soplex", 0xdfbb_f773_993f_82bd),
            ("hmmer", 0x13cc_5d29_7807_9e3f),
            ("milc", 0xb135_9704_5ec3_0a7b),
            ("namd", 0xab9b_4a46_2a1a_6a6c),
        ];
        let profiles = profiles::spec2006();
        assert_eq!(profiles.len(), pinned.len());
        for (p, (name, want)) in profiles.into_iter().zip(pinned) {
            assert_eq!(p.name, name);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for op in TraceGenerator::new(p, 42).take(200_000) {
                let mut bytes = [0u8; 13];
                bytes[..4].copy_from_slice(&op.gap_instrs.to_le_bytes());
                bytes[4] = u8::from(op.kind == OpKind::Write);
                bytes[5..].copy_from_slice(&op.addr.0.to_le_bytes());
                for b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(h, want, "{name}: trace diverged, 0x{h:016x}");
        }
    }

    #[test]
    fn words_are_aligned() {
        for op in TraceGenerator::new(profiles::mixed(), 8).take(5_000) {
            assert_eq!(op.addr.0 % 8, 0);
        }
    }
}
