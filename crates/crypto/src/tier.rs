//! Crypto implementation tiers and runtime CPU-feature selection.
//!
//! Every primitive in this crate exists in two tiers that produce
//! **bit-identical output** and differ only in host speed:
//!
//! * `portable` — pure-Rust scalar SHA-1 and T-table AES, compiled on
//!   every target, and
//! * `simd` — the x86-64 SHA-NI and AES-NI instructions, compiled in
//!   behind the `simd` cargo feature and picked per primitive at
//!   runtime from CPUID.
//!
//! [`CryptoSelect`] is the configuration value (`auto` / `portable` /
//! `simd`, carried in `SimConfig::crypto`); [`CryptoTier`] is the
//! resolved choice threaded through the engines. Forcing `simd` on a
//! build or target without any hardware path is a [`TierUnavailable`]
//! error rather than a silent fallback, so benchmark labels never lie.

use std::fmt;

/// The resolved implementation tier a crypto call executes under.
///
/// Both tiers are bit-identical; `Simd` merely permits hardware paths
/// where the CPU supports them (each primitive still falls back to the
/// portable code for capabilities the host lacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoTier {
    /// Pure-Rust scalar implementations, available everywhere.
    Portable,
    /// Hardware-accelerated x86-64 paths where CPUID allows.
    Simd,
}

impl CryptoTier {
    /// The best tier available on this host: `Simd` when any hardware
    /// path is compiled in and present, otherwise `Portable`.
    pub fn detect() -> Self {
        if simd_available() {
            Self::Simd
        } else {
            Self::Portable
        }
    }
}

impl fmt::Display for CryptoTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Portable => "portable",
            Self::Simd => "simd",
        })
    }
}

/// Which hardware capabilities the runtime detected (all `false` when
/// the `simd` feature is off or the target is not x86-64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimdCaps {
    /// SHA-1 round instructions (`SHA1RNDS4` etc.).
    pub sha_ni: bool,
    /// Single-block AES round instructions (`AESENC`).
    pub aes_ni: bool,
}

impl SimdCaps {
    /// Whether any hardware path is usable.
    pub fn any(&self) -> bool {
        self.sha_ni || self.aes_ni
    }
}

/// The hardware capabilities of this host, probed once per process.
///
/// Every SHA-1 compression and AES block asks, so the answer is kept
/// in a `OnceLock`: later calls are one load instead of four
/// feature-detection probes.
pub fn caps() -> SimdCaps {
    static CAPS: std::sync::OnceLock<SimdCaps> = std::sync::OnceLock::new();
    *CAPS.get_or_init(detect_caps)
}

fn detect_caps() -> SimdCaps {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        SimdCaps {
            sha_ni: std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1"),
            aes_ni: std::arch::is_x86_feature_detected!("aes"),
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        SimdCaps::default()
    }
}

/// Whether the `simd` tier can be selected at all on this build/host.
pub fn simd_available() -> bool {
    caps().any()
}

/// Tier selection as configured (`SimConfig::crypto`), resolved
/// against the host by [`Self::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoSelect {
    /// Pick the best tier the host supports (the default).
    #[default]
    Auto,
    /// Force the pure-Rust tier.
    Portable,
    /// Force the hardware tier; an error where none is available.
    Simd,
}

impl CryptoSelect {
    /// Resolves the selection against this host.
    ///
    /// # Errors
    ///
    /// [`TierUnavailable`] when `simd` is forced but the build or
    /// target has no hardware path.
    pub fn resolve(self) -> Result<CryptoTier, TierUnavailable> {
        match self {
            Self::Auto => Ok(CryptoTier::detect()),
            Self::Portable => Ok(CryptoTier::Portable),
            Self::Simd => {
                if simd_available() {
                    Ok(CryptoTier::Simd)
                } else {
                    Err(TierUnavailable)
                }
            }
        }
    }
}

/// The `simd` tier was forced but no hardware path exists on this
/// build or target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierUnavailable;

impl fmt::Display for TierUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if cfg!(feature = "simd") {
            f.write_str("crypto tier 'simd' forced but this target has no hardware crypto path")
        } else {
            f.write_str(
                "crypto tier 'simd' forced but the crate was built without the `simd` feature",
            )
        }
    }
}

impl std::error::Error for TierUnavailable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_detected_tier() {
        assert_eq!(CryptoSelect::Auto.resolve(), Ok(CryptoTier::detect()));
        assert_eq!(CryptoSelect::Portable.resolve(), Ok(CryptoTier::Portable));
    }

    #[test]
    fn forced_simd_matches_availability() {
        match CryptoSelect::Simd.resolve() {
            Ok(t) => {
                assert_eq!(t, CryptoTier::Simd);
                assert!(simd_available());
            }
            Err(TierUnavailable) => assert!(!simd_available()),
        }
    }

    #[test]
    fn any_capability_enables_simd() {
        assert!(!SimdCaps::default().any());
        for (sha_ni, aes_ni) in [(true, false), (false, true), (true, true)] {
            assert!(SimdCaps { sha_ni, aes_ni }.any());
        }
    }
}
