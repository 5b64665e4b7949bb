//! HMAC-SHA1 (RFC 2104) implemented over the local [`Sha1`].
//!
//! The Bonsai Merkle Tree in cc-NVM uses keyed HMACs in two places:
//!
//! * **data HMACs** — one 128-bit code per 64-byte data line, computed
//!   over `(encrypted data ‖ address ‖ counter)`, stored alongside the
//!   data in NVM and *never* cached in the meta cache, and
//! * **counter HMACs** — the internal nodes of the tree, each a 128-bit
//!   code over one child node.
//!
//! Both are truncated HMAC-SHA1. [`HmacEngine`] is the keyed engine
//! the simulator runs, one MAC per call at either crypto tier;
//! [`HmacSha1`] is the textbook RFC 2104 construction it is tested
//! against, and [`hmac_sha1_128`] its one-shot truncated form.

use crate::accel;
use crate::sha1::Sha1;
use crate::tier::CryptoTier;
use crate::Mac128;

const BLOCK_LEN: usize = 64;

/// The RFC 2104 `key ⊕ ipad` and `key ⊕ opad` blocks. Keys longer
/// than the 64-byte SHA-1 block are hashed first.
fn pad_keys(key: &[u8]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut block_key = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        block_key[..20].copy_from_slice(&Sha1::digest(key));
    } else {
        block_key[..key.len()].copy_from_slice(key);
    }
    (block_key.map(|b| b ^ 0x36), block_key.map(|b| b ^ 0x5c))
}

/// The 128-bit codeword prefix of a full 20-byte tag.
fn truncate(full: [u8; 20]) -> Mac128 {
    let mut out = [0u8; 16];
    out.copy_from_slice(&full[..16]);
    out
}

/// Serializes a SHA-1 state to its big-endian digest bytes.
fn state_bytes(state: [u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental HMAC-SHA1 computation.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::HmacSha1;
///
/// let mut mac = HmacSha1::new(b"secret");
/// mac.update(b"hello ");
/// mac.update(b"world");
/// let tag = mac.finalize();
/// assert_eq!(tag, HmacSha1::mac(b"secret", b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha1 {
    inner: Sha1,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha1 {
    /// Creates an HMAC context keyed with `key`.
    ///
    /// Keys longer than the 64-byte SHA-1 block are hashed first, per
    /// RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let (ipad_key, opad_key) = pad_keys(key);
        let mut inner = Sha1::new();
        inner.update(&ipad_key);
        Self { inner, opad_key }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the full 20-byte tag.
    pub fn finalize(self) -> [u8; 20] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha1::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot tag over `data` with `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; 20] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// Keyed HMAC-SHA1 engine with precomputed ipad/opad midstates.
///
/// [`HmacSha1`] redoes the RFC 2104 key schedule on every MAC: the
/// pad XORs, one SHA-1 block compression for the ipad prefix and
/// another for the opad prefix. A hardware HMAC engine is keyed once;
/// this type mirrors that by capturing the post-ipad and post-opad
/// compression states at construction, so each MAC costs only the
/// message compressions plus a single outer compression. Tags are
/// bit-identical to [`HmacSha1`] for every key and message.
///
/// # Example
///
/// ```
/// use ccnvm_crypto::{CryptoTier, HmacEngine, HmacSha1};
///
/// let engine = HmacEngine::new(b"secret");
/// let tag = engine.mac_with(CryptoTier::Portable, b"hello world");
/// assert_eq!(tag, HmacSha1::mac(b"secret", b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacEngine {
    /// SHA-1 state after compressing `key ⊕ ipad`.
    inner_midstate: [u32; 5],
    /// SHA-1 state after compressing `key ⊕ opad`.
    outer_midstate: [u32; 5],
}

impl HmacEngine {
    /// Keys the engine, precomputing both midstates.
    ///
    /// Keys longer than the 64-byte SHA-1 block are hashed first, per
    /// RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let (ipad_key, opad_key) = pad_keys(key);
        Self {
            inner_midstate: Sha1::compress_block(Sha1::IV, &ipad_key),
            outer_midstate: Sha1::compress_block(Sha1::IV, &opad_key),
        }
    }

    /// Tag over `data` under an explicit crypto tier (bit-identical
    /// across tiers; `Simd` uses SHA-NI when the host has it).
    pub fn mac_with(&self, tier: CryptoTier, data: &[u8]) -> [u8; 20] {
        let mut state = self.inner_midstate;
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            let block: &[u8; 64] = chunk.try_into().expect("exact chunk");
            state = accel::compress_block(tier, state, block);
        }
        let rem = chunks.remainder();
        let bitlen = (((BLOCK_LEN + data.len()) as u64) * 8).to_be_bytes();
        let mut block = [0u8; 64];
        block[..rem.len()].copy_from_slice(rem);
        block[rem.len()] = 0x80;
        if rem.len() + 9 <= 64 {
            block[56..64].copy_from_slice(&bitlen);
            state = accel::compress_block(tier, state, &block);
        } else {
            state = accel::compress_block(tier, state, &block);
            let mut last = [0u8; 64];
            last[56..64].copy_from_slice(&bitlen);
            state = accel::compress_block(tier, state, &last);
        }
        self.outer_finish(tier, &state_bytes(state))
    }

    /// Truncated variant of [`Self::mac_with`].
    pub fn mac128_with(&self, tier: CryptoTier, data: &[u8]) -> Mac128 {
        truncate(self.mac_with(tier, data))
    }

    /// Runs the single outer compression over an inner digest: the
    /// outer transform is always exactly one block past the opad
    /// midstate — the 20-byte digest, padding, and the length suffix
    /// for the 84 absorbed bytes (64 opad + 20 digest).
    fn outer_finish(&self, tier: CryptoTier, inner_digest: &[u8; 20]) -> [u8; 20] {
        let mut block = [0u8; 64];
        block[..20].copy_from_slice(inner_digest);
        block[20] = 0x80;
        block[56..64].copy_from_slice(&(84u64 * 8).to_be_bytes());
        state_bytes(accel::compress_block(tier, self.outer_midstate, &block))
    }
}

/// One-shot HMAC-SHA1 returning the full 20-byte tag.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    HmacSha1::mac(key, data)
}

/// One-shot HMAC-SHA1 truncated to the 128-bit codeword size the paper
/// uses for both data HMACs and Merkle-tree nodes.
pub fn hmac_sha1_128(key: &[u8], data: &[u8]) -> Mac128 {
    truncate(hmac_sha1(key, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test vectors.
    #[test]
    fn rfc2202_case1() {
        let tag = hmac_sha1(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2() {
        let tag = hmac_sha1(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_case3() {
        let tag = hmac_sha1(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(hex(&tag), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn rfc2202_case6_long_key() {
        let tag = hmac_sha1(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn truncation_is_prefix() {
        let full = hmac_sha1(b"k", b"m");
        let short = hmac_sha1_128(b"k", b"m");
        assert_eq!(&full[..16], &short[..]);
    }

    #[test]
    fn key_separation() {
        assert_ne!(hmac_sha1_128(b"k1", b"m"), hmac_sha1_128(b"k2", b"m"));
    }

    #[test]
    fn message_separation() {
        assert_ne!(hmac_sha1_128(b"k", b"m1"), hmac_sha1_128(b"k", b"m2"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha1::new(b"key");
        mac.update(b"part one, ");
        mac.update(b"part two");
        assert_eq!(mac.finalize(), hmac_sha1(b"key", b"part one, part two"));
    }

    // RFC 2202 vectors through the keyed engine.
    #[test]
    fn engine_rfc2202_vectors() {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
        ];
        for (key, msg, want) in cases {
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(hex(&HmacEngine::new(key).mac_with(tier, msg)), want);
            }
        }
    }

    #[test]
    fn engine_matches_rekeyed_hmac_for_all_key_lengths() {
        // Every interesting key length: empty, short, block-boundary
        // straddling, exactly one block, and the >64-byte hash-first
        // path.
        let msg: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for key_len in [0usize, 1, 16, 20, 63, 64, 65, 80, 200] {
            let key: Vec<u8> = (0..key_len as u8).collect();
            let engine = HmacEngine::new(&key);
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(
                    engine.mac_with(tier, &msg),
                    HmacSha1::mac(&key, &msg),
                    "key_len {key_len}, tier {tier}"
                );
                assert_eq!(engine.mac128_with(tier, &msg), hmac_sha1_128(&key, &msg));
            }
        }
    }

    #[test]
    fn tiered_mac_matches_reference_across_lengths() {
        let engine = HmacEngine::new(b"tier key");
        let msg: Vec<u8> = (0..=255u8).cycle().take(400).collect();
        for len in [
            0usize, 1, 20, 55, 56, 63, 64, 65, 71, 83, 119, 128, 200, 400,
        ] {
            for tier in [CryptoTier::Portable, CryptoTier::Simd] {
                assert_eq!(
                    engine.mac_with(tier, &msg[..len]),
                    HmacSha1::mac(b"tier key", &msg[..len]),
                    "len {len}, tier {tier}"
                );
            }
        }
    }
}
