//! Block (re-)encryption emulation with integrity tags.
//!
//! The paper's controller contains E/D logic: every block leaving the
//! trusted boundary is encrypted with a fresh nonce so that ciphertexts are
//! indistinguishable and rewrites are unlinkable. [`BlockCipher`] models it
//! with a splitmix64 keystream: **not a secure cipher**, but fast, and all
//! the evaluation needs — a fresh-nonce blob on the bus and a tag that
//! catches corruption.
//!
//! Every sealed blob carries a keyed integrity tag over the nonce and
//! ciphertext (`nonce || ciphertext || tag`), so corruption of a fetched
//! block — including the deterministic bit flips the fault-injection layer
//! produces — is detected at [`BlockCipher::open`] as
//! [`OpenError::TagMismatch`]. The tag is a keyed splitmix64 fold whose key
//! is derived from the keystream under a tweaked nonce: it detects any
//! accidental or injected corruption deterministically, but it is *not* a
//! cryptographic MAC (no existential-unforgeability claim), matching the
//! simulation-grade cipher it protects.

use oram_rng::{Rng, SplitMix64};

/// A keystream cipher for ciphertext-at-rest emulation.
///
/// # Examples
///
/// ```
/// use ring_oram::crypto::BlockCipher;
///
/// let cipher = BlockCipher::new(0xC0FFEE);
/// let plain = *b"sixteen byte msg";
/// let ct = cipher.seal(7, &plain);
/// assert_ne!(&ct[BlockCipher::NONCE_BYTES..][..plain.len()], &plain);
/// assert_eq!(cipher.open(&ct).unwrap(), plain.to_vec());
/// ```
#[derive(Debug, Clone)]
pub struct BlockCipher {
    key: u64,
}

/// Error returned when a sealed blob fails to open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The blob is too short to carry its nonce header and integrity tag.
    Truncated,
    /// The integrity tag does not match the ciphertext: the blob was
    /// corrupted in transit/at rest, or sealed under a different key.
    TagMismatch,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "ciphertext shorter than its nonce header and tag"),
            Self::TagMismatch => write!(f, "ciphertext integrity tag mismatch"),
        }
    }
}

impl std::error::Error for OpenError {}

impl BlockCipher {
    /// Bytes of nonce prepended to every sealed block.
    pub const NONCE_BYTES: usize = 8;

    /// Bytes of keyed integrity tag appended to every sealed block.
    pub const TAG_BYTES: usize = 8;

    /// Nonce tweak separating the tag-key derivation from data keystreams.
    const TAG_TWEAK: u64 = 0x7461_675F_6465_7269; // "tag_deri"

    /// Creates a fast (insecure) splitmix64 keystream cipher.
    #[must_use]
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    fn keystream_xor(&self, nonce: u64, data: &mut [u8]) {
        let mut stream = SplitMix64::new(self.key ^ nonce.rotate_left(17));
        for chunk in data.chunks_mut(8) {
            let word = stream.next_u64().to_le_bytes();
            for (b, k) in chunk.iter_mut().zip(word) {
                *b ^= k;
            }
        }
    }

    /// Keyed integrity tag over `nonce || ciphertext`. The per-nonce tag key
    /// comes from the keystream itself (under a tweaked nonce), so the tag
    /// needs no key material of its own.
    fn tag(&self, nonce: u64, ciphertext: &[u8]) -> [u8; Self::TAG_BYTES] {
        let mut key = [0u8; Self::TAG_BYTES];
        self.keystream_xor(nonce ^ Self::TAG_TWEAK, &mut key);
        let mut fold = SplitMix64::new(u64::from_le_bytes(key) ^ nonce ^ (ciphertext.len() as u64));
        let mut acc = fold.next_u64();
        for chunk in ciphertext.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fold.absorb(u64::from_le_bytes(word));
            acc ^= fold.next_u64();
        }
        acc.to_le_bytes()
    }

    /// Length of the sealed blob produced for a `plain_len`-byte payload.
    #[must_use]
    pub(crate) const fn sealed_len(plain_len: usize) -> usize {
        Self::NONCE_BYTES + plain_len + Self::TAG_BYTES
    }

    /// Encrypts `plaintext` under the given `nonce`, producing
    /// `nonce || ciphertext || tag`. Fresh nonces make repeated writes of
    /// the same content unlinkable — the property ORAM re-encryption relies
    /// on — and the tag lets [`Self::open`] detect corruption.
    #[must_use]
    pub fn seal(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; Self::sealed_len(plaintext.len())];
        self.seal_into(nonce, plaintext, &mut out);
        out
    }

    /// Allocation-free [`Self::seal`]: writes `nonce || ciphertext || tag`
    /// into a caller-provided buffer. The buffer must be exactly
    /// [`Self::sealed_len`]`(plaintext.len())` bytes — ORAM blocks are
    /// fixed-size, so callers recycle one buffer per slot.
    ///
    /// # Panics
    ///
    /// If `out.len() != Self::sealed_len(plaintext.len())`.
    pub(crate) fn seal_into(&self, nonce: u64, plaintext: &[u8], out: &mut [u8]) {
        assert_eq!(
            out.len(),
            Self::sealed_len(plaintext.len()),
            "sealed buffer must be nonce + payload + tag sized"
        );
        out[..Self::NONCE_BYTES].copy_from_slice(&nonce.to_le_bytes());
        let (body, tag_slot) = out[Self::NONCE_BYTES..].split_at_mut(plaintext.len());
        body.copy_from_slice(plaintext);
        self.keystream_xor(nonce, body);
        let tag = self.tag(nonce, body);
        tag_slot.copy_from_slice(&tag);
    }

    /// Decrypts a `nonce || ciphertext || tag` blob produced by
    /// [`Self::seal`], verifying the integrity tag first.
    ///
    /// # Errors
    ///
    /// [`OpenError::Truncated`] if the blob cannot carry a nonce and tag;
    /// [`OpenError::TagMismatch`] if the tag fails to verify (corruption or
    /// wrong key).
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>, OpenError> {
        let mut out = vec![
            0u8;
            sealed
                .len()
                .saturating_sub(Self::NONCE_BYTES + Self::TAG_BYTES)
        ];
        self.open_into(sealed, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`Self::open`]: verifies the tag and decrypts into a
    /// caller-provided buffer of exactly `sealed.len() - NONCE_BYTES -
    /// TAG_BYTES` bytes.
    ///
    /// # Errors
    ///
    /// Same as [`Self::open`]; on error `out` is left untouched.
    ///
    /// # Panics
    ///
    /// If the blob is long enough but `out` is not exactly payload-sized.
    pub(crate) fn open_into(&self, sealed: &[u8], out: &mut [u8]) -> Result<(), OpenError> {
        if sealed.len() < Self::NONCE_BYTES + Self::TAG_BYTES {
            return Err(OpenError::Truncated);
        }
        let nonce = match sealed[..Self::NONCE_BYTES].try_into() {
            Ok(bytes) => u64::from_le_bytes(bytes),
            Err(_) => return Err(OpenError::Truncated),
        };
        let body = &sealed[Self::NONCE_BYTES..sealed.len() - Self::TAG_BYTES];
        let tag = &sealed[sealed.len() - Self::TAG_BYTES..];
        if self.tag(nonce, body) != *tag {
            return Err(OpenError::TagMismatch);
        }
        assert_eq!(out.len(), body.len(), "plaintext buffer must match payload");
        out.copy_from_slice(body);
        self.keystream_xor(nonce, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let c = BlockCipher::new(42);
        let data = vec![7u8; 64];
        let sealed = c.seal(1, &data);
        assert_eq!(c.open(&sealed).unwrap(), data);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let c = BlockCipher::new(42);
        let data = vec![0u8; 64];
        let sealed = c.seal(9, &data);
        assert_eq!(
            sealed.len(),
            BlockCipher::NONCE_BYTES + data.len() + BlockCipher::TAG_BYTES
        );
        assert_ne!(
            &sealed[BlockCipher::NONCE_BYTES..][..data.len()],
            data.as_slice()
        );
    }

    #[test]
    fn fresh_nonce_unlinkability() {
        // The same plaintext sealed twice with different nonces must yield
        // different ciphertexts (ORAM rewrites are unlinkable).
        let c = BlockCipher::new(42);
        let data = vec![5u8; 64];
        let a = c.seal(1, &data);
        let b = c.seal(2, &data);
        assert_ne!(a[BlockCipher::NONCE_BYTES..], b[BlockCipher::NONCE_BYTES..]);
        assert_eq!(c.open(&a).unwrap(), c.open(&b).unwrap());
    }

    #[test]
    fn wrong_key_fails_the_tag() {
        let c1 = BlockCipher::new(1);
        let c2 = BlockCipher::new(2);
        let data = vec![3u8; 32];
        let sealed = c1.seal(7, &data);
        assert_eq!(c2.open(&sealed), Err(OpenError::TagMismatch));
    }

    #[test]
    fn short_blob_rejected() {
        let c = BlockCipher::new(1);
        assert_eq!(c.open(&[1, 2, 3]), Err(OpenError::Truncated));
        // A bare nonce with no room for the tag is also truncated.
        assert_eq!(c.open(&[0u8; 8]), Err(OpenError::Truncated));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let c = BlockCipher::new(1);
        let sealed = c.seal(0, &[]);
        assert_eq!(
            sealed.len(),
            BlockCipher::NONCE_BYTES + BlockCipher::TAG_BYTES
        );
        assert_eq!(c.open(&sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bit_flips_are_detected() {
        // Any single-bit flip anywhere in the blob — nonce, ciphertext or
        // tag — must trip the integrity check (the fault-injection layer's
        // detection guarantee).
        let cipher = BlockCipher::new(5);
        let data = vec![0xA5u8; 48];
        let sealed = cipher.seal(11, &data);
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[byte] ^= 1 << bit;
                assert_eq!(
                    cipher.open(&corrupt),
                    Err(OpenError::TagMismatch),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn seal_into_matches_seal_and_open_into_matches_open() {
        // The in-place pair must be byte-identical to the allocating pair:
        // the protocol's pooled buffers rely on wire-format equivalence.
        let cipher = BlockCipher::new(42);
        let data: Vec<u8> = (0..64u8).collect();
        let sealed = cipher.seal(9, &data);
        let mut sealed_into = vec![0u8; BlockCipher::sealed_len(data.len())];
        cipher.seal_into(9, &data, &mut sealed_into);
        assert_eq!(sealed, sealed_into);

        let mut plain = vec![0u8; data.len()];
        cipher.open_into(&sealed_into, &mut plain).unwrap();
        assert_eq!(plain, data);
        assert_eq!(cipher.open(&sealed).unwrap(), plain);
    }

    #[test]
    fn open_into_leaves_buffer_untouched_on_error() {
        let c = BlockCipher::new(7);
        let mut sealed = c.seal(1, &[4u8; 32]);
        sealed[10] ^= 1;
        let mut out = vec![0xEEu8; 32];
        assert_eq!(c.open_into(&sealed, &mut out), Err(OpenError::TagMismatch));
        assert!(out.iter().all(|&b| b == 0xEE));
        assert_eq!(c.open_into(&[1, 2, 3], &mut []), Err(OpenError::Truncated));
    }

    #[test]
    fn seal_batch_matches_sequential_seals() {
        // The data path's batch seal is one `seal` per payload-bearing
        // slot under consecutive nonces: same blobs, slots without a
        // payload left alone, and the next batch continues the count.
        use crate::bucket::BlockEntry;
        use crate::plain_tree::DataPath;
        use crate::protocol::ProtocolStats;
        use crate::types::BlockId;
        let cipher = BlockCipher::new(11);
        let mut data = DataPath::default();
        data.cipher = Some(cipher.clone());
        let mut stats = ProtocolStats::default();
        let plain = |i: u8| vec![i; 48].into_boxed_slice();
        let mut entries: Vec<BlockEntry> = (0..5u8)
            .map(|i| (BlockId(u64::from(i)), (i != 2).then(|| plain(i))))
            .collect();
        let mut next: Vec<BlockEntry> = vec![(BlockId(9), Some(plain(9)))];
        data.seal_batch(&mut stats, &mut entries);
        data.seal_batch(&mut stats, &mut next);
        for (slot, nonce) in [(0, 1), (1, 2), (3, 3), (4, 4)] {
            let sealed = entries[slot].1.as_deref().unwrap();
            assert_eq!(
                sealed,
                cipher.seal(nonce, &plain(slot as u8)),
                "slot {slot}"
            );
        }
        assert_eq!(entries[2].1, None);
        assert_eq!(next[0].1.as_deref().unwrap(), cipher.seal(5, &plain(9)));
        assert_eq!(stats.encryptions, 5);
    }

    #[test]
    fn keystream_covers_odd_lengths() {
        let c = BlockCipher::new(77);
        for len in [1usize, 7, 8, 9, 63, 64, 65] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(c.open(&c.seal(len as u64, &data)).unwrap(), data);
        }
    }
}
