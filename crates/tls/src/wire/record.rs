//! The TLS record layer (RFC 5246 §6.2).
//!
//! Records carry a content type, protocol version, and a length-prefixed
//! fragment of at most 2^14 bytes. [`RecordLayer`] handles framing in both
//! directions over plain byte buffers (the sans-io boundary) plus record
//! protection once keys are active.

use crate::error::TlsError;
use crate::suites::RecordProtection;
use bytes::{Buf, BufMut, BytesMut};
use ts_crypto::{aead, CryptoError};

/// Maximum plaintext fragment length (2^14).
pub const MAX_FRAGMENT_LEN: usize = 16_384;

/// The protocol version we speak (TLS 1.2 = 3.3).
pub const PROTOCOL_VERSION: (u8, u8) = (3, 3);

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// change_cipher_spec(20)
    ChangeCipherSpec,
    /// alert(21)
    Alert,
    /// handshake(22)
    Handshake,
    /// application_data(23)
    ApplicationData,
}

impl ContentType {
    /// Wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    /// From wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// A plaintext record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub content_type: ContentType,
    /// Payload (decrypted if protection was active).
    pub payload: Vec<u8>,
}

/// Per-direction record protection keys.
///
/// Wipes itself on drop: connection teardown (and eviction of any
/// [`crate::keys::ConnectionKeys`] holding a pair of these) scrubs the
/// traffic keys rather than leaving them for a later memory compromise.
// ctlint: secret
#[derive(Clone)]
pub struct DirectionKeys {
    /// Protection algorithm.
    pub protection: RecordProtection,
    /// MAC key (CBC-HMAC only; empty for AEAD).
    pub mac_key: Vec<u8>,
    /// Encryption key.
    pub enc_key: Vec<u8>,
    /// Fixed IV.
    pub fixed_iv: Vec<u8>,
}

impl ts_crypto::wipe::Wipe for DirectionKeys {
    fn wipe(&mut self) {
        ts_crypto::wipe::wipe_bytes(&mut self.mac_key);
        ts_crypto::wipe::wipe_bytes(&mut self.enc_key);
        ts_crypto::wipe::wipe_bytes(&mut self.fixed_iv);
    }
}

impl Drop for DirectionKeys {
    fn drop(&mut self) {
        use ts_crypto::wipe::Wipe;
        self.wipe();
    }
}

impl DirectionKeys {
    fn seal(&self, seq: u64, content_type: ContentType, plaintext: &[u8]) -> Vec<u8> {
        let aad = record_aad(seq, content_type, plaintext.len());
        match self.protection {
            RecordProtection::ChaCha20Poly1305 => {
                let key: &[u8; 32] = self.enc_key[..32].try_into().expect("key len");
                let nonce = xor_nonce(&self.fixed_iv, seq);
                aead::chacha20poly1305_seal(key, &nonce, &aad, plaintext)
            }
            RecordProtection::Aes128Gcm => {
                let key: &[u8; 16] = self.enc_key[..16].try_into().expect("key len");
                // Real TLS 1.2 GCM sends an explicit 8-byte nonce part; the
                // simulation derives the per-record nonce as fixed-IV XOR
                // sequence (the ChaCha20 construction), which is equivalent
                // for the measurement and keeps records deterministic.
                let nonce = xor_nonce(&self.fixed_iv, seq);
                aead::aes128gcm_seal(key, &nonce, &aad, plaintext)
            }
            RecordProtection::CbcHmacSha256 => {
                let enc_key: &[u8; 16] = self.enc_key[..16].try_into().expect("key len");
                let mac_key: &[u8; 32] = self.mac_key[..32].try_into().expect("mac len");
                // Per-record IV derived from fixed IV + sequence (real TLS
                // sends an explicit random IV; a derived IV is equivalent
                // for the simulation and keeps records deterministic).
                let mut iv = [0u8; 16];
                iv.copy_from_slice(&self.fixed_iv[..16]);
                for (i, b) in seq.to_be_bytes().iter().enumerate() {
                    iv[8 + i] ^= b;
                }
                aead::cbc_hmac_seal(enc_key, mac_key, &iv, &aad, plaintext)
            }
        }
    }

    /// Every failed open, short bodies and bad padding included, is
    /// `Crypto(BadMac)`: RFC 5246 §6.2.3 sends one bad_record_mac alert
    /// for all of them.
    fn open(
        &self,
        seq: u64,
        content_type: ContentType,
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, TlsError> {
        // The AAD commits to the *plaintext* length in real TLS 1.2 AEAD;
        // we commit to zero and bind length through the MAC input instead,
        // so the AAD is computable before decryption.
        let aad = record_aad(seq, content_type, 0);
        let opened = match self.protection {
            RecordProtection::ChaCha20Poly1305 => {
                let key: &[u8; 32] = self.enc_key[..32].try_into().expect("key len");
                let nonce = xor_nonce(&self.fixed_iv, seq);
                aead::chacha20poly1305_open(key, &nonce, &aad, ciphertext)
            }
            RecordProtection::Aes128Gcm => {
                let key: &[u8; 16] = self.enc_key[..16].try_into().expect("key len");
                let nonce = xor_nonce(&self.fixed_iv, seq);
                aead::aes128gcm_open(key, &nonce, &aad, ciphertext)
            }
            RecordProtection::CbcHmacSha256 => {
                let enc_key: &[u8; 16] = self.enc_key[..16].try_into().expect("key len");
                let mac_key: &[u8; 32] = self.mac_key[..32].try_into().expect("mac len");
                aead::cbc_hmac_open(enc_key, mac_key, &aad, ciphertext)
            }
        };
        opened.map_err(|_| TlsError::Crypto(CryptoError::BadMac))
    }
}

/// AAD = seq(8) || type(1) || version(2). Length is bound by the MAC body.
fn record_aad(seq: u64, content_type: ContentType, _len: usize) -> Vec<u8> {
    let mut aad = Vec::with_capacity(11);
    aad.extend_from_slice(&seq.to_be_bytes());
    aad.push(content_type.to_byte());
    aad.push(PROTOCOL_VERSION.0);
    aad.push(PROTOCOL_VERSION.1);
    aad
}

fn xor_nonce(fixed_iv: &[u8], seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&fixed_iv[..12]);
    for (i, b) in seq.to_be_bytes().iter().enumerate() {
        nonce[4 + i] ^= b;
    }
    nonce
}

/// Decrypt a captured protected record body out-of-band — the attacker's
/// primitive: given recovered direction keys and the record's sequence
/// number within its direction, recover the plaintext (§6).
pub fn decrypt_captured(
    keys: &DirectionKeys,
    seq: u64,
    content_type: ContentType,
    body: &[u8],
) -> Result<Vec<u8>, TlsError> {
    keys.open(seq, content_type, body)
}

/// Framing plus optional protection for one connection end.
pub struct RecordLayer {
    // Reassembly buffer of raw transport bytes — by definition what the
    // network already carried.
    // ctlint: public
    incoming: BytesMut,
    read_keys: Option<DirectionKeys>,
    write_keys: Option<DirectionKeys>,
    read_seq: u64,
    write_seq: u64,
}

impl Default for RecordLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordLayer {
    /// Fresh unprotected record layer.
    pub fn new() -> Self {
        RecordLayer {
            incoming: BytesMut::new(),
            read_keys: None,
            write_keys: None,
            read_seq: 0,
            write_seq: 0,
        }
    }

    /// Activate protection for the write direction (after sending CCS).
    pub fn set_write_keys(&mut self, keys: DirectionKeys) {
        self.write_keys = Some(keys);
        self.write_seq = 0;
    }

    /// Activate protection for the read direction (after receiving CCS).
    pub fn set_read_keys(&mut self, keys: DirectionKeys) {
        self.read_keys = Some(keys);
        self.read_seq = 0;
    }

    /// Frame (and protect, if active) a payload into `out`, fragmenting at
    /// [`MAX_FRAGMENT_LEN`].
    pub fn write_record(&mut self, content_type: ContentType, payload: &[u8], out: &mut Vec<u8>) {
        let mut chunks: Vec<&[u8]> = payload.chunks(MAX_FRAGMENT_LEN).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        for chunk in chunks {
            let body = match &self.write_keys {
                Some(keys) => {
                    let sealed = keys.seal(self.write_seq, content_type, chunk);
                    self.write_seq += 1;
                    sealed
                }
                None => chunk.to_vec(),
            };
            out.push(content_type.to_byte());
            out.push(PROTOCOL_VERSION.0);
            out.push(PROTOCOL_VERSION.1);
            out.put_u16(body.len() as u16);
            out.extend_from_slice(&body);
        }
    }

    /// Feed raw transport bytes into the reassembly buffer.
    pub fn feed(&mut self, data: &[u8]) {
        self.incoming.extend_from_slice(data);
    }

    /// Pop the next complete record, decrypting if protection is active.
    /// Returns `Ok(None)` when more bytes are needed.
    pub fn next_record(&mut self) -> Result<Option<Record>, TlsError> {
        if self.incoming.len() < 5 {
            return Ok(None);
        }
        let content_type = ContentType::from_byte(self.incoming[0])
            .ok_or(TlsError::Decode("unknown content type"))?;
        if self.incoming[1] != PROTOCOL_VERSION.0 || self.incoming[2] != PROTOCOL_VERSION.1 {
            return Err(TlsError::Decode("unsupported record version"));
        }
        let len = u16::from_be_bytes([self.incoming[3], self.incoming[4]]) as usize;
        if len > MAX_FRAGMENT_LEN + 1024 {
            return Err(TlsError::Decode("record too long"));
        }
        if self.incoming.len() < 5 + len {
            return Ok(None);
        }
        self.incoming.advance(5);
        let body = self.incoming.split_to(len).to_vec();
        let payload = match &self.read_keys {
            Some(keys) => {
                let pt = keys.open(self.read_seq, content_type, &body)?;
                self.read_seq += 1;
                pt
            }
            None => body,
        };
        Ok(Some(Record {
            content_type,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cbc_keys(tag: u8) -> DirectionKeys {
        DirectionKeys {
            protection: RecordProtection::CbcHmacSha256,
            mac_key: vec![tag; 32],
            enc_key: vec![tag; 16],
            fixed_iv: vec![tag; 16],
        }
    }

    fn chacha_keys(tag: u8) -> DirectionKeys {
        DirectionKeys {
            protection: RecordProtection::ChaCha20Poly1305,
            mac_key: vec![],
            enc_key: vec![tag; 32],
            fixed_iv: vec![tag; 12],
        }
    }

    fn gcm_keys(tag: u8) -> DirectionKeys {
        DirectionKeys {
            protection: RecordProtection::Aes128Gcm,
            mac_key: vec![],
            enc_key: vec![tag; 16],
            fixed_iv: vec![tag; 12],
        }
    }

    #[test]
    fn plaintext_roundtrip() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::Handshake, b"hello", &mut wire);
        b.feed(&wire);
        let rec = b.next_record().unwrap().unwrap();
        assert_eq!(rec.content_type, ContentType::Handshake);
        assert_eq!(rec.payload, b"hello");
        assert!(b.next_record().unwrap().is_none());
    }

    #[test]
    fn partial_feed_needs_more_bytes() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::Alert, &[1, 0], &mut wire);
        b.feed(&wire[..3]);
        assert!(b.next_record().unwrap().is_none());
        b.feed(&wire[3..]);
        assert!(b.next_record().unwrap().is_some());
    }

    #[test]
    fn protected_roundtrip_all_algorithms() {
        for (mk, desc) in [
            (cbc_keys as fn(u8) -> DirectionKeys, "cbc"),
            (gcm_keys as fn(u8) -> DirectionKeys, "gcm"),
            (chacha_keys as fn(u8) -> DirectionKeys, "chacha"),
        ] {
            let mut writer = RecordLayer::new();
            let mut reader = RecordLayer::new();
            writer.set_write_keys(mk(7));
            reader.set_read_keys(mk(7));
            let mut wire = Vec::new();
            writer.write_record(ContentType::ApplicationData, b"secret data", &mut wire);
            // Ciphertext must differ from plaintext.
            assert!(!wire.windows(11).any(|w| w == b"secret data"), "{desc}");
            reader.feed(&wire);
            let rec = reader.next_record().unwrap().unwrap();
            assert_eq!(rec.payload, b"secret data", "{desc}");
        }
    }

    #[test]
    fn sequence_numbers_prevent_replay() {
        let mut writer = RecordLayer::new();
        writer.set_write_keys(chacha_keys(1));
        let mut wire = Vec::new();
        writer.write_record(ContentType::ApplicationData, b"msg", &mut wire);
        // Feed the same record twice to the reader: the second decryption
        // uses seq=1 and must fail.
        let mut reader = RecordLayer::new();
        reader.set_read_keys(chacha_keys(1));
        reader.feed(&wire);
        reader.feed(&wire);
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().is_err(), "replayed record rejected");
    }

    #[test]
    fn wrong_keys_rejected() {
        // Wrong keys and a body too short for a tag (or an IV) fail alike.
        let bad_mac = Err(TlsError::Crypto(CryptoError::BadMac));
        for mk in [cbc_keys as fn(u8) -> DirectionKeys, gcm_keys, chacha_keys] {
            let mut writer = RecordLayer::new();
            writer.set_write_keys(mk(1));
            let mut wire = Vec::new();
            writer.write_record(ContentType::ApplicationData, b"msg", &mut wire);
            let mut reader = RecordLayer::new();
            reader.set_read_keys(mk(2));
            reader.feed(&wire);
            assert_eq!(reader.next_record(), bad_mac);
            let mut reader = RecordLayer::new();
            reader.set_read_keys(mk(1));
            reader.feed(&[23, 3, 3, 0, 4, 1, 2, 3, 4]);
            assert_eq!(reader.next_record(), bad_mac);
        }
    }

    #[test]
    fn fragmentation_at_max_len() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let big = vec![0x61u8; MAX_FRAGMENT_LEN * 2 + 100];
        let mut wire = Vec::new();
        a.write_record(ContentType::ApplicationData, &big, &mut wire);
        b.feed(&wire);
        let mut total = Vec::new();
        let mut count = 0;
        while let Some(rec) = b.next_record().unwrap() {
            total.extend_from_slice(&rec.payload);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(total, big);
    }

    #[test]
    fn empty_payload_still_framed() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::ChangeCipherSpec, &[], &mut wire);
        assert_eq!(wire.len(), 5);
        b.feed(&wire);
        let rec = b.next_record().unwrap().unwrap();
        assert!(rec.payload.is_empty());
    }

    #[test]
    fn garbage_rejected() {
        let mut b = RecordLayer::new();
        b.feed(&[0xff, 3, 3, 0, 0]);
        assert!(matches!(b.next_record(), Err(TlsError::Decode(_))));
        let mut b = RecordLayer::new();
        b.feed(&[22, 9, 9, 0, 0]);
        assert!(matches!(b.next_record(), Err(TlsError::Decode(_))));
    }

    #[test]
    fn interleaved_records_keep_order() {
        let mut a = RecordLayer::new();
        let mut b = RecordLayer::new();
        let mut wire = Vec::new();
        a.write_record(ContentType::Handshake, b"one", &mut wire);
        a.write_record(ContentType::ApplicationData, b"two", &mut wire);
        b.feed(&wire);
        assert_eq!(b.next_record().unwrap().unwrap().payload, b"one");
        assert_eq!(b.next_record().unwrap().unwrap().payload, b"two");
    }
}
