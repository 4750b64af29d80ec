//! The TLS 1.2 key schedule (RFC 5246 §8.1, §6.3).

use crate::suites::CipherSuite;
use crate::wire::record::DirectionKeys;
use ts_crypto::prf::prf;
use ts_crypto::sha256::Sha256;

/// Master secret length.
pub const MASTER_SECRET_LEN: usize = 48;
/// Finished verify_data length.
pub const VERIFY_DATA_LEN: usize = 12;

/// Derive the 48-byte master secret.
pub fn master_secret(
    premaster: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> [u8; MASTER_SECRET_LEN] {
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(client_random);
    seed.extend_from_slice(server_random);
    let out = prf(premaster, b"master secret", &seed, MASTER_SECRET_LEN);
    out.try_into().expect("48 bytes")
}

/// Both directions' record keys, derived from the key block.
///
/// No `Drop` impl of its own: both [`DirectionKeys`] fields wipe themselves
/// on drop, and leaving `ConnectionKeys` free of `Drop` keeps its fields
/// movable (each handshake side moves a direction into the record layer
/// when it switches that direction on).
// ctlint: secret
pub struct ConnectionKeys {
    /// Keys for data the client writes.
    pub client_write: DirectionKeys,
    /// Keys for data the server writes.
    pub server_write: DirectionKeys,
}

impl ts_crypto::wipe::Wipe for ConnectionKeys {
    fn wipe(&mut self) {
        self.client_write.wipe();
        self.server_write.wipe();
    }
}

/// Expand the key block (note seed order: server_random || client_random,
/// the reverse of master-secret derivation — RFC 5246 §6.3).
pub fn key_block(
    master: &[u8; MASTER_SECRET_LEN],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
    suite: CipherSuite,
) -> ConnectionKeys {
    let sizes = suite.record_protection().sizes();
    let total = 2 * (sizes.mac_key + sizes.enc_key + sizes.fixed_iv);
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(server_random);
    seed.extend_from_slice(client_random);
    let mut block = prf(master, b"key expansion", &seed, total);
    let mut off = 0;
    let mut take = |n: usize| {
        let out = block[off..off + n].to_vec();
        off += n;
        out
    };
    let client_mac = take(sizes.mac_key);
    let server_mac = take(sizes.mac_key);
    let client_key = take(sizes.enc_key);
    let server_key = take(sizes.enc_key);
    let client_iv = take(sizes.fixed_iv);
    let server_iv = take(sizes.fixed_iv);
    let keys = ConnectionKeys {
        client_write: DirectionKeys {
            protection: suite.record_protection(),
            mac_key: client_mac,
            enc_key: client_key,
            fixed_iv: client_iv,
        },
        server_write: DirectionKeys {
            protection: suite.record_protection(),
            mac_key: server_mac,
            enc_key: server_key,
            fixed_iv: server_iv,
        },
    };
    // The contiguous key block duplicates every key above; scrub it.
    ts_crypto::wipe::wipe_bytes(&mut block);
    keys
}

/// A running transcript hash of all handshake messages; `default()`
/// starts an empty one.
#[derive(Clone, Default)]
pub struct Transcript {
    hasher: Sha256,
}

impl Transcript {
    /// Absorb an encoded handshake message (header included).
    pub fn add(&mut self, encoded: &[u8]) {
        self.hasher.update(encoded);
    }

    /// Current hash (non-destructive).
    pub fn hash(&self) -> [u8; 32] {
        self.hasher.clone().finish()
    }
}

/// Compute Finished verify_data.
pub fn verify_data(
    master: &[u8; MASTER_SECRET_LEN],
    transcript_hash: &[u8; 32],
    from_client: bool,
) -> Vec<u8> {
    let label: &[u8] = if from_client {
        b"client finished"
    } else {
        b"server finished"
    };
    prf(master, label, transcript_hash, VERIFY_DATA_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_crypto::sha256::sha256;

    #[test]
    fn master_secret_is_48_bytes_and_deterministic() {
        let pm = [1u8; 48];
        let cr = [2u8; 32];
        let sr = [3u8; 32];
        let m1 = master_secret(&pm, &cr, &sr);
        let m2 = master_secret(&pm, &cr, &sr);
        assert_eq!(m1, m2);
        assert_eq!(m1.len(), 48);
    }

    #[test]
    fn master_secret_depends_on_all_inputs() {
        let base = master_secret(&[1; 48], &[2; 32], &[3; 32]);
        assert_ne!(base, master_secret(&[9; 48], &[2; 32], &[3; 32]));
        assert_ne!(base, master_secret(&[1; 48], &[9; 32], &[3; 32]));
        assert_ne!(base, master_secret(&[1; 48], &[2; 32], &[9; 32]));
    }

    #[test]
    fn key_block_sizes_per_suite() {
        let master = [7u8; 48];
        let keys = key_block(
            &master,
            &[1; 32],
            &[2; 32],
            CipherSuite::EcdheRsaAes128CbcSha256,
        );
        assert_eq!(keys.client_write.mac_key.len(), 32);
        assert_eq!(keys.client_write.enc_key.len(), 16);
        assert_eq!(keys.client_write.fixed_iv.len(), 16);
        let keys = key_block(
            &master,
            &[1; 32],
            &[2; 32],
            CipherSuite::EcdheRsaChaCha20Poly1305,
        );
        assert_eq!(keys.client_write.mac_key.len(), 0);
        assert_eq!(keys.client_write.enc_key.len(), 32);
        assert_eq!(keys.client_write.fixed_iv.len(), 12);
    }

    #[test]
    fn directions_have_distinct_keys() {
        let keys = key_block(
            &[7; 48],
            &[1; 32],
            &[2; 32],
            CipherSuite::EcdheRsaChaCha20Poly1305,
        );
        assert_ne!(keys.client_write.enc_key, keys.server_write.enc_key);
        assert_ne!(keys.client_write.fixed_iv, keys.server_write.fixed_iv);
    }

    #[test]
    fn resumption_key_property() {
        // Same master secret + fresh randoms → fresh keys. This is exactly
        // what an abbreviated handshake does.
        let master = [5u8; 48];
        let k1 = key_block(
            &master,
            &[1; 32],
            &[2; 32],
            CipherSuite::EcdheRsaChaCha20Poly1305,
        );
        let k2 = key_block(
            &master,
            &[3; 32],
            &[4; 32],
            CipherSuite::EcdheRsaChaCha20Poly1305,
        );
        assert_ne!(k1.client_write.enc_key, k2.client_write.enc_key);
    }

    #[test]
    fn transcript_order_sensitivity() {
        let mut t1 = Transcript::default();
        t1.add(b"aaa");
        t1.add(b"bbb");
        let mut t2 = Transcript::default();
        t2.add(b"bbb");
        t2.add(b"aaa");
        assert_ne!(t1.hash(), t2.hash());
        // Non-destructive reads.
        let h = t1.hash();
        assert_eq!(t1.hash(), h);
        t1.add(b"c");
        assert_ne!(t1.hash(), h);
    }

    #[test]
    fn default_transcript_hashes_like_sha256() {
        let mut t = Transcript::default();
        assert_eq!(t.hash(), sha256(b""));
        t.add(b"client hello");
        t.add(b"server hello");
        assert_eq!(t.hash(), sha256(b"client helloserver hello"));
    }

    #[test]
    fn verify_data_distinguishes_roles() {
        let master = [9u8; 48];
        let th = [4u8; 32];
        let c = verify_data(&master, &th, true);
        let s = verify_data(&master, &th, false);
        assert_eq!(c.len(), VERIFY_DATA_LEN);
        assert_ne!(c, s);
    }
}
