//! RFC 5077 session tickets and STEK management.
//!
//! The ticket layout follows RFC 5077 §4's recommendation exactly:
//!
//! ```text
//! key_name(16) || IV(16) || AES-128-CBC(state) || HMAC-SHA256 tag(32)
//! ```
//!
//! `key_name` is the **STEK identifier** the paper's scanner fingerprints
//! to measure STEK lifetime (§4.3): it identifies which Session Ticket
//! Encryption Key encrypted the state, is sent in the clear, and changes
//! exactly when the STEK rotates.
//!
//! Besides the standard format we implement the two real-world deviations
//! the paper §4.3 had to handle:
//! * **mbedTLS** uses a 4-byte key name;
//! * **SChannel** wraps tickets in an ASN.1 object containing a DPAPI-like
//!   blob whose *Master Key GUID* serves as the STEK identifier.
//!
//! [`StekManager`] owns the active key plus recently retired ones (servers
//! accept tickets under old keys during overlap windows — Google §7.2:
//! 14-hour rollover, 28-hour acceptance) and implements the rotation
//! policies observed in the wild.

use crate::error::TlsError;
use crate::session::SessionState;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ts_crypto::aead::{cbc_hmac_open, cbc_hmac_seal};
use ts_crypto::drbg::HmacDrbg;
use ts_telemetry::Counter;

static STEK_ROTATIONS: Counter = Counter::new("tls.stek.rotations");

/// Standard STEK identifier ("key_name") length.
pub const KEY_NAME_LEN: usize = 16;

/// How a ticket is laid out on the wire — per server software.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TicketFormat {
    /// RFC 5077 recommended layout, 16-byte key name (OpenSSL, LibreSSL,
    /// GnuTLS, NSS).
    Rfc5077,
    /// mbedTLS: same layout with a 4-byte key name.
    MbedTls,
    /// SChannel: ASN.1-wrapped blob carrying a Master Key GUID.
    SChannel,
}

impl TicketFormat {
    /// Length of this format's STEK identifier.
    pub fn key_name_len(self) -> usize {
        match self {
            TicketFormat::Rfc5077 => KEY_NAME_LEN,
            TicketFormat::MbedTls => 4,
            TicketFormat::SChannel => 16, // the GUID
        }
    }
}

/// A Session Ticket Encryption Key.
///
/// A stolen STEK retroactively decrypts every ticket sealed under it
/// (§6.1), so retired keys are wiped the moment they drop out of the
/// acceptance window.
// ctlint: secret
// ctlint: lifetime(epoch)
#[derive(Clone)]
pub struct Stek {
    /// Public identifier embedded cleartext in every ticket (the
    /// fingerprint the scanner tracks) — not key material.
    // ctlint: public
    pub key_name: [u8; KEY_NAME_LEN],
    /// AES-128 encryption key. **The** secret of §6.1.
    pub enc_key: [u8; 16],
    /// HMAC-SHA256 key.
    pub mac_key: [u8; 32],
    /// Virtual time the key was generated.
    pub created_at: u64,
}

impl ts_crypto::wipe::Wipe for Stek {
    fn wipe(&mut self) {
        ts_crypto::wipe::wipe_bytes(&mut self.enc_key);
        ts_crypto::wipe::wipe_bytes(&mut self.mac_key);
    }
}

impl Drop for Stek {
    fn drop(&mut self) {
        use ts_crypto::wipe::Wipe;
        self.wipe();
    }
}

impl std::fmt::Debug for Stek {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(
            f,
            "Stek(name={}, created_at={})",
            hex(&self.key_name[..4]),
            self.created_at
        )
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

impl Stek {
    /// Generate a fresh random STEK.
    pub fn generate(rng: &mut HmacDrbg, now: u64) -> Self {
        let mut key_name = [0u8; KEY_NAME_LEN];
        rng.fill_bytes(&mut key_name);
        let mut enc_key = [0u8; 16];
        rng.fill_bytes(&mut enc_key);
        let mut mac_key = [0u8; 32];
        rng.fill_bytes(&mut mac_key);
        Stek {
            key_name,
            enc_key,
            mac_key,
            created_at: now,
        }
    }

    /// Load a STEK from a 48-byte key file (the Apache/Nginx
    /// `ssl_session_ticket_key` mechanism: key name, enc key, MAC key
    /// truncated/expanded — we use name(16) || enc(16) || mac-seed(16)).
    pub fn from_key_file(bytes: &[u8; 48], now: u64) -> Self {
        let mut key_name = [0u8; KEY_NAME_LEN];
        key_name.copy_from_slice(&bytes[..16]);
        let mut enc_key = [0u8; 16];
        enc_key.copy_from_slice(&bytes[16..32]);
        // Expand the 16-byte MAC seed to 32 via HMAC for a full-strength key.
        let mac_key = ts_crypto::hmac::hmac_sha256(&bytes[32..48], b"stek mac key");
        Stek {
            key_name,
            enc_key,
            mac_key,
            created_at: now,
        }
    }

    /// Encrypt session state into a ticket in the given format.
    pub fn seal(&self, state: &SessionState, format: TicketFormat, rng: &mut HmacDrbg) -> Vec<u8> {
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        let name: &[u8] = match format {
            TicketFormat::Rfc5077 | TicketFormat::SChannel => &self.key_name,
            TicketFormat::MbedTls => &self.key_name[..4],
        };
        let sealed = cbc_hmac_seal(&self.enc_key, &self.mac_key, &iv, name, &state.to_bytes());
        match format {
            TicketFormat::Rfc5077 | TicketFormat::MbedTls => {
                let mut out = Vec::with_capacity(name.len() + sealed.len());
                out.extend_from_slice(name);
                out.extend_from_slice(&sealed);
                out
            }
            TicketFormat::SChannel => encode_schannel(&self.key_name, &sealed),
        }
    }

    /// Attempt to decrypt a ticket. Fails if the key name doesn't match or
    /// the MAC rejects.
    pub fn open(&self, ticket: &[u8], format: TicketFormat) -> Result<SessionState, TlsError> {
        let (name, sealed) = split_ticket(ticket, format)?;
        let expect: &[u8] = match format {
            TicketFormat::Rfc5077 | TicketFormat::SChannel => &self.key_name,
            TicketFormat::MbedTls => &self.key_name[..4],
        };
        if name != expect {
            return Err(TlsError::Decode("ticket key name mismatch"));
        }
        let pt = cbc_hmac_open(&self.enc_key, &self.mac_key, name, sealed)?;
        SessionState::from_bytes(&pt).ok_or(TlsError::Decode("ticket state malformed"))
    }
}

/// Extract (key-name/GUID, sealed body) from a ticket.
pub fn split_ticket(ticket: &[u8], format: TicketFormat) -> Result<(&[u8], &[u8]), TlsError> {
    match format {
        TicketFormat::Rfc5077 => {
            if ticket.len() < KEY_NAME_LEN {
                return Err(TlsError::Decode("ticket too short"));
            }
            Ok(ticket.split_at(KEY_NAME_LEN))
        }
        TicketFormat::MbedTls => {
            if ticket.len() < 4 {
                return Err(TlsError::Decode("ticket too short"));
            }
            Ok(ticket.split_at(4))
        }
        TicketFormat::SChannel => decode_schannel(ticket),
    }
}

/// Extract just the STEK identifier bytes — what the scanner records.
/// (§4.3: "popular server implementations include a 16-byte STEK
/// identifier in the ticket".)
pub fn extract_stek_id(ticket: &[u8], format: TicketFormat) -> Result<Vec<u8>, TlsError> {
    Ok(split_ticket(ticket, format)?.0.to_vec())
}

/// Sniff the format of an unknown ticket the way the paper's modified
/// zgrab did: try SChannel's ASN.1 shape first, fall back to RFC 5077.
/// (mbedTLS is indistinguishable from RFC 5077 on the wire without the
/// server-software hint, so the scanner passes a hint where it has one.)
pub fn sniff_format(ticket: &[u8]) -> TicketFormat {
    if decode_schannel(ticket).is_ok() {
        TicketFormat::SChannel
    } else {
        TicketFormat::Rfc5077
    }
}

// SChannel-flavoured wrapper: SEQUENCE { INTEGER version, OCTET STRING guid,
// OCTET STRING blob } — close enough to the DPAPI shape that parsing it
// exercises the same scanner logic the paper describes.
fn encode_schannel(guid: &[u8; 16], sealed: &[u8]) -> Vec<u8> {
    let mut inner = Vec::with_capacity(sealed.len() + 32);
    inner.extend_from_slice(&[0x02, 0x01, 0x01]); // INTEGER 1
    inner.push(0x04);
    inner.push(16);
    inner.extend_from_slice(guid);
    inner.push(0x04);
    // Long-form length for the blob.
    if sealed.len() < 0x80 {
        inner.push(sealed.len() as u8);
    } else {
        let len_bytes = (sealed.len() as u32).to_be_bytes();
        let skip = len_bytes.iter().take_while(|&&b| b == 0).count();
        inner.push(0x80 | (4 - skip) as u8);
        inner.extend_from_slice(&len_bytes[skip..]);
    }
    inner.extend_from_slice(sealed);
    let mut out = Vec::with_capacity(inner.len() + 4);
    out.push(0x30);
    if inner.len() < 0x80 {
        out.push(inner.len() as u8);
    } else {
        let len_bytes = (inner.len() as u32).to_be_bytes();
        let skip = len_bytes.iter().take_while(|&&b| b == 0).count();
        out.push(0x80 | (4 - skip) as u8);
        out.extend_from_slice(&len_bytes[skip..]);
    }
    out.extend_from_slice(&inner);
    out
}

fn decode_schannel(ticket: &[u8]) -> Result<(&[u8], &[u8]), TlsError> {
    let err = || TlsError::Decode("not an SChannel ticket");
    let mut pos = 0usize;
    let read_len = |data: &[u8], pos: &mut usize| -> Result<usize, TlsError> {
        let first = *data.get(*pos).ok_or_else(err)?;
        *pos += 1;
        if first < 0x80 {
            Ok(first as usize)
        } else {
            let n = (first & 0x7f) as usize;
            if n == 0 || n > 4 || *pos + n > data.len() {
                return Err(err());
            }
            let mut len = 0usize;
            for i in 0..n {
                len = (len << 8) | data[*pos + i] as usize;
            }
            *pos += n;
            Ok(len)
        }
    };
    if ticket.get(pos) != Some(&0x30) {
        return Err(err());
    }
    pos += 1;
    let seq_len = read_len(ticket, &mut pos)?;
    if pos + seq_len != ticket.len() {
        return Err(err());
    }
    // INTEGER 1
    if ticket.get(pos..pos + 3) != Some(&[0x02, 0x01, 0x01]) {
        return Err(err());
    }
    pos += 3;
    // OCTET STRING guid(16)
    if ticket.get(pos) != Some(&0x04) || ticket.get(pos + 1) != Some(&16) {
        return Err(err());
    }
    pos += 2;
    let guid = ticket.get(pos..pos + 16).ok_or_else(err)?;
    pos += 16;
    // OCTET STRING blob
    if ticket.get(pos) != Some(&0x04) {
        return Err(err());
    }
    pos += 1;
    let blob_len = read_len(ticket, &mut pos)?;
    let blob = ticket.get(pos..pos + blob_len).ok_or_else(err)?;
    if pos + blob_len != ticket.len() {
        return Err(err());
    }
    Ok((guid, blob))
}

/// When (if ever) a server's STEK changes (§4.3's observed behaviours).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationPolicy {
    /// A pre-generated key file, synchronized across servers, changed only
    /// by administrator action: effectively never rotates (Fastly, Yandex).
    Static,
    /// Random key at process start, kept for the process lifetime; rotates
    /// only when the server restarts (Apache/Nginx default without a key
    /// file). The period is the (population-assigned) restart interval.
    OnRestart {
        /// Virtual seconds between restarts.
        restart_interval: u64,
    },
    /// Custom rotation infrastructure (Twitter/Google/CloudFlare):
    /// a fresh key every `period`, old keys accepted for `overlap` after
    /// retirement.
    Periodic {
        /// Rotation period in virtual seconds.
        period: u64,
        /// Acceptance overlap for retired keys.
        overlap: u64,
    },
}

/// Owns the active STEK and retired-but-still-accepted STEKs.
///
/// Declared `lifetime(process)`: the manager lives as long as the server,
/// and every epoch- or connection-class secret it holds (the active STEK,
/// the retired acceptance window, the DRBG state) is a measured crypto
/// shortcut — each carries a `[[lifetime]]` waiver citing the window.
// ctlint: lifetime(process)
pub struct StekManager {
    policy: RotationPolicy,
    format: TicketFormat,
    active: Stek,
    retired: Vec<Stek>,
    rng: HmacDrbg,
}

impl StekManager {
    /// Create with a fresh random key at time `now`.
    pub fn new(policy: RotationPolicy, format: TicketFormat, mut rng: HmacDrbg, now: u64) -> Self {
        let active = Stek::generate(&mut rng, now);
        StekManager {
            policy,
            format,
            active,
            retired: Vec::new(),
            rng,
        }
    }

    /// Create from a synchronized 48-byte key file (Static policy).
    pub fn from_key_file(bytes: &[u8; 48], format: TicketFormat, rng: HmacDrbg, now: u64) -> Self {
        StekManager {
            policy: RotationPolicy::Static,
            format,
            active: Stek::from_key_file(bytes, now),
            retired: Vec::new(),
            rng,
        }
    }

    /// The ticket format in use.
    pub fn format(&self) -> TicketFormat {
        self.format
    }

    /// The rotation policy.
    pub fn policy(&self) -> RotationPolicy {
        self.policy
    }

    /// Advance virtual time: rotate/retire keys as the policy dictates.
    pub fn tick(&mut self, now: u64) {
        let rotate_every = match self.policy {
            RotationPolicy::Static => return,
            RotationPolicy::OnRestart { restart_interval } => restart_interval,
            RotationPolicy::Periodic { period, .. } => period,
        };
        let overlap = match self.policy {
            RotationPolicy::Periodic { overlap, .. } => overlap,
            // A restart wipes process memory: no overlap.
            _ => 0,
        };
        while now.saturating_sub(self.active.created_at) >= rotate_every {
            let new_created = self.active.created_at + rotate_every;
            let fresh = Stek::generate(&mut self.rng, new_created);
            let old = std::mem::replace(&mut self.active, fresh);
            if overlap > 0 {
                self.retired.push(old);
            }
            STEK_ROTATIONS.inc();
            ts_telemetry::emit(ts_telemetry::Event::StekRotation { now: new_created });
        }
        // Drop retired keys past their acceptance overlap. Their
        // retirement moment is the creation of their successor, i.e.
        // `created_at + rotate_every`.
        self.retired
            .retain(|k| now.saturating_sub(k.created_at + rotate_every) < overlap);
    }

    /// Issue a ticket for `state` at time `now`.
    pub fn issue(&mut self, state: &SessionState, now: u64) -> Vec<u8> {
        self.tick(now);
        self.active.seal(state, self.format, &mut self.rng)
    }

    /// Try to decrypt a presented ticket at time `now`, checking the
    /// active key then any retired keys still in the acceptance window.
    pub fn accept(&mut self, ticket: &[u8], now: u64) -> Result<SessionState, TlsError> {
        self.tick(now);
        if let Ok(state) = self.active.open(ticket, self.format) {
            return Ok(state);
        }
        for key in &self.retired {
            if let Ok(state) = key.open(ticket, self.format) {
                return Ok(state);
            }
        }
        Err(TlsError::Decode("no STEK accepts this ticket"))
    }

    /// The active STEK identifier (as it appears in issued tickets).
    pub fn active_key_name(&self) -> Vec<u8> {
        self.active.key_name[..self.format.key_name_len()].to_vec()
    }

    /// Attacker model: steal every key currently in memory, the active
    /// key first.
    pub fn steal_keys(&self) -> Vec<Stek> {
        let mut out = vec![self.active.clone()];
        out.extend(self.retired.iter().cloned());
        out
    }
}

/// An immutable snapshot of the keys that decide ticket acceptance at a
/// moment in virtual time: the active STEK plus retired keys still inside
/// their acceptance overlap.
///
/// [`SharedStekManager`] publishes one of these behind an epoch counter;
/// connections pin the `Arc` and decrypt tickets against it without
/// touching the shared manager lock. The container itself is a
/// per-connection view (default connection class); the epoch-class
/// [`Stek`]s inside carry their own annotations and waivers.
pub struct StekSet {
    format: TicketFormat,
    active: Stek,
    accepted_retired: Vec<Stek>,
    /// First virtual time at which this snapshot stops matching the
    /// manager (next rotation due, or a retired key leaving its overlap).
    /// `None` = valid forever (Static policy).
    valid_until: Option<u64>,
}

impl StekSet {
    fn from_manager(m: &StekManager) -> Self {
        let (rotate_every, overlap) = match m.policy {
            RotationPolicy::Static => (None, 0),
            RotationPolicy::OnRestart { restart_interval } => (Some(restart_interval), 0),
            RotationPolicy::Periodic { period, overlap } => (Some(period), overlap),
        };
        let mut valid_until = rotate_every.map(|r| m.active.created_at + r);
        if let Some(rotate_every) = rotate_every {
            for k in &m.retired {
                let expiry = k.created_at + rotate_every + overlap;
                valid_until = Some(valid_until.map_or(expiry, |v| v.min(expiry)));
            }
        }
        StekSet {
            format: m.format,
            active: m.active.clone(),
            accepted_retired: m.retired.clone(),
            valid_until,
        }
    }

    /// Does this snapshot still reflect the manager at `now`?
    fn valid_at(&self, now: u64) -> bool {
        self.valid_until.is_none_or(|t| now < t)
    }

    /// Try the active key, then the retired overlap — the same order as
    /// [`StekManager::accept`].
    fn open(&self, ticket: &[u8]) -> Result<SessionState, TlsError> {
        if let Ok(state) = self.active.open(ticket, self.format) {
            return Ok(state);
        }
        for key in &self.accepted_retired {
            if let Ok(state) = key.open(ticket, self.format) {
                return Ok(state);
            }
        }
        Err(TlsError::Decode("no STEK accepts this ticket"))
    }
}

/// A connection's pin on the published [`StekSet`]: the `Arc` plus the
/// epoch it was taken at. While the epoch matches and the set is still
/// valid, ticket decryption is lock-free.
#[derive(Clone)]
pub struct PinnedStekSet {
    epoch: u64,
    set: Arc<StekSet>,
}

struct SharedStekInner {
    manager: Mutex<StekManager>,
    /// The latest `now` the manager has been ticked to by
    /// [`SharedStekManager::advance`]; an advance to no later time is a
    /// no-op and skips the lock.
    advanced_to: AtomicU64,
    /// Bumped every time `published` is replaced; pinned readers compare
    /// it with a single atomic load before trusting their snapshot.
    // ctlint: publishes(published)
    epoch: AtomicU64,
    published: Mutex<Arc<StekSet>>,
}

/// A STEK manager shareable across the servers of a service group —
/// the §5.2 "shared STEK" phenomenon (CloudFlare: 62,176 domains).
///
/// The canonical [`StekManager`] sits behind one mutex, but the accept
/// hot path never takes it: a published `Arc<StekSet>` snapshot (epoch-
/// stamped) serves ticket decryption lock-free once a connection has
/// pinned it. The manager lock is only touched when virtual time crosses
/// a rotation or overlap boundary — exactly when the key material
/// actually changes.
#[derive(Clone)]
pub struct SharedStekManager(Arc<SharedStekInner>);

impl SharedStekManager {
    /// Wrap a manager and publish its initial snapshot.
    pub fn new(manager: StekManager) -> Self {
        let published = Arc::new(StekSet::from_manager(&manager));
        SharedStekManager(Arc::new(SharedStekInner {
            manager: Mutex::new(manager),
            advanced_to: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            published: Mutex::new(published),
        }))
    }

    /// Issue a ticket. Sealing draws IVs from the manager's DRBG, so it
    /// stays under the manager lock.
    pub fn issue(&self, state: &SessionState, now: u64) -> Vec<u8> {
        self.0.manager.lock().issue(state, now)
    }

    /// Advance virtual time to `now`: rotate and retire keys as the
    /// policy dictates, as [`Self::issue`] does before sealing. A tick
    /// never undoes one at a later time, so advancing to a time no later
    /// than an earlier advance changes nothing; that case takes no lock.
    pub fn advance(&self, now: u64) {
        if now <= self.0.advanced_to.load(Ordering::Acquire) {
            return;
        }
        self.0.manager.lock().tick(now);
        self.0.advanced_to.fetch_max(now, Ordering::AcqRel);
    }

    /// Accept a ticket without a standing pin (locks the snapshot mutex
    /// briefly; rotation only when due).
    pub fn accept(&self, ticket: &[u8], now: u64) -> Result<SessionState, TlsError> {
        let mut pin = None;
        self.accept_pinned(&mut pin, ticket, now)
    }

    /// Accept a ticket through an epoch-pinned snapshot.
    ///
    /// Fast path (pin present, epoch unchanged, no rotation due): one
    /// atomic load, then ticket decryption against the pinned `Arc` —
    /// no lock at all. Otherwise the pin is refreshed from the published
    /// snapshot, advancing the manager only when a boundary was crossed.
    pub fn accept_pinned(
        &self,
        pin: &mut Option<PinnedStekSet>,
        ticket: &[u8],
        now: u64,
    ) -> Result<SessionState, TlsError> {
        if let Some(p) = pin {
            if p.epoch == self.0.epoch.load(Ordering::Acquire) && p.set.valid_at(now) {
                return p.set.open(ticket);
            }
        }
        let fresh = self.refresh_pin(now);
        let result = fresh.set.open(ticket);
        *pin = Some(fresh);
        result
    }

    /// Current pin for `now` — republishing from the manager only if the
    /// published snapshot went stale.
    fn refresh_pin(&self, now: u64) -> PinnedStekSet {
        let inner = &*self.0;
        let mut published = inner.published.lock();
        if published.valid_at(now) {
            return PinnedStekSet {
                epoch: inner.epoch.load(Ordering::Acquire),
                set: published.clone(),
            };
        }
        let mut manager = inner.manager.lock();
        manager.tick(now);
        let set = Arc::new(StekSet::from_manager(&manager));
        drop(manager);
        *published = set.clone();
        // Publish under the snapshot lock so (epoch, set) stay paired.
        let epoch = inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        PinnedStekSet { epoch, set }
    }

    /// Ticket format.
    pub fn format(&self) -> TicketFormat {
        self.0.manager.lock().format()
    }

    /// Active key name after advancing to `now`.
    pub fn active_key_name_at(&self, now: u64) -> Vec<u8> {
        let mut m = self.0.manager.lock();
        m.tick(now);
        m.active_key_name()
    }

    /// Steal in-memory keys (attacker model).
    pub fn steal_keys(&self) -> Vec<Stek> {
        self.0.manager.lock().steal_keys()
    }

    /// Same underlying manager?
    pub fn same_manager(&self, other: &SharedStekManager) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::CipherSuite;

    fn state() -> SessionState {
        SessionState {
            master_secret: [0x11; 48],
            cipher_suite: CipherSuite::EcdheRsaChaCha20Poly1305,
            established_at: 500,
            server_name: "tickets.sim".into(),
        }
    }

    fn rng(seed: &[u8]) -> HmacDrbg {
        HmacDrbg::new(seed)
    }

    #[test]
    fn seal_open_roundtrip_all_formats() {
        let mut r = rng(b"fmt");
        for format in [
            TicketFormat::Rfc5077,
            TicketFormat::MbedTls,
            TicketFormat::SChannel,
        ] {
            let stek = Stek::generate(&mut r, 0);
            let ticket = stek.seal(&state(), format, &mut r);
            assert_eq!(stek.open(&ticket, format).unwrap(), state(), "{format:?}");
        }
    }

    #[test]
    fn stek_id_extraction_matches_format() {
        let mut r = rng(b"extract");
        let stek = Stek::generate(&mut r, 0);
        let t = stek.seal(&state(), TicketFormat::Rfc5077, &mut r);
        assert_eq!(
            extract_stek_id(&t, TicketFormat::Rfc5077).unwrap(),
            stek.key_name.to_vec()
        );
        let t = stek.seal(&state(), TicketFormat::MbedTls, &mut r);
        assert_eq!(
            extract_stek_id(&t, TicketFormat::MbedTls).unwrap(),
            stek.key_name[..4].to_vec()
        );
        let t = stek.seal(&state(), TicketFormat::SChannel, &mut r);
        assert_eq!(
            extract_stek_id(&t, TicketFormat::SChannel).unwrap(),
            stek.key_name.to_vec()
        );
    }

    #[test]
    fn sniffer_distinguishes_schannel() {
        let mut r = rng(b"sniff");
        let stek = Stek::generate(&mut r, 0);
        let t = stek.seal(&state(), TicketFormat::SChannel, &mut r);
        assert_eq!(sniff_format(&t), TicketFormat::SChannel);
        let t = stek.seal(&state(), TicketFormat::Rfc5077, &mut r);
        assert_eq!(sniff_format(&t), TicketFormat::Rfc5077);
    }

    #[test]
    fn wrong_stek_rejects() {
        let mut r = rng(b"wrong");
        let a = Stek::generate(&mut r, 0);
        let b = Stek::generate(&mut r, 0);
        let ticket = a.seal(&state(), TicketFormat::Rfc5077, &mut r);
        assert!(b.open(&ticket, TicketFormat::Rfc5077).is_err());
    }

    #[test]
    fn tampered_ticket_rejects() {
        let mut r = rng(b"tamper");
        let stek = Stek::generate(&mut r, 0);
        let mut ticket = stek.seal(&state(), TicketFormat::Rfc5077, &mut r);
        let mid = ticket.len() / 2;
        ticket[mid] ^= 1;
        assert!(stek.open(&ticket, TicketFormat::Rfc5077).is_err());
    }

    #[test]
    fn key_file_loading_is_deterministic() {
        let bytes = [0x42u8; 48];
        let a = Stek::from_key_file(&bytes, 0);
        let b = Stek::from_key_file(&bytes, 100);
        assert_eq!(a.key_name, b.key_name);
        assert_eq!(a.enc_key, b.enc_key);
        assert_eq!(a.mac_key, b.mac_key);
        // Cross-process ticket acceptance: a ticket sealed by one file-load
        // opens under another (the synchronization the paper describes).
        let mut r = rng(b"kf");
        let ticket = a.seal(&state(), TicketFormat::Rfc5077, &mut r);
        assert_eq!(b.open(&ticket, TicketFormat::Rfc5077).unwrap(), state());
    }

    /// The keys an attacker would steal, as (key name, creation time).
    fn snapshot(m: &StekManager) -> Vec<([u8; KEY_NAME_LEN], u64)> {
        m.steal_keys()
            .iter()
            .map(|k| (k.key_name, k.created_at))
            .collect()
    }

    #[test]
    fn static_policy_never_rotates() {
        let mut m = StekManager::new(RotationPolicy::Static, TicketFormat::Rfc5077, rng(b"s"), 0);
        let at_start = snapshot(&m);
        assert_eq!(at_start.len(), 1);
        for now in [1, 86_400, 86_400 * 365] {
            m.tick(now);
            assert_eq!(snapshot(&m), at_start, "at {now}");
        }
    }

    #[test]
    fn periodic_policy_rotates_and_overlaps() {
        // Google-like: rotate every 14h, accept for another 14h.
        let period = 14 * 3600;
        let overlap = 14 * 3600;
        let mut m = StekManager::new(
            RotationPolicy::Periodic { period, overlap },
            TicketFormat::Rfc5077,
            rng(b"goog"),
            0,
        );
        let ticket = m.issue(&state(), 0);
        let name0 = m.active_key_name();
        // Before rotation: same key, ticket accepted.
        assert_eq!(m.active_key_name_after_tick(period - 1), name0);
        assert!(m.accept(&ticket, period - 1).is_ok());
        // After rotation: new key, old ticket still accepted (overlap).
        assert_ne!(m.active_key_name_after_tick(period + 1), name0);
        assert!(m.accept(&ticket, period + overlap - 1).is_ok());
        // Past overlap: rejected.
        assert!(m.accept(&ticket, period + overlap + 1).is_err());
    }

    #[test]
    fn restart_policy_rotates_without_overlap() {
        let mut m = StekManager::new(
            RotationPolicy::OnRestart {
                restart_interval: 1000,
            },
            TicketFormat::Rfc5077,
            rng(b"restart"),
            0,
        );
        let ticket = m.issue(&state(), 10);
        assert!(m.accept(&ticket, 999).is_ok());
        // Restart boundary wipes the old key entirely.
        assert!(m.accept(&ticket, 1001).is_err());
    }

    #[test]
    fn rotation_catches_up_over_long_gaps() {
        let manager = || {
            StekManager::new(
                RotationPolicy::Periodic {
                    period: 100,
                    overlap: 0,
                },
                TicketFormat::Rfc5077,
                rng(b"gap"),
                0,
            )
        };
        // One manager ticked at every period boundary: each tick makes one
        // new key, and no overlap keeps no retired one.
        let mut stepped = manager();
        let mut seen = vec![snapshot(&stepped)];
        for k in 1..=10 {
            stepped.tick(100 * k);
            let keys = snapshot(&stepped);
            assert_eq!(keys.len(), 1, "at {}", 100 * k);
            assert_eq!(keys[0].1, 100 * k);
            assert!(!seen.contains(&keys), "rotation {k} made a new key");
            seen.push(keys);
        }
        // 10 periods elapsed in one tick → the same 10 rotations.
        let mut jumped = manager();
        jumped.tick(1000);
        assert_eq!(snapshot(&jumped), snapshot(&stepped));
    }

    #[test]
    fn steal_keys_exposes_active_and_retired() {
        let mut m = StekManager::new(
            RotationPolicy::Periodic {
                period: 100,
                overlap: 100,
            },
            TicketFormat::Rfc5077,
            rng(b"steal"),
            0,
        );
        m.tick(150);
        let stolen = m.steal_keys();
        assert_eq!(stolen.len(), 2, "active + one retired within overlap");
        m.tick(500);
        assert_eq!(m.steal_keys().len(), 2, "steady state");
    }

    #[test]
    fn shared_manager_shares_key_rotation() {
        let m = StekManager::new(RotationPolicy::Static, TicketFormat::Rfc5077, rng(b"sh"), 0);
        let a = SharedStekManager::new(m);
        let b = a.clone();
        assert!(a.same_manager(&b));
        let ticket = a.issue(&state(), 0);
        assert_eq!(b.accept(&ticket, 10).unwrap(), state());
        assert_eq!(a.active_key_name_at(0), b.active_key_name_at(0));
    }

    impl StekManager {
        fn active_key_name_after_tick(&mut self, now: u64) -> Vec<u8> {
            self.tick(now);
            self.active_key_name()
        }
    }
}
