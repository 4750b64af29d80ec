//! The sans-I/O connection core shared by [`crate::client::ClientConn`]
//! and [`crate::server::ServerConn`].
//!
//! The state machines never touch a socket. Callers move bytes with the
//! two explicit ports — [`ConnectionCommon::read_tls`] (transport →
//! connection) and [`ConnectionCommon::write_tls`] (connection →
//! transport) — then call `process_new_packets()` on the concrete
//! connection type to advance the handshake. [`ConnectionCommon::wants_read`]
//! / [`ConnectionCommon::wants_write`] tell an event loop what to poll
//! for, and [`IoState`] summarises what a processing step produced.
//!
//! This is the rustls-style inversion: one buffering core, two thin
//! protocol "sides" (a [`Side`] implementation per role) that only ever
//! see whole handshake messages. The outgoing buffer is persistent — a
//! drain cursor, not a fresh `Vec` per flight — so a load generator
//! driving millions of handshakes does not churn the allocator.

use crate::alert::{Alert, AlertDescription};
use crate::error::TlsError;
use crate::keys::{verify_data, Transcript, MASTER_SECRET_LEN};
use crate::suites::CipherSuite;
use crate::wire::handshake::{Finished, HandshakeMessage, HandshakeReassembler};
use crate::wire::record::{ContentType, DirectionKeys, RecordLayer};
use std::io;

/// What a `process_new_packets()` step left behind for the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoState {
    /// TLS bytes queued for the transport (drain with `write_tls`).
    pub tls_bytes_to_write: usize,
    /// Decrypted application bytes available (`recv_app_data`).
    pub plaintext_bytes_to_read: usize,
    /// The peer sent close_notify.
    pub peer_has_closed: bool,
    /// The handshake has not completed yet.
    pub handshaking: bool,
}

/// Connection lifecycle, tracked in the shared core so readiness
/// queries need no knowledge of either side's protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Handshaking,
    Established,
    Closed,
    Failed,
}

/// State common to both connection roles: record layer, reassembly,
/// transcript, the persistent outgoing buffer, and the white-box record
/// of the master secret. Each side's handshake state owns the keys it has
/// not yet handed to the record layer.
///
/// Declared `lifetime(connection)`: everything secret in here (master
/// secret, record keys, decrypted plaintext) dies with the connection —
/// this struct is the yardstick the longer-lived caches are measured
/// against.
// ctlint: lifetime(connection)
pub struct ConnectionCommon {
    pub(crate) records: RecordLayer,
    pub(crate) reasm: HandshakeReassembler,
    pub(crate) transcript: Transcript,
    // Outgoing wire bytes: anything here is already on the network.
    // Persistent across flights; `out_pos` is the drain cursor.
    // ctlint: public
    out: Vec<u8>,
    out_pos: usize,
    pub(crate) status: Status,
    /// The negotiated suite, which the reassembler needs to decode key
    /// exchange messages. The state machines carry their own copy.
    pub(crate) suite: Option<CipherSuite>,
    // Randoms travel cleartext in the hellos.
    // ctlint: public
    pub(crate) client_random: [u8; 32],
    // ctlint: public
    pub(crate) server_random: [u8; 32],
    /// Written once the master secret exists, for [`Self::master_secret`];
    /// the state machines never read it back.
    pub(crate) master: Option<[u8; MASTER_SECRET_LEN]>,
    pub(crate) app_in: Vec<u8>,
}

/// A handshake past its master secret, up to the peer's Finished.
pub(crate) struct Keyed {
    pub(crate) suite: CipherSuite,
    pub(crate) master: [u8; MASTER_SECRET_LEN],
    /// Our write keys while our ChangeCipherSpec and Finished wait for the
    /// peer's Finished; `None` once they are sent.
    pub(crate) reply: Option<DirectionKeys>,
}

impl ConnectionCommon {
    pub(crate) fn new() -> Self {
        ConnectionCommon {
            records: RecordLayer::new(),
            reasm: HandshakeReassembler::new(),
            transcript: Transcript::default(),
            out: Vec::new(),
            out_pos: 0,
            status: Status::Handshaking,
            suite: None,
            client_random: [0; 32],
            server_random: [0; 32],
            master: None,
            app_in: Vec::new(),
        }
    }

    /// Read TLS bytes from the transport into the connection.
    ///
    /// Performs exactly one `read` on `rd`; returns the byte count (0 =
    /// EOF on the transport). Loop while [`Self::wants_read`] and the
    /// transport has data, then call `process_new_packets()`.
    pub fn read_tls(&mut self, rd: &mut dyn io::Read) -> io::Result<usize> {
        let mut buf = [0u8; 4096];
        let n = rd.read(&mut buf)?;
        self.records.feed(&buf[..n]);
        Ok(n)
    }

    /// Write queued TLS bytes to the transport.
    ///
    /// Performs exactly one `write` on `wr` and advances the drain
    /// cursor by the amount accepted. The underlying buffer is reused —
    /// once fully drained it is cleared in place, keeping its capacity.
    pub fn write_tls(&mut self, wr: &mut dyn io::Write) -> io::Result<usize> {
        let pending = &self.out[self.out_pos..];
        if pending.is_empty() {
            return Ok(0);
        }
        let n = wr.write(pending)?;
        self.out_pos += n;
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(n)
    }

    /// Would the connection make progress from more transport bytes?
    pub fn wants_read(&self) -> bool {
        !matches!(self.status, Status::Failed | Status::Closed)
    }

    /// Are TLS bytes queued for the transport?
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.status == Status::Established
    }

    /// True if the connection failed or the peer closed it.
    pub fn is_failed(&self) -> bool {
        matches!(self.status, Status::Failed | Status::Closed)
    }

    /// Queue application data (post-handshake).
    pub fn send_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if self.status != Status::Established {
            return Err(TlsError::NotReady);
        }
        self.queue_record(ContentType::ApplicationData, data);
        Ok(())
    }

    /// Take decrypted application data received so far.
    pub fn recv_app_data(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.app_in)
    }

    /// The running handshake-transcript hash (cleartext-derived; used by
    /// tests to prove chunked and single-shot delivery are equivalent).
    pub fn transcript_hash(&self) -> [u8; 32] {
        self.transcript.hash()
    }

    /// White-box access: the master secret (attacker/verification use).
    pub fn master_secret(&self) -> Option<[u8; 48]> {
        self.master
    }

    /// Encode one record into the persistent outgoing buffer.
    pub(crate) fn queue_record(&mut self, content_type: ContentType, payload: &[u8]) {
        self.records
            .write_record(content_type, payload, &mut self.out);
    }

    /// Transcribe and queue a handshake message.
    pub(crate) fn send_handshake(&mut self, msg: &HandshakeMessage) {
        let encoded = msg.encode();
        self.transcript.add(&encoded);
        self.queue_record(ContentType::Handshake, &encoded);
    }

    /// Check the peer's Finished against the transcript, then transcribe it.
    pub(crate) fn check_finished(
        &mut self,
        master: &[u8; MASTER_SECRET_LEN],
        f: Finished,
        from_client: bool,
    ) -> Result<(), TlsError> {
        let expected = verify_data(master, &self.transcript.hash(), from_client);
        if !ts_crypto::ct::ct_eq(&expected, &f.verify_data) {
            return Err(TlsError::BadFinished);
        }
        self.transcript.add(&HandshakeMessage::Finished(f).encode());
        Ok(())
    }

    /// Queue our ChangeCipherSpec, move `write` into the record layer and
    /// send our Finished under it.
    pub(crate) fn send_finished(
        &mut self,
        write: DirectionKeys,
        master: &[u8; MASTER_SECRET_LEN],
        from_client: bool,
    ) {
        self.queue_record(ContentType::ChangeCipherSpec, &[1]);
        self.records.set_write_keys(write);
        let vd = verify_data(master, &self.transcript.hash(), from_client);
        self.send_handshake(&HandshakeMessage::Finished(Finished { verify_data: vd }));
    }

    pub(crate) fn io_state(&self) -> IoState {
        IoState {
            tls_bytes_to_write: self.out.len() - self.out_pos,
            plaintext_bytes_to_read: self.app_in.len(),
            peer_has_closed: self.status == Status::Closed,
            handshaking: self.status == Status::Handshaking,
        }
    }
}

/// The role-specific half of a connection: interprets whole handshake
/// messages and CCS records against its own protocol state. A message the
/// current state does not name fails with `UnexpectedMessage`.
pub(crate) trait Side {
    /// Handle one reassembled handshake message.
    fn handle_handshake(
        &mut self,
        common: &mut ConnectionCommon,
        msg: HandshakeMessage,
    ) -> Result<(), TlsError>;

    /// Handle a ChangeCipherSpec record (payload included so each side
    /// keeps its historical validation order).
    fn on_peer_ccs(
        &mut self,
        common: &mut ConnectionCommon,
        payload: &[u8],
    ) -> Result<(), TlsError>;

    /// Mirror a failure into the side's own state machine.
    fn set_failed(&mut self);

    /// Hook for sides that meter sent alerts (the server's telemetry).
    fn note_alert_sent(&self, _desc: AlertDescription) {}
}

/// Fail the connection: queue the fatal alert for `err` and surface it.
pub(crate) fn fail_conn<S: Side + ?Sized>(
    common: &mut ConnectionCommon,
    side: &mut S,
    err: TlsError,
) -> Result<IoState, TlsError> {
    let desc = err.alert();
    side.set_failed();
    side.note_alert_sent(desc);
    common.status = Status::Failed;
    let alert = Alert::fatal(desc);
    common.queue_record(ContentType::Alert, &alert.encode());
    Err(err)
}

/// The shared record-demux loop behind `process_new_packets()` on both
/// connection types: drain complete records, reassemble handshake
/// messages, and dispatch to the side until input is exhausted.
pub(crate) fn process<S: Side + ?Sized>(
    common: &mut ConnectionCommon,
    side: &mut S,
) -> Result<IoState, TlsError> {
    match common.status {
        Status::Failed => return Err(TlsError::ConnectionClosed),
        Status::Closed => return Ok(common.io_state()),
        _ => {}
    }
    loop {
        let record = match common.records.next_record() {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(common.io_state()),
            Err(e) => return fail_conn(common, side, e),
        };
        match record.content_type {
            ContentType::Handshake => {
                common.reasm.feed(&record.payload);
                loop {
                    let hint = common.suite;
                    match common.reasm.next(hint) {
                        Ok(Some(msg)) => {
                            if let Err(e) = side.handle_handshake(common, msg) {
                                return fail_conn(common, side, e);
                            }
                        }
                        Ok(None) => break,
                        Err(e) => return fail_conn(common, side, e),
                    }
                }
            }
            ContentType::ChangeCipherSpec => {
                if let Err(e) = side.on_peer_ccs(common, &record.payload) {
                    return fail_conn(common, side, e);
                }
            }
            ContentType::Alert => {
                side.set_failed();
                if let Some(alert) = Alert::decode(&record.payload) {
                    if alert.description != AlertDescription::CloseNotify {
                        common.status = Status::Failed;
                        return Err(TlsError::PeerAlert(alert.description));
                    }
                }
                common.status = Status::Closed;
                return Ok(common.io_state());
            }
            ContentType::ApplicationData => {
                if common.status != Status::Established {
                    return fail_conn(
                        common,
                        side,
                        TlsError::UnexpectedMessage {
                            expected: "handshake completion",
                            got: "ApplicationData",
                        },
                    );
                }
                common.app_in.extend_from_slice(&record.payload);
            }
        }
    }
}
