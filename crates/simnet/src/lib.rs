//! # ts-simnet — a deterministic in-memory Internet for TLS measurement
//!
//! The paper's substrate is the live Internet; ours is this crate. It
//! provides exactly the network behaviours the measurement methodology
//! interacts with:
//!
//! * [`clock`] — virtual time (seconds), with day arithmetic matching the
//!   paper's daily-scan cadence
//! * [`addr`] — IPv4 addresses grouped into autonomous systems (the §5.1
//!   cross-domain experiment samples "up to five other sites in its AS")
//! * [`dns`] — A records (multiple per domain, randomized selection — the
//!   jitter source §4.3 discusses), MX records (the §7.2 Google-SMTP
//!   analysis), and churn-able zones
//! * [`net`] — the network itself: IPs bound to [`TlsResponder`]s (SSL
//!   terminators), network-wide transient failures, and a [`SimNet::connect`]
//!   that runs a real TLS handshake from the `ts-tls` stack and returns
//!   both the client connection and a passive wire capture
//!
//! Everything is seeded: a campaign replays byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod dns;
pub mod net;

pub use addr::{AsId, Ip};
pub use clock::Clock;
pub use dns::Dns;
pub use net::{ConnectError, SimNet, TlsResponder};
