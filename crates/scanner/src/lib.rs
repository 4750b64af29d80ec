//! # ts-scanner — the modified-ZMap/zgrab toolchain analogue
//!
//! The paper's measurements ran on a ZMap toolchain modified to support
//! session-ID and ticket resumption. This crate is that toolchain against
//! the simulated Internet:
//!
//! * [`grab`] — one TLS connection with full observation capture
//!   (suite, trust, session ID, ticket + STEK identifier, server KEX value)
//! * [`burst`] — the 10-connection-per-domain scans behind Table 1
//! * [`probe`] — resumption-lifetime probing (1 s, then every 5 min up to
//!   24 h) behind Figures 1 and 2
//! * [`daily`] — the 63-day daily campaign behind Figures 3–5 and
//!   Tables 2–4
//! * [`crossdomain`] — the §5 sharing experiments (session caches via
//!   cross-domain resumption; STEKs and DH values via identifier matching)
//!
//! The scanner honours the institutional blacklist and restricts analysis
//! to browser-trusted domains, exactly as §3 describes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod crossdomain;
pub mod daily;
pub mod grab;
pub mod probe;

pub use daily::{CampaignOptions, CampaignSink};
pub use grab::{Grab, GrabFailure, GrabOptions, KexObservation, Observation, Scanner, SuiteOffer};
pub use probe::ProbeSchedule;
