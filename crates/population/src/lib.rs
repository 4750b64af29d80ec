//! # ts-population — a synthetic Alexa-like HTTPS ecosystem
//!
//! Builds the world the scanner measures: a ranked list of domains hosted
//! on SSL terminators whose behaviour profiles are calibrated to what the
//! paper observed in the real Top Million —
//!
//! * HTTPS / browser-trust rates and daily list churn (§3)
//! * per-software session-cache and ticket defaults (Apache 5 min,
//!   Nginx 3 min tickets, IIS 10 h caches — §4.1/§4.2)
//! * STEK rotation behaviour spanning daily rotation to never (§4.3)
//! * DHE/ECDHE ephemeral-value reuse populations (§4.4)
//! * named "operators" mirroring the paper's service groups: a large CDN
//!   (CloudFlare-like), a big tech company with 14 h STEK rotation
//!   (Google-like), a never-rotating CDN (Fastly-like), shared hosters,
//!   and the individual notable domains of Tables 2–4 (§5, §7)
//!
//! Counts are expressed in parts-per-million of the paper's Top Million
//! and scaled to the configured population size, so proportions — the
//! quantities the reproduction must preserve — are size-invariant.
//!
//! Everything derives deterministically from the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod churn;
pub mod ground_truth;
pub mod keys;
pub mod operators;
pub mod profile;
pub mod terminator;

pub use build::{Population, PopulationConfig};
pub use ground_truth::GroundTruth;
pub use keys::KeyMaterial;
pub use profile::{CachePolicy, DomainBehavior, Software, TicketPolicy};
pub use terminator::Terminator;
