//! # ts-core — the measurement analysis of *TLS crypto shortcuts*
//!
//! This crate is the paper's primary contribution in library form: given
//! scan observations (produced by `ts-scanner`, but any source works), it
//! computes everything the paper's evaluation reports —
//!
//! * [`observations`] — the scan record types (sightings and probes)
//! * [`json`] — dependency-free JSON tree, the writer behind the
//!   `campaign/v1` summary and the telemetry snapshots
//! * [`par`] — deterministic chunked fan-out (`parallel_map`)
//! * [`stream`] — the estimators, one mergeable accumulator per concept,
//!   under an explicit shard-merge law ([`Merge`]):
//!   - [`SpanAcc`] — first/last-seen spans of STEKs and key-exchange
//!     values (§4.3's jitter-tolerant estimator, Tables 2–4);
//!   - [`CountCdf`] — empirical CDFs for Figures 1, 2, 3, 5, 8;
//!   - [`TierAcc`] — per-rank-tier CDFs (Figure 4);
//!   - [`GroupAcc`] — service groups closed transitively over shared STEK
//!     ids, shared DH values and cross-domain resumption (§5,
//!     Tables 5–7);
//!   - [`TopK`] — the notable-reuser selections
//! * [`groups`] — service-group labels, ordering and statistics
//! * [`exposure`] — per-domain *vulnerability windows* and the combined
//!   maximum-exposure distribution (§6, Figure 8)
//! * [`tiers`] — the paper's rank tiers (Figure 4)
//! * [`treemap`] — size × longevity summaries standing in for the paper's
//!   treemap visualizations (Figures 6, 7)
//! * [`report`] — text tables with paper-vs-measured columns
//!
//! The crate is pure analysis: no networking, no crypto, no simulation —
//! so it can equally post-process real zgrab output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exposure;
pub mod groups;
pub mod json;
pub mod observations;
pub mod par;
pub mod report;
pub mod stream;
pub mod tiers;
pub mod treemap;

pub use exposure::{DomainExposure, ExposureKind};
pub use observations::{KexKind, KexSighting, ResumptionProbe, TicketSighting};
pub use stream::{CountCdf, GroupAcc, Merge, SpanAcc, TierAcc, TopK};
