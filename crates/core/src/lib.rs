#![forbid(unsafe_code)]
//! # authdb-core
//!
//! The paper's primary contribution: scalable query-answer verification for
//! outsourced dynamic databases over signature aggregation.
//!
//! * [`record`] — records `⟨rid, A1..AM, ts⟩` and signing messages.
//! * [`freshness`] — certified bitmap update summaries and empty-table
//!   proofs (Section 3.1).
//! * [`da`] — the trusted Data Aggregator: certification, chaining,
//!   summaries, active renewal.
//! * [`verify`] — the client-side verifier (threat model documented there),
//!   including batched multi-answer verification.
//! * [`adversary`] — the malicious-server conformance subsystem: a tamper
//!   catalog (single-server and cross-shard) every verifier change is
//!   regression-checked against.
//! * [`shard`] — key-range partitioning: the DA-signed shard map, routed
//!   updates, per-shard chains with seam fences, and the fanned-out query
//!   server whose proofs the verifier stitches.
//! * [`sigcache`] — the Section 4 aggregate-signature cache, wired into
//!   [`qs::QueryServer::select_range`] via [`qs::AggCacheConfig`].
//! * [`wire`] — canonical wire codecs for every proof-carrying type and
//!   the QS request/response protocol (served over TCP by `authdb-net`).
//! * [`locks`] — two-phase-locking lock manager (Section 5.1), kept for
//!   the lock-granularity comparison in `tests/concurrency.rs`.

pub mod adversary;
pub mod da;
pub mod embsys;
pub mod freshness;
pub mod join;
pub mod locks;
pub mod policy;
pub mod qs;
pub mod record;
pub mod shard;
pub mod sigcache;
pub mod verify;
pub mod wire;
