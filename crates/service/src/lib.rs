//! Placement-as-a-service: a deterministic TCP job daemon over the portfolio
//! layer.
//!
//! `apls-service` turns the one-shot placement portfolio
//! ([`apls_portfolio::run_portfolio`]) into a long-running service built
//! entirely on `std::net` and `std::sync` — no async runtime, no new
//! dependencies:
//!
//! * **JSON-lines protocol** (`protocol`, [`json`]) — one request object
//!   per line; jobs name a bundled benchmark circuit or carry an inline
//!   [`.apls` circuit](apls_io) plus a [`PortfolioConfig`
//!   subset](apls_portfolio::PortfolioConfig);
//! * **bounded queue + worker pool** ([`PlacementService`]) — a
//!   `sync_channel` of configurable depth feeds N solver threads; a full
//!   queue answers `{"status":"retry"}` instead of buffering unboundedly;
//! * **result cache** ([`cache::LruCache`]) — keyed by (circuit hash,
//!   canonical config string, seed) plus byte-equal canonical circuit text
//!   on hit, so a hash collision is a miss and can never cross-serve a
//!   report; each circuit is resolved to its canonical text and hash once
//!   (bundled names per process, inline text through an intern table) and
//!   reports are stored already escaped, so a hit is a lookup plus a copy;
//!   hits are answered before a queue slot is spent and the response
//!   envelope says so (`"cache_hit": true`);
//! * **determinism** — report bodies are
//!   [`apls_portfolio::PortfolioReport::to_json_deterministic`], a pure
//!   function of `(circuit, config, seed)`; derived job seeds come from
//!   [`apls_anneal::rng::SeedStream::seed_for`]`(`[`JOB_SEED_LANE`]`,
//!   job_index)`, so a replayed job log reproduces every report
//!   byte-for-byte regardless of worker count;
//! * **one reactor** ([`PlacementService`]) — a single thread owns the
//!   listener and every connection behind a readiness poller (epoll on
//!   Linux, `poll(2)` on other Unixes); the service needs Unix and refuses
//!   to start elsewhere;
//! * **graceful shutdown** — a `{"op":"shutdown"}` control request (or
//!   [`PlacementService::shutdown`]) stops the reactor accepting, drains the
//!   queue and joins every thread;
//! * **fault tolerance** ([`journal`], [`fault`], [`sync`]) — an optional
//!   durable job journal restores completed reports and replays incomplete
//!   jobs byte-identically after a crash; workers are panic-isolated
//!   (`catch_unwind` per job) and respawned; per-job deadlines cancel
//!   cooperatively and answer `{"status":"timeout"}`; a deterministic
//!   [`FaultPlan`] injects panics, slow solves, journal write failures and
//!   connection drops at pinned points (DESIGN.md §12).
//!
//! The `apls` CLI exposes all of this as `apls serve` and `apls submit`; the
//! wire protocol and guarantees are documented in DESIGN.md §10.
//!
//! # Example
//!
//! ```
//! use apls_service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};
//!
//! let service = PlacementService::start(ServiceConfig::default()).expect("binds");
//! let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
//!
//! let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(7).with_restarts(1).with_fast(true);
//! let first = client.place(&spec).expect("solves");
//! let second = client.place(&spec).expect("solves");
//! assert!(!first.cache_hit);
//! assert!(second.cache_hit);
//! assert_eq!(first.report, second.report);
//!
//! client.shutdown().expect("acknowledged");
//! service.join();
//! ```

// The readiness poller binds epoll/poll(2) directly (std exposes no
// selector); every other module stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod canonical;
mod client;
pub mod fault;
mod http;
pub mod journal;
pub mod json;
mod metrics;
mod poller;
mod protocol;
#[cfg(unix)]
mod reactor;
/// Non-Unix stand-in for the reactor: with no readiness poller the service
/// cannot start, so every type here is uninhabited.
#[cfg(not(unix))]
mod reactor {
    use crate::server::Shared;
    use std::sync::Arc;

    pub(crate) enum Listening {}

    #[derive(Clone)]
    pub(crate) enum WakeSender {}

    impl Listening {
        pub(crate) fn new(_: std::net::TcpListener) -> std::io::Result<Listening> {
            match crate::poller::new_poller()? {}
        }

        pub(crate) fn waker(&self) -> WakeSender {
            match *self {}
        }

        pub(crate) fn poller_name(&self) -> &'static str {
            match *self {}
        }
    }

    impl WakeSender {
        pub(crate) fn wake(&self) {
            match *self {}
        }
    }

    pub(crate) fn run(listening: Listening, _: &Arc<Shared>) {
        match listening {}
    }
}
mod reply;
mod server;
pub mod sync;

pub use client::{RetryPolicy, ServiceClient};
pub use fault::FaultPlan;
pub use journal::{JournalConfig, SyncPolicy};
pub use protocol::{CircuitSource, JobSpec, PlaceResponse, StreamFrame};
pub use server::{
    PlacementService, ServiceConfig, DEFAULT_FLIGHT_RECORDER_CAPACITY, JOB_SEED_LANE,
    PROTOCOL_VERSION,
};
pub use sync::lock_or_recover;
