#![warn(missing_docs)]

//! The PhishingHook production serving core.
//!
//! Everything between a fitted [`Scanner`](phishinghook_models::Scanner)
//! and the sockets: this crate turns the ROADMAP's "serve heavy traffic"
//! goal into one shared, admission-controlled pipeline instead of a
//! thread-per-connection free-for-all.
//!
//! | Module | Role |
//! |---|---|
//! | [`queue`] | Bounded blocking MPMC queue — the admission-control primitive |
//! | [`cache`] | Keccak-keyed LRU verdict cache with a byte budget |
//! | [`metrics`] | Lock-free counters + latency histograms, consistent snapshots, Prometheus text |
//! | [`scheduler`] | Sharded micro-batching scheduler + ordered response routing |
//! | [`proto`] | Wire framings v1/v2 and the capped line framer, hardened against adversarial input |
//! | [`http`] | std-only HTTP/1.1: the incremental request framer and response writing |
//! | [`router`] | The HTTP gateway's endpoints: `/predict`, `/healthz`, `/readyz`, `/metrics` over the scheduler |
//! | [`config`] | The typed [`ServeConfig`] builder — one config for every front-end |
//! | [`serve`] | The stdin session loop, [`ServeReport`], and [`run`]: one process from one [`ServeConfig`] |
//! | [`nbio`] | [`serve_tcp`]: the readiness loop serving JSONL or HTTP, one thread per listener for all its connections |
//! | [`fault`] | Deterministic fault injection: worker panics, chain faults, slow clients |
//! | [`watch`] | The chain-watch firehose scenario, end to end |
//! | [`fixture`] | Shared train-once test fixtures (scanners, probe corpora) |
//!
//! The serving invariants, all covered by tests in this crate:
//!
//! 1. **Per-connection ordering** — responses arrive in request order on
//!    every connection, no matter how batches, cache hits and errors
//!    interleave across connections.
//! 2. **Bit-identical caching** — a cache hit replays the exact `f64`s the
//!    cold path produced (`f64::to_bits` equality).
//! 3. **Typed overload** — a full queue or connection limit answers with a
//!    machine-readable overload response; nothing is silently dropped,
//!    silently buffered without bound, or scored by less than the
//!    deployed detector.
//! 4. **Graceful shutdown** — closing the scheduler drains every admitted
//!    request before the workers exit.
//! 5. **Exactly-one-response under faults** — with a seeded
//!    [`FaultPlan`] injecting worker panics, chain
//!    faults and slow clients, every submitted request still gets exactly
//!    one typed response and the scheduler never wedges.
//! 6. **Layout-independent verdicts** — sharding the scheduler
//!    ([`SchedulerOptions::shards`]) never changes a verdict:
//!    sharded outputs are `f64::to_bits`-identical to the 1-shard path
//!    for any shard count.

pub mod cache;
pub mod config;
pub mod fault;
pub mod fixture;
pub mod http;
pub mod metrics;
pub mod nbio;
pub mod proto;
pub mod queue;
pub mod router;
pub mod scheduler;
pub mod serve;
pub mod watch;

pub use cache::{entry_bytes, CacheStats, CachedVerdict, VerdictCache};
pub use config::{ConfigError, ServeConfig, ServeConfigBuilder};
pub use fault::{FaultConfig, FaultPlan};
pub use metrics::{HttpSnapshot, LatencySnapshot, Metrics, MetricsSnapshot};
pub use nbio::{serve_tcp, Transport};
pub use proto::{Protocol, MAX_LINE_BYTES, STATS_COMMAND};
pub use queue::BoundedQueue;
pub use scheduler::{
    shard_of, Admission, Connection, Lifecycle, PolledResponse, ResponseKind, Responses, Scheduler,
    SchedulerOptions, SchedulerStats, ShardStats, SubmitOutcome,
};
pub use serve::{run, serve_lines, ServeReport, TcpLimits};
pub use watch::{run_watch, WatchOptions, WatchReport};

/// Thin aliases over [`fixture`] for this crate's unit tests (the
/// fixtures themselves are public so integration suites and the umbrella
/// crate share the same train-once scanners).
#[cfg(test)]
pub(crate) mod testutil {
    use phishinghook_models::Scanner;

    /// The unit tests' probe-corpus seed (integration suites use others so
    /// per-process cache state never aliases across suites).
    const PROBE_SEED: u64 = 99;

    /// One fitted single-model (Random Forest) scanner shared by all tests.
    pub fn scanner() -> &'static Scanner {
        crate::fixture::rf_scanner()
    }

    /// A 2-member ensemble scanner for per-model wire assertions.
    pub fn ensemble_scanner() -> &'static Scanner {
        crate::fixture::ensemble_scanner()
    }

    /// `n` held-out probe bytecodes plus their hex request lines.
    pub fn probe_lines(n: usize) -> (String, Vec<Vec<u8>>) {
        crate::fixture::probe_lines(n, PROBE_SEED)
    }
}
