//! The typed serving configuration: one validated [`ServeConfig`] feeds
//! every front-end (stdin, TCP JSONL, HTTP).
//!
//! A [`ServeConfig`] bundles the three pieces a serving process needs —
//! [`SchedulerOptions`], the wire [`Protocol`] and the listeners with
//! their [`TcpLimits`] — behind one validated shape: construct through
//! [`ServeConfig::builder`], which validates sizes (`batch`, `shards`,
//! `queue_depth` must be ≥ 1) and cross-field coherence (`max_conns` /
//! `accept` without a listener, or a fault target past the last lane, is
//! a configuration bug, not a silent no-op), and hand the result to
//! [`run`](crate::serve::run). The CLI is
//! a thin parser over this builder; embedding callers skip the strings
//! entirely. A caller that builds its own [`Scheduler`](crate::Scheduler)
//! and binds its own sockets passes the same pieces to the transports
//! directly: [`serve_lines`](crate::serve_lines) and
//! [`serve_tcp`](crate::serve_tcp), once per listener.
//!
//! ```
//! use phishinghook_serve::{Protocol, ServeConfig};
//!
//! let config = ServeConfig::builder()
//!     .batch(32)
//!     .shards(2)
//!     .tcp("127.0.0.1:0")
//!     .http("127.0.0.1:0")
//!     .max_conns(64)
//!     .build()
//!     .expect("valid config");
//! assert_eq!(config.scheduler().batch, 32);
//! assert_eq!(config.proto(), Protocol::V2);
//!
//! // Limits without any listener are rejected, not ignored:
//! assert!(ServeConfig::builder().max_conns(8).build().is_err());
//! ```

use crate::fault::FaultConfig;
use crate::proto::Protocol;
use crate::scheduler::SchedulerOptions;
use crate::serve::TcpLimits;
use phishinghook_data::RetryPolicy;

/// Why a [`ServeConfigBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size knob that must be at least 1 was set to 0.
    Zero(&'static str),
    /// `max_conns` / `accept` was set but neither `tcp` nor `http` is
    /// bound — connection limits without a listener guard nothing.
    LimitsWithoutListener(&'static str),
    /// The brownout ladder is inverted: `cache_first_pct` must not
    /// exceed `cache_only_pct`, or the tiers would engage out of order.
    BrownoutOrder {
        /// The configured cache-first threshold (percent of queue depth).
        cache_first_pct: u32,
        /// The configured cache-only threshold (percent of queue depth).
        cache_only_pct: u32,
    },
    /// The fault plan targets a lane that does not exist, so it would
    /// never inject a worker panic.
    FaultShardOutOfRange {
        /// The targeted lane ([`FaultConfig::worker_panic_shard`]).
        shard: usize,
        /// The configured lane count.
        shards: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "`{field}` must be at least 1"),
            ConfigError::LimitsWithoutListener(field) => {
                write!(f, "`{field}` requires a tcp or http listener")
            }
            ConfigError::BrownoutOrder {
                cache_first_pct,
                cache_only_pct,
            } => write!(
                f,
                "`cache_first_pct` ({cache_first_pct}) must not exceed \
                 `cache_only_pct` ({cache_only_pct})"
            ),
            ConfigError::FaultShardOutOfRange { shard, shards } => write!(
                f,
                "fault target lane {shard} must be below `shards` ({shards})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated serving configuration (see the module docs). Construct
/// through [`ServeConfig::builder`]; read through the accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    scheduler: SchedulerOptions,
    proto: Protocol,
    tcp: Option<String>,
    http: Option<String>,
    max_conns: Option<usize>,
    accept: Option<usize>,
}

impl Default for ServeConfig {
    /// The validated defaults: stdin/stdout, v2 JSONL, default scheduler
    /// tuning, no listeners, no limits.
    fn default() -> Self {
        ServeConfig::builder().build().expect("defaults are valid")
    }
}

impl ServeConfig {
    /// A builder seeded with the validated defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }

    /// Scheduler tuning (batching, lanes, queue, cache, window).
    pub fn scheduler(&self) -> &SchedulerOptions {
        &self.scheduler
    }

    /// Wire framing for the stdin and TCP JSONL front-ends.
    pub fn proto(&self) -> Protocol {
        self.proto
    }

    /// JSONL listener bind address, when TCP serving is on.
    pub fn tcp(&self) -> Option<&str> {
        self.tcp.as_deref()
    }

    /// HTTP gateway bind address, when HTTP serving is on.
    pub fn http(&self) -> Option<&str> {
        self.http.as_deref()
    }

    /// Connection-acceptance limits, in the shape the listener loops use.
    /// `accept` bounds *each* listener's accepted-connection total.
    pub fn limits(&self) -> TcpLimits {
        TcpLimits {
            max_conns: self.max_conns,
            accept_total: self.accept,
        }
    }
}

/// Builds a [`ServeConfig`]; every setter is chainable and
/// [`build`](ServeConfigBuilder::build) validates the whole shape at once.
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    scheduler: SchedulerOptions,
    proto: Protocol,
    tcp: Option<String>,
    http: Option<String>,
    max_conns: Option<usize>,
    accept: Option<usize>,
}

impl ServeConfigBuilder {
    /// Maximum rows per scored batch (≥ 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.scheduler.batch = batch;
        self
    }

    /// Independent serving lanes (≥ 1; default: one per core), each with
    /// one scoring thread (see [`SchedulerOptions::shards`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.scheduler.shards = shards;
        self
    }

    /// Bounded submit-queue capacity (≥ 1) — the admission-control knob.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.scheduler.queue_depth = queue_depth;
        self
    }

    /// Verdict-cache byte budget, which also bounds the cache's resident
    /// memory; `0` disables the cache.
    pub fn cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.scheduler.cache_bytes = cache_bytes;
        self
    }

    /// Per-connection flow-control window (≥ 1); see
    /// [`SchedulerOptions::max_outstanding`].
    pub fn max_outstanding(mut self, max_outstanding: usize) -> Self {
        self.scheduler.max_outstanding = max_outstanding;
        self
    }

    /// Per-request deadline in milliseconds; `0` (the default) disables
    /// deadline enforcement. Expired requests are answered with a typed
    /// timeout instead of being scored.
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.scheduler.deadline_ms = deadline_ms;
        self
    }

    /// Drain budget in milliseconds once shutdown begins; `0` (the
    /// default) drains without a deadline. Queued requests past the
    /// budget are answered as typed timeouts.
    pub fn drain_ms(mut self, drain_ms: u64) -> Self {
        self.scheduler.drain_ms = drain_ms;
        self
    }

    /// Queue-fill percentage at which brownout drops shedding traffic to
    /// cheapest-member scoring (see
    /// [`SchedulerOptions::cache_first_pct`]).
    pub fn cache_first_pct(mut self, cache_first_pct: u32) -> Self {
        self.scheduler.cache_first_pct = cache_first_pct;
        self
    }

    /// Queue-fill percentage at which brownout answers from cache only
    /// (see [`SchedulerOptions::cache_only_pct`]).
    pub fn cache_only_pct(mut self, cache_only_pct: u32) -> Self {
        self.scheduler.cache_only_pct = cache_only_pct;
        self
    }

    /// Retry policy for chain-backed address resolution.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.scheduler.retry = retry;
        self
    }

    /// Installs a deterministic fault-injection plan (tests, chaos runs).
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.scheduler.fault = Some(fault);
        self
    }

    /// Wire framing for the stdin and TCP JSONL front-ends.
    pub fn proto(mut self, proto: Protocol) -> Self {
        self.proto = proto;
        self
    }

    /// Binds the JSONL TCP listener at `addr` (e.g. `127.0.0.1:9000`).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    /// Binds the HTTP gateway at `addr` (e.g. `127.0.0.1:8080`).
    pub fn http(mut self, addr: impl Into<String>) -> Self {
        self.http = Some(addr.into());
        self
    }

    /// Maximum concurrent connections per listener; surplus accepts are
    /// refused with a typed overload (JSONL) or `503` (HTTP).
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = Some(max_conns);
        self
    }

    /// Total connections each listener accepts before draining and
    /// returning (test/CI runs); unset = serve forever.
    pub fn accept(mut self, accept: usize) -> Self {
        self.accept = Some(accept);
        self
    }

    /// Validates the whole configuration and returns it.
    ///
    /// # Errors
    /// [`ConfigError::Zero`] for a size knob set to 0;
    /// [`ConfigError::BrownoutOrder`] for an inverted brownout ladder;
    /// [`ConfigError::FaultShardOutOfRange`] for a fault plan aimed past
    /// the last lane;
    /// [`ConfigError::LimitsWithoutListener`] for connection limits with
    /// neither `tcp` nor `http` bound.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        for (field, value) in [
            ("batch", self.scheduler.batch),
            ("shards", self.scheduler.shards),
            ("queue_depth", self.scheduler.queue_depth),
            ("max_outstanding", self.scheduler.max_outstanding),
        ] {
            if value == 0 {
                return Err(ConfigError::Zero(field));
            }
        }
        if self.scheduler.retry.max_attempts == 0 {
            return Err(ConfigError::Zero("retry.max_attempts"));
        }
        if self.scheduler.cache_first_pct > self.scheduler.cache_only_pct {
            return Err(ConfigError::BrownoutOrder {
                cache_first_pct: self.scheduler.cache_first_pct,
                cache_only_pct: self.scheduler.cache_only_pct,
            });
        }
        if let Some(shard) = self.scheduler.fault.and_then(|f| f.worker_panic_shard) {
            if shard >= self.scheduler.shards {
                return Err(ConfigError::FaultShardOutOfRange {
                    shard,
                    shards: self.scheduler.shards,
                });
            }
        }
        if self.tcp.is_none() && self.http.is_none() {
            if self.max_conns.is_some() {
                return Err(ConfigError::LimitsWithoutListener("max_conns"));
            }
            if self.accept.is_some() {
                return Err(ConfigError::LimitsWithoutListener("accept"));
            }
        }
        Ok(ServeConfig {
            scheduler: self.scheduler,
            proto: self.proto,
            tcp: self.tcp,
            http: self.http,
            max_conns: self.max_conns,
            accept: self.accept,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_and_match_scheduler_defaults() {
        let config = ServeConfig::default();
        assert_eq!(*config.scheduler(), SchedulerOptions::default());
        assert_eq!(config.proto(), Protocol::V2);
        assert_eq!(config.tcp(), None);
        assert_eq!(config.http(), None);
        let limits = config.limits();
        assert_eq!(limits.max_conns, None);
        assert_eq!(limits.accept_total, None);
    }

    #[test]
    fn builder_threads_every_knob_through() {
        let config = ServeConfig::builder()
            .batch(8)
            .shards(4)
            .queue_depth(17)
            .cache_bytes(0)
            .max_outstanding(5)
            .proto(Protocol::V1)
            .tcp("127.0.0.1:9000")
            .http("127.0.0.1:8080")
            .max_conns(9)
            .accept(2)
            .build()
            .expect("valid");
        assert_eq!(config.scheduler().batch, 8);
        assert_eq!(config.scheduler().shards, 4);
        assert_eq!(config.scheduler().queue_depth, 17);
        assert_eq!(config.scheduler().cache_bytes, 0);
        assert_eq!(config.scheduler().max_outstanding, 5);
        assert_eq!(config.proto(), Protocol::V1);
        assert_eq!(config.tcp(), Some("127.0.0.1:9000"));
        assert_eq!(config.http(), Some("127.0.0.1:8080"));
        assert_eq!(config.limits().max_conns, Some(9));
        assert_eq!(config.limits().accept_total, Some(2));
    }

    #[test]
    fn zero_sizes_are_rejected_by_field_name() {
        for (field, builder) in [
            ("batch", ServeConfig::builder().batch(0)),
            ("shards", ServeConfig::builder().shards(0)),
            ("queue_depth", ServeConfig::builder().queue_depth(0)),
            ("max_outstanding", ServeConfig::builder().max_outstanding(0)),
        ] {
            let err = builder.build().expect_err(field);
            assert_eq!(err, ConfigError::Zero(field));
            assert!(err.to_string().contains(field), "{err}");
        }
        // cache_bytes = 0 is meaningful (cache off), not an error.
        assert!(ServeConfig::builder().cache_bytes(0).build().is_ok());
    }

    #[test]
    fn robustness_knobs_thread_through_and_validate() {
        let retry = RetryPolicy {
            max_attempts: 5,
            base_micros: 10,
            cap_micros: 100,
            seed: 42,
        };
        let fault = FaultConfig {
            worker_panic_every: 3,
            ..FaultConfig::default()
        };
        let config = ServeConfig::builder()
            .deadline_ms(250)
            .drain_ms(1_000)
            .cache_first_pct(40)
            .cache_only_pct(80)
            .retry(retry.clone())
            .fault(fault)
            .build()
            .expect("valid");
        assert_eq!(config.scheduler().deadline_ms, 250);
        assert_eq!(config.scheduler().drain_ms, 1_000);
        assert_eq!(config.scheduler().cache_first_pct, 40);
        assert_eq!(config.scheduler().cache_only_pct, 80);
        assert_eq!(config.scheduler().retry, retry);
        assert_eq!(config.scheduler().fault, Some(fault));

        // An inverted brownout ladder is a configuration bug.
        let err = ServeConfig::builder()
            .cache_first_pct(90)
            .cache_only_pct(60)
            .build()
            .expect_err("inverted ladder");
        assert_eq!(
            err,
            ConfigError::BrownoutOrder {
                cache_first_pct: 90,
                cache_only_pct: 60
            }
        );
        assert!(err.to_string().contains("cache_first_pct"), "{err}");

        // A retry policy that never attempts anything is a zero knob.
        let err = ServeConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            })
            .build()
            .expect_err("zero attempts");
        assert_eq!(err, ConfigError::Zero("retry.max_attempts"));
    }

    #[test]
    fn a_fault_target_past_the_last_lane_is_rejected() {
        let fault = |shard| FaultConfig {
            worker_panic_every: 1,
            worker_panic_shard: Some(shard),
            ..FaultConfig::default()
        };
        let err = ServeConfig::builder()
            .shards(2)
            .fault(fault(9))
            .build()
            .expect_err("lane 9 of 2");
        assert_eq!(
            err,
            ConfigError::FaultShardOutOfRange {
                shard: 9,
                shards: 2
            }
        );
        let msg = err.to_string();
        assert!(msg.contains('9') && msg.contains('2'), "{msg}");
        let err = ServeConfig::builder()
            .shards(2)
            .fault(fault(2))
            .build()
            .expect_err("lane 2 of 2");
        assert_eq!(
            err,
            ConfigError::FaultShardOutOfRange {
                shard: 2,
                shards: 2
            }
        );
        // The last lane is a valid target.
        let config = ServeConfig::builder()
            .shards(2)
            .fault(fault(1))
            .build()
            .expect("lane 1 of 2");
        assert_eq!(config.scheduler().fault, Some(fault(1)));
    }

    #[test]
    fn limits_require_a_listener() {
        let err = ServeConfig::builder()
            .max_conns(4)
            .build()
            .expect_err("no listener");
        assert_eq!(err, ConfigError::LimitsWithoutListener("max_conns"));
        let err = ServeConfig::builder()
            .accept(1)
            .build()
            .expect_err("no listener");
        assert_eq!(err, ConfigError::LimitsWithoutListener("accept"));
        assert!(err.to_string().contains("listener"), "{err}");
        // Either listener satisfies the requirement.
        assert!(ServeConfig::builder()
            .tcp("127.0.0.1:0")
            .max_conns(4)
            .build()
            .is_ok());
        assert!(ServeConfig::builder()
            .http("127.0.0.1:0")
            .accept(1)
            .build()
            .is_ok());
    }
}
