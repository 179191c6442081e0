//! Lock-free serving metrics: counters and latency histograms shared by
//! the JSONL and HTTP front-ends, with one consistent snapshot path.
//!
//! Every counter lives in one [`Metrics`] struct owned by the scheduler,
//! incremented with atomics on the hot path (no locks, no contention with
//! scoring), and read through [`Metrics::snapshot`] — the **only** way
//! counters leave this module. Snapshotting through one struct fixes a
//! real bug in the earlier per-field reads: loading `submitted` and then
//! `scored` as independent relaxed loads could observe `scored >
//! submitted` (a worker finished a job between the two loads), so totals
//! disagreed across fields under load. [`Metrics::snapshot`] loads
//! *downstream counters first* under `SeqCst`: every `scored` increment is
//! preceded by its job's `submitted` increment, so reading `scored` before
//! `submitted` guarantees `scored ≤ submitted` in every snapshot.
//!
//! Request latency is recorded at the scheduler — submit to
//! response-routed, the span both protocols share — into a fixed
//! log-bucketed [`LatencyHistogram`]: 28 power-of-two buckets from 1 µs up
//! (~134 s) plus an overflow bucket, each an `AtomicU64`. Recording is a
//! bounded loop and two relaxed adds; quantiles come out of the snapshot
//! by cumulative bucket walk and are exported as `p50`/`p90`/`p99` gauges
//! next to the full Prometheus histogram.

use crate::cache::CacheStats;
use crate::scheduler::{SchedulerStats, ShardStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of finite latency buckets: powers of two from 1 µs to ~134 s.
pub const LATENCY_BUCKETS: usize = 28;

/// A fixed log-bucketed latency histogram with lock-free recording.
///
/// Bucket `i` counts observations with `elapsed ≤ 2^i µs`; one extra
/// overflow bucket catches anything slower than the last finite bound.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS + 1],
    sum_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// A zeroed histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Upper bound of finite bucket `i`, in nanoseconds (`2^i` µs).
    pub fn bound_nanos(bucket: usize) -> u64 {
        1000u64 << bucket
    }

    /// Upper bound of finite bucket `i`, in seconds.
    pub fn bound_secs(bucket: usize) -> f64 {
        Self::bound_nanos(bucket) as f64 / 1e9
    }

    /// Records one observation (relaxed atomics; safe from any thread).
    pub fn record(&self, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut bucket = 0;
        while bucket < LATENCY_BUCKETS && nanos > Self::bound_nanos(bucket) {
            bucket += 1;
        }
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and the observed sum.
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut counts = [0u64; LATENCY_BUCKETS + 1];
        for (slot, count) in counts.iter_mut().zip(&self.counts) {
            *slot = count.load(Ordering::Relaxed);
        }
        LatencySnapshot {
            counts,
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket observation counts; the last slot is the overflow bucket.
    pub counts: [u64; LATENCY_BUCKETS + 1],
    /// Sum of all observed latencies, in nanoseconds.
    pub sum_nanos: u64,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot {
            counts: [0; LATENCY_BUCKETS + 1],
            sum_nanos: 0,
        }
    }
}

impl LatencySnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile latency estimate in seconds (`0 < q ≤ 1`): the
    /// upper bound of the bucket holding the rank-`⌈q·n⌉` observation, `0`
    /// when nothing was recorded. Overflow observations report the last
    /// finite bound — the histogram's resolution ceiling, not a fiction of
    /// precision.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (bucket, count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return LatencyHistogram::bound_secs(bucket.min(LATENCY_BUCKETS - 1));
            }
        }
        LatencyHistogram::bound_secs(LATENCY_BUCKETS - 1)
    }
}

/// HTTP gateway counters (zero when no HTTP listener is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpSnapshot {
    /// Requests parsed off HTTP connections.
    pub requests: u64,
    /// Responses answered with a 2xx status.
    pub responses_2xx: u64,
    /// Responses answered with a 4xx status.
    pub responses_4xx: u64,
    /// Responses answered with a 5xx status.
    pub responses_5xx: u64,
}

/// Fault-tolerance counters: what the robustness layer did to keep the
/// daemon answering (PR 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Scoring-worker panics caught and answered with typed internal
    /// errors (each one also respawned a fresh worker).
    pub worker_panics: u64,
    /// Chain-lookup retries taken under the backoff policy (attempts
    /// beyond the first, counted per retry).
    pub chain_retries: u64,
    /// Requests that out-waited their deadline and answered a typed
    /// timeout at dequeue.
    pub timeouts: u64,
}

/// Everything `/metrics` (and the JSONL `stats` command) reports, captured
/// by one [`Metrics::snapshot`] call — the single consistent read path for
/// every serving counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Scheduler counters (submitted/scored/errors/overloads/batches/
    /// connections + current queue depth).
    pub scheduler: SchedulerStats,
    /// Configured submit-queue capacity.
    pub queue_capacity: u64,
    /// Cache counters (`None` when the cache is disabled).
    pub cache: Option<CacheStats>,
    /// HTTP gateway counters.
    pub http: HttpSnapshot,
    /// Request-latency histogram (submit → response routed).
    pub latency: LatencySnapshot,
    /// Fault-tolerance counters (panics, retries, timeouts).
    pub robustness: RobustnessStats,
}

/// The scheduler's counter block: lock-free increments on the hot path,
/// one consistent snapshot on the way out (see the module docs).
#[derive(Debug, Default)]
pub struct Metrics {
    submitted: AtomicU64,
    scored: AtomicU64,
    errors: AtomicU64,
    overloads: AtomicU64,
    batches: AtomicU64,
    connections: AtomicU64,
    http_requests: AtomicU64,
    http_2xx: AtomicU64,
    http_4xx: AtomicU64,
    http_5xx: AtomicU64,
    latency: LatencyHistogram,
    worker_panics: AtomicU64,
    chain_retries: AtomicU64,
    timeouts: AtomicU64,
}

impl Metrics {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one request admitted to the batch queue.
    ///
    /// `SeqCst` so the snapshot's downstream-first read order (see module
    /// docs) gives cross-field consistency.
    pub fn inc_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::SeqCst);
    }

    /// Un-counts one submission whose queue push was refused. Submissions
    /// are counted *before* the push (so a worker can never score a job
    /// whose `submitted` increment is still pending — the snapshot
    /// invariant `scored ≤ submitted` depends on it); a refusal means the
    /// job never entered the queue and must be uncounted.
    pub fn dec_submitted(&self) {
        self.submitted.fetch_sub(1, Ordering::SeqCst);
    }

    /// Counts `n` requests scored by a worker.
    pub fn inc_scored(&self, n: u64) {
        self.scored.fetch_add(n, Ordering::SeqCst);
    }

    /// Counts one malformed request answered with an error response.
    pub fn inc_errors(&self) {
        self.errors.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one request shed with an overload response.
    pub fn inc_overloads(&self) {
        self.overloads.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one scored batch.
    pub fn inc_batches(&self) {
        self.batches.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one accepted connection.
    pub fn inc_connections(&self) {
        self.connections.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one parsed HTTP request.
    pub fn http_request(&self) {
        self.http_requests.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one HTTP response by status class.
    pub fn http_response(&self, status: u16) {
        match status {
            200..=299 => self.http_2xx.fetch_add(1, Ordering::SeqCst),
            400..=499 => self.http_4xx.fetch_add(1, Ordering::SeqCst),
            _ => self.http_5xx.fetch_add(1, Ordering::SeqCst),
        };
    }

    /// Records one request latency (submit → response routed).
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency.record(elapsed);
    }

    /// Counts one caught scoring-worker panic.
    pub fn inc_worker_panics(&self) {
        self.worker_panics.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one chain-lookup retry (an attempt beyond the first).
    pub fn inc_chain_retries(&self) {
        self.chain_retries.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one request answered with a typed timeout at dequeue.
    pub fn inc_timeouts(&self) {
        self.timeouts.fetch_add(1, Ordering::SeqCst);
    }

    /// One consistent snapshot of every counter.
    ///
    /// Loads run downstream-first under `SeqCst`: `scored` is read before
    /// `submitted`, and every scored job's `submitted` increment precedes
    /// its `scored` increment, so `scored ≤ submitted` holds in every
    /// snapshot — the cross-field consistency the old per-field relaxed
    /// reads lacked. Cache counters are internally consistent already
    /// (copied under the cache's own mutex).
    pub fn snapshot(
        &self,
        queue_depth: u64,
        queue_capacity: u64,
        cache: Option<CacheStats>,
    ) -> MetricsSnapshot {
        let latency = self.latency.snapshot();
        let robustness = RobustnessStats {
            worker_panics: self.worker_panics.load(Ordering::SeqCst),
            chain_retries: self.chain_retries.load(Ordering::SeqCst),
            timeouts: self.timeouts.load(Ordering::SeqCst),
        };
        let http = HttpSnapshot {
            responses_2xx: self.http_2xx.load(Ordering::SeqCst),
            responses_4xx: self.http_4xx.load(Ordering::SeqCst),
            responses_5xx: self.http_5xx.load(Ordering::SeqCst),
            requests: self.http_requests.load(Ordering::SeqCst),
        };
        // Downstream before upstream: scored before submitted, so a
        // concurrent worker can only make `submitted` read *larger*.
        let scored = self.scored.load(Ordering::SeqCst);
        let batches = self.batches.load(Ordering::SeqCst);
        let errors = self.errors.load(Ordering::SeqCst);
        let overloads = self.overloads.load(Ordering::SeqCst);
        let submitted = self.submitted.load(Ordering::SeqCst);
        let connections = self.connections.load(Ordering::SeqCst);
        MetricsSnapshot {
            scheduler: SchedulerStats {
                submitted,
                scored,
                errors,
                overloads,
                batches,
                connections,
                queue_depth,
            },
            queue_capacity,
            cache,
            http,
            latency,
            robustness,
        }
    }
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    metric(out, name, help, "counter", value as f64);
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    metric(out, name, help, "gauge", value);
}

fn metric(out: &mut String, name: &str, help: &str, kind: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition format
/// (version 0.0.4): cache hit/miss/eviction counters, queue depth,
/// overload count, the full request-latency histogram, `p50`/`p90`/
/// `p99` gauges derived from it, and a `build_info` sample labelled with
/// the served model and the lane count.
pub fn render_prometheus(
    snap: &MetricsSnapshot,
    model_name: &str,
    model_version: &str,
    quant_bins: Option<usize>,
    shards: usize,
) -> String {
    let mut out = String::with_capacity(4096);
    let s = &snap.scheduler;
    counter(
        &mut out,
        "phishinghook_requests_submitted_total",
        "Requests admitted to the batch queue (cache hits excluded).",
        s.submitted,
    );
    counter(
        &mut out,
        "phishinghook_requests_scored_total",
        "Requests scored by the worker pool.",
        s.scored,
    );
    counter(
        &mut out,
        "phishinghook_request_errors_total",
        "Malformed requests answered with an error response.",
        s.errors,
    );
    counter(
        &mut out,
        "phishinghook_overloads_total",
        "Requests shed with an overload response (queue full or connection limit).",
        s.overloads,
    );
    counter(
        &mut out,
        "phishinghook_batches_total",
        "Micro-batches scored.",
        s.batches,
    );
    counter(
        &mut out,
        "phishinghook_connections_total",
        "Connections accepted over the scheduler's lifetime.",
        s.connections,
    );
    gauge(
        &mut out,
        "phishinghook_queue_depth",
        "Jobs in the submit queue right now.",
        s.queue_depth as f64,
    );
    gauge(
        &mut out,
        "phishinghook_queue_capacity",
        "Configured submit-queue capacity.",
        snap.queue_capacity as f64,
    );
    if let Some(cache) = &snap.cache {
        counter(
            &mut out,
            "phishinghook_cache_hits_total",
            "Verdict-cache lookups answered from the cache.",
            cache.hits,
        );
        counter(
            &mut out,
            "phishinghook_cache_misses_total",
            "Verdict-cache lookups that went to the scheduler.",
            cache.misses,
        );
        counter(
            &mut out,
            "phishinghook_cache_evictions_total",
            "Cache entries evicted to respect the byte budget.",
            cache.evictions,
        );
        counter(
            &mut out,
            "phishinghook_cache_insertions_total",
            "Cache entries inserted over the cache's lifetime.",
            cache.insertions,
        );
        gauge(
            &mut out,
            "phishinghook_cache_entries",
            "Cache entries currently resident.",
            cache.entries as f64,
        );
        gauge(
            &mut out,
            "phishinghook_cache_bytes",
            "Accounted cache bytes currently resident.",
            cache.bytes as f64,
        );
        gauge(
            &mut out,
            "phishinghook_cache_capacity_bytes",
            "Configured cache byte budget.",
            cache.capacity_bytes as f64,
        );
    }
    counter(
        &mut out,
        "phishinghook_worker_panics_total",
        "Scoring-worker panics caught, answered with typed internal errors, and respawned.",
        snap.robustness.worker_panics,
    );
    counter(
        &mut out,
        "phishinghook_chain_retries_total",
        "Chain-lookup retries taken under the backoff policy.",
        snap.robustness.chain_retries,
    );
    counter(
        &mut out,
        "phishinghook_request_timeouts_total",
        "Requests that out-waited their deadline and answered a typed timeout.",
        snap.robustness.timeouts,
    );
    counter(
        &mut out,
        "phishinghook_http_requests_total",
        "HTTP requests parsed by the gateway.",
        snap.http.requests,
    );
    let name = "phishinghook_http_responses_total";
    out.push_str(&format!(
        "# HELP {name} HTTP responses by status class.\n# TYPE {name} counter\n"
    ));
    for (class, value) in [
        ("2xx", snap.http.responses_2xx),
        ("4xx", snap.http.responses_4xx),
        ("5xx", snap.http.responses_5xx),
    ] {
        out.push_str(&format!("{name}{{class=\"{class}\"}} {value}\n"));
    }

    let name = "phishinghook_request_latency_seconds";
    out.push_str(&format!(
        "# HELP {name} Request latency from submit to response routed.\n\
         # TYPE {name} histogram\n"
    ));
    let mut cumulative = 0u64;
    for bucket in 0..LATENCY_BUCKETS {
        cumulative += snap.latency.counts[bucket];
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            LatencyHistogram::bound_secs(bucket)
        ));
    }
    cumulative += snap.latency.counts[LATENCY_BUCKETS];
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
    out.push_str(&format!(
        "{name}_sum {}\n{name}_count {cumulative}\n",
        snap.latency.sum_nanos as f64 / 1e9
    ));
    for (q, suffix) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
        gauge(
            &mut out,
            &format!("phishinghook_request_latency_{suffix}_seconds"),
            &format!("The {suffix} request latency (log-bucket upper bound)."),
            snap.latency.quantile(q),
        );
    }
    out.push_str(&format!(
        "# HELP phishinghook_build_info The served model and the lane count, as labels.\n\
         # TYPE phishinghook_build_info gauge\n\
         phishinghook_build_info{{model=\"{}\",version=\"{}\",quant_bins=\"{}\",shards=\"{shards}\"}} 1\n",
        escape_label(model_name),
        escape_label(model_version),
        quant_bins.unwrap_or(0),
    ));
    out
}

/// Emits one `# HELP`/`# TYPE` header and a `{shard="i"}`-labelled sample
/// per shard, reading each sample through `value`.
fn shard_metric(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    shards: &[ShardStats],
    value: impl Fn(&ShardStats) -> Option<f64>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for stat in shards {
        if let Some(v) = value(stat) {
            out.push_str(&format!("{name}{{shard=\"{}\"}} {v}\n", stat.shard));
        }
    }
}

/// Renders the per-shard metric families (PR 8) in the Prometheus text
/// exposition format: one `{shard="i"}`-labelled sample per lane for queue
/// depth/capacity and the lane's slice of the verdict cache. Appended to
/// [`render_prometheus`]'s aggregate output by the `/metrics` handler —
/// the aggregate names stay unchanged so existing dashboards keep working,
/// and the shard families make per-lane imbalance (a hot shard's queue
/// filling while its neighbours idle) visible without new plumbing.
pub fn render_prometheus_shards(shards: &[ShardStats]) -> String {
    if shards.is_empty() {
        return String::new();
    }
    let mut out = String::with_capacity(1024);
    shard_metric(
        &mut out,
        "phishinghook_shard_queue_depth",
        "Jobs in this shard's submit queue right now.",
        "gauge",
        shards,
        |s| Some(s.queue_depth as f64),
    );
    shard_metric(
        &mut out,
        "phishinghook_shard_queue_capacity",
        "Configured submit-queue capacity of this shard.",
        "gauge",
        shards,
        |s| Some(s.queue_capacity as f64),
    );
    if shards.iter().any(|s| s.cache.is_some()) {
        shard_metric(
            &mut out,
            "phishinghook_shard_cache_hits_total",
            "Verdict-cache lookups answered from this shard's cache slice.",
            "counter",
            shards,
            |s| s.cache.map(|c| c.hits as f64),
        );
        shard_metric(
            &mut out,
            "phishinghook_shard_cache_misses_total",
            "Verdict-cache lookups on this shard that went to its workers.",
            "counter",
            shards,
            |s| s.cache.map(|c| c.misses as f64),
        );
        shard_metric(
            &mut out,
            "phishinghook_shard_cache_evictions_total",
            "Entries evicted from this shard's cache slice.",
            "counter",
            shards,
            |s| s.cache.map(|c| c.evictions as f64),
        );
        shard_metric(
            &mut out,
            "phishinghook_shard_cache_entries",
            "Entries currently resident in this shard's cache slice.",
            "gauge",
            shards,
            |s| s.cache.map(|c| c.entries as f64),
        );
        shard_metric(
            &mut out,
            "phishinghook_shard_cache_bytes",
            "Accounted bytes currently resident in this shard's cache slice.",
            "gauge",
            shards,
            |s| s.cache.map(|c| c.bytes as f64),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn histogram_buckets_by_powers_of_two_micros() {
        let hist = LatencyHistogram::new();
        hist.record(Duration::from_nanos(500)); // ≤ 1 µs → bucket 0
        hist.record(Duration::from_micros(1)); // boundary → bucket 0
        hist.record(Duration::from_micros(3)); // ≤ 4 µs → bucket 2
        hist.record(Duration::from_secs(500)); // past the last bound → overflow
        let snap = hist.snapshot();
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[2], 1);
        assert_eq!(snap.counts[LATENCY_BUCKETS], 1);
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.sum_nanos, 500 + 1_000 + 3_000 + 500 * 1_000_000_000u64);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let hist = LatencyHistogram::new();
        for _ in 0..90 {
            hist.record(Duration::from_micros(2)); // bucket 1, bound 2 µs
        }
        for _ in 0..10 {
            hist.record(Duration::from_millis(1)); // bucket 10, bound ~1.05 ms
        }
        let snap = hist.snapshot();
        assert_eq!(snap.quantile(0.5), LatencyHistogram::bound_secs(1));
        assert_eq!(snap.quantile(0.9), LatencyHistogram::bound_secs(1));
        assert_eq!(snap.quantile(0.99), LatencyHistogram::bound_secs(10));
        assert_eq!(snap.quantile(1.0), LatencyHistogram::bound_secs(10));
        assert_eq!(LatencySnapshot::default().quantile(0.5), 0.0);
        // Overflow-only data reports the resolution ceiling, not infinity.
        let slow = LatencyHistogram::new();
        slow.record(Duration::from_secs(1000));
        assert_eq!(
            slow.snapshot().quantile(0.5),
            LatencyHistogram::bound_secs(LATENCY_BUCKETS - 1)
        );
    }

    #[test]
    fn snapshot_never_observes_scored_ahead_of_submitted() {
        // The bugfix regression test: under a producer racing
        // submitted→scored increments, every snapshot must satisfy
        // scored ≤ submitted (the old independent relaxed reads, loading
        // submitted first, could see the opposite).
        let metrics = Arc::new(Metrics::new());
        let producer = {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                for _ in 0..200_000 {
                    metrics.inc_submitted();
                    metrics.inc_scored(1);
                }
            })
        };
        let mut snapshots = 0u64;
        while !producer.is_finished() {
            let snap = metrics.snapshot(0, 0, None);
            assert!(
                snap.scheduler.scored <= snap.scheduler.submitted,
                "inconsistent snapshot: scored {} > submitted {}",
                snap.scheduler.scored,
                snap.scheduler.submitted
            );
            snapshots += 1;
        }
        producer.join().expect("producer");
        assert!(snapshots > 0);
        let final_snap = metrics.snapshot(3, 64, None);
        assert_eq!(final_snap.scheduler.submitted, 200_000);
        assert_eq!(final_snap.scheduler.scored, 200_000);
        assert_eq!(final_snap.scheduler.queue_depth, 3);
        assert_eq!(final_snap.queue_capacity, 64);
    }

    #[test]
    fn http_counters_classify_by_status() {
        let metrics = Metrics::new();
        metrics.http_request();
        metrics.http_request();
        metrics.http_response(200);
        metrics.http_response(404);
        metrics.http_response(503);
        let snap = metrics.snapshot(0, 0, None);
        assert_eq!(snap.http.requests, 2);
        assert_eq!(snap.http.responses_2xx, 1);
        assert_eq!(snap.http.responses_4xx, 1);
        assert_eq!(snap.http.responses_5xx, 1);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let metrics = Metrics::new();
        metrics.inc_submitted();
        metrics.inc_scored(1);
        metrics.inc_batches();
        metrics.record_latency(Duration::from_micros(700));
        metrics.http_request();
        metrics.http_response(200);
        let cache = CacheStats {
            hits: 7,
            misses: 3,
            evictions: 1,
            insertions: 4,
            entries: 3,
            bytes: 408,
            capacity_bytes: 8 << 20,
        };
        let snap = metrics.snapshot(0, 1024, Some(cache));
        let text = render_prometheus(&snap, "Random Forest", "hsc-detector/v1", Some(256), 3);

        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty(), "{line}");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
        for expected in [
            "phishinghook_cache_hits_total 7",
            "phishinghook_cache_misses_total 3",
            "phishinghook_cache_evictions_total 1",
            "phishinghook_queue_depth 0",
            "phishinghook_overloads_total 0",
            "phishinghook_worker_panics_total 0",
            "phishinghook_chain_retries_total 0",
            "phishinghook_request_timeouts_total 0",
            "phishinghook_http_responses_total{class=\"2xx\"} 1",
            "phishinghook_request_latency_seconds_count 1",
            "phishinghook_request_latency_p50_seconds 0.001024",
            "phishinghook_request_latency_p99_seconds 0.001024",
            "phishinghook_build_info{model=\"Random Forest\",version=\"hsc-detector/v1\",quant_bins=\"256\",shards=\"3\"} 1",
        ] {
            assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
        }
        // Histogram buckets are cumulative and end at +Inf.
        let inf_line = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf bucket");
        assert!(inf_line.ends_with(" 1"), "{inf_line}");
        // Each TYPE is declared exactly once per metric name.
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let mut seen = std::collections::HashSet::new();
        for line in &type_lines {
            assert!(seen.insert(*line), "duplicate {line}");
        }
    }

    #[test]
    fn shard_families_are_labelled_per_lane() {
        let shards = vec![
            ShardStats {
                shard: 0,
                queue_depth: 3,
                queue_capacity: 512,
                cache: Some(CacheStats {
                    hits: 5,
                    misses: 2,
                    evictions: 1,
                    insertions: 3,
                    entries: 2,
                    bytes: 272,
                    capacity_bytes: 4 << 20,
                }),
            },
            ShardStats {
                shard: 1,
                queue_depth: 0,
                queue_capacity: 512,
                cache: Some(CacheStats::default()),
            },
        ];
        let text = render_prometheus_shards(&shards);
        for expected in [
            "phishinghook_shard_queue_depth{shard=\"0\"} 3",
            "phishinghook_shard_queue_depth{shard=\"1\"} 0",
            "phishinghook_shard_queue_capacity{shard=\"0\"} 512",
            "phishinghook_shard_cache_hits_total{shard=\"0\"} 5",
            "phishinghook_shard_cache_hits_total{shard=\"1\"} 0",
            "phishinghook_shard_cache_bytes{shard=\"0\"} 272",
        ] {
            assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
        }
        // Each TYPE header appears once, above its labelled samples.
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let mut seen = std::collections::HashSet::new();
        for line in &type_lines {
            assert!(seen.insert(*line), "duplicate {line}");
        }
        // Cache-off shards emit no cache families at all.
        let off = render_prometheus_shards(&[ShardStats {
            shard: 0,
            queue_depth: 0,
            queue_capacity: 8,
            cache: None,
        }]);
        assert!(off.contains("phishinghook_shard_queue_depth{shard=\"0\"} 0"));
        assert!(!off.contains("cache"));
        assert!(render_prometheus_shards(&[]).is_empty());
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn robustness_counters_accumulate() {
        let metrics = Metrics::new();
        metrics.inc_worker_panics();
        metrics.inc_chain_retries();
        metrics.inc_chain_retries();
        metrics.inc_timeouts();
        let snap = metrics.snapshot(0, 0, None);
        assert_eq!(snap.robustness.worker_panics, 1);
        assert_eq!(snap.robustness.chain_retries, 2);
        assert_eq!(snap.robustness.timeouts, 1);
    }
}
