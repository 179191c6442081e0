//! The cross-connection micro-batching scheduler.
//!
//! PR 2 measured a 3.7× inference win for 64-row batches — but the old
//! daemon gave every connection a private serving loop, so batches only
//! formed *within* one client and a swarm of single-request connections
//! (the chain-watch workload) scored one row at a time. This module inverts
//! that design around one shared pipeline:
//!
//! ```text
//!  conn readers ──┐                      ┌────────────┐   per-conn
//!  (decode, cache │   bounded MPMC       │  batch ≤ B │   mailboxes
//!   lookup, slot) ├──▶ submit queue ────▶│  score via ├──▶ (slot per ──▶ writers
//!  conn readers ──┘   (admission        │  Scanner    │   request)
//!                      control)          └── worker ──┘
//! ```
//!
//! * **Micro-batching** — workers drain the queue into batches of up to
//!   `batch` rows *across connections* and score them through one shared
//!   [`Scanner`] snapshot. Batching is work-conserving: a free worker takes
//!   whatever is already queued and never waits for a batch to fill, so a
//!   lone request is scored at once while batches still grow under load
//!   (rows pile up while the previous batch scores).
//! * **Verdict cache** — in front of the queue sits a keccak-keyed
//!   [`VerdictCache`]: a redeployed bytecode is answered at submit time
//!   without ever occupying a batch slot, bit-identically to a cold score.
//! * **Admission control** — the queue is bounded; shed-mode submission
//!   ([`Admission::Shed`], the TCP path) answers queue-full with a typed
//!   overload response instead of buffering without limit, while
//!   [`Admission::Block`] (the stdin bulk path) applies backpressure.
//! * **Ordered responses** — every request opens a slot at the back of its
//!   connection's mailbox at submit, and its answer fills that slot when
//!   it routes; the writer takes answers only off the front, so they leave
//!   in request order no matter how cache hits, inline errors and scored
//!   batches interleave. The mailbox is also the flow-control window: a
//!   submit waits while [`SchedulerOptions::max_outstanding`] slots are
//!   open. Each job carries its mailbox, so routing an answer takes that
//!   connection's lock alone — lanes share no lock on the way back — and
//!   a worker fills a scored batch's answers for one connection under one
//!   lock, waking its writer once.
//! * **Graceful shutdown** — [`Scheduler::shutdown`] closes the queue (the
//!   sentinel), workers drain every in-flight job, and only then join; no
//!   admitted request is ever dropped.
//!
//! PR 7 adds the fault-tolerance layer:
//!
//! * **Worker supervision** — scoring runs under `catch_unwind`; a panicked
//!   batch answers every in-flight request with a typed internal error, and
//!   the supervisor respawns a fresh worker sibling (panic counter in
//!   `/metrics`). One model bug never wedges a connection's mailbox.
//! * **Deadlines** — [`SchedulerOptions::deadline_ms`] is enforced at
//!   dequeue: a request that waited past its budget answers a typed
//!   timeout without occupying model time.
//! * **Retry/backoff** — address resolution through the chain runs under a
//!   seeded [`RetryPolicy`] with decorrelated-jitter backoff, so transient
//!   chain faults don't fail requests.
//! * **Brownout ladder** — queue fill drives
//!   [`DegradationTier`]: `Full → CacheFirst` (ensembles answer from their
//!   cheapest member) `→ CacheOnly` (misses shed typed overload)
//!   `→ Shed` (queue full refuses). Lossless [`Admission::Block`]
//!   submissions never degrade.
//! * **Fault injection** — an optional seeded
//!   [`FaultPlan`] injects worker panics and
//!   chain faults at exactly the seams above; `None` costs nothing.
//!
//! PR 8 shards the core. With [`SchedulerOptions::shards`] = N, the single
//! `(queue, worker, cache)` triple becomes N independent lanes:
//!
//! ```text
//!                      ┌─ lane 0: queue ─▶ worker ─▶ cache slice ─┐
//!  conn readers ──────▶│  lane 1: queue ─▶ worker ─▶ cache slice  ├─▶ mailboxes
//!  (keccak digest      │  …                                       │
//!   % N routing)       └─ lane N-1: …                             ┘
//! ```
//!
//! Each lane runs one scoring thread, `lane-<i>`, and by default there is
//! one lane per core. Requests route by [`shard_of`] over the keccak-256
//! digest already computed for cache keying, so a given bytecode always
//! lands on the same lane — its cache slice stays hot and no lock is
//! shared across lanes.
//! Because scoring is a pure function of the bytecode, verdicts are
//! `f64::to_bits`-identical across every shard layout — asserted by the
//! determinism harness in `tests/shard_determinism.rs`.

use crate::cache::{CacheStats, CachedVerdict, VerdictCache};
use crate::fault::{FaultConfig, FaultPlan};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::proto::{self, Framed, Protocol};
use crate::serve::ServeReport;
use phishinghook_data::{Address, CodeSource, RetryPolicy, SharedChain};
use phishinghook_evm::keccak::Digest;
use phishinghook_models::{ResolveError, Scanner, Target};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of one scheduler (one serving process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Maximum rows per scored batch (≥ 1).
    pub batch: usize,
    /// Independent serving lanes (≥ 1; default: the cores this process may
    /// use). Each lane owns a share of `queue_depth`, one scoring thread,
    /// and a `cache_bytes / shards` slice of the verdict cache; requests
    /// route by keccak digest ([`shard_of`]), so a given bytecode always
    /// lands on the same lane and no queue or cache lock is shared across
    /// lanes.
    pub shards: usize,
    /// Bounded submit-queue capacity — the admission-control knob. Split
    /// exactly across lanes: each gets `queue_depth / shards` slots, the
    /// first `queue_depth % shards` lanes one more, and every lane at
    /// least one (so `shards > queue_depth` still admits).
    pub queue_depth: usize,
    /// Verdict-cache byte budget; `0` disables the cache. The budget bounds
    /// the cache's resident memory (see [`entry_bytes`](crate::entry_bytes)).
    /// Split evenly across shards — each lane owns a `cache_bytes / shards`
    /// slice keyed by the digests that route to it, so slices never
    /// duplicate entries.
    pub cache_bytes: usize,
    /// Per-connection flow-control window: the maximum responses a
    /// connection may have outstanding (submitted but not yet received by
    /// its writer). When reached, [`Connection::submit`] blocks — the
    /// reader stops consuming the socket, so a client that never reads its
    /// responses is back-pressured by TCP instead of growing daemon memory
    /// without bound. Must exceed any burst a driver submits before
    /// draining (the `watch` driver submits one block at a time).
    pub max_outstanding: usize,
    /// Per-request deadline in milliseconds, enforced at dequeue: a job
    /// that waited longer answers a typed timeout instead of being scored.
    /// `0` disables the deadline.
    pub deadline_ms: u64,
    /// Bounded graceful drain: once [`Scheduler::begin_drain`] has run for
    /// this long, workers answer still-queued jobs with typed timeouts
    /// instead of scoring them. `0` drains without bound (score everything).
    pub drain_ms: u64,
    /// Queue-fill percentage at which shed-mode submissions degrade to the
    /// cheapest ensemble member ([`DegradationTier::CacheFirst`]). `0`
    /// forces the tier (a test knob); above `100` it can never trigger.
    pub cache_first_pct: u32,
    /// Queue-fill percentage at which shed-mode cache misses are refused
    /// with a typed overload ([`DegradationTier::CacheOnly`]).
    pub cache_only_pct: u32,
    /// Backoff policy for transient chain faults during address resolution.
    pub retry: RetryPolicy,
    /// Optional deterministic fault schedule (the chaos harness). `None`
    /// injects nothing and costs nothing.
    pub fault: Option<FaultConfig>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        // 64-row batches keep the scratch matrix hot; 8 MiB caches ~60k
        // single-model verdicts — plenty for the few thousand live
        // phishing templates the paper observes. 8192 outstanding
        // responses bound a never-reading connection to a couple of MB.
        // Brownout thresholds sit above any healthy steady state: a queue
        // half full means the workers are already behind.
        SchedulerOptions {
            batch: 64,
            shards: phishinghook_models::cores(),
            queue_depth: 1024,
            cache_bytes: 8 << 20,
            max_outstanding: 8192,
            deadline_ms: 0,
            drain_ms: 0,
            cache_first_pct: 50,
            cache_only_pct: 75,
            retry: RetryPolicy::default(),
            fault: None,
        }
    }
}

/// Where the scheduler is in its life, reported on `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Accepting and scoring requests.
    Running,
    /// [`Scheduler::begin_drain`] ran: finish what's queued, then stop.
    Draining,
}

/// The brownout ladder: how much quality the scheduler is currently
/// trading for headroom, driven by queue fill. The implicit fourth rung —
/// Shed — is the queue-full refusal that always existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationTier {
    /// Normal operation: full-ensemble scoring.
    Full = 0,
    /// Shed-mode submissions score on the cheapest ensemble member only
    /// (cache hits still replay full-ensemble verdicts).
    CacheFirst = 1,
    /// Shed-mode cache misses answer a typed overload; only cache hits are
    /// served.
    CacheOnly = 2,
}

impl DegradationTier {
    /// Stable lower-case name, used in `/healthz` bodies and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationTier::Full => "full",
            DegradationTier::CacheFirst => "cache-first",
            DegradationTier::CacheOnly => "cache-only",
        }
    }
}

/// How a submission behaves when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Wait for space (lossless backpressure — the stdin bulk path).
    Block,
    /// Refuse with a typed overload response (the TCP path).
    Shed,
}

/// Monotonic scheduler counters (see the `stats` wire command).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Valid scoring requests admitted to the queue (cache hits excluded —
    /// they never occupy a queue slot).
    pub submitted: u64,
    /// Requests scored by workers (completed batches only).
    pub scored: u64,
    /// Malformed request lines answered with an error response.
    pub errors: u64,
    /// Requests shed with a typed overload response.
    pub overloads: u64,
    /// Batches scored.
    pub batches: u64,
    /// Connections accepted over the scheduler's lifetime.
    pub connections: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
}

/// One queued scoring job.
struct Job {
    /// Where the answer goes: the submitting connection's mailbox.
    mailbox: Arc<Mailbox>,
    seq: u64,
    id: String,
    /// The resolved address, echoed in the v2 response for address-form
    /// requests.
    address: Option<Address>,
    code: Vec<u8>,
    /// Precomputed at submit when the cache is on (reused for the insert).
    hash: Option<Digest>,
    proto: Protocol,
    /// Submit time, for the request-latency histogram.
    t0: Instant,
    /// Admitted under [`DegradationTier::CacheFirst`]: score on the
    /// cheapest ensemble member only, and never insert into the cache.
    degraded: bool,
}

/// What kind of response a routed line settles, for per-conn tallies.
enum Settle {
    Scored { bytes: u64, cached: bool },
    Error,
    Overload,
    Timeout,
    Internal,
    Stats,
}

/// The transport-facing classification of one routed response line.
///
/// JSONL writers only need the line; an HTTP connection on the readiness
/// loop reads the kind from [`Responses::poll`] to map a deferred verdict
/// slot to its status (200 verdict, 500 worker panic, 504 deadline)
/// *after* the response is known, since the status line is written when
/// the response routes — not when the request was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// A scored or cache-replayed verdict.
    Verdict,
    /// An inline body whose status the transport fixed at submit time
    /// (stats, health, metrics, pre-rendered rejects).
    Inline,
    /// A malformed or unresolvable request, answered at submit time.
    Error,
    /// A typed overload response.
    Overload,
    /// The request's deadline expired before a worker scored it.
    Timeout,
    /// The scoring worker panicked on the batch carrying this request.
    Internal,
}

/// Called after a connection's mailbox fills its front slot or closes its
/// stream — every change a receiver can see — so an event loop that polls
/// sockets learns of it (see [`Scheduler::connect_with_wake`]).
pub(crate) type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// One connection's answers, from submit to delivery: slot `i` holds the
/// answer to request `head + i`. A submit opens an empty slot at the back
/// (waiting while `max_outstanding` slots are open), routing fills a slot
/// wherever it sits, and the receiver pops filled slots off the front. So
/// the slot count is the flow-control window, the empty slots are the
/// reorder buffer, and the filled prefix is what the receiver may take.
/// Every [`Job`] carries its connection's mailbox, so routing an answer
/// takes that connection's lock and no other.
struct Mailbox {
    state: Mutex<MailboxState>,
    /// A submitter waiting for a free slot parks here.
    space: Condvar,
    /// A receiver waiting for the front slot to fill parks here.
    filled: Condvar,
    max_outstanding: usize,
    /// Run outside the lock after a change a receiver can see.
    wake: Option<WakeHook>,
}

struct MailboxState {
    /// The request number of the front slot.
    head: u64,
    slots: VecDeque<Option<(String, ResponseKind)>>,
    /// No more requests: the stream ends once the last slot is popped.
    finished: bool,
    /// The [`Responses`] half was dropped: answers go nowhere.
    receiver_gone: bool,
    /// Threads parked on `space` and on `filled`, so that a change nobody
    /// waits for costs no notify.
    parked_submitters: usize,
    parked_receivers: usize,
    /// Tallied as answers route; `secs` is left to the transport.
    report: ServeReport,
}

impl Mailbox {
    fn new(max_outstanding: usize, wake: Option<WakeHook>) -> Self {
        Mailbox {
            state: Mutex::new(MailboxState {
                head: 0,
                slots: VecDeque::new(),
                finished: false,
                receiver_gone: false,
                parked_submitters: 0,
                parked_receivers: 0,
                report: ServeReport::default(),
            }),
            space: Condvar::new(),
            filled: Condvar::new(),
            max_outstanding,
            wake,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MailboxState> {
        self.state.lock().expect("mailbox lock")
    }

    /// Opens the next slot, waiting while the window is full, and returns
    /// its request number; `None` once the receiver is gone.
    fn open(&self) -> Option<u64> {
        let mut state = self.lock();
        while !state.receiver_gone && state.slots.len() >= self.max_outstanding {
            state.parked_submitters += 1;
            state = self.space.wait(state).expect("mailbox lock");
            state.parked_submitters -= 1;
        }
        if state.receiver_gone {
            return None;
        }
        state.slots.push_back(None);
        Some(state.head + state.slots.len() as u64 - 1)
    }

    /// Fills each `(seq, line, settle)` answer's slot and tallies it, all
    /// under one lock. Filling the front slot makes answers deliverable,
    /// so the receiver is woken once for the lot — a worker routes a scored
    /// batch's answers to each connection in one call.
    fn fill(&self, answers: impl IntoIterator<Item = (u64, String, Settle)>) {
        let mut state = self.lock();
        let mut front = false;
        for (seq, line, settle) in answers {
            let kind = match &settle {
                Settle::Scored { .. } => ResponseKind::Verdict,
                Settle::Error => ResponseKind::Error,
                Settle::Overload => ResponseKind::Overload,
                Settle::Timeout => ResponseKind::Timeout,
                Settle::Internal => ResponseKind::Internal,
                Settle::Stats => ResponseKind::Inline,
            };
            let report = &mut state.report;
            match settle {
                Settle::Scored { bytes, cached } => {
                    report.contracts += 1;
                    report.bytes += bytes;
                    if cached {
                        report.cache_hits += 1;
                    } else {
                        report.cache_misses += 1;
                    }
                }
                Settle::Error | Settle::Timeout | Settle::Internal => report.errors += 1,
                Settle::Overload => report.overloads += 1,
                Settle::Stats => {}
            }
            let index = (seq - state.head) as usize;
            state.slots[index] = Some((line, kind));
            front |= index == 0;
        }
        let deliverable = front && !state.receiver_gone;
        let notify = deliverable && state.parked_receivers > 0;
        drop(state);
        if notify {
            self.filled.notify_all();
        }
        if deliverable {
            self.wake();
        }
    }

    /// Ends the requests. With every answer already taken, that ends the
    /// stream, which the receiver sees. Idempotent.
    fn finish(&self) {
        let mut state = self.lock();
        if state.finished {
            return;
        }
        state.finished = true;
        let closed = state.slots.is_empty() && !state.receiver_gone;
        drop(state);
        if closed {
            self.filled.notify_all();
            self.wake();
        }
    }

    /// Pops the front slot once it is filled. `block` waits for it, and
    /// never returns [`PolledResponse::Empty`].
    fn take(&self, block: bool) -> PolledResponse {
        let mut state = self.lock();
        loop {
            if state.slots.front().is_some_and(Option::is_some) {
                let (line, kind) = state.slots.pop_front().flatten().expect("filled front");
                state.head += 1;
                let notify = state.parked_submitters > 0;
                drop(state);
                if notify {
                    self.space.notify_one();
                }
                return PolledResponse::Ready(line, kind);
            }
            if state.finished && state.slots.is_empty() {
                return PolledResponse::Closed;
            }
            if !block {
                return PolledResponse::Empty;
            }
            state.parked_receivers += 1;
            state = self.filled.wait(state).expect("mailbox lock");
            state.parked_receivers -= 1;
        }
    }

    /// The receiver left: a parked submitter wakes to disconnect.
    fn drop_receiver(&self) {
        self.lock().receiver_gone = true;
        self.space.notify_all();
    }

    fn wake(&self) {
        if let Some(wake) = &self.wake {
            wake();
        }
    }
}

/// The in-order response stream of one connection (the writer side of
/// [`Scheduler::connect`]). Taking an answer frees its slot in the
/// connection's flow-control window; dropping the stream unblocks and
/// disconnects the submit side.
pub struct Responses {
    mailbox: Arc<Mailbox>,
}

impl Responses {
    /// The next response line, in request order; `None` once the
    /// connection is finished and fully drained.
    pub fn recv(&self) -> Option<String> {
        match self.mailbox.take(true) {
            PolledResponse::Ready(line, _) => Some(line),
            _ => None,
        }
    }

    /// Nonblocking receive that distinguishes "nothing yet" from "stream
    /// ended" — what an event loop needs.
    pub fn poll(&self) -> PolledResponse {
        self.mailbox.take(false)
    }

    /// Iterates responses in request order until the stream ends.
    pub fn iter(&self) -> impl Iterator<Item = String> + '_ {
        std::iter::from_fn(|| self.recv())
    }
}

/// One [`Responses::poll`] outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolledResponse {
    /// A routed response line and its transport-facing kind.
    Ready(String, ResponseKind),
    /// Nothing routed yet; the connection is still live.
    Empty,
    /// The stream ended: the connection finished and fully drained.
    Closed,
}

impl std::fmt::Debug for Responses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responses").finish_non_exhaustive()
    }
}

impl Drop for Responses {
    fn drop(&mut self) {
        self.mailbox.drop_receiver();
    }
}

/// Maps a keccak-256 digest to its serving lane: the first 8 digest bytes
/// as a little-endian `u64`, modulo the shard count. Keccak output is
/// uniformly distributed, so lanes load-balance without any extra hashing;
/// with one shard every digest maps to lane 0.
pub fn shard_of(digest: &Digest, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&digest.0[..8]);
    (u64::from_le_bytes(prefix) % n_shards as u64) as usize
}

/// One serving lane: a bounded queue and a verdict-cache slice, owned
/// exclusively by this lane's worker and the submitters that route here.
struct Shard {
    queue: crate::queue::BoundedQueue<Job>,
    cache: Option<VerdictCache>,
}

/// Live per-shard observability, exported as `shard="<i>"`-labelled
/// Prometheus families and by [`Scheduler::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// The shard index (the `shard_of` routing target).
    pub shard: usize,
    /// Jobs queued on this shard right now.
    pub queue_depth: u64,
    /// This shard's queue capacity.
    pub queue_capacity: u64,
    /// This shard's cache-slice counters (`None` when the cache is off).
    pub cache: Option<CacheStats>,
}

struct Shared {
    shards: Vec<Shard>,
    /// Model names in per-model order — fixed for the process lifetime.
    names: Vec<String>,
    model_version: String,
    model_name: String,
    /// Widest per-feature bin count across the model's quantized mirrors
    /// (`None` when every model scores through its arena or is not a tree
    /// model).
    quant_bins: Option<usize>,
    max_outstanding: usize,
    /// Every serving counter, behind one consistent snapshot path.
    metrics: Metrics,
    /// Chain handle for resolving address-form requests; `None` serves
    /// bytecode-only (address requests answer a typed error).
    chain: Option<SharedChain>,
    /// Per-request deadline (`None` = no deadline), enforced at dequeue.
    deadline: Option<Duration>,
    /// Bounded-drain budget in milliseconds (`0` = unbounded).
    drain_ms: u64,
    /// 0 = running, 1 = draining (see [`Lifecycle`]).
    lifecycle: AtomicU8,
    /// Set by [`Scheduler::begin_drain`] when `drain_ms > 0`; past this
    /// instant workers answer queued jobs with typed timeouts.
    drain_deadline: Mutex<Option<Instant>>,
    /// Brownout thresholds (percent of queue capacity).
    cache_first_pct: u32,
    cache_only_pct: u32,
    /// Backoff policy for transient chain faults.
    retry: RetryPolicy,
    /// Seeded fault schedule; `None` injects nothing.
    fault: Option<Arc<FaultPlan>>,
}

impl Shared {
    /// Jobs queued across every shard.
    fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Total queue capacity across every shard.
    fn queue_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.queue.capacity()).sum()
    }

    /// Cache counters summed across every shard's slice (`None` when the
    /// cache is disabled). Slices never share keys — a digest routes to
    /// exactly one shard — so plain sums stay exact.
    fn cache_stats(&self) -> Option<CacheStats> {
        self.shards[0].cache.as_ref()?;
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let stats = shard.cache.as_ref().map(VerdictCache::stats)?;
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.insertions += stats.insertions;
            total.entries += stats.entries;
            total.bytes += stats.bytes;
            total.capacity_bytes += stats.capacity_bytes;
        }
        Some(total)
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            self.queue_len() as u64,
            self.queue_capacity() as u64,
            self.cache_stats(),
        )
    }

    /// Per-shard depth/capacity/cache view for `/metrics` and the CLI.
    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                shard: i,
                queue_depth: shard.queue.len() as u64,
                queue_capacity: shard.queue.capacity() as u64,
                cache: shard.cache.as_ref().map(VerdictCache::stats),
            })
            .collect()
    }

    /// The brownout tier a queue at `len` of `cap` slots sits in. Pure —
    /// callers that report the tier push it to the gauge themselves.
    fn tier_from_fill(&self, len: usize, cap: usize) -> DegradationTier {
        let fill = len * 100;
        if fill >= self.cache_only_pct as usize * cap {
            DegradationTier::CacheOnly
        } else if fill >= self.cache_first_pct as usize * cap {
            DegradationTier::CacheFirst
        } else {
            DegradationTier::Full
        }
    }

    /// The brownout tier for one shard's current fill, pushed to the
    /// metrics tier gauge / degraded-time clock as a side effect — each
    /// lane degrades on its own backlog, so one hot shard browning out
    /// never sheds traffic from its idle siblings.
    fn tier_for(&self, shard: usize) -> DegradationTier {
        let queue = &self.shards[shard].queue;
        let tier = self.tier_from_fill(queue.len(), queue.capacity());
        self.metrics.set_tier(tier as u8);
        tier
    }

    /// The deepest brownout tier across all shards (the process-level
    /// answer `/healthz` and the CLI report), also pushed to the gauge.
    fn current_tier(&self) -> DegradationTier {
        let tier = (0..self.shards.len())
            .map(|i| {
                let queue = &self.shards[i].queue;
                self.tier_from_fill(queue.len(), queue.capacity())
            })
            .max()
            .unwrap_or(DegradationTier::Full);
        self.metrics.set_tier(tier as u8);
        tier
    }

    fn is_draining(&self) -> bool {
        self.lifecycle.load(Ordering::SeqCst) == 1
    }

    /// True once a bounded drain's deadline has passed: queued jobs should
    /// answer typed timeouts instead of being scored.
    fn drain_expired(&self) -> bool {
        self.is_draining()
            && self
                .drain_deadline
                .lock()
                .expect("drain lock")
                .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// The shared serving core: one scheduler per process, many connections.
pub struct Scheduler {
    shared: Arc<Shared>,
    lanes: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("model", &self.shared.model_name)
            .field("lanes", &self.lanes.len())
            .field("metrics", &self.shared.metrics_snapshot())
            .finish()
    }
}

impl Scheduler {
    /// Spawns one scoring thread per lane around `scanner`'s shared model.
    /// The snapshot behind `scanner` is restored once by the caller; every
    /// worker is an `Arc`-sharing [`Scanner::worker`] sibling with its own
    /// scratch matrix. Serves bytecode-only: address-form requests answer a
    /// typed error (attach a chain with [`Scheduler::with_chain`]).
    pub fn new(scanner: &Scanner, opts: &SchedulerOptions) -> Self {
        Scheduler::with_chain(scanner, opts, None)
    }

    /// Like [`Scheduler::new`], with a chain handle: address-form requests
    /// resolve to bytecode through `chain` at submit time, so HTTP and
    /// JSONL clients can ask about a deployed contract by address alone.
    pub fn with_chain(
        scanner: &Scanner,
        opts: &SchedulerOptions,
        chain: Option<SharedChain>,
    ) -> Self {
        let n_shards = opts.shards.max(1);
        // The queue budget splits exactly, the remainder one slot each to
        // the first lanes, and every lane keeps at least one slot (so
        // `shards > queue_depth` still admits). Caches round down: a 0-byte
        // slice disables caching, which keeps `cache_bytes: 0` meaning
        // "off" for any lane count.
        let depth = opts.queue_depth.max(1);
        let lane_cache_bytes = opts.cache_bytes / n_shards;
        let shards = (0..n_shards)
            .map(|i| Shard {
                queue: crate::queue::BoundedQueue::new(
                    (depth / n_shards + usize::from(i < depth % n_shards)).max(1),
                ),
                cache: (lane_cache_bytes > 0).then(|| VerdictCache::new(lane_cache_bytes)),
            })
            .collect();
        let shared = Arc::new(Shared {
            shards,
            names: scanner.model_names(),
            model_version: scanner.model_version().to_owned(),
            model_name: scanner.model_name().to_owned(),
            quant_bins: scanner.quant_bins(),
            max_outstanding: opts.max_outstanding.max(1),
            metrics: Metrics::new(),
            chain,
            deadline: (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms)),
            drain_ms: opts.drain_ms,
            lifecycle: AtomicU8::new(0),
            drain_deadline: Mutex::new(None),
            cache_first_pct: opts.cache_first_pct,
            cache_only_pct: opts.cache_only_pct,
            retry: opts.retry.clone(),
            fault: opts
                .fault
                .filter(|config| !config.is_inert())
                .map(|config| Arc::new(FaultPlan::new(config))),
        });
        let batch = opts.batch.max(1);
        let lanes = (0..n_shards)
            .map(|shard_idx| {
                let shared = Arc::clone(&shared);
                let seed = scanner.worker();
                // Supervisor: a clean (queue-closed) exit ends the thread;
                // a panicked batch respawns a fresh Arc-sharing sibling in
                // place — fresh scratch state, same shared model, same lane.
                std::thread::Builder::new()
                    .name(format!("lane-{shard_idx}"))
                    .spawn(move || loop {
                        if worker_loop(&shared, shard_idx, seed.worker(), batch) {
                            return;
                        }
                    })
                    .expect("spawn a lane's scoring thread")
            })
            .collect();
        Scheduler { shared, lanes }
    }

    /// Registers a new connection: the returned [`Connection`] is the
    /// submit side (give it to the reader), the [`Responses`] stream yields
    /// response lines already in request order (give it to the writer).
    /// The stream ends once the connection is finished and every response
    /// routed. Outstanding responses are bounded by
    /// [`SchedulerOptions::max_outstanding`]: a writer that stops draining
    /// eventually blocks the submit side instead of growing memory.
    pub fn connect(&self, proto: Protocol) -> (Connection, Responses) {
        self.connect_with_wake(proto, None)
    }

    /// [`Scheduler::connect`] for a transport that parks in `poll(2)`:
    /// `wake` runs whenever this connection's mailbox fills its front slot
    /// or closes its stream — from a worker, a deadline or drain answer, an
    /// inline answer, or [`Connection::finish`] — so the transport never
    /// has to tick to notice a routed response. It runs outside the mailbox
    /// lock and must not block.
    pub(crate) fn connect_with_wake(
        &self,
        proto: Protocol,
        wake: Option<WakeHook>,
    ) -> (Connection, Responses) {
        self.shared.metrics.inc_connections();
        let mailbox = Arc::new(Mailbox::new(self.shared.max_outstanding, wake));
        (
            Connection {
                shared: Arc::clone(&self.shared),
                mailbox: Arc::clone(&mailbox),
                proto,
            },
            Responses { mailbox },
        )
    }

    /// The full metrics snapshot (what `/metrics` exports and the `stats`
    /// wire command renders): scheduler and cache counters plus HTTP
    /// tallies and the latency histogram, all captured through one
    /// consistent read path.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// The live counter block — the HTTP gateway records its
    /// request/response tallies here so `/metrics` sees both front-ends.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The number of serving lanes (≥ 1).
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Per-shard queue depth/capacity and cache-slice counters, one entry
    /// per lane in routing order (what `/metrics` labels `shard="i"`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared.shard_stats()
    }

    /// Reads the cached verdict for `digest` from whichever shard's cache
    /// slice owns it, without perturbing hit/miss counters or LRU order.
    /// `None` when the cache is off or the digest is not resident — the
    /// observation hook for the bit-equality harness.
    pub fn cached_verdict(&self, digest: &Digest) -> Option<CachedVerdict> {
        let shard = &self.shared.shards[shard_of(digest, self.shared.shards.len())];
        shard.cache.as_ref()?.peek(digest)
    }

    /// Marks the scheduler as draining: `/healthz` flips to 503, and when
    /// a drain budget is configured ([`SchedulerOptions::drain_ms`]),
    /// jobs still queued past the budget answer typed timeouts instead of
    /// being scored. Idempotent; call before [`Scheduler::shutdown`].
    pub fn begin_drain(&self) {
        let was = self.shared.lifecycle.swap(1, Ordering::SeqCst);
        if was == 0 && self.shared.drain_ms > 0 {
            *self.shared.drain_deadline.lock().expect("drain lock") =
                Some(Instant::now() + Duration::from_millis(self.shared.drain_ms));
        }
    }

    /// Running, or draining after [`Scheduler::begin_drain`].
    pub fn lifecycle(&self) -> Lifecycle {
        if self.shared.is_draining() {
            Lifecycle::Draining
        } else {
            Lifecycle::Running
        }
    }

    /// The brownout tier for the current queue fill.
    pub fn degradation_tier(&self) -> DegradationTier {
        self.shared.current_tier()
    }

    /// The attached fault schedule, when one was configured — the chaos
    /// suite reads its injection counters to assert exact recovery.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.shared.fault.as_deref()
    }

    /// Model names in per-model response order.
    pub fn model_names(&self) -> &[String] {
        &self.shared.names
    }

    /// Display name of the served model.
    pub fn model_name(&self) -> &str {
        &self.shared.model_name
    }

    /// `"<snapshot-kind>/v<format-version>"` of the served model.
    pub fn model_version(&self) -> &str {
        &self.shared.model_version
    }

    /// Widest per-feature bin count across the served model's quantized
    /// mirrors (`None` for non-tree models).
    pub fn quant_bins(&self) -> Option<usize> {
        self.shared.quant_bins
    }

    /// Graceful shutdown: closes the queues (the shutdown sentinel), lets
    /// the workers drain and score every already-admitted job, joins them,
    /// and returns the final counters. In-flight requests are never
    /// dropped — their responses are routed before the workers exit.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.shared.metrics_snapshot()
    }

    fn shutdown_in_place(&mut self) {
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        for handle in self.lanes.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The submit side of one registered connection (single-reader).
pub struct Connection {
    shared: Arc<Shared>,
    mailbox: Arc<Mailbox>,
    proto: Protocol,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("proto", &self.proto)
            .field("report", &self.report())
            .finish()
    }
}

/// What one submitted line turned into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Blank line: ignored, no response will be produced.
    Ignored,
    /// Admitted to the batch queue; the response arrives asynchronously.
    Queued,
    /// Answered immediately from the verdict cache.
    CacheHit,
    /// Answered immediately with a malformed-request error response.
    Error,
    /// An address target that could not be resolved to bytecode (no chain
    /// attached, or no code at the address); answered with a typed error.
    Unresolved,
    /// Shed with a typed overload response (or refused because the
    /// scheduler is shutting down).
    Overloaded,
    /// The `stats` command: answered immediately with counters.
    Stats,
    /// The connection's [`Responses`] stream was dropped — responses would
    /// go nowhere, so nothing was routed. The reader should stop.
    Disconnected,
}

impl Connection {
    /// This connection's tallies so far, with `secs` left at zero for the
    /// transport to fill in; final once its [`Responses`] stream has ended.
    pub fn report(&self) -> ServeReport {
        self.mailbox.lock().report
    }

    /// The scheduler's per-connection flow-control window — the poll loop
    /// caps its own in-flight count below this so [`Connection::submit`]
    /// can never block a single-threaded event loop on a full mailbox.
    pub(crate) fn max_outstanding(&self) -> usize {
        self.mailbox.max_outstanding
    }

    /// Decodes one request line under the connection's protocol and routes
    /// it: blank lines are ignored; the `stats` command, malformed lines
    /// and cache hits are answered inline; everything else is admitted to
    /// the shared batch queue under the given [`Admission`] mode.
    ///
    /// Blocks while the connection's flow-control window is full (the
    /// writer has [`SchedulerOptions::max_outstanding`] responses it has
    /// not drained yet) — transport backpressure for clients that stop
    /// reading.
    pub fn submit(&mut self, line: &str, admission: Admission) -> SubmitOutcome {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return SubmitOutcome::Ignored;
        }
        let Some(seq) = self.mailbox.open() else {
            return SubmitOutcome::Disconnected;
        };
        if trimmed == proto::STATS_COMMAND {
            let out = self
                .proto
                .render_stats(&self.shared.metrics_snapshot(), self.shared.quant_bins);
            self.mailbox.fill([(seq, out, Settle::Stats)]);
            return SubmitOutcome::Stats;
        }

        // Decode to (id, target) under the connection's framing.
        let fallback = seq.to_string();
        let decoded: Result<(String, Target), (String, String)> = match self.proto {
            Protocol::V1 => match proto::check_line_len(line) {
                Err(msg) => Err((fallback.clone(), msg)),
                Ok(()) => match phishinghook_evm::keccak::from_hex(trimmed) {
                    Some(code) => Ok((fallback.clone(), Target::Bytecode(code))),
                    None => Err((fallback.clone(), "not valid hex bytecode".to_owned())),
                },
            },
            Protocol::V2 => match proto::parse_request_v2(line, &fallback) {
                Ok(req) => match req.payload {
                    proto::WirePayload::Bytecode(hex) => {
                        match phishinghook_evm::keccak::from_hex(hex.trim()) {
                            Some(code) => Ok((req.id, Target::Bytecode(code))),
                            None => Err((req.id, "not valid hex bytecode".to_owned())),
                        }
                    }
                    proto::WirePayload::Address(hex) => match proto::parse_address(hex.trim()) {
                        Ok(address) => Ok((req.id, Target::Address(address))),
                        Err(msg) => Err((req.id, msg)),
                    },
                },
                Err(msg) => Err((fallback.clone(), msg)),
            },
        };
        match decoded {
            Ok((id, target)) => self.route_target(seq, id, target, admission),
            Err((id, msg)) => self.route_error(seq, &id, &msg),
        }
    }

    /// Submits one line cut by a [`LineFramer`](proto::LineFramer): a line
    /// within the cap goes through [`Connection::submit`] (invalid UTF-8
    /// replaced, never fatal). An oversized line, which the framer cut off
    /// while reading, takes a request slot answered with the typed
    /// byte-limit error.
    pub(crate) fn submit_framed(
        &mut self,
        framed: Framed<'_>,
        admission: Admission,
    ) -> SubmitOutcome {
        let line_bytes = match framed {
            Framed::Line(line) => return self.submit(&String::from_utf8_lossy(line), admission),
            Framed::Oversized(line_bytes) => line_bytes,
        };
        let Some(seq) = self.mailbox.open() else {
            return SubmitOutcome::Disconnected;
        };
        let msg = proto::oversized_line_message(line_bytes);
        self.route_error(seq, &seq.to_string(), &msg)
    }

    /// Routes one already-rendered response body through the connection's
    /// ordered stream (the HTTP gateway's `/healthz`, `/metrics` and
    /// immediate-reject paths — they must interleave in request order with
    /// scored verdicts on the same connection).
    pub(crate) fn submit_rendered(&mut self, line: String, is_error: bool) -> SubmitOutcome {
        let Some(seq) = self.mailbox.open() else {
            return SubmitOutcome::Disconnected;
        };
        if is_error {
            self.shared.metrics.inc_errors();
            self.mailbox.fill([(seq, line, Settle::Error)]);
            SubmitOutcome::Error
        } else {
            self.mailbox.fill([(seq, line, Settle::Stats)]);
            SubmitOutcome::Stats
        }
    }

    /// Answers a decode failure inline with the framing's error response.
    fn route_error(&mut self, seq: u64, id: &str, msg: &str) -> SubmitOutcome {
        self.shared.metrics.inc_errors();
        let out = self.proto.render_error(id, msg);
        self.mailbox.fill([(seq, out, Settle::Error)]);
        SubmitOutcome::Error
    }

    /// Resolves `target` to bytecode, answers from the cache when
    /// possible, and otherwise admits a job to the shared queue.
    fn route_target(
        &mut self,
        seq: u64,
        id: String,
        target: Target,
        admission: Admission,
    ) -> SubmitOutcome {
        let t0 = Instant::now();
        let address = target.address();
        let code = match target {
            Target::Bytecode(code) => code,
            Target::Address(addr) => {
                let Some(chain) = self.shared.chain.as_ref() else {
                    self.route_error(seq, &id, &ResolveError::NoSource(addr).to_string());
                    return SubmitOutcome::Unresolved;
                };
                // Address resolution runs under the scheduler's seeded
                // retry policy: transient chain faults back off and retry
                // instead of failing the request. The fault plan (when
                // attached) injects its faults and latency here, upstream
                // of the real lookup.
                let metrics = &self.shared.metrics;
                let fault = self.shared.fault.as_deref();
                let lookup = || {
                    if let Some(plan) = fault {
                        if let Some(err) = plan.chain_fault() {
                            return Err(err);
                        }
                    }
                    chain.try_code_at(addr)
                };
                let resolved = self
                    .shared
                    .retry
                    .run(lookup, |_, _, _| metrics.inc_chain_retries());
                match resolved {
                    Ok(Some(code)) => code,
                    Ok(None) => {
                        self.route_error(seq, &id, &ResolveError::NoCode(addr).to_string());
                        return SubmitOutcome::Unresolved;
                    }
                    Err(err) => {
                        self.route_error(seq, &id, &err.to_string());
                        return SubmitOutcome::Unresolved;
                    }
                }
            }
        };

        // The verdict cache sits in front of the queue: a redeployed
        // bytecode never occupies a batch slot. The digest doubles as the
        // shard router, so it is computed whenever either consumer needs
        // it (cache off + 1 shard skips the hash entirely).
        let n_shards = self.shared.shards.len();
        let cache_on = self.shared.shards[0].cache.is_some();
        let hash = (cache_on || n_shards > 1).then(|| Digest::of(&code));
        let shard_idx = hash.as_ref().map_or(0, |h| shard_of(h, n_shards));
        let shard = &self.shared.shards[shard_idx];
        if let (Some(cache), Some(hash)) = (&shard.cache, hash) {
            if let Some(verdict) = cache.lookup(&hash) {
                let line = self.proto.render_verdict(
                    &id,
                    address.as_ref(),
                    verdict.proba,
                    &self.shared.model_version,
                    &self.shared.names,
                    &verdict.per_model,
                );
                // Recorded before routing, so a `/metrics` scrape that
                // follows the client's read of this answer counts it.
                self.shared.metrics.record_latency(t0.elapsed());
                let settle = Settle::Scored {
                    bytes: code.len() as u64,
                    cached: true,
                };
                self.mailbox.fill([(seq, line, settle)]);
                return SubmitOutcome::CacheHit;
            }
        }

        // Brownout ladder: the tier is computed on every admission (keeps
        // the gauge and degraded-time clock honest) but only applied to
        // lossy shed-mode submissions — Block is the lossless bulk path.
        // Each shard degrades on its own queue fill.
        let tier = self.shared.tier_for(shard_idx);
        let degraded = match admission {
            Admission::Block => false,
            Admission::Shed => match tier {
                DegradationTier::Full => false,
                DegradationTier::CacheFirst => true,
                DegradationTier::CacheOnly => {
                    // The cache already missed (or is off): refuse typed
                    // rather than deepen the queue the tier exists to save.
                    self.shared.metrics.inc_overloads();
                    let out = self.proto.render_overload(&id);
                    self.mailbox.fill([(seq, out, Settle::Overload)]);
                    return SubmitOutcome::Overloaded;
                }
            },
        };

        let job = Job {
            mailbox: Arc::clone(&self.mailbox),
            seq,
            id,
            address,
            code,
            hash,
            proto: self.proto,
            t0,
            degraded,
        };
        // Counted before the push so a worker can never score a job whose
        // `submitted` increment is still pending (see `Metrics::snapshot`).
        self.shared.metrics.inc_submitted();
        let refused = match admission {
            Admission::Block => shard.queue.push(job).err(),
            Admission::Shed => shard.queue.try_push(job).err().map(|e| match e {
                crate::queue::PushError::Full(job) | crate::queue::PushError::Closed(job) => job,
            }),
        };
        match refused {
            None => SubmitOutcome::Queued,
            Some(job) => {
                self.shared.metrics.dec_submitted();
                self.shared.metrics.inc_overloads();
                let out = self.proto.render_overload(&job.id);
                self.mailbox.fill([(job.seq, out, Settle::Overload)]);
                SubmitOutcome::Overloaded
            }
        }
    }

    /// Marks the request stream as ended: once every response has been
    /// received, the [`Responses`] stream ends. Idempotent; also runs on
    /// drop.
    pub fn finish(&mut self) {
        self.mailbox.finish();
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Answers one dequeued job with the framing's typed timeout response.
fn answer_timeout(shared: &Shared, job: &Job) {
    shared.metrics.inc_timeouts();
    let out = job.proto.render_timeout(&job.id);
    job.mailbox.fill([(job.seq, out, Settle::Timeout)]);
}

/// A lane's worker: take whatever that lane's queue holds (up to `batch`
/// jobs, waiting only while it is empty), score it through the shared
/// model, insert into the lane's cache slice, route responses. Returns
/// `true` on the clean exit (queue closed **and** drained) and `false`
/// after a caught scoring panic — the supervisor in
/// [`Scheduler::with_chain`] respawns a fresh sibling on the same thread
/// in that case, after every job of the poisoned batch was answered with
/// a typed internal error.
/// Requests that out-waited their deadline (or a bounded drain's budget)
/// answer typed timeouts at dequeue without being scored.
fn worker_loop(shared: &Shared, shard_idx: usize, mut scanner: Scanner, batch: usize) -> bool {
    let shard = &shared.shards[shard_idx];
    loop {
        let mut jobs = Vec::new();
        if !shard.queue.pop_batch(batch, &mut jobs) {
            return true; // shutdown sentinel: closed and drained
        }

        // Deadline enforcement happens here, at dequeue: scoring a request
        // whose client budget already lapsed wastes the batch slot that
        // could serve a live one.
        let drain_expired = shared.drain_expired();
        if drain_expired || shared.deadline.is_some() {
            jobs.retain(|job| {
                let expired =
                    drain_expired || shared.deadline.is_some_and(|d| job.t0.elapsed() > d);
                if expired {
                    answer_timeout(shared, job);
                }
                !expired
            });
        }
        if jobs.is_empty() {
            continue;
        }

        // Degraded (CacheFirst-tier) rows score on the primary member
        // only; full rows keep the whole ensemble. Both passes run inside
        // one catch_unwind so a panic anywhere answers the whole batch.
        let full_rows: Vec<usize> = (0..jobs.len()).filter(|&i| !jobs[i].degraded).collect();
        let degraded_rows: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].degraded).collect();
        let scored = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &shared.fault {
                if plan.should_panic_batch(shard_idx) {
                    panic!("{}", crate::fault::INJECTED_PANIC);
                }
            }
            let full_codes: Vec<&[u8]> =
                full_rows.iter().map(|&i| jobs[i].code.as_slice()).collect();
            let degraded_codes: Vec<&[u8]> = degraded_rows
                .iter()
                .map(|&i| jobs[i].code.as_slice())
                .collect();
            let full = if full_codes.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                scanner.score_with_members(&full_codes)
            };
            let degraded = if degraded_codes.is_empty() {
                (Vec::new(), String::new())
            } else {
                scanner.score_primary(&degraded_codes)
            };
            (full, degraded)
        }));
        let ((combined, per_model), (primary, primary_name)) = match scored {
            Ok(result) => result,
            Err(_) => {
                // The batch is poisoned; every rider gets a typed internal
                // error so no mailbox slot is left waiting, and the
                // supervisor replaces this worker with a fresh sibling.
                shared.metrics.inc_worker_panics();
                let answers = jobs
                    .iter()
                    .map(|job| (job.proto.render_internal(&job.id), Settle::Internal));
                route(&jobs, answers);
                return false;
            }
        };
        shared.metrics.inc_batches();
        shared.metrics.inc_scored(jobs.len() as u64);

        // Degraded verdicts report the one member they ran and never enter
        // the cache: a later hit must replay full-ensemble bits.
        let degraded_names = [primary_name];
        let mut member_probas = vec![0.0f64; per_model.len()];
        let (mut full_row, mut degraded_row) = (0, 0);
        let answers: Vec<(String, Settle)> = jobs
            .iter()
            .map(|job| {
                let line = if job.degraded {
                    let row = degraded_row;
                    degraded_row += 1;
                    job.proto.render_verdict(
                        &job.id,
                        job.address.as_ref(),
                        primary[row],
                        &shared.model_version,
                        &degraded_names,
                        &primary[row..=row],
                    )
                } else {
                    let row = full_row;
                    full_row += 1;
                    for (m, (_, probs)) in per_model.iter().enumerate() {
                        member_probas[m] = probs[row];
                    }
                    if let (Some(cache), Some(hash)) = (&shard.cache, job.hash) {
                        cache.insert(
                            hash,
                            CachedVerdict {
                                proba: combined[row],
                                per_model: member_probas.clone(),
                            },
                        );
                    }
                    job.proto.render_verdict(
                        &job.id,
                        job.address.as_ref(),
                        combined[row],
                        &shared.model_version,
                        &shared.names,
                        &member_probas,
                    )
                };
                // Recorded before routing (see the cache-hit path).
                shared.metrics.record_latency(job.t0.elapsed());
                let settle = Settle::Scored {
                    bytes: job.code.len() as u64,
                    cached: false,
                };
                (line, settle)
            })
            .collect();
        route(&jobs, answers);
    }
}

/// Routes one batch's answers, the i-th to `jobs[i]`: each run of jobs
/// from the same connection fills its mailbox under one lock, with one
/// wake-up for the run.
fn route(jobs: &[Job], answers: impl IntoIterator<Item = (String, Settle)>) {
    let mut routed = jobs.iter().zip(answers).peekable();
    while let Some((job, (line, settle))) = routed.next() {
        let run = std::iter::from_fn(|| {
            routed.next_if(|(next, _)| Arc::ptr_eq(&next.mailbox, &job.mailbox))
        });
        let answers = run.map(|(job, (line, settle))| (job.seq, line, settle));
        job.mailbox
            .fill(std::iter::once((job.seq, line, settle)).chain(answers));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{probe_lines, scanner};
    use phishinghook_evm::keccak::to_hex;

    fn opts() -> SchedulerOptions {
        SchedulerOptions::default()
    }

    fn no_cache() -> SchedulerOptions {
        SchedulerOptions {
            cache_bytes: 0,
            ..opts()
        }
    }

    /// Submits every line on one connection and returns the in-order
    /// response lines.
    fn roundtrip(scheduler: &Scheduler, proto: Protocol, lines: &str) -> Vec<String> {
        let (mut conn, rx) = scheduler.connect(proto);
        for line in lines.lines() {
            conn.submit(line, Admission::Block);
        }
        conn.finish();
        rx.iter().collect()
    }

    #[test]
    fn per_connection_ordering_under_concurrent_clients() {
        // Three concurrent connections share one scheduler (and its cache);
        // the batches mix their rows, yet each connection's responses come
        // back in its own request order with its own ids.
        let (input, codes) = probe_lines(17);
        let scheduler = Scheduler::new(scanner(), &opts());
        let expected = scanner()
            .worker()
            .score_batch(&codes.iter().map(Vec::as_slice).collect::<Vec<_>>());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let scheduler = &scheduler;
                    let input = &input;
                    scope.spawn(move || roundtrip(scheduler, Protocol::V2, input))
                })
                .collect();
            for handle in handles {
                let lines = handle.join().expect("client");
                assert_eq!(lines.len(), codes.len());
                for (i, (line, p)) in lines.iter().zip(&expected).enumerate() {
                    // Bare-hex ids default to the per-connection sequence
                    // number — in-order delivery makes them 0..n.
                    assert!(
                        line.starts_with(&format!("{{\"proto\":2,\"id\":\"{i}\",")),
                        "{line}"
                    );
                    assert!(line.contains(&format!("\"proba\":{p:.6}")), "{line}");
                }
            }
        });
        let stats = scheduler.shutdown();
        // 3 × 17 requests were answered: every one either hit the shared
        // cache or was scored cold — nothing lost, nothing double-counted.
        // (How many hit depends on thread interleaving; the dedup
        // guarantee itself is asserted deterministically elsewhere.)
        let cache = stats.cache.expect("cache enabled");
        assert_eq!(cache.hits + stats.scheduler.scored, 51);
    }

    #[test]
    fn cache_on_and_off_agree_bit_identically() {
        let (input, codes) = probe_lines(12);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        for model in [scanner(), crate::testutil::ensemble_scanner()] {
            let cold = Scheduler::new(model, &no_cache());
            let cold_lines = roundtrip(&cold, Protocol::V2, &input);

            let cached = Scheduler::new(model, &opts());
            let first_pass = roundtrip(&cached, Protocol::V2, &input);
            let second_pass = roundtrip(&cached, Protocol::V2, &input);

            // Rendered responses agree across cache-off, cache-miss and
            // cache-hit paths (ids are positional, so lines match exactly).
            assert_eq!(cold_lines, first_pass);
            assert_eq!(cold_lines, second_pass);
            let stats = cached.metrics_snapshot();
            assert_eq!(stats.cache.expect("enabled").hits, codes.len() as u64);

            // And below the rendering: what the scheduler's cold pass
            // stored is exactly what a one-row cold score produces — the
            // path a hit stands in for — combined and per member.
            let mut cold_path = model.worker();
            for code in &refs {
                let hit = cached
                    .cached_verdict(&Digest::of(code))
                    .expect("the cold pass cached every code");
                let (combined, members) = cold_path.score_with_members(&[*code]);
                assert_eq!(hit.proba.to_bits(), combined[0].to_bits());
                assert_eq!(hit.per_model.len(), members.len());
                for (cached_p, (name, p)) in hit.per_model.iter().zip(&members) {
                    assert_eq!(cached_p.to_bits(), p[0].to_bits(), "{name}");
                }
            }
        }
    }

    #[test]
    fn shed_admission_answers_overload_typed_and_drops_nothing() {
        // A tiny queue and deliberately slow draining (1-row batches) make
        // the fast producer outrun the worker; shed admission must answer
        // the surplus with typed overload responses while every admitted
        // request still gets scored.
        let (input, _) = probe_lines(4);
        let slow = SchedulerOptions {
            batch: 1,
            queue_depth: 1,
            cache_bytes: 0, // identical lines must not short-circuit
            ..opts()
        };
        let scheduler = Scheduler::new(scanner(), &slow);
        let (mut conn, rx) = scheduler.connect(Protocol::V2);
        let line = input.lines().next().expect("one probe");
        let mut outcomes = Vec::new();
        const SUBMITS: usize = 4000;
        for _ in 0..SUBMITS {
            outcomes.push(conn.submit(line, Admission::Shed));
            if outcomes
                .iter()
                .filter(|o| **o == SubmitOutcome::Overloaded)
                .count()
                >= 3
            {
                break;
            }
        }
        conn.finish();
        let lines: Vec<String> = rx.iter().collect();
        assert_eq!(lines.len(), outcomes.len(), "one response per request");
        let overloads = outcomes
            .iter()
            .filter(|o| **o == SubmitOutcome::Overloaded)
            .count();
        assert!(overloads >= 1, "queue never filled in {SUBMITS} submits");
        let mut typed = 0;
        for (line, outcome) in lines.iter().zip(&outcomes) {
            match outcome {
                SubmitOutcome::Overloaded => {
                    assert!(line.contains("\"code\":\"overloaded\""), "{line}");
                    typed += 1;
                }
                SubmitOutcome::Queued => {
                    assert!(line.contains("\"verdict\":"), "{line}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(typed, overloads);
        let report = conn.report();
        assert_eq!(report.overloads, overloads as u64);
        assert_eq!(report.contracts + report.overloads, outcomes.len() as u64);
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.overloads, overloads as u64);
        assert_eq!(
            stats.scheduler.scored,
            (outcomes.len() - overloads) as u64,
            "every admitted request must be scored"
        );
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        // Queue a burst, end the stream, and shut down immediately: the
        // sentinel must let workers drain everything already admitted.
        let (input, codes) = probe_lines(30);
        let burst = SchedulerOptions {
            batch: 4,
            queue_depth: 64,
            cache_bytes: 0,
            ..opts()
        };
        let scheduler = Scheduler::new(scanner(), &burst);
        let (mut conn, rx) = scheduler.connect(Protocol::V1);
        for line in input.lines() {
            assert_eq!(conn.submit(line, Admission::Block), SubmitOutcome::Queued);
        }
        conn.finish();
        drop(conn);
        // Shut down while the burst may still be queued: the sentinel must
        // drain and score everything admitted before the workers exit.
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.scored, codes.len() as u64);
        assert_eq!(stats.scheduler.queue_depth, 0);
        let lines: Vec<String> = rx.iter().collect();
        assert_eq!(lines.len(), codes.len(), "no dropped in-flight requests");
    }

    #[test]
    fn stats_command_reports_counters_in_both_framings() {
        let (input, _) = probe_lines(2);
        let scheduler = Scheduler::new(scanner(), &opts());
        // Warm the cache in a completed first session so the second
        // session's hit counts are deterministic.
        roundtrip(&scheduler, Protocol::V2, &input);
        let v2 = roundtrip(&scheduler, Protocol::V2, &format!("{input}stats\n"));
        let stats_line = v2.last().expect("stats response");
        assert!(
            stats_line.starts_with("{\"proto\":2,\"stats\":{\"scheduler\":{"),
            "{stats_line}"
        );
        assert!(stats_line.contains("\"cache\":{\"hits\":2"), "{stats_line}");
        let v1 = roundtrip(&scheduler, Protocol::V1, "stats\n");
        assert!(v1[0].starts_with("stats\thits="), "{}", v1[0]);
    }

    #[test]
    fn flow_control_window_bounds_outstanding_responses() {
        // A tiny window: the submitter must block until the receiver
        // drains, yet every request still gets exactly one response —
        // bounded memory for a slow writer, no losses.
        use std::sync::atomic::AtomicUsize;
        const WINDOW: usize = 3;
        let (input, codes) = probe_lines(20);
        let windowed = SchedulerOptions {
            max_outstanding: WINDOW,
            cache_bytes: 0,
            ..opts()
        };
        let scheduler = Scheduler::new(scanner(), &windowed);
        let (mut conn, rx) = scheduler.connect(Protocol::V1);
        let submitted = AtomicUsize::new(0);
        let lines = std::thread::scope(|scope| {
            let submitted = &submitted;
            let submitter = scope.spawn(move || {
                for line in input.lines() {
                    assert_ne!(
                        conn.submit(line, Admission::Block),
                        SubmitOutcome::Disconnected
                    );
                    submitted.fetch_add(1, Ordering::SeqCst);
                }
                conn.finish();
            });
            // Drain slowly from this thread; the submitter can never be
            // more than WINDOW responses ahead of what was received.
            let mut lines = Vec::new();
            while let Some(line) = rx.recv() {
                lines.push(line);
                let ahead = submitted.load(Ordering::SeqCst) - lines.len();
                assert!(ahead <= WINDOW, "{ahead} responses outstanding");
                std::thread::sleep(Duration::from_millis(1));
            }
            submitter.join().expect("submitter");
            lines
        });
        assert_eq!(lines.len(), codes.len());
    }

    #[test]
    fn late_answers_to_a_dropped_receiver_go_nowhere() {
        // One worker scoring one-row batches falls behind a dozen lossless
        // submits, and the receiver leaves while most of them still wait in
        // the queue. Their answers fill a mailbox nobody reads: no panic,
        // every job is still scored, and the submit side is disconnected.
        let (input, codes) = probe_lines(12);
        let slow = SchedulerOptions {
            batch: 1,
            shards: 1,
            cache_bytes: 0,
            ..opts()
        };
        let scheduler = Scheduler::new(scanner(), &slow);
        let (mut conn, rx) = scheduler.connect(Protocol::V2);
        for line in input.lines() {
            assert_eq!(conn.submit(line, Admission::Block), SubmitOutcome::Queued);
        }
        drop(rx);
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.scored, codes.len() as u64);
        let line = input.lines().next().expect("probe");
        assert_eq!(
            conn.submit(line, Admission::Block),
            SubmitOutcome::Disconnected
        );
    }

    #[test]
    fn dropped_response_stream_disconnects_the_submit_side() {
        let (input, _) = probe_lines(2);
        let scheduler = Scheduler::new(scanner(), &opts());
        let (mut conn, rx) = scheduler.connect(Protocol::V2);
        drop(rx); // the writer died
        let line = input.lines().next().expect("probe");
        assert_eq!(
            conn.submit(line, Admission::Block),
            SubmitOutcome::Disconnected
        );
        assert_eq!(
            conn.submit_framed(Framed::Oversized(1 << 30), Admission::Block),
            SubmitOutcome::Disconnected
        );
        // Nothing was routed or counted for the dead connection.
        conn.finish();
        let report = conn.report();
        assert_eq!(report, ServeReport::default());
    }

    #[test]
    fn v1_framing_is_preserved_end_to_end() {
        let (input, codes) = probe_lines(5);
        let scheduler = Scheduler::new(scanner(), &opts());
        let lines = roundtrip(&scheduler, Protocol::V1, &input);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let probs = scanner().worker().score_batch(&refs);
        for (line, p) in lines.iter().zip(&probs) {
            let verdict = if *p >= 0.5 { "phishing" } else { "benign" };
            assert_eq!(*line, format!("{verdict}\t{p:.6}"));
        }
        // Cache-hit replay renders the identical v1 line.
        assert_eq!(roundtrip(&scheduler, Protocol::V1, &input), lines);
        // A v2-style JSON object on a v1 session is simply invalid hex —
        // interleaved framings degrade to per-line errors, never a panic.
        let mixed = format!("{{\"bytecode\":\"0x{}\"}}\n", to_hex(&codes[0]));
        let out = roundtrip(&scheduler, Protocol::V1, &mixed);
        assert_eq!(out[0], "error\tnot valid hex bytecode");
    }

    #[test]
    fn address_requests_resolve_through_the_chain() {
        use phishinghook_data::SharedChain;

        let (_, codes) = probe_lines(2);
        let chain = SharedChain::new();
        let address: Address = [0x42; 20];
        chain.deploy(address, codes[0].clone());

        let scheduler = Scheduler::with_chain(scanner(), &opts(), Some(chain));
        let addr_hex = format!("0x{}", to_hex(&address));
        let input = format!(
            "{{\"id\":\"by-addr\",\"address\":\"{addr_hex}\"}}\n\
             {{\"id\":\"by-code\",\"bytecode\":\"0x{}\"}}\n\
             {{\"id\":\"eoa\",\"address\":\"0x{}\"}}\n",
            to_hex(&codes[0]),
            to_hex(&[0u8; 20]),
        );
        let lines = roundtrip(&scheduler, Protocol::V2, &input);
        assert_eq!(lines.len(), 3);
        // Address and bytecode forms agree bit-identically on the proba
        // (the address line also echoes the resolved address).
        assert!(
            lines[0].starts_with(&format!(
                "{{\"proto\":2,\"id\":\"by-addr\",\"address\":\"{addr_hex}\","
            )),
            "{}",
            lines[0]
        );
        let tail = |line: &str| line.split("\"verdict\"").nth(1).map(str::to_owned);
        assert_eq!(tail(&lines[0]), tail(&lines[1]));
        assert!(
            lines[2].contains("\"error\"") && lines[2].contains("no contract code at address"),
            "{}",
            lines[2]
        );

        // Without a chain, address requests answer a typed error.
        let bare = Scheduler::new(scanner(), &opts());
        let (mut conn, rx) = bare.connect(Protocol::V2);
        let outcome = conn.submit(
            &format!("{{\"id\":\"x\",\"address\":\"{addr_hex}\"}}"),
            Admission::Block,
        );
        assert_eq!(outcome, SubmitOutcome::Unresolved);
        conn.finish();
        let out: Vec<String> = rx.iter().collect();
        assert!(out[0].contains("no chain source attached"), "{}", out[0]);
    }

    #[test]
    fn metrics_snapshot_exposes_latency_and_queue_capacity() {
        let (input, codes) = probe_lines(3);
        let scheduler = Scheduler::new(scanner(), &opts());
        roundtrip(&scheduler, Protocol::V2, &input); // cold scores
        roundtrip(&scheduler, Protocol::V2, &input); // cache hits
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.scheduler.scored, codes.len() as u64);
        assert_eq!(snap.queue_capacity, opts().queue_depth as u64);
        // Both the cold and the cache-hit paths record a latency sample.
        assert_eq!(snap.latency.count(), 2 * codes.len() as u64);
        assert!(snap.latency.quantile(0.5) > 0.0);
        assert_eq!(snap.cache.expect("cache on").hits, codes.len() as u64);
    }

    #[test]
    fn the_queue_budget_splits_exactly_across_lanes() {
        let capacities = |shards, queue_depth| -> Vec<u64> {
            let opts = SchedulerOptions {
                shards,
                queue_depth,
                ..opts()
            };
            let scheduler = Scheduler::new(scanner(), &opts);
            scheduler
                .shard_stats()
                .iter()
                .map(|s| s.queue_capacity)
                .collect()
        };
        // The remainder goes one slot each to the first lanes, so the
        // capacities sum to `queue_depth` for every lane count.
        for shards in 1..=7 {
            let caps = capacities(shards, 1024);
            assert_eq!(caps.iter().sum::<u64>(), 1024, "{caps:?}");
            assert!(
                caps.windows(2).all(|w| w[0] == w[1] || w[0] == w[1] + 1),
                "{caps:?}"
            );
        }
        // More lanes than slots: every lane still keeps one.
        assert_eq!(capacities(3, 2), [1, 1, 1]);
    }

    #[test]
    fn worker_panics_answer_typed_internal_and_the_supervisor_respawns() {
        // One worker, one-row batches, and a fault plan that panics every
        // second batch: requests alternate verdict / internal, the panic
        // counter matches, and the scheduler keeps serving after every
        // crash — the supervisor respawned the worker.
        let opts = SchedulerOptions {
            batch: 1,
            shards: 1,
            cache_bytes: 0,
            fault: Some(FaultConfig {
                worker_panic_every: 2,
                ..FaultConfig::default()
            }),
            ..opts()
        };
        let (input, _) = probe_lines(4);
        let scheduler = Scheduler::new(scanner(), &opts);
        let lines = roundtrip(&scheduler, Protocol::V2, &input);
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            if i % 2 == 0 {
                assert!(line.contains("\"verdict\""), "{line}");
            } else {
                assert!(line.contains("\"code\":\"internal\""), "{line}");
                assert!(line.contains("scoring worker failed"), "{line}");
            }
        }
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.robustness.worker_panics, 2);
        assert_eq!(scheduler.fault_plan().expect("plan").panics_injected(), 2);
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.scored, 2);
    }

    #[test]
    fn deadline_expired_jobs_answer_typed_timeouts_at_dequeue() {
        // The deadline clock starts before address resolution, and the
        // fault plan makes every chain lookup take 30ms: the job is already
        // past its 10ms deadline when it is queued, so the worker answers
        // it as a typed timeout without scoring it.
        use phishinghook_data::SharedChain;
        let opts = SchedulerOptions {
            shards: 1,
            deadline_ms: 10,
            cache_bytes: 0,
            fault: Some(FaultConfig {
                chain_latency_micros: 30_000,
                ..FaultConfig::default()
            }),
            ..opts()
        };
        let (_, codes) = probe_lines(1);
        let chain = SharedChain::new();
        let address: Address = [0x42; 20];
        chain.deploy(address, codes[0].clone());
        let scheduler = Scheduler::with_chain(scanner(), &opts, Some(chain));
        let input = format!(
            "{{\"id\":\"late\",\"address\":\"0x{}\"}}\n",
            to_hex(&address)
        );
        let lines = roundtrip(&scheduler, Protocol::V2, &input);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"code\":\"timeout\""), "{}", lines[0]);
        assert!(lines[0].contains("deadline exceeded"), "{}", lines[0]);
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.robustness.timeouts, 1);
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.scored, 0);
    }

    #[test]
    fn drain_budget_answers_queued_jobs_as_timeouts() {
        // Expiry comes from the drain deadline: once `begin_drain` has run
        // and its 1ms budget has elapsed, queued work is answered as typed
        // timeouts instead of holding shutdown hostage.
        let opts = SchedulerOptions {
            shards: 1,
            drain_ms: 1,
            cache_bytes: 0,
            ..opts()
        };
        let (input, _) = probe_lines(1);
        let scheduler = Scheduler::new(scanner(), &opts);
        assert_eq!(scheduler.lifecycle(), Lifecycle::Running);
        scheduler.begin_drain();
        assert_eq!(scheduler.lifecycle(), Lifecycle::Draining);
        std::thread::sleep(Duration::from_millis(20)); // past the budget
        let lines = roundtrip(&scheduler, Protocol::V2, &input);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"code\":\"timeout\""), "{}", lines[0]);
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.scored, 0);
    }

    #[test]
    fn brownout_cache_only_sheds_misses_but_serves_hits() {
        // `cache_only_pct: 0` pins the brownout ladder to its deepest
        // tier. Shedding traffic is answered from cache when possible and
        // refused typed otherwise; lossless (Block) traffic still scores.
        let opts = SchedulerOptions {
            cache_first_pct: 0,
            cache_only_pct: 0,
            ..opts()
        };
        let (input, _) = probe_lines(2);
        let lines: Vec<&str> = input.lines().collect();
        let scheduler = Scheduler::new(scanner(), &opts);
        assert_eq!(scheduler.degradation_tier(), DegradationTier::CacheOnly);

        // Warm the cache losslessly — Block admission never degrades —
        // and wait for the verdict so the insert has landed.
        let warm = roundtrip(&scheduler, Protocol::V2, lines[0]);
        assert!(warm[0].contains("\"verdict\""), "{}", warm[0]);

        let (mut conn, rx) = scheduler.connect(Protocol::V2);
        // A shed cache hit is still served under cache-only brownout...
        assert_eq!(
            conn.submit(lines[0], Admission::Shed),
            SubmitOutcome::CacheHit
        );
        // ...but a shed miss is refused typed instead of queued.
        assert_eq!(
            conn.submit(lines[1], Admission::Shed),
            SubmitOutcome::Overloaded
        );
        conn.finish();
        let out: Vec<String> = rx.iter().collect();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("\"verdict\""), "{}", out[0]);
        assert!(out[1].contains("\"code\":\"overloaded\""), "{}", out[1]);
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.scheduler.overloads, 1);
        assert_eq!(snap.robustness.tier, DegradationTier::CacheOnly as u8);
        scheduler.shutdown();
    }

    #[test]
    fn brownout_cache_first_scores_with_the_primary_member_and_skips_cache() {
        use crate::testutil::ensemble_scanner;
        // `cache_first_pct: 0` (with cache-only disabled at > 100%) pins
        // the middle tier: shed traffic is scored by the ensemble's first
        // member only, bit-identically to `score_primary`, and the result
        // is NOT cached — degraded verdicts must never poison replay.
        let opts = SchedulerOptions {
            cache_first_pct: 0,
            cache_only_pct: 101,
            ..opts()
        };
        let (input, codes) = probe_lines(1);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut primary = ensemble_scanner().worker();
        let (primary_probs, primary_name) = primary.score_primary(&refs);

        let scheduler = Scheduler::new(ensemble_scanner(), &opts);
        assert_eq!(scheduler.degradation_tier(), DegradationTier::CacheFirst);
        let (mut conn, rx) = scheduler.connect(Protocol::V2);
        let line = input.lines().next().expect("one probe");
        assert_eq!(conn.submit(line, Admission::Shed), SubmitOutcome::Queued);
        // The same line again, lossless: scored cold by the full ensemble,
        // proving the degraded pass did not populate the cache.
        assert_eq!(conn.submit(line, Admission::Block), SubmitOutcome::Queued);
        conn.finish();
        let out: Vec<String> = rx.iter().collect();
        assert_eq!(out.len(), 2);
        let degraded = &out[0];
        let full = &out[1];
        assert!(
            degraded.contains(&format!("\"proba\":{:.6}", primary_probs[0])),
            "{degraded}"
        );
        assert!(
            degraded.contains(&format!("\"{primary_name}\"")),
            "{degraded}"
        );
        // One per-model entry on the degraded row, two on the full row.
        assert_eq!(degraded.matches("\"name\":").count(), 1, "{degraded}");
        assert_eq!(full.matches("\"name\":").count(), 2, "{full}");
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.scheduler.scored, 2);
        assert_eq!(snap.cache.expect("cache on").hits, 0);
        scheduler.shutdown();
    }

    #[test]
    fn injected_chain_faults_exhaust_retries_into_a_typed_error() {
        use phishinghook_data::SharedChain;
        // Every chain lookup faults (1000‰); the retry policy burns its 3
        // attempts (2 retries, counted) and the request answers with the
        // transient-fault detail instead of wedging or panicking.
        let opts = SchedulerOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                base_micros: 10,
                cap_micros: 50,
                seed: 1,
            },
            fault: Some(FaultConfig {
                chain_fail_permille: 1000,
                ..FaultConfig::default()
            }),
            ..opts()
        };
        let chain = SharedChain::new();
        let address = [0x42u8; 20];
        let (_, codes) = probe_lines(1);
        chain.deploy(address, codes[0].clone());
        let scheduler = Scheduler::with_chain(scanner(), &opts, Some(chain));
        let (mut conn, rx) = scheduler.connect(Protocol::V2);
        let hex: String = address.iter().map(|b| format!("{b:02x}")).collect();
        let outcome = conn.submit(
            &format!("{{\"id\":\"x\",\"address\":\"0x{hex}\"}}"),
            Admission::Block,
        );
        assert_eq!(outcome, SubmitOutcome::Unresolved);
        conn.finish();
        let out: Vec<String> = rx.iter().collect();
        assert!(out[0].contains("transient chain fault"), "{}", out[0]);
        assert!(out[0].contains("injected chain fault"), "{}", out[0]);
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.robustness.chain_retries, 2);
        assert_eq!(
            scheduler
                .fault_plan()
                .expect("plan")
                .chain_faults_injected(),
            3
        );
        scheduler.shutdown();
    }
}
