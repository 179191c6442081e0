//! The chain-watch scenario: drive a deployment firehose through the
//! serving core end to end.
//!
//! This is the deployment story the paper implies — a daemon watching
//! every contract deployment and scoring it as it lands — exercised
//! against the simulated chain: a [`ChainFirehose`] emits
//! template-skewed deploy events, each event is deployed onto a
//! [`SharedChain`], then submitted to the [`Scheduler`] over the real v2
//! line protocol **by address**: the scheduler resolves the code through
//! the chain's `eth_getCode` (the paper's Fig. 1 extraction path), so
//! the watch run exercises the exact resolution hop the HTTP gateway and
//! TCP daemon use for address-form requests. Redeployed templates hit
//! the verdict cache; fresh templates take the batched cold path.
//!
//! The whole run is in-process but uses exactly the serving surfaces a
//! TCP session uses (connection, protocol rendering, ordered responses),
//! so `phishinghook watch` doubles as an end-to-end smoke of the daemon.

use crate::config::ServeConfig;
use crate::proto::Protocol;
use crate::scheduler::{Admission, Scheduler};
use phishinghook_data::firehose::{ChainFirehose, FirehoseConfig};
use phishinghook_data::{Label, SharedChain};
use phishinghook_evm::keccak::{to_hex, Digest};
use phishinghook_models::Scanner;
use std::collections::HashSet;
use std::time::Instant;

/// Options for one [`run_watch`] session.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Deploy events to stream.
    pub events: usize,
    /// Firehose shape (template pool, skew, block grouping, seed).
    pub firehose: FirehoseConfig,
    /// Serving configuration for the run (the scheduler tuning is what
    /// matters here; listener addresses are ignored — the watch drives
    /// the scheduler in-process).
    pub serve: ServeConfig,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            events: 2000,
            firehose: FirehoseConfig::default(),
            serve: ServeConfig::default(),
        }
    }
}

impl WatchOptions {
    /// The CI smoke shape: a small stream that still produces cache hits.
    pub fn quick() -> Self {
        WatchOptions {
            events: 200,
            firehose: FirehoseConfig {
                templates: 16,
                ..FirehoseConfig::default()
            },
            ..WatchOptions::default()
        }
    }
}

/// What one watch run observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WatchReport {
    /// Deploy events streamed and scored.
    pub events: u64,
    /// Blocks the events spanned.
    pub blocks: u64,
    /// Distinct bytecodes observed (the stream's dedup count).
    pub unique_bytecodes: u64,
    /// Deployments flagged phishing.
    pub alerts: u64,
    /// Responses agreeing with the stream's ground-truth labels.
    pub agree_with_labels: u64,
    /// Error responses (should be zero — the firehose emits valid code).
    pub errors: u64,
    /// Requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Requests scored cold.
    pub cache_misses: u64,
    /// Total bytecode bytes submitted.
    pub bytes: u64,
    /// Wall-clock seconds for the whole stream.
    pub secs: f64,
}

impl WatchReport {
    /// Human-readable multi-line summary (the `phishinghook watch` output).
    pub fn render(&self, model: &str) -> String {
        let looked_up = self.cache_hits + self.cache_misses;
        let hit_rate = if looked_up > 0 {
            self.cache_hits as f64 / looked_up as f64 * 100.0
        } else {
            0.0
        };
        let agree = if self.events > 0 {
            self.agree_with_labels as f64 / self.events as f64 * 100.0
        } else {
            0.0
        };
        format!(
            "watch report ({model}): {} deploy event(s) in {} block(s), {} unique bytecode(s)\n\
             alerts: {} phishing deployment(s) flagged ({:.1}% agreement with ground truth), {} error(s)\n\
             cache: {} hit(s) / {} miss(es) ({:.1}% hit rate)\n\
             throughput {:.0} events/s ({:.2} MB/s)\n",
            self.events,
            self.blocks,
            self.unique_bytecodes,
            self.alerts,
            agree,
            self.errors,
            self.cache_hits,
            self.cache_misses,
            hit_rate,
            self.events as f64 / self.secs.max(1e-12),
            self.bytes as f64 / (1024.0 * 1024.0) / self.secs.max(1e-12),
        )
    }
}

/// Streams `opts.events` deploy events through the serving core and
/// returns what happened. See the module docs for the path exercised.
///
/// Events are processed **block by block**, like a real chain watcher: a
/// block's deployments are submitted together (so they micro-batch), and
/// its verdicts are consumed before the next block is read. Responses
/// arrive in request order (the scheduler's ordering invariant), so they
/// zip directly against the stream's ground-truth labels — and a template
/// first seen in an earlier block is guaranteed to hit the verdict cache.
pub fn run_watch(scanner: &Scanner, opts: &WatchOptions) -> WatchReport {
    let t0 = Instant::now();
    let chain = SharedChain::new();
    let scheduler = Scheduler::with_chain(scanner, opts.serve.scheduler(), Some(chain.clone()));
    let (mut conn, rx) = scheduler.connect(Protocol::V2);

    let mut unique: HashSet<Digest> = HashSet::new();
    let mut report = WatchReport::default();
    let mut last_block = 0u64;
    let mut block_labels: Vec<Label> = Vec::new();
    let mut firehose = ChainFirehose::generate(&opts.firehose)
        .take(opts.events)
        .peekable();
    while let Some(event) = firehose.next() {
        chain.deploy(event.address, event.bytecode.clone());
        unique.insert(event.code_hash());
        last_block = event.block;
        block_labels.push(event.label);
        // Submit by address alone: the scheduler resolves the code back
        // through the chain's `eth_getCode` — the same extraction hop a
        // real watcher (and the HTTP gateway's address form) makes.
        let addr_hex = format!("0x{}", to_hex(&event.address));
        let line = format!("{{\"id\":\"{addr_hex}\",\"address\":\"{addr_hex}\"}}");
        conn.submit(&line, Admission::Block);
        let block_done = firehose.peek().is_none_or(|next| next.block != event.block);
        if block_done {
            for label in block_labels.drain(..) {
                let line = rx.recv().expect("one response per deploy event");
                if line.contains("\"error\"") {
                    report.errors += 1;
                    continue;
                }
                let flagged = line.contains("\"verdict\":\"phishing\"");
                if flagged {
                    report.alerts += 1;
                }
                if flagged == (label == Label::Phishing) {
                    report.agree_with_labels += 1;
                }
            }
        }
    }
    conn.finish();

    report.events = opts.events as u64;
    report.blocks = if opts.events == 0 { 0 } else { last_block + 1 };
    report.unique_bytecodes = unique.len() as u64;
    let conn_report = conn.report();
    report.cache_hits = conn_report.cache_hits;
    report.cache_misses = conn_report.cache_misses;
    report.bytes = conn_report.bytes;
    report.errors += conn_report.errors;
    scheduler.shutdown();
    report.secs = t0.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scanner;

    #[test]
    fn quick_watch_exercises_cache_and_answers_everything() {
        let opts = WatchOptions::quick();
        let report = run_watch(scanner(), &opts);
        assert_eq!(report.events, opts.events as u64);
        assert_eq!(report.errors, 0, "every address must resolve cleanly");
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.events,
            "every event is a lookup"
        );
        // The template pool bounds the distinct bytecodes, so a 200-event
        // stream over ≤16 templates must mostly hit. Only a template's
        // occurrences inside its own first block can miss (the block's
        // responses are drained before the next block is submitted), so
        // misses are bounded by pool × block size.
        assert!(report.unique_bytecodes <= 16);
        let worst_case_misses = report.unique_bytecodes * opts.firehose.deploys_per_block as u64;
        assert!(
            report.cache_hits >= report.events - worst_case_misses,
            "hits {} of {}",
            report.cache_hits,
            report.events
        );
        assert!(report.blocks >= report.events / 6);
        let rendered = report.render("Random Forest");
        assert!(rendered.contains("watch report"), "{rendered}");
        assert!(rendered.contains("hit rate"), "{rendered}");
    }

    #[test]
    fn watch_is_deterministic_for_a_seed_apart_from_timing() {
        let opts = WatchOptions {
            events: 60,
            ..WatchOptions::quick()
        };
        let mut a = run_watch(scanner(), &opts);
        let mut b = run_watch(scanner(), &opts);
        // Timing-coupled fields aside (wall clock, and the hit/miss split,
        // which races worker inserts *within* one block), runs agree.
        for r in [&mut a, &mut b] {
            r.secs = 0.0;
            r.cache_hits = 0;
            r.cache_misses = 0;
        }
        assert_eq!(a, b);
    }
}
