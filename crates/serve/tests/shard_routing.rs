//! Property coverage of the shard router: [`shard_of`] must stay in
//! range, be a pure function of the digest, and spread real keccak
//! digests near-uniformly — and the routing must compose with the
//! per-shard caches so a repeated digest always lands on the shard that
//! cached it.

use phishinghook_evm::keccak::Digest;
use phishinghook_serve::{fixture, serve_lines, shard_of, Protocol, Scheduler, SchedulerOptions};
use proptest::prelude::*;

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 77;

proptest! {
    #[test]
    fn routing_is_in_range_and_stable(
        code in proptest::collection::vec(any::<u8>(), 0..256),
        n in 1usize..=8,
    ) {
        let digest = Digest::of(&code);
        let shard = shard_of(&digest, n);
        prop_assert!(shard < n, "shard {shard} out of range for n={n}");
        // Pure: the same digest routes to the same shard on every call.
        prop_assert_eq!(shard, shard_of(&digest, n));
        // Degenerate layouts collapse to lane 0.
        prop_assert_eq!(shard_of(&digest, 1), 0);
        prop_assert_eq!(shard_of(&digest, 0), 0);
    }
}

#[test]
fn routing_is_near_uniform_over_keccak_digests() {
    // 10k distinct keccak digests per layout; a chi-square statistic over
    // the empirical shard counts must stay far below the df=n-1 critical
    // value (24.3 at p=0.001 for df=7 — the bound is generous on purpose:
    // this guards against a broken prefix extraction, not keccak quality).
    const SAMPLES: usize = 10_000;
    for n in [2usize, 4, 8] {
        let mut counts = vec![0u64; n];
        for i in 0..SAMPLES {
            let digest = Digest::of(&(i as u64).to_le_bytes());
            counts[shard_of(&digest, n)] += 1;
        }
        let expected = SAMPLES as f64 / n as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&observed| {
                let d = observed as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(
            chi2 < 40.0,
            "n={n}: chi-square {chi2:.2} over counts {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "n={n}: a shard never drew a digest: {counts:?}"
        );
    }
}

#[test]
fn same_digest_lands_on_the_same_shard_and_hits_its_cache() {
    // End to end on a 4-shard scheduler: pass one populates exactly the
    // caches the router chose; pass two hits every one of them. The
    // per-shard expected counts are recomputed here from the same digests
    // the scheduler routes on.
    const SHARDS: usize = 4;
    let (input, codes) = fixture::probe_lines(16, PROBE_SEED);
    let mut unique: Vec<Digest> = Vec::new();
    for code in &codes {
        let digest = Digest::of(code);
        if !unique.iter().any(|d| d.0 == digest.0) {
            unique.push(digest);
        }
    }
    assert_eq!(
        unique.len(),
        codes.len(),
        "probe corpus must be duplicate-free"
    );
    let mut expected_per_shard = [0u64; SHARDS];
    for digest in &unique {
        expected_per_shard[shard_of(digest, SHARDS)] += 1;
    }

    let opts = SchedulerOptions {
        shards: SHARDS,
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::new(fixture::rf_scanner(), &opts);
    let mut out = Vec::new();
    let cold = serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut out).expect("serves");
    assert_eq!(cold.contracts, codes.len() as u64);
    assert_eq!(cold.cache_hits, 0);

    let stats = scheduler.shard_stats();
    assert_eq!(stats.len(), SHARDS);
    for (stat, &expected) in stats.iter().zip(&expected_per_shard) {
        let cache = stat.cache.expect("cache on");
        assert_eq!(
            cache.insertions, expected,
            "shard {} cached a different lane's work",
            stat.shard
        );
        assert_eq!(cache.hits, 0);
    }

    let mut replay = Vec::new();
    let hot = serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut replay).expect("serves");
    assert_eq!(
        hot.cache_hits,
        codes.len() as u64,
        "a digest missed its own shard"
    );
    assert_eq!(out, replay, "cache hits must replay identical bytes");
    for (stat, &expected) in scheduler.shard_stats().iter().zip(&expected_per_shard) {
        let cache = stat.cache.expect("cache on");
        assert_eq!(cache.hits, expected, "shard {} hit count", stat.shard);
        assert_eq!(cache.insertions, expected, "pass two must insert nothing");
    }
    scheduler.shutdown();
}
