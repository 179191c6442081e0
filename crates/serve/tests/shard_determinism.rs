//! The bit-equality harness behind serving invariant #6: sharding the
//! scheduler is a pure layout decision. Scoring is a deterministic
//! function of bytecode, so for **any** shard count the served verdicts —
//! rendered lines and cached `f64`s alike — must be `f64::to_bits`-
//! identical to the 1-shard path, and to scoring the bytecode directly.

use phishinghook_evm::keccak::Digest;
use phishinghook_serve::{fixture, serve_lines, Protocol, Scheduler, SchedulerOptions};

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 83;

fn opts(shards: usize) -> SchedulerOptions {
    SchedulerOptions {
        shards,
        batch: 4,
        ..SchedulerOptions::default()
    }
}

#[test]
fn verdicts_are_bit_identical_across_shard_layouts() {
    let (input, codes) = fixture::probe_lines(24, PROBE_SEED);
    let scanner = fixture::rf_scanner();

    // The ground truth: score every probe directly, no serving layer.
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
    let direct = scanner.worker().score_batch(&refs);

    let mut baseline_text: Option<String> = None;
    let mut baseline_bits: Option<Vec<(u64, Vec<u64>)>> = None;
    for shards in [1usize, 2, 3, 4, 7] {
        let scheduler = Scheduler::new(scanner, &opts(shards));
        let mut out = Vec::new();
        serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut out).expect("serves");
        let text = String::from_utf8(out).expect("utf8");

        // Rendered responses are identical to the 1-shard layout, line for
        // line (per-connection ordering holds under every layout).
        match &baseline_text {
            None => baseline_text = Some(text),
            Some(reference) => {
                assert_eq!(&text, reference, "{shards}-shard rendering diverged");
            }
        }

        // The cached f64s — read without perturbing counters or recency —
        // carry the exact bits the direct scorer produced.
        let bits: Vec<(u64, Vec<u64>)> = codes
            .iter()
            .map(|code| {
                let verdict = scheduler
                    .cached_verdict(&Digest::of(code))
                    .expect("every scored probe is cached");
                (
                    verdict.proba.to_bits(),
                    verdict.per_model.iter().map(|p| p.to_bits()).collect(),
                )
            })
            .collect();
        for (i, ((proba_bits, _), expected)) in bits.iter().zip(&direct).enumerate() {
            assert_eq!(
                *proba_bits,
                expected.to_bits(),
                "{shards}-shard probe {i}: cached {} != direct {expected}",
                f64::from_bits(*proba_bits),
            );
        }
        match &baseline_bits {
            None => baseline_bits = Some(bits),
            Some(reference) => {
                assert_eq!(
                    &bits, reference,
                    "{shards}-shard cached bits diverged from 1-shard"
                );
            }
        }
        scheduler.shutdown();
    }
}

#[test]
fn ensemble_per_model_rows_survive_resharding_bit_exactly() {
    // Same invariant through the 2-member ensemble: per-model probability
    // vectors (not just the vote) must be layout-independent.
    let (input, codes) = fixture::probe_lines(8, PROBE_SEED + 1);
    let scanner = fixture::ensemble_scanner();
    let mut baseline: Option<Vec<Vec<u64>>> = None;
    for shards in [1usize, 4] {
        let scheduler = Scheduler::new(scanner, &opts(shards));
        let mut out = Vec::new();
        serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut out).expect("serves");
        let bits: Vec<Vec<u64>> = codes
            .iter()
            .map(|code| {
                scheduler
                    .cached_verdict(&Digest::of(code))
                    .expect("cached")
                    .per_model
                    .iter()
                    .map(|p| p.to_bits())
                    .collect()
            })
            .collect();
        assert!(bits.iter().all(|row| row.len() == 2), "2 members per row");
        match &baseline {
            None => baseline = Some(bits),
            Some(reference) => assert_eq!(&bits, reference),
        }
        scheduler.shutdown();
    }
}
