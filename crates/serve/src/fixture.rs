//! Shared serving-test fixtures: train once, serve everywhere.
//!
//! Training even a tiny detector dominates serving-test wall clock, so —
//! as PR 2 did for experiment runs — every suite that needs a fitted
//! [`Scanner`] shares one `OnceLock` snapshot per model shape instead of
//! re-training per test. This module is the one seam for that setup: the
//! crate's unit tests, the integration suites (`chaos.rs`,
//! `shard_determinism.rs`, `stress.rs`, …), the umbrella `serve_core.rs`
//! suite and the CI smoke jobs all build their schedulers from these
//! fixtures.
//!
//! The corpora are deterministic ([`Corpus::generate`] is seeded), so
//! fixtures are stable across runs and processes — which is what lets the
//! determinism harness compare verdict bits across separately-constructed
//! schedulers.

use phishinghook_data::{Corpus, CorpusConfig};
use phishinghook_evm::keccak::to_hex;
use phishinghook_models::{Detector, DetectorRegistry, Scanner};
use std::sync::OnceLock;

/// Training-corpus seed shared by both fixture scanners.
const TRAIN_SEED: u64 = 5;

/// Training-corpus size: large enough for a non-degenerate detector,
/// small enough to fit in a test's time budget.
const TRAIN_CONTRACTS: usize = 80;

fn train(spec: &str) -> Scanner {
    let corpus = Corpus::generate(&CorpusConfig {
        n_contracts: TRAIN_CONTRACTS,
        seed: TRAIN_SEED,
        ..Default::default()
    });
    let (codes, labels) = corpus.as_dataset();
    let mut det = DetectorRegistry::global()
        .build_str(spec, 7)
        .expect("valid spec");
    det.fit(&codes, &labels);
    Scanner::new(det).expect("fitted")
}

/// One fitted single-model (Random Forest) scanner, trained on first use
/// and shared by every test in the process.
pub fn rf_scanner() -> &'static Scanner {
    static SCANNER: OnceLock<Scanner> = OnceLock::new();
    SCANNER.get_or_init(|| train("rf:seed=7"))
}

/// A fitted 2-member soft-vote ensemble scanner, for per-model wire
/// assertions and full fidelity under overload.
pub fn ensemble_scanner() -> &'static Scanner {
    static SCANNER: OnceLock<Scanner> = OnceLock::new();
    SCANNER.get_or_init(|| train("ensemble:rf+lgbm:vote=soft"))
}

/// `n` held-out probe bytecodes from corpus `seed`, plus the hex request
/// lines that submit them (one `0x…\n` line per bytecode). Seeds differ
/// per suite so cross-suite cache state can never alias.
pub fn probe_lines(n: usize, seed: u64) -> (String, Vec<Vec<u8>>) {
    let corpus = Corpus::generate(&CorpusConfig {
        n_contracts: n,
        seed,
        ..Default::default()
    });
    let codes: Vec<Vec<u8>> = corpus.records.into_iter().map(|r| r.bytecode).collect();
    let text: String = codes.iter().map(|c| format!("0x{}\n", to_hex(c))).collect();
    (text, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_shared_and_deterministic() {
        // Same 'static on every call — the OnceLock actually shares.
        assert!(std::ptr::eq(rf_scanner(), rf_scanner()));
        assert!(std::ptr::eq(ensemble_scanner(), ensemble_scanner()));
        let (text_a, codes_a) = probe_lines(3, 42);
        let (text_b, codes_b) = probe_lines(3, 42);
        assert_eq!(text_a, text_b);
        assert_eq!(codes_a, codes_b);
        let (_, other_seed) = probe_lines(3, 43);
        assert_ne!(codes_a, other_seed);
    }
}
