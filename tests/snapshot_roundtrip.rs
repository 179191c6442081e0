//! The train-once/score-forever contract: a snapshotted-then-restored
//! detector must be indistinguishable — *bit-identical*, not just close —
//! from the in-memory one it was saved from, for every HSC family member.
//!
//! Each detector is trained exactly once (shared through `OnceLock`, per
//! this repo's heavy-test convention) and paired with its snapshot
//! round-trip; the tests then compare the pair on the full held-out corpus
//! and on property-generated adversarial bytecodes, and check that every
//! way a snapshot can go bad surfaces as the right typed error.

use phishinghook::data::{Corpus, CorpusConfig};
use phishinghook::models::hsc::SNAPSHOT_KIND;
use phishinghook::models::{Detector, DetectorRegistry, EnsembleDetector, Scanner};
use phishinghook::persist::{open_envelope, PersistError};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    /// Held-out bytecodes none of the detectors saw at fit time.
    probes: Vec<Vec<u8>>,
    /// `(name, in-memory scanner, snapshot-restored scanner)` per HSC.
    pairs: Vec<(String, Scanner, Scanner)>,
    /// One raw snapshot (the Random Forest's) for envelope-level tests.
    snapshot: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 100,
            seed: 23,
            ..Default::default()
        });
        let codes: Vec<Vec<u8>> = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
        let labels: Vec<usize> = corpus.records.iter().map(|r| r.label.as_index()).collect();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let (train_x, _) = refs.split_at(60);
        let (train_y, _) = labels.split_at(60);

        let mut snapshot = Vec::new();
        let registry = DetectorRegistry::global();
        let pairs = registry
            .hsc_specs()
            .iter()
            .map(|spec| {
                let mut det = registry.build(spec, 7);
                let name = det.name().to_owned();
                det.fit(train_x, train_y);
                let bytes = det.to_snapshot_bytes();
                // Determinism: saving the same fitted model twice must yield
                // byte-identical snapshots (HashMap-backed artifacts sort).
                assert_eq!(bytes, det.to_snapshot_bytes(), "{name}");
                if name == "Random Forest" {
                    snapshot = bytes.clone();
                }
                let restored = Scanner::from_snapshot_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{name} snapshot failed to restore: {e}"));
                let original = Scanner::new(det).expect("fitted");
                (name, original, restored)
            })
            .collect();
        Fixture {
            probes: codes[60..].to_vec(),
            pairs,
            snapshot,
        }
    })
}

/// Bit-exact comparison helper: `f64` equality would treat `-0.0 == 0.0`
/// and NaN unequal to itself; the contract here is stronger — identical
/// bit patterns.
fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn every_hsc_round_trips_bit_identically_on_the_held_out_corpus() {
    let fx = fixture();
    let probes: Vec<&[u8]> = fx.probes.iter().map(Vec::as_slice).collect();
    for (name, original, restored) in &fx.pairs {
        let a = original.worker().score_batch(&probes);
        let b = restored.worker().score_batch(&probes);
        assert_eq!(bits(&a), bits(&b), "{name}: restored scores diverge");
        // And through the hard-verdict path.
        assert_eq!(
            original.worker().classify_batch(&probes),
            restored.worker().classify_batch(&probes),
            "{name}: restored verdicts diverge"
        );
    }
}

#[test]
fn restored_metadata_matches() {
    let fx = fixture();
    for (name, original, restored) in &fx.pairs {
        assert_eq!(restored.model_name(), *name);
        assert_eq!(restored.n_features(), original.n_features(), "{name}");
        assert_eq!(
            restored.model().extractor().unwrap().columns(),
            original.model().extractor().unwrap().columns(),
            "{name}"
        );
    }
}

proptest! {
    #[test]
    fn round_trip_holds_on_arbitrary_bytecodes(
        code in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Adversarial inputs — out-of-vocabulary opcodes, truncated PUSH
        // operands, empty code — must score identically through the
        // restored detector, for every HSC.
        let fx = fixture();
        let batch: [&[u8]; 1] = [code.as_slice()];
        for (name, original, restored) in &fx.pairs {
            let a = original.worker().score_batch(&batch);
            let b = restored.worker().score_batch(&batch);
            prop_assert_eq!(bits(&a), bits(&b), "{}", name);
        }
    }
}

// --- Typed rejection of bad snapshots --------------------------------------

#[test]
fn corrupted_snapshot_is_rejected_with_checksum_error() {
    let fx = fixture();
    // Flip one bit in the middle of the payload.
    let mut corrupt = fx.snapshot.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    match Scanner::from_snapshot_bytes(&corrupt).unwrap_err() {
        PersistError::ChecksumMismatch { stored, computed } => assert_ne!(stored, computed),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_snapshot_is_rejected() {
    let fx = fixture();
    for keep in [0, 7, 11, fx.snapshot.len() / 2, fx.snapshot.len() - 1] {
        let err = Scanner::from_snapshot_bytes(&fx.snapshot[..keep]).unwrap_err();
        assert!(
            matches!(err, PersistError::Truncated { .. }),
            "keeping {keep} bytes: expected Truncated, got {err:?}"
        );
    }
}

#[test]
fn version_mismatch_is_rejected() {
    let fx = fixture();
    let mut future = fx.snapshot.clone();
    // The format version is the u16 at offset 8 (after the 8-byte magic).
    future[8] = 0xFF;
    future[9] = 0x7F;
    match Scanner::from_snapshot_bytes(&future).unwrap_err() {
        PersistError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 0x7FFF);
            assert_eq!(supported, phishinghook::persist::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn non_snapshot_bytes_are_rejected_as_bad_magic() {
    assert!(matches!(
        Scanner::from_snapshot_bytes(b"address,month,label,family,bytecode"),
        Err(PersistError::BadMagic)
    ));
    assert!(matches!(
        Scanner::from_snapshot_bytes(&[]),
        Err(PersistError::Truncated { .. })
    ));
}

// --- Ensemble snapshots ----------------------------------------------------

/// `(probes, in-memory scanner, snapshot-restored scanner, raw snapshot)`
/// for a 3-member soft-vote ensemble, trained once.
struct EnsembleFixture {
    probes: Vec<Vec<u8>>,
    original: Scanner,
    restored: Scanner,
    snapshot: Vec<u8>,
}

fn ensemble_fixture() -> &'static EnsembleFixture {
    static FIXTURE: OnceLock<EnsembleFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 100,
            seed: 29,
            ..Default::default()
        });
        let codes: Vec<Vec<u8>> = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
        let labels: Vec<usize> = corpus.records.iter().map(|r| r.label.as_index()).collect();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut det = DetectorRegistry::global()
            .build_str("ensemble:rf+lgbm+catboost:vote=soft", 7)
            .expect("valid spec");
        det.fit(&refs[..60], &labels[..60]);
        let bytes = det.to_snapshot_bytes();
        assert_eq!(bytes, det.to_snapshot_bytes(), "deterministic snapshot");
        let restored = Scanner::from_snapshot_bytes(&bytes).expect("restores");
        let original = Scanner::new(det).expect("fitted");
        EnsembleFixture {
            probes: codes[60..].to_vec(),
            original,
            restored,
            snapshot: bytes,
        }
    })
}

#[test]
fn ensemble_round_trips_bit_identically_on_the_held_out_corpus() {
    let fx = ensemble_fixture();
    let refs: Vec<&[u8]> = fx.probes.iter().map(Vec::as_slice).collect();
    let a = fx.original.worker().score_batch(&refs);
    let b = fx.restored.worker().score_batch(&refs);
    assert_eq!(bits(&a), bits(&b), "restored ensemble scores diverge");
    assert_eq!(fx.restored.model_name(), fx.original.model_name());
    assert_eq!(fx.restored.n_models(), 3);
    assert_eq!(fx.restored.model_version(), "hsc-ensemble/v1");
}

proptest! {
    #[test]
    fn ensemble_round_trip_holds_on_arbitrary_bytecodes(
        code in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let fx = ensemble_fixture();
        let batch: [&[u8]; 1] = [code.as_slice()];
        let a = fx.original.worker().score_batch(&batch);
        let b = fx.restored.worker().score_batch(&batch);
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

#[test]
fn ensemble_per_model_probabilities_survive_the_round_trip() {
    let fx = ensemble_fixture();
    let requests: Vec<phishinghook::models::ScanRequest> = fx.probes[..8]
        .iter()
        .enumerate()
        .map(|(i, code)| {
            phishinghook::models::ScanRequest::bytecode(format!("probe-{i}"), code.clone())
        })
        .collect();
    let a = fx.original.worker().scan_batch(&requests, None);
    let b = fx.restored.worker().scan_batch(&requests, None);
    for (ra, rb) in a.iter().zip(&b) {
        let (ra, rb) = (
            ra.as_ref().expect("bytecode targets score"),
            rb.as_ref().expect("bytecode targets score"),
        );
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.proba.to_bits(), rb.proba.to_bits());
        assert_eq!(ra.per_model.len(), 3);
        for ((na, pa), (nb, pb)) in ra.per_model.iter().zip(&rb.per_model) {
            assert_eq!(na, nb);
            assert_eq!(pa.to_bits(), pb.to_bits(), "{na}");
        }
    }
}

#[test]
fn ensemble_snapshot_corruption_is_rejected_with_typed_errors() {
    let snapshot = &ensemble_fixture().snapshot;
    // Bit flip → checksum.
    let mut corrupt = snapshot.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x04;
    assert!(matches!(
        EnsembleDetector::from_snapshot_bytes(&corrupt),
        Err(PersistError::ChecksumMismatch { .. })
    ));
    // Truncation.
    assert!(matches!(
        EnsembleDetector::from_snapshot_bytes(&snapshot[..snapshot.len() / 3]),
        Err(PersistError::Truncated { .. })
    ));
    // Kind mismatch both ways: an HSC snapshot is not an ensemble and vice
    // versa — and the generic Scanner front door accepts both.
    let hsc_snapshot = &fixture().snapshot;
    match EnsembleDetector::from_snapshot_bytes(hsc_snapshot).unwrap_err() {
        PersistError::WrongKind { expected, found } => {
            assert_eq!(expected, phishinghook::models::ensemble::SNAPSHOT_KIND);
            assert_eq!(found, SNAPSHOT_KIND);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
    assert!(Scanner::from_snapshot_bytes(hsc_snapshot).is_ok());
    assert!(Scanner::from_snapshot_bytes(snapshot).is_ok());
}

// --- Trace-channel snapshots ------------------------------------------------

/// `(probes, in-memory scanner, restored scanner, raw snapshot)` per
/// trace-bearing spec, trained once on a honeypot corpus (the scenario the
/// dynamic channel exists for).
struct TraceFixture {
    probes: Vec<Vec<u8>>,
    pairs: Vec<(String, Scanner, Scanner, Vec<u8>)>,
}

fn trace_fixture() -> &'static TraceFixture {
    static FIXTURE: OnceLock<TraceFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 80,
            seed: 37,
            scenario: phishinghook::data::Scenario::Honeypot,
            ..Default::default()
        });
        let codes: Vec<Vec<u8>> = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
        let labels: Vec<usize> = corpus.records.iter().map(|r| r.label.as_index()).collect();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let pairs = ["rf:features=trace", "lr:features=hist+trace"]
            .into_iter()
            .map(|spec| {
                let mut det = DetectorRegistry::global()
                    .build_str(spec, 7)
                    .expect("valid spec");
                det.fit(&refs[..50], &labels[..50]);
                let bytes = det.to_snapshot_bytes();
                assert_eq!(bytes, det.to_snapshot_bytes(), "{spec}: deterministic");
                let restored = Scanner::from_snapshot_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{spec} snapshot failed to restore: {e}"));
                let original = Scanner::new(det).expect("fitted");
                (spec.to_owned(), original, restored, bytes)
            })
            .collect();
        TraceFixture {
            probes: codes[50..].to_vec(),
            pairs,
        }
    })
}

#[test]
fn trace_detectors_round_trip_bit_identically_on_held_out_honeypots() {
    let fx = trace_fixture();
    let refs: Vec<&[u8]> = fx.probes.iter().map(Vec::as_slice).collect();
    for (spec, original, restored, _) in &fx.pairs {
        let a = original.worker().score_batch(&refs);
        let b = restored.worker().score_batch(&refs);
        assert_eq!(bits(&a), bits(&b), "{spec}: restored scores diverge");
        assert_eq!(restored.n_features(), original.n_features(), "{spec}");
        assert_eq!(
            restored.model().features(),
            original.model().features(),
            "{spec}"
        );
    }
}

proptest! {
    #[test]
    fn trace_round_trip_holds_on_arbitrary_bytecodes(
        code in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Adversarial inputs run through the *explorer* here, not just the
        // disassembler — the restored extractor must replay the exact same
        // execution budgets and land on the same bits.
        let fx = trace_fixture();
        let batch: [&[u8]; 1] = [code.as_slice()];
        for (spec, original, restored, _) in &fx.pairs {
            let a = original.worker().score_batch(&batch);
            let b = restored.worker().score_batch(&batch);
            prop_assert_eq!(bits(&a), bits(&b), "{}", spec);
        }
    }
}

#[test]
fn trace_snapshot_corruption_is_rejected_with_typed_errors() {
    for (spec, _, _, snapshot) in &trace_fixture().pairs {
        // Bit flip → checksum. The flip lands in the payload's back half,
        // where the appended feature-set tag and trace extractor live.
        let mut corrupt = snapshot.clone();
        let at = snapshot.len() - 9;
        corrupt[at] ^= 0x20;
        assert!(
            matches!(
                Scanner::from_snapshot_bytes(&corrupt),
                Err(PersistError::ChecksumMismatch { .. })
            ),
            "{spec}"
        );
        // Truncation anywhere, including inside the trailing trace fields.
        for keep in [snapshot.len() / 2, snapshot.len() - 4] {
            let err = Scanner::from_snapshot_bytes(&snapshot[..keep]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated { .. }),
                "{spec} keeping {keep}: {err:?}"
            );
        }
    }
}

#[test]
fn the_envelope_kind_is_the_documented_one() {
    let fx = fixture();
    // The snapshot self-describes as an HSC detector…
    assert!(open_envelope(SNAPSHOT_KIND, &fx.snapshot).is_ok());
    // …and refuses to open as anything else.
    match open_envelope("random-forest", &fx.snapshot).unwrap_err() {
        PersistError::WrongKind { expected, found } => {
            assert_eq!(expected, "random-forest");
            assert_eq!(found, SNAPSHOT_KIND);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
}
