//! Snapshot bytes are untrusted input: a restore must end in a typed
//! [`PersistError`] or in a model that scores without panicking, and
//! every probability it scores — combined and per member — must lie in
//! [0, 1], whatever the payload holds.
//!
//! The CRC-32 trailer only catches accidental corruption, so this fuzzer
//! goes behind it. It mutates the payloads of real snapshots (bit flips,
//! random bytes, 4- and 8-byte writes of extreme integers and non-finite
//! floats, truncations), then re-seals every envelope innermost first, so
//! an ensemble's nested member envelopes pass their own checks too and
//! the mutated bytes reach the decoders.

use phishinghook::data::{Corpus, CorpusConfig, Scenario};
use phishinghook::models::{Detector, DetectorRegistry, Scanner};
use phishinghook::persist::{crc32, PersistError, FORMAT_VERSION, MAGIC};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated snapshots restored per model. Sized for the debug build.
const CASES: u64 = 200;

/// One envelope, opened: its kind tag, and its payload as byte runs and
/// nested envelopes, which the payload stores behind a `u64` length prefix
/// (the encoding of `Writer::put_bytes`).
#[derive(Clone)]
struct Opened {
    kind: Vec<u8>,
    parts: Vec<Part>,
}

#[derive(Clone)]
enum Part {
    Bytes(Vec<u8>),
    Nested(Opened),
}

/// Offset of the payload-length field for a kind tag of `kind_len` bytes.
fn payload_len_at(kind_len: usize) -> usize {
    MAGIC.len() + 4 + kind_len
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// The length of the envelope that starts `bytes`, if one does.
fn envelope_len(bytes: &[u8]) -> Option<usize> {
    if !bytes.starts_with(&MAGIC) {
        return None;
    }
    let kind_len = usize::from(u16::from_le_bytes(bytes.get(10..12)?.try_into().ok()?));
    let payload = usize::try_from(u64_at(bytes, payload_len_at(kind_len))?).ok()?;
    Some(payload_len_at(kind_len) + 8 + payload + 4)
}

impl Opened {
    /// Splits a sealed envelope, finding nested envelopes by their magic
    /// and their matching length prefix.
    fn open(envelope: &[u8]) -> Opened {
        let kind_len = usize::from(u16::from_le_bytes([envelope[10], envelope[11]]));
        let kind = envelope[12..12 + kind_len].to_vec();
        let payload = &envelope[payload_len_at(kind_len) + 8..envelope.len() - 4];
        let mut parts = Vec::new();
        let (mut run, mut at) = (0, 0);
        while at < payload.len() {
            let nested = (at >= 8)
                .then(|| envelope_len(&payload[at..]))
                .flatten()
                .filter(|&len| u64_at(payload, at - 8) == Some(len as u64));
            if let Some(len) = nested {
                parts.push(Part::Bytes(payload[run..at - 8].to_vec()));
                parts.push(Part::Nested(Opened::open(&payload[at..at + len])));
                at += len;
                run = at;
            } else {
                at += 1;
            }
        }
        parts.push(Part::Bytes(payload[run..].to_vec()));
        Opened { kind, parts }
    }

    /// Re-seals the envelope: nested envelopes first, then this one's
    /// payload length and CRC-32.
    fn seal(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        for part in &self.parts {
            match part {
                Part::Bytes(bytes) => payload.extend_from_slice(bytes),
                Part::Nested(inner) => {
                    let sealed = inner.seal();
                    payload.extend_from_slice(&(sealed.len() as u64).to_le_bytes());
                    payload.extend_from_slice(&sealed);
                }
            }
        }
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.kind.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.kind);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Every non-empty byte run in this envelope and the ones nested in
    /// it, as `(path to the envelope, part index)`.
    fn runs(&self, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, usize)>) {
        for (i, part) in self.parts.iter().enumerate() {
            match part {
                Part::Bytes(bytes) if bytes.is_empty() => {}
                Part::Bytes(_) => out.push((path.clone(), i)),
                Part::Nested(inner) => {
                    path.push(i);
                    inner.runs(path, out);
                    path.pop();
                }
            }
        }
    }

    fn at(&mut self, path: &[usize]) -> &mut Opened {
        match path.split_first() {
            None => self,
            Some((&i, rest)) => match &mut self.parts[i] {
                Part::Nested(inner) => inner.at(rest),
                Part::Bytes(_) => unreachable!("paths lead through nested envelopes"),
            },
        }
    }
}

/// SplitMix64: a seeded stream, so every case reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The 4- and 8-byte values decoders must survive wherever they land.
const WORDS: [&[u8]; 10] = [
    &u32::MAX.to_le_bytes(),
    &0u32.to_le_bytes(),
    &f32::NAN.to_bits().to_le_bytes(),
    &f32::INFINITY.to_bits().to_le_bytes(),
    &f32::NEG_INFINITY.to_bits().to_le_bytes(),
    &u64::MAX.to_le_bytes(),
    &0u64.to_le_bytes(),
    &f64::NAN.to_bits().to_le_bytes(),
    &f64::INFINITY.to_bits().to_le_bytes(),
    &f64::NEG_INFINITY.to_bits().to_le_bytes(),
];

/// Applies one seeded mutation to one byte run of `snapshot` and re-seals
/// it; returns the new bytes and what was done, for failure messages.
fn mutate(snapshot: &Opened, rng: &mut Rng) -> (Vec<u8>, String) {
    let mut runs = Vec::new();
    snapshot.runs(&mut Vec::new(), &mut runs);
    let (path, part) = runs.swap_remove(rng.below(runs.len()));
    let mut opened = snapshot.clone();
    let envelope = opened.at(&path);
    let Part::Bytes(bytes) = &mut envelope.parts[part] else {
        unreachable!("runs lists byte runs only");
    };
    let at = rng.below(bytes.len());
    let what = match rng.below(4) {
        0 => {
            let bit = rng.below(8);
            bytes[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        }
        1 => {
            let n = 1 + rng.below(8).min(bytes.len() - at - 1);
            for b in &mut bytes[at..at + n] {
                *b = rng.next() as u8;
            }
            format!("{n} random byte(s) at {at}")
        }
        2 => {
            let word = WORDS[rng.below(WORDS.len())];
            let n = word.len().min(bytes.len() - at);
            bytes[at..at + n].copy_from_slice(&word[..n]);
            format!("{word:02x?} written at {at}")
        }
        _ => {
            bytes.truncate(at);
            envelope.parts.truncate(part + 1);
            format!("payload cut at byte {at} of the run")
        }
    };
    (
        opened.seal(),
        format!("{what} (envelope {path:?}, run {part})"),
    )
}

/// Restores `CASES` mutated copies of `spec`'s snapshot and scores
/// `probes` with each one that loads, requiring probabilities; returns
/// how many loaded.
fn fuzz(spec: &str, snapshot: &[u8], probes: &[&[u8]], seed: u64) -> u64 {
    let opened = Opened::open(snapshot);
    assert_eq!(
        opened.seal(),
        snapshot,
        "{spec}: opening and re-sealing must reproduce the snapshot"
    );
    let mut rng = Rng(seed);
    let mut loaded = 0;
    for case in 0..CASES {
        let (bytes, what) = mutate(&opened, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Scanner::from_snapshot_bytes(&bytes)
                .map(|scanner| scanner.worker().score_with_members(probes))
        }));
        match outcome {
            Err(_) => panic!("{spec}, case {case}: {what} panicked"),
            Ok(Err(PersistError::ChecksumMismatch { .. })) => {
                panic!("{spec}, case {case}: {what} was not re-sealed")
            }
            Ok(Err(_)) => {}
            Ok(Ok((combined, members))) => {
                assert_eq!(combined.len(), probes.len(), "{spec}, case {case}: {what}");
                let scores = members.iter().map(|(name, p)| (name.as_str(), p));
                for (name, probas) in std::iter::once(("combined", &combined)).chain(scores) {
                    assert_eq!(probas.len(), probes.len(), "{spec}, case {case}: {what}");
                    for p in probas {
                        assert!(
                            (0.0..=1.0).contains(p),
                            "{spec}, case {case}: {what}: {name} scored {p}"
                        );
                    }
                }
                loaded += 1;
            }
        }
    }
    loaded
}

/// Fits each spec on a small corpus and fuzzes its snapshot.
fn fuzz_specs(specs: &[String], scenario: Scenario, seed: u64) {
    let corpus = Corpus::generate(&CorpusConfig {
        n_contracts: 60,
        seed,
        scenario,
        ..Default::default()
    });
    let codes: Vec<&[u8]> = corpus
        .records
        .iter()
        .map(|r| r.bytecode.as_slice())
        .collect();
    let labels: Vec<usize> = corpus.records.iter().map(|r| r.label.as_index()).collect();
    let (train, probes) = codes.split_at(52);
    for (i, spec) in specs.iter().enumerate() {
        let mut detector = DetectorRegistry::global()
            .build_str(spec, 7)
            .expect("valid spec");
        detector.fit(train, &labels[..52]);
        let loaded = fuzz(spec, &detector.to_snapshot_bytes(), probes, seed + i as u64);
        // Some mutations leave a valid model (a flipped low mantissa bit,
        // say); none loading would mean the mutations never got past the
        // framing and the decoders went untested.
        assert!(loaded > 0, "{spec}: no mutated snapshot restored");
    }
}

#[test]
fn every_hsc_family_survives_resealed_payload_mutations() {
    let specs: Vec<String> = DetectorRegistry::global()
        .hsc_specs()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(specs.len(), 7);
    fuzz_specs(&specs, Scenario::Mixed, 24_101);
}

#[test]
fn ensembles_survive_resealed_mutations_of_every_nested_member() {
    let specs = [
        "ensemble:rf+lgbm+catboost".to_owned(),
        "ensemble:rf+lgbm+catboost:features=hist+trace".to_owned(),
    ];
    fuzz_specs(&specs, Scenario::Honeypot, 24_201);
}
