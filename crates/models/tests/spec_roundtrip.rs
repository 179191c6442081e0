//! Property tests for the `DetectorSpec` grammar: every constructible spec
//! round-trips through its canonical string form
//! (`parse(display(spec)) == spec`), and arbitrary input strings never
//! panic the parser — they either parse or return a typed [`SpecError`].

use phishinghook_models::{DetectorSpec, FeatureSet, HscKind, HscSpec, SpecError, Vote, HSC_KINDS};
use proptest::prelude::*;

/// Maps an arbitrary draw to one of the seven families.
fn kind_from(raw: u64) -> HscKind {
    HSC_KINDS[(raw % 7) as usize]
}

/// Builds a valid spec from raw fuzz material: `shape` picks single vs.
/// ensemble, the vote rule and the feature set, `members` picks families
/// (and, for singles, whether a seed is present), `seed` is the explicit
/// seed value.
fn spec_from(shape: u8, members: &[u64], seed: u64) -> DetectorSpec {
    let with_seed = shape & 0x10 != 0;
    let features = match (shape >> 5) % 3 {
        0 => FeatureSet::Histogram,
        1 => FeatureSet::Trace,
        _ => FeatureSet::HistogramTrace,
    };
    if shape & 1 == 0 {
        DetectorSpec::Hsc(HscSpec {
            kind: kind_from(members[0]),
            seed: with_seed.then_some(seed),
            features,
        })
    } else {
        let kinds: Vec<HscKind> = members.iter().map(|&m| kind_from(m)).collect();
        let vote = match (shape >> 1) % 3 {
            0 => Vote::Soft,
            1 => Vote::Hard,
            _ => Vote::Weighted(
                members
                    .iter()
                    .map(|&m| (m % 1000) as f64 / 8.0 + 0.125)
                    .collect(),
            ),
        };
        DetectorSpec::Ensemble {
            members: kinds,
            vote,
            seed: with_seed.then_some(seed),
            features,
        }
    }
}

proptest! {
    #[test]
    fn every_spec_round_trips_through_display(
        shape in proptest::arbitrary::any::<u8>(),
        members in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..6),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let spec = spec_from(shape, &members, seed);
        let rendered = spec.to_string();
        let reparsed: DetectorSpec = rendered
            .parse()
            .unwrap_or_else(|e| panic!("canonical `{rendered}` failed to parse: {e}"));
        prop_assert_eq!(&reparsed, &spec, "`{}` did not round-trip", rendered);
        // Display is canonical: rendering the reparse changes nothing.
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    #[test]
    fn arbitrary_strings_never_panic_the_parser(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..48),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        // Either outcome is fine; panicking or looping is not.
        let _ = text.parse::<DetectorSpec>();
    }

    #[test]
    fn near_miss_specs_return_typed_errors(
        family in proptest::arbitrary::any::<u64>(),
        junk in proptest::arbitrary::any::<u16>(),
    ) {
        // A valid family with a corrupted option segment must be a typed
        // error, never a panic or a silent success.
        let token = kind_from(family).token();
        let text = format!("{token}:opt{junk}=x");
        match text.parse::<DetectorSpec>() {
            Err(SpecError::UnknownOption(_)) => {}
            other => prop_assert!(false, "`{}` → {:?}", text, other),
        }
    }
}

#[test]
fn unknown_families_and_structural_errors_are_typed() {
    assert!(matches!(
        "definitely-not-a-model".parse::<DetectorSpec>(),
        Err(SpecError::UnknownFamily(_))
    ));
    assert!(matches!(
        "ensemble:".parse::<DetectorSpec>(),
        Err(SpecError::EmptyEnsemble)
    ));
    assert!(matches!(
        "ensemble:rf+lgbm:vote=weighted:weights=1,2,3".parse::<DetectorSpec>(),
        Err(SpecError::WeightCount {
            weights: 3,
            members: 2
        })
    ));
}
