//! The reproduction itself as a required check: the quick scorecard
//! grades every headline claim of the paper, and all of them must pass
//! inside bands that no change may quietly widen.

use unxpec::experiments::scorecard;
use unxpec::experiments::seeding::{stream, DEFAULT_ROOT_SEED};

/// Every claim the scorecard grades, with its accepted band, in paper
/// order. Moving a band is a reviewed change to this list.
const BANDS: [(&str, &str); 15] = [
    (
        "Fig.2: resolution spread across in-branch loads (f(1))",
        "0.0..10.0 cy",
    ),
    ("Fig.2: f(2) - f(1) resolution step", "90.0..160.0 cy"),
    ("Fig.3: single-load timing difference", "15.0..30.0 cy"),
    (
        "Fig.6: single-load difference with eviction sets",
        "25.0..45.0 cy",
    ),
    (
        "Fig.6: eight-load difference with eviction sets",
        "50.0..80.0 cy",
    ),
    ("Fig.7: mean difference under noise", "15.0..30.0 cy"),
    ("Fig.8: mean difference with eviction sets", "25.0..45.0 cy"),
    ("Fig.10: single-sample accuracy", "78.0..93.0%"),
    ("Fig.11: accuracy with eviction sets", "86.0..97.0%"),
    (
        "VI-B: artifact-equivalent leakage rate",
        "100.0..170.0 Kbps",
    ),
    ("Fig.12: average slowdown at const=25", "12.0..35.0%"),
    ("Fig.12: average slowdown at const=65", "45.0..95.0%"),
    ("Fig.12: CleanupSpec without constant", "0.0..12.0%"),
    ("ext: channel through a v2 trigger", "12.0..35.0 cy"),
    ("ext: channel through an RSB trigger", "12.0..35.0 cy"),
];

#[test]
fn quick_scorecard_passes_every_claim_in_unchanged_bands() {
    let card = scorecard::run(true, stream(DEFAULT_ROOT_SEED, "scorecard"));
    let graded: Vec<(&str, &str)> = card
        .checks
        .iter()
        .map(|c| (c.claim.as_str(), c.band.as_str()))
        .collect();
    assert_eq!(graded, BANDS, "claims or bands changed");
    let failing: Vec<String> = card
        .checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}: measured {} outside {}", c.claim, c.measured, c.band))
        .collect();
    assert!(
        failing.is_empty(),
        "failing claims:\n{}",
        failing.join("\n")
    );
    assert_eq!(card.passed(), 15);
}
