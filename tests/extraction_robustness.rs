//! Robustness: the extraction pipeline must never panic, whatever bytes it
//! is fed — corrupted snapshots are *classified* (Table 2's unprocessable
//! files), not crashes. This drives randomly mutated real snapshots and
//! raw garbage through `extract_svg`.

use ovh_weather::prelude::*;
use proptest::prelude::*;

fn base_svg() -> String {
    let sim = Simulation::new(SimulationConfig::scaled(5, 0.08));
    sim.snapshot(
        MapKind::Europe,
        Timestamp::from_ymd_hms(2021, 4, 1, 9, 0, 0),
    )
    .svg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random single-region byte corruption of a valid snapshot.
    #[test]
    fn mutated_snapshots_never_panic(
        offset_frac in 0.0f64..1.0,
        length in 1usize..64,
        fill in 0u8..=255,
    ) {
        let svg = base_svg();
        let bytes = svg.as_bytes();
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        let end = (offset + length).min(bytes.len());
        let mut mutated = bytes.to_vec();
        for b in &mut mutated[offset..end] {
            *b = fill;
        }
        // Feed it through regardless of UTF-8 validity.
        if let Ok(text) = String::from_utf8(mutated) {
            let config = ExtractConfig::default();
            let _ = extract_svg(&text, MapKind::Europe, Timestamp::from_unix(0), &config);
        }
    }

    /// Random element deletions: remove a contiguous slice of elements.
    #[test]
    fn truncated_element_runs_never_panic(start_frac in 0.0f64..1.0, count in 1usize..40) {
        let svg = base_svg();
        // Cut whole elements out by splitting on '<'.
        let parts: Vec<&str> = svg.split_inclusive('<').collect();
        let start = ((parts.len() - 1) as f64 * start_frac) as usize;
        let end = (start + count).min(parts.len());
        let text: String =
            parts[..start].iter().chain(parts[end..].iter()).copied().collect();
        let config = ExtractConfig::default();
        let _ = extract_svg(&text, MapKind::Europe, Timestamp::from_unix(0), &config);
    }

    /// Pure garbage.
    #[test]
    fn garbage_never_panics(text in "[ -~<>/\"=%#]{0,400}") {
        let config = ExtractConfig::default();
        let _ = extract_svg(&text, MapKind::Europe, Timestamp::from_unix(0), &config);
    }
}

/// The exhaustive fault matrix: every simulator fault kind, injected
/// into every map's snapshot, is classified into one of the documented
/// `ExtractError::kind()` strings — never a panic, never a silently
/// accepted snapshot. Batch statistics over the same corpus must keep
/// `failures_by_kind` summing exactly to `failed`.
#[test]
fn fault_matrix_is_exhaustively_classified() {
    use ovh_weather::simulator::faults::{corrupt, FaultKind};

    // Expected classification per fault kind. Keep in sync with
    // `corrupted_files_are_rejected_with_the_right_kind` in wm-extract.
    let expected: &[(FaultKind, &[&str])] = &[
        (FaultKind::TruncatedXml, &["invalid-xml"]),
        (FaultKind::MalformedAttribute, &["invalid-svg"]),
        (FaultKind::MissingRouters, &["dangling-link", "self-loop"]),
    ];
    // The matrix is exhaustive: a new FaultKind must be added here.
    assert_eq!(expected.len(), FaultKind::ALL.len());

    let sim = Simulation::new(SimulationConfig::scaled(7, 0.1));
    let config = ExtractConfig::default();
    // Inside every map's collection availability (non-Europe maps have
    // a year-long hole around 2021).
    let t = Timestamp::from_ymd_hms(2022, 2, 1, 12, 0, 0);

    for map in MapKind::ALL {
        let clean = sim.snapshot(map, t).svg;
        let mut batch = vec![BatchInput {
            timestamp: t,
            svg: clean.clone(),
        }];
        for (offset, (fault, kinds)) in expected.iter().enumerate() {
            for seed in 0..4u64 {
                let corrupted = corrupt(&clean, *fault, seed);
                let err = match extract_svg(&corrupted, map, t, &config) {
                    Err(err) => err,
                    Ok(_) => panic!("{map}: {fault:?} seed {seed} extracted cleanly"),
                };
                assert!(
                    kinds.contains(&err.kind()),
                    "{map}: {fault:?} classified as {:?}, expected one of {kinds:?}",
                    err.kind()
                );
                let at = t + Duration::from_minutes(5 * (1 + offset as i64 * 4 + seed as i64));
                batch.push(BatchInput {
                    timestamp: at,
                    svg: corrupted,
                });
            }
        }
        let (snapshots, stats, _) =
            extract_batch_with(&batch, map, &config, 3, Scheduling::WorkStealing);
        assert_eq!(stats.total(), batch.len(), "{map}");
        assert_eq!(stats.processed, snapshots.len(), "{map}");
        assert_eq!(
            stats.failed,
            batch.len() - 1,
            "{map}: only the clean file passes"
        );
        assert_eq!(
            stats.failures_by_kind.values().sum::<usize>(),
            stats.failed,
            "{map}: failures_by_kind must sum to failed"
        );
        let documented: std::collections::BTreeSet<&str> = expected
            .iter()
            .flat_map(|(_, kinds)| kinds.iter().copied())
            .collect();
        for kind in stats.failures_by_kind.keys() {
            assert!(
                documented.contains(kind.as_str()),
                "{map}: undocumented kind {kind}"
            );
        }
    }
}

#[test]
fn structured_hostile_documents_are_classified() {
    let config = ExtractConfig::default();
    let t = Timestamp::from_unix(0);
    // Documents engineered at the weathermap layer rather than byte level.
    let hostile = [
        // A load with no arrows at all.
        r#"<svg><text class="labellink" x="1" y="1">5 %</text></svg>"#.to_owned(),
        // One-armed link at the end of the document.
        r#"<svg><polygon points="0,0 4,0 2,3"/></svg>"#.to_owned(),
        // A label box that never gets its text.
        r#"<svg><rect class="node" x="0" y="0" width="4" height="4"/></svg>"#.to_owned(),
        // Arrows and loads but zero routers.
        r#"<svg><polygon points="0,0 40,0 20,6"/><polygon points="100,0 60,0 80,6"/>
           <text class="labellink" x="1" y="1">5 %</text>
           <text class="labellink" x="9" y="1">6 %</text></svg>"#
            .to_owned(),
        // Huge coordinates.
        r#"<svg><rect class="object" x="1e300" y="-1e300" width="1e300" height="2"/></svg>"#
            .to_owned(),
    ];
    for (i, doc) in hostile.iter().enumerate() {
        let result = extract_svg(doc, MapKind::Europe, t, &config);
        assert!(
            result.is_err(),
            "hostile document {i} should be refused, got {result:?}"
        );
    }

    // Deeply nested empty groups are *valid* (they carry no weathermap
    // content) and extract as an empty topology, like `<svg/>` itself.
    let nested = format!("<svg>{}{}</svg>", "<g>".repeat(200), "</g>".repeat(200));
    let snapshot = extract_svg(&nested, MapKind::Europe, t, &config).expect("valid empty map");
    assert!(snapshot.nodes.is_empty() && snapshot.links.is_empty());
}

/// A transform that makes geometry non-finite (a `nan`/`inf` argument,
/// or finite factors that overflow) refuses the file as `invalid-svg`
/// instead of yielding boxes that "intersect" every carrier line.
#[test]
fn non_finite_transforms_are_invalid_svg() {
    let config = ExtractConfig::default();
    let t = Timestamp::from_unix(0);
    for transform in [
        "scale(nan)",
        "translate(inf)",
        "matrix(1 0 0 1 0 inf)",
        "scale(1e300) scale(1e300)",
    ] {
        let doc = format!(
            r#"<svg><g transform="{transform}"><rect class="node" x="1" y="1" width="2" height="2"/></g></svg>"#
        );
        let err = extract_svg(&doc, MapKind::Europe, t, &config)
            .expect_err("non-finite geometry must be refused");
        assert_eq!(err.kind(), "invalid-svg", "{transform}: {err}");
    }
}

/// Every `ExtractError::kind()` string the library can construct is
/// documented here and reachable through `failures_by_kind`. The
/// `error-exhaustiveness` lint rule cross-checks this list against the
/// variants constructed anywhere in the workspace, so adding an error
/// variant without extending this table fails `wm-lint --deny-new`.
#[test]
fn documented_kinds_cover_every_classification() {
    const DOCUMENTED_KINDS: &[&str] = &[
        "invalid-xml",
        "invalid-svg",
        "invalid-load",
        "malformed-structure",
        "dangling-link",
        "self-loop",
        "label-too-far",
        "unlinked-router",
    ];
    let config = ExtractConfig::default();
    let t = Timestamp::from_unix(0);
    // One minimal document per kind we can reach from the outside; the
    // remaining kinds are pinned by the fault matrix above.
    let probes: &[(&str, &str)] = &[
        ("invalid-xml", "<svg><unclosed"),
        (
            "invalid-svg",
            r#"<svg><polygon points="not numbers"/></svg>"#,
        ),
        (
            "invalid-load",
            r#"<svg><polygon points="0,0 40,0 20,6"/><polygon points="100,0 60,0 80,6"/>
               <text class="labellink" x="1" y="1">240 %</text></svg>"#,
        ),
        (
            "malformed-structure",
            r#"<svg><text class="labellink" x="1" y="1">5 %</text></svg>"#,
        ),
    ];
    for (expected, doc) in probes {
        let err = extract_svg(doc, MapKind::Europe, t, &config)
            .expect_err("probe documents must be refused");
        assert_eq!(
            &err.kind(),
            expected,
            "probe for {expected} classified as {}",
            err.kind()
        );
        assert!(DOCUMENTED_KINDS.contains(&err.kind()));
    }
    // The documented list is exactly the kind() surface: no duplicates,
    // and every batch tally key must belong to it (checked by the fault
    // matrix run above for the kinds injected there).
    let mut unique: Vec<&str> = DOCUMENTED_KINDS.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), DOCUMENTED_KINDS.len());
}
