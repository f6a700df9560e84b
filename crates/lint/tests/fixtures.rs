//! Self-test corpus: every known-bad fixture must produce *exactly* the
//! expected diagnostic (right rule, right count), and every known-good
//! fixture must pass clean. Each fixture is analyzed in isolation under a
//! synthetic workspace path that puts it in the scope the rule targets.

use std::fs;
use std::path::PathBuf;

use authdb_lint::rules::{
    analyze, RULE_CASTS, RULE_CATALOG, RULE_CLOCK, RULE_DECODE, RULE_DOMAIN, RULE_WAIVER,
};
use authdb_lint::FileModel;

fn fixture(dir: &str, name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "testdata", dir, name]
        .iter()
        .collect();
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// (fixture file, synthetic workspace path, expected rule, expected count)
const BAD: [(&str, &str, &str, usize); 7] = [
    (
        "panicking_decode.rs",
        "crates/core/src/fixture.rs",
        RULE_DECODE,
        1,
    ),
    (
        "macro_decode.rs",
        "crates/core/src/fixture.rs",
        RULE_DECODE,
        1,
    ),
    (
        "truncating_cast.rs",
        "crates/core/src/fixture.rs",
        RULE_CASTS,
        1,
    ),
    (
        "unbound_message.rs",
        "crates/core/src/fixture.rs",
        RULE_DOMAIN,
        1,
    ),
    (
        "unjustified_waiver.rs",
        "crates/core/src/fixture.rs",
        RULE_WAIVER,
        1,
    ),
    ("wall_clock.rs", "crates/core/src/verify.rs", RULE_CLOCK, 1),
    (
        "unpinned_variant.rs",
        "crates/core/src/verify.rs",
        RULE_CATALOG,
        1,
    ),
];

const GOOD: [(&str, &str); 3] = [
    ("clean_decode.rs", "crates/core/src/fixture.rs"),
    ("waived_index.rs", "crates/core/src/fixture.rs"),
    ("bound_message.rs", "crates/core/src/fixture.rs"),
];

#[test]
fn bad_fixtures_produce_exactly_the_expected_diagnostic() {
    for (name, rel, rule, count) in BAD {
        let model = FileModel::build(rel, &fixture("bad", name));
        let a = analyze(&[model]);
        let matching = a.diagnostics.iter().filter(|d| d.rule == rule).count();
        assert_eq!(
            matching, count,
            "{name}: expected {count} `{rule}` diagnostic(s), got {:#?}",
            a.diagnostics
        );
        assert_eq!(
            a.diagnostics.len(),
            count,
            "{name}: unexpected extra diagnostics: {:#?}",
            a.diagnostics
        );
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for (name, rel) in GOOD {
        let model = FileModel::build(rel, &fixture("good", name));
        let a = analyze(&[model]);
        assert!(
            a.diagnostics.is_empty(),
            "{name}: expected clean, got {:#?}",
            a.diagnostics
        );
    }
}

#[test]
fn waived_fixture_reports_the_waiver_justification() {
    let model = FileModel::build(
        "crates/core/src/fixture.rs",
        &fixture("good", "waived_index.rs"),
    );
    let a = analyze(&[model]);
    assert!(!a.waived.is_empty());
    for (d, why) in &a.waived {
        assert_eq!(d.rule, RULE_DECODE);
        assert!(why.contains("exactly two bytes"), "{why}");
    }
}
