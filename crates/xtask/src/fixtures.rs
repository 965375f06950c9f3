//! The fixture manifest: every rule's tripping/passing fixture pair,
//! embedded at compile time and shared by the integration tests and
//! `xtask lint --self-check`.
//!
//! Self-check exists because the linter is itself load-bearing CI
//! machinery: a refactor that silently stops a rule from firing would
//! otherwise look like a green gate. Running the fixture pairs through
//! the real lint pipeline proves each rule still trips where it must and
//! stays quiet where it must not.

use crate::config::Config;
use crate::report::Diagnostic;
use crate::{lint_files, SourceFile};

/// One rule's fixture pair and its expectations.
pub struct Case {
    /// The rule the bad fixture must trip.
    pub rule: &'static str,
    /// Fixture directory name under `tests/fixtures/`.
    pub dir: &'static str,
    /// Virtual repo-relative path inside the rule's scope.
    pub path: &'static str,
    /// Source that must trip the rule.
    pub bad: &'static str,
    /// Source that must stay clean.
    pub good: &'static str,
    /// 1-based line of the first diagnostic of `rule` in the bad fixture.
    pub first_line: usize,
    /// Whether *only* `rule` may fire on the bad fixture. Graph rules
    /// overlap their per-site counterparts (an unwrap reachable from a
    /// public API also trips `panic-unwrap`), so they opt out.
    pub strict: bool,
    /// Whether diagnostics must carry call-path evidence.
    pub graph: bool,
    /// Extra virtual files linted alongside (e.g. the obs name registry).
    pub extra: &'static [(&'static str, &'static str)],
}

const LIB_PATH: &str = "crates/core/src/fixture.rs";
const QOS_PATH: &str = "crates/qos/src/fixture.rs";

/// Virtual registry file backing the `obs-name-registry` fixtures.
pub const REGISTRY_FIXTURE: (&str, &str) = (
    "crates/obs/src/names.rs",
    include_str!("../tests/fixtures/obs-name-registry/registry.rs"),
);

macro_rules! case {
    ($rule:literal, $dir:literal, $path:expr, $first_line:expr,
     strict: $strict:expr, graph: $graph:expr, extra: $extra:expr) => {
        Case {
            rule: $rule,
            dir: $dir,
            path: $path,
            bad: include_str!(concat!("../tests/fixtures/", $dir, "/bad.rs")),
            good: include_str!(concat!("../tests/fixtures/", $dir, "/good.rs")),
            first_line: $first_line,
            strict: $strict,
            graph: $graph,
            extra: $extra,
        }
    };
    ($rule:literal, $path:expr, $first_line:expr) => {
        case!($rule, $rule, $path, $first_line, strict: true, graph: false, extra: &[])
    };
}

/// The manifest, in registry order. Every rule in [`crate::rules`] has at
/// least one entry (`lint_fixtures.rs` asserts the coverage).
pub fn cases() -> Vec<Case> {
    vec![
        case!("det-unordered-collection", LIB_PATH, 3),
        case!("det-wall-clock", LIB_PATH, 3),
        case!("det-rng-adhoc", "crates/trace/src/fixture.rs", 5),
        case!(
            "det-taint", "det-taint", LIB_PATH, 17,
            strict: true, graph: true, extra: &[]
        ),
        case!("panic-unwrap", LIB_PATH, 5),
        case!("panic-expect", LIB_PATH, 5),
        case!("panic-macro", LIB_PATH, 6),
        case!("panic-slice-index", LIB_PATH, 7),
        case!(
            "panic-reach", "panic-reach", LIB_PATH, 9,
            strict: false, graph: true, extra: &[]
        ),
        case!("unit-float-cast", QOS_PATH, 5),
        case!("unit-float-eq", QOS_PATH, 5),
        case!("needless-trace-clone", LIB_PATH, 5),
        case!("robust-result-discard", LIB_PATH, 5),
        case!("obs-static-name", LIB_PATH, 6),
        case!(
            "obs-name-registry", "obs-name-registry", LIB_PATH, 5,
            strict: true, graph: true, extra: &[REGISTRY_FIXTURE]
        ),
        case!("lint-allow-syntax", LIB_PATH, 5),
        // Regression pair for the lexer-backed masking: raw strings,
        // nested block comments, and string line-continuations must not
        // hide a real site or skew its reported line (the old
        // per-character masker lost a line after each continuation).
        case!(
            "panic-unwrap", "masking-edge-cases", LIB_PATH, 11,
            strict: true, graph: false, extra: &[]
        ),
    ]
}

/// Lints one fixture source (plus the case's extra files) through the
/// full multi-file pipeline.
pub fn lint_fixture(case: &Case, source: &str, config: &Config) -> Vec<Diagnostic> {
    let mut files: Vec<SourceFile> = case
        .extra
        .iter()
        .map(|(path, text)| SourceFile {
            path: (*path).to_string(),
            source: (*text).to_string(),
        })
        .collect();
    files.push(SourceFile {
        path: case.path.to_string(),
        source: source.to_string(),
    });
    lint_files(&files, config)
}

/// Runs every fixture pair through the lint pipeline. Returns a one-line
/// summary on success, or the list of expectation failures.
pub fn self_check() -> Result<String, Vec<String>> {
    let config = Config::default();
    let mut failures = Vec::new();
    let all = cases();
    for case in &all {
        let label = format!("{} ({})", case.rule, case.dir);
        let bad = lint_fixture(case, case.bad, &config);
        let hits: Vec<&Diagnostic> = bad.iter().filter(|d| d.rule == case.rule).collect();
        if hits.is_empty() {
            failures.push(format!("{label}: bad fixture did not trip the rule"));
            continue;
        }
        if hits[0].line != case.first_line {
            failures.push(format!(
                "{label}: first diagnostic at line {}, expected {}",
                hits[0].line, case.first_line
            ));
        }
        if case.strict {
            for d in bad.iter().filter(|d| d.rule != case.rule) {
                failures.push(format!(
                    "{label}: unexpected co-firing {} at {}:{}",
                    d.rule, d.file, d.line
                ));
            }
        }
        if case.graph {
            for d in &hits {
                if d.path.is_empty() {
                    failures.push(format!(
                        "{label}: diagnostic at line {} has no call-path evidence",
                        d.line
                    ));
                }
            }
        }
        let good = lint_fixture(case, case.good, &config);
        for d in &good {
            failures.push(format!(
                "{label}: good fixture tripped {} at {}:{}",
                d.rule, d.file, d.line
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "self-check: {} fixture pair(s) behaved as expected",
            all.len()
        ))
    } else {
        Err(failures)
    }
}
