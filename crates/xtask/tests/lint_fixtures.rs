//! Fixture-driven linter tests: every rule ships one tripping and one
//! passing fixture, asserted down to the exact rule id and line in the
//! JSON output.
//!
//! The fixture manifest itself lives in `xtask::fixtures` so that
//! `xtask lint --self-check` runs the same pairs in CI; the tests here
//! layer on the assertions that need test-only machinery (exact JSON
//! shape, call-path snapshots, the real workspace walk, and the lexer
//! losslessness sweep).

use xtask::config::Config;
use xtask::fixtures::{cases, lint_fixture, self_check};
use xtask::lex;
use xtask::report::{error_count, render_json, render_text};
use xtask::rules::{registry, Severity};
use xtask::{lint_files, lint_source, lint_workspace, SourceFile};

const LIB_PATH: &str = "crates/core/src/fixture.rs";

#[test]
fn every_bad_fixture_trips_its_rule_at_the_expected_line() {
    let config = Config::default();
    for case in cases() {
        let diagnostics = lint_fixture(&case, case.bad, &config);
        let hits: Vec<_> = diagnostics.iter().filter(|d| d.rule == case.rule).collect();
        assert!(
            !hits.is_empty(),
            "{} ({}): bad fixture produced no {} diagnostics",
            case.rule,
            case.dir,
            case.rule
        );
        if case.strict {
            for d in &diagnostics {
                assert_eq!(
                    d.rule, case.rule,
                    "{} ({}): unexpected co-firing rule {} at line {}",
                    case.rule, case.dir, d.rule, d.line
                );
            }
        }
        assert_eq!(
            hits[0].line, case.first_line,
            "{} ({}): first diagnostic at wrong line",
            case.rule, case.dir
        );
        assert_eq!(hits[0].file, case.path, "{}: wrong file", case.rule);
        if case.graph {
            for d in &hits {
                assert!(
                    !d.path.is_empty(),
                    "{} ({}): graph diagnostic at line {} carries no call path",
                    case.rule,
                    case.dir,
                    d.line
                );
            }
        }

        let json = render_json(&diagnostics, 1);
        assert!(
            json.contains(&format!("\"rule\":\"{}\"", case.rule)),
            "{}: rule id missing from JSON: {json}",
            case.rule
        );
        assert!(
            json.contains(&format!("\"line\":{}", case.first_line)),
            "{}: line missing from JSON: {json}",
            case.rule
        );
    }
}

#[test]
fn every_good_fixture_is_clean() {
    let config = Config::default();
    for case in cases() {
        let diagnostics = lint_fixture(&case, case.good, &config);
        assert!(
            diagnostics.is_empty(),
            "{} ({}): good fixture tripped: {:?}",
            case.rule,
            case.dir,
            diagnostics
                .iter()
                .map(|d| format!("{}:{} {}", d.line, d.column, d.rule))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_registered_rule_has_a_fixture_pair() {
    let covered: std::collections::BTreeSet<&str> = cases().iter().map(|c| c.rule).collect();
    for rule in registry() {
        assert!(
            covered.contains(rule.id),
            "rule {} has no fixture pair in the manifest",
            rule.id
        );
    }
}

#[test]
fn self_check_passes_on_the_shipped_fixtures() {
    match self_check() {
        Ok(summary) => assert!(summary.contains("behaved as expected"), "{summary}"),
        Err(failures) => panic!("self-check failed:\n{}", failures.join("\n")),
    }
}

/// The call-path evidence is part of the report contract: snapshot the
/// full text rendering of the det-taint fixture so a formatting change
/// (or a graph regression that shortens the path) is a visible diff.
#[test]
fn det_taint_call_path_snapshot() {
    let config = Config::default();
    let case = cases()
        .into_iter()
        .find(|c| c.rule == "det-taint")
        .expect("det-taint fixture exists");
    let diagnostics = lint_fixture(&case, case.bad, &config);
    let text = render_text(&diagnostics, 1);
    let expected = "\
crates/core/src/fixture.rs:17:19 error[det-taint] deterministic entry point `FitEngine::shard` reaches a site that branches on the current thread identity (1 call step(s) away)
    hint: route the call chain through the obs clock facade or the seeded rng facade, or break the edge; justify a provably inert sink with lint:allow(det-taint) at the sink site
    path: FitEngine::shard (crates/core/src/fixture.rs:11)
      -> pick_lane (crates/core/src/fixture.rs:16)
      -> sink: branches on the current thread identity (crates/core/src/fixture.rs:17)
xtask lint: 1 error(s), 0 warning(s) in 1 file(s) scanned
";
    assert_eq!(text, expected, "call-path rendering drifted:\n{text}");
}

/// The lexer must be lossless over real code, not just fixtures: token
/// texts concatenated in order reproduce every workspace source file
/// byte-for-byte. This is the property the masking layer (and therefore
/// every line/column in every diagnostic) rests on.
#[test]
fn lexer_is_lossless_over_every_workspace_source_file() {
    let root = workspace_root();
    let mut checked = 0usize;
    for file in walk_rs(&root) {
        let source = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let tokens = lex::lex(&source);
        let mut rebuilt = String::with_capacity(source.len());
        for t in &tokens {
            rebuilt.push_str(t.text(&source));
        }
        assert_eq!(rebuilt, source, "lexer lost bytes in {}", file.display());
        checked += 1;
    }
    assert!(
        checked > 50,
        "losslessness sweep found too few files: {checked}"
    );
}

#[test]
fn rng_facade_is_exempt_from_the_rng_rule() {
    let bad = include_str!("fixtures/det-rng-adhoc/bad.rs");
    let diagnostics = lint_source("crates/trace/src/rng.rs", bad, &Config::default());
    assert!(
        diagnostics.iter().all(|d| d.rule != "det-rng-adhoc"),
        "the facade itself must be allowed to hold generator constants"
    );
}

#[test]
fn fleet_generator_and_fan_out_are_deterministic_entry_points() {
    // Outside the entry points, a thread-identity branch is no finding.
    let source =
        "pub fn lane() -> usize {\n    format!(\"{:?}\", std::thread::current().id()).len()\n}\n";
    let taint = |path: &str| {
        let file = SourceFile {
            path: path.into(),
            source: source.into(),
        };
        lint_files(&[file], &Config::default())
            .iter()
            .any(|d| d.rule == "det-taint")
    };
    assert!(!taint("crates/trace/src/io.rs"));
    assert!(taint("crates/trace/src/gen/fleet.rs"));
    assert!(taint("crates/trace/src/parallel.rs"));
}

#[test]
fn slot_scheduler_is_a_deterministic_entry_point() {
    // The one two-priority scheduler feeds every replay's report, so a
    // thread-identity branch reachable from its methods is a finding; the
    // same method on another type in the same file is not.
    let taint = |ty: &str| {
        let source = format!(
            "pub struct {ty};\n\nimpl {ty} {{\n    pub fn step(&self) -> usize {{\n        format!(\"{{:?}}\", std::thread::current().id()).len()\n    }}\n}}\n"
        );
        let file = SourceFile {
            path: "crates/wlm/src/host.rs".into(),
            source,
        };
        lint_files(&[file], &Config::default())
            .iter()
            .any(|d| d.rule == "det-taint")
    };
    assert!(taint("SlotScheduler"));
    assert!(!taint("Ledger"));
}

#[test]
fn clock_facade_is_exempt_from_the_wall_clock_rule() {
    let bad = include_str!("fixtures/det-wall-clock/bad.rs");
    let diagnostics = lint_source("crates/obs/src/clock.rs", bad, &Config::default());
    assert!(
        diagnostics.iter().all(|d| d.rule != "det-wall-clock"),
        "the clock facade itself must be allowed to read std::time"
    );
}

#[test]
fn wall_clock_rule_reaches_beyond_the_library_crates() {
    let bad = include_str!("fixtures/det-wall-clock/bad.rs");
    let diagnostics = lint_source("crates/bench/src/bin/fixture.rs", bad, &Config::default());
    assert!(
        diagnostics.iter().any(|d| d.rule == "det-wall-clock"),
        "bench/cli code must also route timings through the obs clock"
    );
}

#[test]
fn panic_rules_downgrade_to_warnings_in_the_relaxed_tier() {
    let bad = include_str!("fixtures/panic-unwrap/bad.rs");
    let diagnostics = lint_source("examples/fixture.rs", bad, &Config::default());
    let hit = diagnostics
        .iter()
        .find(|d| d.rule == "panic-unwrap")
        .expect("panic-unwrap still fires in examples/");
    assert_eq!(
        hit.severity,
        Severity::Warn,
        "examples/ panics must warn, not gate"
    );
    assert_eq!(error_count(&diagnostics), 0);
}

#[test]
fn cfg_test_code_is_exempt_from_panic_rules() {
    let source = "pub fn noop() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let v = vec![1];\n        let i = 0;\n        assert_eq!(v[i], *v.first().unwrap());\n    }\n}\n";
    let diagnostics = lint_source(LIB_PATH, source, &Config::default());
    assert!(
        diagnostics.is_empty(),
        "test code must be exempt: {:?}",
        diagnostics
            .iter()
            .map(|d| format!("{}:{}", d.rule, d.line))
            .collect::<Vec<_>>()
    );
}

#[test]
fn lints_toml_allowlist_suppresses_per_file() {
    let config = Config::parse(&format!("[allow]\npanic-unwrap = [\"{LIB_PATH}\"]\n"))
        .expect("allowlist parses");
    let bad = include_str!("fixtures/panic-unwrap/bad.rs");
    assert!(lint_source(LIB_PATH, bad, &config).is_empty());
    // The allowlist is per-file: the same source elsewhere still trips.
    assert!(!lint_source("crates/qos/src/other.rs", bad, &config).is_empty());
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let config_text = std::fs::read_to_string(root.join("crates/xtask/lints.toml"))
        .expect("lints.toml is readable");
    let config = Config::parse(&config_text).expect("lints.toml parses");
    let report = lint_workspace(&root, &config).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 50,
        "walker found too few files: {}",
        report.files_scanned
    );
    // Warnings (the relaxed cli/examples tier) are allowed to exist;
    // errors gate.
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{}:{} {}", d.file, d.line, d.rule))
        .collect();
    assert!(
        errors.is_empty(),
        "workspace must stay lint-clean: {errors:?}"
    );
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// Every `.rs` file the repository tracks: crate sources (xtask and its
/// fixtures included — fixtures are exactly where lexer edge cases
/// live), top-level examples, and integration tests.
fn walk_rs(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "examples", "tests"] {
        collect_rs(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
