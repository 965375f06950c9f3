//! Diagnostic rendering: human text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (the vendored `serde_json`
//! is a dev-facing stand-in and `xtask` stays dependency-free); the JSON
//! shape is stable so CI and editors can consume it:
//!
//! ```json
//! {"version":2,"files_scanned":34,"violations":1,"warnings":0,
//!  "diagnostics":[{"rule":"panic-unwrap","severity":"error",
//!                  "file":"crates/qos/src/cos.rs","line":10,"column":5,
//!                  "message":"...","hint":"...","path":[]}]}
//! ```
//!
//! `violations` counts errors only — warnings (the relaxed cli/examples
//! tier) never gate.

use crate::callgraph::PathStep;
use crate::rules::Severity;

/// One rule violation at a source location (1-based line and column).
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Rule id, e.g. `panic-unwrap`.
    pub rule: String,
    /// Error (gates CI) or warning (relaxed tier).
    pub severity: Severity,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// What went wrong.
    pub message: String,
    /// How to fix or justify it.
    pub hint: String,
    /// Call-path evidence (graph rules): entry point first, sink last.
    /// Empty for per-line rules.
    pub path: Vec<PathStep>,
}

/// The number of error-severity diagnostics.
pub fn error_count(diagnostics: &[Diagnostic]) -> usize {
    diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Renders diagnostics as `file:line:col severity[rule] message` lines
/// (call-path evidence indented beneath) plus a summary, matching the
/// compiler-style format editors already parse.
pub fn render_text(diagnostics: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&format!(
            "{}:{}:{} {}[{}] {}\n    hint: {}\n",
            d.file,
            d.line,
            d.column,
            d.severity.label(),
            d.rule,
            d.message,
            d.hint
        ));
        for (i, step) in d.path.iter().enumerate() {
            let arrow = if i == 0 { "path:" } else { "  ->" };
            out.push_str(&format!(
                "    {arrow} {} ({}:{})\n",
                step.symbol, step.file, step.line
            ));
        }
    }
    let errors = error_count(diagnostics);
    out.push_str(&format!(
        "xtask lint: {} error(s), {} warning(s) in {} file(s) scanned\n",
        errors,
        diagnostics.len() - errors,
        files_scanned
    ));
    out
}

/// Renders the stable JSON shape described in the module docs.
pub fn render_json(diagnostics: &[Diagnostic], files_scanned: usize) -> String {
    let errors = error_count(diagnostics);
    let mut out = String::from("{");
    out.push_str("\"version\":2,");
    out.push_str(&format!("\"files_scanned\":{files_scanned},"));
    out.push_str(&format!("\"violations\":{errors},"));
    out.push_str(&format!("\"warnings\":{},", diagnostics.len() - errors));
    out.push_str("\"diagnostics\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\
             \"line\":{},\"column\":{},\"message\":\"{}\",\"hint\":\"{}\",\
             \"path\":[{}]}}",
            escape(&d.rule),
            d.severity.label(),
            escape(&d.file),
            d.line,
            d.column,
            escape(&d.message),
            escape(&d.hint),
            d.path
                .iter()
                .map(|s| format!(
                    "{{\"symbol\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                    escape(&s.symbol),
                    escape(&s.file),
                    s.line
                ))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    out.push_str("]}");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "panic-unwrap".into(),
            severity: Severity::Error,
            file: "crates/qos/src/cos.rs".into(),
            line: 7,
            column: 13,
            message: "unwrap() in a library crate".into(),
            hint: "propagate with `?`".into(),
            path: Vec::new(),
        }
    }

    fn with_path() -> Diagnostic {
        let mut d = sample();
        d.rule = "panic-reach".into();
        d.path = vec![
            PathStep {
                symbol: "CosTranslator::translate".into(),
                file: "crates/qos/src/translation.rs".into(),
                line: 3,
            },
            PathStep {
                symbol: "helper".into(),
                file: "crates/qos/src/cos.rs".into(),
                line: 6,
            },
        ];
        d
    }

    #[test]
    fn json_contains_rule_location_and_counts() {
        let json = render_json(&[sample()], 3);
        assert!(json.contains("\"rule\":\"panic-unwrap\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\"column\":13"));
        assert!(json.contains("\"files_scanned\":3"));
        assert!(json.contains("\"violations\":1"));
        assert!(json.contains("\"warnings\":0"));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let mut d = sample();
        d.message = "say \"hi\"\nnext".into();
        let json = render_json(&[d], 1);
        assert!(json.contains("say \\\"hi\\\"\\nnext"));
    }

    #[test]
    fn json_carries_the_call_path() {
        let json = render_json(&[with_path()], 1);
        assert!(json.contains("\"path\":[{\"symbol\":\"CosTranslator::translate\""));
        assert!(json.contains("\"file\":\"crates/qos/src/translation.rs\",\"line\":3"));
    }

    #[test]
    fn text_summarizes_and_shows_paths() {
        let mut d = with_path();
        d.severity = Severity::Warn;
        let text = render_text(&[sample(), d], 3);
        assert!(text.contains("crates/qos/src/cos.rs:7:13 error[panic-unwrap]"));
        assert!(text.contains("path: CosTranslator::translate (crates/qos/src/translation.rs:3)"));
        assert!(text.contains("-> helper (crates/qos/src/cos.rs:6)"));
        assert!(text.contains("1 error(s), 1 warning(s) in 3 file(s)"));
    }
}
