//! The whole-workspace analysis pass: rules that need the symbol table
//! and the approximate call graph rather than a single masked line.
//!
//! Three rule families live here (DESIGN.md §5g):
//!
//! * **`det-taint`** — reachability from the deterministic pipeline entry
//!   points (`FitEngine` / `EngineSession` methods, `replay*` in the
//!   chaos crate, `translate*` in the qos crate) to nondeterminism sinks:
//!   wall-clock reads, ad-hoc randomness, unordered hash collections, and
//!   thread-identity branches. The obs clock facade and the seeded-rng
//!   facade are the declared sinks-that-are-not-sinks.
//! * **`panic-reach`** — panic sites (`unwrap`, `expect`, panicking
//!   macros, non-literal indexing) inside *private* functions that a
//!   `pub` library API can reach; the per-site panic rules cover the
//!   sites themselves, this rule adds the call-path evidence showing how
//!   the abort escapes through a public signature.
//! * **`obs-name-registry`** — every metric/span name at an obs
//!   recording call must be declared in the one registry module
//!   (`crates/obs/src/names.rs`), either by literal value or via a
//!   `names::CONST` reference.
//!
//! Every diagnostic carries a [`PathStep`] chain so text and JSON
//! output can show the full call path, not just the sink line.
//!
//! A `lint:allow` at a sink or panic site clears the graph rule too when
//! it names either the graph rule id or the corresponding per-site rule
//! id — one justified site must not need two markers.

use std::collections::BTreeSet;

use crate::callgraph::{self, FnId, PathStep, Reachability};
use crate::config::Config;
use crate::lex::{self, Token, TokenKind};
use crate::report::Diagnostic;
use crate::rules::{self, Rule, Severity};
use crate::scan::Masked;
use crate::symbols::{significant, FileSymbols};

/// One preprocessed file handed to the workspace pass: everything the
/// per-file textual pass already computed, lexed exactly once.
pub struct FileData {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// The raw source text.
    pub source: String,
    /// Lossless token stream of `source`.
    pub tokens: Vec<Token>,
    /// Masked per-line view derived from `tokens`.
    pub masked: Masked,
    /// Per-line sets of validly allowed rule ids.
    pub allowed: Vec<BTreeSet<String>>,
    /// Symbol table of `source` (with `path` filled in).
    pub symbols: FileSymbols,
    /// Whether the whole file is test code (integration tests).
    pub whole_file_test: bool,
}

/// Runs the three graph rule families over the preprocessed workspace.
pub fn graph_rules(files: &[FileData], config: &Config) -> Vec<Diagnostic> {
    let registry = rules::registry();
    let rule = |id: &str| {
        registry
            .iter()
            .find(|r| r.id == id)
            .expect("graph rule ids are registered")
    };

    let file_refs: Vec<(&str, &[Token])> = files
        .iter()
        .map(|f| (f.source.as_str(), f.tokens.as_slice()))
        .collect();
    let symbol_refs: Vec<&FileSymbols> = files.iter().map(|f| &f.symbols).collect();
    let graph = callgraph::build(&file_refs, &symbol_refs);
    let sigs: Vec<Vec<usize>> = files.iter().map(|f| significant(&f.tokens)).collect();
    let ranges: Vec<Vec<(usize, usize, usize)>> = files
        .iter()
        .enumerate()
        .map(|(f, file)| fn_line_ranges(file, &sigs[f]))
        .collect();

    let mut diagnostics = Vec::new();
    det_taint(
        files,
        &ranges,
        &graph,
        rule("det-taint"),
        config,
        &mut diagnostics,
    );
    panic_reach(
        files,
        &ranges,
        &graph,
        rule("panic-reach"),
        config,
        &mut diagnostics,
    );
    obs_name_registry(
        files,
        &sigs,
        &ranges,
        rule("obs-name-registry"),
        config,
        &mut diagnostics,
    );
    diagnostics
}

/// Per-function `(start_line, end_line, fn_index)` line ranges (0-based,
/// inclusive), from the declaration line to the body's closing brace.
/// Bodiless signatures are omitted — they cannot contain sites.
fn fn_line_ranges(file: &FileData, sig: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (i, item) in file.symbols.fns.iter().enumerate() {
        if item.body.is_empty() {
            continue;
        }
        let end_line = if item.body.end < sig.len() {
            file.tokens[sig[item.body.end]].line
        } else {
            file.tokens.last().map_or(item.line, |t| t.line)
        };
        out.push((item.line, end_line, i));
    }
    out
}

/// The innermost function whose line range contains `line`, if any
/// (nested fns shadow their enclosing item by narrower range).
fn fn_at(ranges: &[(usize, usize, usize)], line: usize) -> Option<usize> {
    ranges
        .iter()
        .filter(|(start, end, _)| *start <= line && line <= *end)
        .min_by_key(|(start, end, _)| end - start)
        .map(|&(_, _, i)| i)
}

/// Whether the site at `line` is excused: `lints.toml` or a line-level
/// `lint:allow` naming any of `ids` (the graph rule id or the matching
/// per-site rule id).
fn site_allowed(file: &FileData, line: usize, ids: &[&str], config: &Config) -> bool {
    ids.iter().any(|id| {
        config.allows(id, &file.path)
            || crate::line_allows(&file.allowed, &file.masked.code, line, id)
    })
}

/// The qualified display name of a function node.
fn symbol_name(files: &[FileData], id: FnId) -> String {
    let item = &files[id.0].symbols.fns[id.1];
    match &item.qual {
        Some(q) => format!("{q}::{}", item.name),
        None => item.name.clone(),
    }
}

/// Renders an entry-to-function chain as 1-based path steps.
fn chain_steps(files: &[FileData], chain: &[FnId]) -> Vec<PathStep> {
    chain
        .iter()
        .map(|&id| PathStep {
            symbol: symbol_name(files, id),
            file: files[id.0].path.clone(),
            line: files[id.0].symbols.fns[id.1].line + 1,
        })
        .collect()
}

/// Whether `line` of `file` is exempt as test code.
fn is_test_line(file: &FileData, line: usize) -> bool {
    file.whole_file_test || file.masked.in_test.get(line).copied().unwrap_or(false)
}

// ---------------------------------------------------------------- det-taint

/// One nondeterminism sink site.
struct Sink {
    line: usize,
    col: usize,
    /// What the site does, phrased for the diagnostic message.
    what: &'static str,
    /// The per-site rule whose `lint:allow` also clears the taint rule.
    site_rule: Option<&'static str>,
}

/// Collects the nondeterminism sinks of one file. The clock and rng
/// facades are the declared sinks: their own bodies are exempt.
fn det_sinks(file: &FileData) -> Vec<Sink> {
    let mut out = Vec::new();
    for (l, code) in file.masked.code.iter().enumerate() {
        if is_test_line(file, l) {
            continue;
        }
        if file.path != rules::CLOCK_FACADE {
            if let Some(col) = rules::match_wall_clock(code) {
                out.push(Sink {
                    line: l,
                    col,
                    what: "reads the wall clock",
                    site_rule: Some("det-wall-clock"),
                });
            } else if let Some(col) = code.find("WallClock") {
                out.push(Sink {
                    line: l,
                    col,
                    what: "constructs the real-time clock",
                    site_rule: Some("det-wall-clock"),
                });
            }
        }
        if file.path != rules::RNG_FACADE {
            if let Some(col) = rules::match_rng_adhoc(code) {
                out.push(Sink {
                    line: l,
                    col,
                    what: "re-seeds or re-implements a random generator",
                    site_rule: Some("det-rng-adhoc"),
                });
            }
        }
        if let Some(col) = rules::match_unordered_collection(code) {
            out.push(Sink {
                line: l,
                col,
                what: "uses an unordered hash collection",
                site_rule: Some("det-unordered-collection"),
            });
        }
        if let Some(col) = code
            .find("thread::current")
            .or_else(|| code.find("ThreadId"))
        {
            out.push(Sink {
                line: l,
                col,
                what: "branches on the current thread identity",
                site_rule: None,
            });
        }
    }
    out
}

/// Whether a function is a deterministic pipeline entry point.
fn is_det_entry(path: &str, item: &crate::symbols::FnItem) -> bool {
    matches!(
        item.qual.as_deref(),
        Some("FitEngine") | Some("EngineSession") | Some("MigrationOrchestrator")
    ) || (path.starts_with("crates/chaos/src/") && item.name.starts_with("replay"))
        || (path.starts_with("crates/qos/src/") && item.name.starts_with("translate"))
        || path.starts_with("crates/trace/src/kernels.rs")
        || (path.starts_with("crates/placement/src/sumtree.rs") && item.qual.is_some())
}

fn det_taint(
    files: &[FileData],
    ranges: &[Vec<(usize, usize, usize)>],
    graph: &callgraph::CallGraph,
    rule: &Rule,
    config: &Config,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let mut entries = Vec::new();
    for (f, file) in files.iter().enumerate() {
        for (i, item) in file.symbols.fns.iter().enumerate() {
            if !item.is_test && is_det_entry(&file.path, item) {
                entries.push((f, i));
            }
        }
    }
    if entries.is_empty() {
        return;
    }
    let reach = graph.reach(&entries);

    for (f, file) in files.iter().enumerate() {
        let Some(severity) = rule.severity_at(&file.path) else {
            continue;
        };
        for sink in det_sinks(file) {
            let mut ids = vec![rule.id];
            ids.extend(sink.site_rule);
            if site_allowed(file, sink.line, &ids, config) {
                continue;
            }
            let Some(i) = fn_at(&ranges[f], sink.line) else {
                continue;
            };
            if !reach.contains((f, i)) {
                continue;
            }
            let chain = reach.path_to((f, i));
            let entry = symbol_name(files, chain[0]);
            let mut path = chain_steps(files, &chain);
            path.push(PathStep {
                symbol: format!("sink: {}", sink.what),
                file: file.path.clone(),
                line: sink.line + 1,
            });
            diagnostics.push(Diagnostic {
                rule: rule.id.into(),
                severity,
                file: file.path.clone(),
                line: sink.line + 1,
                column: sink.col + 1,
                message: format!(
                    "deterministic entry point `{entry}` reaches a site that {} \
                     ({} call step(s) away)",
                    sink.what,
                    chain.len() - 1
                ),
                hint: rules::oneline(rule.hint),
                path,
            });
        }
    }
}

// -------------------------------------------------------------- panic-reach

/// A line matcher paired with its per-site rule id and site description.
type PanicSite = (fn(&str) -> Option<usize>, &'static str, &'static str);

/// The per-site panic matchers, their rule ids, and site descriptions.
const PANIC_SITES: [PanicSite; 4] = [
    (rules::match_unwrap, "panic-unwrap", "unwrap()"),
    (rules::match_expect, "panic-expect", "expect()"),
    (rules::match_panic_macro, "panic-macro", "panicking macro"),
    (
        rules::match_slice_index,
        "panic-slice-index",
        "non-literal slice index",
    ),
];

fn panic_reach(
    files: &[FileData],
    ranges: &[Vec<(usize, usize, usize)>],
    graph: &callgraph::CallGraph,
    rule: &Rule,
    config: &Config,
    diagnostics: &mut Vec<Diagnostic>,
) {
    // Two entry tiers: public APIs of the library crates (errors), and
    // public/`main` functions of the relaxed tier (warnings).
    let mut entries_err = Vec::new();
    let mut entries_warn = Vec::new();
    for (f, file) in files.iter().enumerate() {
        for (i, item) in file.symbols.fns.iter().enumerate() {
            if item.is_test {
                continue;
            }
            match rule.severity_at(&file.path) {
                Some(Severity::Error) if item.is_pub => entries_err.push((f, i)),
                Some(Severity::Warn) if item.is_pub || item.name == "main" => {
                    entries_warn.push((f, i));
                }
                _ => {}
            }
        }
    }
    let reach_err = graph.reach(&entries_err);
    let reach_warn = graph.reach(&entries_warn);

    for (f, file) in files.iter().enumerate() {
        let Some(file_severity) = rule.severity_at(&file.path) else {
            continue;
        };
        for (l, code) in file.masked.code.iter().enumerate() {
            if is_test_line(file, l) {
                continue;
            }
            for (matcher, site_rule, what) in PANIC_SITES {
                let Some(col) = matcher(code) else {
                    continue;
                };
                if site_allowed(file, l, &[rule.id, site_rule], config) {
                    continue;
                }
                let Some(i) = fn_at(&ranges[f], l) else {
                    continue;
                };
                let item = &file.symbols.fns[i];
                // Direct sites in public fns are the per-site rules' job;
                // this rule is about aborts that cross a privacy boundary.
                if item.is_pub || item.is_test {
                    continue;
                }
                let id = (f, i);
                let hit = |r: &Reachability| r.contains(id) && !r.is_entry(id);
                let (reach, severity) = if hit(&reach_err) {
                    (&reach_err, file_severity)
                } else if hit(&reach_warn) {
                    (&reach_warn, Severity::Warn)
                } else {
                    continue;
                };
                let chain = reach.path_to(id);
                let entry = symbol_name(files, chain[0]);
                let mut path = chain_steps(files, &chain);
                path.push(PathStep {
                    symbol: format!("panic site: {what}"),
                    file: file.path.clone(),
                    line: l + 1,
                });
                diagnostics.push(Diagnostic {
                    rule: rule.id.into(),
                    severity,
                    file: file.path.clone(),
                    line: l + 1,
                    column: col + 1,
                    message: format!(
                        "{what} in private `{}` is reachable from public API \
                         `{entry}` ({} call step(s) away)",
                        symbol_name(files, id),
                        chain.len() - 1
                    ),
                    hint: rules::oneline(rule.hint),
                    path,
                });
            }
        }
    }
}

// -------------------------------------------------------- obs-name-registry

fn obs_name_registry(
    files: &[FileData],
    sigs: &[Vec<usize>],
    ranges: &[Vec<(usize, usize, usize)>],
    rule: &Rule,
    config: &Config,
    diagnostics: &mut Vec<Diagnostic>,
) {
    // The registry is the source of truth; without it (e.g. single-file
    // fixture runs) the rule has nothing to resolve against.
    let Some(registry) = files.iter().find(|f| f.path == rules::OBS_NAMES_REGISTRY) else {
        return;
    };
    let values: BTreeSet<&str> = registry
        .symbols
        .consts
        .iter()
        .map(|c| c.value.as_str())
        .collect();
    let names: BTreeSet<&str> = registry
        .symbols
        .consts
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    let methods: Vec<&str> = rules::OBS_RECORDING_CALLS
        .iter()
        .map(|c| c.trim_start_matches('.').trim_end_matches('('))
        .collect();

    for (f, file) in files.iter().enumerate() {
        if file.path == rules::OBS_NAMES_REGISTRY {
            continue;
        }
        let Some(severity) = rule.severity_at(&file.path) else {
            continue;
        };
        let sig = &sigs[f];
        let text = |k: usize| file.tokens[sig[k]].text(&file.source);
        for k in 1..sig.len() {
            // Pattern A: `. method (` — the name is the next argument.
            // Pattern B: `Ctor :: new (` for the named constructors
            // (burn-rate rules, stream lines) — same position.
            let arg_at = if file.tokens[sig[k]].kind == TokenKind::Ident
                && methods.contains(&text(k))
                && text(k - 1) == "."
                && k + 2 < sig.len()
                && text(k + 1) == "("
            {
                k + 2
            } else if file.tokens[sig[k]].kind == TokenKind::Ident
                && rules::OBS_NAMED_CONSTRUCTORS.contains(&text(k))
                && k + 5 < sig.len()
                && text(k + 1) == ":"
                && text(k + 2) == ":"
                && text(k + 3) == "new"
                && text(k + 4) == "("
            {
                k + 5
            } else {
                continue;
            };
            let arg = &file.tokens[sig[arg_at]];
            if is_test_line(file, arg.line)
                || site_allowed(file, arg.line, &[rule.id, "obs-static-name"], config)
            {
                continue;
            }
            let finding = match arg.kind {
                TokenKind::Str | TokenKind::RawStr => lex::literal_content(arg, &file.source)
                    .and_then(|value| {
                        (!values.contains(value)).then(|| {
                            format!(
                                "metric/span name \"{value}\" is not declared in the \
                                 obs name registry ({})",
                                rules::OBS_NAMES_REGISTRY
                            )
                        })
                    }),
                TokenKind::Ident => {
                    // Walk the `a::b::CONST` path; only a pure path whose
                    // terminal segment looks like a constant is checked —
                    // computed expressions are obs-static-name's job.
                    let mut j = arg_at;
                    while j + 3 < sig.len()
                        && text(j + 1) == ":"
                        && text(j + 2) == ":"
                        && file.tokens[sig[j + 3]].kind == TokenKind::Ident
                    {
                        j += 3;
                    }
                    let terminal = text(j);
                    let pure_path = j + 1 < sig.len() && matches!(text(j + 1), ")" | ",");
                    let is_const = terminal
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                        && terminal.chars().any(|c| c.is_ascii_uppercase());
                    (pure_path && is_const && !names.contains(terminal)).then(|| {
                        format!(
                            "name constant `{terminal}` is not declared in the obs \
                             name registry ({})",
                            rules::OBS_NAMES_REGISTRY
                        )
                    })
                }
                _ => None,
            };
            let Some(message) = finding else {
                continue;
            };
            let mut path = Vec::new();
            if let Some(i) = fn_at(&ranges[f], arg.line) {
                path.push(PathStep {
                    symbol: symbol_name(files, (f, i)),
                    file: file.path.clone(),
                    line: file.symbols.fns[i].line + 1,
                });
            }
            path.push(PathStep {
                symbol: "obs name registry".into(),
                file: rules::OBS_NAMES_REGISTRY.into(),
                line: 1,
            });
            diagnostics.push(Diagnostic {
                rule: rule.id.into(),
                severity,
                file: file.path.clone(),
                line: arg.line + 1,
                column: arg.col + 1,
                message,
                hint: rules::oneline(rule.hint),
                path,
            });
        }
    }
}
