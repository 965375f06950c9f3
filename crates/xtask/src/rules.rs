//! The rule registry: each rule is a matcher plus a path scope plus a fix
//! hint.
//!
//! Seven families protect the properties the R-Opus reproduction depends
//! on (see DESIGN.md §5b for the mapping to paper formulas):
//!
//! * **determinism** — CoS1 peak sums (formula 2), the θ min-over-weeks
//!   access probability (formulas 3–5), and the GA placement search must
//!   be bit-reproducible run-to-run, including under PR-1's parallel
//!   `FitEngine`. Besides the per-site textual rules, the call-graph
//!   `det-taint` rule proves the pipeline entry points cannot *reach*
//!   ambient nondeterminism through any call chain;
//! * **panic-freedom** — library crates surface `Result`s; a panic in a
//!   capacity-planning service is an availability bug. `panic-reach`
//!   reports panicking private helpers reachable from public APIs with
//!   the full call path;
//! * **unit-safety** — the QoS translation mixes slots, minutes, weeks,
//!   CPU fractions, and probabilities; bare numeric casts and exact float
//!   equality are where unit bugs hide;
//! * **efficiency** — traces share one immutable `Arc<[f64]>` buffer
//!   (DESIGN.md §5c); deep-copying a sample buffer in a hot path undoes
//!   the zero-copy refactor one call site at a time;
//! * **robustness** — the fault-injection work made every fallible entry
//!   point return a typed error; silently discarding a `Result` throws
//!   that information away and turns failures into wrong answers;
//! * **observability** — span/metric names form the stable vocabulary of
//!   the obs layer (DESIGN.md §5e); names must be literals
//!   (`obs-static-name`) *and* declared in the one registry module
//!   (`obs-name-registry`) so dashboards and the docs never drift;
//! * **meta** — escape-hatch hygiene for the lint machinery itself.
//!
//! Textual matchers run on *masked* lines derived from the lossless
//! token stream (see [`crate::scan`]), so tokens in prose never fire.
//! Call-graph rules (`graph == true`) run in the whole-workspace pass
//! (see [`crate::analyze`]) and attach call-path evidence.

/// Rule family, used for grouping in reports and docs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Family {
    /// Bit-reproducibility of scoring, placement, and reports.
    Determinism,
    /// No panicking operations in library crates.
    PanicFreedom,
    /// No unit-erasing numeric operations in QoS formula code.
    UnitSafety,
    /// No needless deep copies of shared sample buffers.
    Efficiency,
    /// No silently discarded `Result`s in library crates.
    Robustness,
    /// Literal, registry-declared span/metric names in obs calls.
    Observability,
    /// Rules about the lint machinery itself (escape-hatch hygiene).
    Meta,
}

impl Family {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::PanicFreedom => "panic-freedom",
            Family::UnitSafety => "unit-safety",
            Family::Efficiency => "efficiency",
            Family::Robustness => "robustness",
            Family::Observability => "observability",
            Family::Meta => "meta",
        }
    }
}

/// Diagnostic severity: errors gate CI (exit code 2), warnings inform.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// A rule violation in the rule's primary scope.
    Error,
    /// The same finding in the relaxed scope (cli, examples, tests).
    Warn,
}

impl Severity {
    /// Lower-case label used in reports ("error" / "warn").
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

/// Which files a rule applies to (paths are repo-relative with `/`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Scope {
    /// The seven library crates: `core`, `qos`, `trace`, `placement`,
    /// `wlm`, `chaos`, `obs`.
    LibCrates,
    /// The QoS-translation formula modules (`crates/qos/src`).
    Qos,
    /// Everything scanned except the seeded-RNG facade itself.
    AllButRngFacade,
    /// Everything scanned except the obs clock facade itself.
    AllButClockFacade,
    /// The relaxed tier: the CLI crate, `examples/`, and `tests/` —
    /// production-adjacent code scanned with panic-freedom downgraded
    /// to warnings.
    Relaxed,
    /// Every scanned file.
    All,
}

const LIB_CRATES: [&str; 7] = [
    "crates/core/src/",
    "crates/qos/src/",
    "crates/trace/src/",
    "crates/placement/src/",
    "crates/wlm/src/",
    "crates/chaos/src/",
    "crates/obs/src/",
];

/// The seeded-RNG facade: the one module allowed to implement generators.
pub const RNG_FACADE: &str = "crates/trace/src/rng.rs";

/// The obs clock facade: the one module allowed to read the wall clock.
pub const CLOCK_FACADE: &str = "crates/obs/src/clock.rs";

/// The obs name registry: the one module declaring every metric/span
/// name (the `obs-name-registry` rule's source of truth).
pub const OBS_NAMES_REGISTRY: &str = "crates/obs/src/names.rs";

impl Scope {
    /// Whether `path` falls inside this scope.
    pub fn contains(self, path: &str) -> bool {
        match self {
            Scope::LibCrates => LIB_CRATES.iter().any(|p| path.starts_with(p)),
            Scope::Qos => path.starts_with("crates/qos/src/"),
            Scope::AllButRngFacade => path != RNG_FACADE,
            Scope::AllButClockFacade => path != CLOCK_FACADE,
            Scope::Relaxed => {
                path.starts_with("crates/cli/src/")
                    || path.starts_with("examples/")
                    || path.starts_with("tests/")
            }
            Scope::All => true,
        }
    }

    /// Human-readable scope description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Scope::LibCrates => "library crates (core, qos, trace, placement, wlm, chaos, obs)",
            Scope::Qos => "QoS formula modules (crates/qos/src)",
            Scope::AllButRngFacade => "all crates except the rng facade",
            Scope::AllButClockFacade => "all crates except the obs clock facade",
            Scope::Relaxed => "relaxed tier (crates/cli, examples/, tests/)",
            Scope::All => "all crates",
        }
    }
}

/// One lint rule: identity, scope, and a per-line matcher.
pub struct Rule {
    /// Stable kebab-case id, used in diagnostics, `lint:allow`, and
    /// `lints.toml`.
    pub id: &'static str,
    /// Family the rule belongs to.
    pub family: Family,
    /// One-line statement of the violation.
    pub summary: &'static str,
    /// How to fix (or justify) a hit.
    pub hint: &'static str,
    /// Whether `#[cfg(test)]` code is exempt.
    pub exempt_tests: bool,
    /// Path scope in which a hit is an error.
    pub scope: Scope,
    /// Additional scope in which a hit is only a warning.
    pub warn_scope: Option<Scope>,
    /// Whether the rule runs in the whole-workspace call-graph pass
    /// instead of the per-line matcher loop.
    pub graph: bool,
    /// Returns the 0-based column of the first match on a masked line.
    pub matcher: fn(&str) -> Option<usize>,
}

impl Rule {
    /// The severity a hit carries at `path`, or `None` if out of scope.
    pub fn severity_at(&self, path: &str) -> Option<Severity> {
        if self.scope.contains(path) {
            return Some(Severity::Error);
        }
        if self.warn_scope.is_some_and(|s| s.contains(path)) {
            return Some(Severity::Warn);
        }
        None
    }
}

/// The relaxed warn tier shared by the panic-freedom rules.
const PANIC_WARN: Option<Scope> = Some(Scope::Relaxed);

/// The registry, in report order. Ids are unique and stable.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "det-unordered-collection",
            family: Family::Determinism,
            summary: "HashMap/HashSet in a deterministic path: iteration order is \
                      randomized per process and would make scores, reports, and \
                      placement results run-dependent",
            hint: "use BTreeMap/BTreeSet (or sort before iterating); a lookup-only \
                   cache may be justified with lint:allow(det-unordered-collection)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: None,
            graph: false,
            matcher: match_unordered_collection,
        },
        Rule {
            id: "det-wall-clock",
            family: Family::Determinism,
            summary: "wall-clock read (Instant/SystemTime) outside the obs clock \
                      facade: every timestamp must flow through the Clock trait so \
                      deterministic runs can install NullClock",
            hint: "take timings from ropus_obs::{Clock, WallClock} (or the clock on \
                   the obs collector); only crates/obs/src/clock.rs may read \
                   std::time, or justify with lint:allow(det-wall-clock)",
            exempt_tests: true,
            scope: Scope::AllButClockFacade,
            warn_scope: None,
            graph: false,
            matcher: match_wall_clock,
        },
        Rule {
            id: "det-rng-adhoc",
            family: Family::Determinism,
            summary: "ad-hoc randomness outside the seeded facade: every random \
                      stream must come from ropus_trace::rng so experiments are \
                      bit-reproducible and forkable per workload",
            hint: "construct randomness via ropus_trace::rng::Rng (seed_from_u64 / \
                   fork); never thread_rng, RandomState hashing, or re-implemented \
                   generator constants",
            exempt_tests: false,
            scope: Scope::AllButRngFacade,
            warn_scope: None,
            graph: false,
            matcher: match_rng_adhoc,
        },
        Rule {
            id: "det-taint",
            family: Family::Determinism,
            summary: "nondeterminism sink reachable from a deterministic pipeline \
                      entry point (FitEngine / EngineSession / chaos replay / \
                      translate / slot scheduler): the planning pipeline must stay a pure function \
                      of its inputs",
            hint: "route the call chain through the obs clock facade or the seeded \
                   rng facade, or break the edge; justify a provably inert sink \
                   with lint:allow(det-taint) at the sink site",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: None,
            graph: true,
            matcher: |_| None,
        },
        Rule {
            id: "panic-unwrap",
            family: Family::PanicFreedom,
            summary: "unwrap() aborts the process on Err/None: errors must \
                      surface as typed Results",
            hint: "propagate with `?` or a typed error; for a provable invariant \
                   use expect() with lint:allow(panic-expect) and a justification",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: PANIC_WARN,
            graph: false,
            matcher: match_unwrap,
        },
        Rule {
            id: "panic-expect",
            family: Family::PanicFreedom,
            summary: "expect() without a recorded invariant",
            hint: "propagate with `?` where the failure is reachable; where it is \
                   a local invariant, keep expect() and add \
                   lint:allow(panic-expect): <why the invariant holds>",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: PANIC_WARN,
            graph: false,
            matcher: match_expect,
        },
        Rule {
            id: "panic-macro",
            family: Family::PanicFreedom,
            summary: "panic!/unreachable!/todo!/unimplemented! aborts the process \
                      (assert! is permitted: it documents preconditions)",
            hint: "return a typed error; for genuinely unreachable arms justify \
                   with lint:allow(panic-macro)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: PANIC_WARN,
            graph: false,
            matcher: match_panic_macro,
        },
        Rule {
            id: "panic-slice-index",
            family: Family::PanicFreedom,
            summary: "slice/Vec indexing with a non-literal index: out-of-bounds \
                      panics are the most common library abort",
            hint: "prefer get()/first()/last() or iterators; loop-counter indexing \
                   whose bound is the indexed length may be justified with \
                   lint:allow(panic-slice-index) or a lints.toml entry",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: PANIC_WARN,
            graph: false,
            matcher: match_slice_index,
        },
        Rule {
            id: "panic-reach",
            family: Family::PanicFreedom,
            summary: "panic site in a private function reachable from a public \
                      API: the abort surfaces to callers who never see it in the \
                      signature",
            hint: "make the private helper return a typed error and propagate, or \
                   justify the site with lint:allow on its per-site panic rule \
                   (which also clears this path)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: PANIC_WARN,
            graph: true,
            matcher: |_| None,
        },
        Rule {
            id: "unit-float-cast",
            family: Family::UnitSafety,
            summary: "bare float<->int `as` cast in QoS formula code: silently \
                      erases units and saturates/truncates out of range",
            hint: "use the qos::units helpers (units::count for counts->f64, \
                   checked conversions for float->int)",
            exempt_tests: true,
            scope: Scope::Qos,
            warn_scope: None,
            graph: false,
            matcher: match_float_cast,
        },
        Rule {
            id: "unit-float-eq",
            family: Family::UnitSafety,
            summary: "exact ==/!= against a float literal in QoS formula code",
            hint: "use qos::units::approx_eq / units::is_zero (epsilon \
                   comparisons) instead of bitwise float equality",
            exempt_tests: true,
            scope: Scope::Qos,
            warn_scope: None,
            graph: false,
            matcher: match_float_eq,
        },
        Rule {
            id: "needless-trace-clone",
            family: Family::Efficiency,
            summary: "deep copy of a trace sample buffer (samples().to_vec() and \
                      friends): traces share one immutable Arc buffer, so \
                      Trace::clone() and weeks_range() are O(1) while a sample \
                      copy is O(len) per call",
            hint: "borrow the slice from samples(), clone the Trace itself \
                   (O(1)), or window with weeks_range(); a genuine \
                   ownership hand-off (e.g. sorting for percentiles) may be \
                   justified with lint:allow(needless-trace-clone)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: None,
            graph: false,
            matcher: match_trace_sample_copy,
        },
        Rule {
            id: "robust-result-discard",
            family: Family::Robustness,
            summary: "silently discarded statement result (`let _ = ...;` or a \
                      bare `.ok();`): if the expression returns a Result, the \
                      failure vanishes without a trace",
            hint: "handle or propagate the error (`?`, match, or log through a \
                   typed path); a genuinely ignorable Result may be justified \
                   with lint:allow(robust-result-discard)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: None,
            graph: false,
            matcher: match_result_discard,
        },
        Rule {
            id: "obs-static-name",
            family: Family::Observability,
            summary: "observability recording call with a computed name: span \
                      and metric names are the obs layer's stable vocabulary \
                      and must be string literals or registry constants",
            hint: "pass a \"layer.noun.verb\" literal or a names:: constant; \
                   put variable data in event attributes or samples, never in \
                   the name; a deliberate indirection may be justified with \
                   lint:allow(obs-static-name)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: Some(Scope::Relaxed),
            graph: false,
            matcher: match_obs_dynamic_name,
        },
        Rule {
            id: "obs-name-registry",
            family: Family::Observability,
            summary: "metric/span name not declared in the obs name registry \
                      (crates/obs/src/names.rs): every recording site — and \
                      every named constructor (burn-rate rules, subscribe \
                      stream line kinds) — must use a name the registry \
                      declares so the vocabulary cannot drift silently",
            hint: "add a `pub const` for the name to crates/obs/src/names.rs \
                   (grouped by layer) or reference an existing names:: constant; \
                   a deliberately unregistered name may be justified with \
                   lint:allow(obs-name-registry)",
            exempt_tests: true,
            scope: Scope::LibCrates,
            warn_scope: Some(Scope::Relaxed),
            graph: true,
            matcher: |_| None,
        },
        Rule {
            id: "lint-allow-syntax",
            family: Family::Meta,
            summary: "malformed lint:allow marker: unknown rule id or missing \
                      `: justification`",
            hint: "write `lint:allow(<known-rule-id>): <why the invariant holds>`",
            exempt_tests: false,
            scope: Scope::All,
            warn_scope: None,
            graph: false,
            // Produced by the driver from the comment stream, never from code.
            matcher: |_| None,
        },
    ]
}

/// True if `id` names a registered rule.
pub fn is_known_rule(id: &str) -> bool {
    registry().iter().any(|r| r.id == id)
}

/// Collapses the registry's wrapped string literals to single-line text
/// for diagnostics.
pub fn oneline(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn find_any(line: &str, tokens: &[&str]) -> Option<usize> {
    tokens.iter().filter_map(|t| line.find(t)).min()
}

pub(crate) fn match_unordered_collection(line: &str) -> Option<usize> {
    find_any(line, &["HashMap", "HashSet"])
}

pub(crate) fn match_wall_clock(line: &str) -> Option<usize> {
    find_any(line, &["Instant", "SystemTime", "UNIX_EPOCH"])
}

pub(crate) fn match_rng_adhoc(line: &str) -> Option<usize> {
    find_any(
        line,
        &[
            "thread_rng",
            "from_entropy",
            "RandomState",
            "DefaultHasher",
            // SplitMix64 / golden-gamma constants: the signature of a
            // re-implemented generator outside the facade.
            "0x9E3779B97F4A7C15",
            "0x9e3779b97f4a7c15",
            "0xBF58476D1CE4E5B9",
            "0x94D049BB133111EB",
        ],
    )
}

pub(crate) fn match_unwrap(line: &str) -> Option<usize> {
    line.find(".unwrap()")
}

pub(crate) fn match_expect(line: &str) -> Option<usize> {
    line.find(".expect(")
}

pub(crate) fn match_panic_macro(line: &str) -> Option<usize> {
    find_any(
        line,
        &["panic!(", "unreachable!(", "todo!(", "unimplemented!("],
    )
}

/// Indexing expression `recv[index]` where `index` is not an integer
/// literal and not the full range `..`. Literal indexing of fixed-size
/// arrays is infallible-by-inspection, so it is left alone.
pub(crate) fn match_slice_index(line: &str) -> Option<usize> {
    if line.trim_start().starts_with('#') {
        // Attribute, e.g. `#[serde(default)]` — bracket syntax, not indexing.
        return None;
    }
    let chars: Vec<char> = line.chars().collect();
    let mut i = 1usize;
    while i < chars.len() {
        if chars[i] != '[' {
            i += 1;
            continue;
        }
        let prev = chars[i - 1];
        let is_receiver = prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']';
        if !is_receiver {
            i += 1;
            continue;
        }
        // Find the matching close bracket on this line.
        let mut depth = 1i32;
        let mut j = i + 1;
        while j < chars.len() && depth > 0 {
            match chars[j] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            // Index expression spans lines: out of reach for a line matcher.
            return None;
        }
        let index: String = chars[i + 1..j - 1].iter().collect();
        let index = index.trim();
        let literal = !index.is_empty() && index.chars().all(|c| c.is_ascii_digit() || c == '_');
        if !index.is_empty() && !literal && index != ".." {
            return Some(i);
        }
        i = j;
    }
    None
}

/// Int→float `as f64/f32`, or a rounding-method result cast straight to an
/// integer type (`.ceil() as usize` and friends).
pub(crate) fn match_float_cast(line: &str) -> Option<usize> {
    for token in [" as f64", " as f32"] {
        if let Some(p) = line.find(token) {
            let after = line[p + token.len()..].chars().next();
            if after.is_none_or(|c| !c.is_alphanumeric() && c != '_') {
                return Some(p + 1);
            }
        }
    }
    find_any(
        line,
        &[
            ".ceil() as ",
            ".floor() as ",
            ".round() as ",
            ".trunc() as ",
        ],
    )
}

/// Deep copy of a trace's sample buffer: `.to_vec()` / `.to_owned()` /
/// `.clone()` applied to a `samples` binding or a `samples()` accessor.
/// Plain `Trace::clone()` is *not* matched — it is an O(1) refcount bump
/// and the encouraged way to keep a trace around.
pub(crate) fn match_trace_sample_copy(line: &str) -> Option<usize> {
    find_any(
        line,
        &[
            "samples().to_vec()",
            "samples.to_vec()",
            "samples().to_owned()",
            "samples.to_owned()",
            "samples().clone()",
            "samples.clone()",
        ],
    )
}

/// Wildcard discard `let _ = ...` (any statement result thrown away
/// unnamed — the idiom that silently swallows `Result`s), or a statement
/// whose entire effect is `expr.ok();`. Bindings (`let x = y.ok();`),
/// assignments, and `return y.ok();` keep the value and are left alone.
pub(crate) fn match_result_discard(line: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(p) = line[from..].find("let _") {
        let at = from + p;
        let before_ok = line[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let rest = &line[at + 5..];
        let boundary = rest
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let binds = rest.trim_start().starts_with('=') && !rest.trim_start().starts_with("==");
        if before_ok && boundary && binds {
            return Some(at);
        }
        from = at + 5;
    }
    let trimmed = line.trim();
    if trimmed.ends_with(".ok();") && !trimmed.contains('=') && !trimmed.starts_with("return") {
        return line.find(".ok();");
    }
    None
}

/// Obs recording call (`.span(`, `.event(`, `.counter(`, ...) whose first
/// argument does not start with a string literal. Masked lines keep their
/// quote characters, so checking the first non-space character after `(`
/// against `"` works even though string *contents* are blanked. A call
/// whose arguments wrap to the next line is out of reach for a line
/// matcher and is left alone (mirroring `match_slice_index`).
/// `ObsReport` lookups deliberately do not share these method names, so
/// they never fire here.
///
/// A SCREAMING_SNAKE constant path (`names::QOS_TRANSLATIONS`) is also
/// accepted: it is still a static name, and the `obs-name-registry` rule
/// verifies that the constant actually resolves to the registry.
pub(crate) fn match_obs_dynamic_name(line: &str) -> Option<usize> {
    let mut hit: Option<usize> = None;
    for token in OBS_RECORDING_CALLS {
        let mut from = 0usize;
        while let Some(p) = line[from..].find(token) {
            let at = from + p;
            let after = line[at + token.len()..].trim_start();
            if !after.is_empty() && !after.starts_with('"') && !is_const_name_ref(after) {
                hit = Some(hit.map_or(at, |h| h.min(at)));
            }
            from = at + token.len();
        }
    }
    hit
}

/// The obs recording methods whose first argument is a name. Shared with
/// the `obs-name-registry` token pass (which strips the `.`/`(`).
pub(crate) const OBS_RECORDING_CALLS: [&str; 6] = [
    ".span(",
    ".event(",
    ".counter(",
    ".timing_counter(",
    ".gauge(",
    ".histogram(",
];

/// Types whose `::new` takes a registry name as its first argument:
/// burn-rate alert rules and `serve` subscribe stream lines. The
/// `obs-name-registry` token pass checks `Type::new(<name>, ...)` sites
/// against the registry just like recording calls.
pub(crate) const OBS_NAMED_CONSTRUCTORS: [&str; 2] = ["BurnRateRule", "StreamLine"];

/// Whether an argument string starts with a constant-name path: the
/// terminal `::` segment is SCREAMING_SNAKE (so plain variables and
/// method calls do not qualify).
fn is_const_name_ref(after: &str) -> bool {
    let end = after
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(after.len());
    let last = after[..end].rsplit("::").next().unwrap_or("");
    !last.is_empty()
        && last
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && last.chars().any(|c| c.is_ascii_uppercase())
}

/// `==` / `!=` with a float literal on either side.
pub(crate) fn match_float_eq(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let op = &line[i..i + 2];
        let is_eq = op == "==" || op == "!=";
        let standalone = is_eq
            && (i == 0 || !matches!(bytes[i - 1], b'=' | b'!' | b'<' | b'>'))
            && bytes.get(i + 2) != Some(&b'=');
        if standalone {
            let left = trailing_token(&line[..i]);
            let right = leading_token(&line[i + 2..]);
            if is_float_literal(left) || is_float_literal(right) {
                return Some(i);
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    None
}

fn trailing_token(s: &str) -> &str {
    let s = s.trim_end();
    let start = s
        .rfind(|c: char| !c.is_alphanumeric() && c != '_' && c != '.')
        .map_or(0, |p| p + 1);
    &s[start..]
}

fn leading_token(s: &str) -> &str {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !c.is_alphanumeric() && c != '_' && c != '.')
        .unwrap_or(s.len());
    &s[..end]
}

fn is_float_literal(token: &str) -> bool {
    token.chars().next().is_some_and(|c| c.is_ascii_digit()) && token.contains('.')
}
