//! `cargo run -p xtask -- lint` — the workspace invariant gate.
//!
//! Exit codes: 0 clean (warnings allowed), 2 rule violations found,
//! 1 analyzer internal error (bad usage, unreadable workspace, or a
//! failed `--self-check`). CI gates on 2 and treats 1 as a tooling
//! failure rather than a code problem.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::config::Config;
use xtask::{fixtures, report, rules};

const USAGE: &str = "\
usage: cargo run -p xtask -- lint [options]

options:
    --format <text|json>         output format (default: text)
    --root <dir>                 workspace root (default: autodetected)
    --config <path>              lints.toml path (default: <root>/crates/xtask/lints.toml)
    --list-rules                 print the rule registry and exit
    --self-check                 run the linter over its own fixture pairs and exit

exit codes: 0 clean, 2 violations found, 1 internal error
";

/// Violations found: the caller should fail the gate.
const EXIT_VIOLATIONS: u8 = 2;
/// The analyzer itself failed (usage, I/O, or self-check).
const EXIT_INTERNAL: u8 = 1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("xtask: {message}");
            ExitCode::from(EXIT_INTERNAL)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("lint") => {}
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
    }

    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut self_check = false;
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--format" => {
                format = iter
                    .next()
                    .ok_or_else(|| format!("--format needs a value\n{USAGE}"))?
                    .clone();
                if format != "text" && format != "json" {
                    return Err(format!("unknown format `{format}`\n{USAGE}"));
                }
            }
            "--root" => {
                root = Some(PathBuf::from(
                    iter.next()
                        .ok_or_else(|| format!("--root needs a value\n{USAGE}"))?,
                ));
            }
            "--config" => {
                config_path = Some(PathBuf::from(
                    iter.next()
                        .ok_or_else(|| format!("--config needs a value\n{USAGE}"))?,
                ));
            }
            "--list-rules" => list_rules = true,
            "--self-check" => self_check = true,
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }

    if list_rules {
        for rule in rules::registry() {
            println!(
                "{:<26} {:<14} scope: {}",
                rule.id,
                rule.family.label(),
                rule.scope.describe()
            );
            println!("{:<26} {}", "", rules::oneline(rule.summary));
        }
        return Ok(ExitCode::SUCCESS);
    }

    if self_check {
        return match fixtures::self_check() {
            Ok(summary) => {
                println!("{summary}");
                Ok(ExitCode::SUCCESS)
            }
            Err(failures) => {
                for failure in &failures {
                    eprintln!("self-check: {failure}");
                }
                Err(format!(
                    "self-check failed with {} error(s)",
                    failures.len()
                ))
            }
        };
    }

    // Default root: this crate lives at <root>/crates/xtask.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    let config_path = config_path.unwrap_or_else(|| root.join("crates/xtask/lints.toml"));
    let config = if config_path.exists() {
        let text = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
        Config::parse(&text).map_err(|e| format!("{}: {e}", config_path.display()))?
    } else {
        Config::default()
    };

    let outcome = xtask::lint_workspace(&root, &config)?;
    let rendered = match format.as_str() {
        "json" => report::render_json(&outcome.diagnostics, outcome.files_scanned),
        _ => report::render_text(&outcome.diagnostics, outcome.files_scanned),
    };
    println!("{rendered}");
    if outcome.errors() == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(EXIT_VIOLATIONS))
    }
}
