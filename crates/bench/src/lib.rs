//! Shared plumbing for the R-Opus experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index); this library holds the fleet
//! loader, the common output helpers, and the result-file writer they all
//! share so that EXPERIMENTS.md can be assembled from machine-readable
//! artifacts under `results/`. Performance is measured by the standalone
//! `perfbench/` benchmark, end to end and layer by layer; the only timing
//! binary here is `obs_overhead`, which gates the SLO engine's collector
//! cost.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

use ropus_trace::gen::{case_study_fleet, AppWorkload, FleetConfig};

/// The full-scale case-study fleet (26 apps, 4 weeks, 5-minute slots).
pub fn paper_fleet() -> Vec<AppWorkload> {
    case_study_fleet(&FleetConfig::paper())
}

/// Resolves the repository `results/` directory (created on demand):
/// prefers `$ROPUS_RESULTS`, falling back to `<crate>/../../results`.
///
/// # Panics
///
/// Panics if the directory cannot be created — experiment binaries have no
/// useful way to continue without a result sink.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("ROPUS_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes tab-separated rows (with a header) to `results/<name>.tsv` and
/// echoes the path.
///
/// # Panics
///
/// Panics on I/O failure, as the experiment's whole purpose is the file.
pub fn write_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.tsv"));
    let mut out = String::new();
    out.push_str(&header.join("\t"));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    fs::write(&path, out).expect("write result file");
    eprintln!("[results] wrote {}", path.display());
}

/// Formats a float with fixed precision for table output.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fleet_matches_study_shape() {
        let fleet = paper_fleet();
        assert_eq!(fleet.len(), 26);
        assert!(fleet.iter().all(|a| a.trace.weeks() == 4));
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn write_tsv_creates_file() {
        let dir = std::env::temp_dir().join("ropus-bench-test");
        std::env::set_var("ROPUS_RESULTS", &dir);
        write_tsv("unit-test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let content = fs::read_to_string(dir.join("unit-test.tsv")).unwrap();
        assert_eq!(content, "a\tb\n1\t2\n");
        std::env::remove_var("ROPUS_RESULTS");
    }
}
